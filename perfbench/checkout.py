"""Locate the library source of the checkout the benchmark runs in.

The benchmark is run from the root of a checkout and imports the package
from ``src/`` there, never from an installed copy.  BLAS thread pools are
pinned to one thread before NumPy is imported, so every workload runs as a
single caller on one core.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class CheckoutError(RuntimeError):
    """The checkout holds no importable library source."""


def child_env() -> dict:
    """Environment for benchmark subprocesses: pinned threads, library on the path."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def use_checkout_library():
    """Pin BLAS threads, put ``src/`` first on the path and import the package.

    Raises CheckoutError when the checkout has no ``src/bgkspectral`` or the
    import resolves to a copy outside it.
    """
    os.environ.update(THREAD_ENV)
    if not os.path.isfile(os.path.join(SRC, "bgkspectral", "__init__.py")):
        raise CheckoutError(f"no library source under {SRC}")
    sys.path.insert(0, SRC)
    import bgkspectral

    if not os.path.abspath(bgkspectral.__file__).startswith(SRC + os.sep):
        raise CheckoutError(f"bgkspectral imported from {bgkspectral.__file__}, not {SRC}")
    return bgkspectral
