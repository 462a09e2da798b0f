"""Set up one workload in a fresh interpreter and report ready.

    python3 perfbench/setup_probe.py <workload> <seed>

The benchmark starts this script several times and takes the time from
starting the interpreter to the ``ready`` line as ``setup_s``: importing
the package and building what the workload needs before its first call.
"""

import sys

import checkout

checkout.use_checkout_library()

import workloads  # noqa: E402  (needs the checkout's library on the path)

workloads.library_setup(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
