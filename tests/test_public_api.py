"""The package's public surface: the names the CLI and the paper need."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bgkspectral
from bgkspectral import make_params, moments
from bgkspectral.dispersion import lambda_boundary, lambda_fn, lambda_pv

PUBLIC = [
    "DomainError", "EigenData", "EvaluationError", "FM_DECAY_RATE",
    "FM_DECAY_RATE_QUOTED", "FreeMolecularSolution", "GasParams",
    "IllConditionedContourError", "QuadratureScheme", "SokhotskyJump",
    "SpectralExpansion", "WrongRegionError", "apply_expansion", "count_zeros",
    "discrete_solution", "discrete_solution_dx", "eigen_data",
    "eigenfunction_regular", "fm_general_solution", "fm_kernel",
    "fm_project_system", "fm_residual", "integrate_pv", "integrate_weighted",
    "kernel_q_c", "keyhole_contour", "lambda_a0", "lambda_a0_boundary",
    "lambda_a0_pv", "lambda_boundary", "lambda_c", "lambda_c_boundary",
    "lambda_c_pv", "lambda_fn", "lambda_matrix", "lambda_pv",
    "laurent_order_at_infinity", "make_params", "make_scheme", "mu_of",
    "normalization_check", "pv_interval", "residual_2_4", "semicircle_contour",
    "sokhotsky_jump", "tn_boundary_array", "tn_offcut_array", "tn_pv_array",
    "velocity_map",
]


def test_public_names_pinned():
    assert len(PUBLIC) == 49
    assert sorted(bgkspectral.__all__) == PUBLIC


#: the parameters with a default, as module.function.parameter, over the
#: functions defined in the modules below
DEFAULTED = [
    "cli.main.argv", "spectrum.apply_expansion.derivative", "spectrum.residual_2_4.dh_dx",
]


def test_defaulted_parameters_pinned():
    found = []
    for name in ("params", "quadrature", "moments", "dispersion", "spectrum", "limits", "cli"):
        module = importlib.import_module(f"bgkspectral.{name}")
        for fname, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                found += [f"{name}.{fname}.{p.name}" for p in inspect.signature(fn).parameters.values()
                          if p.default is not inspect.Parameter.empty]
    assert len(DEFAULTED) == 3
    assert sorted(found) == DEFAULTED


def test_public_names_unique_and_resolve():
    assert len(set(bgkspectral.__all__)) == len(bgkspectral.__all__)
    for name in bgkspectral.__all__:
        assert getattr(bgkspectral, name) is not None


def _names_read(path):
    """The names a Python file reads: loaded names, attributes and imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_public_names_are_used_outside_tests():
    # a public name is used by the package itself, shown in the README or
    # called by the benchmark; a name that only tests read is a test helper
    root = Path(__file__).resolve().parents[1]
    used = set(re.findall(r"\w+", (root / "README.md").read_text()))
    for path in (*(root / "src" / "bgkspectral").glob("*.py"), *(root / "perfbench").glob("*.py")):
        if path.name != "__init__.py":
            used |= _names_read(path)
    assert sorted(set(bgkspectral.__all__) - used) == []


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this package; it
    exits 0 when its check holds."""
    src = os.path.dirname(bgkspectral.__path__[0])
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_import_leaves_interpolation_out():
    # scipy.interpolate is imported only when a SpectralExpansion is built
    _run_fresh("import sys, bgkspectral; "
               "sys.exit('scipy.interpolate' in sys.modules)")


def test_quadrature_rules_leave_linalg_out(tmp_path):
    # the Gauss-Legendre rules are tables: building a scheme and running the
    # commands that integrate loads no scipy.linalg (an eigen-solve would)
    commands = ["spectrum-verify --a 1",
                "dispersion-curve --a 0 --x-min -4 --x-max 4 --points 401",
                "fm-solve --A0 1 --At1 0.5 --x-min 0 --x-max 2"]
    out = str(tmp_path / "out")
    _run_fresh("import sys\n"
               "from bgkspectral import cli, make_params, make_scheme\n"
               "make_scheme(make_params(1.0))\n"
               f"for command in {commands!r}:\n"
               f"    assert cli.main(command.split() + ['--out', {out!r}]) == 0, command\n"
               "sys.exit('scipy.linalg' in sys.modules)")


def _tracer_table(name):
    """A module-level tuple of ``perfbench/tracer.py``, parsed as text so the
    test does not import the benchmark."""
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text()
    table = next(node.value for node in ast.parse(source).body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == name for t in node.targets))
    return ast.literal_eval(table)


@pytest.mark.parametrize("module, function, points_arg", _tracer_table("TRACED"))
def test_traced_functions_resolve(module, function, points_arg):
    # the benchmark's tracer wraps these by name and counts the points of
    # the positional argument at ``points_arg``
    fn = getattr(importlib.import_module(f"bgkspectral.{module}"), function)
    assert callable(fn)
    if points_arg is not None:
        params = list(inspect.signature(fn).parameters.values())
        assert params[points_arg].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        assert params[points_arg].name in ("x", "z")


def test_special_functions_are_called_through_moments_globals(monkeypatch):
    # the tracer counts the special functions' points by patching them in
    # the ``moments`` namespace, so the kernel must look every call up there.
    # The counts are the kernel's work: on 1000 points below |Z| = 8, one
    # wofz (off the cut) or dawsn (on it) point and one exp1 or expi point
    # per half-line.  At a = 0 the C < 0 half-line reuses the C > 0 one's,
    # and off the cut no exp1 is called: its half of Phi cancels between them.
    # lambda_boundary costs what lambda_pv does, and forms no complex jump.
    names = _tracer_table("SPECIAL")
    points = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _f=getattr(moments, name), _n=name):
            points[_n] += args[0].size
            return _f(*args)
        monkeypatch.setattr(moments, name, counted)
    complex_route = []
    for name in ("tn_boundary_array", "boundary_jump_array"):
        real = getattr(moments, name)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("bgkspectral")
                    and getattr(module, name, None) is real):
                monkeypatch.setattr(module, name, lambda *args, _n=name, _f=real:
                                    complex_route.append(_n) or _f(*args))

    def count(call):
        points.update(dict.fromkeys(names, 0))
        call()
        return dict(points)

    rng = np.random.default_rng(1000)
    x = rng.choice([-1.0, 1.0], 1000) * rng.uniform(0.01, 0.45, 1000)
    z = x + 1j * rng.choice([-1.0, 1.0], 1000) * rng.uniform(0.01, 0.45, 1000)
    for a in (0.0, 1.0):
        p, per_line = make_params(a), 1000 if a == 0.0 else 2000
        assert count(lambda: lambda_fn(p, None, z)) == {
            "wofz": per_line, "exp1": 0 if a == 0.0 else per_line, "expi": 0, "dawsn": 0}, a
        pv = count(lambda: lambda_pv(p, None, x))
        assert pv == {"wofz": 0, "exp1": 0, "expi": per_line, "dawsn": per_line}, a
        for side in ("plus", "minus"):
            assert count(lambda: lambda_boundary(p, None, x, side)) == pv, (a, side)
        assert count(lambda: lambda_fn(p, None, 0.3 + 0.2j)) == {
            "wofz": per_line // 1000, "exp1": 0 if a == 0.0 else 2, "expi": 0, "dawsn": 0}, a
    assert complex_route == []
