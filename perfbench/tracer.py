"""Span tracing of the library's public functions, from outside the library.

A traced run wraps each public function listed in ``TRACED`` under every
name it is bound to in the package's modules.  Modules bind names at import
(``dispersion`` holds its own ``tn_offcut_array``), so wrapping only the
defining module would miss most calls.  The scipy special functions are
wrapped as they are named in the ``moments`` namespace, the kernel layer.

Each span records its name, start, end, parent span and the number of
points its call received.  Spans stay in memory and are written out at the
end.  A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import importlib
import json
import re
import statistics
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: (module, function, index of the positional argument whose size is the
#: call's point count, or None)
TRACED = (
    ("quadrature", "make_scheme", None),
    ("quadrature", "pv_interval", None),
    ("quadrature", "integrate_weighted", None),
    ("quadrature", "integrate_pv", None),
    ("moments", "tn_offcut_array", 1),
    ("moments", "tn_pv_array", 1),
    ("moments", "boundary_jump_array", 1),
    ("dispersion", "lambda_fn", 2),
    ("dispersion", "lambda_boundary", 2),
    ("dispersion", "lambda_pv", 2),
    ("dispersion", "count_zeros", None),
    ("dispersion", "laurent_order_at_infinity", None),
    ("dispersion", "sokhotsky_jump", None),
    ("spectrum", "eigen_data", None),
    ("spectrum", "normalization_check", None),
    ("spectrum", "residual_2_4", None),
    ("spectrum", "apply_expansion", None),
    ("limits", "fm_residual", None),
)
SPECIAL = ("wofz", "exp1", "expi", "dawsn")
CLI_COMMANDS = ("dispersion-curve", "spectrum-verify", "limits-compare", "fm-solve",
                "dispersion-eval")
IMPORT_MODULES = {"import.total_s": "bgkspectral",
                  "import.scipy_special_s": "scipy.special",
                  "import.scipy_interpolate_s": "scipy.interpolate"}

NAME, START, END, PARENT, POINTS = range(5)


class Tracer:
    """In-memory span recorder that patches the library's module namespaces."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, points]
        self._stack = []
        self._patched = []

    def _open(self, name, points):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, points]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span):
        span[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, points=0):
        s = self._open(name, points)
        try:
            yield
        finally:
            self._close(s)

    def _wrap(self, name, fn, points_arg):
        def traced(*args, **kwargs):
            pts = int(np.size(args[points_arg])) if points_arg is not None else 0
            s = self._open(name, pts)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(s)
        return traced

    def _patch(self, module, attr, value):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "bgkspectral" or n.startswith("bgkspectral.")]
        for mod_name, fn_name, points_arg in TRACED:
            orig = getattr(importlib.import_module(f"bgkspectral.{mod_name}"), fn_name)
            wrapped = self._wrap(f"{mod_name}.{fn_name}", orig, points_arg)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, attr, wrapped)
        moments = sys.modules["bgkspectral.moments"]
        for fn_name in SPECIAL:
            self._patch(moments, fn_name,
                        self._wrap(f"moments.special.{fn_name}", getattr(moments, fn_name), 0))

    def uninstall(self):
        while self._patched:
            m, attr, orig = self._patched.pop()
            setattr(m, attr, orig)

    def dump(self, path):
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "points"],
                       "names": names,
                       "spans": [[index[s[NAME]], s[START], s[END], s[PARENT], s[POINTS]]
                                 for s in self.spans]}, fh)


def import_breakdown(cmd, env, cwd, repeats=3):
    """Cumulative import times from ``python -X importtime``, median of ``repeats``."""
    runs = {k: [] for k in IMPORT_MODULES}
    pattern = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)")
    for _ in range(repeats):
        proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=120, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = pattern.match(line.strip())
            if m:
                cumulative.setdefault(m.group(3), int(m.group(2)) * 1e-6)
        for key, module in IMPORT_MODULES.items():
            runs[key].append(cumulative.get(module, 0.0))
    return {k: statistics.median(v) for k, v in runs.items()}


def layer_metrics(spans, mark, cycles, cli_calls):
    """Per-layer metrics from the spans of a traced run.

    Spans before ``mark`` come from the workload's set-up and give
    ``quadrature.make_scheme.total_s``; the rest come from ``cycles`` whole
    cycles, and their counts and times are reported per cycle, so that runs
    of different length compare.  ``cli_calls`` holds (command, seconds,
    failed) for each traced CLI call.  Returns {name: (value, unit)} and
    the time per cycle that root spans cover.
    """
    n = len(spans)
    dur = np.array([s[END] - s[START] for s in spans]) if n else np.zeros(0)
    covered = np.zeros(n)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            covered[s[PARENT]] += dur[i]
    self_t = dur - covered

    def nearest(target):
        """Index of each span's nearest enclosing ``target`` span (itself included)."""
        anc = np.full(n, -1)
        for i, s in enumerate(spans):
            anc[i] = i if s[NAME] == target else (anc[s[PARENT]] if s[PARENT] >= 0 else -1)
        return anc

    agg = {}
    for i in range(mark, n):
        a = agg.setdefault(spans[i][NAME], [0, 0, 0.0, 0.0])
        a[0] += 1
        a[1] += spans[i][POINTS]
        a[2] += dur[i]
        a[3] += self_t[i]

    def get(name):
        """calls, points, total and self seconds of ``name``, per cycle."""
        return [v / cycles for v in agg.get(name, [0, 0, 0.0, 0.0])]

    def points_under(child, parent):
        """Points per cycle of ``child`` spans inside a ``parent`` span."""
        anc = nearest(parent)
        return sum(spans[i][POINTS] for i in range(mark, n)
                   if spans[i][NAME] == child and anc[i] >= 0) / cycles

    out = {}
    out["quadrature.make_scheme.total_s"] = (
        float(sum(dur[i] for i in range(mark) if spans[i][NAME] == "quadrature.make_scheme")), "s")
    for fn in SPECIAL:
        calls, pts, total, _ = get(f"moments.special.{fn}")
        out[f"moments.special.{fn}.calls"] = (calls, "count")
        out[f"moments.special.{fn}.points"] = (pts, "count")
        out[f"moments.special.{fn}.total_s"] = (total, "s")
    self_sum = pts_sum = 0
    for layer, fns in (("moments", ("tn_offcut_array", "tn_pv_array", "boundary_jump_array")),
                       ("dispersion", ("lambda_fn", "lambda_boundary", "lambda_pv"))):
        for fn in fns:
            calls, pts, _, self_s = get(f"{layer}.{fn}")
            out[f"{layer}.{fn}.calls"] = (calls, "count")
            out[f"{layer}.{fn}.points"] = (pts, "count")
            out[f"{layer}.{fn}.self_s"] = (self_s, "s")
            if layer == "moments":
                self_sum += self_s
                pts_sum += pts
    out["moments.self_us_per_point"] = (1e6 * self_sum / pts_sum if pts_sum else 0.0, "us")

    calls, _, total, _ = get("dispersion.count_zeros")
    out["dispersion.count_zeros.calls"] = (calls, "count")
    out["dispersion.count_zeros.total_s"] = (total, "s")
    out["dispersion.count_zeros.points_per_call"] = (
        points_under("dispersion.lambda_fn", "dispersion.count_zeros") / calls if calls else 0.0,
        "count")
    for fn in ("laurent_order_at_infinity", "sokhotsky_jump"):
        out[f"dispersion.{fn}.total_s"] = (get(f"dispersion.{fn}")[2], "s")
    for fn in ("eigen_data", "normalization_check", "residual_2_4"):
        calls, _, total, _ = get(f"spectrum.{fn}")
        out[f"spectrum.{fn}.calls"] = (calls, "count")
        out[f"spectrum.{fn}.total_s"] = (total, "s")
    out["limits.fm_residual.total_s"] = (get("limits.fm_residual")[2], "s")

    calls, _, _, self_s = get("spectrum.apply_expansion")
    out["spectrum.apply_expansion.calls"] = (calls, "count")
    out["spectrum.apply_expansion.self_s"] = (self_s, "s")
    out["spectrum.apply_expansion.eta_points_per_call"] = (
        points_under("moments.tn_pv_array", "spectrum.apply_expansion") / calls if calls else 0.0,
        "count")
    for fn in ("pv_interval", "integrate_weighted", "integrate_pv"):
        calls, _, _, self_s = get(f"quadrature.{fn}")
        out[f"quadrature.{fn}.calls"] = (calls, "count")
        out[f"quadrature.{fn}.self_s"] = (self_s, "s")

    for cmd in CLI_COMMANDS:
        runs = [(dt, failed) for c, dt, failed in cli_calls if c == cmd]
        out[f"cli.{cmd}.calls"] = (len(runs) / cycles, "count")
        out[f"cli.{cmd}.p50_ms"] = (1e3 * statistics.median(dt for dt, _ in runs) if runs else 0.0,
                                    "ms")
        out[f"cli.{cmd}.fail_ratio"] = (sum(f for _, f in runs) / len(runs) if runs else 0.0,
                                        "ratio")

    root_s = float(sum(dur[i] for i in range(mark, n) if spans[i][PARENT] < 0))
    return out, root_s / cycles
