"""The benchmark's three seeded workloads and their output checks.

Each workload is a fixed list of top-level library calls (one *cycle*)
built from the seed.  The runner repeats whole cycles in one process, one
call at a time, and checks every output between calls, outside the timed
region.  A call returns its output; its ``check`` turns that output (or
the exception it raised) into a count of operations attempted and failed,
and names every failure.

scan       bulk vectorized lambda: ``lambda_fn`` off the cut, and
           ``lambda_boundary`` (plus, minus) and ``lambda_pv`` on it, at
           a in {0, 1, 100}, in batches of 1e3 and 1e5 points.  The
           special-function kernel in ``moments`` does nearly all the work.
cli-mix    in-process ``cli.main`` commands: the five README examples,
           ``spectrum-verify`` at every slope of ROADMAP item 4 and seeded
           ``dispersion-eval`` points.  Many small calls, so per-call
           overhead dominates.
expansion  the expansion theorem as acceptance criterion 11 runs it:
           ``residual_2_4`` of an expansion evaluated one ``apply_expansion``
           (x, mu) point per call, at a in {0, 1}.

Library functions are looked up on their module at call time, so a traced
run sees the wrapped names.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from bgkspectral import dispersion as D
from bgkspectral import limits as L
from bgkspectral import moments as M
from bgkspectral import params as P
from bgkspectral import quadrature as Q
from bgkspectral import spectrum as S
from checkout import OUT_DIR

HERE = os.path.dirname(os.path.abspath(__file__))

#: acceptance criterion 3: agreement with the a = 0 closed form, and the
#: tolerance of every other lambda identity the benchmark checks
LAMBDA_TOL = 1e-8
#: acceptance criterion 11: residual of the expansion in the transport equation
RESIDUAL_TOL = 1e-5

SLOPES = {
    "scan": (0.0, 1.0, 100.0),
    "cli-mix": (0.0, 1e-8, 1e-3, 0.1, 1.0, 10.0, 100.0, 1e3, 1e5),
    "expansion": (0.0, 1.0),
}

#: failures present at the seed, keyed as the checks name them.  They still
#: count as failed operations; a failure not listed here makes the run
#: incorrect.
KNOWN_FAILURES = frozenset(
    [f"spectrum-verify --a {a}" for a in ("1e-8", "1e-3", "10", "100", "1e3", "1e5")]
    + ["expansion a=0 x=0.5", "expansion a=0 x=1"]
    # lambda loses digits near |Z-| = 8 at a = 100 (found by this benchmark)
    + ["reference set a=100"]
)


@dataclass
class Result:
    """Operations one call attempted and failed, with each failure named."""

    ops: int
    failed: int = 0
    failures: list = field(default_factory=list)  # (key, detail, failed ops)

    def fail(self, key: str, detail: str, n: int):
        self.failed += n
        self.failures.append((key, detail, n))


@dataclass
class Call:
    """One top-level library call of a cycle.

    ``run(record)`` makes the call.  When ``records_latency`` is set, the
    call times its own inner library calls and passes each duration to
    ``record``; otherwise the runner records the duration of the whole call.
    ``checks`` says what the output check verifies; ``span`` names a
    benchmark-side trace span around the call.
    """

    run: Callable
    check: Callable[[object, BaseException | None], Result]
    checks: str
    span: str | None = None
    records_latency: bool = False


def library_setup(name: str, seed: int):
    """What the workload builds before its first call: params and schemes
    for its slopes and, on ``expansion``, the spectral expansions."""
    models = {}
    for a in SLOPES[name]:
        p = P.make_params(a)
        models[a] = (p, Q.make_scheme(p))
    expansions = {}
    if name == "cli-mix":
        import bgkspectral.cli  # noqa: F401  (the CLI's own imports are set-up too)
    if name == "expansion":
        rng = np.random.default_rng(seed)
        grid, vals = smooth_bump(0.05, 0.35, 61)
        expansions = {a: S.SpectralExpansion(discrete=rng.uniform(-1, 1, 4),
                                             eta_grid=grid, a_values=vals)
                      for a in SLOPES[name]}
    return models, expansions


def smooth_bump(lo, hi, n=61):
    """C-infinity bump supported on (lo, hi), sampled on a uniform grid."""
    grid = np.linspace(lo, hi, n)
    t = (grid - lo) / (hi - lo) * 2.0 - 1.0
    vals = np.where(np.abs(t) < 1.0, np.exp(-1.0 / np.maximum(1.0 - t * t, 1e-300)), 0.0)
    return grid, vals


def mixed_err(v, ref):
    """|v - ref| / max(|ref|, 1): lambda's zeros make pure relative error ill-conditioned."""
    return np.abs(v - ref) / np.maximum(np.abs(ref), 1.0)


def draw_cut_points(rng, params, n, c_max=12.0):
    """Points on the cut, uniform in the speed C(x) over [-c_max, c_max]."""
    return np.asarray(P.mu_of(params, rng.uniform(-c_max, c_max, n)))


def draw_offcut_points(rng, params, n, c_max=12.0, d_max=10.0):
    """``n`` points off the cut in conjugate pairs (second half = conjugates).

    Real parts are cut points drawn as by :func:`draw_cut_points`; distances
    from the cut are log-uniform in [1e-8, d_max] times the slope's natural
    scale min(1, alpha).
    """
    half = n // 2
    x = draw_cut_points(rng, params, half, c_max)
    d = min(1.0, params.alpha) * 10.0 ** rng.uniform(-8.0, np.log10(d_max), half)
    z = x + 1j * d * rng.choice((-1.0, 1.0), half)
    return np.concatenate([z, np.conj(z)])


def half_line_args(a, z):
    """|Z+| and |Z-|, the half-line pole arguments of the moment kernel at z."""
    z = np.asarray(z, dtype=complex)
    if np.all(z.imag == 0.0):  # on the cut the kernel works with |x|
        z = np.abs(z.real).astype(complex)
    return np.abs(z / (1.0 - a * z)), np.abs(z / (1.0 + a * z))


def _raised(key, n, exc):
    r = Result(n)
    r.fail(key, f"raised {type(exc).__name__}: {exc}", n)
    return r


def _check_mask(key, n, bad, what, err, ops_per_bad=1):
    """Fail ``ops_per_bad`` operations for every flagged point."""
    r = Result(n)
    n_bad = int(np.count_nonzero(bad))
    if n_bad:
        worst = float(np.max(np.where(np.isfinite(err), err, np.inf)))
        r.fail(key, f"{n_bad} points fail {what} (worst {worst:.2e})", ops_per_bad * n_bad)
    return r


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

class Scan:
    """Bulk vectorized lambda on and off the cut.

    Per slope and batch size a cycle makes the four calls ``lambda_fn(z)``,
    ``lambda_boundary(x, plus)``, ``lambda_boundary(x, minus)`` and
    ``lambda_pv(x)``; the small batch is repeated ``SMALL_REPEATS`` times.
    With two repeats the latency median falls in the middle of the eight
    small a = 0 calls and the tail among the large calls, away from the
    gaps between cost clusters, which host noise would make it jump across.
    One operation is one lambda value.
    """

    name = "scan"
    SIZES = (1_000, 100_000)
    SMOKE_SIZES = (100, 1_000)
    SMALL_REPEATS = 2

    def __init__(self, seed: int, smoke: bool = False):
        rng = np.random.default_rng(seed)
        models, _ = library_setup(self.name, seed)
        sizes = self.SMOKE_SIZES if smoke else self.SIZES
        self.worst = {"closed_form_a0": 0.0, "plemelj": 0.0, "conjugate": 0.0}
        self.zbins = np.zeros(3)
        self.calls = []
        for a, (p, s) in models.items():
            for n in sizes:
                reps = self.SMALL_REPEATS if n == sizes[0] else 1
                z = draw_offcut_points(rng, p, n)
                x = draw_cut_points(rng, p, n)
                # z feeds one call per repeat, x three
                for args, calls in ((z, reps), (x, 3 * reps)):
                    for big_z in half_line_args(a, args):
                        self.zbins += calls * np.histogram(big_z, bins=(0, 4, 10, np.inf))[0]
                self.calls += self._batch_calls(a, p, s, z, x) * reps

    def _batch_calls(self, a, p, s, z, x):
        n = z.size
        tag = f"a={a:g} n={n}"
        refs = None
        if a == 0.0:
            refs = {"fn": L.lambda_a0(z), "plus": L.lambda_a0_boundary(x, "plus"),
                    "minus": L.lambda_a0_boundary(x, "minus"), "pv": L.lambda_a0_pv(x)}
        latest = {}

        def what(kind):
            if refs is not None:
                return "the a=0 closed form"
            return {"fn": "conjugate symmetry", "pv": "(lambda+ + lambda-)/2 = lambda_pv"}.get(
                kind, "finiteness")

        def checker(kind):
            key = f"scan lambda_{kind} {tag}"

            def check(v, exc):
                latest[kind] = None
                if exc is not None:
                    return _raised(key, n, exc)
                v = np.asarray(v)
                latest[kind] = v
                if refs is not None:
                    err = mixed_err(v, refs[kind])
                    self.worst["closed_form_a0"] = max(self.worst["closed_form_a0"],
                                                       float(np.max(err)))
                    return _check_mask(key, n, ~(err <= LAMBDA_TOL), what(kind), err)
                if kind == "fn":
                    h = n // 2
                    err = mixed_err(v[h:], np.conj(v[:h]))
                    self.worst["conjugate"] = max(self.worst["conjugate"], float(np.max(err)))
                    # both values of a pair fail
                    return _check_mask(key, n, ~(err <= LAMBDA_TOL), what(kind), err,
                                       ops_per_bad=2)
                if kind == "pv":
                    lp, lm = latest.get("plus"), latest.get("minus")
                    if lp is None or lm is None:
                        r = Result(n)
                        r.fail(key, "no boundary values to check the Plemelj average", n)
                        return r
                    err = mixed_err(0.5 * (lp + lm), v)
                    self.worst["plemelj"] = max(self.worst["plemelj"], float(np.max(err)))
                    # lambda+, lambda- and lambda_pv at that x fail
                    return _check_mask(key, n, ~(err <= LAMBDA_TOL), what(kind), err,
                                       ops_per_bad=3)
                return _check_mask(key, n, ~np.isfinite(v), what(kind), np.zeros(n))

            return Call(runs[kind], check, checks=f"{key}: {what(kind)}")

        runs = {
            "fn": lambda rec: D.lambda_fn(p, s, z),
            "plus": lambda rec: D.lambda_boundary(p, s, x, "plus"),
            "minus": lambda rec: D.lambda_boundary(p, s, x, "minus"),
            "pv": lambda rec: D.lambda_pv(p, s, x),
        }
        return [checker(kind) for kind in runs]

    def report(self):
        shares = self.zbins / self.zbins.sum()
        lines = [f"half-line |Z+-| share in {name}: {share:.4f}"
                 for name, share in zip(("[0,4)", "[4,10)", "[10,inf)"), shares)]
        lines += [f"worst {k} error (mixed measure): {v:.3e}" for k, v in self.worst.items()]
        return lines

    def close(self):
        pass


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

#: the README's five examples, verbatim, with the sha256 of each output at the seed
README_COMMANDS = {
    "dispersion-curve --a 0 --x-min -4 --x-max 4 --points 401":
        "42bd90494a564ad8b5944dd71ad75bc73067c3a90e1789badd6d66144d3347ec",
    "spectrum-verify --a 1":
        "d6dbdb38b52f65bd3cb95f5076a79c7a25f22d2a5144639a9caaf235e21da2c0",
    "limits-compare --a-list 0 1e-6 1e-3 0.1 1 10 1000":
        "fc5edc3a527800fd166fc714cc9a52855f5a285a2a393766dae1a116d8f6d8e8",
    "fm-solve --A0 1 --At1 0.5 --x-min 0 --x-max 2":
        "5b7115903323417a47aa5e7d1e8cef709bfa2e46f28389333b5a0dbbb606fc55",
    "dispersion-eval --a 1 --z-re 0.3 --side plus":
        "d7cc59dee0f9446fc33d5f229a145981171e34f2789e5a45ed3b487a420ba1d4",
}

#: ROADMAP item 4: spectrum-verify must pass at every one of these slopes
VERIFY_SLOPES = ("0", "1e-8", "1e-3", "0.1", "1", "10", "100", "1e3", "1e5")

EVAL_SLOPES = (0.0, 1.0, 100.0)


class CliMix:
    """A closed loop of in-process ``cli.main`` commands writing via ``--out``.

    One operation is one command; it fails on a nonzero exit, an exception
    or a failed output check.  A cycle is already small, so ``smoke``
    changes nothing here.
    """

    name = "cli-mix"
    #: per slope: off-cut points, and on-cut points for each side.  With 36
    #: of the 51 commands a cycle, p50 falls well inside the cluster of
    #: these light commands.
    EVAL_POINTS = 3
    #: the slowest command, spectrum-verify at a = 0.1 (about twice the next),
    #: runs twice a cycle.  The tail, ten samples from the top, then falls in
    #: the upper third of its cost cluster, which the host's slow phases set,
    #: and not in the lower part, which moves with how long its fast phases
    #: last in a run.
    HEAVIEST = {"0.1": 2}
    #: speeds |C| <= 4 and distances <= 1: a point costs one dispersion
    #: evaluation on the factorized branch; ``scan`` covers the series branch
    EVAL_C_MAX = 4.0

    def __init__(self, seed: int, smoke: bool = False):
        from bgkspectral import cli

        self.cli = cli
        rng = np.random.default_rng(seed)
        models, _ = library_setup(self.name, seed)
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR)
        self.calls = []
        for i, (cmd, digest) in enumerate(README_COMMANDS.items()):
            self._add(f"readme{i}", cmd.split(), f"README {cmd}: exit 0, output sha256 as at the seed",
                      self._readme_check(cmd, digest))
        for a in VERIFY_SLOPES:
            key = f"spectrum-verify --a {a}"
            for i in range(self.HEAVIEST.get(a, 1)):
                self._add(f"verify{a}-{i}", ["spectrum-verify", "--a", a],
                          f"{key}: exit 0, status pass", self._verify_check(key))
        n_pts = self.EVAL_POINTS
        for a in EVAL_SLOPES:
            p, s = models[a]
            for z in draw_offcut_points(rng, p, 2 * n_pts, self.EVAL_C_MAX, 1.0)[:n_pts]:
                expect = complex(L.lambda_a0(z) if a == 0.0 else D.lambda_fn(p, s, z))
                # "--opt=value": argparse reads "-4e-07" after a space as an option
                argv = ["dispersion-eval", f"--a={a!r}", f"--z-re={float(z.real)!r}",
                        f"--z-im={float(z.imag)!r}"]
                self._add(f"eval{len(self.calls)}", argv, *self._eval_check(argv, "off-cut", expect))
            for x in draw_cut_points(rng, p, n_pts, self.EVAL_C_MAX):
                for side in ("pv", "plus", "minus"):
                    if side == "pv":
                        expect = L.lambda_a0_pv(x) if a == 0.0 else D.lambda_pv(p, s, x)
                        region = "on-cut-pv"
                    else:
                        expect = (L.lambda_a0_boundary(x, side) if a == 0.0
                                  else D.lambda_boundary(p, s, x, side))
                        region = f"boundary-{side}"
                    argv = ["dispersion-eval", f"--a={a!r}", f"--z-re={float(x)!r}",
                            f"--side={side}"]
                    self._add(f"eval{len(self.calls)}", argv,
                              *self._eval_check(argv, region, complex(expect)))

    def _add(self, slot, argv, checks, check):
        path = os.path.join(self.tmp, slot)
        argv = argv + ["--out", path]
        cli = self.cli

        def run(rec):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:  # usage errors exit through argparse
                    rc = exc.code
            return rc, err.getvalue().strip()

        def checked(res, exc):
            try:
                return check(path, res, exc)
            finally:  # a later crash must not find this cycle's file
                if os.path.exists(path):
                    os.remove(path)

        self.calls.append(Call(run, checked, checks, span=f"cli.{argv[0]}"))

    @staticmethod
    def _exit_failure(key, rc, stderr, r):
        r.fail(key, f"exit {rc}" + (f": {stderr.splitlines()[-1]}" if stderr else ""), 1)
        return r

    def _readme_check(self, cmd, digest):
        key = f"README {cmd}"

        def check(path, res, exc):
            if exc is not None:
                return _raised(key, 1, exc)
            rc, stderr = res
            r = Result(1)
            if rc != 0:
                return self._exit_failure(key, rc, stderr, r)
            with open(path, "rb") as fh:
                data = fh.read()
            got = hashlib.sha256(data).hexdigest()
            if got != digest:
                r.fail(key, f"output sha256 {got[:12]} differs from the seed's {digest[:12]}", 1)
            elif cmd.startswith("spectrum-verify") and json.loads(data)["status"] != "pass":
                r.fail(key, "report status is not pass", 1)
            return r

        return check

    def _verify_check(self, key):
        def check(path, res, exc):
            if exc is not None:
                return _raised(key, 1, exc)
            rc, stderr = res
            r = Result(1)
            report = None
            if os.path.exists(path):
                with open(path) as fh:
                    report = json.load(fh)
            if rc == 0 and report is not None and report["status"] == "pass":
                return r
            bad = [f"{c['check']}={c['status']}" for c in (report or {}).get("checks", [])
                   if c["status"] in ("fail", "error")]
            detail = f"exit {rc}"
            if bad:
                detail += "; " + ", ".join(bad)
            elif stderr:
                detail += f": {stderr.splitlines()[-1]}"
            r.fail(key, detail, 1)
            return r

        return check

    def _eval_check(self, argv, region, expect):
        key = "dispersion-eval " + " ".join(argv[1:])

        def check(path, res, exc):
            if exc is not None:
                return _raised(key, 1, exc)
            rc, stderr = res
            r = Result(1)
            if rc != 0:
                return self._exit_failure(key, rc, stderr, r)
            with open(path, newline="") as fh:
                row = list(csv.DictReader(fh))[0]
            lam = complex(float(row["lambda_re"]), float(row["lambda_im"]))
            err = float(mixed_err(lam, expect))
            if row["region"] != region:
                r.fail(key, f"region {row['region']}, expected {region}", 1)
            elif not err <= LAMBDA_TOL:
                r.fail(key, f"lambda off by {err:.2e} (mixed measure)", 1)
            return r

        return f"{key}: exit 0, region {region}, lambda within {LAMBDA_TOL:g}", check

    def report(self):
        return []

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

class Expansion:
    """``residual_2_4`` of a spectral expansion, one apply_expansion per (x, mu).

    The expansion holds the smooth bump on (0.05, 0.35) and seeded discrete
    coefficients.  One operation is one ``apply_expansion`` value (h or
    dh/dx); every value of a residual check above criterion 11's bound counts
    as failed.
    """

    name = "expansion"
    XS = (0.5, 1.0)
    SMOKE_XS = (0.5,)

    def __init__(self, seed: int, smoke: bool = False):
        models, expansions = library_setup(self.name, seed)
        self.residuals = {}
        self.calls = []
        for a, (p, s) in models.items():
            for x in (self.SMOKE_XS if smoke else self.XS):
                self.calls.append(self._residual_call(a, p, s, expansions[a], x))

    def _residual_call(self, a, p, s, expansion, x):
        key = f"expansion a={a:g} x={x:g}"
        made = 0  # apply_expansion calls of the latest run

        def run(record):
            nonlocal made
            made = 0

            def values(xx, mu, derivative):
                nonlocal made
                out = []
                for m in np.atleast_1d(mu):
                    t0 = perf_counter()
                    out.append(S.apply_expansion(p, s, expansion, xx, m, derivative=derivative))
                    record(perf_counter() - t0)
                    made += 1
                return np.array(out)

            return S.residual_2_4(p, s, lambda xx, mu: values(xx, mu, False), x,
                                  dh_dx=lambda xx, mu: values(xx, mu, True))

        def check(res, exc):
            if exc is not None:
                return _raised(key, max(made, 1), exc)
            self.residuals[key] = res
            r = Result(made)
            if not res < RESIDUAL_TOL:
                r.fail(key, f"residual {res:.2e} above {RESIDUAL_TOL:g}", made)
            return r

        return Call(run, check, f"{key}: residual_2_4 below {RESIDUAL_TOL:g}",
                    records_latency=True)

    def report(self):
        return [f"residual_2_4 {k}: {v:.3e}" for k, v in self.residuals.items()] + [
            f"residual_max: {max(self.residuals.values(), default=float('nan')):.3e}"]

    def close(self):
        pass


WORKLOADS = {"scan": Scan, "cli-mix": CliMix, "expansion": Expansion}



# ---------------------------------------------------------------------------
# accuracy against the mpmath reference set
# ---------------------------------------------------------------------------

def reference_checks(path=os.path.join(HERE, "reference_moments.json")):
    """Compare t0..t4 and lambda with the fixed mpmath reference set.

    Evaluates ``tn_offcut_array`` (the kernel behind ``moments_at``) and
    ``lambda_fn`` on each slope's points in one batch.  Returns
    ``max_rel_err``, a per-slope summary, and one (description, Result) per
    slope; a slope whose worst relative error exceeds LAMBDA_TOL fails
    without failing any workload operation.
    """
    with open(path) as fh:
        points = json.load(fh)["points"]
    by_slope = {}
    for pt in points:
        by_slope.setdefault(pt["a"], []).append(pt)
    worst, notes, results = 0.0, [], []
    for a, pts in by_slope.items():
        p = P.make_params(a)
        s = Q.make_scheme(p)
        z = np.array([complex(float(pt["z"][0]), float(pt["z"][1])) for pt in pts])
        ref_t = np.array([[complex(float(re), float(im)) for re, im in pt["t"]] for pt in pts]).T
        ref_lam = np.array([complex(float(pt["lambda"][0]), float(pt["lambda"][1])) for pt in pts])
        err_t = float(np.max(np.abs(M.tn_offcut_array(p, z) - ref_t) / np.abs(ref_t)))
        err_lam = float(np.max(np.abs(D.lambda_fn(p, s, z) - ref_lam) / np.abs(ref_lam)))
        worst = max(worst, err_t, err_lam)
        key = f"reference set a={a:g}"
        notes.append(f"a={a:g}: t0..t4 {err_t:.2e}, lambda {err_lam:.2e}")
        r = Result(0)
        if not max(err_t, err_lam) <= LAMBDA_TOL:
            r.fail(key, f"relative error t0..t4 {err_t:.2e}, lambda {err_lam:.2e}", 0)
        results.append((f"{key}: relative error of t0..t4 and lambda below {LAMBDA_TOL:g}", r))
    return worst, "; ".join(notes), results
