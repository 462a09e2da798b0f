import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bgkspectral import (
    DomainError,
    IllConditionedContourError,
    WrongRegionError,
    count_zeros,
    eigen_data,
    keyhole_contour,
    lambda_boundary,
    lambda_fn,
    lambda_matrix,
    lambda_pv,
    laurent_order_at_infinity,
    make_params,
    make_scheme,
    semicircle_contour,
    sokhotsky_jump,
    tn_boundary_array,
    tn_offcut_array,
    tn_pv_array,
)
from bgkspectral import dispersion, moments
from bgkspectral.cli import main
from bgkspectral.dispersion import (
    _cofactors,
    _det3,
    _lambda_by_orbit,
    _polyline_points,
    _q_tilde,
    winding_number,
)
from bgkspectral.limits import (
    lambda_a0,
    lambda_a0_boundary,
    lambda_a0_pv,
    lambda_c_boundary,
    lambda_c_pv,
)
from bgkspectral.moments import _tn_pieces, boundary_jump_array
from bgkspectral.spectrum import (
    SpectralExpansion,
    apply_expansion,
    eigenfunction_regular,
    normalization_check,
)
from bgkspectral.params import rho_of_c, velocity_map

from conftest import lambda_slices

SQPI = math.sqrt(math.pi)

#: the entry points that take points on the cut, each called with one
CUT_POINT_ENTRIES = {
    "lambda_pv": lambda p, x: lambda_pv(p, None, x),
    "lambda_boundary": lambda p, x: lambda_boundary(p, None, x, "minus"),
    "tn_pv_array": tn_pv_array,
    "tn_boundary_array": lambda p, x: tn_boundary_array(p, x, "plus"),
    "boundary_jump_array": boundary_jump_array,
    "velocity_map": velocity_map,
    "sokhotsky_jump": lambda p, x: sokhotsky_jump(p, np.ravel(x)[-1]),
    "eigen_data": lambda p, x: eigen_data(p, np.ravel(x)[-1]).cofactors,
    "eigenfunction_regular eta": lambda p, x: eigenfunction_regular(p, np.ravel(x)[-1], 0.1),
    "eigenfunction_regular mu": lambda p, x: eigenfunction_regular(p, 0.1, np.ravel(x)[-1]),
    "normalization_check": lambda p, x: normalization_check(p, make_scheme(p), np.ravel(x)[-1]),
    "apply_expansion mu": lambda p, x: apply_expansion(
        p, None, SpectralExpansion(discrete=np.ones(4), eta_grid=np.linspace(0.1, 0.8, 9),
                                   a_values=np.zeros(9)), 0.5, np.ravel(x)[-1]),
    "SpectralExpansion eta_grid": lambda p, x: SpectralExpansion(
        discrete=np.ones(4), eta_grid=np.concatenate([[0.1, 0.2], np.ravel(x)[-1:], [0.5, 0.8]]),
        a_values=np.zeros(5)).eta_grid,
    "SpectralExpansion.a_of": lambda p, x: SpectralExpansion(
        discrete=np.ones(4), eta_grid=np.linspace(0.1, 0.8, 9), a_values=np.ones(9)).a_of(x),
    "lambda_c_pv": lambda p, x: lambda_c_pv(x),
    "lambda_c_boundary": lambda p, x: lambda_c_boundary(x, "plus"),
    "lambda_a0_pv": lambda p, x: lambda_a0_pv(x),
    "lambda_a0_boundary": lambda p, x: lambda_a0_boundary(x, "minus"),
}


def _canonical(z):
    """Sorted bytes of a point set, with -0.0 read as +0.0."""
    return np.sort(z + 0).tobytes()


class TestMatrixAssembly:
    def test_identity_at_zero_moments(self):
        p = make_params(1.0)
        assert np.allclose(lambda_matrix(p, np.zeros(5, dtype=complex)), np.eye(3))

    def test_entries_matching_printed_table(self):
        # the printed element table agrees with the assembly rule at
        # entries (2,1) -> r1 t3 and (1,2) -> r2 (t3 - beta t1)
        p = make_params(0.8)
        t = np.array([0.11, -0.23, 0.31, -0.41, 0.53])
        m = lambda_matrix(p, t.astype(complex))
        assert m[2, 1] == pytest.approx(p.r1 * t[3], rel=1e-15)
        assert m[1, 2] == pytest.approx(p.r2 * (t[3] - p.beta * t[1]), rel=1e-15)

    def test_entry_00_by_independent_rederivation(self, model):
        # substitute the continuum ansatz into the projection integrals at
        # one point: the coefficient of the zeroth moment in the alpha=0
        # equation is 1 + z int (r0 - beta r2 (C(mu)^2-beta)) rho/(mu-z) dmu
        p, _ = model[1.0]
        z = 2j

        def integrand_re(c):
            mu = c / (1.0 + p.a * abs(c))
            w = math.exp(-c * c) * (1.0 + p.a * abs(c))
            val = (p.r0 - p.beta * p.r2 * (c * c - p.beta)) * w / (mu - z)
            return (z * val).real

        def integrand_im(c):
            mu = c / (1.0 + p.a * abs(c))
            w = math.exp(-c * c) * (1.0 + p.a * abs(c))
            val = (p.r0 - p.beta * p.r2 * (c * c - p.beta)) * w / (mu - z)
            return (z * val).imag

        re, _ = si.quad(integrand_re, -8.6, 8.6, points=[0.0], limit=200)
        im, _ = si.quad(integrand_im, -8.6, 8.6, points=[0.0], limit=200)
        want = 1.0 + re + 1j * im
        m = lambda_matrix(p, tn_offcut_array(p, z))
        assert m[0, 0] == pytest.approx(want, abs=1e-11)

    def test_six_term_expansion_identity(self, model):
        # Sarrus expansion with the assembly-rule elements equals the
        # direct determinant (algebraic identity of the 3x3 determinant)
        p, s = model[0.5]
        rng = np.random.default_rng(5)
        for _ in range(10):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 2))
            t = tn_offcut_array(p, z)
            m = lambda_matrix(p, t)
            expansion = (
                m[0, 0] * m[1, 1] * m[2, 2]
                + p.r1 * t[3] * m[0, 2] * m[1, 0]
                + p.r1 * t[1] * m[2, 0] * m[1, 2]
                - m[0, 2] * m[1, 1] * m[2, 0]
                - p.r1 * t[3] * m[0, 0] * m[1, 2]
                - p.r1 * t[1] * m[1, 0] * m[2, 2]
            )
            det = lambda_fn(p, s, z)
            assert expansion == pytest.approx(det, rel=1e-12)


class TestLambdaFunction:
    def test_value_one_at_origin_limit(self, model):
        for a, (p, s) in model.items():
            assert abs(lambda_fn(p, s, 1e-8j) - 1.0) < 1e-6

    def test_a0_closed_form(self, model):
        p, s = model[0.0]
        for z in (1 + 1j, 0.3 - 0.7j, 2.5 + 0.05j):
            got = lambda_fn(p, s, z)
            want = lambda_a0(z)
            assert abs(got - want) / abs(want) < 1e-10

    def test_a0_tail_coefficient(self, model):
        # z^4 lambda -> 3/4, extrapolated in 1/z^2 over |z| = 10, 20, 40
        p, s = model[0.0]
        radii = np.array([10.0, 20.0, 40.0])
        v = np.array([((r * 1j) ** 4 * lambda_fn(p, s, r * 1j)).real
                      for r in radii])
        u = 1.0 / radii**2
        c = np.polyfit(u, v, 2)[-1]
        assert c == pytest.approx(0.75, abs=1e-5)

    def test_reflection_and_evenness(self, model):
        for a in (0.0, 1.0, 2.0):
            p, s = model[a]
            rng = np.random.default_rng(int(17 + a))
            for _ in range(10):
                z = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.1, 3))
                lam = lambda_fn(p, s, z)
                assert lambda_fn(p, s, np.conj(z)) == pytest.approx(
                    np.conj(lam), rel=1e-12)
                assert lambda_fn(p, s, -z) == pytest.approx(lam, rel=1e-12)

    @pytest.mark.parametrize("a", [0.0, 1e-3, 0.1, 1.0, 10.0, 100.0, 1e5])
    def test_orbit_symmetry_batched(self, a):
        # the weights are real and the collision frequency is even in C:
        # lambda(conj z) = conj lambda(z) and lambda(-z) = lambda(z), which
        # the zero counter uses to evaluate one point per orbit
        p = make_params(a)
        s = make_scheme(p)
        rng = np.random.default_rng(8)
        scale = min(p.alpha, 1.0)
        z = np.concatenate([
            10 ** rng.uniform(-3, 3, 400) * np.exp(1j * rng.uniform(0.01, 1.56, 400)),
            scale * (rng.uniform(0, 1.5, 200) + 1j * 10 ** rng.uniform(-6, 0, 200)),
        ])
        lam = lambda_fn(p, s, z)
        for image, want in ((np.conj(z), np.conj(lam)), (-z, lam),
                            (-np.conj(z), np.conj(lam))):
            assert np.max(np.abs(lambda_fn(p, s, image) - want) / np.abs(lam)) <= 1e-13

    @pytest.mark.parametrize("name", list(CUT_POINT_ENTRIES))
    def test_complex_cut_points(self, name):
        # a nonzero imaginary part is a DomainError naming the point; a zero
        # one is read as real, without a ComplexWarning
        p = make_params(1.0)
        call = CUT_POINT_ENTRIES[name]
        for bad in (0.3 + 0.1j, np.array([0.2, 0.3 - 1e-300j]), np.full(SLICE + 1, 0.3 + 0.1j)):
            with pytest.raises(DomainError, match=r"not real: \(0\.3[+-]"):
                call(p, bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for real in (0.3, np.array([0.2, 0.3])):
                got, want = call(p, np.asarray(real) + 0j), call(p, real)
                assert repr(got) == repr(want)

    def test_real_beyond_cut(self, model):
        p, s = model[1.0]
        for x in (1.2, 2.0, -3.7):
            v = lambda_fn(p, s, complex(x))
            assert abs(v.imag) < 1e-14

    def test_cut_rejection(self, model):
        # one closed-cut predicate decides for every entry point, endpoints
        # included; the open-cut evaluators reject the endpoints too
        p, s = model[1.0]
        with pytest.raises(DomainError):
            lambda_fn(p, s, 0.5 + 0j)
        for end in (p.alpha + 0j, -p.alpha + 0j):
            with pytest.raises(DomainError):
                lambda_fn(p, s, end)
            with pytest.raises(WrongRegionError):
                tn_offcut_array(p, end)
            with pytest.raises(DomainError):
                lambda_pv(p, s, end.real)
        mixed = np.array([1 + 1j, 2.0 + 0j, p.alpha + 0j, -3 - 0.5j])
        with pytest.raises(DomainError):
            lambda_fn(p, s, mixed)
        assert np.all(np.isfinite(lambda_fn(p, s, np.delete(mixed, 2))))
        with pytest.raises(IllConditionedContourError):
            count_zeros(p, np.array([p.alpha + 0j, 2 + 1j, -2 + 1j]))
        with pytest.raises(SystemExit) as exc:
            main(["dispersion-eval", "--a", "1", "--z-re", repr(p.alpha)])
        assert exc.value.code == 2
        # NaN fails every ordering comparison, so the cut checks are written
        # to reject it rather than let it through as "inside" or "off"
        nan, inf = float("nan"), float("inf")
        with pytest.raises(DomainError, match="finite"):
            lambda_pv(p, s, nan)
        with pytest.raises(DomainError, match="finite"):
            tn_pv_array(p, nan)
        with pytest.raises(DomainError, match="finite"):
            tn_boundary_array(p, nan, "plus")
        with pytest.raises(DomainError, match="finite"):
            lambda_boundary(p, s, np.array([0.2, nan]), "minus")
        for z in (nan + 1j, complex(0.3, inf), complex(inf, 0.0)):
            with pytest.raises(DomainError, match="finite"):
                lambda_fn(p, s, z)
            with pytest.raises(DomainError, match="finite"):
                tn_offcut_array(p, z)
        with pytest.raises(DomainError, match="finite"):
            lambda_fn(p, s, np.array([1 + 1j, nan + 1j]))
        for argv in (["--z-re", "nan"], ["--z-re", "0.3", "--z-im", "inf"]):
            with pytest.raises(SystemExit) as exc:
                main(["dispersion-eval", "--a", "1"] + argv)
            assert exc.value.code == 2


SLICE = dispersion._LAMBDA_SLICE

#: each evaluator, with the per-slice evaluator it slices (given the staged
#: special functions of its points) and the tn_*_array function whose errors
#: it raises
EVALUATORS = {
    "fn": (lambda p, v: lambda_fn(p, None, v),
           lambda p, v: dispersion._lambda_offcut(p, v, _tn_pieces(p, v)), tn_offcut_array),
    "pv": (lambda p, v: lambda_pv(p, None, v),
           lambda p, v: dispersion._lambda_pv(p, v, _tn_pieces(p, v)), tn_pv_array),
    "plus": (lambda p, v: lambda_boundary(p, None, v, "plus"),
             lambda p, v: dispersion._lambda_boundary(p, v, _tn_pieces(p, v), 1.0),
             lambda p, v: tn_boundary_array(p, v, "plus")),
    "minus": (lambda p, v: lambda_boundary(p, None, v, "minus"),
              lambda p, v: dispersion._lambda_boundary(p, v, _tn_pieces(p, v), -1.0),
              lambda p, v: tn_boundary_array(p, v, "minus")),
}


def _points(p, kind, size, seed=0):
    """Cut points from speeds uniform in [-12, 12], so |Z+| falls on both
    sides of 8, or for ``fn`` the same points moved off the cut by
    log-uniform distances in [1e-8, 10] * min(1, alpha), either side."""
    rng = np.random.default_rng(seed + size)
    c = rng.choice([-1, 1], size) * rng.uniform(0.0, 12.0, size)
    x = c / (1.0 + p.a * np.abs(c))
    if kind != "fn":
        return x
    return x + 1j * rng.choice([-1, 1], size) * 10.0 ** rng.uniform(-8, 1, size) * min(1.0, p.alpha)


def _composition(p, kind, points):
    """The unsliced evaluation: the per-slice evaluator on the whole batch."""
    return EVALUATORS[kind][1](p, points)


def _raised(call):
    """Type and message of the exception ``call`` raises."""
    with pytest.raises(Exception) as exc:
        call()
    return type(exc.value), str(exc.value)


#: the slice bound of the small-slice cases, so that a sliced batch is a few
#: hundred points: the partition, threads and errors do not depend on it
SMALL = 64


@pytest.fixture
def small_slices(monkeypatch):
    monkeypatch.setattr(dispersion, "_LAMBDA_SLICE", SMALL)


def _cpus():
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


#: the special functions of the moment kernel, called through ``moments``
SPECIAL = ("wofz", "exp1", "expi", "dawsn")


def _spy_specials(monkeypatch, caller, record):
    """Call ``record(name)`` in each special function of the ``moments``
    namespace.  With more than one CPU, the calls of the threads in
    ``caller`` wait until another thread has made one, so that the helper
    stages at least one slice."""
    staged = threading.Event()
    for name in SPECIAL:
        def spy(*args, _f=getattr(moments, name), _n=name):
            if threading.get_ident() not in caller:
                staged.set()
            elif _cpus() > 1:
                assert staged.wait(timeout=60), "the helper staged no slice"
            record(_n)
            return _f(*args)
        monkeypatch.setattr(moments, name, spy)


def _small(size):
    """The size of a batch cut into as many slices at the small bound as a
    batch of ``size`` points at the full one: ceil(size * SMALL / SLICE)."""
    return -(-size * SMALL // SLICE)


class TestSlicedEvaluation:
    @pytest.mark.parametrize("a", [0.0, 1.0, 100.0])
    @pytest.mark.usefixtures("small_slices")
    def test_one_slice_is_the_composition(self, a):
        # a batch of at most one slice keeps the bytes of the unsliced code
        p = make_params(a)
        for kind, (evaluate, _, tn) in EVALUATORS.items():
            for size in (1, 7, SMALL - 1, SMALL):
                x = _points(p, kind, size)
                assert evaluate(p, x).tobytes() == _composition(p, kind, x).tobytes(), (kind, size)
                if kind in ("fn", "pv"):  # the determinant of the t_n matrix, off the real axis
                    det = _det3(lambda_matrix(p, tn(p, x)))
                    assert _composition(p, kind, x).tobytes() == det.tobytes(), (kind, size)

    @pytest.mark.parametrize("a", [0.0, 1.0, 100.0])
    def test_larger_batches_are_the_composition_per_slice(self, a, monkeypatch):
        # at full size one batch per evaluator, at a = 1, above the 16384
        # points from which numpy elides temporaries; the rest at the small slice
        p = make_params(a)

        def check(kind, size):
            x = _points(p, kind, size)
            want = np.concatenate([_composition(p, kind, x[s]) for s in lambda_slices(size)])
            got = EVALUATORS[kind][0](p, x)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (kind, size)

        if a == 1.0:
            for kind in EVALUATORS:
                check(kind, 2 * SLICE + 1)
        monkeypatch.setattr(dispersion, "_LAMBDA_SLICE", SMALL)
        for kind in EVALUATORS:
            for size in (SMALL + 1, 3 * SMALL + 5) + ((_small(100_000),) if kind != "minus" else ()):
                check(kind, size)

    @pytest.mark.parametrize("size", [SLICE, SLICE + 1, 2 * SLICE, 3 * SLICE + 5, 100_000])
    @pytest.mark.usefixtures("small_slices")
    def test_slices_follow_documented_partition(self, size, monkeypatch):
        # contiguous, balanced slices: none longer than the slice, none
        # shorter than half of it once the batch is sliced; the caller
        # evaluates them in order, and two threads stage them, so the staged
        # ones are recorded by offset (the points are distinct)
        size = _small(size)
        p = make_params(1.0)
        z = _points(p, "fn", size)
        seen, staged = [], {}
        evaluate, stage = dispersion._lambda_offcut, dispersion._tn_pieces

        def spy_stage(p, piece):
            staged[int(np.flatnonzero(z == piece[0])[0])] = piece.copy()
            return stage(p, piece)

        monkeypatch.setattr(dispersion, "_lambda_offcut",
                            lambda p, piece, pieces: seen.append(piece.copy())
                            or evaluate(p, piece, pieces))
        monkeypatch.setattr(dispersion, "_tn_pieces", spy_stage)
        lambda_fn(p, None, z)
        assert [int(np.flatnonzero(z == piece[0])[0]) for piece in seen] == [
            s.start for s in lambda_slices(size)]
        assert sorted(staged) == [s.start for s in lambda_slices(size)]
        for piece, s in zip(seen, lambda_slices(size)):
            assert piece.tobytes() == z[s].tobytes() == staged[s.start].tobytes()
        assert max(piece.size for piece in seen) <= SMALL
        assert size <= SMALL or min(piece.size for piece in seen) >= SMALL // 2

    @pytest.mark.parametrize("kind", list(EVALUATORS))
    @pytest.mark.usefixtures("small_slices")
    def test_scalar_empty_and_2d_shapes(self, kind):
        p = make_params(1.0)
        evaluate = EVALUATORS[kind][0]
        scalar = _points(p, kind, 1)[0]
        assert type(evaluate(p, scalar)) is (float if kind == "pv" else complex)
        dtype = float if kind == "pv" else complex
        for empty in (np.array([]), np.zeros((0, 3)), []):
            got = evaluate(p, empty)
            assert got.dtype == dtype and got.shape == np.shape(empty)
        for shape in ((2, 3), (3, SMALL), (SMALL + 3, 2)):
            x = _points(p, kind, math.prod(shape)).reshape(shape)
            got = evaluate(p, x)
            assert got.shape == shape and got.dtype == dtype
            assert got.tobytes() == evaluate(p, x.reshape(-1)).tobytes()
            assert evaluate(p, x.T).tobytes() == evaluate(p, x.T.copy()).tobytes()

    @pytest.mark.parametrize("a", [0.0, 1.0, 100.0])
    @pytest.mark.usefixtures("small_slices")
    def test_errors_are_those_of_the_whole_batch(self, a):
        # the checks see the whole batch before it is sliced, so a bad point
        # in any slice raises the type and message of the unsliced check
        p = make_params(a)
        size = 3 * SMALL + 5
        nan, on_cut = float("nan"), 0.5 * min(1.0, p.alpha)
        for kind, (evaluate, _, tn) in EVALUATORS.items():
            x = _points(p, kind, size)
            bad = {"nan": [(2 * SMALL + 7, nan)], "late nan": [(size - 1, nan)]}
            if kind == "fn":
                bad["on cut"] = [(SMALL + 2, on_cut)]
                bad["on cut, then nan"] = [(10, on_cut), (2 * SMALL + 7, nan)]
            else:
                bad["outside"] = [(SMALL + 2, 1.5 * p.alpha if p.a else nan)]
            for case, entries in bad.items():
                y = x.copy()
                for i, v in entries:
                    y[i] = v
                want = _raised(lambda: tn(p, y))
                assert _raised(lambda: evaluate(p, y)) == want, (kind, case)
                if case == "on cut, then nan":
                    assert want[0] is DomainError and "finite" in want[1]
        x = _points(p, "pv", size)
        x[5] = nan
        for side in ("up", 0, None):
            want = _raised(lambda: tn_boundary_array(p, x, side))
            assert _raised(lambda: lambda_boundary(p, None, x, side)) == want
            assert "side" in want[1]

    @pytest.mark.parametrize("a", [0.0, 1.0, 100.0])
    @pytest.mark.usefixtures("small_slices")
    def test_helper_thread_keeps_the_bytes(self, a, monkeypatch):
        # slices staged by the helper thread give the bytes the caller
        # gives alone, on one CPU, for all four evaluators
        p = make_params(a)
        cases = [(kind, size) for kind in EVALUATORS
                 for size in (SMALL + 1, 3 * SMALL + 5, _small(100_000))]
        shared = {case: EVALUATORS[case[0]][0](p, _points(p, *case)) for case in cases}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        for case in cases:
            alone = EVALUATORS[case[0]][0](p, _points(p, *case))
            assert shared[case].tobytes() == alone.tobytes(), case

    @pytest.mark.parametrize("kind", list(EVALUATORS))
    @pytest.mark.usefixtures("small_slices")
    def test_helper_thread_only_stages_special_functions(self, kind, monkeypatch):
        # the caller runs every step of the moment kernel but the special
        # functions, and the helper runs none but those, called through the
        # moments globals; the bytes are those of a call alone
        if _cpus() == 1:
            pytest.skip("one CPU: no helper thread")
        p = make_params(1.0)
        x = _points(p, kind, 3 * SMALL + 5)
        want = EVALUATORS[kind][0](p, x).tobytes()
        calls, caller = [], {threading.get_ident()}
        _spy_specials(monkeypatch, caller, lambda name: calls.append((name, threading.get_ident())))
        for name in ("tn_offcut_array", "tn_pv_array", "_tn_offcut", "_tn_pv", "_tn_halflines",
                     "_cauchy_halfline_poly", "_cauchy_halfline_series"):
            for module in (moments, dispersion):
                if hasattr(module, name):
                    def spy(*args, _f=getattr(module, name), _n=name):
                        calls.append((_n, threading.get_ident()))
                        return _f(*args)
                    monkeypatch.setattr(module, name, spy)
        assert EVALUATORS[kind][0](p, x).tobytes() == want
        on_helper = {name for name, thread in calls if thread not in caller}
        assert on_helper and on_helper <= set(SPECIAL)
        assert {name for name, thread in calls if thread in caller} >= {
            "_tn_halflines", "_cauchy_halfline_poly", "_cauchy_halfline_series"}

    @pytest.mark.usefixtures("small_slices")
    def test_concurrent_callers_get_the_bytes_of_one_call(self):
        # four callers, one per evaluator, each with its own helper at once
        p = make_params(1.0)
        inputs = {kind: _points(p, kind, 3 * SMALL + 5) for kind in EVALUATORS}
        want = {kind: EVALUATORS[kind][0](p, x).tobytes() for kind, x in inputs.items()}
        got = {kind: [] for kind in EVALUATORS}
        start = threading.Barrier(len(EVALUATORS))

        def call(kind):
            start.wait(timeout=60)
            for _ in range(3):
                got[kind].append(EVALUATORS[kind][0](p, inputs[kind]).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=call, args=(kind,)) for kind in EVALUATORS]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {kind: [w] * 3 for kind, w in want.items()}

    @pytest.mark.usefixtures("small_slices")
    def test_slices_run_in_the_callers_errstate(self, monkeypatch):
        # the caller evaluates every slice, and the helper stages in a copy
        # of the caller's context: both run in the caller's numpy errstate
        p = make_params(1.0)
        z = _points(p, "fn", _small(100_000))
        seen, specials, caller = [], [], {threading.get_ident()}
        evaluate = dispersion._lambda_offcut
        monkeypatch.setattr(dispersion, "_lambda_offcut",
                            lambda p, piece, pieces: seen.append(np.geterr()["over"])
                            or evaluate(p, piece, pieces))
        _spy_specials(monkeypatch, caller,
                      lambda name: specials.append((threading.get_ident(), np.geterr()["over"])))
        with np.errstate(over="ignore"):
            lambda_fn(p, None, z)
        assert seen == ["ignore"] * len(lambda_slices(z.size))
        assert specials and {over for _, over in specials} == {"ignore"}
        assert _cpus() == 1 or any(thread not in caller for thread, _ in specials)

    @pytest.mark.usefixtures("small_slices")
    def test_error_in_a_helper_slice_reaches_the_caller(self, monkeypatch):
        # a special function that raises on the helper thread raises in the
        # caller, after the join: the call neither hangs nor leaves a thread,
        # and the next call gives the same bytes
        if _cpus() == 1:
            pytest.skip("one CPU: no helper thread")

        class SliceError(Exception):
            pass

        p = make_params(1.0)
        z = _points(p, "fn", 3 * SMALL + 5)
        want = lambda_fn(p, None, z).tobytes()
        real = {name: getattr(moments, name) for name in SPECIAL}
        caller, raised = [], []

        def fail_on_the_helper(name):
            if threading.get_ident() not in caller:
                raise SliceError(f"helper slice: {name}")

        _spy_specials(monkeypatch, caller, fail_on_the_helper)

        def call():
            caller.append(threading.get_ident())
            try:
                lambda_fn(p, None, z)
            except SliceError as exc:
                raised.append(exc)

        before = threading.active_count()
        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive(), "the sliced call hung"
        assert len(raised) == 1 and str(raised[0]).startswith("helper slice")
        assert threading.active_count() == before
        for name, f in real.items():
            monkeypatch.setattr(moments, name, f)
        assert lambda_fn(p, None, z).tobytes() == want

    @pytest.mark.usefixtures("small_slices")
    def test_forked_child_returns(self):
        # a child forked after sliced calls starts its own helper per call
        p = make_params(1.0)
        z = _points(p, "fn", 3 * SMALL + 5)
        want = lambda_fn(p, None, z).tobytes()

        def child():
            sys.exit(0 if lambda_fn(p, None, z).tobytes() == want else 1)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
            proc = multiprocessing.get_context("fork").Process(target=child)
            proc.start()
        proc.join(timeout=120)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=10)
            pytest.fail("forked child hung")
        assert proc.exitcode == 0

    def test_helper_is_made_lazily_and_not_on_one_cpu(self):
        # in a fresh interpreter: the import starts no thread; on one CPU a
        # sliced batch starts none, on more exactly one, which is gone when
        # the call returns; the executor module is never imported
        code = """if True:
            import os, sys, threading
            import numpy as np
            import bgkspectral
            from bgkspectral import dispersion, lambda_fn, make_params
            assert threading.active_count() == 1
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
            dispersion._LAMBDA_SLICE = 64
            p, z = make_params(1.0), np.linspace(0.1, 3.0, 3 * 64 + 5) + 0.5j
            during, stage = [], dispersion._tn_pieces
            dispersion._tn_pieces = (
                lambda p, piece: during.append(threading.active_count()) or stage(p, piece))
            real = os.sched_getaffinity if hasattr(os, "sched_getaffinity") else None
            os.sched_getaffinity = lambda pid: {0}
            want = lambda_fn(p, None, z).tobytes()
            assert set(during) == {1} and threading.active_count() == 1
            if real is None:
                del os.sched_getaffinity
            else:
                os.sched_getaffinity = real
            for _ in range(2):
                during.clear()
                assert lambda_fn(p, None, z).tobytes() == want
                assert max(during) == (2 if cpus > 1 else 1), during
                assert threading.active_count() == 1
            assert "concurrent.futures.thread" not in sys.modules
        """
        src = os.path.dirname(dispersion.__file__)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.path.dirname(src)},
                              timeout=120)
        assert done.returncode == 0, done.stderr

    @pytest.mark.usefixtures("small_slices")
    def test_staging_stays_four_slices_ahead(self, monkeypatch):
        # at a = 0 near the origin a slice stages one cheap wofz call, so
        # the helper could run far ahead of the caller; at most four staged
        # slices wait for it, its own and the next three
        p = make_params(0.0)
        z = _points(p, "fn", _small(200_000))
        z = z * (7.5 / np.max(np.abs(z)))
        staged, evaluated, waiting = [], [], []
        evaluate, stage = dispersion._lambda_offcut, dispersion._tn_pieces

        def spy_stage(p, piece):
            pieces = stage(p, piece)
            staged.append(piece.size)
            waiting.append(len(staged) - len(evaluated))  # appends: no lost update
            return pieces

        monkeypatch.setattr(dispersion, "_tn_pieces", spy_stage)
        monkeypatch.setattr(dispersion, "_lambda_offcut", lambda p, piece, pieces:
                            evaluated.append(piece.size) or evaluate(p, piece, pieces))
        lambda_fn(p, None, z)
        assert len(staged) == len(evaluated) == len(lambda_slices(z.size))
        assert max(waiting) <= 4

    def test_temporaries_scale_with_the_slice(self):
        # the unsliced code held about 75 MiB of temporaries at 2e5 points.
        # At a = 0 points past |z| = 8 take the moment series on both
        # half-lines, two passes a slice; points below it stage one cheap
        # wofz call a slice, which can outrun the caller
        for kind, a, where in (("fn", 1.0, None), ("fn", 0.0, "far"), ("fn", 0.0, "near"),
                               ("pv", 1.0, None), ("plus", 1.0, None)):
            p = make_params(a)
            x = _points(p, kind, 200_000)
            if where == "far":
                x = x + 8.0 * x / np.abs(x)
                assert np.min(np.abs(x)) >= 8.0
            elif where == "near":
                x = x * (7.5 / np.max(np.abs(x)))
            evaluate = EVALUATORS[kind][0]
            evaluate(p, x[:10])
            tracemalloc.start()
            try:
                out = evaluate(p, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= out.nbytes + 16 * 2**20, (kind, a, where)


class TestCofactors:
    def test_identity_matrix_limit(self):
        p = make_params(1.0)
        c = velocity_map(p, 0.4)
        cof = _cofactors(lambda_matrix(p, np.zeros(5, dtype=complex)), c)
        assert cof[0] == pytest.approx(1.0)
        assert cof[1] == pytest.approx(c)
        assert cof[2] == pytest.approx(c * c)

    def test_laplace_expansion_equivalence(self, model):
        p, _ = model[0.5]
        rng = np.random.default_rng(23)
        for _ in range(5):
            eta = rng.uniform(-1.8, 1.8)
            m = lambda_matrix(p, tn_pv_array(p, eta))
            c = velocity_map(p, eta)
            col = np.array([1.0, c, c * c])
            cof = eigen_data(p, eta).cofactors
            for k in range(3):
                # Laplace expansion along the replaced column
                want = sum(
                    col[i] * (-1) ** (i + k) * _minor(m, i, k) for i in range(3))
                assert cof[k] == pytest.approx(want, rel=1e-12)

    def test_a0_cofactor_identities(self, model):
        # at a = 0 the replaced-column determinants collapse:
        # L0 = 1, L1 = L2 = 0 identically on the cut
        p, _ = model[0.0]
        for eta in (0.3, 0.9, 1.7, -1.1):
            cof = eigen_data(p, eta).cofactors
            assert cof[0] == pytest.approx(1.0, abs=1e-12)
            assert abs(cof[1]) < 1e-12
            assert abs(cof[2]) < 1e-12


def _minor(m, i, k):
    rows = [r for r in range(3) if r != i]
    cols = [c for c in range(3) if c != k]
    return (m[rows[0], cols[0]] * m[rows[1], cols[1]]
            - m[rows[0], cols[1]] * m[rows[1], cols[0]])


def q_tilde_pv(p, eta, mu):
    """Q~(eta, mu) on the path the eigenfunctions take: PV cofactors at eta."""
    return _q_tilde(p, eigen_data(p, eta).cofactors, velocity_map(p, mu))


class TestQTilde:
    def test_identity_limit_form(self):
        # all t = 0 and eta -> 0: Q~(0, mu) = r0 - beta r2 (C(mu)^2 - beta)
        p = make_params(1.3)
        cof = _cofactors(lambda_matrix(p, np.zeros(5, dtype=complex)), velocity_map(p, 0.0))
        for mu in (0.0, 0.2, -0.5):
            c = velocity_map(p, mu)
            want = p.r0 - p.beta * p.r2 * (c * c - p.beta)
            assert _q_tilde(p, cof, c) == pytest.approx(want, rel=1e-14)

    def test_real_on_diagonal(self, model):
        p, _ = model[1.0]
        val = q_tilde_pv(p, 0.45, 0.45)
        assert isinstance(val, float)

    def test_a0_mu_quadratic_form(self, model):
        # at a = 0: Q~(eta, mu) = (3/2 - mu^2)/sqrt(pi), independent of eta
        p, _ = model[0.0]
        for eta in (0.25, 1.1):
            for mu in (0.0, 0.7, -1.4):
                want = (1.5 - mu * mu) / SQPI
                assert q_tilde_pv(p, eta, mu) == pytest.approx(want, abs=1e-12)


class TestSokhotsky:
    def test_origin_limit(self, model):
        p, _ = model[1.0]
        sj = sokhotsky_jump(p, 1e-9)
        assert abs(sj.jump) < 1e-7
        assert sj.lambda_plus == pytest.approx(1.0, abs=1e-6)

    def test_schwarz_pair(self, model):
        for a in (0.5, 1.0):
            p, _ = model[a]
            sj = sokhotsky_jump(p, 0.3 / (1 + a))
            assert np.conj(sj.lambda_plus) == pytest.approx(sj.lambda_minus, rel=1e-13)

    def test_average_equals_pv(self, model):
        p, _ = model[1.0]
        sj = sokhotsky_jump(p, 0.6)
        assert sj.average.real == pytest.approx(sj.pv, rel=1e-13)
        assert abs(sj.average.imag) < 1e-14

    def test_measured_jump_is_mu_times_claim(self, model):
        # the determinant's boundary jump carries the extra factor x
        for a in (0.5, 1.0, 2.0):
            p, _ = model[a]
            for x in (0.2 / (1 + a), 0.65 / (1 + a)):
                sj = sokhotsky_jump(p, x)
                assert sj.jump == pytest.approx(x * sj.claimed_jump, rel=1e-10)
                assert sj.ratio.real == pytest.approx(x, rel=1e-10)

    def test_a0_boundary_imaginary_part(self, model):
        # Im lambda+(1) = (3/2 - 1) sqrt(pi) e^{-1} at a = 0
        p, s = model[0.0]
        v = lambda_boundary(p, s, 1.0, "plus")
        want = 0.5 * SQPI * math.exp(-1.0)
        assert v.imag == pytest.approx(want, abs=1e-12)
        assert v.imag == pytest.approx(0.326, abs=1e-3)


class TestBoundaryRoute:
    """lambda+- = lambda_pv +- i*pi*x*rho*Q~(x, x) from one real PV matrix."""

    @pytest.mark.parametrize("a", [0.0, 1e-3, 1.0, 100.0, 1e5])
    def test_conjugate_and_plemelj_bit_for_bit(self, a):
        # lambda- = conj lambda+ and (lambda+ + lambda-)/2 = lambda_pv exactly,
        # for scalars and batches up to past two slices, with x = +-0 and
        # speeds up to 40, where rho underflows and the jump is exactly 0
        p = make_params(a)
        rng = np.random.default_rng(41)
        c = rng.choice([-1.0, 1.0], 20000) * rng.uniform(0.0, 40.0, 20000)
        x = c / (1.0 + a * np.abs(c))
        x[:2] = 0.0, -0.0
        with np.errstate(under="ignore"):
            rho = rho_of_c(p, c)
        assert np.count_nonzero(rho == 0.0) > 1000
        cases = [(x[i], rho[i]) for i in range(3)]
        cases += [(x[:n], rho[:n]) for n in (1, 7, SLICE, 20000)]
        for pts, r in cases:
            plus, minus = (np.asarray(lambda_boundary(p, None, pts, side))
                           for side in ("plus", "minus"))
            pv = np.asarray(lambda_pv(p, None, pts))
            assert minus.tobytes() == plus.conj().tobytes(), np.size(pts)
            mean = 0.5 * (plus + minus)
            assert mean.real.tobytes() == pv.tobytes() and np.all(mean.imag == 0.0), np.size(pts)
            assert np.all(plus.imag[r == 0.0] == 0.0), np.size(pts)

    @pytest.mark.parametrize("a", [0.0, 1.0, 1e5])
    def test_extremes_warn_nothing(self, a):
        # where rho underflows (|C| > 27.3), at +-alpha(1 - 1e-16), at x = +-0
        # and at a = 0 out to x = 1e200, where C**2 overflows: finite values,
        # the real part lambda_pv, the jump exactly 0 where rho is 0
        p = make_params(a)
        if a == 0.0:
            x = np.array([0.0, -0.0, 27.3, -30.0, 1e77, -1e100, 1e200])
        else:
            speeds = np.array([27.3, 30.0, 40.0, 1e3, 1e8])
            x = np.concatenate([[0.0, -0.0, p.alpha * (1.0 - 1e-16), -p.alpha * (1.0 - 1e-16)],
                                speeds / (1.0 + a * speeds), -speeds / (1.0 + a * speeds)])
        with np.errstate(over="ignore", under="ignore"):
            zero_rho = rho_of_c(p, velocity_map(p, x)) == 0.0
        assert np.count_nonzero(zero_rho) >= 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pts, at in ((x, zero_rho), *zip(x, zero_rho)):
                pv = np.asarray(lambda_pv(p, None, pts))
                zero = at | (pts == 0.0)
                for side in ("plus", "minus"):
                    v = np.asarray(lambda_boundary(p, None, pts, side))
                    assert np.all(np.isfinite(v)), (side, pts)
                    assert v.real.tobytes() == pv.tobytes(), (side, pts)
                    assert np.all(v.imag[zero] == 0.0), (side, pts)
                    assert np.all(v.imag[~zero] != 0.0), (side, pts)

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_raises_what_tn_boundary_array_raises(self, a):
        # the points are checked as t_n checks them, scalar or in a batch
        p = make_params(a)
        nan, inf = float("nan"), float("inf")
        bad = [nan, inf, -inf, 0.2 + 0.1j, np.array([0.1, 0.2j]), [0.1, nan], "0.1x"]
        if a > 0.0:
            bad += [p.alpha, -p.alpha, 2.0 * p.alpha, [0.1, p.alpha]]
        for side in ("plus", "minus"):
            for x in bad:
                want = _raised(lambda: tn_boundary_array(p, x, side))
                assert _raised(lambda: lambda_boundary(p, None, x, side)) == want, (side, x)
            # a zero imaginary part is dropped, as tn_boundary_array drops it
            for x in (0.3 + 0j, np.array([0.3, -0.2]) + 0j):
                assert (np.asarray(lambda_boundary(p, None, x, side)).tobytes()
                        == np.asarray(lambda_boundary(p, None, x.real, side)).tobytes())


def _sample_polyline(vertices, total, level=0):
    """All samples of ``level`` (``_polyline_points``), closing vertex appended."""
    pts = _polyline_points(vertices, total, level, 0)
    return np.append(pts, pts[0])


def _sample_polyline_loop(vertices, total, level=0):
    """The per-segment loop form of ``_sample_polyline``, as an oracle."""
    v = np.asarray(vertices, dtype=complex)
    if abs(v[0] - v[-1]) > 1e-12:
        v = np.append(v, v[0])
    seg = np.abs(np.diff(v))
    perimeter = seg.sum()
    pts = []
    for z0, z1, ln in zip(v[:-1], v[1:], seg):
        k = max(2, int(np.ceil(total * ln / perimeter))) << level
        j = np.arange(k)
        pts.append((k - j) / k * z0 + j / k * z1)
    pts = np.concatenate(pts)
    return np.append(pts, pts[0])


def _oracle_contours():
    for a in (0.1, 1.0, 10.0, 1e3):
        p = make_params(a)
        for hw, hh in ((3.0, 2.0), (5.0, 3.0), (8.0, 5.0)):  # the CLI's keyholes
            yield f"keyhole-a{a:g}-{hw:g}x{hh:g}", keyhole_contour(p, max(hw, p.alpha + 0.5), hh)
    yield "semicircle", semicircle_contour()
    polygon = np.array([0, 2, 2.5 + 1j, 0.3 + 1.7j, -0.4 + 0.6j])
    yield "polygon-open", polygon
    yield "polygon-closed", np.append(polygon, polygon[0])


class TestZeroCounting:
    def test_winding_oracle_synthetic(self):
        # (z - 0.5)^3 on the unit circle winds three times; its argument turns
        # fastest at z = 1, by 3 / |1 - 0.5| = 6 per radian of the circle
        th = np.linspace(0, 2 * math.pi, 4097)
        vals = (np.exp(1j * th) - 0.5) ** 3
        turns, step = winding_number(vals)
        assert turns == pytest.approx(3.0, abs=1e-6)
        assert step == pytest.approx(6.0 * th[1], rel=1e-5)

    @pytest.mark.parametrize("contour", [pytest.param(c, id=name) for name, c in _oracle_contours()])
    def test_sampler_matches_loop_form(self, contour):
        for level in range(5):
            assert (_sample_polyline(contour, 4096, level).tobytes()
                    == _sample_polyline_loop(contour, 4096, level).tobytes()), level

    @pytest.mark.parametrize("contour", [pytest.param(c, id=name) for name, c in _oracle_contours()
                                         if not name.startswith("polygon")])
    def test_midpoints_are_odd_samples(self, contour):
        # a refinement samples only the new midpoints, with the same bits
        assert (_polyline_points(contour, 4096, 0, 0).tobytes()
                == _sample_polyline(contour, 4096)[:-1].tobytes())
        for level in range(1, 5):
            assert (_polyline_points(contour, 4096, level, 1).tobytes()
                    == _sample_polyline(contour, 4096, level)[1::2].tobytes()), level

    def test_zero_length_contour_rejected(self, model):
        p, _ = model[1.0]
        with pytest.raises(DomainError, match="zero length"):
            count_zeros(p, np.full(3, 2 + 1j))

    def test_sampler_closes_polyline(self):
        v = np.array([0, 1, 1 + 1j, 1j], dtype=complex)
        pts = _sample_polyline(v, 64)
        assert pts[0] == pts[-1]

    @pytest.mark.parametrize("shape", ["keyhole", "square"])
    def test_sampler_levels_nest(self, model, shape):
        # level L + 1 holds level L, bit for bit, at its even indices
        if shape == "keyhole":
            v, total = keyhole_contour(model[1.0][0], 3.0, 2.0), 4096
        else:
            v, total = np.array([0, 1, 1 + 1j, 1j], dtype=complex), 64
        for level in range(4):
            coarse = _sample_polyline(v, total, level)
            fine = _sample_polyline(v, total, level + 1)
            assert fine.size == 2 * coarse.size - 1
            assert fine[::2].tobytes() == coarse.tobytes()

    @pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("hw, hh", [(3.0, 2.0), (5.0, 3.0), (8.0, 5.0)])
    def test_keyhole_samples_closed_under_symmetries(self, a, hw, hh):
        # z -> conj z everywhere; z -> -conj z off the corridor, which runs
        # along the negative real axis only
        p = make_params(a)
        cont = keyhole_contour(p, max(hw, p.alpha + 0.5), hh)
        for level in range(4):
            pts = _sample_polyline(cont, 4096, level)[:-1]
            assert _canonical(np.conj(pts)) == _canonical(pts)
            off_axis = pts[pts.imag != 0]
            assert _canonical(-np.conj(off_axis)) == _canonical(off_axis)

    def test_semicircle_samples_closed_under_reflection(self):
        for level in range(4):
            pts = _sample_polyline(semicircle_contour(), 4096, level)[:-1]
            assert _canonical(-np.conj(pts)) == _canonical(pts)

    def test_count_zeros_evaluates_each_orbit_once(self, model, monkeypatch):
        p, _ = model[1.0]
        cont = keyhole_contour(p, 3.0, 2.0)
        batches = []

        def counting(params, scheme, z):
            batches.append(np.array(z))
            return lambda_fn(params, scheme, z)

        monkeypatch.setattr(dispersion, "lambda_fn", counting)
        assert count_zeros(p, cont) == 0
        # one point per orbit of z -> conj z, -z of the final level's samples
        # (the closing point repeats the first), each evaluated once
        final = _sample_polyline(cont, 4096, len(batches) - 1)[:-1]
        orbits = np.unique(np.abs(final.real) + 1j * np.abs(final.imag))
        seen = np.concatenate(batches)
        assert np.sort(seen).tobytes() == orbits.tobytes()
        assert seen.size < 0.35 * final.size
        for batch in batches:  # each batch in np.unique's order
            assert batch.tobytes() == np.unique(batch).tobytes()

    def test_orbit_lookup_matches_unique_form(self, model, monkeypatch):
        # the representatives, their order and the values handed back equal
        # those of np.unique(..., return_inverse=True) on |Re z| + i|Im z|
        p, _ = model[1.0]
        rng = np.random.default_rng(4)
        base = rng.normal(size=40) + 1j * rng.normal(size=40)
        base[:4] = (0.0, 1j, 2.0, -0.0 + 0.5j)
        z = rng.choice(base, 600) * rng.choice([1, -1, 1j, -1j], 600)
        z = np.concatenate([z, np.conj(z[:50]), [0.0, -0.0, -0.0 - 0.0j]])
        batches = []

        def stub(params, scheme, w):
            batches.append(w)
            return w * w + (1.0 + 2.0j) * w + 3.0

        monkeypatch.setattr(dispersion, "lambda_fn", stub)
        got = _lambda_by_orbit(p, z)
        rep, back = np.unique(np.abs(z.real) + 1j * np.abs(z.imag), return_inverse=True)
        vals = (rep * rep + (1.0 + 2.0j) * rep + 3.0)[back]
        assert len(batches) == 1 and batches[0].tobytes() == rep.tobytes()
        assert got.tobytes() == np.where(z.real * z.imag < 0, vals.conj(), vals).tobytes()

    def test_orbit_values_count_known_zeros(self, model, monkeypatch):
        # a stand-in for lambda with its symmetries, f(conj z) = conj f(z) and
        # f(-z) = f(z), and zeros at +-z0, +-conj z0: a wrong orbit lookup
        # (say, a missing conjugation) changes both counts
        p, _ = model[1.0]
        z0 = 1.5 + 1.0j
        monkeypatch.setattr(dispersion, "lambda_fn",
                            lambda params, scheme, z: (z * z - z0 * z0) * (z * z - np.conj(z0 * z0)))
        assert count_zeros(p, keyhole_contour(p, 3.0, 2.0)) == 4
        circle = -np.conj(z0) + 0.25 * np.exp(1j * np.linspace(0, 2 * math.pi, 64, endpoint=False))
        assert count_zeros(p, circle) == 1

    def test_keyhole_zero_count(self, model):
        p, _ = model[1.0]
        cont = keyhole_contour(p, 3.0, 2.0)
        assert count_zeros(p, cont) == 0

    def test_nested_keyholes(self, model):
        # five nested cut-avoiding contours, identically zero winding
        for a in (0.5, 1.0, 2.0):
            p, _ = model[a]
            for hw, hh in ((3.0, 2.0), (4.0, 2.5), (5.0, 3.0), (6.5, 4.0),
                           (8.0, 5.0)):
                cont = keyhole_contour(p, max(hw, p.alpha + 0.5), hh)
                assert count_zeros(p, cont) == 0, (a, hw)

    def test_a0_semicircle(self, model):
        p, _ = model[0.0]
        assert count_zeros(p, semicircle_contour()) == 0

    def test_small_circle_off_cut(self, model):
        p, _ = model[1.0]
        circle = 2j + 0.25 * np.exp(1j * np.linspace(0, 2 * math.pi, 64, endpoint=False))
        assert count_zeros(p, circle) == 0

    def test_contour_touching_cut_rejected(self, model):
        p, _ = model[1.0]
        bad = np.array([0.5 + 0j, 1 + 1j, -1 + 1j], dtype=complex)
        with pytest.raises(IllConditionedContourError):
            count_zeros(p, bad)

    def test_keyhole_requires_finite_cut(self, model):
        p, _ = model[0.0]
        with pytest.raises(DomainError):
            keyhole_contour(p, 3.0, 2.0)


class TestLaurent:
    def test_a0_order_and_coefficient(self, model):
        p, _ = model[0.0]
        order, coeff = laurent_order_at_infinity(p)
        assert order == 4
        assert coeff.real == pytest.approx(0.75, abs=1e-4)
        assert abs(coeff.imag) < 1e-4

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_order_four_general(self, a, model):
        p, _ = model[a]
        order, coeff = laurent_order_at_infinity(p)
        assert order == 4
        assert np.isfinite(coeff)

    def test_bounded_tail(self, model):
        p, s = model[1.0]
        th = np.linspace(0.2, math.pi - 0.2, 8)
        z = 40 * np.exp(1j * th)
        assert np.max(np.abs(z**4 * lambda_fn(p, s, z))) < 10.0


class TestSpectrumDescription:
    def test_multiplicity_matches_laurent_order(self, model):
        # continuous spectrum (-alpha, alpha), one discrete point of order 4
        for a in (0.0, 1.0):
            p, s = model[a]
            order, _ = laurent_order_at_infinity(p)
            assert order == 4
            inside = np.array([-0.999, -0.5, 0.0, 0.5, 0.999]) * min(p.alpha, 3.0)
            assert np.all(np.isfinite(lambda_pv(p, s, inside)))
            for x in inside:
                with pytest.raises(DomainError):
                    lambda_fn(p, s, complex(x))
            if math.isfinite(p.alpha):
                for x in (-p.alpha, p.alpha):
                    with pytest.raises(DomainError):
                        lambda_pv(p, s, x)
                    assert np.isfinite(lambda_fn(p, s, complex(1.001 * x)))


class TestDispersionEval:
    def test_offcut_has_no_cofactors(self, model):
        p, s = model[1.0]
        det = np.linalg.det(lambda_matrix(p, tn_offcut_array(p, 1 + 1j)))
        assert det == pytest.approx(lambda_fn(p, s, 1 + 1j), rel=1e-14)
        # the velocity map, and so the replaced column, exists only on the cut
        with pytest.raises(DomainError):
            eigen_data(p, 1.5)

    def test_pv_eval_carries_cofactors(self, model):
        p, s = model[1.0]
        det = np.linalg.det(lambda_matrix(p, tn_pv_array(p, 0.3)))
        assert det == pytest.approx(lambda_pv(p, s, 0.3), rel=1e-13)
        assert np.all(np.isfinite(eigen_data(p, 0.3).cofactors))

    def test_a0_pv_matches_closed_form(self, model):
        p, s = model[0.0]
        for x in (0.4, 1.3, 2.2):
            assert lambda_pv(p, s, x) == pytest.approx(lambda_a0_pv(x), rel=1e-11)


#: a = 0 or log-uniform in [1e-8, 1e5]
SLOPES = st.one_of(st.just(0.0), st.floats(-8.0, 5.0).map(lambda e: 10.0 ** e))


class TestLambdaProperties:
    """Identities of lambda at drawn slopes and points (ROADMAP item 12(a));
    the draws are seeded, so every run checks the same examples."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(a=SLOPES, log_r=st.floats(-3.0, 2.0), theta=st.floats(-math.pi, math.pi))
    def test_conjugate_and_mirror_symmetry(self, a, log_r, theta):
        # lambda(conj z) = conj lambda(z) and lambda(-z) = lambda(z), bit for
        # bit, at |z| in [1e-3, 1e2] off the real axis
        p = make_params(a)
        z = 10.0 ** log_r * complex(math.cos(theta), math.sin(theta))
        assume(z.imag != 0.0)
        v = lambda_fn(p, None, z)
        bits = np.complex128(v).tobytes()
        assert np.complex128(lambda_fn(p, None, -z)).tobytes() == bits, z
        assert np.complex128(lambda_fn(p, None, z.conjugate())).conj().tobytes() == bits, z

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(a=SLOPES, c=st.floats(-12.0, 12.0))
    def test_pv_is_the_mean_and_jump_is_x_times_the_claim(self, a, c):
        # at x = C/(1 + a|C|) inside the cut, against |lambda+|: lambda_pv has
        # zeros on the cut, and the jump is tiny beside lambda where rho is small
        p = make_params(a)
        x = c / (1.0 + a * abs(c))
        plus, minus = (lambda_boundary(p, None, x, side) for side in ("plus", "minus"))
        assert abs(lambda_pv(p, None, x) - 0.5 * (plus + minus)) <= 1e-12 * abs(plus), x
        sj = sokhotsky_jump(p, x)  # its complex determinants check the rank-one route
        assert abs(sj.lambda_plus - plus) <= 1e-12 * abs(plus), x
        assert abs(sj.jump - x * sj.claimed_jump) <= 1e-12 * abs(plus), x

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(log_a=st.floats(-8.0, 5.0), log_d=st.floats(-6.0, 3.0),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_real_axis_beyond_the_cut(self, log_a, log_d, sign):
        # lambda and t_n are real there; their zero imaginary part has the sign
        # of Im z, so lambda(conj z) = conj lambda(z) holds bit for bit on the axis too
        p = make_params(10.0 ** log_a)
        x = sign * p.alpha * (1.0 + 10.0 ** log_d)
        assume(abs(x) > p.alpha)
        up, down = complex(x, 0.0), complex(x, -0.0)
        batch = lambda_fn(p, None, np.array([up, down, 0.5j]))
        for i, z in enumerate((up, down)):
            v, t = np.complex128(lambda_fn(p, None, z)), tn_offcut_array(p, z)
            for got in (v, batch[i], t):
                assert np.all(got.imag == 0.0), z
                assert np.all(np.signbit(got.imag) == np.signbit(z.imag)), z
        assert np.complex128(lambda_fn(p, None, down)).tobytes() == \
            np.complex128(lambda_fn(p, None, up)).conj().tobytes()
