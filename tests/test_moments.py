import cmath
import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from bgkspectral import (
    DomainError,
    WrongRegionError,
    lambda_a0_boundary,
    lambda_boundary,
    lambda_c_boundary,
    make_params,
)
from bgkspectral import moments
from bgkspectral.dispersion import (_LAMBDA_SLICE, _cofactors, _det3, lambda_fn, lambda_matrix,
                                    lambda_pv)
from bgkspectral.moments import (
    _SERIES_RADIUS,
    _cauchy_halfline_poly,
    _cauchy_halfline_series,
    _cauchy_halflines,
    _halfline_pieces,
    _tn_halflines,
    boundary_jump_array,
    tn_boundary_array,
    tn_offcut_array,
    tn_pv_array,
)
from bgkspectral.params import rho_of_c, velocity_map
from bgkspectral.quadrature import integrate_weighted

from conftest import (
    A_GRID,
    asymptotic_moments,
    cauchy_halfline_poly_oracle,
    cauchy_halfline_series_oracle,
    halflines_oracle,
    lambda_slices,
    phi_halfline_oracle,
    quadrature_moments,
    tn_halflines_oracle,
)

SQPI = math.sqrt(math.pi)


class TestOffCut:
    def test_zero_prefactor_scaling(self, model):
        # t_n(eps*i)/eps converges to a finite limit (explicit z prefactor)
        for a, (p, _) in model.items():
            scaled = {}
            for eps in (1e-4, 1e-6, 1e-8):
                t = tn_offcut_array(p, eps * 1j)
                assert np.max(np.abs(t)) < 50 * eps
                scaled[eps] = t / eps
            drift_coarse = np.max(np.abs(scaled[1e-6] - scaled[1e-4]))
            drift_fine = np.max(np.abs(scaled[1e-8] - scaled[1e-6]))
            assert drift_fine < max(drift_coarse / 10, 1e-10)
            assert drift_fine < 1e-3

    def test_large_z_leading_values_a1(self, model):
        p, _ = model[1.0]
        t = tn_offcut_array(p, 1e3 + 0j)
        assert t[0].real == pytest.approx(-(SQPI + 1.0), abs=1e-5)
        assert t[2].real == pytest.approx(-(SQPI / 2 + 1.0), abs=1e-5)
        assert t[4].real == pytest.approx(-(3 * SQPI / 4 + 2.0), abs=1e-5)

    @pytest.mark.parametrize("a", A_GRID)
    def test_reflection_parity_asymptote(self, a, model):
        p, s = model[a]
        rng = np.random.default_rng(42 + int(10 * a))
        m_exact = asymptotic_moments(p)
        # first-order mu-moments and second-order corrections by quadrature
        m1 = np.array([
            integrate_weighted(s, lambda c, n=n: c**n * c / (1 + a * np.abs(c)))
            for n in range(5)])
        m2 = np.array([
            integrate_weighted(s, lambda c, n=n: c**n * (c / (1 + a * np.abs(c))) ** 2)
            for n in range(5)])
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.3, 3))
            t = tn_offcut_array(p, z)
            t_conj = tn_offcut_array(p, np.conj(z))
            t_neg = tn_offcut_array(p, -z)
            assert np.max(np.abs(t_conj - np.conj(t))) < 1e-13 * (1 + np.max(np.abs(t)))
            signs = np.array([(-1.0) ** n for n in range(5)])
            assert np.max(np.abs(t_neg - signs * t)) < 1e-13 * (1 + np.max(np.abs(t)))
        # large-|z| series through 1/z^2, remainder O(z^-3) < 1e-6
        zb = 1e3 * np.exp(1j * rng.uniform(0.1, np.pi - 0.1, 5))
        t = tn_offcut_array(p, zb)
        for n in range(5):
            series = -m_exact[n] - m1[n] / zb - m2[n] / zb**2
            assert np.max(np.abs(t[n] - series)) < 1e-6

    def test_wrong_region_error(self, model):
        # the closed cut, its centre z = 0 included, goes to the PV and
        # boundary-value functions; a point that is not finite is no point
        p, _ = model[1.0]
        p0, _ = model[0.0]
        for q, z in ((p, 0.5 + 0j), (p, 0j), (p, -p.alpha + 0j), (p0, 0j),
                     (p0, 100.0 + 0j), (p0, -1e300 + 0j)):  # all of R is the cut at a=0
            with pytest.raises(WrongRegionError, match="spectral cut"):
                tn_offcut_array(q, z)
            with pytest.raises(WrongRegionError, match="spectral cut"):
                lambda_fn(q, None, z)
        with pytest.raises(WrongRegionError):
            tn_offcut_array(p, np.array([1 + 1j, 0.2 + 0j]))
        for z in (complex("nan"), complex(0.3, float("nan")), complex(float("inf"), 1.0)):
            for evaluate in (tn_offcut_array, lambda q, z: lambda_fn(q, None, z)):
                with pytest.raises(DomainError, match="^point is not finite") as bad:
                    evaluate(p0, z)
                assert not isinstance(bad.value, WrongRegionError)

    def test_real_beyond_cut_allowed(self, model):
        p, _ = model[1.0]
        t = tn_offcut_array(p, 1.5 + 0j)
        assert np.max(np.abs(t.imag)) < 1e-14

    @pytest.mark.parametrize("z", [2j, 1.5 + 2j, -2.5 - 1.5j])
    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 5.0])
    def test_analytic_matches_direct_quadrature(self, a, z, model):
        p, s = model[a]
        t_an = tn_offcut_array(p, z)
        t_qu = quadrature_moments(p, s, z)
        assert np.max(np.abs(t_an - t_qu)) < 1e-10


class TestPrincipalValue:
    def test_zero_point(self, model):
        p, _ = model[1.0]
        assert np.all(tn_pv_array(p, 0.0) == 0)

    def test_parity(self, model):
        for a in (0.0, 0.5, 2.0):
            p, _ = model[a]
            x = 0.3 / (1 + a)
            tp = tn_pv_array(p, x)
            tm = tn_pv_array(p, -x)
            signs = np.array([(-1.0) ** n for n in range(5)])
            assert np.max(np.abs(tm - signs * tp)) < 1e-13

    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.0])
    def test_plemelj_average_oracle(self, a, model):
        # PV equals the Richardson-extrapolated average of off-cut values
        p, _ = model[a]
        for x in (0.2 / (1 + a), 0.7 / (1 + a)):
            pv = tn_pv_array(p, x)
            avg = {}
            for eps in (1e-4, 1e-5):
                tp = tn_offcut_array(p, x + 1j * eps)
                tm = tn_offcut_array(p, x - 1j * eps)
                avg[eps] = 0.5 * (tp + tm)
            extrap = (1e-4 * avg[1e-5] - 1e-5 * avg[1e-4]) / (1e-4 - 1e-5)
            assert np.max(np.abs(extrap - pv)) < 1e-6

    def test_domain_error(self, model):
        p, _ = model[2.0]
        with pytest.raises(DomainError):
            tn_pv_array(p, 0.55)


class TestBoundary:
    def test_jump_formula_against_richardson(self, model):
        # t_n^+ - t_n^- == 2 pi i x C^n rho at x = 0.3, a = 1
        p, _ = model[1.0]
        x = 0.3
        jmp = {}
        for eps in (1e-4, 5e-5):
            tp = tn_offcut_array(p, x + 1j * eps)
            tm = tn_offcut_array(p, x - 1j * eps)
            jmp[eps] = tp - tm
        extrap = 2.0 * jmp[5e-5] - jmp[1e-4]
        c = velocity_map(p, x)
        rho = rho_of_c(p, np.asarray(c))
        claim = np.array([2j * math.pi * x * c**n * rho for n in range(5)])
        assert np.max(np.abs(extrap - claim)) < 1e-6
        built = tn_boundary_array(p, x, "plus") - tn_boundary_array(p, x, "minus")
        assert np.max(np.abs(built - claim)) < 1e-14

    def test_zero_jump_at_origin(self, model):
        p, _ = model[1.0]
        tp = tn_boundary_array(p, 0.0, "plus")
        tm = tn_boundary_array(p, 0.0, "minus")
        assert np.all(tp == tm)

    def test_schwarz_reflection(self, model):
        for a in (0.0, 1.0):
            p, _ = model[a]
            x = 0.4 / (1 + a)
            tp = tn_boundary_array(p, x, "plus")
            tm = tn_boundary_array(p, x, "minus")
            assert np.max(np.abs(np.conj(tp) - tm)) < 1e-14

    def test_boundary_is_offcut_limit(self, model):
        # acceptance-grade: boundary values equal the limit of tn_offcut_array
        for a in (0.5, 1.0):
            p, _ = model[a]
            x = 0.5 / (1 + a)
            tb = tn_boundary_array(p, x, "plus")
            lim = {}
            for eps in (1e-4, 5e-5):
                lim[eps] = tn_offcut_array(p, x + 1j * eps)
            extrap = 2.0 * lim[5e-5] - lim[1e-4]
            assert np.max(np.abs(extrap - tb)) < 1e-6

    @pytest.mark.parametrize("boundary", [
        lambda p, s, side: tn_boundary_array(p, 0.3, side),
        lambda p, s, side: lambda_boundary(p, s, 0.3, side),
        lambda p, s, side: lambda_c_boundary(0.3, side),
        lambda p, s, side: lambda_a0_boundary(0.3, side),
    ], ids=["tn_boundary_array", "lambda_boundary", "lambda_c_boundary",
            "lambda_a0_boundary"])
    def test_bad_side(self, boundary, model):
        p, s = model[1.0]
        with pytest.raises(DomainError) as bad:
            boundary(p, s, "up")
        assert isinstance(bad.value, ValueError)
        for spellings in (("plus", "+", 1), ("minus", "-", -1)):
            vals = [boundary(p, s, side) for side in spellings]
            assert np.array_equal(vals[0], vals[1])
            assert np.array_equal(vals[0], vals[2])
        assert not np.array_equal(boundary(p, s, "plus"), boundary(p, s, "minus"))


def test_asymptotic_moments_closed_form(model):
    for a, (p, s) in model.items():
        m = asymptotic_moments(p)
        quad = np.array([
            integrate_weighted(s, lambda c, n=n: c**n) for n in range(7)])
        assert np.max(np.abs(m - quad)) < 1e-11


def mpmath_halfline(a, big_z):
    """J_0..J_4 at one half-line argument ``big_z``, at mpmath's working
    precision: Phi(Z) = int_0^inf exp(-t**2)/(t - Z) dt in closed form (erfc
    and E1 off the real axis, erfi and Ei on it) and the exact recurrence
    K_{n+1} = h_n + Z K_n for K_n = int_0^inf exp(-t**2) t**n/(t - Z) dt."""
    if mp.im(big_z) < 0:
        return [mp.conj(j) for j in mpmath_halfline(a, mp.conj(big_z))]
    h = [mp.gamma(mp.mpf(k + 1) / 2) / 2 for k in range(6)]
    s = big_z * big_z
    if mp.im(big_z) == 0:
        k = [(-mp.pi * mp.erfi(big_z) - mp.ei(s)) * mp.exp(-s) / 2]
    else:
        k = [(1j * mp.pi * mp.erfc(-1j * big_z) + mp.e1(-s)) * mp.exp(-s) / 2]
    for n in range(6):
        k.append(h[n] + big_z * k[-1])
    return [k[n] + 2 * a * k[n + 1] + a * a * k[n + 2] for n in range(5)]


def _mpmath_tn(a, z):
    """t0..t4 at ``z`` from the two half-lines, at mpmath's working precision."""
    a = mp.mpf(a)
    z = mp.mpc(z) if isinstance(z, complex) else mp.mpf(z)
    dp, dm = 1 - a * z, 1 + a * z
    jp, jm = mpmath_halfline(a, z / dp), mpmath_halfline(a, -z / dm)
    return [z * (jp[n] / dp + (-1) ** (n + 1) * jm[n] / dm) for n in range(5)]


def mpmath_moments(a, z):
    """t0..t4 at ``z`` (complex, or real for the principal value), to 40
    digits from the two half-lines; at |Z| = 1e3 the cancellation of the
    recurrence still leaves 28."""
    with mp.workdps(40):
        return [complex(t) for t in _mpmath_tn(a, z)]


def mpmath_lambda_boundary(p, x, sgn):
    """lambda(x + sgn*i0) to 40 digits: the PV moments plus the exact jump
    sgn*i*pi*x*C**n*rho(x), assembled by the rule and its determinant taken
    at the working precision."""
    with mp.workdps(40):
        x, a = mp.mpf(x), mp.mpf(p.a)
        c = x / (1 - a * abs(x))
        rho = mp.exp(-c * c) * (1 + a * abs(c)) ** 3
        t = [tn + sgn * 1j * mp.pi * x * c**n * rho for n, tn in enumerate(_mpmath_tn(p.a, x))]
        beta, r0, r1, r2 = (mp.mpf(v) for v in (p.beta, p.r0, p.r1, p.r2))
        m = mp.matrix(3, 3)
        for row in range(3):
            m[row, 0] = (r0 + beta**2 * r2) * t[row] - beta * r2 * t[row + 2]
            m[row, 1] = r1 * t[row + 1]
            m[row, 2] = r2 * (t[row + 2] - beta * t[row])
            m[row, row] += 1
        return complex(mp.det(m))


#: points whose half-line arguments Z+ = z/(1 - az), Z- = z/(1 + az) reach
#: the moment series (|Z| >= 8): both of them at a = 0, and one of them at
#: a > 0 with the other below 2; the radii start just past the switch
SERIES_POINTS = [
    (0.0, r * cmath.exp(2j * math.pi * (k + 0.5) / 8))
    for r in (8.0 + 1e-9, 10.0, 20.0, 1e3) for k in range(8)
] + [
    (a, big_z / (1.0 + side * a * big_z))
    for a in (1.0, 5.0, 100.0) for r in (8.0 + 1e-9, 30.0, 1e3)
    for big_z in (r * cmath.exp(1j * th) for th in (0.4, 1.9, 3.5, 5.2))
    for side in (1, -1)
]


def test_series_branch_matches_mpmath():
    # odd t_n at a = 0, |z| = 1e3 measure about 5e-14: the two half-lines
    # cancel there to 1/|z| of their size
    for a, z in SERIES_POINTS:
        big = sorted((abs(z / (1 - a * z)), abs(z / (1 + a * z))))
        assert big[1] >= 8.0 and (a == 0.0 or big[0] < 2.0)
        got, ref = tn_offcut_array(make_params(a), z), mpmath_moments(a, z)
        for n in range(5):
            assert abs(got[n] - ref[n]) <= 1e-13 * abs(ref[n]), (a, z, n)


@pytest.mark.parametrize("a, x", [(1.0, 0.8635), (100.0, -0.0099843)])
def test_t4_just_past_s_40_matches_mpmath(a, x):
    # |Z+-|**2 is just above 40 at these points: an asymptotic tail for the
    # exponential integral there, summed past its smallest term, puts t4
    # off by 5e-7
    p = make_params(a)
    for z, t4 in ((x, tn_pv_array(p, x)[4]),
                  (complex(x, 1e-9), tn_offcut_array(p, complex(x, 1e-9))[4])):
        ref = mpmath_moments(a, z)[4]
        assert abs(t4 - ref) <= 1e-9 * abs(ref), z


def _det3_rounding(m):
    """One rounding unit of a 3x3 determinant (stack): eps times the sum of
    the magnitudes of the six products of its expansion."""
    m = np.abs(m)
    return np.finfo(float).eps * sum(m[0, i] * m[1, j] * m[2, k]
                                     for i, j, k in itertools.permutations(range(3)))


@pytest.mark.parametrize("a", [0.0, 1.0, 100.0, 1e5])
def test_boundary_values_match_mpmath(a):
    # lambda+- = lambda_pv +- i*pi*x*rho*Q~ against 40 digits, at the 12 of
    # 2000 points where it differs most from the complex determinant of
    # t_PV +- jump: at each point no farther from mpmath than that direct
    # route, up to two rounding units of the determinant (over 1000 points
    # per slope the two traded places by up to 0.97 of one).  Both carry
    # t_PV's error below |Z| = 8 (ROADMAP item 5), up to 1e-8 at a = 100.
    p = make_params(a)
    rng = np.random.default_rng(29)
    c = rng.choice([-1.0, 1.0], 2000) * rng.uniform(0.0, 12.0, 2000)
    x = c / (1.0 + a * np.abs(c))
    for side, sgn in (("plus", 1.0), ("minus", -1.0)):
        got = lambda_boundary(p, None, x, side)
        m = lambda_matrix(p, tn_boundary_array(p, x, side))
        direct, unit = _det3(m), _det3_rounding(m)
        for i in np.argsort(np.abs(got - direct) / unit)[-12:]:
            ref = mpmath_lambda_boundary(p, x[i], sgn)
            assert abs(got[i] - ref) <= abs(direct[i] - ref) + 2.0 * unit[i], (side, x[i])
            assert abs(got[i] - ref) <= 2e-8 * max(1.0, abs(ref)), (side, x[i])


def test_a0_boundary_values_match_closed_form():
    # against -1/2 - (x**2 - 3/2) lambda_C(x +- i0), in the mixed measure: the
    # rank-one route's worst error is no larger than the direct route's
    p = make_params(0.0)
    x = np.random.default_rng(5).uniform(-6.0, 6.0, 20000)
    for side in ("plus", "minus"):
        ref = lambda_a0_boundary(x, side)
        direct = _det3(lambda_matrix(p, tn_boundary_array(p, x, side)))
        errs = [np.abs(v - ref) / np.maximum(1.0, np.abs(ref))
                for v in (lambda_boundary(p, None, x, side), direct)]
        assert errs[0].max() <= errs[1].max() <= 2e-14, side


def test_a0_offcut_moments_no_worse_without_the_half_pieces(monkeypatch):
    # at a = 0 off the cut the kernel drops e^(-Z**2) E1(-Z**2), which cancels
    # between the half-lines: against 40 digits over |z| in [1e-3, 1e3] at all
    # arguments, t_n is no worse than with the pieces formed.  Past |Z| = 8 the
    # series takes every point and the bytes stay; below it each decade's
    # worst error stays within twice the other route's (rounding spread; the
    # ratio read up to 1.5 in bands of a third of a decade), and the overall
    # worst within 2%.
    p = make_params(0.0)
    rng = np.random.default_rng(13)
    z = 10.0 ** rng.uniform(-3.0, 3.0, 600) * np.exp(1j * rng.uniform(-math.pi, math.pi, 600))
    got = tn_offcut_array(p, z)
    pieces = moments._phi_pieces
    # a nonzero slope only makes _phi_pieces form the half pieces: the route before
    monkeypatch.setattr(moments, "_phi_pieces", lambda zh, a: pieces(zh, 1.0))
    kept = tn_offcut_array(p, z)
    far = np.abs(z) >= _SERIES_RADIUS
    assert got[:, far].tobytes() == kept[:, far].tobytes()
    ref = np.array([mpmath_moments(0.0, complex(zi)) for zi in z[~far]]).T
    err, err_kept = (np.abs(t[:, ~far] - ref) / np.abs(ref) for t in (got, kept))
    decade = np.floor(np.log10(np.abs(z[~far])))
    for d in np.unique(decade):
        at = decade == d
        assert np.all(err[:, at].max(axis=1) <= 2.0 * err_kept[:, at].max(axis=1)), d
    assert np.all(err.max(axis=1) <= 1.02 * err_kept.max(axis=1))


@pytest.mark.parametrize("size", [1, 7, 1000, 16384, 20000])
@pytest.mark.parametrize("a", [0.0, 1e-8, 1.0, 100.0, 1e5])
def test_one_division_matches_per_n_division(a, size):
    # J_0..J_4 from one division of p_4 equal five separate divisions bit for
    # bit, for PV (real) and complex Z, below and above numpy's 16384-point
    # temporary elision threshold
    rng = np.random.default_rng(size)
    x = rng.uniform(-_SERIES_RADIUS, _SERIES_RADIUS, size)
    z = x * np.exp(1j * rng.uniform(-math.pi, math.pi, size))
    for zs, pv in ((x.astype(complex), True), (z, False)):
        phi = phi_halfline_oracle(a, zs)
        if pv:
            phi = phi.real
        for n, j in enumerate(_cauchy_halfline_poly(a, zs, phi)):
            assert j.tobytes() == cauchy_halfline_poly_oracle(a, n, zs, phi).tobytes(), (pv, n)
    # real Z stays float64 and gives the real part of the complex route
    phi = phi_halfline_oracle(a, x).real
    for n, j in enumerate(_cauchy_halfline_poly(a, x, phi)):
        assert j.dtype == float
        assert j.tobytes() == cauchy_halfline_poly_oracle(a, n, x.astype(complex), phi).real.tobytes()


# ---------------------------------------------------------------------------
# the float64 route and the a = 0 mirror against the complex route
# ---------------------------------------------------------------------------

ORACLE_SLOPES = [0.0, 1e-8, 0.1, 1.0, 100.0, 1e5]


def _oracle_batch(rng, a, size, kind):
    """Points of one kind: real ``|x|`` on the cut or complex ``z`` off it.

    ``mixed`` draws speeds C uniform in [-12, 12], so |Z+| falls on both
    sides of 8, and starts with x = +0.0, -0.0; ``near`` and ``far`` keep
    |C| below 6 or at 9 to 40; ``imag`` puts z on the imaginary axis with
    both signs of a zero real part.  Complex points sit at distances
    log-uniform in [1e-8, 10] * min(1, alpha) from the cut, either side,
    or only above it (``upper``) or below it (``lower``).  ``beyond`` puts
    them on the real axis past the cut, and ``axis-mixed`` a third of a
    ``mixed`` batch; ``all-near`` and ``all-far`` are built from Z+
    (:func:`_whole_batch`).
    """
    alpha = make_params(a).alpha
    if kind == "imag":
        return rng.choice([0.0, -0.0], size) + 1j * rng.choice([-1, 1], size) * rng.uniform(1e-3, 20, size)
    if kind == "beyond":  # the whole real axis is the cut at a = 0
        r = (rng.uniform(1e-3, 40.0, size) if a == 0.0
             else alpha * (1.0 + 10.0 ** rng.uniform(-6, 3, size)))
        return rng.choice([-1, 1], size) * r + 0j
    if kind in ("all-near", "all-far"):
        return _whole_batch(rng, a, size, kind == "all-far")
    if kind == "axis-mixed":  # every third point moved onto the real axis
        z = _oracle_batch(rng, a, size, "mixed")
        z[::3] = _oracle_batch(rng, a, z[::3].size, "beyond")
        return z
    speed = {"near": (0.0, 6.0), "far": (9.0, 40.0)}.get(kind, (0.0, 12.0))
    c = rng.choice([-1, 1], size) * rng.uniform(*speed, size)
    if kind == "mixed":
        c[:2] = (0.0, -0.0)[:size]
    x = c / (1.0 + a * np.abs(c))
    if kind == "real":
        return x
    d = 10.0 ** rng.uniform(-8, 1, size) * min(1.0, alpha)
    side = {"upper": 1, "lower": -1}.get(kind) or rng.choice([-1, 1], size)
    return x + 1j * side * d


def _whole_batch(rng, a, size, far):
    """Complex points whose Z+ = z/(1 - az) all lie below |Z| = 7.9 or all at
    8.5 to 1e3; near points keep |Z-| = |z/(1 + az)| below 7.9 too, and far
    ones keep it on one side of 8 (far at a < 1/16, near at larger a)."""
    out = np.empty(0, dtype=complex)
    while out.size < size:
        r = rng.uniform(8.5, 1e3, 4 * size) if far else rng.uniform(0.0, 7.9, 4 * size)
        big_z = r * np.exp(1j * rng.uniform(-math.pi, math.pi, 4 * size))
        z = big_z / (1.0 + a * big_z)
        zm = np.abs(z / (1.0 + a * z))
        keep = (zm >= 8.0) == (a < 1.0 / 16.0) if far else zm < 7.9
        out = np.concatenate([out, z[keep & (z.imag != 0.0)]])
    return out[:size]


def _assert_kernel_matches_complex_route(a, z):
    """J rows of both half-lines and t0..t4 equal the complex route's bytes."""
    want = halflines_oracle(a, z)
    got = [*_cauchy_halflines(a, z, 1.0 - a * z, 1.0 + a * z, _halfline_pieces(a, z)),
           _tn_halflines(a, z, _halfline_pieces(a, z))]
    for name, g, w in zip(("J at Z+", "J at -Z-", "t"), got, want):
        assert g.dtype == z.dtype, name
        assert g.tobytes() == w.tobytes(), name


@pytest.mark.parametrize("a, size", [(a, n) for a in ORACLE_SLOPES
                                     for n in (1, 7, 1000, 16383, 16384, 20000)]
                         + [(0.0, 100000), (1.0, 100000)])
def test_kernel_matches_complex_route(a, size):
    # mixed batches around |Z| = 8, on the cut (real |x|) and off it; the
    # sizes straddle numpy's 16384-point temporary elision threshold
    rng = np.random.default_rng(size + 7)
    z = _oracle_batch(rng, a, size, "mixed")
    for arg in (np.abs(z.real), z):
        _assert_kernel_matches_complex_route(a, arg)


@pytest.mark.parametrize("kind", ["near", "far", "imag", "axis-mixed"])
@pytest.mark.parametrize("a", ORACLE_SLOPES)
def test_kernel_matches_complex_route_by_region(a, kind):
    rng = np.random.default_rng(len(kind))
    for size in (7, 2000):
        z = _oracle_batch(rng, a, size, kind)
        _assert_kernel_matches_complex_route(a, z)
        if kind not in ("imag", "axis-mixed"):
            _assert_kernel_matches_complex_route(a, np.abs(z.real))


@pytest.mark.parametrize("kind", ["upper", "lower", "beyond", "all-near", "all-far"])
@pytest.mark.parametrize("a", ORACLE_SLOPES)
def test_whole_batches_match_complex_route(a, kind):
    # a batch wholly in one half-plane, on the axis, near or far takes Phi
    # and the J rows without masks; the bytes stay those of the masked route
    rng = np.random.default_rng(len(kind) + 11)
    for size in (1, 7, 2000):
        z = _oracle_batch(rng, a, size, kind)
        _assert_kernel_matches_complex_route(a, z)
        if kind != "beyond":
            _assert_kernel_matches_complex_route(a, np.abs(z.real))
        if kind in ("all-near", "all-far"):  # the same split on the cut
            big_z = np.abs(z / (1.0 - a * z))
            _assert_kernel_matches_complex_route(a, big_z / (1.0 + a * big_z))


@pytest.mark.parametrize("a", ORACLE_SLOPES)
def test_scalar_points_match_complex_route(a):
    p = make_params(a)
    for x in (0.0, -0.0, 1e-300, 0.3 * min(1.0, p.alpha), -0.9999 * p.alpha if a else 9.5):
        x = np.asarray(x)
        want = np.where(np.abs(x) > 0, tn_halflines_oracle(a, np.abs(x)), 0.0)
        want[1::2] *= np.where(x < 0, -1.0, 1.0)
        assert tn_pv_array(p, x).tobytes() == want.tobytes(), x
    for z in (2j, -0.0 + 2j, 0.3 - 1e-9j, 9.0 + 1j, -20.0 - 0.5j, 1e-100j):
        z = np.asarray(z)
        assert tn_offcut_array(p, z).tobytes() == tn_halflines_oracle(a, z).tobytes(), z
    if a > 0.0:  # complex points on the real axis beyond the cut, where t_n is
        # real and its zero imaginary part takes the sign of Im z
        z = np.array([1.5, -3.0, 1.0001, 50.0, -1e3]) * p.alpha + 0j
        for zs in (z, z.conj(), *z, *z.conj()):
            want = tn_halflines_oracle(a, np.asarray(zs))
            assert np.all(want.imag == 0.0)
            want.imag = np.copysign(0.0, np.imag(zs))
            assert tn_offcut_array(p, zs).tobytes() == want.tobytes(), zs


@pytest.mark.parametrize("a", ORACLE_SLOPES)
def test_series_matches_complex_route(a):
    # the Horner sum and the recurrence keep the oracle's bytes, real Z its
    # real part: just past |Z| = 8, where the terms shrink slowest, and
    # log-uniform up to 1e18; 16385 points are the most a lambda slice sends
    # (both half-lines far) plus one
    rng = np.random.default_rng(17)
    for size in (1, 7, _LAMBDA_SLICE, 2 * _LAMBDA_SLICE + 1):
        for r in (rng.uniform(8.0, 8.05, size), 10.0 ** rng.uniform(math.log10(8.0), 18.0, size)):
            z = r * np.exp(1j * rng.uniform(-math.pi, math.pi, size))
            assert _cauchy_halfline_series(a, z).tobytes() == \
                cauchy_halfline_series_oracle(a, z).tobytes(), size
            x = r * rng.choice([-1.0, 1.0], size)
            got = _cauchy_halfline_series(a, x)
            assert got.dtype == float
            assert got.tobytes() == cauchy_halfline_series_oracle(a, x + 0j).real.tobytes(), size


@pytest.mark.parametrize("a", [0.0, 1.0, 100.0, 1e5])
def test_series_j4_matches_mpmath_at_switch(a):
    # at |Z| = 8 the series is longest: J_4 within 6e-16 of 40 digits (the
    # blocked sum stopped per point read up to 9.5e-16 here, and 40 orders
    # instead of 53 read 1.8e-15); arguments 0 and pi take the real axis
    big_z = (8.0 + 1e-9) * np.exp(2j * math.pi * np.arange(32) / 32)
    got = _cauchy_halfline_series(a, big_z)[4]
    with mp.workdps(40):
        want = np.array([complex(mpmath_halfline(mp.mpf(a), mp.mpc(z))[4]) for z in big_z])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 6e-16


@pytest.mark.parametrize("a", [1.0, 100.0, 1e5])
def test_lambda_a_subnormal_distance_from_branch_points(a):
    # z = +-alpha -+ i*eps: 1 -+ az is subnormal or 0, and Z = z/(1 -+ az)
    # overflows; the half-line takes the series' leading term there, and
    # lambda equals its value at eps = 1e-300 without a warning
    p = make_params(a)
    eps = np.array([2.2e-309, 1e-310, 5e-324])
    ordinary = np.array([0.3 * p.alpha + 0.1j, 2.0 * p.alpha - 1j, 5j, 1e3 + 1e3j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sgn in (1.0, -1.0):
            edge = sgn * (p.alpha - 1j * eps)
            want = lambda_fn(p, None, sgn * complex(p.alpha, -1e-300))
            batch = lambda_fn(p, None, np.concatenate([edge, ordinary]))
            for z, in_batch in zip(edge, batch):
                for got in (lambda_fn(p, None, z), in_batch):
                    assert abs(got - want) <= 1e-12 * abs(want), (z, got, want)
            assert np.all(np.isfinite(batch))


@pytest.mark.parametrize("a", ORACLE_SLOPES)
def test_one_series_call_for_both_half_lines(a, monkeypatch):
    calls = []

    def counting(a, z):
        calls.append(z.size)
        return series(a, z)

    series = moments._cauchy_halfline_series
    monkeypatch.setattr(moments, "_cauchy_halfline_series", counting)
    p = make_params(a)
    z = _oracle_batch(np.random.default_rng(23), a, 2000, "mixed")
    for evaluate, arg in ((tn_offcut_array, z), (tn_pv_array, np.abs(z.real))):
        n_far = [np.count_nonzero(np.abs(zh) >= _SERIES_RADIUS)
                 for zh in (arg / (1.0 - a * arg), arg / (1.0 + a * arg))]
        # off the cut both half-lines have far points; on it the C < 0
        # half-line stays below |Z| = 1/a
        assert min(n_far) > 0 or (evaluate is tn_pv_array and a > 1.0 / 16.0)
        calls.clear()
        evaluate(p, arg)
        assert calls == [sum(n_far)], (evaluate.__name__, n_far)


@pytest.mark.parametrize("a", ORACLE_SLOPES)
def test_boundary_values_match_complex_jump(a):
    # t_n(x +- i0) keeps the bytes of t_PV + sgn * i*pi*x*C**n*rho formed in
    # complex arithmetic: the signed zeros of the real part where t_PV is
    # -0.0 (a = 0 at |x| <= 1e-300 and past 1e80), the +0.0 imaginary part at
    # x = +-0 and where rho underflows (|C| >= 27), and 0 where C**n
    # overflows too, which makes 0 * inf = NaN (a = 0 past |x| = 1e77)
    p = make_params(a)
    speeds = np.array([27.0, 30.0, 40.0, 0.3, 3.0])
    x = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300],
                        speeds / (1.0 + a * speeds), -speeds / (1.0 + a * speeds)])
    if a == 0.0:
        x = np.concatenate([x, [1e80, -1e80, 1e200]])
        t_pv = tn_pv_array(p, x)
        assert np.signbit(t_pv[t_pv == 0.0]).any()

    def complex_jump(x):
        c = np.asarray(velocity_map(p, x), dtype=float)
        rho = rho_of_c(p, c)
        jump = np.stack([1j * math.pi * x * c**n * rho for n in range(5)])
        return np.where((np.abs(x) >= 1e80) & np.isnan(jump), 0.0, jump)

    with np.errstate(all="ignore"):
        for xs in (x, *x):  # the batch, and each point alone
            xs = np.asarray(xs)
            jump = complex_jump(xs)
            assert boundary_jump_array(p, xs).tobytes() == jump.tobytes(), xs
            for side, sgn in (("plus", 1.0), ("minus", -1.0)):
                want = tn_pv_array(p, xs) + sgn * jump
                assert tn_boundary_array(p, xs, side).tobytes() == want.tobytes(), (side, xs)
                if xs.ndim == 0:
                    assert tn_boundary_array(p, float(xs), side).tobytes() == want.tobytes()


@pytest.mark.parametrize("a", ORACLE_SLOPES)
def test_float64_determinant_matches_complex_assembly(a):
    # lambda_pv and the PV cofactors in float64 equal the real part of the
    # complex-assembled matrix, signed zeros included
    p = make_params(a)
    rng = np.random.default_rng(3)
    for size in (1, 1000, 20000):
        x = _oracle_batch(rng, a, size, "real")
        x[: min(size, 2)] = (0.0, -0.0)[: min(size, 2)]
        # lambda_pv evaluates a batch larger than its slice bound slice by slice
        want = np.concatenate([
            _det3(lambda_matrix(p, tn_pv_array(p, x[s]).astype(complex))).real
            for s in lambda_slices(size)])
        assert lambda_pv(p, None, x).tobytes() == want.tobytes()
        m = lambda_matrix(p, tn_pv_array(p, x).astype(complex))
        c = velocity_map(p, x)
        want = _cofactors(m, c).real
        assert _cofactors(lambda_matrix(p, tn_pv_array(p, x)), c).tobytes() == want.tobytes()
    m = lambda_matrix(p, tn_pv_array(p, 0.2 * min(1.0, p.alpha)).astype(complex))
    assert np.float64(lambda_pv(p, None, 0.2 * min(1.0, p.alpha))).tobytes() == _det3(m).real.tobytes()


@pytest.mark.parametrize("a", [0.0, 1.0, 100.0])
def test_lambda_is_one_where_z_squared_underflows(a):
    # |t_n| = O(|z| log|z|) < 1e-147 there, so t_n is 0 and lambda is 1
    p = make_params(a)
    tiny = np.array([1e-200j, 1e-300j, 1e-300 + 1e-300j, 5e-324j, -5e-324j])
    for z in tiny:
        assert lambda_fn(p, None, z) == 1.0
        assert np.all(tn_offcut_array(p, z) == 0.0)
    # the other points of a batch keep the bytes of the complex route, whose
    # values at the tiny points are NaN where it forms E1(-Z**2) (a > 0)
    batch = np.concatenate([tiny, [0.5j, 1e-150j, 3.0 - 1e-140j]])
    got = tn_offcut_array(p, batch)
    assert np.all(got[:, :5] == 0.0)
    with np.errstate(all="ignore"):
        want = tn_halflines_oracle(a, batch)
    assert np.isnan(want[:, :5]).any() == (a > 0.0)
    assert got[:, 5:].tobytes() == want[:, 5:].tobytes()
