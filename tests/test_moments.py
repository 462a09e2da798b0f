import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from bgkspectral import (
    DomainError,
    Region,
    WrongRegionError,
    asymptotic_moments,
    lambda_a0_boundary,
    lambda_boundary,
    lambda_c_boundary,
    make_params,
    moments_at,
    moments_boundary,
    moments_pv,
)
from bgkspectral.moments import tn_offcut_array, tn_pv_array
from bgkspectral.params import rho_of_c, velocity_map
from bgkspectral.quadrature import integrate_weighted

from conftest import A_GRID, quadrature_moments

SQPI = math.sqrt(math.pi)


class TestOffCut:
    def test_zero_prefactor_scaling(self, model):
        # t_n(eps*i)/eps converges to a finite limit (explicit z prefactor)
        for a, (p, s) in model.items():
            scaled = {}
            for eps in (1e-4, 1e-6, 1e-8):
                t = moments_at(p, s, eps * 1j).t
                assert np.max(np.abs(t)) < 50 * eps
                scaled[eps] = t / eps
            drift_coarse = np.max(np.abs(scaled[1e-6] - scaled[1e-4]))
            drift_fine = np.max(np.abs(scaled[1e-8] - scaled[1e-6]))
            assert drift_fine < max(drift_coarse / 10, 1e-10)
            assert drift_fine < 1e-3

    def test_large_z_leading_values_a1(self, model):
        p, s = model[1.0]
        t = moments_at(p, s, 1e3 + 0j).t
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
            t = moments_at(p, s, z).t
            t_conj = moments_at(p, s, np.conj(z)).t
            t_neg = moments_at(p, s, -z).t
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
        p, s = model[1.0]
        with pytest.raises(WrongRegionError):
            moments_at(p, s, 0.5 + 0j)
        p0, s0 = model[0.0]
        with pytest.raises(WrongRegionError):
            moments_at(p0, s0, 100.0 + 0j)  # whole real axis is the cut at a=0

    def test_real_beyond_cut_allowed(self, model):
        p, s = model[1.0]
        t = moments_at(p, s, 1.5 + 0j).t
        assert np.max(np.abs(t.imag)) < 1e-14

    @pytest.mark.parametrize("z", [2j, 1.5 + 2j, -2.5 - 1.5j])
    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 5.0])
    def test_analytic_matches_direct_quadrature(self, a, z, model):
        p, s = model[a]
        t_an = moments_at(p, s, z).t
        t_qu = quadrature_moments(p, s, z)
        assert np.max(np.abs(t_an - t_qu)) < 1e-10


class TestPrincipalValue:
    def test_zero_point(self, model):
        p, s = model[1.0]
        ms = moments_pv(p, s, 0.0)
        assert ms.region is Region.ON_CUT_PV
        assert np.all(ms.t == 0)

    def test_parity(self, model):
        for a in (0.0, 0.5, 2.0):
            p, s = model[a]
            x = 0.3 / (1 + a)
            tp = moments_pv(p, s, x).t
            tm = moments_pv(p, s, -x).t
            signs = np.array([(-1.0) ** n for n in range(5)])
            assert np.max(np.abs(tm - signs * tp)) < 1e-13

    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.0])
    def test_plemelj_average_oracle(self, a, model):
        # PV equals the Richardson-extrapolated average of off-cut values
        p, s = model[a]
        for x in (0.2 / (1 + a), 0.7 / (1 + a)):
            pv = moments_pv(p, s, x).t
            avg = {}
            for eps in (1e-4, 1e-5):
                tp = moments_at(p, s, x + 1j * eps).t
                tm = moments_at(p, s, x - 1j * eps).t
                avg[eps] = 0.5 * (tp + tm)
            extrap = (1e-4 * avg[1e-5] - 1e-5 * avg[1e-4]) / (1e-4 - 1e-5)
            assert np.max(np.abs(extrap - pv)) < 1e-6

    def test_domain_error(self, model):
        p, s = model[2.0]
        with pytest.raises(DomainError):
            moments_pv(p, s, 0.55)


class TestBoundary:
    def test_jump_formula_against_richardson(self, model):
        # t_n^+ - t_n^- == 2 pi i x C^n rho at x = 0.3, a = 1
        p, s = model[1.0]
        x = 0.3
        jmp = {}
        for eps in (1e-4, 5e-5):
            tp = moments_at(p, s, x + 1j * eps).t
            tm = moments_at(p, s, x - 1j * eps).t
            jmp[eps] = tp - tm
        extrap = 2.0 * jmp[5e-5] - jmp[1e-4]
        c = velocity_map(p, x)
        rho = rho_of_c(p, np.asarray(c))
        claim = np.array([2j * math.pi * x * c**n * rho for n in range(5)])
        assert np.max(np.abs(extrap - claim)) < 1e-6
        built = moments_boundary(p, s, x, "plus").t - moments_boundary(p, s, x, "minus").t
        assert np.max(np.abs(built - claim)) < 1e-14

    def test_zero_jump_at_origin(self, model):
        p, s = model[1.0]
        tp = moments_boundary(p, s, 0.0, "plus").t
        tm = moments_boundary(p, s, 0.0, "minus").t
        assert np.all(tp == tm)

    def test_schwarz_reflection(self, model):
        for a in (0.0, 1.0):
            p, s = model[a]
            x = 0.4 / (1 + a)
            tp = moments_boundary(p, s, x, "plus").t
            tm = moments_boundary(p, s, x, "minus").t
            assert np.max(np.abs(np.conj(tp) - tm)) < 1e-14

    def test_boundary_is_offcut_limit(self, model):
        # acceptance-grade: boundary values equal the limit of moments_at
        for a in (0.5, 1.0):
            p, s = model[a]
            x = 0.5 / (1 + a)
            tb = moments_boundary(p, s, x, "plus").t
            lim = {}
            for eps in (1e-4, 5e-5):
                lim[eps] = moments_at(p, s, x + 1j * eps).t
            extrap = 2.0 * lim[5e-5] - lim[1e-4]
            assert np.max(np.abs(extrap - tb)) < 1e-6

    @pytest.mark.parametrize("boundary", [
        lambda p, s, side: moments_boundary(p, s, 0.3, side).t,
        lambda p, s, side: lambda_boundary(p, s, 0.3, side),
        lambda p, s, side: lambda_c_boundary(0.3, side),
        lambda p, s, side: lambda_a0_boundary(0.3, side),
    ], ids=["moments_boundary", "lambda_boundary", "lambda_c_boundary",
            "lambda_a0_boundary"])
    def test_bad_side(self, boundary, model):
        p, s = model[1.0]
        with pytest.raises(ValueError):
            boundary(p, s, "up")
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


def mpmath_moments(a, z):
    """t0..t4 at ``z`` (complex, or real for the principal value), to 40 digits.

    Each half-line transform comes from Phi(Z) = int_0^inf exp(-t**2)/(t - Z) dt
    in closed form (erfc and E1 off the real axis, erfi and Ei on it) and the
    exact recurrence K_{n+1} = h_n + Z K_n for K_n = int_0^inf exp(-t**2)
    t**n/(t - Z) dt; at |Z| = 1e3 its cancellation still leaves 28 digits.
    """
    with mp.workdps(40):
        a = mp.mpf(a)
        z = mp.mpc(z) if isinstance(z, complex) else mp.mpf(z)
        h = [mp.gamma(mp.mpf(k + 1) / 2) / 2 for k in range(6)]

        def halfline(big_z):
            if mp.im(big_z) < 0:
                return [mp.conj(j) for j in halfline(mp.conj(big_z))]
            s = big_z * big_z
            if mp.im(big_z) == 0:
                k = [(-mp.pi * mp.erfi(big_z) - mp.ei(s)) * mp.exp(-s) / 2]
            else:
                k = [(1j * mp.pi * mp.erfc(-1j * big_z) + mp.e1(-s)) * mp.exp(-s) / 2]
            for n in range(6):
                k.append(h[n] + big_z * k[-1])
            return [k[n] + 2 * a * k[n + 1] + a * a * k[n + 2] for n in range(5)]

        dp, dm = 1 - a * z, 1 + a * z
        jp, jm = halfline(z / dp), halfline(-z / dm)
        return [complex(z * (jp[n] / dp + (-1) ** (n + 1) * jm[n] / dm)) for n in range(5)]


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
