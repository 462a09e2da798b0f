import inspect
import math
import re

import numpy as np
import pytest
import scipy.integrate as si
import scipy.optimize as so
from hypothesis import given, settings
from hypothesis import strategies as st

import bgkspectral
from bgkspectral import (
    DomainError,
    FreeMolecularSolution,
    SpectralExpansion,
    apply_expansion,
    count_zeros,
    discrete_solution,
    discrete_solution_dx,
    eigen_data,
    eigenfunction_regular,
    fm_general_solution,
    fm_kernel,
    fm_residual,
    integrate_pv,
    kernel_q_c,
    keyhole_contour,
    lambda_a0_boundary,
    lambda_a0_pv,
    lambda_boundary,
    lambda_c_boundary,
    lambda_c_pv,
    lambda_pv,
    make_params,
    make_scheme,
    mu_of,
    normalization_check,
    pv_interval,
    residual_2_4,
    sokhotsky_jump,
    tn_boundary_array,
    tn_pv_array,
    velocity_map,
)
from bgkspectral.dispersion import _LAMBDA_SLICE
from bgkspectral.quadrature import integrate_weighted

from conftest import A_GRID, adaptive_weighted, lambda_c_stable, weight

SQPI = math.sqrt(math.pi)


class TestMakeParams:
    def test_a_zero_values(self):
        p = make_params(0.0)
        assert p.beta == pytest.approx(0.5, abs=1e-15)
        assert p.r0 == pytest.approx(1.0 / SQPI, abs=1e-15)
        assert p.alpha == math.inf

    def test_beta_large_a_limit(self):
        assert abs(make_params(1e6).beta - 1.0) < 1e-5

    def test_beta_a1_against_quadrature_solve(self):
        # independent oracle: solve int e^{-C^2}(1+|C|)(C^2-beta) dC = 0
        def orth(beta):
            val, _ = si.quad(
                lambda c: math.exp(-c * c) * (1 + abs(c)) * (c * c - beta),
                -10, 10, points=[0.0], limit=200)
            return val

        beta_star = so.brentq(orth, 0.4, 0.9, xtol=1e-13)
        p = make_params(1.0)
        assert p.beta == pytest.approx(beta_star, abs=1e-10)
        assert p.beta == pytest.approx(0.68035, abs=5e-5)

    @pytest.mark.parametrize("a", A_GRID)
    def test_defining_identities(self, a):
        p = make_params(a)
        assert 0.5 <= p.beta < 1.0
        assert p.r0 * (a + SQPI) == pytest.approx(1.0, rel=1e-15)
        assert p.r1 * (2 * a + SQPI) == pytest.approx(2.0, rel=1e-15)
        assert p.r2 * (4 * a * a + 7 * SQPI * a + 2 * math.pi) == pytest.approx(
            4 * (a + SQPI), rel=1e-15)

    @pytest.mark.parametrize("bad", [-1.0, -1e-12, math.nan, math.inf])
    def test_rejects_bad_slope(self, bad):
        with pytest.raises(DomainError):
            make_params(bad)

    def test_orthogonality_integral_vanishes(self, model):
        for a, (p, s) in model.items():
            val = integrate_weighted(s, lambda c: c * c - p.beta)
            assert abs(val) < 1e-12


class TestVelocityMap:
    def test_fixed_point_and_identity(self):
        p = make_params(1.0)
        assert velocity_map(p, 0.0) == 0.0
        p0 = make_params(0.0)
        for mu in (-3.0, 0.2, 7.5):
            assert velocity_map(p0, mu) == mu

    def test_simple_value(self):
        p = make_params(1.0)
        assert mu_of(p, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_domain_error(self):
        p = make_params(2.0)
        with pytest.raises(DomainError):
            velocity_map(p, 0.5)  # alpha = 1/2

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(min_value=0.0, max_value=5.0),
        c=st.floats(min_value=-30.0, max_value=30.0),
    )
    def test_round_trip_and_oddness(self, a, c):
        p = make_params(a)
        mu = mu_of(p, c)
        assert abs(mu) < p.alpha or p.alpha == math.inf
        # mu -> C -> mu is the well-conditioned round trip
        assert mu_of(p, velocity_map(p, mu)) == pytest.approx(
            mu, abs=1e-14 * (1 + abs(mu)))
        assert velocity_map(p, -mu) == pytest.approx(
            -velocity_map(p, mu), abs=1e-13 * (1 + abs(c)))

    def test_round_trip_bulk(self):
        # mu -> C -> mu over 1e4 random points, exact to 1e-14
        rng = np.random.default_rng(7)
        p = make_params(1.4)
        mu = rng.uniform(-1, 1, 10_000) * p.alpha * (1 - 1e-9)
        back = mu_of(p, velocity_map(p, mu))
        assert np.max(np.abs(back - mu)) < 1e-14

    def test_map_monotone_and_divergent(self):
        p = make_params(0.5)
        mus = np.linspace(-p.alpha * (1 - 1e-9), p.alpha * (1 - 1e-9), 1001)
        cs = velocity_map(p, mus)
        assert np.all(np.diff(cs) > 0)
        assert cs[-1] > 1e6 and cs[0] < -1e6


class TestWeight:
    def test_at_zero(self):
        assert weight(make_params(1.3), 0.0) == 1.0

    def test_endpoint_is_limit_not_error(self):
        p = make_params(2.0)
        assert weight(p, p.alpha) == 0.0
        assert weight(p, -p.alpha) == 0.0

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_endpoint_decay_with_powers(self, a):
        # rho(mu) C(mu)^n -> 0 at the interval ends for n = 0..8
        p = make_params(a)
        for eps in (1e-2, 1e-4, 1e-6):
            mu = p.alpha * (1 - eps)
            c = velocity_map(p, mu)
            vals = weight(p, mu) * c ** np.arange(9)
            assert np.max(np.abs(vals)) < 1e-30

    def test_total_mass(self, model):
        # int rho dmu = sqrt(pi) + a via the C-variable identity
        for a, (p, s) in model.items():
            total = integrate_weighted(s, lambda c: np.ones_like(c))
            assert total == pytest.approx(SQPI + a, rel=1e-13)
            oracle = adaptive_weighted(p, lambda c: 1.0)
            assert total == pytest.approx(oracle, rel=1e-11)

    def test_weight_c_consistency(self):
        # w(C) dC equals rho(mu) dmu through the jacobian of mu(C)
        p = make_params(0.7)
        c = np.linspace(-3, 3, 13)
        mu = mu_of(p, c)
        jac = (1.0 + p.a * np.abs(c)) ** -2
        w_c = np.exp(-c * c) * (1.0 + p.a * np.abs(c))
        assert np.allclose(w_c, weight(p, mu) * jac, rtol=1e-13)


class TestKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(min_value=0.0, max_value=4.0),
        c1=st.floats(min_value=-3.0, max_value=3.0),
        c2=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_symmetry(self, a, c1, c2):
        p = make_params(a)
        assert kernel_q_c(p, c1, c2) == pytest.approx(
            kernel_q_c(p, c2, c1), rel=1e-14, abs=1e-14)

    def test_a0_corollary_form(self):
        # q(C, C', 0) = 1 + 2CC' + 2(C^2 - 1/2)(C'^2 - 1/2), scaled by sqrt(pi)
        p = make_params(0.0)
        rng = np.random.default_rng(11)
        for _ in range(20):
            c1, c2 = rng.uniform(-2, 2, 2)
            expect = (1 + 2 * c1 * c2
                      + 2 * (c1 * c1 - 0.5) * (c2 * c2 - 0.5)) / SQPI
            assert kernel_q_c(p, c1, c2) == pytest.approx(expect, rel=1e-13)

    def test_row_integral_is_one(self, model):
        # int rho(mu') q(mu, mu') dmu' = 1 for any mu (h0 is a solution)
        for a, (p, s) in model.items():
            for mu in (0.0, 0.3 / (1 + a), -0.8 / (1 + a)):
                c_fixed = velocity_map(p, mu)
                val = integrate_weighted(
                    s, lambda cp: kernel_q_c(p, c_fixed, cp))
                assert val == pytest.approx(1.0, abs=1e-12)


class TestConservationClosure:
    @pytest.mark.parametrize("a", A_GRID)
    def test_conservation_suite(self, a, model):
        p, s = model[a]
        m0 = integrate_weighted(s, lambda c: np.ones_like(c))
        m1 = integrate_weighted(s, lambda c: c)
        orth = integrate_weighted(s, lambda c: c * c - p.beta)
        assert abs(m0 - (SQPI + a)) / (SQPI + a) < 1e-10
        assert abs(m1) / m0 < 1e-10
        assert abs(orth) / m0 < 1e-10

    @pytest.mark.parametrize("a", A_GRID)
    def test_closure_identities(self, a, model):
        p, s = model[a]
        m0 = integrate_weighted(s, lambda c: np.ones_like(c))
        m2 = integrate_weighted(s, lambda c: c * c)
        e2 = integrate_weighted(s, lambda c: (c * c - p.beta) ** 2)
        assert p.r0 * m0 == pytest.approx(1.0, rel=1e-10)
        assert p.r1 * m2 == pytest.approx(1.0, rel=1e-10)
        assert p.r2 * e2 == pytest.approx(1.0, rel=1e-10)


P1 = make_params(1.0)
S1 = make_scheme(P1)
FM1 = FreeMolecularSolution(A0=1.0)
GRID = np.linspace(0.1, 0.8, 9)


def _expansion_at(v, field):
    """apply_expansion with ``v`` as the middle entry of one field of an
    expansion (0.45 on the grid becomes 0.5, which keeps it increasing)."""
    fields = {"discrete": np.ones(4), "eta_grid": GRID, "a_values": np.sin(9.0 * GRID)}
    fields[field] = np.where(np.arange(fields[field].size) == fields[field].size // 2,
                             v, fields[field])
    return apply_expansion(P1, S1, SpectralExpansion(**fields), 0.3, 0.2)


#: the coefficient fields of the solution and expansion objects, for both
#: tables below
FIELD_CALLS = {
    **{f"FreeMolecularSolution_{k}": (k, lambda v, k=k: fm_general_solution(
        FreeMolecularSolution(**{k: v}), 0.3, 0.7)) for k in ("A0", "A1", "A2", "A3", "At1", "At3")},
    **{f"SpectralExpansion_{k}": (k, lambda v, k=k: _expansion_at(v, k))
       for k in ("discrete", "eta_grid", "a_values")},
}
NON_FINITE_CALLS = {
    "lambda_c_stable": ("z", lambda v: lambda_c_stable(complex(v, 1.0))),
    "fm_general_solution_x": ("x", lambda v: fm_general_solution(FM1, v, 0.5)),
    "fm_general_solution_c": ("c", lambda v: fm_general_solution(FM1, 0.5, v)),
    "fm_residual": ("x", lambda v: fm_residual(FM1, v)),
    "kernel_q_c": ("c", lambda v: kernel_q_c(P1, v, 0.5)),
    "kernel_q_c_prime": ("c_prime", lambda v: kernel_q_c(P1, 0.5, v)),
    "fm_kernel": ("c", lambda v: fm_kernel(v, 0.3)),
    "fm_kernel_prime": ("c_prime", lambda v: fm_kernel(0.3, v)),
    "pv_interval_lo": ("lo", lambda v: pv_interval(np.cos, v, 1.0, 0.5)),
    "pv_interval_hi": ("hi", lambda v: pv_interval(np.cos, 0.0, v, 0.5)),
    "pv_interval_pole": ("pole", lambda v: pv_interval(np.cos, 0.0, 1.0, v)),
    "mu_of": ("c", lambda v: mu_of(P1, v)),
    "discrete_solution": ("x", lambda v: discrete_solution(P1, 3, v, 0.1)),
    "discrete_solution_dx": ("x", lambda v: discrete_solution_dx(P1, 0, v, 0.1)),
    "discrete_solution_dx_mu": ("mu", lambda v: discrete_solution_dx(P1, 0, 0.3, v)),
    "lambda_c_pv": ("x", lambda_c_pv),
    "lambda_c_boundary": ("x", lambda v: lambda_c_boundary(v, "plus")),
    "lambda_a0_pv": ("x", lambda_a0_pv),
    "lambda_a0_boundary": ("x", lambda v: lambda_a0_boundary(v, "minus")),
    "keyhole_contour_width": ("half_width", lambda v: keyhole_contour(P1, v, 2.0)),
    "keyhole_contour_height": ("half_height", lambda v: keyhole_contour(P1, 3.0, v)),
    "count_zeros": ("contour", lambda v: count_zeros(
        P1, np.array([complex(v, 1.0), 2 + 1j, -2 + 1j]))),
    "residual_2_4": ("x", lambda v: residual_2_4(P1, S1, lambda x, mu: np.ones_like(mu), v)),
    "integrate_pv": ("pole", lambda v: integrate_pv(S1, np.cos, v)),
    **FIELD_CALLS,
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(NON_FINITE_CALLS))
def test_non_finite_input_rejected(entry, bad):
    name, call = NON_FINITE_CALLS[entry]
    with pytest.raises(DomainError, match=f"^{name} is not finite"):
        call(bad)


EXPANSION1 = SpectralExpansion(discrete=np.ones(4), eta_grid=GRID, a_values=np.zeros(9))


COMPLEX_CALLS = {
    "residual_2_4": ("x", lambda v: residual_2_4(P1, S1, lambda x, mu: np.ones_like(mu), v)),
    "discrete_solution": ("x", lambda v: discrete_solution(P1, 3, v, 0.1)),
    "discrete_solution_k0": ("x", lambda v: discrete_solution(P1, 0, v, 0.1)),
    "discrete_solution_dx": ("x", lambda v: discrete_solution_dx(P1, 3, v, 0.1)),
    "apply_expansion": ("x", lambda v: apply_expansion(P1, S1, EXPANSION1, v, 0.3)),
    "mu_of": ("c", lambda v: mu_of(P1, v)),
    "mu_of_array": ("c", lambda v: mu_of(P1, np.array([0.2, v]))),
    "kernel_q_c": ("c", lambda v: kernel_q_c(P1, v, 0.5)),
    "kernel_q_c_prime": ("c_prime", lambda v: kernel_q_c(P1, 0.5, v)),
    "fm_kernel": ("c", lambda v: fm_kernel(v, 0.3)),
    "fm_kernel_prime": ("c_prime", lambda v: fm_kernel(0.3, v)),
    "fm_general_solution_x": ("x", lambda v: fm_general_solution(FM1, v, 0.3)),
    "fm_general_solution_c": ("c", lambda v: fm_general_solution(FM1, 0.3, v)),
    "fm_residual": ("x", lambda v: fm_residual(FM1, v)),
    **FIELD_CALLS,
    "pv_interval_lo": ("lo", lambda v: pv_interval(np.cos, v, 2.0, 1.0)),
    "pv_interval_hi": ("hi", lambda v: pv_interval(np.cos, -1.0, v, 0.0)),
    "pv_interval_pole": ("pole", lambda v: pv_interval(np.cos, 0.0, 1.0, v)),
    "integrate_pv": ("pole", lambda v: integrate_pv(S1, np.cos, v)),
    "residual_2_4_h": ("h", lambda v: residual_2_4(P1, S1, lambda x, mu: v * np.ones_like(mu), 0.5)),
    "residual_2_4_dh_dx": ("dh_dx", lambda v: residual_2_4(
        P1, S1, lambda x, mu: np.ones_like(mu), 0.5, dh_dx=lambda x, mu: v * np.ones_like(mu))),
}


@pytest.mark.parametrize("entry", sorted(COMPLEX_CALLS))
def test_complex_input_rejected(entry):
    # a nonzero imaginary part raises; a zero one is dropped, with the bytes
    # and the type of the real input
    name, call = COMPLEX_CALLS[entry]
    with pytest.raises(DomainError, match=f"^{name} is not real"):
        call(0.5 + 0.1j)
    real, dropped = call(0.5), call(0.5 + 0j)
    assert type(dropped) is type(real)
    assert np.asarray(dropped).tobytes() == np.asarray(real).tobytes()


#: the entry points that take points inside the open cut: the argument each
#: checks, the call, and whether it takes a batch of points
OUTSIDE_CUT_CALLS = {
    "velocity_map": ("mu", lambda v: velocity_map(P1, v), True),
    "tn_pv_array": ("x", lambda v: tn_pv_array(P1, v), True),
    "tn_boundary_array": ("x", lambda v: tn_boundary_array(P1, v, "plus"), True),
    "lambda_pv": ("x", lambda v: lambda_pv(P1, S1, v), True),
    "lambda_boundary": ("x", lambda v: lambda_boundary(P1, S1, v, "minus"), True),
    "sokhotsky_jump": ("x", lambda v: sokhotsky_jump(P1, v), False),
    "eigen_data": ("eta", lambda v: eigen_data(P1, v), False),
    "normalization_check": ("eta", lambda v: normalization_check(P1, S1, v), False),
    "eigenfunction_regular eta": ("eta", lambda v: eigenfunction_regular(P1, v, 0.1), False),
    "eigenfunction_regular mu": ("mu", lambda v: eigenfunction_regular(P1, 0.1, v), False),
    "integrate_pv": ("pole", lambda v: integrate_pv(S1, np.cos, v), False),
    "apply_expansion": ("mu", lambda v: apply_expansion(P1, S1, EXPANSION1, 0.3, v), False),
    "SpectralExpansion.validate": ("eta_grid", lambda v: SpectralExpansion(
        np.ones(4), np.sort(np.append(GRID, v)), np.zeros(GRID.size + 1)).validate(P1), False),
    "discrete_solution": ("mu", lambda v: discrete_solution(P1, 0, 0.3, v), True),
    "discrete_solution_dx": ("mu", lambda v: discrete_solution_dx(P1, 0, 0.3, v), True),
}


@pytest.mark.parametrize("bad", [-P1.alpha, P1.alpha, 1.5 * P1.alpha])
@pytest.mark.parametrize("entry, shape", [(entry, shape) for entry in sorted(OUTSIDE_CUT_CALLS)
                                          for shape in ("scalar", "batch")[:1 + OUTSIDE_CUT_CALLS[entry][2]]])
def test_outside_cut_rejected(entry, shape, bad):
    # the endpoints and a point beyond, alone or late in a batch one point
    # longer than a lambda slice: DomainError naming the argument and the point
    name, call, _ = OUTSIDE_CUT_CALLS[entry]
    points = bad if shape == "scalar" else np.where(
        np.arange(_LAMBDA_SLICE + 1) == _LAMBDA_SLICE - 3, bad, 0.5)
    want = re.escape(f"{name} is not inside the cut (-{P1.alpha}, {P1.alpha}): {bad}")
    with pytest.raises(DomainError, match=f"^{want}$"):
        call(points)


def test_every_point_entry_is_tabled():
    # a public function taking x, mu, eta or pole is in one of the tables
    # above, so a new entry point cannot skip its checks
    keys = [key for table in (NON_FINITE_CALLS, COMPLEX_CALLS, OUTSIDE_CUT_CALLS) for key in table]
    for fname in bgkspectral.__all__:
        fn = getattr(bgkspectral, fname)
        if inspect.isfunction(fn) and {"x", "mu", "eta", "pole"} & set(inspect.signature(fn).parameters):
            assert any(key == fname or key.startswith((fname + "_", fname + " "))
                       for key in keys), fname
