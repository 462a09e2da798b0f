import math

import numpy as np
import pytest

from bgkspectral import (
    DomainError,
    SpectralExpansion,
    apply_expansion,
    discrete_solution,
    discrete_solution_dx,
    eigen_data,
    eigenfunction_regular,
    lambda_pv,
    make_params,
    normalization_check,
    residual_2_4,
    velocity_map,
)

from conftest import smooth_bump

SQPI = math.sqrt(math.pi)


def expansion_with(params, discrete=(0, 0, 0, 0), support=(0.05, 0.3),
                   n=61, amplitude=1.0):
    lo, hi = np.asarray(support) * (params.alpha if np.isfinite(params.alpha) else 1.0)
    grid, vals = smooth_bump(lo, hi, n)
    return SpectralExpansion(discrete=np.asarray(discrete, dtype=float),
                             eta_grid=grid, a_values=amplitude * vals)


def as_h(params, scheme, exp_):
    def h(x, mu):
        return np.array([apply_expansion(params, scheme, exp_, x, m)
                         for m in np.atleast_1d(mu)])

    def dh(x, mu):
        return np.array([apply_expansion(params, scheme, exp_, x, m,
                                         derivative=True)
                         for m in np.atleast_1d(mu)])

    return h, dh


class TestDiscreteSolutions:
    def test_h0_is_one(self):
        p = make_params(1.0)
        assert discrete_solution(p, 0, 2.0, 0.3) == 1.0

    def test_h3_vanishes_on_diagonal(self):
        p = make_params(0.5)
        assert discrete_solution(p, 3, 0.4, 0.4) == pytest.approx(0.0, abs=1e-15)

    def test_forms(self):
        p = make_params(1.0)
        mu, x = 0.3, 0.7
        c = velocity_map(p, mu)
        assert discrete_solution(p, 1, x, mu) == pytest.approx(c)
        assert discrete_solution(p, 2, x, mu) == pytest.approx(c * c - 0.5)
        assert discrete_solution(p, 3, x, mu) == pytest.approx(
            (x - mu) * (c * c - 1.5))

    def test_bad_index(self):
        p = make_params(1.0)
        with pytest.raises(DomainError):
            discrete_solution(p, 4, 0.0, 0.0)
        with pytest.raises(DomainError):
            discrete_solution_dx(p, -1, 0.0, 0.0)

    @pytest.mark.parametrize("a", [0.0, 0.1, 0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_residual_suite(self, a, k, model):
        # closure identities make h0, h1 exact to quadrature accuracy
        tol = 1e-10 if k in (0, 1) else 1e-8
        p, s = model[a]
        for x in (0.0, 0.7, 2.0):
            r = residual_2_4(
                p, s,
                lambda xx, mm: discrete_solution(p, k, xx, mm), x,
                dh_dx=lambda xx, mm: discrete_solution_dx(p, k, xx, mm))
            assert r < tol, (a, k, x)

    def test_residual_with_finite_differences(self, model):
        # the default central-difference derivative path
        p, s = model[1.0]
        r = residual_2_4(p, s, lambda xx, mm: discrete_solution(p, 3, xx, mm), 0.7)
        assert r < 1e-8


class TestResidualOperator:
    def test_negative_control(self, model):
        # a generic profile is far from being a solution
        p, s = model[1.0]
        r = residual_2_4(
            p, s,
            lambda xx, mm: np.exp(-xx / 0.4) * np.cos(3 * np.asarray(mm)), 0.5)
        assert r > 1e-3

    def test_linearity_triangle(self, model):
        p, s = model[0.5]
        h1 = lambda xx, mm: discrete_solution(p, 2, xx, mm)
        h2 = lambda xx, mm: np.exp(-xx) * np.asarray(mm) ** 2
        both = lambda xx, mm: h1(xx, mm) + h2(xx, mm)
        r1 = residual_2_4(p, s, h1, 0.3)
        r2 = residual_2_4(p, s, h2, 0.3)
        r12 = residual_2_4(p, s, both, 0.3)
        assert r12 <= r1 + r2 + 1e-12


class TestEigenfunctionRegular:
    def test_pole_rejected(self, model):
        p, _ = model[1.0]
        with pytest.raises(DomainError):
            eigenfunction_regular(p, 0.3, 0.3)

    def test_antisymmetric_blow_up(self, model):
        p, _ = model[1.0]
        eta = 0.25
        for d in (1e-3, 1e-5):
            up = eigenfunction_regular(p, eta, eta + d)
            dn = eigenfunction_regular(p, eta, eta - d)
            assert np.sign(up) == -np.sign(dn)
            assert abs(up) > 1.0 / (10 * d)

    def test_a0_reduction(self, model):
        # rescaled by exp(eta^2) lambda_pv(eta), the regular part becomes
        # eta (3/2 - mu^2) / (sqrt(pi) (eta - mu))
        p, s = model[0.0]
        for eta, mu in ((0.3, 0.8), (1.1, -0.4), (0.7, 1.5)):
            ours = eigenfunction_regular(p, eta, mu)
            scale = math.exp(eta * eta) * lambda_pv(p, s, eta)
            want = eta * (1.5 - mu * mu) / (SQPI * (eta - mu))
            assert ours * scale == pytest.approx(want, rel=1e-10)


class TestNormalization:
    @pytest.mark.parametrize("a", [0.5, 1.0])
    def test_consistency_10_etas(self, a, model):
        p, s = model[a]
        etas = np.linspace(-0.9, 0.9, 10) * p.alpha * 0.9
        for eta in etas:
            dev = normalization_check(p, s, eta)
            assert np.max(dev) < 1e-6, (a, eta)

    def test_origin_limit(self, model):
        # n0 -> rho(0) L0 / lambda = 1 as eta -> 0
        p, _ = model[1.0]
        data = eigen_data(p, 1e-6)
        n0 = data.rho * data.cofactors[0] / data.lambda_pv
        assert n0 == pytest.approx(1.0, abs=1e-5)

    def test_moment_parity(self, model):
        # n0, n2 even in eta; n1 odd
        p, _ = model[1.0]
        for eta in (0.2, 0.55):
            dp = eigen_data(p, eta)
            dm = eigen_data(p, -eta)
            np_ = dp.rho * dp.cofactors / dp.lambda_pv
            nm = dm.rho * dm.cofactors / dm.lambda_pv
            assert np_[0] == pytest.approx(nm[0], rel=1e-12)
            assert np_[1] == pytest.approx(-nm[1], rel=1e-12)
            assert np_[2] == pytest.approx(nm[2], rel=1e-12)


class TestApplyExpansion:
    def test_pure_constant(self, model):
        p, s = model[1.0]
        exp_ = expansion_with(p, discrete=(1, 0, 0, 0), amplitude=0.0)
        for x, mu in ((0.0, 0.2), (1.5, -0.7)):
            assert apply_expansion(p, s, exp_, x, mu) == pytest.approx(1.0, abs=1e-14)

    def test_discrete_combination_exact(self, model):
        p, s = model[1.0]
        coeffs = (1.0, 2.0, -1.0, 0.5)
        exp_ = expansion_with(p, discrete=coeffs, amplitude=0.0)
        x, mu = 0.7, 0.3
        want = sum(c * discrete_solution(p, k, x, mu)
                   for k, c in enumerate(coeffs))
        assert apply_expansion(p, s, exp_, x, mu) == pytest.approx(want, rel=1e-14)

    def test_continuum_outside_hull_is_zero(self, model):
        p, _ = model[1.0]
        exp_ = expansion_with(p, amplitude=1.0)
        assert exp_.a_of(0.9) == 0.0
        assert exp_.a_of(-0.2) == 0.0

    def test_bump_residual(self, model):
        # eigenfunction property of the smeared continuum superposition
        p, s = model[1.0]
        exp_ = expansion_with(p, discrete=(0, 0, 0, 0), support=(0.05, 0.35))
        h, dh = as_h(p, s, exp_)
        for x in (0.5, 1.0):
            assert residual_2_4(p, s, h, x, dh_dx=dh) < 1e-5

    def test_non_finite_input_rejected(self, model):
        # DomainError naming the argument, instead of a NaN expansion value
        p, s = model[1.0]
        nan = float("nan")
        exp_ = expansion_with(p, support=(0.05, 0.35))
        with pytest.raises(DomainError, match="^x is not finite"):
            apply_expansion(p, s, exp_, nan, 0.2)

    def test_grid_validation(self, model):
        p, _ = model[2.0]  # alpha = 1/2
        with pytest.raises(DomainError):
            SpectralExpansion(discrete=np.zeros(4),
                              eta_grid=np.linspace(0.1, 0.8, 9),
                              a_values=np.zeros(9)).validate(p)
        with pytest.raises(DomainError):
            SpectralExpansion(discrete=np.zeros(3),
                              eta_grid=np.linspace(0.1, 0.3, 9),
                              a_values=np.zeros(9))
