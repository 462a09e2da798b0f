import math

import numpy as np
import pytest
from scipy.special import dawsn, gamma, roots_legendre, sici

from bgkspectral import DomainError, make_params
from bgkspectral.quadrature import (
    _LEGENDRE,
    _PANEL_EDGES,
    gauss_panels,
    integrate_pv,
    integrate_weighted,
    make_scheme,
    pv_interval,
)

from conftest import adaptive_pv, loop_panels

SQPI = math.sqrt(math.pi)


def weighted_moment_exact(a, n):
    """int e^{-C^2}(1+a|C|) C^n dC by the Gamma-function oracle."""
    if n % 2:
        return 0.0
    k = n // 2
    return float(gamma(k + 0.5)) + a * math.factorial(k)


class TestWeightedRule:
    def test_gaussian_mass(self):
        p = make_params(0.0)
        s = make_scheme(p)
        assert integrate_weighted(s, lambda c: np.ones_like(c)) == pytest.approx(
            SQPI, rel=1e-14)

    def test_mass_with_slope(self):
        # int e^{-C^2}|C| dC = 1 via Gamma(1) = 1
        p = make_params(1.0)
        s = make_scheme(p)
        assert integrate_weighted(s, lambda c: np.ones_like(c)) == pytest.approx(
            SQPI + 1.0, rel=1e-14)

    def test_fourth_moment(self):
        # Gaussian moment oracle Gamma(5/2) = 3 sqrt(pi)/4
        p = make_params(0.0)
        s = make_scheme(p)
        assert integrate_weighted(s, lambda c: c**4) == pytest.approx(
            3 * SQPI / 4, rel=1e-14)

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 5.0])
    def test_polynomial_exactness(self, a):
        p = make_params(a)
        s = make_scheme(p)
        for n in range(0, 13):
            got = integrate_weighted(s, lambda c, n=n: c**n)
            want = weighted_moment_exact(a, n)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_odd_symmetry_exact(self):
        p = make_params(0.7)
        s = make_scheme(p)
        # symmetric node layout kills odd integrands to rounding
        assert abs(integrate_weighted(s, lambda c: c**7)) < 1e-15

    def test_node_layout_symmetric_positive(self):
        s = make_scheme(make_params(1.0))
        assert np.all(s.nodes > 0)

    def test_kinked_integrand(self):
        # |C|-kinks at the origin must not degrade the rule
        p = make_params(1.0)
        s = make_scheme(p)
        got = integrate_weighted(s, lambda c: np.abs(c) ** 3)
        # int e^{-C^2}|C|^3 dC + a int e^{-C^2} C^4 dC = 1 + a Gamma(5/2)
        want = 1.0 + 1.0 * float(gamma(2.5))
        assert got == pytest.approx(want, rel=1e-13)

    def test_convergence_plateau(self):
        # a rule with twice the nodes on the same panels moves key integrals
        # by < 1e-9 relative
        p = make_params(1.0)
        s = make_scheme(p)
        c, bare = loop_panels(np.asarray(_PANEL_EDGES), 40)
        w = bare * np.exp(-c * c) * (1.0 + p.a * c)
        for f in (lambda c: np.ones_like(c),
                  lambda c: (c * c - p.beta) ** 2,
                  lambda c: np.abs(c) ** 3 * np.cos(c)):
            v1 = integrate_weighted(s, f)
            v2 = np.sum(w * (f(c) + f(-c)))
            assert abs(v1 - v2) / abs(v2) < 1e-9


class TestPrincipalValue:
    def test_odd_about_origin(self):
        # PV int e^{-C^2}/C dC = 0 (a = 0 pole at the origin)
        p = make_params(0.0)
        s = make_scheme(p)
        assert integrate_pv(s, lambda c: np.ones_like(c), 0.0) == pytest.approx(
            0.0, abs=1e-14)

    def test_dawson_oracle_value(self):
        # PV int e^{-C^2}/(C-1) dC = -2 sqrt(pi) dawsn(1) ~ -1.9075
        p = make_params(0.0)
        s = make_scheme(p)
        got = integrate_pv(s, lambda c: np.ones_like(c), 1.0)
        want = -2.0 * SQPI * float(dawsn(1.0))
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(-1.907442, abs=1e-6)

    def test_against_adaptive_oracle(self):
        for a, x in [(0.0, 0.8), (1.0, 0.3), (1.0, -0.55), (0.5, 1.2), (2.0, 0.2)]:
            p = make_params(a)
            s = make_scheme(p)
            for f in (lambda c: np.ones_like(c),
                      lambda c: c * c,
                      lambda c: np.cos(c)):
                got = integrate_pv(s, f, x)
                want = adaptive_pv(p, lambda c: float(f(np.asarray(c))), x)
                assert got == pytest.approx(want, abs=2e-9), (a, x)

    def test_linearity(self):
        p = make_params(1.0)
        s = make_scheme(p)
        rng = np.random.default_rng(3)
        al, be = rng.standard_normal(2)
        f = lambda c: np.exp(-0.1 * c * c) * (1 + c)
        g = lambda c: c * c - 0.3
        lhs = integrate_pv(s, lambda c: al * f(c) + be * g(c), 0.4)
        rhs = al * integrate_pv(s, f, 0.4) + be * integrate_pv(s, g, 0.4)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_pole_domain_error(self):
        p = make_params(2.0)  # alpha = 1/2
        s = make_scheme(p)
        with pytest.raises(DomainError):
            integrate_pv(s, lambda c: np.ones_like(c), 0.6)

    def test_smooth_consistency_with_weighted(self):
        # replacing the singular factor by a smooth one must reproduce
        # integrate_weighted (PV machinery reduces to ordinary quadrature)
        p = make_params(1.0)
        s = make_scheme(p)
        x = 2.5  # pole far outside mu-range would be invalid; emulate by
        # integrating f(C) * (mu(C) - x0) against the PV with pole x0
        x0 = 0.3

        def f(c):
            mu = c / (1.0 + p.a * np.abs(c))
            return (mu - x0) * np.cos(c)

        got = integrate_pv(s, f, x0)
        want = integrate_weighted(s, lambda c: np.cos(c))
        assert got == pytest.approx(want, rel=1e-11)


class TestIntervalPV:
    def test_log_term_and_subtraction(self):
        # PV int_0^2 1/(eta - 0.5) d eta = log(1.5/0.5)
        got = pv_interval(lambda e: np.ones_like(e), 0.0, 2.0, 0.5)
        assert got == pytest.approx(math.log(3.0), rel=1e-13)

    def test_polynomial_pv(self):
        # PV int_-1^1 eta/(eta - 0.2) = 2 + 0.2 log(0.8/1.2)
        got = pv_interval(lambda e: e, -1.0, 1.0, 0.2)
        want = 2.0 + 0.2 * math.log(0.8 / 1.2)
        assert got == pytest.approx(want, rel=1e-13)

    def test_pole_outside_is_ordinary(self):
        got = pv_interval(lambda e: np.exp(e), 0.0, 1.0, 2.0)
        import scipy.integrate as si

        want, _ = si.quad(lambda e: math.exp(e) / (e - 2.0), 0.0, 1.0)
        assert got == pytest.approx(want, rel=1e-11)

    def test_empty_interval_rejected(self):
        with pytest.raises(DomainError):
            pv_interval(lambda e: e, 1.0, 1.0, 0.5)

    def test_pole_at_an_end(self):
        # int_0^1 d(eta)/eta and int_0^1 d(eta)/(eta - 1) diverge: no value
        for pole in (0.0, 1.0):
            with pytest.raises(DomainError, match="diverges"):
                pv_interval(lambda e: np.ones_like(e), 0.0, 1.0, pole)
        # where f(pole) = 0 the integral converges and is computed directly:
        # int_0^1 sin(eta)/eta = Si(1), int_0^1 (eta - 1)/(eta - 1) = 1
        assert pv_interval(np.sin, 0.0, 1.0, 0.0) == pytest.approx(sici(1.0)[0], rel=1e-13)
        assert pv_interval(lambda e: e - 1.0, 0.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-13)


class TestPanelRules:
    """The tabulated rules are scipy's, and the vectorized panel builder does
    the loop's arithmetic: equal bits."""

    @pytest.mark.parametrize("n", [16, 20])
    def test_tables_equal_scipy_rules(self, n):
        # the literal rules are scipy's, bit for bit and sign for sign
        x, w = _LEGENDRE[n]
        ref_x, ref_w = roots_legendre(n)
        assert sorted(_LEGENDRE) == [16, 20]
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        assert np.array_equal(np.signbit(x), np.signbit(ref_x))

    def test_scheme_matches_loop(self):
        # the one rule: 20 nodes on each of the ten panels
        s = make_scheme(make_params(1.0))
        nodes, bare = loop_panels(np.asarray(_PANEL_EDGES), 20)
        assert s.n == 200
        assert np.array_equal(s.nodes, nodes)
        assert np.array_equal(s.weights_gauss, bare * np.exp(-nodes * nodes))
        assert np.array_equal(s.weights_weighted, s.weights_gauss * (1.0 + nodes))

    @pytest.mark.parametrize("lo, hi, breaks, n_panels, n_per", [
        (0.0, 8.6, (), 10, 20),
        (-1.0, 1.0, (0.3,), 16, 16),
        (-1.0, 2.0, (0.3, -0.5, 1.7), 20, 16),
    ])
    def test_gauss_panels_match_loop(self, lo, hi, breaks, n_panels, n_per):
        pts = np.unique([lo, hi] + [b for b in breaks if lo < b < hi])
        ref_n, ref_w = [], []
        for a, b in zip(pts[:-1], pts[1:]):
            k = max(2, int(np.ceil(n_panels * (b - a) / (hi - lo))))
            n, w = loop_panels(np.linspace(a, b, k + 1), n_per)
            ref_n.append(n)
            ref_w.append(w)
        nodes, wts = gauss_panels(lo, hi, breaks, n_panels, n_per)
        assert np.array_equal(nodes, np.concatenate(ref_n))
        assert np.array_equal(wts, np.concatenate(ref_w))
