import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erfc

from bgkspectral import (
    DomainError,
    FM_DECAY_RATE,
    FM_DECAY_RATE_QUOTED,
    FreeMolecularSolution,
    fm_general_solution,
    fm_kernel,
    fm_project_system,
    fm_residual,
    kernel_q_c,
    lambda_a0,
    lambda_a0_boundary,
    lambda_c,
    lambda_c_boundary,
    lambda_c_pv,
    lambda_fn,
    make_params,
)
from bgkspectral import limits
from bgkspectral.limits import (
    fm_basis,
    fm_coefficient_vector,
    fm_collision,
    fm_modes,
    fm_projection_inner,
)
from bgkspectral.quadrature import gauss_panels

from conftest import halfline_rule_24, lambda_c_stable

SQPI = math.sqrt(math.pi)


class TestPlasmaFunction:
    def test_origin_limit(self):
        for eps in (1e-4, 1e-6):
            assert lambda_c(eps * 1j) == pytest.approx(1.0, abs=1e-3)
        assert lambda_c(1e-8 * 1j) == pytest.approx(1.0, abs=1e-7)

    def test_erfc_oracle_at_i(self):
        want = 1.0 - SQPI * math.e * float(erfc(1.0))
        assert lambda_c(1j) == pytest.approx(want, abs=1e-10)
        assert lambda_c(1j).real == pytest.approx(0.242128, abs=1e-6)

    def test_large_z_asymptote(self):
        # lambda_C ~ -1/(2 z^2) at |z| = 50
        for z in (50j, 35 + 35j, -40 + 30j):
            got = lambda_c(z)
            want = -1.0 / (2 * z * z) - 3.0 / (4 * z**4)
            assert got == pytest.approx(want, rel=1e-3)

    def test_reflection(self):
        z = 0.7 + 0.4j
        assert lambda_c(np.conj(z)) == pytest.approx(np.conj(lambda_c(z)), rel=1e-14)

    def test_stable_formula_agreement(self):
        # finite-interval formula vs Faddeeva route, |z| <= 3, both sides
        rng = np.random.default_rng(8)
        for _ in range(25):
            r = rng.uniform(0.05, 3.0)
            th = rng.uniform(0.05, math.pi - 0.05)
            for sgn in (1.0, -1.0):
                z = r * np.exp(1j * th)
                z = complex(z.real, sgn * abs(z.imag))
                assert lambda_c_stable(z) == pytest.approx(
                    lambda_c(z), rel=1e-10, abs=1e-10)

    def test_real_axis_requires_side(self):
        with pytest.raises(DomainError):
            lambda_c(1.0 + 0j)
        vp = lambda_c_boundary(0.8, "plus")
        vm = lambda_c_boundary(0.8, "minus")
        assert np.conj(vp) == pytest.approx(vm, rel=1e-14)
        assert 0.5 * (vp + vm) == pytest.approx(lambda_c_pv(0.8), rel=1e-14)

    def test_non_finite_input_rejected(self):
        # each raises DomainError naming its argument, instead of returning
        # NaN or calling NaN a real-axis point
        nan = float("nan")
        for call, name in ((lambda: lambda_c(complex(nan, 1.0)), "z"),
                           (lambda: lambda_c_pv(nan), "x"),
                           (lambda: lambda_c_pv(np.array([0.3, np.inf])), "x"),
                           (lambda: lambda_a0_boundary(nan, "plus"), "x"),
                           (lambda: lambda_a0(nan), "z")):
            with pytest.raises(DomainError, match=f"^{name} is not finite"):
                call()


class TestConstantFrequencyDispersion:
    def test_value_at_origin(self):
        assert lambda_a0(1e-9j) == pytest.approx(1.0, abs=1e-8)

    def test_boundary_left_edge_of_figure(self):
        from bgkspectral import lambda_a0_boundary

        v0 = lambda_a0_boundary(0.0, "plus")
        assert v0.real == pytest.approx(1.0, abs=1e-14)
        assert v0.imag == pytest.approx(0.0, abs=1e-14)

    def test_tail(self):
        # z^4 lambda = 3/4 + (15/4)/z^2 + O(z^-4)
        z = 60j
        want = 0.75 + (15.0 / 4.0) / (z * z).real
        assert (z**4 * lambda_a0(z)).real == pytest.approx(want, abs=1e-5)

    def test_matches_mpmath_near_the_origin(self):
        # the bound of lambda_a0's docstring: its two terms cancel to
        # O(z**-4), so it is an oracle near the origin only
        def exact(z):
            if z.imag < 0:
                return exact(z.conjugate()).conjugate()
            with mp.workdps(50):
                z = mp.mpc(z)
                lam_c = 1 + 1j * mp.sqrt(mp.pi) * z * mp.exp(-z * z) * mp.erfc(-1j * z)
                return complex(-mp.mpf(1) / 2 - (z * z - mp.mpf(3) / 2) * lam_c)

        rng = np.random.default_rng(84)
        for radius, bound in ((1.0, 1e-10), (2.0, 1e-10), (4.0, 1e-10), (20.0, 3.8e-8)):
            z = radius * np.exp(1j * rng.uniform(0.05, math.pi - 0.05, 50))
            z = np.where(rng.random(50) < 0.5, z, z.conj())  # both half-planes
            want = np.array([exact(zi) for zi in z])
            assert np.max(np.abs(lambda_a0(z) - want) / np.abs(want)) <= bound, radius

    def test_cross_module_agreement(self, model):
        # the general machinery at a = 0 agrees with the closed form
        p, s = model[0.0]
        rng = np.random.default_rng(123)
        errs = []
        for _ in range(50):
            z = complex(rng.uniform(-6, 6),
                        rng.choice([-1, 1]) * 10 ** rng.uniform(-2, 1))
            lam = lambda_a0(z)
            errs.append(abs(lambda_fn(p, s, z) - lam) / abs(lam))
        assert max(errs) < 1e-8


class TestFreeMolecularKernel:
    def test_values(self):
        assert fm_kernel(0.0, 0.0) == 2.0
        for cp in (-1.5, 0.0, 2.0):
            assert fm_kernel(1.0, cp) == pytest.approx(1.0 + cp)

    def test_conservation_moment(self):
        # int e^{-C'^2}|C'| q1(C, C') dC' = 1 via half-line moments k!/2
        nodes, wts = gauss_panels(0.0, 8.6, (), 10, 20)
        w = wts * np.exp(-nodes * nodes) * nodes
        for c in (0.0, 0.7, -2.1):
            val = np.sum(w * (fm_kernel(c, nodes) + fm_kernel(c, -nodes)))
            assert val == pytest.approx(1.0, abs=1e-13)

    def test_large_a_kernel_convergence(self):
        # (1 + a|C'|) q(C, C', a) -> |C'| q1(C, C') at 1% for a = 1e3
        p = make_params(1e3)
        grid = np.array([0.3, 0.7, 1.2, 2.0])
        for c in grid:
            for cp in grid:
                got = (1.0 + p.a * abs(cp)) * kernel_q_c(p, c, cp)
                want = abs(cp) * fm_kernel(c, cp)
                assert abs(got - want) / abs(want) < 1e-2


class TestProjectedSystem:
    def test_matches_closed_form(self):
        m = fm_project_system()
        want = np.zeros((6, 6))
        want[0, 1] = -1.0
        want[1, 3] = SQPI / 2
        want[2, 3] = -1.0
        want[3, 1] = SQPI / 2
        want[3, 5] = SQPI / 4
        want[4, 5] = -1.0
        want[5, 3] = SQPI / 4
        assert np.max(np.abs(m - want)) < 1e-13

    def test_first_two_balance_equations(self):
        # rows reproducing a1' = -a1~ and a1~' = (sqrt(pi)/2) a2~
        m = fm_project_system()
        assert m[0, 1] == pytest.approx(-1.0, abs=1e-14)
        assert m[1, 3] == pytest.approx(SQPI / 2, rel=1e-14)
        assert np.max(np.abs(m[0, [0, 2, 3, 4, 5]])) < 1e-14
        assert np.max(np.abs(m[1, [0, 1, 2, 4, 5]])) < 1e-14

    def test_kernel_structure_gives_linear_modes(self):
        # three kernel directions plus one Jordan chain -> linear-in-x terms
        m = fm_project_system()
        kernel = [v for v in np.eye(6)[[0, 2, 4]]]
        for v in kernel:
            assert np.max(np.abs(m @ v)) < 1e-14
        modes = fm_modes()
        v, d = modes["linear"]
        assert np.max(np.abs(m @ v - d)) < 1e-13
        assert np.max(np.abs(m @ d)) < 1e-13
        assert np.max(np.abs(d)) > 0.5

    def test_projection_integrals_against_quadrature(self):
        # every entry of the defining projection reproduced to 1e-12
        nodes, wts = halfline_rule_24()
        w = wts * np.exp(-nodes * nodes) * nodes
        bp, bm = fm_basis(nodes), fm_basis(-nodes)
        for i in range(6):
            for j in range(6):
                plain = np.sum(w * (bp[i] * bp[j] + bm[i] * bm[j]))
                sgn = np.sum(w * (bp[i] * bp[j] - bm[i] * bm[j]))
                assert plain == pytest.approx(
                    fm_projection_inner(i, j, 0), abs=1e-12)
                assert sgn == pytest.approx(
                    fm_projection_inner(i, j, extra_sgn=1), abs=1e-12)

    def test_projection_tables_match_polymul_form(self):
        # np.convolve of the coefficient lists, lowest degree first, gives
        # the same 6x6 tables bit for bit as the polymul round trip through
        # reversed (highest degree first) lists
        for extra in (0, 1):
            got = np.array([[fm_projection_inner(i, j, extra_sgn=extra) for j in range(6)]
                            for i in range(6)])
            want = np.empty((6, 6))
            for i in range(6):
                for j in range(6):
                    pi_, pj = limits._FM_BASIS_POLY[i], limits._FM_BASIS_POLY[j]
                    prod = np.polymul(pi_[::-1], pj[::-1])[::-1]
                    odd = (limits._FM_BASIS_SGN[i] + limits._FM_BASIS_SGN[j] + extra) % 2
                    moment = ((lambda m: limits._gauss_moment(m + 1)) if odd
                              else limits._half_moment)
                    want[i, j] = sum(c * moment(m) for m, c in enumerate(prod))
            assert got.tobytes() == want.tobytes(), extra

    def test_eigenvalues(self):
        ev = np.sort(np.linalg.eigvals(fm_project_system()).real)
        assert ev[0] == pytest.approx(-FM_DECAY_RATE, abs=1e-13)
        assert ev[-1] == pytest.approx(FM_DECAY_RATE, abs=1e-13)
        assert np.max(np.abs(ev[1:5])) < 1e-13
        assert FM_DECAY_RATE == pytest.approx(math.sqrt(5 * math.pi) / 4, rel=1e-15)


class TestGeneralSolution:
    def test_zero_solution(self):
        sol = FreeMolecularSolution()
        c = np.linspace(-2, 2, 9)
        c = c[np.abs(c) > 1e-9]
        assert np.max(np.abs(fm_general_solution(sol, 1.0, c))) == 0.0
        assert fm_residual(sol, 0.5) == 0.0

    def test_constant_mode_shape(self):
        # only A1: a pure constant in the "1" component
        sol = FreeMolecularSolution(A1=1.0)
        c = np.array([-1.7, -0.4, 0.8, 2.2])
        assert np.allclose(fm_general_solution(sol, 0.0, c), 1.0)
        assert np.allclose(fm_general_solution(sol, 3.0, c), 1.0)

    def test_decaying_mode_shape_and_rate(self):
        sol = FreeMolecularSolution(A0=1.0)
        y0 = fm_coefficient_vector(sol, 0.0)
        y1 = fm_coefficient_vector(sol, 1.0)
        assert np.allclose(y1, y0 * math.exp(-FM_DECAY_RATE))
        # the derived rate differs from the quoted literature value
        assert FM_DECAY_RATE == pytest.approx(0.990832, abs=1e-6)
        assert abs(FM_DECAY_RATE - FM_DECAY_RATE_QUOTED) > 0.5

    @pytest.mark.parametrize("name", ["A0", "A1", "A2", "A3", "At1", "At3"])
    def test_every_mode_solves_equation(self, name):
        sol = FreeMolecularSolution(**{name: 1.0})
        for x in (0.0, 0.7, 2.0):
            assert fm_residual(sol, x) < 1e-8

    def test_kernel_mode_residual_tiny(self):
        sol = FreeMolecularSolution(A1=0.3, A2=-1.1, A3=0.8)
        assert fm_residual(sol, 1.1) < 1e-10

    def test_quoted_rate_fails_residual(self):
        # negative control: same mode shape, literature decay rate
        modes = fm_modes()
        _, u_minus = modes["decay"]

        def h_bad(x, c):
            y = u_minus * math.exp(-FM_DECAY_RATE_QUOTED * x)
            return np.tensordot(y, fm_basis(np.asarray(c, dtype=float)),
                                axes=(0, 0))

        cg = np.linspace(0.1, 3.5, 32)
        cg = np.concatenate([-cg[::-1], cg])
        k0, k1, k2 = fm_collision(h_bad, 0.7)
        dh = np.tensordot(-FM_DECAY_RATE_QUOTED * u_minus
                          * math.exp(-FM_DECAY_RATE_QUOTED * 0.7),
                          fm_basis(cg), axes=(0, 0))
        res = np.max(np.abs(np.sign(cg) * dh + h_bad(0.7, cg)
                            - (k0 + k1 * cg + (cg * cg - 1) * k2)))
        assert res > 1e-3

    def test_perturbed_coefficients_fail(self):
        # breaking the mode structure by hand must show in the residual
        sol = FreeMolecularSolution(A0=1.0)
        modes = fm_modes()
        sigma, u_minus = modes["decay"]
        bad = u_minus.copy()
        bad[3] *= 1.2

        def h_bad(x, c):
            return np.tensordot(bad * math.exp(-sigma * x),
                                fm_basis(np.asarray(c, dtype=float)), axes=(0, 0))

        cg = np.linspace(0.1, 3.5, 32)
        cg = np.concatenate([-cg[::-1], cg])
        k0, k1, k2 = fm_collision(h_bad, 0.5)
        dh = np.tensordot(-sigma * bad * math.exp(-sigma * 0.5),
                          fm_basis(cg), axes=(0, 0))
        res = np.max(np.abs(np.sign(cg) * dh + h_bad(0.5, cg)
                            - (k0 + k1 * cg + (cg * cg - 1) * k2)))
        assert res > 1e-3

    def test_collision_evaluates_h_once_per_side(self):
        # h = 1 (the A1 mode): K0 = int exp(-C^2)|C| dC = 1, K1 = K2 = 0
        sol = FreeMolecularSolution(A1=1.0)
        calls = []

        def h(x, c):
            calls.append(x)
            return fm_general_solution(sol, x, c)

        k0, k1, k2 = fm_collision(h, 0.6)
        assert calls == [0.6, 0.6]
        assert k0 == pytest.approx(1.0, abs=1e-12)
        assert abs(k1) < 1e-12 and abs(k2) < 1e-12

    def test_six_independent_solutions(self):
        # rank check on sampled evaluations of the six unit-coefficient runs
        xg = np.linspace(0.0, 2.0, 5)
        cg = np.array([-2.3, -1.1, -0.4, 0.5, 1.2, 2.6])
        rows = []
        for name in ("A0", "A1", "A2", "A3", "At1", "At3"):
            sol = FreeMolecularSolution(**{name: 1.0})
            rows.append(np.concatenate(
                [np.atleast_1d(fm_general_solution(sol, x, cg)) for x in xg]))
        rank = np.linalg.matrix_rank(np.array(rows), tol=1e-10)
        assert rank == 6

    def test_system_matrix_attached(self):
        # the coefficient vector solves y' = M y with M = fm_project_system()
        sol = FreeMolecularSolution(A0=1.0)
        y0 = fm_coefficient_vector(sol, 0.0)
        y1 = fm_coefficient_vector(sol, 1e-6)
        dy = (y1 - y0) / 1e-6
        assert np.max(np.abs(dy - fm_project_system() @ y0)) < 1e-5
