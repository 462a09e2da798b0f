"""Acceptance suite: one test per criterion, pinned tolerances, printed verdicts.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import math

import numpy as np
import pytest
from scipy.special import erfc

from bgkspectral import (
    FM_DECAY_RATE,
    FM_DECAY_RATE_QUOTED,
    FreeMolecularSolution,
    SpectralExpansion,
    apply_expansion,
    count_zeros,
    discrete_solution,
    discrete_solution_dx,
    fm_residual,
    keyhole_contour,
    lambda_c,
    lambda_fn,
    laurent_order_at_infinity,
    make_params,
    make_scheme,
    normalization_check,
    residual_2_4,
    semicircle_contour,
    sokhotsky_jump,
    tn_offcut_array,
)
from bgkspectral import lambda_a0
from bgkspectral.limits import fm_basis, fm_projection_inner
from bgkspectral.moments import boundary_jump_array
from bgkspectral.quadrature import integrate_weighted

from conftest import halfline_rule_24, lambda_c_stable, smooth_bump

SQPI = math.sqrt(math.pi)
A_FULL = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_conservation_closure(model):
    worst = 0.0
    for a in A_FULL:
        p, s = model[a]
        m0 = integrate_weighted(s, lambda c: np.ones_like(c))
        m2 = integrate_weighted(s, lambda c: c * c)
        e2 = integrate_weighted(s, lambda c: (c * c - p.beta) ** 2)
        orth = integrate_weighted(s, lambda c: c * c - p.beta)
        worst = max(worst,
                    abs(p.r0 * m0 - 1.0),
                    abs(p.r1 * m2 - 1.0),
                    abs(p.r2 * e2 - 1.0),
                    abs(orth) / m0)
    report(1, worst < 1e-10,
           f"conservation/closure identities, worst deviation {worst:.2e} < 1e-10")


def test_criterion_02_discrete_spectrum(model):
    worst = 0.0
    for a in A_FULL:
        p, s = model[a]
        for k in range(4):
            for x in (0.0, 0.7, 2.0):
                r = residual_2_4(
                    p, s,
                    lambda xx, mm, k=k: discrete_solution(p, k, xx, mm), x,
                    dh_dx=lambda xx, mm, k=k: discrete_solution_dx(p, k, xx, mm))
                worst = max(worst, r)
    report(2, worst < 1e-8,
           f"discrete solutions h0..h3 residual, worst {worst:.2e} < 1e-8")


def test_criterion_03_a0_closed_form(model):
    p, s = model[0.0]
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(50):
        z = complex(rng.uniform(-6, 6),
                    rng.choice([-1, 1]) * 10 ** rng.uniform(-2, 1))
        lam = lambda_a0(z)
        worst = max(worst, abs(lambda_fn(p, s, z) - lam) / abs(lam))
    report(3, worst < 1e-8,
           f"constant-frequency closed form, worst rel dev {worst:.2e} < 1e-8 "
           "at 50 points with |Im z| in [1e-2, 10]")


def test_criterion_04_fourth_order_zero(model):
    orders, coeff0 = {}, None
    for a in (0.0, 0.5, 1.0, 2.0):
        p, _ = model[a]
        order, coeff = laurent_order_at_infinity(p)
        orders[a] = order
        if a == 0.0:
            coeff0 = coeff
    ok = all(o == 4 for o in orders.values()) and abs(coeff0.real - 0.75) < 1e-4
    report(4, ok,
           f"Laurent order {orders} (all 4), a=0 leading coefficient "
           f"{coeff0.real:.8f} within 1e-4 of 3/4")


def test_criterion_05_zero_counts(model):
    counts = []
    for a in (0.5, 1.0, 2.0):
        p, _ = model[a]
        for hw, hh in ((3.0, 2.0), (5.0, 3.0), (8.0, 5.0)):
            cont = keyhole_contour(p, max(hw, p.alpha + 0.5), hh)
            counts.append(count_zeros(p, cont))
    p0, _ = model[0.0]
    counts.append(count_zeros(p0, semicircle_contour()))
    ok = all(c == 0 for c in counts)
    report(5, ok, f"argument-principle windings {counts} all zero "
           "(3 nested keyholes x a in {0.5,1,2} + a=0 semicircle)")


def test_criterion_06_plemelj_sokhotsky(model):
    p, _ = model[1.0]
    xs = np.linspace(-0.95, 0.95, 20)
    worst_t = 0.0
    for x in xs:
        jmp = {}
        for eps in (2e-6, 1e-6):
            tp = tn_offcut_array(p, complex(x, eps))
            tm = tn_offcut_array(p, complex(x, -eps))
            jmp[eps] = tp - tm
        extrap = 2.0 * jmp[1e-6] - jmp[2e-6]
        claim = boundary_jump_array(p, np.asarray(x)) * 2.0
        worst_t = max(worst_t, float(np.max(np.abs(extrap - claim))))
    sj = sokhotsky_jump(p, 0.45)
    ratio_dev = abs(sj.jump - 0.45 * sj.claimed_jump)
    ok = worst_t < 1e-6
    report(6, ok,
           f"t_n boundary jumps worst dev {worst_t:.2e} < 1e-6 at 20 cut "
           f"points; lambda-jump/claimed ratio = {sj.ratio.real:.6f} "
           f"(= x; measured - x*claimed = {ratio_dev:.2e})")


def test_criterion_07_normalization(model):
    worst = 0.0
    for a in (0.5, 1.0):
        p, s = model[a]
        for eta in np.linspace(-0.9, 0.9, 10) * p.alpha * 0.9:
            worst = max(worst, float(np.max(normalization_check(p, s, eta))))
    report(7, worst < 1e-6,
           f"normalization consistency, worst deviation {worst:.2e} < 1e-6 "
           "at 10 etas for a in {0.5, 1}")


def test_criterion_08_plasma_function():
    lim_dev = abs(lambda_c(1e-8j) - 1.0)
    erfc_dev = abs(lambda_c(1j) - (1.0 - SQPI * math.e * float(erfc(1.0))))
    rng = np.random.default_rng(99)
    stable_dev = 0.0
    for _ in range(30):
        z = rng.uniform(0.05, 3.0) * np.exp(1j * rng.uniform(0.05, math.pi - 0.05))
        z = complex(z.real, rng.choice([-1, 1]) * abs(z.imag))
        stable_dev = max(stable_dev, abs(lambda_c_stable(z) - lambda_c(z)))
    ok = lim_dev < 1e-7 and erfc_dev < 1e-10 and stable_dev < 1e-10
    report(8, ok,
           f"plasma function: origin limit dev {lim_dev:.1e}, erfc oracle dev "
           f"{erfc_dev:.1e} < 1e-10, stable-vs-Faddeeva dev {stable_dev:.1e} "
           "< 1e-10 for |z| <= 3")


def test_criterion_09_figure_reproduction(capsys):
    import csv
    import io

    from bgkspectral.cli import main

    code = main(["dispersion-curve", "--a", "0", "--x-min", "-4",
                 "--x-max", "4", "--points", "401"])
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))[1:]
    data = {float(r[0]): (float(r[1]), float(r[2])) for r in rows}
    re = np.array([float(r[1]) for r in rows])
    im = np.array([float(r[2]) for r in rows])
    ok = (code == 0
          and abs(data[0.0][0] - 1.0) < 1e-8
          and abs(data[0.0][1]) < 1e-12
          and abs(data[1.0][1] - 0.326) < 1e-3
          and np.allclose(re, re[::-1], atol=1e-11)
          and np.allclose(im, -im[::-1], atol=1e-11))
    with capsys.disabled():
        print(f"ACCEPTANCE  9: {'PASS' if ok else 'FAIL'} - dispersion-curve "
              f"a=0: lambda+(0) = ({data[0.0][0]:.9f}, {data[0.0][1]:.1e}), "
              f"Im lambda+(1) = {data[1.0][1]:.6f}, columns even/odd")
    assert ok


def test_criterion_10_free_molecular():
    nodes, wts = halfline_rule_24()
    w = wts * np.exp(-nodes * nodes) * nodes
    bp, bm = fm_basis(nodes), fm_basis(-nodes)
    proj_dev = 0.0
    for i in range(6):
        for j in range(6):
            plain = np.sum(w * (bp[i] * bp[j] + bm[i] * bm[j]))
            sgn = np.sum(w * (bp[i] * bp[j] - bm[i] * bm[j]))
            proj_dev = max(proj_dev,
                           abs(plain - fm_projection_inner(i, j, 0)),
                           abs(sgn - fm_projection_inner(i, j, extra_sgn=1)))
    res = 0.0
    for name in ("A0", "A1", "A2", "A3", "At1", "At3"):
        sol = FreeMolecularSolution(**{name: 1.0})
        res = max(res, fm_residual(sol, 0.0), fm_residual(sol, 1.3))
    ok = proj_dev < 1e-12 and res < 1e-8
    report(10, ok,
           f"free-molecular: projection integrals dev {proj_dev:.1e} < 1e-12, "
           f"mode residuals {res:.1e} < 1e-8; derived decay rate "
           f"{FM_DECAY_RATE:.6f} vs quoted {FM_DECAY_RATE_QUOTED:.6f} "
           f"(discrepancy {FM_DECAY_RATE_QUOTED - FM_DECAY_RATE:+.6f}, "
           "documented in DERIVATION_NOTES.md)")


def test_criterion_11_expansion_theorem(model):
    p, s = model[1.0]
    rng = np.random.default_rng(7)
    grid, vals = smooth_bump(0.05, 0.35, 61)
    exp_ = SpectralExpansion(discrete=rng.uniform(-1, 1, 4),
                             eta_grid=grid, a_values=vals)

    def h(x, mu):
        return np.array([apply_expansion(p, s, exp_, x, m)
                         for m in np.atleast_1d(mu)])

    def dh(x, mu):
        return np.array([apply_expansion(p, s, exp_, x, m, derivative=True)
                         for m in np.atleast_1d(mu)])

    worst = max(residual_2_4(p, s, h, x, dh_dx=dh) for x in (0.5, 1.0))
    report(11, worst < 1e-5,
           f"expansion with smooth bump + random discrete coefficients, "
           f"residual {worst:.2e} < 1e-5")
