"""Shared fixtures and independent numerical oracles."""

import numpy as np
import pytest
import scipy.integrate as si

from bgkspectral import make_params, make_scheme
from bgkspectral.params import mu_of
from bgkspectral.quadrature import integrate_weighted

A_GRID = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0)


@pytest.fixture(scope="session")
def model():
    """params/scheme pairs for the standard slope grid, built once."""
    cache = {}
    for a in A_GRID:
        p = make_params(a)
        cache[a] = (p, make_scheme(p))
    return cache


def adaptive_weighted(params, f, lim=8.6):
    """Adaptive-quadrature oracle for int w(C) f(C) dC (real f)."""

    def g(c):
        return np.exp(-c * c) * (1.0 + params.a * abs(c)) * f(c)

    val, _ = si.quad(g, -lim, lim, points=[0.0], limit=200, epsabs=1e-13,
                     epsrel=1e-13)
    return val


def quadrature_moments(params, scheme, z):
    """Direct-quadrature oracle for t0..t4 at a complex point z.

    Integrates z * C**n / (mu(C) - z) with the fixed weighted rule, which
    is accurate only well away from the cut (distance of order 1).
    """
    z = complex(z)
    return np.array([
        z * integrate_weighted(
            scheme, lambda c, n=n: c**n / (c / (1.0 + params.a * np.abs(c)) - z))
        for n in range(5)
    ])


def adaptive_pv(params, f, x, lim=8.6):
    """Adaptive two-sided oracle for PV int w(C) f(C)/(mu(C) - x) dC.

    Splits at the speed-space pole image and uses the Cauchy-weight rule
    of scipy.quad on a window around it; ordinary adaptive quadrature
    outside.  Completely independent of the package's subtraction route.
    """
    a = params.a
    cx = x / (1.0 - a * abs(x))

    def g(c):
        mu = c / (1.0 + a * abs(c))
        return np.exp(-c * c) * (1.0 + a * abs(c)) * f(c) * (
            (c - cx) / (mu - x) if abs(c - cx) > 1e-13 else (1.0 + a * abs(c)) ** 2
        )

    # window [cx-d, cx+d] containing the pole, clear of the origin kink
    d = min(0.5, abs(cx) / 2) if cx != 0 else 0.5
    total = 0.0
    val, _ = si.quad(g, cx - d, cx + d, weight="cauchy", wvar=cx, limit=200)
    total += val

    def plain(c):
        mu = c / (1.0 + a * abs(c))
        return np.exp(-c * c) * (1.0 + a * abs(c)) * f(c) / (mu - x)

    pieces = [(-lim, min(0.0, cx - d)), (min(0.0, cx - d), cx - d),
              (cx + d, max(0.0, cx + d)), (max(0.0, cx + d), lim)]
    for lo, hi in pieces:
        if hi > lo:
            val, _ = si.quad(plain, lo, hi, limit=200, points=[0.0] if lo < 0 < hi else None)
            total += val
    return total


def smooth_bump(lo, hi, n=61):
    """C-infinity bump supported on (lo, hi), sampled on a uniform grid."""
    grid = np.linspace(lo, hi, n)
    t = (grid - lo) / (hi - lo) * 2.0 - 1.0
    vals = np.where(np.abs(t) < 1.0,
                    np.exp(-1.0 / np.maximum(1.0 - t * t, 1e-300)), 0.0)
    return grid, vals


def default_mu_grid(params, n=64):
    return mu_of(params, np.linspace(-3.5, 3.5, n))
