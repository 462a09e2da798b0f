"""Shared fixtures and independent numerical oracles."""

import math

import numpy as np
import pytest
import scipy.integrate as si
from scipy.special import dawsn, exp1, expi, gamma, roots_legendre, wofz

from bgkspectral import DomainError, make_params, make_scheme
from bgkspectral import dispersion
from bgkspectral.params import mu_of, require_finite
from bgkspectral.quadrature import integrate_weighted

A_GRID = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0)

#: int_0^inf t**k exp(-t**2) dt = Gamma((k+1)/2)/2, k = 0..5
HALF_MOMENTS = np.array([float(gamma((k + 1) / 2)) / 2.0 for k in range(6)])


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


def loop_panels(edges, n_per):
    """Reference panel builder: one Gauss-Legendre panel at a time, each
    from scipy's rule."""
    x01, w01 = roots_legendre(n_per)
    nodes, wts = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(lo + half * (x01 + 1.0))
        wts.append(half * w01)
    return np.concatenate(nodes), np.concatenate(wts)


def halfline_rule_24():
    """24 Gauss-Legendre nodes on each of twelve equal panels of [0, 8.6]:
    a finer reference than the package's 20-node rules."""
    return loop_panels(np.linspace(0.0, 8.6, 13), 24)


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


def cauchy_halfline_poly_oracle(a, n, z, phi_z):
    """One J_n by its own synthetic division of p_n(C) = C**n (1+aC)**2.

    ``moments._cauchy_halfline_poly`` shares one division of p_4 among all
    five J_n and must agree with this bit for bit.
    """
    p = np.zeros(n + 3)
    p[n], p[n + 1], p[n + 2] = 1.0, 2.0 * a, a * a
    d = n + 2
    b = np.empty((d,) + z.shape, dtype=complex)
    b[d - 1] = p[d]
    for j in range(d - 1, 0, -1):
        b[j - 1] = p[j] + z * b[j]
    moment_part = np.tensordot(HALF_MOMENTS[:d], b, axes=(0, 0))
    p_at_z = np.zeros_like(z)
    for c in p[::-1]:
        p_at_z = p_at_z * z + c
    return moment_part + p_at_z * phi_z.copy()


# ---------------------------------------------------------------------------
# the moment kernel's complex route, as an oracle for its float64 and a = 0
# paths: every argument cast to complex, the special functions evaluated for
# each half-line, real results taken as the real part at the end
# ---------------------------------------------------------------------------

SERIES_RADIUS = 8.0
_SERIES_MOMENTS = np.array([float(gamma((k + 1) / 2)) / 2.0 for k in range(59)])


def phi_halfline_oracle(a, z):
    """Phi(Z) = int_0^inf exp(-t**2)/(t - Z) dt in complex arithmetic, |Z| < 8.

    At a = 0 off the real axis the exponential-integral half, even in Z,
    is taken as 0, as the kernel does: it enters the half-lines at Z and
    -Z with opposite signs and cancels in every t_n.
    """
    z = np.asarray(z, dtype=complex)
    full, half = np.empty_like(z), np.empty_like(z)
    up, dn = z.imag > 0, z.imag < 0
    re = ~(up | dn)
    full[up] = 1j * math.pi * wofz(z[up])
    full[dn] = -1j * math.pi * wofz(-z[dn])
    full[re] = -2.0 * math.sqrt(math.pi) * dawsn(z[re].real)
    s = z * z
    axis = z.imag == 0.0
    sr = s[axis].real
    half[axis] = np.where(sr > 0, -np.exp(-sr) * expi(np.maximum(sr, 1e-300)), 0.0)
    half[~axis] = 0.0 if a == 0.0 else np.exp(-s[~axis]) * exp1(-s[~axis])
    return 0.5 * (full + half)


def cauchy_halfline_series_oracle(a, z):
    """J_0..J_4 at complex |Z| >= 8 from the asymptotic series of J_4, orders
    4..56 by Horner's rule in w = 1/Z, and the downward recurrence."""
    h = _SERIES_MOMENTS
    g = h[:-2] + 2.0 * a * h[1:-1] + a * a * h[2:]
    w = 1.0 / z
    s = np.full(z.shape, g[56], dtype=complex)
    for m in range(55, 3, -1):
        s = s * w + g[m]
    out = np.empty((5, z.size), dtype=complex)
    out[4] = -(s * w)
    for n in range(3, -1, -1):
        out[n] = (out[n + 1] - g[n]) * w
    return out


def cauchy_halfline_oracle(a, z):
    """J_0..J_4 at one half-line's arguments Z, (5,) + z.shape; real if Z is."""
    real = not np.iscomplexobj(z)
    zf = np.asarray(z, dtype=complex).reshape(-1)
    out = np.empty((5, zf.size), dtype=complex)
    far = np.abs(zf) >= SERIES_RADIUS
    if far.any():
        out[:, far] = cauchy_halfline_series_oracle(a, zf[far])
    near = ~far
    if near.any():
        zs = zf[near]
        phi = phi_halfline_oracle(a, zs)
        if real:
            phi = phi.real
        for n in range(5):
            out[n, near] = cauchy_halfline_poly_oracle(a, n, zs, phi)
    out = out.reshape((5,) + z.shape)
    return out.real if real else out


def halflines_oracle(a, z):
    """J_0..J_4 at Z+ and at -Z-, each half-line computed on its own, and
    t0..t4 from them: (jp, jm, t)."""
    dp, dm = 1.0 - a * z, 1.0 + a * z
    jp = cauchy_halfline_oracle(a, z / dp)
    jm = cauchy_halfline_oracle(a, -(z / dm))
    out = jp / dp
    for n in range(5):
        out[n] = z * (out[n] + (-1.0) ** (n + 1) * jm[n] / dm)
    return jp, jm, out


def tn_halflines_oracle(a, z):
    """t0..t4 from the two half-line transforms, each computed on its own."""
    return halflines_oracle(a, z)[2]


def lambda_slices(n):
    """The documented partition of an n-point batch of the lambda evaluators:
    k = ceil(n / _LAMBDA_SLICE) contiguous slices, slice i from i*n//k to
    (i+1)*n//k, written out here independently of ``dispersion``.  The
    bound is read at each call, so a test may patch it."""
    k = max(1, math.ceil(n / dispersion._LAMBDA_SLICE))
    return [slice(i * n // k, (i + 1) * n // k) for i in range(k)]


def asymptotic_moments(params):
    """The C-moments m_n = int w(C) C**n dC, n = 0..6 (odd ones vanish).

    These are the leading coefficients of the large-|z| expansion
    t_n(z) -> -m_n; m_{2k} = Gamma(k + 1/2) + a * k!.
    """
    m = np.zeros(7)
    for k in range(0, 7, 2):
        m[k] = float(gamma((k + 1) / 2)) + params.a * math.factorial(k // 2)
    return m


def lambda_c_stable(z):
    """Finite-interval oracle for the plasma dispersion function lambda_C.

    lambda_C(z) = 1 - 2 z**2 int_0^1 exp(-z**2 (1 - t**2)) dt
                  + sign(Im z) * i sqrt(pi) z exp(-z**2)

    The integral uses 96 Gauss-Legendre nodes.  Accurate for moderate |z|
    (growth of the integrand limits it to roughly |z| <= 6); the Faddeeva
    route of ``bgkspectral.lambda_c`` is the production path.
    """
    z = complex(z)
    require_finite("z", z)
    if z.imag == 0.0:
        raise DomainError("real axis: use lambda_c_boundary / lambda_c_pv")
    t, w = roots_legendre(96)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    integral = np.sum(w * np.exp(-z * z * (1.0 - t * t)))
    sgn = 1.0 if z.imag > 0 else -1.0
    return 1.0 - 2.0 * z * z * integral + sgn * 1j * math.sqrt(math.pi) * z * np.exp(-z * z)


def weight(params, mu):
    """Transport-space weight rho(mu) = exp(-C(mu)**2) * (1 - a|mu|)**-3,
    the oracle of rho(mu) d(mu) = w(C) dC.

    Even in ``mu``; vanishes together with every product ``rho * C**n`` at
    the interval endpoints, which are handled as limits (value 0) rather
    than as errors.  A ``mu`` that is not finite raises DomainError.
    """
    mu = np.asarray(mu, dtype=float)
    require_finite("mu", mu)
    one_minus = 1.0 - params.a * np.abs(mu)
    inside = one_minus > 0.0
    c = np.where(inside, mu / np.where(inside, one_minus, 1.0), 0.0)
    rho = np.where(inside, np.exp(-c * c) / np.where(inside, one_minus, 1.0) ** 3,
                   0.0)
    return rho if rho.ndim else float(rho)


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
