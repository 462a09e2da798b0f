"""The five Cauchy-type moment integrals t0..t4 of the dispersion theory.

For a point ``z`` off the spectral cut,

    t_n(z) = z * int_{-alpha}^{alpha} C(mu)**n rho(mu) / (mu - z) d(mu),

with principal-value and boundary-value variants on the cut.  In the
speed variable the integral becomes ``z * int exp(-C**2)(1+a|C|) C**n /
(mu(C) - z) dC`` over the real line, and on each half-line the velocity
map is a Moebius function of ``C``, so the Cauchy kernel factorizes
exactly:

    C > 0:   1/(mu(C) - z) = (1 + aC) / ((1 - az) (C - Z+)),  Z+ = z/(1-az)
    C < 0:   1/(mu(C) - z) = (1 - aC) / ((1 + az) (C - Z-)),  Z- = z/(1+az)

Each half-line piece is then a Gaussian-weighted Cauchy transform of a
low-degree polynomial and reduces, via synthetic division, to exact
half-line Gaussian moments plus the single special function

    Phi(Z) = int_0^inf exp(-t**2) / (t - Z) dt,

which is evaluated through the Faddeeva function and the exponential
integral.  The construction is uniformly accurate for any distance to
the cut (the fixed quadrature rule, by contrast, loses all digits within
O(1) of it); an asymptotic moment series takes over when the factorized
pole ``Z`` is large.  Direct quadrature of the moments serves only as a
test oracle far from the cut (``quadrature_moments`` in
``tests/conftest.py``).

Everything here is a pure function of immutable inputs; concurrent use
needs no coordination.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import dawsn, exp1, expi, gamma, wofz

from .errors import DomainError, WrongRegionError
from .params import GasParams, on_cut, rho_of_c, side_sign, velocity_map
from .quadrature import QuadratureScheme

SQRT_PI = math.sqrt(math.pi)

#: half-line Gaussian moments  int_0^inf t**k exp(-t**2) dt = Gamma((k+1)/2)/2
_HALF_MOMENTS = np.array([float(gamma((k + 1) / 2)) / 2.0 for k in range(176)])

#: |Z| beyond which the Cauchy transform switches to its moment series
_SERIES_RADIUS = 8.0


class Region(enum.Enum):
    """Where a moment/dispersion evaluation lives relative to the cut."""

    OFF_CUT = "off-cut"
    ON_CUT_PV = "on-cut-pv"
    BOUNDARY_PLUS = "boundary-plus"
    BOUNDARY_MINUS = "boundary-minus"


@dataclass(frozen=True)
class MomentSet:
    """t0..t4 at one evaluation point, tagged by region.

    Attributes
    ----------
    point : complex
    region : Region
    t : ndarray, shape (5,), complex
        PV values are real-valued but stored complex for uniformity.
    """

    point: complex
    region: Region
    t: np.ndarray


# ---------------------------------------------------------------------------
# special-function kernel
# ---------------------------------------------------------------------------

def _cauchy_gauss_full(z):
    """int_R exp(-t**2)/(t - z) dt; principal value for real z."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    up = z.imag > 0
    dn = z.imag < 0
    re = ~(up | dn)
    out[up] = 1j * math.pi * wofz(z[up])
    out[dn] = -1j * math.pi * wofz(-z[dn])
    out[re] = -2.0 * SQRT_PI * dawsn(z[re].real)
    return out


def _laguerre_tail(s):
    """int_0^inf exp(-u)/(u - s) du for |s| >= 40, by the moment series."""
    s = np.asarray(s, dtype=complex)
    tot = np.zeros_like(s)
    term = -1.0 / s
    for k in range(80):
        tot += term
        term = term * (k + 1) / s
        if np.max(np.abs(term)) < 1e-22 * max(np.max(np.abs(tot)), 1e-300):
            break
    return tot


def _cauchy_exp_halfline(z):
    """int_0^inf exp(-u)/(u - s) du at s = z**2; principal value for real z."""
    z = np.asarray(z, dtype=complex)
    s = z * z
    out = np.empty_like(s)
    big = np.abs(s) >= 40.0
    if np.any(big):
        out[big] = _laguerre_tail(s[big])
    small = ~big
    re = small & (z.imag == 0.0)
    sr = s[re].real
    out[re] = np.where(sr > 0, -np.exp(-sr) * expi(np.maximum(sr, 1e-300)), 0.0)
    cm = small & (z.imag != 0.0)
    out[cm] = np.exp(-s[cm]) * exp1(-s[cm])
    return out


def _phi_halfline(z):
    """Phi(Z) = int_0^inf exp(-t**2)/(t - Z) dt.

    Valid for any ``Z`` not on ``[0, inf)``; for real ``Z > 0`` it returns
    the principal value.  ``Z = 0`` is a logarithmic singularity and is
    the caller's responsibility (the moment prefactor removes it).
    """
    return 0.5 * (_cauchy_gauss_full(z) + _cauchy_exp_halfline(z))


def _cauchy_halfline_poly(a: float, n: int, z, phi_z):
    """int_0^inf exp(-C**2)(1+aC)**2 C**n / (C - Z) dC, vectorized in Z.

    ``phi_z`` must hold Phi(Z) (ordinary or PV, matching the caller's
    intent).  For |Z| >= _SERIES_RADIUS the synthetic-division route
    cancels catastrophically and the asymptotic moment series is used
    instead; its optimal-truncation error there is below 1e-25.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)

    big = np.abs(z) >= _SERIES_RADIUS
    if np.any(big):
        zb = z[big]
        h = _HALF_MOMENTS
        nu = h[n:-2] + 2.0 * a * h[n + 1 : -1] + a * a * h[n + 2 :]
        tot = np.zeros_like(zb)
        term = -1.0 / zb
        prev = np.full(zb.shape, np.inf)
        for k in range(nu.size):
            contrib = term * nu[k]
            mag = np.abs(contrib)
            if np.all(mag >= prev):  # asymptotic tail started growing
                break
            tot += np.where(mag <= prev, contrib, 0.0)
            prev = np.minimum(prev, mag)
            term = term / zb
            if np.max(mag) < 1e-22:
                break
        out[big] = tot

    sm = ~big
    if np.any(sm):
        zs = z[sm]
        p = np.zeros(n + 3)
        p[n], p[n + 1], p[n + 2] = 1.0, 2.0 * a, a * a
        d = n + 2
        # synthetic division: (p(C) - p(Z))/(C - Z) = sum b_k C**k
        b = np.empty((d,) + zs.shape, dtype=complex)
        b[d - 1] = p[d]
        for j in range(d - 1, 0, -1):
            b[j - 1] = p[j] + zs * b[j]
        moment_part = np.tensordot(_HALF_MOMENTS[:d], b, axes=(0, 0))
        p_at_z = np.zeros_like(zs)
        for c in p[::-1]:
            p_at_z = p_at_z * zs + c
        out[sm] = moment_part + p_at_z * np.asarray(phi_z)[sm]
    return out


# ---------------------------------------------------------------------------
# t_n evaluation
# ---------------------------------------------------------------------------

def _tn_halflines(a: float, z: np.ndarray) -> np.ndarray:
    """t0..t4 as the sum of the two factorized half-line transforms.

    ``z`` is complex (a point off the cut) or real and nonnegative (``|x|``
    for the principal value).  Real ``z`` stays in real arithmetic, because
    a complex division by ``1 - a*z`` rounds differently from a real one.
    At real ``z = 0`` the result is finite and the caller sets it.
    """
    real = not np.iscomplexobj(z)
    dp, dm = 1.0 - a * z, 1.0 + a * z
    # the factorized half-line route applies uniformly, a = 0 included
    # (Z+ = Z- = z there); its series branch keeps large arguments stable
    zp, zm = z / dp, -(z / dm)
    phi_p, phi_m = _phi_halfline(zp), _phi_halfline(zm)
    if real:
        phi_p, phi_m = phi_p.real, phi_m.real
    out = np.empty((5,) + z.shape, dtype=z.dtype)
    for n in range(5):
        jp = _cauchy_halfline_poly(a, n, zp, phi_p)
        jm = _cauchy_halfline_poly(a, n, zm, phi_m)
        if real:
            jp, jm = jp.real, jm.real
        out[n] = z * (jp / dp + (-1.0) ** (n + 1) * jm / dm)
    return out


def tn_offcut_array(params: GasParams, z) -> np.ndarray:
    """t0..t4 at points off the cut; shape (5,) + z.shape, complex.

    No region validation is performed here; use :func:`moments_at` for the
    checked scalar interface.
    """
    return _tn_halflines(params.a, np.asarray(z, dtype=complex))


def tn_pv_array(params: GasParams, x) -> np.ndarray:
    """Principal-value t0..t4 at real cut points; shape (5,) + x.shape, real."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    if not np.all(ax < params.alpha):  # NaN fails the comparison too
        raise DomainError(
            f"cut point must be a number inside (-{params.alpha}, {params.alpha})")
    out = np.where(ax > 0.0, _tn_halflines(params.a, ax), 0.0)
    # parity t_n(-x) = (-1)**n t_n(x)
    out[1::2] *= np.where(x < 0, -1.0, 1.0)
    return out


def boundary_jump_array(params: GasParams, x) -> np.ndarray:
    """The Plemelj half-jump i*pi*x*C(x)**n*rho(x); shape (5,) + x.shape."""
    x = np.asarray(x, dtype=float)
    c = np.asarray(velocity_map(params, x), dtype=float)
    rho = rho_of_c(params, c)
    return np.stack([1j * math.pi * x * c**n * rho for n in range(5)])


def tn_boundary_array(params: GasParams, x, side) -> np.ndarray:
    """Boundary values t_n(x +- i0) = t_n^PV(x) +- i*pi*x*C(x)**n*rho(x)."""
    sgn = side_sign(side)
    x = np.asarray(x, dtype=float)
    return tn_pv_array(params, x).astype(complex) + sgn * boundary_jump_array(params, x)


def moments_at(params: GasParams, scheme: QuadratureScheme, z) -> MomentSet:
    """Moment set at a complex point off the cut ``[-alpha, alpha]``.

    Parameters
    ----------
    z : complex
        Any point not on the closed cut (the whole real axis when a = 0).

    Raises
    ------
    DomainError
        If ``z`` is not finite.
    WrongRegionError
        If ``z`` lies on the cut; use :func:`moments_pv` /
        :func:`moments_boundary` there.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"point {z} is not finite")
    if on_cut(params, z):
        raise WrongRegionError(
            "point lies on the spectral cut; use moments_pv or moments_boundary"
        )
    return MomentSet(point=z, region=Region.OFF_CUT, t=tn_offcut_array(params, z))


def moments_pv(params: GasParams, scheme: QuadratureScheme, x: float) -> MomentSet:
    """Principal-value moment set at a real point inside the cut."""
    x = float(x)
    if not abs(x) < params.alpha:
        raise DomainError(f"PV point must be a number with |x| < {params.alpha}")
    t = tn_pv_array(params, np.asarray(x)).astype(complex)
    return MomentSet(point=complex(x), region=Region.ON_CUT_PV, t=t)


def moments_boundary(params: GasParams, scheme: QuadratureScheme, x: float,
                     side: str) -> MomentSet:
    """Boundary values t_n(x +- i0) = t_n^PV(x) +- i*pi*x*C(x)**n*rho(x)."""
    x = float(x)
    if not abs(x) < params.alpha:
        raise DomainError(f"boundary point must be a number with |x| < {params.alpha}")
    region = Region.BOUNDARY_PLUS if side_sign(side) > 0 else Region.BOUNDARY_MINUS
    t = tn_boundary_array(params, x, side)
    return MomentSet(point=complex(x), region=region, t=t)


def asymptotic_moments(params: GasParams) -> np.ndarray:
    """The C-moments m_n = int w(C) C**n dC, n = 0..6 (odd ones vanish).

    These are the leading coefficients of the large-|z| expansion
    t_n(z) -> -m_n; m_{2k} = Gamma(k + 1/2) + a * k!.
    """
    m = np.zeros(7)
    for k in range(0, 7, 2):
        m[k] = float(gamma((k + 1) / 2)) + params.a * math.factorial(k // 2)
    return m
