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

Each half-line piece is then a Gaussian-weighted Cauchy transform J_n of
p_n(C) = C**n (1+aC)**2; one synthetic division of p_4 reduces all five to
exact half-line Gaussian moments plus multiples of the special function

    Phi(Z) = int_0^inf exp(-t**2) / (t - Z) dt,

which is evaluated through the Faddeeva function and the exponential
integral.  The construction is uniformly accurate for any distance to
the cut (the fixed quadrature rule, by contrast, loses all digits within
O(1) of it).  Synthetic division cancels more as |Z| grows, so from
|Z| = 8 on a point sums the asymptotic moment series of the n = 4 piece to
its own smallest term and gets n = 3..0 by an exact downward recurrence.
Direct quadrature of the moments serves only as a test oracle far from
the cut (``quadrature_moments`` in ``tests/conftest.py``).

Everything here is a pure function of immutable inputs; concurrent use
needs no coordination.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import dawsn, exp1, expi, gamma, wofz

from .errors import DomainError, WrongRegionError
from .params import GasParams, on_cut, require_finite, rho_of_c, side_sign, velocity_map

SQRT_PI = math.sqrt(math.pi)

#: half-line Gaussian moments  int_0^inf t**k exp(-t**2) dt = Gamma((k+1)/2)/2
_HALF_MOMENTS = np.array([float(gamma((k + 1) / 2)) / 2.0 for k in range(176)])

#: |Z| from which a half-line transform takes the moment series and the
#: downward recurrence instead of Phi and synthetic division
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

def _phi_halfline(z):
    """Phi(Z) = int_0^inf exp(-t**2)/(t - Z) dt, for |Z| < _SERIES_RADIUS.

    Half the full-line transform int_R exp(-t**2)/(t - Z) dt (Faddeeva, or
    Dawson on the axis) plus half of int_0^inf exp(-u)/(u - s) du, s = Z**2,
    whose products exp(-s)*E1(-s) and exp(-s)*Ei(s) stay far from overflow
    at |s| < 64.  For real ``Z`` it returns the principal value; ``Z = 0``
    is a logarithmic singularity that the moment prefactor removes.
    """
    z = np.asarray(z, dtype=complex)
    full, half = np.empty_like(z), np.empty_like(z)
    up, dn = z.imag > 0, z.imag < 0
    re = ~(up | dn)
    full[up] = 1j * math.pi * wofz(z[up])
    full[dn] = -1j * math.pi * wofz(-z[dn])
    full[re] = -2.0 * SQRT_PI * dawsn(z[re].real)
    s = z * z
    axis = z.imag == 0.0
    sr = s[axis].real
    half[axis] = np.where(sr > 0, -np.exp(-sr) * expi(np.maximum(sr, 1e-300)), 0.0)
    half[~axis] = np.exp(-s[~axis]) * exp1(-s[~axis])
    return 0.5 * (full + half)


def _cauchy_halfline_poly(a: float, z, phi_z):
    """Yield J_n = int_0^inf exp(-C**2) C**n (1+aC)**2 / (C - Z) dC, n = 0..4,
    for |Z| < _SERIES_RADIUS; ``phi_z`` holds Phi(Z) (ordinary or PV).

    Synthetic division of p_4(C) = C**4 (1+aC)**2 reduces each J_n to
    half-line Gaussian moments (over the top n + 2 quotient coefficients)
    plus p_n(Z)*Phi(Z); the two cancel more as |Z| grows.
    """
    # (p_4(C) - p_4(Z))/(C - Z) = sum b_k C**k
    b = np.empty((6,) + z.shape, dtype=complex)
    b[5] = a * a
    for j, c in zip(range(5, 0, -1), (2.0 * a, 1.0, 0.0, 0.0, 0.0)):
        b[j - 1] = c + z * b[j]
    p_at_z = np.zeros_like(z)
    for c in (a * a, 2.0 * a, 1.0):
        p_at_z = p_at_z * z + c
    for n in range(5):
        # a fresh copy, as when the outputs were pinned: from 16384 points on
        # numpy reuses it in place, forming phi * p, which rounds unlike p * phi
        yield (np.tensordot(_HALF_MOMENTS[:n + 2], b[4 - n:], axes=(0, 0))
               + p_at_z * phi_z.copy())
        p_at_z = p_at_z * z + 0.0  # p_{n+1}(Z)


def _cauchy_halfline_series(a: float, z) -> np.ndarray:
    """The same transforms J_0..J_4 for |Z| >= _SERIES_RADIUS; (5, z.size).

    J_n(Z) ~ -sum_k g_{n+k} Z**-(k+1), g_m = h_m + 2a h_{m+1} + a**2 h_{m+2}.
    Only J_4 is summed, each point up to its own smallest term (g is
    log-convex, so the terms only grow after it) or until its term is below
    1e-17 of its sum; finished points leave the working set.  The exact
    identity J_n = (J_{n+1} - g_n)/Z, stable downward here, gives J_3..J_0.
    """
    h = _HALF_MOMENTS
    g = h[:-2] + 2.0 * a * h[1:-1] + a * a * h[2:]
    out = np.empty((5, z.size), dtype=complex)
    live, w, total = np.arange(z.size), 1.0 / z, np.zeros_like(z)
    power, prev = -w, np.full(z.shape, np.inf)  # power = -Z**-(k+1)
    for gm in g[4:]:
        term = gm * power
        mag = np.abs(term)
        grew = mag > prev
        total = np.where(grew, total, total + term)
        done = grew | (mag <= 1e-17 * np.abs(total))
        if done.any():
            out[4, live[done]] = total[done]
            keep = ~done
            live, w, power, total, mag = live[keep], w[keep], power[keep], total[keep], mag[keep]
            if not live.size:
                break
        prev, power = mag, power * w
    out[4, live] = total
    for n in range(3, -1, -1):
        out[n] = (out[n + 1] - g[n]) / z
    return out


def _cauchy_halfline(a: float, z: np.ndarray) -> np.ndarray:
    """J_0..J_4 at one half-line's arguments Z, (5,) + z.shape; real if Z is."""
    real = not np.iscomplexobj(z)
    zf = np.asarray(z, dtype=complex).reshape(-1)
    out = np.empty((5, zf.size), dtype=complex)
    far = np.abs(zf) >= _SERIES_RADIUS
    if far.any():
        out[:, far] = _cauchy_halfline_series(a, zf[far])
    near = ~far
    if near.any():
        zs = zf[near]
        phi = _phi_halfline(zs)
        if real:
            phi = phi.real
        rows = _cauchy_halfline_poly(a, zs, phi)
        for n in range(5):  # each row freed once stored
            out[n, near] = next(rows)
    out = out.reshape((5,) + z.shape)
    return out.real if real else out


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
    dp, dm = 1.0 - a * z, 1.0 + a * z
    # C > 0 at Z+, C < 0 (as u = -C) at -Z-; one half-line held at a time
    out = _cauchy_halfline(a, z / dp) / dp
    jm = _cauchy_halfline(a, -(z / dm))
    for n in range(5):
        out[n] = z * (out[n] + (-1.0) ** (n + 1) * jm[n] / dm)
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


def off_cut_points(params: GasParams, z) -> np.ndarray:
    """``z`` as a complex array; DomainError if a point is not finite,
    WrongRegionError if one lies on the closed cut (the PV and boundary-value
    entry points take those)."""
    z = np.asarray(z, dtype=complex)
    require_finite("point", z)
    if np.any(on_cut(params, z)):
        raise WrongRegionError(
            "point lies on the spectral cut; use the PV or boundary-value entry points")
    return z


def moments_at(params: GasParams, z) -> MomentSet:
    """Moment set at a complex point off the cut ``[-alpha, alpha]``.

    ``z`` is any point not on the closed cut (the whole real axis when
    a = 0); :func:`off_cut_points` names the errors.
    """
    z = complex(off_cut_points(params, z))
    return MomentSet(point=z, region=Region.OFF_CUT, t=tn_offcut_array(params, z))


def moments_pv(params: GasParams, x: float) -> MomentSet:
    """Principal-value moment set at a real point inside the cut."""
    x = float(x)
    t = tn_pv_array(params, np.asarray(x)).astype(complex)
    return MomentSet(point=complex(x), region=Region.ON_CUT_PV, t=t)


def moments_boundary(params: GasParams, x: float, side: str) -> MomentSet:
    """Boundary values t_n(x +- i0) = t_n^PV(x) +- i*pi*x*C(x)**n*rho(x)."""
    x = float(x)
    region = Region.BOUNDARY_PLUS if side_sign(side) > 0 else Region.BOUNDARY_MINUS
    t = tn_boundary_array(params, x, side)
    return MomentSet(point=complex(x), region=region, t=t)
