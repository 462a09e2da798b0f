"""The five Cauchy-type moment integrals t0..t4 of the dispersion theory.

For a point ``z`` off the spectral cut,

    t_n(z) = z * int_{-alpha}^{alpha} C(mu)**n rho(mu) / (mu - z) d(mu),

with principal-value and boundary-value variants on the cut:
``tn_offcut_array``, ``tn_pv_array`` and ``tn_boundary_array`` give the
three for a scalar point or an array of them, t_n on a leading axis.  In the
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
integral.  The construction keeps its accuracy down to the cut (the fixed
quadrature rule, by contrast, loses all digits within O(1) of it); far from
the origin lambda, formed from these moments, loses digits like eps*|z|**4,
right to 8 digits at |z| = 1e4 and off in the 4th at 1e6.  Synthetic
division cancels more as |Z| grows, so from |Z| = 8 on the far points of
both half-lines at once sum the asymptotic moment series of the n = 4 piece
by Horner's rule over a fixed 53 orders and get n = 3..0 by an exact
downward recurrence, with temporaries of O(N) like the near branch's.
On the cut every argument is real and the kernel stays in float64 (Dawson
and Ei for Faddeeva and E1), with the bits complex arithmetic would give.
At a = 0 the C < 0 half-line sits at -Z+, so Phi(-Z) reuses the special
functions of Phi(Z); off the cut only Faddeeva, as the even E1 half of Phi
cancels between them in every t_n.  Direct quadrature of the moments serves only as a
test oracle far from the cut (``quadrature_moments`` in ``tests/conftest.py``).

Byte contract: outputs are pinned bit for bit, so a change keeps each
operation's operands, their order and numpy's inner loop.  Bits stay with
``np.dot`` of complex (1, k) moment rows (the product np.tensordot makes),
whole-batch calls in place of masked ones, index gathers and scatters in
place of mask ones, and ``out=`` into fresh arrays.  They move with swapped
complex factors (fused multiply-add; hence the ``.copy()`` for temporary
elision), in-place complex products, a float64 dot, ``/ z`` for
``* (1/z)`` in the series, and another BLAS batch.

Everything here is a pure function of immutable inputs; concurrent use
needs no coordination.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import dawsn, exp1, expi, gamma, wofz

from .errors import WrongRegionError
from .params import (GasParams, _inside_cut, on_cut, require_finite, rho_of_c, side_sign,
                     velocity_map)

SQRT_PI = math.sqrt(math.pi)

#: |Z| from which a half-line transform takes the moment series and the
#: downward recurrence instead of Phi and synthetic division
_SERIES_RADIUS = 8.0

#: Horner steps of the J_4 series past its leading order: at |Z| = 8 the
#: terms still shrink (the smallest lies near order 2|Z|**2) and fall below
#: 1e-17 of the sum by order 51 for every a
_SERIES_TERMS = 52

#: half-line Gaussian moments  int_0^inf t**k exp(-t**2) dt = Gamma((k+1)/2)/2,
#: and the rows h_0..h_{n+1} of J_0..J_4 as np.dot casts them for the quotient
_HALF_MOMENTS = np.array([float(gamma((k + 1) / 2)) / 2.0 for k in range(_SERIES_TERMS + 7)])
_HALF_MOMENT_ROWS = tuple(_HALF_MOMENTS[None, :n + 2].astype(complex) for n in range(5))


# ---------------------------------------------------------------------------
# special-function kernel
# ---------------------------------------------------------------------------

def _phi_pieces(z, a: float):
    """``full`` and ``half`` of Phi(Z) = int_0^inf exp(-t**2)/(t - Z) dt =
    (full + half)/2, |Z| < _SERIES_RADIUS: the transform over the whole line
    (Faddeeva, or Dawson on the axis), odd in Z, and int_0^inf exp(-u)/(u - s) du
    at s = Z**2, whose exp(-s)*E1(-s) and exp(-s)*Ei(s) stay far from
    overflow at |s| < 64.  Real ``Z`` stays float64 (the principal value);
    ``Z = 0`` is a logarithmic singularity that the moment prefactor removes.
    At a = 0 off the real axis ``half`` is 0.0: it cancels between Z and -Z.
    """
    if not np.iscomplexobj(z):
        s = z * z
        return (-2.0 * SQRT_PI * dawsn(z),
                np.where(s > 0, -np.exp(-s) * expi(np.maximum(s, 1e-300)), 0.0))
    up, dn = z.imag > 0, z.imag < 0
    n_up, n_dn = np.count_nonzero(up), np.count_nonzero(dn)
    if n_up + n_dn < z.size:  # points on the real axis beyond the cut
        full, half = np.empty_like(z), np.empty_like(z)
        off = up | dn
        full[~off], half[~off] = _phi_pieces(z[~off].real, a)
        if n_up + n_dn:
            full[off], half[off] = _phi_pieces(z[off], a)
        return full, half
    if z.size in (n_up, n_dn):
        full = 1j * math.pi * wofz(z) if n_up else -1j * math.pi * wofz(-z)
    else:
        full = np.empty_like(z)
        full[up] = 1j * math.pi * wofz(z[up])
        full[dn] = -1j * math.pi * wofz(-z[dn])
    if a == 0.0:
        return full, 0.0
    ms = -(z * z)
    return full, np.exp(ms) * exp1(ms)


def _cauchy_halfline_poly(a: float, z, phi_z):
    """Yield J_n = int_0^inf exp(-C**2) C**n (1+aC)**2 / (C - Z) dC, n = 0..4,
    for |Z| < _SERIES_RADIUS, ``z`` of shape (N,); ``phi_z`` holds Phi(Z).

    Synthetic division of p_4(C) = C**4 (1+aC)**2 reduces each J_n to
    half-line Gaussian moments (over the top n + 2 quotient coefficients)
    plus p_n(Z)*Phi(Z), which cancel more as |Z| grows.  The moment part is a
    complex BLAS product for real ``Z`` too: a float64 one sums in another order.
    """
    # (p_4(C) - p_4(Z))/(C - Z) = sum b_k C**k
    b = np.empty((6,) + z.shape, dtype=z.dtype)
    b[5] = a * a
    for j, c in zip(range(5, 0, -1), (2.0 * a, 1.0, 0.0, 0.0, 0.0)):
        np.add(c, np.multiply(z, b[j], out=b[j - 1]), out=b[j - 1])
    b = b.astype(complex, copy=False)
    p_at_z = np.zeros(z.shape, dtype=z.dtype)
    for c in (a * a, 2.0 * a, 1.0):
        p_at_z = p_at_z * z + c
    for n, h in enumerate(_HALF_MOMENT_ROWS):
        dot = np.dot(h, b[4 - n:])[0]
        # a fresh copy, as when the outputs were pinned: from 16384 points on
        # numpy reuses it in place, forming phi * p, which rounds unlike p * phi
        yield (dot if z.dtype == complex else dot.real) + p_at_z * phi_z.copy()
        p_at_z = p_at_z * z + 0.0  # p_{n+1}(Z)


def _series_coefficients(a: float) -> np.ndarray:
    """g_m = int_0^inf C**m (1+aC)**2 exp(-C**2) dC, m = 0..4 + _SERIES_TERMS."""
    h = _HALF_MOMENTS
    return h[:-2] + 2.0 * a * h[1:-1] + a * a * h[2:]


def _cauchy_halfline_series(a: float, z) -> np.ndarray:
    """The same transforms J_0..J_4 for |Z| >= _SERIES_RADIUS; (5, z.size).

    J_4 ~ -sum_k g_{4+k} w**(k+1), w = 1/Z, by Horner's rule over k <=
    _SERIES_TERMS, and the exact identity J_n = (J_{n+1} - g_n) w, stable
    downward here, gives J_3..J_0.  Real ``Z`` gives the real part of Z + 0j.
    """
    g = _series_coefficients(a)
    w, s = 1.0 / z, np.full(z.shape, g[4 + _SERIES_TERMS], dtype=z.dtype)
    for m in range(3 + _SERIES_TERMS, 3, -1):
        s = s * w + g[m]
    out = np.empty((5,) + z.shape, dtype=z.dtype)
    out[4] = -(s * w)
    for n in range(3, -1, -1):
        out[n] = (out[n + 1] - g[n]) * w
    return out


def _divisors(a: float, z: np.ndarray):
    """The half-line divisors dp = 1 - az and dm = 1 + az, with the masks
    ``edges`` of the points (complex z, a > 0) a subnormal distance from a
    branch point +-alpha, where Z = z/d would overflow; there d is set to 1."""
    dp, dm = 1.0 - a * z, 1.0 + a * z
    edges = [np.abs(d) < 1e-300 * np.abs(z) for d in (dp, dm) if a > 0.0 and np.iscomplexobj(z)]
    if np.count_nonzero(edges):
        dp, dm = np.where(edges[0], 1.0, dp), np.where(edges[1], 1.0, dm)
    return dp, dm, edges


def _halfline_points(z: np.ndarray, dp, dm):
    """Z+ = z/dp (C > 0) and -Z- = -(z/dm) (C < 0, as u = -C), flattened, each
    with its far mask (|Z| >= _SERIES_RADIUS) and the count of far points."""
    for minus, d in ((False, dp), (True, dm)):
        zh = (-(z / d) if minus else z / d).reshape(-1)
        far = np.abs(zh) >= _SERIES_RADIUS
        yield zh, far, np.count_nonzero(far)


def _halfline_pieces(a: float, z: np.ndarray) -> list:
    """The special functions of :func:`_tn_halflines` at the points ``z``: the
    ``_phi_pieces`` of each half-line's near points, in the order it consumes
    them.  At a = 0 only the C > 0 half-line's, which the C < 0 one mirrors."""
    dp, dm, _ = _divisors(a, z)
    pieces = []
    for zh, far, n_far in _halfline_points(z, dp, dm):
        if n_far < zh.size and not (a == 0.0 and pieces):
            pieces.append(_phi_pieces(zh[slice(None) if not n_far else np.flatnonzero(~far)], a))
    return pieces


def _cauchy_halflines(a: float, z: np.ndarray, dp, dm, pieces: list):
    """J_0..J_4 on both half-lines of the points ``z``: at Z+ = z/dp (C > 0)
    and at -Z- = -(z/dm) (C < 0, as u = -C); two (5,) + z.shape arrays in
    the dtype of ``z``.  ``pieces`` holds the special functions of the near
    points (:func:`_halfline_pieces`), each taken out as it is used.  At
    a = 0, -Z- is -Z+, and Phi(-Z) = (half - full)/2 reuses those of Phi(Z).
    The far points of both half-lines share one series call; wholly near or
    far half-lines skip the index gathers and scatters.
    """
    outs, pending, mirrored, shape = [], [], None, (5,) + np.shape(z)
    for zh, far, n_far in _halfline_points(z, dp, dm):
        out = np.empty((5, zh.size), dtype=zh.dtype)
        if n_far:
            at = slice(None) if n_far == zh.size else np.flatnonzero(far)
            pending.append((out, at, zh[at]))
        if n_far < zh.size:
            near = slice(None) if not n_far else np.flatnonzero(~far)
            zn = zh[near]
            if mirrored is None:
                full, half = pieces.pop(0)
                phi = 0.5 * (full + half)
                if a == 0.0:
                    mirrored = 0.5 * (half - full)
                del full, half
            else:
                phi = mirrored
            for n, row in enumerate(_cauchy_halfline_poly(a, zn, phi)):
                out[n, near] = row  # each row freed once stored
            del zn, phi, row
        outs.append(out.reshape(shape))
    if pending:  # the far points of both half-lines
        rows, start = _cauchy_halfline_series(a, np.concatenate([p[2] for p in pending])), 0
        for out, at, zf in pending:
            out[:, at], start = rows[:, start:start + zf.size], start + zf.size
    return outs


# ---------------------------------------------------------------------------
# t_n evaluation
# ---------------------------------------------------------------------------

def _tn_halflines(a: float, z: np.ndarray, pieces: list) -> np.ndarray:
    """t0..t4 as the sum of the two factorized half-line transforms, with the
    special functions ``pieces`` = :func:`_halfline_pieces` ``(a, z)``.

    ``z`` is complex (a point off the cut) or real and nonnegative (``|x|``
    for the principal value).  Real ``z`` stays in real arithmetic, because
    a complex division by ``1 - a*z`` rounds differently from a real one.
    At real ``z = 0`` the result is finite and the caller sets it.  At the
    ``edges`` of :func:`_divisors` J_n(Z)/d is set to the series' leading
    term -g_n/(Z d), Z d = z (C > 0) or -z (C < 0).
    """
    dp, dm, edges = _divisors(a, z)
    out, jm = _cauchy_halflines(a, z, dp, dm, pieces)
    if np.count_nonzero(edges):
        g = _series_coefficients(a)[:5, None]
        out[:, edges[0]], jm[:, edges[1]] = -g / z[edges[0]], g / z[edges[1]]
    out /= dp
    for n in range(5):
        out[n] = z * (out[n] + (-1.0) ** (n + 1) * jm[n] / dm)
    return out


# Each tn_*_array function is a check, a staging step that makes every
# special-function call of the kernel (``_tn_pieces``) and the step that
# consumes them (``_tn_offcut``, ``_tn_pv``): bulk lambda evaluation stages a
# slice on another thread than the one consuming it.

def _offcut_points(params: GasParams, z) -> np.ndarray:
    """``z`` as a complex array, checked to lie off the closed cut as
    :func:`tn_offcut_array` requires."""
    z = np.asarray(z, dtype=complex)
    require_finite("point", z)
    if np.count_nonzero(on_cut(params, z)):
        raise WrongRegionError(
            "point lies on the spectral cut; use the PV or boundary-value entry points")
    return z


def _lifted(z: np.ndarray):
    """The points below |z| = 1e-150, where Z**2 would underflow, and ``z``
    with those moved to 1j."""
    tiny = np.abs(z) < 1e-150
    return tiny, np.where(tiny, 1j, z) if np.count_nonzero(tiny) else z


def _tn_pieces(params: GasParams, p: np.ndarray) -> list:
    """The special functions of :func:`_tn_offcut` at checked complex points
    ``p``, or of :func:`_tn_pv` at checked real ones."""
    return _halfline_pieces(params.a, _lifted(p)[1] if np.iscomplexobj(p) else np.abs(p))


def _tn_offcut(params: GasParams, z: np.ndarray, pieces: list) -> np.ndarray:
    """:func:`tn_offcut_array` at checked points, given their ``_tn_pieces``."""
    tiny, lifted = _lifted(z)
    out = _tn_halflines(params.a, lifted, pieces)
    out[:, tiny] = 0.0
    np.copyto(out.imag, z.imag, where=z.imag == 0.0)
    return out


def tn_offcut_array(params: GasParams, z) -> np.ndarray:
    """t0..t4 at points off the cut; shape (5,) + z.shape, complex.

    ``z`` is any point not on the closed cut (the whole real axis when
    a = 0): DomainError if a point is not finite, WrongRegionError if one
    lies on the closed cut (:func:`tn_pv_array` and :func:`tn_boundary_array`
    take those).  Below |z| = 1e-150, where Z**2 would underflow,
    |t_n| = O(|z| log|z|) is below 1e-147 and t_n is set to 0.  Real beyond
    the cut on the real axis, t_n has the sign of Im z on its zero imaginary part.
    """
    z = _offcut_points(params, z)
    return _tn_offcut(params, z, _tn_pieces(params, z))


def _tn_pv(params: GasParams, x: np.ndarray, pieces: list) -> np.ndarray:
    """:func:`tn_pv_array` at checked cut points, given their ``_tn_pieces``."""
    ax = np.abs(x)
    out = np.where(ax > 0.0, _tn_halflines(params.a, ax, pieces), 0.0)
    # parity t_n(-x) = (-1)**n t_n(x)
    out[1::2] *= np.where(x < 0, -1.0, 1.0)
    return out


def tn_pv_array(params: GasParams, x) -> np.ndarray:
    """Principal-value t0..t4 at real cut points; shape (5,) + x.shape, real.

    DomainError if a point is not real, not finite or not inside the open cut.
    """
    x = _inside_cut(params, "x", x)
    return _tn_pv(params, x, _tn_pieces(params, x))


def boundary_jump_array(params: GasParams, x) -> np.ndarray:
    """The Plemelj half-jump i*pi*x*C(x)**n*rho(x); shape (5,) + x.shape.

    At a = 0 past |x| of about 1e77, rho underflows to 0 and C**n
    overflows; the entries 0 * inf makes NaN there are 0.
    """
    x = _inside_cut(params, "x", x)
    c = np.asarray(velocity_map(params, x), dtype=float)
    jx = 1j * math.pi * x
    with np.errstate(over="ignore", invalid="ignore"):
        rho = rho_of_c(params, c)
        out = np.stack([jx * c**n * rho for n in range(5)])
    np.copyto(out, 0.0, where=np.isnan(out))
    return out


def tn_boundary_array(params: GasParams, x, side) -> np.ndarray:
    """Boundary values t_n(x +- i0) = t_n^PV(x) +- i*pi*x*C(x)**n*rho(x)."""
    sgn = side_sign(side)
    return tn_pv_array(params, x) + sgn * boundary_jump_array(params, x)
