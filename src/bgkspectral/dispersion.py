"""Dispersion matrix, determinant, cofactors, boundary relations, zeros.

The 3x3 dispersion matrix couples the three weighted moments of a
continuum eigenfunction.  ``lambda_matrix`` assembles its entries from
the moments t0..t4 (off the cut, as principal values or as boundary
values: ``tn_offcut_array``, ``tn_pv_array``, ``tn_boundary_array`` in
``moments``) by the structural rule (column = which moment multiplies,
row = which invariant is projected):

    entry(row, 0) = delta + (r0 + beta**2 r2) t_row - beta r2 t_{row+2}
    entry(row, 1) = delta + r1 t_{row+1}
    entry(row, 2) = delta + r2 (t_{row+2} - beta t_row)

The rule, not any tabulated element list, is ground truth: published
element tables for this family contain internal misprints (an r2 where
the rule yields r0 in the top-left entry, a t3 where it yields t2 in the
middle one), and printed cofactor expansions are similarly unreliable.
All determinants here are computed directly from the assembled matrix;
the boundary values add the rank-one jump i*pi*x*rho*Q~ to the PV one.
Nothing here integrates (the moments are closed-form): the lambda
evaluators keep a ``scheme`` for their positional callers and do not read it.

``lambda_fn``, ``lambda_pv`` and ``lambda_boundary`` evaluate a batch in
contiguous slices of at most 8192 points (``_det_by_slices``), so their
temporaries scale with the slice, not the batch: a 1e5-point ``lambda_fn``
peaks at about 7.5 MiB of traced memory, 1.5 MiB of it the output, and a
1e6-point one at 22 MiB, where the whole-batch evaluation took 37 and
373 MiB.  A batch of at most 8192 points is evaluated whole; in a larger
one a point's last bits depend on the slice partition (numpy's temporary
elision, the kernel's BLAS products).  The caller shares the slices with
one helper thread, started for the call and joined before it returns (none
on one CPU), with the bytes of the caller alone.  Evaluation is pure, but
one large batch beats fanning its points out over threads: numpy calls on
arrays of up to about 1e4 elements run slower on two threads than on one.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError, IllConditionedContourError
from .moments import _offcut_points, boundary_jump_array, tn_offcut_array, tn_pv_array
from .params import (GasParams, _inside_cut, on_cut, require_finite, rho_of_c, side_sign,
                     velocity_map)
from .quadrature import QuadratureScheme

#: points per slice of a bulk lambda evaluation (:func:`_det_by_slices`),
#: below the 16384 elements from which numpy elides temporaries
_LAMBDA_SLICE = 8192


def lambda_matrix(params: GasParams, t: np.ndarray) -> np.ndarray:
    """The 3x3 dispersion matrix (shape (3, 3) + tail) by the assembly rule
    from t0..t4 (shape (5,) + tail, as the ``tn_*_array`` functions give
    them), in their dtype."""
    beta, r0, r1, r2 = params.beta, params.r0, params.r1, params.r2
    tail = t.shape[1:]
    m = np.zeros((3, 3) + tail, dtype=t.dtype)
    for row in range(3):
        m[row, 0] = (r0 + beta**2 * r2) * t[row] - beta * r2 * t[row + 2]
        m[row, 1] = r1 * t[row + 1]
        m[row, 2] = r2 * (t[row + 2] - beta * t[row])
        m[row, row] += 1.0
    return m


def _det3(m: np.ndarray):
    """Determinant of a 3x3 (stack), written out to stay vectorized."""
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def _cofactors(matrix: np.ndarray, c) -> np.ndarray:
    """Replaced-column determinants: column k of ``matrix`` -> (1, C, C**2).

    Vectorized: ``matrix`` has shape (3, 3) + tail and ``c`` shape tail;
    the result has shape (3,) + tail.  Each is :func:`_det3` of the replaced
    matrix term for term, with the minors it shares formed once and no copy.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = matrix
    c = np.asarray(c, dtype=float)
    c2 = c * c
    p, r = c * m22 - m12 * c2, m10 * c2 - c * m20
    return np.stack([(m11 * m22 - m12 * m21) - m01 * p + m02 * (c * m21 - m11 * c2),
                     m00 * p - (m10 * m22 - m12 * m20) + m02 * r,
                     m00 * (m11 * c2 - c * m21) - m01 * r + (m10 * m21 - m11 * m20)])


def _q_tilde(params: GasParams, cof, c_mu):
    """Q~ = r0 L0 + r1 C(mu) L1 + r2 (C(mu)**2 - beta)(L2 - beta L0).

    ``cof`` holds L0, L1, L2 on its first axis.
    """
    return (
        params.r0 * cof[0]
        + params.r1 * c_mu * cof[1]
        + params.r2 * (c_mu * c_mu - params.beta) * (cof[2] - params.beta * cof[0])
    )


def _eigen_arrays(params: GasParams, x):
    """PV determinant, PV cofactors, rho and C at cut points ``x``, vectorized."""
    m = lambda_matrix(params, tn_pv_array(params, x))
    c = velocity_map(params, x)
    return _det3(m), _cofactors(m, c), rho_of_c(params, c), c


def _lambda_offcut(params: GasParams, z):
    """lambda off the cut; on the real axis beyond it Im lambda = Im z = +-0."""
    lam = np.asarray(_det3(lambda_matrix(params, tn_offcut_array(params, z))))
    np.copyto(lam.imag, np.imag(z), where=np.imag(z) == 0.0)
    return lam


def _lambda_pv(params: GasParams, x):
    return _det3(lambda_matrix(params, tn_pv_array(params, x)))


def _lambda_boundary(params: GasParams, x, sgn: float):
    """lambda_pv(x) + sgn*i*pi*x*rho*Q~(x, x) at float64 cut points ``x``; the
    jump is 0 where rho underflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # C**2 past |x| = 1e154 at a = 0
        det, cof, rho, c = _eigen_arrays(params, x)
        jump = np.where(rho > 0.0, math.pi * x * rho * _q_tilde(params, cof, c), 0.0)
    return np.stack([det, sgn * jump], axis=-1).view(complex)[..., 0]  # signed zeros kept


def _det_by_slices(params: GasParams, dtype, evaluate, points, *args):
    """``evaluate(params, p, *args)``, lambda at the points ``p``, over ``points``.

    ``points`` come checked whole by the caller, as an array in the dtype
    ``evaluate`` takes, so a bad point in any slice raises before a slice
    is evaluated, as the unsliced evaluation would.  A batch of at most
    _LAMBDA_SLICE points is passed whole and as given (a 0-d point rounds
    unlike a one-point array).  A larger one is flattened and cut into
    k = ceil(N/_LAMBDA_SLICE) contiguous slices, slice i holding points
    i*N//k up to (i+1)*N//k; their values fill one output of the batch's
    shape and ``dtype``.

    The caller starts one helper thread for the call, unless the process
    may run on one CPU only, and joins it before returning.  Both take
    slices from one iterator, the helper in a copy of the caller's context
    (numpy's ``errstate``).  Each slice is computed as it would be alone, so
    the bytes do not depend on which thread ran it.  An exception in either
    thread leaves the other no further slice and reaches the caller.
    """
    k = -(-points.size // _LAMBDA_SLICE)
    if k <= 1:
        return evaluate(params, points, *args)
    flat, out = points.reshape(-1), np.empty(points.size, dtype)
    slices = iter(range(k))  # a range iterator hands out each index once, under the GIL
    errors = []

    def drain():
        try:
            for i in slices:
                lo, hi = i * flat.size // k, (i + 1) * flat.size // k
                out[lo:hi] = evaluate(params, flat[lo:hi], *args)
        except BaseException as exc:  # raised again in the caller, after the join
            errors.append(exc)
            for _ in slices:
                pass

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if cpus > 1:
        helper = threading.Thread(target=contextvars.copy_context().run, args=(drain,))
        helper.start()
        drain()
        helper.join()
    else:
        drain()
    if errors:
        raise errors[0]
    return out.reshape(points.shape)


def lambda_fn(params: GasParams, scheme: QuadratureScheme, z):
    """Dispersion function lambda(z) = det(matrix) for z off the cut.

    Accepts scalars or arrays.  The determinant is evaluated directly from
    the assembled 3x3 matrix, a large batch in slices
    (:func:`_det_by_slices`).  Points that are not finite or lie on the cut
    raise as in :func:`~bgkspectral.moments.tn_offcut_array`.
    """
    det = _det_by_slices(params, complex, _lambda_offcut, _offcut_points(params, z))
    return complex(det) if det.ndim == 0 else det


def lambda_pv(params: GasParams, scheme: QuadratureScheme, x):
    """lambda at cut points with all moments taken as principal values, the
    mean (lambda+ + lambda-)/2 of the boundary values (:func:`lambda_boundary`)."""
    det = _det_by_slices(params, float, _lambda_pv, _inside_cut(params, "x", x))
    return float(det) if det.ndim == 0 else det


def lambda_boundary(params: GasParams, scheme: QuadratureScheme, x, side: str):
    """Boundary values lambda(x +- i0) on the cut; vectorized over x.

    lambda+- = lambda_pv +- i*pi*x*rho*Q~(x, x) from the real PV matrix and its cofactors
    (DERIVATION_NOTES, "Boundary jump"): lambda- = conj lambda+ and their mean is
    :func:`lambda_pv`, bit for bit.  :func:`sokhotsky_jump` checks it with complex determinants.
    """
    sgn = side_sign(side)  # checked before the points, as tn_boundary_array does
    det = _det_by_slices(params, complex, _lambda_boundary, _inside_cut(params, "x", x), sgn)
    return complex(det) if det.ndim == 0 else det


@dataclass(frozen=True)
class SokhotskyJump:
    """Measured boundary jump of lambda against the rank-one prediction.

    ``claimed_jump`` is 2*pi*i*rho(x)*Q~(x, x) (PV cofactors); the measured
    jump carries an extra factor ``x`` relative to it -- ``ratio`` stores
    measured/claimed and is x (to rounding) wherever the claim is nonzero.
    ``average`` is (lambda+ + lambda-)/2 and matches ``pv`` identically.
    """

    x: float
    lambda_plus: complex
    lambda_minus: complex
    jump: complex
    claimed_jump: complex
    ratio: complex
    average: complex
    pv: float


def sokhotsky_jump(params: GasParams, x: float) -> SokhotskyJump:
    """Boundary values of lambda on the cut and their jump diagnostics."""
    x = float(_inside_cut(params, "x", x))
    t_pv = tn_pv_array(params, x)
    half_jump = boundary_jump_array(params, x)
    lp = complex(_det3(lambda_matrix(params, t_pv + half_jump)))
    lm = complex(_det3(lambda_matrix(params, t_pv - half_jump)))
    m_pv = lambda_matrix(params, t_pv)
    c = velocity_map(params, x)
    qt = float(_q_tilde(params, _cofactors(m_pv, c), c))
    rho = float(rho_of_c(params, np.asarray(c)))
    claimed = 2j * math.pi * rho * qt
    jump = lp - lm
    ratio = jump / claimed if claimed != 0 else complex("nan")
    return SokhotskyJump(
        x=x,
        lambda_plus=lp,
        lambda_minus=lm,
        jump=jump,
        claimed_jump=claimed,
        ratio=ratio,
        average=0.5 * (lp + lm),
        pv=float(_det3(m_pv)),
    )


# ---------------------------------------------------------------------------
# argument-principle zero counting
# ---------------------------------------------------------------------------

def _polyline_points(vertices, total: int, level: int, odd: int) -> np.ndarray:
    """Sample a closed polyline densely: every point j, or the odd ones.

    Each segment gets ``k0 = max(2, ceil(total * length / perimeter))``
    points at level 0 and ``k = k0 * 2**level`` at ``level``.  Point j of
    z0 -> z1 is ``((k - j) / k) z0 + (j / k) z1``, exact under z -> conj z,
    z -> -z and reversal: symmetric vertices give samples symmetric bit for
    bit (up to the sign of zero).  Level L + 1 holds level L bit for bit at
    its even indices (``2j / 2k`` rounds as ``j / k``); from level 1 on
    every k is even, so ``odd = 1`` gives the midpoints a level adds.
    """
    v = np.asarray(vertices, dtype=complex)
    if abs(v[0] - v[-1]) > 1e-12:
        v = np.append(v, v[0])
    seg = np.abs(np.diff(v))
    if not seg.sum() > 0.0:
        raise DomainError("contour has zero length")
    k = np.maximum(2, np.ceil(total * seg / seg.sum()).astype(np.int64)) << level
    count = k >> odd
    starts = np.cumsum(count) - count
    j = ((np.arange(count.sum()) - np.repeat(starts, count)) << odd) + odd
    k, z0, z1 = np.repeat(k, count), np.repeat(v[:-1], count), np.repeat(v[1:], count)
    return (k - j) / k * z0 + j / k * z1


def winding_number(values: np.ndarray) -> tuple[float, float]:
    """Total argument change of a closed sequence, in turns, and the largest
    step, in radians, both read from one continuous unwrapping."""
    phase = np.unwrap(np.angle(values))
    return (phase[-1] - phase[0]) / (2.0 * math.pi), np.max(np.abs(np.diff(phase)))


def _lambda_by_orbit(params: GasParams, z):
    """lambda at ``z`` from the distinct ``|Re z| + i|Im z|``, by lambda(-z) = lambda(z)
    (even collision frequency) and lambda(conj z) = conj lambda(z) (real weights)."""
    order = np.lexsort((np.abs(z.imag), np.abs(z.real)))  # np.unique's order, no complex sort
    rep = np.abs(z.real[order]) + 1j * np.abs(z.imag[order])
    first = np.ones(rep.size, dtype=bool)
    first[1:] = rep[1:] != rep[:-1]
    back = np.empty_like(order)
    back[order] = np.cumsum(first) - 1
    vals = lambda_fn(params, None, rep[first])[back]
    return np.where(z.real * z.imag < 0, vals.conj(), vals)


def count_zeros(params: GasParams, contour) -> int:
    """Number of zeros of lambda enclosed by a closed polyline contour.

    The contour must avoid the cut; lambda is sampled densely along it and
    the winding number of the image curve is tracked with continuous
    argument unwrapping, from about 4096 samples up, doubling the sampling
    (at most five levels) until the integer is stable and every step turns
    by less than half a radian.  The refinement is nested (see
    :func:`_polyline_points`): each level keeps the values of the one
    before and adds the new midpoints, with lambda evaluated once per
    orbit of z -> conj z, -z (:func:`_lambda_by_orbit`).  The samples of
    :func:`keyhole_contour` and :func:`semicircle_contour` are closed under
    those maps, so a level costs a quarter or a half of its points.

    Raises
    ------
    DomainError
        If a contour vertex is not finite, or the contour has zero length.
    IllConditionedContourError
        If the contour touches the cut, lambda drops below 1e-8 on it, or
        the winding fails to stabilize.
    """
    v = np.asarray(contour, dtype=complex)
    require_finite("contour", v)
    if np.any(on_cut(params, v)):
        raise IllConditionedContourError("contour touches the spectral cut")

    prev = None
    # lambda at the current level's samples; the closing point repeats the first
    vals = _lambda_by_orbit(params, _polyline_points(v, 4096, 0, 0))
    for level in range(5):
        if level:  # keep the values of the level before, add its midpoints
            kept, vals = vals, np.empty(2 * vals.size, dtype=complex)
            vals[0::2] = kept
            vals[1::2] = _lambda_by_orbit(params, _polyline_points(v, 4096, level, 1))
        if np.min(np.abs(vals)) < 1e-8:
            raise IllConditionedContourError("lambda smaller than 1e-8 on the contour")
        w, step = winding_number(np.append(vals, vals[0]))
        if abs(w - round(w)) < 0.05 and step < 0.5:
            if prev is not None and round(w) == prev:
                return int(round(w))
            prev = int(round(w))
    raise IllConditionedContourError("winding number did not stabilize")


def keyhole_contour(params: GasParams, half_width: float, half_height: float) -> np.ndarray:
    """Boundary of the rectangle minus a 1e-2 neighbourhood of the cut.

    A single closed polyline: the outer rectangle traversed counterclockwise,
    joined through a doubly-traversed corridor along the negative real axis
    (off the cut, where lambda is real and analytic) to the stadium around
    the cut traversed clockwise.  Zero enclosed zeros means the winding
    vanishes.  The lower half is the upper half conjugated and reversed, and
    the left cap is the right one reflected by z -> -conj z: the vertices
    are closed under z -> conj z, and off the corridor under z -> -conj z.
    Requires a > 0, finite sizes and half_width > alpha + 2e-2.
    """
    alpha = params.alpha
    if not math.isfinite(alpha):
        raise DomainError("keyhole contour needs a finite cut (a > 0)")
    require_finite("half_width", half_width)
    require_finite("half_height", half_height)
    d, w, h = 1e-2, half_width, half_height
    if w <= alpha + 2 * d:
        raise DomainError("rectangle too narrow to clear the cut")
    # upper right cap, clockwise from alpha + i d to alpha + d
    cap = alpha + d * np.exp(1j * np.linspace(0.5 * math.pi, 0.0, 24))
    upper = np.concatenate([[w, w + 1j * h, -w + 1j * h, -w], -np.conj(cap[::-1]), cap])
    return np.concatenate([upper, np.conj(upper[-2::-1])])


def semicircle_contour() -> np.ndarray:
    """Closed upper-half-plane contour: a radius-6 half-circle, 64 arc points,
    on a base 1e-2 above the real axis.  Its right quarter is reflected by
    z -> -conj z, so the vertices are closed under that map."""
    radius, base_im = 6.0, 1e-2
    arc = radius * np.exp(1j * np.linspace(0.0, math.pi, 64)[:32]) + 1j * base_im
    right = np.concatenate([[1j * base_im], arc])
    return np.concatenate([right, -np.conj(right[::-1])])


def laurent_order_at_infinity(params: GasParams):
    """Order and leading coefficient of the zero of lambda at infinity.

    Fits ``lambda ~ c / z**k`` by log-log regression of the angular mean
    of |lambda| over three radii at 8 angles (clear of the real axis).
    The coefficient is the angular mean of ``z**k lambda(z)`` at the
    largest radius; with the angles equally spaced over the upper
    half-circle the subleading Laurent terms average out to O(R**-2n).

    The radii are {10, 20, 40}, scaled up when the cut half-width
    exceeds unity so the fit stays in the asymptotic regime.

    Returns
    -------
    (order, coeff) : (int, complex)

    Raises
    ------
    EvaluationError
        If the fitted order is not close to an integer.
    """
    scale = max(1.0, params.alpha) if math.isfinite(params.alpha) else 1.0
    radii = np.array([10.0, 20.0, 40.0]) * scale
    th = math.pi * (np.arange(8) + 0.5) / 8
    ring = np.exp(1j * th)
    log_r, log_mag = [], []
    for r in radii:
        z = r * ring
        vals = lambda_fn(params, None, z)
        log_r.append(math.log(r))
        log_mag.append(np.mean(np.log(np.abs(vals))))
    slope, _ = np.polyfit(log_r, log_mag, 1)
    order = -slope
    k = int(round(order))
    if abs(order - k) > 0.2:
        raise EvaluationError(f"Laurent fit did not converge: slope {order:.3f}")
    # z and vals are left at the largest radius
    coeff = np.mean(z**k * vals)
    return k, complex(coeff)
