"""Model constants and the velocity-variable machinery.

The kinetic model is parameterized by a single nonnegative slope ``a`` of
the collision frequency ``nu(C) = 1 + a|C|`` (dimensionless thermal speed
``C``).  Everything else -- the orthogonality constant ``beta``, the three
kernel coefficients ``r0, r1, r2``, the half-width ``alpha = 1/a`` of the
continuous spectrum, and the bijection between the transport variable
``mu`` and the speed variable ``C`` -- derives from ``a``.

Conventions
-----------
All formulas use the rescaled slope convention in which the collision
frequency reads ``1 + a|C|`` (no stray ``sqrt(pi)`` in front of ``a``).
An older parameterization that writes the frequency as
``1 + sqrt(pi)*a'|C|`` describes the same family with ``a = sqrt(pi)*a'``;
it is intentionally not exposed as a code path.

Integrals over ``mu`` on ``(-alpha, alpha)`` with weight ``rho(mu)`` are
always performed in the ``C`` variable through the exact identity

    rho(mu) d(mu) = exp(-C**2) * (1 + a*|C|) dC,

which turns the singular-looking endpoint behaviour of ``rho`` into a
smooth Gaussian-weighted integrand on the whole real line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class GasParams:
    """Dimensionless model constants for one value of the frequency slope.

    Attributes
    ----------
    a : float
        Collision-frequency slope, ``a >= 0``.
    alpha : float
        Half-width of the continuous spectrum, ``1/a`` (``inf`` for a=0).
    beta : float
        Orthogonality constant of the energy invariant,
        ``beta = (2a + sqrt(pi)) / (2(a + sqrt(pi)))``.
    r0, r1, r2 : float
        Kernel coefficients of the collision operator.

    Instances are immutable; all operations on them are pure functions and
    safe for unrestricted concurrent use.
    """

    a: float
    alpha: float
    beta: float
    r0: float
    r1: float
    r2: float


def make_params(a: float) -> GasParams:
    """Build the model constants for frequency slope ``a``.

    Parameters
    ----------
    a : float
        Nonnegative, finite collision-frequency slope.  ``a = 0`` gives the
        constant-frequency model (spectrum covering the whole real line);
        large ``a`` approaches the frequency-proportional-to-speed model.

    Returns
    -------
    GasParams

    Raises
    ------
    DomainError
        If ``a`` is negative or not finite.
    """
    a = float(a)
    if not math.isfinite(a) or a < 0.0:
        raise DomainError(f"frequency slope must be finite and >= 0, got {a}")
    alpha = math.inf if a == 0.0 else 1.0 / a
    beta = (2.0 * a + SQRT_PI) / (2.0 * (a + SQRT_PI))
    r0 = 1.0 / (a + SQRT_PI)
    r1 = 2.0 / (2.0 * a + SQRT_PI)
    r2 = 4.0 * (a + SQRT_PI) / (4.0 * a * a + 7.0 * SQRT_PI * a + 2.0 * math.pi)
    return GasParams(a=a, alpha=alpha, beta=beta, r0=r0, r1=r1, r2=r2)


def _inside_cut(params: GasParams, name: str, x) -> np.ndarray:
    """``x`` as a float64 array, checked to be real and inside the open cut
    (-alpha, alpha), the one home of that check; DomainError naming ``name``
    and a bad entry otherwise.  Valid input costs one comparison."""
    x = require_real(name, x)
    inside = np.abs(x) < params.alpha
    if np.count_nonzero(inside) < x.size:  # NaN fails the comparison too
        require_finite(name, x)
        raise DomainError(f"{name} is not inside the cut (-{params.alpha}, {params.alpha}): "
                          f"{x[~inside][0]}")
    return x


def velocity_map(params: GasParams, mu):
    """Map the transport variable to the speed variable, C = mu/(1 - a|mu|).

    Odd and strictly increasing on ``(-alpha, alpha)``, diverging at the
    endpoints.  Accepts scalars or arrays.

    Raises
    ------
    DomainError
        If ``mu`` is complex, not finite or not inside the open cut.
    """
    mu = _inside_cut(params, "mu", mu)
    c = mu / (1.0 - params.a * np.abs(mu))
    return c if c.ndim else float(c)

def mu_of(params: GasParams, c):
    """Inverse of :func:`velocity_map`: mu = C/(1 + a|C|), defined on all of R.

    A ``c`` that is complex or not finite raises DomainError.
    """
    c = require_real("c", c)
    require_finite("c", c)
    mu = c / (1.0 + params.a * np.abs(c))
    return mu if mu.ndim else float(mu)


def side_sign(side) -> float:
    """+1.0 for the boundary value x + i0 on the cut, -1.0 for x - i0.

    ``side`` is "plus", "+" or 1, or "minus", "-" or -1; anything else
    raises DomainError.
    """
    if side in ("plus", "+", 1):
        return 1.0
    if side in ("minus", "-", -1):
        return -1.0
    raise DomainError(f"side must be 'plus' or 'minus', got {side!r}")


def require_finite(name: str, value) -> None:
    """Raise DomainError naming ``name`` and a bad entry unless ``value`` is
    finite everywhere."""
    bad = ~np.isfinite(value)
    if np.count_nonzero(bad):
        raise DomainError(f"{name} is not finite: {np.asarray(value)[bad][0]}")


def require_real(name: str, value) -> np.ndarray:
    """``value`` as a float64 array; DomainError naming ``name`` and the first
    entry with a nonzero imaginary part, if there is one.  A zero imaginary
    part is dropped."""
    value = np.asarray(value)
    if np.iscomplexobj(value):
        bad = value.imag != 0.0
        if np.count_nonzero(bad):
            raise DomainError(f"{name} is not real: {value[bad][0]}")
        value = value.real.copy()
    return np.asarray(value, dtype=float)


def on_cut(params: GasParams, z) -> np.ndarray:
    """Elementwise test for the closed cut [-alpha, alpha] (the real axis at a=0)."""
    z = np.asarray(z, dtype=complex)
    return (z.imag == 0.0) & (np.abs(z.real) <= params.alpha)


def rho_of_c(params: GasParams, c):
    """rho at the transport point whose speed image is ``c``: e^{-C^2}(1+a|C|)^3."""
    c = np.asarray(c, dtype=float)
    r = np.exp(-c * c) * (1.0 + params.a * np.abs(c)) ** 3
    return r if r.ndim else float(r)


def kernel_q_c(params: GasParams, c, c_prime):
    """Collision kernel expressed in speed variables (any finite real speeds)."""
    c = require_real("c", c)
    cp = require_real("c_prime", c_prime)
    require_finite("c", c)
    require_finite("c_prime", cp)
    q = (
        params.r0
        + params.r1 * c * cp
        + params.r2 * (c * c - params.beta) * (cp * cp - params.beta)
    )
    return q if q.ndim else float(q)
