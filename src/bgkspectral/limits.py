"""Closed-form limiting cases: constant frequency and frequency ~ speed.

Constant frequency (a = 0)
    The dispersion function collapses to
    ``lambda(z) = -1/2 - (z**2 - 3/2) * lambda_c(z)`` with ``lambda_c``
    the classical plasma dispersion function; both are implemented here
    through the Faddeeva function.  The textbook finite-interval formula
    is kept as a numerical cross-check in the tests
    (``lambda_c_stable`` in ``tests/conftest.py``).

Frequency proportional to speed (a -> infinity)
    The kinetic equation closes exactly on the six-function basis
    {1, sgn C, C, |C|, C**2-1, (C**2-1) sgn C}.  The first-order ODE
    system for the coefficient vector is DERIVED here by Galerkin
    projection from exact half-line Gaussian moments, not transcribed:
    commonly quoted versions of this system (and the decay rate
    sqrt(3*pi)/2 they imply) are inconsistent with the projection, which
    yields sqrt(5*pi)/4 instead.  The arbiter is the residual of the
    resulting modes in the kinetic equation itself; see
    DERIVATION_NOTES.md at the repository root for the full comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np
from scipy.special import dawsn, wofz

from .errors import DomainError
from .params import require_finite, require_real, side_sign

SQRT_PI = math.sqrt(math.pi)

#: decay rate of the exponential modes of the derived projected system
FM_DECAY_RATE = math.sqrt(5.0 * math.pi) / 4.0

#: decay rate quoted in the literature for this solution (for comparison)
FM_DECAY_RATE_QUOTED = math.sqrt(3.0 * math.pi) / 2.0


# ---------------------------------------------------------------------------
# constant-frequency limit: plasma dispersion function
# ---------------------------------------------------------------------------

def lambda_c(z):
    """Plasma dispersion function lambda_C(z) for z off the real axis.

    lambda_C(z) = 1 + (z/sqrt(pi)) int exp(-mu**2)/(mu - z) d(mu),
    evaluated through the Faddeeva function.  Vectorized; raises for
    points that are not finite and for points on the real axis (use
    :func:`lambda_c_boundary` or :func:`lambda_c_pv` there).
    """
    z = np.asarray(z, dtype=complex)
    require_finite("z", z)
    if np.any(z.imag == 0.0):
        raise DomainError("real axis: use lambda_c_boundary / lambda_c_pv")
    out = np.empty_like(z)
    up = z.imag > 0
    out[up] = 1.0 + 1j * SQRT_PI * z[up] * wofz(z[up])
    dn = ~up
    out[dn] = 1.0 - 1j * SQRT_PI * z[dn] * wofz(-z[dn])
    return complex(out) if out.ndim == 0 else out


def lambda_c_pv(x):
    """Principal-value symbol of lambda_C on the real axis: 1 - 2x D(x), x finite."""
    x = require_real("x", x)
    require_finite("x", x)
    v = 1.0 - 2.0 * x * dawsn(x)
    return float(v) if v.ndim == 0 else v


def lambda_c_boundary(x, side: str):
    """Boundary values lambda_C(x +- i0) = PV +- i sqrt(pi) x exp(-x**2)."""
    x = require_real("x", x)
    v = lambda_c_pv(x) + side_sign(side) * 1j * SQRT_PI * x * np.exp(-x * x)
    return complex(v) if np.ndim(v) == 0 else v


def lambda_a0(z):
    """Constant-frequency dispersion function -1/2 - (z**2 - 3/2) lambda_C(z).

    The two terms cancel to O(z**-4), so as an oracle it holds near the origin
    only.  Against 50-digit mpmath, 0.05 rad or more off the axis, its relative
    error reached 1.4e-14 at |z| = 1, 2.1e-11 at 4, 4.4e-9 at 8, 3.8e-8 at 20
    and 1.1e-5 at 50; ``lambda_fn`` at a = 0 reached 5.1e-13 at 20."""
    z = np.asarray(z, dtype=complex)
    v = -0.5 - (z * z - 1.5) * lambda_c(z)
    return complex(v) if v.ndim == 0 else v


def lambda_a0_pv(x):
    """PV symbol of the constant-frequency dispersion function on the axis."""
    x = require_real("x", x)
    v = -0.5 - (x * x - 1.5) * lambda_c_pv(x)
    return float(v) if v.ndim == 0 else v


def lambda_a0_boundary(x, side: str):
    """Boundary values of the constant-frequency dispersion function."""
    x = require_real("x", x)
    v = -0.5 - (x * x - 1.5) * lambda_c_boundary(x, side)
    return complex(v) if np.ndim(v) == 0 else v


# ---------------------------------------------------------------------------
# free-molecular limit: exact six-mode solution
# ---------------------------------------------------------------------------

#: basis functions, in coefficient order (a1, a1~, a2, a2~, a3, a3~):
#: 1, sgn C, C, |C|, C**2 - 1, (C**2 - 1) sgn C
_FM_BASIS_POLY = ((1.0,), (1.0,), (0.0, 1.0), (0.0, 1.0),
                  (-1.0, 0.0, 1.0), (-1.0, 0.0, 1.0))
_FM_BASIS_SGN = (0, 1, 0, 1, 0, 1)


def fm_kernel(c, c_prime):
    """Free-molecular collision kernel q1(C, C') = 1 + CC' + (C**2-1)(C'**2-1).

    A ``c`` or ``c_prime`` that is complex or not finite raises DomainError.
    """
    c = require_real("c", c)
    cp = require_real("c_prime", c_prime)
    require_finite("c", c)
    require_finite("c_prime", cp)
    q = 1.0 + c * cp + (c * c - 1.0) * (cp * cp - 1.0)
    return q if q.ndim else float(q)


def fm_basis(c) -> np.ndarray:
    """The six basis functions evaluated at speeds ``c``; shape (6,) + c.shape."""
    c = np.asarray(c, dtype=float)
    s = np.sign(c)
    return np.stack([
        np.ones_like(c), s, c, c * s, c * c - 1.0, (c * c - 1.0) * s,
    ])


def _half_moment(m: int) -> float:
    """int_R exp(-C**2) |C| C**m dC  (k! for m = 2k, zero for odd m)."""
    return float(math.factorial(m // 2)) if m % 2 == 0 else 0.0


def _gauss_moment(m: int) -> float:
    """int_R exp(-C**2) C**m dC."""
    if m % 2:
        return 0.0
    return float(math.gamma((m + 1) / 2))


def fm_projection_inner(i: int, j: int, extra_sgn: int) -> float:
    """Exact projection integral <B_i, B_j>, with an extra sgn factor if
    ``extra_sgn`` is odd.

    Weight exp(-C**2)|C|, from exact half-line Gaussian moments.  Exposed so
    verification code can re-derive every matrix element of the projected
    system against independent quadrature.
    """
    pi_, si = _FM_BASIS_POLY[i], _FM_BASIS_SGN[i]
    pj, sj = _FM_BASIS_POLY[j], _FM_BASIS_SGN[j]
    prod = np.convolve(pi_, pj)
    sgn = (si + sj + extra_sgn) % 2
    if sgn:
        return sum(c * _gauss_moment(m + 1) for m, c in enumerate(prod))
    return sum(c * _half_moment(m) for m, c in enumerate(prod))


@lru_cache(maxsize=1)
def fm_project_system() -> np.ndarray:
    """The 6x6 generator M of the projected ODE system y' = M y.

    Derived by Galerkin projection of the free-molecular equation onto the
    six-function basis with weight exp(-C**2)|C|, using exact half-line
    Gaussian moments (k!/2) throughout: with G the Gram matrix, S the
    matrix of <B_i, sgn(C) B_j> and R the matrix of <B_i, K[B_j]>, the
    system is  S y' = (R - G) y.
    """
    n = 6
    inner = fm_projection_inner
    gram = np.array([[inner(i, j, 0) for j in range(n)] for i in range(n)])
    s_mat = np.array([[inner(i, j, 1) for j in range(n)] for i in range(n)])
    # K[B_j] = K0 + K1 C + K2 (C**2 - 1) with the three projection moments
    r_mat = np.zeros((n, n))
    for j in range(n):
        k0, k1, k2 = inner(0, j, 0), inner(2, j, 0), inner(4, j, 0)
        for i in range(n):
            r_mat[i, j] = k0 * inner(i, 0, 0) + k1 * inner(i, 2, 0) + k2 * inner(i, 4, 0)
    return np.linalg.solve(s_mat, r_mat - gram)


@dataclass(frozen=True)
class FreeMolecularSolution:
    """Coefficients of the six-mode general solution.

    Mode roles (coefficient -> mode of the derived generator
    :func:`fm_project_system`, tabulated by :func:`fm_modes`):

    - ``A0``  : decaying exponential  exp(-FM_DECAY_RATE * x)
    - ``A1``  : constant mode in the ``1`` component
    - ``A2``  : constant mode in the ``C`` component
    - ``A3``  : constant mode in the ``C**2 - 1`` component
    - ``At1`` : the linear-in-x Jordan mode (couples the 1- and
      (C**2-1)-components with their sgn partners)
    - ``At3`` : growing exponential  exp(+FM_DECAY_RATE * x), the sixth
      independent solution of the derived system

    ``FM_DECAY_RATE`` is sqrt(5*pi)/4, the derived value; the quoted
    literature rate sqrt(3*pi)/2 does not solve the kinetic equation (see
    DERIVATION_NOTES.md).  Each coefficient is stored as a float; one that
    is complex or not finite raises DomainError naming it.
    """

    A0: float = 0.0
    A1: float = 0.0
    A2: float = 0.0
    A3: float = 0.0
    At1: float = 0.0
    At3: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = require_real(f.name, getattr(self, f.name))
            require_finite(f.name, value)
            object.__setattr__(self, f.name, float(value))


@lru_cache(maxsize=1)
def fm_modes():
    """Mode table of the derived generator.

    Returns
    -------
    dict with keys:
        "decay"  : (sigma, u_minus)  eigenpair of -sigma
        "grow"   : (sigma, u_plus)   eigenpair of +sigma
        "const"  : (3, 6) array of kernel modes (unit a1, a2, a3 vectors)
        "linear" : (v, d) with y(x) = v + x*d, M v = d, M d = 0
    """
    m = fm_project_system()
    eigvals, eigvecs = np.linalg.eig(m)
    sigma = float(np.max(eigvals.real))
    i_grow = int(np.argmin(np.abs(eigvals - sigma)))
    i_decay = int(np.argmin(np.abs(eigvals + sigma)))
    u_plus = np.real(eigvecs[:, i_grow])
    u_minus = np.real(eigvecs[:, i_decay])
    # normalize on the a2~ slot for comparability
    u_plus = u_plus / u_plus[3]
    u_minus = u_minus / u_minus[3]
    const = np.zeros((3, 6))
    const[0, 0] = 1.0
    const[1, 2] = 1.0
    const[2, 4] = 1.0
    v = np.array([0.0, 1.0, 0.0, 0.0, 0.0, -2.0])
    d = m @ v
    if np.max(np.abs(m @ d)) > 1e-12:
        raise RuntimeError("Jordan structure of the projected system changed")
    return {
        "decay": (sigma, u_minus),
        "grow": (sigma, u_plus),
        "const": const,
        "linear": (v, d),
    }


def fm_coefficient_vector(sol: FreeMolecularSolution, x) -> np.ndarray:
    """Coefficient vector y(x) of the solution; shape (6,) + x.shape."""
    x = np.asarray(x, dtype=float)
    modes = fm_modes()
    sigma, u_minus = modes["decay"]
    _, u_plus = modes["grow"]
    const = modes["const"]
    v, d = modes["linear"]
    y = (
        sol.A0 * np.multiply.outer(u_minus, np.exp(-sigma * x))
        + sol.At3 * np.multiply.outer(u_plus, np.exp(sigma * x))
        + np.multiply.outer(
            sol.A1 * const[0] + sol.A2 * const[1] + sol.A3 * const[2],
            np.ones_like(x),
        )
        + sol.At1 * (np.multiply.outer(v, np.ones_like(x)) + np.multiply.outer(d, x))
    )
    return y


def fm_coefficient_vector_dx(sol: FreeMolecularSolution, x) -> np.ndarray:
    """Analytic x-derivative of the coefficient vector."""
    x = np.asarray(x, dtype=float)
    modes = fm_modes()
    sigma, u_minus = modes["decay"]
    _, u_plus = modes["grow"]
    _, d = modes["linear"]
    return (
        -sigma * sol.A0 * np.multiply.outer(u_minus, np.exp(-sigma * x))
        + sigma * sol.At3 * np.multiply.outer(u_plus, np.exp(sigma * x))
        + sol.At1 * np.multiply.outer(d, np.ones_like(x))
    )


def fm_general_solution(sol: FreeMolecularSolution, x, c):
    """h(x, C) assembled from the mode decomposition of the derived system.

    An ``x`` or ``c`` that is complex or not finite raises DomainError.
    """
    x = require_real("x", x)
    c = require_real("c", c)
    require_finite("x", x)
    require_finite("c", c)
    y = fm_coefficient_vector(sol, x)
    b = fm_basis(c)
    val = np.tensordot(y, b, axes=(0, 0))
    return val if val.ndim else float(val)


@lru_cache(maxsize=1)
def _fm_quad():
    """Half-line panel rule for weight exp(-C**2) C on (0, inf).

    Integrands are only piecewise smooth across C = 0 (sgn factors), so
    the rule never straddles the origin; symmetrization handles C < 0.
    """
    from .quadrature import gauss_panels

    nodes, wts = gauss_panels(0.0, 8.6, (), 10, 20)
    return nodes, wts * np.exp(-nodes * nodes) * nodes


def fm_collision(sol_values_fn, x):
    """Collision integral of the free-molecular kernel applied to h(x, .).

    Returns the triple (K0, K1, K2) so that the integral equals
    K0 + K1*C + (C**2 - 1)*K2.  ``sol_values_fn(x, c)`` is called once per
    half-line.
    """
    nodes, wts = _fm_quad()
    hp, hm = sol_values_fn(x, nodes), sol_values_fn(x, -nodes)
    q = nodes * nodes - 1.0
    k0 = np.sum(wts * (hp + hm))
    k1 = np.sum(wts * (hp * nodes - hm * nodes))
    k2 = np.sum(wts * (hp * q + hm * q))
    return k0, k1, k2


def fm_residual(sol: FreeMolecularSolution, x: float) -> float:
    """Sup-norm residual of the solution in the free-molecular equation.

    |sgn(C) dh/dx + h - int exp(-C'**2)|C'| q1(C, C') h(x, C') dC'| over 32
    speeds in [0.1, 3.5] and their negatives, with the analytic
    x-derivative.  An ``x`` that is complex raises DomainError, as one that
    is not finite does (through :func:`fm_general_solution`).
    """
    g = np.linspace(0.1, 3.5, 32)
    c_grid = np.concatenate([-g[::-1], g])
    x = float(require_real("x", x))

    h_val = fm_general_solution(sol, x, c_grid)
    dh = np.tensordot(fm_coefficient_vector_dx(sol, x), fm_basis(c_grid), axes=(0, 0))
    k0, k1, k2 = fm_collision(lambda xx, cc: fm_general_solution(sol, xx, cc), x)
    collision = k0 + k1 * c_grid + (c_grid * c_grid - 1.0) * k2
    res = np.sign(c_grid) * dh + h_val - collision
    return float(np.max(np.abs(res)))
