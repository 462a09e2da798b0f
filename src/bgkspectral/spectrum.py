"""Discrete solutions, continuum eigenfunctions, and the expansion theorem.

The transport equation

    mu dh/dx + h(x, mu) = int rho(mu') q(mu, mu') h(x, mu') d(mu')

has four polynomial (discrete) solutions attached to the fourth-order
zero of the dispersion function at infinity, and a continuum of singular
eigenfunctions indexed by eta in (-alpha, alpha).  The general solution
is a linear combination of the four discrete solutions plus an integral
of the continuum eigenfunctions against a coefficient density A(eta);
``apply_expansion`` evaluates that representation and ``residual_2_4``
measures how well any candidate h satisfies the equation.

All operations are pure, so threads may share them, but fanning (x, mu)
points out over threads does not pay: numpy calls on arrays of up to about
1e4 elements ran slower on two threads than on one (README, design notes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, EvaluationError
from .dispersion import _eigen_arrays, _q_tilde
from .params import GasParams, _inside_cut, mu_of, require_finite, require_real, velocity_map
from .quadrature import QuadratureScheme, _sym_sum, integrate_pv, pv_interval

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline


def discrete_solution(params: GasParams, k: int, x, mu):
    """The k-th discrete solution, k = 0..3.

    h0 = 1, h1 = C(mu), h2 = C(mu)**2 - 1/2, h3 = (x - mu)(C(mu)**2 - 3/2).
    The constants 1/2 and 3/2 are independent of the frequency slope: the
    cross moments that would couple them to ``beta`` vanish identically in
    the speed variable, which the residual checker confirms numerically.
    An ``x`` that is complex or not finite raises DomainError, as a ``mu``
    that is complex, not finite or outside the cut does.
    """
    x = require_real("x", x)
    require_finite("x", x)
    c = velocity_map(params, mu)
    if k == 0:
        return np.ones_like(np.asarray(mu, dtype=float)) if np.ndim(mu) else 1.0
    if k == 1:
        return c
    if k == 2:
        return c * c - 0.5
    if k == 3:
        return (x - np.asarray(mu, dtype=float)) * (c * c - 1.5)
    raise DomainError(f"discrete index must be 0..3, got {k}")


def discrete_solution_dx(params: GasParams, k: int, x, mu):
    """Analytic x-derivative of the k-th discrete solution; ``x`` and ``mu``
    are checked as in :func:`discrete_solution`."""
    x = require_real("x", x)
    require_finite("x", x)
    c = velocity_map(params, mu)
    if k in (0, 1, 2):
        return np.zeros_like(c)
    if k == 3:
        return c * c - 1.5
    raise DomainError(f"discrete index must be 0..3, got {k}")


@dataclass(frozen=True)
class EigenData:
    """Boundary data of the dispersion machinery at one cut point eta.

    ``lambda_pv`` is the PV determinant, ``cofactors`` the PV
    replaced-column determinants L0, L1, L2, and ``rho`` and ``c_eta`` the
    weight and speed at ``eta``.  The eigenfunctions built from these data
    carry unit normalization (the homogeneous equation fixes them only up
    to scale).
    """

    eta: float
    lambda_pv: float
    cofactors: np.ndarray
    rho: float
    c_eta: float


def eigen_data(params: GasParams, eta: float) -> EigenData:
    """Collect rho, C, PV cofactors and PV determinant at ``eta``."""
    eta = float(_inside_cut(params, "eta", eta))
    det, cof, rho, c = _eigen_arrays(params, eta)
    return EigenData(eta=eta, lambda_pv=float(det), cofactors=cof, rho=float(rho),
                     c_eta=float(c))


def eigenfunction_regular(params: GasParams, eta: float, mu: float):
    """Regular (principal-value) part of the continuum eigenfunction.

    Value of ``eta * Q~(eta, mu) * rho(eta) / (lambda_pv(eta) * (eta - mu))``;
    the full eigenfunction additionally carries the delta contribution
    ``delta(eta - mu)``, applied distributionally by
    :func:`apply_expansion`.

    Raises
    ------
    DomainError
        At the pole ``eta == mu`` (use the distributional machinery).
    """
    eta, mu = float(_inside_cut(params, "eta", eta)), float(_inside_cut(params, "mu", mu))
    if abs(eta - mu) < 1e-12:
        raise DomainError("eta == mu is the singular point of the eigenfunction")
    data = eigen_data(params, eta)
    qt = float(_q_tilde(params, data.cofactors, velocity_map(params, mu)))
    return eta * qt * data.rho / (data.lambda_pv * (eta - mu))


@dataclass
class SpectralExpansion:
    """Discrete coefficients plus a sampled continuum coefficient A(eta).

    The continuum density is defined by samples on ``eta_grid`` (strictly
    inside the cut) with cubic-spline interpolation; outside the grid hull
    A is taken to vanish, so the grid must cover the support of the
    intended density and its endpoint values should be (near) zero.
    An entry of ``discrete``, ``eta_grid`` or ``a_values`` that is complex
    or not finite raises DomainError naming the field.
    """

    discrete: np.ndarray
    eta_grid: np.ndarray
    a_values: np.ndarray
    _spline: CubicSpline = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("discrete", "eta_grid", "a_values"):
            setattr(self, name, require_real(name, getattr(self, name)))
            require_finite(name, getattr(self, name))
        if self.discrete.shape != (4,):
            raise DomainError("expansion needs exactly four discrete coefficients")
        if self.eta_grid.ndim != 1 or self.eta_grid.size < 4:
            raise DomainError("continuum grid needs at least four points")
        if np.any(np.diff(self.eta_grid) <= 0):
            raise DomainError("continuum grid must be strictly increasing")
        # imported here to keep scipy.interpolate out of `import bgkspectral`
        from scipy.interpolate import CubicSpline

        self._spline = CubicSpline(self.eta_grid, self.a_values)

    def validate(self, params: GasParams) -> None:
        """DomainError naming ``eta_grid`` unless it lies inside the open cut."""
        _inside_cut(params, "eta_grid", self.eta_grid)

    def a_of(self, eta):
        """Interpolated continuum coefficient, zero outside the grid hull."""
        eta = require_real("eta", eta)
        inside = (eta >= self.eta_grid[0]) & (eta <= self.eta_grid[-1])
        out = np.where(inside, self._spline(np.clip(
            eta, self.eta_grid[0], self.eta_grid[-1])), 0.0)
        return out if out.ndim else float(out)


def apply_expansion(params: GasParams, scheme: QuadratureScheme,
                    expansion: SpectralExpansion, x: float, mu: float,
                    derivative: bool = False):
    """Evaluate the general-solution representation at (x, mu).

    h = sum_k A_k h_k(x, mu)
        + PV int exp(-x/eta) [regular part](eta, mu) A(eta) d(eta)
        + exp(-x/mu) A(mu)

    With ``derivative=True`` the analytic x-derivative is returned
    instead.  ``x`` must be real and finite (else DomainError).  Decaying
    exponentials require the continuum support and ``x`` to be nonnegative;
    nothing enforces that, but growing modes are the caller's
    responsibility.  ``scheme`` is not read: the continuum integral runs on
    the fixed rule of :func:`~bgkspectral.quadrature.pv_interval`.

    The PV-normalized eigenfunctions carry a factor 1/lambda_pv(eta), and
    lambda_pv has real zeros inside the cut; a smooth density A must
    vanish at (or keep its support away from) those points, otherwise the
    continuum integral acquires poles the quadrature does not treat.
    """
    expansion.validate(params)
    x, mu = float(require_real("x", x)), float(_inside_cut(params, "mu", mu))
    require_finite("x", x)

    out = 0.0
    for k in range(4):
        coeff = expansion.discrete[k]
        if coeff != 0.0:
            hk = (
                discrete_solution_dx(params, k, x, mu)
                if derivative
                else discrete_solution(params, k, x, mu)
            )
            out += coeff * float(np.asarray(hk))

    lo, hi = expansion.eta_grid[0], expansion.eta_grid[-1]
    c_mu = velocity_map(params, mu)

    def integrand(eta):
        det, cof, rho_eta, _ = _eigen_arrays(params, eta)
        qt = _q_tilde(params, cof, c_mu)
        expo = np.exp(-x / eta)
        if derivative:
            expo = expo * (-1.0 / eta)
        return expo * eta * qt * rho_eta * expansion.a_of(eta) / det

    continuum = pv_interval(integrand, lo, hi, mu)

    a_mu = expansion.a_of(mu)
    if a_mu != 0.0:
        delta = np.exp(-x / mu) * a_mu
        if derivative:
            delta *= -1.0 / mu
        continuum += delta
    return out + continuum


def residual_2_4(params: GasParams, scheme: QuadratureScheme, h, x: float,
                 dh_dx=None) -> float:
    """Sup-norm residual of a candidate solution in the transport equation.

    ``h(x, mu)`` must be vectorized over ``mu``.  The x-derivative is
    taken by central differences with step 1e-5 unless an analytic
    ``dh_dx(x, mu)`` is supplied.  The test grid is the image of 64
    uniformly spaced speeds in [-3.5, 3.5], which keeps it strictly
    inside the cut for every slope.  A complex or non-finite ``x``, and a
    value of ``h`` or ``dh_dx`` with a nonzero imaginary part, raise
    DomainError.
    """
    x = float(require_real("x", x))
    require_finite("x", x)
    mu_grid = mu_of(params, np.linspace(-3.5, 3.5, 64))
    c_grid = np.asarray(velocity_map(params, mu_grid), dtype=float)

    # collision integral via the factorized kernel: three h-moments suffice,
    # all from one evaluation of h at the nodes and one at their mirror images
    wts, cp = scheme.weights_weighted, scheme.nodes
    cm = -cp
    hp, hm = (require_real("h", h(x, mu_of(params, c))) for c in (cp, cm))
    i0 = _sym_sum(wts, hp, hm)
    i1 = _sym_sum(wts, hp * cp, hm * cm)
    i2 = _sym_sum(wts, hp * (cp * cp - params.beta), hm * (cm * cm - params.beta))
    collision = (
        params.r0 * i0
        + params.r1 * c_grid * i1
        + params.r2 * (c_grid * c_grid - params.beta) * i2
    )

    h_val = require_real("h", h(x, mu_grid))
    if dh_dx is not None:
        dh = require_real("dh_dx", dh_dx(x, mu_grid))
    else:
        fd_step = 1e-5
        dh = (require_real("h", h(x + fd_step, mu_grid))
              - require_real("h", h(x - fd_step, mu_grid))) / (2.0 * fd_step)

    res = mu_grid * dh + h_val - collision
    if not np.all(np.isfinite(res)):
        raise EvaluationError("residual evaluation produced non-finite values")
    return float(np.max(np.abs(res)))


def normalization_check(params: GasParams, scheme: QuadratureScheme,
                        eta: float) -> np.ndarray:
    """Deviation between direct and closed-form eigenfunction moments.

    Computes n_a(eta) = PV int Phi(eta, mu) C**a rho d(mu) (delta term
    included) by principal-value quadrature and compares with
    rho(eta) L_a(eta) / lambda_pv(eta).  Returns the three absolute
    deviations; their smallness is the self-consistency of the moment
    system with its own solution formula.
    """
    data = eigen_data(params, eta)
    prefactor = data.eta * data.rho / data.lambda_pv

    def f(c):
        q = _q_tilde(params, data.cofactors, velocity_map(params, mu_of(params, c)))
        return -q * np.stack([np.ones_like(c), c, c**2])

    # PV int Q~ C^a rho/(eta-mu) dmu  ==  -PV int w(C) f.../(mu(C)-eta) dC
    pv_part = prefactor * integrate_pv(scheme, f, data.eta)
    deviations = np.empty(3)
    for a_idx in range(3):
        direct = pv_part[a_idx] + data.rho * data.c_eta**a_idx
        closed = data.rho * data.cofactors[a_idx] / data.lambda_pv
        deviations[a_idx] = abs(direct - closed)
    return deviations
