"""Weighted quadrature on the speed axis and principal-value integration.

One fixed rule per parameter set, read only by the code that integrates:
the conservation identities, the residual checker and the normalization
principal value (the moments and lambda are closed-form).  The weight ``w(C) = exp(-C**2)(1 + a|C|)``
is even but has a kink at the origin (and so do most integrands, which
contain ``|C|`` through the velocity map), so the rule is built as a
symmetric pair of half-line panel Gauss-Legendre rules that never
straddle ``C = 0``.  Each half-line integrand our modules produce is
smooth, so the panels converge at spectral rate; polynomials up to the
degrees used anywhere in the package integrate exactly to ~1e-14.

Principal values are computed by singularity subtraction: a Gaussian
image of the integrand value at the pole is removed, the remainder is
integrated as an ordinary weighted integral, and the subtracted part is
restored through the analytically known Hilbert transform of the
Gaussian (Dawson function).

The two Gauss-Legendre rules the package uses, 16 and 20 nodes on
[-1, 1], are literal tables copied from ``scipy.special.roots_legendre``
and tested against it bit for bit.  Building them at run time would load
all of ``scipy.linalg`` for an eigen-solve (Golub-Welsch) in every
process that makes a rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import dawsn

from .errors import DomainError, EvaluationError
from .params import GasParams, _inside_cut, mu_of, require_finite, require_real, velocity_map

#: panel edges of the half-line rule
_PANEL_EDGES = (0.0, 0.6, 1.2, 1.8, 2.4, 3.0, 3.6, 4.4, 5.4, 6.8, 8.6)
#: Gauss-Legendre nodes on each panel: 200 nodes per half-line
_NODES_PER_PANEL = 20


#: Gauss-Legendre rules on [-1, 1] by node count, as the nonnegative nodes
#: and their weights of ``scipy.special.roots_legendre``; scipy makes the
#: rules symmetric, so mirroring gives its whole rule bit for bit
_LEGENDRE_HALF = {
    16: ((0.09501250983763745, 0.2816035507792589, 0.4580167776572274,
          0.6178762444026438, 0.755404408355003, 0.8656312023878318,
          0.9445750230732326, 0.9894009349916499),
         (0.1894506104550681, 0.18260341504492328, 0.16915651939500212,
          0.14959598881657638, 0.12462897125553363, 0.09515851168249231,
          0.06225352393864763, 0.027152459411756466)),
    20: ((0.0765265211334973, 0.22778585114164504, 0.37370608871541955,
          0.510867001950827, 0.6360536807265149, 0.7463319064601508,
          0.8391169718222189, 0.912234428251326, 0.9639719272779137,
          0.9931285991850949),
         (0.1527533871307256, 0.1491729864726036, 0.14209610931838176,
          0.13168863844917644, 0.11819453196151841, 0.10193011981724026,
          0.08327674157670427, 0.06267204833410933, 0.04060142980038748,
          0.017614007139152687)),
}
_LEGENDRE = {n: (np.concatenate([-np.array(x[::-1]), x]), np.array(w[::-1] + w))
             for n, (x, w) in _LEGENDRE_HALF.items()}


@dataclass(frozen=True)
class QuadratureScheme:
    """Nodes and weights for integrals of ``exp(-C**2)(1 + a|C|) f(C)`` on R.

    Attributes
    ----------
    params : GasParams
    n : int
        Node count per half-line, 200: 20 on each of the ten panels.
    nodes : ndarray
        Strictly positive half-line nodes.
    weights_weighted : ndarray
        Weights including the full weight ``w(C)``; the rule is applied
        symmetrically, ``sum(weights * (f(nodes) + f(-nodes)))``.
    weights_gauss : ndarray
        Same but for the bare Gaussian weight ``exp(-C**2)``.

    Built only by :func:`make_scheme`.  Immutable after construction;
    integration calls are pure and reentrant.
    """

    params: GasParams
    n: int
    nodes: np.ndarray = field(repr=False)
    weights_weighted: np.ndarray = field(repr=False)
    weights_gauss: np.ndarray = field(repr=False)


def _legendre_panels(edges, n_per: int):
    """Gauss-Legendre nodes/weights with ``n_per`` nodes on each panel between
    consecutive ``edges``; ``n_per`` is 16 or 20, the rules of ``_LEGENDRE``."""
    edges = np.asarray(edges, dtype=float)
    x01, w01 = _LEGENDRE[n_per]
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = edges[:-1, None] + half[:, None] * (x01 + 1.0)
    return nodes.ravel(), (half[:, None] * w01).ravel()


def make_scheme(params: GasParams) -> QuadratureScheme:
    """Build the weighted half-line rule: 20 Gauss-Legendre nodes on each of
    the ten panels of ``_PANEL_EDGES``, 200 nodes per half-line."""
    c, bare = _legendre_panels(_PANEL_EDGES, _NODES_PER_PANEL)
    gauss = bare * np.exp(-c * c)
    weighted = gauss * (1.0 + params.a * c)
    return QuadratureScheme(
        params=params,
        n=c.size,
        nodes=c,
        weights_weighted=weighted,
        weights_gauss=gauss,
    )


def _sym_sum(weights: np.ndarray, plus, minus):
    """sum(weights * (plus + minus)) over the two half-lines, with a non-finite
    guard; ``plus`` and ``minus`` are an integrand at the nodes and at -nodes,
    the nodes along their last axis."""
    vals = np.asarray(plus) + np.asarray(minus)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("integrand returned non-finite values")
    return np.sum(weights * vals, axis=-1)


def integrate_weighted(scheme: QuadratureScheme, f):
    """Approximate ``int exp(-C**2)(1+a|C|) f(C) dC`` over the real line.

    ``f`` must accept an ndarray of speeds and may return real or complex
    values; it should be bounded by a polynomial so the Gaussian weight
    controls the tails.
    """
    c = scheme.nodes
    return _sym_sum(scheme.weights_weighted, f(c), f(-c))


def integrate_pv(scheme: QuadratureScheme, f, pole: float):
    """Principal value of ``int w(C) f(C) / (mu(C) - x) dC`` on the real line.

    ``x = pole`` is the pole position in the transport variable; the
    corresponding speed-space pole sits at ``Cx = C(x)``.  Writing the
    integrand as ``exp(-C**2) * H(C) / (C - Cx)`` with

        H(C) = (1 + a|C|) f(C) (C - Cx) / (mu(C) - x),

    the rule subtracts the Gaussian image ``exp(-C**2) H(Cx)`` (whose
    principal value is ``-2 sqrt(pi) H(Cx) dawsn(Cx)``) and integrates the
    smooth remainder with the scheme's Gaussian weights.

    ``f`` must accept ndarray arguments; values with leading axes, the
    speeds along the last, give one principal value each.

    Raises
    ------
    DomainError
        If the pole is complex, not finite or outside the open interval
        ``(-alpha, alpha)``.
    """
    p = scheme.params
    x = float(_inside_cut(p, "pole", pole))
    cx = velocity_map(p, x)
    jac_inv = (1.0 + p.a * abs(cx)) ** 2  # 1/mu'(Cx)

    def h_tilde(c):
        c = np.asarray(c, dtype=float)
        num = c - cx
        den = mu_of(p, c) - x
        ratio = np.full_like(num, jac_inv)
        ok = np.abs(num) > 1e-12
        np.divide(num, den, out=ratio, where=ok)
        return np.asarray(f(c)) * (1.0 + p.a * np.abs(c)) * ratio

    h0 = np.asarray(f(np.array([cx]))) * (1.0 + p.a * abs(cx)) ** 3  # (..., 1)

    def regular(c):
        c = np.asarray(c, dtype=float)
        d = c - cx
        out = (h_tilde(c) - h0) / np.where(np.abs(d) > 1e-9, d, 1.0)
        near = np.abs(d) <= 1e-9
        if np.any(near):
            step = 1e-5
            dh = h_tilde(np.array([cx + step])) - h_tilde(np.array([cx - step]))
            out[..., near] = dh / (2.0 * step)
        return out

    c = scheme.nodes
    smooth = _sym_sum(scheme.weights_gauss, regular(c), regular(-c))
    return smooth + h0[..., 0] * (-2.0 * np.sqrt(np.pi)) * dawsn(cx)


def gauss_panels(lo: float, hi: float, breakpoints, n_panels: int, n_per: int):
    """Gauss-Legendre nodes/weights on [lo, hi] split at the breakpoints,
    ``n_per`` (16 or 20) on each panel."""
    pts = [lo, hi] + [b for b in breakpoints if lo < b < hi]
    pts = np.unique(np.asarray(pts, dtype=float))
    total = hi - lo
    edges = [
        np.linspace(a, b, max(2, int(np.ceil(n_panels * (b - a) / total))) + 1)[:-1]
        for a, b in zip(pts[:-1], pts[1:])
    ]
    return _legendre_panels(np.append(np.concatenate(edges), pts[-1]), n_per)


def pv_interval(f, lo: float, hi: float, pole: float):
    """Principal value of ``int_lo^hi f(eta) / (eta - pole) d(eta)``.

    Uses subtraction on the finite interval: the regular part
    ``(f(eta) - f(pole)) / (eta - pole)`` is integrated on 16 panels of 16
    Gauss-Legendre nodes each, split at the pole, and the
    subtracted constant contributes ``f(pole) * log((hi-pole)/(pole-lo))``
    exactly.  If the pole lies outside ``(lo, hi)`` the integral is
    ordinary and is computed directly; at ``lo`` or ``hi`` it converges
    only where ``f(pole) == 0``.  ``f`` must accept ndarrays.  A ``lo``,
    ``hi`` or ``pole`` that is complex or not finite, or a pole at an end
    where ``f`` is not 0, raises DomainError.
    """
    ends = []
    for name, value in (("lo", lo), ("hi", hi), ("pole", pole)):
        ends.append(float(require_real(name, value)))
        require_finite(name, ends[-1])
    lo, hi, pole = ends
    if hi <= lo:
        raise DomainError("empty integration interval")
    nodes, wts = gauss_panels(lo, hi, (pole,), 16, 16)  # a pole outside is no breakpoint
    fp = np.asarray(f(np.array([pole]))).ravel()[0] if lo <= pole <= hi else 0.0
    if not (lo < pole < hi):
        if fp != 0.0:
            raise DomainError(f"pole {pole} at an end of [{lo}, {hi}] with f(pole) = {fp}: "
                              "the integral diverges")
        return np.sum(wts * np.asarray(f(nodes)) / (nodes - pole))

    vals = (np.asarray(f(nodes)) - fp) / (nodes - pole)
    return np.sum(wts * vals) + fp * np.log((hi - pole) / (pole - lo))
