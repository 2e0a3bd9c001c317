"""Extremal lp-norms outside the union / convex hull of an l1 and an linf ball.

Both balls are centred at the origin, with radii eps1 (l1) and eps_inf
(linf).  Closed forms are provided for the smallest lp-norm over the
complement of the union and of the convex hull, each written once in array
form.  The membership test and randomized boundary oracles that validate
them live with the tests, in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BallPair",
    "dual_exponent",
    "naive_union_bound",
    "union_min_norm",
    "hull_min_norm",
    "ratio_analysis",
    "curve_table",
]


@dataclass(frozen=True)
class BallPair:
    """Co-centred l1 ball (radius eps1) and linf ball (radius eps_inf) in R^dim."""

    eps1: float
    eps_inf: float
    dim: int

    def __post_init__(self):
        if not (self.eps1 > 0 and self.eps_inf > 0):
            raise ValueError("ball radii must be positive")
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")


def _p_value(p) -> float:
    p = float(p)
    if not p >= 1.0:
        raise ValueError(f"norm order must satisfy p >= 1, got {p}")
    return p


def dual_exponent(p) -> float:
    """q with 1/p + 1/q = 1; q = inf for p = 1 and q = 1 for p = inf."""
    p = _p_value(p)
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def _finite_p(p, name: str) -> float:
    p = _p_value(p)
    if math.isinf(p):
        raise ValueError(f"{name} requires finite p")
    return p


def _naive(eps1, eps_inf, d: int, p: float) -> np.ndarray:
    """max(eps_inf, eps1 * d^((1-p)/p)) elementwise, for finite p."""
    return np.maximum(eps_inf, eps1 * d ** ((1.0 - p) / p))


def _union(eps1, eps_inf, d: int, p: float) -> np.ndarray:
    """union_min_norm elementwise, for finite p.  Powers are taken of
    delta = eps1/eps_inf, so the radii's scale cannot overflow them; a p too
    large for d raises FloatingPointError instead of returning inf."""
    eps1, eps_inf = np.broadcast_arrays(np.asarray(eps1, dtype=np.float64),
                                        np.asarray(eps_inf, dtype=np.float64))
    out = _naive(eps1, eps_inf, d, p)
    inside = (eps_inf < eps1) & (eps1 < d * eps_inf)
    einf = eps_inf[inside]
    delta = eps1[inside] / einf
    with np.errstate(over="raise"):
        out[inside] = einf * (1.0 + (delta - 1.0) ** p / (d - 1) ** (p - 1.0)) ** (1.0 / p)
    return out


def naive_union_bound(bp: BallPair, p) -> float:
    """max(eps_inf, eps1 * d^((1-p)/p)): the bound from plain norm inequalities."""
    p = _finite_p(p, "naive_union_bound")
    return float(_naive(np.array([bp.eps1]), bp.eps_inf, bp.dim, p)[0])


def union_min_norm(bp: BallPair, p) -> float:
    """Smallest lp-norm over the complement of the union of the two balls.

    Exact in the nontrivial regime eps_inf < eps1 < d*eps_inf; outside it one
    ball contains the other and the value falls back to the containment bound.
    """
    p = _finite_p(p, "union_min_norm")
    return float(_union(np.array([bp.eps1]), bp.eps_inf, bp.dim, p)[0])


def hull_min_norm(eps1, eps_inf, p):
    """Smallest lp-norm over the complement of conv(B1 u Binf).

    With delta = eps1/eps_inf and alpha its fractional part, the value is
    eps1 / (delta - alpha + alpha^q)^(1/q), q dual to p.  It does not depend
    on the dimension; the formula is exact for eps1 in [eps_inf, d*eps_inf]
    and extends continuously to eps1 <= eps_inf (where it returns eps_inf).
    The limit cases are p = 1 -> eps1 and p = inf -> eps_inf.

    eps1 and eps_inf may be arrays (broadcast elementwise).  Two scalars
    give a float, computed by the same array operations (numpy's scalar
    power can round differently from its array loop).
    """
    scalar = np.ndim(eps1) == 0 and np.ndim(eps_inf) == 0
    eps1 = np.atleast_1d(np.asarray(eps1, dtype=np.float64))
    eps_inf = np.atleast_1d(np.asarray(eps_inf, dtype=np.float64))
    if not all(np.all((r > 0) & (r < math.inf)) for r in (eps1, eps_inf)):
        raise ValueError("ball radii must be positive and finite")
    q = dual_exponent(p)  # p = 1: q = inf makes the denominator exactly 1
    delta = eps1 / eps_inf
    alpha = delta - np.floor(delta)
    out = eps1 / (delta - alpha + alpha**q) ** (1.0 / q)
    return float(out[0]) if scalar else out


def _sweep_range(d: int, p, name: str):
    """Validated p and the ends of the nontrivial delta range (1, d)."""
    if d < 2:
        raise ValueError("d must be at least 2")
    return _finite_p(p, name), 1.0 + 1e-9, float(d) * (1.0 - 1e-12)


def _curve_columns(d: int, p: float, deltas: np.ndarray):
    """(delta, naive, union, hull, hull/union) at eps_inf = 1."""
    naive = _naive(deltas, 1.0, d, p)
    union = _union(deltas, 1.0, d, p)
    hull = hull_min_norm(deltas, 1.0, p)
    return deltas, naive, union, hull, hull / union


def ratio_analysis(d: int, p=2.0):
    """Sweep delta = eps1/eps_inf over (1, d) and compare hull vs union values:
    2048 evenly spaced deltas, and 4096 more in [0.6, 1.7] * sqrt(d).

    Returns (delta_star, max_ratio, curve) where curve is an (M, 2) array of
    (delta, hull/union) at eps_inf = 1.  For large d the maximizing delta
    approaches sqrt(d) and the peak ratio d^(1/4)/sqrt(2); for small d the
    sawtooth of the hull formula shifts the true maximizer slightly above
    sqrt(d).
    """
    p, lo, hi = _sweep_range(d, p, "ratio_analysis")
    root = math.sqrt(d)
    focus_lo = max(lo, 0.6 * root)
    focus_hi = min(hi, 1.7 * root)
    deltas = np.unique(np.concatenate([
        np.linspace(lo, hi, 2048),
        np.linspace(focus_lo, focus_hi, 4096),
    ]))
    *_, ratio = _curve_columns(d, p, deltas)
    i = int(np.argmax(ratio))
    curve = np.column_stack([deltas, ratio])
    return float(deltas[i]), float(ratio[i]), curve


def curve_table(d: int, p=2.0, num: int = 2048) -> np.ndarray:
    """(num, 5) array of (delta, naive, union, hull, hull/union) at eps_inf = 1."""
    p, lo, hi = _sweep_range(d, p, "curve_table")
    return np.column_stack(_curve_columns(d, p, np.linspace(lo, hi, num)))
