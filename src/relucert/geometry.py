"""Extremal lp-norms outside the union / convex hull of an l1 and an linf ball.

Both balls are centred at the origin, with radii eps1 (l1) and eps_inf
(linf).  Closed forms are provided for the smallest lp-norm over the
complement of the union and of the convex hull, each written once in array
form: the radii, positive and finite, broadcast elementwise, and two scalars
give a float computed by the same array operations (numpy's scalar power
can round differently from its array loop).  The membership test and
randomized boundary oracles that validate them live with the tests, in
tests/oracles.py.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "dual_exponent",
    "naive_union_bound",
    "union_min_norm",
    "hull_min_norm",
    "ratio_analysis",
    "curve_table",
]


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


def _finite_p(d: int, p, name: str) -> float:
    """p checked finite and >= 1 (for name) and the dimension d >= 2."""
    if d < 2:
        raise ValueError("d must be at least 2")
    p = _p_value(p)
    if math.isinf(p):
        raise ValueError(f"{name} requires finite p")
    return p


def _radii(eps1, eps_inf):
    """The radii checked positive and finite, as broadcast float64 arrays of
    at least one dimension, and whether both were scalars."""
    scalar = np.ndim(eps1) == 0 and np.ndim(eps_inf) == 0
    eps1, eps_inf = np.broadcast_arrays(np.atleast_1d(np.asarray(eps1, dtype=np.float64)),
                                        np.atleast_1d(np.asarray(eps_inf, dtype=np.float64)))
    if not all(np.all((r > 0) & (r < math.inf)) for r in (eps1, eps_inf)):
        raise ValueError("ball radii must be positive and finite")
    return eps1, eps_inf, scalar


def naive_union_bound(eps1, eps_inf, d: int, p):
    """max(eps_inf, eps1 * d^((1-p)/p)): the bound from plain norm inequalities."""
    eps1, eps_inf, scalar = _radii(eps1, eps_inf)
    p = _finite_p(d, p, "naive_union_bound")
    out = np.maximum(eps_inf, eps1 * d ** ((1.0 - p) / p))
    return float(out[0]) if scalar else out


def union_min_norm(eps1, eps_inf, d: int, p):
    """Smallest lp-norm over the complement of the union of the two balls.

    Exact in the nontrivial regime eps_inf < eps1 < d*eps_inf; outside it one
    ball contains the other and the value falls back to the containment bound.
    Inside it the value is eps_inf * (1 + (d-1) r^p)^(1/p) with
    r = (delta - 1)/(d - 1) in (0, 1), delta = eps1/eps_inf: only r, below 1,
    is raised to the power p, so no p and no scale of the radii can overflow.
    """
    eps1, eps_inf, scalar = _radii(eps1, eps_inf)
    p = _finite_p(d, p, "union_min_norm")
    out = naive_union_bound(eps1, eps_inf, d, p)
    inside = (eps_inf < eps1) & (eps1 < d * eps_inf)
    einf = eps_inf[inside]
    delta = eps1[inside] / einf
    out[inside] = einf * (1.0 + (d - 1) * ((delta - 1.0) / (d - 1)) ** p) ** (1.0 / p)
    return float(out[0]) if scalar else out


def hull_min_norm(eps1, eps_inf, p):
    """Smallest lp-norm over the complement of conv(B1 u Binf).

    With delta = eps1/eps_inf and alpha its fractional part, the value is
    eps1 / (delta - alpha + alpha^q)^(1/q), q dual to p.  It does not depend
    on the dimension; the formula is exact for eps1 in [eps_inf, d*eps_inf]
    and extends continuously to eps1 <= eps_inf (where it returns eps_inf).
    The limit cases are p = 1 -> eps1 and p = inf -> eps_inf.
    """
    eps1, eps_inf, scalar = _radii(eps1, eps_inf)
    q = dual_exponent(p)  # p = 1: q = inf makes the denominator exactly 1
    delta = eps1 / eps_inf
    alpha = delta - np.floor(delta)
    out = eps1 / (delta - alpha + alpha**q) ** (1.0 / q)
    return float(out[0]) if scalar else out


def _sweep_range(d: int, p, name: str):
    """Validated p and the ends of the nontrivial delta range (1, d)."""
    return _finite_p(d, p, name), 1.0 + 1e-9, float(d) * (1.0 - 1e-12)


def _curve_columns(d: int, p: float, deltas: np.ndarray):
    """(delta, naive, union, hull, hull/union) at eps_inf = 1."""
    naive = naive_union_bound(deltas, 1.0, d, p)
    union = union_min_norm(deltas, 1.0, d, p)
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
    # sorted and deduplicated as np.unique would, which loads numpy.ma
    deltas = np.sort(np.concatenate([
        np.linspace(lo, hi, 2048),
        np.linspace(focus_lo, focus_hi, 4096),
    ]))
    deltas = deltas[np.concatenate(([True], deltas[1:] != deltas[:-1]))]
    *_, ratio = _curve_columns(d, p, deltas)
    i = int(np.argmax(ratio))
    curve = np.column_stack([deltas, ratio])
    return float(deltas[i]), float(ratio[i]), curve


def curve_table(d: int, p=2.0, num: int = 2048) -> np.ndarray:
    """(num, 5) array of (delta, naive, union, hull, hull/union) at eps_inf = 1."""
    p, lo, hi = _sweep_range(d, p, "curve_table")
    return np.column_stack(_curve_columns(d, p, np.linspace(lo, hi, num)))
