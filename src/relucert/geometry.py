"""Extremal lp-norms outside the union / convex hull of an l1 and an linf ball.

Both balls are centred at the origin, with radii eps1 (l1) and eps_inf
(linf).  Closed forms are provided for the smallest lp-norm over the
complement of the union and of the convex hull, together with a membership
test and randomized boundary oracles used to validate the closed forms.
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
    "union_witness",
    "hull_min_norm",
    "hull_membership",
    "hull_feasibility_gap",
    "hull_boundary_oracle",
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

    @property
    def nontrivial(self) -> bool:
        """True when neither ball contains the other."""
        return self.eps_inf < self.eps1 < self.dim * self.eps_inf


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


def naive_union_bound(bp: BallPair, p) -> float:
    """max(eps_inf, eps1 * d^((1-p)/p)): the bound from plain norm inequalities."""
    p = _p_value(p)
    if math.isinf(p):
        raise ValueError("naive_union_bound requires finite p")
    return max(bp.eps_inf, bp.eps1 * bp.dim ** ((1.0 - p) / p))


def union_min_norm(bp: BallPair, p) -> float:
    """Smallest lp-norm over the complement of the union of the two balls.

    Exact in the nontrivial regime eps_inf < eps1 < d*eps_inf; outside it one
    ball contains the other and the value falls back to the containment bound.
    """
    p = _p_value(p)
    if math.isinf(p):
        raise ValueError("union_min_norm requires finite p")
    e1, einf, d = bp.eps1, bp.eps_inf, bp.dim
    if e1 <= einf:
        return einf
    if e1 >= d * einf:
        return e1 * d ** ((1.0 - p) / p)
    return (einf**p + (e1 - einf) ** p / (d - 1) ** (p - 1.0)) ** (1.0 / p)


def union_witness(bp: BallPair, p) -> np.ndarray:
    """Point attaining union_min_norm: (d-1) equal coordinates plus one at eps_inf.

    Its l1-norm is exactly eps1 and its linf-norm exactly eps_inf, so it sits
    on the boundary of both balls simultaneously.
    """
    _p_value(p)
    if not (bp.eps_inf < bp.eps1 <= bp.dim * bp.eps_inf):
        raise ValueError(
            f"witness needs eps_inf < eps1 <= d*eps_inf, got {bp}")
    v = np.full(bp.dim, (bp.eps1 - bp.eps_inf) / (bp.dim - 1))
    v[-1] = bp.eps_inf
    return v


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
    if not (np.all(eps1 > 0) and np.all(eps_inf > 0)):
        raise ValueError("ball radii must be positive")
    q = dual_exponent(p)  # p = 1: q = inf makes the denominator exactly 1
    delta = eps1 / eps_inf
    alpha = delta - np.floor(delta)
    out = eps1 / (delta - alpha + alpha**q) ** (1.0 / q)
    return float(out[0]) if scalar else out


def hull_feasibility_gap(x, bp: BallPair) -> float:
    """max over t in [0,1] of t*eps1 - sum_i max(|x_i| - (1-t)*eps_inf, 0).

    The hull is the union over t of t*B1 + (1-t)*Binf, and x belongs to the
    t-slice iff the soft-threshold residual above is <= 0 at that t.  The gap
    is concave piecewise linear in t, so its maximum sits at t = 0, t = 1 or
    one of the kinks t_i = 1 - |x_i|/eps_inf; x is in the hull iff the
    maximum is >= 0.
    """
    x = np.asarray(x, dtype=np.float64)
    return float(_gap_rows(x[None, :], bp)[0])


def _gap_rows(xs, bp: BallPair) -> np.ndarray:
    """hull_feasibility_gap for each row of xs, vectorized."""
    ax = np.abs(np.asarray(xs, dtype=np.float64))
    kinks = 1.0 - ax / bp.eps_inf
    ts = np.concatenate(
        [np.zeros((ax.shape[0], 1)), np.ones((ax.shape[0], 1)), np.clip(kinks, 0.0, 1.0)],
        axis=1,
    )
    # residual at slice t: sum_i max(|x_i| - (1-t)*eps_inf, 0)
    resid = np.maximum(ax[:, None, :] - (1.0 - ts)[:, :, None] * bp.eps_inf, 0.0).sum(axis=2)
    gaps = ts * bp.eps1 - resid
    return gaps.max(axis=1)


def hull_membership(x, bp: BallPair, tol: float = 1e-9) -> bool:
    """True iff x lies in conv(B1 u Binf), up to slack tol."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (bp.dim,):
        raise ValueError(f"point has shape {x.shape}, expected ({bp.dim},)")
    return hull_feasibility_gap(x, bp) >= -tol


def hull_gauge(x, bp: BallPair) -> float:
    """Gauge of the hull at x: the smallest g with x in g * conv(B1 u Binf).

    Splitting x = u + w, membership of the scaled hull is equivalent to
    ||u||_1/eps1 + ||w||_inf/eps_inf <= g, and the optimal w clips x at some
    threshold theta, so the gauge minimizes the convex piecewise-linear
    R(theta)/eps1 + theta/eps_inf over the kinks theta in {0} u {|x_i|}
    (R is the soft-threshold residual).  x is in the hull iff the gauge
    is <= 1, and x/gauge(x) sits exactly on the hull boundary.
    """
    x = np.asarray(x, dtype=np.float64)
    return float(_gauge_rows(x[None, :], bp)[0])


def _gauge_rows(xs, bp: BallPair) -> np.ndarray:
    ax = np.abs(np.asarray(xs, dtype=np.float64))
    s = np.sort(ax, axis=1)[:, ::-1]
    pref = np.cumsum(s, axis=1)
    d = ax.shape[1]
    j = np.arange(1, d + 1)
    # residual above the j-th largest entry: sum of the j larger ones minus j*s_j
    resid = np.concatenate([np.zeros((len(ax), 1)), pref[:, :-1]], axis=1) - (j - 1) * s
    phi = resid / bp.eps1 + s / bp.eps_inf
    phi0 = pref[:, -1] / bp.eps1  # theta = 0: everything assigned to the l1 part
    return np.minimum(phi.min(axis=1), phi0)


def hull_boundary_oracle(bp: BallPair, p, num_dirs: int = 50000, seed: int = 0,
                         chunk: int = 65536) -> float:
    """Sampled upper bound on hull_min_norm.

    For each random unit direction the exact boundary scale is the inverse
    hull gauge (the membership gap is piecewise linear in the scale, so its
    root is available in closed form); every per-direction value is a point
    of the complement's closure, hence an upper bound, and the minimum over
    directions converges to hull_min_norm from above as num_dirs grows.
    """
    p = _p_value(p)
    rng = np.random.default_rng(seed)
    d = bp.dim
    best = math.inf
    remaining = int(num_dirs)
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        dirs = rng.standard_normal((m, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        scale = 1.0 / _gauge_rows(dirs, bp)
        if math.isinf(p):
            norms = np.abs(dirs).max(axis=1)
        else:
            norms = (np.abs(dirs) ** p).sum(axis=1) ** (1.0 / p)
        best = min(best, float((scale * norms).min()))
    return best


def _sweep_range(d: int, p, name: str):
    """Validated p and the ends of the nontrivial delta range (1, d)."""
    if d < 2:
        raise ValueError("d must be at least 2")
    p = _p_value(p)
    if math.isinf(p):
        raise ValueError(f"{name} requires finite p")
    return p, 1.0 + 1e-9, float(d) * (1.0 - 1e-12)


def _curve_columns(d: int, p: float, deltas: np.ndarray):
    """(delta, naive, union, hull, hull/union) at eps_inf = 1."""
    naive = np.maximum(1.0, deltas * d ** ((1.0 - p) / p))
    union = (1.0 + (deltas - 1.0) ** p / (d - 1) ** (p - 1.0)) ** (1.0 / p)
    hull = hull_min_norm(deltas, 1.0, p)
    return deltas, naive, union, hull, hull / union


def ratio_analysis(d: int, p=2.0, num_coarse: int = 2048, num_focus: int = 4096):
    """Sweep delta = eps1/eps_inf over (1, d) and compare hull vs union values.

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
        np.linspace(lo, hi, num_coarse),
        np.linspace(focus_lo, focus_hi, num_focus),
    ]))
    *_, ratio = _curve_columns(d, p, deltas)
    i = int(np.argmax(ratio))
    curve = np.column_stack([deltas, ratio])
    return float(deltas[i]), float(ratio[i]), curve


def curve_table(d: int, p=2.0, num: int = 2048) -> np.ndarray:
    """(num, 5) array of (delta, naive, union, hull, hull/union) at eps_inf = 1."""
    p, lo, hi = _sweep_range(d, p, "curve_table")
    return np.column_stack(_curve_columns(d, p, np.linspace(lo, hi, num)))
