"""Brute-force geometry oracles that validate the closed forms of
relucert.geometry: a witness point for the union bound, a hull membership
test and gauge, and a randomized sampler of the hull boundary.  Like the
closed forms, each takes the radii eps1 and eps_inf, and the dimension d
where it needs one, as plain arguments."""

import math

import numpy as np

from relucert.geometry import _p_value


def union_witness(eps1, eps_inf, d, p) -> np.ndarray:
    """Point attaining union_min_norm: (d-1) equal coordinates plus one at eps_inf.

    Its l1-norm is exactly eps1 and its linf-norm exactly eps_inf, so it sits
    on the boundary of both balls simultaneously.
    """
    _p_value(p)
    if not (eps_inf < eps1 <= d * eps_inf):
        raise ValueError(
            f"witness needs eps_inf < eps1 <= d*eps_inf, got {eps1}, {eps_inf}, d={d}")
    v = np.full(d, (eps1 - eps_inf) / (d - 1))
    v[-1] = eps_inf
    return v


def hull_feasibility_gap(x, eps1, eps_inf) -> float:
    """max over t in [0,1] of t*eps1 - sum_i max(|x_i| - (1-t)*eps_inf, 0).

    The hull is the union over t of t*B1 + (1-t)*Binf, and x belongs to the
    t-slice iff the soft-threshold residual above is <= 0 at that t.  The gap
    is concave piecewise linear in t, so its maximum sits at t = 0, t = 1 or
    one of the kinks t_i = 1 - |x_i|/eps_inf; x is in the hull iff the
    maximum is >= 0.
    """
    x = np.asarray(x, dtype=np.float64)
    return float(_gap_rows(x[None, :], eps1, eps_inf)[0])


def _gap_rows(xs, eps1, eps_inf) -> np.ndarray:
    """hull_feasibility_gap for each row of xs, vectorized."""
    ax = np.abs(np.asarray(xs, dtype=np.float64))
    kinks = 1.0 - ax / eps_inf
    ts = np.concatenate(
        [np.zeros((ax.shape[0], 1)), np.ones((ax.shape[0], 1)), np.clip(kinks, 0.0, 1.0)],
        axis=1,
    )
    # residual at slice t: sum_i max(|x_i| - (1-t)*eps_inf, 0)
    resid = np.maximum(ax[:, None, :] - (1.0 - ts)[:, :, None] * eps_inf, 0.0).sum(axis=2)
    gaps = ts * eps1 - resid
    return gaps.max(axis=1)


def hull_membership(x, eps1, eps_inf, d, tol: float = 1e-9) -> bool:
    """True iff x lies in conv(B1 u Binf), up to slack tol."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (d,):
        raise ValueError(f"point has shape {x.shape}, expected ({d},)")
    return hull_feasibility_gap(x, eps1, eps_inf) >= -tol


def hull_gauge(x, eps1, eps_inf) -> float:
    """Gauge of the hull at x: the smallest g with x in g * conv(B1 u Binf).

    Splitting x = u + w, membership of the scaled hull is equivalent to
    ||u||_1/eps1 + ||w||_inf/eps_inf <= g, and the optimal w clips x at some
    threshold theta, so the gauge minimizes the convex piecewise-linear
    R(theta)/eps1 + theta/eps_inf over the kinks theta in {0} u {|x_i|}
    (R is the soft-threshold residual).  x is in the hull iff the gauge
    is <= 1, and x/gauge(x) sits exactly on the hull boundary.
    """
    x = np.asarray(x, dtype=np.float64)
    return float(_gauge_rows(x[None, :], eps1, eps_inf)[0])


def _gauge_rows(xs, eps1, eps_inf) -> np.ndarray:
    ax = np.abs(np.asarray(xs, dtype=np.float64))
    s = np.sort(ax, axis=1)[:, ::-1]
    pref = np.cumsum(s, axis=1)
    d = ax.shape[1]
    j = np.arange(1, d + 1)
    # residual above the j-th largest entry: sum of the j larger ones minus j*s_j
    resid = np.concatenate([np.zeros((len(ax), 1)), pref[:, :-1]], axis=1) - (j - 1) * s
    phi = resid / eps1 + s / eps_inf
    phi0 = pref[:, -1] / eps1  # theta = 0: everything assigned to the l1 part
    return np.minimum(phi.min(axis=1), phi0)


def hull_boundary_oracle(eps1, eps_inf, d, p, num_dirs: int = 50000, seed: int = 0,
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
    best = math.inf
    remaining = int(num_dirs)
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        dirs = rng.standard_normal((m, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        scale = 1.0 / _gauge_rows(dirs, eps1, eps_inf)
        if math.isinf(p):
            norms = np.abs(dirs).max(axis=1)
        else:
            norms = (np.abs(dirs) ** p).sum(axis=1) ** (1.0 / p)
        best = min(best, float((scale * norms).min()))
    return best
