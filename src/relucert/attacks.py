"""Projected-gradient attacks wrt l1, l2 and linf with random restarts.

Used to lower-bound the robust test error and to measure how often the
adversarial perturbations found for one norm fit inside the other norms'
balls.  All attacks respect the [0, 1] box: iterates are projected onto the
norm ball and the box alternately, and _attack, which every norm of
attack_norms goes through, re-checks final feasibility exactly before a
perturbation is reported.

PGD steps on the float32 net.  When a net's hidden layers are wide compared
with its input (``_region_pays``), the attacks also take the affine map of
the activation region that holds the most data points: iterates strictly
inside it get their logits and input gradient from that map, and the others
the layer-wise pass.  attack_norms maps that region once and shares it
among its norms.  Each attack tests membership only against the region's
hidden rows that an iterate can reach, those that may turn non-positive
somewhere in an anchor's ball of its radius; the rest are provably positive
there and are dropped when the attack starts.  An attack drops the region
after the first step that finds too few iterates inside it.  Either way
every candidate is classified again by the float64 net before it counts,
so the choice of path steers the search but never reports an adversarial.

The softmax of the logit gradient runs class-major, K vectorized passes
across the rows instead of a reduction along each short row, bitwise the
row-wise result for K < 8 classes; the l1 step's top-1 threshold is the
row max, taken the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, net_core
from .certify import EpsTriple, _check_labels, _check_radius, row_norms

__all__ = [
    "PgdConfig",
    "attack_norms",
    "lower_bounds",
    "overlap_table",
]

_FEAS_TOL = 1e-9
_F32_UNIT = 2.0 ** -24  # unit roundoff of float32
_F32_TINY = float(np.finfo(np.float32).smallest_subnormal)
_ORDERS = {"l1": 1.0, "l2": 2.0, "linf": math.inf}
# each norm's radius as certify.bounds names it
_EPS_NAMES = dict(zip(_ORDERS, EpsTriple._fields))


@dataclass(frozen=True)
class PgdConfig:
    """Attack protocol: norm order p in {1, 2, inf}, budget eps (finite and
    >= 0), iterations and restarts; sparsity_frac controls how many
    coordinates the l1 step touches.  The step size is 2*eps/iterations for
    l2/linf and eps/4 for the sparse l1 step."""

    p: float
    eps: float
    iterations: int = 100
    restarts: int = 10
    sparsity_frac: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.p not in (1.0, 2.0, math.inf):
            raise ValueError("p must be 1, 2 or inf")
        _check_radius(self.eps, "eps")
        if self.iterations < 1 or self.restarts < 1:
            raise ValueError("iterations and restarts must be >= 1")
        if not (0.0 < self.sparsity_frac <= 1.0):
            raise ValueError("sparsity_frac must be in (0, 1]")


def _proj_l1_rows(D, eps):
    """Row-wise Euclidean projection onto the l1 ball, by sorting."""
    out = D.copy()
    norms = np.abs(D).sum(axis=1)
    over = norms > eps
    if not over.any():
        return out
    A = np.abs(D[over])
    if eps == 0.0:
        out[over] = 0.0
        return out
    S = np.sort(A, axis=1)[:, ::-1]
    css = np.cumsum(S, axis=1)
    ks = np.arange(1, A.shape[1] + 1)
    cond = S * ks > css - eps
    rho = np.count_nonzero(cond, axis=1) - 1
    theta = (css[np.arange(len(A)), rho] - eps) / (rho + 1)
    out[over] = np.sign(D[over]) * np.maximum(A - theta[:, None], 0.0)
    return out


def _project_ball_rows(D, eps, p):
    if math.isinf(p):
        return np.clip(D, -eps, eps)
    if p == 2.0:
        norms = np.sqrt((D * D).sum(axis=1))
        scale = np.where(norms > eps, eps / np.maximum(norms, 1e-300), 1.0)
        return D * scale[:, None]
    return _proj_l1_rows(D, eps)


def _sample_ball_rows(rng, m, d, eps, p):
    """Approximately uniform samples from the lp ball of radius eps."""
    if math.isinf(p):
        return rng.uniform(-eps, eps, size=(m, d))
    if p == 2.0:
        g = rng.standard_normal((m, d))
        g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
        r = eps * rng.random(m) ** (1.0 / d)
        return g * r[:, None]
    e = rng.standard_exponential((m, d))
    s = e / e.sum(axis=1, keepdims=True)
    signs = np.where(rng.random((m, d)) < 0.5, -1.0, 1.0)
    r = eps * rng.random(m) ** (1.0 / d)
    return signs * s * r[:, None]


def _logit_gradient(logits, y0):
    """Gradient of the cross-entropy wrt the logits: softmax - onehot(y0).

    It runs on a class-major copy (K, B) of the logits: the max, the
    normalizing sum and the one-hot subtraction each take K vectorized
    passes across the rows, where numpy reduces a short row at about 50 ns
    a row.  The max is exact, and for K < 8 numpy's row-wise sum is the
    same sequential sum, so the result is bitwise that of the row-wise
    form.  For K >= 8 numpy sums a row pairwise, so the denominator may
    differ from it in the last bit.  That only steers the search: every
    reported adversarial is verified in float64.
    """
    g = logits.T.copy()
    g -= g.max(axis=0)
    np.exp(g, out=g)
    g /= g.sum(axis=0)
    for k, row in enumerate(g):
        row -= y0 == k
    return np.ascontiguousarray(g.T)


def _region_pays(net, inside=1.0) -> bool:
    """Whether a step on a region's map is cheaper than the layer-wise pass
    when a share inside of the iterates lies in the region: the membership
    product (N x d for every row) is smaller than the products after the
    first layer (sum of n_l x n_{l-1}) that the rows inside skip.

    It prices the product over all N hidden rows, though an attack keeps
    only the reachable ones (_within), so it is conservative; it
    stays so on purpose, since a looser rule would move other nets from the
    layer-wise pass onto the region's float32 map and change their
    results."""
    return net.num_hidden_units * net.input_dim < inside * sum(w.size for w in net.weights[1:])


def _reachable_rows(hidden, anchors, radius, p):
    """Mask of the float32 signed rows [h, c] that an iterate can make
    non-positive.  Row j is kept if, for some anchor x, its slack h . x + c
    less the most a step of lp-norm radius takes off it, radius ||h||_q by
    Hoelder, is at most margin_j.  margin_j is twice a forward-error bound
    of the float32 (d + 1)-term product h . z + c over the [0, 1] box, the
    rounding of z to float32 and gradual underflow included, so a dropped
    row is > 0 in float32 at every point of the box within radius of every
    anchor."""
    H = hidden.astype(np.float64)
    slack = (anchors @ H[:, :-1].T + H[:, -1]).min(axis=0)
    reach = radius * row_norms(H[:, :-1], geometry.dual_exponent(p))
    margin = 2 * (H.shape[1] + 1) * (_F32_UNIT * np.abs(H).sum(axis=1) + _F32_TINY)
    return slack - reach <= margin


def _anchor_region(net, anchors):
    """The activation region of the float64 net that holds the most distinct
    anchors, built from one of them (ties go to the region seen first): the
    tuple (hidden, output, anchors, radius) of its ``affine_region`` rows in
    float32, signed hidden rows (N, d + 1) and output map (K, d + 1), the
    distinct anchors in order of first appearance and radius inf.  It does
    not depend on the norm or the radius, so one map serves every attack on
    the same points (_within)."""
    _, first = net_core._first_seen(np.ascontiguousarray(anchors).view(np.uint8))
    anchors = anchors[first]  # the restarts of a point share its anchor row
    _, preacts = net_core.forward_batch(net, anchors)
    keys = np.packbits(np.concatenate([g > 0 for g in preacts], axis=1), axis=1)
    group, first = net_core._first_seen(keys)
    rmap = net_core.region_map(net, anchors[first[np.bincount(group).argmax()]][None])
    hidden, output = rmap.affine_region(0)
    return hidden.astype(np.float32), output.astype(np.float32), anchors, math.inf


def _within(region, radius, p):
    """The region for iterates within lp-distance radius of their anchors:
    only the hidden rows that they can reach."""
    hidden, output, anchors, _ = region
    return hidden[_reachable_rows(hidden, anchors, radius, p)], output, anchors, radius


def _forward(fast, region, Z, norms):
    """Logits of the rows of Z on the float32 net, and the state _gradient
    needs; norms are the rows' distances to their anchors.  With a region,
    rows within its radius that are strictly inside it get its output map;
    the others (all rows without one) the layer-wise forward_batch.  Only
    the region's reachable rows are tested: the dropped ones are positive
    at every such iterate, and with none left every row within the radius
    is inside."""
    if region is None:
        logits, preacts = net_core.forward_batch(fast, Z)
        return logits, (None, preacts)
    hidden, output, _, radius = region
    Z1 = np.ones((len(Z), Z.shape[1] + 1), dtype=np.float32)
    Z1[:, :-1] = Z
    # (K, B) rather than (B, K): numpy's float32 Z1 @ hidden.T took four
    # times as long, and the min over the leading axis is vectorized
    inside = (hidden @ Z1.T).min(axis=0, initial=np.inf) > 0
    out = np.flatnonzero(~(inside & (norms <= radius)))
    logits = Z1 @ output.T
    preacts = None
    if len(out):
        logits[out], preacts = net_core.forward_batch(fast, Z1[out, :-1])
    return logits, (out, preacts)


def _gradient(fast, region, logits, state, y0):
    """Input gradient of the cross-entropy at the rows _forward saw: the
    region's (softmax - onehot) V inside it, the layer-wise backward pass
    elsewhere."""
    out, preacts = state
    if region is None:
        return net_core.backward_batch(fast, preacts, _logit_gradient(logits, y0))
    _, output, _, _ = region
    G = _logit_gradient(logits, y0) @ output[:, :-1]
    if len(out):
        G[out] = net_core.backward_batch(fast, preacts, _logit_gradient(logits[out], y0[out]))
    return G


def _ascent_step(G, p, sparsity_frac):
    """Steepest-ascent direction of unit lp-norm for each row of G: sign(G)
    for linf, G / ||G||_2 for l2, and for l1 G on its k = round(sparsity_frac
    * d) (at least 1) largest entries in magnitude, ties included.  The
    threshold is np.partition's (d - k)-th element; for k = 1, every d < 150
    at the default sparsity 0.01, that is the row max, which row_norms takes
    in vectorized passes, so the mask is the same."""
    if math.isinf(p):
        return np.sign(G)
    if p == 2.0:
        norms = np.linalg.norm(G, axis=1, keepdims=True)
        return G / np.maximum(norms, 1e-300)
    d = G.shape[1]
    k = max(1, int(round(sparsity_frac * d)))
    A = np.abs(G)
    if k < d:
        thresh = row_norms(A, math.inf) if k == 1 else np.partition(A, d - k, axis=1)[:, d - k]
        mask = A >= thresh[:, None]
    else:
        mask = np.ones_like(A, dtype=bool)
    V = G * mask
    norms = np.abs(V).sum(axis=1, keepdims=True)
    return V / np.maximum(norms, 1e-300)


def _joint_project(Z, X_ref, eps, p):
    """Project onto {||z - x||_p <= eps} intersected with the [0,1] box.

    Returns the projected rows, their deltas z - x and the deltas' lp-norms.
    Clipping to the box never increases any coordinate gap to x, so one
    ball-then-box pass already lands in the intersection; the loop guards
    against pathological rounding and the result is re-checked exactly.
    """
    for _ in range(10):
        Z = X_ref + _project_ball_rows(Z - X_ref, eps, p)
        Z = np.clip(Z, 0.0, 1.0)
        delta = Z - X_ref
        norms = row_norms(delta, p)
        if (norms <= eps + _FEAS_TOL).all():
            break
    return Z, delta, norms


def _pgd_core(net, starts, X_ref, y, cfg: PgdConfig, region):
    """Run PGD from the given start rows; anchors and labels are per-row.

    Returns (success, best_norm, best_delta) per row; best_norm is the
    smallest perturbation norm among the misclassified feasible iterates.

    The forward pass and the input gradient run on a float32 copy of the
    net, about twice as fast as float64 in BLAS, and, unless region is None,
    on the affine map of the anchors' region (_anchor_region of X_ref) for
    the iterates inside it, until a step finds too few of them there.  The
    attack keeps only the region's hidden rows that an iterate within the
    radius eps + _FEAS_TOL of its anchor can reach (_within); an
    iterate the projection leaves outside that radius takes the layer-wise
    pass.  The iterates, projections and norms stay float64, and an iterate
    counts as misclassified only once the float64 net agrees at x + delta,
    the point _attack re-checks.  So float32 rounding and the
    region's map can steer the search but never make a reported
    adversarial.
    """
    eps, p = cfg.eps, cfg.p
    radius = eps + _FEAS_TOL
    eta = eps / 4.0 if p == 1.0 else 2.0 * eps / cfg.iterations
    y0 = y - 1
    fast = net.astype(np.float32)
    if region is not None:
        region = _within(region, radius, p)
    Z, delta, norms = _joint_project(starts.copy(), X_ref, eps, p)
    best_norm = np.full(len(Z), math.inf)
    best_delta = np.zeros_like(Z)
    for it in range(cfg.iterations + 1):
        logits, state = _forward(fast, region, Z, norms)
        pred = logits.argmax(axis=1)
        hit = (pred != y0) & (norms <= radius) & (norms < best_norm)
        if hit.any():
            rows = np.flatnonzero(hit)
            hit[rows] = net_core.classify_batch(net, X_ref[rows] + delta[rows]) != y[rows]
            best_norm[hit] = norms[hit]
            best_delta[hit] = delta[hit]
        if it == cfg.iterations:
            break
        G = _gradient(fast, region, logits, state, y0).astype(np.float64)
        if region is not None and not _region_pays(net, 1.0 - len(state[0]) / len(Z)):
            region = None  # too few iterates inside: layer-wise from here on
        Z = Z + eta * _ascent_step(G, p, cfg.sparsity_frac)
        Z, delta, norms = _joint_project(Z, X_ref, eps, p)
    return np.isfinite(best_norm), best_norm, best_delta


def _prepare(net, dataset):
    """The checked points X and labels y of dataset, and the region of the
    anchors X that the attacks on them share (None where _region_pays is
    off)."""
    X = np.asarray(dataset.features, dtype=np.float64)
    y = _check_labels(net, dataset.labels)
    if len(X) == 0:
        raise ValueError("dataset is empty")
    return X, y, _anchor_region(net, X) if _region_pays(net) else None


def _attack(net, X, y, region, cfg: PgdConfig):
    """PGD with one config over the points of _prepare, vectorized over
    (point, restart) pairs; restart 0 starts at the point.  A reported
    perturbation is re-checked exactly: it must lie in the ball and x +
    delta must be misclassified, else RuntimeError."""
    n, d = X.shape
    R = cfg.restarts
    rng = np.random.default_rng(cfg.seed)
    X_ref = np.repeat(X, R, axis=0)
    starts = X_ref.copy()
    if R > 1:
        noise = _sample_ball_rows(rng, n * R, d, cfg.eps, cfg.p)
        mask = (np.arange(n * R) % R) > 0
        starts[mask] += noise[mask]
    y_rep = np.repeat(y, R)
    success, norms, deltas = _pgd_core(net, starts, X_ref, y_rep, cfg, region)
    success = success.reshape(n, R).any(axis=1)
    norms = norms.reshape(n, R)
    pick = norms.argmin(axis=1)
    idx = np.arange(n)
    norms, deltas = norms[idx, pick], deltas.reshape(n, R, d)[idx, pick]
    if not (row_norms(deltas[success], cfg.p) <= cfg.eps + _FEAS_TOL).all():
        raise RuntimeError(f"PGD returned a perturbation outside the l{cfg.p:g} ball "
                           f"of radius {cfg.eps}")
    if (net_core.classify_batch(net, X[success] + deltas[success]) == y[success]).any():
        raise RuntimeError("PGD returned a point that is not misclassified")
    return success, norms, deltas


def attack_norms(net, dataset, eps, norms=tuple(_ORDERS), iterations: int = 100,
                 restarts: int = 10, seed: int = 0, sparsity_frac: float = 0.01) -> dict:
    """PGD over every point of dataset for each requested norm ("l1", "l2",
    "linf") at its radius in eps = (eps1, eps2, eps_inf), one _attack a
    norm; returns {name: (success, best_norm, best_delta)}.  Labels must lie
    in 1..K of the net.

    Seeds are keyed by norm, seed + 1 for l1, + 2 for l2 and + 3 for linf,
    so a norm's result does not depend on which other norms are attacked.
    The anchors' region is mapped once and shared by the norms.
    """
    if isinstance(norms, str):
        raise ValueError(f"norms must be a sequence of names such as ('l1', 'linf'), "
                         f"got the string {norms!r}")
    radii = dict(zip(_ORDERS, eps))
    for name in norms:
        if name not in radii:
            raise ValueError(f"unknown norm {name!r}; expected l1, l2 or linf")
        if radii[name] is None:
            raise ValueError(f"no radius given for norm {name}")
        _check_radius(radii[name], _EPS_NAMES[name])
    cfgs = {name: PgdConfig(p=p, eps=radii[name], iterations=iterations, restarts=restarts,
                            seed=seed + offset, sparsity_frac=sparsity_frac)
            for offset, (name, p) in enumerate(_ORDERS.items(), start=1) if name in norms}
    points = _prepare(net, dataset)
    return {name: _attack(net, *points, cfg) for name, cfg in cfgs.items()}


def lower_bounds(net, dataset, found: dict) -> dict:
    """Robust-error lower bounds from attack_norms results: for each attacked
    norm and for their "union", the fraction of points misclassified or
    broken by the attack(s)."""
    bad = net_core.classify_batch(net, dataset.features) != dataset.labels
    broken = {name: bad | success for name, (success, _, _) in found.items()}
    broken["union"] = np.logical_or.reduce([bad, *broken.values()])
    return {name: float(np.mean(v)) for name, v in broken.items()}


def overlap_table(found: dict, radii: dict) -> dict:
    """For each attacked norm p and each other norm q: how many of the
    successful p-attack perturbations also fit in the q-ball of radius
    radii[q].  found[p] is the (success, best_norm, best_delta) triple of
    attack_norms.

    Entries are dicts with count/total/pct; pct is None when no p-attack
    succeeded (0 of 0).
    """
    table = {}
    for pn, (success, _, deltas) in found.items():
        deltas = deltas[success]
        total = len(deltas)
        for qn, q in _ORDERS.items():
            if qn == pn:
                continue
            if total == 0:
                table[(pn, qn)] = {"count": 0, "total": 0, "pct": None}
                continue
            inside = row_norms(deltas, q) <= radii[qn] + _FEAS_TOL
            count = int(inside.sum())
            table[(pn, qn)] = {"count": count, "total": total,
                               "pct": 100.0 * count / total}
    return table
