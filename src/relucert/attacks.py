"""Projected-gradient attacks wrt l1, l2 and linf with random restarts.

Used to lower-bound the robust test error and to measure how often the
adversarial perturbations found for one norm fit inside the other norms'
balls.  All attacks respect the [0, 1] box: iterates are projected onto the
norm ball and the box alternately, and attack_dataset, which every attack
goes through, re-checks final feasibility exactly before a perturbation is
reported.

PGD steps on the float32 net.  When a net's hidden layers are wide compared
with its input (``_region_pays``), each attack also takes the affine map of
the activation region that holds the most anchors: iterates strictly inside
it get their logits and input gradient from that map, at the cost of an
N x (d + 1) membership product a row, and the others the layer-wise pass.
An attack drops the region after the first step that finds too few
iterates inside it.  Either way every candidate is classified again by the
float64 net before it counts, so the choice of path steers the search but
never reports an adversarial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import net_core
from .certify import EpsTriple, _check_labels, _check_radius, row_norms
from .datasets import Dataset

__all__ = [
    "PgdConfig",
    "project_lp_ball",
    "pgd_attack",
    "attack_dataset",
    "attack_norms",
    "lower_bounds",
    "overlap_table",
]

_FEAS_TOL = 1e-9
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


def project_lp_ball(v, eps, p):
    """Euclidean projection of v onto the lp ball of radius eps.

    linf by coordinate clipping, l2 by radial scaling, l1 by the sorting
    based soft-threshold projection.  eps must be finite and >= 0.
    """
    _check_radius(eps, "eps")
    p = float(p)
    if p not in (1.0, 2.0, math.inf):
        raise ValueError("p must be 1, 2 or inf")
    v = np.asarray(v, dtype=np.float64)
    return _project_ball_rows(v[None, :], eps, p)[0]


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
    """Gradient of the cross-entropy wrt the logits: softmax - onehot(y0)."""
    m = logits.max(axis=1, keepdims=True)
    g = np.exp(logits - m)
    g /= g.sum(axis=1, keepdims=True)
    g[np.arange(len(g)), y0] -= 1.0
    return g


class _Region(NamedTuple):
    """One activation region's affine maps in float32, each row [w, c] the
    map z -> w . z + c: the signed hidden rows (N, d + 1), all positive
    exactly inside the region, and the output map (K, d + 1)."""

    hidden: np.ndarray
    output: np.ndarray


def _region_pays(net, inside=1.0) -> bool:
    """Whether a step on a region's map is cheaper than the layer-wise pass
    when a share inside of the iterates lies in the region: the membership
    product (N x d for every row) is smaller than the products after the
    first layer (sum of n_l x n_{l-1}) that the rows inside skip."""
    return net.num_hidden_units * net.input_dim < inside * sum(w.size for w in net.weights[1:])


def _anchor_region(net, anchors) -> _Region:
    """The activation region of the float64 net that holds the most distinct
    anchors, built from one of them; ties go to the region seen first."""
    _, first = net_core._first_seen(np.ascontiguousarray(anchors).view(np.uint8))
    anchors = anchors[first]  # the restarts of a point share its anchor row
    _, preacts = net_core.forward_batch(net, anchors)
    keys = np.packbits(np.concatenate([g > 0 for g in preacts], axis=1), axis=1)
    group, first = net_core._first_seen(keys)
    rmap = net_core.region_map(net, anchors[first[np.bincount(group).argmax()]][None])
    sign = np.where(np.concatenate(rmap.masks, axis=1)[0], 1.0, -1.0)[:, None]
    hidden = sign * np.column_stack([rmap.rows[0], rmap.offsets[0]])
    output = np.column_stack([rmap.v_maps[-1][0], rmap.a_maps[-1][0]])
    return _Region(hidden.astype(np.float32), output.astype(np.float32))


def _forward(fast, region, Z):
    """Logits of the rows of Z on the float32 net, and the state _gradient
    needs.  With a region, rows strictly inside it get its output map; the
    others (all rows without one) the layer-wise forward_batch."""
    if region is None:
        logits, preacts = net_core.forward_batch(fast, Z)
        return logits, (None, preacts)
    Z1 = np.ones((len(Z), Z.shape[1] + 1), dtype=np.float32)
    Z1[:, :-1] = Z
    # (N, B) rather than (B, N): numpy's float32 Z1 @ hidden.T took four
    # times as long, and the min over the leading axis is vectorized
    out = np.flatnonzero(~((region.hidden @ Z1.T).min(axis=0) > 0))
    logits = Z1 @ region.output.T
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
    G = _logit_gradient(logits, y0) @ region.output[:, :-1]
    if len(out):
        G[out] = net_core.backward_batch(fast, preacts, _logit_gradient(logits[out], y0[out]))
    return G


def _ascent_step(G, p, sparsity_frac):
    if math.isinf(p):
        return np.sign(G)
    if p == 2.0:
        norms = np.linalg.norm(G, axis=1, keepdims=True)
        return G / np.maximum(norms, 1e-300)
    d = G.shape[1]
    k = max(1, int(round(sparsity_frac * d)))
    A = np.abs(G)
    if k < d:
        thresh = np.partition(A, d - k, axis=1)[:, d - k]
        mask = A >= thresh[:, None]
    else:
        mask = np.ones_like(A, dtype=bool)
    V = G * mask
    norms = np.abs(V).sum(axis=1, keepdims=True)
    return V / np.maximum(norms, 1e-300)


def _joint_project(Z, X_ref, eps, p):
    """Project onto {||z - x||_p <= eps} intersected with the [0,1] box.

    Clipping to the box never increases any coordinate gap to x, so one
    ball-then-box pass already lands in the intersection; the loop guards
    against pathological rounding and the result is re-checked exactly.
    """
    for _ in range(10):
        Z = X_ref + _project_ball_rows(Z - X_ref, eps, p)
        Z = np.clip(Z, 0.0, 1.0)
        if (row_norms(Z - X_ref, p) <= eps + _FEAS_TOL).all():
            break
    return Z


def _pgd_core(net, starts, X_ref, y, cfg: PgdConfig):
    """Run PGD from the given start rows; anchors and labels are per-row.

    Returns (success, best_norm, best_delta) per row; best_norm is the
    smallest perturbation norm among the misclassified feasible iterates.

    The forward pass and the input gradient run on a float32 copy of the
    net, about twice as fast as float64 in BLAS, and where _region_pays on
    the affine map of the region holding the most anchors for the iterates
    inside it, until a step finds too few of them there.  The iterates,
    projections and norms stay float64, and an iterate counts as
    misclassified only once the float64 net agrees at x + delta, the point
    attack_dataset re-checks.  So float32 rounding and the region's map can
    steer the search but never make a reported adversarial.
    """
    eps, p = cfg.eps, cfg.p
    eta = eps / 4.0 if p == 1.0 else 2.0 * eps / cfg.iterations
    y0 = y - 1
    fast = net.astype(np.float32)
    region = _anchor_region(net, X_ref) if _region_pays(net) else None
    Z = _joint_project(starts.copy(), X_ref, eps, p)
    best_norm = np.full(len(Z), math.inf)
    best_delta = np.zeros_like(Z)
    for it in range(cfg.iterations + 1):
        logits, state = _forward(fast, region, Z)
        pred = logits.argmax(axis=1)
        delta = Z - X_ref
        norms = row_norms(delta, p)
        hit = (pred != y0) & (norms <= eps + _FEAS_TOL) & (norms < best_norm)
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
        Z = _joint_project(Z, X_ref, eps, p)
    return np.isfinite(best_norm), best_norm, best_delta


def pgd_attack(net, x, label: int, cfg: PgdConfig):
    """Attack a single point; returns the best adversarial found or None.

    A one-point view of attack_dataset: restart 0 starts at x itself, the
    remaining restarts at random points of the ball intersected with the box.
    """
    x = np.asarray(x, dtype=np.float64)
    success, _, deltas = attack_dataset(net, Dataset(x[None, :], [label]), cfg)
    return x + deltas[0] if success[0] else None


def attack_dataset(net, dataset, cfg: PgdConfig):
    """PGD over every point, vectorized over (point, restart) pairs.

    Returns (success (n,), best_norm (n,), best_delta (n, d)).  Labels must
    lie in 1..K of the net.  Before a perturbation is reported it is
    re-checked exactly: it must lie in the ball and x + delta must be
    misclassified, else RuntimeError.
    """
    X = np.asarray(dataset.features, dtype=np.float64)
    y = _check_labels(net, dataset.labels)
    if len(X) == 0:
        raise ValueError("dataset is empty")
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
    success, norms, deltas = _pgd_core(net, starts, X_ref, y_rep, cfg)
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
    """attack_dataset for each requested norm ("l1", "l2", "linf") at its
    radius in eps = (eps1, eps2, eps_inf); returns {name: (success,
    best_norm, best_delta)}.

    Seeds are keyed by norm, seed + 1 for l1, + 2 for l2 and + 3 for linf,
    so a norm's result does not depend on which other norms are attacked.
    """
    radii = dict(zip(_ORDERS, eps))
    for name in norms:
        if name not in radii:
            raise ValueError(f"unknown norm {name!r}; expected l1, l2 or linf")
        if radii[name] is None:
            raise ValueError(f"no radius given for norm {name}")
        _check_radius(radii[name], _EPS_NAMES[name])
    out = {}
    for offset, (name, p) in enumerate(_ORDERS.items(), start=1):
        if name in norms:
            cfg = PgdConfig(p=p, eps=radii[name], iterations=iterations, restarts=restarts,
                            seed=seed + offset, sparsity_frac=sparsity_frac)
            out[name] = attack_dataset(net, dataset, cfg)
    return out


def lower_bounds(net, dataset, found: dict) -> dict:
    """Robust-error lower bounds from attack_norms results: for each attacked
    norm and for their "union", the fraction of points misclassified or
    broken by the attack(s)."""
    bad = net_core.classify_batch(net, dataset.features) != dataset.labels
    broken = {name: bad | success for name, (success, _, _) in found.items()}
    broken["union"] = np.logical_or.reduce([bad, *broken.values()])
    return {name: float(np.mean(v)) for name, v in broken.items()}


def overlap_table(found: dict, radii: dict) -> dict:
    """For each ordered norm pair (p, q): how many of the successful
    p-attack perturbations also fit in the q-ball of radius radii[q].
    found[p] is the (success, best_norm, best_delta) triple of attack_norms.

    Entries are dicts with count/total/pct; pct is None when no p-attack
    succeeded (0 of 0).
    """
    table = {}
    for pn in _ORDERS:
        success, _, deltas = found[pn]
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
