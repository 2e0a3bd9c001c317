"""Hyperplane distances, per-norm robustness guarantees and the universal
all-lp certificate built from the l1 and linf distance profiles.

All operations are pure functions over immutable nets.  Distances follow the
convention that decision distances are signed with the true label as
reference class, so a misclassified point has a negative minimum decision
distance and certifies to zero.
"""

from __future__ import annotations

import math
import weakref
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import geometry, net_core, regions

__all__ = [
    "EpsTriple",
    "OracleResult",
    "certificates",
    "exact_robustness_oracle",
    "bounds",
]

EpsTriple = namedtuple("EpsTriple", ["eps1", "eps2", "eps_inf"])

OracleResult = namedtuple("OracleResult", ["value", "exact", "num_regions"])


def _hull_radii(rho1: np.ndarray, rho_inf: np.ndarray, p) -> np.ndarray:
    """The all-p bound of each point at p from its rho1 and rho_inf arrays:
    inf where rho1 is inf, 0 where rho_inf is 0, else hull_min_norm."""
    out = np.where(np.isinf(rho1), math.inf, 0.0)
    hull = (rho_inf > 0.0) & np.isfinite(rho1)
    out[hull] = geometry.hull_min_norm(rho1[hull], rho_inf[hull], p)
    return out


def row_norms(mat: np.ndarray, p: float) -> np.ndarray:
    """lp-norms along the last axis; p = inf is the max-norm."""
    a = np.abs(mat)
    if math.isinf(p):
        k = a.shape[-1]
        if 1 < k <= 32 and a.size >= 256 * k:
            # numpy reduces a short last axis row by row, at about 50 ns a
            # row; over the leading axis of a transposed copy it takes k
            # vectorized passes instead.  Max is exact, so the result is the same.
            return np.moveaxis(a, -1, 0).copy().max(axis=0)
        return a.max(axis=-1)
    if p == 1.0:
        return a.sum(axis=-1)
    return (a ** p).sum(axis=-1) ** (1.0 / p)


def plane_distances(values: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """values / norms: signed distances to hyperplanes with the given values
    at the point and dual norms of their normals.  A zero normal (a constant
    hyperplane, which cannot be crossed) gives sign(value) * inf, and +inf
    for a zero value."""
    out = np.full(np.shape(values), math.inf)
    np.divide(values, norms, out=out, where=norms > 0)
    out[(norms == 0) & (values < 0)] = -math.inf
    return out


def _check_labels(net, labels) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    bad = (labels < 1) | (labels > net.num_classes)
    if bad.any():
        raise ValueError(f"label {labels[bad][0]} out of range 1..{net.num_classes}")
    return labels


def _check_radius(value, name: str) -> None:
    """ValueError unless the radius value is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class Certificates:
    """Per-point certificates of a batch, one array entry per point.

    ``label`` is the true class and ``predicted`` the net's, both in 1..K;
    ``correct`` marks the points the net predicts right with no decision
    hyperplane of their region crossed.  ``rho1`` / ``rho_inf`` are the
    l1 / linf distances to the nearest region or decision hyperplane;
    ``lb_l1`` = rho1, ``lb_linf`` = rho_inf and ``lb_l2`` is the universal
    bound at p = 2 (``universal_bound``).  All five are zero for incorrect
    points.  ``single_l2`` is the single-norm l2 bound, the nearest region
    or decision hyperplane in l2, zero when the nearest decision hyperplane
    is crossed.  ``region`` numbers the points' activation regions 0, 1,
    ... in order of first appearance: points share an index exactly when
    they share a region.
    """

    label: np.ndarray
    predicted: np.ndarray
    correct: np.ndarray
    rho1: np.ndarray
    rho_inf: np.ndarray
    lb_l1: np.ndarray
    lb_l2: np.ndarray
    lb_linf: np.ndarray
    single_l2: np.ndarray
    region: np.ndarray

    def universal_bound(self, p) -> np.ndarray:
        """Lower bound on each point's lp-robustness at a norm order p >= 1.

        The smallest lp-norm outside the convex hull of the l1 ball of
        radius rho1 and the linf ball of radius rho_inf, which no decision or
        region hyperplane can enter; it equals rho1 at p = 1 and rho_inf at
        p = inf.
        """
        return _hull_radii(self.rho1, self.rho_inf, p)

    def radii(self) -> dict:
        """Certified radius of each point per norm: lb_l1, lb_linf, and for
        l2 the larger of the universal bound lb_l2 and the single-norm bound
        single_l2 (both are lower bounds, so their maximum is one too)."""
        return {"l1": self.lb_l1, "l2": np.maximum(self.lb_l2, self.single_l2),
                "linf": self.lb_linf}


def hidden_norms(rmap, q) -> np.ndarray:
    """(B, N) lq-norms of each point's hidden hyperplane normals, taken once
    per table row."""
    return rmap.stacked([row_norms(v, q) for v in rmap.v_maps[:-1]])


def _min_dists(rmap, gaps, values, normals, p):
    """Nearest boundary and nearest (signed) decision lp-distance per point,
    gaps being |rmap.values|."""
    q = geometry.dual_exponent(p)
    boundary = plane_distances(gaps, hidden_norms(rmap, q)).min(axis=1, initial=math.inf)
    decision = plane_distances(values, row_norms(normals, q)).min(axis=1, initial=math.inf)
    return boundary, decision


def certificates(net, X, labels) -> Certificates:
    """Certificates of every row of X (B, d) with true labels in 1..K; the
    fields are described in ``Certificates``."""
    labels = _check_labels(net, labels)
    n = len(labels)
    if len(X) != n:
        raise ValueError(f"{len(X)} points but {n} labels")
    out = {k: np.zeros(n) for k in ("rho1", "rho_inf", "single_l2")}
    predicted = np.zeros(n, dtype=np.int64)
    correct = np.zeros(n, dtype=bool)
    region, patterns, seen = np.zeros(n, dtype=np.int64), [], 0
    for sl, rmap in net_core.region_maps(net, X):
        y = labels[sl]
        _, normals, values = rmap.decision_planes(y)
        gaps = np.abs(rmap.values)
        b1, d1 = _min_dists(rmap, gaps, values, normals, 1.0)
        b2, d2 = _min_dists(rmap, gaps, values, normals, 2.0)
        binf, dinf = _min_dists(rmap, gaps, values, normals, math.inf)
        region[sl] = rmap.region + seen
        patterns.append(rmap.patterns())
        seen += len(patterns[-1])
        predicted[sl] = np.argmax(rmap.logits, axis=1) + 1
        ok = (predicted[sl] == y) & ~(d1 < 0.0)
        correct[sl] = ok
        out["rho1"][sl] = np.where(ok, np.minimum(b1, np.abs(d1)), 0.0)
        out["rho_inf"][sl] = np.where(ok, np.minimum(binf, np.abs(dinf)), 0.0)
        out["single_l2"][sl] = np.where(d2 < 0.0, 0.0, np.minimum(b2, d2))
    rho1, rho_inf = out["rho1"], out["rho_inf"]
    if patterns:
        # a region met in several chunks gets one index
        region = net_core._first_seen(np.concatenate(patterns))[0][region]
    return Certificates(labels, predicted, correct, rho1, rho_inf, rho1,
                        _hull_radii(rho1, rho_inf, 2.0), rho_inf, out["single_l2"], region)


# -- exact robustness oracle -------------------------------------------------

# Per net, weakly keyed: its region atlas, complete or not.
_ORACLE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _atlas_for(net):
    """The net's complete region atlas, built once per net; ValueError when
    the box needs more than regions.MAX_REGIONS regions."""
    if net not in _ORACLE_CACHE:
        _ORACLE_CACHE[net] = regions.RegionAtlas(net)
    atlas = _ORACLE_CACHE[net]
    if not atlas.complete:
        raise ValueError(f"the box [{regions.LO}, {regions.HI}]^2 needs more than "
                         f"regions.MAX_REGIONS = {regions.MAX_REGIONS} linear regions")
    return atlas


def _min_lp_to_segments(x: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                        p: float) -> float:
    """min over segments of min_t ||x - (a + t(b-a))||_p, t in [0,1].

    The objective is convex in t.  For p in {1, 2, inf} the minimum over t is
    found exactly from the finitely many candidate t where the gradient can
    vanish or kink; other p bisect each segment on the sign of the
    derivative, vectorized over the segments.
    """
    if len(starts) == 0:
        return math.inf
    c = x[None, :] - starts          # distance vector at t = 0
    e = ends - starts                # derivative of the segment point
    if p == 2.0:
        ee = (e * e).sum(axis=1)
        t = np.zeros(len(starts))
        nz = ee > 0
        t[nz] = np.clip((c[nz] * e[nz]).sum(axis=1) / ee[nz], 0.0, 1.0)
        diff = c - t[:, None] * e
        return float(np.sqrt((diff * diff).sum(axis=1)).min())
    if p == 1.0 or math.isinf(p):
        cands = [np.zeros(len(starts)), np.ones(len(starts))]
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(x.shape[0]):
                cands.append(np.where(e[:, i] != 0, c[:, i] / e[:, i], 0.0))
            if math.isinf(p) and x.shape[0] == 2:
                # crossings of the two coordinate envelopes |c_i - t e_i|
                den1 = e[:, 0] - e[:, 1]
                den2 = e[:, 0] + e[:, 1]
                cands.append(np.where(den1 != 0, (c[:, 0] - c[:, 1]) / den1, 0.0))
                cands.append(np.where(den2 != 0, (c[:, 0] + c[:, 1]) / den2, 0.0))
        best = np.full(len(starts), math.inf)
        for t in cands:
            t = np.clip(np.nan_to_num(t, nan=0.0), 0.0, 1.0)
            best = np.minimum(best, row_norms(c - t[:, None] * e, p))
        return float(best.min())
    # general p: sum_i |c_i - t e_i|^p is convex and differentiable in t, so
    # bisect each segment on the sign of its derivative, -p sum_i e_i
    # sign(r_i) |r_i|^(p-1) with r = c - t e; 64 halvings pin t below
    # float64's resolution on [0, 1].  Coordinates lie along the leading
    # axis, so the sum takes d vectorized passes over the segments.
    cT, eT = c.T.copy(), e.T.copy()
    lo = np.zeros(len(starts))
    hi = np.ones(len(starts))
    for _ in range(64):
        t = 0.5 * (lo + hi)
        r = cT - t * eT
        rising = (eT * np.copysign(np.abs(r) ** (p - 1.0), r)).sum(axis=0) < 0
        hi = np.where(rising, t, hi)
        lo = np.where(rising, lo, t)
    t = 0.5 * (lo + hi)
    return float(row_norms(c - t[:, None] * e, p).min())


def exact_robustness_oracle(net, x, label: int, p) -> OracleResult:
    """The true lp-robustness at x of a net with 2-D inputs, from the map of
    its linear regions in the box [regions.LO, regions.HI]^2.

    The value is the lp-distance from x to the class-change set assembled
    from every region's decision polygon.  It is the true robustness when it
    is below 0.9 of x's distance to the box's edge, which ``exact`` then
    marks; otherwise it is an upper bound.  Raises ValueError for nets whose
    input dimension is not 2 and for boxes that need more than
    regions.MAX_REGIONS regions.
    """
    if net.input_dim != 2:
        raise ValueError(f"the exact oracle maps 2-D inputs only, got d = {net.input_dim}")
    p = geometry._p_value(p)
    label = int(_check_labels(net, label))
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise ValueError(f"input has shape {x.shape}, expected ({net.input_dim},)")
    if not np.isfinite(x).all():
        raise ValueError("input has non-finite entries")
    if net_core.classify_batch(net, x[None, :])[0] != label:
        return OracleResult(0.0, True, 0)
    atlas = _atlas_for(net)
    value = _min_lp_to_segments(x, *atlas.decision_edges(label), p)
    # distance from x to the box boundary (same in every lp: one coordinate)
    margin = min(float((x - regions.LO).min()), float((regions.HI - x).min()))
    return OracleResult(value, value < 0.9 * margin, len(atlas.regions))


# -- dataset-level upper bound ------------------------------------------------


def bounds(certs: Certificates, eps) -> dict:
    """Robust-error upper bounds of a batch: for "l1", "l2", "linf" and their
    "union", the fraction of points not certified at eps1 / eps2 / eps_inf
    (all three for the union).

    A point is certified when it is correct and its certified radius
    (``Certificates.radii``) reaches the norm's eps.  Each eps must be
    finite and >= 0.
    """
    eps = EpsTriple(*eps)
    for name, e in eps._asdict().items():
        _check_radius(e, name)
    if len(certs.correct) == 0:
        raise ValueError("no points to bound: the dataset is empty")
    ok = {name: certs.correct & (radius >= e)
          for (name, radius), e in zip(certs.radii().items(), eps)}
    ok["union"] = ok["l1"] & ok["l2"] & ok["linf"]
    return {name: float(np.mean(~v)) for name, v in ok.items()}
