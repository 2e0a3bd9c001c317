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
from .net_core import row_norms

__all__ = [
    "EpsTriple",
    "OracleResult",
    "certificates",
    "exact_robustness_oracle",
    "bounds",
]

EpsTriple = namedtuple("EpsTriple", ["eps1", "eps2", "eps_inf"])

OracleResult = namedtuple("OracleResult", ["value", "exact", "num_regions"])


def _eps_triple(eps) -> EpsTriple:
    """eps read as (eps1, eps2, eps_inf); ValueError for any other length."""
    eps = tuple(eps)
    if len(eps) != len(EpsTriple._fields):
        raise ValueError(f"eps must be (eps1, eps2, eps_inf), got {len(eps)} values")
    return EpsTriple(*eps)


def plane_distances(values: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """values / norms, broadcast: signed distances to hyperplanes with the
    given values at the point and dual norms of their normals.  A zero
    normal (a constant hyperplane, which cannot be crossed) gives
    sign(value) * inf, and +inf for a zero value, so 0 / 0 never happens."""
    if (norms > 0).all():
        return values / norms
    out = np.full(np.broadcast_shapes(np.shape(values), np.shape(norms)), math.inf)
    np.divide(values, norms, out=out, where=norms > 0)
    out[(norms == 0) & (values < 0)] = -math.inf
    return out


def _check_finite(value, name: str, strict: bool = False) -> None:
    """ValueError unless value is finite and >= 0 (> 0 if strict); the
    message starts with name."""
    if not (math.isfinite(value) and (value > 0 if strict else value >= 0)):
        raise ValueError(f"{name} must be finite and {'>' if strict else '>='} 0, "
                         f"got {value!r}")


@dataclass(frozen=True)
class Certificates:
    """Per-point certificates of a batch, one array entry per point.

    ``label`` is the true class and ``predicted`` the net's, both in 1..K;
    ``correct`` marks the points the net predicts right.  ``rho1``,
    ``single_l2`` and ``rho_inf`` are the l1, l2 and linf distances to the
    nearest region or decision hyperplane, each zero at every incorrect
    point: the certified radii of the three norms.  ``universal_bound``
    turns rho1 and rho_inf into one for any lp.  ``region``
    numbers the points' activation regions 0, 1, ... in order of first
    appearance: points share an index exactly when they share a region.
    """

    label: np.ndarray
    predicted: np.ndarray
    correct: np.ndarray
    rho1: np.ndarray
    rho_inf: np.ndarray
    single_l2: np.ndarray
    region: np.ndarray

    def universal_bound(self, p) -> np.ndarray:
        """Lower bound on each point's lp-robustness at a norm order p >= 1.

        The smallest lp-norm outside the convex hull of the l1 ball of
        radius rho1 and the linf ball of radius rho_inf, which no decision or
        region hyperplane can enter; it equals rho1 at p = 1 and rho_inf at
        p = inf.  It is inf where rho1 is and 0 where rho_inf is.
        """
        out = np.where(np.isinf(self.rho1), math.inf, 0.0)
        hull = (self.rho_inf > 0.0) & np.isfinite(self.rho1)
        out[hull] = geometry.hull_min_norm(self.rho1[hull], self.rho_inf[hull], p)
        return out

    def radii(self) -> dict:
        """Certified radius of each point per norm, the one that ``bounds``
        uses: rho1, single_l2 and rho_inf.  universal_bound(2) is at most
        single_l2 in exact arithmetic but may round an ulp above it."""
        return {"l1": self.rho1, "l2": self.single_l2, "linf": self.rho_inf}


# The dual exponents of l1, l2 and linf, in the order _min_dists stacks them.
_DUALS = tuple(geometry.dual_exponent(p) for p in (1.0, 2.0, math.inf))


def _min_dists(rmap, values, normals):
    """Nearest boundary and nearest (signed) decision distance per point in
    l1, l2 and linf: two (3, B) arrays, a row per norm.  The gaps
    |rmap.values| are divided by their dual norms one norm at a time
    (``RegionMap.hidden_norms``), the decision values once by their three
    norms stacked (plane_distances).  A one-class net has no decision
    hyperplane in any region, so no input changes its class and both
    distances are inf."""
    dens = np.stack([row_norms(normals, q) for q in _DUALS])
    decision = plane_distances(values, dens).min(axis=2, initial=math.inf)
    if not normals.shape[1]:
        return decision, decision
    gaps = np.abs(rmap.values)
    boundary = np.stack([plane_distances(gaps, rmap.hidden_norms(q)).min(axis=1, initial=math.inf)
                         for q in _DUALS])
    return boundary, decision


def certificates(net, X, labels) -> Certificates:
    """Certificates of every row of X (B, d) with true labels in 1..K; the
    fields are described in ``Certificates``.  A correct point's decision
    values are all >= 0, so its radius in each norm is the nearer of its
    nearest boundary and decision hyperplane."""
    X, labels = net_core._labelled_batch(net, X, labels)
    n = len(labels)
    radii = np.zeros((3, n))  # l1, l2 and linf, as _min_dists stacks them
    predicted = np.zeros(n, dtype=np.int64)
    patterns = []
    for sl, rmap in net_core.region_maps(net, X):
        _, normals, values = rmap.decision_planes(labels[sl])
        boundary, decision = _min_dists(rmap, values, normals)
        patterns.append(np.packbits(rmap.values[rmap.first[-1]] > 0, axis=1)[rmap.region])
        predicted[sl] = np.argmax(rmap.logits, axis=1) + 1
        radii[:, sl] = np.where(predicted[sl] == labels[sl],
                                np.minimum(boundary, np.abs(decision)), 0.0)
    # numbered over the whole batch: a region met in several chunks gets one index
    region = net_core._first_seen(np.concatenate(patterns))[0]
    rho1, single_l2, rho_inf = radii
    return Certificates(labels, predicted, predicted == labels, rho1, rho_inf, single_l2, region)


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
        return float(row_norms(c - t[:, None] * e, 2.0).min())
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
    # float64's resolution on [0, 1].  r is scaled by its max per segment,
    # which keeps the sign and keeps the power from overflowing or its
    # largest terms from underflowing.  Coordinates lie along the leading
    # axis, so the sum takes d vectorized passes over the segments.
    cT, eT = c.T.copy(), e.T.copy()
    lo = np.zeros(len(starts))
    hi = np.ones(len(starts))
    for _ in range(64):
        t = 0.5 * (lo + hi)
        r = cT - t * eT
        top = np.abs(r).max(axis=0)
        r /= np.where(top > 0, top, 1.0)
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
    X, (label,) = net_core._labelled_batch(net, [x], [label])
    if net_core.classify_batch(net, X)[0] != label:
        return OracleResult(0.0, True, 0)
    x = X[0]
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
    eps = _eps_triple(eps)
    for name, e in eps._asdict().items():
        _check_finite(e, name)
    if len(certs.correct) == 0:
        raise ValueError("no points to bound: the dataset is empty")
    ok = {name: certs.correct & (radius >= e)
          for (name, radius), e in zip(certs.radii().items(), eps)}
    ok["union"] = ok["l1"] & ok["l2"] & ok["linf"]
    return {name: float(np.mean(~v)) for name, v in ok.items()}
