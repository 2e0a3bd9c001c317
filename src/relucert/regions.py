"""Exhaustive map of the linear regions a small 2-D ReLU net cuts out of a box.

Every activation region is a convex polygon on which the net is affine, so
the set of inputs reaching a different class decomposes into clipped
polygons whose edges can be enumerated.  Regions are discovered by walking
across facets: flipping the unit whose hyperplane carries the facet and
re-reading the activation pattern just across it.  Random probe points are
added as extra BFS seeds so that facets lost to degeneracies cannot hide a
region.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import net_core

__all__ = ["RegionAtlas", "clip_polygon"]

# Two float evaluations of n.z + off for a 2-D z (any product order, with or
# without fused multiply-adds, plus the rounding of a threshold added to
# them) differ by at most about 8e-16 times |n0 z0| + |n1 z1| + |off|.
# Vectorised sign tests widen their threshold by _ROUNDING times that sum, so
# they only decide a case that clip_polygon would decide the same way and
# hand every closer one to clip_polygon: its results stay bit for bit those
# of clipping by every half-plane.
_ROUNDING = 1e-15


def clip_polygon(poly: np.ndarray, normal, cutoff, tol: float = 1e-12) -> np.ndarray:
    """Intersect a convex polygon with the half-plane {z : normal.z <= cutoff}.

    poly is an (m, 2) array of vertices in order (either orientation); the
    result may be empty, a segment (2 vertices) or a polygon.
    """
    if len(poly) == 0:
        return poly
    # plain floats: the per-vertex loop over numpy scalars costs twice as much
    d = (poly @ np.asarray(normal, dtype=np.float64) - float(cutoff)).tolist()
    pts = poly.tolist()
    out = []
    m = len(pts)
    for i in range(m):
        j = (i + 1) % m
        di, dj = d[i], d[j]
        if di <= tol:
            out.append(pts[i])
        if (di < -tol and dj > tol) or (di > tol and dj < -tol):
            t = di / (di - dj)
            (xi, yi), (xj, yj) = pts[i], pts[j]
            out.append((xi + t * (xj - xi), yi + t * (yj - yi)))
    return np.asarray(out, dtype=np.float64).reshape(-1, 2)


def _polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _region_polygon(box, rows, offs, oris, reach):
    """The region {oris * (rows.z + offs) >= 0} inside box, or None if empty.

    The same polygon as clipping box by every unit's half-plane in unit
    order.  A clip that no vertex violates returns the polygon unchanged, so
    one product per step finds the next unit that some vertex may violate
    and only that clip is made.  reach bounds |z| over the box.
    """
    l1 = np.abs(rows).sum(axis=1)
    const = l1 == 0.0
    # a constant unit is only consistent if its sign agrees with the mask
    if np.any(const & (oris * offs < 0)):
        return None
    # active: n.z + off >= 0  ->  (-n).z <= off
    normals = -oris[:, None] * rows
    cutoffs = oris * offs
    # clip_polygon changes nothing unless normal.z - cutoff > 1e-12 somewhere
    limit = cutoffs + (1e-12 - _ROUNDING * (reach * l1 + np.abs(offs)))
    limit[const] = np.inf
    normals_t = np.ascontiguousarray(normals.T)
    poly, i = box, 0
    while i < len(limit):
        hit = (poly @ normals_t[:, i:] > limit[i:]).any(axis=0)
        j = int(hit.argmax())
        if not hit[j]:
            break
        i += j
        poly = clip_polygon(poly, normals[i], cutoffs[i])
        if len(poly) < 3:
            return None
        i += 1
    return poly


def _facet_crossings(poly, rows, offs, oris, step, on_tol):
    """A point just across each facet of a region's polygon, in unit order.

    A unit carries a facet when at least two vertices lie on its line; the
    point is the midpoint of the facet's vertices stepped a distance step
    past the line.  Norms and products are taken for all units at once and
    may round differently in the last bit from one unit at a time; that can
    only matter for a vertex within rounding of on_tol from a line, or a
    crossing point within rounding of another unit's line.
    """
    nn = np.linalg.norm(rows, axis=1)
    on = np.abs(poly @ rows.T + offs) <= on_tol * np.maximum(1.0, nn)
    f = np.flatnonzero((on.sum(axis=0) >= 2) & (nn != 0.0))
    on, pts = on[:, f, None], poly[:, None, :]
    mid = 0.5 * (np.where(on, pts, np.inf).min(axis=0) + np.where(on, pts, -np.inf).max(axis=0))
    return mid - (oris[f] * (step / nn[f]))[:, None] * rows[f]


@dataclass
class _Region:
    key: tuple
    poly: np.ndarray
    v_out: np.ndarray
    a_out: np.ndarray


class RegionAtlas:
    """All activation regions of a 2-D net intersected with [lo, hi]^2.

    The atlas keeps no reference to the net, so a cache keyed weakly by the
    net drops the atlas together with the net.
    """

    def __init__(self, net, lo: float = -8.0, hi: float = 9.0,
                 max_regions: int = 20000, num_probes: int = 512, seed: int = 7):
        if net.input_dim != 2:
            raise ValueError("RegionAtlas supports 2-D inputs only")
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"RegionAtlas needs finite lo < hi, got lo={lo}, hi={hi}")
        if int(max_regions) < 1:
            raise ValueError(f"max_regions must be >= 1, got {max_regions}")
        if int(num_probes) < 0:
            raise ValueError(f"num_probes must be >= 0, got {num_probes}")
        self.num_classes = net.num_classes
        self.lo = lo
        self.hi = hi
        self.max_regions = int(max_regions)
        self.regions: list[_Region] = []
        self.complete = True
        self._edge_cache: dict[int, tuple] = {}
        self._build(net, int(num_probes), seed)

    # -- construction ------------------------------------------------------

    def _build(self, net, num_probes: int, seed: int):
        lo, hi = self.lo, self.hi
        box = np.array([[lo, lo], [hi, lo], [hi, hi], [lo, hi]])
        rng = np.random.default_rng(seed)
        probes = rng.uniform(lo, hi, size=(num_probes, 2))
        probes = np.vstack([probes, [[0.5 * (lo + hi), 0.5 * (lo + hi)]]])

        scale = hi - lo
        step = 1e-7 * scale
        on_tol = 1e-9 * scale
        reach = max(abs(lo), abs(hi))

        queue = deque()
        seen = set()

        def visit(zs):
            # queue, in order, the regions containing rows of zs not seen before
            _, preacts = net_core.forward_batch(net, zs)
            masks = [(g > 0).astype(np.uint8) for g in preacts]
            for r, z in enumerate(zs):
                key = tuple(m[r].tobytes() for m in masks)
                if key not in seen:
                    seen.add(key)
                    queue.append((key, z))

        visit(probes)
        while queue:
            if len(self.regions) >= self.max_regions:
                self.complete = False
                break
            key, z = queue.popleft()
            rmap = net_core.region_map(net, z[None, :])
            rows, offs = rmap.rows[0], rmap.offsets[0]
            oris = np.where(rmap.values[0] > 0, 1.0, -1.0)
            poly = _region_polygon(box, rows, offs, oris, reach)
            if poly is None or _polygon_area(poly) <= (1e-12 * scale) ** 2:
                continue
            self.regions.append(_Region(key, poly, rmap.v_maps[-1][0], rmap.a_maps[-1][0]))
            crossings = _facet_crossings(poly, rows, offs, oris, step, on_tol)
            if len(crossings):
                visit(crossings)

    # -- queries -----------------------------------------------------------

    def decision_edges(self, label: int):
        """All polygon edges of {f_s >= f_label} pieces, over regions and s.

        Returns (starts, ends) arrays of shape (E, 2).  Every point on these
        edges is reachable by the network with class 'label' losing to some
        other class, so distances to them upper-bound the true robustness.
        """
        c = int(label) - 1
        if not 0 <= c < self.num_classes:
            raise ValueError(f"label {label} out of range 1..{self.num_classes}")
        if c in self._edge_cache:
            return self._edge_cache[c]
        starts, ends = [], []
        if self.regions:
            # {f_s >= f_c} = {n.z + off <= 0}, n and off per (region, s)
            v_out = np.stack([reg.v_out for reg in self.regions])
            a_out = np.stack([reg.a_out for reg in self.regions])
            normals = v_out[:, c:c + 1] - v_out
            offs = a_out[:, c:c + 1] - a_out
            # n.z + off at every vertex of every region, reduced per region: a
            # polygon wholly beyond the line has no piece and one wholly
            # inside is its own piece; only a polygon the line crosses is clipped
            counts = [len(reg.poly) for reg in self.regions]
            rid = np.repeat(np.arange(len(counts)), counts)
            verts = np.concatenate([reg.poly for reg in self.regions])
            d = np.einsum("vj,vkj->vk", verts, normals[rid]) + offs[rid]
            stop = np.cumsum(counts)
            first = stop - counts
            reach = max(abs(self.lo), abs(self.hi))
            slack = _ROUNDING * (reach * np.abs(normals).sum(axis=2) + np.abs(offs))
            beyond = np.minimum.reduceat(d, first) > 1e-12 + slack
            within = np.maximum.reduceat(d, first) <= 1e-12 - slack
            # each vertex's successor along its polygon: the ends of its edges
            succ = np.arange(1, len(verts) + 1)
            succ[stop - 1] = first
            succ = verts[succ]
            for r, (a, b) in enumerate(zip(first, stop)):
                for s in range(self.num_classes):
                    if s == c or beyond[r, s]:
                        continue
                    if within[r, s]:
                        starts.append(verts[a:b])
                        ends.append(succ[a:b])
                        continue
                    piece = clip_polygon(verts[a:b], normals[r, s], -offs[r, s])
                    m = len(piece)
                    if m == 2:
                        starts.append(piece[:1])
                        ends.append(piece[1:])
                    elif m > 2:
                        starts.append(piece)
                        ends.append(np.roll(piece, -1, axis=0))
        if starts:
            result = (np.concatenate(starts), np.concatenate(ends))
        else:
            result = (np.zeros((0, 2)), np.zeros((0, 2)))
        self._edge_cache[c] = result
        return result
