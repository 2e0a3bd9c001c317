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

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import net_core

__all__ = ["RegionAtlas", "clip_polygon"]


def clip_polygon(poly: np.ndarray, normal, cutoff, tol: float = 1e-12) -> np.ndarray:
    """Intersect a convex polygon with the half-plane {z : normal.z <= cutoff}.

    poly is an (m, 2) array of vertices in order (either orientation); the
    result may be empty, a segment (2 vertices) or a polygon.
    """
    if len(poly) == 0:
        return poly
    d = poly @ np.asarray(normal, dtype=np.float64) - float(cutoff)
    out = []
    m = len(poly)
    for i in range(m):
        j = (i + 1) % m
        di, dj = d[i], d[j]
        if di <= tol:
            out.append(poly[i])
        if (di < -tol and dj > tol) or (di > tol and dj < -tol):
            t = di / (di - dj)
            out.append(poly[i] + t * (poly[j] - poly[i]))
    return np.asarray(out, dtype=np.float64).reshape(-1, 2)


def _polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


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
        self.num_classes = net.num_classes
        self.lo = float(lo)
        self.hi = float(hi)
        self.max_regions = int(max_regions)
        self.regions: list[_Region] = []
        self.complete = True
        self._edge_cache: dict[int, tuple] = {}
        self._build(net, num_probes, seed)

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

        queue = deque()
        seen = set()

        def visit(z):
            # queue the region containing z unless it was seen before
            key = net_core.activation_pattern(net, z).key()
            if key not in seen:
                seen.add(key)
                queue.append((key, z))

        for z in probes:
            visit(z)
        while queue:
            if len(self.regions) >= self.max_regions:
                self.complete = False
                break
            key, z = queue.popleft()
            rmap = net_core.region_map(net, z[None, :])
            rows, offs = rmap.rows[0], rmap.offsets[0]
            oris = np.where(rmap.values[0] > 0, 1.0, -1.0)
            poly = box
            feasible = True
            for n, off, ori in zip(rows, offs, oris):
                nn = float(np.abs(n).sum())
                if nn == 0.0:
                    # constant unit: the mask is only consistent if the sign agrees
                    if (ori > 0 and off < 0) or (ori < 0 and off > 0):
                        feasible = False
                        break
                    continue
                # active: n.z + off >= 0  ->  (-n).z <= off
                poly = clip_polygon(poly, -ori * n, ori * off)
                if len(poly) < 3:
                    feasible = False
                    break
            if not feasible or _polygon_area(poly) <= (1e-12 * scale) ** 2:
                continue
            self.regions.append(_Region(key, poly, rmap.v_maps[-1][0], rmap.a_maps[-1][0]))

            # walk across each facet present on the polygon boundary
            for n, off, ori in zip(rows, offs, oris):
                nn = np.linalg.norm(n)
                if nn == 0.0:
                    continue
                dv = poly @ n + off
                on = np.abs(dv) <= on_tol * max(1.0, nn)
                if on.sum() < 2:
                    continue
                pts = poly[on]
                mid = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
                # step to the other side of the hyperplane
                visit(mid - ori * (step / nn) * n)

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
        for reg in self.regions:
            for s in range(self.num_classes):
                if s == c:
                    continue
                n = reg.v_out[c] - reg.v_out[s]
                off = reg.a_out[c] - reg.a_out[s]
                # {f_s >= f_c} = {n.z + off <= 0}
                piece = clip_polygon(reg.poly, n, -off)
                m = len(piece)
                if m < 2:
                    continue
                if m == 2:
                    starts.append(piece[0])
                    ends.append(piece[1])
                else:
                    for i in range(m):
                        starts.append(piece[i])
                        ends.append(piece[(i + 1) % m])
        if starts:
            result = (np.asarray(starts), np.asarray(ends))
        else:
            result = (np.zeros((0, 2)), np.zeros((0, 2)))
        self._edge_cache[c] = result
        return result
