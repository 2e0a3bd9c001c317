"""Exhaustive map of the linear regions a small 2-D ReLU net cuts out of a box.

Every activation region is a convex polygon on which the net is affine, so
the set of inputs reaching a different class decomposes into clipped
polygons whose edges can be enumerated.  The map is built layer by layer, as
in the arrangement view of Serra, Tjandraatmadja & Ramalingam (2018) and
Hanin & Rolnick (2019): starting from the box, each hidden unit's line, in
unit order, splits every piece it crosses in two, and after each layer one
batched affine step gives every piece the lines of the next layer.  The
pieces tile the box by construction; clipping drops a piece only when it
leaves it no area.
"""

from __future__ import annotations

import math
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

# clip_polygon's tolerance: a vertex within it of the line counts as on it
_TOL = 1e-12


def clip_polygon(poly: np.ndarray, normal, cutoff, tol: float = _TOL) -> np.ndarray:
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


def _split(polys, normals, offs):
    """Split each polygon by its line {z : normals[i].z + offs[i] = 0}.

    Returns (pieces, parent, above): the polygons after the split, the index
    of the polygon each came from and whether it lies on the positive side.
    A polygon is crossed when it has vertices beyond the line by more than
    clip_polygon's tolerance on both sides; it is clipped once to each side,
    and a side that clipping leaves with no area (fewer than 3 vertices) is
    dropped.  Any other polygon is kept whole, on the side of its vertex mean.
    """
    counts = np.fromiter(map(len, polys), np.int64, len(polys))
    first = np.cumsum(counts) - counts
    rid = np.repeat(np.arange(len(polys)), counts)
    g = np.einsum("vj,vj->v", np.concatenate(polys), normals[rid]) + offs[rid]
    crossed = ((np.minimum.reduceat(g, first) < -_TOL)
               & (np.maximum.reduceat(g, first) > _TOL))
    above = np.add.reduceat(g, first) > 0.0
    if not crossed.any():
        return polys, np.arange(len(polys)), above
    kept = np.flatnonzero(~crossed)
    pieces = [polys[i] for i in kept]
    parent, side = kept.tolist(), above[kept].tolist()
    for i in np.flatnonzero(crossed).tolist():
        # active: n.z + off >= 0  ->  (-n).z <= off
        for is_above, piece in ((True, clip_polygon(polys[i], -normals[i], offs[i])),
                                (False, clip_polygon(polys[i], normals[i], -offs[i]))):
            if len(piece) >= 3:
                pieces.append(piece)
                parent.append(i)
                side.append(is_above)
    return pieces, np.array(parent), np.array(side)


@dataclass
class _Region:
    key: tuple
    poly: np.ndarray
    v_out: np.ndarray
    a_out: np.ndarray


class RegionAtlas:
    """All activation regions of a 2-D net intersected with [lo, hi]^2.

    The regions' polygons tile the box.  A region's key is the activation
    pattern inside its polygon, except for units whose line passes within
    clip_polygon's tolerance of it.  Keys are unique: every split gives its
    two sides different bits.  When the tiling needs more than max_regions
    polygons the atlas keeps no regions and is not complete.

    The atlas keeps no reference to the net, so a cache keyed weakly by the
    net drops the atlas together with the net.
    """

    def __init__(self, net, lo: float = -8.0, hi: float = 9.0, max_regions: int = 20000):
        if net.input_dim != 2:
            raise ValueError("RegionAtlas supports 2-D inputs only")
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"RegionAtlas needs finite lo < hi, got lo={lo}, hi={hi}")
        if int(max_regions) < 1:
            raise ValueError(f"max_regions must be >= 1, got {max_regions}")
        self.num_classes = net.num_classes
        self.lo = lo
        self.hi = hi
        self.max_regions = int(max_regions)
        self.regions: list[_Region] = []
        self.complete = True
        self._edge_cache: dict[int, tuple] = {}
        self._build(net)

    # -- construction ------------------------------------------------------

    def _build(self, net):
        lo, hi = self.lo, self.hi
        polys = [np.array([[lo, lo], [hi, lo], [hi, hi], [lo, hi]])]
        # the current layer's affine form on each polygon: v (P, n, 2), a (P, n)
        v, a = net.weights[0][None], net.biases[0][None]
        masks = np.zeros((1, 0), dtype=bool)  # active hidden units so far
        for w, b in zip(net.weights[1:], net.biases[1:]):
            # src: the row of v, a and masks that each polygon inherits
            src = np.arange(len(polys))
            mask = np.zeros((len(polys), v.shape[1]), dtype=bool)
            for j in range(v.shape[1]):
                polys, parent, above = _split(polys, v[src, j], a[src, j])
                if len(polys) > self.max_regions:
                    self.complete = False
                    return
                src, mask = src[parent], mask[parent]
                mask[:, j] = above
            masks = np.hstack([masks[src], mask])
            v, a = net_core._layer_step(w, b, v[src], a[src], mask)
        bounds = np.cumsum((0,) + net.hidden_sizes)
        for poly, bits, v_out, a_out in zip(polys, masks.astype(np.uint8), v, a):
            key = tuple(bits[i:k].tobytes() for i, k in zip(bounds[:-1], bounds[1:]))
            self.regions.append(_Region(key, poly, v_out, a_out))


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
            beyond = np.minimum.reduceat(d, first) > _TOL + slack
            within = np.maximum.reduceat(d, first) <= _TOL - slack
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
