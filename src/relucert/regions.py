"""Exhaustive map of the linear regions a small 2-D ReLU net cuts out of a box.

Every activation region is a convex polygon on which the net is affine, so
the set of inputs reaching a different class decomposes into clipped
polygons whose edges can be enumerated.  The map is built layer by layer, as
in the arrangement view of Serra, Tjandraatmadja & Ramalingam (2018) and
Hanin & Rolnick (2019): starting from the box, each hidden unit's line, in
unit order, splits every piece it crosses in two, and after each layer a
batched affine step, over blocks of pieces of bounded memory, gives every
piece the lines of the next layer.  The pieces tile the box by
construction.  The box is [LO, HI]^2, and a box that needs more than
MAX_REGIONS pieces gives no map.

The pieces live in one padded vertex table xy (2, width, pieces): piece q
is counts[q] vertices in order, and its later slots repeat vertex 0, so
slot i + 1 ends edge i.  A split evaluates the line at every slot at once
and clips every crossed piece to both sides in one batched clip; the
"above" pieces overwrite their columns and the "below" ones are appended.
decision_edges clips every (region, other class) pair the same way, and
leaves out the edges that two of those pieces share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import net_core

__all__ = ["RegionAtlas"]

# the clip rule's tolerance: a vertex within it of the line counts as on it
_TOL = 1e-12

# The box every atlas maps, and the most pieces a map may have
LO, HI = -8.0, 9.0
MAX_REGIONS = 20000


def _side(xy, normals, offs):
    """normals.z + offs at every slot of a vertex table, summed in place."""
    d = xy[0] * normals[:, 0]
    d += xy[1] * normals[:, 1]
    d += offs
    return d


def _clip(xy, counts, d, width=0):
    """Clip every piece of a vertex table to the half-plane where d <= _TOL.

    xy (2, W, Q) and counts (Q,) are a padded table as in the module
    docstring; d (W, Q) is the signed distance at each slot.  Walking each
    piece's edges in order, a vertex with d <= _TOL is kept, and an edge
    whose ends lie strictly beyond _TOL on opposite sides adds its crossing.
    Returns the clipped table, at least `width` slots wide, and its counts:
    0 (empty), 1 (a point), 2 (a segment) or more (a polygon).
    """
    W, Q = d.shape
    di, dj = d[:-1], d[1:]
    keep = (di <= _TOL) & (np.arange(W - 1)[:, None] < counts)
    # the slots after a piece's last vertex all hold vertex 0: no crossing there
    cross = ((di < -_TOL) & (dj > _TOL)) | ((di > _TOL) & (dj < -_TOL))
    # each slot emits its kept vertex, then its crossing: `at` is the flat
    # output index (slot * Q + piece) of the last thing a slot emits
    end = np.cumsum(np.add(keep, cross, dtype=np.intp), axis=0)
    n = end[-1]
    width = max(width, int(n.max(initial=0)) + 1)
    at = (end - 1) * Q + np.arange(Q)
    flat = xy.reshape(2, -1)
    out = np.zeros((2, width * Q))
    k = np.flatnonzero(keep)
    out[:, np.take(at, k) - Q * np.take(cross, k)] = flat[:, k]
    k = np.flatnonzero(cross)
    vi, vj, a, b = flat[:, k], flat[:, k + Q], np.take(d, k), np.take(d, k + Q)
    out[:, np.take(at, k)] = vi + a / (a - b) * (vj - vi)
    out = out.reshape(2, width, Q)
    np.copyto(out, out[:, :1], where=np.arange(width)[:, None] >= n)
    return out, n


def _edges(xy, counts):
    """(starts, ends) of the edges of a vertex table's pieces that bound
    their union: a segment's one edge, and each polygon edge that no other
    polygon piece walks the other way between bitwise-equal ends.

    The pieces are oriented alike, so two polygons that share an edge that
    way lie on its two sides, and its points other than its ends are inside
    the union: none is the nearest point of the union to a point outside
    it.  A segment has no area on either side and cancels nothing.
    """
    slot = np.arange(xy.shape[1] - 1)[:, None]
    edge = ((slot < np.where(counts == 2, 1, counts)) & (counts >= 2)).T
    starts, ends = xy[:, :-1].T[edge], xy[:, 1:].T[edge]
    piece = np.nonzero(edge)[0]
    poly = counts[piece] >= 3
    keep = np.ones(len(piece), dtype=bool)
    keep[poly] = ~_twinned(starts[poly], ends[poly], piece[poly])
    return starts[keep], ends[keep]


def _twinned(starts, ends, piece):
    """Whether each edge (starts[i] -> ends[i] of piece[i]) is also walked
    the other way, between bitwise-equal points, by an edge of another piece."""
    # an edge and its twin add up their ends to the same bits: sorted by that
    # sum, every twin of an edge lies in its run of equal sums
    sums = starts + ends
    key = sums[:, 0] + 0.5 * sums[:, 1]
    order = np.argsort(key)
    ordered = key[order]
    breaks = np.flatnonzero(ordered[1:] != ordered[:-1])
    longest = np.diff(breaks, prepend=-1, append=len(key) - 1).max(initial=0)
    a, b = starts.view(np.int64), ends.view(np.int64)
    twin = np.zeros(len(key), dtype=bool)
    for gap in range(1, longest):
        i, j = order[:-gap], order[gap:]
        hit = (a[i] == b[j]).all(axis=1) & (b[i] == a[j]).all(axis=1) & (piece[i] != piece[j])
        twin[i[hit]] = twin[j[hit]] = True
    return twin


def _layer_steps(w, b, v, a, src, active):
    """net_core._layer_step for every piece, from its row src (P,) of the
    layer's form v, a and its active units active (P, m): the next layer's
    form, (P, n, 2) and (P, n).  It runs over blocks of pieces whose
    gathered rows, their masked copy and the new rows take at most
    CHUNK_BYTES, or one piece, so the layer's table is never tiled once per
    piece.  numpy's stacked matmul takes each piece's product on its own,
    so the blocks give the same bits as one step over all the pieces."""
    P, n, (m, d) = len(src), len(w), v.shape[1:]
    step = max(1, net_core.CHUNK_BYTES // (8 * d * (2 * m + n)))
    v_next, a_next = np.empty((P, n, d)), np.empty((P, n))
    for lo in range(0, P, step):
        rows = src[lo:lo + step]
        # numpy multiplies by a bool mask several times slower than by a
        # float one; float32 holds 0 and 1 exactly in half the memory.  In C
        # order, whatever the block's size: a masked operand laid out like
        # active's transpose has strides that grow with the block, and
        # matmul takes BLAS or its own loop by the strides
        mask = active[lo:lo + step].astype(np.float32, order="C")
        v_next[lo:lo + step], a_next[lo:lo + step] = net_core._layer_step(
            w, b, v[rows], a[rows], mask)
    return v_next, a_next


@dataclass
class _Region:
    key: tuple
    poly: np.ndarray
    v_out: np.ndarray
    a_out: np.ndarray


class RegionAtlas:
    """All activation regions of a 2-D net intersected with [LO, HI]^2.

    The regions' polygons tile the box.  A region's key is the activation
    pattern inside its polygon, except for units whose line passes within
    the clip rule's tolerance of it.  Keys are unique: every split gives its
    two sides different bits.  When the tiling needs more than MAX_REGIONS
    polygons the atlas keeps no regions and is not complete.

    The atlas keeps no reference to the net, so a cache keyed weakly by the
    net drops the atlas together with the net.
    """

    def __init__(self, net):
        if net.input_dim != 2:
            raise ValueError("RegionAtlas supports 2-D inputs only")
        self.num_classes = net.num_classes
        self.regions: list[_Region] = []
        self.complete = True
        self._edge_cache: dict[int, tuple] = {}
        self._build(net)

    # -- construction ------------------------------------------------------

    def _build(self, net):
        # the table of pieces (module docstring), the row of v and a each
        # piece inherits, and the active hidden units of each piece so far
        xy = np.array([[LO, HI, HI, LO, LO], [LO, LO, HI, HI, LO]])[:, :, None]
        counts, src, P = np.array([4]), np.array([0]), 1
        bits = np.zeros((net.num_hidden_units, 1), dtype=bool)
        # the current layer's affine form on each piece: v (R, n, 2), a (R, n)
        v, a = net.weights[0][None], net.biases[0][None]
        for cols, w, b in zip(net.hidden_slices, net.weights[1:], net.biases[1:]):
            src[:P] = np.arange(P)
            for j, h in enumerate(range(cols.start, cols.stop)):
                g = _side(xy[:, :, :P], v[src[:P], j], a[src[:P], j])
                lo, hi = g.min(axis=0), g.max(axis=0)
                crossed = np.flatnonzero((lo < -_TOL) & (hi > _TOL))
                # a piece the line does not cross lies on the side of its
                # vertex farthest from the line
                bits[h, :P] = lo + hi > 0.0
                k = len(crossed)
                if k:
                    # both sides of every crossed piece in one clip: each keeps
                    # the vertex beyond the line and one vertex or crossing on
                    # each way round to the other side, so at least 3 vertices
                    both = np.concatenate([crossed, crossed])
                    gc = g[:, crossed]
                    pieces, n = _clip(xy[:, :, both], counts[both],
                                      np.concatenate([-gc, gc], axis=1), xy.shape[1])
                    if P + k > xy.shape[2]:  # k <= P: doubling is enough
                        xy, counts, src, bits = (np.concatenate([buf, buf], axis=-1)
                                                 for buf in (xy, counts, src, bits))
                    extra = pieces.shape[1] - xy.shape[1]
                    if extra > 0:
                        xy = np.concatenate([xy, xy[:, :1].repeat(extra, axis=1)], axis=1)
                    xy[:, :, crossed], xy[:, :, P:P + k] = pieces[:, :, :k], pieces[:, :, k:]
                    counts[crossed], counts[P:P + k] = n[:k], n[k:]
                    src[P:P + k] = src[crossed]
                    bits[:, P:P + k] = bits[:, crossed]
                    bits[h, crossed], bits[h, P:P + k] = True, False
                    P += k
                if P > MAX_REGIONS:
                    self.complete = False
                    return
            v, a = _layer_steps(w, b, v, a, src[:P], bits[cols, :P].T)
        # one vertex array per region, and the table as a view of them
        rows = np.ascontiguousarray(xy[:, :, :P].transpose(2, 1, 0))
        self._xy, self._counts, self._v_out, self._a_out = rows.T, counts[:P], v, a
        layers = [list(map(bytes, np.ascontiguousarray(bits[cols, :P].T).view(np.uint8)))
                  for cols in net.hidden_slices]
        keys = list(zip(*layers)) if layers else [()] * P
        polys = map(np.ndarray.__getitem__, rows, map(slice, self._counts.tolist()))
        self.regions = list(map(_Region, keys, polys, v, a))

    # -- queries -----------------------------------------------------------

    def decision_edges(self, label: int):
        """The edges of the {f_s >= f_label} pieces, over regions and s,
        that can hold the point of that class-change set nearest to an input
        outside it (``_edges``).

        Returns (starts, ends) arrays of shape (E, 2).  Every point on these
        edges is reachable by the network with class 'label' losing to some
        other class, so distances to them upper-bound the true robustness.
        """
        c = int(label) - 1
        if not 0 <= c < self.num_classes:
            raise ValueError(f"label {label} out of range 1..{self.num_classes}")
        if c in self._edge_cache:
            return self._edge_cache[c]
        if not self.regions:
            result = (np.zeros((0, 2)), np.zeros((0, 2)))
        else:
            # {f_s >= f_c} = {n.z + off <= 0}, one piece per (region, s != c)
            others = np.delete(np.arange(self.num_classes), c)
            normals = (self._v_out[:, c:c + 1] - self._v_out[:, others]).reshape(-1, 2)
            offs = (self._a_out[:, c:c + 1] - self._a_out[:, others]).reshape(-1)
            xy = np.repeat(self._xy, len(others), axis=2)
            result = _edges(*_clip(xy, np.repeat(self._counts, len(others)),
                                   _side(xy, normals, offs)))
        self._edge_cache[c] = result
        return result
