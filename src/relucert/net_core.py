"""Dense ReLU classifiers and their exact piecewise-affine local structure.

A network built from dense layers with ReLU activations is affine on each
activation region of the input space; a unit is active exactly where its
preactivation is > 0.  ``region_maps``, the one region-geometry path behind
certification and the regularizer, gives a batch of points the affine form
(V, a) of every layer on each point's region and the half-space
description of that region.  One loop over the layers after the first
(``_region_prefix``) groups the points by their masks so far and builds
each layer's form once per group, since nearby points, and the training
points of a margin-regularized net, mostly share a region.  The batch is
cut into chunks of bounded memory, larger while the points share regions,
and a chunk copies the previous chunk's table rows, with their dual norms,
whose activation prefix it meets again.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ReluNet",
    "RegionMap",
    "forward_batch",
    "backward_batch",
    "region_maps",
    "random_net",
    "load_model",
    "save_model",
]


# Cap on the memory of one chunk of batched region geometry: on the region
# tables it builds (priced by _region_cap) and on its per-point arrays
# (B * N * 8 bytes for N hidden units).  region_maps carries only the
# previous chunk's tables into the next one, so its memory does not grow
# with the batch.
CHUNK_BYTES = 256 * 1024


def _frozen_array(a, dtype):
    out = np.array(a, dtype=dtype, order="C", copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ReluNet:
    """Fully connected ReLU classifier.

    ``weights[l]`` has shape (n_l, n_{l-1}) and ``biases[l]`` shape (n_l,).
    ReLU is applied after every layer except the last one, whose K outputs
    are the class logits.  A net with a single layer (no hidden units) is
    allowed and is a plain affine classifier.

    Parameters are float64, or float32 when every given array is float32
    (see ``astype``); ``forward_batch`` computes in that dtype.

    Instances are immutable: all parameter arrays are read-only, so a net
    can be shared freely across threads.
    """

    weights: tuple
    biases: tuple

    def __post_init__(self):
        params = (*self.weights, *self.biases)
        single = bool(params) and all(getattr(a, "dtype", None) == np.float32 for a in params)
        dtype = np.float32 if single else np.float64
        ws = tuple(_frozen_array(w, dtype) for w in self.weights)
        bs = tuple(_frozen_array(b, dtype) for b in self.biases)
        if len(ws) == 0 or len(ws) != len(bs):
            raise ValueError("need exactly one bias vector per weight matrix")
        for i, (w, b) in enumerate(zip(ws, bs)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(
                    f"layer {i}: weight shape {w.shape} and bias shape {b.shape} do not match")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i}: parameters must be finite")
            if i > 0 and w.shape[1] != ws[i - 1].shape[0]:
                raise ValueError(
                    f"layer {i}: expects {w.shape[1]} inputs but previous layer "
                    f"has {ws[i - 1].shape[0]} units")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def hidden_sizes(self) -> tuple:
        return tuple(w.shape[0] for w in self.weights[:-1])

    @property
    def num_hidden_units(self) -> int:
        return int(sum(self.hidden_sizes))

    @functools.cached_property
    def hidden_slices(self) -> tuple:
        """Each hidden layer's slice of the N hidden units, in layer order;
        built once per net, since region geometry reads it at every layer."""
        ends = (0, *itertools.accumulate(self.hidden_sizes))
        return tuple(map(slice, ends[:-1], ends[1:]))

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype

    def astype(self, dtype) -> "ReluNet":
        """The same net with its parameters rounded to float32 or float64."""
        dtype = np.dtype(dtype)
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"dtype must be float32 or float64, got {dtype}")
        return ReluNet(tuple(w.astype(dtype) for w in self.weights),
                       tuple(b.astype(dtype) for b in self.biases))


def _view_net(weights, biases) -> ReluNet:
    """A net over read-only views of the given arrays, neither copied nor
    checked, so it follows in-place updates of their buffers.  Unlike a
    ReluNet it is not immutable: it is for a caller that owns the arrays,
    checks their values itself and never hands the net out."""
    net = object.__new__(ReluNet)
    for name, arrays in (("weights", weights), ("biases", biases)):
        views = tuple(a.view() for a in arrays)
        for v in views:
            v.flags.writeable = False
        object.__setattr__(net, name, views)
    return net


def row_norms(mat: np.ndarray, p: float) -> np.ndarray:
    """lp-norms along the last axis; p = inf is the max-norm."""
    if p == 2.0:  # a square needs no abs: one pass fewer, the same bits
        return np.sqrt((mat * mat).sum(axis=-1))
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


@dataclass(frozen=True)
class RegionMap:
    """Affine maps of the activation regions of a batch of B points.

    Layer l's affine form on a region depends only on the masks of the
    layers before it, so it is held once per distinct prefix of activation
    masks among the points: ``v_maps[l]`` (U_l, n_l, d) and ``a_maps[l]``
    (U_l, n_l), the last entry being the output map, and ``index[l]`` (B,)
    gives each point's row in them.  Rows are numbered in order of first
    appearance, so the first layer has one row and the output map one per
    activation region, ``region`` = ``index[-1]``, and ``first[l]`` (U_l,)
    is the first point of each row: the points of a row share its masks
    and rows at every earlier layer.  Per point, ``values``
    (B, N) are the preactivations of the N hidden units, ``layers[l]``
    (the net's ``hidden_slices``) being layer l's columns, and ``logits``
    (B, K) the outputs.  A unit is active exactly where its value is > 0.
    ``norms[l]`` holds the lq-norms of layer l's table rows taken so far,
    q -> (U_l, n_l); ``table_norms`` reads and fills it.
    """

    index: tuple
    first: tuple
    layers: tuple
    v_maps: tuple
    a_maps: tuple
    values: np.ndarray
    logits: np.ndarray
    norms: tuple

    @property
    def region(self) -> np.ndarray:
        return self.index[-1]

    def table_norms(self, l, q) -> np.ndarray:
        """(U_l, n_l) lq-norms of the rows of layer l's table, the dual norms
        of its hyperplane normals: taken on first use and kept, so each row's
        are taken once (region_maps copies them with a carried row, and
        shares layer 1's, W1's, between its chunks)."""
        cache = self.norms[l]
        if q not in cache:
            cache[q] = row_norms(self.v_maps[l], q)
        return cache[q]

    def at_points(self, l, table) -> np.ndarray:
        """Layer l's table (..., U_l, n_l), such as its row norms, read at
        each point along its second last axis: gathered by index[l], unless
        _read_as_is."""
        index = self.index[l]
        return table if _read_as_is(table.shape[-2], index) else table[..., index, :]

    def affine_region(self, i):
        """Point i's activation region as rows [w, c] of affine maps z -> w . z
        + c: ``hidden`` (N, d + 1), each hidden unit's row signed by its mask,
        so that every row is positive exactly inside the region, and
        ``output`` (K, d + 1), the logit map there.  Each layer's row is
        gathered from its table; no per-point stack is built."""
        *hidden, output = [np.column_stack([v[index[i]], a[index[i]]])
                           for v, a, index in zip(self.v_maps, self.a_maps, self.index)]
        sign = np.where(self.values[i] > 0, 1.0, -1.0)[:, None]  # the masks, concatenated
        return sign * np.concatenate([np.empty((0, output.shape[1])), *hidden]), output

    def decision_planes(self, labels):
        """Decision hyperplanes of each point against every other class.

        Returns (others, normals, values): ``others`` (B, K-1) are the
        0-based competing classes in increasing order, ``normals`` (B, K-1, d)
        the rows V_label - V_s of the output map and ``values`` (B, K-1) the
        logit margins f_label - f_s at the points.
        """
        v_out = self.v_maps[-1]
        B, K = self.logits.shape
        c = (np.asarray(labels, dtype=np.int64) - 1)[:, None]
        base = np.arange(K - 1)[None, :]
        others = base + (base >= c)
        r = self.region[:, None]
        normals = v_out[r, c] - v_out[r, others]
        idx = np.arange(B)[:, None]
        values = self.logits[idx, c] - self.logits[idx, others]
        return others, normals, values


def _batch(net: ReluNet, xs, dtype, finite=False) -> np.ndarray:
    """xs as a (B, d) array of dtype, for the net's input dimension d (and
    finite, if set)."""
    xs = np.asarray(xs, dtype=dtype)
    if xs.ndim != 2 or xs.shape[1] != net.input_dim:
        raise ValueError(f"batch has shape {xs.shape}, expected (B, {net.input_dim})")
    if finite and not np.isfinite(xs).all():
        raise ValueError(f"row {np.argwhere(~np.isfinite(xs))[0, 0]} of the batch is not finite")
    return xs


def _labelled_batch(net: ReluNet, xs, labels):
    """The one check of a labelled batch: xs as a finite (B, d) float64
    array and labels as B int64 labels in 1..K."""
    xs = _batch(net, xs, np.float64, finite=True)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != xs.shape[:1]:
        raise ValueError(f"{len(xs)} points but {labels.size} labels" if labels.ndim == 1 else
                         f"labels have shape {labels.shape}, expected ({len(xs)},)")
    bad = (labels < 1) | (labels > net.num_classes)
    if bad.any():
        raise ValueError(f"label {labels[bad][0]} out of range 1..{net.num_classes}")
    return xs, labels


def forward_batch(net: ReluNet, xs):
    """Batched forward pass; xs has shape (B, d).

    Returns (logits (B, K), preactivations list of (B, n_l)), computed in
    the net's dtype (xs is cast to it).
    """
    xs = _batch(net, xs, net.dtype)
    preacts = []
    h = xs
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        g = h @ w.T + b
        preacts.append(g)
        h = np.maximum(g, 0.0)
    logits = h @ net.weights[-1].T + net.biases[-1]
    return logits, preacts


def backward_batch(net: ReluNet, preacts, g_logits, grads=None, xs=None, g_pre=None):
    """Input adjoint (B, d) of sum(g_logits * logits), in the net's dtype, with
    the ReLU masks fixed at preacts > 0 (the inactive branch at kinks).  If
    given, g_pre (B, n_l) per hidden layer adds sum(g_pre[l] * preacts[l]),
    and grads = (dW, db) receives the parameter gradient at the inputs xs."""
    g = g_logits
    for l in range(len(net.weights) - 1, -1, -1):
        if grads is not None:
            grads[0][l] += g.T @ (np.maximum(preacts[l - 1], 0.0) if l else xs)
            grads[1][l] += g.sum(axis=0)
        if l:
            g = (g @ net.weights[l]) * (preacts[l - 1] > 0)
            if g_pre is not None:
                g += g_pre[l - 1]
    return g @ net.weights[0]


def classify_batch(net: ReluNet, xs) -> np.ndarray:
    """Predicted class in 1..K of each row of xs (B, d); exact logit ties go
    to the smallest index.

    The logits of ``forward_batch``, bit for bit, without its list of
    preactivations: one product per layer over the whole batch, with the
    bias and ReLU applied in place, so it holds two layers' activations at
    a time.  The batch is not cut into chunks, since a row of a matrix
    product may round differently with other rows around it."""
    h = _batch(net, xs, net.dtype)
    for l, (w, b) in enumerate(zip(net.weights, net.biases), 1):
        h = h @ w.T
        h += b
        if l < len(net.weights):
            np.maximum(h, 0.0, out=h)
    return np.argmax(h, axis=1) + 1


def _per_point(v, xs):
    """v[i] @ xs[i] for every point i: (B, n, d) and (B, d) -> (B, n);
    v may also be one (1, n, d) map shared by every point.  numpy's stacked
    matmul takes each point's product on its own, so a point's values do
    not depend on the rest of its chunk.  One (B, d) @ (d, n) product over a
    shared map would be faster but is not the same: it rounds otherwise (by
    up to 1.3e-15 at d = 16 on the corners benchmark's points), and at an
    inner dimension of 256 its rows change bits with the rows around them."""
    return np.matmul(v, xs[:, :, None])[:, :, 0]


def _read_as_is(rows: int, index) -> bool:
    """Whether a table of the given rows read at points through their rows
    index (B,) is the table itself: one row, which broadcasts, or one per
    point, in point order since rows are numbered in order of first
    appearance."""
    return rows in (1, len(index))


def _per_region(v, a, index, xs, cap, out):
    """out[i] = v[r] @ x + a[r] for every point x and its row r = index[i]:
    the per-point products of _per_point, with the rows gathered at most cap
    points at a time (none when _read_as_is)."""
    if _read_as_is(len(v), index):
        return np.add(_per_point(v, xs), a, out=out)
    for lo in range(0, len(xs), cap):
        i = index[lo:lo + cap]
        np.add(_per_point(v[i], xs[lo:lo + cap]), a[i], out=out[lo:lo + cap])
    return out


def _first_seen(keys):
    """Group the equal rows of keys (B, w) uint8.

    Returns (group, first): each row's group, numbered in order of first
    appearance, and the first row of every group.
    """
    B, width = keys.shape
    if width == 0 or (keys == keys[:1]).all():
        return np.zeros(B, dtype=np.int64), np.arange(min(B, 1))
    order = np.argsort(keys.view(np.dtype((np.void, width)))[:, 0], kind="stable")
    runs = np.empty(B, dtype=bool)  # where a run of equal sorted keys starts
    runs[0] = True
    np.any(keys[order[1:]] != keys[order[:-1]], axis=1, out=runs[1:])
    first = order[runs]  # the sort is stable: each run starts at its first row
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    group = np.empty(B, dtype=np.int64)
    group[order] = rank[np.cumsum(runs) - 1]
    return group, np.sort(first)


def _layer_step(w, b, v, a, mask):
    """Affine form of the layer after one whose form on each region is
    v (B, m, d), a (B, m) and whose active units are mask (B, m):
    W (mask * v) and W (mask * a) + b, shapes (B, n, d) and (B, n).  v and a
    may be one row, (1, m, d) and (1, m), shared by every region.  The mask
    goes on the smaller operand: on W (n, m) when it has fewer rows than v
    has columns, (W * mask) v, which takes the same products.

    The one recursion behind region_maps and the 2-D region atlas.
    """
    if len(w) < v.shape[2]:
        rows = np.matmul(w * mask[:, None, :], v)
    else:
        rows = np.matmul(w, v * mask[:, :, None])
    return rows, _per_point(w[None], a * mask) + b


def _carried_rows(prev: RegionMap, l, values, first) -> np.ndarray:
    """The row of prev's layer-l table whose activation prefix (the masks of
    layers 0..l-1) is that of each point first of values, or -1 where prev
    has none.  prev's rows have distinct prefixes, so each is its own group."""
    some, end = prev.first[l], prev.layers[l - 1].stop
    keys = np.concatenate([prev.values[some, :end], values[first, :end]]) > 0
    old = _first_seen(keys.view(np.uint8))[0][len(some):]
    return np.where(old < len(some), old, -1)


def _region_prefix(net: ReluNet, xs, cap: int, prev: RegionMap | None = None,
                   w1_norms: dict | None = None) -> RegionMap:
    """Region geometry of the first k rows of xs: k is len(xs) if those
    rows span at most cap regions, else the largest multiple of cap whose
    rows do.

    Layer 1's form is W1, one row that every row of xs shares.  Each later
    layer first takes the previous one's preactivations, then groups the
    rows by (prefix of the earlier layers, mask), unless each row has its
    own prefix already, and builds its affine form once per group, so cap
    also bounds the rows of every table.  A group whose prefix has a row in
    the tables of prev, the previous chunk's map, takes a copy of that row
    instead, and of each of its norms that prev has taken: a table row is a
    function of its prefix alone.  The map keeps layer 1's norms in
    w1_norms, if given, which other maps of the net may share.  A row's
    preactivation is its group's V x + a taken point by point, so each
    point's geometry is the same whichever rows share its batch.
    """
    B, d = xs.shape
    values = np.empty((B, net.num_hidden_units))
    group, first = np.zeros(B, dtype=np.int64), np.arange(min(B, 1))
    v, a = net.weights[0][None], net.biases[0][None]
    known = {} if w1_norms is None else w1_norms
    index, firsts, v_maps, a_maps, norms = [group], [first], [v], [a], [known]
    carry = prev
    for l, (w, b, cols) in enumerate(zip(net.weights[1:], net.biases[1:], net.hidden_slices), 1):
        active = _per_region(v, a, group, xs, cap, values[:, cols]) > 0
        up = group
        if len(v) < B:  # else every point has its own prefix already
            keys = np.packbits(active, axis=1)
            if len(v) > 1:
                keys = np.concatenate([up[:, None].view(np.uint8), keys], axis=1)
            group, first = _first_seen(keys)
            if len(first) > cap:
                return _region_prefix(net, xs[:first[cap] // cap * cap], cap, prev, w1_norms)
        mask = active[first]
        old = None if carry is None else _carried_rows(carry, l, values, first)
        if old is None or (old < 0).all():
            # no prefix carries over to a later layer either
            carry, known = None, {}
            # each group's parent row; all of them in order when none
            # split, and one row broadcasts
            parent = up[first] if len(first) > len(v) > 1 else slice(None)
            v, a = _layer_step(w, b, v[parent], a[parent], mask)
        else:
            new = np.flatnonzero(old < 0)
            parent = up[first[new]] if len(v) > 1 else slice(None)
            # the new groups' rows, gathered at -1, are overwritten
            v_new, a_new = carry.v_maps[l][old], carry.a_maps[l][old]
            known = {q: n[old] for q, n in carry.norms[l].items()}
            if len(new):
                v_new[new], a_new[new] = _layer_step(w, b, v[parent], a[parent], mask[new])
                for q, n in known.items():
                    n[new] = row_norms(v_new[new], q)
            v, a = v_new, a_new
        index.append(group)
        firsts.append(first)
        v_maps.append(v)
        a_maps.append(a)
        norms.append(known)
    logits = _per_region(v, a, group, xs, cap, np.empty((B, net.num_classes)))
    return RegionMap(tuple(index), tuple(firsts), net.hidden_slices, tuple(v_maps),
                     tuple(a_maps), values, logits, tuple(norms))


def _region_cap(net: ReluNet) -> int:
    """Regions whose own tables fit in CHUNK_BYTES, at least one.  A region
    owns the rows of layers 2 and up and of the output map, (n_2 + ... + K)
    * d floats; layer 1's table is W1 itself, shared by every region, and
    is not counted.  Never more than the points whose (N,) rows fit in
    CHUNK_BYTES, since a chunk takes at least R points (but the last)."""
    points = CHUNK_BYTES // (8 * max(net.num_hidden_units, 1))
    owned = 8 * net.input_dim * sum(len(w) for w in net.weights[1:])
    return max(1, min(points, CHUNK_BYTES // max(owned, 1)))


def region_maps(net: ReluNet, xs):
    """Yield (slice, RegionMap) over consecutive chunks of the rows of xs.

    A chunk's tables hold at most R = ``_region_cap(net)`` regions' rows:
    the tables it builds take at most CHUNK_BYTES (or one region's rows if
    larger), and its per-point (B, N) arrays at most CHUNK_BYTES, or R
    points if more.  The first chunk takes R points.  The next one takes
    twice as many while the last one spanned at most half of R regions (or
    one region), and R again otherwise; a chunk whose points would span
    more than R regions ends at the last multiple of R points that fits.
    A chunk that follows one of at most half of R regions (or one) copies
    from that chunk's tables, read-only, each row whose activation prefix
    it meets again, with the row's norms taken so far; after a chunk of
    more regions, whose prefixes seldom recur, every row is built.  Every
    chunk shares one dict of layer 1's norms.  Building a chunk holds its
    tables, the tables it copies from and _layer_step's masked operand.  A
    point's geometry does not depend on the rest of its chunk, so it is
    the same wherever the chunks are cut.  A row that is not finite raises
    ValueError.
    """
    xs = _batch(net, xs, np.float64, finite=True)
    cap = _region_cap(net)
    most = cap * max(1, CHUNK_BYTES // (8 * max(net.num_hidden_units, 1)) // cap)
    step, lo, carry, w1_norms = cap, 0, None, {}
    while lo < len(xs):
        rmap = _region_prefix(net, xs[lo:lo + step], cap, carry, w1_norms)
        yield slice(lo, lo + len(rmap.values)), rmap
        lo += len(rmap.values)
        few = len(rmap.v_maps[-1]) <= max(1, cap // 2)
        step, carry = (min(2 * step, most), rmap) if few else (cap, None)


def random_net(layer_sizes, seed=0, bias_scale=0.0) -> ReluNet:
    """Net with uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights.

    Biases are zero unless bias_scale > 0, in which case they are uniform
    in (-bias_scale, bias_scale).
    """
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"bad layer sizes {layer_sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, n in zip(sizes[:-1], sizes[1:]):
        scale = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-scale, scale, size=(n, fan_in)))
        if bias_scale > 0:
            biases.append(rng.uniform(-bias_scale, bias_scale, size=n))
        else:
            biases.append(np.zeros(n))
    return ReluNet(tuple(weights), tuple(biases))


def _write_container(path, header: dict, arrays) -> None:
    """Write a container file: the header as one JSON line, then each array's
    raw bytes in turn, row-major, straight from its buffer when it is
    contiguous (the caller picks their little-endian dtypes)."""
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for a in arrays:
            fh.write(np.ascontiguousarray(a))


def _read_container(path):
    """(header dict, payload) of a container file: one JSON object on the
    first line, then the raw payload, read into one uint8 array, the only
    copy of it in memory.  When the first line does not start with '{' the
    header is None and the payload is the whole file, as one bytes object
    (read again from the start, unless the file is a pipe)."""
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.strip().startswith(b"{"):
            if not fh.seekable():
                return None, line + fh.read()
            fh.seek(0)
            return None, fh.read()
        payload = np.empty(max(os.fstat(fh.fileno()).st_size - len(line), 0), dtype=np.uint8)
        payload = payload[:fh.readinto(payload)]
        rest = fh.read()  # what a pipe, or a file that grew, holds beyond its size
    if rest:
        payload = np.concatenate([payload, np.frombuffer(rest, dtype=np.uint8)])
    try:
        header = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: header is not valid JSON: {exc}") from exc
    return header, payload


def save_model(net: ReluNet, path) -> None:
    """Write net as a container file: the JSON header line {"input_dim",
    "num_classes", "dtype": "f64", "layers": [{"rows", "cols"}, ...]}, then
    each layer's weights (row-major) and bias as little-endian float64.  A
    float32 net is stored as its exact float64 upcast."""
    header = {"input_dim": net.input_dim, "num_classes": net.num_classes, "dtype": "f64",
              "layers": [{"rows": int(w.shape[0]), "cols": int(w.shape[1])}
                         for w in net.weights]}
    _write_container(path, header, (np.asarray(a, "<f8") for w, b in zip(net.weights, net.biases)
                                    for a in (w, b)))


def _json_int(path, value, what, least=0) -> int:
    """value as an int >= least, else ValueError naming path and what."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{path}: {what} must be an integer >= {least}, got {value!r}")
    return value


def load_model(path) -> ReluNet:
    """Load a model written by ``save_model``, validating the header's layer
    dimension chain and the payload length before reading any parameter.

    Any malformed file, a float-list JSON model among them, raises
    ValueError naming the path."""
    header, payload = _read_container(path)
    if header is None:
        raise ValueError(f"{path}: not a model container: no JSON header line")
    for key in ("input_dim", "num_classes", "dtype", "layers"):
        if key not in header:
            raise ValueError(f"{path}: not a model container: header missing key {key!r}")
    if header["dtype"] != "f64":
        raise ValueError(f"{path}: unsupported dtype {header['dtype']!r}, expected 'f64'")
    layers = header["layers"]
    if not isinstance(layers, list) or not layers:
        raise ValueError(f"{path}: 'layers' must be a non-empty list")
    prev = _json_int(path, header["input_dim"], "'input_dim'", least=1)
    num_classes = _json_int(path, header["num_classes"], "'num_classes'", least=1)
    shapes = []
    for i, layer in enumerate(layers):
        if not isinstance(layer, dict):
            raise ValueError(f"{path}: layer {i} must be a JSON object")
        for key in ("rows", "cols"):
            if key not in layer:
                raise ValueError(f"{path}: layer {i} missing key {key!r}")
        rows = _json_int(path, layer["rows"], f"layer {i} 'rows'", least=1)
        cols = _json_int(path, layer["cols"], f"layer {i} 'cols'", least=1)
        if cols != prev:
            raise ValueError(
                f"{path}: layer {i} has {cols} columns, expected {prev}")
        shapes.append((rows, cols))
        prev = rows
    if prev != num_classes:
        raise ValueError(
            f"{path}: last layer has {prev} rows, expected num_classes={num_classes}")
    sizes = [n for rows, cols in shapes for n in (rows * cols, rows)]
    if len(payload) != 8 * sum(sizes):
        raise ValueError(f"{path}: payload has {len(payload)} bytes, expected {8 * sum(sizes)}")
    parts = np.split(np.frombuffer(payload, dtype="<f8"), np.cumsum(sizes)[:-1])
    weights = [w.reshape(shape) for w, shape in zip(parts[::2], shapes)]
    try:
        return ReluNet(tuple(weights), tuple(parts[1::2]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
