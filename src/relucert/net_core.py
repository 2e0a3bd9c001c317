"""Dense ReLU classifiers and their exact piecewise-affine local structure.

A network built from dense layers with ReLU activations is affine on each
activation region of the input space.  For a batch of anchor points, one
pass over the layers (``region_map``) yields the affine restriction (V, a
per layer) and the half-space description of the region containing each
point.  ``region_maps`` splits a batch into chunks of bounded memory; it is
the one region-geometry path behind certification and the regularizer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ReluNet",
    "RegionMap",
    "forward",
    "forward_batch",
    "classify",
    "region_map",
    "region_maps",
    "random_net",
    "load_model",
    "save_model",
]


# Cap on the bytes of one chunk's stacked hidden rows (B * N * d * 8, N the
# hidden unit count): batched region geometry splits a batch into chunks of
# at most this size, so its memory does not grow with the batch.
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
    def num_hidden_layers(self) -> int:
        return len(self.weights) - 1

    @property
    def hidden_sizes(self) -> tuple:
        return tuple(w.shape[0] for w in self.weights[:-1])

    @property
    def num_hidden_units(self) -> int:
        return int(sum(self.hidden_sizes))

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype

    def with_parameters(self, weights, biases) -> "ReluNet":
        """New net with the same architecture and different parameters."""
        return ReluNet(tuple(weights), tuple(biases))

    def astype(self, dtype) -> "ReluNet":
        """The same net with its parameters rounded to float32 or float64."""
        dtype = np.dtype(dtype)
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"dtype must be float32 or float64, got {dtype}")
        return ReluNet(tuple(w.astype(dtype) for w in self.weights),
                       tuple(b.astype(dtype) for b in self.biases))


@dataclass(frozen=True)
class RegionMap:
    """Affine maps of the activation regions of a batch of B points.

    ``masks[l]`` (B, n_l) marks the active hidden units at each point;
    ``v_maps[l]`` (B, n_l, d) and ``a_maps[l]`` (B, n_l) give the affine
    form of layer l on each point's region, the last entry being the output
    map.  ``rows`` (B, N, d) and ``offsets`` (B, N) stack the hyperplanes of
    all N hidden units (the hidden entries of ``v_maps``/``a_maps`` are
    views into them) and ``values`` (B, N) = rows . x + offsets are the
    preactivations at ``points``; ``logits`` (B, K) are the outputs there.
    """

    points: np.ndarray
    masks: tuple
    v_maps: tuple
    a_maps: tuple
    rows: np.ndarray
    offsets: np.ndarray
    values: np.ndarray
    logits: np.ndarray

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
        idx = np.arange(B)[:, None]
        normals = v_out[idx, c] - v_out[idx, others]
        values = self.logits[idx, c] - self.logits[idx, others]
        return others, normals, values


def _check_input(net: ReluNet, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise ValueError(f"input has shape {x.shape}, expected ({net.input_dim},)")
    return x


def forward(net: ReluNet, x):
    """Evaluate the net at x.

    Returns (logits, preactivations), where preactivations is the list of
    hidden pre-ReLU vectors g^(l).
    """
    logits, preacts = forward_batch(net, _check_input(net, x)[None, :])
    return logits[0], [g[0] for g in preacts]


def forward_batch(net: ReluNet, xs):
    """Batched forward pass; xs has shape (B, d).

    Returns (logits (B, K), preactivations list of (B, n_l)), computed in
    the net's dtype (xs is cast to it).
    """
    xs = np.asarray(xs, dtype=net.dtype)
    if xs.ndim != 2 or xs.shape[1] != net.input_dim:
        raise ValueError(f"batch has shape {xs.shape}, expected (B, {net.input_dim})")
    preacts = []
    h = xs
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        g = h @ w.T + b
        preacts.append(g)
        h = np.maximum(g, 0.0)
    logits = h @ net.weights[-1].T + net.biases[-1]
    return logits, preacts


def classify(net: ReluNet, x) -> int:
    """Predicted class in 1..K; exact logit ties go to the smallest index."""
    logits, _ = forward(net, x)
    return int(np.argmax(logits)) + 1


def classify_batch(net: ReluNet, xs) -> np.ndarray:
    logits, _ = forward_batch(net, xs)
    return np.argmax(logits, axis=1) + 1


def _per_point(v, xs):
    """v[i] @ xs[i] for every point i: (B, n, d) and (B, d) -> (B, n)."""
    return np.matmul(v, xs[:, :, None])[:, :, 0]


def _layer_step(w, b, v, a, mask, out=(None, None)):
    """Affine form of the layer after one whose form on each region is
    v (B, m, d), a (B, m) and whose active units are mask (B, m):
    W (mask * v) and W (mask * a) + b, shapes (B, n, d) and (B, n).

    The one recursion behind region_map and the 2-D region atlas; out
    optionally gives the two arrays to write into.
    """
    v_next = np.matmul(w, v * mask[:, :, None], out=out[0])
    a_next = np.add(_per_point(w[None], a * mask), b, out=out[1])
    return v_next, a_next


def region_map(net: ReluNet, xs) -> RegionMap:
    """Region geometry of every row of xs (B, d) in one pass over the layers.

    Each hidden layer's mask is read off its preactivation V^(l) x + a^(l)
    at the point before the next layer is built.  Every product is taken
    point by point (a stack of matrix products), so a point's result does
    not depend on the rest of the batch.  Builds the whole batch at once;
    ``region_maps`` splits a batch into chunks of bounded memory.
    """
    xs = np.asarray(xs, dtype=np.float64)
    B, d, N = len(xs), net.input_dim, net.num_hidden_units
    rows, offsets, values = np.empty((B, N, d)), np.empty((B, N)), np.empty((B, N))
    masks, v_list, a_list = [], [], []
    pos = 0
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        n = w.shape[0]
        hidden = l < net.num_hidden_layers
        if hidden:
            v, a = rows[:, pos:pos + n], offsets[:, pos:pos + n]
        else:
            v, a = np.empty((B, n, d)), np.empty((B, n))
        if l == 0:
            v[...] = w
            a[...] = b
        else:
            _layer_step(w, b, v_list[-1], a_list[-1], masks[-1], out=(v, a))
        if hidden:
            g = values[:, pos:pos + n]
            np.add(_per_point(v, xs), a, out=g)
            masks.append(g > 0)
            pos += n
        v_list.append(v)
        a_list.append(a)
    logits = _per_point(v_list[-1], xs) + a_list[-1]
    return RegionMap(xs, tuple(masks), tuple(v_list), tuple(a_list), rows, offsets,
                     values, logits)


def region_maps(net: ReluNet, xs):
    """Yield (slice, RegionMap) over consecutive chunks of the rows of xs.

    Each chunk holds at most CHUNK_BYTES of stacked hidden rows (at least one
    point).  A point's geometry does not depend on the rest of its chunk, so
    it is the same wherever the chunks are cut.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != net.input_dim:
        raise ValueError(f"batch has shape {xs.shape}, expected (B, {net.input_dim})")
    step = max(1, CHUNK_BYTES // (8 * net.input_dim * max(net.num_hidden_units, 1)))
    for lo in range(0, len(xs), step):
        sl = slice(lo, lo + step)
        yield sl, region_map(net, xs[sl])


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


def save_model(net: ReluNet, path) -> None:
    doc = {
        "input_dim": net.input_dim,
        "num_classes": net.num_classes,
        "layers": [
            {
                "rows": int(w.shape[0]),
                "cols": int(w.shape[1]),
                "weights": [float(v) for v in w.ravel(order="C")],
                "bias": [float(v) for v in b],
            }
            for w, b in zip(net.weights, net.biases)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _json_int(path, value, what, least=0) -> int:
    """value as an int >= least, else ValueError naming path and what."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{path}: {what} must be an integer >= {least}, got {value!r}")
    return value


def _json_floats(path, value, what) -> np.ndarray:
    if not isinstance(value, list):
        raise ValueError(f"{path}: {what} must be a list of numbers")
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {what} must be a list of numbers: {exc}") from exc


def load_model(path) -> ReluNet:
    """Load a model JSON document, validating the layer dimension chain.

    Any malformed document raises ValueError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a model must be a JSON object")
    for key in ("input_dim", "num_classes", "layers"):
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
    layers = doc["layers"]
    if not isinstance(layers, list) or not layers:
        raise ValueError(f"{path}: 'layers' must be a non-empty list")
    weights, biases = [], []
    prev = _json_int(path, doc["input_dim"], "'input_dim'", least=1)
    num_classes = _json_int(path, doc["num_classes"], "'num_classes'", least=1)
    for i, layer in enumerate(layers):
        if not isinstance(layer, dict):
            raise ValueError(f"{path}: layer {i} must be a JSON object")
        for key in ("rows", "cols", "weights", "bias"):
            if key not in layer:
                raise ValueError(f"{path}: layer {i} missing key {key!r}")
        rows = _json_int(path, layer["rows"], f"layer {i} 'rows'", least=1)
        cols = _json_int(path, layer["cols"], f"layer {i} 'cols'", least=1)
        if cols != prev:
            raise ValueError(
                f"{path}: layer {i} has {cols} columns, expected {prev}")
        w = _json_floats(path, layer["weights"], f"layer {i} 'weights'")
        if w.size != rows * cols:
            raise ValueError(
                f"{path}: layer {i} carries {w.size} weights, expected {rows * cols}")
        b = _json_floats(path, layer["bias"], f"layer {i} 'bias'")
        if b.size != rows:
            raise ValueError(f"{path}: layer {i} bias length {b.size}, expected {rows}")
        weights.append(w.reshape(rows, cols))
        biases.append(b.reshape(rows))
        prev = rows
    if prev != num_classes:
        raise ValueError(
            f"{path}: last layer has {prev} rows, expected num_classes={num_classes}")
    try:
        return ReluNet(tuple(weights), tuple(biases))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
