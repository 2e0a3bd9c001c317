import json

import numpy as np
import pytest

from relucert import net_core
from relucert.net_core import ReluNet, load_model, random_net, save_model

from conftest import TINY_ARCHS, tiny_net
from per_point_reference import masks_of, region_map


def naive_forward(net, x):
    """Deliberately naive interpreter: python loops, no matrix products."""
    h = [float(v) for v in x]
    gs = []
    for li, (w, b) in enumerate(zip(net.weights, net.biases)):
        out = []
        for i in range(w.shape[0]):
            acc = b[i]
            for j in range(w.shape[1]):
                acc += w[i, j] * h[j]
            out.append(acc)
        if li < len(net.weights) - 1:
            gs.append(out)
            h = [max(0.0, v) for v in out]
        else:
            h = out
    return np.array(h), [np.array(g) for g in gs]


def one_point(net, x):
    """region_map of the single point x."""
    return region_map(net, np.asarray(x, dtype=float)[None, :])


def pattern_key(net, x):
    return tuple(bytes(m[0]) for m in masks_of(one_point(net, x)))


def small_identity_net():
    return ReluNet((np.eye(2), np.array([[1.0, -1.0]])),
                   (np.zeros(2), np.zeros(1)))


def test_forward_identity_weights():
    net = small_identity_net()
    logits, pre = net_core.forward_batch(net, [[2.0, 1.0]])
    assert logits[0] == pytest.approx([1.0])
    assert pre[0][0] == pytest.approx([2.0, 1.0])


def test_forward_all_inactive():
    net = small_identity_net()
    logits, pre = net_core.forward_batch(net, [[-1.0, -1.0]])
    assert logits[0] == pytest.approx([0.0])
    assert (pre[0][0] < 0).all()


def test_forward_matches_naive_interpreter():
    rng = np.random.default_rng(11)
    for seed in range(5):
        net = random_net([3, 7, 5, 4], seed=seed, bias_scale=0.5)
        x = rng.uniform(-1, 1, size=3)
        logits, pre = net_core.forward_batch(net, x[None, :])
        ref_logits, ref_pre = naive_forward(net, x)
        assert np.abs(logits[0] - ref_logits).max() <= 1e-9
        for g, rg in zip(pre, ref_pre):
            assert np.abs(g[0] - rg).max() <= 1e-9


def test_forward_rejects_bad_shape():
    net = small_identity_net()
    for bad in ([1.0, 2.0, 3.0], [[1.0, 2.0, 3.0]], [1.0, 2.0]):
        with pytest.raises(ValueError, match="expected"):
            net_core.forward_batch(net, bad)


def test_classify_argmax_and_ties():
    net = ReluNet((np.eye(2), np.array([[1.0, 0.0], [0.0, 1.0]])),
                  (np.zeros(2), np.zeros(2)))
    assert net_core.classify_batch(net, [[1.0, -1.0], [-1.0, 1.0]]).tolist() == [1, 2]
    # zero logits: exact tie resolves to the smallest index
    zero = ReluNet((np.zeros((2, 2)),), (np.zeros(2),))
    assert net_core.classify_batch(zero, [[0.3, 0.7]]).tolist() == [1]


def test_classify_matches_forward_argmax():
    rng = np.random.default_rng(5)
    net = random_net([4, 9, 5], seed=3, bias_scale=0.2)
    X = rng.uniform(-1, 1, size=(50, 4))
    logits, _ = net_core.forward_batch(net, X)
    assert np.array_equal(net_core.classify_batch(net, X), np.argmax(logits, axis=1) + 1)


def test_activation_pattern_signs():
    # g = (2, -3)
    net = ReluNet((np.eye(2), np.ones((1, 2))), (np.zeros(2), np.zeros(1)))
    rmap = one_point(net, [2.0, -3.0])
    assert list(np.sign(rmap.values[0])) == [1, -1]
    assert list(masks_of(rmap)[0][0]) == [True, False]
    # g = (0, 5): unit exactly on its hyperplane counts as inactive
    rmap = one_point(net, [0.0, 5.0])
    assert list(np.sign(rmap.values[0])) == [0, 1]
    assert list(masks_of(rmap)[0][0]) == [False, True]


def test_masked_forward_identity():
    rng = np.random.default_rng(8)
    net = random_net([3, 6, 4], seed=2, bias_scale=0.4)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=3)
        _, pre = net_core.forward_batch(net, x[None, :])
        for g, mask in zip(pre, masks_of(one_point(net, x))):
            assert np.array_equal(np.maximum(g, 0.0), g * mask)


def test_region_linear_product_when_all_active():
    # positive weights, positive biases, positive input: every unit active
    w1 = np.array([[0.5, 0.2], [0.1, 0.7], [0.3, 0.3]])
    w2 = np.array([[0.2, 0.4, 0.1], [0.5, 0.1, 0.2]])
    net = ReluNet((w1, w2), (np.full(3, 0.5), np.zeros(2)))
    v = one_point(net, [1.0, 2.0]).v_maps[-1][0]
    assert np.allclose(v, w2 @ w1, atol=1e-12)


def test_region_one_hidden_layer_example():
    net = small_identity_net()
    rmap = one_point(net, [2.0, 1.0])
    v, a = rmap.v_maps[-1][0], rmap.a_maps[-1][0]
    assert np.allclose(v, [[1.0, -1.0]])
    assert a == pytest.approx([0.0])


def test_region_affine_consistency():
    rng = np.random.default_rng(21)
    net = random_net([2, 8, 6, 3], seed=13, bias_scale=0.4)
    x = rng.uniform(0, 1, size=2)
    rmap = one_point(net, x)
    v, a = rmap.v_maps[-1][0], rmap.a_maps[-1][0]
    key = pattern_key(net, x)
    checked = 0
    tries = 0
    while checked < 100 and tries < 20000:
        tries += 1
        z = x + rng.uniform(-0.05, 0.05, size=2)
        if pattern_key(net, z) != key:
            continue
        logits, _ = net_core.forward_batch(net, z[None, :])
        assert np.abs(logits[0] - (v @ z + a)).max() <= 1e-9
        checked += 1
    assert checked == 100


def test_region_anchor_membership():
    rng = np.random.default_rng(3)
    for seed in range(5):
        net = random_net([2, 7, 5, 2], seed=seed, bias_scale=0.3)
        x = rng.uniform(0, 1, size=2)
        hidden, _ = one_point(net, x).affine_region(0)
        signed = hidden @ np.append(x, 1.0)
        assert (signed >= -1e-12).all()


def test_region_pattern_stability():
    net = random_net([2, 9, 4], seed=4, bias_scale=0.3)
    rng = np.random.default_rng(17)
    x = rng.uniform(0, 1, size=2)
    z = x + 1e-10 * rng.standard_normal(2)
    r1, r2 = one_point(net, x), one_point(net, z)
    assert pattern_key(net, x) == pattern_key(net, z)
    for a, b in zip(r1.affine_region(0), r2.affine_region(0)):
        assert np.array_equal(a, b)


def test_net_validation():
    with pytest.raises(ValueError):
        ReluNet((np.ones((2, 2)), np.ones((3, 4))), (np.zeros(2), np.zeros(3)))
    with pytest.raises(ValueError):
        ReluNet((np.array([[np.nan, 0.0]]),), (np.zeros(1),))
    with pytest.raises(ValueError):
        ReluNet((np.ones((2, 2)),), (np.zeros(3),))


def test_net_is_immutable():
    net = small_identity_net()
    with pytest.raises(ValueError):
        net.weights[0][0, 0] = 5.0


def test_astype_float32_rounds_parameters_and_forward_follows():
    net = random_net([4, 6, 5, 3], seed=7, bias_scale=0.3)
    fast = net.astype(np.float32)
    assert net.dtype == np.float64 and fast.dtype == np.float32
    for a, b in zip(net.weights + net.biases, fast.weights + fast.biases):
        assert b.dtype == np.float32 and not b.flags.writeable
        assert np.array_equal(b, a.astype(np.float32))
    X = np.random.default_rng(1).uniform(0, 1, size=(9, 4))
    logits, pre = net_core.forward_batch(fast, X)
    assert logits.dtype == np.float32 and all(g.dtype == np.float32 for g in pre)
    ref, _ = net_core.forward_batch(net, X)
    assert np.abs(logits - ref).max() <= 1e-5 * np.abs(ref).max()
    assert fast.astype(np.float64).dtype == np.float64
    with pytest.raises(ValueError, match="float32 or float64"):
        net.astype(np.int32)


def test_mixed_parameter_dtypes_give_a_float64_net():
    w = np.ones((2, 2), dtype=np.float32)
    net = ReluNet((w, np.ones((2, 2))), (np.zeros(2, dtype=np.float32), np.zeros(2)))
    assert net.dtype == np.float64
    assert all(a.dtype == np.float64 for a in net.weights + net.biases)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_model_json_round_trip(tmp_path):
    # bitwise, and saving the loaded net again writes the same bytes
    nets = [random_net([3, 5, 4, 2], seed=42, bias_scale=0.1),
            random_net([16, 256, 256, 2], seed=0, bias_scale=0.3),
            *(tiny_net(s) for s in range(len(TINY_ARCHS)))]
    path, again = tmp_path / "model.bin", tmp_path / "again.bin"
    for net in nets:
        save_model(net, path)
        loaded = load_model(path)
        for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases):
            assert _same_bits(a, b)
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()


def test_float32_model_loads_as_its_float64_upcast(tmp_path):
    net = random_net([3, 5, 4, 2], seed=42, bias_scale=0.1).astype(np.float32)
    path = tmp_path / "model.bin"
    save_model(net, path)
    loaded = load_model(path)
    assert loaded.dtype == np.float64
    for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases):
        assert _same_bits(a.astype(np.float64), b)


def test_model_file_layout(tmp_path):
    # one JSON header line, then each layer's row-major weights and its
    # bias as little-endian float64, a float32 net's as its float64 upcast;
    # the file name plays no part
    net = random_net([3, 5, 2], seed=0, bias_scale=0.2)
    path = tmp_path / "model.json"
    save_model(net, path)
    header, payload = path.read_bytes().split(b"\n", 1)
    assert json.loads(header) == {
        "input_dim": 3, "num_classes": 2, "dtype": "f64",
        "layers": [{"rows": 5, "cols": 3}, {"rows": 2, "cols": 5}]}
    for net in (net, random_net([16, 64, 8, 3], seed=1, bias_scale=0.2).astype(np.float32),
                random_net([4, 2], seed=2), tiny_net(3)):
        save_model(net, path)
        header = {"input_dim": net.input_dim, "num_classes": net.num_classes, "dtype": "f64",
                  "layers": [{"rows": w.shape[0], "cols": w.shape[1]} for w in net.weights]}
        assert path.read_bytes() == json.dumps(header).encode() + b"\n" + b"".join(
            a.astype("<f8").tobytes() for w, b in zip(net.weights, net.biases) for a in (w, b))


def test_model_json_validates_dimension_chain(tmp_path):
    net = random_net([3, 5, 2], seed=0)
    path = tmp_path / "model.bin"
    save_model(net, path)
    line, payload = path.read_bytes().split(b"\n", 1)
    bad = tmp_path / "bad.bin"

    def rejects(edit, message):
        doc = json.loads(line)
        edit(doc)
        bad.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
        with pytest.raises(ValueError, match=message):
            load_model(bad)

    rejects(lambda doc: doc["layers"][1].update(cols=4), "columns")
    rejects(lambda doc: doc.update(input_dim=4), "columns")
    rejects(lambda doc: doc.update(num_classes=3), "num_classes=3")
    rejects(lambda doc: doc["layers"][0].pop("rows"), "layer 0 missing key 'rows'")
    rejects(lambda doc: doc["layers"][1].pop("cols"), "layer 1 missing key 'cols'")
    for key in ("input_dim", "num_classes", "dtype", "layers"):
        rejects(lambda doc: doc.pop(key), f"missing key '{key}'")
    rejects(lambda doc: doc.update(layers=[]), "non-empty list")
    # the payload holds whole layers: a shorter chain leaves bytes over
    rejects(lambda doc: doc.update(num_classes=5, layers=doc["layers"][:1]), "payload has")


def test_batched_forward_matches_single():
    net = random_net([3, 6, 4], seed=9, bias_scale=0.2)
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(32, 3))
    logits, pre = net_core.forward_batch(net, X)
    for i in range(len(X)):
        # a one-point batch gives the point's row
        li, pi = net_core.forward_batch(net, X[i:i + 1])
        assert np.abs(logits[i] - li[0]).max() <= 1e-12
        assert np.abs(pre[0][i] - pi[0][0]).max() <= 1e-12


def _view_of(net):
    return net_core._view_net([w.copy() for w in net.weights], [b.copy() for b in net.biases])


@pytest.mark.parametrize("net", [*(tiny_net(s) for s in range(len(TINY_ARCHS))),
                                 ReluNet((np.ones((3, 2)),), (np.zeros(3),)),
                                 _view_of(random_net([3, 7, 5, 4], seed=1))],
                         ids=[*(f"tiny{s}" for s in range(len(TINY_ARCHS))), "no-hidden",
                              "view-net"])
def test_hidden_slices_partition_the_hidden_units_in_layer_order(net):
    slices = net.hidden_slices
    assert isinstance(slices, tuple) and len(slices) == len(net.weights) - 1
    assert [s.step for s in slices] == [None] * len(slices)
    ends = [0] + [s.stop for s in slices]
    assert [s.start for s in slices] == ends[:-1] and ends[-1] == net.num_hidden_units
    assert [s.stop - s.start for s in slices] == list(net.hidden_sizes)
    assert np.array_equal(np.concatenate([np.arange(net.num_hidden_units)[s] for s in slices]
                                         + [np.zeros(0, dtype=int)]),
                          np.arange(net.num_hidden_units))
    # built once per net, and what every region map of the net carries
    assert net.hidden_slices is slices
    assert region_map(net, np.full((3, net.input_dim), 0.5)).layers is slices
