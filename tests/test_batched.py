"""The batched region map, certificates and regularizer against the slow
per-point reference in per_point_reference.py."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relucert import attacks, certify, geometry, mmr_train, net_core
from relucert.mmr_train import MmrUniversalConfig
from relucert.net_core import ReluNet, random_net

import per_point_reference as ref
from conftest import TINY_ARCHS, cleared_net, hyperplane_distances, tiny_net

RTOL = 1e-12
CFG = MmrUniversalConfig(lambda1=0.9, lambda_inf=2.5, gamma1=0.8, gamma_inf=0.15)


def zero_row_net():
    # hidden unit 0 has a zero incoming row (constant, never crossed), and
    # second-layer unit 1 a zero row as well: infinite boundary distances
    rng = np.random.default_rng(5)
    w1 = rng.standard_normal((5, 2))
    w1[0] = 0.0
    w2 = rng.standard_normal((4, 5))
    w2[1] = 0.0
    w3 = rng.standard_normal((3, 4))
    return ReluNet((w1, w2, w3), (rng.uniform(-0.5, 0.5, 5), rng.uniform(-0.5, 0.5, 4),
                                  np.zeros(3)))


def logit_tie_net():
    # classes 1 and 2 have identical output rows: their logits always tie,
    # the tie goes to class 1 and the decision normal between them is zero
    rng = np.random.default_rng(6)
    w1 = rng.standard_normal((6, 2))
    w2 = rng.standard_normal((3, 6))
    w2[1] = w2[0]
    return ReluNet((w1, w2), (rng.uniform(-0.5, 0.5, 6), np.array([0.1, 0.1, -0.2])))


NETS = (
    [(f"tiny{s}-{'-'.join(map(str, TINY_ARCHS[s]))}", tiny_net(s))
     for s in range(len(TINY_ARCHS))]
    + [("multi-3-7-5-4", random_net([3, 7, 5, 4], seed=1, bias_scale=0.4)),
       ("multi-2-9-6-5", random_net([2, 9, 6, 5], seed=2, bias_scale=0.4)),
       ("deep-3-8-7-6-3", random_net([3, 8, 7, 6, 3], seed=5, bias_scale=0.4)),
       ("d16-16-24-12-3", random_net([16, 24, 12, 3], seed=3, bias_scale=0.4)),
       ("d16-16-20-2", random_net([16, 20, 2], seed=4, bias_scale=0.4)),
       ("zero-rows", zero_row_net()),
       ("logit-ties", logit_tie_net())]
)


def points(net, n, seed):
    """Points in the box with a mix of predicted (mostly correct) and
    random (partly misclassified) labels."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, net.input_dim))
    y = net_core.classify_batch(net, X)
    flip = rng.random(n) < 0.3
    y[flip] = rng.integers(1, net.num_classes + 1, size=int(flip.sum()))
    return X, y


def assert_close(batched, reference, scale=None):
    """Equal infinities; finite entries within RTOL of the reference entry,
    or of `scale` when given (for sums whose terms can cancel)."""
    batched = np.asarray(batched, dtype=float)
    reference = np.asarray(reference, dtype=float)
    assert np.array_equal(np.isinf(batched), np.isinf(reference))
    assert np.array_equal(np.sign(batched[np.isinf(reference)]),
                          np.sign(reference[np.isinf(reference)]))
    fin = np.isfinite(reference)
    tol = RTOL * (np.abs(reference[fin]) if scale is None else scale)
    assert (np.abs(batched[fin] - reference[fin]) <= tol).all(), (
        np.abs(batched[fin] - reference[fin]).max())


def reference_certificates(net, X, y):
    rows = [ref.certificate(net, X[i], int(y[i])) for i in range(len(X))]
    out = {k: np.array([r[k] for r in rows]) for k in rows[0]}
    out["single_l2"] = np.array([ref.single_norm(net, X[i], int(y[i]), 2.0)
                                 for i in range(len(X))])
    return out


def assert_certificates_match(certs, expected):
    assert np.array_equal(certs.predicted, expected["predicted"])
    assert np.array_equal(certs.correct, expected["correct"])
    for key in ("rho1", "rho_inf", "lb_l1", "lb_l2", "lb_linf", "single_l2"):
        assert_close(getattr(certs, key), expected[key])


def assert_regularizer_matches(net, X, y, kb):
    dW = [np.zeros_like(w) for w in net.weights]
    db = [np.zeros_like(b) for b in net.biases]
    values = mmr_train._universal(net, X, y, CFG, kb, CFG.lambda1, CFG.lambda_inf,
                                  grads=(dW, db))
    ref_values, ref_dW, ref_db = ref.regularizer(net, X, y, CFG, kb, CFG.lambda1,
                                                 CFG.lambda_inf)
    assert_close(values, ref_values)
    assert_grads_close(dW + db, ref_dW + ref_db)


def assert_grads_close(grads, reference):
    """Every entry within RTOL of the largest reference entry: a gradient
    entry can be the sum of terms that cancel to rounding noise."""
    scale = max(np.abs(r).max() for r in reference)
    for g, r in zip(grads, reference):
        assert_close(g, r, scale=scale)


@pytest.mark.parametrize("name,net", NETS, ids=[n for n, _ in NETS])
def test_certificates_match_reference(name, net):
    X, y = points(net, 60, seed=len(name))
    assert_certificates_match(certify.certificates(net, X, y),
                              reference_certificates(net, X, y))
    # the conftest helper that other tests take distances from
    for i in range(5):
        for p in (1.0, 1.5, 2.0, math.inf):
            b, d = ref.distances(net, X[i], int(y[i]), p)
            boundary, decision = hyperplane_distances(net, X[i], int(y[i]), p)
            assert_close(boundary, b)
            assert_close(decision, d)


@pytest.mark.parametrize("name,net", NETS, ids=[n for n, _ in NETS])
def test_universal_bound_is_the_hull_formula_per_point(name, net):
    X, y = points(net, 60, seed=len(name) + 50)
    certs = certify.certificates(net, X, y)
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        # point by point: inf where rho1 is, 0 where rho_inf is, else the hull
        expected = [math.inf if math.isinf(r1) else 0.0 if rinf == 0.0
                    else geometry.hull_min_norm(r1, rinf, p)
                    for r1, rinf in zip(certs.rho1, certs.rho_inf)]
        assert certs.universal_bound(p).tobytes() == np.array(expected).tobytes(), p
    assert certs.universal_bound(2.0).tobytes() == certs.lb_l2.tobytes()
    hull = certs.rho_inf > 0
    assert certs.universal_bound(1.0)[hull].tobytes() == certs.rho1[hull].tobytes()
    assert certs.universal_bound(math.inf)[hull] == pytest.approx(certs.rho_inf[hull],
                                                                  rel=1e-15)
    with pytest.raises(ValueError, match="p >= 1"):
        certs.universal_bound(0.5)


def test_universal_bound_of_unreachable_and_misclassified_points():
    # constant logits: no hyperplane can be reached, so the winning label
    # certifies to inf at every p, the other one to 0
    net = ReluNet((np.zeros((2, 2)),), (np.array([1.0, 0.0]),))
    certs = certify.certificates(net, np.full((2, 2), 0.5), [1, 2])
    assert certs.rho1.tolist() == [math.inf, 0.0]
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        assert certs.universal_bound(p).tolist() == [math.inf, 0.0]


@pytest.mark.parametrize("name,net", NETS, ids=[n for n, _ in NETS])
def test_regularizer_matches_reference(name, net):
    X, y = points(net, 24, seed=len(name) + 100)
    for kb in (1, 3, net.num_hidden_units, net.num_hidden_units + 4):
        assert_regularizer_matches(net, X, y, kb)
    dW, db = mmr_train.loss_gradient(net, (X, y), CFG, kb_now=2)
    ref_dW, ref_db = ref.loss_gradient(net, X, y, CFG, kb_now=2)
    assert_grads_close(dW + db, ref_dW + ref_db)


# the one-pass step with both norms, and with one lambda zero
STEP_CFGS = [CFG, MmrUniversalConfig(lambda1=0.0, lambda_inf=2.5, gamma1=0.8, gamma_inf=0.15),
             MmrUniversalConfig(lambda1=0.9, lambda_inf=0.0, gamma1=0.8, gamma_inf=0.15)]


@pytest.mark.parametrize("name,net", NETS, ids=[n for n, _ in NETS])
def test_one_pass_step_is_the_two_pass_step(monkeypatch, name, net):
    # the cross-entropy read off the region maps' logits and carried by the
    # regularizer's backward pass, against its own forward and backward
    # pass: V x + a and the layer-wise pass round differently
    X, y = points(net, 37, seed=len(name) + 300)
    per_point = 8 * net.input_dim * net.num_hidden_units
    for chunk_bytes in (net_core.CHUNK_BYTES, 5 * per_point):
        monkeypatch.setattr(net_core, "CHUNK_BYTES", chunk_bytes)
        for cfg in STEP_CFGS:
            for kb, lam_scale in ((1, 1.0), (3, 0.4)):
                value, ref_dW, ref_db = ref.two_pass_step(net, X, y, cfg, kb, lam_scale)
                dW, db = mmr_train.loss_gradient(net, (X, y), cfg, kb, lam_scale)
                assert_close([mmr_train.loss(net, (X, y), cfg, kb, lam_scale)], [value])
                assert_grads_close(dW + db, ref_dW + ref_db)
    # the smaller chunks cut the batch into several
    assert len(list(net_core.region_maps(net, X))) > 1


@pytest.mark.parametrize("name,net", NETS, ids=[n for n, _ in NETS])
def test_flat_gradient_is_the_per_array_form(name, net):
    # loss_gradient's arrays are views of one flat buffer, weights then
    # biases, which the trainer hands to Adam as they are
    X, y = points(net, 24, seed=len(name) + 400)
    for cfg in (CFG, MmrUniversalConfig(lambda1=0.0, lambda_inf=0.0)):
        dW, db = mmr_train.loss_gradient(net, (X, y), cfg, kb_now=3)
        want = ([np.zeros_like(w) for w in net.weights], [np.zeros_like(b) for b in net.biases])
        mmr_train._loss_and_grad(net, X, y, cfg, 3, 1.0, want)
        for got, w in zip(dW + db, want[0] + want[1]):
            assert got.shape == w.shape and got.tobytes() == w.tobytes()
        flat = dW[0].base
        assert flat.ndim == 1 and flat.size == sum(a.size for a in dW + db)
        assert all(a.base is flat for a in dW + db)
        assert np.array_equal(flat, np.concatenate([a.ravel() for a in dW + db]))


def twin_units(net):
    """The same function with every first-layer unit doubled: each copy has
    the unit's row and bias, so their boundary distances tie, and the two
    share the unit's outgoing weights."""
    w1, w2 = net.weights[:2]
    weights = (np.vstack([w1, w1]), np.hstack([0.5 * w2, 0.5 * w2]), *net.weights[2:])
    return ReluNet(weights, (np.concatenate([net.biases[0]] * 2), *net.biases[1:]))


LAMBDAS = [(CFG.lambda1, CFG.lambda_inf), (0.0, CFG.lambda_inf), (CFG.lambda1, 0.0)]
# margins beyond every distance: every selected hinge is active, so the
# order in which a value adds them shows in its last bits
WIDE = MmrUniversalConfig(lambda1=0.9, lambda_inf=2.5, gamma1=50.0, gamma_inf=10.0)


def assert_universal_is_the_argsort_form(net, X, y, kb, lams, cfg=CFG):
    """Values and gradients of _universal bitwise those of the stable-sort
    reference."""
    grads = ([np.zeros_like(w) for w in net.weights], [np.zeros_like(b) for b in net.biases])
    want = ([np.zeros_like(w) for w in net.weights], [np.zeros_like(b) for b in net.biases])
    values = mmr_train._universal(net, X, y, cfg, kb, *lams, grads=grads)
    assert values.tobytes() == ref.universal_argsort(net, X, y, cfg, kb, *lams,
                                                     grads=want).tobytes()
    for got, w in zip(grads[0] + grads[1], want[0] + want[1]):
        assert got.tobytes() == w.tobytes()


@pytest.mark.parametrize("name,net", NETS, ids=[n for n, _ in NETS])
def test_universal_is_bitwise_the_argsort_form(name, net):
    # kb = 1, odd (a twin pair split at the kb-th distance), N and beyond N;
    # zero-rows gives +inf distances, logit-ties a zero decision normal
    for case in (net, twin_units(net)):
        X, y = points(case, 24, seed=len(name) + 200)
        n = case.num_hidden_units
        for kb in (1, 3, n // 2, n, n + 4):
            for lams in LAMBDAS:
                assert_universal_is_the_argsort_form(case, X, y, kb, lams)
            assert_universal_is_the_argsort_form(case, X, y, kb, LAMBDAS[0], WIDE)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(NETS), twins=st.booleans(), lams=st.sampled_from(LAMBDAS),
       cfg=st.sampled_from([CFG, WIDE]), count=st.integers(1, 40), seed=st.integers(0, 2**16),
       data=st.data())
def test_universal_is_bitwise_the_argsort_form_property(case, twins, lams, cfg, count, seed,
                                                        data):
    net = twin_units(case[1]) if twins else case[1]
    kb = data.draw(st.integers(1, net.num_hidden_units + 4))
    X, y = points(net, count, seed)
    assert_universal_is_the_argsort_form(net, X, y, kb, lams, cfg)


def test_twin_units_tie_at_the_kth_distance():
    # guards the fixture above: on a one-layer net every point has more than
    # kb = 3 boundary distances at or below its 3rd smallest
    net = twin_units(dict(NETS)["tiny0-2-8-2"])
    X, _ = points(net, 24, seed=1)
    w1, b1 = net.weights[0], net.biases[0]
    dists = np.abs(X @ w1.T + b1) / np.abs(w1).max(axis=1)
    kth = np.sort(dists, axis=1)[:, 2:3]
    assert ((dists <= kth).sum(axis=1) > 3).all()


def test_special_nets_exercise_edge_cases():
    # guards the fixtures above: infinite distances, a tie lost to the lower
    # class index, and points certified correct next to a zero decision normal
    net = dict(NETS)["zero-rows"]
    X, y = points(net, 60, seed=len("zero-rows"))
    boundary, _ = hyperplane_distances(net, X[0], int(y[0]), 2.0)
    assert np.isinf(boundary[0]) and np.isinf(boundary[6])
    net = dict(NETS)["logit-ties"]
    X, y = points(net, 60, seed=len("logit-ties"))
    certs = certify.certificates(net, X, np.full(60, 2))
    assert not certs.correct.any() and (certs.predicted != 2).all()
    certs = certify.certificates(net, X, np.full(60, 1))
    assert certs.correct.any()


def shared_points(net, n, seed, mixed=False):
    """Points of a cleared_net: all in the unit box (one activation region),
    or with every other point drawn from a wider box (mostly other regions);
    labels as in points()."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, net.input_dim))
    if mixed:
        X[1::2] = rng.uniform(-3.0, 4.0, size=(n // 2, net.input_dim))
    y = net_core.classify_batch(net, X)
    flip = rng.random(n) < 0.3
    y[flip] = rng.integers(1, net.num_classes + 1, size=int(flip.sum()))
    return X, y


SHARED = {"cleared-16-24-12-3": False, "mixed-16-24-12-3": True}


def batch_of(name, n, seed):
    if name in SHARED:
        net = cleared_net([16, 24, 12, 3])
        return (net, *shared_points(net, n, seed, mixed=SHARED[name]))
    net = dict(NETS)[name]
    return (net, *points(net, n, seed))


@pytest.mark.parametrize("name", ["tiny4-2-8-8-3", "multi-2-9-6-5", "deep-3-8-7-6-3",
                                  "d16-16-24-12-3", *SHARED])
def test_per_point_results_independent_of_chunking(monkeypatch, name):
    net, X, y = batch_of(name, 37, seed=3)

    def run():
        dW = [np.zeros_like(w) for w in net.weights]
        db = [np.zeros_like(b) for b in net.biases]
        values = mmr_train._universal(net, X, y, CFG, 4, CFG.lambda1, CFG.lambda_inf,
                                      grads=(dW, db))
        return certify.certificates(net, X, y), values, dW + db

    certs, values, grads = run()
    per_point = 8 * net.input_dim * net.num_hidden_units
    for chunk_bytes in (1, 5 * per_point, 16 * per_point, 10**9):
        monkeypatch.setattr(net_core, "CHUNK_BYTES", chunk_bytes)
        c, v, g = run()
        for key in ("predicted", "correct", "rho1", "rho_inf", "lb_l2", "single_l2", "region"):
            assert np.array_equal(getattr(c, key), getattr(certs, key))
        assert np.array_equal(v, values)
        # the gradient sums over points: chunked partial sums reassociate it
        assert_grads_close(g, grads)
    # the region index numbers the batch's activation patterns in order of first appearance
    assert np.array_equal(certs.region, net_core.region_map(net, X).region)


@pytest.mark.parametrize("name", list(SHARED))
def test_shared_regions_match_point_views_and_reference(name):
    net, X, y = batch_of(name, 40, seed=8)
    certs = certify.certificates(net, X, y)
    regions = len(np.unique(certs.region))
    assert regions == 1 if name.startswith("cleared") else 2 < regions < 30
    for i in range(len(X)):
        # a one-point batch builds the same row from its point alone
        one = certify.certificates(net, X[i:i + 1], y[i:i + 1])
        for key in ("predicted", "correct", "rho1", "rho_inf", "lb_l2", "single_l2"):
            assert getattr(one, key).tobytes() == getattr(certs, key)[i:i + 1].tobytes()
    assert_certificates_match(certs, reference_certificates(net, X, y))
    assert_regularizer_matches(net, X, y, kb=5)


@pytest.mark.parametrize("name", ["tiny4-2-8-8-3", "mixed-16-24-12-3"])
def test_one_layer_step_row_per_activation_prefix(monkeypatch, name):
    net, X, _ = batch_of(name, 60, seed=4)
    rows = []

    def counted(w, b, v, a, mask):
        rows.append(len(mask))
        return layer_step(w, b, v, a, mask)

    layer_step = net_core._layer_step
    monkeypatch.setattr(net_core, "_layer_step", counted)
    rmap = net_core.region_map(net, X)
    bits = [np.concatenate([m[i] for m in rmap.masks]) for i in range(len(X))]
    prefixes = [len({bytes(b[:sum(net.hidden_sizes[:l])]) for b in bits})
                for l in range(1, len(net.weights))]
    assert rows == prefixes and 1 < prefixes[-1] < len(X)
    assert len(rmap.v_maps[-1]) == prefixes[-1]
    for i in range(len(X)):
        same = [bytes(b) == bytes(bits[i]) for b in bits]
        assert np.array_equal(rmap.region == rmap.region[i], same)
        # each table row is the geometry a one-point map builds
        one = net_core.region_map(net, X[i:i + 1])
        for l in range(len(net.weights)):
            assert np.array_equal(rmap.v_maps[l][rmap.index[l][i]], one.v_maps[l][0])
            assert np.array_equal(rmap.a_maps[l][rmap.index[l][i]], one.a_maps[l][0])


@functools.lru_cache(maxsize=None)
def big_batches(n):
    """Batches of n points of a 16-256-256-2 net: each point in its own
    activation region, all in one region, and (n > 14) the first 14 in one
    region followed by n - 14 in regions of their own."""
    rng = np.random.default_rng(n)
    spread = random_net([16, 256, 256, 2], seed=0, bias_scale=0.3)
    cleared = cleared_net([16, 256, 256, 2])
    X = rng.uniform(0.0, 1.0, size=(n, 16))
    batches = {"distinct": (spread, X), "shared": (cleared, X)}
    if n > 14:
        mixed = X.copy()
        mixed[14:] = rng.uniform(-3.0, 4.0, size=(n - 14, 16))
        batches["mixed"] = (cleared, mixed)
    for kind, (net, Z) in batches.items():
        regions = len(net_core.region_map(net, Z).v_maps[-1])
        assert regions == {"distinct": n, "shared": 1, "mixed": n - 13}[kind]
    return batches


def chunk_sizes(net, X):
    """Sizes of the chunks region_maps cuts X into; checks each chunk's
    memory: at most R regions, whose tables take at most CHUNK_BYTES, and
    per-point (B, N) arrays within CHUNK_BYTES."""
    sizes, lo = [], 0
    for sl, rmap in net_core.region_maps(net, X):
        assert (sl.start, sl.stop) == (lo, lo + len(rmap.points))
        assert len(rmap.v_maps[-1]) <= net_core._region_cap(net)
        assert sum(v.nbytes for v in rmap.v_maps[:-1]) <= net_core.CHUNK_BYTES
        assert rmap.values.nbytes <= net_core.CHUNK_BYTES
        sizes.append(len(rmap.points))
        lo = sl.stop
    assert lo == len(X)
    return sizes


def test_chunk_size_follows_the_memory_cap():
    # a 16-256-256-2 net: R = CHUNK_BYTES / (8 * 16 * 512) = 4 regions per
    # chunk, and (B, N) arrays for at most CHUNK_BYTES / (8 * 512) = 64 points
    assert net_core._region_cap(random_net([16, 256, 256, 2])) == 4
    batches = big_batches(300)
    # chunks stay at 4 points while the points span more than 2 regions
    assert chunk_sizes(*batches["distinct"]) == [4] * 75
    # and double up to 64 points while they share one
    assert chunk_sizes(*batches["shared"]) == [4, 8, 16, 32, 64, 64, 64, 48]
    # a chunk that would span more than 4 regions ends at the last multiple
    # of 4 points that spans at most 4: 2 shared and 2 distinct points here
    assert chunk_sizes(*batches["mixed"]) == [4, 8, 4] + [4] * 71


@pytest.mark.parametrize("batch", [3, 4, 5])
def test_batches_around_the_chunk_size(batch):
    batches = big_batches(8 + batch)
    net, X = batches["distinct"]
    X = X[:batch]
    assert chunk_sizes(net, X) == {3: [3], 4: [4], 5: [4, 1]}[batch]
    net, Z = batches["shared"]
    assert chunk_sizes(net, Z) == {3: [4, 7], 4: [4, 8], 5: [4, 8, 1]}[batch]
    for net, X in ((net, X), (net, Z)):
        y = net_core.classify_batch(net, X)
        y[::3] = 3 - y[::3]
        assert_certificates_match(certify.certificates(net, X, y),
                                  reference_certificates(net, X, y))
        assert_regularizer_matches(net, X, y, kb=5)


def test_region_maps_memory_does_not_grow_with_the_batch():
    # region tables, layer-step temporaries and per-point arrays of the
    # chunk being built and of the one the caller still holds
    for kind, n in (("distinct", 200), ("shared", 40), ("shared", 3000)):
        net, X = big_batches(n)[kind]
        tracemalloc.start()
        for _ in net_core.region_maps(net, X):
            pass
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 4 * net_core.CHUNK_BYTES, (kind, n, peak / net_core.CHUNK_BYTES)


def test_regularizer_memory_does_not_grow_with_the_batch():
    # the regularizer's value and gradient read one chunk's tables at a
    # time: no per-point (B, N, d) rows and no (regions, B) product of the
    # whole batch (distinct points make chunks of R = 4 points, so 200 of
    # them already span 50 chunks)
    for kind, n in (("distinct", 40), ("distinct", 200), ("shared", 40), ("shared", 200),
                    ("shared", 3000)):
        net, X = big_batches(n)[kind]
        y = net_core.classify_batch(net, X)
        grads = ([np.zeros_like(w) for w in net.weights],
                 [np.zeros_like(b) for b in net.biases])
        tracemalloc.start()
        mmr_train._universal(net, X, y, CFG, 5, CFG.lambda1, CFG.lambda_inf, grads=grads)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 16 * net_core.CHUNK_BYTES, (kind, n, peak / net_core.CHUNK_BYTES)


# -- a point's region as affine maps -----------------------------------------------


def stacked_rows(rmap):
    """(B, N, d + 1): each point's unsigned hidden rows [h, c] in one
    per-point stack of every layer's gathered table rows, the reference that
    RegionMap.affine_region is checked against."""
    out = np.empty(rmap.values.shape + (rmap.points.shape[1] + 1,))
    pos = 0
    for v, a, index in zip(rmap.v_maps[:-1], rmap.a_maps[:-1], rmap.index):
        n = v.shape[1]
        rows = np.concatenate([v, a[:, :, None]], axis=2)
        out[:, pos:pos + n] = rows if len(rows) in (1, len(index)) else rows[index]
        pos += n
    return out


@pytest.mark.parametrize("name,net", NETS, ids=[n for n, _ in NETS])
def test_affine_region_is_the_points_region(name, net):
    # the signed hidden rows are positive at the point wherever its
    # preactivation is nonzero, the output map gives its logits, and the
    # rows are bitwise the stacked ones signed by the masks
    X, _ = points(net, 60, seed=len(name) + 7)
    rmap = net_core.region_map(net, X)
    stack = stacked_rows(rmap)
    d, N, K = net.input_dim, net.num_hidden_units, net.num_classes
    for i, x in enumerate(X):
        hidden, output = rmap.affine_region(i)
        assert hidden.shape == (N, d + 1) and output.shape == (K, d + 1)
        x1 = np.append(x, 1.0)
        nonzero = rmap.values[i] != 0.0
        assert (hidden[nonzero] @ x1 > 0.0).all(), (name, i)
        np.testing.assert_allclose(output @ x1, rmap.logits[i], rtol=0,
                                   atol=1e-12 * (np.abs(output) @ np.abs(x1)).max())
        sign = np.where(np.concatenate([m[i] for m in rmap.masks]), 1.0, -1.0)[:, None]
        assert hidden.tobytes() == (sign * stack[i]).tobytes(), (name, i)
        r = rmap.region[i]
        want = np.column_stack([rmap.v_maps[-1][r], rmap.a_maps[-1][r]])
        assert output.tobytes() == want.tobytes()


@pytest.mark.parametrize("name,net", NETS, ids=[n for n, _ in NETS])
def test_anchor_region_is_the_stacked_rows_in_float32(name, net):
    # five anchors within 1e-9 of the first share its region, which so
    # holds the most of the eight and is built from the first anchor
    rng = np.random.default_rng(len(name))
    x0 = rng.uniform(0.2, 0.8, net.input_dim)
    X = np.vstack([x0 + 1e-9 * np.arange(5)[:, None], rng.uniform(0, 1, (3, net.input_dim))])
    keys = np.concatenate(net_core.forward_batch(net, X)[1], axis=1) > 0
    assert (keys[:5] == keys[0]).all()
    hidden, output, anchors, radius = attacks._anchor_region(net, X)
    rmap = net_core.region_map(net, x0[None])
    sign = np.where(np.concatenate(rmap.masks, axis=1)[0], 1.0, -1.0)[:, None]
    assert hidden.tobytes() == (sign * stacked_rows(rmap)[0]).astype(np.float32).tobytes()
    want = np.column_stack([rmap.v_maps[-1][0], rmap.a_maps[-1][0]]).astype(np.float32)
    assert output.tobytes() == want.tobytes()
    assert anchors.tobytes() == X.tobytes() and radius == math.inf


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_rejected(bad):
    # certificates and the loss read the region maps, which refuse the row
    net = random_net([2, 8, 2], bias_scale=0.3)
    X = np.array([[0.5, 0.5], [0.2, bad], [0.1, 0.9]])
    with pytest.raises(ValueError, match="row 1 of the batch is not finite"):
        certify.certificates(net, X, [1, 2, 1])
    with pytest.raises(ValueError, match="row 1 of the batch is not finite"):
        mmr_train.loss(net, (X, [1, 2, 1]), CFG)
    with pytest.raises(ValueError, match="row 1 of the batch is not finite"):
        mmr_train.loss_gradient(net, (X, [1, 2, 1]), CFG)
