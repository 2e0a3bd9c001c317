"""The batched region map, certificates and regularizer against the slow
per-point reference in per_point_reference.py."""

import functools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relucert import attacks, certify, cli, datasets, geometry, mmr_train, net_core
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


def region_bytes(net):
    """The CHUNK_BYTES at which _region_cap is one region: the larger of the
    tables a region builds (the rows of layers 2 and up and of the output
    map, d floats each; layer 1's table is W1) and a point's (N,) row."""
    owned = net.input_dim * sum(len(w) for w in net.weights[1:])
    return 8 * max(owned, net.num_hidden_units)


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
    # the reference's lb_* are the certify CSV's columns
    got = {"rho1": certs.rho1, "rho_inf": certs.rho_inf, "lb_l1": certs.rho1,
           "lb_l2": certs.universal_bound(2.0), "lb_linf": certs.rho_inf,
           "single_l2": certs.single_l2}
    for key, value in got.items():
        assert_close(value, expected[key])


def assert_regularizer_matches(net, X, y, kb):
    """_universal's regularizer and cross-entropy, and the gradient of their
    mean, against the point-by-point regularizer plus the batched
    cross-entropy."""
    dW = [np.zeros_like(w) for w in net.weights]
    db = [np.zeros_like(b) for b in net.biases]
    values, ce = mmr_train._universal(net, X, y, CFG, kb, CFG.lambda1, CFG.lambda_inf,
                                      grads=(dW, db))
    ref_values, ref_dW, ref_db = ref.regularizer(net, X, y, CFG, kb, CFG.lambda1,
                                                 CFG.lambda_inf)
    ref_ce, ce_dW, ce_db = ref.ce_value_and_grad(net, X, y)
    assert_close(values, ref_values)
    assert_close([ce.mean()], [ref_ce])
    assert_grads_close(dW + db, [a + b for a, b in zip(ref_dW + ref_db, ce_dW + ce_db)])


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


def test_tied_logits_certify_no_l2_radius_at_a_misclassified_point(tmp_path):
    # classes 1 and 2 tie everywhere and the tie goes to class 1, so every
    # point labelled 2 is misclassified, with a zero decision normal of value
    # 0 against class 1: single_l2 took it as no hyperplane and claimed the
    # nearest other one, and report raised "l2 adversarial of norm 0.0 lies
    # inside its certified radius"
    net = logit_tie_net()
    X = np.random.default_rng(0).uniform(0.0, 1.0, (40, 2))
    y = np.full(len(X), 2)
    certs = certify.certificates(net, X, y)
    assert not certs.correct.any()
    for radius in (certs.rho1, certs.single_l2, certs.rho_inf, *certs.radii().values()):
        assert (radius == 0.0).all()
    model, data = tmp_path / "ties.bin", tmp_path / "ties-data.bin"
    net_core.save_model(net, model)
    datasets.save_dataset(datasets.Dataset(X, y, num_classes=3), data)
    report = cli.run_evaluation(model, data, (0.3, None, 0.05), iterations=5, restarts=2,
                                deterministic=True)
    assert report.test_error == 1.0
    assert all(pair["lb"] == pair["ub"] == 1.0
               for pair in (*report.per_norm.values(), report.union))


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
    hull = certs.rho_inf > 0
    assert certs.universal_bound(1.0)[hull].tobytes() == certs.rho1[hull].tobytes()
    assert certs.universal_bound(math.inf)[hull] == pytest.approx(certs.rho_inf[hull],
                                                                  rel=1e-15)
    with pytest.raises(ValueError, match="p >= 1"):
        certs.universal_bound(0.5)


@pytest.mark.parametrize("name,net", NETS, ids=[n for n, _ in NETS])
def test_hull_l2_bound_is_within_the_region_l2_certificate(name, net):
    # the l1 and linf balls of radii rho1 and rho_inf lie in the point's
    # region, on the correct side of every decision hyperplane, and so does
    # their convex hull: its l2 bound cannot pass single_l2, the l2 distance
    # to the nearest of those hyperplanes (up to rounding)
    X, y = points(net, 200, seed=len(name) + 100)
    certs = certify.certificates(net, X, y)
    assert (certs.universal_bound(2.0) <= certs.single_l2 * (1.0 + 1e-12)).all()
    # the hull bound can round an ulp past single_l2, so the l2 radius that
    # bounds and report use is single_l2 itself, with no slack: no point is
    # certified at the next float above it
    assert certs.radii()["l2"].tobytes() == certs.single_l2.tobytes()
    for i in np.flatnonzero(certs.correct & np.isfinite(certs.single_l2)):
        one = certify.Certificates(*(field[i:i + 1] for field in vars(certs).values()))
        above = float(np.nextafter(certs.single_l2[i], math.inf))
        assert certify.bounds(one, (0.0, above, 0.0))["l2"] == 1.0


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
    for chunk_bytes in (net_core.CHUNK_BYTES, 5 * region_bytes(net)):
        monkeypatch.setattr(net_core, "CHUNK_BYTES", chunk_bytes)
        for cfg in STEP_CFGS:
            for kb, lam_scale in ((1, 1.0), (3, 0.4)):
                value, ref_dW, ref_db = ref.two_pass_step(net, X, y, cfg, kb, lam_scale)
                dW, db = mmr_train.loss_gradient(net, (X, y), cfg, kb, lam_scale)
                assert_close([mmr_train.loss(net, (X, y), cfg, kb, lam_scale)], [value])
                assert_grads_close(dW + db, ref_dW + ref_db)
    # the smaller chunks, of R = 5 regions, cut the batch into several
    assert net_core._region_cap(net) == 5
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
    """Values, cross-entropies and gradients of _universal bitwise those of
    the stable-sort reference."""
    grads = ([np.zeros_like(w) for w in net.weights], [np.zeros_like(b) for b in net.biases])
    want = ([np.zeros_like(w) for w in net.weights], [np.zeros_like(b) for b in net.biases])
    values, ce = mmr_train._universal(net, X, y, cfg, kb, *lams, grads=grads)
    want_ce = np.empty(len(X))
    assert values.tobytes() == ref.universal_argsort(net, X, y, cfg, kb, *lams,
                                                     grads=want, ce=want_ce).tobytes()
    assert ce.tobytes() == want_ce.tobytes()
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


def zero_unit_net():
    """zero-rows with the biases of unit 0 and of the first unit j whose row
    has a positive entry set to 0: unit 0 is exactly 0 at every point, and
    unit j exactly 0 at the origin.  Returns (net, j)."""
    net = dict(NETS)["zero-rows"]
    j = int(np.flatnonzero((net.weights[0] > 0).any(axis=1))[0])
    b1 = net.biases[0].copy()
    b1[[0, j]] = 0.0
    return ReluNet(net.weights, (b1, *net.biases[1:])), j


def test_a_unit_exactly_at_zero_is_inactive_in_the_table_gradient():
    # unit 0's value is 0.0 at every point: _backprop_tables must mask it out
    # as the forward pass does, so its incoming row gets no gradient
    net, _ = zero_unit_net()
    X, y = points(net, 24, seed=9)
    rmap = ref.region_map(net, X)
    assert (rmap.values[:, 0] == 0.0).all()
    for kb in (3, net.num_hidden_units):
        assert_regularizer_matches(net, X, y, kb)
    dW, db = mmr_train.loss_gradient(net, (X, y), WIDE, kb_now=net.num_hidden_units)
    assert not dW[0][0].any() and db[0][0] == 0.0 and np.abs(dW[0][1:]).max() > 0.0


def test_a_unit_exactly_at_zero_is_inactive_in_the_carried_prefix():
    # a chunk of points where unit j is active, then the origin, where it is
    # exactly 0: the origin's prefix differs, so the next chunk must build
    # its own layer-1 row rather than copy the previous chunk's
    net, j = zero_unit_net()
    w1, b1 = net.weights[0], net.biases[0]
    others = np.abs(b1[b1 != 0.0]).min()
    x = np.zeros(2)
    x[np.argmax(w1[j])] = 0.5 * others / np.abs(w1).sum()
    cap = net_core._region_cap(net)
    X = np.vstack([np.repeat(x[None], cap, axis=0), np.zeros((1, 2))])
    chunks = list(net_core.region_maps(net, X))
    assert [sl.stop for sl, _ in chunks] == [cap, cap + 1]
    first, (_, last) = chunks[0][1], chunks[1]
    assert first.values[0, j] > 0.0 and last.values[0, j] == 0.0
    # every other unit of layer 0 has the same sign at both points
    same = np.flatnonzero(np.arange(len(b1)) != j)
    assert np.array_equal(first.values[0, same] > 0, last.values[0, same] > 0)
    alone = ref.region_map(net, np.zeros((1, 2)))
    for l in range(len(net.weights)):
        assert last.v_maps[l].tobytes() == alone.v_maps[l].tobytes()
        assert last.a_maps[l].tobytes() == alone.a_maps[l].tobytes()
    assert last.values.tobytes() == alone.values.tobytes()
    assert not np.array_equal(first.v_maps[1], last.v_maps[1])


def signed_values_and_norms(seed):
    """(40, 9) values with a row of +0.0 and one of -0.0, and positive norms
    from 1e-3 to 1e3."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((40, 9))
    values[0], values[1] = 0.0, -0.0
    return values, 10.0 ** rng.uniform(-3.0, 3.0, (40, 9))


def test_plane_distances_divide_straight_off_positive_norms():
    values, norms = signed_values_and_norms(7)
    assert certify.plane_distances(values, norms).tobytes() == (values / norms).tobytes()
    # a zero norm anywhere: the masked divide, +inf at 0 / 0 and -0 / 0
    norms[:, 4] = 0.0
    got = certify.plane_distances(values, norms)
    assert got.tobytes() == ref.masked_distances(values, norms).tobytes()
    assert got[0, 4] == got[1, 4] == math.inf


def test_plane_distances_of_stacked_norms_are_three_calls():
    # certificates divide each layer's gaps once by its rows' three dual
    # norms, stacked (3, ., n); rows 2 and 5 are zero normals (a zero row,
    # values +-0.4), so the masked divide must size its output by the
    # broadcast shape and give the +-inf of three separate calls
    rng = np.random.default_rng(9)
    rows = rng.standard_normal((7, 5))
    rows[[2, 5]] = 0.0
    values = rng.standard_normal((11, 7))
    values[:, 2], values[:, 5] = 0.4, -0.4
    separate = [net_core.row_norms(rows, q) for q in certify._DUALS]
    want = np.stack([certify.plane_distances(values, norms) for norms in separate])
    stacked = np.stack(separate)[:, None, :]
    for vals, norms in ((values, stacked), (values[None], stacked),
                        (values[None], np.repeat(stacked, len(values), axis=1))):
        with np.errstate(all="raise"):
            got = certify.plane_distances(vals, norms)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert (want[:, :, 2] == math.inf).all() and (want[:, :, 5] == -math.inf).all()
    assert np.isfinite(np.delete(want, [2, 5], axis=2)).all()


def test_adjoints_divide_straight_off_positive_norms():
    values, norms = signed_values_and_norms(8)
    coef = np.where(values > 0.3, -0.25, 0.0)
    g_val, g_norm = mmr_train._adjoints(coef, values, norms)
    assert g_val.tobytes() == (coef / norms).tobytes()
    assert g_norm.tobytes() == (-coef * values / norms**2).tobytes()
    # the masked form differs only in the sign of the zeros where coef is 0
    want_val, want_norm = ref.masked_adjoints(coef, values, norms)
    assert (g_val == want_val).all() and (g_norm == want_norm).all()
    # a zero norm, whose hinge is never active: the masked form, no 0 / 0
    norms[:, 4], coef[:, 4] = 0.0, 0.0
    for got, want in zip(mmr_train._adjoints(coef, values, norms),
                         ref.masked_adjoints(coef, values, norms)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["zero-rows", "logit-ties"])
def test_zero_normal_nets_reach_the_masked_divide(name, monkeypatch):
    # guards the fixtures above: the regularizer meets a zero norm (a zero
    # hidden row, a zero decision normal) in both divides, so the bitwise
    # argsort tests cover their masked branches
    met = set()
    for module, fn in ((certify, "plane_distances"), (mmr_train, "_adjoints")):
        def spy(*args, _fn=getattr(module, fn), _name=fn):
            if (args[-1] == 0).any():
                met.add(_name)
            return _fn(*args)
        monkeypatch.setattr(module, fn, spy)
    net = dict(NETS)[name]
    X, y = points(net, 24, seed=len(name) + 200)
    grads = mmr_train._zero_grads(net)[1]
    mmr_train._universal(net, X, y, CFG, 3, *LAMBDAS[0], grads=grads)
    assert met == {"plane_distances", "_adjoints"}


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
        return certify.certificates(net, X, y), np.concatenate(values), dW + db

    certs, values, grads = run()
    per_point = 8 * net.input_dim * net.num_hidden_units
    for chunk_bytes in (1, 5 * per_point, 16 * per_point, 10**9):
        monkeypatch.setattr(net_core, "CHUNK_BYTES", chunk_bytes)
        c, v, g = run()
        for key in ("predicted", "correct", "rho1", "rho_inf", "single_l2", "region"):
            assert np.array_equal(getattr(c, key), getattr(certs, key))
        assert np.array_equal(c.universal_bound(2.0), certs.universal_bound(2.0))
        assert np.array_equal(v, values)
        # the gradient sums over points: chunked partial sums reassociate it
        assert_grads_close(g, grads)
    # the region index numbers the batch's activation patterns in order of first appearance
    assert np.array_equal(certs.region, ref.region_map(net, X).region)


@pytest.mark.parametrize("name", list(SHARED))
def test_shared_regions_match_point_views_and_reference(name):
    net, X, y = batch_of(name, 40, seed=8)
    certs = certify.certificates(net, X, y)
    regions = len(np.unique(certs.region))
    assert regions == 1 if name.startswith("cleared") else 2 < regions < 30
    for i in range(len(X)):
        # a one-point batch builds the same row from its point alone
        one = certify.certificates(net, X[i:i + 1], y[i:i + 1])
        for key in ("predicted", "correct", "rho1", "rho_inf", "single_l2"):
            assert getattr(one, key).tobytes() == getattr(certs, key)[i:i + 1].tobytes()
        assert one.universal_bound(2.0).tobytes() == certs.universal_bound(2.0)[i:i + 1].tobytes()
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
    rmap = ref.region_map(net, X)
    bits = [np.concatenate([m[i] for m in ref.masks_of(rmap)]) for i in range(len(X))]
    prefixes = [len({bytes(b[:sum(net.hidden_sizes[:l])]) for b in bits})
                for l in range(1, len(net.weights))]
    assert rows == prefixes and 1 < prefixes[-1] < len(X)
    assert len(rmap.v_maps[-1]) == prefixes[-1]
    for i in range(len(X)):
        same = [bytes(b) == bytes(bits[i]) for b in bits]
        assert np.array_equal(rmap.region == rmap.region[i], same)
        # each table row is the geometry a one-point map builds
        one = ref.region_map(net, X[i:i + 1])
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
        regions = len(ref.region_map(net, Z).v_maps[-1])
        assert regions == {"distinct": n, "shared": 1, "mixed": n - 13}[kind]
    return batches


def chunk_sizes(net, X):
    """Sizes of the chunks region_maps cuts X into; checks each chunk's
    memory: at most R regions, whose tables take at most CHUNK_BYTES (all
    but layer 1's, a view of W1 that no chunk builds), and per-point (B, N)
    arrays within CHUNK_BYTES."""
    sizes, lo = [], 0
    for sl, rmap in net_core.region_maps(net, X):
        assert (sl.start, sl.stop) == (lo, lo + len(rmap.values))
        assert len(rmap.v_maps[-1]) <= net_core._region_cap(net)
        assert sum(v.nbytes for v in rmap.v_maps[1:]) <= net_core.CHUNK_BYTES
        assert rmap.values.nbytes <= net_core.CHUNK_BYTES
        sizes.append(len(rmap.values))
        lo = sl.stop
    assert lo == len(X)
    return sizes


def rule_sizes(regions, cap, most):
    """The chunk sizes of region_maps' rule for points in the given regions
    (one label a point): R = cap points first, then twice the last step, up
    to most points, after a chunk of at most max(1, R // 2) regions, and R
    after any other; a chunk that would span more than R regions ends at
    the last multiple of R points that spans at most R."""
    regions, sizes, lo, step = list(regions), [], 0, cap
    while lo < len(regions):
        take = regions[lo:lo + step]
        seen = list(dict.fromkeys(take))
        if len(seen) > cap:
            take = take[:take.index(seen[cap]) // cap * cap]
        sizes.append(len(take))
        lo += len(take)
        step = min(2 * step, most) if len(set(take)) <= max(1, cap // 2) else cap
    return sizes


def test_chunk_size_follows_the_memory_cap():
    # a region is priced by the tables it builds, layer 2's and the output
    # map's: R = CHUNK_BYTES / (8 * 16 * (256 + 2)) = 7 regions per chunk on
    # a 16-256-256-2 net, and (B, N) arrays for at most CHUNK_BYTES /
    # (8 * 512) = 64 points, so chunks of at most 9 R = 63 points
    R = net_core.CHUNK_BYTES // (8 * 16 * (256 + 2))
    most = R * (net_core.CHUNK_BYTES // (8 * 512) // R)
    assert net_core._region_cap(random_net([16, 256, 256, 2])) == R == 7 and most == 63
    batches = big_batches(300)
    for net, X in batches.values():
        assert chunk_sizes(net, X) == rule_sizes(ref.region_map(net, X).region, R, most)
    # chunks stay at 7 points while the points span more than 3 regions
    assert chunk_sizes(*batches["distinct"]) == [7] * 42 + [6]
    # and double up to 63 points while they share one
    assert chunk_sizes(*batches["shared"]) == [7, 14, 28, 56, 63, 63, 63, 6]
    # a chunk that would span more than 7 regions ends at the last multiple
    # of 7 points that spans at most 7: the second chunk, of 7 shared and 7
    # distinct points, keeps the shared 7, and the third keeps 7 of 28
    assert chunk_sizes(*batches["mixed"]) == [7] * 42 + [6]
    # layer 1's table is W1 itself and is not priced; R is never more than
    # the points whose (N,) rows fit in CHUNK_BYTES (2-64-2)
    for sizes, cap in (([2, 64, 2], 512), ([16, 64, 64, 8], 28), ([784, 1024, 10], 4)):
        assert net_core._region_cap(random_net(sizes)) == cap


def test_chunks_carry_the_previous_chunks_tables(monkeypatch):
    # a table row is a function of its activation prefix, so a chunk copies
    # the rows the previous chunk built: a batch in one region builds each
    # layer once, and every chunk is bitwise a slice of the whole batch's map
    built = []

    def counted(w, b, v, a, mask):
        built.append((w.shape[0], len(mask)))
        return layer_step(w, b, v, a, mask)

    layer_step = net_core._layer_step
    for kind, (net, X) in big_batches(300).items():
        whole = ref.region_map(net, X)
        built.clear()
        monkeypatch.setattr(net_core, "_layer_step", counted)
        chunks = list(net_core.region_maps(net, X))
        monkeypatch.undo()
        if kind == "shared":
            assert len(chunks) == 8 and built == [(256, 1), (2, 1)]
        if kind == "mixed":
            # the shared region is built in the first chunk only, then each
            # of the 286 distinct regions once
            assert sum(rows for n, rows in built if n == 2) == 287
        for sl, rmap in chunks:
            for l in range(len(net.weights)):
                for tables in ("v_maps", "a_maps"):
                    rows = getattr(rmap, tables)[l][rmap.index[l]]
                    assert rows.tobytes() == getattr(whole, tables)[l][whole.index[l][sl]].tobytes()
            assert rmap.values.tobytes() == whole.values[sl].tobytes()
            assert rmap.logits.tobytes() == whole.logits[sl].tobytes()


def assert_kept_norms_are_row_norms(net, X):
    """Every chunk's kept norms, those it carried from the previous chunk
    and those it takes, are bitwise row_norms of its own tables, and its
    chunks share one dict of layer 1's.  Returns how many tables past
    layer 1 came with norms carried."""
    carried, w1_norms = 0, None
    for _, rmap in net_core.region_maps(net, X):
        w1_norms = rmap.norms[0] if w1_norms is None else w1_norms
        assert rmap.norms[0] is w1_norms
        for l, v in enumerate(rmap.v_maps):
            carried += l > 0 and bool(rmap.norms[l])
            for q, norms in rmap.norms[l].items():
                assert norms.tobytes() == net_core.row_norms(v, q).tobytes(), (l, q)
            # taken before the next chunk is built, which then carries them
            for q in certify._DUALS:
                assert rmap.table_norms(l, q).tobytes() == net_core.row_norms(v, q).tobytes()
                assert rmap.table_norms(l, q) is rmap.norms[l][q]
    return carried


@pytest.mark.parametrize("name,net", NETS, ids=[n for n, _ in NETS])
def test_kept_norms_are_the_tables_row_norms(monkeypatch, name, net):
    # two points alternating first: a chunk of R = 4 points in two regions,
    # whose rows the next chunk carries, then points of many regions
    X, _ = points(net, 60, seed=len(name) + 500)
    X = np.vstack([np.tile(X[:2], (6, 1)), X])
    monkeypatch.setattr(net_core, "CHUNK_BYTES", 4 * region_bytes(net))
    assert assert_kept_norms_are_row_norms(net, X) > 0


def test_kept_norms_of_the_big_batches_are_the_tables_row_norms():
    for kind, (net, X) in big_batches(300).items():
        carried = assert_kept_norms_are_row_norms(net, X)
        assert (carried > 0) == (kind != "distinct"), kind


def counted_carries(monkeypatch):
    """A list that receives how many rows each _carried_rows call carries."""
    counts = []

    def counted(*args):
        old = carried_rows(*args)
        counts.append(int((old >= 0).sum()))
        return old

    carried_rows = net_core._carried_rows
    monkeypatch.setattr(net_core, "_carried_rows", counted)
    return counts


def assert_first_points(net, X):
    """In every chunk, first[l] holds each row of layer l's tables' smallest
    point index, in increasing order, so that index[l][first[l]] numbers
    the rows."""
    for _, rmap in net_core.region_maps(net, X):
        assert len(rmap.first) == len(rmap.index) == len(net.weights)
        for l, (index, first) in enumerate(zip(rmap.index, rmap.first)):
            rows = len(rmap.v_maps[l])
            assert np.array_equal(index[first], np.arange(rows)), l
            assert (np.diff(first) > 0).all(), l
            assert first.tolist() == [np.flatnonzero(index == r)[0] for r in range(rows)], l


@pytest.mark.parametrize("name,net", NETS, ids=[n for n, _ in NETS])
def test_first_points_of_the_table_rows(monkeypatch, name, net):
    # the chunks of test_kept_norms_are_the_tables_row_norms: one of two
    # regions, whose rows the next chunk carries, then points of many regions
    X, _ = points(net, 60, seed=len(name) + 500)
    X = np.vstack([np.tile(X[:2], (6, 1)), X])
    monkeypatch.setattr(net_core, "CHUNK_BYTES", 4 * region_bytes(net))
    carried = counted_carries(monkeypatch)
    assert_first_points(net, X)
    assert sum(carried) > 0


def test_first_points_of_the_big_batches(monkeypatch):
    carried = counted_carries(monkeypatch)
    for kind, (net, X) in big_batches(300).items():
        carried.clear()
        assert_first_points(net, X)
        assert (sum(carried) > 0) == (kind != "distinct"), kind


def test_region_prefix_of_no_points(monkeypatch):
    # no point to group at any layer: the loop never calls _first_seen
    net = random_net([3, 7, 5, 4], seed=1, bias_scale=0.4)
    monkeypatch.setattr(net_core, "_first_seen", None)
    rmap = net_core._region_prefix(net, np.empty((0, 3)), 4)
    assert rmap.values.shape == (0, 12) and rmap.logits.shape == (0, 4)
    assert rmap.v_maps[0].tobytes() == net.weights[0].tobytes() and len(rmap.v_maps[0]) == 1
    assert rmap.a_maps[0].tobytes() == net.biases[0].tobytes()
    assert [v.shape for v in rmap.v_maps[1:]] == [(0, 5, 3), (0, 4, 3)]
    assert all(len(i) == len(f) == 0 for i, f in zip(rmap.index, rmap.first))


def test_input_dimension_784_chunks_certify_as_the_whole_batch(monkeypatch):
    # a 784-64-10 net: R = CHUNK_BYTES / (8 * 784 * 10) = 4 regions a chunk,
    # since W1's rows are not priced, and the output layer's step masks W.
    # The first chunk is one point four times over, so the second follows a
    # one-region chunk and copies its row; it then ends at 4 of 8 points
    net = random_net([784, 64, 10], seed=2, bias_scale=0.05)
    assert net_core._region_cap(net) == 4
    rng = np.random.default_rng(12)
    X = rng.uniform(0.0, 1.0, (6, 784))[[0, 0, 0, 0, 1, 0, 2, 2, 3, 1, 4, 5]]
    y = rng.integers(1, 11, len(X))
    maps = list(net_core.region_maps(net, X))
    assert [len(rmap.v_maps[-1]) for _, rmap in maps] == [1, 3, 4]
    certs = certify.certificates(net, X, y)
    whole = ref.region_map(net, X)
    monkeypatch.setattr(net_core, "region_maps", lambda *_: iter([(slice(0, len(X)), whole)]))
    want = certify.certificates(net, X, y)
    for key in ("predicted", "correct", "rho1", "rho_inf", "single_l2", "region"):
        assert getattr(certs, key).tobytes() == getattr(want, key).tobytes(), key
    assert certs.universal_bound(2.0).tobytes() == want.universal_bound(2.0).tobytes()
    assert_certificates_match(certs, reference_certificates(net, X, y))


@pytest.mark.parametrize("batch", [3, 4, 5])
def test_batches_around_the_chunk_size(monkeypatch, batch):
    # chunks of R = 4 regions: CHUNK_BYTES prices four regions' own tables
    batches = big_batches(8 + batch)
    net, X = batches["distinct"]
    monkeypatch.setattr(net_core, "CHUNK_BYTES", 4 * region_bytes(net))
    most = 4 * (net_core.CHUNK_BYTES // (8 * net.num_hidden_units) // 4)
    assert net_core._region_cap(net) == 4 and most == 32
    X = X[:batch]
    assert chunk_sizes(net, X) == rule_sizes(range(batch), 4, most)
    assert chunk_sizes(net, X) == {3: [3], 4: [4], 5: [4, 1]}[batch]
    net, Z = batches["shared"]
    assert chunk_sizes(net, Z) == rule_sizes([0] * len(Z), 4, most)
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
    # whole batch (distinct points make chunks of R = 7 points, so 200 of
    # them already span 29 chunks)
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


@pytest.mark.parametrize("name,net", NETS, ids=[n for n, _ in NETS])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_classify_batch_is_the_argmax_of_forward_batch(name, net, dtype):
    # the logits of forward_batch, bit for bit: classes agree at every point,
    # at the logit-ties net's tied classes too, in float64 and float32
    net = net.astype(dtype)
    X, _ = points(net, 300, seed=len(name))
    logits, _ = net_core.forward_batch(net, X)
    assert np.array_equal(net_core.classify_batch(net, X), np.argmax(logits, axis=1) + 1)


@pytest.mark.parametrize("sizes", [[16, 256, 256, 2], [16, 64, 512, 10], [64, 300, 3]])
def test_classify_batch_holds_two_layers_of_activations(sizes):
    # no list of preactivations: the transient is at most the (B, n) arrays
    # of two layers at the widest, the logits and the (B,) classes
    B = 2000
    net = random_net(sizes, seed=1, bias_scale=0.3)
    X = np.random.default_rng(2).uniform(0.0, 1.0, size=(B, sizes[0]))
    tracemalloc.start()
    net_core.classify_batch(net, X)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 8 * B * (2 * max(sizes[1:-1]) + sizes[-1] + 2) + 4096, peak


# -- a point's region as affine maps -----------------------------------------------


def stacked_rows(rmap):
    """(B, N, d + 1): each point's unsigned hidden rows [h, c] in one
    per-point stack of every layer's gathered table rows, the reference that
    RegionMap.affine_region is checked against."""
    out = np.empty(rmap.values.shape + (rmap.v_maps[-1].shape[2] + 1,))
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
    rmap = ref.region_map(net, X)
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
        sign = np.where(np.concatenate([m[i] for m in ref.masks_of(rmap)]), 1.0, -1.0)[:, None]
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
    rmap = ref.region_map(net, x0[None])
    sign = np.where(np.concatenate(ref.masks_of(rmap), axis=1)[0], 1.0, -1.0)[:, None]
    assert hidden.tobytes() == (sign * stacked_rows(rmap)[0]).astype(np.float32).tobytes()
    want = np.column_stack([rmap.v_maps[-1][0], rmap.a_maps[-1][0]]).astype(np.float32)
    assert output.tobytes() == want.tobytes()
    assert anchors.tobytes() == X.tobytes() and radius == math.inf


# the tiny nets whose attacks take the region path
PAYING = [(name, net) for name, net in NETS[:len(TINY_ARCHS)] if attacks._region_pays(net)]


@pytest.mark.parametrize("name,net", PAYING, ids=[n for n, _ in PAYING])
def test_anchor_region_is_the_region_of_most_distinct_anchors(name, net):
    # a lone anchor comes first and four times over; three distinct anchors
    # share another region.  A duplicate counts once, so that region holds
    # the most, and its map is the whole-batch reference's at the first of
    # the three, bitwise in float32
    rng = np.random.default_rng(len(name))
    Z = rng.uniform(0.2, 0.8, (200, 2))
    keys = np.concatenate(net_core.forward_batch(net, Z)[1], axis=1) > 0
    lone = Z[0]
    trio = Z[np.flatnonzero((keys != keys[0]).any(axis=1))[0]] + 1e-9 * np.arange(3)[:, None]
    keys = np.concatenate(net_core.forward_batch(net, trio)[1], axis=1) > 0
    assert (keys == keys[0]).all()
    X = np.vstack([lone, trio[0], lone, trio[1], lone, trio[2], lone])
    hidden, output, anchors, radius = attacks._anchor_region(net, X)
    want_hidden, want_output = ref.region_map(net, trio[:1]).affine_region(0)
    assert hidden.tobytes() == want_hidden.astype(np.float32).tobytes()
    assert output.tobytes() == want_output.astype(np.float32).tobytes()
    assert anchors.tobytes() == np.vstack([lone, trio]).tobytes() and radius == math.inf


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


# the one check of a labelled batch, net_core._labelled_batch, at every
# entry point that takes one; Dataset refuses features that are not finite,
# so the sets are SimpleNamespaces
PLAIN = MmrUniversalConfig(lambda1=0.0, lambda_inf=0.0)
EPS = (0.1, 0.05, 0.02)


def labelled_entry_points(net, X, y):
    """Each public function that takes a labelled batch, called on (X, y)."""
    data = SimpleNamespace(features=X, labels=np.asarray(y))
    none = (np.zeros(len(X), dtype=bool), np.full(len(X), math.inf), np.zeros_like(X))
    return {
        "certificates": lambda: certify.certificates(net, X, y),
        "loss": lambda: mmr_train.loss(net, (X, y), PLAIN),
        "loss_gradient": lambda: mmr_train.loss_gradient(net, (X, y), PLAIN),
        "attack_norms": lambda: attacks.attack_norms(net, data, EPS, iterations=2, restarts=1),
        "lower_bounds": lambda: attacks.lower_bounds(net, data, {"l1": none}),
    }


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("entry", ["loss", "loss_gradient", "attack_norms", "lower_bounds"])
def test_labelled_batch_refuses_a_row_that_is_not_finite(entry, bad):
    # without the lambdas the loss takes no region map: it returned nan; the
    # attack reported the row as not broken, and lower_bounds counted it as
    # class 1
    net = random_net([2, 8, 2], bias_scale=0.3)
    X = np.array([[0.5, 0.5], [0.2, 0.4], [bad, 0.9]])
    with pytest.raises(ValueError, match="^row 2 of the batch is not finite$"):
        labelled_entry_points(net, X, [1, 2, 1])[entry]()


@pytest.mark.parametrize("entry", ["certificates", "loss", "attack_norms"])
def test_labelled_batch_refuses_a_length_mismatch(entry):
    net = random_net([2, 8, 2], bias_scale=0.3)
    X = np.array([[0.5, 0.5], [0.2, 0.4], [0.1, 0.9]])
    with pytest.raises(ValueError, match="^3 points but 2 labels$"):
        labelled_entry_points(net, X, [1, 2])[entry]()
    with pytest.raises(ValueError, match=r"^labels have shape \(3, 1\), expected \(3,\)$"):
        labelled_entry_points(net, X, [[1], [2], [1]])[entry]()


@pytest.mark.parametrize("which", ["training", "evaluation"])
def test_train_refuses_a_row_that_is_not_finite_before_any_step(monkeypatch, which):
    # the row lies past the CERT_SAMPLE points that each epoch certifies:
    # training ran and recorded a test error that counted it as class 1
    net = random_net([2, 6, 2], seed=0, bias_scale=0.3)
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, (200, 2))
    y = net_core.classify_batch(net, X)
    bad = X.copy()
    bad[150, 1] = math.nan
    assert mmr_train.CERT_SAMPLE < 150
    good, broken = SimpleNamespace(features=X, labels=y), SimpleNamespace(features=bad, labels=y)
    steps = []
    monkeypatch.setattr(mmr_train, "_loss_and_grad", lambda *a: steps.append(a))
    data, eval_data = (broken, None) if which == "training" else (good, broken)
    with pytest.raises(ValueError, match="^row 150 of the batch is not finite$"):
        mmr_train.train(net, data, CFG, mmr_train.TrainConfig(epochs=10),
                        eval_dataset=eval_data)
    assert steps == []
