import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog, minimize

from relucert import attacks, certify, datasets, geometry, mmr_train, net_core, regions
from relucert.certify import EpsTriple, exact_robustness_oracle
from relucert.net_core import ReluNet, random_net

from conftest import BIASES, TINY_ARCHS, hand_net, hyperplane_distances, tiny_net
from per_point_reference import region_map


def ub_union(net, X, y, eps):
    """Union robust-error upper bound of the points X with labels y."""
    return certify.bounds(certify.certificates(net, np.asarray(X, dtype=float), y),
                          eps)["union"]


def single_norm_radii(net, X, y):
    """The single-norm l1, l2 and linf bounds of each row of X, by norm
    order: rho1, single_l2 and rho_inf of its certificate."""
    certs = certify.certificates(net, np.asarray(X, dtype=float), y)
    return {1.0: certs.rho1, 2.0: certs.single_l2, math.inf: certs.rho_inf}


def hyperplane_distance_lp(v, a, x, p):
    """Independent oracle: min ||z - x||_p s.t. v.z + a = 0.

    Linear programs for p in {1, inf}; SLSQP on the smooth objective for
    finite p > 1.
    """
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    d = len(x)
    u = float(v @ x + a)
    if not np.any(v):
        return math.inf
    if p == 1.0:
        # variables (delta, t): min sum t, |delta| <= t, v.delta = -u
        c = np.concatenate([np.zeros(d), np.ones(d)])
        a_ub = np.block([[np.eye(d), -np.eye(d)], [-np.eye(d), -np.eye(d)]])
        b_ub = np.zeros(2 * d)
        a_eq = np.concatenate([v, np.zeros(d)])[None, :]
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[-u],
                      bounds=[(None, None)] * d + [(0, None)] * d, method="highs")
        assert res.status == 0
        return res.fun
    if math.isinf(p):
        # variables (delta, s): min s, |delta_i| <= s
        c = np.concatenate([np.zeros(d), [1.0]])
        a_ub = np.block([[np.eye(d), -np.ones((d, 1))],
                         [-np.eye(d), -np.ones((d, 1))]])
        b_ub = np.zeros(2 * d)
        a_eq = np.concatenate([v, [0.0]])[None, :]
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[-u],
                      bounds=[(None, None)] * d + [(0, None)], method="highs")
        assert res.status == 0
        return res.fun
    res = minimize(
        lambda dlt: (np.abs(dlt) ** p).sum(),
        x0=-u * v / (v @ v),
        constraints=[{"type": "eq", "fun": lambda dlt: v @ dlt + u}],
        method="SLSQP", options={"ftol": 1e-14, "maxiter": 400},
    )
    assert res.success
    return res.fun ** (1.0 / p)


def test_distance_profile_linear_two_class():
    net = ReluNet((np.array([[1.0, 0.0], [0.0, 0.0]]),), (np.zeros(2),))
    radii = single_norm_radii(net, [[1.0, 0.0]], [1])
    certs = certify.certificates(net, np.array([[1.0, 0.0]]), [1])
    for p in (1.0, 1.5, 2.0, math.inf):
        boundary, decision = hyperplane_distances(net, [1.0, 0.0], 1, p)
        assert boundary.size == 0
        assert decision == pytest.approx([1.0])
        if p in radii:
            assert radii[p] == pytest.approx([1.0])
        # rho1 = rho_inf = 1: the hull of the two unit balls is the l1 ball
        assert certs.universal_bound(p) == pytest.approx([1.0])


def test_distance_profile_hand_value():
    net = ReluNet((np.array([[3.0, 4.0]]), np.array([[1.0], [0.0]])),
                  (np.zeros(1), np.zeros(2)))
    boundary, _ = hyperplane_distances(net, [1.0, 0.0], 1, 2.0)
    assert boundary == pytest.approx([3.0 / 5.0])


def test_distance_profile_against_lp_oracle():
    rng = np.random.default_rng(42)
    for seed in range(4):
        net = random_net([2, 6, 3], seed=seed, bias_scale=0.4)
        x = rng.uniform(0, 1, size=2)
        hidden, _ = region_map(net, x[None, :]).affine_region(0)
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            boundary, _ = hyperplane_distances(net, x, 1, p)
            for i in range(net.num_hidden_units):
                ref = hyperplane_distance_lp(hidden[i, :-1], hidden[i, -1], x, p)
                if math.isinf(ref):
                    assert math.isinf(boundary[i])
                else:
                    assert boundary[i] == pytest.approx(ref, rel=1e-6)


def test_distance_profile_signed_decision():
    net = ReluNet((np.array([[10.0, 3.0], [0.0, 0.0]]),), (np.array([-6.5, 0.0]),))
    x = np.array([0.3, 0.3])  # logits (-2.6, 0): class 2 wins
    assert hyperplane_distances(net, x, 1, 2.0)[1].min() < 0
    assert hyperplane_distances(net, x, 2, 2.0)[1].min() > 0


def test_min_decision_sign_tracks_misclassification():
    rng = np.random.default_rng(27)
    checked = 0
    for seed in range(6):
        net = tiny_net(seed)
        for _ in range(30):
            x = rng.uniform(0, 1, size=2)
            label = int(rng.integers(1, net.num_classes + 1))
            md = hyperplane_distances(net, x, label, 2.0)[1].min()
            if abs(md) < 1e-9:
                continue  # exact ties are the only excluded case
            assert (md < 0) == (net_core.classify_batch(net, x[None, :])[0] != label)
            checked += 1
    assert checked > 150


def test_zero_normal_gives_infinite_distance():
    # first hidden unit has a zero incoming row: constant unit, never crossed
    net = ReluNet((np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[1.0, 1.0], [0.0, 0.0]])),
                  (np.array([1.0, 0.0]), np.zeros(2)))
    boundary, _ = hyperplane_distances(net, [0.5, 0.2], 1, 2.0)
    assert math.isinf(boundary[0])
    assert np.isfinite(boundary[1])


def zero_normal_net(hidden, seed=0):
    """Net on d = 3 whose hidden layers each have a unit with a zero weight
    row and zero bias (preactivation 0: gap 0 over norm 0) and one with a
    zero row and a negative bias (never active: a finite gap over norm 0)."""
    rng = np.random.default_rng(seed)
    sizes = [3] + list(hidden) + [3]
    weights = [rng.standard_normal((n, m)) / np.sqrt(m) for m, n in zip(sizes[:-1], sizes[1:])]
    biases = [rng.uniform(-0.3, 0.3, n) for n in sizes[1:]]
    for w, b in zip(weights[:-1], biases[:-1]):
        w[:2] = 0.0
        b[:2] = (0.0, -0.4)
    return ReluNet(tuple(weights), tuple(biases))


@pytest.mark.parametrize("hidden", [[7], [7, 6]], ids=["one-hidden", "two-hidden"])
def test_zero_normals_certify_without_nan(hidden):
    # the constant units' distances are infinite, never 0 / 0: the radii are
    # the nearest of the other hyperplanes, as the one-point helper gives them
    net = zero_normal_net(hidden)
    rng = np.random.default_rng(1)
    X = rng.uniform(0.0, 1.0, (50, 3))
    y = net_core.classify_batch(net, X)
    y[::4] = y[::4] % 3 + 1
    with np.errstate(all="raise"):
        certs = certify.certificates(net, X, y)
        radii = certs.radii()
    for value in (certs.rho1, certs.rho_inf, certs.universal_bound(2.0), certs.single_l2,
                  *radii.values()):
        assert not np.isnan(value).any()
    assert 0 < certs.correct.sum() < len(X)
    zero = [pos + k for pos in np.cumsum([0] + hidden[:-1]) for k in (0, 1)]
    for i, x in enumerate(X):
        nearest = {}
        for p in (1.0, 2.0, math.inf):
            boundary, decision = hyperplane_distances(net, x, int(y[i]), p)
            assert np.isinf(boundary[zero]).all() and (boundary[zero] > 0).all()
            nearest[p] = min(boundary.min(), abs(decision).min())
        for p, rho in ((1.0, certs.rho1), (2.0, certs.single_l2), (math.inf, certs.rho_inf)):
            assert rho[i] == (nearest[p] if certs.correct[i] else 0.0)
    cfg = mmr_train.MmrUniversalConfig(lambda1=0.9, lambda_inf=2.5, gamma1=0.8, gamma_inf=0.15)
    with np.errstate(over="raise", invalid="raise"):
        grads = mmr_train.loss_gradient(net, (X, y), cfg, kb_now=4)
    assert all(np.isfinite(g).all() for g in grads[0] + grads[1])


def test_norm_monotonicity_per_hyperplane():
    rng = np.random.default_rng(3)
    for seed in range(5):
        net = tiny_net(seed)
        x = rng.uniform(0, 1, size=2)
        d1, d2, dinf = (hyperplane_distances(net, x, 1, p)[0] for p in (1.0, 2.0, math.inf))
        assert (dinf <= d2 + 1e-12).all()
        assert (d2 <= d1 + 1e-12).all()


def test_certify_single_norm_misclassified_is_zero():
    net = ReluNet((np.array([[10.0, 3.0], [0.0, 0.0]]),), (np.array([-6.5, 0.0]),))
    for radius in single_norm_radii(net, [[0.3, 0.3]], [1]).values():
        assert radius[0] == 0.0


def test_certify_single_norm_linear_exact():
    net = ReluNet((np.array([[10.0, 3.0], [0.0, 0.0]]),), (np.array([-6.5, 0.0]),))
    x = np.array([0.53, 0.50])
    for p, cert in single_norm_radii(net, x[None, :], [1]).items():
        oracle = exact_robustness_oracle(net, x, 1, p)
        assert cert[0] == pytest.approx(oracle.value, abs=1e-9)


def test_scale_covariance_of_certificates():
    rng = np.random.default_rng(8)
    net = tiny_net(3)
    ws = [w.copy() for w in net.weights]
    bs = [b.copy() for b in net.biases]
    ws[-1] = 7.5 * ws[-1]
    bs[-1] = 7.5 * bs[-1]
    scaled = ReluNet(tuple(ws), tuple(bs))
    X = rng.uniform(0, 1, size=(20, 2))
    ones = np.ones(len(X), dtype=np.int64)
    a, b = single_norm_radii(net, X, ones), single_norm_radii(scaled, X, ones)
    for p in (1.0, 2.0, math.inf):
        assert a[p] == pytest.approx(b[p], abs=1e-9)
    assert certify.certificates(net, X, ones).universal_bound(2.0) == pytest.approx(
        certify.certificates(scaled, X, ones).universal_bound(2.0), abs=1e-9)


def test_certify_universal_reference_value():
    # rho1 = 1, rho_inf = 0.1 gives the familiar 0.3162 radius at p = 2
    assert geometry.hull_min_norm(1.0, 0.1, 2.0) == pytest.approx(0.316228, abs=1e-6)
    # integer ratio: rho1 = k * rho_inf collapses to rho1 / k^(1/2)
    for k in (2, 3, 5):
        assert geometry.hull_min_norm(1.0, 1.0 / k, 2.0) == pytest.approx(
            1.0 / math.sqrt(k), abs=1e-12)


def test_certify_universal_vs_union_substitution():
    rng = np.random.default_rng(14)
    checked = 0
    for seed in range(6):
        net = tiny_net(seed)
        X = rng.uniform(0, 1, size=(30, 2))
        certs = certify.certificates(net, X, net_core.classify_batch(net, X))
        universal = certs.universal_bound(2.0)
        for i in range(len(X)):
            rho1, rho_inf = certs.rho1[i], certs.rho_inf[i]
            if not certs.correct[i] or rho_inf <= 0 or not math.isfinite(rho1):
                continue
            union = geometry.union_min_norm(rho1, rho_inf, 2, 2.0)
            assert universal[i] >= union - 1e-12
            checked += 1
    assert checked > 100


def test_universal_bound_function_limits():
    net = tiny_net(1)
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 1, size=(1, 2))
    certs = certify.certificates(net, X, net_core.classify_batch(net, X))
    if certs.correct[0] and certs.rho_inf[0] > 0:
        assert certs.universal_bound(1.0) == pytest.approx(certs.rho1, rel=1e-12)
        assert certs.universal_bound(math.inf) == pytest.approx(certs.rho_inf, rel=1e-12)
        assert certs.universal_bound(2.0) == pytest.approx(
            geometry.hull_min_norm(certs.rho1, certs.rho_inf, 2.0), rel=1e-12)


def test_oracle_two_unit_hand_enumeration():
    # f1 = relu(x1 - 1) + relu(x2 - 1), f2 = 0.5, x = (2, 2).
    # Four activation regions; the class-change set {f2 >= f1} is closest at
    # the segment x1 + x2 = 2.5 (both units active), giving r_1 = 1.5,
    # r_2 = 1.5/sqrt(2), r_inf = 0.75.
    net = hand_net()
    x = np.array([2.0, 2.0])
    expected = {1.0: 1.5, 2.0: 1.0606601717798212, math.inf: 0.75}
    for p, ref in expected.items():
        res = exact_robustness_oracle(net, x, 1, p)
        assert res.exact
        assert res.num_regions == 4
        assert res.value == pytest.approx(ref, abs=1e-9)
    # the certified bound stays below the true radius
    certs = certify.certificates(net, x[None, :], [1])
    assert certs.single_l2[0] == pytest.approx(1.0)
    assert certs.universal_bound(2.0)[0] <= expected[2.0] + 1e-9


def test_oracle_refuses_a_box_over_the_region_cap(monkeypatch):
    # the hand net has 4 regions: a cap of 3 cannot map them, so the oracle
    # refuses, and a second call refuses from the cached incomplete atlas
    # without mapping again
    net, x = hand_net(), np.array([2.0, 2.0])
    monkeypatch.setattr(regions, "MAX_REGIONS", 3)
    with pytest.raises(ValueError, match="MAX_REGIONS = 3"):
        exact_robustness_oracle(net, x, 1, 2.0)
    atlas = certify._ORACLE_CACHE[net]
    assert not atlas.complete and atlas.regions == []
    monkeypatch.setattr(regions, "RegionAtlas",
                        lambda net: pytest.fail("the atlas was built again"))
    with pytest.raises(ValueError, match="MAX_REGIONS = 3"):
        exact_robustness_oracle(net, x, 1, 2.0)
    assert certify._ORACLE_CACHE[net] is atlas
    monkeypatch.undo()
    monkeypatch.setattr(regions, "MAX_REGIONS", 4)
    full = exact_robustness_oracle(hand_net(), x, 1, 2.0)
    assert full.exact and full.num_regions == 4


@pytest.mark.parametrize("correct", [True, False])
def test_oracle_refuses_inputs_that_are_not_2d(correct):
    net = random_net([3, 6, 2], seed=2, bias_scale=0.5)
    x = np.array([0.2, 0.5, 0.7])
    label = net_core.classify_batch(net, x[None, :])[0]
    if not correct:
        label = 3 - label
    with pytest.raises(ValueError, match="2-D inputs only, got d = 3"):
        exact_robustness_oracle(net, x, label, 2.0)
    assert net not in certify._ORACLE_CACHE


@pytest.mark.parametrize("label", [0, 3, 5])
def test_oracle_rejects_label_out_of_range(label):
    net = hand_net()
    with pytest.raises(ValueError, match="out of range"):
        exact_robustness_oracle(net, [2.0, 2.0], label, 2.0)


@pytest.mark.parametrize("x", [[math.nan, 2.0], [2.0, math.inf], [2.0, 2.0, 2.0]])
def test_oracle_rejects_bad_input(x):
    net = hand_net()
    with pytest.raises(ValueError):
        exact_robustness_oracle(net, x, 1, 2.0)


def test_oracle_zero_for_misclassified():
    net = ReluNet((np.array([[10.0, 3.0], [0.0, 0.0]]),), (np.array([-6.5, 0.0]),))
    res = exact_robustness_oracle(net, [0.3, 0.3], 1, 2.0)
    assert res.value == 0.0 and res.exact


def test_certificates_below_oracle_spot_check():
    rng = np.random.default_rng(20)
    for seed in range(4):
        net = tiny_net(seed + 10)
        X = rng.uniform(0, 1, size=(10, 2))
        labels = net_core.classify_batch(net, X)
        radii = single_norm_radii(net, X, labels)
        universal = certify.certificates(net, X, labels).universal_bound(2.0)
        for i, (x, label) in enumerate(zip(X, labels)):
            for p, cert in radii.items():
                res = exact_robustness_oracle(net, x, label, p)
                assert cert[i] <= res.value + 1e-9
            assert universal[i] <= exact_robustness_oracle(net, x, label, 2.0).value + 1e-9


def test_universal_bound_below_oracle_between_the_exact_norms(trained_pairs):
    # the all-p certificate at p outside {1, 2, inf}, where the oracle takes
    # its distances to the decision edges by ternary search, on a
    # regularized blobs model; slack as in the p = 2 comparisons.  At
    # p = 1000 the oracle lies between its linf value and 2^(1/1000) times
    # it, as every 2-D lp-norm does, with no power overflowing or
    # underflowing on the way
    run = trained_pairs["runs"][0]
    net, sub = run["mmr"], run["test"].head(20)
    certs = certify.certificates(net, sub.features, sub.labels)
    positive = 0
    for p in (1.5, 3.0, 1000.0):
        bounds = certs.universal_bound(p)
        for i in range(sub.count):
            x, label = sub.features[i], int(sub.labels[i])
            res = exact_robustness_oracle(net, x, label, p)
            assert res.exact
            assert bounds[i] <= res.value + 1e-9, (i, p)
            positive += bounds[i] > 0
            if p == 1000.0:
                linf = exact_robustness_oracle(net, x, label, math.inf).value
                assert linf <= res.value <= linf * 2 ** (1 / p) * (1 + 1e-12), i
    assert positive > 45


def test_segment_distance_ternary_search_against_a_grid():
    # min over t of ||x - (a + t (b - a))||_p at p outside {1, 2, inf}: a
    # dense t-grid, refined around its best point, is at most a hair above
    # the search and never below it beyond the rounding of the norm
    rng = np.random.default_rng(31)

    def grid_min(x, a, b, p):
        def f(t):
            return certify.row_norms(x - (a + t[:, None] * (b - a)), p)
        t = np.linspace(0.0, 1.0, 2001)
        i = int(np.argmin(f(t)))
        return f(np.linspace(t[max(i - 1, 0)], t[min(i + 1, 2000)], 2001)).min()

    for d in (2, 5):
        for p in (1.5, 3.0, 1000.0):
            x = rng.uniform(-1.0, 1.0, d)
            for a, b in rng.uniform(-2.0, 2.0, size=(50, 2, d)):
                got = certify._min_lp_to_segments(x, a[None], b[None], p)
                want = grid_min(x, a, b, p)
                assert want * (1 - 1e-8) <= got <= want * (1 + 1e-12), (d, p, a, b)


@settings(max_examples=25, deadline=None)
@given(arch=st.sampled_from(TINY_ARCHS), seed=st.integers(0, 2**31 - 1), bias=BIASES)
def test_certificates_never_exceed_oracle(arch, seed, bias):
    # points at least 5 from the edge of the oracle's box [-8, 9]^2
    net = random_net(arch, seed=seed, bias_scale=bias)
    X = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(4, 2))
    labels = net_core.classify_batch(net, X)
    certs = certify.certificates(net, X, labels)
    for i, (x, label) in enumerate(zip(X, labels)):
        margin = min(float((x + 8.0).min()), float((9.0 - x).min()))
        lbs = {1.0: certs.rho1[i], 2.0: max(certs.universal_bound(2.0)[i], certs.single_l2[i]),
               math.inf: certs.rho_inf[i]}
        for p, lb in lbs.items():
            res = exact_robustness_oracle(net, x, int(label), p)
            # the atlas is complete, so only the box margin can make it inexact
            assert res.exact == (res.value < 0.9 * margin)
            if res.exact:
                assert lb <= res.value * (1 + 1e-9)


def test_robust_error_upper_bound_edges():
    # one misclassified point -> 1.0
    net = ReluNet((np.array([[10.0, 3.0], [0.0, 0.0]]),), (np.array([-6.5, 0.0]),))
    assert ub_union(net, [[0.3, 0.3]], [1], EpsTriple(0.01, 0.01, 0.01)) == 1.0
    # linear classifier with margins 10x the radii -> 0.0
    x = np.array([0.53, 0.50])
    margins = {p: hyperplane_distances(net, x, 1, p)[1].min()
               for p in (1.0, 2.0, math.inf)}
    eps = EpsTriple(margins[1.0] / 10, margins[2.0] / 10, margins[math.inf] / 10)
    assert ub_union(net, [x], [1], eps) == 0.0
    with pytest.raises(ValueError):
        ub_union(net, np.zeros((0, 2)), [], eps)


def test_bounds_take_the_single_norm_l2_certificate():
    # hand-built: point 0 reaches eps2 through its single-norm l2 bound
    one = np.ones(2)
    certs = certify.Certificates(
        label=np.array([1, 1]), predicted=np.array([1, 1]), correct=np.array([True, True]),
        rho1=one, rho_inf=0.05 * one, single_l2=np.array([0.5, 0.1]), region=np.array([0, 0]))
    assert (certs.universal_bound(2.0) < 0.3).all()  # the hull bound certifies neither
    assert certify.bounds(certs, EpsTriple(0.5, 0.3, 0.025)) == {
        "l1": 0.0, "l2": 0.5, "linf": 0.0, "union": 0.5}
    # a linear net in d = 3, where the single-norm l2 bound beats the hull bound
    net = ReluNet((np.array([[1.0, 1.0, 3.0], [0.0, 0.0, 0.0]]),), (np.array([-2.2, 0.0]),))
    x = np.full(3, 0.5)
    c = certify.certificates(net, x[None, :], [1])
    hull = c.universal_bound(2.0)[0]
    eps2 = 0.5 * (hull + c.single_l2[0])
    assert c.single_l2[0] >= eps2 > hull
    eps = EpsTriple(0.5 * c.rho1[0], eps2, 0.5 * c.rho_inf[0])
    assert certify.bounds(c, eps) == {"l1": 0.0, "l2": 0.0, "linf": 0.0, "union": 0.0}
    # in float64 universal_bound(2) can round one ulp above single_l2: an
    # eps2 between the two is not certified in l2
    fields = dict(label=np.array([1]), predicted=np.array([1]), correct=np.array([True]),
                  rho1=np.array([0.3]), rho_inf=np.array([0.1]), region=np.array([0]))
    up = certify.Certificates(single_l2=np.zeros(1), **fields).universal_bound(2.0)[0]
    certs = certify.Certificates(single_l2=np.array([np.nextafter(up, 0.0)]), **fields)
    assert certs.universal_bound(2.0)[0] == up > certs.single_l2[0]
    assert certs.radii()["l2"].tobytes() == certs.single_l2.tobytes()
    assert certify.bounds(certs, EpsTriple(0.3, up, 0.1)) == {
        "l1": 0.0, "l2": 1.0, "linf": 0.0, "union": 1.0}


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("position", range(3))
def test_bounds_reject_radii_that_are_not_finite_and_nonnegative(position, bad):
    # a negative radius would certify every point, a nan one none
    certs = certify.certificates(tiny_net(0), np.array([[0.4, 0.6]]), [1])
    eps = [0.1, 0.1, 0.1]
    eps[position] = bad
    with pytest.raises(ValueError, match=f"{EpsTriple._fields[position]} must be finite"):
        certify.bounds(certs, eps)


@pytest.mark.parametrize("eps", [(0.1, 0.05), (0.1, 0.05, 0.02, 0.3)])
def test_eps_is_read_as_one_triple(eps):
    # a pair made attack_norms name an unknown norm 'linf' and a fourth
    # entry was dropped there; bounds raised a TypeError for both
    net = tiny_net(0)
    X = np.array([[0.4, 0.6], [0.2, 0.3]])
    y = net_core.classify_batch(net, X)
    certs = certify.certificates(net, X, y)
    data = datasets.Dataset(X, y, net.num_classes)
    message = rf"^eps must be \(eps1, eps2, eps_inf\), got {len(eps)} values$"
    with pytest.raises(ValueError, match=message):
        certify.bounds(certs, eps)
    with pytest.raises(ValueError, match=message):
        attacks.attack_norms(net, data, eps, norms=("l1",), iterations=2, restarts=1)


def test_a_net_given_float32_arrays_certifies_as_its_float64_values():
    # a ReluNet is float64: one built from float32 arrays used to stay
    # float32 and build its region tables in float32, and certified some
    # decision-limited points above the robustness of its own parameters
    for s in range(3):
        net = random_net([16, 64, 64, 3], seed=s, bias_scale=0.3)
        weights = tuple(w.astype(np.float32) for w in net.weights)
        biases = tuple(b.astype(np.float32) for b in net.biases)
        single = ReluNet(weights, biases)
        double = ReluNet(tuple(w.astype(np.float64) for w in weights),
                         tuple(b.astype(np.float64) for b in biases))
        X = np.random.default_rng(s).uniform(0, 1, (300, 16))
        y = net_core.classify_batch(double, X)
        got, want = certify.certificates(single, X, y), certify.certificates(double, X, y)
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (s, field.name)


@pytest.mark.parametrize("shape", [
    (1000, 16), (4, 256, 16), (800, 2), (1000, 784), (255, 16), (256, 32), (300, 33),
    (1000, 1), (3, 2), (16,), (0, 16),
])
def test_max_norm_is_the_plain_max_at_every_shape(shape):
    # short last axes take a transposed reduction; max is exact, so every
    # shape gives bitwise the plain max, signed zeros, infinities and NaN too
    rng = np.random.default_rng(sum(shape))
    mat = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    flat = mat.reshape(-1)
    if flat.size >= 4:
        flat[:4] = [-0.0, math.inf, -math.inf, math.nan]
    out = certify.row_norms(mat, math.inf)
    assert out.shape == shape[:-1]
    assert out.tobytes() == np.abs(mat).max(axis=-1).tobytes()


def test_norm_at_a_large_order_is_neither_inf_nor_zero():
    # each row is scaled by its max before the power: at p = 300 an entry
    # above 10 would overflow unscaled, and entries below 1 underflow to 0
    mat = np.array([[12.0, 1.0], [0.01, -0.005], [0.0, -0.0], [-3.0, 4.0]])
    assert certify.row_norms(mat, 300.0).tolist() == [12.0, 0.01, 0.0, 4.0]
    assert certify.row_norms(mat[:, :, None], 300.0).tolist() == np.abs(mat).tolist()
    assert certify.row_norms(np.zeros((2, 0)), 300.0).tolist() == [0.0, 0.0]
    assert certify.row_norms(mat, 3.0) == pytest.approx((np.abs(mat) ** 3).sum(axis=1) ** (1 / 3))


def test_norm_order_below_one_rejected():
    net = tiny_net(0)
    x = np.array([0.4, 0.6])
    label = net_core.classify_batch(net, x[None, :])[0]
    with pytest.raises(ValueError, match="p >= 1"):
        exact_robustness_oracle(net, x, label, 0.5)
    # also on a batch where no point has a positive rho_inf, and so no
    # point takes the hull formula
    for y in ([label], [3 - label]):
        certs = certify.certificates(net, x[None, :], y)
        assert (certs.rho_inf > 0).tolist() == [y == [label]]
        with pytest.raises(ValueError, match="p >= 1"):
            certs.universal_bound(0.5)


def test_atlas_cache_drops_dead_nets():
    # only this test's net is followed: nets that other tests keep alive may
    # stay cached
    gc.collect()
    before = len(certify._ORACLE_CACHE)
    net = hand_net()
    exact_robustness_oracle(net, np.array([2.0, 2.0]), 1, 2.0)
    assert net in certify._ORACLE_CACHE
    assert len(certify._ORACLE_CACHE) == before + 1
    ref = weakref.ref(net)
    del net
    gc.collect()
    assert ref() is None
    assert len(certify._ORACLE_CACHE) == before


def test_one_class_net_certifies_every_radius_as_the_oracle_finds():
    # no input changes a one-class net's class: the exact oracle finds no
    # class-change set, and the region boundaries used to cap rho all the same
    net = random_net([2, 8, 1], seed=0)
    X = np.random.default_rng(3).uniform(0.0, 1.0, (20, 2))
    certs = certify.certificates(net, X, np.ones(20, dtype=np.int64))
    assert certs.correct.all()
    for name in ("rho1", "rho_inf", "single_l2"):
        assert np.isposinf(getattr(certs, name)).all(), name
    assert np.isposinf(certs.universal_bound(2.0)).all()
    radii = certs.radii()
    for i, x in enumerate(X[:4]):
        for name, p in (("l1", 1.0), ("l2", 2.0), ("linf", math.inf)):
            assert exact_robustness_oracle(net, x, 1, p).value == radii[name][i] == math.inf
    assert set(certify.bounds(certs, (0.5, 0.2, 0.1)).values()) == {0.0}
