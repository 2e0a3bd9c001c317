import functools
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from relucert import attacks, certify, net_core
from relucert.attacks import attack_norms, lower_bounds, overlap_table
from relucert.certify import EpsTriple
from relucert.datasets import Dataset
from relucert.net_core import ReluNet

from conftest import attack_one, cleared_net, hyperplane_distances, tiny_net

import per_point_reference


class _Points:
    def __init__(self, X, y):
        self.features = np.asarray(X, dtype=float)
        self.labels = np.asarray(y, dtype=np.int64)


def lp_norm(v, p):
    v = np.abs(np.asarray(v, dtype=float))
    if math.isinf(p):
        return v.max()
    if p == 1.0:
        return v.sum()
    return float(np.sqrt((v**2).sum()))


def margin_linear_net():
    # f1 - f2 = 10*x1 + 3*x2 - 6.5: boundary crosses the box interior
    return ReluNet((np.array([[10.0, 3.0], [0.0, 0.0]]),), (np.array([-6.5, 0.0]),))


def project(v, eps, p):
    """The attacks' projection of the one vector v onto the lp ball of
    radius eps."""
    return attacks._project_ball_rows(np.asarray(v, dtype=float)[None, :], eps, p)[0]


def l1_projection_qp(v, eps):
    """Independent oracle: SLSQP on the smooth split z = u - w, u, w >= 0.

    Several starting points guard against line-search failures; the best
    feasible solution is kept.
    """
    v = np.asarray(v, dtype=float)
    d = len(v)

    def obj(t):
        z = t[:d] - t[d:]
        return ((z - v) ** 2).sum()

    split = np.concatenate([np.maximum(v, 0), np.maximum(-v, 0)])
    best, best_val = None, math.inf
    for x0 in (split, 0.5 * split, np.zeros(2 * d)):
        res = minimize(
            obj, x0=x0, bounds=[(0, None)] * (2 * d),
            constraints=[{"type": "ineq", "fun": lambda t: eps - t.sum()}],
            method="SLSQP", options={"ftol": 1e-14, "maxiter": 500},
        )
        if res.x.sum() <= eps + 1e-9 and res.x.min() >= -1e-12:
            val = obj(res.x)
            if val < best_val:
                best, best_val = res.x, val
    assert best is not None
    return best[:d] - best[d:]


def test_projection_identity_inside_ball():
    v = np.array([0.4, -0.2, 0.1])
    for p in (1.0, 2.0, math.inf):
        assert np.array_equal(project(v, 5.0, p), v)


def test_projection_linf_clipping():
    assert np.allclose(project([2.0, -3.0], 1.0, math.inf), [1.0, -1.0])


def test_projection_l2_radial():
    v = np.array([3.0, 4.0])
    out = project(v, 1.0, 2.0)
    assert np.allclose(out, v / 5.0)


def test_projection_l1_matches_qp_oracle():
    rng = np.random.default_rng(33)
    for _ in range(25):
        v = rng.uniform(-2, 2, size=6)
        eps = rng.uniform(0.2, 3.0)
        ours = project(v, eps, 1.0)
        ref = l1_projection_qp(v, eps)
        assert np.abs(ours - ref).max() <= 1e-6
        assert np.abs(ours).sum() <= eps + 1e-9


def test_projection_result_norm_bound():
    rng = np.random.default_rng(4)
    for p in (1.0, 2.0, math.inf):
        for _ in range(50):
            v = rng.uniform(-3, 3, size=8)
            eps = rng.uniform(0.01, 2.0)
            out = project(v, eps, p)
            assert lp_norm(out, p) <= eps + 1e-9


def test_pgd_linear_finds_flip_above_margin():
    net = margin_linear_net()
    x = np.array([0.53, 0.50])
    ds = Dataset(x[None, :], net_core.classify_batch(net, x[None, :]))
    lab = int(ds.labels[0])
    for p in (1.0, 2.0, math.inf):
        margin = hyperplane_distances(net, x, lab, p)[1].min()
        kwargs = dict(iterations=100, restarts=10, seed=3)
        success, _, deltas = attack_one(net, ds, p, margin * 1.05, **kwargs)
        adv = x + deltas[0]
        assert success[0]
        assert net_core.classify_batch(net, adv[None, :])[0] != lab
        assert lp_norm(adv - x, p) <= margin * 1.05 + 1e-9
        # never below the certified radius
        assert not attack_one(net, ds, p, margin * 0.95, **kwargs)[0][0]


def test_pgd_rejects_infeasible_core_result(monkeypatch):
    # a core that reports success with a perturbation outside the ball must
    # raise, also under python -O
    net = margin_linear_net()
    x = np.array([0.53, 0.50])

    def bad_core(net, starts, X_ref, y, cfg, region):
        deltas = np.zeros_like(starts)
        deltas[:, 0] = -0.5
        return np.ones(len(starts), bool), np.full(len(starts), 0.01), deltas

    monkeypatch.setattr(attacks, "_pgd_core", bad_core)
    with pytest.raises(RuntimeError, match="outside"):
        attack_one(net, Dataset(x[None, :], [1]), math.inf, 0.1, iterations=2, restarts=1)


def test_pgd_rejects_correctly_classified_core_result(monkeypatch):
    # a feasible perturbation that does not change the class must raise too
    net = margin_linear_net()
    x = np.array([0.53, 0.50])

    def bad_core(net, starts, X_ref, y, cfg, region):
        return (np.ones(len(starts), bool), np.zeros(len(starts)),
                np.zeros_like(starts))

    monkeypatch.setattr(attacks, "_pgd_core", bad_core)
    lab = net_core.classify_batch(net, x[None, :])[0]
    with pytest.raises(RuntimeError, match="not misclassified"):
        attack_one(net, Dataset(x[None, :], [lab], num_classes=2), 2.0, 0.1, iterations=2,
                   restarts=1)


def test_attack_dataset_restart_zero_starts_at_the_point(monkeypatch):
    seen = {}

    def core(net, starts, X_ref, y, cfg, region):
        seen["starts"], seen["X_ref"] = starts.copy(), X_ref.copy()
        return (np.zeros(len(starts), bool), np.full(len(starts), math.inf),
                np.zeros_like(starts))

    monkeypatch.setattr(attacks, "_pgd_core", core)
    X = np.array([[0.2, 0.3], [0.6, 0.5]])
    success, _, _ = attack_one(margin_linear_net(), _Points(X, [1, 2]), 2.0, 0.1, restarts=3)
    assert not success.any()
    starts = seen["starts"].reshape(2, 3, 2)
    assert (starts[:, 0] == X).all()
    assert (starts[:, 1:] != X[:, None]).any(axis=2).all()
    assert (seen["X_ref"].reshape(2, 3, 2) == X[:, None]).all()


@pytest.mark.parametrize("label", [0, 3])
def test_attack_dataset_rejects_label_out_of_range(label):
    # label 0 would otherwise attack the last class, label K+1 run off the end
    net = margin_linear_net()
    with pytest.raises(ValueError, match="out of range"):
        attack_one(net, _Points([[0.5, 0.5]], [label]), 2.0, 0.1, iterations=2, restarts=2)


def test_pgd_zero_budget_returns_none():
    net = margin_linear_net()
    X = np.array([[0.53, 0.50]])
    success, _, _ = attack_one(net, Dataset(X, net_core.classify_batch(net, X)), math.inf, 0.0,
                               iterations=5, restarts=2, seed=0)
    assert not success.any()


def test_pgd_output_always_feasible_and_misclassified():
    rng = np.random.default_rng(10)
    for seed in range(4):
        net = tiny_net(seed)
        for p in (1.0, 2.0, math.inf):
            x = rng.uniform(0.1, 0.9, size=2)
            ds = Dataset(x[None, :], net_core.classify_batch(net, x[None, :]))
            eps = rng.uniform(0.05, 0.4)
            success, _, deltas = attack_one(net, ds, p, eps, iterations=40, restarts=5,
                                            seed=seed)
            if not success[0]:
                continue
            adv = x + deltas[0]
            assert lp_norm(adv - x, p) <= eps + 1e-9
            assert adv.min() >= 0.0 and adv.max() <= 1.0
            assert net_core.classify_batch(net, adv[None, :])[0] != ds.labels[0]


def test_attack_settings_are_checked_before_any_work(monkeypatch):
    # attack_norms checks its settings before it maps the anchors' region,
    # on a net whose attacks take the region path
    net, ds, eps = _region_case("16-64-64-2")
    calls = []
    anchor_region = attacks._anchor_region

    def spy(net, anchors):
        calls.append(len(anchors))
        return anchor_region(net, anchors)

    monkeypatch.setattr(attacks, "_anchor_region", spy)
    runs = r"^iterations and restarts must be >= 1$"
    fraction = r"^sparsity_frac must be in \(0, 1\]$"
    for bad, message in (({"iterations": 0}, runs), ({"restarts": 0}, runs),
                         ({"sparsity_frac": 0.0}, fraction), ({"sparsity_frac": 1.5}, fraction),
                         ({"sparsity_frac": math.nan}, fraction)):
        with pytest.raises(ValueError, match=message):
            attack_norms(net, ds, eps, **{"iterations": 2, "restarts": 1, **bad})
    # a norm is picked by name only: there is no other order to reject
    with pytest.raises(ValueError, match="^unknown norm 'l3'"):
        attack_norms(net, ds, eps, norms=("l3",), iterations=2, restarts=1)
    # attack_norms checks the radius of each norm it attacks, by its name
    for p in (1.0, 2.0, math.inf):
        for bad_eps in (-0.1, -1.0, math.nan, math.inf):
            name = attacks._EPS_NAMES[{1.0: "l1", 2.0: "l2", math.inf: "linf"}[p]]
            with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0"):
                attack_one(net, ds, p, bad_eps)
            with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0"):
                attack_one(margin_linear_net(), _Points([[0.5, 0.5]], [1]), p, bad_eps)
    assert calls == []
    attack_norms(net, ds, eps, iterations=2, restarts=1)
    assert calls == [len(ds.features)]


@pytest.mark.parametrize("norm", ["l2", "linf"])
def test_attack_norms_rejects_a_bare_string(norm):
    # a string is a sequence of one-letter names; the message names it whole
    net = margin_linear_net()
    ds = _Points([[0.2, 0.3]], [1])
    for norms in (norm, "l1l2"):
        with pytest.raises(ValueError, match=f"sequence of names .* got the string '{norms}'"):
            attack_norms(net, ds, (0.1, 0.1, 0.1), norms=norms)
    with pytest.raises(ValueError, match="unknown norm 'l3'; expected l1, l2 or linf"):
        attack_norms(net, ds, (0.1, 0.1, 0.1), norms=[norm, "l3"])
    found = attack_norms(net, ds, (0.1, 0.1, 0.1), norms=(norm,), iterations=2, restarts=1)
    assert list(found) == [norm]


def test_pgd_anchor_box_precondition():
    net = margin_linear_net()
    # the points an attack takes lie in the [0, 1] box
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        attack_one(net, Dataset([[1.4, 0.5]], [1]), 2.0, 0.1, iterations=5, restarts=1)


def test_lower_bound_all_misclassified():
    # constant logits prefer class 2; every label-1 point is already wrong
    net = ReluNet((np.zeros((2, 2)),), (np.array([0.0, 1.0]),))
    ds = _Points(np.random.default_rng(0).uniform(0, 1, size=(20, 2)), [1] * 20)
    found = attack_norms(net, ds, EpsTriple(0.1, 0.1, 0.1), iterations=5, restarts=2)
    assert lower_bounds(net, ds, found)["union"] == 1.0


def test_lower_bound_linear_matches_analytic():
    net = margin_linear_net()
    rng = np.random.default_rng(8)
    X = rng.uniform(0.25, 0.75, size=(60, 2))
    y = net_core.classify_batch(net, X)
    ds = _Points(X, y)
    eps = EpsTriple(0.06, 0.03, 0.012)
    analytic = 0
    for i in range(len(X)):
        flips = False
        for p, e in ((1.0, eps.eps1), (2.0, eps.eps2), (math.inf, eps.eps_inf)):
            margin = hyperplane_distances(net, X[i], int(y[i]), p)[1].min()
            flips = flips or margin <= e
        analytic += flips
    found = attack_norms(net, ds, eps, iterations=100, restarts=10, seed=5)
    assert lower_bounds(net, ds, found)["union"] == pytest.approx(analytic / len(X), abs=1e-12)


def test_lower_bound_below_upper_bound():
    rng = np.random.default_rng(31)
    net = tiny_net(1)
    X = rng.uniform(0, 1, size=(60, 2))
    y = net_core.classify_batch(net, X)
    ds = _Points(X, y)
    eps = EpsTriple(0.1, 0.06, 0.02)
    lb = lower_bounds(net, ds, attack_norms(net, ds, eps, iterations=40, restarts=4, seed=1))
    ub = certify.bounds(certify.certificates(net, X, y), eps)
    for name in ("l1", "l2", "linf", "union"):
        assert lb[name] <= ub[name] + 1e-12


def test_lower_bound_empty_dataset():
    net = margin_linear_net()
    with pytest.raises(ValueError):
        attack_norms(net, _Points(np.zeros((0, 2)), []), EpsTriple(0.1, 0.1, 0.1))


def test_overlap_stats_no_successes():
    net = margin_linear_net()
    X = np.array([[0.53, 0.50]])
    ds = _Points(X, net_core.classify_batch(net, X))
    radii = {"l1": 1e-6, "l2": 1e-6, "linf": 1e-6}
    table = overlap_table(attack_norms(net, ds, tuple(radii.values()), iterations=5,
                                       restarts=2), radii)
    for entry in table.values():
        assert entry["total"] == 0
        assert entry["pct"] is None


def test_overlap_single_coordinate_delta_norms():
    # an l1 perturbation concentrated on one coordinate has l2 and linf norm
    # eps1: it fits the l2 ball iff eps1 <= eps2, never the linf ball when
    # eps1 > eps_inf; failed attacks are not counted.  Only l1 was attacked,
    # so the table holds only its pairs
    eps1, eps_inf = 0.3, 0.05
    found = {
        "l1": (np.array([True, True, False]), np.array([eps1, 0.02, 0.01]),
               np.array([[eps1, 0.0], [0.0, -0.02], [0.01, 0.0]])),
    }
    for eps2, in_l2 in ((eps1, 2), (eps1 - 0.01, 1)):
        table = overlap_table(found, {"l1": eps1, "l2": eps2, "linf": eps_inf})
        assert set(table) == {("l1", "l2"), ("l1", "linf")}
        assert table[("l1", "l2")] == {"count": in_l2, "total": 2, "pct": 50.0 * in_l2}
        assert table[("l1", "linf")] == {"count": 1, "total": 2, "pct": 50.0}


def test_overlap_stats_structure(trained_pairs):
    run = trained_pairs["runs"][0]
    eps = trained_pairs["eps"]
    sub = _Points(run["test"].features[:50], run["test"].labels[:50])
    radii = dict(zip(("l1", "l2", "linf"), eps))
    table = overlap_table(attack_norms(run["plain"], sub, eps, iterations=30, restarts=3,
                                       seed=4), radii)
    assert set(table) == {(p, q) for p in ("l1", "l2", "linf")
                          for q in ("l1", "l2", "linf") if p != q}
    for entry in table.values():
        if entry["pct"] is not None:
            assert 0.0 <= entry["pct"] <= 100.0
            assert entry["count"] <= entry["total"]
    # reported, not asserted: on plain models these are expected near zero
    print("plain model l1-in-linf:", table[("l1", "linf")],
          "linf-in-l1:", table[("linf", "l1")])


def _attack_cases(trained_pairs):
    for run in trained_pairs["runs"]:
        test = run["test"].head(200)
        for kind in ("plain", "mmr"):
            yield f"blobs{run['seed']}-{kind}", run[kind], test, trained_pairs["eps"]
    yield from _region_cases()


def _region_cases():
    """(name, net, points, radii) of the 16-d nets whose attacks take the
    region path."""
    # iterates spread over many regions: the region path is dropped
    net = net_core.random_net([16, 64, 64, 2], seed=0, bias_scale=0.1)
    yield "16-64-64-2", *_split_in_half(net, 5), (0.5, 0.15, 0.05)
    # affine over the box: every iterate stays in the anchors' region
    yield "cleared-16-64-64-2", *_split_in_half(cleared_net([16, 64, 64, 2], seed=1), 6), \
        (0.2, 0.06, 0.03)


def _split_in_half(net, seed):
    """net with its output bias shifted so that it splits 200 uniform points
    of the unit box in half, and those points with its labels."""
    X = np.random.default_rng(seed).uniform(0, 1, size=(200, net.input_dim))
    logits, _ = net_core.forward_batch(net, X)
    shift = np.median(logits[:, 0] - logits[:, 1]) / 2.0
    net = ReluNet(net.weights, net.biases[:-1] + (net.biases[-1] + [-shift, shift],))
    return net, Dataset(X, net_core.classify_batch(net, X))


def test_mixed_precision_pgd_matches_float64_reference(trained_pairs, monkeypatch):
    # the float32 search may take other paths than the all-float64 loop, but
    # it must find about as many adversarials, and each one it reports must
    # hold in float64
    broken = 0
    for name, net, ds, eps in _attack_cases(trained_pairs):
        for seed in range(3):
            kwargs = dict(iterations=20, restarts=3, seed=seed)
            found = attack_norms(net, ds, eps, **kwargs)
            with monkeypatch.context() as m:
                m.setattr(attacks, "_pgd_core", per_point_reference.pgd_core)
                ref = attack_norms(net, ds, eps, **kwargs)
            lb, lb_ref = lower_bounds(net, ds, found), lower_bounds(net, ds, ref)
            for key in lb_ref:
                assert lb[key] >= lb_ref[key] - 0.01, (name, seed, key, lb, lb_ref)
            broken += sum(int(success.sum()) for success, _, _ in found.values())
            for (norm, (success, best_norm, deltas)), radius in zip(found.items(), eps):
                p = attacks._ORDERS[norm]
                adv = ds.features[success] + deltas[success]
                assert (certify.row_norms(deltas[success], p) <= radius + 1e-9).all()
                assert (best_norm[success] == certify.row_norms(deltas[success], p)).all()
                assert adv.min(initial=0.0) >= 0.0 and adv.max(initial=1.0) <= 1.0
                assert (net_core.classify_batch(net, adv) != ds.labels[success]).all()
    assert broken > 0


def test_float32_only_flip_is_not_reported():
    # f2 - f1 = 1e-12 everywhere: float64 predicts class 2, the label, while
    # in float32 both logits round to 1.0 and the tie goes to class 1, so
    # every float32 iterate looks misclassified
    w = np.full((1, 2), 1e-13)
    net = ReluNet((w, np.ones((2, 1))), (np.ones(1), np.array([0.0, 1e-12])))
    X = np.array([[0.3, 0.6], [0.5, 0.5]])
    fast = net.astype(np.float32)
    assert (net_core.classify_batch(fast, X) == 1).all()
    assert (net_core.classify_batch(net, X) == 2).all()
    for p in (1.0, 2.0, math.inf):
        kwargs = dict(iterations=5, restarts=3)
        success, best_norm, _ = attack_one(net, Dataset(X, [2, 2]), p, 0.1, **kwargs)
        assert not success.any()
        assert np.isinf(best_norm).all()
        assert not attack_one(net, Dataset(X[:1], [2]), p, 0.1, **kwargs)[0][0]


def test_input_gradient_matches_finite_differences():
    net = net_core.random_net([5, 7, 6, 3], seed=4, bias_scale=0.5)
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 1, size=(6, 5))
    y0 = rng.integers(0, 3, size=6)

    def xent(Z):
        logits, _ = net_core.forward_batch(net, Z)
        m = logits.max(axis=1)
        lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
        return lse - logits[np.arange(len(Z)), y0]

    logits, preacts = net_core.forward_batch(net, X)
    grad = net_core.backward_batch(net, preacts, attacks._logit_gradient(logits, y0))
    assert grad.dtype == np.float64
    h = 1e-6
    fd = np.empty_like(grad)
    for j in range(X.shape[1]):
        e = np.zeros(X.shape[1])
        e[j] = h
        fd[:, j] = (xent(X + e) - xent(X - e)) / (2 * h)
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)

    fast = net.astype(np.float32)
    logits32, preacts32 = net_core.forward_batch(fast, X)
    grad32 = net_core.backward_batch(fast, preacts32, attacks._logit_gradient(logits32, y0))
    assert grad32.dtype == np.float32
    scale = np.abs(grad).max(axis=1, keepdims=True)
    assert (np.abs(grad32 - grad) <= 1e-4 * scale).all()


def _tricky_logits(rng, B, K, dtype):
    """Logits with rows of ties, rows of +-80 (exp(-160) underflows in
    float32) and rows of all-equal values, and labels covering every class."""
    L = rng.standard_normal((B, K)) * rng.choice([0.01, 1.0, 30.0], size=(B, 1))
    L[0::5, 1:] = L[0::5, :1]                     # all equal
    L[1::5, :K // 2] = L[1::5, K - 1:K]           # a tie with the last class
    L[2::5] = rng.choice([-80.0, 80.0], size=L[2::5].shape)
    L[3::5, 0] = 80.0
    L[3::5, 1:] = -80.0
    return L.astype(dtype), np.arange(B) % K


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("K", range(2, 8))
def test_logit_gradient_is_the_row_wise_form_below_eight_classes(K, dtype):
    rng = np.random.default_rng(K)
    for B in (1, 7, 1000):
        logits, y0 = _tricky_logits(rng, B, K, dtype)
        got = attacks._logit_gradient(logits, y0)
        want = per_point_reference.logit_gradient(logits, y0)
        assert got.dtype == dtype and got.flags.c_contiguous and got.shape == (B, K)
        assert got.tobytes() == want.tobytes(), (K, B)


@pytest.mark.parametrize("K", [8, 10])
def test_logit_gradient_from_eight_classes_within_sum_rounding(K):
    # numpy sums rows of 8 or more pairwise: each order of the K-term sum S
    # is within (K - 1) u S of the exact one, u = 2**-24, and the division
    # and one-hot subtraction round once each, so entries (all within
    # [-1, 1]) differ by at most 2 (K + 1) u
    tol = 2 * (K + 1) * 2.0 ** -24
    logits, y0 = _tricky_logits(np.random.default_rng(K), 1000, K, np.float32)
    got = attacks._logit_gradient(logits, y0)
    want = per_point_reference.logit_gradient(logits, y0)
    assert np.abs(got.astype(np.float64) - want).max() <= tol


@pytest.mark.parametrize("d", [2, 16])
def test_top1_l1_step_is_the_partition_step(d, monkeypatch):
    # k = 1 at the default sparsity: the row max replaces np.partition, with
    # tied maxima (both kept) and all-zero rows (a zero step)
    rng = np.random.default_rng(d)
    G = rng.standard_normal((300, d))
    G[::4, 0] = 5.0
    G[::4, 1] = -5.0
    G[1::4] = 0.0
    G[2::4, :] = np.abs(G[2::4, :1])
    partition = np.partition
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[1])
        return partition(*args, **kwargs)

    monkeypatch.setattr(np, "partition", spy)
    for p in (1.0, 2.0, math.inf):
        got = attacks._ascent_step(G, p, 0.01)
        assert got.tobytes() == per_point_reference.ascent_step(G, p, 0.01).tobytes()
    assert calls == [d - 1]  # the reference's only
    step = attacks._ascent_step(G, 1.0, 0.01)
    assert (step[1::4] == 0).all()
    assert (np.count_nonzero(step[::4], axis=1) >= 2).all()
    # 2 <= k < d takes the partition path; k = d keeps every coordinate
    for frac in (2 / d, 0.5, 1.0):
        calls.clear()
        k = max(1, round(frac * d))
        got = attacks._ascent_step(G, 1.0, frac)
        assert calls == ([d - k] if 1 < k < d else [])
        assert got.tobytes() == per_point_reference.ascent_step(G, 1.0, frac).tobytes()


def _region_step(fast, region, Z, y0):
    # every row counts as within the region's radius of its anchor
    logits, state = attacks._forward(fast, region, Z, np.zeros(len(Z)))
    return logits, state[0], attacks._gradient(fast, region, logits, state, y0)


def _layer_step(fast, Z, y0):
    logits, preacts = net_core.forward_batch(fast, Z)
    return logits, net_core.backward_batch(fast, preacts, attacks._logit_gradient(logits, y0))


def test_region_step_matches_the_layer_wise_pass():
    # inside the anchors' region the step is its affine map: logits and
    # gradients agree with the float32 layer-wise pass to float32 rounding;
    # rows outside get exactly the layer-wise pass
    net = cleared_net([16, 64, 64, 2], seed=2)
    fast = net.astype(np.float32)
    rng = np.random.default_rng(3)
    # at linf radius 10 from the box every one of the 128 rows is reachable
    region = attacks._within(attacks._anchor_region(net, rng.uniform(0, 1, size=(50, 16))),
                             10.0, math.inf)
    assert region[0].shape == (128, 17)
    Z = rng.uniform(0, 1, size=(300, 16))
    y0 = rng.integers(0, 2, size=300)
    logits, out, G = _region_step(fast, region, Z, y0)
    assert len(out) == 0 and logits.dtype == G.dtype == np.float32
    ref_logits, ref_G = _layer_step(fast, Z, y0)
    np.testing.assert_allclose(logits, ref_logits, rtol=1e-5, atol=1e-5 * np.abs(ref_logits).max())
    np.testing.assert_allclose(G, ref_G, rtol=1e-4, atol=1e-5 * np.abs(ref_G).max())

    # outside the box the cleared units switch off
    Z[::3] = rng.uniform(-4, 5, size=(100, 16))
    logits, out, G = _region_step(fast, region, Z, y0)
    _, preacts = net_core.forward_batch(net, Z)
    active = np.concatenate(preacts, axis=1) > 0
    assert set(out) == set(np.flatnonzero(~active.all(axis=1)))
    assert 0 < len(out) < len(Z)
    ref_logits, ref_G = _layer_step(fast, Z[out], y0[out])
    assert logits[out].tobytes() == ref_logits.tobytes()
    assert G[out].tobytes() == ref_G.tobytes()


def test_region_step_zero_preactivation_is_outside():
    # unit 0 is active and unit 1 inactive at the anchors; both have
    # preactivation exactly 0 at x1 = 0.25, which is not strictly inside
    w1 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    net = ReluNet((w1, np.full((4, 4), 0.1), np.array([[1.0, -1.0, 0.5, 0.0], [0.0, 0.5, -1.0, 1.0]])),
                  (np.array([-0.25, 0.25, 1.0, 2.0]), np.ones(4), np.zeros(2)))
    assert attacks._region_pays(net)
    region = attacks._anchor_region(net, np.array([[0.6, 0.5], [0.7, 0.2], [0.9, 0.9]]))
    region = attacks._within(region, 1.0, math.inf)
    # within linf distance 1 of the anchors only units 0 and 1 can switch:
    # both signed rows are x1 - 0.25
    assert region[0].tolist() == [[1.0, 0.0, -0.25]] * 2
    fast = net.astype(np.float32)
    Z = np.array([[0.25, 0.5], [0.5, 0.5], [0.1, 0.5], [0.25, 0.9]])
    y0 = np.array([0, 1, 0, 1])
    logits, out, G = _region_step(fast, region, Z, y0)
    assert out.tolist() == [0, 2, 3]
    ref_logits, ref_G = _layer_step(fast, Z[out], y0[out])
    assert logits[out].tobytes() == ref_logits.tobytes()
    assert G[out].tobytes() == ref_G.tobytes()


def test_wrong_region_map_never_reports_an_adversarial(monkeypatch):
    # with the output map's classes swapped every iterate inside the region
    # looks misclassified and the gradient points the wrong way; the float64
    # checks still report only true adversarials
    net, ds = _split_in_half(cleared_net([16, 64, 64, 2], seed=1), 6)
    eps = (0.2, 0.06, 0.03)
    calls = []
    true_region = attacks._anchor_region

    def swapped(net, anchors):
        calls.append(len(anchors))
        hidden, output, anchors, radius = true_region(net, anchors)
        return hidden, output[::-1].copy(), anchors, radius

    monkeypatch.setattr(attacks, "_anchor_region", swapped)
    found = attack_norms(net, ds, eps, iterations=20, restarts=3, seed=1)
    assert calls == [len(ds.features)]  # one map for the three norms
    for (norm, (success, best_norm, deltas)), radius in zip(found.items(), eps):
        p = attacks._ORDERS[norm]
        adv = ds.features[success] + deltas[success]
        assert (certify.row_norms(deltas[success], p) <= radius + 1e-9).all()
        assert adv.min(initial=0.0) >= 0.0 and adv.max(initial=1.0) <= 1.0
        assert (net_core.classify_batch(net, adv) != ds.labels[success]).all()
        assert np.isinf(best_norm[~success]).all()


@pytest.mark.parametrize("sizes, inside, pays", [
    ([16, 256, 256, 2], 1.0, True),   # 512 * 16 = 8192 < 256 * 256 + 2 * 256
    ([2, 64, 2], 1.0, False),         # 64 * 2 = 128, not < 2 * 64
    ([16, 64, 64, 2], 1.0, True),     # 128 * 16 = 2048 < 64 * 64 + 2 * 64
    ([16, 64, 64, 2], 0.5, True),     # 2048 < 0.5 * 4224
    ([16, 64, 64, 2], 0.48, False),   # 2048 > 0.48 * 4224
    ([16, 2], 1.0, False),            # no hidden layer
])
def test_region_path_shape_rule(sizes, inside, pays):
    assert attacks._region_pays(net_core.random_net(sizes), inside) is pays


def test_region_dropped_once_iterates_leave_it(trained_pairs, monkeypatch):
    # each attack tries the anchors' region at its first step; on the random
    # net the iterates lie in other regions, so it steps layer by layer after
    # that, and on the cleared net it keeps the region to the end
    seen = []
    forward = attacks._forward

    def spy(fast, region, Z, norms):
        seen.append(region is not None)
        return forward(fast, region, Z, norms)

    monkeypatch.setattr(attacks, "_forward", spy)
    cases = {name: case for name, *case in _attack_cases(trained_pairs)}
    for name, kept in (("16-64-64-2", 1), ("cleared-16-64-64-2", 11)):
        net, ds, eps = cases[name]
        seen.clear()
        attack_norms(net, ds, eps, iterations=10, restarts=3)
        assert seen == 3 * ([True] * kept + [False] * (11 - kept)), name


def test_region_path_off_is_the_layer_wise_loop(trained_pairs, monkeypatch):
    # on the 2-64-2 blobs nets the rule is off: no region is built and the
    # results are bitwise those of the float32 layer-wise loop
    def no_region(net, anchors):
        raise AssertionError("region built where the shape rule is off")

    monkeypatch.setattr(attacks, "_anchor_region", no_region)
    run = trained_pairs["runs"][0]
    ds = run["test"].head(100)
    for kind in ("plain", "mmr"):
        kwargs = dict(iterations=20, restarts=3, seed=2)
        found = attack_norms(run[kind], ds, trained_pairs["eps"], **kwargs)
        with monkeypatch.context() as m:
            m.setattr(attacks, "_pgd_core",
                      functools.partial(per_point_reference.pgd_core, dtype=np.float32))
            ref = attack_norms(run[kind], ds, trained_pairs["eps"], **kwargs)
        for norm in found:
            for a, b in zip(found[norm], ref[norm]):
                assert a.tobytes() == b.tobytes(), (kind, norm)


def _keep_all_rows(hidden, anchors, radius, p):
    return np.ones(len(hidden), dtype=bool)


def _corners_case():
    """A 16-256-256-2 net affine over the box, as the corners benchmark's
    model is over its data, at the benchmark's radii: its regions keep 15
    (l1), 0 (l2) and 49 (linf) of their 512 rows."""
    net, ds = _split_in_half(cleared_net([16, 256, 256, 2], seed=3, margin=0.2), 7)
    return "corners-16-256-256-2", net, ds, (1.38, 0.66, 0.3)


def _with_zero_units(net, zero_offset):
    """net with hidden units whose weights are all zero: in the first layer
    units 0 and 1 with offsets 0.3 and -0.3, active and inactive everywhere,
    and unit 2 with offset 0, never strictly inside a region, if zero_offset
    (else 0.1); in the second layer unit 0 with offset 0.2."""
    weights, biases = [w.copy() for w in net.weights], [b.copy() for b in net.biases]
    weights[0][:3] = 0.0
    biases[0][:3] = [0.3, -0.3, 0.0 if zero_offset else 0.1]
    weights[1][0] = 0.0
    biases[1][0] = 0.2
    return ReluNet(tuple(weights), tuple(biases))


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("d", [2, 16, 64])
def test_reachable_rows_give_the_full_tables_outside_set(d, p, monkeypatch):
    # for iterates in ball and box, a third of them drawn on the ball's
    # surface and for l1 and linf a third at its vertices, the reachable
    # rows split inside from outside as all of the region's rows do; 15
    # anchors lie about one point and 5 anywhere in the box, mostly outside
    # the chosen region
    eps = {1.0: 0.3 * math.sqrt(d), 2.0: 0.3, math.inf: 0.3 / math.sqrt(d)}[p]
    radius = eps + attacks._FEAS_TOL
    for seed in range(3):
        net = _with_zero_units(net_core.random_net([d, 32, 32, 2], seed=seed, bias_scale=0.5),
                               zero_offset=seed == 2)
        rng = np.random.default_rng(seed)
        center = rng.uniform(0.3, 0.7, d)
        anchors = np.vstack([center + rng.uniform(-0.01, 0.01, size=(15, d)),
                             rng.uniform(0, 1, size=(5, d))])
        X = np.repeat(anchors, 30, axis=0)
        D = attacks._sample_ball_rows(rng, len(X), d, eps, p)
        D[::3] *= eps / certify.row_norms(D[::3], p)[:, None]
        if p != 2.0:  # and a third at the ball's vertices
            D[1::3] = eps * np.where(rng.random((len(X) // 3, d)) < 0.5, -1.0, 1.0)
            if p == 1.0:
                D[1::3] *= np.eye(d)[rng.integers(0, d, len(X) // 3)]
        Z, _, norms = attacks._joint_project(X + D, X, eps, p)
        region = attacks._within(attacks._anchor_region(net, X), radius, p)
        with monkeypatch.context() as m:
            m.setattr(attacks, "_reachable_rows", _keep_all_rows)
            full = attacks._within(attacks._anchor_region(net, X), radius, p)
        hidden = region[0]
        assert len(full[0]) == 64 and 0 < len(hidden) < 64
        zero = (hidden[:, :-1] == 0).all(axis=1)
        # the zero rows with positive offsets (units 0 and 1, unit 2 at seeds
        # 0 and 1, the second layer's unit 0) are dropped; one with offset 0
        # is kept
        assert zero.sum() == (seed == 2) and (hidden[zero, -1] == 0).all()
        fast = net.astype(np.float32)
        logits, (out, _) = attacks._forward(fast, region, Z, norms)
        full_logits, (full_out, _) = attacks._forward(fast, full, Z, norms)
        assert out.tolist() == full_out.tolist()
        assert logits.tobytes() == full_logits.tobytes()
        if seed == 2:
            assert len(out) == len(Z)
        else:
            assert 0 < len(out) < len(Z)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("d", [2, 64])
def test_reachable_rows_margin_grows_with_d(d, p):
    # the row x1 > 0 has slack 0.5 at the anchor, and a radius r takes r
    # off it in every norm: with gap = 0.5 - r it is dropped once gap
    # exceeds the margin 2 (d + 2) (2**-24 ||[h, c]||_1 + tiny)
    row = np.zeros((1, d + 1), dtype=np.float32)
    row[0, 0] = 1.0
    anchors = np.full((1, d), 0.5)

    def margin(dim):
        return 2 * (dim + 2) * (2.0 ** -24 + float(np.finfo(np.float32).smallest_subnormal))

    def kept(gap):
        return bool(attacks._reachable_rows(row, anchors, 0.5 - gap, p)[0])

    assert not kept(1.25 * margin(d)) and kept(0.75 * margin(d))
    # the d = 2 margin would drop the row at d = 64
    assert kept(1.25 * margin(2)) is (d > 2)
    # the anchor closest to the row's hyperplane decides
    far = np.vstack([np.full((1, d), 0.9), anchors])
    assert attacks._reachable_rows(row, far, 0.5 - 0.75 * margin(d), p).tolist() == [True]


def _region_case(name):
    return next(case[1:] for case in [*_region_cases(), _corners_case()] if case[0] == name)


@pytest.mark.parametrize("name", ["16-64-64-2", "cleared-16-64-64-2", "corners-16-256-256-2"])
def test_reachable_rows_leave_attacks_bitwise_unchanged(name, monkeypatch):
    # the attacks' results with the reachable rows are those with every row
    # of the region, on a net whose iterates leave the region, one whose
    # iterates all stay in it and a corners-style net
    net, ds, eps = _region_case(name)
    maps, kept = [], []
    anchor_region, within = attacks._anchor_region, attacks._within

    def map_spy(net, anchors):
        region = anchor_region(net, anchors)
        maps.append(len(region[0]))
        return region

    def within_spy(region, radius, p):
        region = within(region, radius, p)
        kept.append(len(region[0]))
        return region

    monkeypatch.setattr(attacks, "_anchor_region", map_spy)
    monkeypatch.setattr(attacks, "_within", within_spy)
    kwargs = dict(iterations=20, restarts=3, seed=4)
    found = attack_norms(net, ds, eps, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(attacks, "_reachable_rows", _keep_all_rows)
        ref = attack_norms(net, ds, eps, **kwargs)
    full = net.num_hidden_units
    assert maps == [full] * 2  # one map of all rows for each attack_norms call
    assert len(kept) == 6 and kept[3:] == [full] * 3 and max(kept[:3]) < full, (name, kept)
    for norm in found:
        for a, b in zip(found[norm], ref[norm]):
            assert a.tobytes() == b.tobytes(), (name, norm)
    assert any(success.any() for success, _, _ in found.values())


@pytest.mark.parametrize("name", ["cleared-16-64-64-2", "corners-16-256-256-2"])
def test_attack_norms_is_attack_dataset_for_each_norm(name, monkeypatch):
    # attack_norms maps the anchors' region once and shares it; the results
    # are bitwise those of one attack_norms call a norm, each with its map
    net, ds, eps = _region_case(name)
    calls = []
    anchor_region = attacks._anchor_region

    def spy(net, anchors):
        calls.append(len(anchors))
        return anchor_region(net, anchors)

    monkeypatch.setattr(attacks, "_anchor_region", spy)
    found = attack_norms(net, ds, eps, iterations=20, restarts=3, seed=5)
    assert calls == [len(ds.features)]
    for norm in attacks._ORDERS:
        alone = attack_norms(net, ds, eps, norms=(norm,), iterations=20, restarts=3, seed=5)
        for a, b in zip(found[norm], alone[norm]):
            assert a.tobytes() == b.tobytes(), (name, norm)
    assert len(calls) == 4
    assert any(success.any() for success, _, _ in found.values())


def test_one_class_attack_runs_no_search(monkeypatch):
    # no input changes a one-class net's class: attack_norms returns what the
    # full search finds, in the same norm order, without running PGD
    net = net_core.random_net([4, 8, 1], seed=0)
    ds = _Points(np.random.default_rng(0).uniform(0.0, 1.0, (30, 4)), np.ones(30))
    eps = (0.5, 0.2, 0.1)
    searched = {name: attacks._attack(net, ds.features, ds.labels, None,
                                      attacks._Pgd(p, e, 5, 3, 0.01, seed))
                for seed, ((name, p), e) in enumerate(zip(attacks._ORDERS.items(), eps), 1)}
    monkeypatch.setattr(attacks, "_pgd_core", lambda *a: pytest.fail("PGD ran"))
    found = attack_norms(net, ds, eps, iterations=5, restarts=3)
    assert list(found) == list(searched)
    for norm, result in found.items():
        for a, b in zip(result, searched[norm]):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert list(attack_norms(net, ds, eps, norms=("linf", "l1"))) == ["l1", "linf"]


def test_region_with_no_reachable_row_holds_every_iterate():
    # at the l2 radius no row of the corners-style region is reachable: the
    # membership test has nothing to check, every iterate within the radius
    # is inside, as the float64 net agrees, and the l2 attack runs on it
    net, ds, (_, eps, _) = _region_case("corners-16-256-256-2")
    X = np.repeat(ds.features, 3, axis=0)
    region = attacks._within(attacks._anchor_region(net, X), eps + attacks._FEAS_TOL, 2.0)
    assert region[0].shape == (0, 17)
    rng = np.random.default_rng(0)
    Z, _, norms = attacks._joint_project(X + attacks._sample_ball_rows(rng, len(X), 16, eps, 2.0),
                                         X, eps, 2.0)
    logits, (out, preacts) = attacks._forward(net.astype(np.float32), region, Z, norms)
    assert len(out) == 0 and preacts is None
    _, pre64 = net_core.forward_batch(net, Z)
    assert (np.concatenate(pre64, axis=1) > 0).all()
    Z1 = np.column_stack([Z, np.ones(len(Z))]).astype(np.float32)
    assert logits.tobytes() == (Z1 @ region[1].T).tobytes()
    success, best_norm, _ = attack_norms(net, ds, (None, eps, None), norms=("l2",),
                                         iterations=10, restarts=2)["l2"]
    assert success.any() and (best_norm[success] <= eps + 1e-9).all()


def test_infeasible_iterate_takes_the_layer_wise_pass(monkeypatch):
    # should the projection loop give up and leave an iterate outside the
    # ball, that row is beyond the region's radius: it takes the layer-wise
    # pass though the region holds it, and the hit test never reports it
    # though the net misclassifies it
    net, ds, (_, _, eps) = _region_case("cleared-16-64-64-2")
    X, y = ds.features[:4], ds.labels[:4]
    stray = ds.features[np.flatnonzero(ds.labels != y[0])[0]]
    assert net_core.classify_batch(net, stray[None])[0] != y[0]
    project, forward = attacks._joint_project, attacks._forward
    outside = []

    def stuck(Z, X_ref, eps, p):
        Z, delta, norms = project(Z, X_ref, eps, p)
        Z[0], delta[0] = stray, stray - X_ref[0]
        norms[0] = certify.row_norms(delta[0], p)
        assert norms[0] > eps + attacks._FEAS_TOL
        return Z, delta, norms

    def spy(fast, region, Z, norms):
        logits, state = forward(fast, region, Z, norms)
        assert region is not None and len(region[0]) == 0  # every row inside
        outside.append(state[0].tolist())
        return logits, state

    monkeypatch.setattr(attacks, "_joint_project", stuck)
    monkeypatch.setattr(attacks, "_forward", spy)
    cfg = attacks._Pgd(math.inf, eps, iterations=10, restarts=1, sparsity_frac=0.01, seed=0)
    success, best_norm, best_delta = attacks._pgd_core(net, X.copy(), X, y, cfg,
                                                       attacks._anchor_region(net, X))
    assert outside == [[0]] * 11
    assert not success[0] and np.isinf(best_norm[0]) and not best_delta[0].any()
