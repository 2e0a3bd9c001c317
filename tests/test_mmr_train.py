import math
from types import SimpleNamespace

import numpy as np
import pytest

from relucert import mmr_train, net_core
from relucert.mmr_train import (
    MmrUniversalConfig, TrainConfig, TrainingDiverged,
    kb_schedule, lambda_ramp_factor, loss, loss_gradient,
    mmr_universal, train,
)
from relucert.net_core import ReluNet, random_net


# -- regularizer values -----------------------------------------------------------


def margin_unit_net():
    # one hidden unit with row of ten ones: at x = 0.05 * ones the distances
    # are 0.5 in l1 (dual linf norm 1) and 0.05 in linf (dual l1 norm 10);
    # the constant output rows push the decision hinge to zero
    w1 = np.ones((1, 10))
    w2 = np.zeros((2, 1))
    return ReluNet((w1, w2), (np.zeros(1), np.array([5.0, 0.0])))


def test_mmr_universal_hand_value():
    net = margin_unit_net()
    x = np.full(10, 0.05)
    cfg = MmrUniversalConfig(lambda1=1.0, lambda_inf=2.0, gamma1=1.0, gamma_inf=0.1)
    assert mmr_universal(net, x, 1, cfg, kb_now=1) == pytest.approx(1.5, abs=1e-12)


def test_mmr_universal_zero_when_far():
    net = margin_unit_net()
    x = np.full(10, 0.05)
    cfg = MmrUniversalConfig(lambda1=1.0, lambda_inf=2.0, gamma1=0.4, gamma_inf=0.04)
    assert mmr_universal(net, x, 1, cfg, kb_now=1) == 0.0


def test_mmr_universal_penalizes_misclassification():
    net = ReluNet((np.array([[0.0, 0.0], [10.0, 0.0]]),), (np.array([0.0, -5.0]),))
    x = np.array([0.6, 0.5])  # logits (0, 1): class 2, label 1 is wrong
    assert net_core.classify(net, x) == 2
    cfg = MmrUniversalConfig(lambda1=0.8, lambda_inf=1.7, gamma1=1.0, gamma_inf=0.1)
    val = mmr_universal(net, x, 1, cfg, kb_now=1)
    assert val > cfg.lambda1 + cfg.lambda_inf


def test_mmr_universal_sorts_norms_independently():
    # unit A is nearest in l1-distance, unit B in linf-distance: with kB = 1
    # each norm must pick its own winner
    w1 = np.array([[1.0, 0.0], [2.0, 2.0]])
    w2 = np.zeros((2, 2))
    net = ReluNet((w1, w2), (np.array([0.0, 0.2]), np.array([5.0, 0.0])))
    x = np.array([0.5, 0.0])
    # distances: A -> (0.5 l1, 0.5 linf); B -> (0.6 l1, 0.3 linf)
    cfg = MmrUniversalConfig(lambda1=1.0, lambda_inf=1.0, gamma1=1.0, gamma_inf=0.4)
    val = mmr_universal(net, x, 1, cfg, kb_now=1)
    assert val == pytest.approx(0.5 + 0.25, abs=1e-12)


def test_configs_validated():
    with pytest.raises(ValueError):
        MmrUniversalConfig(lambda1=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


@pytest.mark.parametrize("bad", [0, 4])
def test_labels_outside_range_rejected(bad):
    # label 0 would otherwise index the last class, label K+1 run off the end
    net = random_net([2, 5, 3], seed=0)
    X = np.array([[0.2, 0.3], [0.7, 0.6]])
    y = np.array([1, bad])
    cfg = MmrUniversalConfig()
    with pytest.raises(ValueError, match="out of range"):
        loss(net, (X, y), cfg)
    with pytest.raises(ValueError, match="out of range"):
        loss_gradient(net, (X, y), cfg)
    good = SimpleNamespace(features=X, labels=np.array([1, 2]))
    bad_ds = SimpleNamespace(features=X, labels=y)
    with pytest.raises(ValueError, match="out of range"):
        train(net, bad_ds, cfg, TrainConfig(epochs=10, batch_size=2))
    with pytest.raises(ValueError, match="out of range"):
        train(net, good, cfg, TrainConfig(epochs=10, batch_size=2), eval_dataset=bad_ds)


def test_mmr_monotone_in_gamma():
    rng = np.random.default_rng(4)
    net = random_net([2, 10, 2], seed=1, bias_scale=0.3)
    x = rng.uniform(0, 1, size=2)
    prev = None
    for scale in (0.5, 1.0, 2.0, 4.0):
        cfg = MmrUniversalConfig(lambda1=1.0, lambda_inf=2.0,
                                 gamma1=0.5 * scale, gamma_inf=0.05 * scale)
        val = mmr_universal(net, x, 1, cfg, kb_now=3)
        if prev is not None:
            assert val >= prev - 1e-12
        prev = val


# -- loss ------------------------------------------------------------------------


def test_loss_plain_ce_when_lambdas_zero():
    rng = np.random.default_rng(9)
    net = random_net([3, 6, 4], seed=7, bias_scale=0.2)
    X = rng.uniform(0, 1, size=(16, 3))
    y = rng.integers(1, 5, size=16)
    cfg = MmrUniversalConfig(lambda1=0.0, lambda_inf=0.0)
    logits, _ = net_core.forward_batch(net, X)
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    ce = np.mean(lse - logits[np.arange(16), y - 1])
    assert loss(net, (X, y), cfg) == pytest.approx(ce, abs=1e-12)


def test_loss_uniform_logits_is_log_k():
    net = ReluNet((np.eye(3), np.zeros((4, 3))), (np.zeros(3), np.zeros(4)))
    X = np.random.default_rng(0).uniform(0, 1, size=(8, 3))
    y = np.ones(8, dtype=np.int64)
    cfg = MmrUniversalConfig(lambda1=0.0, lambda_inf=0.0)
    assert loss(net, (X, y), cfg) == pytest.approx(math.log(4.0), abs=1e-12)


def test_loss_additivity_over_points():
    rng = np.random.default_rng(12)
    net = random_net([2, 8, 3], seed=3, bias_scale=0.4)
    X = rng.uniform(0, 1, size=(6, 2))
    y = rng.integers(1, 4, size=6)
    cfg = MmrUniversalConfig(lambda1=0.9, lambda_inf=2.5, gamma1=0.7, gamma_inf=0.08)
    whole = loss(net, (X, y), cfg, kb_now=2)
    parts = [loss(net, (X[i:i + 1], y[i:i + 1]), cfg, kb_now=2) for i in range(6)]
    assert whole == pytest.approx(np.mean(parts), abs=1e-12)


# -- gradients --------------------------------------------------------------------


def manual_softmax_ce_grad(w, b, X, y):
    logits = X @ w.T + b
    m = logits.max(axis=1, keepdims=True)
    probs = np.exp(logits - m)
    probs /= probs.sum(axis=1, keepdims=True)
    g = probs
    g[np.arange(len(X)), y - 1] -= 1.0
    g /= len(X)
    return g.T @ X, g.sum(axis=0)


def test_gradient_matches_manual_ce_single_layer():
    rng = np.random.default_rng(15)
    w = rng.standard_normal((3, 4))
    b = rng.standard_normal(3)
    net = ReluNet((w,), (b,))
    X = rng.uniform(0, 1, size=(10, 4))
    y = rng.integers(1, 4, size=10)
    cfg = MmrUniversalConfig(lambda1=0.0, lambda_inf=0.0)
    dW, db = loss_gradient(net, (X, y), cfg)
    rw, rb = manual_softmax_ce_grad(w, b, X, y)
    assert np.abs(dW[0] - rw).max() <= 1e-12
    assert np.abs(db[0] - rb).max() <= 1e-12


def test_inactive_hinges_leave_ce_gradient():
    # margins far smaller than every distance: the regularizer contributes
    # exactly zero gradient and the arrays match the plain-CE path bitwise
    net = margin_unit_net()
    X = np.full((3, 10), 0.05)
    y = np.ones(3, dtype=np.int64)
    tight = MmrUniversalConfig(lambda1=1.0, lambda_inf=2.0, gamma1=1e-4, gamma_inf=1e-5)
    off = MmrUniversalConfig(lambda1=0.0, lambda_inf=0.0)
    dW1, db1 = loss_gradient(net, (X, y), tight, kb_now=1)
    dW0, db0 = loss_gradient(net, (X, y), off, kb_now=1)
    for a, b in zip(dW1 + db1, dW0 + db0):
        assert np.array_equal(a, b)


def test_gradient_deterministic():
    rng = np.random.default_rng(2)
    net = random_net([2, 6, 3], seed=5, bias_scale=0.3)
    X = rng.uniform(0, 1, size=(4, 2))
    y = rng.integers(1, 4, size=4)
    cfg = MmrUniversalConfig(lambda1=1.1, lambda_inf=3.0, gamma1=0.6, gamma_inf=0.07)
    a = loss_gradient(net, (X, y), cfg, kb_now=2)
    b = loss_gradient(net, (X, y), cfg, kb_now=2)
    for x1, x2 in zip(a[0] + a[1], b[0] + b[1]):
        assert np.array_equal(x1, x2)


def test_gradient_finite_difference_small():
    from conftest import finite_difference_check, sample_generic_batch
    cfg = MmrUniversalConfig(lambda1=0.8, lambda_inf=2.2, gamma1=0.7, gamma_inf=0.12)
    for seed in range(3):
        net, X, y = sample_generic_batch(seed, [2, 5, 4, 3], 3, cfg, kb=2)
        assert finite_difference_check(net, X, y, cfg, kb=2) <= 1e-4


# -- schedules and training --------------------------------------------------------


def test_kb_schedule_endpoints():
    assert kb_schedule(0, 100, 64) == 13
    assert kb_schedule(99, 100, 64) == 3
    assert kb_schedule(0, 1, 64) == 3
    assert kb_schedule(50, 100, 4) >= 1


def test_lambda_ramp():
    assert lambda_ramp_factor(0, 10) == pytest.approx(0.1)
    assert lambda_ramp_factor(5, 10) == pytest.approx(0.55)
    assert lambda_ramp_factor(10, 10) == pytest.approx(1.0)
    assert lambda_ramp_factor(40, 10) == pytest.approx(1.0)
    assert lambda_ramp_factor(3, 0) == pytest.approx(1.0)


def test_train_is_reproducible_and_plain_reaches_zero_error(trained_pairs, monkeypatch):
    run = trained_pairs["runs"][0]
    X, y = run["train"].features, run["train"].labels
    train_error = float(np.mean(net_core.classify_batch(run["plain"], X) != y))
    assert train_error == 0.0
    # zero-regularizer path is bit-reproducible given the same seed
    monkeypatch.setattr(mmr_train, "LAMBDA_RAMP_EPOCHS", 0)
    cfg = MmrUniversalConfig(lambda1=0.0, lambda_inf=0.0)
    tc = TrainConfig(epochs=3, seed=11)
    net0 = random_net([2, 12, 2], seed=11)
    small = type(run["train"])(run["train"].features[:128], run["train"].labels[:128])
    n1, _ = train(net0, small, cfg, tc)
    n2, _ = train(net0, small, cfg, tc)
    for a, b in zip(n1.weights + n1.biases, n2.weights + n2.biases):
        assert np.array_equal(a, b)


def test_train_kb_schedule_recorded(trained_pairs):
    hist = trained_pairs["runs"][0]["mmr_hist"]
    assert hist[0]["kb"] == 13
    assert hist[-1]["kb"] == 3
    assert hist[0]["lambda_scale"] == pytest.approx(0.1)
    assert hist[-1]["lambda_scale"] == pytest.approx(1.0)


def test_regularized_model_has_larger_margins(trained_pairs):
    from relucert.certify import point_certificate
    for run in trained_pairs["runs"]:
        X, y = run["train"].features[:100], run["train"].labels[:100]
        med = {}
        for kind in ("plain", "mmr"):
            rho1 = []
            rho_inf = []
            for i in range(len(X)):
                pc = point_certificate(run[kind], X[i], int(y[i]))
                rho1.append(pc.rho1 if math.isfinite(pc.rho1) else 0.0)
                rho_inf.append(pc.rho_inf if math.isfinite(pc.rho_inf) else 0.0)
            med[kind] = (np.median(rho1), np.median(rho_inf))
        assert med["mmr"][0] > med["plain"][0]
        assert med["mmr"][1] > med["plain"][1]


def test_loss_decreases_early_smoke(monkeypatch):
    # constant lambda (no ramp) so per-epoch losses are comparable
    from relucert.datasets import gen_blobs
    monkeypatch.setattr(mmr_train, "LAMBDA_RAMP_EPOCHS", 0)
    cfg = MmrUniversalConfig(lambda1=1.0, lambda_inf=6.0, gamma1=1.0, gamma_inf=0.1)
    drops = 0
    for seed in range(10):
        ds = gen_blobs(96, seed=seed + 40)
        net0 = random_net([2, 12, 2], seed=seed)
        tc = TrainConfig(epochs=10, batch_size=16, learning_rate=2e-3, seed=seed)
        _, hist = train(net0, ds, cfg, tc)
        if hist[9]["loss"] < hist[0]["loss"]:
            drops += 1
    assert drops >= 9


def test_training_aborts_on_divergence():
    # identical output rows with a negative constant margin: the decision
    # distance is -inf, the hinge infinite, and training must abort
    w1 = np.ones((2, 2))
    w2 = np.array([[1.0, 0.0], [1.0, 0.0]])
    net0 = ReluNet((w1, w2), (np.zeros(2), np.array([0.0, 1.0])))
    X = np.full((4, 2), 0.5)
    y = np.ones(4, dtype=np.int64)

    class _DS:
        features = X
        labels = y

    cfg = MmrUniversalConfig(lambda1=1.0, lambda_inf=1.0)
    tc = TrainConfig(epochs=10, seed=0)
    with pytest.raises(TrainingDiverged):
        train(net0, _DS(), cfg, tc)
