import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relucert import certify, cli, geometry, net_core
from relucert.cli import Report, derive_eps2, main, run_evaluation
from relucert.datasets import Dataset, gen_blobs, gen_corners, gen_moons, load_dataset, save_dataset

from oracles import hull_boundary_oracle


# -- dataset container --------------------------------------------------------


def test_xor_csv(tmp_path):
    path = tmp_path / "xor.csv"
    path.write_text("0,0,1\n0,1,2\n1,0,2\n1,1,1\n")
    ds = load_dataset(path)
    assert ds.dim == 2 and ds.num_classes == 2 and ds.count == 4
    assert list(ds.labels) == [1, 2, 2, 1]


def test_binary_round_trip_bit_exact(tmp_path):
    ds = gen_blobs(257, seed=3)
    path = tmp_path / "blobs.bin"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.features.tobytes() == ds.features.tobytes()
    assert np.array_equal(back.labels, ds.labels)
    assert back.num_classes == ds.num_classes


def test_csv_round_trip(tmp_path):
    ds = gen_moons(64, seed=5)
    path = tmp_path / "moons.csv"
    save_dataset(ds, path, fmt="csv")
    back = load_dataset(path)
    assert np.abs(back.features - ds.features).max() == 0.0
    assert np.array_equal(back.labels, ds.labels)


def test_labels_out_of_range_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.1,0.2,0\n0.3,0.4,1\n")
    with pytest.raises(ValueError):
        load_dataset(path)
    with pytest.raises(ValueError):
        Dataset(np.array([[0.1, 0.2]]), np.array([3]), num_classes=2)


def test_features_out_of_box_rejected():
    with pytest.raises(ValueError):
        Dataset(np.array([[1.2, 0.0]]), np.array([1]))


def test_malformed_header_messages(tmp_path):
    path = tmp_path / "broken.bin"
    path.write_bytes(b'{"d": 2, "count": 3}\n' + b"\x00" * 10)
    with pytest.raises(ValueError, match="missing key"):
        load_dataset(path)
    ds = gen_blobs(10, seed=0)
    good = tmp_path / "good.bin"
    save_dataset(ds, good)
    payload = good.read_bytes()
    (tmp_path / "short.bin").write_bytes(payload[:-8])
    with pytest.raises(ValueError, match="payload"):
        load_dataset(tmp_path / "short.bin")


def test_csv_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.1,0.2,1\n0.3,oops,2\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        load_dataset(path)


def test_generators_ranges():
    for ds in (gen_blobs(200, seed=1), gen_moons(200, seed=2),
               gen_corners(100, seed=3)):
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
        assert ds.labels.min() >= 1 and ds.labels.max() <= ds.num_classes
    assert gen_corners(50, seed=4).dim == 16


CORNERS_LIMIT = r"corners need dim >= 1 and 1 <= num_classes <= 2\*\*dim"


@pytest.mark.parametrize("dim,classes", [(2, 5), (0, 2), (16, 0), (1, 3)])
def test_gen_corners_rejects_more_classes_than_corners(dim, classes):
    # one corner per class: no dimension, no class or more classes than corners
    with pytest.raises(ValueError, match=fr"{CORNERS_LIMIT} .*got dim {dim}, num_classes "
                                         fr"{classes}$"):
        gen_corners(10, seed=0, dim=dim, num_classes=classes)


def test_gen_corners_may_use_every_corner():
    ds = gen_corners(200, seed=0, dim=2, num_classes=4)
    assert ds.num_classes == 4 and set(ds.labels.tolist()) == {1, 2, 3, 4}


@pytest.mark.parametrize("dim, classes", [(4, 16), (5, 32)])
def test_cli_gen_corners_with_every_corner_ends(tmp_path, dim, classes):
    # one draw of 16 prototypes at dim 4 is distinct with probability
    # 16!/16**16 = 1.1e-6, so redrawing them all until distinct did not end;
    # after a repeat the corners are drawn without replacement
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = tmp_path / "corners.bin"
    proc = subprocess.run([sys.executable, "-m", "relucert", "gen-data", "--kind", "corners",
                           "--n", "400", "--dim", str(dim), "--classes", str(classes),
                           "--std", "0", "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    ds = load_dataset(out)
    assert set(ds.labels.tolist()) == set(range(1, classes + 1))
    groups = [ds.features[ds.labels == k] for k in range(1, classes + 1)]
    assert all((g == g[0]).all() for g in groups)  # no spread: each class sits on its corner
    protos = np.array([g[0] for g in groups])
    assert np.isin(protos, (0.15, 0.85)).all() and len(np.unique(protos, axis=0)) == classes


@pytest.mark.parametrize("n, seed, dim, classes", [
    (300, 1, 3, 3), (300, 5, 8, 4), (300, 2, 16, 2)])
def test_gen_corners_keeps_a_distinct_first_draw(n, seed, dim, classes):
    # where the first draw of prototypes has no repeat, the dataset is
    # that draw with its labels and spread, as before the redraw changed
    rng = np.random.default_rng(seed)
    protos = rng.choice([0.15, 0.85], size=(classes, dim))
    assert len(np.unique(protos, axis=0)) == classes
    y = rng.integers(0, classes, size=n)
    X = np.clip(protos[y] + 0.08 * rng.standard_normal((n, dim)), 0.0, 1.0)
    ds = gen_corners(n, seed=seed, dim=dim, num_classes=classes)
    assert ds.features.tobytes() == X.tobytes() and ds.labels.tobytes() == (y + 1).tobytes()


def test_gen_corners_benchmark_pool_is_unchanged(tmp_path):
    # the corners benchmark draws its pool with gen-data seed 0, d 16, 2
    # classes and spread 0.08; its bytes are pinned
    out = tmp_path / "pool.bin"
    save_dataset(gen_corners(21000, seed=0, spread=0.08), out)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "b29b4c98999fdba43ec706ee95df0418d0e69f4dacaa9196ea5e29da6bb9e725"


@pytest.mark.parametrize("args,rejected", [
    (["--dim", "2", "--classes", "5"], True),
    (["--dim", "0"], True),
    (["--classes", "0"], True),
    (["--dim", "2", "--classes", "4"], False),
], ids=["classes-5-dim-2", "dim-0", "classes-0", "classes-4-dim-2"])
def test_cli_gen_corners_class_limit(tmp_path, capsys, args, rejected):
    out = tmp_path / "corners.bin"
    code = main(["gen-data", "--kind", "corners", "--n", "20", *args, "--out", str(out)])
    captured = capsys.readouterr()
    if rejected:
        assert code == 1 and captured.out == "" and not out.exists()
        assert re.match(f"error: {CORNERS_LIMIT}", captured.err), captured.err
    else:
        assert code == 0 and json.loads(captured.out)["K"] == 4
        assert load_dataset(out).num_classes == 4


def test_head_takes_the_first_points_and_rejects_negative_counts():
    ds = gen_blobs(10, seed=0)
    assert ds.head(0).count == 0 and ds.head(3).count == 3 and ds.head(20).count == 10
    np.testing.assert_array_equal(ds.head(3).features, ds.features[:3])
    with pytest.raises(ValueError, match="n >= 0"):
        ds.head(-1)


# -- malformed files -----------------------------------------------------------


def _valid_files():
    """Bytes of a valid model container (as save_model writes it), binary
    dataset and CSV dataset, and the JSON headers of the two containers."""
    model = net_core.random_net([2, 3, 2], seed=1, bias_scale=0.1)
    ds = gen_blobs(3, seed=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.bin")
        net_core.save_model(model, path)
        with open(path, "rb") as fh:
            model_bytes = fh.read()
    header = {"d": 2, "K": 2, "count": 3, "dtype": "f64", "layout": "row-major"}
    binary = (json.dumps(header).encode() + b"\n" + ds.features.astype("<f8").tobytes()
              + ds.labels.astype("<i8").tobytes())
    csv = "".join(",".join(repr(float(v)) for v in row) + f",{lab}\n"
                  for row, lab in zip(ds.features, ds.labels)).encode()
    model_doc = json.loads(model_bytes.split(b"\n", 1)[0])
    return {"model": model_bytes, "bin": binary, "csv": csv}, model_doc, header


VALID, MODEL_DOC, HEADER_DOC = _valid_files()
PAYLOAD = {kind: VALID[kind].split(b"\n", 1)[1] for kind in ("model", "bin")}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=4),
    max_leaves=8)


def _loaders_raise_only_value_error(tmp_path_factory, data: bytes):
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_bytes(data)
    for loader in (net_core.load_model, load_dataset):
        try:
            loader(path)
        except ValueError:
            pass


def _json_paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return out


def _model_file(path, header=MODEL_DOC, payload=PAYLOAD["model"]):
    """Write a model container with the given header and payload."""
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    return path


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=300))
def test_loaders_reject_random_bytes_with_value_error(tmp_path_factory, data):
    _loaders_raise_only_value_error(tmp_path_factory, data)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(VALID)), edits=st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(0, 8), st.binary(max_size=8),
              st.booleans()),
    min_size=1, max_size=4))
def test_loaders_reject_mutated_bytes_with_value_error(tmp_path_factory, kind, edits):
    # each edit replaces up to 8 bytes at some offset by up to 8 others, or
    # overwrites bytes in place, keeping the length: in a container's
    # payload that reaches the parameter and label checks
    data = VALID[kind]
    for pos, length, new, in_place in edits:
        pos %= len(data) + 1
        if in_place:
            length = len(new)
        data = data[:pos] + new + data[pos + length:]
    _loaders_raise_only_value_error(tmp_path_factory, data)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_loaders_reject_mutated_documents_with_value_error(tmp_path_factory, data):
    # replace one node of the model or dataset header by an arbitrary JSON
    # value (5 for the whole header, null for input_dim, [1] for rows, ...)
    # and append the container's real payload
    which = data.draw(st.sampled_from(["model", "bin"]))
    doc = MODEL_DOC if which == "model" else HEADER_DOC
    path = data.draw(st.sampled_from(list(_json_paths(doc))))
    text = json.dumps(_replaced(doc, path, data.draw(JSON_VALUES))).encode()
    _loaders_raise_only_value_error(tmp_path_factory, text + b"\n" + PAYLOAD[which])


@pytest.mark.parametrize("text", [
    "5", "[1, 2]", '"model"', "null",
    '{"input_dim": null, "num_classes": 2, "layers": []}',
])
def test_load_model_rejects_non_object_json(tmp_path, text, capsys):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="model.json"):
        net_core.load_model(path)
    assert main(["certify", "--model", str(path), "--data", str(path), "--eps1", "1",
                 "--eps2", "0.5", "--epsinf", "0.1"]) == 1
    assert "model.json" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("input_dim", None), ("input_dim", "2"), ("input_dim", 2.5), ("num_classes", True),
])
def test_load_model_rejects_non_integer_sizes(tmp_path, field, value):
    path = _model_file(tmp_path / "model.bin", dict(MODEL_DOC, **{field: value}))
    with pytest.raises(ValueError, match=field):
        net_core.load_model(path)


@pytest.mark.parametrize("layer", [
    5, {"rows": [1], "cols": 2}, {"rows": 3, "cols": 2.0}, {"rows": 3}, {"cols": 2},
])
def test_load_model_rejects_malformed_layers(tmp_path, layer):
    path = _model_file(tmp_path / "model.bin",
                       dict(MODEL_DOC, layers=[layer] + MODEL_DOC["layers"][1:]))
    with pytest.raises(ValueError, match="model.bin"):
        net_core.load_model(path)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_load_model_rejects_non_finite_parameters(tmp_path, value):
    payload = np.frombuffer(PAYLOAD["model"], dtype="<f8").copy()
    payload[-1] = value
    path = _model_file(tmp_path / "model.bin", payload=payload.tobytes())
    with pytest.raises(ValueError, match="model.bin.*finite"):
        net_core.load_model(path)


@pytest.mark.parametrize("payload", [PAYLOAD["model"][:-1], PAYLOAD["model"] + b"\0"],
                         ids=["one-byte-short", "one-byte-long"])
def test_load_model_rejects_payload_of_the_wrong_length(tmp_path, payload):
    path = _model_file(tmp_path / "model.bin", payload=payload)
    with pytest.raises(ValueError, match="model.bin: payload has"):
        net_core.load_model(path)


@pytest.mark.parametrize("dtype", ["f32", "<f8", None])
def test_load_model_rejects_other_dtypes(tmp_path, dtype):
    path = _model_file(tmp_path / "model.bin", dict(MODEL_DOC, dtype=dtype))
    with pytest.raises(ValueError, match="model.bin: unsupported dtype"):
        net_core.load_model(path)


@pytest.mark.parametrize("size", [2**31, 2**62, 10**30])
def test_load_model_rejects_huge_sizes_without_allocating(tmp_path, size):
    # a consistent chain of huge layers gets as far as the payload length
    chained = dict(MODEL_DOC, input_dim=size, num_classes=size,
                   layers=[{"rows": size, "cols": size}])
    broken = dict(MODEL_DOC, layers=[{"rows": size, "cols": 2}] + MODEL_DOC["layers"][1:])
    for header, message in ((chained, "payload has"), (broken, "columns")):
        path = _model_file(tmp_path / "model.bin", header)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                net_core.load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def test_load_model_rejects_float_list_json(tmp_path, capsys):
    # the former model format: one JSON document with the parameters as lists
    net = net_core.random_net([2, 3, 2], seed=1, bias_scale=0.1)
    doc = {"input_dim": 2, "num_classes": 2, "layers": [
        {"rows": int(w.shape[0]), "cols": int(w.shape[1]),
         "weights": w.ravel().tolist(), "bias": b.tolist()}
        for w, b in zip(net.weights, net.biases)]}
    path = tmp_path / "old-model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="old-model.json: not a model container"):
        net_core.load_model(path)
    data = tmp_path / "blobs.bin"
    save_dataset(gen_blobs(8, seed=0), data)
    assert main(["certify", "--model", str(path), "--data", str(data), "--eps1", "1",
                 "--eps2", "0.5", "--epsinf", "0.1"]) == 1
    assert "old-model.json" in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    b"0.3,0.4,1\n0.1,0.2,inf\n", b"0.3,0.4,1\n0.1,0.2,nan\n", b"0.3,0.4,1\n0.1,0.2,1e300\n",
    b"\xff\xfe0.1,1\n",
], ids=["inf-label", "nan-label", "label-beyond-int64", "not-utf8"])
def test_csv_rejections_name_the_path(tmp_path, data):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError, match="bad.csv"):
        load_dataset(path)


# -- derive_eps2 ----------------------------------------------------------------


@pytest.mark.parametrize("eps1,eps_inf,expected", [
    (1.0, 0.1, 0.3162),
    (3.0, 4.0 / 255.0, 0.2170),
    (2.0, 2.0 / 255.0, 0.1252),
])
def test_derive_eps2_reference_values(eps1, eps_inf, expected):
    assert derive_eps2(eps1, eps_inf) == pytest.approx(expected, abs=5e-5)


def test_derive_eps2_domain():
    with pytest.raises(ValueError):
        derive_eps2(0.1, 0.2)
    with pytest.raises(ValueError):
        derive_eps2(1.0, 0.0)


@pytest.mark.parametrize("eps1,eps_inf", [(1.0, 0.1), (0.5, 0.05), (0.05, 0.01)])
def test_derive_eps2_dim_below_containment_is_the_two_argument_value(eps1, eps_inf):
    # eps1 < dim * eps_inf: the hull formula is exact, with or without dim
    assert derive_eps2(eps1, eps_inf, 16) == derive_eps2(eps1, eps_inf)
    assert derive_eps2(eps1, eps_inf) == geometry.hull_min_norm(eps1, eps_inf, 2.0)


@pytest.mark.parametrize("d,eps1,eps_inf", [(2, 0.5, 0.05), (2, 0.47, 0.1), (3, 1.0, 0.2)])
def test_derive_eps2_uses_the_l1_ball_when_it_contains_the_linf_ball(d, eps1, eps_inf):
    # the blobs example: d=2, eps1=0.5, eps_inf=0.05 is 0.354, not 0.158
    value = derive_eps2(eps1, eps_inf, d)
    assert value == eps1 / math.sqrt(d)
    assert value > derive_eps2(eps1, eps_inf)
    sampled = hull_boundary_oracle(geometry.BallPair(eps1, eps_inf, d), 2.0,
                                   num_dirs=20_000, seed=0)
    assert value <= sampled <= value * (1 + 1e-3)


def test_derive_eps2_is_continuous_at_containment():
    for d, eps_inf in ((2, 0.1), (16, 0.3), (784, 0.01)):
        below = derive_eps2(d * eps_inf * (1 - 1e-12), eps_inf, d)
        assert derive_eps2(d * eps_inf, eps_inf, d) == pytest.approx(below, rel=1e-9)


def test_report_default_eps2_uses_the_data_dimension(eval_inputs):
    _, _, model, data, _ = eval_inputs
    rep = run_evaluation(model, data, (0.2, None, 0.02), limit=20, iterations=5,
                         restarts=2, deterministic=True)
    assert rep.eps["eps2"] == derive_eps2(0.2, 0.02, 2) == 0.2 / math.sqrt(2)
    explicit = run_evaluation(model, data, (0.2, 0.2 / math.sqrt(2), 0.02), limit=20,
                              iterations=5, restarts=2, deterministic=True)
    assert explicit.to_json() == rep.to_json()


# -- report ---------------------------------------------------------------------


def test_report_invariant_enforced():
    rep = Report(model_id="m", eps={}, test_error=0.1,
                 per_norm={"l1": {"lb": 0.5, "ub": 0.4}}, union={"lb": 0.1, "ub": 0.2},
                 seeds={}, config={})
    with pytest.raises(ValueError, match="invariant"):
        rep.validate()


def test_run_evaluation_pair_improvement(trained_pairs, tmp_path):
    eps = trained_pairs["eps"]
    run = trained_pairs["runs"][0]
    paths = {}
    for kind in ("plain", "mmr"):
        mp = tmp_path / f"{kind}.json"
        net_core.save_model(run[kind], mp)
        dp = tmp_path / f"{kind}.bin"
        save_dataset(run["test"], dp)
        paths[kind] = (mp, dp)
    reports = {}
    for kind, (mp, dp) in paths.items():
        rep = run_evaluation(mp, dp, eps, seed=5, limit=200, iterations=40,
                             restarts=4, deterministic=True)
        rep.validate()
        reports[kind] = rep
    assert reports["mmr"].union["ub"] < reports["plain"].union["ub"]
    for rep in reports.values():
        assert rep.union["lb"] <= rep.union["ub"] + 1e-12
        assert rep.runtime_seconds is None


# -- CLI ------------------------------------------------------------------------


def test_cli_full_pipeline(tmp_path, capsys):
    data = tmp_path / "train.bin"
    test = tmp_path / "test.bin"
    model = tmp_path / "model.json"
    assert main(["gen-data", "--kind", "blobs", "--n", "250", "--seed", "0",
                 "--out", str(data)]) == 0
    assert main(["gen-data", "--kind", "blobs", "--n", "120", "--seed", "7",
                 "--out", str(test)]) == 0
    assert main(["train", "--data", str(data), "--arch", "16", "--epochs", "25",
                 "--lambda1", "0", "--lambdainf", "0", "--lr", "0.002",
                 "--seed", "1", "--out", str(model),
                 "--history", str(tmp_path / "hist.csv")]) == 0
    capsys.readouterr()
    assert main(["certify", "--model", str(model), "--data", str(test),
                 "--eps1", "0.1", "--eps2", "0.05", "--epsinf", "0.01",
                 "--per-point-csv", str(tmp_path / "certs.csv")]) == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert set(summary) == {"test_error", "regions", "ub_l1", "ub_l2", "ub_linf", "ub_union"}
    assert 1 <= summary["regions"] <= 120
    assert summary["ub_union"] >= max(summary["ub_l1"], summary["ub_linf"])
    lines = (tmp_path / "certs.csv").read_text().strip().splitlines()
    assert len(lines) == 121
    assert main(["attack", "--model", str(model), "--data", str(test),
                 "--norm", "all", "--eps1", "0.1", "--eps2", "0.05",
                 "--epsinf", "0.01", "--iters", "20", "--restarts", "2",
                 "--seed", "3", "--limit", "60",
                 "--per-point-csv", str(tmp_path / "adv.csv")]) == 0
    att = json.loads(capsys.readouterr().out.strip())
    assert "lb_union" in att and "overlap" in att
    hist = (tmp_path / "hist.csv").read_text().splitlines()
    assert hist[0].startswith("epoch,loss,test_error")
    assert len(hist) == 26


def test_cli_geometry_reproduces_ratio(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["geometry", "--d", "784", "--out", str(out)]) == 0
    info = json.loads(capsys.readouterr().out.strip())
    assert info["max_ratio"] == pytest.approx(3.8, abs=0.1)
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "delta,naive,union,hull,ratio"
    assert len(rows) == 2049


def test_cli_report_deterministic_and_valid(tmp_path, capsys):
    data = tmp_path / "d.bin"
    model = tmp_path / "m.json"
    main(["gen-data", "--kind", "blobs", "--n", "150", "--seed", "2",
          "--out", str(data)])
    main(["train", "--data", str(data), "--arch", "8", "--epochs", "12",
          "--lambda1", "0", "--lambdainf", "0", "--seed", "2",
          "--out", str(model)])
    capsys.readouterr()
    args = ["report", "--model", str(model), "--data", str(data),
            "--eps1", "0.2", "--epsinf", "0.02", "--iters", "15",
            "--restarts", "2", "--seed", "4", "--limit", "80",
            "--deterministic"]
    assert main(args + ["--out", str(tmp_path / "r1.json"),
                        "--csv", str(tmp_path / "r1.csv")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2.json")]) == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    rep = json.loads((tmp_path / "r1.json").read_text())
    for name in ("l1", "l2", "linf"):
        assert rep["per_norm"][name]["lb"] <= rep["per_norm"][name]["ub"] + 1e-12
    assert rep["union"]["lb"] <= rep["union"]["ub"] + 1e-12
    csv_lines = (tmp_path / "r1.csv").read_text().splitlines()
    assert len(csv_lines) == 2


def test_cli_exit_codes(tmp_path, capsys):
    # missing file -> nonzero exit, message on stderr
    assert main(["certify", "--model", str(tmp_path / "nope.json"),
                 "--data", str(tmp_path / "nope.bin"),
                 "--eps1", "0.1", "--eps2", "0.1", "--epsinf", "0.1"]) == 1
    assert "error:" in capsys.readouterr().err
    # invalid request: attack without the needed eps
    data = tmp_path / "d.csv"
    data.write_text("0.1,0.2,1\n0.9,0.8,2\n")
    model = tmp_path / "m.json"
    net_core.save_model(net_core.random_net([2, 4, 2], seed=0), model)
    assert main(["attack", "--model", str(model), "--data", str(data),
                 "--norm", "l1", "--iters", "5", "--restarts", "1"]) == 1


@pytest.mark.parametrize("norm", ["l2", "all"])
def test_cli_attack_rejects_label_out_of_range(tmp_path, capsys, norm):
    # a 3-class dataset on a 2-class model: the same message as certify
    data = tmp_path / "d.csv"
    data.write_text("0.1,0.2,1\n0.9,0.8,3\n")
    model = tmp_path / "m.json"
    net_core.save_model(net_core.random_net([2, 4, 2], seed=0), model)
    eps = ["--eps1", "0.2", "--eps2", "0.1", "--epsinf", "0.05"]
    capsys.readouterr()
    assert main(["certify", "--model", str(model), "--data", str(data), *eps]) == 1
    assert capsys.readouterr().err == "error: label 3 out of range 1..2\n"
    assert main(["attack", "--model", str(model), "--data", str(data), "--norm", norm,
                 *eps, "--iters", "5", "--restarts", "2"]) == 1
    assert capsys.readouterr().err == "error: label 3 out of range 1..2\n"


# -- one evaluation path ----------------------------------------------------------


EVAL_EPS = (0.2, 0.1, 0.06)


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    """A tiny 2-8-2 net saved as a model, and 120 points it classifies
    correctly except for 10 flipped labels."""
    from conftest import tiny_net

    tmp = tmp_path_factory.mktemp("evaluation")
    net = tiny_net(0)
    X = np.random.default_rng(5).uniform(0, 1, size=(120, 2))
    y = net_core.classify_batch(net, X)
    y[:10] = 3 - y[:10]
    model, data = tmp / "m.json", tmp / "d.bin"
    net_core.save_model(net, model)
    save_dataset(Dataset(X, y, num_classes=2), data)
    return net, load_dataset(data), str(model), str(data), tmp


def _run(capsys, argv):
    assert main([str(a) for a in argv]) == 0
    return capsys.readouterr().out


def _eps_args(eps=EVAL_EPS):
    return ["--eps1", eps[0], "--eps2", eps[1], "--epsinf", eps[2]]


ATTACK_ARGS = ["--iters", 3, "--restarts", 3, "--seed", 4, "--limit", 90]


def test_attack_single_norm_matches_all(eval_inputs, capsys):
    _, _, model, data, tmp = eval_inputs
    base = ["attack", "--model", model, "--data", data, *_eps_args(), *ATTACK_ARGS]
    _run(capsys, base + ["--norm", "all", "--per-point-csv", tmp / "all.csv"])
    all_rows = (tmp / "all.csv").read_text().splitlines()
    names = all_rows[0].split(",")
    for norm in ("l1", "l2", "linf"):
        _run(capsys, base + ["--norm", norm, "--per-point-csv", tmp / f"{norm}.csv"])
        one_rows = (tmp / f"{norm}.csv").read_text().splitlines()
        assert one_rows[0] == f"index,success_{norm},norm_{norm}"
        cols = [names.index(f"success_{norm}"), names.index(f"norm_{norm}")]
        for a, b in zip(all_rows[1:], one_rows[1:]):
            assert [a.split(",")[c] for c in cols] == b.split(",")[1:]


def test_attack_rates_match_report_lower_bounds(eval_inputs, capsys):
    _, _, model, data, _ = eval_inputs
    att = json.loads(_run(capsys, ["attack", "--model", model, "--data", data, "--norm",
                                   "all", *_eps_args(), *ATTACK_ARGS]))
    rep = json.loads(_run(capsys, ["report", "--model", model, "--data", data,
                                   *_eps_args(), *ATTACK_ARGS, "--deterministic"]))
    for norm in ("l1", "l2", "linf"):
        assert att[norm]["success_rate"] == rep["per_norm"][norm]["lb"]
    assert att["lb_union"] == rep["union"]["lb"]
    assert 0.0 < att["lb_union"] < 1.0


def test_certify_summary_is_the_one_upper_bound(eval_inputs, capsys):
    net, ds, model, data, _ = eval_inputs
    summary = json.loads(_run(capsys, ["certify", "--model", model, "--data", data,
                                       *_eps_args(), "--limit", 90]))
    sub = ds.head(90)
    certs = certify.certificates(net, sub.features, sub.labels)
    ub = certify.bounds(certs, EVAL_EPS)
    assert summary == {"test_error": summary["test_error"],
                       "regions": len(np.unique(certs.region)),
                       **{f"ub_{name}": v for name, v in ub.items()}}
    rep = run_evaluation(model, data, EVAL_EPS, seed=4, limit=90, iterations=5,
                         restarts=1, deterministic=True)
    for norm in ("l1", "l2", "linf"):
        assert rep.per_norm[norm]["ub"] == ub[norm]
    assert rep.union["ub"] == ub["union"]
    assert 0.0 < ub["union"] < 1.0


def test_certify_summary_counts_activation_regions(tmp_path, capsys):
    from conftest import cleared_net, hand_net

    # a net whose biases clear every unit over the box: one region
    net = cleared_net([16, 32, 32, 2])
    X = np.random.default_rng(2).uniform(0, 1, size=(50, 16))
    model, data = tmp_path / "m.json", tmp_path / "d.bin"
    net_core.save_model(net, model)
    save_dataset(Dataset(X, net_core.classify_batch(net, X), num_classes=2), data)
    summary = json.loads(_run(capsys, ["certify", "--model", model, "--data", data,
                                       *_eps_args()]))
    assert summary["regions"] == 1
    # the hand net's units switch on at x1 = 1 and x2 = 1, outside the box the
    # CLI accepts: both units off at (0.5, 0.5), the first one on at (1.5, 0.5)
    X = np.array([[0.5, 0.5], [1.5, 0.5], [0.2, 0.7]])
    certs = certify.certificates(hand_net(), X, [2, 1, 2])
    assert certs.region.tolist() == [0, 1, 0]
    assert cli._certify_summary(certs, EVAL_EPS)["regions"] == 2


def test_python_m_runs_the_cli_without_warnings(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for module in ("relucert.cli", "relucert"):
        out = tmp_path / f"{module}.csv"
        proc = subprocess.run([sys.executable, "-m", module, "geometry", "--d", "2", "--num",
                               "8", "--out", str(out)], capture_output=True, text=True,
                              env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert json.loads(proc.stdout)["d"] == 2 and out.is_file()


def test_report_rejects_an_adversarial_inside_a_certificate(eval_inputs, monkeypatch):
    # an over-claiming certificate: every point's single-norm l2 bound is 10,
    # more than any perturbation within the unit box, so each point the l2
    # attack breaks contradicts it
    _, _, model, data, _ = eval_inputs
    real = certify.certificates

    def over_claiming(net, X, labels):
        certs = real(net, X, labels)
        return dataclasses.replace(certs, single_l2=np.full(len(X), 10.0))

    monkeypatch.setattr(certify, "certificates", over_claiming)
    with pytest.raises(RuntimeError, match=r"point \d+: l2 adversarial of norm .* "
                                           r"certified radius 10\.0"):
        run_evaluation(model, data, EVAL_EPS, seed=4, limit=90, iterations=5, restarts=1,
                       deterministic=True)


# -- arguments from outside --------------------------------------------------------


COMMAND_ARGS = {
    "certify": _eps_args(),
    "attack": [*_eps_args(), "--iters", 2, "--restarts", 1],
    "report": [*_eps_args(), "--iters", 2, "--restarts", 1, "--deterministic"],
}


@pytest.mark.parametrize("limit", ["-3", "0", "1.5", "all"])
@pytest.mark.parametrize("command", list(COMMAND_ARGS))
def test_cli_limit_must_be_a_positive_integer(eval_inputs, capsys, command, limit):
    # a negative limit used to slice from the end and 0 to mean "all points"
    _, _, model, data, _ = eval_inputs
    argv = [command, "--model", model, "--data", data, *COMMAND_ARGS[command]]
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv] + ["--limit", limit])
    assert exc.value.code == 2
    assert f"--limit: must be an integer >= 1, got '{limit}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(COMMAND_ARGS))
def test_cli_limit_takes_the_first_points(eval_inputs, capsys, command):
    _, _, model, data, tmp = eval_inputs
    csv = tmp / f"{command}-limit.csv"
    argv = [command, "--model", model, "--data", data, *COMMAND_ARGS[command], "--limit", 3]
    if command == "report":
        rep = json.loads(_run(capsys, argv))
        assert rep["config"]["points_evaluated"] == 3
    else:
        _run(capsys, argv + ["--per-point-csv", csv])
        assert len(csv.read_text().splitlines()) == 1 + 3


@pytest.mark.parametrize("bad", ["-1", "nan", "inf"])
@pytest.mark.parametrize("flag", ["--eps1", "--eps2", "--epsinf"])
@pytest.mark.parametrize("command", list(COMMAND_ARGS))
def test_cli_rejects_radii_that_are_not_finite_and_nonnegative(eval_inputs, capsys,
                                                               monkeypatch, command, flag, bad):
    _, _, model, data, _ = eval_inputs
    args = [str(a) for a in COMMAND_ARGS[command]]
    args[args.index(flag) + 1] = bad
    if command == "report":
        # the radii are checked before any attack runs
        monkeypatch.setattr(cli.attacks, "attack_norms",
                            lambda *a, **k: pytest.fail("report attacked with a bad radius"))
    assert main([command, "--model", model, "--data", data, *args, "--limit", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    name = {"--eps1": "eps1", "--eps2": "eps2", "--epsinf": "eps_inf"}[flag]
    assert captured.err.startswith(f"error: {name} must be finite and >= 0, got ")
