import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relucert import certify, cli, geometry, mmr_train, net_core
from relucert.cli import Report, derive_eps2, main, run_evaluation
from relucert.datasets import Dataset, gen_blobs, gen_corners, load_dataset, save_dataset

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


def test_binary_files_are_the_header_line_and_the_arrays_bytes(tmp_path):
    # the container as a reference writer makes it: the JSON header line,
    # then the features and the labels as little-endian bytes, row-major
    for ds in (gen_blobs(257, seed=3), gen_corners(40, seed=1, dim=9, num_classes=4),
               Dataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), num_classes=2)):
        path = tmp_path / "data.bin"
        save_dataset(ds, path)
        header = {"d": ds.dim, "K": ds.num_classes, "count": ds.count, "dtype": "f64",
                  "layout": "row-major"}
        assert path.read_bytes() == (json.dumps(header).encode() + b"\n"
                                     + ds.features.astype("<f8").tobytes()
                                     + ds.labels.astype("<i8").tobytes())


def _traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees fn(*args) allocate, and its result."""
    tracemalloc.start()
    out = fn(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak, out


@pytest.mark.parametrize("n", [2000, 40000])
def test_save_dataset_writes_from_the_arrays_buffers(tmp_path, n):
    # no copy of the features or labels: nothing allocated grows with the data
    peak, _ = _traced_peak(save_dataset, gen_corners(n, seed=2, dim=32), tmp_path / "data.bin")
    assert peak <= 64 * 1024, peak


@pytest.mark.parametrize("n", [2000, 40000])
def test_load_dataset_holds_one_copy_of_the_payload(tmp_path, n):
    # the payload is read into memory once, and the features and labels
    # are views of it
    ds, path = gen_corners(n, seed=2, dim=32), tmp_path / "data.bin"
    save_dataset(ds, path)
    peak, back = _traced_peak(load_dataset, path)
    assert peak <= ds.features.nbytes + ds.labels.nbytes + 64 * 1024, peak
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()


def test_load_dataset_reads_a_pipe(tmp_path):
    # a pipe reports no size: its payload is read to the end all the same
    ds, path, fifo = gen_blobs(300, seed=1), tmp_path / "data.bin", tmp_path / "fifo"
    save_dataset(ds, path)
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
    writer.start()
    back = load_dataset(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()


def test_load_csv_holds_the_file_and_one_feature_buffer(tmp_path):
    # the text was decoded whole and held again as io.StringIO's 4-byte
    # characters, and the features as a list of Python floats per row: the
    # peak was 7.7 times the file
    ds, path = gen_corners(300, seed=4, dim=784, num_classes=10), tmp_path / "c784.csv"
    save_dataset(ds, path, fmt="csv")
    size = path.stat().st_size
    peak, back = _traced_peak(load_dataset, path)
    assert peak <= 2 * size, (peak, size)
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()


def test_load_csv_reads_a_pipe(tmp_path):
    # a pipe cannot be read again from its start: the first line is kept
    ds, fifo = gen_blobs(300, seed=1), tmp_path / "fifo"
    save_dataset(ds, tmp_path / "data.csv", fmt="csv")
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes,
                              args=((tmp_path / "data.csv").read_bytes(),))
    writer.start()
    back = load_dataset(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()


def test_csv_not_utf8_late_in_the_file_names_the_path_and_offset(tmp_path):
    # decoded a chunk at a time, the message is still that of the whole
    # file's decode, with the bad byte's offset in the file
    good = "".join(f"0.{i % 10},0.5,{1 + i % 2}\n" for i in range(5000)).encode()
    path = tmp_path / "late.csv"
    path.write_bytes(good + b"0.1,\xff0.2,1\n")
    with pytest.raises(ValueError) as info:
        load_dataset(path)
    assert str(info.value) == (f"{path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
                               f"in position {len(good) + 4}: invalid start byte")


def test_csv_round_trip(tmp_path):
    ds = gen_corners(64, seed=5)
    path = tmp_path / "corners.csv"
    save_dataset(ds, path, fmt="csv")
    back = load_dataset(path)
    assert np.abs(back.features - ds.features).max() == 0.0
    assert np.array_equal(back.labels, ds.labels)


def test_labels_out_of_range_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.1,0.2,0\n0.3,0.4,1\n")
    with pytest.raises(ValueError, match=r"bad\.csv: labels must lie in 1\.\.1$"):
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
    for ds in (gen_blobs(200, seed=1), gen_blobs(200, seed=2, std=0.3),
               gen_corners(100, seed=3), gen_corners(200, seed=2, dim=3, num_classes=8)):
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


def _src_env():
    """The environment for a `python -m relucert` subprocess that imports
    this checkout's src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


@pytest.mark.parametrize("dim, classes", [(4, 16), (5, 32)])
def test_cli_gen_corners_with_every_corner_ends(tmp_path, dim, classes):
    # one draw of 16 prototypes at dim 4 is distinct with probability
    # 16!/16**16 = 1.1e-6, so redrawing them all until distinct did not end;
    # after a repeat the corners are drawn without replacement
    out = tmp_path / "corners.bin"
    proc = subprocess.run([sys.executable, "-m", "relucert", "gen-data", "--kind", "corners",
                           "--n", "400", "--dim", str(dim), "--classes", str(classes),
                           "--std", "0", "--out", str(out)],
                          capture_output=True, text=True, env=_src_env(), timeout=30)
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


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 20), seed=st.integers(0, 2**16))
def test_corner_prototype_check_counts_as_np_unique(rows, cols, seed):
    # gen_corners' repeat check groups the prototypes' packed corner bits;
    # few columns make repeats common, more than 8 pack into several bytes
    protos = np.random.default_rng(seed).choice([0.15, 0.85], size=(rows, cols))
    _, first = net_core._first_seen(np.packbits(protos > 0.5, axis=1))
    assert len(first) == len(np.unique(protos > 0.5, axis=0))


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
    b"0.3,0.4,1\n0.1,0.2,-1e300\n", b"\xff\xfe0.1,1\n",
], ids=["inf-label", "nan-label", "label-beyond-int64", "label-below-int64", "not-utf8"])
def test_csv_rejections_name_the_path(tmp_path, data):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError, match="bad.csv"):
        load_dataset(path)


def _container_with_feature(path, value):
    header = {"d": 2, "K": 2, "count": 2, "dtype": "f64", "layout": "row-major"}
    features = np.array([[0.2, 0.3], [value, 0.4]], dtype="<f8")
    net_core._write_container(path, header, (features, np.array([1, 2], dtype="<i8")))


@pytest.mark.parametrize("name,write,message", [
    ("big.bin", lambda p: _container_with_feature(p, 1.5), r"feature values must lie in \[0, 1\]"),
    ("nan.csv", lambda p: p.write_text("0.1,0.2,1\nnan,0.4,2\n"), "features must be finite"),
], ids=["container-feature-1.5", "csv-feature-nan"])
def test_dataset_content_errors_name_the_path(tmp_path, capsys, name, write, message):
    # the checks of Dataset itself name the file too, as load_model's do
    path = tmp_path / name
    write(path)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
        load_dataset(path)
    model = tmp_path / "m.bin"
    net_core.save_model(net_core.random_net([2, 4, 2], seed=0), model)
    capsys.readouterr()
    assert main(["certify", "--model", str(model), "--data", str(path), "--eps1", "0.2",
                 "--eps2", "0.1", "--epsinf", "0.05"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


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
    sampled = hull_boundary_oracle(eps1, eps_inf, d, 2.0, num_dirs=20_000, seed=0)
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


def test_cli_geometry_at_a_large_order(tmp_path, capsys):
    # p = 300 at d = 16 used to end in a FloatingPointError traceback from
    # union_min_norm, whose (delta - 1)^p overflowed
    out = tmp_path / "curve.csv"
    assert main(["geometry", "--d", "16", "--p", "300", "--num", "8", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    info = json.loads(captured.out)
    assert math.isfinite(info["delta_star"]) and math.isfinite(info["max_ratio"])
    rows = out.read_text().splitlines()
    assert rows[0] == "delta,naive,union,hull,ratio" and len(rows) == 9
    table = np.array([row.split(",") for row in rows[1:]], dtype=float)
    assert np.isfinite(table).all() and (table[:, 1:4] > 0).all()


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


def test_certify_csv_columns(eval_inputs, capsys):
    # lb_l1 and lb_linf repeat rho1 and rho_inf; lb_l2 is the hull bound at p = 2
    net, ds, model, data, tmp = eval_inputs
    csv = tmp / "columns.csv"
    _run(capsys, ["certify", "--model", model, "--data", data, *_eps_args(),
                  "--per-point-csv", csv])
    header, *rows = [line.split(",") for line in csv.read_text().splitlines()]
    assert header == "index,label,predicted,correct,rho1,rho_inf,lb_l1,lb_l2,lb_linf".split(",")
    certs = certify.certificates(net, ds.features, ds.labels)
    assert (certs.rho1 != certs.rho_inf).any()
    cols = [np.arange(ds.count), certs.label, certs.predicted, certs.correct.astype(int),
            certs.rho1, certs.rho_inf, certs.rho1, certs.universal_bound(2.0), certs.rho_inf]
    assert rows == [list(map(str, row)) for row in zip(*(c.tolist() for c in cols))]


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
    # CLI accepts; with W1 doubled they switch on at x1 = 0.5 and x2 = 0.5, and
    # the points halved meet the same preactivations bit for bit: both units
    # off at (0.25, 0.25), the first one on at (0.75, 0.25)
    hand = hand_net()
    net = net_core.ReluNet((2 * hand.weights[0], *hand.weights[1:]), hand.biases)
    X = np.array([[0.5, 0.5], [1.5, 0.5], [0.2, 0.7]]) / 2
    assert certify.certificates(net, X, [2, 1, 2]).region.tolist() == [0, 1, 0]
    save_dataset(Dataset(X, np.array([2, 1, 2]), num_classes=2), data)
    net_core.save_model(net, model)
    summary = json.loads(_run(capsys, ["certify", "--model", model, "--data", data,
                                       *_eps_args()]))
    assert summary["regions"] == 2


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--lr", "--lambda1", "--lambdainf", "--gamma1", "--gammainf"])
def test_cli_train_rejects_settings_that_are_not_finite(tmp_path, capsys, monkeypatch, flag,
                                                       bad):
    # rejected before any step: an inf setting used to overflow in the Adam
    # step or the hinge sums (a RuntimeWarning, which the tests make an
    # error), and --gammainf inf to train with a constant hinge
    data = tmp_path / "blobs.bin"
    _run(capsys, ["gen-data", "--n", "16", "--out", data])
    monkeypatch.setattr(cli.mmr_train, "train",
                        lambda *a, **k: pytest.fail("trained with a setting that is not finite"))
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "m.bin"), flag, bad]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"error: {flag} must be finite and >=? 0, got {bad}\n", captured.err)


def test_cli_train_names_epochs_and_stops_on_divergence(tmp_path, capsys):
    # too few epochs for the lambda ramp is a config error that names its
    # flag; a finite but huge learning rate overflows on the second step and
    # ends in an error line, not a traceback
    data = tmp_path / "blobs.bin"
    _run(capsys, ["gen-data", "--n", "64", "--out", data])
    train = ["train", "--data", str(data), "--arch", "8", "--epochs", "10", "--batch", "16",
             "--out", str(tmp_path / "m.bin")]
    assert main(train + ["--epochs", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --epochs must be at least 10, the lambda ramp, got 5\n"
    assert not (tmp_path / "m.bin").exists()
    assert main(train + ["--lr", "1e300"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: training diverged at epoch 0, batch offset 16: overflow "
                        r"encountered in \w+\n", captured.err)


def test_cli_calls_share_no_arguments(tmp_path, capsys):
    # one parser serves every call in the process: a flag or subcommand of
    # one call must not carry over into the next
    assert cli._build_parser() is cli._build_parser()
    curve, again, data = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "d.bin"
    first = json.loads(_run(capsys, ["geometry", "--d", "2", "--p", "1", "--num", "8",
                                     "--out", curve]))
    made = json.loads(_run(capsys, ["gen-data", "--kind", "corners", "--n", "5", "--out", data]))
    second = json.loads(_run(capsys, ["geometry", "--d", "3", "--out", again]))
    assert (first["d"], first["p"], len(curve.read_text().splitlines())) == (2, 1.0, 9)
    assert (made["kind"], made["count"], made["d"]) == ("corners", 5, 16)
    assert (second["d"], second["p"], len(again.read_text().splitlines())) == (3, 2.0, 2049)
    made = json.loads(_run(capsys, ["gen-data", "--out", data]))
    assert (made["kind"], made["count"]) == ("blobs", 1000)
    with pytest.raises(SystemExit):
        main(["geometry", "--out", str(curve)])  # --d is required again
    assert "the following arguments are required: --d" in capsys.readouterr().err


def test_every_public_name_resolves():
    # perfbench's tracer takes getattr of every __all__ name: a stale entry
    # would crash every traced run.  The package re-exports only names that
    # its modules list.
    import importlib
    import pkgutil
    import types

    import relucert
    listed = {}
    for info in pkgutil.iter_modules(relucert.__path__):
        module = importlib.import_module(f"relucert.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"relucert.{info.name}.__all__ lists {name!r}"
            listed[name] = getattr(module, name)
    public = [name for name, value in vars(relucert).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    for name in public:
        assert getattr(relucert, name) is listed[name], name


def test_python_m_runs_the_cli_without_warnings(tmp_path):
    env = _src_env()
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


# per command, a minimal argv (its required flags, in pairs) and the
# namespace it parses to, func left out
PARSED = {
    "certify": (["--model", "m", "--data", "d", "--eps1", "0.3", "--eps2", "0.1",
                 "--epsinf", "0.05"],
                {"command": "certify", "model": "m", "data": "d", "out": None, "eps1": 0.3,
                 "eps2": 0.1, "epsinf": 0.05, "limit": None, "per_point_csv": None}),
    "attack": (["--model", "m", "--data", "d"],
               {"command": "attack", "model": "m", "data": "d", "out": None, "seed": 0,
                "iters": 100, "restarts": 10, "norm": "all", "eps1": None, "eps2": None,
                "epsinf": None, "sparsity": 0.01, "limit": None, "per_point_csv": None}),
    "report": (["--model", "m", "--data", "d", "--eps1", "0.3", "--epsinf", "0.05"],
               {"command": "report", "model": "m", "data": "d", "out": None, "seed": 0,
                "iters": 100, "restarts": 10, "eps1": 0.3, "eps2": None, "epsinf": 0.05,
                "limit": 1000, "deterministic": False, "csv": None}),
}


@pytest.mark.parametrize("command", list(PARSED))
def test_cli_commands_keep_their_flags(capsys, command):
    # certify, attack and report take their shared flags from parent parsers,
    # whose actions they hold in common: a default set on one command (say
    # report's --limit 1000) must not reach another (every point)
    argv, expected = PARSED[command]
    parser = cli._build_parser()
    args = vars(parser.parse_args([command, *argv]))
    assert args.pop("func") is getattr(cli, f"_cmd_{command}")
    assert args == expected
    for i in range(0, len(argv), 2):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, *argv[:i], *argv[i + 2:]])
        assert exc.value.code == 2
        assert f"the following arguments are required: {argv[i]}\n" in capsys.readouterr().err


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


@pytest.mark.parametrize("count", ["-5", "0", "2.5", "many"])
@pytest.mark.parametrize("argv,flag", [
    (["geometry", "--d", "16"], "--num"),
    (["gen-data", "--kind", "blobs"], "--n"),
    (["gen-data", "--kind", "corners"], "--n"),
], ids=["geometry", "gen-blobs", "gen-corners"])
def test_cli_counts_must_be_positive_integers(tmp_path, capsys, argv, flag, count):
    # geometry --num 0 used to write a header-only table, and negative
    # counts failed inside numpy with a message that named no flag
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, count, "--out", str(out)])
    assert exc.value.code == 2 and not out.exists()
    assert f"{flag}: must be an integer >= 1, got '{count}'" in capsys.readouterr().err


@pytest.mark.parametrize("argv,lines", [
    (["geometry", "--d", "16", "--num", "1"], 2),  # the header and one row
    (["gen-data", "--kind", "blobs", "--n", "1", "--format", "csv"], 1),
], ids=["geometry", "gen-data"])
def test_cli_count_of_one(tmp_path, capsys, argv, lines):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == lines


@pytest.mark.parametrize("arch", ["abc", "0", "-3", "8,x", "8,0", "2.5"])
def test_cli_arch_must_be_positive_integers(tmp_path, capsys, arch):
    # --arch abc used to fail in int() and --arch 0 in the net's size check,
    # neither message naming the flag
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", "unread.bin", "--arch", arch, "--out", str(tmp_path / "m")])
    assert exc.value.code == 2 and not (tmp_path / "m").exists()
    assert (f"argument --arch: must be comma-separated integers >= 1, got '{arch}'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("arch,hidden", [(["--arch", ""], []), (["--arch", "8"], [8]),
                                         (["--arch", "8, 16,"], [8, 16]), ([], [64])])
def test_cli_arch_parses_hidden_sizes(arch, hidden):
    args = cli._build_parser().parse_args(["train", "--data", "d", "--out", "m", *arch])
    assert args.arch == hidden


@pytest.mark.parametrize("value", ["0", "-1", "1.5"])
@pytest.mark.parametrize("flag", ["--iters", "--restarts"])
@pytest.mark.parametrize("command", ["attack", "report"])
def test_cli_attack_counts_name_their_flag(eval_inputs, capsys, command, flag, value):
    # --iters 0 used to fail inside the attack with a message naming no flag
    _, _, model, data, _ = eval_inputs
    argv = [command, "--model", model, "--data", data, *COMMAND_ARGS[command]]
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv] + [flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be an integer >= 1, got '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", [*COMMAND_ARGS, "train-data", "train-eval-data"])
def test_cli_empty_dataset_is_one_error_naming_the_file(eval_inputs, tmp_path, command):
    # a zero-point file used to print numpy's "Mean of empty slice" warnings
    # (a traceback under -W error) before certify's and report's error,
    # attack's error named no file, and train's named neither of its sets
    _, _, model, data, _ = eval_inputs
    empty = tmp_path / "empty.bin"
    save_dataset(Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), num_classes=2), empty)
    if command in COMMAND_ARGS:
        argv = [command, "--model", model, "--data", empty, *COMMAND_ARGS[command]]
    else:
        train, eval_ = (empty, data) if command == "train-data" else (data, empty)
        argv = ["train", "--data", train, "--eval-data", eval_, "--arch", 4, "--epochs", 10,
                "--out", tmp_path / "m.bin"]
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "relucert",
                           *map(str, argv)],
                          capture_output=True, text=True, env=_src_env(), timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {empty}: the dataset holds no points\n"
    assert not (tmp_path / "m.bin").exists()


ONE_CLASS = "error: the margin regularizer needs at least 2 classes, got 1"


def test_cli_one_class_training_names_the_regularizer(tmp_path, capsys):
    # a one-class net has no decision hyperplane: the regularizer used to
    # divide its decision term by K - 1 = 0 and report a divergence
    data = tmp_path / "one.bin"
    _run(capsys, ["gen-data", "--kind", "corners", "--classes", 1, "--dim", 4, "--n", 50,
                  "--out", data])
    train = ["train", "--data", str(data), "--arch", "8", "--epochs", "10"]
    assert main(train + ["--out", str(tmp_path / "m.bin")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(ONE_CLASS)
    assert "Traceback" not in captured.err and not (tmp_path / "m.bin").exists()
    # without the regularizer a one-class net still trains
    _run(capsys, train + ["--lambda1", "0", "--lambdainf", "0", "--out", tmp_path / "p.bin"])


def test_one_class_loss_and_gradient_raise():
    net = net_core.random_net([3, 5, 1], seed=0)
    batch = (np.full((4, 3), 0.5), np.ones(4, dtype=np.int64))
    cfg = mmr_train.MmrUniversalConfig()
    for fn in (mmr_train.loss, mmr_train.loss_gradient):
        with pytest.raises(ValueError, match=ONE_CLASS[len("error: "):]):
            fn(net, batch, cfg)
    plain = mmr_train.MmrUniversalConfig(lambda1=0.0, lambda_inf=0.0)
    assert mmr_train.loss(net, batch, plain) == 0.0


_ON_BLOBS = ["--data", "blobs.bin", "--eps1", "0.3", "--eps2", "0.1", "--epsinf", "0.05"]


@pytest.mark.parametrize("argv", [
    ["gen-data", "--kind", "corners", "--n", "300", "--classes", "5", "--dim", "3"],
    ["geometry", "--d", "16", "--num", "8"],
    ["train", "--data", "blobs.bin", "--arch", "8", "--epochs", "10", "--batch", "16"],
    ["certify", "--model", "model.bin", *_ON_BLOBS],
    ["attack", "--model", "model.bin", *_ON_BLOBS, "--iters", "5", "--restarts", "2"],
    ["report", "--model", "model.bin", *_ON_BLOBS, "--iters", "5", "--restarts", "2",
     "--deterministic"],
], ids=["gen-corners", "geometry", "train", "certify", "attack", "report"])
def test_cli_leaves_numpy_ma_unloaded(tmp_path, argv):
    # np.unique loads numpy.ma on first use, which every process paid at
    # set-up; a fresh interpreter shows whether anything still loads it
    save_dataset(gen_blobs(64, seed=0), tmp_path / "blobs.bin")
    net_core.save_model(net_core.random_net([2, 8, 2], seed=0, bias_scale=0.3),
                        tmp_path / "model.bin")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys; from relucert import cli; rc = cli.main(sys.argv[1:]); "
            "print('numpy.ma' in sys.modules, rc)")
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False 0"


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


@pytest.mark.parametrize("command", ["train", *COMMAND_ARGS])
def test_cli_data_of_the_wrong_dimension_names_its_file(eval_inputs, tmp_path, capsys,
                                                        monkeypatch, command):
    # a d = 3 set against a d = 2 model (or d = 2 training data) used to fail
    # with "batch has shape (20, 3), expected (B, 2)", naming no file, and
    # train only after a whole epoch
    _, _, model, data, _ = eval_inputs
    d3 = tmp_path / "d3.bin"
    _run(capsys, ["gen-data", "--kind", "corners", "--dim", 3, "--n", 20, "--out", d3])
    steps = []
    monkeypatch.setattr(mmr_train, "_loss_and_grad", lambda *a: steps.append(a))
    out = tmp_path / "m.bin"
    if command == "train":
        argv = ["train", "--data", data, "--eval-data", d3, "--arch", 4, "--epochs", 10,
                "--out", out]
        source = data
    else:
        argv = [command, "--model", model, "--data", d3, *COMMAND_ARGS[command]]
        source = model
    assert main([str(a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == f"error: {d3}: points have dimension 3, but {source} has 2\n"
    assert steps == [] and not out.exists()


@pytest.mark.parametrize("value", ["0", "-0.5", "1.5", "nan", "inf"])
def test_cli_attack_sparsity_names_its_flag(eval_inputs, capsys, value):
    # --sparsity 0 and nan used to exit 1 with "sparsity_frac must be in (0, 1]"
    _, _, model, data, _ = eval_inputs
    argv = ["attack", "--model", model, "--data", data, *COMMAND_ARGS["attack"]]
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv] + ["--sparsity", value])
    assert exc.value.code == 2
    assert f"argument --sparsity: must be in (0, 1], got '{value}'" in capsys.readouterr().err


def test_cli_attack_sparsity_of_one_is_accepted(eval_inputs, capsys):
    _, _, model, data, _ = eval_inputs
    argv = ["attack", "--model", model, "--data", data, *COMMAND_ARGS["attack"]]
    assert cli._build_parser().parse_args([str(a) for a in argv]
                                          + ["--sparsity", "1"]).sparsity == 1.0
    _run(capsys, argv + ["--norm", "l1", "--sparsity", "1"])


def test_cli_one_class_net_reports_no_robust_error(tmp_path, capsys):
    # a one-class net's class never changes: every bound is 0, where
    # certify used to report ub_union 1.0
    data, model = tmp_path / "one.bin", tmp_path / "one-model.bin"
    _run(capsys, ["gen-data", "--kind", "corners", "--classes", 1, "--dim", 4, "--n", 50,
                  "--out", data])
    _run(capsys, ["train", "--data", data, "--arch", 8, "--epochs", 10, "--lambda1", 0,
                  "--lambdainf", 0, "--out", model])
    inputs = ["--model", model, "--data", data]
    summary = json.loads(_run(capsys, ["certify", *inputs, *_eps_args()]))
    assert summary["ub_union"] == 0.0 and summary["test_error"] == 0.0
    report = json.loads(_run(capsys, ["report", *inputs, *COMMAND_ARGS["report"]]))
    for pair in [*report["per_norm"].values(), report["union"]]:
        assert pair == {"lb": 0.0, "ub": 0.0}


def test_cli_one_class_history_records_infinite_radii(tmp_path, capsys):
    # every radius of a one-class net is inf, and so is their mean: the
    # history used to count an infinite radius as 0 and record 0.0
    data, history = tmp_path / "one.bin", tmp_path / "h.csv"
    _run(capsys, ["gen-data", "--kind", "corners", "--classes", 1, "--dim", 4, "--n", 50,
                  "--out", data])
    _run(capsys, ["train", "--data", data, "--arch", 8, "--epochs", 10, "--lambda1", 0,
                  "--lambdainf", 0, "--out", tmp_path / "m.bin", "--history", history])
    header, *rows = [line.split(",") for line in history.read_text().splitlines()]
    assert len(rows) == 10
    for row in rows:
        fields = dict(zip(header, row))
        assert (fields["mean_rho1"], fields["mean_rho_inf"]) == ("inf", "inf")
        assert fields["test_error"] == "0.0"


def test_cli_gen_data_kinds_are_blobs_and_corners(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--kind", "moons", "--out", str(tmp_path / "m.bin")])
    assert exc.value.code == 2
    assert "argument --kind: invalid choice: 'moons'" in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()
