"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces every public function (the names in each module's
``__all__``) of the relucert modules by a wrapper that records a span, and
``RegionAtlas.__init__`` likewise.  Internal calls go through the module
attributes, so e.g. ``certify.point_certificate`` ->
``certify.distance_profile`` -> ``net_core.region_description`` ->
``net_core.affine_maps`` all show up as nested spans.  Names bound by
``from x import y`` in other package modules are replaced too.

A span records its name, start, end, the index of the span that caused it
(its parent on the call stack) and the request it belongs to: the pipeline
pass and the CLI stage.  The program is single-threaded in the benchmark
(RELUCERT_THREADS is left at its default of 1), so one call stack suffices.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import time

LAYERS = ("net_core", "regions", "geometry", "certify", "mmr_train", "attacks",
          "datasets", "cli")


def _net_sizes(net):
    return [net.input_dim] + [w.shape[0] for w in net.weights]


def _meter_affine_maps(args, kwargs, result):
    sizes = _net_sizes(args[0])
    d = sizes[0]
    # V^(l) = W^(l) (m * V^(l-1)) and a^(l) = W^(l) (m * a^(l-1)) + b^(l)
    flop = sum(2 * n * m * (d + 1) for m, n in zip(sizes[1:-1], sizes[2:]))
    return {"gflop": flop * 1e-9}


def _meter_forward_batch(args, kwargs, result):
    rows = len(args[1])
    sizes = _net_sizes(args[0])
    flop = sum(2 * rows * m * n for m, n in zip(sizes[:-1], sizes[1:]))
    return {"rows": rows, "gflop": flop * 1e-9}


def _meter_load_dataset(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _meter_train(args, kwargs, result):
    dataset, train_cfg = args[1], args[3]
    batches = -(-dataset.count // train_cfg.batch_size)
    return {"steps": train_cfg.epochs * batches}


def _meter_region_atlas(args, kwargs, result):
    return {"regions": len(args[0].regions)}


METERS = {
    "net_core.affine_maps": _meter_affine_maps,
    "net_core.forward_batch": _meter_forward_batch,
    "datasets.load_dataset": _meter_load_dataset,
    "mmr_train.train": _meter_train,
    "regions.RegionAtlas": _meter_region_atlas,
}


class Tracer:
    """Span recorder.  Spans of a pass stay in memory until `end_pass`, which
    folds them into per-(stage, name) totals: calls, s, self_s and counters.
    A span's self time is its duration minus that of its child spans."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, stage, child_s, counters]
        self.passes = []
        self.stage = ""
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, meter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, time.perf_counter(), 0.0, parent, self.stage, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = time.perf_counter()
                if parent >= 0:
                    spans[parent][5] += rec[2] - rec[1]
            if meter is not None:
                rec[6] = meter(args, kwargs, result)
            return result

        return wrapper

    def install(self, package):
        """Wrap the public functions of every layer module of `package`."""
        modules = [getattr(package, layer) for layer in LAYERS]
        replaced = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                name = f"{short}.{attr}"
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = (obj, self._wrap(name, obj, METERS.get(name)))
                elif inspect.isclass(obj) and name in METERS:
                    init = obj.__init__
                    obj.__init__ = self._wrap(name, init, METERS[name])
                    self._undo.append((obj, "__init__", init))
        for mod in modules + [package]:
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced and replaced[id(value)][0] is value:
                    setattr(mod, attr, replaced[id(value)][1])
                    self._undo.append((mod, attr, value))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def end_pass(self):
        totals = {}
        for name, t0, t1, _, stage, child_s, counters in self.spans:
            agg = totals.setdefault((stage, name), {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child_s
            for key, value in (counters or {}).items():
                agg[key] = agg.get(key, 0) + value
        self.passes.append(totals)
        self.spans.clear()

    def write(self, path):
        """Per-pass totals as JSON: [{"stage", "name", "calls", "s", ...}]."""
        doc = [[{"stage": stage, "name": name, **agg}
                for (stage, name), agg in sorted(totals.items())]
               for totals in self.passes]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)


def _total(totals, name, key, stage=None):
    return sum(agg.get(key, 0) for (st, n), agg in totals.items()
               if n == name and (stage is None or st == stage))


def _per(totals, name, per_name, stage):
    """Calls of `name` per call of `per_name`, both within `stage`."""
    base = _total(totals, per_name, "calls", stage)
    return _total(totals, name, "calls", stage) / base if base else 0.0


def _sum(name, key):
    return lambda t: _total(t, name, key)


# name -> (unit, value from one pass's totals).  Counts and times are per
# pipeline pass; "per_point" counts are per point certified by `certify`.
LAYER_METRICS = {
    "net_core.affine_maps.calls": ("count", _sum("net_core.affine_maps", "calls")),
    "net_core.affine_maps.s": ("s", _sum("net_core.affine_maps", "s")),
    "net_core.affine_maps.gflop": ("GFLOP", _sum("net_core.affine_maps", "gflop")),
    "net_core.region_description.per_point": ("count", lambda t: _per(
        t, "net_core.region_description", "certify.point_certificate", "certify")),
    "net_core.forward.calls": ("count", _sum("net_core.forward", "calls")),
    "net_core.forward.per_point": ("count", lambda t: _per(
        t, "net_core.forward", "certify.point_certificate", "certify")),
    "net_core.forward_batch.rows": ("count", _sum("net_core.forward_batch", "rows")),
    "net_core.forward_batch.s": ("s", _sum("net_core.forward_batch", "s")),
    "net_core.forward_batch.gflop": ("GFLOP", _sum("net_core.forward_batch", "gflop")),
    "certify.point_certificate.calls": ("count", _sum("certify.point_certificate", "calls")),
    "certify.point_certificate.self_s": ("s", _sum("certify.point_certificate", "self_s")),
    "certify.distance_profile.calls": ("count", _sum("certify.distance_profile", "calls")),
    "certify.distance_profile.self_s": ("s", _sum("certify.distance_profile", "self_s")),
    "geometry.hull_min_norm.calls": ("count", _sum("geometry.hull_min_norm", "calls")),
    "geometry.hull_min_norm.s": ("s", _sum("geometry.hull_min_norm", "s")),
    "regions.RegionAtlas.s": ("s", _sum("regions.RegionAtlas", "s")),
    "regions.RegionAtlas.regions": ("count", _sum("regions.RegionAtlas", "regions")),
    "certify.exact_robustness_oracle.s": ("s", _sum("certify.exact_robustness_oracle", "s")),
    "mmr_train.train.self_s": ("s", _sum("mmr_train.train", "self_s")),
    "mmr_train.train.steps": ("count", _sum("mmr_train.train", "steps")),
    "mmr_train.loss_gradient.s": ("s", _sum("mmr_train.loss_gradient", "s")),
    "attacks.attack_dataset.calls": ("count", _sum("attacks.attack_dataset", "calls")),
    "attacks.attack_dataset.s": ("s", _sum("attacks.attack_dataset", "s")),
    "attacks.attack_dataset.self_s": ("s", _sum("attacks.attack_dataset", "self_s")),
    "attacks.attack_dataset.per_attack_cmd": ("count", lambda t: _per(
        t, "attacks.attack_dataset", "cli.main", "attack")),
    "datasets.load_dataset.s": ("s", _sum("datasets.load_dataset", "s")),
    "datasets.load_dataset.bytes": ("B", _sum("datasets.load_dataset", "bytes")),
}
for _cmd in ("train", "certify", "attack", "report"):
    LAYER_METRICS[f"cli.{_cmd}.s"] = ("s", lambda t, c=_cmd: _total(t, "cli.main", "s", c))
    LAYER_METRICS[f"cli.{_cmd}.self_s"] = ("s", lambda t, c=_cmd: _total(
        t, "cli.main", "self_s", c))


def layer_metrics(passes, factor):
    """Mean over traced passes of every per-layer metric; times are
    multiplied by the run's calibration factor."""
    return {name: {"value": statistics.mean(fn(t) for t in passes) * (
                factor if unit == "s" else 1), "unit": unit}
            for name, (unit, fn) in LAYER_METRICS.items()}
