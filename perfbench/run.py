"""Benchmark of the relucert pipeline: train, certify, attack, report.

    python3 perfbench/run.py --workload blobs-train --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
Each run sets up the workload (setup_s), then repeats the workload's pipeline
of CLI stages for --seconds (at least MIN_PASSES times), checking the outputs
of every pass.  Times are calibrated (see calibration.py) and are means
over passes: with a few multi-second passes per run on a host whose speed
jumps between two levels, the median of 4-6 samples jumps with it, while the
mean was twice as steady from run to run (train stage IQR/median over ten
runs 0.08 against 0.14).  Medians, maxima and sample counts are in the
detail record.  With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 the first half of the time runs untraced and the
second half traced, and the last line carries the per-layer metrics.  The
line before it is a JSON detail record: machine, raw and calibrated
per-stage medians and maxima with sample counts, quality figures and the
first failed checks.
"""

import os
import sys
import time

T0 = time.perf_counter()

# Pin BLAS threads before numpy loads.  One thread is at most nproc on any
# machine, and the program's own RELUCERT_THREADS default is 1 as well.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3          # the run's own set-up plus two fresh processes
MIN_PASSES = 3


def load_package():
    if not (SRC / "relucert" / "__init__.py").is_file():
        print(f"perfbench: no relucert sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import relucert
    import relucert.cli  # noqa: F401  (the package does not import cli itself)
    return relucert


def set_up(relucert, name, seed, work):
    """Make inputs, prepare the model, warm up.  The time since process start
    (imports included) is the set-up time.

    Returns (workload, raw seconds, calibrated seconds)."""
    wl = workloads.WORKLOADS[name](relucert, work, seed)
    wl.setup()
    raw = time.perf_counter() - T0
    kernel = calibration.Kernel()
    kernel.sample()
    kernel.sample()
    return wl, raw, raw * calibration.REFERENCE_S / kernel.seconds()


def setup_probe(relucert, name, seed):
    """Set-up time of a fresh process, measured like the run's own."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"probe-{name}-", dir=WORK))
    try:
        _, raw, calibrated = set_up(relucert, name, seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps([raw, calibrated]))


def probe_subprocess(name, seed):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(out, work):
    """Hash of one pass's outputs: stage results and the per-point files."""
    h = hashlib.sha256()
    for stage in sorted(out):
        value = out[stage]
        h.update(value.tobytes() if hasattr(value, "tobytes") else str(value).encode())
    for path in sorted(work.glob("run-*.csv")):
        h.update(path.read_bytes())
    return h.hexdigest()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs passes of a workload, timing each stage and checking every pass.

    The calibration kernel runs before every stage and after the last one.
    `factor` turns raw seconds into calibrated ones: REFERENCE_S over the
    kernel time of the run.
    """

    def __init__(self, wl, tally, tracer=None):
        self.wl, self.tally, self.tracer = wl, tally, tracer
        self.kernel = calibration.Kernel()
        self.raw = {}           # stage -> [raw s per pass]
        self.pass_raw = []
        self.quality = None
        self.digests = set()
        self.rss_after_first = None

    @property
    def factor(self):
        return calibration.REFERENCE_S / self.kernel.seconds()

    def one_pass(self):
        out, ok, total = {}, True, 0.0
        self.kernel.sample()
        for stage, fn in self.wl.stages():
            if self.tracer is not None:
                self.tracer.stage = stage
            t = time.perf_counter()
            try:
                out[stage] = fn()
            except Exception:  # a failing stage is a failed operation, not a crash
                ok = False
                print(traceback.format_exc(), file=sys.stderr)
            dt = time.perf_counter() - t
            if self.tracer is not None:
                self.tracer.stage = ""
            self.kernel.sample()
            self.tally.add(stage in out, f"stage {stage} completes")
            self.raw.setdefault(stage, []).append(dt)
            total += dt
        self.pass_raw.append(total)
        if self.tracer is not None:
            self.tracer.stage = "probe"
            self.wl.trace_probe()
            self.tracer.end_pass()
        if self.rss_after_first is None:
            self.rss_after_first = peak_rss_mb()
        if ok:
            self.check(out)

    def check(self, out):
        try:
            quality = self.wl.check(out, self.tally)
        except (KeyError, ValueError, OSError) as exc:
            self.tally.add(False, f"outputs readable ({exc})")
            return
        self.quality = self.quality or quality
        self.digests.add(digest(out, self.wl.work))

    def run_for(self, seconds):
        """Start passes until `seconds` have passed (at least MIN_PASSES)."""
        end = time.perf_counter() + seconds
        while len(self.pass_raw) < MIN_PASSES or time.perf_counter() < end:
            self.one_pass()

    def calibrated(self, values):
        return [v * self.factor for v in values]


def summary(values):
    return {"mean": statistics.mean(values), "median": statistics.median(values),
            "max": max(values), "n": len(values)}


def machine_info():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        rev = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "relucert").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "relucert_threads": os.environ.get("RELUCERT_THREADS", "unset (program default 1)"),
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
        "platform": platform.platform(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, runner, setups):
    mean = statistics.mean
    metrics = {
        "setup_s": metric(statistics.median(cal for _, cal in setups), "s"),
        "pipeline_s": metric(mean(runner.pass_raw) * runner.factor, "s"),
        "focus_stage_s": metric(mean(runner.raw[wl.focus]) * runner.factor, "s"),
        "ub_union": metric((runner.quality or {}).get("ub_union", 1.0), "fraction"),
        # set-up plus one pass; later passes repeat the same work
        "peak_rss_mb": metric(runner.rss_after_first, "MB"),
    }
    detail = {
        "focus_stage": wl.focus,
        "stages_raw_s": {k: summary(v) for k, v in runner.raw.items()},
        "stages_calibrated_s": {k: summary(runner.calibrated(v))
                                for k, v in runner.raw.items()},
        "pipeline_raw_s": summary(runner.pass_raw),
        "pipeline_calibrated_s": summary(runner.calibrated(runner.pass_raw)),
        "setup_raw_s": [raw for raw, _ in setups],
        "setup_calibrated_s": [cal for _, cal in setups],
        "peak_rss_mb_at_end": peak_rss_mb(),
        "calibration_kernel_s": runner.kernel.seconds(),
        "kernel_samples_s": runner.kernel.times,
        "stage_samples_raw_s": runner.raw,
    }
    return metrics, detail


def run_traced(wl, tally, args):
    plain = Runner(wl, tally)
    plain.run_for(args.seconds / 2)
    tr = tracing.Tracer()
    traced = Runner(wl, tally, tracer=tr)
    tr.install(wl.rc)
    try:
        traced.run_for(args.seconds / 2)
    finally:
        tr.uninstall()
    metrics = tracing.layer_metrics(tr.passes, traced.factor)
    overhead = (statistics.mean(traced.pass_raw) * traced.factor
                - statistics.mean(plain.pass_raw) * plain.factor)
    metrics["trace.overhead_s"] = metric(overhead, "s")
    metrics["trace.passes"] = metric(len(tr.passes), "count")
    path = WORK / f"trace-{args.workload}-s{args.seed}.json"
    tr.write(path)
    detail = {"untraced_pipeline_calibrated_s": summary(plain.calibrated(plain.pass_raw)),
              "traced_pipeline_calibrated_s": summary(traced.calibrated(traced.pass_raw)),
              "trace_file": str(path.relative_to(ROOT))}
    return metrics, detail, [plain, traced]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one fresh-process set-up and exit")
    args = parser.parse_args()
    relucert = load_package()
    if args.setup_probe:
        setup_probe(relucert, args.workload, args.seed)
        return

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=WORK))
    try:
        wl, raw, calibrated = set_up(relucert, args.workload, args.seed, work)
        tally = workloads.Tally()
        if args.trace:
            metrics, detail, runners = run_traced(wl, tally, args)
        else:
            setups = [(raw, calibrated)] + [probe_subprocess(args.workload, args.seed)
                                            for _ in range(SETUP_SAMPLES - 1)]
            runner = Runner(wl, tally)
            runner.run_for(args.seconds)
            metrics, detail = end_to_end(wl, runner, setups)
            runners = [runner]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    quality = next((r.quality for r in runners if r.quality), {})
    digests = set().union(*(r.digests for r in runners))
    vacuous = [k for k in ("ub_union", "lb_union") if k in quality and not 0 < quality[k] < 1]
    correct = tally.failed == 0 and len(digests) == 1 and not vacuous
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_info(), "quality": quality,
              "vacuous_bounds": vacuous, "failures": tally.messages,
              "calibration_reference_s": calibration.REFERENCE_S, **detail}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
