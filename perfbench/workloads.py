"""The three benchmark workloads: inputs, pipeline stages and output checks.

Every stage drives the program through `relucert.cli.main(argv)` or a name in
a module's ``__all__``; nothing here calls a private helper or passes
``threads=``.  Inputs depend only on the seed: within a run every pass
repeats the same work, and the outputs of every pass are checked.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math

import numpy as np

import reference

# Relative tolerance when a certified radius is compared with a value it may
# not exceed, or with the reference: float reassociation moves radii by about
# 1e-15 relative, a wrong certificate by far more.
RTOL = 1e-9
# Fractions of the same points computed as mean(bad) and as 1 - mean(good)
# can differ by an ulp when equal; the program's own report validation
# allows the same slack.
FRACTION_TOL = 1e-12
NORMS = ("l1", "l2", "linf")


class StageFailed(Exception):
    pass


def run_cli(cli, argv):
    """stdout of `relucert <argv>`; raises StageFailed on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise StageFailed(f"relucert {argv[0]} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}


def not_above(value, limit):
    """value <= limit up to RTOL: a certificate never exceeds an upper bound."""
    return value <= limit * (1.0 + RTOL) + 1e-12


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, ok, what):
        """Count one operation per entry of `ok`; each False entry failed."""
        ok = np.atleast_1d(np.asarray(ok, dtype=bool))
        self.attempted += ok.size
        bad = int(ok.size - ok.sum())
        if bad:
            self.failed += bad
            if len(self.messages) < 10:
                self.messages.append(f"{what}: {bad} of {ok.size} failed")


class Workload:
    """One set of inputs and the stages every pass runs on them.

    `focus` names the stage the workload exists to measure.  `setup` makes
    the inputs and runs every stage once on a small copy of them, so that
    lazy initialisation is charged to setup_s and not to the first pass.
    `check` validates one pass's outputs and returns its quality figures.
    """

    name = focus = ""

    def __init__(self, relucert, work, seed):
        self.rc, self.work, self.seed = relucert, work, seed

    def path(self, name):
        return str(self.work / name)

    def cli(self, *argv):
        return run_cli(self.rc.cli, argv)

    def setup(self):
        self.make_inputs()
        for _, fn in self.stages(warm=True):
            fn()

    def trace_probe(self):
        """Extra public-API calls made after each traced pass."""

    def eps_args(self):
        e1, e2, einf = self.eps
        return ["--eps1", e1, "--eps2", e2, "--epsinf", einf]

    def certify_stage(self, model, data, tag):
        return lambda: self.cli("certify", "--model", model, "--data", data, *self.eps_args(),
                                "--per-point-csv", self.path(f"{tag}-certs.csv"))

    def report_stage(self, model, data, attack_args):
        return lambda: self.cli("report", "--model", model, "--data", data,
                                *self.eps_args(), *attack_args, "--seed", self.seed,
                                "--deterministic")

    def check_report(self, text, tally):
        rep = json.loads(text)
        pairs = list(rep["per_norm"].values()) + [rep["union"]]
        tally.add([p["lb"] <= p["ub"] + FRACTION_TOL for p in pairs], "report LB <= UB")
        return rep


class BlobsTrain(Workload):
    """d=2 blobs; a 2-64-2 net trained with the default universal regularizer
    (lambda1=1, lambda_inf=6), then certified, reported and checked against
    the exact oracle.

    The training set and initialisation are fixed, so every seed trains the
    same model and train_s compares across seeds; the seed draws the test
    set, which the oracle sample and the report attacks use.  15 epochs at
    lr 1e-2 with batch 32 separate the blobs (test error 0); the certified
    l1 radii then fall into two groups, about 0.15-0.25 and 0.39-0.50.
    eps1 = 0.47 lies inside the upper group, so ub_union is about 0.8 and
    PGD breaks about 0.8 of the reported points: both inside (0, 1).  The
    default lr (5e-4) leaves the blobs partly unseparated after 15 epochs.
    """

    name, focus = "blobs-train", "train"
    EPS1, EPS_INF = 0.47, 0.1
    ORACLE_POINTS = 12

    def make_inputs(self):
        self.eps = (self.EPS1, self.rc.cli.derive_eps2(self.EPS1, self.EPS_INF), self.EPS_INF)
        for name, n, seed in (("train", 500, 0), ("test", 1000, 1000 + self.seed),
                              ("warm", 20, 1)):
            self.cli("gen-data", "--kind", "blobs", "--n", n, "--seed", seed,
                     "--out", self.path(f"{name}.bin"))

    def stages(self, warm=False):
        tag = "warm" if warm else "run"
        train, test = (self.path("warm.bin"),) * 2 if warm else (
            self.path("train.bin"), self.path("test.bin"))
        model = self.path(f"{tag}-model.json")
        train_args = (["--arch", 8, "--epochs", 10] if warm else
                      ["--arch", 64, "--epochs", 15, "--batch", 32, "--lr", 1e-2])
        attack_args = (["--iters", 2, "--restarts", 2, "--limit", 10] if warm else
                       ["--iters", 40, "--restarts", 4, "--limit", 200])
        points = 1 if warm else self.ORACLE_POINTS
        return [
            ("train", lambda: self.cli("train", "--data", train, "--eval-data", test,
                                       *train_args, "--seed", 0, "--out", model)),
            ("certify", self.certify_stage(model, test, tag)),
            ("report", self.report_stage(model, test, attack_args)),
            ("oracle", lambda: self.oracle(model, test, points)),
        ]

    def trace_probe(self):
        """loss_gradient of the trained model on a fixed batch of 128."""
        mmr_train = self.rc.mmr_train
        net = self.rc.net_core.load_model(self.path("run-model.json"))
        data = self.rc.datasets.load_dataset(self.path("train.bin")).head(128)
        mmr_train.loss_gradient(net, (data.features, data.labels),
                                mmr_train.MmrUniversalConfig())

    def oracle(self, model, data, points):
        """Exact robustness (l1, l2, linf) of the first test points."""
        certify, net_core = self.rc.certify, self.rc.net_core
        net = net_core.load_model(model)
        ds = self.rc.datasets.load_dataset(data).head(points)
        return np.array([[certify.exact_robustness_oracle(net, x, int(lab), p).value
                          for p in (1.0, 2.0, math.inf)]
                         for x, lab in zip(ds.features, ds.labels)])

    def check(self, out, tally):
        summary = json.loads(out["certify"])
        certs = read_csv(self.path("run-certs.csv"))
        oracle = out["oracle"]
        k = len(oracle)
        for j, name in enumerate(NORMS):
            tally.add(not_above(certs[f"lb_{name}"][:k], oracle[:, j]),
                      f"certified {name} radius <= exact oracle")
        rep = self.check_report(out["report"], tally)
        return {"ub_union": summary["ub_union"], "lb_union": rep["union"]["lb"],
                "test_error": summary["test_error"]}


class Corners(Workload):
    """d=16 corners with a fixed 16-256-256-2 model built by the benchmark
    (`reference.corners_model`), independent of relucert's training code.

    A fixed pool of 21000 points is drawn once (gen-data seed 0, so the class
    prototypes never change); the model is fitted on its first 1000 rows and
    the seed picks the 1000 test points from the other 20000.  Certified
    linf radii then lie in about 0.27-0.31 and PGD needs a little more, so at
    eps (1.38, derive_eps2, 0.3) about 0.8 of the points are not certified
    and about 0.2 are broken by PGD: ub_union and lb_union lie inside (0, 1).
    """

    EPS1, EPS_INF = 1.38, 0.3
    TEST, POOL, FIT = 1000, 21000, 1000
    SPREAD = 0.08  # gen_corners' own default; the CLI's --std default is 0.05

    def make_inputs(self):
        rc = self.rc
        self.eps = (self.EPS1, rc.cli.derive_eps2(self.EPS1, self.EPS_INF), self.EPS_INF)
        self.cli("gen-data", "--kind", "corners", "--n", self.POOL, "--seed", 0,
                 "--std", self.SPREAD, "--out", self.path("pool.bin"))
        pool = rc.datasets.load_dataset(self.path("pool.bin"))
        fit_x, fit_y = pool.features[:self.FIT], pool.labels[:self.FIT]
        self.weights, self.biases = reference.corners_model(fit_x, fit_y)
        rc.net_core.save_model(rc.net_core.ReluNet(tuple(self.weights), tuple(self.biases)),
                               self.path("model.json"))
        pick = self.FIT + np.sort(np.random.default_rng(self.seed).choice(
            self.POOL - self.FIT, size=self.TEST, replace=False))
        for name, rows in (("test", pick), ("warm", pick[:10])):
            rc.datasets.save_dataset(rc.datasets.Dataset(pool.features[rows], pool.labels[rows],
                                                         num_classes=pool.num_classes),
                                     self.path(f"{name}.bin"))
        self.test_x, self.test_y = pool.features[pick], pool.labels[pick]


class CornersCertify(Corners):
    """`certify --per-point-csv` over the 1000 test points; every certificate
    is compared with the benchmark's own batched recomputation."""

    name, focus = "corners-certify", "certify"

    ref = None

    def expected(self):
        """Reference certificates of the test set and their ub_union."""
        if self.ref is None:
            ref = reference.certificates(self.weights, self.biases, self.test_x, self.test_y)
            e1, e2, einf = self.eps
            certified = ((ref["predicted"] == self.test_y) & (ref["rho1"] >= e1)
                         & (ref["lb_l2"] >= e2) & (ref["rho_inf"] >= einf))
            self.ref = ref, 1.0 - float(np.mean(certified))
        return self.ref

    def stages(self, warm=False):
        data = self.path("warm.bin" if warm else "test.bin")
        return [("certify", self.certify_stage(self.path("model.json"), data,
                                               "warm" if warm else "run"))]

    def check(self, out, tally):
        summary = json.loads(out["certify"])
        certs = read_csv(self.path("run-certs.csv"))
        ref, ref_ub_union = self.expected()
        tally.add(certs["predicted"] == ref["predicted"], "predicted class = reference")
        for col, key in (("rho1", "rho1"), ("rho_inf", "rho_inf"), ("lb_l1", "rho1"),
                         ("lb_l2", "lb_l2"), ("lb_linf", "rho_inf")):
            tally.add(np.abs(certs[col] - ref[key]) <= RTOL * np.abs(ref[key]) + 1e-12,
                      f"{col} = reference within {RTOL:g} relative")
        tally.add(abs(summary["ub_union"] - ref_ub_union) <= FRACTION_TOL,
                  "ub_union = reference")
        return {"ub_union": summary["ub_union"], "test_error": summary["test_error"]}


class CornersAttack(Corners):
    """`attack --norm all` and `report` on the first 200 test points, plus
    `certify --per-point-csv` over all 1000 for the per-point sandwich check
    (a certified radius never exceeds a PGD adversarial norm)."""

    name, focus = "corners-attack", "attack"
    ATTACKED = 200
    ATTACK = ["--iters", 50, "--restarts", 5]

    def stages(self, warm=False):
        tag = "warm" if warm else "run"
        data = self.path("warm.bin" if warm else "test.bin")
        model = self.path("model.json")
        attack = (["--iters", 2, "--restarts", 2, "--limit", 5] if warm else
                  self.ATTACK + ["--limit", self.ATTACKED])
        return [
            ("certify", self.certify_stage(model, data, tag)),
            ("attack", lambda: self.cli("attack", "--model", model, "--data", data,
                                        "--norm", "all", *self.eps_args(), *attack,
                                        "--seed", self.seed,
                                        "--per-point-csv", self.path(f"{tag}-attack.csv"))),
            ("report", self.report_stage(model, data, attack)),
        ]

    def check(self, out, tally):
        summary = json.loads(out["certify"])
        attack = json.loads(out["attack"])
        certs = read_csv(self.path("run-certs.csv"))
        found = read_csv(self.path("run-attack.csv"))
        k = self.ATTACKED
        for name in NORMS:
            hit = found[f"success_{name}"] == 1
            tally.add(not_above(certs[f"lb_{name}"][:k][hit], found[f"norm_{name}"][hit]),
                      f"certified {name} radius <= PGD adversarial norm")
        rep = self.check_report(out["report"], tally)
        tally.add(attack["lb_union"] <= rep["union"]["ub"] + FRACTION_TOL,
                  "attack LB <= report UB")
        return {"ub_union": summary["ub_union"], "lb_union": rep["union"]["lb"],
                "attack_lb_union": attack["lb_union"], "test_error": summary["test_error"]}


WORKLOADS = {w.name: w for w in (BlobsTrain, CornersCertify, CornersAttack)}
