"""Command-line entry point: data generation, training, certification,
attacks, geometry curves and combined evaluation reports.

All randomness of one invocation flows from a single seed; with
--deterministic set, reports are byte-identical across runs on the same
inputs (the wall-clock runtime field is omitted).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import attacks, certify, datasets, geometry, mmr_train, net_core

__all__ = ["derive_eps2", "run_evaluation", "Report", "main"]


def derive_eps2(eps1: float, eps_inf: float, dim: int | None = None) -> float:
    """The l2 radius certified by joint l1/linf margins eps1 and eps_inf.

    The convex-hull value, of which sqrt(eps1*eps_inf) is the familiar
    approximation; it is exact for eps1 <= dim * eps_inf.  Given the input
    dimension dim and eps1 >= dim * eps_inf, the l1 ball contains the linf
    ball, so the hull is the l1 ball and the value is its l2 inradius
    eps1 / sqrt(dim).  Requires eps1 > eps_inf > 0.
    """
    if not (eps1 > eps_inf > 0):
        raise ValueError(f"need eps1 > eps_inf > 0, got {eps1}, {eps_inf}")
    # Certificates never reach the second case: a hyperplane w.x + b = 0 lies
    # at l1 distance r / ||w||_inf and linf distance r / ||w||_1 from a point,
    # and ||w||_1 <= d ||w||_inf, so rho1 <= d * rho_inf always holds.
    if dim is not None and eps1 >= dim * eps_inf:
        return eps1 / math.sqrt(dim)
    return geometry.hull_min_norm(eps1, eps_inf, 2.0)


@dataclass
class Report:
    """Evaluation summary; validated so that every LB is <= its UB."""

    model_id: str
    eps: dict
    test_error: float
    per_norm: dict
    union: dict
    seeds: dict
    config: dict
    runtime_seconds: float | None = None

    def validate(self):
        for name, pair in list(self.per_norm.items()) + [("union", self.union)]:
            if pair["lb"] > pair["ub"] + 1e-12:
                raise ValueError(
                    f"report invariant violated: {name} LB {pair['lb']} > UB {pair['ub']}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def run_evaluation(model_path, data_path, eps, seed: int = 0, limit: int = 1000,
                   deterministic: bool = False, iterations: int = 100,
                   restarts: int = 10) -> Report:
    """Test error on the full dataset plus robust-error bounds per norm and
    for the union, evaluating the bounds on the first min(limit, n) points.
    An eps2 of None is derive_eps2(eps1, eps_inf) at the data's dimension.
    Raises RuntimeError if a point's verified adversarial lies inside its
    certified radius (beyond 1e-9 relative rounding slack): one of the two
    would then be wrong."""
    t0 = time.perf_counter()
    net = net_core.load_model(model_path)
    data = datasets.load_dataset(data_path)
    eps = certify.EpsTriple(*eps)
    if eps.eps2 is None:
        eps = eps._replace(eps2=derive_eps2(eps.eps1, eps.eps_inf, data.dim))
    test_error = float(np.mean(net_core.classify_batch(net, data.features) != data.labels))

    sub = data.head(limit)
    certs = certify.certificates(net, sub.features, sub.labels)
    ub = certify.bounds(certs, eps)
    found = attacks.attack_norms(net, sub, eps, iterations=iterations, restarts=restarts,
                                 seed=seed)
    for name, radius in certs.radii().items():
        success, best_norm, _ = found[name]
        bad = np.flatnonzero(success & (best_norm < radius * (1.0 - 1e-9)))
        if bad.size:
            i = int(bad[0])
            raise RuntimeError(
                f"point {i}: {name} adversarial of norm {float(best_norm[i])!r} lies "
                f"inside its certified radius {float(radius[i])!r}")
    lb = attacks.lower_bounds(net, sub, found)

    report = Report(
        model_id=os.path.basename(str(model_path)),
        eps={"eps1": eps.eps1, "eps2": eps.eps2, "eps_inf": eps.eps_inf},
        test_error=test_error,
        per_norm={n: {"lb": lb[n], "ub": ub[n]} for n in ("l1", "l2", "linf")},
        union={"lb": lb["union"], "ub": ub["union"]},
        seeds={"seed": seed},
        config={"limit": int(limit), "iterations": iterations, "restarts": restarts,
                "points_evaluated": int(sub.count), "deterministic": bool(deterministic)},
        runtime_seconds=None if deterministic else time.perf_counter() - t0,
    )
    report.validate()
    return report


# -- subcommands ----------------------------------------------------------------


def _cmd_gen_data(args) -> int:
    if args.kind == "blobs":
        ds = datasets.gen_blobs(args.n, seed=args.seed, std=args.std)
    elif args.kind == "moons":
        ds = datasets.gen_moons(args.n, seed=args.seed, noise=args.std)
    elif args.kind == "corners":
        ds = datasets.gen_corners(args.n, seed=args.seed, dim=args.dim,
                                  num_classes=args.classes, spread=args.std)
    else:
        raise ValueError(f"unknown dataset kind {args.kind!r}")
    datasets.save_dataset(ds, args.out, fmt=args.format)
    print(json.dumps({"kind": args.kind, "count": ds.count, "d": ds.dim,
                      "K": ds.num_classes, "out": args.out}))
    return 0


def _cmd_train(args) -> int:
    data = datasets.load_dataset(args.data)
    eval_data = datasets.load_dataset(args.eval_data) if args.eval_data else None
    hidden = [int(s) for s in args.arch.split(",") if s.strip()]
    sizes = [data.dim] + hidden + [data.num_classes]
    net0 = net_core.random_net(sizes, seed=args.seed)
    mmr_cfg = mmr_train.MmrUniversalConfig(
        lambda1=args.lambda1, lambda_inf=args.lambdainf,
        gamma1=args.gamma1, gamma_inf=args.gammainf)
    train_cfg = mmr_train.TrainConfig(
        epochs=args.epochs, batch_size=args.batch,
        learning_rate=args.lr, seed=args.seed)
    net, history = mmr_train.train(net0, data, mmr_cfg, train_cfg,
                                   eval_dataset=eval_data)
    net_core.save_model(net, args.out)
    if args.history:
        cols = list(history[0].keys())
        with open(args.history, "w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            for row in history:
                fh.write(",".join(repr(row[c]) for c in cols) + "\n")
    print(json.dumps({"out": args.out, "epochs": args.epochs,
                      "final_loss": history[-1]["loss"],
                      "final_test_error": history[-1]["test_error"]}))
    return 0


def _certify_summary(certs, eps) -> dict:
    """The ``certify`` summary: test error, the number of distinct activation
    regions among the points and the robust-error upper bounds."""
    summary = {"test_error": float(np.mean(~certs.correct)),
               "regions": int(certs.region.max(initial=-1)) + 1}
    summary.update({f"ub_{n}": v for n, v in certify.bounds(certs, eps).items()})
    return summary


def _cmd_certify(args) -> int:
    net = net_core.load_model(args.model)
    data = datasets.load_dataset(args.data)
    if args.limit:
        data = data.head(args.limit)
    X, y = data.features, data.labels
    eps = certify.EpsTriple(args.eps1, args.eps2, args.epsinf)
    certs = certify.certificates(net, X, y)
    summary = _certify_summary(certs, eps)
    if args.per_point_csv:
        cols = [certs.label, certs.predicted, certs.correct.astype(int), certs.rho1,
                certs.rho_inf, certs.lb_l1, certs.lb_l2, certs.lb_linf]
        with open(args.per_point_csv, "w", encoding="utf-8") as fh:
            fh.write("index,label,predicted,correct,rho1,rho_inf,lb_l1,lb_l2,lb_linf\n")
            for i, row in enumerate(zip(*(c.tolist() for c in cols))):
                fh.write(",".join([str(i)] + [repr(v) for v in row]) + "\n")
    print(json.dumps(summary, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def _cmd_attack(args) -> int:
    net = net_core.load_model(args.model)
    data = datasets.load_dataset(args.data)
    if args.limit:
        data = data.head(args.limit)
    radii = {"l1": args.eps1, "l2": args.eps2, "linf": args.epsinf}
    norms = list(radii) if args.norm == "all" else [args.norm]
    results = attacks.attack_norms(net, data, tuple(radii.values()), norms,
                                   iterations=args.iters, restarts=args.restarts,
                                   seed=args.seed, sparsity_frac=args.sparsity)
    summary = {name: {"eps": radii[name], "success_rate": float(np.mean(success))}
               for name, (success, _, _) in results.items()}
    summary["test_error"] = float(np.mean(
        net_core.classify_batch(net, data.features) != data.labels))
    if args.norm == "all":
        summary["lb_union"] = attacks.lower_bounds(net, data, results)["union"]
        summary["overlap"] = {f"{pn}_in_{qn}": v["pct"]
                              for (pn, qn), v in attacks.overlap_table(results, radii).items()}
    if args.per_point_csv:
        with open(args.per_point_csv, "w", encoding="utf-8") as fh:
            header = ["index"] + [f"success_{n},norm_{n}" for n in results]
            fh.write(",".join(header) + "\n")
            for i in range(data.count):
                cells = [str(i)]
                for s, nv, _ in results.values():
                    cells.append(f"{int(s[i])},{float(nv[i])!r}")
                fh.write(",".join(cells) + "\n")
    print(json.dumps(summary, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def _cmd_geometry(args) -> int:
    table = geometry.curve_table(args.d, p=args.p, num=args.num)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("delta,naive,union,hull,ratio\n")
        for row in table:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    delta_star, max_ratio, _ = geometry.ratio_analysis(args.d, p=args.p)
    print(json.dumps({"d": args.d, "p": args.p, "delta_star": delta_star,
                      "max_ratio": max_ratio, "out": args.out}, sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    report = run_evaluation(
        args.model, args.data, (args.eps1, args.eps2, args.epsinf),
        seed=args.seed, limit=args.limit, deterministic=args.deterministic,
        iterations=args.iters, restarts=args.restarts)
    text = report.to_json()
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("model,test_error,lb_l1,ub_l1,lb_l2,ub_l2,lb_linf,ub_linf,"
                     "lb_union,ub_union\n")
            pn = report.per_norm
            fh.write(",".join([report.model_id, repr(report.test_error)]
                              + [repr(pn[n][k]) for n in ("l1", "l2", "linf")
                                 for k in ("lb", "ub")]
                              + [repr(report.union["lb"]), repr(report.union["ub"])])
                     + "\n")
    return 0


def _positive_int(text: str) -> int:
    """argparse type of --limit: an integer >= 1, in decimal digits."""
    if not (text.isascii() and text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relucert",
        description="Train small ReLU classifiers with joint l1/linf margin "
                    "regularization and certify their robustness for every lp-norm.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    g.add_argument("--kind", choices=["blobs", "moons", "corners"], default="blobs")
    g.add_argument("--n", type=int, default=1000)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--std", type=float, default=0.05,
                   help="blob std / moon noise / corner spread")
    g.add_argument("--dim", type=int, default=16, help="corners only")
    g.add_argument("--classes", type=int, default=2, help="corners only")
    g.add_argument("--format", choices=["bin", "csv"], default="bin")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen_data)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--data", required=True)
    t.add_argument("--eval-data", default=None)
    t.add_argument("--arch", default="64", help="comma separated hidden sizes")
    t.add_argument("--lambda1", type=float, default=1.0)
    t.add_argument("--lambdainf", type=float, default=6.0)
    t.add_argument("--gamma1", type=float, default=1.0)
    t.add_argument("--gammainf", type=float, default=0.1)
    t.add_argument("--epochs", type=int, default=100)
    t.add_argument("--batch", type=int, default=128)
    t.add_argument("--lr", type=float, default=5e-4)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True, help="model file path")
    t.add_argument("--history", default=None, help="per-epoch CSV path")
    t.set_defaults(func=_cmd_train)

    c = sub.add_parser("certify", help="certified robust-error upper bounds")
    c.add_argument("--model", required=True)
    c.add_argument("--data", required=True)
    c.add_argument("--eps1", type=float, required=True)
    c.add_argument("--eps2", type=float, required=True)
    c.add_argument("--epsinf", type=float, required=True)
    c.add_argument("--limit", type=_positive_int, default=None)
    c.add_argument("--per-point-csv", default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_certify)

    a = sub.add_parser("attack", help="PGD lower bounds on the robust error")
    a.add_argument("--model", required=True)
    a.add_argument("--data", required=True)
    a.add_argument("--norm", choices=["l1", "l2", "linf", "all"], default="all")
    a.add_argument("--eps1", type=float, default=None)
    a.add_argument("--eps2", type=float, default=None)
    a.add_argument("--epsinf", type=float, default=None)
    a.add_argument("--iters", type=int, default=100)
    a.add_argument("--restarts", type=int, default=10)
    a.add_argument("--sparsity", type=float, default=0.01)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--limit", type=_positive_int, default=None)
    a.add_argument("--per-point-csv", default=None)
    a.add_argument("--out", default=None)
    a.set_defaults(func=_cmd_attack)

    ge = sub.add_parser("geometry", help="union/hull bound curves as CSV")
    ge.add_argument("--d", type=int, required=True)
    ge.add_argument("--p", type=float, default=2.0)
    ge.add_argument("--num", type=int, default=2048)
    ge.add_argument("--out", required=True)
    ge.set_defaults(func=_cmd_geometry)

    r = sub.add_parser("report", help="full evaluation: test error, LB and UB")
    r.add_argument("--model", required=True)
    r.add_argument("--data", required=True)
    r.add_argument("--eps1", type=float, required=True)
    r.add_argument("--eps2", type=float, default=None,
                   help="defaults to the l2 radius implied by eps1 and epsinf "
                        "in the data's dimension")
    r.add_argument("--epsinf", type=float, required=True)
    r.add_argument("--iters", type=int, default=100)
    r.add_argument("--restarts", type=int, default=10)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--limit", type=_positive_int, default=1000)
    r.add_argument("--deterministic", action="store_true")
    r.add_argument("--out", default=None)
    r.add_argument("--csv", default=None)
    r.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, mmr_train.TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
