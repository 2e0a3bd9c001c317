"""Command-line entry point: data generation, training, certification,
attacks, geometry curves and combined evaluation reports.

All randomness of one invocation flows from a single seed; with
--deterministic set, reports are byte-identical across runs on the same
inputs (the wall-clock runtime field is omitted).
"""

from __future__ import annotations

import argparse
import functools
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
    net, data, sub = _load_inputs(model_path, data_path, limit)
    eps = certify._eps_triple(eps)
    if eps.eps2 is None:
        eps = eps._replace(eps2=derive_eps2(eps.eps1, eps.eps_inf, data.dim))
    test_error = float(np.mean(net_core.classify_batch(net, data.features) != data.labels))

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


def _write_lines(path, header: str, lines) -> None:
    """The header line, then each of lines, taken one at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def _write_csv(path, header: str, rows) -> None:
    """The header line, then one line of str(cell)s per row; str of a Python
    float is its repr, which reads back bit for bit."""
    _write_lines(path, header, (",".join(map(str, row)) + "\n" for row in rows))


def _load_data(path, dim=None, source=None):
    """The dataset at path; ValueError naming path (and source) unless its
    points have dimension dim, that of source, if given, and it holds any."""
    data = datasets.load_dataset(path)
    if dim is not None and data.dim != dim:
        raise ValueError(f"{path}: points have dimension {data.dim}, but {source} has {dim}")
    if not data.count:
        raise ValueError(f"{path}: the dataset holds no points")
    return data


def _load_inputs(model, data, limit):
    """The net at model, the dataset at data (_load_data) and its first
    limit points (all if limit is None)."""
    net = net_core.load_model(model)
    dataset = _load_data(data, net.input_dim, model)
    return net, dataset, dataset if limit is None else dataset.head(limit)


def _emit_summary(summary: dict, out) -> None:
    """Print the summary as one JSON line; write it indented to out if given."""
    print(json.dumps(summary, sort_keys=True))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, sort_keys=True, indent=2))


def _cmd_gen_data(args) -> int:
    if args.kind == "blobs":
        ds = datasets.gen_blobs(args.n, seed=args.seed, std=args.std)
    else:
        ds = datasets.gen_corners(args.n, seed=args.seed, dim=args.dim,
                                  num_classes=args.classes, spread=args.std)
    datasets.save_dataset(ds, args.out, fmt=args.format)
    print(json.dumps({"kind": args.kind, "count": ds.count, "d": ds.dim,
                      "K": ds.num_classes, "out": args.out}))
    return 0


# the train flag behind each field of the training configs
_TRAIN_FLAGS = {"lambda1": "--lambda1", "lambda_inf": "--lambdainf", "gamma1": "--gamma1",
                "gamma_inf": "--gammainf", "epochs": "--epochs", "batch_size": "--batch",
                "learning_rate": "--lr"}


def _cmd_train(args) -> int:
    try:
        mmr_cfg = mmr_train.MmrUniversalConfig(
            lambda1=args.lambda1, lambda_inf=args.lambdainf,
            gamma1=args.gamma1, gamma_inf=args.gammainf)
        train_cfg = mmr_train.TrainConfig(
            epochs=args.epochs, batch_size=args.batch,
            learning_rate=args.lr, seed=args.seed)
    except ValueError as exc:
        # the configs' messages start with the field at fault: name its flag
        field, _, rest = str(exc).partition(" ")
        raise ValueError(f"{_TRAIN_FLAGS.get(field, field)} {rest}") from None
    data = _load_data(args.data)
    eval_data = _load_data(args.eval_data, data.dim, args.data) if args.eval_data else None
    sizes = [data.dim] + args.arch + [data.num_classes]
    net0 = net_core.random_net(sizes, seed=args.seed)
    net, history = mmr_train.train(net0, data, mmr_cfg, train_cfg,
                                   eval_dataset=eval_data)
    net_core.save_model(net, args.out)
    if args.history:
        _write_csv(args.history, ",".join(history[0]), (row.values() for row in history))
    print(json.dumps({"out": args.out, "epochs": args.epochs,
                      "final_loss": history[-1]["loss"],
                      "final_test_error": history[-1]["test_error"]}))
    return 0


def _cmd_certify(args) -> int:
    net, _, data = _load_inputs(args.model, args.data, args.limit)
    eps = certify.EpsTriple(args.eps1, args.eps2, args.epsinf)
    certs = certify.certificates(net, data.features, data.labels)
    # regions: the number of distinct activation regions among the points
    summary = {"test_error": float(np.mean(~certs.correct)),
               "regions": int(certs.region.max()) + 1}
    summary.update({f"ub_{n}": v for n, v in certify.bounds(certs, eps).items()})
    if args.per_point_csv:
        # the cells of _write_csv, one f-string a row; lb_l1, lb_linf repeat
        # rho1, rho_inf, whose repr (a float's str) is taken once
        rows = zip(range(data.count), certs.label.tolist(), certs.predicted.tolist(),
                   certs.correct.astype(int).tolist(), map(repr, certs.rho1.tolist()),
                   map(repr, certs.rho_inf.tolist()), certs.universal_bound(2.0).tolist())
        _write_lines(args.per_point_csv,
                     "index,label,predicted,correct,rho1,rho_inf,lb_l1,lb_l2,lb_linf",
                     (f"{i},{y},{p},{c},{r1},{ri},{r1},{r2!r},{ri}\n"
                      for i, y, p, c, r1, ri, r2 in rows))
    _emit_summary(summary, args.out)
    return 0


def _cmd_attack(args) -> int:
    net, _, data = _load_inputs(args.model, args.data, args.limit)
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
        header, cols = ["index"], []
        for name, (success, best_norm, _) in results.items():
            header += [f"success_{name}", f"norm_{name}"]
            cols += [success.astype(int).tolist(), best_norm.tolist()]
        _write_csv(args.per_point_csv, ",".join(header), zip(range(data.count), *cols))
    _emit_summary(summary, args.out)
    return 0


def _cmd_geometry(args) -> int:
    table = geometry.curve_table(args.d, p=args.p, num=args.num)
    _write_csv(args.out, "delta,naive,union,hull,ratio", table.tolist())
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
        bounds = [report.per_norm[n] for n in ("l1", "l2", "linf")] + [report.union]
        row = [report.model_id, report.test_error] + [b[k] for b in bounds for k in ("lb", "ub")]
        _write_csv(args.csv, "model,test_error,lb_l1,ub_l1,lb_l2,ub_l2,lb_linf,ub_linf,"
                   "lb_union,ub_union", [row])
    return 0


def _positive_int(text: str) -> int:
    """argparse type of a count (--limit, --num, --n, --iters, --restarts):
    an integer >= 1, in decimal digits."""
    if not (text.isascii() and text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _fraction(text: str) -> float:
    """argparse type of --sparsity: a number in (0, 1]."""
    if not 0.0 < float(text) <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text!r}")
    return float(text)


def _hidden_sizes(text: str) -> list:
    """argparse type of --arch: comma-separated hidden layer sizes, each an
    integer >= 1; blank entries are skipped, so "" is a net with no hidden
    layer."""
    try:
        return [_positive_int(s.strip()) for s in text.split(",") if s.strip()]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers >= 1, got {text!r}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later calls: each parse
    fills a new namespace, so calls share no values.  Flags that several
    subcommands share come from parent parsers, whose Action objects those
    subcommands hold in common: a default set on one would change it for
    all, so --limit (every point for certify and attack, 1000 for report)
    is defined per subcommand."""
    parser = argparse.ArgumentParser(
        prog="relucert",
        description="Train small ReLU classifiers with joint l1/linf margin "
                    "regularization and certify their robustness for every lp-norm.")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    inputs = argparse.ArgumentParser(add_help=False)  # certify, attack, report
    inputs.add_argument("--model", required=True)
    inputs.add_argument("--data", required=True)
    inputs.add_argument("--out", default=None)
    pgd = argparse.ArgumentParser(add_help=False, parents=[seed])  # attack, report
    pgd.add_argument("--iters", type=_positive_int, default=100)
    pgd.add_argument("--restarts", type=_positive_int, default=10)

    g = sub.add_parser("gen-data", parents=[seed], help="generate a synthetic dataset")
    g.add_argument("--kind", choices=["blobs", "corners"], default="blobs")
    g.add_argument("--n", type=_positive_int, default=1000)
    g.add_argument("--std", type=float, default=0.05,
                   help="blob std / corner spread")
    g.add_argument("--dim", type=int, default=16, help="corners only")
    g.add_argument("--classes", type=int, default=2, help="corners only")
    g.add_argument("--format", choices=["bin", "csv"], default="bin")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen_data)

    t = sub.add_parser("train", parents=[seed], help="train a model")
    t.add_argument("--data", required=True)
    t.add_argument("--eval-data", default=None)
    t.add_argument("--arch", type=_hidden_sizes, default="64",
                   help="comma separated hidden sizes")
    t.add_argument("--lambda1", type=float, default=1.0)
    t.add_argument("--lambdainf", type=float, default=6.0)
    t.add_argument("--gamma1", type=float, default=1.0)
    t.add_argument("--gammainf", type=float, default=0.1)
    t.add_argument("--epochs", type=int, default=100)
    t.add_argument("--batch", type=int, default=128)
    t.add_argument("--lr", type=float, default=5e-4)
    t.add_argument("--out", required=True, help="model file path")
    t.add_argument("--history", default=None, help="per-epoch CSV path")
    t.set_defaults(func=_cmd_train)

    c = sub.add_parser("certify", parents=[inputs], help="certified robust-error upper bounds")
    for flag in ("--eps1", "--eps2", "--epsinf"):
        c.add_argument(flag, type=float, required=True)
    c.add_argument("--limit", type=_positive_int, default=None)
    c.add_argument("--per-point-csv", default=None)
    c.set_defaults(func=_cmd_certify)

    a = sub.add_parser("attack", parents=[inputs, pgd],
                       help="PGD lower bounds on the robust error")
    a.add_argument("--norm", choices=["l1", "l2", "linf", "all"], default="all")
    for flag in ("--eps1", "--eps2", "--epsinf"):
        a.add_argument(flag, type=float, default=None)
    a.add_argument("--sparsity", type=_fraction, default=0.01)
    a.add_argument("--limit", type=_positive_int, default=None)
    a.add_argument("--per-point-csv", default=None)
    a.set_defaults(func=_cmd_attack)

    ge = sub.add_parser("geometry", help="union/hull bound curves as CSV")
    ge.add_argument("--d", type=int, required=True)
    ge.add_argument("--p", type=float, default=2.0)
    ge.add_argument("--num", type=_positive_int, default=2048)
    ge.add_argument("--out", required=True)
    ge.set_defaults(func=_cmd_geometry)

    r = sub.add_parser("report", parents=[inputs, pgd],
                       help="full evaluation: test error, LB and UB")
    r.add_argument("--eps1", type=float, required=True)
    r.add_argument("--eps2", type=float, default=None,
                   help="defaults to the l2 radius implied by eps1 and epsinf "
                        "in the data's dimension")
    r.add_argument("--epsinf", type=float, required=True)
    r.add_argument("--limit", type=_positive_int, default=1000)
    r.add_argument("--deterministic", action="store_true")
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
