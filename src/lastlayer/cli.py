"""Command-line interface.

Subcommands mirror the library surface: generate data, train, fine-tune
the last layer, solve the closed form, run the three-way comparison, and
run the self-check suite.  Commands that take a config read the same JSON
document format; ``--seed`` overrides the run seeds and ``--out`` selects
the output directory.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import replace
from importlib import resources

from . import jsonio
from .data import gen_synthetic, save_csv, save_dataset
from .experiment import (
    check_suite,
    config_from_dict,
    config_to_dict,
    convexity_statistics,
    prepare_run,
    rows_to_csv,
    run_experiment,
)
from .kernel import ridge_solve, save_solution
from .network import check_loss_pairing, load_network, save_network
from .posttrain import effective_features, post_train, with_effective_last_weights
from .train import sgd_train


def _load_config(args):
    if args.config == "synthetic" or args.config == "parkinson":
        text = resources.files("lastlayer.configs").joinpath(f"{args.config}.json").read_text()
        doc = jsonio.loads(text)
    else:
        doc = jsonio.load(args.config)
    cfg = config_from_dict(doc)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seeds=[args.seed])
    return cfg


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def cmd_gen_data(args) -> int:
    ds = gen_synthetic(args.n, args.seed)
    if args.out.endswith(".csv"):
        save_csv(ds, args.out)
    else:
        save_dataset(ds, args.out)
    print(f"wrote {ds.n} samples to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out = _ensure_out(args.out)
    train_ds, test_ds, net, train_cfg, _ = prepare_run(cfg, cfg.seeds[0])
    net, metrics = sgd_train(net, train_ds, train_cfg, cfg.loss, eval_data=test_ds)
    save_network(net, os.path.join(out, "network.json"))
    metrics.write_jsonl(os.path.join(out, "metrics.jsonl"))
    metrics.write_csv(os.path.join(out, "metrics.csv"))
    jsonio.dump(config_to_dict(cfg), os.path.join(out, "resolved_config.json"))
    print(f"trained {train_cfg.iterations} iterations; outputs in {out}")
    return 0


def cmd_post_train(args) -> int:
    cfg = _load_config(args)
    out = _ensure_out(args.out)
    train_ds, test_ds, _, _, pt_cfg = prepare_run(cfg, cfg.seeds[0])
    net = load_network(args.network)
    tuned, metrics = post_train(net, train_ds, pt_cfg, cfg.loss, eval_data=test_ds)
    save_network(tuned, os.path.join(out, "network_posttrained.json"))
    metrics.write_jsonl(os.path.join(out, "posttrain_metrics.jsonl"))
    metrics.write_csv(os.path.join(out, "posttrain_metrics.csv"))
    jsonio.dump(config_to_dict(cfg), os.path.join(out, "resolved_config.json"))
    stopped = f" ({metrics.termination})" if metrics.termination else ""
    print(f"fine-tuned last layer for {metrics.points[-1].iteration} iterations{stopped}; "
          f"outputs in {out}")
    return 0


def cmd_krr(args) -> int:
    cfg = _load_config(args)
    if cfg.loss != "squared_error":
        raise ValueError(
            f"krr fits the squared-error last layer in closed form; the config's loss is {cfg.loss!r}"
        )
    net = load_network(args.network)
    check_loss_pairing(net, cfg.loss)
    out = _ensure_out(args.out)
    train_ds, *_ = prepare_run(cfg, cfg.seeds[0])
    feats = effective_features(net, train_ds.x)
    solution = ridge_solve(feats, train_ds.y, cfg.posttrain.lam, cfg.krr_convention)
    save_solution(solution, os.path.join(out, "krr_solution.json"))
    best = with_effective_last_weights(net, solution.weights.T)
    save_network(best, os.path.join(out, "network_optimal.json"))
    jsonio.dump(config_to_dict(cfg), os.path.join(out, "resolved_config.json"))
    print(f"closed-form solve done (N={train_ds.n}); outputs in {out}")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    out = _ensure_out(args.out)
    rows = run_experiment(cfg, jobs=_cpus())
    csv_path = os.path.join(out, "comparison.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(rows_to_csv(rows))
    jsonio.dump(config_to_dict(cfg), os.path.join(out, "resolved_config.json"))
    print(rows_to_csv(rows), end="")
    print(f"wrote {csv_path}")
    return 0


def cmd_check(args) -> int:
    if args.convexity:
        stats = convexity_statistics(seed=args.seed)
        print(jsonio.dumps(stats, indent=2))
        if args.out:
            jsonio.dump(stats, args.out)
        return 0 if stats["passed"] else 1
    report = check_suite(seed=args.seed)
    print(report.summary())
    if args.out:
        jsonio.dump(report.to_dict(), args.out)
    return 0 if report.passed else 1


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lastlayer",
        description="Last-layer convex fine-tuning with a kernel ridge closed-form oracle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic regression dataset")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path (.json or .csv)")
    p.set_defaults(func=cmd_gen_data)

    for name, func, needs_network in (
        ("train", cmd_train, False),
        ("post-train", cmd_post_train, True),
        ("krr", cmd_krr, True),
        ("compare", cmd_compare, False),
    ):
        p = sub.add_parser(name)
        p.add_argument(
            "--config",
            required=True,
            help="config JSON path, or a bundled name: 'synthetic' | 'parkinson'",
        )
        p.add_argument("--seed", type=int, default=None, help="override run seeds")
        p.add_argument("--out", required=True, help="output directory")
        if needs_network:
            p.add_argument("--network", required=True, help="network JSON to start from")
        p.set_defaults(func=func)

    p = sub.add_parser("check", help="run the numerical self-check suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional JSON report path")
    p.add_argument(
        "--convexity",
        action="store_true",
        help="print min-eigenvalue statistics of the softmax curvature only",
    )
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def run() -> int:
    """Process entry point, for ``python -m lastlayer.cli`` and the
    ``lastlayer`` console script: ``main()`` on ``sys.argv``, then
    ``gc.freeze()``.  The interpreter's collections at exit then skip the
    objects alive when ``main()`` returned, most of them made by the
    imports, which shortens every command's exit.  The exit still runs
    atexit hooks and flushes the streams.  A ``main()`` called in process
    freezes nothing."""
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())
