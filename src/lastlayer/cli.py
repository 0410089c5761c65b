"""Command-line interface.

Subcommands mirror the library surface: generate data (as CSV), train,
fine-tune the last layer, solve the closed form, run the three-way
comparison, and run the self-check suite.  Commands that take a config
read the same JSON document format; ``--seed`` overrides the run seeds and
``--out`` selects the output directory, where ``resolved_config.json``
re-runs what ran: ``compare`` runs every seed, the other config commands
the first one alone, and a ``--network`` must have the config's layers.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import os
import sys
from dataclasses import replace
from functools import partial

from . import jsonio
from .data import gen_synthetic, save_csv
from .experiment import (
    _materialize_data,
    check_suite,
    closed_form_fit,
    config_from_dict,
    config_to_dict,
    convexity_statistics,
    for_run_seed,
    prepare_run,
    rows_to_csv,
    run_experiment,
)
from .kernel import solution_to_dict
from .network import check_loss_pairing, load_network, network_to_dict
from .posttrain import post_train
from .train import TrainingDivergedError, sgd_train


def _load_config(args):
    path = args.config
    if path in ("synthetic", "parkinson"):
        path = os.path.join(os.path.dirname(__file__), "configs", f"{path}.json")
    cfg = config_from_dict(jsonio.load(path))
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seeds=[args.seed])
    return cfg


def cmd_gen_data(args) -> int:
    if not args.out.endswith(".csv"):
        raise ValueError(f"gen-data writes CSV only; --out {args.out!r} does not end in .csv")
    ds = gen_synthetic(args.n, args.seed)
    save_csv(ds, args.out)
    print(f"wrote {ds.n} samples to {args.out}")
    return 0


def _config_command(run, every_seed=False):
    """A config command: ``run(cfg, args)`` returns its files, by name, and
    its stdout message; only then are ``--out`` and every file written,
    ``resolved_config.json`` last, so a failing command writes nothing.  A
    ``str`` is written as UTF-8 text, anything else through ``jsonio.dump``.
    Unless ``every_seed``, the command runs the config's first seed alone,
    and the resolved config names that seed alone."""

    def command(args) -> int:
        cfg = _load_config(args)
        if not every_seed:
            cfg = replace(cfg, seeds=cfg.seeds[:1])
        files, message = run(cfg, args)
        files["resolved_config.json"] = config_to_dict(cfg)
        os.makedirs(args.out, exist_ok=True)
        for name, content in files.items():
            path = os.path.join(args.out, name)
            if isinstance(content, str):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(content)
            else:
                jsonio.dump(content, path)
        print(message)
        return 0

    return command


def _refuse_other_layers(cfg, net, path: str) -> None:
    """ValueError naming the first layer where ``net``, read from ``path``,
    differs from the config's ``network.layers``, which the resolved config
    records as the network that ran."""
    specs = [layer.spec for layer in net.layers]
    for index, (spec, wanted) in enumerate(itertools.zip_longest(specs, cfg.layer_specs)):
        if spec != wanted:
            raise ValueError(f"--network {path!r} layer {index} is {spec or 'absent'}, "
                             f"but the config's network.layers[{index}] is {wanted or 'absent'}")


@_config_command
def cmd_train(cfg, args):
    train_ds, test_ds, net, train_cfg, _ = prepare_run(cfg, cfg.seeds[0])
    net, metrics = sgd_train(net, train_ds, train_cfg, cfg.loss, eval_data=test_ds)
    files = {"network.json": network_to_dict(net), "metrics.jsonl": metrics.to_jsonl(),
             "metrics.csv": metrics.to_csv()}
    return files, f"trained {train_cfg.iterations} iterations; outputs in {args.out}"


@_config_command
def cmd_post_train(cfg, args):
    train_ds, test_ds = _materialize_data(cfg, cfg.seeds[0])
    net = load_network(args.network)
    _refuse_other_layers(cfg, net, args.network)
    pt_cfg = for_run_seed(cfg.posttrain, cfg.seeds[0])
    tuned, metrics = post_train(net, train_ds, pt_cfg, cfg.loss, eval_data=test_ds)
    files = {"network_posttrained.json": network_to_dict(tuned),
             "posttrain_metrics.jsonl": metrics.to_jsonl(),
             "posttrain_metrics.csv": metrics.to_csv()}
    stopped = f" ({metrics.termination})" if metrics.termination else ""
    return files, (f"fine-tuned last layer for {metrics.points[-1].iteration} iterations"
                   f"{stopped}; outputs in {args.out}")


@_config_command
def cmd_krr(cfg, args):
    if cfg.loss != "squared_error":
        raise ValueError(
            f"krr fits the squared-error last layer in closed form; the config's loss is {cfg.loss!r}"
        )
    net = load_network(args.network)
    check_loss_pairing(net.layers[-1].spec, cfg.loss)
    train_ds, _ = _materialize_data(cfg, cfg.seeds[0])
    _refuse_other_layers(cfg, net, args.network)
    solution, best = closed_form_fit(cfg, net, train_ds)
    files = {"krr_solution.json": solution_to_dict(solution),
             "network_optimal.json": network_to_dict(best)}
    return files, f"closed-form solve done (N={train_ds.n}); outputs in {args.out}"


@partial(_config_command, every_seed=True)
def cmd_compare(cfg, args):
    text = rows_to_csv(run_experiment(cfg, jobs=_cpus()))
    return {"comparison.csv": text}, text + f"wrote {os.path.join(args.out, 'comparison.csv')}"


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
    p.add_argument("--out", required=True, help="output CSV path, ending in .csv")
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
    atexit hooks and flushes the streams.  A refused command, one whose
    ``main()`` raises ValueError or OSError, prints the one stderr line
    ``lastlayer: <ExceptionType>: <message>`` and returns 2.  A diverging
    run, one whose ``main()`` raises TrainingDivergedError, prints the same
    line, which names the phase and the iteration, and returns 1.  A ``main()`` called in
    process freezes nothing and raises what it raises."""
    try:
        status = main()
    except (ValueError, OSError, TrainingDivergedError) as err:
        print(f"lastlayer: {type(err).__name__}: {err}", file=sys.stderr)
        return 1 if isinstance(err, TrainingDivergedError) else 2
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())
