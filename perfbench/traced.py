"""Run one lastlayer CLI command with timing wrappers around its layers.

Usage: python3 perfbench/traced.py OUT.json <lastlayer CLI arguments>

Before the command runs, each traced public function is replaced, in every
lastlayer module that binds it by name, by a wrapper that counts calls and
adds up wall time.  Nothing in the package changes.  The wrappers also
check what passes through them: lower layers stay bit-identical across
``post_train`` and ``replace_last_layer``, ``krr_solve`` agrees with an
independent least-squares solve, and a sample of the matrices given to
``min_eigenvalue_symmetric`` has the same smallest eigenvalue as LAPACK.
Per-layer metrics and check results go to OUT.json; the exit status is the
command's.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict

import numpy as np

import checks
import lastlayer

MODULES = [lastlayer] + [
    importlib.import_module(f"lastlayer.{info.name}") for info in pkgutil.iter_modules(lastlayer.__path__)
]
EIG_SAMPLE_EVERY = 4

COUNT = "count"
LAYER_UNITS = {
    "data.prepare_s": "s",
    "data.load_csv_s": "s",
    "data.split_s": "s",
    "rng.permutation_calls": COUNT,
    "rng.permutation_s": "s",
    "linalg.matmul_calls": COUNT,
    "linalg.matmul_inner_steps": COUNT,
    "linalg.matmul_s": "s",
    "linalg.solve_spd_s": "s",
    "linalg.check_symmetric_s": "s",
    "linalg.min_eigenvalue_calls": COUNT,
    "linalg.min_eigenvalue_s": "s",
    "network.loss_and_gradients_calls": COUNT,
    "network.loss_and_gradients_s": "s",
    "network.forward_calls": COUNT,
    "network.forward_s": "s",
    "network.feature_map_s": "s",
    "train.sgd_s": "s",
    "train.sgd_steps": COUNT,
    "train.sgd_self_s": "s",
    "posttrain.post_train_s": "s",
    "posttrain.iterations": COUNT,
    "posttrain.effective_features_s": "s",
    "kernel.krr_solve_s": "s",
    "kernel.gram_s": "s",
    "kernel.dual_rows": COUNT,
    "kernel.gram_bytes": "bytes-computed",
    "convexity.ce_hessian_calls": COUNT,
    "experiment.check_suite_s": "s",
    "experiment.convexity_statistics_s": "s",
    "trace.overhead_s": "s",  # traced minus untraced wall time, set by run.py
}


class Recorder:
    def __init__(self):
        self.ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.depth = defaultdict(int)
        self.counts = defaultdict(int)
        self.checks = {}

    def note(self, name: str, error: float, tolerance: float) -> None:
        entry = self.checks.setdefault(name, {"max_error": 0.0, "tolerance": tolerance, "samples": 0})
        entry["max_error"] = max(entry["max_error"], error)
        entry["samples"] += 1

    def wrap(self, owner, attr: str, key: str, after=None) -> None:
        """Trace ``owner.attr`` under ``key``; nested calls under the same key
        add their time once, to the outermost call."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.depth[key] += 1
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                self.depth[key] -= 1
                if self.depth[key] == 0:
                    self.ns[key] += elapsed
                self.calls[key] += 1
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        for module in MODULES:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)

    def seconds(self, key: str) -> float:
        return self.ns[key] / 1e9


def install(rec: Recorder) -> None:
    from lastlayer import convexity, data, experiment, kernel, linalg, network, posttrain, rng, train

    def matmul_after(args, kwargs, result, elapsed):
        rec.counts["matmul_inner_steps"] += int(np.shape(args[0])[1])

    def lag_after(args, kwargs, result, elapsed):
        if rec.depth["train.sgd"]:
            rec.counts["lag_in_sgd_ns"] += elapsed

    def sgd_after(args, kwargs, result, elapsed):
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        rec.counts["sgd_steps"] += cfg.iterations

    def replace_after(args, kwargs, result, elapsed):
        same = checks.lower_layers_identical(args[0], result)
        rec.note("replace_last_layer_lower_layers_identical", 0.0 if same else 1.0, 0.0)

    def post_train_after(args, kwargs, result, elapsed):
        tuned, metrics = result
        rec.counts["posttrain_iterations"] += len(metrics.points) - 1
        same = checks.lower_layers_identical(args[0], tuned)
        rec.note("post_train_lower_layers_identical", 0.0 if same else 1.0, 0.0)

    def krr_after(args, kwargs, result, elapsed):
        feats = np.asarray(args[0], dtype=np.float64)
        y = np.asarray(args[1], dtype=np.float64)
        lam = args[2] if len(args) > 2 else kwargs["lam"]
        convention = args[3] if len(args) > 3 else kwargs.get("convention", "objective_consistent")
        n = feats.shape[0]
        rec.counts["dual_rows"] += n
        rec.counts["gram_bytes"] += 8 * n * n
        shift = lam if convention == "paper_literal" else n * lam
        reference = checks.ridge_lstsq(feats, y, shift)
        error = float(np.max(np.abs(result.weights - reference))) / max(float(np.max(np.abs(reference))), 1e-300)
        rec.note("krr_solve_vs_lstsq", error, checks.RIDGE_RTOL)

    def eig_after(args, kwargs, result, elapsed):
        if rec.calls["linalg.min_eigenvalue"] % EIG_SAMPLE_EVERY:
            return
        a = np.asarray(args[0], dtype=np.float64)
        reference = float(np.linalg.eigvalsh(0.5 * (a + a.T))[0])
        scale = max(1.0, float(np.max(np.abs(a))))
        rec.note("min_eigenvalue_vs_eigvalsh", abs(result - reference) / scale, checks.EIG_ATOL)

    # inner wrappers first: a function traced under two keys is wrapped twice
    rec.wrap(data, "load_csv", "data.load_csv")
    rec.wrap(data, "split", "data.split")
    for name in ("gen_synthetic", "load_csv", "split", "standardize", "apply_standardization"):
        rec.wrap(data, name, "data.prepare")
    rec.wrap(rng.Rng, "permutation", "rng.permutation")
    rec.wrap(linalg, "matmul", "linalg.matmul", matmul_after)
    rec.wrap(linalg, "solve_spd", "linalg.solve_spd")
    rec.wrap(linalg, "check_symmetric", "linalg.check_symmetric")
    rec.wrap(linalg, "min_eigenvalue_symmetric", "linalg.min_eigenvalue", eig_after)
    rec.wrap(network, "loss_and_gradients", "network.loss_and_gradients", lag_after)
    rec.wrap(network, "forward", "network.forward")
    rec.wrap(network, "feature_map", "network.feature_map")
    rec.wrap(network, "replace_last_layer", "network.replace_last_layer", replace_after)
    rec.wrap(train, "sgd_train", "train.sgd", sgd_after)
    rec.wrap(posttrain, "post_train", "posttrain.post_train", post_train_after)
    rec.wrap(posttrain, "effective_features", "posttrain.effective_features")
    rec.wrap(kernel, "krr_solve", "kernel.krr_solve", krr_after)
    rec.wrap(kernel, "gram", "kernel.gram")
    rec.wrap(convexity, "ce_hessian", "convexity.ce_hessian")
    rec.wrap(experiment, "check_suite", "experiment.check_suite")
    rec.wrap(experiment, "convexity_statistics", "experiment.convexity_statistics")


def layer_metrics(rec: Recorder) -> dict:
    s = rec.seconds
    return {
        "data.prepare_s": s("data.prepare"),
        "data.load_csv_s": s("data.load_csv"),
        "data.split_s": s("data.split"),
        "rng.permutation_calls": rec.calls["rng.permutation"],
        "rng.permutation_s": s("rng.permutation"),
        "linalg.matmul_calls": rec.calls["linalg.matmul"],
        "linalg.matmul_inner_steps": rec.counts["matmul_inner_steps"],
        "linalg.matmul_s": s("linalg.matmul"),
        "linalg.solve_spd_s": s("linalg.solve_spd"),
        "linalg.check_symmetric_s": s("linalg.check_symmetric"),
        "linalg.min_eigenvalue_calls": rec.calls["linalg.min_eigenvalue"],
        "linalg.min_eigenvalue_s": s("linalg.min_eigenvalue"),
        "network.loss_and_gradients_calls": rec.calls["network.loss_and_gradients"],
        "network.loss_and_gradients_s": s("network.loss_and_gradients"),
        "network.forward_calls": rec.calls["network.forward"],
        "network.forward_s": s("network.forward"),
        "network.feature_map_s": s("network.feature_map"),
        "train.sgd_s": s("train.sgd"),
        "train.sgd_steps": rec.counts["sgd_steps"],
        "train.sgd_self_s": (rec.ns["train.sgd"] - rec.counts["lag_in_sgd_ns"]) / 1e9,
        "posttrain.post_train_s": s("posttrain.post_train"),
        "posttrain.iterations": rec.counts["posttrain_iterations"],
        "posttrain.effective_features_s": s("posttrain.effective_features"),
        "kernel.krr_solve_s": s("kernel.krr_solve"),
        "kernel.gram_s": s("kernel.gram"),
        "kernel.dual_rows": rec.counts["dual_rows"],
        "kernel.gram_bytes": rec.counts["gram_bytes"],
        "convexity.ce_hessian_calls": rec.calls["convexity.ce_hessian"],
        "experiment.check_suite_s": s("experiment.check_suite"),
        "experiment.convexity_statistics_s": s("experiment.convexity_statistics"),
    }


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    from lastlayer import cli

    status = cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": layer_metrics(rec), "checks": rec.checks}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
