"""Experiment harness: config validation, the three-way comparison
protocol, output determinism, and the self-check suite's sensitivity."""

import functools
import importlib.util
import json
import math
import os
import re
import time
import tracemalloc
from dataclasses import asdict, replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from conftest import forward_objective

from lastlayer import experiment, jsonio
from lastlayer.convexity import SoftmaxInstance, ce_value
from lastlayer.data import CsvFormatError, Dataset
from lastlayer.experiment import (
    CheckResult,
    ComparisonRow,
    DatasetSpec,
    ExperimentConfig,
    _fd_ce_hessian,
    _fd_loss_gradient,
    _random_batch,
    _random_net,
    _random_softmax_instance,
    check_suite,
    config_from_dict,
    config_to_dict,
    convexity_statistics,
    rmse,
    rows_to_csv,
    run_experiment,
)
from lastlayer.linalg import DimensionMismatchError, sq_frobenius
from lastlayer.network import LayerSpec, build_network, forward, loss_eval
from lastlayer.posttrain import PostTrainConfig, _CachedProblem
from lastlayer.rng import Rng, derive
from lastlayer.train import TrainConfig, TrainingDivergedError
from lastlayer.workers import RemoteTraceback, WorkerDiedError


def csv_dataset(**columns):
    """Replace a config document's dataset with a CSV one reading ``columns``."""
    spec = {"kind": "csv", "path": "data.csv", "feature_columns": ["x0"], "target_columns": ["y0"]}
    return lambda doc: doc.update(dataset={**spec, **columns})


def tiny_config_doc(**overrides):
    doc = {
        "dataset": {"kind": "synthetic", "n": 240, "seed": 11},
        "split": {"fraction": 0.7, "seed": 22},
        "standardize": True,
        "network": {
            "init_seed": 33,
            "layers": [
                {"input_dim": 10, "output_dim": 6, "activation": "tanh", "has_bias": True},
                {"input_dim": 6, "output_dim": 1, "activation": "identity", "has_bias": False},
            ],
        },
        "loss": "squared_error",
        "train": {
            "iterations": 40,
            "batch_size": 20,
            "lr0": 0.02,
            "lr_decay": 1.0,
            "dropout_keep": [1.0],
            "weight_decay": 0.001,
            "seed": 44,
            "eval_every": 20,
        },
        "posttrain": {
            "lambda": 0.001,
            "iterations": 25,
            "mode": "minibatch",
            "batch_size": 20,
            "lr": 0.05,
            "seed": 55,
        },
        "checkpoints": [20, 40],
        "metric": "rmse",
        "krr_convention": "objective_consistent",
        "seeds": [0, 1],
    }
    doc.update(overrides)
    return doc


class TestConfig:
    @pytest.mark.parametrize("make, message", [
        (lambda cfg: DatasetSpec(kind="parquet"),
         "dataset kind must be 'synthetic' or 'csv', got 'parquet'"),
        (lambda cfg: DatasetSpec(kind="csv"), "csv dataset requires a path"),
        (lambda cfg: replace(cfg, metric="mae"),
         "metric must be one of ('rmse', 'classification_error')"),
        (lambda cfg: replace(cfg, checkpoints=[]), "at least one checkpoint is required"),
        (lambda cfg: replace(cfg, metric="classification_error"),
         "classification_error metric requires cross_entropy loss"),
    ])
    def test_refuses(self, make, message):
        cfg = config_from_dict(tiny_config_doc())
        with pytest.raises(ValueError, match=re.escape(message)):
            make(cfg)

    def test_round_trip(self):
        cfg = config_from_dict(tiny_config_doc())
        again = config_from_dict(config_to_dict(cfg))
        assert config_to_dict(cfg) == config_to_dict(again)

    def test_round_trip_every_field_through_json(self):
        # every field differs from its default, so a key that is not read
        # back or not written out shows as a difference; a csv dataset
        # refuses n and seed, which the next test round-trips
        cfg = ExperimentConfig(
            dataset=DatasetSpec(
                kind="csv", path="data.csv", feature_columns=["a", "b"],
                target_columns=["c", "d"], has_header=False,
            ),
            split_fraction=0.6,
            split_seed=3,
            standardize=False,
            init_seed=9,
            layer_specs=[
                LayerSpec(2, 3, "relu", has_bias=False),
                LayerSpec(3, 2, "softmax", has_bias=False),
            ],
            loss="cross_entropy",
            train=TrainConfig(
                iterations=30, batch_size=5, lr0=0.3, lr_decay=0.9, dropout_keep=[0.8],
                weight_decay=0.01, seed=4, eval_every=10,
            ),
            posttrain=PostTrainConfig(
                lam=2e-3, iterations=17, mode="minibatch", batch_size=9, lr=0.2, seed=6,
                grad_tol=1e-9,
            ),
            checkpoints=[10, 30],
            metric="classification_error",
            seeds=[5, 8],
            krr_convention="paper_literal",
        )
        doc = jsonio.loads(jsonio.dumps(config_to_dict(cfg)))
        assert doc["posttrain"]["grad_tol"] == 1e-9
        assert config_from_dict(doc) == cfg

    def test_round_trip_synthetic_dataset_keys(self):
        doc = tiny_config_doc(dataset={"kind": "synthetic", "n": 123, "seed": 7})
        cfg = config_from_dict(doc)
        again = config_from_dict(jsonio.loads(jsonio.dumps(config_to_dict(cfg))))
        assert (again.dataset.n, again.dataset.seed) == (123, 7)
        assert again == cfg

    def test_document_defaults(self):
        doc = tiny_config_doc()
        for key in ("standardize", "metric", "krr_convention", "seeds"):
            del doc[key]
        del doc["network"]["init_seed"]
        del doc["network"]["layers"][0]["has_bias"]
        doc["dataset"] = {"kind": "synthetic"}
        doc["train"] = {"iterations": 40, "batch_size": 20, "lr0": 0.02}
        doc["posttrain"] = {"lambda": 0.001}
        cfg = config_from_dict(doc)
        assert (cfg.standardize, cfg.metric, cfg.krr_convention, cfg.seeds, cfg.init_seed) == (
            True, "rmse", "objective_consistent", [0], 0
        )
        assert cfg.layer_specs[0].has_bias
        assert cfg.dataset == DatasetSpec(kind="synthetic", n=10000, seed=0)
        assert cfg.dataset.has_header is None
        assert cfg.train == TrainConfig(iterations=40, batch_size=20, lr0=0.02, lr_decay=1.0,
                                        weight_decay=0.0, seed=0, eval_every=100)
        assert cfg.posttrain == PostTrainConfig(
            lam=0.001, iterations=200, mode="full_batch_backtracking", batch_size=128, lr=0.05,
            seed=0, grad_tol=0.0,
        )

    def test_misspelt_keys_raise_naming_the_key(self):
        misspellings = {
            "trian": lambda doc: doc.update(trian={}),
            "posttrain.grad_tl": lambda doc: doc["posttrain"].update(grad_tl=1e-6),
            "split.frac": lambda doc: doc["split"].update(frac=0.5),
            "network.layers[0].has_bais": lambda doc: doc["network"]["layers"][0].update(
                has_bais=True
            ),
        }
        for path, misspell in misspellings.items():
            doc = tiny_config_doc()
            misspell(doc)
            with pytest.raises(ValueError, match=re.escape(repr(path))):
                config_from_dict(doc)

    def test_non_object_sections_raise_naming_the_path(self):
        text = resources.files("lastlayer.configs").joinpath("synthetic.json").read_text()
        corruptions = {
            "split": lambda doc: doc.update(split=0.7),
            "posttrain": lambda doc: doc.update(posttrain=5),
            "network.layers[0]": lambda doc: doc["network"]["layers"].__setitem__(0, 5),
            "network.layers": lambda doc: doc["network"].update(layers=5),
        }
        for path, corrupt in corruptions.items():
            doc = jsonio.loads(text)
            corrupt(doc)
            with pytest.raises(ValueError, match=re.escape(repr(path))):
                config_from_dict(doc)

    @pytest.mark.parametrize("path, corrupt, message", [
        ("posttrain.lambda", lambda doc: doc["posttrain"].pop("lambda"), "missing"),
        ("split.fraction", lambda doc: doc.pop("split"), "missing"),
        ("train.iterations", lambda doc: doc["train"].update(iterations="abc"), "an integer"),
        ("train.iterations", lambda doc: doc["train"].update(iterations=1.7), "an integer"),
        ("train.iterations", lambda doc: doc["train"].update(iterations=True), "an integer"),
        ("network.layers[0].input_dim",
         lambda doc: doc["network"]["layers"][0].update(input_dim=None), "an integer"),
        ("checkpoints[1]", lambda doc: doc["checkpoints"].__setitem__(1, "500"), "an integer"),
        ("standardize", lambda doc: doc.update(standardize="false"), "a boolean"),
        ("network.layers[0].has_bias",
         lambda doc: doc["network"]["layers"][0].update(has_bias=1), "a boolean"),
        ("train.lr0", lambda doc: doc["train"].update(lr0=False), "a number"),
        ("train.lr0", lambda doc: doc["train"].update(lr0=float("nan")), "finite"),
        ("posttrain.grad_tol",
         lambda doc: doc["posttrain"].update(grad_tol=float("nan")), "finite"),
        ("posttrain.lr", lambda doc: doc["posttrain"].update(lr=float("inf")), "finite"),
        ("split.fraction", lambda doc: doc["split"].update(fraction=float("-inf")), "finite"),
        ("train.weight_decay", lambda doc: doc["train"].update(weight_decay=10**400), "finite"),
        ("loss", lambda doc: doc.update(loss=None), "a string"),
        ("train.dropout_keep[0]",
         lambda doc: doc["train"].update(dropout_keep=[float("nan"), 1.0]), "finite"),
        ("train.dropout_keep[0]",
         lambda doc: doc["train"].update(dropout_keep=["a", 1.0]), "a number"),
        ("train.dropout_keep", lambda doc: doc["train"].update(dropout_keep=5), "a list"),
        ("dataset.feature_columns", csv_dataset(feature_columns="x0"), "a list"),
        ("dataset.feature_columns", csv_dataset(feature_columns=5), "a list"),
        ("dataset.feature_columns[0]", csv_dataset(feature_columns=[1.5]), "a column name"),
        ("dataset.target_columns[0]", csv_dataset(target_columns=[None]), "a column name"),
        ("dataset.feature_columns[1]", csv_dataset(feature_columns=["x0", True]), "a column name"),
        ("dataset.target_columns[0]", csv_dataset(target_columns=[-1]), "0-based index"),
    ])
    def test_malformed_values_raise_naming_the_path(self, path, corrupt, message):
        doc = jsonio.loads(
            resources.files("lastlayer.configs").joinpath("synthetic.json").read_text()
        )
        corrupt(doc)
        with pytest.raises(ValueError, match=f"{re.escape(repr(path))} .*{message}|{message}.*"
                           f"{re.escape(repr(path))}"):
            config_from_dict(doc)

    @pytest.mark.parametrize("path, corrupt, message", [
        ("split.fraction", lambda doc: doc["split"].update(fraction=2.5),
         "fraction must lie strictly between 0 and 1"),
        ("krr_convention", lambda doc: doc.update(krr_convention="x"),
         "krr_convention must be one of ('paper_literal', 'objective_consistent'), got 'x'"),
        ("network.layers", lambda doc: doc["network"]["layers"][-1].update(activation="softmax"),
         "squared_error requires an identity last activation"),
        ("network.layers", lambda doc: doc["network"]["layers"][1].update(input_dim=7),
         "layer chain broken: output_dim 10 feeds input_dim 7"),
        ("train", lambda doc: doc["train"].update(dropout_keep=[1.0, 1.0, 1.0]),
         "dropout_keep must list 2 probabilities, got 3"),
        ("dataset.n", lambda doc: doc["dataset"].update(n=0), "n must be >= 1"),
        ("dataset.n", lambda doc: doc["dataset"].update(n=-5), "n must be >= 1"),
        ("split.fraction", lambda doc: doc["dataset"].update(n=1),
         "degenerate split: 0 train / 1 test from 1 samples"),
        ("train", lambda doc: doc["dataset"].update(n=60),
         "batch_size 50 exceeds dataset size 42"),
        ("posttrain", lambda doc: (doc["dataset"].update(n=100),
                                   doc["posttrain"].update(batch_size=80)),
         "batch_size 80 exceeds dataset size 70"),
    ], ids=["fraction", "convention", "softmax_last", "chain", "dropout_length", "n_zero",
            "n_negative", "empty_split_side", "train_batch", "posttrain_batch"])
    def test_fields_that_do_not_fit_are_refused_naming_the_key(self, path, corrupt, message):
        # each is refused as the config is read, not once compare has built
        # the data, or after the first checkpoint's training in a worker
        doc = jsonio.loads(
            resources.files("lastlayer.configs").joinpath("synthetic.json").read_text()
        )
        corrupt(doc)
        with pytest.raises(ValueError, match=re.escape(f"config key {path!r}: {message}")):
            config_from_dict(doc)

    def test_size_rules_refuse_only_what_the_run_would(self):
        # 50 of 72 rows train, so a batch of 50 fits; full-batch post-training
        # reads no batch size; and a CSV's rows are known only once it is
        # loaded, so the run refuses its sizes there
        text = resources.files("lastlayer.configs").joinpath("synthetic.json").read_text()
        doc = jsonio.loads(text)
        doc["dataset"]["n"] = 72
        config_from_dict(doc)
        doc["posttrain"].update(mode="full_batch_backtracking", batch_size=51)
        config_from_dict(doc)
        doc = jsonio.loads(text)
        csv_dataset()(doc)
        doc["train"]["batch_size"] = 10**6
        config_from_dict(doc)

    def test_csv_columns_are_names_or_indices_and_both_lists_are_required(self):
        text = resources.files("lastlayer.configs").joinpath("synthetic.json").read_text()
        doc = jsonio.loads(text)
        csv_dataset(feature_columns=["x0", 3], target_columns=[0])(doc)
        spec = config_from_dict(doc).dataset
        assert spec.feature_columns == ["x0", 3] and spec.target_columns == [0]
        for key in ("feature_columns", "target_columns"):
            doc = jsonio.loads(text)
            csv_dataset()(doc)
            del doc["dataset"][key]
            with pytest.raises(ValueError, match="requires feature_columns and target_columns"):
                config_from_dict(doc)

    @pytest.mark.parametrize("key, value", [
        ("path", "data.csv"), ("feature_columns", ["nonsense"]), ("target_columns", [0]),
        ("has_header", True),
    ])
    def test_synthetic_dataset_rejects_csv_keys(self, key, value):
        doc = tiny_config_doc()
        doc["dataset"][key] = value
        with pytest.raises(ValueError, match=rf"dataset\.{key} applies only to a csv dataset"):
            config_from_dict(doc)

    @pytest.mark.parametrize("key, value", [("n", 500), ("seed", 3)])
    def test_csv_dataset_rejects_synthetic_keys(self, key, value):
        doc = tiny_config_doc()
        csv_dataset(**{key: value})(doc)
        with pytest.raises(ValueError, match=rf"dataset\.{key} applies only to a synthetic dataset"):
            config_from_dict(doc)

    @pytest.mark.parametrize("kind", ["synthetic", "csv"])
    def test_resolved_dataset_keeps_only_its_kinds_keys(self, kind):
        doc = tiny_config_doc()
        if kind == "csv":
            csv_dataset()(doc)
        resolved = config_to_dict(config_from_dict(doc))
        spec = config_from_dict(jsonio.loads(jsonio.dumps(resolved))).dataset
        unset = {key for key, value in resolved["dataset"].items() if value is None}
        read = {"synthetic": {"kind", "n", "seed"},
                "csv": {"kind", "path", "feature_columns", "target_columns", "has_header"}}[kind]
        assert unset == set(resolved["dataset"]) - read
        assert spec == config_from_dict(doc).dataset

    def test_numbers_are_read_by_field_type(self):
        doc = tiny_config_doc()
        doc["train"].update(iterations=40.0, lr0=1)
        cfg = config_from_dict(doc)
        assert cfg.train.iterations == 40 and type(cfg.train.iterations) is int
        assert cfg.train.lr0 == 1.0 and type(cfg.train.lr0) is float

    def test_benchmark_classification_config_loads(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "perfbench" / "classdata.py"
        spec = importlib.util.spec_from_file_location("classdata", script)
        classdata = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(classdata)
        classdata.write_classification_input(7, str(tmp_path))
        doc = json.loads((tmp_path / "classification.json").read_text())
        assert config_from_dict(doc).loss == "cross_entropy"

    def test_checkpoints_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            config_from_dict(tiny_config_doc(checkpoints=[20, 20]))

    def test_checkpoints_not_negative(self):
        with pytest.raises(ValueError, match=r"checkpoints must be >= 0, got -5"):
            config_from_dict(tiny_config_doc(checkpoints=[-5, 10]))
        assert config_from_dict(tiny_config_doc(checkpoints=[0, 10])).checkpoints == [0, 10]

    def test_checkpoints_within_budget(self):
        with pytest.raises(ValueError, match="exceed"):
            config_from_dict(tiny_config_doc(checkpoints=[20, 80]))

    def test_metric_loss_pairing(self):
        with pytest.raises(ValueError, match="rmse"):
            config_from_dict(tiny_config_doc(loss="cross_entropy"))

    def test_needs_seeds(self):
        with pytest.raises(ValueError, match="seed"):
            config_from_dict(tiny_config_doc(seeds=[]))

    # true and 1.0 equal 1 in Python, but are no version number
    @pytest.mark.parametrize("version", [99, "x", None, True, 1.0])
    def test_refuses_another_format_version(self, version):
        with pytest.raises(ValueError, match=re.escape(f"format_version {version!r}")):
            config_from_dict({"format_version": version, **tiny_config_doc()})


class TestRunExperiment:
    def test_row_shape_and_order(self):
        cfg = config_from_dict(tiny_config_doc())
        rows = run_experiment(cfg)
        assert [(r.seed, r.iterations) for r in rows] == [
            (0, 20), (0, 40), (1, 20), (1, 40)
        ]
        for row in rows:
            assert row.classic >= 0 and row.posttrained >= 0 and row.optimal >= 0

    def test_deterministic_csv(self):
        cfg = config_from_dict(tiny_config_doc())
        first = rows_to_csv(run_experiment(cfg))
        second = rows_to_csv(run_experiment(cfg))
        assert first == second

    def test_optimal_never_worse_on_train_objective(self):
        # the closed form minimizes the regularized train objective exactly,
        # so no fine-tuned network can beat it there
        from dataclasses import replace as dc_replace

        from lastlayer.experiment import _materialize_data, _optimal_last_layer
        from lastlayer.network import build_network
        from lastlayer.posttrain import post_train
        from lastlayer.rng import derive
        from lastlayer.train import sgd_train

        cfg = config_from_dict(tiny_config_doc())
        run_seed = 0
        train_ds, _ = _materialize_data(cfg, run_seed)
        net = build_network(cfg.layer_specs, derive(cfg.init_seed, "run", run_seed))
        chunk = dc_replace(cfg.train, iterations=20, seed=derive(cfg.train.seed, "run", run_seed))
        net, _ = sgd_train(net, train_ds, chunk, cfg.loss)
        tuned, _ = post_train(net, train_ds, cfg.posttrain, cfg.loss)
        best = _optimal_last_layer(cfg, net, train_ds)
        lam = cfg.posttrain.lam
        obj_best = forward_objective(best, train_ds, lam, cfg.loss)
        obj_tuned = forward_objective(tuned, train_ds, lam, cfg.loss)
        obj_classic = forward_objective(net, train_ds, lam, cfg.loss)
        assert obj_best <= obj_tuned + 1e-12
        assert obj_best <= obj_classic + 1e-12

    @pytest.mark.parametrize("convention", ["objective_consistent", "paper_literal"])
    def test_optimal_last_layer_matches_dual_oracle(self, convention):
        from dataclasses import replace as dc_replace

        from lastlayer.experiment import _optimal_last_layer, prepare_run
        from lastlayer.kernel import krr_solve
        from lastlayer.posttrain import effective_features, with_effective_last_weights
        from lastlayer.train import sgd_train

        cfg = config_from_dict(tiny_config_doc(krr_convention=convention))
        train_ds, _, net, train_cfg, _ = prepare_run(cfg, 0)
        net, _ = sgd_train(net, train_ds, dc_replace(train_cfg, iterations=20), cfg.loss)
        feats = effective_features(net, train_ds.x)
        oracle = krr_solve(feats, train_ds.y, cfg.posttrain.lam, convention)
        expected = with_effective_last_weights(net, oracle.weights.T)
        best = _optimal_last_layer(cfg, net, train_ds)
        for got, want in zip(best.layers[:-1], expected.layers[:-1]):
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.bias, want.bias)
        got, want = best.layers[-1].weights, expected.layers[-1].weights
        assert float(np.max(np.abs(got - want))) <= 1e-10 * float(np.max(np.abs(want)))
        assert best.layers[-1].bias is None and expected.layers[-1].bias is None

    def test_huge_lambda_collapses_to_zero_predictor(self):
        import warnings

        doc = tiny_config_doc()
        doc["posttrain"]["lambda"] = 1e9
        doc["posttrain"]["mode"] = "full_batch_backtracking"
        doc["posttrain"]["iterations"] = 300
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = config_from_dict(doc)
            rows = run_experiment(cfg)
        from lastlayer.experiment import _materialize_data

        for row in rows:
            if row.seed != 0:
                continue
            _, test_ds = _materialize_data(cfg, 0)
            zero_rmse = rmse(np.zeros_like(test_ds.y), test_ds.y)
            assert abs(row.optimal - zero_rmse) <= 0.02 * zero_rmse
            assert abs(row.posttrained - zero_rmse) <= 0.05 * zero_rmse

    def test_data_preparation_peak_memory(self):
        # the bundled synthetic config, 10000 rows of 10 inputs and 1
        # target: no pass may hold more than 2.5 copies of the generated
        # data, where copying each split part twice and keeping the source
        # through standardization peaked at 3.35
        from lastlayer.experiment import _materialize_data

        text = resources.files("lastlayer.configs").joinpath("synthetic.json").read_text()
        cfg = config_from_dict(jsonio.loads(text))
        data_bytes = cfg.dataset.n * (10 + 1) * 8
        _materialize_data(cfg, 0)  # warm up numpy's caches before measuring
        tracemalloc.start()
        try:
            train_ds, test_ds = _materialize_data(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert train_ds.n + test_ds.n == cfg.dataset.n
        assert peak < 2.5 * data_bytes

    def test_compare_rejects_a_non_one_hot_target_in_the_test_split(self, tmp_path):
        # no training step reads the held-out rows, so the loaded targets
        # are checked before the split; the error names the row by its
        # index among the CSV's data rows
        from lastlayer.data import Dataset, gen_synthetic, save_csv, split
        from lastlayer.rng import derive

        x = gen_synthetic(200, seed=17).x
        targets = np.eye(3)[np.argmax(x[:, :3] - x[:, 3:6], axis=1)]
        targets[125] = [0.5, 0.5, 0.0]
        save_csv(Dataset(x, targets), str(tmp_path / "classes.csv"))
        doc = tiny_config_doc(
            dataset={"kind": "csv", "path": str(tmp_path / "classes.csv"),
                     "feature_columns": [f"x{i}" for i in range(10)],
                     "target_columns": ["y0", "y1", "y2"]},
            split={"fraction": 0.7, "seed": 2},
            loss="cross_entropy",
            metric="classification_error",
            checkpoints=[20],
            seeds=[0],
        )
        doc["network"]["layers"][-1].update(output_dim=3, activation="softmax")
        cfg = config_from_dict(doc)
        _, held_out = split(Dataset(x, targets), 0.7, derive(2, "run", 0))
        assert any(np.array_equal(row, x[125]) for row in held_out.x)
        with pytest.raises(ValueError, match=re.escape("row 125 is [0.5, 0.5, 0.0]")):
            run_experiment(cfg)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class InlineWorker:
    """Stands in for ``experiment.Worker`` without forking: runs the branch
    when its result is taken, and counts the workers alive at once."""

    alive = peak = 0
    started = []

    def __init__(self, fn, args, name):
        self.fn, self.args, self.name = fn, args, name
        self.pid = 1
        InlineWorker.started.append(name)
        InlineWorker.alive += 1
        InlineWorker.peak = max(InlineWorker.peak, InlineWorker.alive)

    def result(self):
        InlineWorker.alive -= 1
        self.pid = None
        return self.fn(*self.args)

    def kill(self):
        if self.pid is not None:
            InlineWorker.alive -= 1
            self.pid = None


# compare forks its branch workers from a process whose OpenBLAS may hold a
# thread pool
@pytest.mark.blas_threads
class TestParallelBranches:
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_rows_are_those_of_the_serial_loop(self, jobs):
        cfg = config_from_dict(tiny_config_doc())
        assert rows_to_csv(run_experiment(cfg, jobs)) == rows_to_csv(run_experiment(cfg))
        assert_no_child_left()

    @pytest.mark.parametrize("jobs, peak", [(1, 0), (2, 2), (3, 3), (10**9, 3)])
    def test_at_most_min_jobs_branches_minus_one_workers_at_once(self, jobs, peak, monkeypatch):
        # four branches; the parent runs the last, and every one under jobs=1
        monkeypatch.setattr(experiment, "Worker", InlineWorker)
        monkeypatch.setattr(InlineWorker, "started", [])
        monkeypatch.setattr(InlineWorker, "peak", 0)
        cfg = config_from_dict(tiny_config_doc())
        assert rows_to_csv(run_experiment(cfg, jobs)) == rows_to_csv(run_experiment(cfg))
        assert InlineWorker.peak == peak
        assert InlineWorker.alive == 0
        forked = ["seed 0, checkpoint 20", "seed 0, checkpoint 40", "seed 1, checkpoint 20"]
        assert InlineWorker.started == (forked if jobs > 1 else [])

    def test_without_fork_every_branch_runs_here(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(experiment, "Worker", None)  # would fail if called
        cfg = config_from_dict(tiny_config_doc())
        assert len(run_experiment(cfg, 2)) == 4

    def test_a_wrapped_function_sees_every_branch(self, monkeypatch):
        # a tracer's wrapper counts in its own process, so no branch forks
        cfg = config_from_dict(tiny_config_doc())
        serial = rows_to_csv(run_experiment(cfg))
        post_train = experiment.post_train
        callers = []

        @functools.wraps(post_train)
        def counting(*args, **kwargs):
            callers.append(os.getpid())
            return post_train(*args, **kwargs)

        monkeypatch.setattr(experiment, "post_train", counting)
        assert rows_to_csv(run_experiment(cfg, 2)) == serial
        assert callers == [os.getpid()] * 4

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_experiment(config_from_dict(tiny_config_doc()), 0)

    def test_a_worker_error_is_raised_with_its_type_and_attributes(self, monkeypatch):
        parent = os.getpid()
        branch = experiment._branch

        def failing(*args):
            if os.getpid() != parent:
                raise CsvFormatError("bad", 4, 2)
            return branch(*args)

        monkeypatch.setattr(experiment, "_branch", failing)
        with pytest.raises(CsvFormatError) as err:
            run_experiment(config_from_dict(tiny_config_doc()), 2)
        assert (str(err.value), err.value.line, err.value.column) == ("bad (line 4, column 2)", 4, 2)
        assert isinstance(err.value.__cause__, RemoteTraceback)
        assert_no_child_left()

    def test_a_worker_that_dies_names_its_seed_checkpoint_and_status(self, monkeypatch):
        parent = os.getpid()
        branch = experiment._branch

        def dying(*args):
            if os.getpid() != parent:
                os._exit(7)
            return branch(*args)

        monkeypatch.setattr(experiment, "_branch", dying)
        with pytest.raises(WorkerDiedError, match=r"seed 0, checkpoint 20 .*wait status \d+: exit code 7"):
            run_experiment(config_from_dict(tiny_config_doc()), 2)
        assert_no_child_left()

    def test_an_older_branch_error_comes_first(self, monkeypatch):
        # the worker's branch fails after the parent's own work has failed;
        # the serial loop would have met the worker's error first
        parent = os.getpid()
        branch = experiment._branch
        train = experiment.sgd_train
        calls = []

        def slow_failure(*args):
            if os.getpid() != parent:
                time.sleep(0.5)
                raise TrainingDivergedError(5)
            return branch(*args)

        def failing_second_chunk(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise TrainingDivergedError(30)
            return train(*args, **kwargs)

        monkeypatch.setattr(experiment, "_branch", slow_failure)
        monkeypatch.setattr(experiment, "sgd_train", failing_second_chunk)
        with pytest.raises(TrainingDivergedError) as err:
            run_experiment(config_from_dict(tiny_config_doc()), 2)
        assert err.value.iteration == 5
        assert_no_child_left()

    def test_an_interrupt_kills_the_workers(self, monkeypatch):
        parent = os.getpid()
        branch = experiment._branch
        train = experiment.sgd_train
        calls = []

        def sleeping(*args):
            if os.getpid() != parent:
                time.sleep(60)
            return branch(*args)

        def interrupted_second_chunk(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return train(*args, **kwargs)

        monkeypatch.setattr(experiment, "_branch", sleeping)
        monkeypatch.setattr(experiment, "sgd_train", interrupted_second_chunk)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_experiment(config_from_dict(tiny_config_doc()), 2)
        assert time.monotonic() - start < 30
        assert_no_child_left()


class TestCsvFormat:
    def test_header_and_na(self):
        rows = [
            ComparisonRow(iterations=250, classic=1.5, posttrained=1.25, optimal=None, seed=3)
        ]
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "iterations,classic,posttrain,optimal,seed"
        assert lines[1] == "250,1.5,1.25,NA,3"


class TestRmse:
    def test_matches_definition(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=(50, 2))
        y = rng.normal(size=(50, 2))
        expected = float(np.sqrt(np.mean(np.sum((pred - y) ** 2, axis=1))))
        assert rmse(pred, y) == pytest.approx(expected, rel=1e-12)


class TestCheckSuite:
    def test_fresh_checkout_passes(self):
        report = check_suite(seed=0)
        assert report.passed, report.summary()

    def test_detects_perturbed_gradient(self, monkeypatch):
        real_backprop = experiment.backprop

        def perturbed_backprop(*args, **kwargs):
            grads = real_backprop(*args, **kwargs)
            grads.weights[0].reshape(-1)[0] += 1e-2
            return grads

        monkeypatch.setattr(experiment, "backprop", perturbed_backprop)
        report = check_suite(seed=0)
        failing = {c.name for c in report.checks if not c.passed}
        assert "gradient_vs_finite_differences" in failing
        assert not report.passed

    @pytest.mark.parametrize("seed", [180, 354])
    def test_gradient_check_redraws_differences_across_a_relu_kink(self, seed):
        # these seeds each draw one trial whose central difference moves a
        # relu pre-activation across zero
        (gradient,) = [c for c in check_suite(seed=seed).checks
                       if c.name == "gradient_vs_finite_differences"]
        assert gradient.passed, gradient
        assert "relu kink" in gradient.detail

    def test_report_is_machine_readable(self):
        report = check_suite(seed=1)
        doc = report.to_dict()
        assert isinstance(doc["passed"], bool)
        names = [c["name"] for c in doc["checks"]]
        assert len(names) == len(set(names))
        for check in doc["checks"]:
            assert set(check) == {"name", "passed", "max_error", "tolerance", "detail"}

    def test_summary_has_one_line_per_check(self):
        report = check_suite(seed=2)
        lines = report.summary().splitlines()
        assert len(lines) == len(report.checks) + 1
        assert lines[-1].startswith("overall:")


class TestCheckResult:
    @pytest.mark.parametrize("max_error, passed", [
        (0.0, True), (1e-5, True), (math.nextafter(1e-5, 1.0), False), (float("nan"), False),
    ])
    def test_passes_when_the_error_is_within_tolerance(self, max_error, passed):
        result = CheckResult("c", max_error, 1e-5)
        assert result.passed is passed
        assert list(asdict(result)) == ["name", "passed", "max_error", "tolerance", "detail"]


def loop_fd_ce_hessian(inst, step=1e-4):
    """_fd_ce_hessian before its stacked evaluation: four separately built
    instances per entry; kept as its oracle."""
    m, n = inst.w.shape
    size = m * n
    hess = np.zeros((size, size))

    def value_at(flat):
        return ce_value(SoftmaxInstance(flat.reshape(m, n), inst.x, inst.true_class))

    base = inst.w.reshape(-1).copy()
    for i in range(size):
        for j in range(i, size):
            pp = base.copy(); pp[i] += step; pp[j] += step
            pm = base.copy(); pm[i] += step; pm[j] -= step
            mp = base.copy(); mp[i] -= step; mp[j] += step
            mm = base.copy(); mm[i] -= step; mm[j] -= step
            hess[i, j] = (value_at(pp) - value_at(pm) - value_at(mp) + value_at(mm)) / (
                4.0 * step * step
            )
            hess[j, i] = hess[i, j]
    return hess


def loop_fd_loss_gradient(net, x, y, loss, step=1e-5):
    """_fd_loss_gradient before its stacked evaluation: two ``forward`` and
    two ``loss_eval`` calls per parameter entry, perturbing ``net`` in place
    and restoring it; kept as its oracle."""
    relu = [i for i, layer in enumerate(net.layers) if layer.spec.activation == "relu"]
    arrays = [a for layer in net.layers for a in (layer.weights, layer.bias) if a is not None]
    grads = []
    crossed = False
    for array in arrays:
        g = np.zeros_like(array)
        flat = array.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = forward(net, x)
            flat[i] = keep - step
            down = forward(net, x)
            flat[i] = keep
            gf[i] = (loss_eval(loss, up.output, y) - loss_eval(loss, down.output, y)) / (2.0 * step)
            crossed = crossed or any(np.any((up.pre[j] > 0) != (down.pre[j] > 0)) for j in relu)
        grads.append(g)
    return grads, crossed


def gradient_check_draws(seed):
    """Every (loss, net, x, y) that ``check_suite(seed)``'s gradient check
    draws, the draws it replaces included, each with its
    ``loop_fd_loss_gradient``."""
    rng = Rng(derive(seed, "gradcheck"))
    draws = []
    for trial in range(20):
        loss = "squared_error" if trial % 2 == 0 else "cross_entropy"
        while True:
            net = _random_net(rng, loss)
            x, y = _random_batch(rng, net, loss)
            want = loop_fd_loss_gradient(net.copy(), x, y, loss)
            draws.append((loss, net, x, y, want))
            if not want[1]:
                break
    return draws


def params_bytes(net):
    return [a.tobytes() for layer in net.layers for a in (layer.weights, layer.bias) if a is not None]


# the stacked finite-difference gradient rests on np.sum and np.mean along a
# contiguous row of a stack adding as they add that row alone
@pytest.mark.numpy_floor
class TestFiniteDifferenceGradient:
    def assert_matches_loop(self, loss, net, x, y, want=None):
        before = params_bytes(net)
        got, crossed = _fd_loss_gradient(net, x, y, loss)
        assert params_bytes(net) == before
        want_grads, want_crossed = want or loop_fd_loss_gradient(net.copy(), x, y, loss)
        assert crossed == want_crossed
        assert [g.shape for g in got] == [w.shape for w in want_grads]
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want_grads]

    @pytest.mark.parametrize("loss", ["squared_error", "cross_entropy"])
    def test_matches_per_entry_loop_bit_for_bit(self, loss):
        rng = Rng(14 if loss == "squared_error" else 15)
        rows = []
        for _ in range(200):
            net = _random_net(rng, loss)
            x, y = _random_batch(rng, net, loss)
            rows.append(len(x))
            self.assert_matches_loop(loss, net, x, y)
        assert sum(n >= 8 for n in rows) >= 50  # np.mean/np.sum add pairwise from 8 rows

    @pytest.mark.parametrize("seed", [180, 354])
    def test_matches_on_the_draws_the_check_replaces(self, seed):
        draws = gradient_check_draws(seed)
        assert len(draws) > 20  # at least one draw crossed a relu kink
        assert any(want[1] for *_, want in draws)
        for loss, net, x, y, want in draws:
            self.assert_matches_loop(loss, net, x, y, want)

    def test_leaves_the_network_unwritten_when_it_raises(self):
        # a rejected input must not leave a perturbed entry behind
        rng = Rng(16)
        net = _random_net(rng, "cross_entropy")
        x, y = _random_batch(rng, net, "cross_entropy")
        before = params_bytes(net)
        with pytest.raises(DimensionMismatchError, match="columns"):
            _fd_loss_gradient(net, x[:, :-1], y, "cross_entropy")
        assert params_bytes(net) == before


# the stacked Hessian rests on numpy's batched @ computing each stacked point
# as it computes that point alone, and that @ may call BLAS
@pytest.mark.numpy_floor
@pytest.mark.blas_threads
class TestFiniteDifferenceHessian:
    def test_matches_per_point_loop_bit_for_bit(self):
        rng = Rng(8)
        for _ in range(25):
            inst = _random_softmax_instance(rng)
            got = _fd_ce_hessian(inst)
            assert np.array_equal(got.view(np.uint64), loop_fd_ce_hessian(inst).view(np.uint64))

    def test_non_finite_weights_raise(self):
        inst = _random_softmax_instance(Rng(9))
        inst.w[0, 0] = np.inf  # after the instance validated itself
        with pytest.raises(ValueError, match="non-finite"):
            _fd_ce_hessian(inst)

    def test_matches_per_point_loop_on_every_size_bit_for_bit(self, monkeypatch):
        # sizes run from 2 (2 x 1) to 48 (6 x 8); a 6 x 8 instance needs
        # several stacks
        stacks = []
        real_entries = experiment._fd_ce_entries

        def counting_entries(inst, rows, cols, step):
            stacks.append(inst.w.size)
            return real_entries(inst, rows, cols, step)

        monkeypatch.setattr(experiment, "_fd_ce_entries", counting_entries)
        rng = Rng(10)
        insts = [SoftmaxInstance(rng.normals(2).reshape(2, 1), rng.normals(1), 1),
                 SoftmaxInstance(rng.normals(48).reshape(6, 8), rng.normals(8), 4)]
        insts += [_random_softmax_instance(rng) for _ in range(200)]
        for inst in insts:
            got = _fd_ce_hessian(inst)
            assert np.array_equal(got.view(np.uint64), loop_fd_ce_hessian(inst).view(np.uint64))
        assert stacks.count(48) > 1
        assert {2, 48} <= {inst.w.size for inst in insts}

    def test_peak_memory_is_no_higher_than_one_row_at_a_time(self):
        # the stack's cap keeps the largest instance's peak at or below that
        # of evaluating one row per pass
        rng = np.random.default_rng(11)
        inst = SoftmaxInstance(rng.normal(size=(6, 8)), rng.normal(size=8), 2)
        peaks = []
        for fd in (row_fd_ce_hessian, _fd_ce_hessian):
            fd(inst)  # warm up numpy's caches before measuring
            tracemalloc.start()
            try:
                fd(inst)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        row_peak, stacked_peak = peaks
        assert stacked_peak <= row_peak


def row_fd_ce_hessian(inst, step=1e-4):
    """_fd_ce_hessian evaluating one row i per pass, as it did before rows
    were stacked; kept as the reference for its peak memory."""
    m, n = inst.w.shape
    size = m * n
    hess = np.zeros((size, size))
    base = inst.w.reshape(-1)
    signs = np.array([[step, step], [step, -step], [-step, step], [-step, -step]])
    for i in range(size):
        count = 4 * (size - i)
        shifts = np.tile(signs, (size - i, 1))
        points = np.tile(base, (count, 1))
        points[:, i] += shifts[:, 0]
        points[np.arange(count), np.repeat(np.arange(i, size), 4)] += shifts[:, 1]
        if not np.all(np.isfinite(points)):
            raise ValueError("instance contains non-finite entries")
        z = points.reshape(count, m, n) @ inst.x
        top = np.max(z, axis=1)
        values = (np.log(np.sum(np.exp(z - top[:, None]), axis=1)) + top
                  - z[:, inst.true_class]).reshape(size - i, 4)
        row = (values[:, 0] - values[:, 1] - values[:, 2] + values[:, 3]) / (4.0 * step * step)
        hess[i, i:] = row
        hess[i:, i] = row
    return hess


def loop_midpoint_gap(seed, loss):
    """The midpoint-convexity gap of ``check_suite(seed)``'s post-training
    check under ``loss``, with each pair drawn by its own two ``normals``
    calls, taken after the targets' (squared error) or the inputs'
    (cross-entropy), and scored by three ``_CachedProblem.objective``
    calls."""
    suffix = "" if loss == "squared_error" else "_cross_entropy"
    rng = Rng(derive(seed, "posttrain" + suffix))
    outputs, last = (2, "identity") if loss == "squared_error" else (3, "softmax")
    specs = [LayerSpec(4, 6, "tanh"), LayerSpec(6, 5, "relu"),
             LayerSpec(5, outputs, last, has_bias=False)]
    net = build_network(specs, derive(seed, "ptnet" + suffix))
    if loss == "squared_error":
        ds = Dataset(rng.uniform_matrix(40, 4), rng.normals(80).reshape(40, 2))
    else:
        y = np.eye(3)[[rng.randbelow(3) for _ in range(40)]]
        ds = Dataset(rng.normals(160).reshape(40, 4), y)
    problem = _CachedProblem(net, ds, 1e-3, loss, None)

    def objective(w):
        return problem.objective(w)[0]

    worst = 0.0
    for _ in range(100):
        wa = rng.normals(outputs * 5).reshape(outputs, 5)
        wb = rng.normals(outputs * 5).reshape(outputs, 5)
        worst = max(worst, objective((wa + wb) / 2.0) - (objective(wa) + objective(wb)) / 2.0)
    return worst


class TestMidpointCheck:
    def test_one_draw_is_the_stream_of_200_pair_draws(self):
        stacked = Rng(derive(3, "posttrain")).normals(2000).reshape(100, 2, 2, 5)
        rng = Rng(derive(3, "posttrain"))
        draws = np.array([[rng.normals(10).reshape(2, 5), rng.normals(10).reshape(2, 5)]
                          for _ in range(100)])
        assert stacked.tobytes() == draws.tobytes()

    @pytest.mark.parametrize("loss", ["squared_error", "cross_entropy"])
    @pytest.mark.parametrize("seed", [0, 1, 47])
    def test_check_reports_the_per_call_gap(self, seed, loss):
        suffix = "" if loss == "squared_error" else "_cross_entropy"
        (check,) = [c for c in experiment._check_posttrain(seed)
                    if c.name == "posttrain_objective_midpoint_convex" + suffix]
        assert check.passed
        want = loop_midpoint_gap(seed, loss)
        assert np.float64(check.max_error).tobytes() == np.float64(want).tobytes()

    def test_a_concave_objective_fails_both_midpoint_checks(self, monkeypatch):
        # the checks score the objective that post_train minimises, so a
        # concave term added to it must show in both of them
        real = _CachedProblem.objective

        def concave(problem, w):
            value, trace = real(problem, w)
            return value - 10.0 * sq_frobenius(w), trace

        monkeypatch.setattr(_CachedProblem, "objective", concave)
        report = check_suite(0)
        midpoint = {c.name: c.passed for c in report.checks if "midpoint" in c.name}
        assert midpoint == {"posttrain_objective_midpoint_convex": False,
                            "posttrain_objective_midpoint_convex_cross_entropy": False}


class TestConvexityStatistics:
    def test_statistics_pass_and_are_tiny(self):
        stats = convexity_statistics(seed=0)
        assert stats["passed"]
        assert stats["min"] >= -1e-10

    # rests on the mean of np.sort's two middle values having np.median's bits
    @pytest.mark.numpy_floor
    def test_median_is_np_median_bit_for_bit(self, monkeypatch):
        # the median is taken from np.sort, which does not import numpy.ma
        eigs = []
        real = experiment.min_eigenvalue_symmetric

        def recording(a):
            eigs.append(real(a))
            return eigs[-1]

        monkeypatch.setattr(experiment, "min_eigenvalue_symmetric", recording)
        for seed in range(60):
            eigs.clear()
            median = convexity_statistics(seed=seed)["median"]
            assert len(eigs) == 100
            assert np.float64(median).tobytes() == np.median(eigs).tobytes()
