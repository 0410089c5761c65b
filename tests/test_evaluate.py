"""The ``evaluate`` switch of ``sgd_train`` and ``post_train``, which
``run_experiment`` turns off: it drops only the evaluations that nothing but
the metrics reads, so weights, objectives, terminations and comparison rows
are the same bits either way, and SGD's batch loss, taken from labels
checked once per dataset, diverges at the same iteration as the checked
loss.  ``run_experiment`` also embeds the test set once per branch and
scores each arm's last layer on that embedding, with the bits of
``network.forward`` on the arm."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import networks_bit_identical

import lastlayer.experiment as experiment_module
import lastlayer.network as network_module
import lastlayer.posttrain as posttrain_module
import lastlayer.train as train_module
from lastlayer.data import Dataset, gen_synthetic, save_csv
from lastlayer.experiment import (
    ComparisonRow,
    config_from_dict,
    prepare_run,
    rmse,
    rows_to_csv,
    run_experiment,
)
from lastlayer.network import LayerSpec, build_network, forward, loss_and_gradients, one_hot_labels
from lastlayer.posttrain import MODES, PostTrainConfig, post_train
from lastlayer.train import TrainConfig, TrainingDivergedError, _BatchStream, sgd_train

LOSSES = ("squared_error", "cross_entropy")


def problem(loss, seed=0, n=90, d=5):
    """A two-layer network and train and held-out sets of n and n // 3 rows."""
    rng = np.random.default_rng(seed)
    classes = 3 if loss == "cross_entropy" else 2
    x = rng.normal(size=(n + n // 3, d))
    if loss == "cross_entropy":
        noisy = x[:, :classes] + 0.5 * rng.normal(size=(len(x), classes))
        y = np.eye(classes)[np.argmax(noisy, axis=1)]
        last = LayerSpec(7, classes, "softmax", has_bias=False)
    else:
        y = np.tanh(x[:, :classes]) + 0.1 * rng.normal(size=(len(x), classes))
        last = LayerSpec(7, classes, "identity")
    net = build_network([LayerSpec(d, 7, "tanh"), last], seed + 1)
    return net, Dataset(x[:n], y[:n]), Dataset(x[n:], y[n:])


def compare_config(loss, mode, tmp_path):
    """A two-seed, two-checkpoint compare config on ``loss``, post-training
    in ``mode``: 168 training and 72 test rows."""
    x = gen_synthetic(240, seed=11).x
    if loss == "cross_entropy":
        targets = np.eye(3)[np.argmax(x[:, :3] - x[:, 3:6], axis=1)]
    else:
        targets = np.tanh(x[:, :1] - x[:, 1:2])
    save_csv(Dataset(x, targets), str(tmp_path / "data.csv"))
    classes = targets.shape[1]
    doc = {
        "dataset": {"kind": "csv", "path": str(tmp_path / "data.csv"),
                    "feature_columns": [f"x{i}" for i in range(10)],
                    "target_columns": [f"y{i}" for i in range(classes)]},
        "split": {"fraction": 0.7, "seed": 22},
        "standardize": True,
        "network": {"init_seed": 33, "layers": [
            {"input_dim": 10, "output_dim": 6, "activation": "tanh", "has_bias": True},
            {"input_dim": 6, "output_dim": classes, "has_bias": False,
             "activation": "softmax" if loss == "cross_entropy" else "identity"},
        ]},
        "loss": loss,
        "train": {"iterations": 40, "batch_size": 20, "lr0": 0.05, "lr_decay": 1.0,
                  "dropout_keep": [1.0], "weight_decay": 0.001, "seed": 44, "eval_every": 10},
        "posttrain": {"lambda": 0.001, "iterations": 25, "mode": mode, "batch_size": 20,
                      "lr": 0.05, "seed": 55},
        "checkpoints": [20, 40],
        "metric": "classification_error" if loss == "cross_entropy" else "rmse",
        "krr_convention": "objective_consistent",
        "seeds": [0, 1],
    }
    return config_from_dict(doc)


def evaluating(monkeypatch):
    """Make ``run_experiment`` call ``sgd_train`` and ``post_train`` with
    ``evaluate=True``.  The wrappers carry no ``__wrapped__``, so the
    branches still fork."""
    for name, real in (("sgd_train", sgd_train), ("post_train", post_train)):
        monkeypatch.setattr(experiment_module, name,
                            lambda *a, _real=real, **k: _real(*a, **{**k, "evaluate": True}))


def counting_rows(monkeypatch, modules, name, position=0, when=lambda *args: True):
    """Replace ``name`` in ``modules`` by a wrapper listing the row count of
    each call's positional argument ``position``, for the calls whose
    positional arguments ``when`` accepts."""
    rows, real = [], getattr(modules[0], name)

    def counting(*args, **kwargs):
        if when(*args):
            rows.append(np.shape(args[position])[0])
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return rows


class TestSgdTrain:
    @pytest.mark.parametrize("loss", LOSSES)
    def test_switch_leaves_the_weights_alone_and_records_nothing(self, loss):
        net, ds, _ = problem(loss, seed=3)
        cfg = TrainConfig(iterations=30, batch_size=16, lr0=0.1, eval_every=10, seed=4,
                          dropout_keep=[0.8], weight_decay=1e-3)
        on, on_metrics = sgd_train(net, ds, cfg, loss, start_iteration=5)
        off, off_metrics = sgd_train(net, ds, cfg, loss, start_iteration=5, evaluate=False)
        assert networks_bit_identical(on, off)
        assert [p.iteration for p in on_metrics.points] == [10, 20, 30]
        assert off_metrics.points == []

    def test_eval_data_needs_the_switch_on(self):
        net, ds, test = problem("squared_error")
        cfg = TrainConfig(iterations=2, batch_size=8, lr0=0.1)
        with pytest.raises(ValueError, match="eval_data is read only by metric points"):
            sgd_train(net, ds, cfg, "squared_error", eval_data=test, evaluate=False)

    @pytest.mark.parametrize("evaluate", [True, False])
    def test_cross_entropy_targets_are_checked_once_per_dataset(self, evaluate, monkeypatch):
        net, ds, test = problem("cross_entropy", seed=5)
        checked = []
        real = network_module.one_hot_labels

        def counting(targets):
            checked.append(targets.shape[0])
            return real(targets)

        for module in (network_module, train_module):
            monkeypatch.setattr(module, "one_hot_labels", counting)
        cfg = TrainConfig(iterations=12, batch_size=8, lr0=0.1, eval_every=4)
        sgd_train(net, ds, cfg, "cross_entropy", eval_data=test if evaluate else None,
                  evaluate=evaluate)
        assert checked == ([ds.n, test.n] if evaluate else [ds.n])

    @pytest.mark.parametrize("loss", LOSSES)
    def test_each_step_makes_one_loss_and_gradients_call(self, loss, monkeypatch):
        net, ds, _ = problem(loss, seed=6)
        rows = counting_rows(monkeypatch, [network_module, train_module], "loss_and_gradients", 1)
        cfg = TrainConfig(iterations=9, batch_size=8, lr0=0.1)
        sgd_train(net, ds, cfg, loss, evaluate=False)
        assert rows == [8] * 9

    @pytest.mark.parametrize("loss, cause", [
        ("squared_error", "nan_row"), ("cross_entropy", "nan_row"),
        ("squared_error", "inf_row"), ("cross_entropy", "inf_row"),
        ("squared_error", "overflow"),
    ])
    @np.errstate(over="ignore", invalid="ignore")
    def test_non_finite_batch_loss_raises_at_the_same_iteration(self, loss, cause, monkeypatch):
        # the reference takes every batch loss through loss_eval, which
        # checks the targets and the output rows, as each step did before
        # it read the labels checked once.  A NaN input makes its batch's
        # loss NaN; an infinite one saturates tanh, whose zero derivative
        # times the input makes the next step's weights NaN
        net, ds, _ = problem(loss, seed=7, n=120)
        cfg = TrainConfig(iterations=40, batch_size=10, lr0=0.1, seed=8)
        stream = _BatchStream(ds.n, cfg.batch_size, cfg.seed)
        drawn = next(t for t in range(cfg.iterations) if 57 in stream.batch(t))
        if cause == "overflow":
            cfg.lr0, want = 1e307, None
        else:
            ds.x[57, 2] = np.nan if cause == "nan_row" else np.inf
            want = drawn if cause == "nan_row" else drawn + 1
        with pytest.raises(TrainingDivergedError) as got:
            sgd_train(net, ds, cfg, loss, evaluate=False)
        real = loss_and_gradients
        monkeypatch.setattr(train_module, "loss_and_gradients",
                            lambda *a, labels=None, **k: real(*a, **k))
        with pytest.raises(TrainingDivergedError) as reference:
            sgd_train(net, ds, cfg, loss, evaluate=False)
        assert got.value.iteration == reference.value.iteration > 0
        if want is not None:
            assert got.value.iteration == want


class TestLossAndGradients:
    @pytest.mark.parametrize("seed", range(4))
    @np.errstate(over="ignore", invalid="ignore")
    def test_checked_labels_give_the_bits_of_loss_eval(self, seed):
        net, ds, _ = problem("cross_entropy", seed=seed, n=60)
        rng = np.random.default_rng(seed)
        x = ds.x.copy()
        x[rng.integers(0, len(x), size=2), rng.integers(0, x.shape[1], size=2)] = [np.nan, np.inf]
        for scale in (1.0, 1e3, 1e300):
            scaled = net.copy()
            scaled.layers[-1].weights *= scale
            for idx in (np.arange(60), rng.permutation(60)[:13]):
                labels = one_hot_labels(ds.y)[idx]
                want, want_grads = loss_and_gradients(scaled, x[idx], ds.y[idx], "cross_entropy")
                got, grads = loss_and_gradients(scaled, x[idx], ds.y[idx], "cross_entropy",
                                                labels=labels)
                assert np.array_equal(got, want, equal_nan=True)
                for a, b in zip(grads.weights, want_grads.weights):
                    assert np.array_equal(a, b, equal_nan=True)


class TestPostTrain:
    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("grad_tol", [0.0, 0.5])
    def test_switch_keeps_weights_objectives_and_termination(self, loss, mode, grad_tol):
        net, ds, _ = problem(loss, seed=9)
        cfg = PostTrainConfig(lam=1e-3, iterations=30, mode=mode, batch_size=16, seed=2,
                              grad_tol=grad_tol)
        on, on_metrics = post_train(net, ds, cfg, loss)
        off, off_metrics = post_train(net, ds, cfg, loss, evaluate=False)
        assert networks_bit_identical(on, off)
        assert np.array_equal(on_metrics.train_losses(), off_metrics.train_losses())
        assert [p.iteration for p in on_metrics.points] == [p.iteration for p in off_metrics.points]
        assert on_metrics.termination == off_metrics.termination
        if grad_tol and mode != "minibatch":
            assert off_metrics.termination == "converged"
        if loss == "cross_entropy":
            assert all(p.train_error is not None for p in on_metrics.points)
        assert all(p.train_error is None and p.test_loss is None for p in off_metrics.points)

    @pytest.mark.parametrize("mode", MODES)
    def test_no_training_set_error_without_evaluate(self, mode, monkeypatch):
        net, ds, _ = problem("cross_entropy", seed=10)
        rows = counting_rows(monkeypatch, [train_module], "_label_error")
        cfg = PostTrainConfig(lam=1e-3, iterations=6, mode=mode, batch_size=16)
        post_train(net, ds, cfg, "cross_entropy", evaluate=False)
        assert rows == []
        post_train(net, ds, cfg, "cross_entropy")
        assert rows == [ds.n] * 7

    def test_eval_data_needs_the_switch_on(self):
        net, ds, test = problem("cross_entropy")
        with pytest.raises(ValueError, match="eval_data is read only by metric points"):
            post_train(net, ds, PostTrainConfig(lam=1e-3), "cross_entropy", eval_data=test,
                       evaluate=False)

    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("mode", MODES)
    def test_held_out_points_forward_the_cached_features_in_place(self, loss, mode, monkeypatch):
        # the held-out features are a transposed view, so matmul reads the
        # C-contiguous transpose instead of copying one at every point; the
        # metrics are those of network.forward over C-ordered features
        net, ds, test = problem(loss, seed=12, n=600)
        cfg = PostTrainConfig(lam=1e-3, iterations=8, mode=mode, batch_size=32)
        inputs = []
        real = network_module.forward

        def recording(net_, x, dropout_masks=None):
            inputs.append(x)
            return real(net_, np.ascontiguousarray(x), dropout_masks)

        for module in (network_module, posttrain_module, train_module):
            monkeypatch.setattr(module, "forward", recording)
        reference = post_train(net, ds, cfg, loss, eval_data=test)[1].to_csv()
        monkeypatch.undo()
        assert post_train(net, ds, cfg, loss, eval_data=test)[1].to_csv() == reference
        held_out = [x for x in inputs if x.shape[0] == test.n]
        assert len(held_out) == cfg.iterations + 1
        assert all(x.T.flags.c_contiguous for x in held_out)


class TestRunExperiment:
    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("mode", MODES)
    # the forked branches post-train with evaluate=False, in workers forked
    # from a process whose OpenBLAS may hold a thread pool
    @pytest.mark.blas_threads
    def test_rows_are_those_of_evaluate_true(self, loss, mode, tmp_path, monkeypatch):
        cfg = compare_config(loss, mode, tmp_path)
        rows = rows_to_csv(run_experiment(cfg, jobs=2))
        evaluating(monkeypatch)
        assert rows_to_csv(run_experiment(cfg, jobs=2)) == rows
        assert rows_to_csv(run_experiment(cfg)) == rows

    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("mode", MODES)
    def test_no_pass_over_the_full_training_set(self, loss, mode, tmp_path, monkeypatch):
        cfg = compare_config(loss, mode, tmp_path)
        train_rows = prepare_run(cfg, 0)[0].n
        modules = [network_module, train_module, posttrain_module, experiment_module]
        forwards = counting_rows(monkeypatch, modules, "forward", 1)
        errors = counting_rows(monkeypatch, [train_module], "_label_error")
        run_experiment(cfg)
        assert forwards and train_rows not in forwards
        assert train_rows not in errors
        # the same counts see the passes the switch leaves out
        evaluating(monkeypatch)
        run_experiment(cfg)
        assert train_rows in forwards
        assert (train_rows in errors) == (loss == "cross_entropy")

    def test_run_experiment_turns_the_switch_off(self, tmp_path, monkeypatch):
        cfg = compare_config("cross_entropy", "minibatch", tmp_path)
        seen = []
        for name, real in (("sgd_train", sgd_train), ("post_train", post_train)):
            monkeypatch.setattr(experiment_module, name, lambda *a, _name=name, _real=real, **k:
                                seen.append((_name, k.get("evaluate"))) or _real(*a, **k))
        run_experiment(cfg)
        assert sorted(set(seen)) == [("post_train", False), ("sgd_train", False)]
        assert len(seen) == 8


# the three last layers are scored on one embedding of the test set, in a
# worker or in process, and must keep the bits of forward on each network
@pytest.mark.blas_threads
class TestOneTestEmbedding:
    @pytest.mark.parametrize("loss", LOSSES)
    def test_the_test_rows_pass_the_lower_layers_once_per_branch(self, loss, tmp_path,
                                                                  monkeypatch):
        # a pass is a feature_map call or a forward call on the whole
        # network; scoring an arm forwards its last layer alone
        cfg = compare_config(loss, "full_batch_backtracking", tmp_path)
        test_rows = prepare_run(cfg, 0)[1].n
        maps = counting_rows(monkeypatch, [network_module, posttrain_module], "feature_map", 1)
        modules = [network_module, train_module, posttrain_module, experiment_module]
        forwards = counting_rows(monkeypatch, modules, "forward", 1,
                                 when=lambda net, *args: net.depth == len(cfg.layer_specs))
        run_experiment(cfg)
        branches = len(cfg.seeds) * len(cfg.checkpoints)
        assert (maps.count(test_rows), forwards.count(test_rows)) == (branches, 0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_biased_last_layer_scores_as_network_forward(self, jobs, tmp_path, monkeypatch):
        # every arm's last layer has a bias, which the embedding folds in
        # as a constant-1 column and forward adds after its product
        cfg = compare_config("squared_error", "full_batch_backtracking", tmp_path)
        hidden, last = cfg.layer_specs
        cfg = replace(cfg, layer_specs=[hidden, replace(last, has_bias=True)])
        arms = []  # snapshot, post-trained, closed form, branch by branch
        post, optimal = experiment_module.post_train, experiment_module._optimal_last_layer

        def capturing_post_train(net, *args, **kwargs):
            tuned, metrics = post(net, *args, **kwargs)
            arms.extend([net, tuned])
            return tuned, metrics

        def capturing_optimal(*args):
            arms.append(optimal(*args))
            return arms[-1]

        monkeypatch.setattr(experiment_module, "post_train", capturing_post_train)
        monkeypatch.setattr(experiment_module, "_optimal_last_layer", capturing_optimal)
        run_experiment(cfg)
        monkeypatch.undo()
        assert all(np.all(arm.layers[-1].bias != 0.0) for arm in arms)
        branches = [(seed, checkpoint) for seed in cfg.seeds for checkpoint in cfg.checkpoints]
        assert len(arms) == 3 * len(branches)
        expected = []
        for index, (seed, checkpoint) in enumerate(branches):
            test = prepare_run(cfg, seed)[1]
            scores = [rmse(forward(arm, test.x).output, test.y)
                      for arm in arms[3 * index:3 * index + 3]]
            expected.append(ComparisonRow(checkpoint, *scores, seed))
        assert rows_to_csv(run_experiment(cfg, jobs)) == rows_to_csv(expected)
