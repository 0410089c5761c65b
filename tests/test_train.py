"""Minibatch SGD and full-batch descent: determinism, resumability, the
ridge closed form as a convergence oracle, dropout statistics, and the
Armijo monotonicity guarantee."""

import numpy as np
import pytest
from conftest import networks_bit_identical

from lastlayer.data import Dataset, gen_synthetic
from lastlayer.kernel import krr_solve
from lastlayer.linalg import matmul
from lastlayer.network import Layer, LayerSpec, Network, build_network
from lastlayer.train import (
    MetricPoint,
    MetricsSeries,
    TrainConfig,
    TrainingDivergedError,
    _BatchStream,
    _dropout_masks,
    classification_error,
    full_batch_gd,
    sgd_train,
)


def linear_problem(seed=0, n=40, d=6, m=2):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, d))
    teacher = rng.normal(size=(m, d))
    y = x @ teacher.T + 0.1 * rng.normal(size=(n, m))
    net = Network(
        [Layer(LayerSpec(d, m, "identity", has_bias=False), np.zeros((m, d)))]
    )
    return net, Dataset(x, y)


class TestSgdTrain:
    def test_zero_iterations_identity(self):
        ds = gen_synthetic(30, seed=1)
        net = build_network(
            [LayerSpec(10, 4, "tanh"), LayerSpec(4, 1, "identity", has_bias=False)], 2
        )
        cfg = TrainConfig(iterations=0, batch_size=10, lr0=0.1, seed=3)
        out, metrics = sgd_train(net, ds, cfg, "squared_error")
        assert networks_bit_identical(net, out)
        assert metrics.points == []

    def test_full_batch_converges_to_ridge_closed_form(self):
        net, ds = linear_problem(seed=4)
        wd = 1e-2
        cfg = TrainConfig(
            iterations=5000, batch_size=ds.n, lr0=0.1, weight_decay=wd, seed=5,
            eval_every=2500,
        )
        trained, _ = sgd_train(net, ds, cfg, "squared_error")
        oracle = krr_solve(ds.x, ds.y, wd, "objective_consistent").weights.T
        rel = float(np.max(np.abs(trained.layers[0].weights - oracle))) / float(
            np.max(np.abs(oracle))
        )
        assert rel <= 1e-4

    def test_same_seed_bit_identical(self):
        ds = gen_synthetic(60, seed=6)
        specs = [LayerSpec(10, 6, "tanh"), LayerSpec(6, 1, "identity", has_bias=False)]
        net = build_network(specs, 7)
        cfg = TrainConfig(
            iterations=25, batch_size=16, lr0=0.05, dropout_keep=[0.8],
            weight_decay=1e-3, seed=8, eval_every=5,
        )
        a, ma = sgd_train(net, ds, cfg, "squared_error", eval_data=ds)
        b, mb = sgd_train(net, ds, cfg, "squared_error", eval_data=ds)
        assert networks_bit_identical(a, b)
        assert ma.to_csv() == mb.to_csv()

    def test_resumption_bit_identical(self):
        ds = gen_synthetic(50, seed=9)
        specs = [LayerSpec(10, 5, "tanh"), LayerSpec(5, 1, "identity", has_bias=False)]
        net = build_network(specs, 10)
        cfg = TrainConfig(
            iterations=30, batch_size=12, lr0=0.05, dropout_keep=[0.9],
            weight_decay=1e-3, seed=11, eval_every=10,
        )
        straight, _ = sgd_train(net, ds, cfg, "squared_error")
        first, _ = sgd_train(net, ds, TrainConfig(
            iterations=13, batch_size=12, lr0=0.05, dropout_keep=[0.9],
            weight_decay=1e-3, seed=11, eval_every=10,
        ), "squared_error")
        resumed, _ = sgd_train(first, ds, TrainConfig(
            iterations=17, batch_size=12, lr0=0.05, dropout_keep=[0.9],
            weight_decay=1e-3, seed=11, eval_every=10,
        ), "squared_error", start_iteration=13)
        assert networks_bit_identical(straight, resumed)

    def test_lr_decay_schedule_is_global(self):
        # resumption with decay must continue the schedule, not restart it
        ds = gen_synthetic(40, seed=12)
        net = build_network([LayerSpec(10, 1, "identity", has_bias=False)], 13)
        kw = dict(batch_size=8, lr0=0.2, lr_decay=0.99, seed=14)
        straight, _ = sgd_train(net, ds, TrainConfig(iterations=20, **kw), "squared_error")
        first, _ = sgd_train(net, ds, TrainConfig(iterations=9, **kw), "squared_error")
        resumed, _ = sgd_train(
            first, ds, TrainConfig(iterations=11, **kw), "squared_error", start_iteration=9
        )
        assert networks_bit_identical(straight, resumed)

    def test_nan_abort_reports_iteration(self):
        net, ds = linear_problem(seed=15)
        cfg = TrainConfig(iterations=100, batch_size=ds.n, lr0=1e6, seed=16)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="iteration") as err:
                sgd_train(net, ds, cfg, "squared_error")
        assert err.value.iteration > 0

    def test_batch_size_guard(self):
        net, ds = linear_problem(seed=17)
        cfg = TrainConfig(iterations=1, batch_size=ds.n + 1, lr0=0.1, seed=18)
        with pytest.raises(ValueError, match="batch_size"):
            sgd_train(net, ds, cfg, "squared_error")

    def test_dropout_keep_length_guard(self):
        ds = gen_synthetic(20, seed=19)
        net = build_network(
            [LayerSpec(10, 4, "tanh"), LayerSpec(4, 1, "identity", has_bias=False)], 20
        )
        cfg = TrainConfig(iterations=1, batch_size=5, lr0=0.1, dropout_keep=[0.5, 0.5], seed=21)
        with pytest.raises(ValueError, match="dropout_keep"):
            sgd_train(net, ds, cfg, "squared_error")

    def test_metrics_schedule_and_eval_data(self):
        ds = gen_synthetic(30, seed=22)
        net = build_network([LayerSpec(10, 1, "identity", has_bias=False)], 23)
        cfg = TrainConfig(iterations=10, batch_size=10, lr0=0.01, seed=24, eval_every=4)
        _, metrics = sgd_train(net, ds, cfg, "squared_error", eval_data=ds)
        assert [p.iteration for p in metrics.points] == [4, 8]
        assert all(p.test_loss is not None for p in metrics.points)


class TestBatchStream:
    def test_wraparound_crosses_epochs(self):
        stream = _BatchStream(n=10, batch_size=4, seed=0)
        from lastlayer.rng import Rng, derive

        perm0 = Rng(derive(0, "shuffle", 0)).permutation(10)
        perm1 = Rng(derive(0, "shuffle", 1)).permutation(10)
        batch2 = stream.batch(2)  # positions 8..11 span the epoch boundary
        expected = np.concatenate([perm0[8:10], perm1[0:2]])
        assert np.array_equal(batch2, expected)

    def test_batches_match_the_per_index_formula(self):
        from lastlayer.rng import Rng, derive

        for n, batch_size in ((10, 4), (12, 5), (7, 7), (1, 1), (9, 2)):
            stream = _BatchStream(n=n, batch_size=batch_size, seed=3)
            perms = [Rng(derive(3, "shuffle", e)).permutation(n) for e in range(3 * batch_size + 2)]
            for t in range(3 * n):
                positions = range(t * batch_size, (t + 1) * batch_size)
                want = np.array([perms[pos // n][pos % n] for pos in positions], dtype=np.int64)
                got = stream.batch(t)
                assert got.dtype == np.int64
                assert np.array_equal(got, want), (n, batch_size, t)

    def test_cache_keeps_at_most_two_epochs(self):
        from lastlayer.rng import Rng, derive

        n, batch_size = 7, 5
        stream = _BatchStream(n=n, batch_size=batch_size, seed=4)
        perms = {}
        for t in range(300):
            positions = range(t * batch_size, (t + 1) * batch_size)
            for e in {pos // n for pos in positions}:
                if e not in perms:
                    perms[e] = Rng(derive(4, "shuffle", e)).permutation(n)
            want = np.array([perms[pos // n][pos % n] for pos in positions], dtype=np.int64)
            assert np.array_equal(stream.batch(t), want), t
            assert len(stream._perms) <= 2

    def test_epoch_coverage(self):
        stream = _BatchStream(n=12, batch_size=4, seed=1)
        seen = np.concatenate([stream.batch(t) for t in range(3)])
        assert np.array_equal(np.sort(seen), np.arange(12))


class TestDropout:
    def test_inverted_mask_preserves_expectation(self):
        net = build_network(
            [LayerSpec(4, 1000, "tanh"), LayerSpec(1000, 1, "identity", has_bias=False)],
            25,
        )
        keep = 0.8
        cfg = TrainConfig(iterations=1, batch_size=1000, lr0=0.1, dropout_keep=[keep], seed=26)
        masks = _dropout_masks(net, cfg, iteration=0, batch=1000)
        sample = masks[0].reshape(-1)
        assert sample.size == 1_000_000
        stderr = np.sqrt((1.0 - keep) / keep / sample.size)
        assert abs(float(sample.mean()) - 1.0) <= 3.0 * stderr

    def test_keep_one_draws_nothing(self):
        net = build_network(
            [LayerSpec(4, 3, "tanh"), LayerSpec(3, 1, "identity", has_bias=False)], 27
        )
        cfg = TrainConfig(iterations=1, batch_size=4, lr0=0.1, dropout_keep=[1.0], seed=28)
        assert _dropout_masks(net, cfg, 0, 4) is None

    def test_mask_values_are_zero_or_inverse_keep(self):
        net = build_network(
            [LayerSpec(4, 50, "relu"), LayerSpec(50, 1, "identity", has_bias=False)], 29
        )
        cfg = TrainConfig(iterations=1, batch_size=20, lr0=0.1, dropout_keep=[0.5], seed=30)
        mask = _dropout_masks(net, cfg, 3, 20)[0]
        assert set(np.unique(mask)).issubset({0.0, 2.0})


class TestFullBatchGd:
    def test_zero_gradient_start_no_change(self):
        rng = np.random.default_rng(31)
        w = rng.normal(size=(2, 5))
        net = Network([Layer(LayerSpec(5, 2, "identity", has_bias=False), w)])
        x = rng.normal(size=(12, 5))
        ds = Dataset(x, matmul(x, w.T))  # zero residual, zero gradient
        out, metrics = full_batch_gd(net, ds, 5, "squared_error")
        assert networks_bit_identical(net, out)
        assert metrics.termination is None

    def test_backtracking_objective_non_increasing(self):
        net, ds = linear_problem(seed=32)
        _, metrics = full_batch_gd(net, ds, 50, "squared_error", weight_decay=1e-3)
        losses = metrics.train_losses()
        assert len(losses) >= 2
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_zero_iterations_identity(self):
        net, ds = linear_problem(seed=33)
        out, metrics = full_batch_gd(net, ds, 0, "squared_error")
        assert networks_bit_identical(net, out)
        assert len(metrics.points) == 1  # initial objective only

    def test_fixed_lr_mode_runs_all_iterations(self):
        net, ds = linear_problem(seed=34)
        _, metrics = full_batch_gd(net, ds, 7, "squared_error", lr=0.05)
        assert [p.iteration for p in metrics.points] == list(range(8))

    def test_fixed_lr_divergence_raises_with_iteration(self):
        rng = np.random.default_rng(37)
        net = build_network(
            [LayerSpec(3, 4, "tanh"), LayerSpec(4, 1, "identity", has_bias=False)], 38
        )
        x = rng.normal(size=(20, 3))
        ds = Dataset(x, rng.normal(size=(20, 1)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="non-finite") as err:
                full_batch_gd(net, ds, 100, "squared_error", lr=50.0)
        assert 0 < err.value.iteration < 100

    def test_trains_biases_too(self):
        rng = np.random.default_rng(35)
        net = build_network([LayerSpec(3, 2, "identity", has_bias=True)], 36)
        x = rng.normal(size=(20, 3))
        y = x @ rng.normal(size=(3, 2)) + 1.5
        out, _ = full_batch_gd(net, Dataset(x, y), 200, "squared_error")
        assert float(np.max(np.abs(out.layers[0].bias))) > 0.1

    def test_cross_entropy_metrics_reuse_the_objective_output(self, monkeypatch):
        # each objective evaluation forwards the training set once; the
        # metric points reuse that output and forward only the eval set
        import lastlayer.train as train_module

        rng = np.random.default_rng(39)
        net = build_network(
            [LayerSpec(4, 6, "tanh"), LayerSpec(6, 3, "softmax", has_bias=False)], 40
        )
        x = rng.normal(size=(250, 4))
        y = np.eye(3)[rng.integers(0, 3, size=250)]
        ds, test = Dataset(x[:200], y[:200]), Dataset(x[200:], y[200:])
        forwards, objectives = [], []
        real_forward, real_loss_eval = train_module.forward, train_module.loss_eval

        def counting_forward(net_, x_):
            forwards.append(x_.shape[0])
            return real_forward(net_, x_)

        def counting_loss_eval(loss, output, targets):
            objectives.append(targets.shape[0])
            return real_loss_eval(loss, output, targets)

        monkeypatch.setattr(train_module, "forward", counting_forward)
        monkeypatch.setattr(train_module, "loss_eval", counting_loss_eval)
        trained, metrics = full_batch_gd(net, ds, 10, "cross_entropy", eval_data=test)
        assert len(metrics.points) == 11
        assert forwards.count(test.n) == len(metrics.points)
        assert forwards.count(ds.n) == objectives.count(ds.n) == 18
        assert len(forwards) == len(metrics.points) + 18
        assert metrics.points[-1].train_error == classification_error(
            real_forward(trained, ds.x).output, ds.y
        )

    def test_gradient_backpropagates_from_the_objective_trace(self, monkeypatch):
        # counted at the network module, where backprop forwards without a trace:
        # the gradient reuses the accepted point's trace, so the training
        # set is forwarded once per objective evaluation, 18 times in all
        import lastlayer.network as network_module
        import lastlayer.train as train_module

        rng = np.random.default_rng(39)
        net = build_network(
            [LayerSpec(4, 6, "tanh"), LayerSpec(6, 3, "softmax", has_bias=False)], 40
        )
        x = rng.normal(size=(250, 4))
        y = np.eye(3)[rng.integers(0, 3, size=250)]
        ds, test = Dataset(x[:200], y[:200]), Dataset(x[200:], y[200:])
        forwards = []
        real = network_module.forward

        def counting(net_, x_, dropout_masks=None):
            forwards.append(x_.shape[0])
            return real(net_, x_, dropout_masks)

        monkeypatch.setattr(network_module, "forward", counting)
        monkeypatch.setattr(train_module, "forward", counting)
        _, metrics = full_batch_gd(net, ds, 10, "cross_entropy", eval_data=test)
        assert len(metrics.points) == 11
        assert forwards.count(ds.n) == 18
        assert forwards.count(test.n) == len(metrics.points)

    def test_gradient_evaluates_no_loss(self, monkeypatch):
        # the objective evaluates the loss through train's own binding; a
        # call looked up in the network module is one the gradient made and
        # threw away
        import lastlayer.network as network_module

        rng = np.random.default_rng(41)
        net = build_network(
            [LayerSpec(4, 6, "tanh"), LayerSpec(6, 3, "softmax", has_bias=False)], 42
        )
        ds = Dataset(rng.normal(size=(120, 4)), np.eye(3)[rng.integers(0, 3, size=120)])
        calls = []
        real = network_module.loss_eval

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(network_module, "loss_eval", counting)
        _, metrics = full_batch_gd(net, ds, 10, "cross_entropy")
        assert len(metrics.points) == 11
        assert calls == []


class TestMetricsSeries:
    def test_strictly_increasing_iterations_enforced(self):
        series = MetricsSeries()
        series.append(MetricPoint(1, 0.5))
        with pytest.raises(ValueError, match="increasing"):
            series.append(MetricPoint(1, 0.4))

    def test_jsonl_round_trip_values(self):
        import json

        series = MetricsSeries()
        series.append(MetricPoint(10, 0.125, test_loss=0.25))
        line = series.to_jsonl().strip()
        doc = json.loads(line)
        assert doc["iteration"] == 10
        assert doc["train_loss"] == 0.125
        assert doc["test_loss"] == 0.25
        assert doc["train_error"] is None

    def test_csv_header_and_blanks(self):
        series = MetricsSeries()
        series.append(MetricPoint(5, 1.0))
        text = series.to_csv().splitlines()
        assert text[0] == "iteration,train_loss,test_loss,train_error,test_error"
        assert text[1] == "5,1,,,"

    def test_write_files(self, tmp_path):
        series = MetricsSeries()
        series.append(MetricPoint(1, 0.5, test_loss=0.7))
        series.write_csv(str(tmp_path / "m.csv"))
        series.write_jsonl(str(tmp_path / "m.jsonl"))
        assert (tmp_path / "m.csv").read_text().startswith("iteration,")
        assert (tmp_path / "m.jsonl").read_text().count("\n") == 1
