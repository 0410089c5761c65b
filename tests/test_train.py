"""Minibatch SGD: determinism, resumability, the ridge closed form as a
convergence oracle, dropout statistics, and the metrics series."""

import inspect
import re

import numpy as np
import pytest
from conftest import networks_bit_identical

from lastlayer.data import Dataset, gen_synthetic
from lastlayer.kernel import krr_solve
from lastlayer.network import Layer, LayerSpec, Network, build_network
from lastlayer.rng import Rng, derive
from lastlayer.train import (
    MetricPoint,
    MetricsSeries,
    TrainConfig,
    TrainingDivergedError,
    _batches,
    _dropout_masks,
    _label_error,
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

    def test_negative_start_iteration_refused(self):
        # a negative start would run lr0 * lr_decay**t at t < 0 on batches
        # of an epoch before the first
        net, ds = linear_problem(seed=17)
        cfg = TrainConfig(iterations=3, batch_size=8, lr0=0.1, seed=18)
        with pytest.raises(ValueError, match="start_iteration"):
            sgd_train(net, ds, cfg, "squared_error", start_iteration=-5)

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

    def test_eval_every_one_records_every_iteration(self):
        ds = gen_synthetic(30, seed=22)
        net = build_network([LayerSpec(10, 1, "identity", has_bias=False)], 23)
        cfg = TrainConfig(iterations=5, batch_size=10, lr0=0.01, seed=24, eval_every=1)
        _, metrics = sgd_train(net, ds, cfg, "squared_error")
        assert [p.iteration for p in metrics.points] == [1, 2, 3, 4, 5]


class TestRowArgmax:
    """The class ``_label_error`` scores for each row against np.argmax's
    rule written out row by row: the first maximum wins, and a row holding
    NaN picks its first NaN."""

    @staticmethod
    def cases(width):
        """Ordinary rows, then rows with ties, +-inf and NaN placed at every
        column, all -inf and all NaN."""
        rng = np.random.default_rng(300 + width)
        rows = list(rng.integers(-2, 3, size=(40, width)).astype(np.float64))
        rows += list(rng.standard_normal((10, width)))
        for special in (np.inf, -np.inf, np.nan):
            for col in range(width):
                row = rng.integers(-2, 3, size=width).astype(np.float64)
                row[col] = special
                rows.append(row)
                if width > 1:
                    twice = row.copy()
                    twice[(col + 1) % width] = special
                    rows.append(twice)
        rows += [np.full(width, -np.inf), np.full(width, np.inf), np.full(width, np.nan)]
        nan_then_inf = np.full(width, 1.0)
        nan_then_inf[-1] = np.nan
        nan_then_inf[0] = np.inf
        rows.append(nan_then_inf)
        return np.array(rows)

    @staticmethod
    def first_maximum(row):
        best = 0
        for j in range(1, len(row)):
            if np.isnan(row[best]):
                break
            if np.isnan(row[j]) or row[j] > row[best]:
                best = j
        return best

    @pytest.mark.parametrize("width", range(1, 13))
    def test_matches_np_argmax(self, width):
        z = self.cases(width)
        picked = np.array([self.first_maximum(row) for row in z], dtype=np.intp)
        for laid_out in (z, np.asfortranarray(z), np.ascontiguousarray(z.T).T):
            assert _label_error(laid_out, picked) == 0.0
            if width > 1:
                # every row scored wrong when its label is any other class
                assert _label_error(laid_out, (picked + 1) % width) == 1.0


def shuffle(seed, epoch, n):
    return Rng(derive(seed, "shuffle", epoch)).permutation(n)


class TestBatches:
    def test_wraparound_crosses_epochs(self):
        batches = _batches(n=10, batch_size=4, seed=0)
        next(batches), next(batches)
        batch2 = next(batches)  # positions 8..11 span the epoch boundary
        expected = np.concatenate([shuffle(0, 0, 10)[8:10], shuffle(0, 1, 10)[0:2]])
        assert np.array_equal(batch2, expected)

    @pytest.mark.parametrize("n, batch_size",
                             [(10, 4), (12, 5), (7, 7), (1, 1), (9, 2), (7, 5), (6, 3)])
    @pytest.mark.parametrize("start", [0, 1, 2, 5])
    def test_batches_match_the_per_index_formula(self, n, batch_size, start):
        # batch t holds positions t*B .. t*B+B-1 of the concatenated epoch
        # permutations, from batch start on; a start with t*B not a multiple
        # of n begins mid-epoch
        batches = _batches(n, batch_size, 3, start)
        perms = {}
        for t in range(start, start + 3 * n + 2):
            positions = range(t * batch_size, (t + 1) * batch_size)
            for pos in positions:
                if pos // n not in perms:
                    perms[pos // n] = shuffle(3, pos // n, n)
            want = np.array([perms[pos // n][pos % n] for pos in positions], dtype=np.int64)
            got = next(batches)
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (n, batch_size, t)

    @pytest.mark.parametrize("start", [0, 3])
    def test_each_epoch_is_drawn_once_when_first_read(self, start, monkeypatch):
        # and the generator holds fewer than n + B indices: the array under
        # its pending order, a leftover of under B and one epoch
        n, batch_size = 7, 5
        drawn, real = [], Rng.permutation

        def counting(self, size):
            drawn.append(size)
            return real(self, size)

        monkeypatch.setattr(Rng, "permutation", counting)
        batches = _batches(n, batch_size, 4, start)
        assert drawn == []
        for t in range(start, start + 300):
            next(batches)
            first, last = start * batch_size // n, ((t + 1) * batch_size - 1) // n
            assert len(drawn) == last - first + 1, t
            held = inspect.getgeneratorlocals(batches)["order"]
            while held.base is not None:
                held = held.base
            assert held.size < n + batch_size, t

    def test_epoch_coverage(self):
        batches = _batches(n=12, batch_size=4, seed=1)
        seen = np.concatenate([next(batches) for _ in range(3)])
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

    def test_a_kept_layer_draws_nothing_beside_a_dropped_one(self):
        # the 1.0 layer's mask is None and takes no draw, so the other
        # layer's mask is the one drawn first under [p, 1.0]
        net = build_network([LayerSpec(4, 6, "tanh"), LayerSpec(6, 6, "relu"),
                             LayerSpec(6, 1, "identity", has_bias=False)], 31)

        def masks(keep):
            cfg = TrainConfig(iterations=1, batch_size=5, lr0=0.1, dropout_keep=keep, seed=32)
            return _dropout_masks(net, cfg, 2, 5)

        late, early = masks([1.0, 0.5]), masks([0.5, 1.0])
        assert late[0] is None and early[1] is None
        assert np.array_equal(late[1], early[0])


@pytest.mark.parametrize("field, value, message", [
    ("iterations", -1, "iterations must be >= 0"),
    ("batch_size", 0, "batch_size must be >= 1"),
    ("lr0", 0.0, "lr0 must be positive"),
    ("lr_decay", 0.0, "lr_decay must lie in (0, 1]"),
    ("weight_decay", -1e-3, "weight_decay must be nonnegative"),
    ("eval_every", 0, "eval_every must be >= 1"),
    ("dropout_keep", [1.0, 0.0], "dropout keep probabilities must lie in (0, 1]"),
])
def test_train_config_refuses(field, value, message):
    args = {"iterations": 10, "batch_size": 5, "lr0": 0.1, field: value}
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainConfig(**args)


class TestMetricsSeries:
    def test_strictly_increasing_iterations_enforced(self):
        series = MetricsSeries()
        series.append(MetricPoint(1, 0.5))
        with pytest.raises(ValueError, match="increasing"):
            series.append(MetricPoint(1, 0.4))
        # points given at construction are held to the same rule
        ordered = MetricsSeries([MetricPoint(1, 0.5), MetricPoint(2, 0.4)])
        assert ordered.train_losses() == [0.5, 0.4]
        with pytest.raises(ValueError, match="increasing"):
            MetricsSeries([MetricPoint(2, 0.5), MetricPoint(1, 0.4)])

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

