"""Last-layer fine-tuning: objective definition, frozen-layer guarantees,
monotone descent and its early stops, divergence, convexity along
segments, and agreement with the closed-form ridge optimum."""

import re
import warnings

import numpy as np
import pytest
from conftest import (MATMUL_ROUTES, cached_objective, forward_objective, lower_layer_passes,
                      networks_bit_identical)

from lastlayer import linalg
from lastlayer.data import Dataset, gen_synthetic
from lastlayer.kernel import gram, krr_solve, ridge_solve
from lastlayer.linalg import matmul, sq_frobenius
from lastlayer.network import (
    Layer,
    LayerSpec,
    Network,
    backprop,
    build_network,
    feature_map,
    forward,
    loss_eval,
    mean_cross_entropy,
    replace_last_layer,
)
from lastlayer.posttrain import (
    MODES,
    PostTrainConfig,
    _CachedProblem,
    effective_features,
    effective_last_weights,
    post_train,
    with_effective_last_weights,
)
from lastlayer.train import (PostTrainingDivergedError, TrainConfig, TrainingDivergedError,
                             classification_error, sgd_train)


def regression_net(seed=0, bias_last=False):
    specs = [
        LayerSpec(6, 8, "tanh"),
        LayerSpec(8, 5, "relu"),
        LayerSpec(5, 2, "identity", has_bias=bias_last),
    ]
    return build_network(specs, seed)


def regression_data(seed=0, n=50, d=6, m=2):
    rng = np.random.default_rng(seed)
    return Dataset(rng.uniform(-1, 1, size=(n, d)), rng.normal(size=(n, m)))


def classification_net(seed=0):
    specs = [LayerSpec(4, 6, "tanh"), LayerSpec(6, 3, "softmax", has_bias=False)]
    return build_network(specs, seed)


def one_layer(w_eff, activation):
    """The last layer as a bias-free one-layer network over the effective
    features, with the matrix ``w_eff``: the oracle that ``network.forward``
    and ``network.backprop`` give the last-layer problem."""
    spec = LayerSpec(w_eff.shape[1], w_eff.shape[0], activation, has_bias=False)
    return Network([Layer(spec, w_eff)])


def counting_outputs(monkeypatch):
    """Row counts of the features that each last-layer output is taken on,
    in call order."""
    import lastlayer.posttrain as posttrain_module

    rows, real = [], posttrain_module._last_layer_output

    def counting(activation, w_eff, feats):
        rows.append(feats.shape[0])
        return real(activation, w_eff, feats)

    monkeypatch.setattr(posttrain_module, "_last_layer_output", counting)
    return rows


def classification_data(seed=0, n=40, d=4, classes=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = np.zeros((n, classes))
    y[np.arange(n), rng.integers(0, classes, size=n)] = 1.0
    return Dataset(x, y)


class TestObjective:
    def test_zero_weights_mean_target_norm(self):
        net = regression_net(seed=1)
        ds = regression_data(seed=2)
        zeroed = replace_last_layer(net, np.zeros((2, 5)))
        expected = float(np.sum(ds.y * ds.y)) / ds.n
        assert cached_objective(zeroed, ds, 1e-3, "squared_error") == pytest.approx(
            expected, rel=1e-12
        )

    def test_lambda_zero_reduces_to_plain_loss(self):
        net = regression_net(seed=3)
        ds = regression_data(seed=4)
        feats = feature_map(net, ds.x)
        out = matmul(feats, net.layers[-1].weights.T)
        assert cached_objective(net, ds, 0.0, "squared_error") == pytest.approx(
            loss_eval("squared_error", out, ds.y), rel=1e-14
        )

    def test_matches_per_sample_oracle(self):
        net = regression_net(seed=5)
        ds = regression_data(seed=6, n=17)
        lam = 2e-3
        feats = feature_map(net, ds.x)
        w = net.layers[-1].weights
        total = 0.0
        for i in range(ds.n):
            pred = feats[i] @ w.T
            total += float(np.sum((pred - ds.y[i]) ** 2))
        expected = total / ds.n + lam * float(np.sum(w * w))
        assert cached_objective(net, ds, lam, "squared_error") == pytest.approx(
            expected, rel=1e-12
        )

    def test_cross_entropy_matches_per_sample_oracle(self):
        net = classification_net(seed=56)
        ds = classification_data(seed=57, n=17)
        lam = 2e-3
        feats = feature_map(net, ds.x)
        w = net.layers[-1].weights
        total = 0.0
        for i in range(ds.n):
            logits = feats[i] @ w.T
            top = float(np.max(logits))
            log_norm = top + float(np.log(np.sum(np.exp(logits - top))))
            total += log_norm - float(logits[np.argmax(ds.y[i])])
        expected = total / ds.n + lam * float(np.sum(w * w))
        assert cached_objective(net, ds, lam, "cross_entropy") == pytest.approx(
            expected, rel=1e-12
        )


class TestPostTrain:
    def test_zero_iterations_unchanged(self):
        net = regression_net(seed=7)
        ds = regression_data(seed=8)
        out, metrics = post_train(net, ds, PostTrainConfig(lam=1e-3, iterations=0), "squared_error")
        assert networks_bit_identical(net, out)
        assert len(metrics.points) == 1

    def test_huge_lambda_drives_weights_to_zero(self):
        net = regression_net(seed=9)
        ds = regression_data(seed=10)
        lam = 1e6
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = PostTrainConfig(lam=lam, iterations=200)
        out, _ = post_train(net, ds, cfg, "squared_error")
        zeroed = replace_last_layer(net, np.zeros((2, 5)))
        bound = forward_objective(zeroed, ds, lam, "squared_error") / lam
        assert sq_frobenius(out.layers[-1].weights) <= bound

    def test_reaches_closed_form_optimum(self):
        net = regression_net(seed=11)
        ds = regression_data(seed=12, n=80)
        lam = 1e-3
        cfg = PostTrainConfig(lam=lam, iterations=100000, grad_tol=1e-9)
        tuned, metrics = post_train(net, ds, cfg, "squared_error")
        feats = effective_features(net, ds.x)
        solution = krr_solve(feats, ds.y, lam, "objective_consistent")
        best = replace_last_layer(net, solution.weights.T)
        opt = forward_objective(best, ds, lam, "squared_error")
        got = forward_objective(tuned, ds, lam, "squared_error")
        assert (got - opt) / abs(opt) <= 1e-6
        assert metrics.train_losses()[-1] == pytest.approx(got, rel=1e-10)
        assert metrics.termination == "converged"

    @pytest.mark.parametrize("termination", ["converged", "stalled"])
    def test_early_stop_returns_the_start_unchanged(self, termination, monkeypatch):
        # at the ridge optimum the gradient test stops the loop before its
        # first step; under an Armijo slope that no step can meet, the
        # search accepts nothing and the loop stops without moving
        import lastlayer.posttrain as posttrain_module

        net, ds = regression_net(seed=52, bias_last=True), regression_data(seed=53)
        lam = 1e-3
        if termination == "converged":
            optimum = ridge_solve(effective_features(net, ds.x), ds.y, lam).weights.T
            net = with_effective_last_weights(net, optimum)
        else:
            monkeypatch.setattr(posttrain_module, "ARMIJO_SLOPE", np.inf)
        out, metrics = post_train(net, ds, PostTrainConfig(lam=lam, iterations=5), "squared_error")
        assert metrics.termination == termination
        assert [p.iteration for p in metrics.points] == [0]
        assert networks_bit_identical(net, out)

    @pytest.mark.parametrize("loss", ["squared_error", "cross_entropy"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("evaluate", [True, False])
    def test_descent_that_takes_every_iteration_stops_at_the_cap(self, loss, mode, evaluate):
        # grad_tol 0 never converges in 7 steps, and a stall would stop the
        # loop before its last point
        if loss == "squared_error":
            net, ds = regression_net(seed=54), regression_data(seed=55)
        else:
            net, ds = classification_net(seed=54), classification_data(seed=55)
        cfg = PostTrainConfig(lam=1e-3, iterations=7, mode=mode, batch_size=8, grad_tol=0.0)
        _, metrics = post_train(net, ds, cfg, loss, evaluate=evaluate)
        assert [p.iteration for p in metrics.points] == list(range(8))
        assert metrics.termination == "iteration_cap"

    def test_frozen_layers_bit_identical(self):
        net = regression_net(seed=13)
        ds = regression_data(seed=14)
        tuned, _ = post_train(net, ds, PostTrainConfig(lam=1e-3, iterations=25), "squared_error")
        for before, after in zip(net.layers[:-1], tuned.layers[:-1]):
            assert np.array_equal(before.weights, after.weights)
            if before.bias is not None:
                assert np.array_equal(before.bias, after.bias)
        assert not np.array_equal(net.layers[-1].weights, tuned.layers[-1].weights)

    def test_objective_sequence_non_increasing(self):
        for loss, make_net, make_data in (
            ("squared_error", regression_net, regression_data),
            ("cross_entropy", classification_net, classification_data),
        ):
            net = make_net(seed=15)
            ds = make_data(seed=16)
            _, metrics = post_train(net, ds, PostTrainConfig(lam=1e-3, iterations=30), loss)
            losses = metrics.train_losses()
            assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_recorded_objective_matches_forward_and_loss_eval(self):
        net = regression_net(seed=17)
        ds = regression_data(seed=18)
        lam = 1e-3
        tuned, metrics = post_train(net, ds, PostTrainConfig(lam=lam, iterations=10), "squared_error")
        oracle = forward_objective(tuned, ds, lam, "squared_error")
        assert metrics.train_losses()[-1] == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("mode", MODES)
    def test_cross_entropy_metrics_reuse_the_objective_output(self, mode, monkeypatch):
        # the objective already passed the training set through the last
        # layer, so the metric points pass only the eval set; a minibatch
        # gradient passes its batch
        net, ds, test = classification_net(4), classification_data(5), classification_data(6, n=30)
        cfg = PostTrainConfig(lam=1e-3, iterations=6, mode=mode, batch_size=8)
        outputs = counting_outputs(monkeypatch)
        tuned, metrics = post_train(net, ds, cfg, "cross_entropy", eval_data=test)
        batches = cfg.iterations if mode == "minibatch" else 0
        assert sorted(outputs) == [cfg.batch_size] * batches + [test.n] * len(metrics.points)
        assert metrics.points[-1].train_error == classification_error(
            forward(tuned, ds.x).output, ds.y
        )

    def test_full_batch_cross_entropy_passes_the_training_set_once_per_objective(
            self, monkeypatch):
        # the gradient starts from the output of the objective at the
        # accepted point, so training-set passes through the last layer,
        # which run class-major, and training-set objective evaluations pair
        # up one to one, and the metric points pass only the eval set
        import lastlayer.posttrain as posttrain_module

        net = build_network([LayerSpec(4, 6, "tanh"), LayerSpec(6, 3, "softmax")], 7)
        ds, test = classification_data(8, n=600), classification_data(9)
        class_major, objectives = [], []
        real_loss = posttrain_module._mean_floored_nll
        real_objective = posttrain_module._CachedProblem.objective

        def counting_class_major(problem, w_eff):
            value, probs = real_objective(problem, w_eff)
            class_major.append(probs.shape[0])
            return value, probs

        def counting_loss(p_true):
            objectives.append(p_true.shape[0])
            return real_loss(p_true)

        outputs = counting_outputs(monkeypatch)
        monkeypatch.setattr(posttrain_module._CachedProblem, "objective", counting_class_major)
        monkeypatch.setattr(posttrain_module, "_mean_floored_nll", counting_loss)
        cfg = PostTrainConfig(lam=1e-3, iterations=12)
        _, metrics = post_train(net, ds, cfg, "cross_entropy", eval_data=test)
        assert len(metrics.points) == 13
        assert class_major.count(ds.n) == objectives.count(ds.n) > len(metrics.points)
        assert outputs == [test.n] * len(metrics.points)

    @pytest.mark.parametrize("bad", ["train", "eval"])
    def test_non_one_hot_target_raises_naming_its_row_before_any_output(self, bad,
                                                                         monkeypatch):
        import lastlayer.posttrain as posttrain_module

        net, ds, test = classification_net(40), classification_data(41), classification_data(42)
        broken = ds if bad == "train" else test
        broken.y[7] = [0.5, 0.5, 0.0]
        objectives = []
        outputs = counting_outputs(monkeypatch)
        monkeypatch.setattr(posttrain_module._CachedProblem, "objective",
                            lambda problem, w_eff: objectives.append(w_eff))
        cfg = PostTrainConfig(lam=1e-3, iterations=5)
        with pytest.raises(ValueError, match=r"one-hot rows; row 7 is \[0\.5, 0\.5, 0\.0\]"):
            post_train(net, ds, cfg, "cross_entropy", eval_data=test)
        assert (outputs, objectives) == ([], [])

    @pytest.mark.parametrize("mode", MODES)
    def test_cross_entropy_targets_are_checked_once_per_dataset(self, mode, monkeypatch):
        import lastlayer.network as network_module
        import lastlayer.train as train_module

        net, ds, test = classification_net(43), classification_data(44), classification_data(45, n=30)
        checked = []
        real = network_module.one_hot_labels

        def counting(targets):
            checked.append(targets.shape[0])
            return real(targets)

        for module in (network_module, train_module):
            monkeypatch.setattr(module, "one_hot_labels", counting)
        cfg = PostTrainConfig(lam=1e-3, iterations=12, mode=mode, batch_size=8)
        _, metrics = post_train(net, ds, cfg, "cross_entropy", eval_data=test)
        assert len(metrics.points) == 13
        assert checked == [ds.n, test.n]

    def test_full_batch_cross_entropy_gradient_matches_loss_and_gradients(self, monkeypatch):
        # the gradient from the objective's output against
        # loss_and_gradients on the last layer as a one-layer network,
        # forwarding the cached features again
        import lastlayer.posttrain as posttrain_module
        from lastlayer.network import loss_and_gradients

        def forwarding_gradient(problem, w_eff, idx=None, out=None):
            feats, targets = problem.train.x, problem.train.y
            point = one_layer(w_eff, "softmax")
            grad = loss_and_gradients(point, feats, targets, problem.loss)[1].weights[0]
            return grad + 2.0 * problem.lam * w_eff

        net = build_network([LayerSpec(4, 6, "tanh"), LayerSpec(6, 3, "softmax")], 10)
        ds, test = classification_data(11, n=600), classification_data(12)
        cfg = PostTrainConfig(lam=1e-3, iterations=15)
        tuned, metrics = post_train(net, ds, cfg, "cross_entropy", eval_data=test)
        with monkeypatch.context() as patch:
            patch.setattr(posttrain_module._CachedProblem, "gradient", forwarding_gradient)
            want, want_metrics = post_train(net, ds, cfg, "cross_entropy", eval_data=test)
        assert networks_bit_identical(tuned, want)
        assert metrics.to_csv() == want_metrics.to_csv()
        assert metrics.termination == want_metrics.termination

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("loss", ["squared_error", "cross_entropy"])
    def test_minibatch_gradient_evaluates_no_loss(self, loss, mode, monkeypatch):
        # the objective evaluates the loss through posttrain's own binding; a
        # call looked up in the network module is one the gradient made and
        # threw away
        import lastlayer.network as network_module

        if loss == "squared_error":
            net, ds = regression_net(seed=30), regression_data(seed=31)
        else:
            net, ds = classification_net(seed=30), classification_data(seed=31)
        calls = []
        real = network_module.loss_eval

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(network_module, "loss_eval", counting)
        cfg = PostTrainConfig(lam=1e-3, iterations=10, mode=mode, batch_size=10)
        _, metrics = post_train(net, ds, cfg, loss)
        assert len(metrics.points) == 11
        assert calls == []

    def test_repeat_runs_bit_identical(self):
        net = regression_net(seed=19)
        ds = regression_data(seed=20)
        cfg = PostTrainConfig(lam=1e-3, iterations=20)
        a, _ = post_train(net, ds, cfg, "squared_error")
        b, _ = post_train(net, ds, cfg, "squared_error")
        assert networks_bit_identical(a, b)

    def test_independent_of_training_dropout_config(self):
        # dropout belongs to regular training only; two networks that are
        # bit-identical after training with different dropout settings must
        # fine-tune to bit-identical results
        ds = gen_synthetic(40, seed=21)
        specs = [LayerSpec(10, 6, "tanh"), LayerSpec(6, 1, "identity", has_bias=False)]
        net = build_network(specs, 22)
        with_dropout = TrainConfig(iterations=0, batch_size=10, lr0=0.1, dropout_keep=[0.5], seed=23)
        without = TrainConfig(iterations=0, batch_size=10, lr0=0.1, dropout_keep=[1.0], seed=23)
        net_a, _ = sgd_train(net, ds, with_dropout, "squared_error")
        net_b, _ = sgd_train(net, ds, without, "squared_error")
        assert networks_bit_identical(net_a, net_b)
        cfg = PostTrainConfig(lam=1e-3, iterations=15)
        tuned_a, _ = post_train(net_a, ds, cfg, "squared_error")
        tuned_b, _ = post_train(net_b, ds, cfg, "squared_error")
        assert networks_bit_identical(tuned_a, tuned_b)

    def test_fine_tuning_features_match_clean_feature_map(self):
        # the cached embedding never sees dropout masks
        net = regression_net(seed=24)
        ds = regression_data(seed=25)
        assert np.array_equal(effective_features(net, ds.x), feature_map(net, ds.x))

    def test_minibatch_mode_deterministic_and_improves(self):
        net = regression_net(seed=26)
        ds = regression_data(seed=27, n=60)
        cfg = PostTrainConfig(lam=1e-3, iterations=50, mode="minibatch", batch_size=20, lr=0.05, seed=3)
        a, ma = post_train(net, ds, cfg, "squared_error")
        b, _ = post_train(net, ds, cfg, "squared_error")
        assert networks_bit_identical(a, b)
        assert ma.train_losses()[-1] < ma.train_losses()[0]

    def test_minibatch_batch_guard(self):
        net = regression_net(seed=28)
        ds = regression_data(seed=29, n=10)
        cfg = PostTrainConfig(lam=1e-3, iterations=1, mode="minibatch", batch_size=11)
        with pytest.raises(ValueError, match="batch_size"):
            post_train(net, ds, cfg, "squared_error")

    @pytest.mark.parametrize("mode", MODES)
    def test_non_finite_initial_objective_diverges_at_iteration_0(self, mode):
        net = Network([
            Layer(LayerSpec(3, 4, "identity", has_bias=False), np.full((4, 3), 1e308)),
            Layer(LayerSpec(4, 1, "identity", has_bias=False), np.ones((1, 4))),
        ])
        ds = Dataset(np.ones((8, 3)), np.ones((8, 1)))
        cfg = PostTrainConfig(lam=1e-3, iterations=3, mode=mode, batch_size=4)
        with pytest.raises(PostTrainingDivergedError) as err:
            post_train(net, ds, cfg, "squared_error")
        assert err.value.iteration == 0
        assert str(err.value) == "post-training diverged: non-finite objective at iteration 0"

    def test_minibatch_divergence_reports_iteration(self):
        net, ds = regression_net(seed=51), regression_data(seed=52, n=20)
        cfg = PostTrainConfig(lam=1e-3, iterations=200, mode="minibatch", batch_size=10, lr=1e3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="non-finite") as err:
                post_train(net, ds, cfg, "squared_error")
        assert 0 < err.value.iteration < cfg.iterations

    def test_cross_entropy_full_batch(self):
        net = classification_net(seed=30)
        ds = classification_data(seed=31)
        tuned, metrics = post_train(net, ds, PostTrainConfig(lam=1e-3, iterations=40), "cross_entropy")
        assert metrics.train_losses()[-1] < metrics.train_losses()[0]
        for before, after in zip(net.layers[:-1], tuned.layers[:-1]):
            assert np.array_equal(before.weights, after.weights)


# the class-major objective rests on matmul adding in the same order for
# any memory layout of its operands
@pytest.mark.numpy_floor
class TestClassMajorCrossEntropy:
    """The class-major objective, its probabilities and the full-batch
    gradient against ``forward`` + ``mean_cross_entropy`` + ``backprop`` on
    the last layer as a one-layer network, bit for bit, on each of
    ``matmul``'s routes."""

    LAM = 1e-3

    def problem(self, classes, n, bias, d=40, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d)) * 3.0
        x[::5, ::3] = -0.0
        x[:, d // 2] = -0.0  # all -0.0 products for a class no sample has
        labels = rng.integers(0, classes, size=n)
        weights = rng.standard_normal((classes, d))
        weights[:, ::4] = -0.0
        layer = Layer(LayerSpec(d, classes, "softmax", has_bias=bias), weights,
                      rng.standard_normal(classes) if bias else None)
        net = Network([layer])
        problem = _CachedProblem(net, Dataset(x, np.eye(classes)[labels]), self.LAM,
                                 "cross_entropy")
        return problem, effective_last_weights(net), labels

    def assert_matches_forward_and_backprop(self, problem, w_eff, labels, monkeypatch):
        point = one_layer(w_eff, "softmax")
        for einsum in MATMUL_ROUTES.values():
            monkeypatch.setattr(linalg, "_EINSUM_ROUTE", einsum)
            value, probs = problem.objective(w_eff)
            want = forward(point, problem.train.x).output
            for got in (probs, problem.output(w_eff, problem.train.x)):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            regularizer = self.LAM * sq_frobenius(w_eff)
            assert value == mean_cross_entropy(want, labels) + regularizer
            want_grad = backprop(point, problem.train.x, problem.train.y,
                                 "cross_entropy").weights[0]
            want_grad = want_grad + 2.0 * self.LAM * w_eff
            for grad in (problem.gradient(w_eff, None, probs), problem.gradient(w_eff)):
                assert grad.shape == want_grad.shape
                assert grad.tobytes() == want_grad.tobytes()

    # on the numpy route the (classes, 40 or 41 features) @ (features, n)
    # logits take one block at n = 10, several at n = 150, and one feature
    # per block at n = 2100
    @pytest.mark.parametrize("n", [10, 150, 2100])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("classes", [2, 3, 7, 8, 12])
    def test_bits_match_forward_and_backprop(self, classes, bias, n, monkeypatch):
        problem, w_eff, labels = self.problem(classes, n, bias, seed=classes * n)
        self.assert_matches_forward_and_backprop(problem, w_eff, labels, monkeypatch)

    def test_gradient_bits_match_with_one_sample_per_block(self, monkeypatch):
        # backprop's delta.T @ F is (12, 30) @ (30, 401): its 4812 entries
        # exceed _MATMUL_BLOCK / 2, so the numpy route adds one sample per block
        problem, w_eff, labels = self.problem(12, 30, True, d=400, seed=5)
        self.assert_matches_forward_and_backprop(problem, w_eff, labels, monkeypatch)

    def test_single_column_keeps_backprop(self, monkeypatch):
        # one class and one feature: the gradient is a single entry, which
        # matmul sums on its numpy route whatever the route
        problem, w_eff, labels = self.problem(1, 50, False, d=1, seed=6)
        self.assert_matches_forward_and_backprop(problem, w_eff, labels, monkeypatch)

    @pytest.mark.parametrize("classes", [3, 8])
    def test_post_train_matches_the_forward_and_backprop_route(self, classes, monkeypatch):
        import lastlayer.posttrain as posttrain_module

        def forwarding(problem, w_eff):
            out = forward(one_layer(w_eff, "softmax"), problem.train.x).output
            value = mean_cross_entropy(out, problem.train.labels)
            return value + problem.lam * sq_frobenius(w_eff), out

        def backprop_gradient(problem, w_eff, idx=None, out=None):
            point = one_layer(w_eff, "softmax")
            grad = backprop(point, problem.train.x, problem.train.y, problem.loss)
            return grad.weights[0] + 2.0 * problem.lam * w_eff

        net = build_network([LayerSpec(5, 9, "tanh"), LayerSpec(9, classes, "softmax")], 13)
        ds, test = classification_data(14, n=300, d=5, classes=classes), classification_data(
            15, d=5, classes=classes)
        cfg = PostTrainConfig(lam=self.LAM, iterations=25)
        tuned, metrics = post_train(net, ds, cfg, "cross_entropy", eval_data=test)
        with monkeypatch.context() as patch:
            patch.setattr(posttrain_module._CachedProblem, "objective", forwarding)
            patch.setattr(posttrain_module._CachedProblem, "gradient", backprop_gradient)
            want, want_metrics = post_train(net, ds, cfg, "cross_entropy", eval_data=test)
        for a, b in zip(tuned.layers, want.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()
        assert metrics.to_csv() == want_metrics.to_csv()

    @pytest.mark.parametrize("mode", MODES)
    def test_nan_feature_diverges_at_iteration_0(self, mode):
        # 10 * 1e308 and 10 * -1e308 overflow to +inf and -inf, whose sum is
        # a NaN feature in every row
        net = Network([
            Layer(LayerSpec(2, 3, "identity", has_bias=False), [[1e308, -1e308]] * 3),
            Layer(LayerSpec(3, 3, "softmax", has_bias=False), np.eye(3)),
        ])
        ds = Dataset(np.full((8, 2), 10.0), np.eye(3)[np.arange(8) % 3])
        cfg = PostTrainConfig(lam=1e-3, iterations=3, mode=mode, batch_size=4)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(effective_features(net, ds.x)).all()
            with pytest.raises(TrainingDivergedError) as err:
                post_train(net, ds, cfg, "cross_entropy")
        assert err.value.iteration == 0


# the full cross-entropy batch rests on the class-major probabilities
# matching forward's
@pytest.mark.numpy_floor
class TestLastLayerGradient:
    """``_CachedProblem.output`` and ``gradient`` against ``forward`` and
    ``backprop`` of the last layer as a one-layer network built here, bit for
    bit, on each of ``matmul``'s routes; the squared-error full-batch
    gradient, which is formed in the feature space, to rounding."""

    LAM = 1e-3

    @pytest.mark.parametrize("batch", ["full", "minibatch"])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("loss", ["squared_error", "cross_entropy"])
    def test_gradient_matches_backprop(self, loss, bias, batch, matmul_route):
        if loss == "squared_error":
            net, ds = regression_net(seed=70, bias_last=bias), regression_data(seed=71, n=60)
        else:
            specs = [LayerSpec(4, 6, "tanh"), LayerSpec(6, 3, "softmax", has_bias=bias)]
            net, ds = build_network(specs, 70), classification_data(seed=71, n=60)
        problem = _CachedProblem(net, ds, self.LAM, loss)
        rng = np.random.default_rng(72)
        w_eff = effective_last_weights(net)
        w_eff = w_eff + 0.3 * rng.standard_normal(w_eff.shape)
        idx = None if batch == "full" else rng.permutation(ds.n)[:13]
        rows = slice(None) if idx is None else idx
        feats, targets = problem.train.x[rows], problem.train.y[rows]
        point = one_layer(w_eff, net.layers[-1].spec.activation)
        assert problem.output(w_eff, feats).tobytes() == forward(point, feats).output.tobytes()
        want = backprop(point, feats, targets, loss).weights[0] + 2.0 * self.LAM * w_eff
        # the objective's probabilities serve the full batch; a batch never
        # reads the output it is given
        probs = problem.objective(w_eff)[1]
        given = probs if idx is None else np.full((ds.n, w_eff.shape[0]), np.nan)
        for grad in (problem.gradient(w_eff, idx), problem.gradient(w_eff, idx, given)):
            assert grad.shape == want.shape
            if loss == "squared_error" and idx is None:
                np.testing.assert_allclose(grad, want, rtol=1e-12,
                                           atol=1e-13 * np.max(np.abs(want)))
            else:
                assert grad.tobytes() == want.tobytes()


class TestMidpointConvexity:
    def test_squared_error_identity(self):
        net = regression_net(seed=32)
        ds = regression_data(seed=33)
        rng = np.random.default_rng(34)
        lam = 1e-3
        objective = _CachedProblem(net, ds, lam, "squared_error").objective
        for _ in range(100):
            wa = rng.normal(size=(2, 5))
            wb = rng.normal(size=(2, 5))
            j_mid = objective((wa + wb) / 2)[0]
            j_avg = (objective(wa)[0] + objective(wb)[0]) / 2
            assert j_mid <= j_avg + 1e-10

    def test_cross_entropy_softmax(self):
        net = classification_net(seed=35)
        ds = classification_data(seed=36)
        rng = np.random.default_rng(37)
        lam = 1e-3
        objective = _CachedProblem(net, ds, lam, "cross_entropy").objective
        for _ in range(100):
            wa = rng.normal(size=(3, 6))
            wb = rng.normal(size=(3, 6))
            j_mid = objective((wa + wb) / 2)[0]
            j_avg = (objective(wa)[0] + objective(wb)[0]) / 2
            assert j_mid <= j_avg + 1e-10


class TestMetamorphicRelations:
    """Relations of the paper's kernel view, on a one-layer network whose
    input is the features F: the last-layer problem sees F only through
    F W.T and W only through that product and |W|, so a rotation of the
    features carries over to the result, and under cross_entropy a
    relabelling of the classes permutes W's rows.

    F has column scales from 1 to 1e-2, so 200 full-batch steps still move
    W and do not wander on the objective's rounding floor; the two
    unit-scale tests below pin that floor.  Each tolerance
    is at least ten times the worst relative error over seeds 0-199: 1.2e-13 for
    the rotation of the full squared-error batch, whose objective takes the
    Gram route, and at most 8.7e-15 for every other relation."""

    ACTIVATION = {"squared_error": "identity", "cross_entropy": "softmax"}

    @staticmethod
    def features(seed, loss, n=400, d=8, m=4):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(n, d)) * np.logspace(0.0, -2.0, d)
        if loss == "cross_entropy":
            y = np.eye(m)[rng.integers(m, size=n)]
        else:
            y = rng.normal(size=(n, m))
        return rng, f, y, 0.1 * rng.normal(size=(m, d))

    def tuned(self, f, y, w0, loss, mode, seed):
        cfg = PostTrainConfig(lam=1e-3, iterations=200, mode=mode, batch_size=32, seed=seed)
        net = one_layer(w0.copy(), self.ACTIVATION[loss])
        return post_train(net, Dataset(f, y), cfg, loss, evaluate=False)[0].layers[0].weights

    @pytest.mark.parametrize("loss", ["squared_error", "cross_entropy"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rotating_the_features_rotates_the_result(self, loss, mode, seed):
        rng, f, y, w0 = self.features(seed, loss)
        q = np.linalg.qr(rng.normal(size=(f.shape[1], f.shape[1])))[0]
        want = self.tuned(f, y, w0, loss, mode, seed) @ q
        got = self.tuned(f @ q, y, w0 @ q, loss, mode, seed)
        tol = 2e-12 if (loss, mode) == ("squared_error", MODES[0]) else 1e-13
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

    @staticmethod
    def unit_scale_descent():
        rng = np.random.default_rng(0)
        f, y = rng.normal(size=(400, 8)), rng.normal(size=(400, 4))
        cfg = PostTrainConfig(lam=1e-3, iterations=200, mode=MODES[0])
        net = one_layer(0.1 * rng.normal(size=(4, 8)), "identity")
        return post_train(net, Dataset(f, y), cfg, "squared_error", evaluate=False)[1]

    def test_unit_scale_squared_error_reaches_its_rounding_floor_by_step_20(self):
        # over seeds 0-39 the objective falls by at most 1 ulp (2.2e-16
        # relative) after step 20
        losses = [p.train_loss for p in self.unit_scale_descent().points]
        assert losses[min(20, len(losses) - 1)] - losses[-1] <= 1e-15 * losses[-1]

    @pytest.mark.xfail(strict=True, reason="full-batch squared error keeps stepping on its "
                       "rounding floor and ends as iteration_cap (ROADMAP, small leftovers)")
    def test_unit_scale_squared_error_stops_as_converged_on_its_rounding_floor(self):
        assert self.unit_scale_descent().termination == "converged"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_permuting_the_classes_permutes_the_rows(self, seed):
        rng, f, y, w0 = self.features(seed, "cross_entropy")
        perm = np.array([2, 0, 3, 1])  # moves every class
        want = self.tuned(f, y, w0, "cross_entropy", MODES[0], seed)[perm]
        got = self.tuned(f, y[:, perm], w0[perm], "cross_entropy", MODES[0], seed)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestBiasFolding:
    def test_effective_features_append_ones(self):
        net = regression_net(seed=38, bias_last=True)
        ds = regression_data(seed=39)
        feats = effective_features(net, ds.x)
        assert feats.shape[1] == 6  # 5 features + constant column
        assert np.all(feats[:, -1] == 1.0)

    def test_bias_shifts_kernel_by_one(self):
        net = regression_net(seed=40, bias_last=True)
        ds = regression_data(seed=41, n=12)
        plain = gram(feature_map(net, ds.x))
        shifted = gram(effective_features(net, ds.x))
        assert np.allclose(shifted, plain + 1.0, rtol=0, atol=1e-12)

    def test_effective_weights_round_trip(self):
        net = regression_net(seed=42, bias_last=True)
        w_eff = effective_last_weights(net)
        assert np.array_equal(w_eff[:, :-1], net.layers[-1].weights)
        assert np.array_equal(w_eff[:, -1], net.layers[-1].bias)

    def test_post_train_updates_bias(self):
        net = regression_net(seed=43, bias_last=True)
        ds = regression_data(seed=44)
        tuned, _ = post_train(net, ds, PostTrainConfig(lam=1e-3, iterations=30), "squared_error")
        assert not np.array_equal(net.layers[-1].bias, tuned.layers[-1].bias)
        for before, after in zip(net.layers[:-1], tuned.layers[:-1]):
            assert np.array_equal(before.weights, after.weights)


class TestConfig:
    def test_lambda_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            PostTrainConfig(lam=0.0, iterations=1)

    def test_lambda_range_warning(self):
        with pytest.warns(UserWarning, match="recommended range"):
            PostTrainConfig(lam=0.5, iterations=1)

    def test_lambda_in_range_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PostTrainConfig(lam=1e-3, iterations=1)

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            PostTrainConfig(lam=1e-3, iterations=1, mode="sgd")

    @pytest.mark.parametrize("field, value, message", [
        ("grad_tol", -1e-9, "grad_tol must be nonnegative"),
        ("iterations", -1, "iterations must be >= 0"),
        ("batch_size", 0, "batch_size must be >= 1"),
        ("lr", 0.0, "lr must be positive"),
    ])
    def test_refuses(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PostTrainConfig(**{"lam": 1e-3, field: value})

    def test_a_batch_larger_than_the_data_is_refused_by_both_descents(self):
        net, ds = regression_net(seed=3), regression_data(seed=4, n=20)
        message = re.escape("batch_size 21 exceeds dataset size 20")
        with pytest.raises(ValueError, match=message):
            sgd_train(net, ds, TrainConfig(iterations=1, batch_size=21, lr0=0.01), "squared_error")
        with pytest.raises(ValueError, match=message):
            post_train(net, ds, PostTrainConfig(lam=1e-3, mode="minibatch", batch_size=21),
                       "squared_error")
        # a batch of every row fits; full-batch post-training reads no batch size
        sgd_train(net, ds, TrainConfig(iterations=1, batch_size=20, lr0=0.01), "squared_error")
        post_train(net, ds, PostTrainConfig(lam=1e-3, iterations=1, batch_size=21), "squared_error")


class TestIterationCost:
    def test_lower_layer_work_independent_of_iteration_count(self):
        # the feature stack runs once to build the cache; iterations add none
        net = regression_net(seed=45)
        ds = regression_data(seed=46)
        counts = {}
        for iters in (2, 60):
            with lower_layer_passes(net) as passes:
                post_train(net, ds, PostTrainConfig(lam=1e-3, iterations=iters), "squared_error")
            counts[iters] = passes.count
        assert counts[2] == counts[60]
        assert counts[2] == net.depth - 1  # exactly one embedding pass

    def test_minibatch_mode_also_caches(self):
        net = regression_net(seed=47)
        ds = regression_data(seed=48)
        counts = {}
        for iters in (2, 40):
            cfg = PostTrainConfig(lam=1e-3, iterations=iters, mode="minibatch", batch_size=10)
            with lower_layer_passes(net) as passes:
                post_train(net, ds, cfg, "squared_error")
            counts[iters] = passes.count
        assert counts[2] == counts[40]

    @pytest.mark.parametrize("iterations", [0, 1, 12])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("loss", ["squared_error", "cross_entropy"])
    def test_builds_no_network_but_the_one_it_returns(self, loss, mode, iterations,
                                                      monkeypatch):
        # Armijo trials, steps, gradients and metric points all work on the
        # weight matrix itself, whatever the number of iterations
        import lastlayer.network as network_module
        import lastlayer.posttrain as posttrain_module

        if loss == "squared_error":
            net, ds, test = regression_net(60), regression_data(61), regression_data(62, n=20)
        else:
            net, ds = classification_net(60), classification_data(61)
            test = classification_data(62, n=20)
        built, objectives = [], []
        real_init = network_module.Network.__post_init__
        real_objective = posttrain_module._CachedProblem.objective

        def counting_init(network):
            built.append(network)
            real_init(network)

        def counting_objective(problem, w_eff):
            objectives.append(w_eff)
            return real_objective(problem, w_eff)

        monkeypatch.setattr(network_module.Network, "__post_init__", counting_init)
        monkeypatch.setattr(posttrain_module._CachedProblem, "objective", counting_objective)
        cfg = PostTrainConfig(lam=1e-3, iterations=iterations, mode=mode, batch_size=10)
        tuned, metrics = post_train(net, ds, cfg, loss, eval_data=test)
        assert len(metrics.points) == iterations + 1
        assert len(built) == 1 and built[0] is tuned
        if mode != "minibatch" and iterations > 1:
            assert len(objectives) > iterations + 1  # at least one trial step was halved

    def test_sgd_train_does_run_lower_layers_each_iteration(self):
        # contrast case: regular training cost scales with iterations
        ds = gen_synthetic(30, seed=49)
        specs = [LayerSpec(10, 4, "tanh"), LayerSpec(4, 1, "identity", has_bias=False)]
        net = build_network(specs, 50)
        counts = {}
        for iters in (2, 10):
            cfg = TrainConfig(iterations=iters, batch_size=10, lr0=0.05, seed=51)
            with lower_layer_passes(net) as passes:
                sgd_train(net, ds, cfg, "squared_error")
            counts[iters] = passes.count
        assert counts[10] > counts[2]
