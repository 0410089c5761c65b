"""Network forward/backward against independent oracles.

The forward oracle is a test-local recomposition from raw numpy ops; the
gradient oracle is central finite differences, implemented here and
nowhere else in the test.
"""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from conftest import networks_bit_identical

from lastlayer.linalg import DimensionMismatchError
from lastlayer.network import (
    _FEATURE_BLOCK,
    PROB_FLOOR,
    Layer,
    LayerSpec,
    Network,
    _layer_passes,
    _mean_cross_entropies,
    _mean_floored_nll,
    _squared_errors,
    backprop,
    build_network,
    feature_map,
    forward,
    load_network,
    loss_and_gradients,
    loss_eval,
    mean_cross_entropy,
    network_from_dict,
    network_to_dict,
    one_hot_labels,
    replace_last_layer,
    save_network,
    softmax_rows,
)
from lastlayer.train import _label_error, classification_error


def manual_forward(net, x):
    """Independent recomposition of the layer algebra."""
    a = x
    for layer in net.layers:
        z = a @ layer.weights.T
        if layer.bias is not None:
            z = z + layer.bias
        kind = layer.spec.activation
        if kind == "identity":
            a = z
        elif kind == "tanh":
            a = np.tanh(z)
        elif kind == "relu":
            a = np.where(z > 0, z, 0.0)
        elif kind == "softmax":
            e = np.exp(z - z.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
    return a


def fd_gradients(net, x, y, loss, step=1e-5):
    """Central finite differences over every parameter."""
    grads = []
    for layer in net.layers:
        arrays = [layer.weights] + ([layer.bias] if layer.bias is not None else [])
        for array in arrays:
            g = np.zeros_like(array)
            flat = array.reshape(-1)
            gf = g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = loss_eval(loss, forward(net, x).output, y)
                flat[i] = orig - step
                down = loss_eval(loss, forward(net, x).output, y)
                flat[i] = orig
                gf[i] = (up - down) / (2 * step)
            grads.append(g)
    return grads


def small_regression_net(seed=0):
    specs = [
        LayerSpec(4, 6, "tanh"),
        LayerSpec(6, 5, "relu"),
        LayerSpec(5, 2, "identity", has_bias=False),
    ]
    net = build_network(specs, seed)
    rng = np.random.default_rng(seed)
    for layer in net.layers:
        if layer.bias is not None:
            layer.bias += rng.normal(scale=0.3, size=layer.bias.shape)
    return net


class TestForward:
    def test_single_identity_layer_is_matmul(self):
        from lastlayer.linalg import matmul

        rng = np.random.default_rng(0)
        w = rng.standard_normal((3, 5))
        net = Network([Layer(LayerSpec(5, 3, "identity", has_bias=False), w)])
        x = rng.standard_normal((7, 5))
        out = forward(net, x).output
        assert np.array_equal(out, matmul(x, w.T))
        assert np.allclose(out, manual_forward(net, x), rtol=0, atol=1e-14)

    def test_zero_weights_zero_output(self):
        specs = [LayerSpec(4, 3, "tanh"), LayerSpec(3, 2, "identity")]
        net = build_network(specs, 1)
        for layer in net.layers:
            layer.weights[:] = 0.0
        x = np.random.default_rng(1).standard_normal((6, 4))
        assert np.all(forward(net, x).output == 0.0)

    def test_three_layer_matches_manual_composition(self):
        net = small_regression_net(seed=2)
        x = np.random.default_rng(3).standard_normal((9, 4))
        out = forward(net, x).output
        assert np.allclose(out, manual_forward(net, x), rtol=0, atol=1e-14)

    def test_trace_has_one_entry_per_layer(self):
        net = small_regression_net(seed=4)
        trace = forward(net, np.zeros((2, 4)))
        assert len(trace.pre) == len(trace.post) == net.depth
        assert trace.output is trace.post[-1]

    def test_dimension_mismatch(self):
        net = small_regression_net(seed=5)
        with pytest.raises(DimensionMismatchError):
            forward(net, np.zeros((3, 7)))


class TestFeatureMap:
    def test_single_layer_returns_input(self):
        net = Network([Layer(LayerSpec(4, 2, "identity", has_bias=False), np.ones((2, 4)))])
        x = np.random.default_rng(6).standard_normal((5, 4))
        assert np.array_equal(feature_map(net, x), x)

    def test_equals_penultimate_post_activation(self):
        net = small_regression_net(seed=7)
        x = np.random.default_rng(8).standard_normal((6, 4))
        trace = forward(net, x)
        assert np.array_equal(feature_map(net, x), trace.post[-2])

    def test_repeated_calls_bit_identical(self):
        net = small_regression_net(seed=9)
        x = np.random.default_rng(10).standard_normal((5, 4))
        assert np.array_equal(feature_map(net, x), feature_map(net, x))

    def test_last_layer_on_features_reproduces_forward_output(self):
        net = small_regression_net(seed=11)
        x = np.random.default_rng(12).standard_normal((6, 4))
        feats = feature_map(net, x)
        last = net.layers[-1]
        from lastlayer.linalg import matmul

        z = matmul(feats, last.weights.T)
        assert np.array_equal(z, forward(net, x).output)


def blocked_case_net(activation: str, has_bias: bool, seed: int = 21) -> Network:
    """10 -> 10 -> 7 hidden layers of ``activation`` under a 1-output last
    layer, with random biases when it has them."""
    specs = [LayerSpec(10, 10, activation, has_bias), LayerSpec(10, 7, activation, has_bias),
             LayerSpec(7, 1, "identity", has_bias=False)]
    net = build_network(specs, seed)
    rng = np.random.default_rng(seed)
    for layer in net.layers:
        if layer.bias is not None:
            layer.bias[:] = rng.normal(scale=0.5, size=layer.bias.shape)
    return net


def one_pass_features(net: Network, x) -> np.ndarray:
    """Every row through the layers below the last in one pass."""
    for _, current in _layer_passes(net.layers[:-1], x):
        pass
    return current


class TestBlockedFeatureMap:
    """feature_map walks the rows _FEATURE_BLOCK at a time; its bits must be
    those of one pass over all rows, whatever the row count."""

    ROWS = [1, _FEATURE_BLOCK - 1, _FEATURE_BLOCK, _FEATURE_BLOCK + 1, 2 * _FEATURE_BLOCK + 3, 7000]

    @pytest.mark.parametrize("has_bias", [True, False])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("rows", ROWS)
    # rests on matmul's reduce order being the same for a block of rows as
    # for all of them, and on the bias and the activations acting on each row
    # alone
    @pytest.mark.numpy_floor
    def test_equals_one_pass_bit_for_bit(self, rows, activation, has_bias):
        net = blocked_case_net(activation, has_bias)
        x = np.random.default_rng(rows).standard_normal((rows, 10))
        x[:, 3] = -0.0
        got = feature_map(net, x)
        want = one_pass_features(net, x)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_peak_memory_is_the_output_and_one_block(self):
        # one block's working set: the block's output of the layer below,
        # matmul's transposed operand, running sum, product and result, the
        # biased pre-activations and the activations, with one to spare;
        # one pass over all 7000 rows must need more, or no block was cut
        net = blocked_case_net("tanh", True)
        x = np.random.default_rng(5).standard_normal((7000, 10))
        widest = max(layer.spec.output_dim for layer in net.layers)
        bound = 7000 * net.layers[-2].spec.output_dim * 8 + 8 * _FEATURE_BLOCK * widest * 8
        peaks = []
        for features in (feature_map, one_pass_features):
            features(net, x)  # warm up numpy's caches before measuring
            tracemalloc.start()
            try:
                features(net, x)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        blocked_peak, one_pass_peak = peaks
        assert blocked_peak <= bound < one_pass_peak


class TestLossEval:
    def test_perfect_prediction_squared_error(self):
        y = np.random.default_rng(13).standard_normal((4, 3))
        assert loss_eval("squared_error", y, y) == 0.0

    def test_uniform_softmax_cross_entropy_is_log_k(self):
        output = np.full((6, 10), 0.1)
        targets = np.zeros((6, 10))
        targets[np.arange(6), np.arange(6)] = 1.0
        assert loss_eval("cross_entropy", output, targets) == pytest.approx(
            math.log(10.0), abs=1e-12
        )

    def test_matches_per_sample_summation_oracle(self):
        rng = np.random.default_rng(14)
        out = rng.standard_normal((8, 3))
        y = rng.standard_normal((8, 3))
        expected = 0.0
        for i in range(8):
            sample = 0.0
            for j in range(3):
                sample += (out[i, j] - y[i, j]) ** 2
            expected += sample
        expected /= 8
        assert loss_eval("squared_error", out, y) == pytest.approx(expected, rel=1e-12)

    def test_cross_entropy_oracle(self):
        rng = np.random.default_rng(15)
        logits = rng.standard_normal((5, 4))
        probs = softmax_rows(logits)
        targets = np.zeros((5, 4))
        labels = rng.integers(0, 4, size=5)
        targets[np.arange(5), labels] = 1.0
        expected = float(np.mean([-math.log(probs[i, labels[i]]) for i in range(5)]))
        assert loss_eval("cross_entropy", probs, targets) == pytest.approx(expected, rel=1e-12)

    def test_rejects_non_one_hot(self):
        output = np.full((2, 2), 0.5)
        with pytest.raises(ValueError, match="one-hot"):
            loss_eval("cross_entropy", output, np.array([[0.5, 0.5], [1.0, 0.0]]))

    @pytest.mark.parametrize("bad_row", [[0.5, 0.5, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    def test_non_one_hot_message_names_the_first_bad_row(self, bad_row):
        targets = np.eye(3)[[0, 1, 2, 0, 1]]
        targets[3] = bad_row
        targets[4] = [2.0, 0.0, 0.0]
        with pytest.raises(ValueError) as raised:
            loss_eval("cross_entropy", np.full((5, 3), 1.0 / 3.0), targets)
        assert str(raised.value) == (
            f"cross_entropy targets must be one-hot rows; row 3 is {bad_row}"
        )

    def test_non_finite_wherever_the_product_sum_was(self):
        # an infinity or NaN in any column of a row poisons the product sum;
        # the row-sum check lets such a row through when its sum is NaN
        targets = np.eye(3)[[2, 0, 1]]
        for bad in ([np.inf, -np.inf, 0.5], [np.nan, 0.5, 0.5], [0.5, 0.5, np.nan]):
            output = np.array([bad, [0.2, 0.3, 0.5], [0.1, 0.8, 0.1]])
            with np.errstate(invalid="ignore"):
                assert math.isnan(product_sum_cross_entropy(output, targets))
                assert math.isnan(loss_eval("cross_entropy", output, targets))
        with pytest.raises(ValueError, match="summing to 1"):
            loss_eval("cross_entropy", np.array([[np.inf, 0.0, 0.0]]), targets[:1])

    def test_rejects_unnormalized_output_rows(self):
        targets = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError, match="summing to 1"):
            loss_eval("cross_entropy", np.array([[0.9, 0.3]]), targets)


# the stacked losses rest on np.sum and np.mean along a contiguous row of a
# stack adding as they add that row alone as a 1-D array
@pytest.mark.numpy_floor
class TestStackedLosses:
    """The stacked loss arithmetic against ``loss_eval`` on each batch of
    the stack alone, bit for bit: np.sum and np.mean add a contiguous row
    of the stack as they add the batch alone, pairwise from 8 entries."""

    @pytest.mark.parametrize("batch", range(1, 17))
    def test_squared_error_matches_loss_eval_per_batch(self, batch):
        rng = np.random.default_rng(batch)
        for width in (1, 3, 8):
            outputs = rng.standard_normal((12, batch, width)) * 10.0 ** rng.normal(size=(12, batch, width))
            y = rng.standard_normal((batch, width))
            got = _squared_errors(outputs, y)
            want = [loss_eval("squared_error", out, y) for out in outputs]
            assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("batch", range(1, 17))
    def test_cross_entropy_matches_loss_eval_per_batch(self, batch):
        rng = np.random.default_rng(100 + batch)
        for width in (2, 5, 9):
            logits = 12.0 * rng.standard_normal((12 * batch, width))  # some below PROB_FLOOR
            probs = softmax_rows(logits).reshape(12, batch, width)
            targets = np.eye(width)[rng.integers(0, width, size=batch)]
            got = _mean_cross_entropies(probs, one_hot_labels(targets))
            want = [loss_eval("cross_entropy", p, targets) for p in probs]
            assert got.tobytes() == np.array(want).tobytes()


def biased_batch_with_masks(loss: str):
    """A net with a bias on every layer, a batch for ``loss``, and a dropout
    mask per hidden layer."""
    rng = np.random.default_rng(24)
    last = "identity" if loss == "squared_error" else "softmax"
    net = build_network([LayerSpec(4, 6, "tanh"), LayerSpec(6, 5, "relu"), LayerSpec(5, 3, last)], 25)
    for layer in net.layers:
        layer.bias += rng.normal(scale=0.3, size=layer.bias.shape)
    x = rng.standard_normal((9, 4))
    y = rng.standard_normal((9, 3)) if loss == "squared_error" else np.eye(3)[rng.integers(0, 3, 9)]
    masks = [(rng.uniform(size=(9, width)) < 0.7) / 0.7 for width in (6, 5)]
    return net, x, y, masks


class TestBackprop:
    def test_linear_layer_analytic_gradient(self):
        rng = np.random.default_rng(16)
        w = rng.standard_normal((2, 5))
        net = Network([Layer(LayerSpec(5, 2, "identity", has_bias=False), w)])
        x = rng.standard_normal((8, 5))
        y = rng.standard_normal((8, 2))
        grads = backprop(net, x, y, "squared_error")
        expected = (2.0 / 8) * (x @ w.T - y).T @ x
        assert np.allclose(grads.weights[0], expected, rtol=0, atol=1e-13)

    def test_zero_residual_gives_zero_gradients(self):
        from lastlayer.linalg import matmul

        rng = np.random.default_rng(17)
        w = rng.standard_normal((3, 4))
        net = Network([Layer(LayerSpec(4, 3, "identity", has_bias=False), w)])
        x = rng.standard_normal((5, 4))
        y = matmul(x, w.T)  # targets the network reproduces exactly
        grads = backprop(net, x, y, "squared_error")
        assert np.all(grads.weights[0] == 0.0)

    def test_matches_finite_differences_regression(self):
        net = small_regression_net(seed=18)
        rng = np.random.default_rng(19)
        x = rng.standard_normal((6, 4))
        y = rng.standard_normal((6, 2))
        grads = backprop(net, x, y, "squared_error")
        flat = []
        for i, layer in enumerate(net.layers):
            flat.append(grads.weights[i])
            if layer.bias is not None:
                flat.append(grads.biases[i])
        reference = fd_gradients(net, x, y, "squared_error")
        scale = max(1.0, max(float(np.max(np.abs(r))) for r in reference))
        for got, ref in zip(flat, reference):
            assert float(np.max(np.abs(got - ref))) <= 1e-5 * scale

    def test_matches_finite_differences_classification(self):
        specs = [LayerSpec(3, 5, "tanh"), LayerSpec(5, 4, "softmax", has_bias=False)]
        net = build_network(specs, 20)
        rng = np.random.default_rng(21)
        x = rng.standard_normal((7, 3))
        y = np.zeros((7, 4))
        y[np.arange(7), rng.integers(0, 4, size=7)] = 1.0
        grads = backprop(net, x, y, "cross_entropy")
        flat = []
        for i, layer in enumerate(net.layers):
            flat.append(grads.weights[i])
            if layer.bias is not None:
                flat.append(grads.biases[i])
        reference = fd_gradients(net, x, y, "cross_entropy")
        scale = max(1.0, max(float(np.max(np.abs(r))) for r in reference))
        for got, ref in zip(flat, reference):
            assert float(np.max(np.abs(got - ref))) <= 1e-5 * scale

    @pytest.mark.parametrize("loss", ["squared_error", "cross_entropy"])
    def test_given_trace_gives_the_same_bits_without_a_forward(self, loss, monkeypatch):
        import lastlayer.network as network_module

        net, x, y, masks = biased_batch_with_masks(loss)
        for dropout in (None, masks):
            want = backprop(net, x, y, loss, dropout)
            trace = forward(net, x, dropout)
            with monkeypatch.context() as patch:
                patch.setattr(network_module, "forward", None)  # any forward pass fails
                got = backprop(net, x, y, loss, dropout, trace=trace)
            for a, b in zip(want.weights + want.biases, got.weights + got.biases):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("loss", ["squared_error", "cross_entropy"])
    def test_loss_and_gradients_is_loss_eval_and_backprop_of_its_forward(self, loss):
        net, x, y, masks = biased_batch_with_masks(loss)
        value, grads = loss_and_gradients(net, x, y, loss, masks)
        trace = forward(net, x, masks)
        assert value == loss_eval(loss, trace.output, y)
        want = backprop(net, x, y, loss, masks, trace=trace)
        for a, b in zip(want.weights + want.biases, grads.weights + grads.biases):
            assert a.tobytes() == b.tobytes()

    def test_pairing_validation(self):
        net = small_regression_net(seed=22)
        with pytest.raises(ValueError, match="softmax"):
            backprop(net, np.zeros((2, 4)), np.zeros((2, 2)), "cross_entropy")


def reduction_softmax(z):
    """softmax_rows with numpy's row reductions, as it was first written:
    the oracle its column-by-column form must match bit for bit."""
    shifted = z - np.max(z, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=1, keepdims=True)


def softmax_bit_cases(width: int):
    """Logits of the given row width: ordinary rows, then rows with +-1e300,
    with -inf entries, all -inf, all equal and all NaN."""
    rng = np.random.default_rng(100 + width)
    rows = list(rng.standard_normal((40, width)) * 30)
    huge = rng.standard_normal(width)
    huge[::2] = 1e300
    huge[1::3] = -1e300
    rows.append(huge)
    if width > 1:
        with_neg_inf = rng.standard_normal(width)
        with_neg_inf[1::2] = -np.inf
        rows.append(with_neg_inf)
    rows.append(np.full(width, -np.inf))
    rows.append(np.full(width, 2.5))
    rows.append(np.full(width, np.nan))
    return np.array(rows)


def product_sum_cross_entropy(probs, targets):
    """The cross-entropy as loss_eval first computed it, taking each row's
    true-class probability as sum(probs * targets): the oracle of the
    gather by label."""
    p_true = np.sum(probs * targets, axis=1)
    return float(np.mean(-np.log(np.maximum(p_true, PROB_FLOOR))))


def argmax_error(probs, targets):
    """classification_error as first written: argmax against argmax."""
    return float(np.mean(np.argmax(probs, axis=1) != np.argmax(targets, axis=1)))


def softmax_probabilities(width: int, n: int = 60):
    """Softmax outputs and one-hot targets; the logits are wide enough apart
    that some true-class probabilities fall below PROB_FLOOR."""
    rng = np.random.default_rng(200 + width)
    probs = softmax_rows(rng.standard_normal((n, width)) * 20)
    return probs, np.eye(width)[rng.integers(0, width, size=n)]


# softmax_rows' bits rest on the order in which np.sum adds a narrow row
@pytest.mark.numpy_floor
class TestSoftmax:
    @pytest.mark.parametrize("width", range(1, 13))
    def test_bits_match_the_row_reductions(self, width):
        z = softmax_bit_cases(width)
        with np.errstate(invalid="ignore", over="ignore"):
            assert softmax_rows(z).tobytes() == reduction_softmax(z).tobytes()
            for row in z:
                single = row[None, :]
                assert softmax_rows(single).tobytes() == reduction_softmax(single).tobytes()

    @pytest.mark.parametrize("width", range(2, 13))
    def test_bits_do_not_depend_on_memory_layout(self, width):
        # a Fortran-ordered batch, and the transposed view of a class-major
        # one, against the same values C-ordered; logits of unit scale keep
        # several terms of each sum in play
        mild = np.random.default_rng(400 + width).standard_normal((40, width))
        z = np.vstack([softmax_bit_cases(width), mild])
        with np.errstate(invalid="ignore", over="ignore"):
            want = softmax_rows(z).tobytes()
            for laid_out in (np.asfortranarray(z), np.ascontiguousarray(z.T).T):
                assert not laid_out.flags.c_contiguous
                assert softmax_rows(laid_out).tobytes() == want

    @pytest.mark.parametrize("width", range(2, 13))
    def test_label_loss_and_error_match_the_target_forms_bit_for_bit(self, width):
        probs, targets = softmax_probabilities(width)
        labels = one_hot_labels(targets)
        assert np.any(probs[np.arange(len(labels)), labels] < PROB_FLOOR)
        loss = mean_cross_entropy(probs, labels)
        assert loss == loss_eval("cross_entropy", probs, targets)
        assert loss == product_sum_cross_entropy(probs, targets)
        error = _label_error(probs, labels)
        assert error == classification_error(probs, targets) == argmax_error(probs, targets)
        with np.errstate(invalid="ignore"):
            probs[3] = softmax_rows(np.full((1, width), np.nan))
            assert math.isnan(product_sum_cross_entropy(probs, targets))
        assert math.isnan(mean_cross_entropy(probs, labels))
        assert math.isnan(loss_eval("cross_entropy", probs, targets))
        assert _label_error(probs, labels) == argmax_error(probs, targets)

    def test_rows_sum_to_one(self):
        z = np.random.default_rng(23).standard_normal((20, 7)) * 30
        p = softmax_rows(z)
        assert float(np.max(np.abs(p.sum(axis=1) - 1.0))) <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(24)
        z = rng.standard_normal((10, 5))
        shifted = z + 3.7
        assert float(np.max(np.abs(softmax_rows(z) - softmax_rows(shifted)))) <= 1e-12

    def test_overflow_safety(self):
        p = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(p))


class TestStructure:
    def test_softmax_only_last(self):
        with pytest.raises(ValueError, match="softmax"):
            Network(
                [
                    Layer(LayerSpec(2, 2, "softmax", has_bias=False), np.eye(2)),
                    Layer(LayerSpec(2, 2, "identity", has_bias=False), np.eye(2)),
                ]
            )

    def test_chain_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="chain"):
            Network(
                [
                    Layer(LayerSpec(2, 3, "tanh"), np.zeros((3, 2)), np.zeros(3)),
                    Layer(LayerSpec(4, 1, "identity", has_bias=False), np.zeros((1, 4))),
                ]
            )

    def test_replace_last_layer_keeps_lower_bits(self):
        net = small_regression_net(seed=25)
        new = replace_last_layer(net, np.zeros((2, 5)))
        for old_layer, new_layer in zip(net.layers[:-1], new.layers[:-1]):
            assert np.array_equal(old_layer.weights, new_layer.weights)
            if old_layer.bias is not None:
                assert np.array_equal(old_layer.bias, new_layer.bias)
        assert np.all(new.layers[-1].weights == 0.0)

    @pytest.mark.parametrize("weights, bias, error, message", [
        (np.zeros((5, 2)), None, DimensionMismatchError, "layer weights must be (2, 5), got (5, 2)"),
        (np.zeros((2, 5)), np.zeros(2), ValueError, "has_bias=False but a bias was given"),
    ])
    def test_replace_last_layer_refuses_what_the_last_spec_does_not_fit(self, weights, bias, error,
                                                                        message):
        net = small_regression_net(seed=25)
        with pytest.raises(error, match=re.escape(message)):
            replace_last_layer(net, weights, bias)

    def test_build_network_is_seeded(self):
        specs = [LayerSpec(3, 4, "tanh"), LayerSpec(4, 2, "identity", has_bias=False)]
        assert networks_bit_identical(build_network(specs, 8), build_network(specs, 8))
        assert not networks_bit_identical(build_network(specs, 8), build_network(specs, 9))

    def test_init_respects_fan_bound(self):
        specs = [LayerSpec(3, 4, "tanh")]
        net = build_network(specs, 0)
        bound = math.sqrt(6.0 / 7.0)
        assert float(np.max(np.abs(net.layers[0].weights))) <= bound

    @pytest.mark.parametrize("make, error, message", [
        (lambda: LayerSpec(0, 2, "tanh"), ValueError, "layer dimensions must be >= 1"),
        (lambda: LayerSpec(2, 0, "tanh"), ValueError, "layer dimensions must be >= 1"),
        (lambda: LayerSpec(2, 2, "sigmoid"), ValueError,
         "unknown activation 'sigmoid'; expected one of ('identity', 'tanh', 'relu', 'softmax')"),
        (lambda: Layer(LayerSpec(2, 3, "tanh", has_bias=False), np.zeros((2, 3))),
         DimensionMismatchError, "layer weights must be (3, 2), got (2, 3)"),
        (lambda: Layer(LayerSpec(2, 3, "tanh"), np.zeros((3, 2))), ValueError,
         "layer spec requires a bias vector"),
        (lambda: Layer(LayerSpec(2, 3, "tanh"), np.zeros((3, 2)), np.zeros(2)),
         DimensionMismatchError, "bias must have length 3, got (2,)"),
        (lambda: Layer(LayerSpec(2, 3, "tanh", has_bias=False), np.zeros((3, 2)), np.zeros(3)),
         ValueError, "layer spec has has_bias=False but a bias was given"),
        (lambda: Network([]), ValueError, "a network needs at least one layer"),
    ])
    def test_refuses(self, make, error, message):
        with pytest.raises(error, match=re.escape(message)):
            make()


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        net = small_regression_net(seed=26)
        path = tmp_path / "net.json"
        save_network(net, str(path))
        loaded = load_network(str(path))
        assert networks_bit_identical(net, loaded)

    def test_double_round_trip_stable(self, tmp_path):
        net = small_regression_net(seed=27)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_network(net, str(p1))
        save_network(load_network(str(p1)), str(p2))
        assert p1.read_text() == p2.read_text()

    def test_dict_round_trip(self):
        net = small_regression_net(seed=28)
        assert networks_bit_identical(net, network_from_dict(network_to_dict(net)))

    def test_rejects_unknown_version(self):
        doc = network_to_dict(small_regression_net(seed=29))
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="format_version"):
            network_from_dict(doc)

    # true and 1.0 equal 1 in Python, but are no version number
    @pytest.mark.parametrize("version", [True, 1.0])
    def test_rejects_a_version_that_only_equals_one(self, version):
        doc = network_to_dict(small_regression_net(seed=29))
        doc["format_version"] = version
        with pytest.raises(ValueError, match=re.escape(f"format_version {version!r}")):
            network_from_dict(doc)

    @pytest.mark.parametrize("layer, field, value", [(1, "weights", "NaN"), (0, "bias", "Infinity")])
    def test_load_rejects_non_finite_parameters(self, tmp_path, layer, field, value):
        doc = network_to_dict(small_regression_net(seed=30))
        entries = doc["layers"][layer][field]
        where = f"layers[{layer}].{field}[0]"
        if field == "weights":
            entries = entries[0]
            where += "[0]"
        entries[0] = float(value)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        assert value in path.read_text()
        message = f"network key {where!r} must be finite, got {float(value)!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_network(str(path))

    # bool("false") is True, int(2.9) is 2 and int(True) is 1: each would
    # load as some other layer
    @pytest.mark.parametrize("key, value, message", [
        ("has_bias", "false", "'layers[2].has_bias' must be a boolean, got 'false'"),
        ("has_bias", 0, "'layers[2].has_bias' must be a boolean, got 0"),
        ("input_dim", 2.9, "'layers[2].input_dim' must be an integer, got 2.9"),
        ("output_dim", True, "'layers[2].output_dim' must be an integer, got True"),
        ("output_dim", "2", "'layers[2].output_dim' must be an integer, got '2'"),
        ("activation", None, "'layers[2].activation' must be a string, got None"),
        ("input_dim", KeyError, "'layers[2].input_dim' is missing"),
        ("weights", KeyError, "'layers[2].weights' is missing"),
        (None, [5, 2], "'layers[2]' must be an object, got [5, 2]"),
    ])
    def test_load_rejects_a_malformed_layer_naming_its_key(self, tmp_path, key, value, message):
        doc = network_to_dict(small_regression_net(seed=31))
        if key is None:
            doc["layers"][2] = value
        elif value is KeyError:
            del doc["layers"][2][key]
        else:
            doc["layers"][2][key] = value
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_network(str(path))

    # layer 1 is 6 -> 5 with a bias, layer 2 has none; each refusal names
    # the first bad entry, row or field by its path
    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: doc["layers"][1]["weights"][0].__setitem__(2, "1"),
         "network key 'layers[1].weights[0][2]' must be a number, got '1'"),
        (lambda doc: doc["layers"][1]["weights"][0].__setitem__(2, True),
         "network key 'layers[1].weights[0][2]' must be a number, got True"),
        (lambda doc: doc["layers"][1]["weights"][4].__setitem__(0, None),
         "network key 'layers[1].weights[4][0]' must be a number, got None"),
        (lambda doc: doc["layers"][0]["bias"].__setitem__(1, "0.5"),
         "network key 'layers[0].bias[1]' must be a number, got '0.5'"),
        (lambda doc: doc["layers"][1]["weights"][3].pop(),
         "network key 'layers[1].weights[3]' must be a row of 6 entries, got ["),
        (lambda doc: doc["layers"][1].update(weights=[0.5] * 30),
         "network key 'layers[1].weights[0]' must be a list, got 0.5"),
        (lambda doc: doc["layers"][1]["weights"].pop(),
         "network key 'layers[1].weights': layer weights must be (5, 6), got (4, 6)"),
        (lambda doc: doc["layers"][1]["bias"].pop(),
         "network key 'layers[1].bias': bias must have length 5, got (4,)"),
        (lambda doc: doc["layers"][1].update(bias=None),
         "network key 'layers[1].bias': layer spec requires a bias vector"),
        (lambda doc: doc["layers"][2].update(bias=[0.0, 0.0]),
         "network key 'layers[2].bias': layer spec has has_bias=False but a bias was given"),
        (lambda doc: doc["layers"][1].update(activation="sigmoid"),
         "network key 'layers[1].activation': unknown activation 'sigmoid'"),
        (lambda doc: doc["layers"][1].update(scale=2.0), "unknown network key 'layers[1].scale'"),
        # the key table spells the layer's spec as "", but no document may
        (lambda doc: doc["layers"][1].update({"": 1}), "unknown network key 'layers[1]'"),
        (lambda doc: doc.update(name="net"), "unknown network key 'name'"),
        (lambda doc: doc.pop("layers"), "network key 'layers' is missing"),
        (lambda doc: doc.update(layers=None), "network key 'layers' must be a list, got None"),
        (lambda doc: doc.update(layers=[]),
         "network key 'layers': a network needs at least one layer"),
        (lambda doc: doc["layers"].pop(1),
         "network key 'layers': layer chain broken: output_dim 6 feeds input_dim 5"),
    ])
    def test_load_refuses_malformed_input_naming_its_path(self, corrupt, message):
        doc = network_to_dict(small_regression_net(seed=32))
        corrupt(doc)
        with pytest.raises(ValueError, match=re.escape(message)):
            network_from_dict(doc)

    def test_load_reads_an_integral_float_dimension(self):
        doc = network_to_dict(small_regression_net(seed=31))
        doc["layers"][2]["input_dim"] = 5.0
        assert network_from_dict(doc).layers[2].spec.input_dim == 5


# the flat label gather rests on np.mean of a 1-D array adding as it adds a
# contiguous row
@pytest.mark.numpy_floor
class TestFlatLabelGather:
    @pytest.mark.parametrize("width", range(1, 13))
    @pytest.mark.parametrize("n", [60, 3500])
    def test_flat_positions_give_the_row_form_bit_for_bit(self, width, n):
        # post-training's objective takes _mean_floored_nll of P.T flattened
        # at the class-major positions label * N + row, which it builds
        # once; row-major positions row * classes + label into P flattened
        # add the same way
        rng = np.random.default_rng(500 + width)
        probs = softmax_rows(20 * rng.standard_normal((n, width)))
        labels = rng.integers(0, width, size=n)
        want = mean_cross_entropy(probs, labels)
        class_major = labels * n + np.arange(n)
        assert float(_mean_floored_nll(probs.T.reshape(-1)[class_major])) == want
        assert float(_mean_floored_nll(probs.reshape(-1)[np.arange(n) * width + labels])) == want
        with np.errstate(invalid="ignore"):
            probs[3] = softmax_rows(np.full((1, width), np.nan))
        assert math.isnan(_mean_floored_nll(probs.T.reshape(-1)[class_major]))
