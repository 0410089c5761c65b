"""Dense feedforward networks and exact reverse-mode gradients.

A network is an ordered list of affine layers with elementwise activations;
the final layer plays a special role throughout this package: the layers
below it form the feature map that embeds inputs into the last layer's
input space, and several consumers (the last-layer fine-tuning step, the
kernel solver) treat that embedding as fixed.

Weights are stored output_dim x input_dim; a batch is a matrix with one
sample per row, so a layer computes ``act(x @ W.T + b)``.  Networks are
treated as immutable values: training code copies before updating.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import jsonio
from .linalg import DimensionMismatchError, Matrix, matmul
from .rng import Rng, derive

ACTIVATIONS = ("identity", "tanh", "relu", "softmax")
LOSSES = ("squared_error", "cross_entropy")

NETWORK_FORMAT_VERSION = 1

# floor applied to predicted class probabilities inside the log
PROB_FLOOR = 1e-12

# row width from which np.sum adds contiguous entries pairwise, not in order
_PAIRWISE_MIN = 8

# rows per block of feature_map's layer passes
_FEATURE_BLOCK = 1024


@dataclass(frozen=True)
class LayerSpec:
    input_dim: int
    output_dim: int
    activation: str
    has_bias: bool = True

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise jsonio.FieldError("input_dim" if self.input_dim < 1 else "output_dim",
                                    f"layer dimensions must be >= 1, got {self}")
        if self.activation not in ACTIVATIONS:
            raise jsonio.FieldError("activation", f"unknown activation {self.activation!r}; "
                                                  f"expected one of {ACTIVATIONS}")


class _ShapeError(DimensionMismatchError, jsonio.FieldError):
    """Weights or a bias whose shape is not the one its layer's spec gives,
    or layers whose dimensions do not chain."""


@dataclass
class Layer:
    spec: LayerSpec
    weights: jsonio.Matrix
    bias: Optional[jsonio.Vector] = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        expected = (self.spec.output_dim, self.spec.input_dim)
        if self.weights.shape != expected:
            raise _ShapeError("weights",
                              f"layer weights must be {expected}, got {self.weights.shape}")
        if self.spec.has_bias:
            if self.bias is None:
                raise jsonio.FieldError("bias", "layer spec requires a bias vector")
            self.bias = np.asarray(self.bias, dtype=np.float64).reshape(-1)
            if self.bias.shape != (self.spec.output_dim,):
                raise _ShapeError("bias", f"bias must have length {self.spec.output_dim}, "
                                          f"got {self.bias.shape}")
        elif self.bias is not None:
            raise jsonio.FieldError("bias", "layer spec has has_bias=False but a bias was given")

    def copy(self) -> "Layer":
        return Layer(self.spec, self.weights.copy(), None if self.bias is None else self.bias.copy())


def check_layer_specs(specs) -> None:
    """Refuse, as a FieldError of ``layers``, layer specs that make no
    network: none at all, dimensions that do not chain, or a softmax below
    the last layer."""
    if not specs:
        raise jsonio.FieldError("layers", "a network needs at least one layer")
    for lower, upper in zip(specs, specs[1:]):
        if lower.output_dim != upper.input_dim:
            raise _ShapeError("layers", f"layer chain broken: output_dim {lower.output_dim} "
                                        f"feeds input_dim {upper.input_dim}")
    if any(spec.activation == "softmax" for spec in specs[:-1]):
        raise jsonio.FieldError("layers", "softmax is only allowed on the last layer")


@dataclass
class Network:
    layers: list[Layer]

    def __post_init__(self):
        check_layer_specs([layer.spec for layer in self.layers])

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].spec.input_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].spec.output_dim

    def copy(self) -> "Network":
        return Network([layer.copy() for layer in self.layers])


@dataclass
class ForwardTrace:
    """Per-layer pre- and post-activations for one batch.

    ``post`` holds what the next layer actually consumed, which includes
    dropout masking when a mask was supplied.
    """

    pre: list
    post: list

    @property
    def output(self) -> Matrix:
        return self.post[-1]


@dataclass
class Gradients:
    """Gradients of the batch-mean loss, one entry per layer."""

    weights: list
    biases: list  # None entries where the layer has no bias


def softmax_rows(z: Matrix) -> Matrix:
    """Row-wise softmax with max-subtraction for overflow safety:
    ``e / sum(e)`` with ``e = exp(z - max(z))`` per row.

    Rows narrower than _PAIRWISE_MIN entries are reduced column by column:
    the max as a chain of ``np.maximum`` and the sum by adding one column at
    a time, left to right.  Those are the additions ``np.sum(e, axis=1)``
    makes on such rows, since numpy adds fewer than 8 contiguous entries
    one after another, so the bits equal the row reductions' while the
    per-row overhead of reducing a handful of entries is gone.  From 8
    entries on numpy sums pairwise over 8 accumulators, so wider rows keep
    ``np.max`` and ``np.sum``, on a C-contiguous copy of a ``z`` laid out
    otherwise: along a strided axis ``np.sum`` adds in order.  So the bits
    do not depend on the memory layout of ``z``.
    """
    columns = z.T
    narrow = len(columns) < _PAIRWISE_MIN
    if not narrow:
        z = np.ascontiguousarray(z)
    top = functools.reduce(np.maximum, columns) if narrow else np.max(z, axis=1)
    e = np.exp(z - top[:, None])
    total = functools.reduce(np.add, e.T) if narrow else np.sum(e, axis=1)
    return e / total[:, None]


def _apply_activation(kind: str, z: Matrix) -> Matrix:
    if kind == "identity":
        return z
    if kind == "tanh":
        return np.tanh(z)
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "softmax":
        return softmax_rows(z)
    raise ValueError(f"unknown activation {kind!r}")


def _activation_derivative(kind: str, pre: Matrix) -> Optional[Matrix]:
    """d(act)/d(pre), or None for identity.  relu'(0) is fixed to 0."""
    if kind == "identity":
        return None
    if kind == "tanh":
        t = np.tanh(pre)
        return 1.0 - t * t
    if kind == "relu":
        return (pre > 0.0).astype(np.float64)
    raise ValueError(f"no elementwise derivative for activation {kind!r}")


def build_network(specs, seed: int) -> Network:
    """Seeded network: weights uniform on [-a, a], a = sqrt(6/(fan_in+fan_out)).

    Biases start at zero.  Each layer draws from its own derived stream so
    the initialization of layer l does not depend on the widths of other
    layers.
    """
    layers = []
    for index, spec in enumerate(specs):
        rng = Rng(derive(seed, "init", index))
        bound = math.sqrt(6.0 / (spec.input_dim + spec.output_dim))
        weights = rng.uniform_matrix(spec.output_dim, spec.input_dim, -bound, bound)
        bias = np.zeros(spec.output_dim) if spec.has_bias else None
        layers.append(Layer(spec, weights, bias))
    return Network(layers)


def _check_input(net: Network, x: Matrix) -> Matrix:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatchError(f"input batch must be 2-D, got ndim={x.ndim}")
    if x.shape[1] != net.input_dim:
        raise DimensionMismatchError(
            f"input has {x.shape[1]} columns but the network expects {net.input_dim}"
        )
    return x


def _check_masks(net: Network, dropout_masks) -> list:
    n_hidden = net.depth - 1
    if dropout_masks is None:
        return [None] * n_hidden
    if len(dropout_masks) != n_hidden:
        raise DimensionMismatchError(
            f"expected {n_hidden} dropout masks (one per hidden layer), got {len(dropout_masks)}"
        )
    return list(dropout_masks)


def _layer_passes(layers, x: Matrix, masks=()):
    """Yield ``(pre, post)`` activations of each layer in turn, starting
    from ``x``; ``masks[i]``, when given and not None, multiplies the
    post-activations of layer i."""
    current = x
    for index, layer in enumerate(layers):
        z = matmul(current, layer.weights.T)
        if layer.bias is not None:
            z = z + layer.bias[None, :]
        current = _apply_activation(layer.spec.activation, z)
        if index < len(masks) and masks[index] is not None:
            current = current * masks[index]
        yield z, current


def forward(net: Network, x: Matrix, dropout_masks=None) -> ForwardTrace:
    """Run the batch through every layer, recording pre/post activations.

    ``dropout_masks`` (training only) are already-scaled multiplicative
    masks applied to hidden post-activations; the last layer is never
    masked.
    """
    x = _check_input(net, x)
    masks = _check_masks(net, dropout_masks)
    pre, post = [], []
    for z, a in _layer_passes(net.layers, x, masks):
        pre.append(z)
        post.append(a)
    return ForwardTrace(pre, post)


def feature_map(net: Network, x: Matrix) -> Matrix:
    """Embedding computed by all layers below the last one, as a new
    C-contiguous N x d array.

    For a single-layer network the embedding is the raw input.  Dropout is
    never applied here: the feature map is the frozen, deterministic part
    of the network.

    The rows pass through the layers _FEATURE_BLOCK at a time, each block
    written into its rows of the one preallocated output, so the layer
    passes' temporaries are one block's, not N rows'.  The bits are those
    of one pass over all rows: ``matmul`` makes the same additions in the
    same order for any number of rows, and the bias and the activations act
    on each row alone.
    """
    x = _check_input(net, x)
    if net.depth == 1:
        return x.copy()
    lower = net.layers[:-1]
    out = np.empty((x.shape[0], lower[-1].spec.output_dim), dtype=np.float64)
    for start in range(0, x.shape[0], _FEATURE_BLOCK):
        for _, current in _layer_passes(lower, x[start : start + _FEATURE_BLOCK]):
            pass
        out[start : start + _FEATURE_BLOCK] = current
    return out


def one_hot_labels(targets: Matrix) -> np.ndarray:
    """Class index of each one-hot target row; ValueError naming the first
    row that is not one-hot, by its 0-based index, with its values."""
    targets = np.asarray(targets, dtype=np.float64)
    one_hot = np.all((targets == 0.0) | (targets == 1.0), axis=1) & (
        np.sum(targets, axis=1) == 1.0
    )
    if not np.all(one_hot):
        row = int(np.argmin(one_hot))
        raise ValueError(
            f"cross_entropy targets must be one-hot rows; row {row} is {targets[row].tolist()}"
        )
    return np.argmax(targets, axis=1)


def _squared_errors(outputs: np.ndarray, targets: Matrix) -> np.ndarray:
    """Batch-mean squared error of each batch ``outputs[s]`` of a stack
    (stack x batch x output) against the one batch ``targets``: the sum of
    squared deviations over the batch, divided by the batch size.

    Each batch is summed as ``np.sum`` sums the batch alone, since the
    reduction runs over that batch's own entries in memory order.  The
    deviations are squared in place: a stack of many batches then needs
    one temporary of its size, not two.
    Nothing is checked; ``loss_eval`` is the checked entry point."""
    diff = outputs - targets
    return np.sum(np.multiply(diff, diff, out=diff), axis=(1, 2)) / outputs.shape[1]


def _mean_cross_entropies(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``mean_cross_entropy`` of each batch ``probs[s]`` of a stack
    (stack x batch x classes) against the one set of ``labels``.

    The gathered probabilities are made C-contiguous: numpy returns the
    gather column-major, and along a strided axis ``np.mean`` adds one
    entry after another where along a contiguous row it adds pairwise,
    as it does for a single batch."""
    return _mean_floored_nll(np.ascontiguousarray(probs[:, np.arange(len(labels)), labels]))


def _mean_floored_nll(p_true: np.ndarray) -> np.ndarray:
    """Mean of ``-log(max(p, PROB_FLOOR))`` along the last axis of the
    gathered label probabilities ``p_true``, which must be contiguous along
    that axis for its pairwise sum to be that of a single batch."""
    return np.mean(-np.log(np.maximum(p_true, PROB_FLOOR)), axis=-1)


def mean_cross_entropy(probs: Matrix, labels: np.ndarray) -> float:
    """Batch-mean cross-entropy against the class ``labels``: -log of each
    row's probability of its label, floored at PROB_FLOOR.  Nothing is
    checked; ``loss_eval`` is the checked entry point.

    ``probs`` may also be the batch's probabilities flattened to 1-D, with
    ``labels`` the flat position of each row's label probability in it: a
    caller that scores many outputs against fixed labels builds those
    positions once, and the gather is one flat take, in row order."""
    if probs.ndim == 1:
        return float(_mean_floored_nll(probs[labels]))
    return float(_mean_cross_entropies(probs[None], labels)[0])


def loss_eval(loss: str, output: Matrix, targets: Matrix) -> float:
    """Batch-mean loss.

    squared_error sums squared deviations over output dimensions per sample
    (no per-dimension averaging); cross_entropy is ``mean_cross_entropy``
    against the labels of the targets, which must be one-hot rows, of an
    output whose rows sum to 1 within 1e-6.  A row holding NaN, or both
    infinities, passes that check and makes the loss NaN.
    """
    output = np.asarray(output, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if output.shape != targets.shape:
        raise DimensionMismatchError(
            f"output shape {output.shape} != target shape {targets.shape}"
        )
    if loss == "squared_error":
        return float(_squared_errors(output[None], targets)[0])
    if loss == "cross_entropy":
        labels = one_hot_labels(targets)
        deviation = np.max(np.abs(np.sum(output, axis=1) - 1.0))
        if deviation > 1e-6:
            raise ValueError("cross_entropy expects output rows summing to 1")
        if math.isnan(deviation):
            return math.nan
        return mean_cross_entropy(output, labels)
    raise ValueError(f"unknown loss {loss!r}; expected one of {LOSSES}")


def labelled_loss(loss: str, output: Matrix, targets: Matrix,
                  labels: Optional[np.ndarray]) -> float:
    """Batch-mean loss of ``output``: ``loss_eval``'s, which checks the
    targets and, under cross_entropy, the output rows; or, under
    cross_entropy with the checked class ``labels`` of ``targets``
    (``one_hot_labels(targets)``) given, ``mean_cross_entropy`` against
    them, unchecked.  The value is the same: a softmax output row either
    sums to 1 within rounding or, when it has no largest finite logit, is
    NaN throughout, and both losses are then NaN."""
    if labels is not None and loss == "cross_entropy":
        return mean_cross_entropy(output, labels)
    return loss_eval(loss, output, targets)


def check_loss_pairing(last: LayerSpec, loss: str) -> None:
    """squared_error pairs with an identity last layer ``last``, cross_entropy
    with a softmax one."""
    if loss == "squared_error" and last.activation != "identity":
        raise ValueError("squared_error requires an identity last activation")
    if loss == "cross_entropy" and last.activation != "softmax":
        raise ValueError("cross_entropy requires a softmax last activation")
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}")


def _output_error(loss: str, out: Matrix, y: Matrix) -> Matrix:
    """Gradient of the batch-mean loss with respect to the last layer's
    pre-activations, from the outputs ``out`` against the targets ``y``:
    ``(2/B)(out - y)`` for squared error, and under softmax/cross-entropy the
    standard simplification ``(out - y)/B``.  Nothing is checked."""
    if loss == "squared_error":
        return (2.0 / len(out)) * (out - y)
    return (out - y) / len(out)


def backprop(
    net: Network, x: Matrix, y: Matrix, loss: str, dropout_masks=None,
    trace: Optional[ForwardTrace] = None,
) -> Gradients:
    """Exact gradients of the batch-mean loss for every weight and bias: the
    package's one backward pass.

    It starts from ``trace``, the caller's ``forward(net, x,
    dropout_masks)``, and runs that forward pass itself only when no trace
    is given.  The loss is not evaluated; ``loss_and_gradients`` adds it.
    The softmax/cross-entropy pairing uses the standard simplification:
    the output-layer error is (probabilities - one_hot) / batch.
    """
    check_loss_pairing(net.layers[-1].spec, loss)
    x = _check_input(net, x)
    y = np.asarray(y, dtype=np.float64)
    masks = _check_masks(net, dropout_masks)
    if trace is None:
        trace = forward(net, x, dropout_masks=dropout_masks)
    out = trace.output
    if out.shape != y.shape:
        raise DimensionMismatchError(
            f"network output shape {out.shape} != target shape {y.shape}"
        )
    delta = _output_error(loss, out, y)

    depth = net.depth
    weight_grads = [None] * depth
    bias_grads = [None] * depth
    for index in range(depth - 1, -1, -1):
        layer = net.layers[index]
        below = x if index == 0 else trace.post[index - 1]
        weight_grads[index] = matmul(delta.T, below)
        if layer.bias is not None:
            bias_grads[index] = np.sum(delta, axis=0)
        if index > 0:
            upstream = matmul(delta, layer.weights)
            if masks[index - 1] is not None:
                upstream = upstream * masks[index - 1]
            deriv = _activation_derivative(
                net.layers[index - 1].spec.activation, trace.pre[index - 1]
            )
            delta = upstream if deriv is None else upstream * deriv
    return Gradients(weight_grads, bias_grads)


def loss_and_gradients(net: Network, x: Matrix, y: Matrix, loss: str, dropout_masks=None,
                       labels: Optional[np.ndarray] = None):
    """``(loss, gradients)`` of the batch-mean loss from one forward pass,
    which ``backprop`` and the loss share.  The loss is ``labelled_loss``'s:
    a caller that already holds the checked class ``labels`` of ``y`` passes
    them, and the targets are then not checked again."""
    trace = forward(net, x, dropout_masks=dropout_masks)
    grads = backprop(net, x, y, loss, dropout_masks, trace=trace)
    return labelled_loss(loss, trace.output, y, labels), grads


def replace_last_layer(net: Network, weights: Matrix, bias=None) -> Network:
    """New network sharing bit-identical lower layers with a new last layer;
    ``Layer`` refuses weights or a bias that do not fit the last layer's spec."""
    layers = [layer.copy() for layer in net.layers[:-1]]
    layers.append(Layer(net.layers[-1].spec, np.array(weights, dtype=np.float64),
                        None if bias is None else np.array(bias, dtype=np.float64)))
    return Network(layers)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

# a layer document puts its spec's fields beside its weights and bias
_LAYER_KEYS = {"spec": ""}


def layer_to_dict(layer: Layer) -> dict:
    return jsonio.to_doc(layer, _LAYER_KEYS)


def network_to_dict(net: Network) -> dict:
    return {"format_version": NETWORK_FORMAT_VERSION, **jsonio.to_doc(net, _LAYER_KEYS)}


def network_from_dict(doc: dict) -> Network:
    """Network from its JSON document, which must give this package's
    ``format_version``; any other malformed input raises ValueError naming
    its path, such as ``layers[1].weights[0][2]``."""
    doc = dict(jsonio.expect(doc, dict, "", "network"))
    jsonio.check_format_version(doc.pop("format_version", None), NETWORK_FORMAT_VERSION, "network")
    return jsonio.from_doc(Network, doc, "", "network", _LAYER_KEYS)


def save_network(net: Network, path: str) -> None:
    jsonio.dump(network_to_dict(net), path)


def load_network(path: str) -> Network:
    return network_from_dict(jsonio.load(path))
