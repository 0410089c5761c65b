"""Last-layer fine-tuning: freeze everything below the output layer and
minimize the l2-regularized empirical risk over the last weight matrix.

With the lower layers frozen, the embedded training set is computed once
and cached; every subsequent iteration works in the last layer's input
space only, which is what makes these iterations cheap.  For squared
error with an identity output the problem is a ridge-regularized least
squares, and the full-batch path exploits that: it precomputes the
feature Gram and cross terms and evaluates objective and gradient in the
feature dimension, never touching the sample axis again.  Under
softmax/cross-entropy the transpose of the features is also built once,
and the objective forms its logits class-major over it, with the
additions of the last layer's ``network.forward`` in its order, so the
bits are forward's.  Every other gradient makes ``network.backprop``'s
arithmetic on the last layer, ``matmul(E.T, F)`` with E the output error
of ``network._output_error``, over the cached features F; on the full
cross-entropy batch E starts from the probabilities the objective
computed at the same point, so each iteration passes only its trials
through the last layer.  No ``Network`` is built until ``post_train``
returns its own.  ``post_train`` holds the descent loop of both modes on
the last-layer matrix itself, a fixed step or a backtracking Armijo line
search, scored with training's metrics.

The optimized objective is  mean_i loss(act(f_i @ W.T), y_i) + lam * |W|^2
with |.| the Frobenius norm over the whole last-layer matrix.  When the
last layer has a bias it is folded in as a constant-1 feature column, so
it is regularized with the weights and shifts the implied kernel by +1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import jsonio
from .data import Dataset
from .linalg import Matrix, matmul, sq_frobenius
from .network import (
    Network,
    _apply_activation,
    _mean_floored_nll,
    _output_error,
    check_loss_pairing,
    feature_map,
    replace_last_layer,
    softmax_rows,
)
from .rng import derive
from .train import (
    MetricPoint,
    MetricsSeries,
    PostTrainingDivergedError,
    _batches,
    _check_evaluate,
    _evaluate,
    _samples,
    check_batch_size,
)

ARMIJO_SLOPE = 1e-4
MAX_HALVINGS = 50

MODES = ("full_batch_backtracking", "minibatch")

RECOMMENDED_LAMBDA = (1e-5, 1e-2)


@dataclass
class PostTrainConfig:
    lam: float
    iterations: int = 200
    mode: str = "full_batch_backtracking"
    batch_size: int = 128  # minibatch mode only
    lr: float = 0.05  # minibatch mode only
    seed: int = 0
    grad_tol: float = 0.0  # full-batch mode: stop when |g| <= grad_tol * (1 + |W|)

    def __post_init__(self):
        if self.lam <= 0.0:
            raise jsonio.FieldError("lam", "lam must be positive")
        if self.grad_tol < 0.0:
            raise jsonio.FieldError("grad_tol", "grad_tol must be nonnegative")
        low, high = RECOMMENDED_LAMBDA
        if not low <= self.lam <= high:
            warnings.warn(
                f"lam = {self.lam:g} is outside the recommended range [{low:g}, {high:g}]"
            )
        if self.iterations < 0:
            raise jsonio.FieldError("iterations", "iterations must be >= 0")
        if self.mode not in MODES:
            raise jsonio.FieldError("mode", f"mode must be one of {MODES}, got {self.mode!r}")
        if self.batch_size < 1:
            raise jsonio.FieldError("batch_size", "batch_size must be >= 1")
        if self.lr <= 0.0:
            raise jsonio.FieldError("lr", "lr must be positive")


def effective_features(net: Network, x: Matrix) -> Matrix:
    """Embedded samples as seen by the last layer.

    Appends a constant-1 column when the last layer has a bias, so bias
    and weights are handled uniformly by the fine-tuning and kernel paths.
    """
    feats = feature_map(net, x)
    if net.layers[-1].spec.has_bias:
        feats = np.hstack([feats, np.ones((feats.shape[0], 1))])
    return feats


def effective_last_weights(net: Network) -> Matrix:
    """Last-layer matrix with the bias folded in as a trailing column."""
    last = net.layers[-1]
    if last.bias is None:
        return last.weights.copy()
    return np.hstack([last.weights, last.bias[:, None]])


def with_effective_last_weights(net: Network, w_eff: Matrix) -> Network:
    """Network with a new last layer read from ``w_eff``; the inverse of
    ``effective_last_weights``, so a trailing column becomes the bias."""
    if net.layers[-1].spec.has_bias:
        return replace_last_layer(net, w_eff[:, :-1], w_eff[:, -1])
    return replace_last_layer(net, w_eff)


def _last_layer_output(activation: str, w_eff: Matrix, feats: Matrix) -> Matrix:
    """Output of a last layer with activation ``activation`` and the matrix
    ``w_eff``, a bias folded in, on the effective features ``feats``: the
    arithmetic of ``network.forward`` over a bias-free layer, bit for bit."""
    return _apply_activation(activation, matmul(feats, w_eff.T))


def _embedded(net: Network, data: Dataset, loss: str):
    """``data``'s samples, targets checked first, with the effective
    features in place of the inputs."""
    return _samples(data, loss)._replace(x=effective_features(net, data.x))


class _CachedProblem:
    """Last-layer problem over the cached training features F (N x d); all
    sizes are desk-scale.

    Full-batch squared error works in the d x d feature space.  Under
    cross_entropy the objective's forward pass runs class-major, as
    ``matmul(W, F.T)`` over an F.T kept C-contiguous, which makes the
    additions of ``forward``'s ``matmul(F, W.T)`` without laying F out
    again on every call; softmax and loss then read its transposed view.
    Every other gradient is ``backprop``'s ``matmul(E.T, F)`` over the
    batch's features F, with E the ``_output_error`` of the outputs at W,
    which on the full cross-entropy batch are the objective's
    probabilities.  The regularizer adds ``2 lam W`` to each gradient.

    The targets of ``train`` are checked once, here, before its features
    are computed.  Under cross_entropy its class labels are kept, and the
    objective and the metric points take the loss and the error from those
    labels unchecked.  The objective gathers each training row's label
    probability from the class-major probabilities ``P.T`` flattened (a
    view when there are fewer than 8 classes, which ``softmax_rows``
    reduces column by column), at flat positions ``label * N + row`` built
    here, in row order, and averages them with ``_mean_floored_nll``, as
    ``mean_cross_entropy`` does, so the value has its bits."""

    def __init__(self, net: Network, data: Dataset, lam: float, loss: str):
        # output(w, x): the last layer's output with the matrix w on the
        # effective features x
        self.output = partial(_last_layer_output, net.layers[-1].spec.activation)
        self.loss = loss
        self.lam = lam
        self.n = data.n
        self.train = _embedded(net, data, loss)
        self.quadratic = loss == "squared_error"
        feats = self.train.x
        if self.quadratic:
            # d x d precomputation: objective and gradient never touch the
            # sample axis again
            self.gram_feat = matmul(feats.T, feats)
            self.cross = matmul(feats.T, self.train.y)
            self.targets_sq = sq_frobenius(self.train.y)
        else:
            self.feats_t = np.ascontiguousarray(feats.T)
            self.label_at = self.train.labels * self.n + np.arange(self.n)

    def objective(self, w: Matrix) -> tuple[float, Matrix | None]:
        """``(objective, probabilities)``: the objective at the weight matrix
        ``w`` and, under cross_entropy, the output over the training
        features it was computed from, ``output(w, self.train.x)`` bit for
        bit, which the gradient and the metric points reuse (None on the
        quadratic path, which never forms the output)."""
        if self.quadratic:
            fit = (
                float(np.sum(matmul(w, self.gram_feat) * w))
                - 2.0 * float(np.sum(w * self.cross.T))
                + self.targets_sq
            )
            return fit / self.n + self.lam * sq_frobenius(w), None
        probs = softmax_rows(matmul(w, self.feats_t).T)
        value = float(_mean_floored_nll(probs.T.reshape(-1)[self.label_at]))
        return value + self.lam * sq_frobenius(w), probs

    def gradient(self, w: Matrix, idx: np.ndarray | None = None,
                 out: Matrix | None = None) -> Matrix:
        """Gradient of the objective at ``w``, on the batch ``idx`` when
        given.  ``out``, the objective's probabilities at ``w``, spares the
        output on the full cross-entropy batch; a batch ``idx`` never reads
        it."""
        if idx is None and self.quadratic:
            grad = (2.0 / self.n) * (matmul(w, self.gram_feat) - self.cross.T)
        else:
            x, y = self.train.x, self.train.y
            if idx is not None:
                x, y, out = x[idx], y[idx], None
            if out is None:
                out = self.output(w, x)
            grad = matmul(_output_error(self.loss, out, y).T, x)
        return grad + 2.0 * self.lam * w


def post_train(
    net: Network,
    data: Dataset,
    cfg: PostTrainConfig,
    loss: str,
    eval_data: Dataset | None = None,
    *,
    evaluate: bool = True,
):
    """Optimize the last layer on frozen features; lower layers are returned
    bit-identical.  Returns ``(tuned, metrics)``.

    The descent runs on the last layer's weight matrix W over the cached
    features, a bias folded in as its last column; the only network built
    is the one returned.  Iteration ``it``'s MetricPoint (0: the start,
    whose objective must be finite) records the regularized objective on
    the full training set as the train loss and the plain loss on eval_data
    as the test loss; it reuses the output the objective was computed from.
    eval_data, like the training set, has its targets checked and then its
    features cached once, before the descent.
    Step ``it`` moves the weights W to W - s * g, with g the objective's
    gradient at W, on the full batch or on minibatch ``it``.  In minibatch
    mode s = ``lr``, and a non-finite objective raises
    PostTrainingDivergedError(it), which reports it, so the descent raises
    no numpy warning about overflow or invalid values.  In
    full_batch_backtracking mode s comes from a backtracking line search
    with the Armijo condition (Nocedal & Wright, *Numerical Optimization*,
    Ch. 3): it starts from twice the last accepted step (from 2 at the
    first step) and halves at most
    MAX_HALVINGS times until the objective J falls to at most
    J - ARMIJO_SLOPE * s * |g|^2, which a NaN objective never does, so the
    objective never rises.  The loop stops as "converged" before a step
    with |g| <= max(grad_tol, 1e-14) * (1 + |W|), and as "stalled" when no
    step is accepted.  A descent in either mode that takes all
    ``cfg.iterations`` steps stops as "iteration_cap".  The reason lands in
    ``metrics.termination``.
    Dropout is never applied here: it would change the frozen feature
    function.

    ``evaluate=False`` leaves out every evaluation that only the metrics
    read, as in ``sgd_train``: each point still records the objective, which
    the descent computes anyway, and the termination reason is still set,
    but no training-set error is computed, and eval_data must be None.  The
    weights, objectives and termination are the same either way.
    """
    check_loss_pairing(net.layers[-1].spec, loss)
    _check_evaluate(evaluate, eval_data)
    with np.errstate(over="ignore", invalid="ignore"):
        problem = _CachedProblem(net, data, cfg.lam, loss)
        eval_set = None if eval_data is None else _embedded(net, eval_data, loss)
        batches = None
        if cfg.mode == "minibatch":
            check_batch_size(cfg.batch_size, data.n)
            batches = _batches(data.n, cfg.batch_size, derive(cfg.seed, "posttrain"))
        grad_tol = max(cfg.grad_tol, 1e-14)
        metrics = MetricsSeries()
        w = effective_last_weights(net)

        def record(it: int, at: Matrix, value: float, probs: Matrix | None) -> None:
            if not math.isfinite(value):
                raise PostTrainingDivergedError(it)
            metrics.append(_evaluate(partial(problem.output, at), loss, problem.train, eval_set,
                                     it, value, probs) if evaluate else MetricPoint(it, value))

        value, probs = problem.objective(w)
        record(0, w, value, probs)
        step = 1.0
        for it in range(1, cfg.iterations + 1):
            grad = problem.gradient(w, None if batches is None else next(batches), probs)
            if batches is not None:
                w = w - cfg.lr * grad
                value, probs = problem.objective(w)
            else:
                grad_sq = sq_frobenius(grad)
                if math.sqrt(grad_sq) <= grad_tol * (1.0 + math.sqrt(sq_frobenius(w))):
                    metrics.termination = "converged"
                    break
                step *= 2.0
                for _ in range(MAX_HALVINGS + 1):
                    moved = w - step * grad
                    value_s, probs_s = problem.objective(moved)
                    if value_s <= value - ARMIJO_SLOPE * step * grad_sq:
                        break
                    step *= 0.5
                else:
                    metrics.termination = "stalled"
                    break
                w, value, probs = moved, value_s, probs_s
            record(it, w, value, probs)
        else:
            metrics.termination = "iteration_cap"
    return with_effective_last_weights(net, w), metrics
