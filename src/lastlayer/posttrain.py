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
bits are forward's.  Every other gradient runs ``network.backprop`` on
the last layer as a bias-free one-layer ``Network`` over the cached
features; on the full cross-entropy batch it starts from the forward
trace the objective computed at the same point, so each iteration
forwards only its trials.  ``post_train`` holds the descent loop of both
modes, a fixed step or the Armijo line search ``armijo_step``, scored
with training's metrics.

The optimized objective is  mean_i loss(act(f_i @ W.T), y_i) + lam * |W|^2
with |.| the Frobenius norm over the whole last-layer matrix.  When the
last layer has a bias it is folded in as a constant-1 feature column, so
it is regularized with the weights and shifts the implied kernel by +1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .data import Dataset
from .linalg import Matrix, matmul, sq_frobenius
from .network import (
    ForwardTrace,
    Layer,
    LayerSpec,
    Network,
    backprop,
    check_loss_pairing,
    feature_map,
    forward,
    loss_eval,
    mean_cross_entropy,
    replace_last_layer,
    softmax_rows,
)
from .rng import derive
from .train import (
    MetricPoint,
    MetricsSeries,
    _BatchStream,
    _check_evaluate,
    _evaluate,
    _samples,
    check_batch_size,
    check_finite,
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


def _last_layer_net(net: Network, w_eff: Matrix) -> Network:
    """The last layer as a bias-free one-layer network over the effective
    features, with weights ``w_eff``."""
    spec = LayerSpec(w_eff.shape[1], w_eff.shape[0], net.layers[-1].spec.activation, has_bias=False)
    return Network([Layer(spec, w_eff)])


def posttrain_objective(net: Network, data: Dataset, lam: float, loss: str) -> float:
    """Regularized last-layer objective at the network's current weights.

    lam = 0 is accepted for diagnostics (plain empirical loss); negative
    values are rejected.
    """
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    check_loss_pairing(net.layers[-1].spec, loss)
    w_eff = effective_last_weights(net)
    out = forward(_last_layer_net(net, w_eff), effective_features(net, data.x)).output
    return loss_eval(loss, out, data.y) + lam * sq_frobenius(w_eff)


class _CachedProblem:
    """Last-layer problem over cached features F (N x d); all sizes are
    desk-scale.

    Full-batch squared error works in the d x d feature space.  Under
    cross_entropy the objective's forward pass runs class-major, as
    ``matmul(W, F.T)`` over an F.T kept C-contiguous, which makes the
    additions of ``forward``'s ``matmul(F, W.T)`` without laying F out
    again on every call; softmax and loss then read its transposed view.
    Every cross-entropy gradient is ``network.backprop``'s ``matmul(delta.T,
    F)`` with ``delta = (P - Y) / N``, on the full batch from the
    objective's trace.  The regularizer adds ``2 lam W`` to each gradient.

    The held-out features ``eval.x`` are the transposed view of a
    C-contiguous array.  ``network.forward`` over them, at each metric
    point, therefore runs class-major too: ``matmul`` forms a product with
    more rows than columns as the transposed product, over the transposed
    features, which it then reads in place instead of copying them.

    The targets of ``train`` and ``eval`` are checked once, here, each set's
    before its features are computed.  Under cross_entropy their class
    labels are kept, and the objective and the metric points take the loss
    and the error from those labels unchecked.  The objective's
    ``mean_cross_entropy`` gathers each training row's label probability
    from the class-major probabilities ``P.T`` flattened (a view when there
    are fewer than 8 classes, which ``softmax_rows`` reduces column by
    column), at flat positions ``label * N + row`` built here."""

    def __init__(self, net: Network, data: Dataset, lam: float, loss: str,
                 eval_data: Dataset | None):
        self.loss = loss
        self.lam = lam
        self.n = data.n

        def cached(d: Dataset):
            return _samples(d, loss)._replace(x=effective_features(net, d.x))

        self.train = cached(data)
        self.eval = None
        if eval_data is not None:
            held_out = cached(eval_data)
            self.eval = held_out._replace(x=np.ascontiguousarray(held_out.x.T).T)
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

    def forward(self, w_eff: Matrix) -> ForwardTrace:
        """``forward(_last_layer_net(net, w_eff), self.train.x)``, bit for
        bit, computed class-major."""
        logits = matmul(w_eff, self.feats_t).T
        return ForwardTrace([logits], [softmax_rows(logits)])

    def objective(self, point: Network) -> tuple[float, ForwardTrace | None]:
        """``(objective, trace)``: the objective at ``point`` and the forward
        trace over the training features it was computed from, which the
        gradient and the metric points reuse (None on the quadratic path,
        which never forms the output)."""
        w_eff = point.layers[0].weights
        if self.quadratic:
            fit = (
                float(np.sum(matmul(w_eff, self.gram_feat) * w_eff))
                - 2.0 * float(np.sum(w_eff * self.cross.T))
                + self.targets_sq
            )
            return fit / self.n + self.lam * sq_frobenius(w_eff), None
        trace = self.forward(w_eff)
        value = mean_cross_entropy(trace.output.T.reshape(-1), self.label_at)
        return value + self.lam * sq_frobenius(w_eff), trace

    def gradient(self, point: Network, idx: np.ndarray | None = None,
                 trace: ForwardTrace | None = None) -> Matrix:
        """Gradient of the objective, on the batch ``idx`` when given.  On
        the full cross-entropy batch, backprop starts from ``trace``, the
        objective's forward pass at ``point``."""
        w_eff = point.layers[0].weights
        if idx is not None:
            grad = backprop(point, self.train.x[idx], self.train.y[idx], self.loss).weights[0]
        elif self.quadratic:
            grad = (2.0 / self.n) * (matmul(w_eff, self.gram_feat) - self.cross.T)
        else:
            grad = backprop(point, self.train.x, self.train.y, self.loss, trace=trace).weights[0]
        return grad + 2.0 * self.lam * w_eff


def armijo_step(trial, objective: float, grad_sq: float, step: float):
    """Backtracking line search with the Armijo condition (Nocedal & Wright,
    *Numerical Optimization*, Ch. 3).

    ``trial(s)`` returns ``(point, objective)`` after a step of size s along
    the negative gradient.  The search starts from twice ``step`` and halves
    at most MAX_HALVINGS times until the objective falls by at least
    ARMIJO_SLOPE * s * grad_sq.  Returns ``(point, objective, s)`` of the
    accepted step, or None when no step is accepted.  A NaN trial objective
    never satisfies the condition.
    """
    step *= 2.0
    for _ in range(MAX_HALVINGS + 1):
        point, value = trial(step)
        if value <= objective - ARMIJO_SLOPE * step * grad_sq:
            return point, value, step
        step *= 0.5
    return None


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

    The descent runs on the last layer as a bias-free one-layer network over
    the cached features.  Iteration ``it``'s MetricPoint (0: the start, whose
    objective must be finite) records the regularized objective on the full
    training set as the train loss and the plain loss on eval_data as the
    test loss; it reuses the forward trace the objective was computed from.
    Step ``it`` moves the weights W to W - s * g, with g the objective's
    gradient at W, on the full batch or on minibatch ``it``.  In minibatch
    mode s = ``lr``, and a non-finite objective raises
    TrainingDivergedError(it).  In full_batch_backtracking mode s is what
    ``armijo_step`` accepts, starting from twice the last accepted step, so
    the objective never rises; the loop stops as "converged" before a step
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
    problem = _CachedProblem(net, data, cfg.lam, loss, eval_data)
    stream = None
    if cfg.mode == "minibatch":
        check_batch_size(cfg.batch_size, data.n)
        stream = _BatchStream(data.n, cfg.batch_size, derive(cfg.seed, "posttrain"))
    grad_tol = max(cfg.grad_tol, 1e-14)
    train, held_out = problem.train, problem.eval
    metrics = MetricsSeries()
    point = _last_layer_net(net, effective_last_weights(net))

    def record(it: int, at: Network, value: float, trace: ForwardTrace | None) -> None:
        if evaluate:
            metrics.append(_evaluate(at, loss, train, held_out, it, value, trace))
        else:
            metrics.append(MetricPoint(it, value))

    value, trace = problem.objective(point)
    record(0, point, check_finite(value, 0), trace)
    spec = point.layers[0].spec
    step = 1.0
    for it in range(1, cfg.iterations + 1):
        weights = point.layers[0].weights
        grad = problem.gradient(point, None if stream is None else stream.batch(it - 1), trace)

        def trial(s: float):
            moved = Network([Layer(spec, weights - s * grad)])
            value_s, trace_s = problem.objective(moved)
            return (moved, trace_s), value_s

        if stream is not None:
            (point, trace), value = trial(cfg.lr)
            check_finite(value, it)
        else:
            grad_sq = sq_frobenius(grad)
            if math.sqrt(grad_sq) <= grad_tol * (1.0 + math.sqrt(sq_frobenius(weights))):
                metrics.termination = "converged"
                break
            accepted = armijo_step(trial, value, grad_sq, step)
            if accepted is None:
                metrics.termination = "stalled"
                break
            (point, trace), value, step = accepted
        record(it, point, value, trace)
    else:
        metrics.termination = "iteration_cap"
    return with_effective_last_weights(net, point.layers[0].weights), metrics
