"""Minibatch SGD training, and the metrics and divergence check that
last-layer post-training shares with it.

Batches come from a counter-based stream: epoch e is a seeded permutation
of the sample indices, and batch t reads positions t*B .. t*B+B-1 of the
concatenated epoch streams (wrapping across epoch boundaries).  Together
with per-iteration dropout streams this makes a training run a pure
function of (network, data, config), so a run resumed from iteration t is
bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import NamedTuple, Optional

import numpy as np

from . import jsonio
from .data import Dataset
from .linalg import Matrix
from .network import (
    ForwardTrace,
    Network,
    check_loss_pairing,
    forward,
    labelled_loss,
    loss_and_gradients,
    one_hot_labels,
)
from .rng import Rng, derive


class TrainingDivergedError(RuntimeError):
    """Loss became NaN or infinite; carries the iteration at which it happened."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"training diverged: non-finite loss at iteration {iteration}")

    def __reduce__(self):
        return type(self), (self.iteration,)


def check_finite(value: float, iteration: int) -> float:
    """Return a loss or objective, raising TrainingDivergedError(iteration)
    when it is NaN or infinite."""
    if not math.isfinite(value):
        raise TrainingDivergedError(iteration)
    return value


@dataclass
class TrainConfig:
    iterations: int
    batch_size: int
    lr0: float
    lr_decay: float = 1.0
    dropout_keep: Optional[list[float]] = None  # one keep probability per hidden layer
    weight_decay: float = 0.0
    seed: int = 0
    eval_every: int = 100

    def __post_init__(self):
        if self.iterations < 0:
            raise jsonio.FieldError("iterations", "iterations must be >= 0")
        if self.batch_size < 1:
            raise jsonio.FieldError("batch_size", "batch_size must be >= 1")
        if self.lr0 <= 0.0:
            raise jsonio.FieldError("lr0", "lr0 must be positive")
        if not 0.0 < self.lr_decay <= 1.0:
            raise jsonio.FieldError("lr_decay", "lr_decay must lie in (0, 1]")
        if self.weight_decay < 0.0:
            raise jsonio.FieldError("weight_decay", "weight_decay must be nonnegative")
        if self.eval_every < 1:
            raise jsonio.FieldError("eval_every", "eval_every must be >= 1")
        if not all(0.0 < keep <= 1.0 for keep in self.dropout_keep or ()):
            raise jsonio.FieldError("dropout_keep", "dropout keep probabilities must lie in (0, 1]")


@dataclass
class MetricPoint:
    iteration: int
    train_loss: float
    test_loss: Optional[float] = None
    train_error: Optional[float] = None
    test_error: Optional[float] = None


@dataclass
class MetricsSeries:
    points: list = field(default_factory=list)
    termination: Optional[str] = None  # why post-training stopped; None for SGD

    def __post_init__(self):
        points, self.points = self.points, []
        for point in points:
            self.append(point)

    def append(self, point: MetricPoint) -> None:
        if self.points and point.iteration <= self.points[-1].iteration:
            raise ValueError("metric iterations must be strictly increasing")
        self.points.append(point)

    def train_losses(self) -> list:
        return [p.train_loss for p in self.points]

    def to_jsonl(self) -> str:
        return "".join(jsonio.dumps(asdict(p)) + "\n" for p in self.points)

    def to_csv(self) -> str:
        """One column per ``MetricPoint`` field, in declaration order; an
        unset value is an empty cell."""
        return jsonio.csv_table([f.name for f in fields(MetricPoint)],
                                map(astuple, self.points), "")


class _Samples(NamedTuple):
    """Inputs and targets that a loss is taken on, and under cross_entropy
    the targets' class labels, checked once when made (else None).  Not a
    ``Dataset``, so that non-finite post-training features raise
    TrainingDivergedError through the objective."""

    x: Matrix
    y: Matrix
    labels: Optional[np.ndarray]


def _samples(data: Dataset, loss: str) -> _Samples:
    labels = one_hot_labels(data.y) if loss == "cross_entropy" else None
    return _Samples(data.x, data.y, labels)


def _label_error(output: Matrix, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(output, axis=1) != labels))


def classification_error(output: Matrix, targets: Matrix) -> float:
    """Fraction of rows whose argmax disagrees with the target argmax."""
    return _label_error(output, np.argmax(targets, axis=1))


def _evaluate(net: Network, loss: str, data: _Samples, eval_data: Optional[_Samples],
              iteration: int, train_loss=None,
              train_trace: Optional[ForwardTrace] = None) -> MetricPoint:
    """Metrics of ``net`` on ``data`` and, when given, ``eval_data``; their
    checked labels stand in for the targets under cross_entropy.  A
    ``train_loss`` the caller already has, such as a regularized objective,
    is recorded in place of the loss on ``data``; a ``train_trace`` it
    already has, ``forward(net, data.x)``, spares the forward pass over
    ``data``."""
    point = MetricPoint(iteration=iteration, train_loss=train_loss)
    if train_loss is None or loss == "cross_entropy":
        out = (forward(net, data.x) if train_trace is None else train_trace).output
        if train_loss is None:
            point.train_loss = labelled_loss(loss, out, data.y, data.labels)
        if loss == "cross_entropy":
            point.train_error = _label_error(out, data.labels)
    if eval_data is not None:
        test_out = forward(net, eval_data.x).output
        point.test_loss = labelled_loss(loss, test_out, eval_data.y, eval_data.labels)
        if loss == "cross_entropy":
            point.test_error = _label_error(test_out, eval_data.labels)
    return point


class _BatchStream:
    """Deterministic index stream: seeded shuffle per epoch, wraparound.
    Batches are read in order, so epochs before the current batch's leave the cache."""

    def __init__(self, n: int, batch_size: int, seed: int):
        self.n = n
        self.batch_size = batch_size
        self.seed = seed
        self._perms: dict = {}

    def _perm(self, epoch: int) -> np.ndarray:
        if epoch not in self._perms:
            self._perms[epoch] = Rng(derive(self.seed, "shuffle", epoch)).permutation(self.n)
        return self._perms[epoch]

    def batch(self, iteration: int) -> np.ndarray:
        """Positions iteration*B .. iteration*B+B-1 of the concatenated epoch
        permutations: with B <= n, a tail of one epoch and a head of the next."""
        pos = iteration * self.batch_size
        end = pos + self.batch_size
        for stale in [e for e in self._perms if e < pos // self.n]:
            del self._perms[stale]
        pieces = []
        while pos < end:
            epoch, offset = divmod(pos, self.n)
            take = min(end - pos, self.n - offset)
            pieces.append(self._perm(epoch)[offset : offset + take])
            pos += take
        return np.concatenate(pieces)


def _dropout_masks(net: Network, cfg: TrainConfig, iteration: int, batch: int):
    """Inverted dropout masks for one iteration, or None when disabled.

    Each iteration draws from its own derived stream (resumability); layers
    with keep probability exactly 1.0 consume no randomness.
    """
    if cfg.dropout_keep is None or all(k == 1.0 for k in cfg.dropout_keep):
        return None
    rng = Rng(derive(cfg.seed, "dropout", iteration))
    masks = []
    for layer, keep in zip(net.layers[:-1], cfg.dropout_keep):
        if keep == 1.0:
            masks.append(None)
            continue
        width = layer.spec.output_dim
        u = rng.uniforms(batch * width).reshape(batch, width)
        masks.append((u < keep).astype(np.float64) / keep)
    return masks


def check_dropout_keep(cfg: TrainConfig, n_hidden: int) -> None:
    """Refuse a ``dropout_keep`` that does not list one probability for each
    of ``n_hidden`` hidden layers."""
    if cfg.dropout_keep is not None and len(cfg.dropout_keep) != n_hidden:
        raise ValueError(
            f"dropout_keep must list {n_hidden} probabilities, got {len(cfg.dropout_keep)}"
        )


def check_batch_size(batch_size: int, n: int) -> None:
    """Refuse a batch of more than the ``n`` rows it is drawn from."""
    if batch_size > n:
        raise ValueError(f"batch_size {batch_size} exceeds dataset size {n}")


def _check_evaluate(evaluate: bool, eval_data: Optional[Dataset]) -> None:
    if not evaluate and eval_data is not None:
        raise ValueError("eval_data is read only by metric points; pass evaluate=True")


def sgd_train(
    net: Network,
    data: Dataset,
    cfg: TrainConfig,
    loss: str,
    eval_data: Optional[Dataset] = None,
    start_iteration: int = 0,
    *,
    evaluate: bool = True,
):
    """Run exactly cfg.iterations minibatch steps, returning a new network
    and its metrics.

    The update is W <- W - lr_t * (grad + 2 * weight_decay * W) with
    lr_t = lr0 * lr_decay^t and t the global iteration index (so a resumed
    run continues the same schedule).  Weight decay does not touch biases.
    Each step's batch loss, checked for divergence, comes from the step's
    one ``loss_and_gradients`` call; under cross_entropy it takes the batch's
    rows of the training labels, checked once before the first step.
    Metrics are recorded every cfg.eval_every iterations on the full
    training set (and on eval_data when given), with dropout off.

    ``evaluate=False`` leaves out every evaluation that only the metrics
    read, here all of them: no point is recorded, so no pass over the full
    training set is made, and eval_data must be None.  The weights are the
    same either way.
    """
    check_loss_pairing(net.layers[-1].spec, loss)
    _check_evaluate(evaluate, eval_data)
    check_batch_size(cfg.batch_size, data.n)
    check_dropout_keep(cfg, net.depth - 1)

    train_set = _samples(data, loss)
    eval_set = None if eval_data is None else _samples(eval_data, loss)
    labels = train_set.labels
    current = net.copy()
    metrics = MetricsSeries()
    stream = _BatchStream(data.n, cfg.batch_size, cfg.seed)

    for t in range(start_iteration, start_iteration + cfg.iterations):
        idx = stream.batch(t)
        xb = data.x[idx]
        yb = data.y[idx]
        masks = _dropout_masks(current, cfg, t, cfg.batch_size)
        batch_loss, grads = loss_and_gradients(
            current, xb, yb, loss, dropout_masks=masks,
            labels=None if labels is None else labels[idx],
        )
        check_finite(batch_loss, t)
        lr_t = cfg.lr0 * cfg.lr_decay**t
        for layer, gw, gb in zip(current.layers, grads.weights, grads.biases):
            if cfg.weight_decay > 0.0:
                layer.weights -= lr_t * (gw + 2.0 * cfg.weight_decay * layer.weights)
            else:
                layer.weights -= lr_t * gw
            if gb is not None:
                layer.bias -= lr_t * gb
        if evaluate and (t + 1) % cfg.eval_every == 0:
            metrics.append(_evaluate(current, loss, train_set, eval_set, t + 1))
    return current, metrics
