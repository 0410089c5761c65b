"""Experiment harness: the three-way comparison protocol and the
self-check suite.

``run_experiment`` trains a network along a single seeded trajectory,
pausing at each checkpoint to branch three ways: keep training (classic),
fine-tune the last layer on frozen features (post-training), and
substitute the closed-form ridge-optimal last layer.  The three share the
snapshot's lower layers, so the held-out split is embedded once per
checkpoint and each last layer is scored on that embedding; one
comparison row is emitted per (seed, checkpoint).  A checkpoint's branch
needs only its snapshot, so it may run in a forked worker while training
goes on.  Everything is deterministic: the same config produces
byte-identical CSV output.

``check_suite`` re-verifies the package's numerical contracts (gradient
correctness, Hessian structure, positive semidefiniteness, primal/dual
agreement, norm bounds, monotone fine-tuning, frozen layers) and returns
a machine-readable report.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
from collections import deque
from dataclasses import asdict, astuple, dataclass, field, replace
from typing import Optional

import numpy as np

from . import jsonio
from .convexity import SoftmaxInstance, ce_hessian, p_matrix
from .data import (Dataset, apply_standardization, check_fraction, gen_synthetic, load_csv, split,
                   split_size, standardize)
from .jsonio import FieldError, refused_as
from .kernel import CONVENTIONS, gram, krr_solve, ridge_solve, rkhs_norm_bound
from .linalg import DimensionMismatchError, matmul, min_eigenvalue_symmetric, solve_spd
from .network import (
    LOSSES,
    LayerSpec,
    Network,
    _apply_activation,
    _check_input,
    _layer_passes,
    _mean_cross_entropies,
    _squared_errors,
    backprop,
    build_network,
    check_layer_specs,
    check_loss_pairing,
    forward,
    loss_eval,
    one_hot_labels,
)
from .posttrain import (PostTrainConfig, _last_layer_net, effective_features,
                        effective_last_weights, post_train, with_effective_last_weights)
from .rng import Rng, derive
from .train import (TrainConfig, check_batch_size, check_dropout_keep, classification_error,
                    sgd_train)
from .workers import Worker

CONFIG_FORMAT_VERSION = 1

METRICS = ("rmse", "classification_error")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# the keys each dataset kind reads, with the value each takes when unset
_DATASET_KEYS = {
    "synthetic": {"n": 10000, "seed": 0},
    "csv": {"path": None, "feature_columns": None, "target_columns": None, "has_header": True},
}


@dataclass
class DatasetSpec:
    """Where a run's data come from.  Each kind reads only its own keys, as
    listed in ``_DATASET_KEYS``; a key of the other kind raises ValueError
    naming it, so the resolved config never carries a value nothing read.
    Unset keys are None, and those of the spec's own kind take their
    defaults here."""

    kind: str  # "synthetic" | "csv"
    n: Optional[int] = None
    seed: Optional[int] = None
    path: Optional[str] = None
    feature_columns: Optional[list[jsonio.Column]] = None
    target_columns: Optional[list[jsonio.Column]] = None
    has_header: Optional[bool] = None

    def __post_init__(self):
        if self.kind not in _DATASET_KEYS:
            raise FieldError("kind", f"dataset kind must be 'synthetic' or 'csv', got {self.kind!r}")
        for kind, keys in _DATASET_KEYS.items():
            for key, default in keys.items():
                if kind != self.kind and getattr(self, key) is not None:
                    raise FieldError(key, f"dataset.{key} applies only to a {kind} dataset")
                if kind == self.kind and getattr(self, key) is None:
                    setattr(self, key, default)
        if self.kind == "synthetic" and self.n < 1:
            raise FieldError("n", "n must be >= 1")
        if self.kind == "csv" and not self.path:
            raise FieldError("path", "csv dataset requires a path")
        if self.kind == "csv" and (self.feature_columns is None or self.target_columns is None):
            missing = "feature_columns" if self.feature_columns is None else "target_columns"
            raise FieldError(missing, "csv dataset requires feature_columns and target_columns")


@dataclass(kw_only=True)
class ExperimentConfig:
    """Fields are declared in the order of the config document, which
    ``config_to_dict`` follows; keyword-only so that defaulted fields can
    sit among required ones."""

    dataset: DatasetSpec
    split_fraction: float
    split_seed: int
    standardize: bool = True
    init_seed: int = 0
    layer_specs: list[LayerSpec]
    loss: str
    train: TrainConfig
    posttrain: PostTrainConfig
    checkpoints: list[int]
    metric: str = "rmse"
    seeds: list[int] = field(default_factory=lambda: [0])
    krr_convention: str = "objective_consistent"

    def __post_init__(self):
        """Each refusal is a FieldError of the field it names.  Besides each
        field's own rules, the fields must fit one another: the layers
        chain, their last activation pairs with ``loss`` (which the metric
        fixes), and ``train.dropout_keep`` has one entry per hidden layer.
        A synthetic dataset's row count is known here, so the size rules
        the run would apply to it are applied now: the split leaves rows on
        both sides, and SGD's batch, and in minibatch mode post-training's,
        fits in the training rows."""
        if self.metric not in METRICS:
            raise FieldError("metric", f"metric must be one of {METRICS}")
        if not self.checkpoints:
            raise FieldError("checkpoints", "at least one checkpoint is required")
        if self.checkpoints[0] < 0:
            raise FieldError("checkpoints", f"checkpoints must be >= 0, got {self.checkpoints[0]}")
        for a, b in zip(self.checkpoints, self.checkpoints[1:]):
            if b <= a:
                raise FieldError("checkpoints", "checkpoints must be strictly increasing")
        if self.checkpoints[-1] > self.train.iterations:
            raise FieldError("checkpoints", "checkpoints cannot exceed train.iterations")
        if not self.seeds:
            raise FieldError("seeds", "at least one run seed is required")
        if self.metric == "rmse" and self.loss != "squared_error":
            raise FieldError("loss", "rmse metric requires squared_error loss")
        if self.metric == "classification_error" and self.loss != "cross_entropy":
            raise FieldError("loss", "classification_error metric requires cross_entropy loss")
        with refused_as("split_fraction"):
            check_fraction(self.split_fraction)
        if self.krr_convention not in CONVENTIONS:
            raise FieldError("krr_convention", f"krr_convention must be one of {CONVENTIONS}, "
                                               f"got {self.krr_convention!r}")
        with refused_as("layer_specs"):
            check_layer_specs(self.layer_specs)
            check_loss_pairing(self.layer_specs[-1], self.loss)
        with refused_as("train"):
            check_dropout_keep(self.train, len(self.layer_specs) - 1)
        if self.dataset.kind != "synthetic":
            return
        with refused_as("split_fraction"):
            n_train = split_size(self.dataset.n, self.split_fraction)
        with refused_as("train"):
            check_batch_size(self.train.batch_size, n_train)
        if self.posttrain.mode == "minibatch":
            with refused_as("posttrain"):
                check_batch_size(self.posttrain.batch_size, n_train)


# The config document spells every field of ExperimentConfig and of the
# dataclasses it holds by the field's name, except these; a dotted key puts
# the value in a section of its own.
_DOC_KEYS = {
    "lam": "lambda",
    "split_fraction": "split.fraction",
    "split_seed": "split.seed",
    "init_seed": "network.init_seed",
    "layer_specs": "network.layers",
}


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Config from its JSON document; absent keys take the dataclass defaults.
    Besides ``format_version``, which may be absent but otherwise must be this
    package's, a key that names no field raises ValueError, so a misspelt
    key cannot silently leave a default in place."""
    doc = dict(jsonio.expect(doc, dict, "", "config"))
    version = doc.pop("format_version", CONFIG_FORMAT_VERSION)
    jsonio.check_format_version(version, CONFIG_FORMAT_VERSION, "config")
    return jsonio.from_doc(ExperimentConfig, doc, "", "config", _DOC_KEYS)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Fully resolved config document, written alongside every run."""
    return {"format_version": CONFIG_FORMAT_VERSION, **jsonio.to_doc(cfg, _DOC_KEYS)}


# ---------------------------------------------------------------------------
# comparison protocol
# ---------------------------------------------------------------------------

@dataclass
class ComparisonRow:
    iterations: int
    classic: float
    posttrained: float
    optimal: Optional[float]  # None for classification runs (no closed form)
    seed: int


def rmse(output, targets) -> float:
    """sqrt(mean over samples of the squared prediction-error norm)."""
    return math.sqrt(loss_eval("squared_error", output, targets))


def _materialize_data(cfg: ExperimentConfig, run_seed: int):
    """Dataset, split and standardization for one run seed.

    Synthetic data is regenerated per run seed; file-backed data is fixed
    and only the split varies.  Under cross_entropy the loaded targets must
    be one-hot rows, checked before the split so that a bad row in the test
    set, which no training step reads, is rejected too, and named by its
    index in the dataset as loaded.
    """
    if cfg.dataset.kind == "synthetic":
        ds = gen_synthetic(cfg.dataset.n, derive(cfg.dataset.seed, "dataset", run_seed))
    else:
        try:
            ds = load_csv(
                cfg.dataset.path,
                cfg.dataset.feature_columns,
                cfg.dataset.target_columns,
                has_header=cfg.dataset.has_header,
            )
        except FileNotFoundError:
            raise FileNotFoundError(
                f"dataset file {cfg.dataset.path!r} not found; tabular datasets are "
                "not bundled, supply the CSV yourself or use the synthetic config"
            ) from None
    if cfg.loss == "cross_entropy":
        one_hot_labels(ds.y)
    train_ds, test_ds = split(ds, cfg.split_fraction, derive(cfg.split_seed, "run", run_seed))
    # the split copied every row: drop the source, so standardization holds
    # no more than the two parts
    del ds
    if cfg.standardize:
        train_ds, params = standardize(train_ds)
        test_ds = apply_standardization(test_ds, params)
    return train_ds, test_ds


def for_run_seed(section, run_seed: int):
    """``section``, a config's ``train`` or ``posttrain``, seeded for ``run_seed``."""
    return replace(section, seed=derive(section.seed, "run", run_seed))


def prepare_run(cfg: ExperimentConfig, run_seed: int):
    """Everything one run seed starts from: ``(train, test, net, train_cfg,
    posttrain_cfg)``, with the initial network and both configs' seeds
    derived from ``run_seed``."""
    train_ds, test_ds = _materialize_data(cfg, run_seed)
    net = build_network(cfg.layer_specs, derive(cfg.init_seed, "run", run_seed))
    return (train_ds, test_ds, net, for_run_seed(cfg.train, run_seed),
            for_run_seed(cfg.posttrain, run_seed))


def closed_form_fit(cfg: ExperimentConfig, net: Network, train_ds: Dataset):
    """``(solution, net with it as last layer)``: the squared-error ridge
    solution for ``net``'s last layer on its frozen features of ``train_ds``."""
    feats = effective_features(net, train_ds.x)
    solution = ridge_solve(feats, train_ds.y, cfg.posttrain.lam, cfg.krr_convention)
    return solution, with_effective_last_weights(net, solution.weights.T)


def _optimal_last_layer(cfg: ExperimentConfig, net: Network, train_ds: Dataset) -> Network:
    return closed_form_fit(cfg, net, train_ds)[1]


def _branch(cfg: ExperimentConfig, net: Network, train_ds: Dataset, test_ds: Dataset,
            pt_cfg: PostTrainConfig, run_seed: int, checkpoint: int) -> ComparisonRow:
    """The comparison row of the snapshot ``net`` taken at ``checkpoint``:
    the test metric of its own last layer, of its post-trained one and, on
    squared error, of its closed-form one, each scored on one embedding of
    the test set with the bits of ``forward``: ``matmul`` adds in index
    order whatever the shapes, and the folded bias column adds ``1.0 * b``
    last, as ``forward`` adds ``+ b`` after its product.  It reads nothing
    but its arguments, so it can run in a worker while SGD goes on."""
    tuned, _ = post_train(net, train_ds, pt_cfg, cfg.loss, evaluate=False)
    best = _optimal_last_layer(cfg, net, train_ds) if cfg.loss == "squared_error" else None
    feats = effective_features(net, test_ds.x)

    def metric(arm: Network) -> float:
        out = forward(_last_layer_net(arm, effective_last_weights(arm)), feats).output
        return (rmse if cfg.metric == "rmse" else classification_error)(out, test_ds.y)

    return ComparisonRow(iterations=checkpoint, classic=metric(net), posttrained=metric(tuned),
                         optimal=None if best is None else metric(best), seed=run_seed)


def _package_functions() -> dict:
    """Each loaded module of this package, mapped to the functions it binds."""
    prefix = __package__ + "."
    return {
        module: {value for value in vars(module).values() if inspect.isfunction(value)}
        for name, module in list(sys.modules.items()) if name.startswith(prefix)
    }


def _wrapped_in_this_process() -> bool:
    """True when a function of this package has been replaced by a wrapper
    of it since this module was imported, as a tracer or profiler does to
    count its calls (``functools.wraps`` leaves ``__wrapped__`` on the
    wrapper).  What such a wrapper records in a forked worker would stay in
    the worker."""
    return any(
        value not in functions and hasattr(value, "__wrapped__")
        for module, functions in _AS_IMPORTED.items()
        for value in vars(module).values() if inspect.isfunction(value)
    )


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> list:
    """One row per (seed, checkpoint): classic / post-trained / optimal
    test metrics, emitted seed-major in checkpoint order.

    No row reads the metrics of SGD or of post-training, so both run with
    ``evaluate=False``: SGD makes no pass over the full training set, and
    post-training records only its objective and termination.  The rows
    are those of ``evaluate=True``.

    This process runs every seed's SGD chain.  With ``jobs`` > 1 it hands
    each checkpoint's branch to a forked worker and trains on, keeping at
    most ``jobs`` workers alive and waiting for the oldest at that bound;
    the last branch runs here.  So at most ``min(jobs, branches - 1)``
    workers are alive at once.  Every branch runs here when ``jobs`` is 1,
    when ``os.fork`` is missing, and when a function of the package is
    wrapped in this process, so that the wrapper sees every call.  The
    rows and any error are those of the serial loop: a failing branch
    raises, once the branches before it have been taken, the exception it
    would raise here.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if not hasattr(os, "fork") or _wrapped_in_this_process():
        jobs = 1
    branches = len(cfg.seeds) * len(cfg.checkpoints)
    rows, live = [], deque()  # live: (row index, worker), oldest first

    def take_oldest():
        index, worker = live[0]
        rows[index] = worker.result()
        live.popleft()

    try:
        for run_seed in cfg.seeds:
            train_ds, test_ds, net, train_cfg, pt_cfg = prepare_run(cfg, run_seed)
            completed = 0
            for checkpoint in cfg.checkpoints:
                chunk = replace(train_cfg, iterations=checkpoint - completed)
                net, _ = sgd_train(
                    net, train_ds, chunk, cfg.loss, start_iteration=completed, evaluate=False
                )
                completed = checkpoint
                args = (cfg, net, train_ds, test_ds, pt_cfg, run_seed, checkpoint)
                if jobs == 1 or len(rows) == branches - 1:
                    rows.append(_branch(*args))
                    continue
                while len(live) >= jobs:
                    take_oldest()
                name = f"seed {run_seed}, checkpoint {checkpoint}"
                live.append((len(rows), Worker(_branch, args, name)))
                rows.append(None)
        while live:
            take_oldest()
    except Exception:
        # The serial loop would have met an older branch's error first.  A
        # reaped worker at the front raised this error itself, and every
        # worker behind it runs a younger branch.
        if live and live[0][1].pid is not None:
            for _, worker in live:
                worker.result()
        raise
    finally:
        for _, worker in live:
            worker.kill()
    return rows


def rows_to_csv(rows) -> str:
    """One line per ``ComparisonRow``, its fields in declaration order; a
    run without a closed form writes ``NA`` as its optimum."""
    return jsonio.csv_table(["iterations", "classic", "posttrain", "optimal", "seed"],
                            map(astuple, rows), "NA")


# ---------------------------------------------------------------------------
# self-check suite
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    """One self-check's verdict: it passes when ``max_error <= tolerance``,
    so a NaN error fails.  ``passed`` is declared second so that the
    report's JSON keys keep the order name, passed, max_error, tolerance,
    detail."""

    name: str
    passed: bool = field(init=False)
    max_error: float
    tolerance: float
    detail: str = ""

    def __post_init__(self):
        self.passed = self.max_error <= self.tolerance


@dataclass
class CheckReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [asdict(c) for c in self.checks]}

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"[{status}] {c.name}: max_error={c.max_error:.3e} tolerance={c.tolerance:.3e}"
                + (f" ({c.detail})" if c.detail else "")
            )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _perturbed_copies(array: np.ndarray, step: float) -> np.ndarray:
    """``2 size`` copies of ``array`` stacked on a new leading axis; copy i
    holds entry i (in C order) moved up by ``step``, copy size + i holds
    it moved down."""
    size = array.size
    copies = np.repeat(array.reshape(1, size), 2 * size, axis=0)
    entries = np.arange(size)
    keep = array.reshape(-1)
    copies[entries, entries] = keep + step
    copies[size + entries, entries] = keep - step
    return copies.reshape(2 * size, *array.shape)


def _fd_loss_gradient(net: Network, x, y, loss: str):
    """Central finite differences, of step 1e-5, of the batch-mean loss over
    every parameter; independent of the backward pass.  Also returns whether a
    difference moved a relu pre-activation across zero, where it is no
    oracle for the derivative.

    Each parameter array, in layer order with weights before bias, goes
    through the network once as one stacked batch of its ``2 size``
    perturbed copies (``_perturbed_copies``).  The layers below the
    perturbed one run once on the unperturbed batch.  At the perturbed
    layer one ``matmul`` forms every copy's pre-activation, with the
    copies' transposed weights side by side; above it the copies' batches
    run as one batch of ``2 size`` times the rows.  ``matmul`` adds each
    entry's products in a fixed order whatever the shapes, rows are
    independent in every activation, and the stacked loss arithmetic sums
    each copy as ``loss_eval`` sums one batch, so every difference has the
    bits of separate ``forward`` and ``loss_eval`` calls on perturbed
    networks.  ``net`` is never written.
    """
    x = _check_input(net, x)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (x.shape[0], net.output_dim):
        raise DimensionMismatchError(
            f"output shape {(x.shape[0], net.output_dim)} != target shape {y.shape}"
        )
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}; expected one of {LOSSES}")
    labels = one_hot_labels(y) if loss == "cross_entropy" else None
    batch = x.shape[0]
    step = 1e-5
    inputs = [x] + [post for _, post in _layer_passes(net.layers[:-1], x)]
    grads = []
    crossed = False
    for index, layer in enumerate(net.layers):
        h, width = inputs[index], layer.spec.output_dim
        for array in (layer.weights, layer.bias):
            if array is None:
                continue
            size = array.size
            copies = _perturbed_copies(array, step)
            if array is layer.weights:
                stacked = matmul(h, copies.transpose(2, 0, 1).reshape(layer.spec.input_dim, -1))
                z = stacked.reshape(batch, 2 * size, width).transpose(1, 0, 2)
                if layer.bias is not None:
                    z = z + layer.bias
            else:
                z = matmul(h, layer.weights.T)[None] + copies[:, None, :]
            pre = [np.ascontiguousarray(z).reshape(2 * size * batch, width)]
            post = _apply_activation(layer.spec.activation, pre[0])
            for z_above, post in _layer_passes(net.layers[index + 1:], post):
                pre.append(z_above)
            outputs = post.reshape(2 * size, batch, net.output_dim)
            values = (_squared_errors(outputs, y) if labels is None
                      else _mean_cross_entropies(outputs, labels))
            grads.append(((values[:size] - values[size:]) / (2.0 * step)).reshape(array.shape))
            signs = [z_at.reshape(2, -1) > 0 for z_at, at in zip(pre, net.layers[index:])
                     if at.spec.activation == "relu"]
            crossed = crossed or any(bool(np.any(up != down)) for up, down in signs)
    return grads, crossed


def _random_net(rng: Rng, loss: str) -> Network:
    """A dense network of 1 to 3 layers, widths 2 to 8, with normal noise
    (sd 0.3 on biases, 0.2 on weights) added to its initial parameters,
    all of it taken in one ``normals`` call, layer by layer, bias first."""
    depth = 1 + rng.randbelow(3)
    widths = [2 + rng.randbelow(7) for _ in range(depth + 1)]
    specs = []
    for i in range(depth):
        last = i == depth - 1
        activation = (
            ("softmax" if loss == "cross_entropy" else "identity")
            if last
            else ("tanh" if rng.randbelow(2) else "relu")
        )
        specs.append(
            LayerSpec(widths[i], widths[i + 1], activation, has_bias=not last)
        )
    net = build_network(specs, rng.randbelow(2**31))
    # non-zero biases so their gradients are exercised
    noisy = [(scale, array) for layer in net.layers
             for scale, array in ((0.3, layer.bias), (0.2, layer.weights)) if array is not None]
    z = rng.normals(sum(array.size for _, array in noisy))
    start = 0
    for scale, array in noisy:
        array += scale * z[start:start + array.size].reshape(array.shape)
        start += array.size
    return net


def _random_batch(rng: Rng, net: Network, loss: str):
    """1 to 16 rows of normal inputs with normal targets (squared error) or
    one-hot rows of uniform classes (cross-entropy); the normals come from
    one ``normals`` call, inputs first."""
    batch = 1 + rng.randbelow(16)
    inputs = batch * net.input_dim
    if loss == "squared_error":
        z = rng.normals(inputs + batch * net.output_dim)
        return z[:inputs].reshape(batch, -1), z[inputs:].reshape(batch, -1)
    x = rng.normals(inputs).reshape(batch, -1)
    y = np.zeros((batch, net.output_dim))
    y[np.arange(batch), [rng.randbelow(net.output_dim) for _ in range(batch)]] = 1.0
    return x, y


def _check_gradients(seed: int) -> CheckResult:
    rng = Rng(derive(seed, "gradcheck"))
    worst = 0.0
    redrawn = 0
    for trial in range(20):
        loss = "squared_error" if trial % 2 == 0 else "cross_entropy"
        while True:
            net = _random_net(rng, loss)
            x, y = _random_batch(rng, net, loss)
            reference, crossed = _fd_loss_gradient(net, x, y, loss)
            if not crossed:
                break
            redrawn += 1
        grads = backprop(net, x, y, loss)
        ordered = []
        for index, layer in enumerate(net.layers):
            ordered.append(grads.weights[index].copy())
            if layer.bias is not None:
                ordered.append(grads.biases[index].copy())
        scale = max(1.0, max(float(np.max(np.abs(r))) for r in reference))
        err = max(
            float(np.max(np.abs(a - b))) for a, b in zip(ordered, reference)
        ) / scale
        worst = max(worst, err)
    detail = f"{redrawn} draw(s) replaced: a difference crossed a relu kink" if redrawn else ""
    return CheckResult("gradient_vs_finite_differences", worst, 1e-5, detail)


# doubles of perturbed weights that one pass of _fd_ce_hessian may hold
_FD_HESSIAN_STACK = 16384


def _fd_ce_hessian(inst: SoftmaxInstance):
    """Central second differences (step 1e-4) of ``ce_value`` over the weights.

    Entry (i, j >= i) differences four points: +-step at i, then +-step at
    j, in that order, so the diagonal's point holds ``(w + s_i) + s_j``.
    The upper triangle's pairs (i, j), in ``np.triu_indices`` order, are
    stacked as many as keep the stack's points within _FD_HESSIAN_STACK
    doubles, and each stack runs through one ``@`` / ``np.max`` /
    ``np.exp`` / ``np.sum`` pass with ``ce_value``'s arithmetic applied
    per point (``_fd_ce_entries``).  Every point's value is computed from
    its own weights alone, so each entry equals the difference of four
    separately built instances whatever the stacking.  The cap bounds the
    memory: one stack of every pair of a 6 x 8 instance would hold
    4 x 1176 points of 48 weights, about 1.8 MB.  The Hessian itself is
    allocated only after the last stack is freed.
    """
    size = inst.w.size
    if not np.all(np.isfinite(inst.w)):
        raise ValueError("instance contains non-finite entries")
    rows, cols = np.triu_indices(size)
    chunk = _FD_HESSIAN_STACK // (4 * size)
    entries = np.concatenate([_fd_ce_entries(inst, rows[i:i + chunk], cols[i:i + chunk], 1e-4)
                              for i in range(0, len(rows), chunk)])
    hess = np.zeros((size, size))
    hess[rows, cols] = hess[cols, rows] = entries
    return hess


def _fd_ce_entries(inst: SoftmaxInstance, rows: np.ndarray, cols: np.ndarray,
                   step: float) -> np.ndarray:
    """``_fd_ce_hessian``'s entries (rows[p], cols[p]) from one stack of
    their points: the weights moved by (+,+), (+,-), (-,+) and (-,-) steps
    at rows[p], then at cols[p].  Every array made here is freed on return,
    before the next stack is built."""
    m, n = inst.w.shape
    pairs = np.arange(len(rows))
    points = np.tile(inst.w.reshape(-1), (4 * len(rows), 1)).reshape(len(rows), 4, -1)
    points[pairs, :, rows] += [step, step, -step, -step]
    points[pairs, :, cols] += [step, -step, step, -step]
    z = points.reshape(-1, m, n) @ inst.x
    del points  # so that the softmax temporaries below never sit beside it
    top = np.max(z, axis=1)
    values = (np.log(np.sum(np.exp(z - top[:, None]), axis=1)) + top
              - z[:, inst.true_class]).reshape(len(rows), 4)
    return (values[:, 0] - values[:, 1] - values[:, 2] + values[:, 3]) / (4.0 * step * step)


def _random_softmax_instance(rng: Rng) -> SoftmaxInstance:
    """m in 2..6 classes, n in 1..8 features, normal weights and input (one
    ``normals`` call, weights first) and a uniform true class."""
    m = 2 + rng.randbelow(5)
    n = 1 + rng.randbelow(8)
    z = rng.normals(m * n + n)
    return SoftmaxInstance(z[:m * n].reshape(m, n), z[m * n:], rng.randbelow(m))


def _check_softmax_curvature(seed: int):
    rng = Rng(derive(seed, "curvature"))
    worst_fd = 0.0
    worst_eig = 0.0
    worst_dom = 0.0
    fd_budget = 25  # explicit finite-difference Hessians are quartic; sample
    for trial in range(100):
        inst = _random_softmax_instance(rng)
        hess = ce_hessian(inst)
        if trial < fd_budget:
            reference = _fd_ce_hessian(inst)
            scale = max(1.0, float(np.max(np.abs(reference))))
            worst_fd = max(worst_fd, float(np.max(np.abs(hess - reference))) / scale)
        worst_eig = max(worst_eig, max(0.0, -min_eigenvalue_symmetric(hess)))
        coupling = p_matrix(inst)
        off = np.sum(np.abs(coupling), axis=1) - np.abs(np.diag(coupling))
        worst_dom = max(worst_dom, float(np.max(np.abs(off - np.diag(coupling)))))
    return [
        CheckResult("softmax_hessian_vs_finite_differences", worst_fd, 1e-4),
        CheckResult("softmax_hessian_psd", worst_eig, 1e-10),
        CheckResult("softmax_coupling_diagonal_dominance", worst_dom, 1e-12),
    ]


def _check_kernel_identities(seed: int) -> list:
    rng = Rng(derive(seed, "kernel"))
    worst_push = 0.0
    worst_repr = 0.0
    worst_psd = 0.0
    for _ in range(25):
        n = 5 + rng.randbelow(35)
        d = 2 + rng.randbelow(8)
        m = 1 + rng.randbelow(3)
        z = rng.normals(n * (d + m))
        feats, targets = z[:n * d].reshape(n, d), z[n * d:].reshape(n, m)
        lam = float(10.0 ** rng.uniform_matrix(1, 1, -4.0, 0.0)[0, 0])
        solution = krr_solve(feats, targets, lam, "paper_literal")
        primal = ridge_solve(feats, targets, lam, "paper_literal").weights
        scale = max(1.0, float(np.max(np.abs(primal))))
        worst_push = max(
            worst_push, float(np.max(np.abs(solution.weights - primal))) / scale
        )
        k = gram(feats)
        pred_dual = matmul(k, solution.dual_coef)
        pred_primal = matmul(feats, solution.weights)
        pscale = max(1.0, float(np.max(np.abs(pred_dual))))
        worst_repr = max(
            worst_repr, float(np.max(np.abs(pred_dual - pred_primal))) / pscale
        )
        if n <= 30:
            min_eig = min_eigenvalue_symmetric(k)
            # negative spectrum relative to the mean diagonal, per the PSD contract
            worst_psd = max(worst_psd, max(0.0, -min_eig) / (float(np.trace(k)) / n))
    return [
        CheckResult("primal_dual_push_through", worst_push, 1e-8),
        CheckResult("representer_predictions_agree", worst_repr, 1e-8),
        CheckResult("gram_positive_semidefinite", worst_psd, 1e-8),
    ]


def _check_norm_bound(seed: int) -> CheckResult:
    rng = Rng(derive(seed, "normbound"))
    worst = 0.0
    for _ in range(100):
        d = 2 + rng.randbelow(10)
        n = 1 + rng.randbelow(19)
        # force rank deficiency half the time
        rank = max(1, min(n, d) // 2) if rng.randbelow(2) else 0
        z = rng.normals((n + rank + 1) * d)
        feats = z[:n * d].reshape(n, d)
        if rank:
            feats = feats[:, :rank] @ z[n * d:(n + rank) * d].reshape(rank, d)
        w = z[(n + rank) * d:]
        proj, full = rkhs_norm_bound(w, feats)
        worst = max(worst, proj - full)
    return CheckResult("span_norm_never_exceeds_l2", worst, 1e-10)


def _stacked_objectives(feats: np.ndarray, w: np.ndarray, y: np.ndarray,
                        lam: float) -> np.ndarray:
    """``posttrain_objective`` under squared error of a bias-free identity
    last layer at each weight matrix ``w[s]`` of a stack (stack x outputs x
    features) over the effective features ``feats``, bit for bit.

    One ``matmul`` forms every output, ``_squared_errors`` sums each one's
    batch and ``np.sum(w * w, axis=(1, 2))`` each one's regularizer.
    ``matmul``'s additions do not depend on the shapes, and each stack item
    is summed as ``np.sum`` sums it alone, so each value has the bits of
    its own ``forward``, ``loss_eval`` and ``sq_frobenius`` calls."""
    stack, outs, width = w.shape
    outputs = matmul(feats, w.reshape(-1, width).T).reshape(len(feats), stack, outs)
    return (_squared_errors(np.ascontiguousarray(outputs.transpose(1, 0, 2)), y)
            + lam * np.sum(w * w, axis=(1, 2)))


def _check_posttrain(seed: int) -> list:
    """Post-training on a small squared-error problem: the objective never
    rises, the frozen layers keep their bits, and the objective is
    midpoint-convex in the last layer.

    The inputs are uniform on [0, 1), the targets normal.  The midpoint test
    draws 100 random pairs (wa, wb), each of normal (2, 5) matrices, in the
    same ``normals`` call as the targets, and scores the pairs and their
    midpoints as one stack of 300 last layers (``_stacked_objectives``)."""
    rng = Rng(derive(seed, "posttrain"))
    specs = [
        LayerSpec(4, 6, "tanh"),
        LayerSpec(6, 5, "relu"),
        LayerSpec(5, 2, "identity", has_bias=False),
    ]
    net = build_network(specs, derive(seed, "ptnet"))
    x = rng.uniform_matrix(40, 4)
    z = rng.normals(80 + 100 * 2 * 2 * 5)
    y = z[:80].reshape(40, 2)
    ds = Dataset(x, y)
    cfg = PostTrainConfig(lam=1e-3, iterations=40)
    tuned, metrics = post_train(net, ds, cfg, "squared_error")

    series = metrics.train_losses()
    worst_increase = max(
        [b - a for a, b in zip(series, series[1:])], default=0.0
    )
    frozen_diff = 0.0
    for before, after in zip(net.layers[:-1], tuned.layers[:-1]):
        frozen_diff = max(frozen_diff, float(np.max(np.abs(before.weights - after.weights))))
        if before.bias is not None:
            frozen_diff = max(frozen_diff, float(np.max(np.abs(before.bias - after.bias))))

    pairs = z[80:].reshape(100, 2, 2, 5)
    wa, wb = pairs[:, 0], pairs[:, 1]
    j_mid, j_a, j_b = _stacked_objectives(
        effective_features(net, x), np.concatenate([(wa + wb) / 2.0, wa, wb]), y, cfg.lam
    ).reshape(3, 100)
    worst_midpoint = max(0.0, float(np.max(j_mid - (j_a + j_b) / 2.0)))
    return [
        CheckResult("posttrain_objective_monotone", worst_increase, 0.0),
        CheckResult("posttrain_frozen_layers_bit_identical", frozen_diff, 0.0),
        CheckResult("posttrain_objective_midpoint_convex", worst_midpoint, 1e-10),
    ]


def _check_solver(seed: int) -> CheckResult:
    rng = Rng(derive(seed, "solver"))
    worst = 0.0
    for _ in range(25):
        n = 2 + rng.randbelow(28)
        k = 1 + rng.randbelow(3)
        z = rng.normals(n * (n + k))
        m = z[:n * n].reshape(n, n)
        a = m.T @ m + np.eye(n)
        b = z[n * n:].reshape(n, k)
        x = solve_spd(a, b)
        residual = float(np.max(np.abs(a @ x - b)))
        worst = max(worst, residual / (1.0 + float(np.max(np.abs(b)))))
    return CheckResult("spd_solve_residual", worst, 1e-8)


def check_suite(seed: int = 0) -> CheckReport:
    """Run every numerical self-check; failures are report content, not
    exceptions.  Each check draws its random instances from its own
    SplitMix64 stream, ``Rng(derive(seed, label))``, never from
    ``numpy.random``.  The gradient check compares ``backprop``, as this module
    names it, against finite differences, so a test that wraps
    ``experiment.backprop`` to corrupt its result sees the check fail."""
    checks = [_check_gradients(seed)]
    checks.extend(_check_softmax_curvature(seed))
    checks.extend(_check_kernel_identities(seed))
    checks.append(_check_norm_bound(seed))
    checks.extend(_check_posttrain(seed))
    checks.append(_check_solver(seed))
    return CheckReport(checks)


# random softmax instances that convexity_statistics draws
_CONVEXITY_INSTANCES = 100


def convexity_statistics(seed: int = 0) -> dict:
    """Min-eigenvalue statistics of the softmax curvature over 100 seeded
    random instances (the `check --convexity` CLI surface)."""
    rng = Rng(derive(seed, "convexstats"))
    eigs = []
    for _ in range(_CONVEXITY_INSTANCES):
        inst = _random_softmax_instance(rng)
        eigs.append(min_eigenvalue_symmetric(ce_hessian(inst)))
    ordered = np.sort(eigs)
    half = _CONVEXITY_INSTANCES // 2
    return {
        "instances": _CONVEXITY_INSTANCES,
        "min": float(ordered[0]),
        # np.median's bits for an even count, without the numpy.ma import
        # that np.median costs a process
        "median": float((ordered[half - 1] + ordered[half]) / 2),
        "max": float(ordered[-1]),
        "all_above": -1e-10,
        "passed": bool(ordered[0] >= -1e-10),
    }


# the package's functions before anything could wrap them
_AS_IMPORTED = _package_functions()
