"""Last-layer convex fine-tuning for dense feedforward networks.

The package trains a network normally, then freezes everything below the
output layer and solves the resulting convex problem over the last weight
matrix, either iteratively (`post_train`) or in closed form through the
feature-map kernel.  The closed form is solved in the d x d primal
(`ridge_solve`, used by `compare` and `lastlayer krr`); the N x N dual
(`krr_solve`) is its independent cross-check.  An experiment harness
compares both against continued training on held-out data.
"""

import os
import sys

# Load OpenBLAS with one thread unless the caller chose a count or numpy is
# already loaded.  `matmul` is its own loop and never calls BLAS, and the only
# LAPACK calls (`solve_spd`, `eigvalsh`, `svd`) factor matrices of at most a
# few dozen rows in every CLI command, so a second BLAS thread could only spin.
# Output bytes do not depend on the thread count either way.  OpenBLAS reads
# the variable once, when numpy loads it, so it is removed again and
# os.environ and child processes see the caller's environment.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .convexity import SoftmaxInstance, ce_hessian, ce_value, class_probs, p_matrix
from .data import (
    Dataset,
    Split,
    gen_synthetic,
    load_csv,
    load_dataset,
    save_csv,
    save_dataset,
    split,
    standardize,
)
from .experiment import (
    ComparisonRow,
    ExperimentConfig,
    check_suite,
    config_from_dict,
    config_to_dict,
    rmse,
    rows_to_csv,
    run_experiment,
)
from .kernel import KrrSolution, gram, krr_solve, ridge_solve, rkhs_norm_bound
from .linalg import (
    DimensionMismatchError,
    Matrix,
    NotPositiveDefiniteError,
    NotSymmetricError,
    matmul,
    min_eigenvalue_symmetric,
    solve_spd,
    sq_frobenius,
)
from .network import (
    ForwardTrace,
    Gradients,
    Layer,
    LayerSpec,
    Network,
    backprop,
    build_network,
    feature_map,
    forward,
    load_network,
    loss_eval,
    replace_last_layer,
    save_network,
)
from .posttrain import (
    PostTrainConfig,
    effective_features,
    post_train,
    posttrain_objective,
    with_effective_last_weights,
)
from .train import (
    MetricPoint,
    MetricsSeries,
    TrainConfig,
    TrainingDivergedError,
    sgd_train,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonRow",
    "Dataset",
    "DimensionMismatchError",
    "ExperimentConfig",
    "ForwardTrace",
    "Gradients",
    "KrrSolution",
    "Layer",
    "LayerSpec",
    "Matrix",
    "MetricPoint",
    "MetricsSeries",
    "Network",
    "NotPositiveDefiniteError",
    "NotSymmetricError",
    "PostTrainConfig",
    "SoftmaxInstance",
    "Split",
    "TrainConfig",
    "TrainingDivergedError",
    "backprop",
    "build_network",
    "ce_hessian",
    "ce_value",
    "check_suite",
    "class_probs",
    "config_from_dict",
    "config_to_dict",
    "effective_features",
    "feature_map",
    "forward",
    "gen_synthetic",
    "gram",
    "krr_solve",
    "load_csv",
    "load_dataset",
    "load_network",
    "loss_eval",
    "matmul",
    "min_eigenvalue_symmetric",
    "p_matrix",
    "post_train",
    "posttrain_objective",
    "replace_last_layer",
    "ridge_solve",
    "rkhs_norm_bound",
    "rmse",
    "rows_to_csv",
    "run_experiment",
    "save_csv",
    "save_dataset",
    "save_network",
    "sgd_train",
    "solve_spd",
    "split",
    "sq_frobenius",
    "standardize",
    "with_effective_last_weights",
]
