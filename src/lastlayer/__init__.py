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
import types

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
    gen_synthetic,
    load_csv,
    save_csv,
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

# every public name the imports above bind; the package's submodules, which
# importing them binds too, are not part of it
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
