"""Feature-map kernel machinery: Gram matrix, closed-form ridge solution in
dual and primal form, and the projector-based norm comparison.

For a feature matrix F (one embedded sample per row) the kernel is the
plain inner product, so the Gram matrix is F @ F.T.  With squared error
and an identity output, the optimal last-layer weights have the closed
form W = F.T @ alpha with alpha solving an N x N ridge system.  Two
shift conventions are supported:

* ``paper_literal``        alpha = (K + lambda I)^-1 Y
* ``objective_consistent`` alpha = (K + N lambda I)^-1 Y, which minimizes
  the mean-loss-plus-penalty objective used by the fine-tuning step
  exactly (the mean over N samples scales the effective ridge by N).

By the push-through identity the same weights solve the d x d primal
system (F.T F + s I) W = F.T Y, and alpha = (Y - F W) / s.  ``ridge_solve``
takes that route, whose cost is linear in N, and is what ``compare`` and
``lastlayer krr`` use.  ``krr_solve`` factorizes the N x N dual and is
kept as the independent oracle that cross-checks it at small N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionMismatchError, Matrix, matmul, solve_spd, sq_frobenius
from .network import Layer, LayerSpec, layer_to_dict

CONVENTIONS = ("paper_literal", "objective_consistent")

KRR_FORMAT_VERSION = 1

# guard on the N x N dual solve; beyond this the closed form is not a
# desk-scale computation
MAX_DUAL_SIZE = 20000

_RANK_RTOL = 1e-10


@dataclass
class KrrSolution:
    """Closed-form ridge solution over a fixed feature embedding.

    dual_coef is N x d_out, weights is d_feat x d_out and equals
    features.T @ dual_coef up to rounding.
    """

    dual_coef: Matrix
    weights: Matrix
    lam: float
    convention: str


def gram(features: Matrix) -> Matrix:
    """Pairwise inner products of embedded samples: K = F @ F.T."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise DimensionMismatchError("features must be a 2-D matrix")
    return matmul(features, features.T)


def _ridge_problem(features: Matrix, y: Matrix, lam: float, convention: str):
    """Validated ``(features, y, shift)``: float64 matrices with equal row
    counts, and the ridge shift of the convention, lambda or N lambda."""
    features = np.asarray(features, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    if features.ndim != 2 or y.ndim != 2:
        raise DimensionMismatchError("features and y must be 2-D matrices")
    n = features.shape[0]
    if y.shape[0] != n:
        raise DimensionMismatchError(
            f"features have {n} rows but y has {y.shape[0]}"
        )
    return features, y, lam if convention == "paper_literal" else n * lam


def krr_solve(
    features: Matrix,
    y: Matrix,
    lam: float,
    convention: str = "objective_consistent",
) -> KrrSolution:
    """Closed-form last-layer weights by solving the N x N dual system.

    The independent oracle for ``ridge_solve``; its cost is cubic in N.
    """
    features, y, shift = _ridge_problem(features, y, lam, convention)
    n = features.shape[0]
    if n > MAX_DUAL_SIZE:
        raise ValueError(
            f"dual solve guard: N = {n} exceeds the desk-scale limit {MAX_DUAL_SIZE}"
        )
    k = gram(features)  # owned here; shifted in place
    k[np.diag_indices_from(k)] += shift
    dual = solve_spd(k, y)
    weights = matmul(features.T, dual)
    return KrrSolution(dual_coef=dual, weights=weights, lam=lam, convention=convention)


def ridge_solve(
    features: Matrix,
    y: Matrix,
    lam: float,
    convention: str = "objective_consistent",
) -> KrrSolution:
    """Closed-form last-layer weights by solving the d x d primal system.

    Same solution as ``krr_solve`` up to rounding, at a cost linear in N:
    W = (F.T F + s I)^-1 F.T Y, and the dual coefficients follow as
    alpha = (Y - F W) / s.
    """
    features, y, shift = _ridge_problem(features, y, lam, convention)
    normal = matmul(features.T, features)
    normal[np.diag_indices_from(normal)] += shift
    weights = solve_spd(normal, matmul(features.T, y))
    dual = (y - matmul(features, weights)) / shift
    return KrrSolution(dual_coef=dual, weights=weights, lam=lam, convention=convention)


def rkhs_norm_bound(w_column: np.ndarray, features: Matrix) -> tuple:
    """(norm of w projected onto the span of the embedded samples, norm of w).

    The projected norm is the computable surrogate for the function-space
    norm of the linear predictor x -> <embedding(x), w> restricted to the
    training span; it never exceeds the plain Euclidean norm, with equality
    when the embedded samples span the whole feature space.  Rank is
    decided at 1e-10 relative to the largest singular value.
    """
    w = np.asarray(w_column, dtype=np.float64).reshape(-1)
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != w.shape[0]:
        raise DimensionMismatchError(
            f"features must be N x {w.shape[0]}, got {features.shape}"
        )
    _, singular, vt = np.linalg.svd(features, full_matrices=False)
    if singular.size and singular[0] > 0.0:
        rank = int(np.sum(singular > _RANK_RTOL * singular[0]))
    else:
        rank = 0
    l2_norm = float(np.sqrt(np.sum(w * w)))
    if rank == 0:
        return 0.0, l2_norm
    basis = vt[:rank]  # rows: orthonormal basis of the sample span
    coords = matmul(basis, w.reshape(-1, 1))
    proj_norm = float(np.sqrt(sq_frobenius(coords)))
    return proj_norm, l2_norm


def solution_to_dict(sol: KrrSolution) -> dict:
    """Serialize with the last layer in the network layer format.  That layer
    acts on the effective features, with a bias folded in as the last
    column, so it is no drop-in last layer of a biased network: substitute
    ``network_optimal.json``, which ``lastlayer krr`` writes beside it.  Its
    activation is "identity", the one output squared error pairs with."""
    d_feat, d_out = sol.weights.shape
    last = Layer(LayerSpec(d_feat, d_out, "identity", has_bias=False), sol.weights.T)
    return {
        "format_version": KRR_FORMAT_VERSION,
        "kind": "krr_solution",
        "lambda": float(sol.lam),
        "convention": sol.convention,
        "last_layer": layer_to_dict(last),
        "dual_coef": sol.dual_coef.tolist(),
    }
