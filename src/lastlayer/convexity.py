"""Curvature analysis of the softmax/cross-entropy last-layer objective.

For a single sample with feature vector x, class weight rows W and true
class j, the negative log-probability of class j is a convex function of
W.  Its Hessian factors as a Kronecker product: the class-coupling matrix
P[m,p] = p_m (delta_mp - p_p) (built from the class probabilities) times
the rank-one matrix x x^T.  P has nonnegative diagonal and each diagonal
entry equals the sum of absolute off-diagonals in its row, so P is
diagonally dominant, hence positive semidefinite, and so is the Hessian.
These facts are verified numerically by the test suite and the check
harness rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Matrix
from .network import softmax_rows

# guard on the explicit (M*N)^2 Hessian
MAX_HESSIAN_SIZE = 200


@dataclass
class SoftmaxInstance:
    """One softmax classification point: weight rows, feature vector, label.

    ``true_class`` is 0-based.
    """

    w: Matrix
    x: np.ndarray
    true_class: int

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.x = np.asarray(self.x, dtype=np.float64).reshape(-1)
        if self.w.ndim != 2:
            raise ValueError("w must be a 2-D matrix (one row per class)")
        if self.w.shape[0] < 2:
            raise ValueError("need at least two classes")
        if self.w.shape[1] != self.x.shape[0]:
            raise ValueError(
                f"w has {self.w.shape[1]} columns but x has length {self.x.shape[0]}"
            )
        if not 0 <= self.true_class < self.w.shape[0]:
            raise ValueError(
                f"true_class {self.true_class} out of range for {self.w.shape[0]} classes"
            )
        if not (np.all(np.isfinite(self.w)) and np.all(np.isfinite(self.x))):
            raise ValueError("instance contains non-finite entries")

    @property
    def n_classes(self) -> int:
        return self.w.shape[0]

    def logits(self) -> np.ndarray:
        return self.w @ self.x


def class_probs(inst: SoftmaxInstance) -> np.ndarray:
    """Softmax class probabilities: ``network.softmax_rows`` of the logits."""
    return softmax_rows(inst.logits()[None, :])[0]


def ce_value(inst: SoftmaxInstance) -> float:
    """Negative log-probability of the true class, computed stably.

    log-sum-exp minus the true logit; never negative because the shifted
    sum always contains exp(0).
    """
    z = inst.logits()
    top = np.max(z)
    return float(np.log(np.sum(np.exp(z - top))) + top - z[inst.true_class])


def p_matrix(inst: SoftmaxInstance) -> Matrix:
    """Class-coupling matrix P[m,p] = p_m (delta_mp - p_p).

    Symmetric, rows sum to zero, and each diagonal entry p_m (1 - p_m)
    equals the sum of absolute off-diagonal entries in its row.
    """
    p = class_probs(inst)
    m = inst.n_classes
    return p[:, None] * (np.eye(m) - p[None, :])


def ce_hessian(inst: SoftmaxInstance) -> Matrix:
    """Full Hessian of ce_value with respect to the flattened weight matrix.

    Index layout: weight entry (m, n) maps to flat index m * N + n, so the
    Hessian is the Kronecker product of P and x x^T: block (m, p) equals
    P[m,p] * x x^T.
    """
    size = inst.w.size
    if size > MAX_HESSIAN_SIZE:
        raise ValueError(
            f"explicit Hessian guard: M*N = {size} exceeds {MAX_HESSIAN_SIZE}"
        )
    return np.kron(p_matrix(inst), np.multiply.outer(inst.x, inst.x))
