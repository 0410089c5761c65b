"""Softmax/cross-entropy curvature: probabilities, the coupling matrix, the
Kronecker-structured Hessian, and its positive semidefiniteness.

The Hessian oracle is a test-local central finite-difference stencil over
the flattened weights; the batch-extension test bridges the single-sample
structure to the batch-mean objective.
"""

import math

import numpy as np
import pytest

from lastlayer.convexity import (
    SoftmaxInstance,
    ce_hessian,
    ce_value,
    class_probs,
    p_matrix,
)
from lastlayer.linalg import min_eigenvalue_symmetric


def fd_hessian(fun, w0, step=1e-4):
    """Central second differences of a scalar function of a flat vector."""
    size = w0.size
    hess = np.zeros((size, size))
    for i in range(size):
        for j in range(i, size):
            pp = w0.copy(); pp[i] += step; pp[j] += step
            pm = w0.copy(); pm[i] += step; pm[j] -= step
            mp = w0.copy(); mp[i] -= step; mp[j] += step
            mm = w0.copy(); mm[i] -= step; mm[j] -= step
            hess[i, j] = (fun(pp) - fun(pm) - fun(mp) + fun(mm)) / (4 * step * step)
            hess[j, i] = hess[i, j]
    return hess


def random_instance(rng, m=None, n=None):
    m = m or int(rng.integers(2, 7))
    n = n or int(rng.integers(1, 9))
    return SoftmaxInstance(rng.normal(size=(m, n)), rng.normal(size=n), int(rng.integers(0, m)))


class TestClassProbs:
    def test_zero_weights_uniform(self):
        inst = SoftmaxInstance(np.zeros((4, 3)), np.ones(3), 0)
        assert np.allclose(class_probs(inst), 0.25, rtol=0, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(5, 4))
        x = rng.normal(size=4)
        base = class_probs(SoftmaxInstance(w, x, 0))
        # adding the same rank-one row c*x/|x|^2 shifts every logit by c
        c = 2.5
        direction = c * x / float(x @ x)
        shifted = class_probs(SoftmaxInstance(w + direction[None, :], x, 0))
        assert float(np.max(np.abs(base - shifted))) <= 1e-12

    def test_matches_direct_exp_sum_oracle(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng)
        z = inst.w @ inst.x
        expected = np.exp(z) / np.sum(np.exp(z))
        assert np.allclose(class_probs(inst), expected, rtol=0, atol=1e-14)

    def test_positive_and_normalized(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = class_probs(random_instance(rng))
            assert np.all(p > 0)
            assert abs(float(p.sum()) - 1.0) <= 1e-12


class TestCeValue:
    def test_zero_weights_log_m(self):
        inst = SoftmaxInstance(np.zeros((6, 2)), np.ones(2), 3)
        assert ce_value(inst) == pytest.approx(math.log(6.0), abs=1e-14)

    def test_saturated_true_class_near_zero(self):
        w = np.zeros((3, 1))
        w[1, 0] = 40.0  # true logit 40 above the others
        inst = SoftmaxInstance(w, np.ones(1), 1)
        assert 0.0 <= ce_value(inst) <= 1e-12

    def test_matches_class_probs_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            inst = random_instance(rng)
            expected = -math.log(float(class_probs(inst)[inst.true_class]))
            assert ce_value(inst) == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_never_negative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            assert ce_value(random_instance(rng)) >= 0.0


class TestPMatrix:
    def test_uniform_two_classes(self):
        inst = SoftmaxInstance(np.zeros((2, 2)), np.ones(2), 0)
        expected = np.array([[0.25, -0.25], [-0.25, 0.25]])
        assert np.allclose(p_matrix(inst), expected, rtol=0, atol=1e-15)

    def test_saturated_probability_vanishes(self):
        w = np.zeros((3, 1))
        w[0, 0] = 50.0
        inst = SoftmaxInstance(w, np.ones(1), 0)
        assert float(np.max(np.abs(p_matrix(inst)))) <= 1e-10

    def test_diagonal_dominance_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            coupling = p_matrix(random_instance(rng))
            diag = np.diag(coupling)
            off = np.sum(np.abs(coupling), axis=1) - np.abs(diag)
            assert float(np.max(np.abs(off - diag))) <= 1e-12
            assert np.all(diag >= 0.0)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(6)
        coupling = p_matrix(random_instance(rng))
        assert float(np.max(np.abs(coupling.sum(axis=1)))) <= 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(7)
        coupling = p_matrix(random_instance(rng))
        assert np.array_equal(coupling, coupling.T)


class TestCeHessian:
    def test_zero_input_gives_zero_hessian(self):
        inst = SoftmaxInstance(np.ones((3, 2)), np.zeros(2), 1)
        assert np.all(ce_hessian(inst) == 0.0)

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            hess = ce_hessian(random_instance(rng))
            assert np.array_equal(hess, hess.T)
            assert min_eigenvalue_symmetric(hess) >= -1e-10

    def test_kronecker_structure_every_index(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng, m=3, n=2)
        hess = ce_hessian(inst)
        coupling = p_matrix(inst)
        x = inst.x
        for m in range(3):
            for n in range(2):
                for p in range(3):
                    for q in range(2):
                        assert hess[m * 2 + n, p * 2 + q] == coupling[m, p] * (x[n] * x[q])

    def test_matches_finite_difference_hessian(self):
        rng = np.random.default_rng(10)
        inst = random_instance(rng, m=3, n=4)
        hess = ce_hessian(inst)

        def fun(flat):
            return ce_value(SoftmaxInstance(flat.reshape(3, 4), inst.x, inst.true_class))

        reference = fd_hessian(fun, inst.w.reshape(-1).copy())
        scale = max(1.0, float(np.max(np.abs(reference))))
        assert float(np.max(np.abs(hess - reference))) <= 1e-4 * scale

    def test_batch_mean_hessian_is_mean_of_kroneckers(self):
        rng = np.random.default_rng(11)
        m, n, batch = 3, 3, 6
        w0 = rng.normal(size=(m, n))
        xs = [rng.normal(size=n) for _ in range(batch)]
        labels = [int(rng.integers(0, m)) for _ in range(batch)]

        def batch_mean(flat):
            w = flat.reshape(m, n)
            return sum(
                ce_value(SoftmaxInstance(w, x, j)) for x, j in zip(xs, labels)
            ) / batch

        mean_structure = sum(
            ce_hessian(SoftmaxInstance(w0, x, j)) for x, j in zip(xs, labels)
        ) / batch
        reference = fd_hessian(batch_mean, w0.reshape(-1).copy())
        scale = max(1.0, float(np.max(np.abs(reference))))
        assert float(np.max(np.abs(mean_structure - reference))) <= 1e-4 * scale

    def test_size_guard(self):
        with pytest.raises(ValueError, match="guard"):
            ce_hessian(SoftmaxInstance(np.zeros((30, 30)), np.zeros(30), 0))


class TestValidation:
    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="two classes"):
            SoftmaxInstance(np.zeros((1, 2)), np.zeros(2), 0)

    def test_true_class_in_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SoftmaxInstance(np.zeros((3, 2)), np.zeros(2), 3)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            SoftmaxInstance(np.full((2, 2), np.inf), np.zeros(2), 0)
