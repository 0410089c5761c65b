"""Kernel machinery: Gram construction, closed-form dual/primal ridge, the
push-through identity, and the span-projection norm bound.

Independent oracles: pairwise dots in a scalar loop for gram, a QR-based
least-squares solve for the minimum-norm projection, and first-order
optimality of the fine-tuning objective for the dual solve.
"""

import re

import numpy as np
import pytest

import lastlayer.kernel as kernel_mod
from lastlayer.kernel import (
    gram,
    krr_solve,
    ridge_solve,
    rkhs_norm_bound,
    solution_to_dict,
)
from lastlayer.linalg import DimensionMismatchError, matmul, min_eigenvalue_symmetric, sq_frobenius


class TestGram:
    def test_identity_features(self):
        assert np.array_equal(gram(np.eye(6)), np.eye(6))

    def test_duplicate_rows_duplicate_entries(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((5, 3))
        f[3] = f[1]
        k = gram(f)
        assert np.array_equal(k[1], k[3])
        assert k[1, 3] == k[1, 1]

    def test_matches_pairwise_dot_oracle(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((12, 4))
        k = gram(f)
        for i in range(12):
            for j in range(12):
                expected = 0.0
                for t in range(4):
                    expected += f[i, t] * f[j, t]
                assert k[i, j] == expected

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((15, 6))
        k = gram(f)
        assert np.array_equal(k, k.T)
        assert min_eigenvalue_symmetric(k) >= -1e-8 * float(np.trace(k)) / 15


class TestKrrSolve:
    def test_orthonormal_features_paper_literal(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((8, 2))
        sol = krr_solve(np.eye(8), y, 1.0, "paper_literal")
        assert np.allclose(sol.dual_coef, y / 2.0, rtol=0, atol=1e-12)

    def test_single_sample_conventions_coincide(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((1, 5))
        y = rng.standard_normal((1, 2))
        a = krr_solve(f, y, 0.3, "paper_literal")
        b = krr_solve(f, y, 0.3, "objective_consistent")
        assert np.array_equal(a.weights, b.weights)

    def test_weights_equal_features_transpose_dual(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((20, 6))
        y = rng.standard_normal((20, 3))
        sol = krr_solve(f, y, 1e-2)
        expected = matmul(f.T, sol.dual_coef)
        assert np.array_equal(sol.weights, expected)

    def test_first_order_optimality_objective_consistent(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            n, d, m = 30, 5, 2
            f = rng.standard_normal((n, d))
            y = rng.standard_normal((n, m))
            lam = 1e-3
            sol = krr_solve(f, y, lam, "objective_consistent")
            w = sol.weights.T  # output-major layout
            grad = (2.0 / n) * matmul((matmul(f, w.T) - y).T, f) + 2.0 * lam * w
            gnorm = float(np.sqrt(sq_frobenius(grad)))
            assert gnorm <= 1e-8 * (1.0 + float(np.sqrt(sq_frobenius(w))))

    def test_multioutput_equals_columnwise_solves(self):
        rng = np.random.default_rng(7)
        f = rng.standard_normal((15, 4))
        y = rng.standard_normal((15, 3))
        joint = krr_solve(f, y, 0.05)
        for j in range(3):
            single = krr_solve(f, y[:, j : j + 1], 0.05)
            assert np.allclose(
                joint.weights[:, j : j + 1], single.weights, rtol=1e-10, atol=1e-12
            )

    def test_ridge_shrinkage_monotone_in_lambda(self):
        rng = np.random.default_rng(8)
        f = rng.standard_normal((25, 6))
        y = rng.standard_normal((25, 2))
        lams = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
        norms = [
            float(np.sqrt(sq_frobenius(krr_solve(f, y, lam).weights))) for lam in lams
        ]
        for bigger, smaller in zip(norms, norms[1:]):
            assert bigger >= smaller

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError, match="positive"):
            krr_solve(np.eye(3), np.ones((3, 1)), 0.0)

    def test_desk_scale_guard(self, monkeypatch):
        monkeypatch.setattr(kernel_mod, "MAX_DUAL_SIZE", 10)
        with pytest.raises(ValueError, match="desk-scale"):
            krr_solve(np.ones((11, 2)), np.ones((11, 1)), 1e-3)

    def test_desk_scale_guard_refuses_the_first_row_past_twenty_thousand(self, monkeypatch):
        # N = 20001 is refused before gram; N = 20000 reaches it, here a
        # stand-in that raises, so nothing N x N is allocated
        class ReachedGram(Exception):
            pass

        def reached(features):
            raise ReachedGram

        monkeypatch.setattr(kernel_mod, "gram", reached)
        with pytest.raises(ValueError, match="N = 20001 exceeds the desk-scale limit 20000"):
            krr_solve(np.ones((20001, 1)), np.ones((20001, 1)), 1e-3)
        with pytest.raises(ReachedGram):
            krr_solve(np.ones((20000, 1)), np.ones((20000, 1)), 1e-3)

    def test_representer_predictions_agree(self):
        rng = np.random.default_rng(9)
        f = rng.standard_normal((18, 5))
        y = rng.standard_normal((18, 1))
        sol = krr_solve(f, y, 1e-2)
        from_dual = matmul(gram(f), sol.dual_coef)
        from_primal = matmul(f, sol.weights)
        scale = max(1.0, float(np.max(np.abs(from_dual))))
        assert float(np.max(np.abs(from_dual - from_primal))) <= 1e-8 * scale


class TestPrimalRidge:
    def test_orthonormal_features(self):
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
        y = rng.standard_normal((10, 2))
        w = ridge_solve(q, y, 1.0, "paper_literal").weights
        assert np.allclose(w, matmul(q.T, y) / 2.0, rtol=0, atol=1e-12)

    def test_push_through_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = rng.standard_normal((30, 5))
            y = rng.standard_normal((30, 2))
            lam = float(10.0 ** rng.uniform(-4, 0))
            dual_w = krr_solve(f, y, lam, "paper_literal").weights
            primal_w = ridge_solve(f, y, lam, "paper_literal").weights
            scale = max(1.0, float(np.max(np.abs(primal_w))))
            assert float(np.max(np.abs(dual_w - primal_w))) <= 1e-8 * scale

    def test_zero_targets_zero_weights(self):
        rng = np.random.default_rng(12)
        f = rng.standard_normal((8, 3))
        assert np.all(ridge_solve(f, np.zeros((8, 2)), 0.5, "paper_literal").weights == 0.0)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            ridge_solve(np.eye(3), np.ones((3, 1)), -1.0, "paper_literal").weights


def _max_scaled_error(got, expected):
    return float(np.max(np.abs(got - expected))) / float(np.max(np.abs(expected)))


class TestRidgeSolve:
    """The primal route against the N x N dual oracle ``krr_solve``."""

    @pytest.mark.parametrize("convention", ["paper_literal", "objective_consistent"])
    def test_matches_dual_oracle(self, convention):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 40))
            d = int(rng.integers(1, 10))
            m = int(rng.integers(1, 4))
            f = rng.standard_normal((n, d))
            y = rng.standard_normal((n, m))
            lam = float(10.0 ** rng.uniform(-2, 0))
            primal = ridge_solve(f, y, lam, convention)
            dual = krr_solve(f, y, lam, convention)
            assert _max_scaled_error(primal.weights, dual.weights) <= 1e-10
            assert _max_scaled_error(primal.dual_coef, dual.dual_coef) <= 1e-10
            assert _max_scaled_error(matmul(f.T, primal.dual_coef), primal.weights) <= 1e-10
            assert (primal.lam, primal.convention) == (lam, convention)

    def test_validates_like_the_dual(self):
        with pytest.raises(ValueError, match="positive"):
            ridge_solve(np.eye(3), np.ones((3, 1)), 0.0)
        with pytest.raises(ValueError, match="convention"):
            ridge_solve(np.eye(3), np.ones((3, 1)), 1e-3, "literal")
        with pytest.raises(ValueError, match="rows"):
            ridge_solve(np.eye(3), np.ones((4, 1)), 1e-3)

    def test_no_dual_size_guard(self, monkeypatch):
        monkeypatch.setattr(kernel_mod, "MAX_DUAL_SIZE", 10)
        rng = np.random.default_rng(18)
        sol = ridge_solve(rng.standard_normal((11, 2)), np.ones((11, 1)), 1e-3)
        assert sol.dual_coef.shape == (11, 1) and sol.weights.shape == (2, 1)


class TestRidgeSolveRelations:
    """Relations of the closed form on the features F of a one-layer
    network.  Each tolerance is at least ten times the worst relative error
    over seeds 0-199, 7.4e-15."""

    @staticmethod
    def features(seed, n=400, d=8, m=4):
        rng = np.random.default_rng(seed)
        return rng, rng.normal(size=(n, d)) * np.logspace(0.0, -2.0, d), rng.normal(size=(n, m))

    @pytest.mark.parametrize("convention", ["paper_literal", "objective_consistent"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scaling_the_features_and_lambda_scales_the_weights(self, convention, seed):
        # F -> cF with lambda -> c^2 lambda scales every term of the normal
        # equations by c^2 but the cross term F.T Y by c, so W* -> W*/c
        rng, f, y = self.features(seed)
        c = float(np.exp(rng.uniform(-3.0, 3.0)))
        want = ridge_solve(f, y, 1e-3, convention).weights / c
        got = ridge_solve(c * f, y, c * c * 1e-3, convention).weights
        assert _max_scaled_error(got, want) <= 1e-13

    @pytest.mark.parametrize("convention, lam_twice", [("objective_consistent", 1e-3),
                                                       ("paper_literal", 2e-3)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_repeating_every_row_keeps_the_weights(self, convention, lam_twice, seed):
        # the mean loss over the repeated rows is the mean over the rows, so
        # the objective-consistent shift N lambda keeps lambda; the literal
        # shift keeps it only with lambda doubled
        _, f, y = self.features(seed)
        want = ridge_solve(f, y, 1e-3, convention).weights
        got = ridge_solve(np.repeat(f, 2, axis=0), np.repeat(y, 2, axis=0), lam_twice,
                          convention).weights
        assert _max_scaled_error(got, want) <= 1e-13


class TestRkhsNormBound:
    def test_full_rank_equality(self):
        rng = np.random.default_rng(13)
        feats = rng.standard_normal((20, 5))  # full column rank a.s.
        w = rng.standard_normal(5)
        proj, full = rkhs_norm_bound(w, feats)
        assert abs(proj - full) <= 1e-8

    def test_orthogonal_vector_projects_to_zero(self):
        feats = np.zeros((4, 3))
        feats[:, 0] = [1.0, 2.0, -1.0, 0.5]  # span = first axis
        w = np.array([0.0, 3.0, 4.0])
        proj, full = rkhs_norm_bound(w, feats)
        assert proj <= 1e-12
        assert full == pytest.approx(5.0, rel=1e-12)

    def test_rank_deficient_matches_min_norm_oracle(self):
        # imported here, so that a run without scipy that deselects this
        # test (the numpy_floor CI leg) still collects the module
        import scipy.linalg

        rng = np.random.default_rng(14)
        for _ in range(10):
            rank = 2
            basis = rng.standard_normal((rank, 6))
            feats = rng.standard_normal((9, rank)) @ basis
            w = rng.standard_normal(6)
            proj, full = rkhs_norm_bound(w, feats)
            # independent oracle: v of least norm with F v = F w, at the same
            # 1e-10 relative rank cutoff the projector uses
            v, *_ = scipy.linalg.lstsq(
                feats, feats @ w, cond=1e-10, lapack_driver="gelsd"
            )
            assert proj == pytest.approx(float(np.linalg.norm(v)), abs=1e-8)
            assert proj <= full + 1e-10

    def test_bound_holds_over_random_pairs(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            d = int(rng.integers(1, 10))
            feats = rng.standard_normal((n, d))
            w = rng.standard_normal(d)
            proj, full = rkhs_norm_bound(w, feats)
            assert proj <= full + 1e-10

    def test_rejects_features_of_another_width_naming_both(self):
        message = "features must be N x 4, got (5, 3)"
        with pytest.raises(DimensionMismatchError, match=re.escape(message)):
            rkhs_norm_bound(np.ones(4), np.ones((5, 3)))

    def test_zero_features_project_nothing(self):
        # rank 0: no sample spans a direction, so the projected norm is 0
        w = np.array([3.0, -4.0])
        assert rkhs_norm_bound(w, np.zeros((5, 2))) == (0.0, 5.0)


class TestSerialization:
    def test_layer_block_matches_network_format(self):
        rng = np.random.default_rng(16)
        f = rng.standard_normal((10, 4))
        y = rng.standard_normal((10, 2))
        sol = krr_solve(f, y, 1e-2)
        doc = solution_to_dict(sol)
        assert doc["format_version"] == 1
        block = doc["last_layer"]
        assert block["input_dim"] == 4 and block["output_dim"] == 2
        assert np.array_equal(np.array(block["weights"]), sol.weights.T)
        from lastlayer.network import network_from_dict

        layer = network_from_dict({"format_version": 1, "layers": [block]}).layers[0]
        assert np.array_equal(layer.weights, sol.weights.T)
