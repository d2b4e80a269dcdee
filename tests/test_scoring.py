"""Tests for the similarity matrix, its partition, and comparison counts."""

import numpy as np
import pytest

from mwlab.scoring import ScoreBatch, backprop_scores, comparison_counts, score_batch
from util import random_unit_rows


class TestScoreBatch:
    def test_orthonormal_identity(self):
        eye = np.eye(2)
        sb = score_batch(eye, eye, tau=1.0)
        np.testing.assert_array_equal(sb.sim, np.eye(2))
        np.testing.assert_array_equal(sb.offdiag_mask(), [[False, True], [True, False]])

    def test_negative_set_sizes(self):
        rng = np.random.default_rng(0)
        q = random_unit_rows(rng, 4, 8)
        p = random_unit_rows(rng, 4 + 2 * 4, 8)
        sb = score_batch(q, p, tau=0.5)
        assert sb.B == 4 and sb.H == 2 and sb.M == 12
        assert sb.offdiag_mask().sum(axis=1).tolist() == [2 * 4 + 3] * 4  # HB + (B - 1)

    def test_duplicate_passages_stay_distinct_columns(self):
        rng = np.random.default_rng(1)
        q = random_unit_rows(rng, 2, 8)
        row = random_unit_rows(rng, 1, 8)
        p = np.vstack([q, row, row])  # two identical hard-negative columns
        sb = score_batch(q, p, tau=1.0)
        assert sb.M == 4
        np.testing.assert_array_equal(sb.sim[:, 2], sb.sim[:, 3])

    def test_positives_are_diagonal(self):
        rng = np.random.default_rng(2)
        q = random_unit_rows(rng, 3, 8)
        p = random_unit_rows(rng, 3, 8)
        sb = score_batch(q, p, tau=1.0)
        np.testing.assert_array_equal(sb.positives, np.diag(sb.sim))

    def test_raw_scores_bounded(self):
        rng = np.random.default_rng(3)
        q = random_unit_rows(rng, 5, 8)
        p = random_unit_rows(rng, 10, 8)
        sb = score_batch(q, p, tau=1.0)
        assert (np.abs(sb.sim) <= 1 + 1e-9).all()

    def test_non_unit_rows_rejected(self):
        q = np.array([[2.0, 0.0]])
        p = np.eye(2)
        with pytest.raises(ValueError, match="unit-norm"):
            score_batch(q, p, tau=1.0)

    def test_nonpositive_temperature_rejected(self):
        eye = np.eye(2)
        with pytest.raises(ValueError, match="temperature"):
            score_batch(eye, eye, tau=0.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_non_finite_temperature_rejected(self, tau):
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            ScoreBatch(sim=np.eye(2), tau=tau)

    def test_column_count_must_fit_batch(self):
        with pytest.raises(ValueError, match="not B"):
            ScoreBatch(sim=np.zeros((2, 5)), tau=1.0)

    def test_sim_narrower_than_the_batch_rejected(self):
        with pytest.raises(ValueError, match="sim needs at least B=3 columns, got 2"):
            ScoreBatch(sim=np.zeros((3, 2)), tau=1.0)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4)])
    def test_sim_without_rows_rejected(self, shape):
        # the column check's (m - b) % b once raised ZeroDivisionError here
        with pytest.raises(ValueError, match=rf"^sim of shape \({shape[0]}, {shape[1]}\) has no rows"):
            ScoreBatch(sim=np.zeros(shape), tau=1.0)

    def test_union_of_negative_sets_size(self):
        sb = ScoreBatch(sim=np.zeros((3, 9)), tau=1.0)
        mask = sb.offdiag_mask()
        assert mask.sum(axis=1).tolist() == [2 * 3 + 3 - 1] * 3
        assert mask.sum() == 3 * (2 * 3 + 3 - 1)


class TestComparisonCounts:
    def test_hand_enumerated_cases(self):
        assert comparison_counts(2, 0) == (2, 4)
        assert comparison_counts(3, 0) == (6, 18)
        assert comparison_counts(2, 1) == (6, 12)

    def test_no_hard_negative_closed_form(self):
        for b in range(2, 65):
            assert comparison_counts(b, 0) == (b * (b - 1), b * b * (b - 1))

    def test_brute_force_enumeration(self):
        # count pairs the way the losses consume them
        for b, h in [(2, 0), (3, 2), (4, 1)]:
            m = b + h * b
            cl = sum(1 for i in range(b) for j in range(m) if j != i)
            mw = sum(1 for _ in range(b) for i in range(b) for j in range(m) if j != i)
            assert comparison_counts(b, h) == (cl, mw)

    def test_validation(self):
        with pytest.raises(ValueError):
            comparison_counts(1, 0)
        with pytest.raises(ValueError):
            comparison_counts(2, -1)


class TestBackpropScores:
    def test_zero_gradient(self):
        rng = np.random.default_rng(4)
        q = random_unit_rows(rng, 2, 6)
        p = random_unit_rows(rng, 4, 6)
        d_q, d_p = backprop_scores(np.zeros((2, 4)), q, p)
        assert not d_q.any() and not d_p.any()

    def test_single_entry_chain_rule(self):
        rng = np.random.default_rng(5)
        q = random_unit_rows(rng, 2, 6)
        p = random_unit_rows(rng, 4, 6)
        d_sim = np.zeros((2, 4))
        d_sim[1, 2] = 3.0
        d_q, d_p = backprop_scores(d_sim, q, p)
        np.testing.assert_allclose(d_q[1], 3.0 * p[2])
        np.testing.assert_allclose(d_p[2], 3.0 * q[1])
        assert not d_q[0].any() and not d_p[0].any()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        q = random_unit_rows(rng, 3, 5)
        p = random_unit_rows(rng, 6, 5)
        w = rng.normal(size=(3, 6))  # loss = sum(w * sim)
        d_q, d_p = backprop_scores(w, q, p)
        h = 1e-6
        for i, j in [(0, 0), (1, 3), (2, 4)]:
            orig = q[i, j]
            q[i, j] = orig + h
            up = float((w * (q @ p.T)).sum())
            q[i, j] = orig - h
            down = float((w * (q @ p.T)).sum())
            q[i, j] = orig
            fd = (up - down) / (2 * h)
            assert abs(d_q[i, j] - fd) / max(abs(fd), 1e-12) < 1e-4

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="d_sim shape \\(2, 3\\) != \\(2, 4\\)"):
            backprop_scores(np.zeros((2, 3)), np.zeros((2, 5)), np.zeros((4, 5)))
