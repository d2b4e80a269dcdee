"""The two training objectives and the score-shift diagnostics.

Contrastive loss (``cl_loss``): per-query softmax cross-entropy pushing
the positive score above that query's own negatives. Adding a constant
to all of one query's scores cancels in the softmax, so the loss is
invariant to per-query score offsets: it never sees cross-query
calibration.

Mann-Whitney loss (``mw_loss``): binary cross-entropy on the difference
between every positive score and every negative score in the batch, so
it penalizes any negative anywhere outscoring any positive. It is not
shift-invariant, and its population form upper-bounds the strictly
misordered pair fraction: strict_aoc <= mean BCE / log 2
(``mw_bound_check``).

Both losses divide scores by the temperature tau and are computed with
max-subtracted log-sum-exp / stable softplus, which matters at the
default tau = 0.01 where raw exponentials overflow.

``mw_loss`` never holds the B x B(HB+B-1) pair matrix. It streams over
blocks of whole positive rows, about ``MW_BLOCK_PAIRS`` pairs each (one
row when a row is longer), so its working memory is O(max(block, row)).
Each pair costs one exp. The gradient is bit-identical to the unfused
formula (full-matrix sigmoid, row sums, then column sums added row by
row). The value is the sum of the B per-row softplus sums, so it matches
the unfused full-matrix sum to rounding and no bit of it depends on the
block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .metrics import ScorePool, strict_aoc
from .prng import Xoshiro256StarStar
from .scoring import ScoreBatch

LOG2 = float(np.log(2.0))
# pairs per mw_loss block: 2^16 float64s, 512 KB per temporary
MW_BLOCK_PAIRS = 1 << 16


@dataclass
class LossOutput:
    """Loss value, gradient with respect to the raw similarities, and the
    number of pairwise/softmax comparison terms the loss aggregated."""

    value: float
    d_sim: np.ndarray
    term_count: int

    def __post_init__(self):
        if not np.isfinite(self.value) or self.value < 0:
            raise ValueError(f"loss value must be finite and >= 0, got {self.value}")
        if not np.isfinite(self.d_sim).all():
            raise ValueError("loss gradient must be finite")


def cl_loss(scores: ScoreBatch) -> LossOutput:
    """Softmax contrastive loss over each query's own row.

    value = -(1/B) sum_i log softmax(s/tau)[i] over row i's columns, with
    the positive at column i. The gradient is the softmax probability
    minus the one-hot positive, scaled by 1/(B*tau), placed on row i.
    """
    b, m = scores.sim.shape
    if m < 2:
        raise ValueError("each query needs at least one negative score")
    z = scores.sim / scores.tau
    z_max = z.max(axis=1, keepdims=True)
    shifted = z - z_max
    exp = np.exp(shifted)
    denom = exp.sum(axis=1)
    log_denom = np.log(denom) + z_max[:, 0]
    diag = z[np.arange(b), np.arange(b)]
    # >= 0 as a real; guard against -1e-16 from the final log's rounding
    value = max(float(np.mean(log_denom - diag)), 0.0)
    softmax = exp / denom[:, None]
    d_sim = softmax / (b * scores.tau)
    d_sim[np.arange(b), np.arange(b)] -= 1.0 / (b * scores.tau)
    # b * (m - 1) softmax negatives total, = B(HB + B - 1)
    return LossOutput(value=value, d_sim=d_sim, term_count=b * (m - 1))


def _mw_pair_sums(
    pos: np.ndarray, neg: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused pass over x = (s-_k - s+_i)/tau for every (i, k) pair.

    Returns per-row sums of softplus(x), per-row sums of sigmoid(x), and
    per-column sums of sigmoid(x) accumulated row by row in row order.
    Both use e = exp(-|x|): softplus = max(x, 0) + log1p(e), sigmoid =
    (1 if x >= 0 else e) / (1 + e), the stable forms' exact operations.
    """
    b, n = len(pos), len(neg)
    rows = max(1, MW_BLOCK_PAIRS // n)
    x, e, t, u = (np.empty((min(rows, b), n)) for _ in range(4))
    softplus_rows = np.empty(b)
    sigmoid_rows = np.empty(b)
    sigmoid_cols = np.zeros(n)
    for start in range(0, b, rows):
        r = min(rows, b - start)
        xb, eb, tb, ub = x[:r], e[:r], t[:r], u[:r]
        np.subtract(neg[None, :], pos[start:start + r, None], out=xb)
        xb /= tau
        np.abs(xb, out=eb)
        np.negative(eb, out=eb)
        np.exp(eb, out=eb)
        np.log1p(eb, out=tb)
        np.maximum(xb, 0.0, out=ub)
        ub += tb
        softplus_rows[start:start + r] = ub.sum(axis=1)
        np.add(eb, 1.0, out=tb)
        # numerator: 1 where x >= 0, else e; e <= 1, so max(e, [x >= 0])
        np.greater_equal(xb, 0.0, out=ub)
        np.maximum(eb, ub, out=eb)
        eb /= tb
        sigmoid_rows[start:start + r] = eb.sum(axis=1)
        for row in eb:
            sigmoid_cols += row
    return softplus_rows, sigmoid_rows, sigmoid_cols


def mw_loss(scores: ScoreBatch) -> LossOutput:
    """Pairwise binary cross-entropy between every positive score and the
    batch's pooled negative multiset.

    value = (1/B) sum_i sum_k softplus(-(s+_i - s-_k)/tau) where k runs
    over all B * (HB + B - 1) negative cells of the matrix. Each pair
    contributes sigmoid(-(s+_i - s-_k)/tau) / (B*tau) of gradient, pushing
    the positive up and the negative down.

    The pairs are streamed in blocks of whole rows (see the module
    docstring), so memory stays O(max(MW_BLOCK_PAIRS, B(HB+B-1))) rather
    than O(B^2 (HB+B-1)). ``d_sim`` is bit-identical to the unfused
    full-matrix formula; ``value`` sums the per-row sums.
    """
    b, m = scores.sim.shape
    if m < 2:
        raise ValueError("the pooled negative set is empty")
    mask = scores.offdiag_mask()
    neg = scores.sim[mask]  # row-major multiset of all negative cells
    softplus_rows, sigmoid_rows, sigmoid_cols = _mw_pair_sums(
        scores.positives, neg, scores.tau
    )
    value = float(softplus_rows.sum() / b)
    d_sim = np.zeros_like(scores.sim)
    d_sim[np.arange(b), np.arange(b)] = -sigmoid_rows / (b * scores.tau)
    d_sim[mask] += sigmoid_cols / (b * scores.tau)
    # every positive against every pooled negative: b^2 * (m - 1) pairs
    return LossOutput(value=value, d_sim=d_sim, term_count=b * len(neg))


@dataclass
class OffsetAssignment:
    """One additive score offset per batch query."""

    offsets: np.ndarray

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.float64).ravel()
        if not np.isfinite(self.offsets).all():
            raise ValueError("offsets must be finite")


def apply_offsets(scores: ScoreBatch, offsets: OffsetAssignment) -> ScoreBatch:
    """Shift every score of query i by offsets[i]: row i of the matrix
    moves uniformly, the partition is unchanged. cl_loss is invariant to
    this; mw_loss is not."""
    if len(offsets.offsets) != scores.B:
        raise ValueError(
            f"need {scores.B} offsets, got {len(offsets.offsets)}"
        )
    return ScoreBatch(sim=scores.sim + offsets.offsets[:, None], tau=scores.tau)


def _pool_cl_loss(pools: Sequence[ScorePool], tau: float) -> float:
    """Softmax loss over per-query pools: each (query, positive) pair is
    scored against that query's negatives; mean over all such pairs.
    Computed via the difference form log(1 + sum e^((s- - s+)/tau)), which
    is exactly shift-invariant up to input rounding."""
    total = 0.0
    count = 0
    for pool in pools:
        if pool.n_pos == 0 or pool.n_neg == 0:
            raise ValueError("per-query pools need both positives and negatives")
        for s_pos in pool.positives:
            d = (pool.negatives - s_pos) / tau
            d_max = d.max()
            if d_max <= 0.0:
                total += float(np.log1p(np.exp(d).sum()))
            else:
                # log(1 + sum e^d) = d_max + log(e^-d_max + sum e^(d - d_max))
                total += float(d_max + np.log(np.exp(-d_max) + np.exp(d - d_max).sum()))
            count += 1
    return total / count


def _pooled(pools: Sequence[ScorePool]) -> ScorePool:
    return ScorePool(
        np.concatenate([p.positives for p in pools]),
        np.concatenate([p.negatives for p in pools]),
    )


def gaussian_degradation_demo(
    pools: Sequence[ScorePool],
    sigma: float,
    rng: Xoshiro256StarStar,
    tau: float = 1.0,
) -> tuple[float, float, float, float]:
    """Shift each query's scores by an i.i.d. N(0, sigma^2) offset and
    report (aoc_before, aoc_after, cl_before, cl_after).

    The softmax loss cannot tell the difference (cl_after == cl_before up
    to rounding of the shifted inputs), while the pooled strictly
    misordered fraction drifts to ~0.5 as sigma grows: cross-query pairs
    are then ordered by the offsets alone.
    """
    if not np.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if not pools:
        raise ValueError("no per-query pools given")
    offsets = rng.normals(len(pools), sigma)
    shifted = [
        ScorePool(p.positives + g, p.negatives + g)
        for p, g in zip(pools, offsets)
    ]
    aoc_before = strict_aoc(_pooled(pools))
    aoc_after = strict_aoc(_pooled(shifted))
    cl_before = _pool_cl_loss(pools, tau)
    cl_after = _pool_cl_loss(shifted, tau)
    return aoc_before, aoc_after, cl_before, cl_after


def mw_bound_check(pool: ScorePool, tau: float) -> tuple[float, float, bool]:
    """Evaluate the pairwise-loss bound on a pooled sample.

    Returns (aoc, mw_population, holds) where aoc is the strict
    misordered-pair fraction, mw_population is the mean over all
    positive-negative pairs of softplus(-(s+ - s-)/tau), and holds is
    aoc <= mw_population / log 2. The pointwise inequality
    1{z <= 0} <= softplus(-z/tau) / log 2 makes this true for every pool.
    The pairs go through ``mw_loss``'s blocked kernel, so memory stays
    O(MW_BLOCK_PAIRS) however large the pool.
    """
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if pool.n_pos == 0 or pool.n_neg == 0:
        raise ValueError("bound check needs scores on both sides")
    aoc = strict_aoc(pool)
    softplus_rows, _, _ = _mw_pair_sums(pool.positives, pool.negatives, tau)
    mw_population = float(softplus_rows.sum() / (pool.n_pos * pool.n_neg))
    return aoc, mw_population, aoc <= mw_population / LOG2
