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

``mw_loss`` never holds the B x B(HB+B-1) pair matrix. It streams column
tiles at most ``MW_TILE_COLS`` wide, in blocks of about ``MW_BLOCK_PAIRS``
pairs, through four scratch buffers that stay in L2: memory is
O(MW_BLOCK_PAIRS + B + |S^-|) however wide a row is, and each pair costs
one exp. numpy sums a run of m > 128 as its first m//2 - (m//2) % 8
elements plus the rest; each tile is a node of that tree and a wider
node's row sums are its children's added, so every row sum has the bits
of a full-row ``sum``. Column sums add rows in row order. So ``d_sim`` is
bit-identical to the unfused formula, the value (the sum of the per-row
softplus sums) matches it to rounding, and no bit depends on the tiling.

A call of at least ``MW_SPLIT_PAIRS`` pairs whose row is wider than one
tile runs on two cores when the process may use two (``data.CPUS``, the
one reading of the usable CPU count). It splits as ``data``'s selections
split their walks over score blocks, the lab's other two-core site: it
starts a one-thread executor of its own, whose worker runs private code
on its half in the caller's context while the calling thread runs the
other half, each with scratch buffers the calling thread allocated. Here
the worker walks the root node's right subtree, and the two halves' row
sums are added as any node's children's are. The call waits for its
worker before it returns or raises, so no thread, lock or executor
outlives it. numpy's ufuncs release the GIL, so the halves overlap. The
split is at the root because that is one hand-off per call: every row
sum is still the same node sums added in the same order, each column of
the sigmoid sums is written by one thread in row order, and memory grows
by one buffer set, not by a row-sum array per tile. Smaller calls stay
on one thread, where the hand-off would cost more than it saves. So no
bit depends on the core count either.

``mw_value`` is ``mw_loss``'s value alone: the same softplus passes
without the sigmoid ones and without the column sums.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import CPUS
from .metrics import ScorePool, strict_aoc
from .prng import Xoshiro256StarStar
from .scoring import ScoreBatch

LOG2 = float(np.log(2.0))
# pairs per mw_loss block: 2^15 float64s, 256 KB per scratch buffer
MW_BLOCK_PAIRS = 1 << 15
# widest column tile of mw_loss's pair pass
MW_TILE_COLS = 4096
# fewest pairs for which one mw_loss call uses a second core. Measured on
# 2 cores: the split costs 2% at 195,584 pairs (B=32, H=5) and saves 6% at
# 261,120, 15-30% from 510,400 on and 24% at 16.8M (B=128, H=7)
MW_SPLIT_PAIRS = 1 << 19


@dataclass
class LossOutput:
    """Loss value, gradient with respect to the raw similarities, and the
    number of pairwise/softmax comparison terms the loss aggregated."""

    value: float
    d_sim: np.ndarray
    term_count: int

    def __post_init__(self):
        _check_value(self.value)
        if not np.isfinite(self.d_sim).all():
            raise ValueError("loss gradient must be finite")


def _check_value(value: float) -> float:
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"loss value must be finite and >= 0, got {value}")
    return value


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
    pos: np.ndarray, neg: np.ndarray, tau: float, sigmoid: bool = True
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Fused pass over x = (s-_k - s+_i)/tau for every (i, k) pair.

    Returns per-row sums of softplus(x), per-row sums of sigmoid(x), and
    per-column sums of sigmoid(x) accumulated row by row in row order.
    Both use e = exp(-|x|): softplus = max(x, 0) + log1p(e), sigmoid =
    (1 if x >= 0 else e) / (1 + e), the stable forms' exact operations.
    With ``sigmoid=False`` only the softplus sums are made; the other two
    are None. A call of at least ``MW_SPLIT_PAIRS`` pairs, with a row
    wider than one tile, walks the root node's right half on a worker
    thread of its own while the calling thread walks the left half.
    """
    n = len(neg)
    width = min(n, max(MW_TILE_COLS, 128))
    size = min(len(pos) * width, max(MW_BLOCK_PAIRS, width))
    buffers = [np.empty(size) for _ in range(4)]
    sigmoid_cols = np.zeros(n) if sigmoid else None
    if len(pos) * n >= MW_SPLIT_PAIRS and n > width and CPUS >= 2:
        mid = _tree_mid(0, n)
        # leaving the block waits for the worker, which writes into
        # sigmoid_cols, also when the left half raises
        with ThreadPoolExecutor(1) as pool:
            # in the caller's context, so its numpy error state holds there too
            right = pool.submit(copy_context().run, _mw_node, pos, neg, tau, mid, n,
                                [np.empty(size) for _ in range(4)], sigmoid_cols)
            left = _mw_node(pos, neg, tau, 0, mid, buffers, sigmoid_cols)
        sums = tuple(a + b for a, b in zip(left, right.result()))
    else:
        sums = _mw_node(pos, neg, tau, 0, n, buffers, sigmoid_cols)
    if not sigmoid:
        return sums[0], None, None
    return (*sums, sigmoid_cols)


def _tree_mid(lo: int, hi: int) -> int:
    """Where numpy's pairwise sum splits the run [lo, hi) of more than 128."""
    m = hi - lo
    return lo + m // 2 - (m // 2) % 8


def _mw_node(pos, neg, tau, lo, hi, buffers, sigmoid_cols):
    """Row sums over columns [lo, hi), a node of numpy's pairwise-sum tree."""
    if hi - lo <= max(MW_TILE_COLS, 128):  # numpy never splits a run of <= 128
        return _mw_tile(pos, neg, tau, lo, hi, buffers, sigmoid_cols)
    mid = _tree_mid(lo, hi)
    left = _mw_node(pos, neg, tau, lo, mid, buffers, sigmoid_cols)
    right = _mw_node(pos, neg, tau, mid, hi, buffers, sigmoid_cols)
    return tuple(a + b for a, b in zip(left, right))


def _mw_tile(pos, neg, tau, lo, hi, buffers, sigmoid_cols):
    """Row sums over tile [lo, hi); adds its sigmoid rows into the columns
    unless ``sigmoid_cols`` is None, when it makes the softplus sums only."""
    b, w = len(pos), hi - lo
    rows = min(b, max(1, MW_BLOCK_PAIRS // w))
    cols = None if sigmoid_cols is None else sigmoid_cols[lo:hi]
    softplus_rows, sigmoid_rows = np.empty(b), np.empty(b)
    for start in range(0, b, rows):
        r = min(rows, b - start)
        xb, eb, tb, ub = (buf[:r * w].reshape(r, w) for buf in buffers)
        np.subtract(neg[None, lo:hi], pos[start:start + r, None], out=xb)
        xb /= tau
        np.abs(xb, out=eb)
        np.negative(eb, out=eb)
        np.exp(eb, out=eb)
        np.log1p(eb, out=tb)
        np.maximum(xb, 0.0, out=ub)
        ub += tb
        softplus_rows[start:start + r] = ub.sum(axis=1)
        if cols is None:
            continue
        np.add(eb, 1.0, out=tb)
        # numerator: 1 where x >= 0, else e; e <= 1, so max(e, [x >= 0])
        np.greater_equal(xb, 0.0, out=ub)
        np.maximum(eb, ub, out=eb)
        eb /= tb
        sigmoid_rows[start:start + r] = eb.sum(axis=1)
        for row in eb:
            cols += row
    return (softplus_rows,) if cols is None else (softplus_rows, sigmoid_rows)


def mw_loss(scores: ScoreBatch) -> LossOutput:
    """Pairwise binary cross-entropy between every positive score and the
    batch's pooled negative multiset.

    value = (1/B) sum_i sum_k softplus(-(s+_i - s-_k)/tau) where k runs
    over all B * (HB + B - 1) negative cells of the matrix. Each pair
    contributes sigmoid(-(s+_i - s-_k)/tau) / (B*tau) of gradient, pushing
    the positive up and the negative down.

    The pairs stream in column tiles (see the module docstring), so memory
    is O(MW_BLOCK_PAIRS + B(HB+B-1)), not O(B^2 (HB+B-1)). From
    ``MW_SPLIT_PAIRS`` pairs on (16.8M at B=128, H=7; not 195,584 at B=32,
    H=5), with two usable CPUs, the calling thread and a worker thread
    started for this call each walk half of numpy's pairwise-sum tree,
    split at its root so that a call hands off once, through their own
    scratch buffers (one more buffer set, still O(MW_BLOCK_PAIRS)). numpy's
    ufuncs release the GIL, so the halves run at once; the worker ends
    before the call returns. ``d_sim`` is bit-identical to the unfused
    formula; ``value`` sums the row sums; neither depends on the
    tiling or the split.
    """
    mask, neg = _pooled_negatives(scores)
    b = scores.sim.shape[0]
    softplus_rows, sigmoid_rows, sigmoid_cols = _mw_pair_sums(
        scores.positives, neg, scores.tau
    )
    value = float(softplus_rows.sum() / b)
    d_sim = np.zeros_like(scores.sim)
    d_sim[np.arange(b), np.arange(b)] = -sigmoid_rows / (b * scores.tau)
    d_sim[mask] += sigmoid_cols / (b * scores.tau)
    # every positive against every pooled negative: b^2 * (m - 1) pairs
    return LossOutput(value=value, d_sim=d_sim, term_count=b * len(neg))


def mw_value(scores: ScoreBatch) -> float:
    """``mw_loss(scores).value``, bit for bit, without the gradient: the
    kernel makes only the softplus sums, skipping the sigmoid passes and
    the column sums, for callers that keep the value alone."""
    _, neg = _pooled_negatives(scores)
    softplus_rows, _, _ = _mw_pair_sums(scores.positives, neg, scores.tau, sigmoid=False)
    return _check_value(float(softplus_rows.sum() / scores.sim.shape[0]))


def _pooled_negatives(scores: ScoreBatch) -> tuple[np.ndarray, np.ndarray]:
    """(off-diagonal mask, the row-major multiset of all negative cells)."""
    if scores.sim.shape[1] < 2:
        raise ValueError("the pooled negative set is empty")
    mask = scores.offdiag_mask()
    return mask, scores.sim[mask]


def check_tau(tau: float) -> None:
    """Raise ValueError unless tau is a usable temperature: positive and finite."""
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")


def _pool_cl_loss(pools: Sequence[ScorePool], tau: float) -> float:
    """Softmax loss over per-query pools: each (query, positive) pair is
    scored against that query's negatives; mean over all such pairs.
    Computed via the difference form log(1 + sum e^((s- - s+)/tau)), which
    is exactly shift-invariant up to input rounding. A loss that overflows
    raises ValueError naming tau; one that underflows is 0.0, its limit."""
    total = 0.0
    count = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite total raises below
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
    if not np.isfinite(total):
        raise ValueError(f"the softmax loss is not finite at tau={tau!r}")
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
    check_tau(tau)
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
    The pairs go through the MW kernel's softplus-only pass, as in
    ``mw_value``, so memory stays O(MW_BLOCK_PAIRS + n_pos + n_neg)
    however large the pool. A pair loss that overflows is inf, its limit.
    """
    check_tau(tau)
    aoc = strict_aoc(pool)
    with np.errstate(over="ignore"):
        softplus_rows, _, _ = _mw_pair_sums(pool.positives, pool.negatives, tau, sigmoid=False)
    mw_population = float(softplus_rows.sum() / (pool.n_pos * pool.n_neg))
    return aoc, mw_population, aoc <= mw_population / LOG2
