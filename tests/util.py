"""Shared helpers for the test suite: oracles and random fixtures.

The oracles here are intentionally naive (brute-force pair loops, direct
formula evaluation, central finite differences) and independent of the
library's fast paths.
"""

from __future__ import annotations

import numpy as np

from mwlab.objectives import softplus
from mwlab.scoring import ScoreBatch


def brute_force_u(positives, negatives) -> float:
    """O(n_pos * n_neg) pair count with half-weight ties."""
    u = 0.0
    for p in positives:
        for n in negatives:
            if p > n:
                u += 1.0
            elif p == n:
                u += 0.5
    return u


def brute_force_strict_aoc(positives, negatives) -> float:
    """O(n_pos * n_neg) strictly-misordered fraction."""
    bad = sum(1 for p in positives for n in negatives if p < n)
    return bad / (len(positives) * len(negatives))


def random_unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Rows uniform on the unit sphere."""
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def random_score_batch(
    rng: np.random.Generator, b: int, h: int, tau: float, d: int = 16
) -> ScoreBatch:
    """A ScoreBatch from random unit embeddings."""
    q = random_unit_rows(rng, b, d)
    p = random_unit_rows(rng, b + h * b, d)
    return ScoreBatch(sim=q @ p.T, tau=tau)


def central_difference(f, x: float, h: float) -> float:
    """(f(x + h) - f(x - h)) / 2h."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def relative_error(a: float, b: float, floor: float = 1e-12) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def sigmoid(x) -> np.ndarray:
    """Logistic function, branch-stable at both extremes."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def naive_mw_loss(scores: ScoreBatch) -> tuple[float, np.ndarray]:
    """Unfused Mann-Whitney loss over the full B x |S^-| pair matrix:
    (value, d_sim), with the gradient from sigmoid row and column sums."""
    b = scores.B
    mask = scores.offdiag_mask()
    neg = scores.sim[mask]
    diff = (scores.positives[:, None] - neg[None, :]) / scores.tau
    value = float(softplus(-diff).sum() / b)
    sig = sigmoid(-diff)
    d_sim = np.zeros_like(scores.sim)
    d_sim[np.arange(b), np.arange(b)] = -sig.sum(axis=1) / (b * scores.tau)
    d_sim[mask] += sig.sum(axis=0) / (b * scores.tau)
    return value, d_sim
