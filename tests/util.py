"""Shared helpers for the test suite: oracles and random fixtures.

The oracles here are intentionally naive (brute-force pair loops, direct
formula evaluation, central finite differences) and independent of the
library's fast paths.
"""

from __future__ import annotations

import numpy as np

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


def naive_mann_whitney_u(pool) -> float:
    """U from midranks assigned by a Python walk over the sorted scores,
    one tie group at a time."""
    scores = np.concatenate([pool.positives, pool.negatives])
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(len(scores), dtype=np.float64)
    i = 0
    n = len(scores)
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos = pool.n_pos
    return float(ranks[:n_pos].sum()) - n_pos * (n_pos + 1) / 2.0


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


def softplus(x) -> np.ndarray:
    """log(1 + e^x) without overflow: max(x, 0) + log1p(e^-|x|)."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


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


def naive_adam_step(params, grads, state, lr) -> None:
    """Bias-corrected dense Adam written as the formula, one temporary
    per operation; updates params and state in place."""
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    for m, v, g, p in (
        (state.m.embedding, state.v.embedding, grads.embedding, params.embedding),
        (state.m.projection, state.v.projection, grads.projection, params.projection),
    ):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def naive_top_k(row, ids, k, exclude=()) -> list[int]:
    """Columns of the k best entries of a score row, by a full Python
    sort on (descending score, ascending id), skipping ``exclude``."""
    skip = set(exclude)
    order = sorted(range(len(row)), key=lambda j: (-row[j], ids[j]))
    return [j for j in order if j not in skip][:k]
