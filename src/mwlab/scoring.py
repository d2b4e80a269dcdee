"""Batch similarity matrices and their positive/negative partition.

For a batch of B queries scored against M = B + H*B passages (the B
positives first, then all hard negatives query-major), the positive score
of query i is the diagonal entry sim[i, i]; every other entry of row i is
a negative score for query i, giving HB + (B-1) negatives per query. The
softmax contrastive loss consumes each row's negatives separately; the
pairwise rank loss consumes the union of all rows' negatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIT_NORM_TOL = 1e-4


@dataclass
class ScoreBatch:
    """Raw similarity matrix for one batch plus the loss temperature.

    ``sim`` holds raw cosine similarities; losses divide by ``tau``
    themselves so one matrix serves both objectives.
    """

    sim: np.ndarray  # B x M
    tau: float

    def __post_init__(self):
        if not 0 < self.tau < np.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.tau}")
        b, m = self.sim.shape
        if b == 0:
            raise ValueError(f"sim of shape {self.sim.shape} has no rows: a batch needs B >= 1")
        if m < b:
            raise ValueError(f"sim needs at least B={b} columns, got {m}")
        if (m - b) % b != 0:
            raise ValueError(
                f"column count {m} is not B + H*B for B={b} and integer H"
            )
        if m < 2:
            raise ValueError("a batch needs at least one negative cell")

    @property
    def B(self) -> int:
        return self.sim.shape[0]

    @property
    def M(self) -> int:
        return self.sim.shape[1]

    @property
    def H(self) -> int:
        return (self.M - self.B) // self.B

    @property
    def positives(self) -> np.ndarray:
        """s+_i = sim[i, i]."""
        return np.diagonal(self.sim)[: self.B].copy()

    def offdiag_mask(self) -> np.ndarray:
        """Boolean B x M mask of all negative cells."""
        mask = np.ones_like(self.sim, dtype=bool)
        mask[np.arange(self.B), np.arange(self.B)] = False
        return mask


def score_batch(q_emb: np.ndarray, p_emb: np.ndarray, tau: float) -> ScoreBatch:
    """Dot-product similarities of unit-norm query and passage embeddings.

    Rows whose norm strays from 1 by more than ``UNIT_NORM_TOL`` are
    rejected: with unit rows the dot product is the cosine and raw scores
    are bounded by 1 in magnitude.
    """
    q_emb = np.asarray(q_emb, dtype=np.float64)
    p_emb = np.asarray(p_emb, dtype=np.float64)
    if q_emb.ndim != 2 or p_emb.ndim != 2 or q_emb.shape[1] != p_emb.shape[1]:
        raise ValueError(
            f"embedding shapes {q_emb.shape} and {p_emb.shape} are incompatible"
        )
    for name, emb in (("query", q_emb), ("passage", p_emb)):
        norms = np.linalg.norm(emb, axis=1)
        worst = np.abs(norms - 1.0).max() if len(norms) else 0.0
        if worst > UNIT_NORM_TOL:
            raise ValueError(
                f"{name} embeddings must be unit-norm (max deviation {worst:.2e})"
            )
    return ScoreBatch(sim=q_emb @ p_emb.T, tau=tau)


def comparison_counts(B: int, H: int) -> tuple[int, int]:
    """Number of score comparisons each loss performs on a (B, H) batch.

    The softmax loss compares each positive with its own row's
    HB + (B-1) negatives; the pairwise loss compares each of the B
    positives with the whole pooled negative multiset of size
    B * (HB + B - 1). With H = 0 these reduce to B(B-1) and B^2(B-1).
    Embedding and similarity costs are identical for both.
    """
    if B < 2:
        raise ValueError(f"B must be >= 2, got {B}")
    if H < 0:
        raise ValueError(f"H must be >= 0, got {H}")
    negatives_per_query = H * B + B - 1
    cl_terms = B * negatives_per_query
    mw_terms = B * B * negatives_per_query
    return cl_terms, mw_terms


def backprop_scores(
    d_sim: np.ndarray, q_emb: np.ndarray, p_emb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Chain rule through sim = q_emb @ p_emb.T."""
    d_sim = np.asarray(d_sim, dtype=np.float64)
    if d_sim.shape != (q_emb.shape[0], p_emb.shape[0]):
        raise ValueError(
            f"d_sim shape {d_sim.shape} != ({q_emb.shape[0]}, {p_emb.shape[0]})"
        )
    return d_sim @ p_emb, d_sim.T @ q_emb
