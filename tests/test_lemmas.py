"""Property tests for the paper's two lemmas over generated inputs.

Lemma 1: the softmax contrastive loss cannot see a per-query score
offset, because shifting row i moves its positive and its negatives
alike. Lemma 2: the strict area over the ROC curve is at most the mean
pairwise Mann-Whitney loss over log 2, on every pool, ties included.

The examples are derandomized and bounded, so every run tests the same
inputs in well under a second.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mwlab.metrics import ScorePool
from mwlab.objectives import cl_loss, mw_bound_check
from mwlab.scoring import ScoreBatch

from util import OffsetAssignment, apply_offsets, brute_force_strict_aoc

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

cosines = st.floats(-1.0, 1.0)
taus = st.floats(0.01, 1.0)


@st.composite
def batches_with_offsets(draw):
    b = draw(st.integers(2, 8))
    h = draw(st.integers(0, 5))
    sim = draw(hnp.arrays(np.float64, (b, b + h * b), elements=cosines))
    offsets = draw(hnp.arrays(np.float64, b, elements=st.floats(-10.0, 10.0)))
    return ScoreBatch(sim=sim, tau=draw(taus)), OffsetAssignment(offsets)


def pool_sides():
    # a coarse grid forces ties within and across the two sides
    grid = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0])
    return st.lists(st.one_of(cosines, grid), min_size=1, max_size=40)


@PROPERTY
@given(batches_with_offsets())
def test_lemma1_cl_loss_ignores_per_query_offsets(case):
    scores, offsets = case
    before = cl_loss(scores).value
    after = cl_loss(apply_offsets(scores, offsets)).value
    # the shift moves z by up to 10/tau, so compare relative to 1 + loss:
    # a loss near 0 is the difference of two numbers of that size
    assert abs(after - before) <= 1e-9 * (1.0 + abs(before))


@PROPERTY
@given(pool_sides(), pool_sides(), taus)
def test_lemma2_strict_aoc_within_mw_bound(positives, negatives, tau):
    aoc, mw, holds = mw_bound_check(ScorePool(positives, negatives), tau)
    assert holds
    assert aoc == brute_force_strict_aoc(positives, negatives)
