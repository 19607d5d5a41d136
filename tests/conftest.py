"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from tightci.design import grouped_assignment


def _two_stage_mbcr(layout, rng):
    """A grouped assignment drawn in two stages: ``beta`` shuffles every
    block (redrawn while it is the identity), then ``eta`` is a uniform
    unit-wide permutation.

    ``draw_mbcr`` always uses the identity ``beta``, under which
    ``coef[beta]`` and ``allocation[beta]`` read like their un-permuted
    forms; the grouped bookkeeping is tested on these draws as well.
    """
    blocks = layout.slot_blocks()
    slots = np.arange(layout.n)
    beta = slots
    while np.array_equal(beta, slots):
        beta = np.concatenate([rng.permutation(block) for block in blocks])
    return grouped_assignment(layout, beta, rng.permutation(layout.n))


@pytest.fixture
def two_stage_mbcr():
    """``(layout, rng) -> Assignment`` with a block-preserving ``beta`` other
    than the identity."""
    return _two_stage_mbcr
