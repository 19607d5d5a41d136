"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from reference import slot_blocks
from tightci.design import grouped_assignment


def _two_stage_perms(layout, rng):
    """The paper's two permutations of a grouped draw: ``beta`` shuffles
    every block (redrawn while it is the identity), then ``eta`` is a uniform
    unit-wide permutation; unit ``j`` gets the allocation pattern at
    ``beta[eta[j]]``."""
    slots = np.arange(layout.n)
    beta = slots
    while np.array_equal(beta, slots):
        beta = np.concatenate([rng.permutation(block) for block in slot_blocks(layout)])
    return beta, rng.permutation(layout.n)


def _two_stage_mbcr(layout, rng):
    """The grouped assignment of :func:`_two_stage_perms`, built from the
    one permutation ``beta[eta]`` that composes them.

    ``draw_mbcr`` seats units by ``rng.permutation(n)`` alone; the grouped
    bookkeeping is tested on these draws as well.
    """
    beta, eta = _two_stage_perms(layout, rng)
    return grouped_assignment(layout, beta[eta])


@pytest.fixture
def two_stage_perms():
    """``(layout, rng) -> (beta, eta)`` with a block-preserving ``beta``
    other than the identity."""
    return _two_stage_perms


@pytest.fixture
def two_stage_mbcr():
    """``(layout, rng) -> Assignment`` drawn as ``beta[eta]`` from
    :func:`two_stage_perms`."""
    return _two_stage_mbcr
