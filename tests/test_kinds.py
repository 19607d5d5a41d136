"""The grouped layout's block kinds against its full blocks plus a tail.

Every grouped formula loops over ``MbcrLayout.kinds``; each must give the
bytes of the same formula written with the tail beside the full blocks
(``tests/reference.py``), on every feasible layout of a wide sweep.
"""

import math

import numpy as np

from reference import (
    allocation_reference,
    block_sums_reference,
    coef_reference,
    enumeration_space_size,
    hoeff_mbcr_constant_reference,
    sb_mbcr_half_reference,
    sb_mbcr_tuning_reference,
)
from tightci.design import LayoutInfeasibleError, _space_factors, compute_layout
from tightci.estimator import block_sums
from tightci.intervals import (
    _grouped_scale,
    _grouped_shape,
    _hoeff_mbcr_constant,
    _sb_mbcr_half,
    _sb_mbcr_tuning,
)

ALPHAS = (0.05, 0.025, 1e-9, 0.5)
LARGE_NS = (1_000, 5_000, 5_001, 100_000, 100_003, 1_000_007)


def _treated_counts(n):
    return sorted({1, 2, 3, n // 10, n // 7, n // 3, n // 2})


def _layouts(ns):
    layouts = []
    for n in ns:
        for n1 in _treated_counts(n):
            if n1 < 1 or 2 * n1 > n:
                continue
            try:
                layouts.append(compute_layout(n, n1))
            except LayoutInfeasibleError:
                pass
    return layouts


SMALL = _layouts(range(4, 200))
LARGE = _layouts(LARGE_NS)
LAYOUTS = SMALL + LARGE


def test_sweep_covers_every_kind_of_tail():
    tails = {lay.tail_treated for lay in LAYOUTS}
    assert tails == {0, 1, 2}
    assert len(LAYOUTS) > 1_000
    assert {lay.n for lay in LARGE} == set(LARGE_NS)


def test_kinds_describe_the_layout():
    for lay in LAYOUTS:
        kinds = lay.kinds
        assert kinds is lay.kinds  # built once
        assert kinds[0] == (lay.group_size, 1, lay.num_full_groups)
        tail = [(lay.tail_size, lay.tail_treated, 1)] if lay.tail_size else []
        assert list(kinds[1:]) == tail
        assert sum(size * count for size, _, count in kinds) == lay.n
        assert sum(treated * count for _, treated, count in kinds) == lay.n1
        assert sum(count for _, _, count in kinds) == lay.num_groups
        assert lay.num_groups == lay.num_full_groups + (lay.tail_size > 0)
        # every block has a treated and a control slot
        assert all(0 < treated < size for size, treated, _ in kinds)


def test_slot_pattern_and_coefficients_keep_their_bytes():
    for lay in LAYOUTS:
        assert lay.allocation.dtype == np.int8
        assert lay.allocation.tobytes() == allocation_reference(lay).tobytes()
        assert lay.coef.dtype == np.float64
        assert lay.coef.tobytes() == coef_reference(lay).tobytes()


def test_group_sums_keep_their_bytes():
    rng = np.random.default_rng(36)
    for lay in LAYOUTS:
        terms = rng.random(lay.n) * lay.coef
        out = block_sums(terms, lay, np.empty(lay.num_groups))
        assert out.tobytes() == block_sums_reference(terms, lay).tobytes()


def test_closed_form_constants_keep_their_bytes():
    for lay in LAYOUTS:
        shape = _grouped_shape(lay)
        assert _hoeff_mbcr_constant(shape) == hoeff_mbcr_constant_reference(shape)
        assert _grouped_scale(lay) == float(max(lay.group_size, lay.tail_size))
        for alpha in ALPHAS:
            t = _sb_mbcr_tuning(lay, None, None, alpha)
            assert t == sb_mbcr_tuning_reference(lay, alpha)
            assert _sb_mbcr_half(alpha, t) == sb_mbcr_half_reference(alpha, t)


def test_space_factors_multiply_to_the_tuple_count():
    for lay in SMALL:
        assert math.prod(_space_factors(lay)) == enumeration_space_size(lay)
