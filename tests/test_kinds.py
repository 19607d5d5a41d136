"""The grouped layout's block kinds against its full blocks plus a tail.

A layout is ``n`` and ``MbcrLayout.kinds``, and every grouped formula loops
over the kinds; the kinds must be the three-way split's blocks, and each
formula must give the bytes of the same formula written with the tail beside
the full blocks (``tests/reference.py``), on every feasible layout of a wide
sweep.
"""

import dataclasses
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
    shape,
    three_way_split,
)
from tightci.design import (
    LayoutInfeasibleError,
    MbcrLayout,
    _space_factors,
    compute_layout,
)
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
    """``{(n, n1): compute_layout(n, n1)}`` over the feasible counts."""
    layouts = {}
    for n in ns:
        for n1 in _treated_counts(n):
            if n1 < 1 or 2 * n1 > n:
                continue
            try:
                layouts[n, n1] = compute_layout(n, n1)
            except LayoutInfeasibleError:
                pass
    return layouts


SMALL = _layouts(range(4, 200))
LARGE = _layouts(LARGE_NS)
SWEEP = SMALL | LARGE
LAYOUTS = list(SWEEP.values())


def test_layout_is_n_and_its_kinds():
    assert [f.name for f in dataclasses.fields(MbcrLayout)] == ["n", "kinds"]


def test_sweep_covers_every_kind_of_tail():
    tails = {three_way_split(n, n1)[3] for n, n1 in SWEEP}
    assert tails == {0, 1, 2}
    assert {sum(k for _, k, _ in lay.kinds[1:]) for lay in LAYOUTS} == tails
    assert len(LAYOUTS) == 1_044
    assert {n for n, _ in LARGE} == set(LARGE_NS)


def test_kinds_describe_the_layout():
    for (n, n1), lay in SWEEP.items():
        g, t, s, k = three_way_split(n, n1)
        assert (lay.n, lay.n1) == (n, n1)
        kinds = lay.kinds
        assert kinds is lay.kinds  # held, not rebuilt per read
        assert kinds[0] == (g, 1, t)
        tail = [(s, k, 1)] if s else []
        assert list(kinds[1:]) == tail
        # plain ints, as the tuning record and its JSON need
        assert all(type(v) is int for kind in kinds for v in kind)
        assert sum(size * count for size, _, count in kinds) == lay.n
        assert sum(treated * count for _, treated, count in kinds) == lay.n1
        assert sum(count for _, _, count in kinds) == lay.num_groups
        assert lay.num_groups == t + (s > 0)
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
        g, t, s, _ = shape(lay)
        record = _grouped_shape(lay)
        keys = ["n", "num_full_groups", "group_size", "tail_size"]
        assert list(record.items()) == list(zip(keys, (lay.n, t, g, s)))
        assert _hoeff_mbcr_constant(record) == hoeff_mbcr_constant_reference(record)
        assert _grouped_scale(lay) == float(max(g, s))
        for alpha in ALPHAS:
            t = _sb_mbcr_tuning(lay, None, None, alpha)
            assert t == sb_mbcr_tuning_reference(lay, alpha)
            assert _sb_mbcr_half(alpha, t) == sb_mbcr_half_reference(alpha, t)


def test_space_factors_multiply_to_the_tuple_count():
    for lay in SMALL.values():
        assert math.prod(_space_factors(lay)) == enumeration_space_size(lay)
