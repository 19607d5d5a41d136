"""Layout arithmetic, the three samplers, and exact enumeration."""

import collections
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import (
    draw_complete,
    enumeration_space_size,
    inverse_permutation,
    slot_blocks,
)
from tightci.design import (
    MAX_N,
    MIN_PI,
    Assignment,
    DesignError,
    EnumerationBudgetError,
    LayoutInfeasibleError,
    compute_layout,
    draw_bernoulli,
    draw_mbcr,
    enumerate_mbcr_distribution,
    grouped_assignment,
    validate_propensity,
)
from tightci.estimator import ObservedData, PotentialTable


# ---------------------------------------------------------------------------
# Layout arithmetic


def test_layout_9_3():
    lay = compute_layout(9, 3)
    assert (lay.group_size, lay.num_full_groups, lay.tail_size, lay.tail_treated) == (
        3, 3, 0, 0,
    )
    assert lay.allocation.tolist() == [1, 0, 0, 1, 0, 0, 1, 0, 0]


def test_layout_9_4():
    lay = compute_layout(9, 4)
    assert (lay.group_size, lay.num_full_groups, lay.tail_size, lay.tail_treated) == (
        3, 2, 3, 2,
    )
    assert lay.allocation.tolist() == [1, 0, 0, 1, 0, 0, 1, 1, 0]


def test_group_size_two_sevenths():
    # propensity 2/7 rounds the reciprocal up to 4
    assert compute_layout(7, 2).group_size == 4


def test_layout_half_propensity():
    lay = compute_layout(10, 5)
    assert (lay.group_size, lay.num_full_groups, lay.tail_size, lay.tail_treated) == (
        2, 5, 0, 0,
    )
    assert lay.allocation.tolist() == [1, 0] * 5


def test_layout_rejects_bad_counts():
    with pytest.raises(DesignError, match="relabel"):
        compute_layout(10, 6)
    with pytest.raises(DesignError):
        compute_layout(10, 0)
    with pytest.raises(DesignError):
        compute_layout(4, 3)


def test_design_params_propensity_is_exact():
    assert compute_layout(9, 3).pi == Fraction(1, 3)
    assert compute_layout(10, 5).pi == Fraction(1, 2)


def test_layout_infeasible_cases():
    # remainder group too small to host two treated units plus a control
    for n, n1 in [(19, 8), (17, 7), (102, 50)]:
        with pytest.raises(LayoutInfeasibleError):
            compute_layout(n, n1)


def _layout_oracle(n: int):
    """Vectorized re-derivation of the three-case arithmetic for one n."""
    n1 = np.arange(1, n // 2 + 1, dtype=np.int64)
    g = -(-n // n1)
    div = (n % n1) == 0
    case2 = ~div & (n - (n1 - 1) * g >= 2)
    case3 = ~div & ~case2
    full = np.where(div, n1, np.where(case2, n1 - 1, n1 - 2))
    tail_treated = np.where(div, 0, np.where(case2, 1, 2))
    tail = n - full * g
    feasible = div | case2 | (case3 & (tail >= 3))
    return n1, g, full, tail, tail_treated, feasible


def test_layout_sweep_exhaustive():
    """Every (n, n1) with n <= 10^4: the bookkeeping identities hold on all
    accepted layouts, and rejection happens exactly when the remainder group
    cannot hold its treated quota plus a control."""
    for n in range(2, 10_001):
        n1, g, full, tail, tail_treated, feasible = _layout_oracle(n)
        assert np.all(full * g + tail == n)
        assert np.all(full + tail_treated == n1)
        assert np.all((tail_treated >= 0) & (tail_treated <= 2))
        has_tail = feasible & (tail_treated >= 1)
        assert np.all(tail[has_tail] >= 2)
        assert np.all(tail[has_tail] > tail_treated[has_tail])
        # closed-form characterization of the rejected region
        r = n1 * g - n
        assert np.array_equal(~feasible, (n % n1 != 0) & (r >= 2 * g - 2))


def test_layout_matches_oracle_small_n():
    for n in range(2, 200):
        n1s, g, full, tail, tail_treated, feasible = _layout_oracle(n)
        for i, n1 in enumerate(n1s):
            if feasible[i]:
                lay = compute_layout(n, int(n1))
                assert lay.group_size == g[i]
                assert lay.num_full_groups == full[i]
                assert lay.tail_size == tail[i]
                assert lay.tail_treated == tail_treated[i]
                a = lay.allocation
                assert int(a.sum()) == n1
            else:
                with pytest.raises(LayoutInfeasibleError):
                    compute_layout(n, int(n1))


@given(st.integers(2, 5000), st.data())
@settings(max_examples=100, deadline=None)
def test_layout_invariants_random(n, data):
    n1 = data.draw(st.integers(1, n // 2))
    try:
        lay = compute_layout(n, n1)
    except LayoutInfeasibleError:
        return
    assert lay.num_full_groups * lay.group_size + lay.tail_size == n
    assert lay.num_full_groups + lay.tail_treated == n1
    assert lay.group_size == math.ceil(n / n1)
    assert lay.pi == Fraction(n1, n) <= Fraction(1, 2)
    if lay.tail_treated:
        assert lay.tail_size > lay.tail_treated >= 1
        # the tail's treated slots are weighed by its size-per-treated ratio
        coef = lay.coef
        tail = lay.tail_size
        assert sorted(set(coef[lay.n - tail:])) == [
            -tail / (tail - lay.tail_treated),
            tail / lay.tail_treated,
        ]


# ---------------------------------------------------------------------------
# Bernoulli draws


def test_bernoulli_rejects_bad_propensity():
    rng = np.random.default_rng(0)
    for pi in (0.0, -0.1, 0.6, 1.0):
        with pytest.raises(DesignError):
            draw_bernoulli(10, pi, rng)


def test_bernoulli_deterministic():
    a = draw_bernoulli(4, 0.5, np.random.default_rng(123)).z
    b = draw_bernoulli(4, 0.5, np.random.default_rng(123)).z
    assert np.array_equal(a, b)


def test_bernoulli_marginal_rate():
    # 10^5 draws of n=100 at pi=0.1; the pooled mean has
    # SE = sqrt(0.1 * 0.9 / 10^7), so 3 SE is about 2.8e-4
    rng = np.random.default_rng(2024)
    total = 0
    reps, n, pi = 10**5, 100, 0.1
    for _ in range(reps):
        total += int(draw_bernoulli(n, pi, rng).z.sum())
    rate = total / (reps * n)
    se = math.sqrt(pi * (1 - pi) / (reps * n))
    assert abs(rate - pi) < 3 * se


# ---------------------------------------------------------------------------
# Complete randomization


def test_complete_fixed_margin():
    rng = np.random.default_rng(5)
    for _ in range(200):
        asg = draw_complete(11, 4, rng)
        assert int(asg.z.sum()) == 4
        assert asg.scheme == "complete"


def test_complete_two_units():
    rng = np.random.default_rng(8)
    counts = {(1, 0): 0, (0, 1): 0}
    reps = 10_000
    for _ in range(reps):
        counts[tuple(draw_complete(2, 1, rng).z.tolist())] += 1
    se = math.sqrt(0.25 / reps)
    assert abs(counts[(1, 0)] / reps - 0.5) < 4 * se


def test_complete_uniform_over_arrangements():
    # n=6, n1=2: each of the 15 arrangements within 4 SE of 1/15 over 10^6 draws
    reps = 10**6
    canonical = np.array([1, 1, 0, 0, 0, 0], dtype=np.int8)
    # one row-wise shuffle takes the stream that one draw_complete per row takes
    z = np.random.default_rng(314159).permuted(np.broadcast_to(canonical, (reps, 6)), axis=1)
    rng = np.random.default_rng(314159)
    assert np.array_equal(z[:1000], [draw_complete(6, 2, rng).z for _ in range(1000)])
    counts = np.bincount(np.packbits(z, axis=1, bitorder="little")[:, 0], minlength=64)
    observed = counts[counts > 0]
    assert observed.size == 15
    p = 1 / 15
    se = math.sqrt(p * (1 - p) / reps)
    assert np.all(np.abs(observed / reps - p) < 4 * se)


# ---------------------------------------------------------------------------
# Grouped draws


@pytest.mark.parametrize("n,n1", [(9, 3), (9, 4), (10, 3), (100, 10)])
def test_mbcr_one_treated_per_group(n, n1, two_stage_mbcr):
    lay = compute_layout(n, n1)
    rng = np.random.default_rng(77)
    for _ in range(50):
        for asg in (draw_mbcr(lay, rng), two_stage_mbcr(lay, rng)):
            assert int(asg.z.sum()) == n1
            inv_eta = inverse_permutation(asg.eta)
            groups = [inv_eta[block] for block in slot_blocks(lay)]
            assert sorted(int(u) for grp in groups for u in grp) == list(range(n))
            for t in range(lay.num_full_groups):
                assert int(asg.z[groups[t]].sum()) == 1
            if lay.tail_size:
                assert int(asg.z[groups[-1]].sum()) == lay.tail_treated


def test_mbcr_deterministic_and_consistent():
    lay = compute_layout(12, 4)
    d1 = draw_mbcr(lay, np.random.default_rng(99))
    d2 = draw_mbcr(lay, np.random.default_rng(99))
    assert np.array_equal(d1.z, d2.z)
    assert np.array_equal(d1.eta, d2.eta)
    # realized vector is the allocation pattern pushed through eta
    a = lay.allocation
    assert np.array_equal(d1.z, a[d1.eta])
    # the unit at each slot receives the pattern's value at that slot
    assert np.array_equal(d1.z[inverse_permutation(d1.eta)], a)


def test_grouped_assignment_reads_beta(two_stage_perms):
    # the two-stage draw is the one permutation beta[eta]
    lay = compute_layout(12, 4)
    beta, eta = two_stage_perms(lay, np.random.default_rng(99))
    a = lay.allocation
    assert not np.array_equal(a[beta], a)
    asg = grouped_assignment(lay, beta[eta])
    assert np.array_equal(asg.z, a[beta][eta])
    assert np.array_equal(asg.z[inverse_permutation(eta)], a[beta])


def _draw_mbcr_loop_reference(layout, rng):
    """The grouped draw written out: one uniform unit-wide permutation
    ``eta``, so unit ``j`` gets the allocation pattern's value at slot
    ``eta[j]``.

    This is the grouped stream: ``draw_mbcr`` must take exactly one
    ``rng.permutation(n)`` from the generator and return these arrays.
    """
    eta = rng.permutation(layout.n)
    z = layout.allocation[eta]
    return z, eta


@pytest.mark.parametrize(
    "n,n1",
    [
        (12, 4),  # tiling, groups of 3
        (10, 3),  # one treated unit spills into a tail of 2
        (9, 4),  # two spill into a tail of 3
        (10, 5),  # groups of 2
        (47, 5),  # groups of 10, two spill into a tail of 7
        (5000, 500),
        (100000, 100),  # the rmse-large-n layout, groups of 1000
    ],
)
@pytest.mark.parametrize("seed", [0, 7, 2026])
def test_mbcr_draw_bit_identical_to_loop_reference(n, n1, seed):
    lay = compute_layout(n, n1)
    asg = draw_mbcr(lay, np.random.default_rng(seed))
    z, eta = _draw_mbcr_loop_reference(lay, np.random.default_rng(seed))
    for got, want in ((asg.z, z), (asg.eta, eta)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _slot_coef_reference(layout, beta):
    """Each slot's coefficient as ``t * w_treat - (1 - t) * w_ctrl``."""
    t = layout.allocation[beta].astype(np.float64)
    g = float(layout.group_size)
    w_treat = np.full(layout.n, g)
    w_ctrl = np.full(layout.n, g / (g - 1.0))
    if layout.tail_size > 0:
        body = layout.num_full_groups * layout.group_size
        w_treat[body:] = layout.tail_size / layout.tail_treated
        w_ctrl[body:] = layout.tail_size / (layout.tail_size - layout.tail_treated)
    return t * w_treat - (1.0 - t) * w_ctrl


@pytest.mark.parametrize(
    "n,n1",
    [
        (12, 4),  # tiling, groups of 3
        (10, 3),  # one treated unit spills into a tail of 2
        (9, 4),  # two spill into a tail of 3
        (10, 5),  # groups of 2
        (47, 5),  # groups of 10, two spill into a tail of 7
        (5000, 500),
    ],
)
@pytest.mark.parametrize("seed", [0, 7, 2026])
def test_slot_coef_bit_identical_to_weighted_expression(n, n1, seed, two_stage_perms):
    # the two-stage design weighs slot s by the layout's coefficient at
    # beta[s]
    lay = compute_layout(n, n1)
    beta, _ = two_stage_perms(lay, np.random.default_rng(seed))
    coef = lay.coef
    expected = _slot_coef_reference(lay, beta)
    # tobytes also compares the sign of every zero
    assert coef[beta].tobytes() == expected.tobytes()
    assert not coef.flags.writeable


@pytest.mark.parametrize("pi", [1 / 2, 1 / 3, 1 / 10, 1 / 100, 1 / 1000])
def test_unit_coef_bit_identical_to_pseudo_outcome_expression(pi):
    # each unit's weight is its term at y = 1, which the product keeps exactly
    asg = draw_bernoulli(20000, pi, np.random.default_rng(5))
    z = asg.z.astype(np.float64)
    assert 0 < z.sum() < z.size
    expected = z / pi - (1.0 - z) / (1.0 - pi)
    coef = ObservedData(y=np.ones(z.size), assignment=asg).terms
    assert coef.tobytes() == expected.tobytes()
    assert not coef.flags.writeable
    complete = draw_complete(300, 100, np.random.default_rng(5))
    z = complete.z.astype(np.float64)
    expected = z / complete.pi - (1.0 - z) / (1.0 - complete.pi)
    coef = ObservedData(y=np.ones(z.size), assignment=complete).terms
    assert coef.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 7, 20000, 100000])
@pytest.mark.parametrize("pi", [1 / 2, 1 / 3, 1 / 1000, Fraction(1, 10)])
def test_bernoulli_z_is_the_int8_comparison(n, pi):
    # z reads the comparison's booleans as int8: the dtype and the bytes of
    # (u < pi).astype(np.int8), from the same uniforms
    for seed in (0, 9):
        asg = draw_bernoulli(n, pi, np.random.default_rng(seed))
        want = (np.random.default_rng(seed).random(n) < pi).astype(np.int8)
        assert asg.z.dtype == want.dtype == np.int8
        assert asg.z.tobytes() == want.tobytes()


def test_propensity_floor_keeps_one_over_pi_finite():
    # The floor's derivation: MAX_N squared deviations of terms at most
    # 1/MIN_PI + 1 in size still sum to a finite float.
    assert MIN_PI == 2.0**-300 and MAX_N == 2**53
    assert math.isfinite(MAX_N * (2.0 / MIN_PI + 2.0) ** 2)
    # a Fraction meets both bounds exactly
    for pi in (MIN_PI, Fraction(MIN_PI), Fraction(1, 2**300), 0.5, Fraction(1, 2)):
        validate_propensity(pi)
    draw_bernoulli(40, MIN_PI, np.random.default_rng(0))
    floor = f"below the floor {MIN_PI!r}"
    for pi in (math.nextafter(MIN_PI, 0.0), 1e-160, 5e-324, Fraction(1, 2**300 + 1)):
        with pytest.raises(DesignError, match=floor):
            validate_propensity(pi)
    for pi in (0, -0.1, 0.6, Fraction(1, 2) + Fraction(1, 10**30), math.nan):
        with pytest.raises(DesignError, match="outside"):
            validate_propensity(pi)


def test_refused_fraction_is_shown_in_time_linear_in_its_digits():
    import time

    # a million-digit denominator is refused by its six leading digits
    pi = Fraction(1, 10**10**6)
    start = time.perf_counter()
    with pytest.raises(DesignError, match="below the floor") as info:
        validate_propensity(pi)
    assert time.perf_counter() - start < 2.0
    assert "propensity 1e-1000000 below" in str(info.value)
    cases = [
        (Fraction(1, 10**308), "propensity 1e-308 below"),
        (Fraction(1, 10**400), "propensity 1e-400 below"),
        (Fraction(3, 4), "propensity 0.75 outside"),
    ]
    for pi, shown in cases:
        with pytest.raises(DesignError) as info:
            validate_propensity(pi)
        assert shown in str(info.value)


def test_unit_coef_refuses_propensity_outside_unit_interval():
    # refused when the assignment is built, before any term is weighed
    with pytest.raises(DesignError, match="outside"):
        Assignment(z=np.array([0, 1], dtype=np.int8), scheme="bernoulli", pi=1.0)


@pytest.mark.parametrize("scheme", ["bernoulli", "complete"])
def test_assignment_takes_propensities_in_min_pi_to_half(scheme):
    z = np.array([0, 1], dtype=np.int8)
    for pi, refusal in [
        (0.7, "outside"),
        (MIN_PI / 2, "below the floor"),
        (1e-320, "below the floor"),
    ]:
        with pytest.raises(DesignError, match=refusal):
            Assignment(z, scheme, pi)
    for pi in (MIN_PI, 0.5):
        assert Assignment(z, scheme, pi).pi == pi


def test_assignment_refuses_a_z_other_than_zeros_and_ones():
    # a 2 is no treated unit under z == 1, yet a count of z's nonzeros takes
    # it for one: clt_ci counted ten treated units in this draw and returned a
    # zero-width interval at -2/3 over an empty treated arm
    from tightci.intervals import clt_ci

    for value in (2, -1):
        z = np.array([value] * 10 + [0] * 30, dtype=np.int8)
        asg = Assignment(z=z, scheme="bernoulli", pi=0.25)
        with pytest.raises(DesignError, match="z must hold only 0s and 1s"):
            asg.treated
        table = PotentialTable(np.full(40, 0.5), np.full(40, 0.75))
        with pytest.raises(DesignError, match="z must hold only 0s and 1s"):
            ObservedData.realize(table, asg)
        data = ObservedData(y=np.full(40, 0.5), assignment=asg)
        with pytest.raises(DesignError, match="z must hold only 0s and 1s"):
            clt_ci(data, 0.05)
    z = np.array([1] * 10 + [0] * 30, dtype=np.int8)
    treated = Assignment(z=z, scheme="bernoulli", pi=0.25).treated
    assert treated.tolist() == [True] * 10 + [False] * 30


def test_design_refusals_name_the_input():
    with pytest.raises(DesignError, match="n and n1 must be integers"):
        compute_layout(10.0, 2)
    with pytest.raises(DesignError) as info:
        validate_propensity(Fraction(50))
    assert "propensity 50 outside (0, 1/2]" in str(info.value)
    for n in (0, -3):
        with pytest.raises(DesignError, match=f"need n >= 1, got {n}"):
            draw_bernoulli(n, 0.1, np.random.default_rng(0))


def test_layout_constants_read_only_and_built_once():
    from dataclasses import FrozenInstanceError

    lay = compute_layout(10, 3)
    y0 = np.linspace(0.0, 0.5, lay.n)
    table = PotentialTable(y0, y0 + 0.25)
    seen = []
    for seed in range(5):
        ObservedData.realize(table, draw_mbcr(lay, np.random.default_rng(seed))).terms
        seen.append((lay.allocation, lay.coef))
    # built on the first draw, then the same objects for every later one
    alloc, coef = seen[0]
    assert all(a is alloc and c is coef for a, c in seen)
    for arr in (alloc, coef):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(FrozenInstanceError):
        lay.allocation = alloc.copy()
    with pytest.raises(FrozenInstanceError):
        del lay.coef
    assert alloc.tolist() == [1, 0, 0, 0, 1, 0, 0, 0, 1, 0]
    full_block = [4.0] + [-4.0 / 3.0] * 3
    assert coef.tolist() == full_block * 2 + [2.0, -2.0]


def _unit_block_law(layout, betas):
    """Exact law of ``(z, each unit's block)`` over every unit-wide ``eta``
    and every ``beta`` in ``betas``: integer counts as ``Fraction``s.

    Unit ``j`` sits at slot ``eta[j]``, gets the allocation pattern's value at
    ``beta[eta[j]]`` and, as ``beta`` keeps every slot in its block, lies in
    the block of slot ``eta[j]``.
    """
    n, blocks = layout.n, slot_blocks(layout)
    block_of = np.empty(n, dtype=np.int64)
    for b, slots in enumerate(blocks):
        block_of[slots] = b
    a = layout.allocation.astype(np.int64)
    eta_mat = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    # key = (z as n bits) * len(blocks)**n + (unit blocks in base len(blocks))
    block_code = block_of[eta_mat] @ (len(blocks) ** np.arange(n))
    z_weights = (1 << np.arange(n)) * len(blocks) ** n
    tally = collections.Counter()
    for beta in betas:
        keys, counts = np.unique(
            a[beta][eta_mat] @ z_weights + block_code, return_counts=True
        )
        tally.update(dict(zip(keys.tolist(), counts.tolist())))
    total = sum(tally.values())
    assert total == len(betas) * math.factorial(n)
    return {key: Fraction(count, total) for key, count in tally.items()}


@pytest.mark.parametrize(
    "n,n1",
    [
        (5, 2),  # one treated unit spills into a tail of 2
        (6, 2),  # tiling, groups of 3
        (6, 3),  # tiling, groups of 2
        (7, 3),  # two spill into a tail of 4
    ],
)
def test_identity_beta_keeps_the_law_of_z_and_blocks(n, n1):
    # draw_mbcr draws eta alone; the two-stage design also shuffles every
    # block.  Both give z and each unit's block the same exact law.
    lay = compute_layout(n, n1)
    every_beta = [
        np.concatenate(combo)
        for combo in itertools.product(
            *(itertools.permutations(block) for block in slot_blocks(lay))
        )
    ]
    assert len(every_beta) == enumeration_space_size(lay) // math.factorial(n)
    identity = [np.arange(lay.n)]
    assert _unit_block_law(lay, identity) == _unit_block_law(lay, every_beta)


def test_mbcr_beta_preserves_blocks(two_stage_perms):
    lay = compute_layout(10, 3)
    beta, eta = two_stage_perms(lay, np.random.default_rng(3))
    assert not np.array_equal(beta, np.arange(lay.n))
    block_of = np.empty(lay.n, dtype=np.int64)
    for b, block in enumerate(slot_blocks(lay)):
        assert np.array_equal(np.sort(beta[block]), block)
        block_of[block] = b
    # so the composed beta[eta] seats every unit in the block eta gives it
    assert np.array_equal(block_of[beta[eta]], block_of[eta])


# ---------------------------------------------------------------------------
# Exact enumeration


def test_enumerate_2_1():
    dist = enumerate_mbcr_distribution(compute_layout(2, 1))
    assert dist.total == 4  # 2 within-block shuffles x 2 unit shuffles
    assert dist.probability((1, 0)) == Fraction(1, 2)
    assert dist.probability((0, 1)) == Fraction(1, 2)


def test_enumerate_4_2():
    dist = enumerate_mbcr_distribution(compute_layout(4, 2))
    assert len(dist.counts) == 6
    for z in dist.counts:
        assert dist.probability(z) == Fraction(1, 6)
    assert dist.is_uniform()


def test_enumerate_6_2_exact_counts():
    dist = enumerate_mbcr_distribution(compute_layout(6, 2))
    assert dist.total == 25_920
    assert len(dist.counts) == 15
    assert all(c == 1_728 for c in dist.counts.values())
    assert dist.is_uniform()


def test_enumerate_with_tail_group():
    # n=5, n1=2 has a remainder group of two with one treated
    lay = compute_layout(5, 2)
    assert lay.tail_size == 2 and lay.tail_treated == 1
    dist = enumerate_mbcr_distribution(lay)
    assert dist.total == math.factorial(3) * math.factorial(2) * math.factorial(5)
    assert len(dist.counts) == math.comb(5, 2)
    assert dist.is_uniform()


def test_enumerate_6_3():
    dist = enumerate_mbcr_distribution(compute_layout(6, 3))
    assert dist.is_uniform()
    assert len(dist.counts) == 20


def test_enumeration_budget_refused():
    lay = compute_layout(10, 5)
    assert enumeration_space_size(lay) > 10**8
    with pytest.raises(EnumerationBudgetError, match="budget"):
        enumerate_mbcr_distribution(lay)
    # a tighter explicit budget also refuses
    with pytest.raises(EnumerationBudgetError):
        enumerate_mbcr_distribution(compute_layout(6, 2), budget=100)


def test_assignment_carries_layout_and_eta_only_when_grouped():
    lay = compute_layout(10, 3)
    eta = np.random.default_rng(2).permutation(10)
    grouped = grouped_assignment(lay, eta)
    assert grouped.layout is lay and grouped.eta is eta
    drawn = draw_mbcr(lay, np.random.default_rng(2))
    assert drawn.layout is lay and np.array_equal(drawn.eta, eta)
    z, pi = grouped.z, grouped.pi
    for detail in ({}, {"layout": lay}, {"eta": eta}):
        with pytest.raises(DesignError, match="^a mbcr assignment needs its layout"):
            Assignment(z, "mbcr", pi, **detail)
    for scheme in ("bernoulli", "complete"):
        Assignment(z, scheme, pi)
        for detail in ({"layout": lay}, {"eta": eta}, {"layout": lay, "eta": eta}):
            with pytest.raises(DesignError, match=f"^a {scheme} assignment takes no"):
                Assignment(z, scheme, pi, **detail)


def test_assignment_shape():
    asg = draw_bernoulli(7, 0.3, np.random.default_rng(1))
    assert isinstance(asg, Assignment)
    assert asg.n == 7
    assert asg.layout is None and asg.eta is None
    # the cached treated mask is shared by the replication's readers, so it
    # is read-only under both designs
    grouped = draw_mbcr(compute_layout(10, 3), np.random.default_rng(1))
    for a in (asg, grouped):
        assert a.treated.tobytes() == (a.z == 1).tobytes()
        assert a.treated is a.treated
        assert not a.treated.flags.writeable
        with pytest.raises(ValueError):
            a.treated[0] = True
