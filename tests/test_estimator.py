"""Pseudo-outcomes, the grouped estimator's index bookkeeping, and the
exact conditional-expectation oracle."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import (
    conditional_mean_given_eta,
    draw_complete,
    inverse_permutation,
    pseudo_outcome,
    slot_blocks,
    write_table_csv,
)
from tightci.design import (
    Assignment,
    DesignError,
    LayoutInfeasibleError,
    compute_layout,
    draw_bernoulli,
    draw_mbcr,
)
from tightci.estimator import (
    EstimatorError,
    ObservedData,
    PotentialTable,
    _weigh_units,
    block_sums,
    groupwise_sums,
    ht_estimate,
)


def _random_table(n, rng, low=0.0, high=1.0):
    return PotentialTable(rng.uniform(low, high, n), rng.uniform(low, high, n))


# ---------------------------------------------------------------------------
# Pseudo-outcomes


def test_pseudo_outcome_values():
    assert pseudo_outcome(1.0, 1, 0.1) == pytest.approx(10.0)
    assert pseudo_outcome(1.0, 1, 0.1, "mirrored") == 0.0
    assert pseudo_outcome(0.5, 0, 0.2) == pytest.approx(-0.625)


def test_pseudo_outcome_rejects_bad_propensity():
    for prop in (0.0, 1.0, -0.5):
        with pytest.raises(EstimatorError):
            pseudo_outcome(0.5, 1, prop)


@given(
    st.floats(0.0, 1.0),
    st.integers(0, 1),
    st.floats(0.01, 0.99),
)
@settings(max_examples=200)
def test_pseudo_outcome_ranges(y, z, prop):
    standard = pseudo_outcome(y, z, prop)
    mirrored = pseudo_outcome(y, z, prop, "mirrored")
    eps = 1e-9
    assert -1.0 / (1.0 - prop) - eps <= standard <= 1.0 / prop + eps
    assert -1.0 / prop - eps <= mirrored <= 1.0 / (1.0 - prop) + eps


# ---------------------------------------------------------------------------
# Potential tables and observed data


def test_table_validation():
    with pytest.raises(EstimatorError):
        PotentialTable(np.array([0.5, 1.2]), np.array([0.1, 0.2]))
    with pytest.raises(EstimatorError):
        PotentialTable(np.array([0.5]), np.array([0.1, 0.2]))
    with pytest.raises(EstimatorError):
        PotentialTable(np.array([np.nan]), np.array([0.2]))
    for bad in (np.inf, -np.inf):
        with pytest.raises(EstimatorError, match="outside"):
            PotentialTable(np.array([0.5, bad]), np.array([0.1, 0.2]))
        with pytest.raises(EstimatorError, match="outside"):
            PotentialTable(np.array([0.5, 0.1]), np.array([bad, 0.2]))
    # a null table's one shared array is checked as strictly
    for bad in (np.nan, np.inf, -0.5, 1.5):
        shared = np.array([0.5, bad])
        with pytest.raises(EstimatorError, match="^y0 .*outside"):
            PotentialTable(shared, shared)


def test_table_csv_roundtrip(tmp_path):
    table = PotentialTable(np.array([0.25, 0.0, 1.0]), np.array([0.5, 0.125, 0.75]))
    path = tmp_path / "table.csv"
    write_table_csv(path, table)
    loaded = PotentialTable.from_csv(path)
    assert np.array_equal(loaded.y0, table.y0)
    assert np.array_equal(loaded.y1, table.y1)


def test_table_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0.1,0.2\n")
    with pytest.raises(EstimatorError, match="header"):
        PotentialTable.from_csv(path)


def test_table_csv_spaced_header(tmp_path):
    path = tmp_path / "spaced.csv"
    path.write_text("y0, y1\n0.25, 0.5\n0.0,1.0\n")
    loaded = PotentialTable.from_csv(path)
    assert loaded.y0.tolist() == [0.25, 0.0]
    assert loaded.y1.tolist() == [0.5, 1.0]


@pytest.mark.parametrize(
    "rows, where",
    [("0.1,0.2\n0.1,0.2,0.9\n", "row 3"), ("0.1,0.2\n\n0.1\n", "row 4")],
    ids=["extra-field", "short-row"],
)
def test_table_csv_row_width_checked(tmp_path, rows, where):
    path = tmp_path / "table.csv"
    path.write_text("y0,y1\n" + rows)
    with pytest.raises(EstimatorError, match=where):
        PotentialTable.from_csv(path)


def test_table_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("y0,y1\n0.25,0.5\n\n0.0,1.0\n\n")
    loaded = PotentialTable.from_csv(path)
    assert loaded.y0.tolist() == [0.25, 0.0]
    assert loaded.y1.tolist() == [0.5, 1.0]


def test_table_csv_out_of_range(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y0,y1\n0.1,1.5\n")
    with pytest.raises(EstimatorError, match="outside"):
        PotentialTable.from_csv(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("y0,y1\n0.1,0.2\n0.1,abc\n", "row 3: bad value 'abc' in 'y1'"),
        ("y0,y1\n", "no data rows"),
        ("y0,y1\n\n\n", "no data rows"),
    ],
    ids=["non-numeric", "header-only", "blank-rows"],
)
def test_table_csv_refuses_a_bad_field_or_no_rows(tmp_path, text, message):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(EstimatorError) as info:
        PotentialTable.from_csv(path)
    assert message in str(info.value)


def test_data_refuses_sizes_that_differ():
    asg = draw_complete(4, 2, np.random.default_rng(0))
    with pytest.raises(EstimatorError, match="outcome vector length differs"):
        ObservedData(y=np.zeros(3), assignment=asg)
    table = PotentialTable(np.zeros(5), np.ones(5))
    with pytest.raises(EstimatorError, match="table and assignment sizes differ"):
        ObservedData.realize(table, asg)


def test_realize_selects_assigned_outcome():
    table = PotentialTable(np.array([0.1, 0.2, 0.3]), np.array([0.9, 0.8, 0.7]))
    asg = draw_complete(3, 1, np.random.default_rng(0))
    data = ObservedData.realize(table, asg)
    for j in range(3):
        expected = table.y1[j] if asg.z[j] else table.y0[j]
        assert data.y[j] == expected



def test_realize_null_table_is_a_read_only_view_of_y0():
    rng = np.random.default_rng(3)
    y0 = rng.uniform(0, 1, 50)
    null = PotentialTable(y0=y0, y1=y0)
    twin = PotentialTable(y0=y0, y1=y0.copy())
    for asg in (draw_bernoulli(50, 0.2, rng), draw_mbcr(compute_layout(50, 10), rng)):
        data = ObservedData.realize(null, asg)
        assert np.shares_memory(data.y, y0) and not data.y.flags.writeable
        # the same outcomes, and so the same terms, as a table whose y1 is a copy
        full = ObservedData.realize(twin, asg)
        assert np.array_equal(data.y, full.y)
        assert np.array_equal(data.terms, full.terms)
    assert y0.flags.writeable


# ---------------------------------------------------------------------------
# Standard estimator


def test_ht_standard_small_cases():
    asg = draw_bernoulli(2, 0.5, np.random.default_rng(0))
    z = np.array([1, 0], dtype=np.int8)
    asg = type(asg)(z=z, scheme="bernoulli", pi=0.5)
    data = ObservedData(y=np.array([1.0, 0.0]), assignment=asg)
    assert ht_estimate(data) == pytest.approx(1.0)
    data = ObservedData(y=np.array([1.0, 1.0]), assignment=asg)
    assert ht_estimate(data) == pytest.approx(0.0)
    data = ObservedData(y=np.array([0.0, 0.0]), assignment=asg)
    assert ht_estimate(data) == 0.0


def test_ht_standard_matches_vectorized_oracle():
    rng = np.random.default_rng(10)
    table = _random_table(30, rng)
    for _ in range(50):
        asg = draw_bernoulli(30, 0.2, rng)
        data = ObservedData.realize(table, asg)
        z = asg.z.astype(float)
        oracle = float(np.mean(data.y * (z / 0.2 - (1 - z) / 0.8)))
        assert ht_estimate(data) == pytest.approx(oracle, rel=1e-14)


def test_bernoulli_unbiasedness_monte_carlo():
    # Mean of the estimator over 10^6 draws, against the fixed-table effect.
    # The vectorized evaluation below is checked against ht_estimate above.
    rng = np.random.default_rng(42)
    n, pi, reps = 8, 0.25, 10**6
    table = _random_table(n, rng)
    z = (rng.random((reps, n)) < pi).astype(float)
    y = np.where(z == 1, table.y1, table.y0)
    estimates = np.mean(y * (z / pi - (1 - z) / (1 - pi)), axis=1)
    se = float(estimates.std(ddof=1)) / math.sqrt(reps)
    assert abs(float(estimates.mean()) - table.psi_db) < 4 * se


# ---------------------------------------------------------------------------
# Grouped estimator


def test_ht_mbcr_requires_detail():
    # a grouped assignment built by hand without its permutation has no
    # slot order to weigh, and is refused when it is built
    z = draw_complete(6, 2, np.random.default_rng(0)).z
    with pytest.raises(DesignError, match="needs its layout and eta"):
        Assignment(z=z, scheme="mbcr", pi=2 / 6)


def test_ht_mbcr_equals_standard_without_tail():
    lay = compute_layout(100, 10)
    rng = np.random.default_rng(2)
    table = _random_table(100, rng)
    for _ in range(20):
        asg = draw_mbcr(lay, rng)
        data = ObservedData.realize(table, asg)
        # the same draw read as complete randomization, in unit order
        plain = Assignment(z=asg.z, scheme="complete", pi=asg.pi)
        standard = ht_estimate(ObservedData(y=data.y, assignment=plain))
        assert ht_estimate(data) == pytest.approx(standard, rel=0, abs=1e-12)


def test_ht_mbcr_constant_table_cancels():
    rng = np.random.default_rng(3)
    for n, n1 in [(100, 10), (10, 3), (9, 4)]:
        lay = compute_layout(n, n1)
        table = PotentialTable(np.full(n, 0.4), np.full(n, 0.4))
        asg = draw_mbcr(lay, rng)
        data = ObservedData.realize(table, asg)
        assert ht_estimate(data) == pytest.approx(0.0, abs=1e-12)


def _ht_mbcr_by_hand(data):
    """Slot-by-slot expansion of the grouped estimator, written with plain
    Python loops and explicit permutation inverses, independently of the
    library's vectorized path."""
    lay = data.assignment.layout
    eta = data.assignment.eta.tolist()
    a = lay.allocation.tolist()
    inv_eta = {eta[j]: j for j in range(lay.n)}
    g = lay.group_size
    total = 0.0
    for t in range(lay.num_full_groups):
        for s in range(t * g, (t + 1) * g):
            y = data.y[inv_eta[s]]
            treated = a[s]
            total += y * (treated / (1 / g) - (1 - treated) / (1 - 1 / g))
    if lay.tail_size:
        ratio = lay.tail_size / lay.tail_treated
        for s in range(lay.num_full_groups * g, lay.n):
            y = data.y[inv_eta[s]]
            treated = a[s]
            total += y * (treated / (1 / ratio) - (1 - treated) / (1 - 1 / ratio))
    return total / lay.n


@pytest.mark.parametrize("n,n1,seed", [(9, 3, 17), (9, 4, 18), (10, 3, 19)])
def test_ht_mbcr_matches_hand_expansion(n, n1, seed, two_stage_mbcr):
    lay = compute_layout(n, n1)
    rng = np.random.default_rng(seed)
    table = _random_table(n, rng)
    asg = two_stage_mbcr(lay, rng)
    data = ObservedData.realize(table, asg)
    assert ht_estimate(data) == pytest.approx(_ht_mbcr_by_hand(data), rel=1e-13)


# ---------------------------------------------------------------------------
# Group-wise sums


def test_groupwise_sum_attains_bounds():
    lay = compute_layout(10, 2)
    assert lay.group_size == 5
    rng = np.random.default_rng(4)
    asg = draw_mbcr(lay, rng)
    # treated outcome 1, controls 0 pushes a group sum to +g
    y1 = np.ones(10)
    y0 = np.zeros(10)
    data = ObservedData.realize(PotentialTable(y0, y1), asg)
    sums = groupwise_sums(data)
    assert sums.max() == pytest.approx(5.0)
    # reversed outcomes push it to -g
    data = ObservedData.realize(PotentialTable(y1, y0), asg)
    sums = groupwise_sums(data)
    assert sums.min() == pytest.approx(-5.0)


def test_groupwise_sums_within_bounds_random():
    rng = np.random.default_rng(5)
    for n, n1 in [(60, 6), (9, 4), (23, 5)]:
        lay = compute_layout(n, n1)
        g = lay.group_size
        for _ in range(25):
            table = _random_table(n, rng)
            data = ObservedData.realize(table, draw_mbcr(lay, rng))
            sums = groupwise_sums(data)
            assert sums.shape[0] == lay.num_groups
            full = sums[: lay.num_full_groups]
            assert np.all(full >= -g - 1e-9) and np.all(full <= g + 1e-9)
            if lay.tail_size:
                assert abs(sums[-1]) <= lay.tail_size + 1e-9


def test_groupwise_sums_bernoulli_singletons():
    rng = np.random.default_rng(6)
    table = _random_table(12, rng)
    asg = draw_bernoulli(12, 0.25, rng)
    data = ObservedData.realize(table, asg)
    sums = groupwise_sums(data)
    z = asg.z.astype(float)
    expected = data.y * (z / 0.25 - (1 - z) / 0.75)
    assert np.allclose(sums, expected)


@pytest.mark.parametrize("pi", [1 / 2, 1 / 3, 1 / 10, 1 / 100])
def test_bernoulli_terms_bit_identical_to_pseudo_outcome(pi):
    for seed in (11, 12):
        rng = np.random.default_rng(seed)
        table = _random_table(5000, rng)
        asg = draw_bernoulli(5000, pi, rng)
        data = ObservedData.realize(table, asg)
        standard = pseudo_outcome(data.y, asg.z, pi)
        assert data.terms.tobytes() == standard.tobytes()
        assert groupwise_sums(data) is data.terms
        assert not data.terms.flags.writeable
        # the Bernoulli Studentized interval's mirrored terms, weighed by the
        # same step
        mirrored = pseudo_outcome(data.y, asg.z, pi, "mirrored")
        weighed = _weigh_units(data.y - 1.0, asg)
        assert weighed.tobytes() == mirrored.tobytes()
        assert not weighed.flags.writeable
        assert ht_estimate(data) == float(np.mean(standard))


@pytest.mark.parametrize(
    "n,n1",
    [
        (12, 4),  # tiling, groups of 3
        (10, 3),  # one treated unit spills into a tail of 2
        (9, 4),  # two spill into a tail of 3
        (10, 5),  # groups of 2
        (100000, 100),  # groups of 1000
    ],
)
@pytest.mark.parametrize("seed", [3, 41, 2027])
def test_slot_y_scatter_matches_gather_through_inverse(n, n1, seed, two_stage_mbcr):
    # terms scatters y through eta and weighs it in place; the outcome
    # gathered through eta's inverse, times each slot's coefficient, is the
    # definition it must reproduce byte for byte
    lay = compute_layout(n, n1)
    rng = np.random.default_rng(seed)
    data = ObservedData.realize(_random_table(n, rng), two_stage_mbcr(lay, rng))
    gathered = data.y[inverse_permutation(data.assignment.eta)]
    expected = gathered * lay.coef
    assert data.terms.dtype == expected.dtype
    # tobytes also compares the sign of every zero
    assert data.terms.tobytes() == expected.tobytes()
    assert not data.terms.flags.writeable


def test_grouped_slot_terms_peak_under_two_arrays():
    import tracemalloc

    # terms scatters y into its one full-length buffer and weighs it in
    # place by the layout's coefficients: an inverse of eta or a gathered
    # copy of the coefficients would take it to two arrays
    n = 100000
    lay = compute_layout(n, 100)
    rng = np.random.default_rng(4)
    data = ObservedData.realize(_random_table(n, rng), draw_mbcr(lay, rng))
    lay.coef  # the layout's own array, built once and outside the measurement
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        data.terms
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    full = 8 * n  # one full-length float64 array
    assert full <= peak < 2 * full


def test_public_draws_and_data_keep_their_bytes():
    # a one-shot draw, realization or term vector is never written by a
    # later one
    n = 5000
    lay = compute_layout(n, 50)
    table = _random_table(n, np.random.default_rng(6))
    held = []
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        grouped = ObservedData.realize(table, draw_mbcr(lay, rng))
        bern = ObservedData.realize(table, draw_bernoulli(n, 0.01, rng))
        arrays = (
            grouped.assignment.z,
            grouped.assignment.eta,
            grouped.y,
            grouped.terms,
            bern.assignment.z,
            bern.assignment.treated,
            bern.y,
            bern.terms,
        )
        held.append((arrays, [a.tobytes() for a in arrays]))
    (first, first_bytes), (second, _) = held
    assert [a.tobytes() for a in first] == first_bytes
    for a, b in zip(first, second):
        assert not np.shares_memory(a, b)


def test_grouped_terms_cached_on_the_data():
    lay = compute_layout(47, 5)  # groups of 10, two spill into a tail of 7
    rng = np.random.default_rng(12)
    table = _random_table(47, rng)
    data = ObservedData.realize(table, draw_mbcr(lay, rng))
    terms = data.terms
    ht_estimate(data)
    groupwise_sums(data)
    cached = vars(data)
    assert cached["terms"] is terms
    assert set(cached) == {"y", "assignment", "terms"}


def test_estimate_is_np_mean_bit_for_bit():
    # ht_estimate is terms.sum() / n, np.mean's own sum and division
    for n in [*range(1, 301), 1000, 5000, 20_000, 100_000]:
        rng = np.random.default_rng(n)
        table = _random_table(n, rng)
        draws = [draw_bernoulli(n, 0.3, rng)]
        # and the largest treated count up to n/10 that has a grouped layout
        for n1 in range(max(1, n // 10), 0 if n >= 2 else 1, -1):
            try:
                draws.append(draw_mbcr(compute_layout(n, n1), rng))
                break
            except LayoutInfeasibleError:
                continue
        for asg in draws:
            data = ObservedData.realize(table, asg)
            want = float(np.mean(data.terms))
            assert ht_estimate(data).hex() == want.hex(), (n, asg.scheme)


@pytest.mark.parametrize("n,n1", [(1000, 100), (997, 100), (991, 100), (5000, 500), (47, 5)])
def test_block_sums_are_each_blocks_reduction(n, n1):
    # one row-wise reduction straight into its output, then the tail's sum:
    # the bits of reducing each block's slice on its own
    lay = compute_layout(n, n1)
    rng = np.random.default_rng(n)
    data = ObservedData.realize(_random_table(n, rng), draw_mbcr(lay, rng))
    g, body = lay.group_size, lay.num_full_groups * lay.group_size
    slices = [data.terms[i : i + g] for i in range(0, body, g)]
    if lay.tail_size:
        slices.append(data.terms[body:])
    expected = np.array([np.add.reduce(s) for s in slices])
    assert groupwise_sums(data).tobytes() == expected.tobytes()
    row = np.full(lay.num_groups + 3, np.nan)
    assert block_sums(data.terms, lay, row[1:-2]) is not None
    assert row[1:-2].tobytes() == expected.tobytes()
    assert np.isnan(row[[0, -2, -1]]).all()  # nothing written outside ``out``


def test_groupwise_total_is_estimate():
    lay = compute_layout(9, 4)
    rng = np.random.default_rng(7)
    table = _random_table(9, rng)
    data = ObservedData.realize(table, draw_mbcr(lay, rng))
    assert groupwise_sums(data).sum() / 9 == pytest.approx(ht_estimate(data), rel=1e-13)


def test_mirrored_sums_equal_standard_under_grouping(two_stage_mbcr):
    # a mirrored sum is the standard one minus its block's coefficient
    # total, which is exactly zero, g - (g-1) g/(g-1) in a full block and
    # t s/t - (s-t) s/(s-t) in the tail; so the mirrored mean is the grouped
    # estimate, and the Studentized interval reads the standard sums alone
    rng = np.random.default_rng(8)
    for n, n1 in [(100, 10), (9, 4), (10, 3), (23, 5)]:
        lay = compute_layout(n, n1)
        g, s, t = lay.group_size, lay.tail_size, lay.tail_treated
        assert g - (g - 1) * Fraction(g, g - 1) == 0
        if s:
            assert t * Fraction(s, t) - (s - t) * Fraction(s, s - t) == 0
        props = [1 / g] * lay.num_full_groups + ([t / s] if s else [])
        for _ in range(10):
            table = _random_table(n, rng)
            data = ObservedData.realize(table, two_stage_mbcr(lay, rng))
            treated = lay.allocation
            slot_y = data.y[inverse_permutation(data.assignment.eta)]
            mirrored = np.array([
                pseudo_outcome(slot_y[b], treated[b], p, "mirrored").sum()
                for b, p in zip(slot_blocks(lay), props)
            ])
            assert np.allclose(mirrored, groupwise_sums(data), atol=1e-9)
            assert mirrored.sum() / n == pytest.approx(ht_estimate(data), abs=1e-10)


def test_mirrored_sums_differ_under_bernoulli():
    rng = np.random.default_rng(9)
    table = _random_table(40, rng)
    asg = draw_bernoulli(40, 0.2, rng)
    data = ObservedData.realize(table, asg)
    mirrored = pseudo_outcome(data.y, asg.z, 0.2, "mirrored")
    assert not np.allclose(mirrored, groupwise_sums(data))


# ---------------------------------------------------------------------------
# Conditional unbiasedness oracle


def test_conditional_mean_exhaustive_eta_6_2():
    lay = compute_layout(6, 2)
    rng = np.random.default_rng(11)
    table = _random_table(6, rng)
    for eta in itertools.permutations(range(6)):
        value = conditional_mean_given_eta(table, lay, np.array(eta))
        assert value == pytest.approx(table.psi_db, abs=1e-12)


def test_conditional_mean_constant_shift():
    lay = compute_layout(8, 2)
    y0 = np.linspace(0.0, 0.4, 8)
    table = PotentialTable(y0, y0 + 0.25)
    eta = np.random.default_rng(12).permutation(8)
    assert conditional_mean_given_eta(table, lay, eta) == pytest.approx(0.25, abs=1e-12)


def test_conditional_mean_null_table():
    lay = compute_layout(10, 3)  # exercises the tail-group path
    y = np.linspace(0.1, 0.9, 10)
    table = PotentialTable(y, y)
    eta = np.random.default_rng(13).permutation(10)
    assert conditional_mean_given_eta(table, lay, eta) == pytest.approx(0.0, abs=1e-12)


def test_conditional_mean_matches_cross_product_enumeration():
    """Brute-force oracle: enumerate the full cross product of within-group
    treated placements, evaluate the estimator for each, and average."""
    lay = compute_layout(6, 2)
    rng = np.random.default_rng(14)
    table = _random_table(6, rng)
    eta = rng.permutation(6)
    inv_eta = inverse_permutation(eta)
    g = lay.group_size
    total = 0.0
    count = 0
    for picks in itertools.product(range(g), repeat=lay.num_full_groups):
        est = 0.0
        for t, pick in enumerate(picks):
            units = inv_eta[np.arange(t * g, (t + 1) * g)]
            for j, unit in enumerate(units):
                if j == pick:
                    est += table.y1[unit] * g
                else:
                    est -= table.y0[unit] * g / (g - 1)
        total += est / lay.n
        count += 1
    brute = total / count
    fast = conditional_mean_given_eta(table, lay, eta)
    assert fast == pytest.approx(brute, abs=1e-12)
    assert fast == pytest.approx(table.psi_db, abs=1e-12)


def test_conditional_mean_sampled_eta_with_tail():
    lay = compute_layout(9, 4)
    rng = np.random.default_rng(15)
    for _ in range(10):
        table = _random_table(9, rng)
        eta = rng.permutation(9)
        assert conditional_mean_given_eta(table, lay, eta) == pytest.approx(
            table.psi_db, abs=1e-12
        )
