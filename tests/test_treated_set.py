"""Treated-set replications: the draws that return only the units a fixed
table's estimate reads, the estimate from them, and the per-(cell, tag)
substreams every replication draws from."""

import itertools
import math

import numpy as np
import pytest

from reference import write_table_csv
from tightci import harness
from tightci.design import (
    SCHEME_BERNOULLI,
    Assignment,
    compute_layout,
    grouped_assignment,
    treated_set_bernoulli,
    treated_set_mbcr,
)
from tightci.estimator import (
    ObservedData,
    PotentialTable,
    ht_estimate,
    treated_set_estimate,
)
from tightci.harness import parse_config, run_monte_carlo, substream

DRAWS = 50_000


def _within_4_se(counts, probs, draws):
    """Every outcome's frequency within four standard errors of its
    probability, and no outcome outside ``probs`` seen."""
    assert set(counts) <= set(probs)
    for key, p in probs.items():
        se = math.sqrt(p * (1 - p) / draws)
        assert abs(counts.get(key, 0) / draws - p) < 4 * se, key


def _tally(codes):
    keys, counts = np.unique(codes, return_counts=True)
    return dict(zip(keys.tolist(), counts.tolist()))


def _seat(layout, units):
    """The permutation ``eta`` that seats ``units`` where
    :func:`treated_set_mbcr` says they sit: the tail's slots in order, then
    the full blocks' treated slots; every other unit fills the other slots."""
    g, s = layout.group_size, layout.tail_size
    body = layout.num_full_groups * g
    slots = np.concatenate([np.arange(body, body + s), np.arange(0, body, g)])
    rest_units = np.setdiff1d(np.arange(layout.n), units)
    rest_slots = np.setdiff1d(np.arange(layout.n), slots)
    eta = np.empty(layout.n, dtype=np.int64)
    eta[units] = slots
    eta[rest_units] = rest_slots
    return eta


def _mixed_raw(setting="design_based", **overrides):
    """A coverage config whose grouped design is dense (studentized reads
    every unit) and whose Bernoulli design draws treated sets."""
    raw = {
        "experiment": "coverage",
        "grid": {"n": [200, 205, 1000], "pi": ["1/10", "1/40"], "alpha": [0.05]},
        "methods": [
            "hoeff-mbcr", "studentized", "sub-bernoulli-bern", "naive-hoeffding"
        ],
        "dgp": {"kind": "uniform_shift", "lo": 0.1, "hi": 0.5, "shift": 0.5},
        "replications": 24,
        "seed": 19,
        "setting": setting,
    }
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------------------
# (a) The law of the draws


@pytest.mark.parametrize("n,n1,spill", [(6, 2, 0), (7, 2, 1), (9, 4, 2)])
def test_grouped_treated_set_law(n, n1, spill):
    # draw_mbcr's units at the tail's and the treated slots are an ordered
    # uniform sample: every assignment and every split of the units into
    # tail-treated, tail-control and the rest is equally likely
    layout = compute_layout(n, n1)
    s, k = layout.tail_size, layout.tail_treated
    assert k == spill
    rng = np.random.default_rng(2718)
    units = np.array([treated_set_mbcr(layout, rng) for _ in range(DRAWS)])
    assert units.shape == (DRAWS, s + n1 - k)
    treated = np.concatenate([units[:, :k], units[:, s:]], axis=1)
    z_codes = (1 << treated).sum(axis=1)
    arrangements = math.comb(n, n1)
    z_probs = {
        sum(1 << u for u in combo): 1 / arrangements
        for combo in itertools.combinations(range(n), n1)
    }
    _within_4_se(_tally(z_codes), z_probs, DRAWS)
    if not s:
        return
    # each unit's tail label: 1 tail-treated, 2 tail-control, 0 elsewhere
    tail_codes = (3 ** units[:, :k]).sum(axis=1) + (2 * 3 ** units[:, k:s]).sum(axis=1)
    tallied = _tally(tail_codes)
    splits = math.factorial(n) // (
        math.factorial(k) * math.factorial(s - k) * math.factorial(n - s)
    )
    assert len(tallied) == splits
    _within_4_se(tallied, dict.fromkeys(tallied, 1 / splits), DRAWS)


def test_bernoulli_treated_set_law():
    # the count is Binomial(n, pi) and, given it, the subset is uniform: each
    # assignment has probability pi^|z| (1 - pi)^(n - |z|)
    n, pi = 5, 0.3
    rng = np.random.default_rng(1618)
    draws = [treated_set_bernoulli(n, pi, rng) for _ in range(DRAWS)]
    counts = _tally([len(units) for units in draws])
    binom = {c: math.comb(n, c) * pi**c * (1 - pi) ** (n - c) for c in range(n + 1)}
    _within_4_se(counts, binom, DRAWS)
    codes = _tally([int((1 << units).sum()) for units in draws])
    probs = {
        z: pi ** z.bit_count() * (1 - pi) ** (n - z.bit_count()) for z in range(1 << n)
    }
    _within_4_se(codes, probs, DRAWS)


# ---------------------------------------------------------------------------
# (b) The estimate from the treated set is the dense estimate


@pytest.mark.parametrize(
    "n,n1,spill", [(100, 10, 0), (7, 2, 1), (1003, 10, 1), (9, 4, 2), (1561, 40, 2)]
)
def test_grouped_treated_set_estimate_is_ht_estimate(n, n1, spill):
    layout = compute_layout(n, n1)
    assert layout.tail_treated == spill
    rng = np.random.default_rng(n * 31 + n1)
    for _ in range(20):
        table = PotentialTable(rng.random(n), rng.random(n))
        units = treated_set_mbcr(layout, rng)
        asg = grouped_assignment(layout, _seat(layout, units))
        s, k = layout.tail_size, layout.tail_treated
        assert sorted(np.flatnonzero(asg.z)) == sorted(np.r_[units[:k], units[s:]])
        dense = ht_estimate(ObservedData.realize(table, asg))
        sparse = treated_set_estimate(table, units, table.y0.sum(), layout)
        assert abs(sparse - dense) < 1e-12


@pytest.mark.parametrize("n,pi", [(50, 0.1), (2000, 0.01), (7, 0.5)])
def test_bernoulli_treated_set_estimate_is_ht_estimate(n, pi):
    rng = np.random.default_rng(n)
    for _ in range(20):
        table = PotentialTable(rng.random(n), rng.random(n))
        units = treated_set_bernoulli(n, pi, rng)
        z = np.zeros(n, dtype=np.int8)
        z[units] = 1
        asg = Assignment(z=z, scheme=SCHEME_BERNOULLI, pi=pi)
        dense = ht_estimate(ObservedData.realize(table, asg))
        sparse = treated_set_estimate(table, units, table.y0.sum(), pi=pi)
        assert abs(sparse - dense) < 1e-12


# ---------------------------------------------------------------------------
# (c) Substreams


@pytest.mark.parametrize(
    "setting,draws",
    [
        ("design_based", ("draw_mbcr", "treated_set_bernoulli")),
        ("superpopulation", ("sample_population", "draw_mbcr", "draw_bernoulli")),
    ],
)
def test_replication_generator_state_does_not_depend_on_its_chunk(
    monkeypatch, setting, draws
):
    raw = _mixed_raw(setting, grid={"n": [200], "pi": ["1/10"], "alpha": [0.05]})
    cfg = parse_config(raw)
    (cell,) = harness._build_cells(cfg)
    seen = []

    def recording(name):
        real = getattr(harness, name)

        def record(*args):
            rng = next(a for a in args if isinstance(a, np.random.Generator))
            seen.append((name, rng.bit_generator.state["state"]["state"]))
            return real(*args)

        monkeypatch.setattr(harness, name, record)

    for name in draws:
        recording(name)
    harness._coverage_chunk(cfg, cell, 0, 6)
    per = len(draws)
    whole = list(seen)
    assert len(whole) == 6 * per and len(set(whole)) == len(whole)
    # every replication on its own, in a scrambled order, then a later part
    seen.clear()
    order = (3, 5, 0, 4, 1, 2)
    for start in order:
        harness._coverage_chunk(cfg, cell, start, start + 1)
    for i, start in enumerate(order):
        assert seen[per * i : per * (i + 1)] == whole[per * start : per * (start + 1)]
    seen.clear()
    harness._coverage_chunk(cfg, cell, 2, 6)
    assert seen == whole[per * 2 :]


def test_substream_segment_is_the_advanced_seeded_state():
    at = substream(11, 4, 2)
    fresh = np.random.PCG64(np.random.SeedSequence((11, 4, 2)))
    fresh.advance(5 << 64)
    expected = fresh.random_raw(4)
    at(3).random(1000)  # whatever an earlier replication drew
    assert np.array_equal(at(5).bit_generator.random_raw(4), expected)


# 2_096_465_141 is a benchmark config seed, from its range [2**16, 2**31).
@pytest.mark.parametrize(
    "seed, cell", [(0, 0), (7, 3), (2**31 - 1, 10**6), (2_096_465_141, 0)]
)
def test_cell_table_substream_is_the_seed_tuple_generator(seed, cell):
    # a cell's fixed table draws from replication 0 of its (seed, cell, 0)
    # substream, which is the generator default_rng seeds from that tuple
    at = substream(seed, cell, 0)
    at(3).random(10)  # an earlier replication's draws do not move it
    tree = np.random.default_rng((seed, cell, 0))
    assert at(0).bit_generator.state == tree.bit_generator.state
    assert np.array_equal(at(0).random(1000), tree.random(1000))


# ---------------------------------------------------------------------------
# (d) Which path a design takes, and worker independence


_DENSE = {"draw_mbcr", "draw_bernoulli"}
_SPARSE = {"treated_set_mbcr", "treated_set_bernoulli"}


@pytest.mark.parametrize(
    "methods,dgp,called",
    [
        (["hoeff-mbcr", "studentized", "naive-hoeffding"], None,
         {"draw_mbcr", "treated_set_bernoulli"}),
        (["sub-bernoulli-mbcr", "clt"], None, {"treated_set_mbcr", "draw_bernoulli"}),
        (["hoeff-mbcr", "sub-bernoulli-bern"], None, _SPARSE),
        (["hoeff-mbcr", "sub-bernoulli-bern"], "sampled", _DENSE),
        (["hoeff-mbcr", "sub-bernoulli-bern"], "fixed", _SPARSE),
    ],
)
def test_a_design_draws_every_unit_only_when_it_must(
    monkeypatch, tmp_path, methods, dgp, called
):
    # a design draws its treated set when the cell's table is fixed and none
    # of the design's methods in the cell is data-adaptive
    seen = set()
    for name in _DENSE | _SPARSE:
        real = getattr(harness, name)
        monkeypatch.setattr(
            harness, name, lambda *a, _n=name, _r=real: seen.add(_n) or _r(*a)
        )
    grid = {"n": [200], "pi": ["1/10"], "alpha": [0.05]}
    raw = _mixed_raw(methods=methods, grid=grid)
    if dgp is not None:
        raw["setting"] = "superpopulation"
    if dgp == "fixed":
        rng = np.random.default_rng(5)
        write_table_csv(tmp_path / "t.csv", PotentialTable(rng.random(200), rng.random(200)))
        raw["dgp"] = {"kind": "fixed_table", "path": str(tmp_path / "t.csv")}
    run_monte_carlo(parse_config(raw))
    assert seen == called


@pytest.mark.parametrize("setting", ["design_based", "superpopulation"])
def test_mixed_paths_give_the_same_bytes_at_one_and_two_workers(monkeypatch, setting):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    cfg = parse_config(_mixed_raw(setting))
    serial = run_monte_carlo(cfg, workers=1).to_csv_bytes()
    assert run_monte_carlo(cfg, workers=2).to_csv_bytes() == serial
