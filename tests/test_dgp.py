"""Data-generating processes: range safety, targets, determinism."""

import math

import numpy as np
import pytest

from reference import write_table_csv
from tightci.dgp import (
    DgpError,
    DgpSpec,
    sample_population,
    sample_table_with_effect,
    true_ate_iid,
)
from tightci.estimator import PotentialTable


def test_spec_validation():
    with pytest.raises(DgpError):
        DgpSpec("uniform_shift", n=10, lo=0.3, hi=0.6, shift=0.5)  # 0.6+0.5 > 1
    with pytest.raises(DgpError):
        DgpSpec("uniform_null", n=10, lo=0.5, hi=0.5)
    with pytest.raises(DgpError):
        DgpSpec("uniform_null", n=10, lo=-0.1, hi=0.5)
    with pytest.raises(DgpError):
        DgpSpec("gaussian", n=10)
    with pytest.raises(DgpError):
        DgpSpec("fixed_table", n=10)
    with pytest.raises(DgpError):
        DgpSpec("uniform_null", n=0, lo=0.0, hi=0.1)


def test_shifted_uniform_scenario():
    spec = DgpSpec("uniform_shift", n=500, lo=0.1, hi=0.5, shift=0.5)
    table = sample_population(spec, np.random.default_rng(0))
    diffs = table.y1 - table.y0
    assert np.allclose(diffs, 0.5)
    assert table.y0.min() >= 0.1 and table.y0.max() <= 0.5
    assert table.y1.max() <= 1.0
    assert true_ate_iid(spec) == 0.5


def test_null_scenarios():
    for spec in (
        DgpSpec("uniform_null", n=300, lo=0.9, hi=1.0),
        DgpSpec("uniform_null", n=300, lo=0.0, hi=0.1),
    ):
        table = sample_population(spec, np.random.default_rng(1))
        assert table.psi_db == 0.0
        assert np.array_equal(table.y0, table.y1)
        assert true_ate_iid(spec) == 0.0
        assert spec.lo <= table.y0.min() and table.y0.max() <= spec.hi


def test_null_table_arms_share_one_array():
    # a null table's treated outcomes are its control array itself, not a copy
    rng = np.random.default_rng(3)
    null = sample_population(DgpSpec("uniform_null", n=50, lo=0.0, hi=0.1), rng)
    assert null.y1 is null.y0
    spec = DgpSpec("uniform_shift", n=50, lo=0.1, hi=0.5, shift=0.0)
    shift = sample_population(spec, rng)
    assert shift.y1 is not shift.y0
    assert not np.shares_memory(shift.y1, shift.y0)


def test_outputs_always_in_unit_interval():
    rng = np.random.default_rng(2)
    for spec in (
        DgpSpec("uniform_shift", n=200, lo=0.1, hi=0.5, shift=0.5),
        DgpSpec("uniform_null", n=200, lo=0.9, hi=1.0),
        DgpSpec("uniform_null", n=200, lo=0.0, hi=0.1),
    ):
        for _ in range(5):
            table = sample_population(spec, rng)
            for arr in (table.y0, table.y1):
                assert arr.min() >= 0.0 and arr.max() <= 1.0


def test_sampling_deterministic():
    spec = DgpSpec("uniform_shift", n=100, lo=0.1, hi=0.5, shift=0.5)
    a = sample_population(spec, np.random.default_rng(7))
    b = sample_population(spec, np.random.default_rng(7))
    assert np.array_equal(a.y0, b.y0)
    assert np.array_equal(a.y1, b.y1)


def test_fixed_table_loading(tmp_path):
    path = tmp_path / "table.csv"
    write_table_csv(path, PotentialTable(np.array([0.2, 0.4]), np.array([0.7, 0.9])))
    spec = DgpSpec("fixed_table", n=2, path=str(path))
    sample_population(spec, np.random.default_rng(0))
    assert true_ate_iid(spec) == pytest.approx(0.5)
    with pytest.raises(DgpError, match="rows"):
        sample_population(DgpSpec("fixed_table", n=3, path=str(path)),
                          np.random.default_rng(0))


def test_with_n_override():
    spec = DgpSpec("uniform_null", n=10, lo=0.0, hi=0.1).with_n(50)
    assert spec.n == 50
    assert sample_population(spec, np.random.default_rng(3)).n == 50


def test_numpy_uniform_is_lo_plus_range_times_each_standard_draw():
    # The control outcomes are drawn in place, rng.random(n) scaled by
    # hi - lo and shifted by lo, which relies on Generator.uniform forming
    # lo + (hi - lo) * u from one standard uniform u per entry.  A numpy
    # that changes uniform's arithmetic or its use of the generator fails
    # here by name rather than shifting a report's bytes.
    pick = np.random.default_rng(23)
    pairs = [(0.0, 1.0), (0.9, 1.0), (0.0, 5e-324), (0.3, 0.30000000000000004),
             (0.0, 0.1), (0.1, 0.5), (0.5, 1.0), (1e-300, 1.0)]
    while len(pairs) < 240:
        lo, hi = sorted(pick.random(2) ** pick.integers(1, 20, size=2))
        if lo < hi:
            pairs.append((float(lo), float(hi)))
    mismatches = []
    for i, (lo, hi) in enumerate(pairs):
        n = (1, 3, 101, 4097, 50_001)[i % 5]
        spec = DgpSpec("uniform_null", n=n, lo=lo, hi=hi)
        ours, numpys = np.random.default_rng(i), np.random.default_rng(i)
        drawn = sample_population(spec, ours).y0
        if drawn.tobytes() != numpys.uniform(lo, hi, n).tobytes():
            mismatches.append(("bytes", lo, hi, n))
        if ours.bit_generator.state != numpys.bit_generator.state:
            mismatches.append(("state", lo, hi, n))
    assert mismatches == []


@pytest.mark.parametrize("n", [1, 2, 7, 16_385, 100_003])
def test_design_based_target_has_the_tables_own_mean_difference_bits(n, tmp_path):
    # A cell's target is its table's mean(y1 - y0) to the last bit, though no
    # such difference array is left to read: a shift table's is formed in
    # y1's buffer, and a null table's is +0.0.  A config's n is at least 2,
    # so n = 1 is checked on the dgp call that builds a cell's table.
    from tightci.harness import _build_cells, parse_config

    rng = np.random.default_rng(n)
    path = tmp_path / "table.csv"
    write_table_csv(path, PotentialTable(rng.random(n), rng.random(n)))
    dgps = [
        {"kind": "uniform_shift", "lo": 0.1, "hi": 0.5, "shift": 0.5},
        {"kind": "uniform_shift", "lo": 0.0, "hi": 0.7, "shift": 0.3},
        {"kind": "uniform_null", "lo": 0.0, "hi": 0.1},
        {"kind": "uniform_null", "lo": 0.9, "hi": 1.0},
        {"kind": "fixed_table", "path": str(path)},
    ]
    seeds = (0, 1, 20260901)
    for dgp in dgps:
        built = [
            sample_table_with_effect(DgpSpec(n=n, **dgp), np.random.default_rng(s))
            for s in seeds
        ]
        for seed in seeds if n >= 2 else ():
            raw = {
                "experiment": "rmse",
                "setting": "design_based",
                "grid": {"n": [n], "pi": ["1/2"], "alpha": [0.05]},
                "methods": ["ht-bernoulli"],
                "dgp": dgp,
                "replications": 1,
                "seed": seed,
            }
            (cell,) = _build_cells(parse_config(raw))
            built.append((cell.table, cell.target))
        for table, target in built:
            assert target.hex() == float(np.mean(table.y1 - table.y0)).hex()
            if dgp["kind"] == "uniform_null":
                assert target == 0.0 and math.copysign(1.0, target) == 1.0
            if dgp["kind"] == "uniform_shift":
                # the buffer that held the differences holds y0 + shift
                assert table.y1.tobytes() == (table.y0 + dgp["shift"]).tobytes()


def test_table_with_effect_is_the_sampled_table():
    # the same bytes and generator state as sample_population
    for spec in (
        DgpSpec("uniform_shift", n=1001, lo=0.1, hi=0.5, shift=0.5),
        DgpSpec("uniform_null", n=1001, lo=0.9, hi=1.0),
    ):
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        table, effect = sample_table_with_effect(spec, rng_a)
        plain = sample_population(spec, rng_b)
        assert table.y0.tobytes() == plain.y0.tobytes()
        assert table.y1.tobytes() == plain.y1.tobytes()
        assert (table.y1 is table.y0) == (plain.y1 is plain.y0)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert effect.hex() == plain.psi_db.hex()
