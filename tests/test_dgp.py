"""Data-generating processes: range safety, targets, determinism."""

import numpy as np
import pytest

from reference import write_table_csv
from tightci.dgp import (
    DgpError,
    DgpSpec,
    sample_population,
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
