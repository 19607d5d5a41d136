"""Config validation, runner determinism, and report serialization."""

import json
import math
from fractions import Fraction

import pytest

from tightci.design import EnumerationBudgetError, LayoutInfeasibleError
from tightci.harness import (
    ConfigError,
    load_config,
    parse_config,
    parse_propensity,
    resolve_workers,
    rmse_bound,
    run_coverage,
    run_equivalence,
    run_experiment,
    run_rmse,
    run_width_scaling,
    write_outputs,
)

LN40 = math.log(2 / 0.05)


def _coverage_raw(**overrides):
    raw = {
        "experiment": "coverage",
        "grid": {"n": [200], "pi": ["1/10"], "alpha": [0.05]},
        "methods": ["hoeff-mbcr", "sub-bernoulli-bern", "studentized"],
        "dgp": {"kind": "uniform_shift", "lo": 0.1, "hi": 0.5, "shift": 0.5},
        "replications": 40,
        "seed": 3,
        "setting": "design_based",
    }
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------------------
# Parsing and validation


def test_parse_propensity_forms():
    assert parse_propensity("1/10") == Fraction(1, 10)
    assert parse_propensity(0.1) == Fraction(1, 10)
    assert parse_propensity("0.25") == Fraction(1, 4)
    assert parse_propensity("3/7") == Fraction(3, 7)
    with pytest.raises(ConfigError, match="outside"):
        parse_propensity(0.6)
    with pytest.raises(ConfigError, match="outside"):
        parse_propensity(0)
    with pytest.raises(ConfigError):
        parse_propensity("not-a-number")


def test_parse_config_validations():
    with pytest.raises(ConfigError, match="config.experiment"):
        parse_config(_coverage_raw(experiment="nope"))
    with pytest.raises(ConfigError, match="missing required field"):
        parse_config({"experiment": "coverage"})
    with pytest.raises(ConfigError, match="config.grid.alpha"):
        parse_config(_coverage_raw(grid={"n": [100], "pi": [0.1], "alpha": [1.5]}))
    with pytest.raises(ConfigError, match=r"config.methods\[0\]"):
        parse_config(_coverage_raw(methods=["ht-mbcr"]))
    with pytest.raises(ConfigError, match="unknown field"):
        parse_config(_coverage_raw(extra_knob=1))
    with pytest.raises(ConfigError, match="config.seed"):
        parse_config(_coverage_raw(seed=-1))
    with pytest.raises(ConfigError, match="config.replications"):
        parse_config(_coverage_raw(replications=0))
    with pytest.raises(ConfigError, match="config.setting"):
        parse_config(_coverage_raw(setting="mixed"))
    with pytest.raises(ConfigError, match="config.dgp"):
        parse_config(_coverage_raw(dgp={"kind": "uniform_shift", "lo": 0.9, "hi": 1.0, "shift": 0.5}))


def _equivalence_raw(**overrides):
    return {"experiment": "equivalence", "n": 6, "n1": 2, "seed": 0, **overrides}


def _without(raw, key):
    return {k: v for k, v in raw.items() if k != key}


_GRID = {"n": [100], "pi": ["1/10"], "alpha": [0.05]}

# One malformed config per rejection branch, with the field path that must
# start the ConfigError message.
_REJECTIONS = [
    ("config", ["experiment", "coverage"]),
    ("config", {"seed": 0}),
    ("config.experiment", _coverage_raw(experiment="nope")),
    ("config", _without(_coverage_raw(), "seed")),
    ("config.seed", _coverage_raw(seed=-1)),
    ("config.seed", _coverage_raw(seed="3")),
    ("config", _without(_equivalence_raw(), "n1")),
    ("config.n", _equivalence_raw(n=0)),
    ("config.n1", _equivalence_raw(n1=2.0)),
    ("config.budget", _equivalence_raw(budget=0)),
    ("config.approximate", _equivalence_raw(approximate="yes")),
    ("config.draws", _equivalence_raw(draws=0)),
    ("config", _equivalence_raw(grid=_GRID)),
    ("config", _coverage_raw(extra_knob=1)),
    ("config", _without(_coverage_raw(), "grid")),
    ("config.grid", _coverage_raw(grid=[100])),
    ("config.grid", _coverage_raw(grid={**_GRID, "beta": [1]})),
    ("config.grid", _coverage_raw(grid=_without(_GRID, "alpha"))),
    ("config.grid.pi", _coverage_raw(grid={**_GRID, "pi": []})),
    ("config.grid.alpha", _coverage_raw(grid={**_GRID, "alpha": 0.05})),
    ("config.grid.n[0]", _coverage_raw(grid={**_GRID, "n": [1]})),
    ("config.grid.n[1]", _coverage_raw(grid={**_GRID, "n": [100, True]})),
    ("config.grid.pi[1]", _coverage_raw(grid={**_GRID, "pi": ["1/10", "2/3"]})),
    ("config.grid.alpha[0]", _coverage_raw(grid={**_GRID, "alpha": [True]})),
    ("config.grid.alpha[0]", _coverage_raw(grid={**_GRID, "alpha": [0]})),
    ("config", _without(_coverage_raw(), "methods")),
    ("config.methods", _coverage_raw(methods="hoeff-mbcr")),
    ("config.methods[1]", _coverage_raw(methods=["hoeff-mbcr", "ht-mbcr"])),
    ("config.replications", _coverage_raw(replications=1.5)),
    ("config.setting", _coverage_raw(setting="mixed")),
    ("config", _without(_coverage_raw(), "dgp")),
    ("config.dgp", _coverage_raw(dgp="uniform_shift")),
    ("config.dgp", _coverage_raw(dgp={"lo": 0.1})),
    ("config.dgp", _coverage_raw(dgp={"kind": "uniform_null", "mean": 0.5})),
    ("config.dgp", _coverage_raw(dgp={"kind": "normal"})),
    ("config.dgp", _coverage_raw(dgp={"kind": "fixed_table"})),
    ("config.dgp", _coverage_raw(dgp={"kind": "uniform_null", "lo": 0.5, "hi": 0.5})),
    (
        "config.dgp",
        _coverage_raw(experiment="width_scaling", methods=["hoeff-mbcr"], dgp=[]),
    ),
]


@pytest.mark.parametrize(
    "where, raw", _REJECTIONS, ids=[f"{i:02d}-{w}" for i, (w, _) in enumerate(_REJECTIONS)]
)
def test_parse_config_rejections_name_the_field(where, raw):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(raw)
    assert str(excinfo.value).startswith(where + ":")


@pytest.mark.parametrize(
    "overrides, where",
    [
        ({"methods": [["hoeff-mbcr"]]}, "config.methods[0]"),
        ({"dgp": {"kind": "fixed_table", "path": 7}}, "config.dgp.path"),
        ({"dgp": {"kind": "uniform_shift", "lo": 0.1, "hi": True}}, "config.dgp.hi"),
        ({"dgp": {"kind": "uniform_shift", "lo": "0.2", "hi": 0.5}}, "config.dgp.lo"),
        ({"dgp": {"kind": "uniform_null", "shift": float("nan")}}, "config.dgp.shift"),
        ({"grid": {**_GRID, "alpha": [0.05, 5e-324]}}, "config.grid.alpha[1]"),
    ],
    ids=["method-list", "path-int", "hi-bool", "lo-string", "shift-nan", "alpha-tiny"],
)
def test_parse_config_refuses_wrong_types(overrides, where):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(_coverage_raw(**overrides))
    assert str(excinfo.value).startswith(where + ":")


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"experiment": "coverage",\n  "seed": }\n')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)


def test_equivalence_config():
    cfg = parse_config({"experiment": "equivalence", "n": 6, "n1": 2, "seed": 0})
    assert cfg.n == 6 and cfg.n1 == 2
    with pytest.raises(ConfigError, match="config.n1"):
        parse_config({"experiment": "equivalence", "n": 6, "n1": 0, "seed": 0})
    for name in ("budget", "draws"):
        raw = {"experiment": "equivalence", "n": 6, "n1": 2, "seed": 0, name: True}
        with pytest.raises(ConfigError, match=f"config.{name}"):
            parse_config(raw)


def test_resolve_workers(monkeypatch):
    # the flag alone sets the count; the environment does not override it
    monkeypatch.setenv("TIGHTCI_THREADS", "3")
    assert resolve_workers(None) == 1
    assert resolve_workers(4) == 4
    assert resolve_workers(8) == 8
    with pytest.raises(ConfigError):
        resolve_workers(0)


def test_worker_count_clamped_to_cpus_and_tasks(monkeypatch, caplog):
    from tightci import harness

    pools = []

    class SerialPool:
        """Records the pool size and maps in this process; starts nothing."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    cfg = parse_config(_coverage_raw(replications=40))
    serial = run_coverage(cfg, workers=1).to_csv_bytes()
    assert pools == []
    # 40 replications in chunks of 3 make 14 tasks, more than the 4 CPUs
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    with caplog.at_level("WARNING", logger="tightci.harness"):
        assert run_coverage(cfg, workers=10_000).to_csv_bytes() == serial
    assert pools == [4]
    clamps = [r for r in caplog.records if "requested workers" in r.getMessage()]
    assert len(clamps) == 1
    assert "using 4 of the 10000 requested workers" in clamps[0].getMessage()
    # three replications make three one-replication tasks, fewer than the CPUs
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
    assert run_coverage(parse_config(_coverage_raw(replications=3)), workers=10_000)
    assert pools == [4, 3]
    # two workers on two CPUs with many tasks run as asked, with no clamp
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    caplog.clear()
    with caplog.at_level("WARNING", logger="tightci.harness"):
        assert run_coverage(cfg, workers=2).to_csv_bytes() == serial
    assert pools == [4, 3, 2]
    assert not [r for r in caplog.records if "requested workers" in r.getMessage()]


# ---------------------------------------------------------------------------
# Coverage runner


def test_coverage_deterministic_and_worker_independent():
    cfg = parse_config(_coverage_raw(replications=48))
    first = run_coverage(cfg, workers=1).to_csv_bytes()
    again = run_coverage(cfg, workers=1).to_csv_bytes()
    parallel = run_coverage(cfg, workers=4).to_csv_bytes()
    assert first == again == parallel


def test_coverage_rows_shape():
    cfg = parse_config(_coverage_raw())
    report = run_coverage(cfg)
    assert len(report.rows) == 3
    for row in report.rows:
        assert row["schema_version"] == "1"
        assert 0.0 <= row["coverage_rate"] <= 1.0
        assert row["coverage_se"] == pytest.approx(
            math.sqrt(row["coverage_rate"] * (1 - row["coverage_rate"]) / 40)
        )
        assert row["replications"] == 40
        assert row["mean_halfwidth"] > 0


def test_coverage_superpopulation_target():
    cfg = parse_config(_coverage_raw(setting="superpopulation", replications=60))
    report = run_coverage(cfg)
    # conservative intervals still cover the analytic truth of 0.5
    for row in report.rows:
        if row["method"] != "clt":
            assert row["coverage_rate"] >= 0.9


def test_coverage_skips_infeasible_grouped_cells(caplog):
    raw = _coverage_raw(grid={"n": [100], "pi": ["1/3", "1/10"], "alpha": [0.05]})
    cfg = parse_config(raw)
    with caplog.at_level("WARNING"):
        report = run_coverage(cfg)
    methods_by_pi = {}
    for row in report.rows:
        methods_by_pi.setdefault(row["pi"], []).append(row["method"])
    feasible = methods_by_pi[0.1]
    infeasible = methods_by_pi[1 / 3]
    assert "hoeff-mbcr" in feasible and "studentized" in feasible
    assert "hoeff-mbcr" not in infeasible
    assert "sub-bernoulli-bern" in infeasible
    assert any("non-integer treated count" in rec.message for rec in caplog.records)


def test_coverage_skips_infeasible_layouts(caplog):
    raw = _coverage_raw(grid={"n": [19], "pi": ["8/19"], "alpha": [0.05]},
                        replications=10)
    cfg = parse_config(raw)
    with caplog.at_level("WARNING"):
        report = run_coverage(cfg)
    assert all(row["method"] == "sub-bernoulli-bern" for row in report.rows)


def test_coverage_extreme_alpha_smoke():
    raw = _coverage_raw(grid={"n": [100], "pi": ["1/10"], "alpha": [1 - 1e-9]},
                        replications=8)
    report = run_coverage(parse_config(raw))
    for row in report.rows:
        assert math.isfinite(row["mean_halfwidth"])


def test_coverage_skips_studentized_cells_with_too_few_groups(caplog):
    # n = 20 at pi = 1/10 gives two groups, and a Bernoulli draw of n = 3
    # gives three units; cross-fitting needs four, so only those
    # (cell, method) pairs are skipped and the run goes on
    raw = _coverage_raw(
        grid={"n": [3, 20, 40], "pi": ["1/10"], "alpha": [0.05]},
        methods=["hoeff-mbcr", "studentized", "sub-bernoulli-bern", "studentized-bern"],
        replications=3,
    )
    with caplog.at_level("WARNING"):
        report = run_coverage(parse_config(raw))
    methods_by_n = {}
    for row in report.rows:
        methods_by_n.setdefault(row["n"], []).append(row["method"])
    assert methods_by_n[3] == ["sub-bernoulli-bern"]
    assert methods_by_n[20] == ["hoeff-mbcr", "sub-bernoulli-bern", "studentized-bern"]
    assert methods_by_n[40] == raw["methods"]
    skipped = [
        rec.message for rec in caplog.records if "groups, fewer than" in rec.message
    ]
    assert len(skipped) == 2
    assert any("n=20" in msg and "skipping studentized:" in msg for msg in skipped)
    assert any("n=3," in msg and "skipping studentized-bern:" in msg for msg in skipped)


@pytest.mark.parametrize("setting", ["design_based", "superpopulation"])
def test_fixed_table_read_once_per_cell(tmp_path, monkeypatch, setting):
    import numpy as np

    from tightci.estimator import PotentialTable

    path = tmp_path / "table.csv"
    rng = np.random.default_rng(8)
    y0 = rng.uniform(0.0, 0.5, 40)
    PotentialTable(y0, y0 + 0.25).to_csv(path)
    reads = []
    original = PotentialTable.from_csv.__func__

    def counting(cls, *args, **kwargs):
        reads.append(args[0])
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(PotentialTable, "from_csv", classmethod(counting))
    raw = _coverage_raw(
        grid={"n": [40], "pi": ["1/10", "1/20"], "alpha": [0.05]},
        methods=["hoeff-mbcr", "sub-bernoulli-bern"],
        dgp={"kind": "fixed_table", "path": str(path)},
        replications=40,
        setting=setting,
    )
    report = run_coverage(parse_config(raw))
    assert len(report.rows) == 4
    assert len(reads) == 2  # one per cell, not one per replication


def test_closed_form_widths_computed_once_per_cell(monkeypatch):
    import dataclasses

    from tightci import intervals

    calls = {}
    for m, spec in list(intervals.METHOD_TABLE.items()):
        if spec.closed is None:
            continue

        def counting(*args, _m=m, _closed=spec.closed):
            calls[_m] = calls.get(_m, 0) + 1
            return _closed(*args)

        monkeypatch.setitem(
            intervals.METHOD_TABLE, m, dataclasses.replace(spec, closed=counting)
        )
    closed = [
        "hoeff-mbcr",
        "sub-bernoulli-mbcr",
        "sub-bernoulli-bern",
        "naive-hoeffding",
    ]
    raw = _coverage_raw(
        grid={"n": [100, 200], "pi": ["1/10"], "alpha": [0.05]},
        methods=closed + ["studentized"],
        replications=40,
    )
    report = run_coverage(parse_config(raw))
    assert len(report.rows) == 10
    assert calls == {m: 2 for m in closed}  # two cells, not 2 x 40 replications


def test_grouped_replication_inverts_eta_once(monkeypatch):
    from tightci import design

    calls = []
    original = design.inverse_permutation

    def counting(perm):
        calls.append(perm.shape[0])
        return original(perm)

    monkeypatch.setattr(design, "inverse_permutation", counting)
    raw = _coverage_raw(methods=["hoeff-mbcr", "studentized"], replications=1)
    report = run_coverage(parse_config(raw))
    assert len(report.rows) == 2
    # ht_mbcr and both group-sum variants share one cached inverse
    assert calls == [200]


def _count_builds(monkeypatch, cls, name, calls):
    """Replace the cached property ``cls.name`` by one that logs each build."""
    import functools

    build = cls.__dict__[name].func

    def counting(self):
        calls.append(name)
        return build(self)

    prop = functools.cached_property(counting)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)


@pytest.mark.parametrize(
    "methods,built",
    [
        (
            ["clt", "studentized-bern", "sub-bernoulli-bern"],
            ["unit_coef", "unit_terms"],
        ),
        (["hoeff-mbcr", "studentized"], ["slot_coef", "slot_y", "slot_terms"]),
    ],
)
def test_replication_builds_its_coefficient_once(monkeypatch, methods, built):
    from tightci.design import Assignment, MbcrDraw
    from tightci.estimator import ObservedData

    calls = []
    for cls, name in (
        (Assignment, "unit_coef"),
        (MbcrDraw, "slot_coef"),
        (ObservedData, "unit_terms"),
        (ObservedData, "slot_y"),
        (ObservedData, "slot_terms"),
    ):
        _count_builds(monkeypatch, cls, name, calls)
    raw = _coverage_raw(methods=methods, replications=1, setting="superpopulation")
    report = run_coverage(parse_config(raw))
    assert len(report.rows) == len(methods)
    # the estimator and every interval of the replication share one build each
    assert sorted(calls) == sorted(built)


def test_normal_quantile_computed_once_per_alpha(monkeypatch):
    from tightci import intervals

    calls = []
    real = intervals.norm

    class CountingNorm:
        @staticmethod
        def ppf(q):
            calls.append(q)
            return real.ppf(q)

    intervals._z_quantile.cache_clear()
    monkeypatch.setattr(intervals, "norm", CountingNorm)
    raw = _coverage_raw(
        grid={"n": [200, 400], "pi": ["1/10"], "alpha": [0.05, 0.1]},
        methods=["clt"],
        replications=30,
    )
    report = run_coverage(parse_config(raw))
    assert len(report.rows) == 4
    assert sorted(calls) == [1.0 - 0.1 / 2.0, 1.0 - 0.05 / 2.0]


def test_split_divisors_built_once_per_group_count():
    from tightci import intervals

    intervals._split_divisors.cache_clear()
    raw = _coverage_raw(
        grid={"n": [200, 400], "pi": ["1/10"], "alpha": [0.05]},
        methods=["studentized"],
        replications=30,
    )
    report = run_coverage(parse_config(raw))
    assert len(report.rows) == 2
    info = intervals._split_divisors.cache_info()
    # groups of ten: 20 and 40 group sums; two sides per replication
    assert info.misses == 2
    assert info.hits == 2 * 30 * 2 - 2
    for tbar in (20, 40):
        for div in intervals._split_divisors(tbar):
            assert not div.flags.writeable
            with pytest.raises(ValueError):
                div[0] = 1.0


def test_clt_reevaluates_bit_for_bit_with_the_shared_quantile():
    import numpy as np
    from scipy.stats import norm

    from tightci.design import draw_bernoulli
    from tightci.estimator import ObservedData, PotentialTable
    from tightci.intervals import _z_quantile, clt_ci, reevaluate

    rng = np.random.default_rng(21)
    y0 = rng.uniform(0.0, 0.1, 20000)
    table = PotentialTable(y0, y0)
    for alpha in (0.05, 0.01, 0.2):
        _z_quantile.cache_clear()
        data = ObservedData.realize(table, draw_bernoulli(20000, 0.01, rng))
        ci = clt_ci(data, alpha)
        assert reevaluate("clt", alpha, ci.tuning) == (ci.lower, ci.upper)
        # the quantile is the one a direct norm.ppf call gives
        zq = float(norm.ppf(1.0 - alpha / 2.0))
        assert ci.tuning["half_width"] == zq * math.sqrt(ci.tuning["vhat"] / 20000)


def test_cell_pickles_to_the_same_size_after_a_draw():
    import pickle

    from tightci.harness import _build_cells, _coverage_chunk

    config = parse_config(
        _coverage_raw(
            grid={"n": [1000, 5000], "pi": ["1/10"], "alpha": [0.05]},
            methods=["hoeff-mbcr", "sub-bernoulli-mbcr", "studentized"],
            replications=2,
        )
    )
    for cell in _build_cells(config):
        before = len(pickle.dumps(cell))
        _coverage_chunk(config, cell, 0, 2)
        # the layout's cached constants stay out of the pickled task
        assert len(pickle.dumps(cell)) == before


# ---------------------------------------------------------------------------
# Width scaling runner


def test_width_scaling_exact_identity():
    raw = {
        "experiment": "width_scaling",
        "grid": {"n": [10**6], "pi": ["1/1000"], "alpha": [0.05]},
        "methods": [
            "hoeff-mbcr",
            "sub-bernoulli-bern",
            "sub-bernoulli-mbcr",
            "naive-hoeffding",
        ],
        "replications": 1,
        "seed": 0,
    }
    report = run_width_scaling(parse_config(raw))
    by_method = {row["method"]: row for row in report.rows}
    assert by_method["hoeff-mbcr"]["width_times_sqrt_npi"] == pytest.approx(
        math.sqrt(2 * LN40), abs=1e-12
    )
    assert by_method["sub-bernoulli-bern"]["width_times_sqrt_npi"] == pytest.approx(
        math.sqrt(4 * LN40), rel=0.05
    )
    assert by_method["sub-bernoulli-mbcr"]["width_times_sqrt_npi"] == pytest.approx(
        math.sqrt(8 * LN40), rel=0.05
    )


def test_width_scaling_naive_diverges():
    raw = {
        "experiment": "width_scaling",
        "grid": {"n": [10**6], "pi": ["1/10", "1/100", "1/1000"], "alpha": [0.05]},
        "methods": ["naive-hoeffding"],
        "replications": 1,
        "seed": 0,
    }
    report = run_width_scaling(parse_config(raw))
    scaled = [row["width_times_sqrt_npi"] for row in report.rows]
    assert scaled[1] / scaled[0] == pytest.approx(math.sqrt(10), rel=0.1)
    assert scaled[2] / scaled[1] == pytest.approx(math.sqrt(10), rel=0.05)


def test_width_scaling_samples_no_table(monkeypatch):
    from tightci import harness

    raw = {
        "experiment": "width_scaling",
        "grid": {"n": [100000], "pi": ["1/10", "1/100"], "alpha": [0.05]},
        "methods": ["hoeff-mbcr", "naive-hoeffding"],
        "replications": 1,
        "seed": 0,
    }
    plain = run_width_scaling(parse_config(raw))
    calls = []
    monkeypatch.setattr(
        harness, "sample_population", lambda *args: calls.append(args)
    )
    raw["dgp"] = {"kind": "uniform_shift", "lo": 0.1, "hi": 0.5, "shift": 0.5}
    with_dgp = run_width_scaling(parse_config(raw))
    assert calls == []
    assert with_dgp.to_csv_bytes() == plain.to_csv_bytes()


def test_width_scaling_rejects_adaptive_methods():
    raw = {
        "experiment": "width_scaling",
        "grid": {"n": [100], "pi": [0.1], "alpha": [0.05]},
        "methods": ["studentized"],
        "replications": 1,
        "seed": 0,
    }
    with pytest.raises(ConfigError, match="width_scaling"):
        parse_config(raw)


# ---------------------------------------------------------------------------
# RMSE runner


def test_rmse_runner_reports_bounds():
    raw = {
        "experiment": "rmse",
        "grid": {"n": [400], "pi": ["1/10"], "alpha": [0.05]},
        "methods": ["ht-mbcr", "ht-bernoulli"],
        "dgp": {"kind": "uniform_shift", "lo": 0.1, "hi": 0.5, "shift": 0.5},
        "replications": 400,
        "seed": 5,
        "setting": "design_based",
    }
    report = run_rmse(parse_config(raw))
    by_method = {row["method"]: row for row in report.rows}
    assert by_method["ht-mbcr"]["rmse_bound"] == pytest.approx(2 / math.sqrt(40))
    assert by_method["ht-bernoulli"]["rmse_bound"] == pytest.approx(
        math.sqrt(2 / 40)
    )
    for row in report.rows:
        assert 0 <= row["rmse"] <= row["rmse_bound"]


def test_rmse_zero_for_constant_null_table_grouped():
    raw = {
        "experiment": "rmse",
        "grid": {"n": [100], "pi": ["1/10"], "alpha": [0.05]},
        "methods": ["ht-mbcr"],
        "dgp": {"kind": "uniform_null", "lo": 0.3, "hi": 0.30001},
        "replications": 50,
        "seed": 6,
        "setting": "design_based",
    }
    report = run_rmse(parse_config(raw))
    # within-group weights cancel, so the estimate is (near) zero every draw
    assert report.rows[0]["rmse"] == pytest.approx(0.0, abs=1e-5)


def test_rmse_bound_unknown_method():
    with pytest.raises(ConfigError):
        rmse_bound("hoeff-mbcr", 100, 0.1)


# ---------------------------------------------------------------------------
# Equivalence runner


def test_equivalence_exact_6_2():
    report = run_equivalence(6, 2)
    assert report.summary == {
        "exact": True,
        "uniform": True,
        "total": 25920,
        "distinct_assignments": 15,
    }
    assert len(report.rows) == 15
    for row in report.rows:
        assert row["count"] == 1728
        assert row["probability"] == "1/15"
        assert len(row["assignment"]) == 6


def test_equivalence_budget_error_suggests_fallback():
    with pytest.raises(EnumerationBudgetError, match="chi-square"):
        run_equivalence(10, 5)


def test_equivalence_approximate_fallback():
    report = run_equivalence(4, 2, approximate=True, draws=3000, seed=1)
    assert report.summary["approximate"] is True
    assert 0.0 <= report.summary["chi2_pvalue"] <= 1.0
    assert sum(row["count"] for row in report.rows) == 3000
    assert "not a proof" in report.summary["note"]


def test_equivalence_approximate_budget_refused(monkeypatch):
    from tightci import harness

    def no_draws(*args):
        raise AssertionError("drew before checking the budget")

    # C(40, 20) = 137846528820 arrangements is over the default budget of
    # 10**8; the refusal comes from that count alone.
    assert math.comb(40, 20) > 10**8
    monkeypatch.setattr(harness, "draw_mbcr", no_draws)
    with pytest.raises(EnumerationBudgetError, match="137846528820 arrangements"):
        run_equivalence(40, 20, approximate=True)
    with pytest.raises(EnumerationBudgetError, match="budget of 14"):
        run_equivalence(6, 2, approximate=True, budget=14, draws=10)
    # the draws count against the same budget
    with pytest.raises(EnumerationBudgetError, match="makes 300 draws"):
        run_equivalence(6, 2, approximate=True, budget=15, draws=300)
    monkeypatch.undo()
    report = run_equivalence(6, 2, approximate=True, budget=15, draws=15)
    assert len(report.rows) == 15


def test_equivalence_infeasible_layout():
    with pytest.raises(LayoutInfeasibleError):
        run_equivalence(19, 8)


# ---------------------------------------------------------------------------
# Serialization


def test_write_outputs_reproducible(tmp_path):
    cfg = parse_config(_coverage_raw(replications=16))
    report = run_experiment(cfg)
    first = write_outputs(tmp_path / "a", report, cfg)
    second = write_outputs(tmp_path / "b", run_experiment(cfg), cfg)
    assert first["csv"].read_bytes() == second["csv"].read_bytes()
    assert first["manifest"].read_bytes() == second["manifest"].read_bytes()
    manifest = json.loads(first["manifest"].read_text())
    assert manifest["schema_version"] == "1"
    assert manifest["seed"] == 3
    import hashlib

    digest = hashlib.sha256(first["csv"].read_bytes()).hexdigest()
    assert manifest["outputs"]["coverage.csv"] == digest


def test_write_outputs_failed_manifest_moves_nothing(tmp_path, monkeypatch):
    from pathlib import Path

    cfg = parse_config(_coverage_raw(replications=8))
    out = tmp_path / "out"
    report = run_experiment(cfg)
    report.summary = {"unserializable": object()}
    with pytest.raises(TypeError):
        write_outputs(out, report, cfg)
    assert list(out.glob("*.csv")) == []
    original = Path.write_bytes

    def failing(self, data):
        if self.name.startswith(".manifest.json"):
            raise OSError("disk full")
        return original(self, data)

    monkeypatch.setattr(Path, "write_bytes", failing)
    with pytest.raises(OSError, match="disk full"):
        write_outputs(out, run_experiment(cfg), cfg)
    assert list(out.iterdir()) == []
    # An earlier complete pair is left as it was, not half replaced.
    monkeypatch.undo()
    write_outputs(out, run_experiment(cfg), cfg)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.setattr(Path, "write_bytes", failing)
    cfg2 = parse_config(_coverage_raw(replications=9))
    with pytest.raises(OSError, match="disk full"):
        write_outputs(out, run_experiment(cfg2), cfg2)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert sorted(before) == ["coverage.csv", "manifest.json"]


def test_csv_header_and_quoting(tmp_path):
    cfg = parse_config(_coverage_raw(replications=8))
    report = run_experiment(cfg)
    text = report.to_csv_bytes().decode("utf-8")
    header = text.splitlines()[0]
    assert header.startswith("schema_version,method,n,pi,alpha,coverage_rate")
    from tightci.harness import _csv_field

    assert _csv_field('with,comma') == '"with,comma"'
    assert _csv_field('with"quote') == '"with""quote"'
    assert _csv_field(None) == ""
    assert _csv_field(0.1) == "0.1"


# ---------------------------------------------------------------------------
# Golden report digests
#
# sha256 of the CSV bytes of small reports.  Reruns only show that a
# report matches itself; these pins show that a change to the runner leaves
# every byte as it was.  The coverage grid holds tiling layouts, tails with
# one and two spilled treated units, grouped cells skipped for a
# non-integer treated count, and at n = 40 a Bernoulli draw with an empty
# arm, so the plug-in normal interval's recorded miss is pinned too.

_ALL_COVERAGE_METHODS = [
    "hoeff-mbcr",
    "sub-bernoulli-mbcr",
    "studentized",
    "sub-bernoulli-bern",
    "naive-hoeffding",
    "clt",
    "studentized-bern",
]


def _golden_coverage_raw(setting):
    return _coverage_raw(
        grid={"n": [40, 45, 200], "pi": ["1/10", "3/20"], "alpha": [0.05]},
        methods=_ALL_COVERAGE_METHODS,
        replications=60,
        seed=11,
        setting=setting,
    )


def _sha256(report):
    import hashlib

    return hashlib.sha256(report.to_csv_bytes()).hexdigest()


def test_golden_coverage_design_based():
    report = run_coverage(parse_config(_golden_coverage_raw("design_based")))
    assert len(report.rows) == 36
    assert _sha256(report) == (
        "ee0f4a510426818fc4f438fac431f941eaf0b4b2827e8dfb8814fc05dee7e306"
    )


def test_golden_coverage_superpopulation():
    report = run_coverage(parse_config(_golden_coverage_raw("superpopulation")))
    assert len(report.rows) == 36
    assert _sha256(report) == (
        "2e166d18ac8d93fa5b918d368021dad51aac8c7eae39bdfa04b4fd871455bc6c"
    )


def test_golden_width_scaling_fig1():
    from pathlib import Path

    config = Path(__file__).resolve().parent.parent / "configs" / "fig1.json"
    report = run_width_scaling(load_config(config))
    assert _sha256(report) == (
        "5d68c69d74f277163bd841a248713dc64a5a01982ed0b7dadb96f7964b255d86"
    )


def test_golden_rmse():
    raw = {
        "experiment": "rmse",
        "grid": {"n": [45, 200], "pi": ["1/10"], "alpha": [0.05]},
        "methods": ["ht-mbcr", "ht-bernoulli"],
        "dgp": {"kind": "uniform_shift", "lo": 0.1, "hi": 0.5, "shift": 0.5},
        "replications": 50,
        "seed": 11,
        "setting": "design_based",
    }
    report = run_rmse(parse_config(raw))
    assert len(report.rows) == 3
    assert _sha256(report) == (
        "d7b6a86c7cfc5a2fcda54a218febe30defaa83013b9993541a8bab15dbc36d8d"
    )


def test_golden_benchmark_shapes():
    # The shapes of the bernoulli-superpop and rmse-large-n benchmark
    # workloads, in few replications: the Bernoulli path's CLT and
    # Studentized widths at a small propensity, and both estimators at
    # n = 100,000.
    coverage = {
        "experiment": "coverage",
        "grid": {"n": [20000], "pi": ["1/100"], "alpha": [0.05]},
        "methods": ["clt", "studentized-bern", "sub-bernoulli-bern", "naive-hoeffding"],
        "dgp": {"kind": "uniform_null", "lo": 0.0, "hi": 0.1},
        "replications": 3,
        "seed": 11,
        "setting": "superpopulation",
    }
    report = run_coverage(parse_config(coverage))
    assert len(report.rows) == 4
    assert _sha256(report) == (
        "30804780b0dd443de8ef904fec024e8ef86c5d9c8e3638488eb4087183f95c83"
    )
    rmse = {
        "experiment": "rmse",
        "grid": {"n": [100000], "pi": ["1/1000"], "alpha": [0.05]},
        "methods": ["ht-mbcr", "ht-bernoulli"],
        "dgp": {"kind": "uniform_shift", "lo": 0.1, "hi": 0.5, "shift": 0.5},
        "replications": 2,
        "seed": 11,
        "setting": "design_based",
    }
    report = run_rmse(parse_config(rmse))
    assert len(report.rows) == 2
    assert _sha256(report) == (
        "50d743e8200a5ffa065a7e8245824eaf17e6053b9f372c7b7811d9cd4a9d04b1"
    )
