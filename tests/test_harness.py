"""Config validation, runner determinism, and report serialization."""

import itertools
import json
import math
import os
import pickle
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tightci.design import MAX_N, MIN_PI, EnumerationBudgetError, LayoutInfeasibleError
from tightci.harness import (
    ConfigError,
    load_config,
    parse_config,
    parse_propensity,
    rmse_bound,
    run_equivalence,
    run_experiment,
    run_monte_carlo,
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
    # the floor is MIN_PI, the smallest propensity accepted
    assert parse_propensity(MIN_PI) >= MIN_PI
    # a refused value is named to six significant digits, not as a Fraction
    # of hundreds of digits (past 4300 digits, str() of one raises ValueError)
    floor_cases = [
        (1e-309, "1e-309"),
        ("1e-308", "1e-308"),
        (f"1/{10**400}", "1e-400"),
        ("1e-5000", "1e-5000"),
    ]
    for value, shown in floor_cases:
        with pytest.raises(ConfigError, match="below the floor") as info:
            parse_propensity(value)
        message = str(info.value)
        assert len(message) < 120 and f"propensity {shown} below" in message, message
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
    ("config", _equivalence_raw(approximate=False)),
    ("config", _equivalence_raw(draws=10)),
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
    ("config.methods[1]", _coverage_raw(methods=["clt", "clt", "hoeff-mbcr"])),
    ("config.grid.n[1]", _coverage_raw(grid={**_GRID, "n": [100, MAX_N + 1]})),
    ("config.grid.n[0]", _coverage_raw(grid={**_GRID, "n": [10**400]})),
]


@pytest.mark.parametrize(
    "where, raw", _REJECTIONS, ids=[f"{i:02d}-{w}" for i, (w, _) in enumerate(_REJECTIONS)]
)
def test_parse_config_rejections_name_the_field(where, raw):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(raw)
    assert str(excinfo.value).startswith(where + ":")


_NULL_DGP = {"kind": "uniform_null", "lo": 0.0, "hi": 0.1}
_SHIFT_DGP = {"kind": "uniform_shift", "lo": 0.1, "hi": 0.5, "shift": 0.5}
_TABLE_DGP = {"kind": "fixed_table", "path": "table.csv"}


@pytest.mark.parametrize(
    "dgp, stray",
    [
        (_NULL_DGP, {"shift": 0.7}),
        (_NULL_DGP, {"path": "table.csv"}),
        (_SHIFT_DGP, {"path": "table.csv"}),
        (_TABLE_DGP, {"lo": 0.3}),
        (_TABLE_DGP, {"hi": 0.2}),
        (_TABLE_DGP, {"shift": 0.0}),
        (_TABLE_DGP, {"lo": 0.3, "hi": 0.2}),
    ],
    ids=["null-shift", "null-path", "shift-path", "table-lo", "table-hi",
         "table-shift", "table-lo-above-hi"],
)
def test_parse_config_refuses_a_dgp_field_its_kind_does_not_read(dgp, stray):
    # the kind's own fields parse; one it would ignore is refused by name
    assert parse_config(_coverage_raw(dgp=dgp)).dgp.kind == dgp["kind"]
    with pytest.raises(ConfigError) as excinfo:
        parse_config(_coverage_raw(dgp={**dgp, **stray}))
    assert str(excinfo.value) == f"config.dgp: unknown field(s) {sorted(stray)}"


@pytest.mark.parametrize(
    "overrides, where",
    [
        ({"methods": [["hoeff-mbcr"]]}, "config.methods[0]"),
        ({"dgp": {"kind": "fixed_table", "path": 7}}, "config.dgp.path"),
        ({"dgp": {"kind": "uniform_shift", "lo": 0.1, "hi": True}}, "config.dgp.hi"),
        ({"dgp": {"kind": "uniform_shift", "lo": "0.2", "hi": 0.5}}, "config.dgp.lo"),
        ({"dgp": {"kind": "uniform_shift", "shift": float("nan")}}, "config.dgp.shift"),
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
    raw = {"experiment": "equivalence", "n": 6, "n1": 2, "seed": 0, "budget": True}
    with pytest.raises(ConfigError, match="config.budget"):
        parse_config(raw)


def test_equivalence_budget_capped():
    from tightci.design import MAX_ENUMERATION_BUDGET

    raw = {"experiment": "equivalence", "n": 6, "n1": 2, "seed": 0}
    assert parse_config({**raw, "budget": MAX_ENUMERATION_BUDGET}).budget == (
        MAX_ENUMERATION_BUDGET
    )
    with pytest.raises(ConfigError, match=f"config.budget: .*<= {MAX_ENUMERATION_BUDGET}"):
        parse_config({**raw, "budget": MAX_ENUMERATION_BUDGET + 1})


class SerialChild:
    """Stands in for a forked slice's pipe and starts no work of its own:
    reading it runs the slice in this process, as the child would, and gives
    the child's pickled record.  It keeps the task and the config and cells
    it was started with."""

    def __init__(self, task, config, cells):
        self.task, self.config, self.cells = task, config, cells

    def read(self):
        from tightci import harness

        records = harness._run_slice(self.task, self.config, self.cells)
        return pickle.dumps((True, records))

    def close(self):
        pass


@pytest.fixture
def serial_children(monkeypatch):
    """Run the harness's forked slices as :class:`SerialChild` pipes, read
    after the parent's own slice; the children started, in order.  Each
    start also forks a placeholder that exits at once, so the parent reaps a
    real process."""
    from tightci import harness

    children = []

    def start(task, config, cells):
        children.append(SerialChild(task, config, cells))
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        return pid, children[-1]

    monkeypatch.setattr(harness, "_fork_slice", start)
    return children


def _report_cpus(monkeypatch, count):
    """Make the harness see ``count`` usable CPUs: an affinity mask of that
    many, on any platform."""
    mask = set(range(count))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask, raising=False)


def _children_per_run(children):
    """How many children each run started; a run's children share its cells."""
    runs = itertools.groupby(children, lambda child: id(child.cells))
    return [len(list(run)) for _, run in runs]


def _assert_no_child_left():
    # multiprocessing.active_children() cannot see bare forks; waitpid can
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_count_set_by_the_flag_alone(
    monkeypatch, tmp_path, capsys, serial_children
):
    from tightci import cli

    # the flag alone sets the count; the environment does not override it
    monkeypatch.setenv("TIGHTCI_THREADS", "3")
    _report_cpus(monkeypatch, 64)
    config = tmp_path / "c.json"
    config.write_text(json.dumps(_coverage_raw(methods=["hoeff-mbcr"], replications=8)))
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert serial_children == []  # no flag: one worker, no child
    assert cli.main([*argv, "--workers", "4"]) == 0
    assert cli.main([*argv, "--workers", "8"]) == 0
    assert _children_per_run(serial_children) == [3, 7]
    capsys.readouterr()
    # a count below 1 is refused before anything runs
    refused = ["simulate", "--config", str(config), "--out", str(tmp_path / "none")]
    assert cli.main([*refused, "--workers", "0"]) == 1
    assert capsys.readouterr().err == "error: worker count must be >= 1, got 0\n"
    assert not (tmp_path / "none").exists()
    with pytest.raises(ConfigError, match="worker count must be >= 1, got 0"):
        run_experiment(parse_config(_coverage_raw()), workers=0)
    assert len(serial_children) == 10
    _assert_no_child_left()


def test_worker_count_clamped_to_cpus_and_tasks(monkeypatch, caplog, serial_children):
    cfg = parse_config(_coverage_raw(replications=40))
    serial = run_monte_carlo(cfg, workers=1).to_csv_bytes()
    assert serial_children == []
    # 40 cell-replications are more than the 4 CPUs; the parent is one of 4
    _report_cpus(monkeypatch, 4)
    with caplog.at_level("WARNING", logger="tightci.harness"):
        assert run_monte_carlo(cfg, workers=10_000).to_csv_bytes() == serial
    assert _children_per_run(serial_children) == [3]
    clamps = [r for r in caplog.records if "requested workers" in r.getMessage()]
    assert len(clamps) == 1
    assert "using 4 of the 10000 requested workers" in clamps[0].getMessage()
    # three replications make three cell-replications, fewer than the CPUs
    _report_cpus(monkeypatch, 64)
    assert run_monte_carlo(parse_config(_coverage_raw(replications=3)), workers=10_000)
    assert _children_per_run(serial_children) == [3, 2]
    # two workers on two CPUs with many tasks run as asked, with no clamp
    _report_cpus(monkeypatch, 2)
    caplog.clear()
    with caplog.at_level("WARNING", logger="tightci.harness"):
        assert run_monte_carlo(cfg, workers=2).to_csv_bytes() == serial
    assert _children_per_run(serial_children) == [3, 2, 1]
    assert not [r for r in caplog.records if "requested workers" in r.getMessage()]
    _assert_no_child_left()


def test_no_fork_runs_one_process_and_says_why(monkeypatch, caplog):
    from tightci import harness

    cfg = parse_config(_coverage_raw(replications=40))
    serial = run_monte_carlo(cfg, workers=1).to_csv_bytes()
    _report_cpus(monkeypatch, 4)
    monkeypatch.delattr(harness.os, "fork")
    with caplog.at_level("WARNING", logger="tightci.harness"):
        assert run_monte_carlo(cfg, workers=3).to_csv_bytes() == serial
    clamps = [r.getMessage() for r in caplog.records]
    assert clamps == ["using 1 of the 3 requested workers (no os.fork on this platform)"]
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_one_cpu_mask_runs_two_workers_as_one(
    tmp_path, capsys, caplog, serial_children
):
    from tightci import cli

    # a real mask, as taskset or a container cpuset sets it
    config = tmp_path / "c.json"
    config.write_text(json.dumps(_coverage_raw(replications=8)))
    mask = os.sched_getaffinity(0)
    outputs = []
    for workers, cpus in ((1, mask), (2, {min(mask)})):
        out = tmp_path / str(workers)
        os.sched_setaffinity(0, cpus)
        try:
            with caplog.at_level("WARNING", logger="tightci.harness"):
                code = cli.main(["simulate", "--config", str(config), "--out", str(out),
                                 "--workers", str(workers)])
        finally:
            os.sched_setaffinity(0, mask)
        assert code == 0
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        outputs.append((capsys.readouterr().out.replace(str(out), "OUT"), files))
    assert serial_children == []  # the mask leaves one process: nothing forks
    assert outputs[0] == outputs[1]
    clamps = [r.getMessage() for r in caplog.records if "requested workers" in r.getMessage()]
    assert clamps == ["using 1 of the 2 requested workers (1 usable CPUs, 8 cell-replications)"]
    _assert_no_child_left()


@pytest.mark.parametrize(
    "ns,reps,workers,cpus",
    [
        ([100], 1, 4, 4),  # one cell-replication: no child
        ([101], 5, 2, 2),  # every method skipped: nothing to run
        ([100, 101, 200], 3, 4, 8),  # fewer replications than processes
        ([100, 200, 300], 2, 8, 5),
        ([100, 200], 40, 3, 3),
        ([100, 101, 200, 300], 7, 16, 3),
        ([100, 200], 9, 2, 64),
    ],
)
def test_schedule_runs_each_replication_once_in_balanced_slices(
    monkeypatch, caplog, serial_children, ns, reps, workers, cpus
):
    from tightci import harness

    calls, started = [], []
    real = harness._coverage_chunk

    def recording(config, cell, start, stop):
        calls.append((cell.idx, start, stop))
        started.append(len(serial_children))
        return real(config, cell, start, stop)

    raw = _coverage_raw(
        grid={"n": ns, "pi": ["1/10"], "alpha": [0.05]},
        methods=["hoeff-mbcr"],  # n = 101 has no grouped layout at pi = 1/10
        replications=reps,
    )
    cfg = parse_config(raw)
    serial = run_monte_carlo(cfg, workers=1).to_csv_bytes()
    monkeypatch.setattr(harness, "_coverage_chunk", recording)
    _report_cpus(monkeypatch, cpus)
    with caplog.at_level("WARNING", logger="tightci.harness"):
        assert run_monte_carlo(cfg, workers=workers).to_csv_bytes() == serial
    active = [idx for idx, n in enumerate(ns) if n % 10 == 0]
    used = max(1, min(workers, cpus, reps * len(active)))
    assert _children_per_run(serial_children) == ([used - 1] if used > 1 else [])
    clamps = [r.getMessage() for r in caplog.records if "requested workers" in r.getMessage()]
    if used < workers:
        assert clamps == [
            f"using {used} of the {workers} requested workers "
            f"({cpus} usable CPUs, {reps * len(active)} cell-replications)"
        ]
    else:
        assert clamps == []
    # the children's tasks are slices 1 .. used - 1; the parent ran the rest
    tasks = [child.task for child in serial_children]
    assert len(tasks) == max(0, used - 1)
    # every child is started before any range runs, so the parent's overlap them
    assert set(started) <= {len(tasks)}
    forked = [rng for task in tasks for rng in task]
    parent = [rng for rng in calls if rng not in forked]
    assert sorted(parent + forked) == sorted(calls)
    processes = [parent, *tasks]
    for cell in active:
        sizes = []
        for ranges in processes:
            own = [(start, stop) for idx, start, stop in ranges if idx == cell]
            assert len(own) <= 1  # one contiguous range per cell
            sizes.append(own[0][1] - own[0][0] if own else 0)
        assert max(sizes) - min(sizes) <= 1
        covered = sorted((start, stop) for idx, start, stop in calls if idx == cell)
        bounds = [b for start_stop in covered for b in start_stop]
        # the ranges tile 0 .. reps, so every replication runs exactly once
        assert bounds[0] == 0 and bounds[-1] == reps and bounds[1:-1:2] == bounds[2::2]
    assert {idx for idx, _, _ in calls} == set(active)
    totals = [sum(stop - start for _, start, stop in ranges) for ranges in processes]
    assert max(totals) - min(totals) <= 1
    _assert_no_child_left()


def _two_cell_raw(n):
    return _coverage_raw(
        grid={"n": [n, 2 * n], "pi": ["1/100"], "alpha": [0.05]},
        methods=["hoeff-mbcr", "sub-bernoulli-bern"],
        replications=4,
    )


def _child_payload(serial_children, monkeypatch, n):
    """The pickled size of every task started at ``n`` on two workers."""
    _report_cpus(monkeypatch, 2)
    serial_children.clear()
    run_monte_carlo(parse_config(_two_cell_raw(n)), workers=2)
    (child,) = serial_children
    # the cells, tables included, reach the child once, as the parent's own
    assert [cell.table.n for cell in child.cells] == [n, 2 * n]
    return [len(pickle.dumps(child.task))]


def test_child_tasks_carry_only_their_ranges(monkeypatch, serial_children):
    small = _child_payload(serial_children, monkeypatch, 1_000)
    large = _child_payload(serial_children, monkeypatch, 100_000)
    assert len(large) == 1
    assert max(large) < 1024
    assert large == small


def test_forked_child_is_sent_nothing_pickled(monkeypatch):
    _report_cpus(monkeypatch, 2)
    cfg = parse_config(_two_cell_raw(100_000))
    serial = run_monte_carlo(cfg, workers=1).to_csv_bytes()
    pickled = []
    for name in ("dump", "dumps"):
        real = getattr(pickle, name)

        def counting(*args, real=real, **kwargs):
            pickled.append(os.getpid())
            return real(*args, **kwargs)

        monkeypatch.setattr(pickle, name, counting)
    # the child pickles its record, in its own process; the parent pickles
    # nothing, so the config and cells, tables included, are inherited
    assert run_monte_carlo(cfg, workers=2).to_csv_bytes() == serial
    assert os.getpid() not in pickled
    _assert_no_child_left()


def _failing_chunk(monkeypatch, where, fail):
    """Patch the chunk so that ``fail()`` runs in the parent or the child."""
    from tightci import harness

    parent = os.getpid()
    real = harness._coverage_chunk

    def failing(config, cell, start, stop):
        if (os.getpid() == parent) == (where == "parent"):
            fail()
        return real(config, cell, start, stop)

    monkeypatch.setattr(harness, "_coverage_chunk", failing)
    _report_cpus(monkeypatch, 2)


@pytest.mark.parametrize("where", ["parent", "child"])
def test_slice_error_reaches_the_caller_and_leaves_no_process(monkeypatch, where):
    def fail():
        raise ValueError(f"chunk failed in the {where}")

    _failing_chunk(monkeypatch, where, fail)
    cfg = parse_config(_coverage_raw(methods=["hoeff-mbcr"], replications=4))
    with pytest.raises(ValueError, match=f"^chunk failed in the {where}$") as caught:
        run_monte_carlo(cfg, workers=2)
    assert type(caught.value) is ValueError
    _assert_no_child_left()


def test_validation_error_in_a_child_exits_simulate_with_1(
    monkeypatch, tmp_path, capsys
):
    from tightci import cli

    def fail():
        raise ConfigError("config.grid.n[0]: refused in the child")

    _failing_chunk(monkeypatch, "child", fail)
    config = tmp_path / "c.json"
    config.write_text(json.dumps(_coverage_raw(methods=["hoeff-mbcr"], replications=4)))
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(config), "--out", str(out), "--workers", "2"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: config.grid.n[0]: refused in the child\n"
    _assert_no_child_left()


def test_killed_child_gives_a_prompt_error_naming_the_signal(monkeypatch):
    import signal
    import time

    _failing_chunk(monkeypatch, "child", lambda: os.kill(os.getpid(), signal.SIGKILL))
    cfg = parse_config(_coverage_raw(methods=["hoeff-mbcr"], replications=4))
    begun = time.monotonic()
    with pytest.raises(ChildProcessError, match=r"killed by signal 9 \(Killed\)"):
        run_monte_carlo(cfg, workers=2)
    assert time.monotonic() - begun < 10
    _assert_no_child_left()


def test_child_exiting_without_a_record_gives_an_error_naming_its_status(
    monkeypatch,
):
    _failing_chunk(monkeypatch, "child", lambda: os._exit(3))
    cfg = parse_config(_coverage_raw(methods=["hoeff-mbcr"], replications=4))
    with pytest.raises(ChildProcessError) as caught:
        run_monte_carlo(cfg, workers=2)
    message = "process exited with status 3 before it sent its record"
    assert message in str(caught.value)
    _assert_no_child_left()


def test_run_experiment_refuses_an_experiment_it_has_no_runner_for():
    from tightci.harness import ExperimentConfig

    # parse_config refuses such a name; a config built by hand reaches here
    with pytest.raises(ConfigError, match="unknown experiment 'no-such-experiment'"):
        run_experiment(ExperimentConfig(experiment="no-such-experiment", seed=0))


def test_failing_parent_slice_kills_its_children(monkeypatch):
    import time

    from tightci import harness

    begun = time.monotonic()
    parent = os.getpid()

    def stall_or_fail(config, cell, start, stop):
        if os.getpid() != parent:
            time.sleep(600)  # only a kill ends the child in time
        raise ValueError("parent slice failed")

    monkeypatch.setattr(harness, "_coverage_chunk", stall_or_fail)
    _report_cpus(monkeypatch, 3)
    cfg = parse_config(_coverage_raw(methods=["hoeff-mbcr"], replications=6))
    with pytest.raises(ValueError, match="parent slice failed"):
        run_monte_carlo(cfg, workers=3)
    assert time.monotonic() - begun < 30
    _assert_no_child_left()


def test_child_record_larger_than_a_pipe_buffer_arrives_whole(monkeypatch):
    from tightci import harness

    reps = 20_000
    raw = _coverage_raw(
        grid={"n": [100], "pi": ["1/10"], "alpha": [0.05]},
        methods=["hoeff-mbcr"],
        replications=reps,
    )
    cfg = parse_config(raw)
    cells = harness._build_cells(cfg)
    # the child's half of the cell, as it pickles it into its pipe
    record = harness._run_slice([(0, reps // 2, reps)], cfg, cells)
    assert len(pickle.dumps((True, record), pickle.HIGHEST_PROTOCOL)) > 2**16
    serial = harness._run_cells(cfg, cells, 1)
    _report_cpus(monkeypatch, 2)
    forked = harness._run_cells(cfg, cells, 2)
    assert serial.keys() == forked.keys()
    for idx, keys in serial.items():
        assert keys.keys() == forked[idx].keys()
        for key, arr in keys.items():
            assert arr.tobytes() == forked[idx][key].tobytes()
    _assert_no_child_left()


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MONTE_CARLO_CONFIGS = sorted(
    path.name
    for path in CONFIGS.glob("*.json")
    if json.loads(path.read_text())["experiment"] in ("coverage", "rmse")
)


@pytest.mark.parametrize("name", MONTE_CARLO_CONFIGS)
def test_bundled_config_bytes_equal_at_one_two_and_three_workers(
    monkeypatch, tmp_path, name
):
    from tightci import harness

    _report_cpus(monkeypatch, 4)
    forks = []
    real = harness._fork_slice

    def counting(task, config, cells):
        forks.append(task)
        return real(task, config, cells)

    monkeypatch.setattr(harness, "_fork_slice", counting)
    raw = json.loads((CONFIGS / name).read_text())
    cfg = parse_config({**raw, "replications": 24})
    outputs, started = [], []
    for workers in (1, 2, 3):
        out = tmp_path / str(workers)
        write_outputs(out, run_experiment(cfg, workers=workers), cfg)
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        started.append(len(forks))
    assert started == [0, 1, 3]  # three workers really run three processes
    assert outputs[0] == outputs[1] == outputs[2]
    assert set(outputs[0]) == {f"{raw['experiment']}.csv", "manifest.json"}
    _assert_no_child_left()


def test_bundled_monte_carlo_configs_found():
    assert MONTE_CARLO_CONFIGS == ["fig2a.json", "fig2b.json", "fig2c.json", "rmse.json"]


# ---------------------------------------------------------------------------
# Coverage runner


def test_coverage_deterministic_and_worker_independent():
    cfg = parse_config(_coverage_raw(replications=48))
    first = run_monte_carlo(cfg, workers=1).to_csv_bytes()
    again = run_monte_carlo(cfg, workers=1).to_csv_bytes()
    parallel = run_monte_carlo(cfg, workers=4).to_csv_bytes()
    assert first == again == parallel


def test_coverage_rows_shape():
    cfg = parse_config(_coverage_raw())
    report = run_monte_carlo(cfg)
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
    report = run_monte_carlo(cfg)
    # conservative intervals still cover the analytic truth of 0.5
    for row in report.rows:
        if row["method"] != "clt":
            assert row["coverage_rate"] >= 0.9


def test_coverage_skips_infeasible_grouped_cells(caplog):
    raw = _coverage_raw(grid={"n": [100], "pi": ["1/3", "1/10"], "alpha": [0.05]})
    cfg = parse_config(raw)
    with caplog.at_level("WARNING"):
        report = run_monte_carlo(cfg)
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
        report = run_monte_carlo(cfg)
    assert all(row["method"] == "sub-bernoulli-bern" for row in report.rows)


def test_coverage_extreme_alpha_smoke():
    raw = _coverage_raw(grid={"n": [100], "pi": ["1/10"], "alpha": [1 - 1e-9]},
                        replications=8)
    report = run_monte_carlo(parse_config(raw))
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
        report = run_monte_carlo(parse_config(raw))
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

    from reference import write_table_csv
    from tightci.estimator import PotentialTable

    path = tmp_path / "table.csv"
    rng = np.random.default_rng(8)
    y0 = rng.uniform(0.0, 0.5, 40)
    write_table_csv(path, PotentialTable(y0, y0 + 0.25))
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
    report = run_monte_carlo(parse_config(raw))
    assert len(report.rows) == 4
    assert len(reads) == 2  # one per cell, not one per replication


def test_closed_form_widths_computed_once_per_cell(monkeypatch):
    import dataclasses

    from tightci import intervals

    calls = {}
    for m, spec in list(intervals.METHOD_TABLE.items()):
        if spec.tuning is None:
            continue

        def counting(*args, _m=m, _tuning=spec.tuning):
            calls[_m] = calls.get(_m, 0) + 1
            return _tuning(*args)

        monkeypatch.setitem(
            intervals.METHOD_TABLE, m, dataclasses.replace(spec, tuning=counting)
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
    report = run_monte_carlo(parse_config(raw))
    assert len(report.rows) == 10
    assert calls == {m: 2 for m in closed}  # two cells, not 2 x 40 replications


def test_superpopulation_chunk_builds_its_dgp_spec_once(monkeypatch):
    from tightci.dgp import DgpSpec
    from tightci.harness import _build_cells, _coverage_chunk

    built = []
    real = DgpSpec.with_n

    def counting(self, n):
        built.append(n)
        return real(self, n)

    cfg = parse_config(_coverage_raw(setting="superpopulation", replications=7))
    (cell,) = _build_cells(cfg)
    monkeypatch.setattr(DgpSpec, "with_n", counting)
    # every replication samples a table of the one spec the chunk built
    _coverage_chunk(cfg, cell, 0, 7)
    assert built == [cell.n]


@pytest.mark.parametrize("setting", ["design_based", "superpopulation"])
def test_chunk_equals_its_one_replication_chunks(setting):
    from tightci.harness import _build_cells, _coverage_chunk

    # no state may carry over from one replication to the next, so a chunk's
    # record is byte for byte its one-replication chunks' records
    raw = _coverage_raw(
        grid={"n": [1000], "pi": ["3/100"], "alpha": [0.05]},
        methods=["studentized", "studentized-bern", "clt", "hoeff-mbcr", "naive-hoeffding"],
        replications=6,
        setting=setting,
    )
    cfg = parse_config(raw)
    (cell,) = _build_cells(cfg)
    assert cell.layout.tail_size > 0 and len(cell.methods) == 5
    whole = _coverage_chunk(cfg, cell, 0, 6)
    parts = [_coverage_chunk(cfg, cell, rep, rep + 1) for rep in range(6)]
    assert sorted(whole) == sorted(parts[0])
    for key, arr in whole.items():
        joined = np.concatenate([part[key] for part in parts])
        assert arr.dtype == joined.dtype
        assert arr.tobytes() == joined.tobytes()


_SHIFT = {"kind": "uniform_shift", "lo": 0.1, "hi": 0.5, "shift": 0.5}
_NULL = {"kind": "uniform_null", "lo": 0.0, "hi": 0.1}


def _assert_chunk_is_its_draws(cfg, cell, scheme, draws, adaptive):
    """The cell's chunk record equals, byte for byte, the one rebuilt from
    one ``ObservedData`` per draw by ``ht_estimate`` and each adaptive
    builder in ``adaptive``."""
    from tightci.estimator import ht_estimate
    from tightci.harness import _coverage_chunk

    est, lower, upper = [], {m: [] for m in adaptive}, {m: [] for m in adaptive}
    for data in draws:
        est.append(ht_estimate(data))
        for m, build in adaptive.items():
            ci = build(data, cell.alpha)
            lower[m].append(ci.lower)
            upper[m].append(ci.upper)
    expected = {("est", scheme): np.array(est)}
    for m in adaptive:
        expected["lower", m] = np.array(lower[m])
        expected["upper", m] = np.array(upper[m])
    record = _coverage_chunk(cfg, cell, 0, len(est))
    assert sorted(record) == sorted(expected)
    for key, arr in expected.items():
        assert record[key].dtype == arr.dtype
        assert record[key].tobytes() == arr.tobytes(), key


@pytest.mark.parametrize("dgp", [_SHIFT, _NULL], ids=["shift", "null"])
@pytest.mark.parametrize(
    "n, pi, spill",
    [(1000, "1/10", 0), (997, "100/997", 1), (991, "100/991", 2)],
    ids=["tiling", "one-spill", "two-spill"],
)
def test_dense_grouped_chunk_equals_its_draws_realized_one_by_one(
    monkeypatch, n, pi, spill, dgp
):
    from tightci import intervals
    from tightci.design import draw_mbcr
    from tightci.estimator import ObservedData
    from tightci.harness import _DRAW_TAGS, _build_cells, substream

    # the chunk goes from each permutation to slot terms and stacked group
    # sums; every estimate and endpoint must be the bits of the library path:
    # realize, ht_estimate, studentized_ci.  Blocks of five draws make the
    # chunk evaluate more than one block.
    monkeypatch.setattr(intervals, "STUDENTIZED_BLOCK_VALUES", 5 * 100)
    reps = 12
    raw = _coverage_raw(
        grid={"n": [n], "pi": [pi], "alpha": [0.05]},
        methods=["hoeff-mbcr", "studentized"],
        dgp=dgp,
        replications=reps,
    )
    cfg = parse_config(raw)
    (cell,) = _build_cells(cfg)
    assert cell.layout.tail_treated == spill
    at = substream(cfg.seed, cell.idx, _DRAW_TAGS["mbcr"])
    draws = (
        ObservedData.realize(cell.table, draw_mbcr(cell.layout, at(rep)))
        for rep in range(reps)
    )
    adaptive = {"studentized": intervals.studentized_ci}
    _assert_chunk_is_its_draws(cfg, cell, "mbcr", draws, adaptive)


@pytest.mark.parametrize("dgp", [_SHIFT, _NULL], ids=["shift", "null"])
def test_dense_bernoulli_chunk_equals_its_draws_realized_one_by_one(dgp):
    from tightci import intervals
    from tightci.design import draw_bernoulli
    from tightci.dgp import sample_population
    from tightci.estimator import ObservedData
    from tightci.harness import _DRAW_TAGS, _TAG_REP_TABLE, _build_cells, substream

    # the Bernoulli draws keep the ObservedData that realize builds
    reps = 12
    raw = _coverage_raw(
        grid={"n": [2000], "pi": ["1/100"], "alpha": [0.05]},
        methods=["clt", "studentized-bern"],
        dgp=dgp,
        replications=reps,
        setting="superpopulation",
    )
    cfg = parse_config(raw)
    (cell,) = _build_cells(cfg)
    at = substream(cfg.seed, cell.idx, _DRAW_TAGS["bernoulli"])
    tables = substream(cfg.seed, cell.idx, _TAG_REP_TABLE)
    spec = cfg.dgp.with_n(cell.n)
    draws = (
        ObservedData.realize(
            sample_population(spec, tables(rep)),
            draw_bernoulli(cell.n, float(cell.pi), at(rep)),
        )
        for rep in range(reps)
    )
    adaptive = {"clt": intervals.clt_ci, "studentized-bern": intervals.studentized_ci}
    _assert_chunk_is_its_draws(cfg, cell, "bernoulli", draws, adaptive)


def test_a_draw_with_an_empty_arm_is_a_miss_of_width_zero():
    from tightci.design import draw_bernoulli
    from tightci.estimator import ObservedData
    from tightci.harness import _DRAW_TAGS, _build_cells, substream
    from tightci.intervals import EmptyArmError, clt_ci

    # at n = 20 and pi = 1/20 about a third of the draws treat nobody, and
    # clt has no interval for them
    reps = 60
    raw = _coverage_raw(
        grid={"n": [20], "pi": ["1/20"], "alpha": [0.05]},
        methods=["clt"],
        replications=reps,
    )
    cfg = parse_config(raw)
    (cell,) = _build_cells(cfg)
    at = substream(cfg.seed, cell.idx, _DRAW_TAGS["bernoulli"])
    covered, half, empty = [], [], 0
    for rep in range(reps):
        asg = draw_bernoulli(cell.n, float(cell.pi), at(rep))
        try:
            ci = clt_ci(ObservedData.realize(cell.table, asg), cell.alpha)
        except EmptyArmError:
            covered.append(False)
            half.append(0.0)
            empty += 1
            continue
        covered.append(ci.contains(cell.target))
        half.append(ci.half_width)
    assert 0 < empty < reps
    (row,) = run_monte_carlo(cfg).rows
    assert row["coverage_rate"] == float(np.mean(covered))
    assert row["mean_halfwidth"] == float(np.mean(half))


def test_every_grouped_adaptive_method_has_a_block():
    # a coverage chunk's dense grouped draw is its slot terms, not an
    # ObservedData, so a grouped data-adaptive interval must go through a block
    from tightci.design import SCHEME_MBCR
    from tightci.intervals import METHOD_TABLE

    grouped = [
        m
        for m, spec in METHOD_TABLE.items()
        if spec.scheme == SCHEME_MBCR and spec.adaptive is not None
    ]
    assert grouped
    assert [m for m in grouped if METHOD_TABLE[m].block is None] == []


def _growth_per_replication(
    monkeypatch, methods, marker, n=20000, reps=5, setting="design_based"
):
    """What each replication of one chunk allocated, and the traced size at
    its start: the traced peak between two calls of ``harness.<marker>``,
    which begins every replication, over the traced size at the first."""
    import tracemalloc

    from tightci import harness

    raw = _coverage_raw(
        grid={"n": [n], "pi": ["1/100"], "alpha": [0.05]},
        methods=methods,
        replications=reps,
        setting=setting,
    )
    cfg = parse_config(raw)
    (cell,) = harness._build_cells(cfg)
    real = getattr(harness, marker)
    starts, peaks = [], []

    def marking(*args, **kwargs):
        current, peak = tracemalloc.get_traced_memory()
        peaks.append(peak)
        starts.append(current)
        tracemalloc.reset_peak()
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, marker, marking)
    tracemalloc.start()
    try:
        harness._coverage_chunk(cfg, cell, 0, reps)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    grown = [peak - start for start, peak in zip(starts, peaks[1:])]
    assert len(grown) == len(starts) == reps
    return grown, starts


@pytest.mark.parametrize(
    "methods, marker, setting",
    [
        # a grouped draw, dense because studentized reads every unit
        (
            ["hoeff-mbcr", "studentized", "sub-bernoulli-bern", "naive-hoeffding"],
            "draw_mbcr",
            "design_based",
        ),
        # a Bernoulli draw on a fresh table every replication
        (["clt", "studentized-bern"], "draw_bernoulli", "superpopulation"),
    ],
    ids=["grouped", "bernoulli-superpopulation"],
)
def test_dense_chunk_holds_no_array_past_its_replication(
    monkeypatch, methods, marker, setting
):
    # a dense replication allocates its full-length arrays and frees them
    # when it ends.  The first replication also builds what a cell caches
    # (the layout's constants, the cross-fit divisors), so from the second
    # on every replication starts at the same traced size.
    n = 20000
    grown, starts = _growth_per_replication(
        monkeypatch, methods, marker, n, setting=setting
    )
    full = 8 * n  # one full-length float64 array
    assert min(grown) >= full  # every replication builds its own arrays
    assert max(starts[1:]) - min(starts[1:]) < full


def test_treated_set_chunk_allocates_no_full_length_array(monkeypatch):
    # with only closed forms on a fixed table, both designs draw their
    # treated sets, and no replication builds a full-length array
    n = 20000
    methods = [
        "hoeff-mbcr", "sub-bernoulli-mbcr", "sub-bernoulli-bern", "naive-hoeffding"
    ]
    grown, _ = _growth_per_replication(monkeypatch, methods, "treated_set_mbcr", n)
    assert max(grown) < 8 * n


def test_one_worker_runs_each_cell_as_one_chunk(monkeypatch, serial_children):
    from tightci import harness

    calls = []
    real = harness._coverage_chunk

    def recording(config, cell, start, stop):
        calls.append((cell.n, start, stop))
        return real(config, cell, start, stop)

    monkeypatch.setattr(harness, "_coverage_chunk", recording)
    raw = _coverage_raw(grid={"n": [100, 200], "pi": ["1/10"], "alpha": [0.05]})
    cfg = parse_config(raw)
    serial = run_monte_carlo(cfg, workers=1).to_csv_bytes()
    assert calls == [(100, 0, 40), (200, 0, 40)]
    # two processes take one half of each cell: the parent the first halves,
    # then the one child the second
    calls.clear()
    _report_cpus(monkeypatch, 2)
    assert run_monte_carlo(cfg, workers=2).to_csv_bytes() == serial
    assert calls == [(100, 0, 20), (200, 0, 20), (100, 20, 40), (200, 20, 40)]


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
        (["clt", "studentized-bern", "sub-bernoulli-bern"], ["terms"]),
        # a dense grouped draw goes to its slot terms with no ObservedData
        (["hoeff-mbcr", "studentized"], ["slot_terms"]),
    ],
)
def test_replication_builds_its_coefficient_once(monkeypatch, methods, built):
    from tightci import estimator, harness
    from tightci.estimator import ObservedData

    calls = []
    _count_builds(monkeypatch, ObservedData, "terms", calls)
    real = estimator.slot_terms

    def counting(*args):
        calls.append("slot_terms")
        return real(*args)

    # every place slot terms are built from: the harness and ObservedData
    monkeypatch.setattr(harness, "slot_terms", counting)
    monkeypatch.setattr(estimator, "slot_terms", counting)
    raw = _coverage_raw(methods=methods, replications=1, setting="superpopulation")
    report = run_monte_carlo(parse_config(raw))
    assert len(report.rows) == len(methods)
    # the estimator and every interval of the replication share one build
    assert calls == built


def test_normal_quantile_computed_once_per_alpha(monkeypatch):
    from tightci import intervals

    calls = []
    real = intervals._ndtri

    def counting_ndtri(q):
        calls.append(q)
        return real(q)

    intervals._z_quantile.cache_clear()
    monkeypatch.setattr(intervals, "_ndtri", counting_ndtri)
    raw = _coverage_raw(
        grid={"n": [200, 400], "pi": ["1/10"], "alpha": [0.05, 0.1]},
        methods=["clt"],
        replications=30,
    )
    report = run_monte_carlo(parse_config(raw))
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
    report = run_monte_carlo(parse_config(raw))
    assert len(report.rows) == 2
    info = intervals._split_divisors.cache_info()
    # groups of ten: 20 and 40 group sums; grouped draws split one set of
    # sums per replication
    assert info.misses == 2
    assert info.hits == 0  # each cell's 30 replications are one block
    for tbar in (20, 40):
        for div in intervals._split_divisors(tbar):
            assert not div.flags.writeable
            with pytest.raises(ValueError):
                div[0] = 1.0


def _studentized_by_replication(cfg, cell, method):
    """Each replication's endpoints from its own ``studentized_ci``, drawn
    from the chunk's substream."""
    from tightci import harness
    from tightci.estimator import ObservedData
    from tightci.intervals import METHOD_TABLE, studentized_ci

    scheme = METHOD_TABLE[method].scheme
    at = harness.substream(cfg.seed, cell.idx, harness._DRAW_TAGS[scheme])
    lower, upper, midpoints = [], [], 0
    for rep in range(cfg.replications):
        if scheme == "mbcr":
            asg = harness.draw_mbcr(cell.layout, at(rep))
        else:
            asg = harness.draw_bernoulli(cell.n, float(cell.pi), at(rep))
        ci = studentized_ci(ObservedData.realize(cell.table, asg), cell.alpha)
        lower.append(ci.lower)
        upper.append(ci.upper)
        midpoints += "degenerate_midpoint" in ci.tuning
    return np.array(lower), np.array(upper), midpoints


@pytest.mark.parametrize("per_block", [0, 1, 3])
@pytest.mark.parametrize("alpha", [0.05, 0.01])
@pytest.mark.parametrize(
    "n, pi, method",
    [
        # groups that tile, and tails that spill one and two treated units
        (1000, "1/10", "studentized"),
        (997, "100/997", "studentized"),
        (111, "12/111", "studentized"),
        (500, "1/5", "studentized-bern"),
        (20_000, "1/100", "studentized-bern"),
    ],
)
def test_chunk_studentized_equals_each_replications_interval(
    monkeypatch, n, pi, method, alpha, per_block
):
    from tightci import harness, intervals
    from tightci.design import Assignment

    real = harness.draw_bernoulli

    def sometimes_all_treated(n, pi, rng):
        # an extreme draw now and then, whose Bernoulli anchors cross
        asg = real(n, pi, rng)
        if rng.random() < 0.3:
            asg = Assignment(np.ones(n, dtype=np.int8), asg.scheme, asg.pi)
        return asg

    monkeypatch.setattr(harness, "draw_bernoulli", sometimes_all_treated)
    raw = _coverage_raw(
        grid={"n": [n], "pi": [pi], "alpha": [alpha]}, methods=[method], replications=8
    )
    cfg = parse_config(raw)
    (cell,) = harness._build_cells(cfg)
    if method == "studentized":
        # blocks of three draws, so that full blocks and a partial last one
        # run, and of one, also when a draw's sums alone pass the bound
        values = per_block * cell.layout.num_groups
        monkeypatch.setattr(intervals, "STUDENTIZED_BLOCK_VALUES", values)
    record = harness._coverage_chunk(cfg, cell, 0, 8)
    lower, upper, midpoints = _studentized_by_replication(cfg, cell, method)
    assert record["lower", method].tobytes() == lower.tobytes()
    assert record["upper", method].tobytes() == upper.tobytes()
    if method == "studentized-bern":
        assert 0 < midpoints < 8


def test_split_statistics_runs_once_per_block(monkeypatch):
    from tightci import harness, intervals

    calls = []
    real = intervals._split_statistics
    monkeypatch.setattr(
        intervals, "_split_statistics", lambda rows: calls.append(rows.shape) or real(rows)
    )
    grouped = intervals.STUDENTIZED_BLOCK_VALUES // 100  # 100 group sums a draw
    reps = grouped + 3
    raw = _coverage_raw(
        grid={"n": [1000], "pi": ["1/10"], "alpha": [0.05]},
        methods=["studentized"],
        replications=reps,
    )
    cfg = parse_config(raw)
    (cell,) = harness._build_cells(cfg)
    harness._coverage_chunk(cfg, cell, 0, reps)
    assert calls == [(grouped, 100), (3, 100)]


def test_grouped_chunk_memory_does_not_grow_with_replications():
    # the stacked group sums are evaluated a block at a time, so ten times
    # the replications raise the traced peak by less than one block of
    # values and the half-block buffer its split statistics take; without
    # the bound, 2,000 replications' sums alone would be 2.7 blocks more
    import tracemalloc

    from tightci import harness
    from tightci.intervals import STUDENTIZED_BLOCK_VALUES

    peaks = []
    for reps in (200, 2000):
        raw = _coverage_raw(
            grid={"n": [1000], "pi": ["1/10"], "alpha": [0.05]},
            methods=["hoeff-mbcr", "studentized"],
            replications=reps,
        )
        cfg = parse_config(raw)
        (cell,) = harness._build_cells(cfg)
        tracemalloc.start()
        try:
            harness._coverage_chunk(cfg, cell, 0, reps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1.5 * 8 * STUDENTIZED_BLOCK_VALUES


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


def test_cells_of_one_n_and_pi_share_a_layout():
    from tightci.harness import _build_cells

    config = parse_config(
        _coverage_raw(
            grid={"n": [1000, 5000], "pi": ["1/10"], "alpha": [0.05, 0.1]},
            methods=["hoeff-mbcr", "studentized"],
        )
    )
    layouts = [cell.layout for cell in _build_cells(config)]
    # cells in (n, pi, alpha) order: the two alphas of each (n, pi) share one
    assert [lay.n for lay in layouts] == [1000, 1000, 5000, 5000]
    assert layouts[0] is layouts[1] and layouts[2] is layouts[3]
    assert layouts[0] is not layouts[2]


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


_FLOOR_PI = f"1/{2**300}"


def test_width_scaling_half_width_finite_at_the_propensity_floor():
    # At the floor pi = 2**-300 and up to the cap n = 2**53 every half-width
    # is finite and no arithmetic warns
    raw = {
        "experiment": "width_scaling",
        "grid": {"n": [2, 40, MAX_N], "pi": [_FLOOR_PI], "alpha": [0.05]},
        "methods": ["naive-hoeffding", "sub-bernoulli-bern"],
        "replications": 1,
        "seed": 0,
    }
    assert parse_config(raw).pis == (Fraction(MIN_PI),)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_width_scaling(parse_config(raw))
    halves = {(row["n"], row["method"]): row["mean_halfwidth"] for row in report.rows}
    # sub-bernoulli-bern at n = 2**53 is checked for finiteness only: its
    # value there is not yet accurate to its own formula
    assert 0.0 < halves.pop((MAX_N, "sub-bernoulli-bern")) < math.inf
    assert halves == {
        (2, "naive-hoeffding"): 1.9562120748126336e90,
        (2, "sub-bernoulli-bern"): 2.0**300,
        (40, "naive-hoeffding"): 4.3742231776869534e89,
        (40, "sub-bernoulli-bern"): 2.0**300,
        (MAX_N, "naive-hoeffding"): 2.9149831456134224e82,
    }
    assert b"inf" not in report.to_csv_bytes()


def test_coverage_mean_half_width_finite_at_the_propensity_floor():
    # Each replication's half-width, near 2**300, is finite, and so is the
    # mean of them; it is the closed form's
    raw = _coverage_raw(
        grid={"n": [40], "pi": [_FLOOR_PI], "alpha": [0.05]},
        methods=["naive-hoeffding", "sub-bernoulli-bern"],
        replications=20,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_monte_carlo(parse_config(raw))
    scaling = run_width_scaling(parse_config({**raw, "experiment": "width_scaling"}))
    closed = {row["method"]: row["mean_halfwidth"] for row in scaling.rows}
    for row in report.rows:
        assert math.isfinite(row["mean_halfwidth"])
        assert row["mean_halfwidth"] == pytest.approx(closed[row["method"]], rel=1e-12)
    assert b"inf" not in report.to_csv_bytes()


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
    report = run_monte_carlo(parse_config(raw))
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
    report = run_monte_carlo(parse_config(raw))
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


def test_equivalence_budget_error_names_the_count():
    with pytest.raises(EnumerationBudgetError) as info:
        run_equivalence(10, 5)
    message = str(info.value)
    assert "116121600 permutation tuples, over the budget of 100000000" in message
    assert "chi-square" not in message


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
    assert manifest["rng_stream"] == 3
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
    report = run_monte_carlo(parse_config(_golden_coverage_raw("design_based")))
    assert len(report.rows) == 36
    assert _sha256(report) == (
        "708e783acca0c1e6c8c0b5c39cee28421781be9fc8c8f346dc3ff680fc55b97a"
    )


def test_golden_coverage_superpopulation():
    report = run_monte_carlo(parse_config(_golden_coverage_raw("superpopulation")))
    assert len(report.rows) == 36
    assert _sha256(report) == (
        "083f50346079b1646bd26a0e458dc15113173bcf6bced956449ed76f51fd5a4e"
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
    report = run_monte_carlo(parse_config(raw))
    assert len(report.rows) == 3
    assert _sha256(report) == (
        "9846016e85422630345910f9bbaa580c3a32d3c792f645d2295be631939b3c09"
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
    report = run_monte_carlo(parse_config(coverage))
    assert len(report.rows) == 4
    assert _sha256(report) == (
        "63b8fc8289c910401837a237e4870661b067b1b6120f678f24b00e0ea1feb691"
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
    report = run_monte_carlo(parse_config(rmse))
    assert len(report.rows) == 2
    assert _sha256(report) == (
        "bb2f4bef70e5777e158ad1a06a8b903f446a2b17d459b89fc53f42abbfcc9ee2"
    )
