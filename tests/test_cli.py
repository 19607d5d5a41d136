"""Command-line behavior: exit codes, validation, and output contracts."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tightci.cli import main
from tightci.design import compute_layout, draw_bernoulli, draw_mbcr
from tightci.estimator import ObservedData, PotentialTable
from tightci.intervals import reevaluate

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _write_bernoulli_data(path, n=400, pi=0.1, seed=5):
    rng = np.random.default_rng(seed)
    y0 = rng.uniform(0.1, 0.5, n)
    table = PotentialTable(y0, y0 + 0.5)
    asg = draw_bernoulli(n, pi, rng)
    data = ObservedData.realize(table, asg)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "z"])
        for yy, zz in zip(data.y, asg.z):
            w.writerow([repr(float(yy)), int(zz)])
    return data


def _write_mbcr_data(path, n=1000, n1=100, seed=42, draw_seed=99, with_perms=True):
    lay = compute_layout(n, n1)
    rng = np.random.default_rng(seed)
    y0 = rng.uniform(0.1, 0.5, n)
    table = PotentialTable(y0, y0 + 0.5)
    asg = draw_mbcr(lay, np.random.default_rng(draw_seed))
    data = ObservedData.realize(table, asg)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if with_perms:
            w.writerow(["y", "z", "beta", "eta"])
            rows = zip(data.y, asg.z, asg.mbcr.beta, asg.mbcr.eta)
            for yy, zz, bb, ee in rows:
                w.writerow([repr(float(yy)), int(zz), int(bb), int(ee)])
        else:
            w.writerow(["y", "z"])
            for yy, zz in zip(data.y, asg.z):
                w.writerow([repr(float(yy)), int(zz)])
    return data


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "tightci" in out and "schema" in out


def test_unknown_flag_is_validation_error(capsys):
    assert main(["ci", "--nonsense"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_subcommand_is_validation_error():
    assert main([]) == 1


def test_ci_hoeff_mbcr_prints_halfwidth(tmp_path, capsys):
    path = tmp_path / "data.csv"
    _write_mbcr_data(path)
    code = main([
        "ci", "--data", str(path), "--scheme", "mbcr", "--n1", "100",
        "--method", "hoeff-mbcr", "--alpha", "0.05",
    ])
    assert code == 0
    out = capsys.readouterr().out
    # derived closed form: 0.2716203031481239
    assert "0.27162030314812" in out


def test_ci_json_roundtrip(tmp_path, capsys):
    path = tmp_path / "data.csv"
    _write_bernoulli_data(path)
    code = main([
        "ci", "--data", str(path), "--scheme", "bernoulli", "--pi", "0.1",
        "--method", "sub-bernoulli-bern", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    lo, hi = reevaluate(payload["method"], payload["alpha"], payload["tuning"])
    assert lo == payload["lower"] and hi == payload["upper"]


def test_ci_seed_regeneration_matches_columns(tmp_path, capsys):
    with_cols = tmp_path / "cols.csv"
    _write_mbcr_data(with_cols, draw_seed=7)
    bare = tmp_path / "bare.csv"
    _write_mbcr_data(bare, draw_seed=7, with_perms=False)
    base = ["--scheme", "mbcr", "--n1", "100", "--method", "sub-bernoulli-mbcr", "--json"]
    assert main(["ci", "--data", str(with_cols), *base]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["ci", "--data", str(bare), *base, "--seed", "7"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["lower"] == second["lower"]
    assert first["upper"] == second["upper"]


def test_ci_ambiguous_permutation_sources(tmp_path, capsys):
    path = tmp_path / "cols.csv"
    _write_mbcr_data(path, draw_seed=7)
    code = main([
        "ci", "--data", str(path), "--scheme", "mbcr", "--n1", "100",
        "--method", "hoeff-mbcr", "--seed", "7",
    ])
    assert code == 1
    assert "ambiguous" in capsys.readouterr().err


def test_ci_missing_permutation_detail(tmp_path, capsys):
    path = tmp_path / "bare.csv"
    _write_mbcr_data(path, with_perms=False)
    code = main([
        "ci", "--data", str(path), "--scheme", "mbcr", "--n1", "100",
        "--method", "hoeff-mbcr",
    ])
    assert code == 1
    assert "beta,eta" in capsys.readouterr().err


@pytest.mark.parametrize("column", ["beta", "eta"])
@pytest.mark.parametrize(
    "scheme_args",
    [
        ["--scheme", "mbcr", "--n1", "4", "--seed", "5", "--method", "hoeff-mbcr"],
        ["--scheme", "bernoulli", "--pi", "0.2", "--method", "sub-bernoulli-bern"],
    ],
    ids=["mbcr", "bernoulli"],
)
def test_ci_lone_permutation_column_refused(tmp_path, capsys, column, scheme_args):
    # z is the draw --seed 5 regenerates, so only the lone column is wrong.
    z = draw_mbcr(compute_layout(8, 4), np.random.default_rng(5)).z
    path = tmp_path / "lone.csv"
    rows = [f"0.5,{int(zz)},{7 * j}" for j, zz in enumerate(z)]
    path.write_text("\n".join([f"y,z,{column}", *rows]) + "\n")
    assert main(["ci", "--data", str(path), *scheme_args]) == 1
    err = capsys.readouterr().err
    assert f"{column} column" in err and "both beta and eta" in err


def test_ci_wrong_seed_rejected(tmp_path, capsys):
    path = tmp_path / "bare.csv"
    _write_mbcr_data(path, draw_seed=7, with_perms=False)
    code = main([
        "ci", "--data", str(path), "--scheme", "mbcr", "--n1", "100",
        "--method", "hoeff-mbcr", "--seed", "8",
    ])
    assert code == 1
    assert "does not reproduce" in capsys.readouterr().err


def test_ci_negative_seed_rejected(tmp_path, capsys, monkeypatch):
    from tightci import cli

    def no_draw(*args):
        raise AssertionError("drew before validating --seed")

    monkeypatch.setattr(cli, "draw_mbcr", no_draw)
    path = tmp_path / "bare.csv"
    path.write_text("y,z\n0.5,1\n0.25,0\n0.75,0\n0.5,0\n")
    code = main([
        "ci", "--data", str(path), "--scheme", "mbcr", "--n1", "1",
        "--method", "hoeff-mbcr", "--seed", "-1",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--seed" in err


def test_ci_alpha_validation(tmp_path, capsys):
    path = tmp_path / "data.csv"
    _write_bernoulli_data(path)
    code = main([
        "ci", "--data", str(path), "--scheme", "bernoulli", "--pi", "0.1",
        "--method", "sub-bernoulli-bern", "--alpha", "1.5",
    ])
    assert code == 1
    assert "alpha" in capsys.readouterr().err


def test_ci_studentized_insufficient_groups(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    _write_mbcr_data(path, n=9, n1=3, draw_seed=3)
    code = main([
        "ci", "--data", str(path), "--scheme", "mbcr", "--n1", "3",
        "--method", "studentized",
    ])
    assert code == 1
    assert "insufficient groups for cross-fitting" in capsys.readouterr().err


def test_ci_studentized_variance_overflow_is_unbounded(tmp_path, capsys):
    # 3 treated units of 40 at pi = 1e-160: the squared pseudo-outcomes
    # overflow, V is inf and lambda is 0, so each side is unbounded, as the
    # CLT interval is on the same data
    rng = np.random.default_rng(0)
    z = np.zeros(40, dtype=int)
    z[[3, 17, 29]] = 1
    path = tmp_path / "data.csv"
    path.write_text(
        "y,z\n" + "".join(f"{float(y)!r},{t}\n" for y, t in zip(rng.uniform(0, 1, 40), z))
    )
    base = ["ci", "--data", str(path), "--scheme", "bernoulli", "--pi", "1e-160", "--json"]
    for method in ("studentized", "clt"):
        with np.errstate(over="ignore"):
            code = main([*base, "--method", method])
        assert code == 0, method
        payload = json.loads(capsys.readouterr().out)
        assert (payload["lower"], payload["upper"]) == (-math.inf, math.inf)
        lo, hi = reevaluate(payload["method"], payload["alpha"], payload["tuning"])
        assert (lo, hi) == (-math.inf, math.inf)


def test_ci_method_scheme_incompatibility(tmp_path, capsys):
    path = tmp_path / "data.csv"
    _write_bernoulli_data(path)
    code = main([
        "ci", "--data", str(path), "--scheme", "bernoulli", "--pi", "0.1",
        "--method", "hoeff-mbcr",
    ])
    assert code == 1
    assert "does not apply" in capsys.readouterr().err


def test_ci_complete_scheme_with_tiling_groups(tmp_path, capsys):
    # complete-randomization data with n1 dividing n admits the grouped
    # interval without any draw detail
    rng = np.random.default_rng(1)
    n, n1 = 200, 20
    y0 = rng.uniform(0, 0.4, n)
    table = PotentialTable(y0, y0 + 0.5)
    from tightci.design import draw_complete

    asg = draw_complete(n, n1, rng)
    data = ObservedData.realize(table, asg)
    path = tmp_path / "complete.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "z"])
        for yy, zz in zip(data.y, asg.z):
            w.writerow([repr(float(yy)), int(zz)])
    code = main([
        "ci", "--data", str(path), "--scheme", "complete", "--n1", str(n1),
        "--method", "hoeff-mbcr", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["half_width"] == pytest.approx(
        math.sqrt(10) * math.sqrt(2 * math.log(40) / n)
    )


def test_ci_clip(tmp_path, capsys):
    path = tmp_path / "data.csv"
    _write_bernoulli_data(path, n=60)
    code = main([
        "ci", "--data", str(path), "--scheme", "bernoulli", "--pi", "0.1",
        "--method", "naive-hoeffding", "--json", "--clip",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert -1.0 <= payload["lower"] <= payload["upper"] <= 1.0


def test_ci_spaced_header(tmp_path, capsys):
    plain = tmp_path / "plain.csv"
    _write_bernoulli_data(plain, n=60)
    spaced = tmp_path / "spaced.csv"
    rows = plain.read_text().splitlines()[1:]
    spaced.write_text("\n".join(["y, z", *rows]) + "\n")
    flags = ["--scheme", "bernoulli", "--pi", "0.1", "--method", "clt", "--json"]
    assert main(["ci", "--data", str(plain), *flags]) == 0
    want = capsys.readouterr().out
    assert main(["ci", "--data", str(spaced), *flags]) == 0
    assert capsys.readouterr().out == want


def test_ci_bad_schema(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    code = main([
        "ci", "--data", str(path), "--scheme", "bernoulli", "--pi", "0.1",
        "--method", "sub-bernoulli-bern",
    ])
    assert code == 1
    assert "missing column" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (b"y,z\n0.25,0\n0.5,1,7\n", "row 3: 3 fields"),
        (b"y,z\n0.25,0\n0.5\n", "row 3: 1 fields"),
        (b"y,z\n0.25,0\nnan,1\n", "row 3: bad value 'nan'"),
        (b"y,z,w\n0.25,0,0\n", "unexpected or repeated column(s) ['w']"),
        (b"y,z\n0.25,0\n\xff,1\n", "cannot read"),
    ],
    ids=["extra-field", "short-row", "non-finite", "unknown-column", "not-utf8"],
)
def test_ci_malformed_rows_refused(tmp_path, capsys, text, message):
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    code = main([
        "ci", "--data", str(path), "--scheme", "bernoulli", "--pi", "0.5",
        "--method", "naive-hoeffding",
    ])
    assert code == 1
    assert message in capsys.readouterr().err


def test_ci_trailing_blank_line_loads(tmp_path, capsys):
    plain = tmp_path / "plain.csv"
    _write_bernoulli_data(plain, n=60)
    blank = tmp_path / "blank.csv"
    blank.write_text(plain.read_text() + "\n")
    flags = ["--scheme", "bernoulli", "--pi", "0.1", "--method", "clt", "--json"]
    assert main(["ci", "--data", str(plain), *flags]) == 0
    want = capsys.readouterr().out
    assert main(["ci", "--data", str(blank), *flags]) == 0
    assert capsys.readouterr().out == want


def test_simulate_fig1_config(tmp_path, capsys):
    out = tmp_path / "fig1"
    code = main([
        "simulate", "--config", str(CONFIGS / "fig1.json"), "--out", str(out),
    ])
    assert code == 0
    rows = list(csv.DictReader((out / "width_scaling.csv").open()))
    widths = {}
    for row in rows:
        widths.setdefault(row["method"], {})[float(row["pi"])] = float(
            row["mean_halfwidth"]
        )
    gaps = []
    for pi in (0.1, 0.01, 0.001):
        assert widths["hoeff-mbcr"][pi] < widths["naive-hoeffding"][pi]
        assert widths["sub-bernoulli-bern"][pi] < widths["naive-hoeffding"][pi]
        gaps.append(widths["naive-hoeffding"][pi] / widths["hoeff-mbcr"][pi])
    assert gaps[0] < gaps[1] < gaps[2]


def test_simulate_fig2a_config_coverage(tmp_path):
    out = tmp_path / "fig2a"
    code = main([
        "simulate", "--config", str(CONFIGS / "fig2a.json"), "--out", str(out),
    ])
    assert code == 0
    rows = list(csv.DictReader((out / "coverage.csv").open()))
    assert len(rows) == 8  # two sample sizes x four methods
    for row in rows:
        assert float(row["coverage_rate"]) >= 0.95


def test_simulate_deterministic_manifest(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "experiment": "coverage",
        "grid": {"n": [100], "pi": ["1/10"], "alpha": [0.05]},
        "methods": ["hoeff-mbcr"],
        "dgp": {"kind": "uniform_null", "lo": 0.0, "hi": 0.1},
        "replications": 16,
        "seed": 2,
        "setting": "design_based",
    }))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "r1")]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "r2")]) == 0
    m1 = (tmp_path / "r1" / "manifest.json").read_bytes()
    m2 = (tmp_path / "r2" / "manifest.json").read_bytes()
    assert m1 == m2
    c1 = (tmp_path / "r1" / "coverage.csv").read_bytes()
    c2 = (tmp_path / "r2" / "coverage.csv").read_bytes()
    assert c1 == c2


def test_simulate_workers_do_not_change_bytes(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "experiment": "coverage",
        "grid": {"n": [120], "pi": ["1/10"], "alpha": [0.05]},
        "methods": ["hoeff-mbcr", "studentized"],
        "dgp": {"kind": "uniform_shift", "lo": 0.1, "hi": 0.5, "shift": 0.5},
        "replications": 32,
        "seed": 9,
        "setting": "superpopulation",
    }))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "w1"),
                 "--workers", "1"]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "w2"),
                 "--workers", "4"]) == 0
    assert (tmp_path / "w1" / "coverage.csv").read_bytes() == (
        tmp_path / "w2" / "coverage.csv"
    ).read_bytes()


def test_simulate_invalid_config_no_partial_output(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": "coverage", "seed": 1}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert not out.exists()
    assert "missing required field" in capsys.readouterr().err


def test_simulate_unreadable_inputs_are_validation_errors(tmp_path, capsys):
    missing = tmp_path / "no-such-table.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "experiment": "coverage",
        "grid": {"n": [40], "pi": ["1/10"], "alpha": [0.05]},
        "methods": ["hoeff-mbcr"],
        "dgp": {"kind": "fixed_table", "path": str(missing)},
        "replications": 2,
        "seed": 1,
    }))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert not out.exists()
    assert f"cannot read {missing}" in capsys.readouterr().err
    absent = tmp_path / "no-such-config.json"
    assert main(["simulate", "--config", str(absent), "--out", str(out)]) == 1
    assert not out.exists()
    assert f"cannot read {absent}" in capsys.readouterr().err


def test_simulate_rmse_config(tmp_path):
    config = tmp_path / "rmse.json"
    config.write_text(json.dumps({
        "experiment": "rmse",
        "grid": {"n": [200], "pi": ["1/10"], "alpha": [0.05]},
        "methods": ["ht-mbcr", "ht-bernoulli"],
        "dgp": {"kind": "uniform_shift", "lo": 0.1, "hi": 0.5, "shift": 0.5},
        "replications": 200,
        "seed": 4,
        "setting": "design_based",
    }))
    out = tmp_path / "rmse-out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "rmse.csv").open()))
    assert {row["method"] for row in rows} == {"ht-mbcr", "ht-bernoulli"}
    for row in rows:
        assert float(row["rmse"]) <= float(row["rmse_bound"])


def test_simulate_equivalence_config_prints_summary(tmp_path, capsys):
    out = tmp_path / "eq"
    config = CONFIGS / "equivalence_6_2.json"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert "uniform: True" in capsys.readouterr().out.splitlines()


def test_removed_run_subcommands_are_validation_errors(tmp_path, capsys):
    for name in ("scaling", "rmse"):
        args = [name, "--config", str(CONFIGS / "fig1.json"), "--out", str(tmp_path)]
        assert main(args) == 1
        assert "invalid choice" in capsys.readouterr().err


def test_equivalence_subcommand(tmp_path, capsys):
    out = tmp_path / "eq"
    assert main(["equivalence", "--n", "6", "--n1", "2", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "uniform: True" in stdout
    rows = list(csv.DictReader((out / "equivalence.csv").open()))
    assert len(rows) == 15
    assert all(row["count"] == "1728" for row in rows)


def test_equivalence_budget_validation(capsys, tmp_path):
    code = main(["equivalence", "--n", "10", "--n1", "5", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "budget" in capsys.readouterr().err


def test_bundled_configs_parse():
    from tightci.harness import load_config

    for name in ("fig1", "fig2a", "fig2b", "fig2c", "rmse", "equivalence_6_2"):
        cfg = load_config(CONFIGS / f"{name}.json")
        assert cfg.experiment in {"coverage", "width_scaling", "rmse", "equivalence"}


def test_module_entry_point_subprocess():
    import os
    import subprocess
    import sys

    import tightci

    # The child finds the package where this process found it.
    src = str(Path(tightci.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "tightci", "--version"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "tightci" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "tightci", "ci", "--no-such-flag"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
