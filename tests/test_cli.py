"""Command-line behavior: exit codes, validation, and output contracts."""

import argparse
import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from reference import draw_complete, inverse_permutation
from tightci.cli import main
from tightci.design import MAX_N, MIN_PI, compute_layout, draw_bernoulli, draw_mbcr
from tightci.estimator import ObservedData, PotentialTable
from tightci.intervals import METHOD_TABLE, METHODS, reevaluate

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
            rows = zip(data.y, asg.z, np.arange(n), asg.eta)
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


def test_main_builds_its_parser_once_per_process(capsys, tmp_path):
    from tightci import cli

    cli.build_parser.cache_clear()
    assert main(["--version"]) == 0
    missing = str(tmp_path / "missing.json")
    assert main(["simulate", "--config", missing, "--out", str(tmp_path)]) == 1
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_unknown_flag_is_validation_error(capsys):
    assert main(["ci", "--nonsense"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_subcommand_is_validation_error():
    assert main([]) == 1


def test_ci_hoeff_mbcr_prints_halfwidth(tmp_path, capsys):
    path = tmp_path / "data.csv"
    _write_mbcr_data(path)
    code = main([
        "ci", "--data", str(path), "--scheme", "mbcr",
        "--method", "hoeff-mbcr", "--alpha", "0.05",
    ])
    assert code == 0
    out = capsys.readouterr().out
    # derived closed form: 0.2716203031481239
    assert "0.27162030314812" in out


@pytest.mark.parametrize(
    "method, flags",
    [(m, []) for m in METHODS] + [("naive-hoeffding", ["--clip"])],
    ids=[*METHODS, "naive-hoeffding-clip"],
)
def test_ci_json_roundtrip(tmp_path, capsys, method, flags):
    # The printed tuning record alone replays the printed endpoints.
    path = tmp_path / "data.csv"
    if METHOD_TABLE[method].scheme == "mbcr":
        _write_mbcr_data(path)
        scheme_args = ["--scheme", "mbcr"]
    else:
        _write_bernoulli_data(path)
        scheme_args = ["--scheme", "bernoulli", "--pi", "0.1"]
    code = main([
        "ci", "--data", str(path), *scheme_args, "--method", method, "--json", *flags,
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert ("clipped" in payload["tuning"]) == ("--clip" in flags)
    lo, hi = reevaluate(payload["method"], payload["alpha"], payload["tuning"])
    assert lo == payload["lower"] and hi == payload["upper"]


def test_ci_missing_permutation_detail(tmp_path, capsys):
    path = tmp_path / "bare.csv"
    _write_mbcr_data(path, with_perms=False)
    code = main([
        "ci", "--data", str(path), "--scheme", "mbcr",
        "--method", "hoeff-mbcr",
    ])
    assert code == 1
    assert "beta,eta" in capsys.readouterr().err


@pytest.mark.parametrize("column", ["beta", "eta"])
@pytest.mark.parametrize(
    "scheme_args",
    [
        ["--scheme", "mbcr", "--method", "hoeff-mbcr"],
        ["--scheme", "bernoulli", "--pi", "0.2", "--method", "sub-bernoulli-bern"],
    ],
    ids=["mbcr", "bernoulli"],
)
def test_ci_lone_permutation_column_refused(tmp_path, capsys, column, scheme_args):
    z = draw_mbcr(compute_layout(8, 4), np.random.default_rng(5)).z
    path = tmp_path / "lone.csv"
    rows = [f"0.5,{int(zz)},{7 * j}" for j, zz in enumerate(z)]
    path.write_text("\n".join([f"y,z,{column}", *rows]) + "\n")
    assert main(["ci", "--data", str(path), *scheme_args]) == 1
    err = capsys.readouterr().err
    assert f"{column} column" in err and "both beta and eta" in err


def _swap_beta(cols, s, t):
    """The columns with slots s and t trading their beta entries."""
    beta = cols["beta"].copy()
    beta[[s, t]] = beta[[t, s]]
    return {**cols, "beta": beta}


_NOT_IN_BLOCKS = "beta column does not preserve the group blocks"

# Each edit of a grouped draw's columns, and the refusal it must meet.
_PERM_EDITS = {
    "unaltered": (lambda lay, cols: cols, None),
    "non-integer-beta": (
        lambda lay, cols: {**cols, "beta": [0.5, *cols["beta"][1:]]},
        "beta column must contain integers",
    ),
    # refused on the float column, before a cast to int64 could mangle it
    "beta-beyond-int64": (
        lambda lay, cols: {**cols, "beta": [1e20, *cols["beta"][1:]]},
        "beta column is not a permutation",
    ),
    "repeated-eta": (
        lambda lay, cols: {**cols, "eta": [cols["eta"][1], *cols["eta"][1:]]},
        "eta column is not a permutation",
    ),
    "full-block": (
        lambda lay, cols: _swap_beta(cols, lay.group_size - 1, lay.group_size),
        _NOT_IN_BLOCKS,
    ),
    # the last full block's final slot and the tail's first slot
    "tail-block": (
        lambda lay, cols: _swap_beta(
            cols,
            lay.num_full_groups * lay.group_size - 1,
            lay.num_full_groups * lay.group_size,
        ),
        _NOT_IN_BLOCKS,
    ),
}


@pytest.mark.parametrize("edit", list(_PERM_EDITS))
# (47, 5) spills one treated unit into a tail of 7 slots against blocks of 10;
# (26, 6) spills two into a tail of 6 slots against blocks of 5.
@pytest.mark.parametrize("n, n1", [(47, 5), (26, 6)], ids=["spill-1", "spill-2"])
def test_ci_supplied_permutation_detail_checked(
    tmp_path, capsys, n, n1, edit, two_stage_perms
):
    alter, message = _PERM_EDITS[edit]
    lay = compute_layout(n, n1)
    beta, eta = two_stage_perms(lay, np.random.default_rng(3))
    z = lay.allocation_vector()[beta[eta]]
    cols = alter(lay, {"z": z, "beta": beta, "eta": eta})
    rows = (f"0.5,{int(z)},{b},{e}" for z, b, e in zip(*cols.values()))
    path = tmp_path / "data.csv"
    path.write_text("\n".join(["y,z,beta,eta", *rows]) + "\n")
    code = main([
        "ci", "--data", str(path), "--scheme", "mbcr",
        "--method", "hoeff-mbcr",
    ])
    err = capsys.readouterr().err
    if message is None:
        assert code == 0 and err == ""
    else:
        assert code == 1 and message in err


_GROUPED_METHODS = [m for m in METHODS if "mbcr" in METHOD_TABLE[m].cli_schemes]


@pytest.mark.parametrize("method", _GROUPED_METHODS)
@pytest.mark.parametrize("n, n1", [(47, 5), (26, 6)], ids=["spill-1", "spill-2"])
def test_ci_block_shuffled_columns_match_the_seeded_draw(
    tmp_path, capsys, n, n1, method, two_stage_perms
):
    # beta,eta columns with a shuffled beta, and eta = beta^-1 . eta_seed, put
    # every unit at a slot of its seeded block that holds its seeded z: they
    # compose to the seeded eta, so the interval is the one that the seeded
    # draw's own columns (identity beta) give
    lay = compute_layout(n, n1)
    seeded = draw_mbcr(lay, np.random.default_rng(5))
    beta, _ = two_stage_perms(lay, np.random.default_rng(6))
    eta = inverse_permutation(beta)[seeded.eta]
    rng = np.random.default_rng(7)
    y0 = rng.uniform(0.0, 0.5, n)
    y = ObservedData.realize(PotentialTable(y0, y0 + 0.5 * rng.random(n)), seeded).y
    y_z = [f"{yy!r},{z}" for yy, z in zip(y.tolist(), seeded.z.tolist())]
    cols, identity = tmp_path / "cols.csv", tmp_path / "identity.csv"
    rows = (f"{yz},{b},{e}" for yz, b, e in zip(y_z, beta, eta))
    cols.write_text("\n".join(["y,z,beta,eta", *rows]) + "\n")
    rows = (f"{yz},{j},{e}" for j, (yz, e) in enumerate(zip(y_z, seeded.eta)))
    identity.write_text("\n".join(["y,z,beta,eta", *rows]) + "\n")
    base = ["--scheme", "mbcr", "--method", method, "--json"]
    assert main(["ci", "--data", str(cols), *base]) == 0
    shuffled = json.loads(capsys.readouterr().out)
    assert main(["ci", "--data", str(identity), *base]) == 0
    plain = json.loads(capsys.readouterr().out)
    for end in ("lower", "upper"):
        assert shuffled[end] == pytest.approx(plain[end], rel=1e-12, abs=1e-12)


def test_ci_wrong_permutation_columns_rejected(tmp_path, capsys):
    # valid, block-preserving columns of another draw seat other units in
    # the treated slots
    lay = compute_layout(1000, 100)
    z = draw_mbcr(lay, np.random.default_rng(7)).z
    eta = draw_mbcr(lay, np.random.default_rng(8)).eta
    rows = (f"0.5,{zz},{j},{e}" for j, (zz, e) in enumerate(zip(z.tolist(), eta)))
    path = tmp_path / "data.csv"
    path.write_text("\n".join(["y,z,beta,eta", *rows]) + "\n")
    code = main([
        "ci", "--data", str(path), "--scheme", "mbcr", "--method", "hoeff-mbcr",
    ])
    assert code == 1
    assert "does not reproduce" in capsys.readouterr().err


def _ci_args(path, scheme) -> list[str]:
    """``ci`` on data drawn under ``scheme`` (grouped data with its beta,eta
    columns) with a method that applies to it, before any ``--pi``."""
    if scheme == "bernoulli":
        _write_bernoulli_data(path)
        method = "clt"
    else:
        _write_mbcr_data(path, with_perms=scheme == "mbcr")
        method = "hoeff-mbcr"
    return ["ci", "--data", str(path), "--scheme", scheme, "--method", method]


@pytest.mark.parametrize("flag", [["--n1", "100"], ["--seed", "3"]], ids=["n1", "seed"])
@pytest.mark.parametrize("scheme", ["bernoulli", "complete", "mbcr"])
def test_ci_removed_draw_flags_refused(tmp_path, capsys, scheme, flag):
    # --data holds the whole draw: the treated count is its z column's and a
    # grouped draw's permutations are its beta,eta columns
    base = _ci_args(tmp_path / "data.csv", scheme)
    if scheme == "bernoulli":
        base += ["--pi", "0.1"]
    assert main(base) == 0
    capsys.readouterr()
    assert main([*base, *flag]) == 1
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "scheme, flags, message",
    [
        ("bernoulli", [], "scheme bernoulli needs --pi"),
        ("complete", ["--pi", "0.1"], "--pi applies to the bernoulli scheme only"),
        ("mbcr", ["--pi", "0.1"], "--pi applies to the bernoulli scheme only"),
    ],
)
def test_ci_propensity_flag_checked_against_scheme(
    tmp_path, capsys, scheme, flags, message
):
    assert main([*_ci_args(tmp_path / "data.csv", scheme), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("scheme", ["complete", "mbcr"])
def test_ci_all_control_data_refused(tmp_path, capsys, scheme):
    # no treated unit is a propensity of 0; the grouped data's identity
    # columns are a valid permutation, so only z is at fault
    grouped = scheme == "mbcr"
    rows = [f"0.5,0,{j},{j}" if grouped else "0.5,0" for j in range(10)]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(["y,z,beta,eta" if grouped else "y,z", *rows]) + "\n")
    code = main([
        "ci", "--data", str(path), "--scheme", scheme, "--method", "hoeff-mbcr",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "propensity 0.0 outside" in captured.err and captured.out == ""


def _ci_json_transcript(tmp_path, capsys, method) -> bytes:
    """The exit code, stdout and stderr of ``ci --json`` with ``method`` on
    grouped data with beta,eta at (1000, 100) and with a tail at (997, 100),
    complete data at (1000, 100) and Bernoulli data at (400, 0.1)."""
    grouped, tailed, complete, bern = (
        tmp_path / f"{name}.csv" for name in ("grouped", "tailed", "complete", "bern")
    )
    _write_mbcr_data(grouped)
    _write_mbcr_data(tailed, n=997)
    # groups that tile the sample make a grouped draw a complete one
    _write_mbcr_data(complete, draw_seed=5, with_perms=False)
    _write_bernoulli_data(bern)
    runs = [
        (grouped, ["--scheme", "mbcr"]),
        (tailed, ["--scheme", "mbcr"]),
        (complete, ["--scheme", "complete"]),
        (bern, ["--scheme", "bernoulli", "--pi", "0.1"]),
    ]
    text = ""
    for path, design in runs:
        code = main(["ci", "--data", str(path), *design, "--method", method, "--json"])
        captured = capsys.readouterr()
        text += f"{code}\n{captured.out}{captured.err}"
    return text.encode()


# sha256 of each method's transcript.  They pin the printed bytes of every
# interval, refusals included, as the report digests in test_harness.py pin
# simulate's; a deliberate change to them re-pins these.
_CI_GOLDEN = {
    "hoeff-mbcr": (
        "618a309ec470a758c5729909712443ec0e6725d1692ca44468ca7f2894687ca6"
    ),
    "sub-bernoulli-bern": (
        "178f64edb212d8e2b059491ee6212a7cf2c089eb56168cbc22c8422cfe61f026"
    ),
    "sub-bernoulli-mbcr": (
        "8051acbad5980d13a9cbbd10be3ac4d598ecd12fc6f5c53d472d45e392405f07"
    ),
    "studentized": (
        "1dfc705aa1f2f2cbd459f88b9469227bde403d94b0d8ac93d3234f67a32d2748"
    ),
    "naive-hoeffding": (
        "79bf8fe0b666debe0ef3665fb12693ca21d77b5823e779067ebcd8f2a505a83c"
    ),
    "clt": (
        "7917dbe7263220d8ed4b8d67b7aff2124fa11a49867f9c582cb32c4d8b6fe518"
    ),
}


@pytest.mark.parametrize("method", METHODS)
def test_golden_ci_json(tmp_path, capsys, method):
    import hashlib

    transcript = _ci_json_transcript(tmp_path, capsys, method)
    assert hashlib.sha256(transcript).hexdigest() == _CI_GOLDEN[method]


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
        "ci", "--data", str(path), "--scheme", "mbcr",
        "--method", "studentized",
    ])
    assert code == 1
    assert "insufficient groups for cross-fitting" in capsys.readouterr().err


def _sparse_bernoulli_args(tmp_path, treated_ones=False) -> list[str]:
    """``ci`` on 3 treated units of 40 under Bernoulli data, before ``--pi``;
    optionally with every treated outcome 1."""
    rng = np.random.default_rng(0)
    z = np.zeros(40, dtype=int)
    z[[3, 17, 29]] = 1
    y = rng.uniform(0, 1, 40)
    if treated_ones:
        y[z == 1] = 1.0
    path = tmp_path / "data.csv"
    path.write_text(
        "y,z\n" + "".join(f"{float(v)!r},{t}\n" for v, t in zip(y, z))
    )
    return ["ci", "--data", str(path), "--scheme", "bernoulli", "--pi"]


@pytest.mark.parametrize(
    "method", ["sub-bernoulli-bern", "studentized", "naive-hoeffding", "clt"]
)
def test_ci_bounds_or_refuses_at_the_propensity_floor(tmp_path, capsys, method):
    # From MIN_PI up every Bernoulli-data method prints finite, ordered
    # endpoints, a finite half-width and nothing on stderr.  No errstate of
    # the test's own: the suite turns a RuntimeWarning into an error, so an
    # overflow anywhere would exit 2.
    for treated_ones in (False, True):
        base = _sparse_bernoulli_args(tmp_path, treated_ones)
        for pi, alpha in itertools.product((MIN_PI, 2 * MIN_PI, 1e-90), (0.05, 1e-300)):
            args = [*base, repr(pi), "--method", method, "--alpha", repr(alpha)]
            assert main([*args, "--json"]) == 0, (pi, alpha)
            captured = capsys.readouterr()
            assert captured.err == "", (pi, alpha)
            payload = json.loads(captured.out)
            lower, upper = payload["lower"], payload["upper"]
            assert math.isfinite(lower) and math.isfinite(upper), (pi, alpha)
            assert lower <= upper, (pi, alpha)
            assert math.isfinite(payload["half_width"]), (pi, alpha)
            assert reevaluate(method, payload["alpha"], payload["tuning"]) == (
                lower,
                upper,
            )
    for pi in (math.nextafter(MIN_PI, 0.0), 1e-160, 1e-308, 5e-324):
        assert main([*base, repr(pi), "--method", method]) == 1, pi
        assert f"below the floor {MIN_PI!r}" in capsys.readouterr().err


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
    asg = draw_complete(n, n1, rng)
    data = ObservedData.realize(table, asg)
    path = tmp_path / "complete.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "z"])
        for yy, zz in zip(data.y, asg.z):
            w.writerow([repr(float(yy)), int(zz)])
    code = main([
        "ci", "--data", str(path), "--scheme", "complete",
        "--method", "hoeff-mbcr", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["half_width"] == pytest.approx(
        math.sqrt(10) * math.sqrt(2 * math.log(40) / n)
    )


@pytest.mark.parametrize(
    "method", [m for m in METHODS if "complete" in METHOD_TABLE[m].cli_schemes]
)
def test_ci_complete_scheme_refuses_n1_above_half(tmp_path, capsys, method):
    # 3 of 4 units treated is a propensity of 0.75, refused for every
    # method, whether or not it builds a grouped layout
    path = tmp_path / "complete.csv"
    path.write_text("y,z\n0.1,1\n0.5,1\n0.7,1\n0.9,0\n")
    code = main([
        "ci", "--data", str(path), "--scheme", "complete",
        "--method", method,
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "relabel the arms" in captured.err


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


def test_simulate_refuses_a_grid_beyond_the_floor_or_cap(tmp_path, capsys):
    # a grid n above 2**53 is refused up front, as is a pi below the floor,
    # before any cell runs or any output is written
    grid = {"n": [40], "pi": ["1/10"], "alpha": [0.05]}
    bad = [
        ({"n": [40, MAX_N + 1]}, f"config.grid.n[1]: need an integer <= {MAX_N}"),
        ({"n": [10**400]}, f"config.grid.n[0]: need an integer <= {MAX_N}"),
        ({"pi": ["1e-308"]}, "config.grid.pi[0]: propensity"),
    ]
    for i, (override, message) in enumerate(bad):
        config = tmp_path / f"cfg{i}.json"
        config.write_text(json.dumps({
            "experiment": "width_scaling",
            "grid": {**grid, **override},
            "methods": ["naive-hoeffding"],
            "seed": 1,
        }))
        out = tmp_path / f"out{i}"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}"), err
    assert f"below the floor {MIN_PI!r}" in err


@pytest.mark.parametrize(
    "dgp, stray",
    [
        ({"kind": "uniform_null", "lo": 0.0, "hi": 0.1, "shift": 0.7}, ["shift"]),
        ({"kind": "fixed_table", "path": "table.csv", "lo": 0.3, "hi": 0.2},
         ["hi", "lo"]),
    ],
    ids=["null-shift", "table-lo-hi"],
)
def test_simulate_refuses_a_dgp_field_its_kind_does_not_read(
    tmp_path, capsys, monkeypatch, dgp, stray
):
    # a null dgp given a shift would run a null experiment that ignores it
    from tightci import cli

    def no_run(*args, **kwargs):
        raise AssertionError("ran a config with a stray dgp field")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "experiment": "coverage",
        "grid": {"n": [40], "pi": ["1/10"], "alpha": [0.05]},
        "methods": ["hoeff-mbcr"],
        "dgp": dgp,
        "replications": 2,
        "seed": 1,
    }))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == f"error: config.dgp: unknown field(s) {stray}\n"


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


@pytest.mark.parametrize(
    "kind, below",
    [("file", False), ("file", True), ("dangling-link", False)],
    ids=["file", "under-a-file", "dangling-link"],
)
def test_simulate_out_through_a_file_refused_before_running(
    tmp_path, capsys, monkeypatch, kind, below
):
    from tightci import cli

    def no_run(*args, **kwargs):
        raise AssertionError("ran before checking --out")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    blocker = tmp_path / kind
    if kind == "file":
        blocker.write_text("kept\n")
    else:
        blocker.symlink_to(tmp_path / "nowhere")
    out = blocker / "sub" if below else blocker
    args = ["simulate", "--config", str(CONFIGS / "fig2b.json"), "--out", str(out)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out {out}: {blocker} is not a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == [kind]
    assert kind != "file" or blocker.read_text() == "kept\n"


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


def test_equivalence_subcommand(tmp_path, capsys):
    # the exact check runs through simulate --config: a written config with
    # n = 6, n1 = 2 puts each of the 15 treated pairs 1728 times
    out = tmp_path / "eq"
    config = _equivalence_config(tmp_path, 6, 2)
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert "uniform: True" in capsys.readouterr().out
    rows = list(csv.DictReader((out / "equivalence.csv").open()))
    assert len(rows) == 15
    assert all(row["count"] == "1728" for row in rows)


def test_removed_run_subcommands_are_validation_errors(tmp_path, capsys):
    # simulate --config runs every experiment, the equivalence check included
    for name in ("scaling", "rmse", "equivalence"):
        out = tmp_path / name
        args = [name, "--config", str(CONFIGS / "fig1.json"), "--out", str(out)]
        assert main(args) == 1
        assert "invalid choice" in capsys.readouterr().err
        assert not out.exists()


def test_ci_assignment_flag_is_gone(tmp_path, capsys):
    # a grouped draw's beta,eta columns ride in --data, the one input file
    data = tmp_path / "obs.csv"
    _write_mbcr_data(data, with_perms=False)
    perms = tmp_path / "perms.csv"
    perms.write_text("beta,eta\n0,0\n")
    args = ["ci", "--data", str(data), "--scheme", "mbcr",
            "--method", "hoeff-mbcr", "--assignment", str(perms)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["obs.csv", "perms.csv"]


def _equivalence_config(tmp_path, n, n1):
    config = tmp_path / "equivalence.json"
    config.write_text(json.dumps({"experiment": "equivalence", "n": n, "n1": n1, "seed": 0}))
    return config


def test_equivalence_budget_validation(capsys, tmp_path):
    out = tmp_path / "x"
    config = _equivalence_config(tmp_path, 10, 5)
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert "budget" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "n, n1",
    [(1000, 10), (2000, 10), (10**6, 1), (3 * 10**6, 1), (10**400, 1)],
    ids=["1000-10", "2000-10", "1e6-1", "3e6-1", "1e400-1"],
)
def test_equivalence_budget_refusal_is_prompt_and_short(capsys, tmp_path, n, n1):
    # the tuple count g!**T * s! * n! is multiplied out only until it passes
    # the budget, so a huge space is refused at once with a short message
    import time

    out = tmp_path / "x"
    config = _equivalence_config(tmp_path, n, n1)
    start = time.perf_counter()
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 1, err
    assert elapsed < 2.0
    assert len(err) < 200
    assert "at least" in err and "over the budget of 100000000" in err
    assert not out.exists()


@pytest.mark.parametrize("digits", [32, 4300], ids=["1e31", "4300-digits"])
def test_equivalence_budget_over_the_cap_is_refused_at_once(capsys, tmp_path, digits):
    # a config budget of 10**31 at (20, 10) would start on some 2.5e21 tuples;
    # the refusal stays short at the longest integer JSON reads
    import time

    out = tmp_path / "x"
    config = tmp_path / "equivalence.json"
    budget = 10 ** (digits - 1)
    raw = {"experiment": "equivalence", "n": 20, "n1": 10, "seed": 0, "budget": budget}
    config.write_text(json.dumps(raw))
    start = time.perf_counter()
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 1, err
    assert elapsed < 2.0
    assert len(err) < 200
    assert "config.budget" in err and "10000000000" in err
    assert not out.exists()


def test_equivalence_budget_at_the_cap_runs(tmp_path):
    from tightci.design import MAX_ENUMERATION_BUDGET

    out = tmp_path / "x"
    config = tmp_path / "equivalence.json"
    raw = {"experiment": "equivalence", "n": 6, "n1": 2, "seed": 0}
    config.write_text(json.dumps({**raw, "budget": MAX_ENUMERATION_BUDGET}))
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "equivalence.csv").exists()


def test_readme_cli_examples_parse(capsys):
    # every command the README's CLI block shows parses, so the docs cannot
    # advertise a deleted subcommand or flag
    import shlex

    from tightci.cli import build_parser

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = block.replace("\\\n", " ").splitlines()
    assert commands and all(line.startswith("tightci ") for line in commands)
    for line in commands:
        argv = shlex.split(line)[1:]
        if argv == ["--version"]:
            with pytest.raises(SystemExit) as info:
                build_parser().parse_args(argv)
            assert info.value.code == 0
        else:
            build_parser().parse_args(argv)


def test_readme_cli_prose_names_only_live_flags():
    # the prose of the README's CLI section names no deleted flag either
    import re

    from tightci.cli import build_parser

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## CLI\n", 1)[1].split("### Experiment configs", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.DOTALL)
    spans = " ".join(re.findall(r"`([^`]+)`", prose))
    named = set(re.findall(r"--[a-z][a-z0-9-]*", spans))
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = set(parser._option_string_actions)
    for sub in commands.choices.values():
        options |= set(sub._option_string_actions)
    assert {"--pi", "--out"} <= named
    assert named <= options, named - options


def test_bundled_configs_parse():
    from tightci.harness import load_config

    for name in ("fig1", "fig2a", "fig2b", "fig2c", "rmse", "equivalence_6_2"):
        cfg = load_config(CONFIGS / f"{name}.json")
        assert cfg.experiment in {"coverage", "width_scaling", "rmse", "equivalence"}


def _child_env() -> dict[str, str]:
    """The environment of a child Python that finds the package where this
    process found it."""
    import os

    import tightci

    src = str(Path(tightci.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point_subprocess():
    import subprocess
    import sys

    env = _child_env()
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


def test_runtime_does_not_import_scipy_stats():
    # the normal quantile comes from scipy.special; a fresh
    # process that imports the command line never loads scipy.stats
    import subprocess
    import sys

    code = "import sys, tightci.cli; sys.exit('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
