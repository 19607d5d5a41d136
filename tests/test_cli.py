"""Command-line behavior: exit codes, validation, and output contracts."""

import argparse
import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from reference import draw_complete, unit_blocks, write_grouped_csv
from tightci.cli import _mbcr_assignment, main
from tightci.design import (
    MAX_N,
    MIN_PI,
    compute_layout,
    draw_bernoulli,
    draw_mbcr,
    grouped_assignment,
)
from tightci.estimator import ObservedData, PotentialTable, ht_estimate
from tightci.intervals import METHOD_TABLE, METHODS, MIN_ALPHA, closed_ci, reevaluate

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


def _write_mbcr_data(path, n=1000, n1=100, seed=42, draw_seed=99, with_block=True):
    lay = compute_layout(n, n1)
    rng = np.random.default_rng(seed)
    y0 = rng.uniform(0.1, 0.5, n)
    table = PotentialTable(y0, y0 + 0.5)
    asg = draw_mbcr(lay, np.random.default_rng(draw_seed))
    data = ObservedData.realize(table, asg)
    if with_block:
        write_grouped_csv(path, data)
        return data
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
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


def test_ci_missing_block_column(tmp_path, capsys):
    path = tmp_path / "bare.csv"
    _write_mbcr_data(path, with_block=False)
    code = main([
        "ci", "--data", str(path), "--scheme", "mbcr",
        "--method", "hoeff-mbcr",
    ])
    assert code == 1
    assert "give a block column in --data" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scheme_args",
    [
        ["--scheme", "complete", "--method", "hoeff-mbcr"],
        ["--scheme", "bernoulli", "--pi", "0.1", "--method", "sub-bernoulli-bern"],
    ],
    ids=["complete", "bernoulli"],
)
def test_ci_block_column_refused_outside_mbcr(tmp_path, capsys, scheme_args):
    path = tmp_path / "data.csv"
    _write_mbcr_data(path)
    assert main(["ci", "--data", str(path), *scheme_args]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: the block column only applies to scheme mbcr\n"
    assert captured.out == ""


def test_ci_permutation_columns_refused(tmp_path, capsys):
    # a grouped draw is read from its block labels; beta,eta columns, the
    # earlier format, are unknown columns
    lay = compute_layout(8, 4)
    asg = draw_mbcr(lay, np.random.default_rng(5))
    rows = (f"0.5,{z},{j},{e}" for j, (z, e) in enumerate(zip(asg.z.tolist(), asg.eta)))
    path = tmp_path / "old.csv"
    path.write_text("\n".join(["y,z,beta,eta", *rows]) + "\n")
    args = ["ci", "--data", str(path), "--scheme", "mbcr", "--method", "hoeff-mbcr"]
    assert main(args) == 1
    assert "unexpected or repeated column(s) ['beta', 'eta']" in capsys.readouterr().err


def _move(block, units, label):
    """``block`` with ``units`` relabelled ``label``."""
    block = block.copy()
    block[units] = label
    return block


def _first(z, block, label, treated):
    """The first unit of block ``label`` that is treated (or a control)."""
    return np.flatnonzero((block == label) & (z == int(treated)))[0]


_MISMATCH = "block column does not match the grouped layout of "

# Each edit of a grouped draw's block labels (full blocks 0..T-1, tail T),
# and the refusal it must meet.
_BLOCK_EDITS = {
    "unaltered": (lambda lay, z, b: b, None),
    "non-integer": (lambda lay, z, b: _move(b, 0, 0.5), "block column must contain integers"),
    # a control of block 0 moved to block 1
    "full-block-size": (
        lambda lay, z, b: _move(b, _first(z, b, 0, False), 1),
        "block 0 has {g1} units, 1 treated; block 1 has {g2} units, 1 treated",
    ),
    # block 0's treated unit trades blocks with a control of block 1
    "full-block-treated": (
        lambda lay, z, b: _move(
            _move(b, _first(z, b, 0, True), 1), _first(z, b, 1, False), 0
        ),
        "block 0 has {g} units, 0 treated; block 1 has {g} units, 2 treated",
    ),
    # the tail merged into the last full block
    "tail": (
        lambda lay, z, b: np.minimum(b, lay.num_full_groups - 1),
        "block {last} has {merged} units, {k1} treated",
    ),
}


@pytest.mark.parametrize("edit", list(_BLOCK_EDITS))
# (47, 5) spills one treated unit into a tail of 7 slots against blocks of 10;
# (26, 6) spills two into a tail of 6 slots against blocks of 5.
@pytest.mark.parametrize("n, n1", [(47, 5), (26, 6)], ids=["spill-1", "spill-2"])
def test_ci_block_labels_checked(tmp_path, capsys, n, n1, edit):
    alter, message = _BLOCK_EDITS[edit]
    lay = compute_layout(n, n1)
    asg = draw_mbcr(lay, np.random.default_rng(3))
    z = asg.z
    block = alter(lay, z, unit_blocks(asg).astype(np.float64))
    rows = (f"0.5,{zz},{bb!r}" for zz, bb in zip(z.tolist(), block.tolist()))
    path = tmp_path / "data.csv"
    path.write_text("\n".join(["y,z,block", *rows]) + "\n")
    code = main([
        "ci", "--data", str(path), "--scheme", "mbcr",
        "--method", "hoeff-mbcr",
    ])
    err = capsys.readouterr().err
    if message is None:
        assert code == 0 and err == ""
        return
    g, s, k = lay.group_size, lay.tail_size, lay.tail_treated
    message = message.format(
        g=g, g1=g - 1, g2=g + 1, last=lay.num_full_groups - 1, merged=g + s, k1=k + 1
    )
    assert code == 1 and message in err
    if edit != "non-integer":
        layout = (
            f"{n} units, {n1} treated: {lay.num_full_groups} blocks of {g} units "
            f"with one treated each, and one of {s} units with {k} treated; "
        )
        assert f"error: {_MISMATCH}{layout}" in err


def test_ci_checks_the_blocks_of_a_tiling_draw(tmp_path, capsys):
    # with no tail every block is a full one: one of 11 units is refused
    path = tmp_path / "data.csv"
    args = ["ci", "--data", str(path), "--scheme", "mbcr", "--method", "hoeff-mbcr"]
    rows = [f"0.5,{int(j % 10 == 0)},{min(j // 10, 3)}" for j in range(40)]
    path.write_text("\n".join(["y,z,block", *rows]) + "\n")
    assert main(args) == 0
    capsys.readouterr()
    rows[10] = "0.5,1,0"
    path.write_text("\n".join(["y,z,block", *rows]) + "\n")
    assert main(args) == 1
    assert capsys.readouterr().err == (
        f"error: {_MISMATCH}40 units, 4 treated: 4 blocks of 10 units with one "
        "treated each; block 0 has 11 units, 2 treated; block 1 has 9 units, 0 treated\n"
    )


_GROUPED_METHODS = [m for m in METHODS if "mbcr" in METHOD_TABLE[m].cli_schemes]
# (50, 5) tiles the sample with blocks of 10; (47, 5) and (26, 6) spill one
# and two treated units into a tail.
_SHAPES = pytest.mark.parametrize(
    "n, n1", [(50, 5), (47, 5), (26, 6)], ids=["tiling", "spill-1", "spill-2"]
)


def _grouped_draw(n, n1, seed=5) -> ObservedData:
    lay = compute_layout(n, n1)
    rng = np.random.default_rng(seed)
    y0 = rng.uniform(0.0, 0.5, n)
    table = PotentialTable(y0, y0 + 0.5 * rng.random(n))
    return ObservedData.realize(table, draw_mbcr(lay, rng))


def _library_interval(method, data, alpha=0.05):
    """The interval the library builds for ``method`` on a grouped draw, at
    total miscoverage ``alpha`` as ``ci --alpha`` gives it."""
    spec = METHOD_TABLE[method]
    if spec.adaptive is not None:
        return spec.adaptive(data, alpha / spec.miscoverage_factor)
    lay = data.assignment.layout
    return closed_ci(
        method, ht_estimate(data), alpha, layout=lay, n=lay.n, pi=lay.n1 / lay.n
    )


def _ci_json(capsys, path, method) -> dict:
    assert main(["ci", "--data", str(path), "--scheme", "mbcr", "--method", method, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("method", _GROUPED_METHODS)
@_SHAPES
def test_ci_block_file_gives_the_library_interval(tmp_path, capsys, n, n1, method):
    # the block labels fix every unit's block, not its slot inside it, so
    # the sums inside a block may run in another order
    data = _grouped_draw(n, n1)
    want = _library_interval(method, data)
    path = tmp_path / "data.csv"
    write_grouped_csv(path, data)
    got = _ci_json(capsys, path, method)
    for end in ("lower", "upper"):
        assert math.isclose(got[end], getattr(want, end), rel_tol=2e-15, abs_tol=1e-15)

    # rows whose slots inside each block already run treated first, then in
    # row order, give the draw's own slots: here the rows go by slot within
    # the block, then by block
    lay = data.assignment.layout
    slot, block = data.assignment.eta, unit_blocks(data.assignment)
    rows = np.lexsort((block, slot - block * lay.group_size))
    reordered = ObservedData(
        y=data.y[rows], assignment=grouped_assignment(lay, slot[rows])
    )
    assert _library_interval(method, reordered) == want
    write_grouped_csv(path, reordered)
    got = _ci_json(capsys, path, method)
    assert (got["lower"], got["upper"]) == (want.lower, want.upper)
    assert got["half_width"] == want.half_width


@_SHAPES
def test_block_labels_imply_z_and_keep_every_unit_in_its_block(n, n1):
    # labels in any order, as many distinct values as blocks
    data = _grouped_draw(n, n1, seed=9)
    lay, z = data.assignment.layout, data.assignment.z
    block = unit_blocks(data.assignment)
    relabel = np.random.default_rng(1).permutation(lay.num_groups) * 3 - 4
    asg = _mbcr_assignment(z, relabel[block].astype(np.float64))
    assert np.array_equal(asg.z, z)
    built = unit_blocks(asg)
    pairs = set(zip(block.tolist(), built.tolist()))
    assert len(pairs) == lay.num_groups
    assert {b for b, _ in pairs} == {b for _, b in pairs} == set(range(lay.num_groups))


@pytest.mark.parametrize("method", _GROUPED_METHODS)
@_SHAPES
def test_ci_labels_under_an_increasing_map_print_the_same_bytes(
    tmp_path, capsys, n, n1, method
):
    # only the labels' order is read, and the tail goes last whatever its label
    data = _grouped_draw(n, n1, seed=11)
    plain = tmp_path / "plain.csv"
    write_grouped_csv(plain, data)
    header, *rows = plain.read_text().splitlines()
    cells = [row.rpartition(",") for row in rows]
    tail = data.assignment.layout.num_full_groups
    path = tmp_path / "relabelled.csv"
    args = ["ci", "--data", str(path), "--scheme", "mbcr", "--method", method]
    outputs = []
    for relabel in (lambda b: b, lambda b: 7 * b + 3, lambda b: -1 if b == tail else b):
        moved = (f"{y_z},{relabel(int(b))}" for y_z, _, b in cells)
        path.write_text("\n".join([header, *moved]) + "\n")
        assert main(args) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def _ci_args(path, scheme) -> list[str]:
    """``ci`` on data drawn under ``scheme`` (grouped data with its block
    column) with a method that applies to it, before any ``--pi``."""
    if scheme == "bernoulli":
        _write_bernoulli_data(path)
        method = "clt"
    else:
        _write_mbcr_data(path, with_block=scheme == "mbcr")
        method = "hoeff-mbcr"
    return ["ci", "--data", str(path), "--scheme", scheme, "--method", method]


@pytest.mark.parametrize("flag", [["--n1", "100"], ["--seed", "3"]], ids=["n1", "seed"])
@pytest.mark.parametrize("scheme", ["bernoulli", "complete", "mbcr"])
def test_ci_removed_draw_flags_refused(tmp_path, capsys, scheme, flag):
    # --data holds the whole draw: the treated count is its z column's and a
    # grouped draw's blocks are its block column
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
    # no treated unit is a propensity of 0; the grouped data's blocks are
    # integer labels, so only z is at fault
    grouped = scheme == "mbcr"
    rows = [f"0.5,0,{j // 2}" if grouped else "0.5,0" for j in range(10)]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(["y,z,block" if grouped else "y,z", *rows]) + "\n")
    code = main([
        "ci", "--data", str(path), "--scheme", scheme, "--method", "hoeff-mbcr",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "propensity 0.0 outside" in captured.err and captured.out == ""


def _ci_json_transcript(tmp_path, capsys, method) -> bytes:
    """The exit code, stdout and stderr of ``ci --json`` with ``method`` on
    grouped data with its blocks at (1000, 100) and with a tail at (997, 100),
    complete data at (1000, 100) and Bernoulli data at (400, 0.1)."""
    grouped, tailed, complete, bern = (
        tmp_path / f"{name}.csv" for name in ("grouped", "tailed", "complete", "bern")
    )
    _write_mbcr_data(grouped)
    _write_mbcr_data(tailed, n=997)
    # groups that tile the sample make a grouped draw a complete one
    _write_mbcr_data(complete, draw_seed=5, with_block=False)
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
        "0d16bc861a547d17de53dfa1bc50b5bb4e4325ba413a12a19fc048f534ccdec5"
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


@pytest.mark.parametrize(
    "method, floor", [("hoeff-mbcr", MIN_ALPHA), ("studentized", 2 * MIN_ALPHA)]
)
def test_ci_alpha_floor_is_the_methods(tmp_path, capsys, method, floor):
    # the Studentized interval is built at half the --alpha given, so its
    # floor is twice MIN_ALPHA, and a refusal names the value given
    path = tmp_path / "data.csv"
    _write_mbcr_data(path)
    base = ["ci", "--data", str(path), "--scheme", "mbcr", "--method", method]
    assert main([*base, "--alpha", repr(floor), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == MIN_ALPHA
    for alpha in (math.nextafter(floor, 0.0), 1.5e-308, 0.0, 1.0, 1.5):
        code = main([*base, "--alpha", repr(alpha)])
        captured = capsys.readouterr()
        if floor <= alpha < 1.0:
            assert code == 0 and captured.err == ""
            continue
        assert code == 1 and captured.out == ""
        assert captured.err == (
            f"error: --alpha must lie in (0, 1) and be at least {floor!r} "
            f"for {method}, got {alpha!r}\n"
        )


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
    # 5 treated of 47 leave a tail, which only each unit's block can place
    path.write_text("y,z\n" + "".join(f"0.5,{int(j < 5)}\n" for j in range(47)))
    code = main([
        "ci", "--data", str(path), "--scheme", "complete", "--method", "hoeff-mbcr",
    ])
    assert code == 1
    assert "otherwise give each unit's block in --data and use scheme mbcr" in (
        capsys.readouterr().err
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


def test_byte_order_mark_is_read_past(tmp_path, capsys):
    # spreadsheet exports may open a UTF-8 file with a byte-order mark
    from reference import write_table_csv

    bom = b"\xef\xbb\xbf"
    data, data_bom = tmp_path / "data.csv", tmp_path / "data_bom.csv"
    _write_bernoulli_data(data, n=60)
    data_bom.write_bytes(bom + data.read_bytes())
    flags = ["--scheme", "bernoulli", "--pi", "0.1", "--method", "clt", "--json"]
    outputs = []
    for path in (data, data_bom):
        assert main(["ci", "--data", str(path), *flags]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0]

    table, table_bom = tmp_path / "table.csv", tmp_path / "table_bom.csv"
    y0 = np.random.default_rng(4).uniform(0.0, 0.5, 40)
    write_table_csv(table, PotentialTable(y0, y0 + 0.25))
    table_bom.write_bytes(bom + table.read_bytes())
    reports = []
    for path in (table, table_bom):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "experiment": "coverage",
            "grid": {"n": [40], "pi": ["1/10"], "alpha": [0.05]},
            "methods": ["hoeff-mbcr", "sub-bernoulli-bern"],
            "dgp": {"kind": "fixed_table", "path": str(path)},
            "replications": 20,
            "seed": 2,
            "setting": "design_based",
        }))
        out = tmp_path / path.stem
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        reports.append((out / "coverage.csv").read_bytes())
    capsys.readouterr()
    assert reports[1] == reports[0]


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
    # a grouped draw's block column rides in --data, the one input file
    data = tmp_path / "obs.csv"
    _write_mbcr_data(data, with_block=False)
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
    # the normal quantile is the package's own; a fresh process that
    # imports the command line never loads scipy.stats
    import subprocess
    import sys

    code = "import sys, tightci.cli; sys.exit('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr


# A fresh interpreter's last line of output: main's exit code (0 when no
# arguments are given and main is not called), the scipy modules loaded and
# the number of os.fork calls.  Two CPUs are reported, so that two workers
# fork on any machine.
_FRESH_MAIN = """
import json, os, sys
from tightci.cli import main

forks = []
fork = os.fork

def counted_fork():
    forks.append(1)
    return fork()

os.fork = counted_fork
os.cpu_count = lambda: 2
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
scipy = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps([code, scipy, len(forks)]))
"""


def _fresh_main(argv: list[str]) -> tuple[str, int, list[str], int]:
    """``main(argv)`` in a fresh interpreter: the output before the probe's
    line, the exit code, the scipy modules loaded and the number of forks
    (see ``_FRESH_MAIN``)."""
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_MAIN, *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    out, _, probe = proc.stdout.rstrip("\n").rpartition("\n")
    return (out + "\n" if out else ""), *json.loads(probe)


def _write_clt_config(path) -> None:
    path.write_text(json.dumps({
        "experiment": "coverage",
        "grid": {"n": [200], "pi": ["1/10"], "alpha": [0.05, 0.1]},
        "methods": ["clt", "sub-bernoulli-bern"],
        "dgp": {"kind": "uniform_shift", "lo": 0.1, "hi": 0.5, "shift": 0.5},
        "replications": 20,
        "seed": 3,
        "setting": "design_based",
    }))


@pytest.mark.parametrize(
    "command", ["import", "simulate", "ci", "ci-clt", "simulate-clt-2w"]
)
def test_runtime_loads_no_scipy(tmp_path, command):
    # no run loads scipy, clt's included: its normal quantile is _ndtri
    data, bern = tmp_path / "data.csv", tmp_path / "bern.csv"
    config = tmp_path / "clt.json"
    _write_mbcr_data(data)
    _write_bernoulli_data(bern)
    _write_clt_config(config)
    argv = {
        "import": [],
        "simulate": [
            "simulate", "--config", str(CONFIGS / "fig2a.json"),
            "--out", str(tmp_path / "out"),
        ],
        "ci": ["ci", "--data", str(data), "--scheme", "mbcr", "--method", "hoeff-mbcr"],
        "ci-clt": [
            "ci", "--data", str(bern), "--scheme", "bernoulli", "--pi", "0.1",
            "--method", "clt",
        ],
        "simulate-clt-2w": [
            "simulate", "--config", str(config), "--out", str(tmp_path / "out"),
            "--workers", "2",
        ],
    }[command]
    _, code, scipy, _ = _fresh_main(argv)
    assert code == 0
    assert scipy == []


def test_clt_ci_in_a_fresh_process_loads_no_scipy(tmp_path, capsys):
    data = tmp_path / "data.csv"
    _write_bernoulli_data(data)
    argv = [
        "ci", "--data", str(data), "--scheme", "bernoulli", "--pi", "0.1",
        "--method", "clt", "--json",
    ]
    out, code, scipy, _ = _fresh_main(argv)
    assert code == 0
    assert scipy == []
    # the same bytes as in this process, where the quantile may be cached
    assert main(argv) == 0
    assert out == capsys.readouterr().out


def test_clt_bytes_equal_across_workers(tmp_path):
    # each forked child computes its own quantiles, and every worker count
    # gives the same bytes with no scipy module loaded
    config = tmp_path / "clt.json"
    _write_clt_config(config)
    runs = {}
    for workers in ("1", "2"):
        out = tmp_path / workers
        argv = ["simulate", "--config", str(config), "--out", str(out)]
        _, code, scipy, forks = _fresh_main([*argv, "--workers", workers])
        assert code == 0
        assert scipy == []
        runs[workers] = forks, {p.name: p.read_bytes() for p in out.iterdir()}
    assert runs["1"][0] == 0
    assert runs["2"][0] == 1
    assert runs["2"][1] == runs["1"][1]
    assert sorted(runs["1"][1]) == ["coverage.csv", "manifest.json"]
