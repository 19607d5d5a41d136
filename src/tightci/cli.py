"""Command-line front end.

Subcommands: ``ci`` computes one interval from an observed-data CSV, which
holds the whole draw (``z`` and, for a grouped draw, each unit's ``block``);
``simulate`` runs any experiment config (coverage, width scaling, RMSE or
the exact equivalence check), writes its CSV and manifest, and prints the
report summary.  Exit codes: 0 success, 1 validation error (bad flags,
schemas, or incompatible method/scheme combinations), 2 runtime error.

The ``--alpha`` flag is always the total miscoverage of the printed
interval.  Closed-form methods use it directly; the Studentized interval's
underlying construction is two one-sided bounds, so the CLI halves the
requested miscoverage before building it (it divides by the method's
``miscoverage_factor``, which is two for that interval and one otherwise),
so its ``--alpha`` floor is ``2 * MIN_ALPHA``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .design import (
    Assignment,
    DesignError,
    SCHEME_BERNOULLI,
    SCHEME_COMPLETE,
    SCHEME_MBCR,
    compute_layout,
    grouped_assignment,
    validate_propensity,
)
from .dgp import DgpError
from .estimator import (
    EstimatorError,
    ObservedData,
    ht_estimate,
    read_csv_columns,
)
from .harness import (
    SCHEMA_VERSION,
    ConfigError,
    load_config,
    run_experiment,
    write_outputs,
)
from .intervals import (
    METHOD_TABLE,
    METHODS,
    MIN_ALPHA,
    Interval,
    IntervalError,
    closed_ci,
)

_VALIDATION_ERRORS = (
    ConfigError,
    DesignError,
    DgpError,
    EstimatorError,
    IntervalError,
)


class CliError(ValueError):
    """Bad command-line input."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors surface as validation failures."""

    def error(self, message):
        raise CliError(message)


@functools.cache  # built on first use, once per process
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tightci", description=__doc__)
    parser.add_argument(
        "--version",
        action="version",
        version=f"tightci {__version__} (report schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ci = sub.add_parser("ci", help="compute one confidence interval from a data file")
    p_ci.add_argument("--data", required=True, help="CSV with columns y,z (mbcr data adds block)")
    p_ci.add_argument(
        "--scheme",
        required=True,
        choices=[SCHEME_BERNOULLI, SCHEME_COMPLETE, SCHEME_MBCR],
    )
    p_ci.add_argument("--method", required=True, choices=list(METHODS))
    p_ci.add_argument("--pi", type=float, help="propensity (bernoulli scheme)")
    p_ci.add_argument("--alpha", type=float, default=0.05, help="total miscoverage")
    p_ci.add_argument("--clip", action="store_true", help="clip endpoints to [-1, 1]")
    p_ci.add_argument("--json", action="store_true", help="machine-readable output")

    p_sim = sub.add_parser("simulate", help="run an experiment config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--workers", type=int, default=1)
    return parser


# ---------------------------------------------------------------------------
# ci subcommand


def _mbcr_assignment(z: np.ndarray, block) -> Assignment:
    """The grouped assignment of data whose units carry the integer labels
    ``block``: full blocks in increasing label order, then the tail, each
    with its treated units first and otherwise in row order."""
    if block is None:
        raise CliError("mbcr data needs each unit's block: give a block column in --data")
    if not np.array_equal(block, np.trunc(block)):
        raise CliError("block column must contain integers")
    layout = compute_layout(z.shape[0], int(z.sum()))
    (g, _, full), *tails = layout.kinds
    labels, unit_block, sizes = np.unique(block, return_inverse=True, return_counts=True)
    treated = np.bincount(unit_block[z == 1], minlength=labels.size)
    # A tail is never a full block's (g, 1): with one treated unit it is
    # shorter than g, and otherwise it has two.
    odd = np.flatnonzero((sizes != g) | (treated != 1))
    if [(sizes[b], treated[b]) for b in odd] != [(s, k) for s, k, _ in tails]:
        tail = "".join(f", and one of {s} units with {k} treated" for s, k, _ in tails)
        found = "; ".join(
            f"block {int(labels[b])} has {sizes[b]} units, {treated[b]} treated"
            for b in odd[:3]
        )
        raise CliError(
            f"block column does not match the grouped layout of {layout.n} units, "
            f"{layout.n1} treated: {full} blocks of {g} units "
            f"with one treated each{tail}; {found}"
        )
    slot_order = np.lexsort((1 - z, unit_block, np.isin(unit_block, odd)))
    eta = np.empty_like(slot_order)
    eta[slot_order] = np.arange(layout.n)
    return grouped_assignment(layout, eta)


def _compute_ci(args) -> Interval:
    scheme, method = args.scheme, args.method
    spec = METHOD_TABLE[method]
    alpha = args.alpha / spec.miscoverage_factor
    if not (MIN_ALPHA <= alpha and args.alpha < 1.0):
        raise CliError(
            f"--alpha must lie in (0, 1) and be at least "
            f"{MIN_ALPHA * spec.miscoverage_factor!r} for {method}, got {args.alpha!r}"
        )
    cols = read_csv_columns(args.data, ("y", "z"), optional=("block",))
    y = cols["y"]
    if not np.all(np.isin(cols["z"], (0.0, 1.0))):
        raise CliError("z column must be 0/1")
    z = cols["z"].astype(np.int8)
    if y.min() < 0.0 or y.max() > 1.0:
        raise CliError("y values must lie in [0, 1]; rescale the outcomes first")
    n = y.shape[0]
    block = cols.get("block")

    if scheme not in spec.cli_schemes:
        usable = [m for m in METHODS if scheme in METHOD_TABLE[m].cli_schemes]
        raise CliError(
            f"method {method} does not apply to {scheme} data; use "
            + ", ".join(usable)
        )
    if scheme == SCHEME_BERNOULLI:
        if args.pi is None:
            raise CliError("scheme bernoulli needs --pi")
        pi = args.pi
    else:
        if args.pi is not None:
            raise CliError("--pi applies to the bernoulli scheme only")
        n1 = int(z.sum())
        pi = n1 / n
    validate_propensity(pi)

    if scheme == SCHEME_MBCR:
        assignment = _mbcr_assignment(z, block)
    elif block is not None:
        raise CliError("the block column only applies to scheme mbcr")
    else:
        assignment = Assignment(z=z, scheme=scheme, pi=pi)
    layout = assignment.layout
    if scheme == SCHEME_COMPLETE and spec.scheme == SCHEME_MBCR:
        # Complete randomization is the grouped design when the groups tile
        # the sample, and then the standard estimate is the grouped one.
        layout = compute_layout(n, n1)
        if len(layout.kinds) > 1:
            raise CliError(
                f"{method} on plain complete data needs groups that tile the "
                "sample (n1 dividing n); otherwise give each unit's block in "
                "--data and use scheme mbcr"
            )
    data = ObservedData(y=y, assignment=assignment)
    if spec.adaptive is not None:
        return spec.adaptive(data, alpha)
    return closed_ci(method, ht_estimate(data), alpha, layout=layout, n=n, pi=pi)


def cmd_ci(args) -> int:
    interval = _compute_ci(args)
    if args.clip:
        interval = interval.clipped()
    payload = {
        "method": interval.method,
        "alpha": interval.alpha,
        "lower": interval.lower,
        "upper": interval.upper,
        "half_width": interval.half_width,
        "tuning": interval.tuning,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"method:     {interval.method}")
        print(f"alpha:      {interval.alpha!r}")
        print(f"lower:      {interval.lower!r}")
        print(f"upper:      {interval.upper!r}")
        print(f"half_width: {interval.half_width!r}")
        for key in sorted(interval.tuning):
            print(f"tuning.{key}: {interval.tuning[key]!r}")
    return 0


# ---------------------------------------------------------------------------
# simulate subcommand


def cmd_simulate(args) -> int:
    """Run a config, write its CSV and manifest, and print the summary."""
    config = load_config(args.config)
    ancestor = Path(args.out).absolute()
    while not (ancestor.exists() or ancestor.is_symlink()):  # write_outputs makes the rest
        ancestor = ancestor.parent
    if not ancestor.is_dir():
        raise CliError(f"--out {args.out}: {ancestor} is not a directory")
    report = run_experiment(config, workers=args.workers)
    paths = write_outputs(args.out, report, config)
    print(f"wrote {paths['csv']}")
    print(f"wrote {paths['manifest']}")
    for key, value in sorted(report.summary.items()):
        print(f"{key}: {value}")
    return 0


COMMANDS = {
    "ci": cmd_ci,
    "simulate": cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --version or --help
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except (CliError, *_VALIDATION_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
