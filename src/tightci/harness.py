"""Deterministic Monte Carlo experiment runner.

Experiments are described by a JSON config (grid of sample sizes,
propensities, and levels; method list; data-generating process; replication
count; seed) and produce CSV reports plus a manifest.  Coverage and RMSE
experiments share one runner, :func:`run_monte_carlo`: every row has its
RMSE, then an interval's coverage and width or an estimator's RMSE bound.
Reports are byte-identical across reruns and across worker counts: every
(cell ``c``, tag) has one PCG64 stream seeded by ``(seed, c, tag)`` via
``numpy.random.SeedSequence``, replication ``r`` draws from its segment that
starts ``r * 2**64`` draws in, and results are assembled in replication
order regardless of how work was chunked.

Every replication estimates from the units its draw treats
(:func:`~tightci.design.treated_set_mbcr`,
:func:`~tightci.design.treated_set_bernoulli`), O(n pi) work on its table;
only a design that a data-adaptive interval reads in the cell observes and
weighs every unit.

Propensities in configs may be written as JSON numbers or as fraction
strings like ``"1/10"``; numbers are interpreted through their shortest
decimal representation, so ``0.1`` means exactly one tenth.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import logging
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__ as TOOL_VERSION
from .design import (
    DEFAULT_ENUMERATION_BUDGET,
    MAX_ENUMERATION_BUDGET,
    MAX_N,
    SCHEME_BERNOULLI,
    SCHEME_MBCR,
    Assignment,
    DesignError,
    MbcrLayout,
    bernoulli_assignment,
    compute_layout,
    draw_mbcr,
    enumerate_mbcr_distribution,
    treated_set_bernoulli,
    treated_set_mbcr,
    validate_propensity,
)
from .dgp import (
    KIND_FIELDS,
    KIND_FIXED_TABLE,
    KINDS,
    DgpError,
    DgpSpec,
    sample_population,
    true_ate_iid,
)
from .estimator import (
    ObservedData,
    PotentialTable,
    observe,
    slot_terms,
    term_mean,
    treated_set_estimate,
)
from .intervals import (
    METHOD_TABLE,
    EmptyArmError,
    IntervalError,
    MethodSpec,
    validate_alpha,
)

log = logging.getLogger(__name__)

SCHEMA_VERSION = "1"
# Bumped when a seed's draws change.  Stream 4 draws every Bernoulli
# replication's treated set, and a grouped permutation only for an adaptive
# interval; stream 3 advanced one PCG64 per (cell, tag) to each replication's
# segment; stream 2 seeded every (cell, replication, tag) on its own; stream 1
# shuffled every block first.
RNG_STREAM = 4

EXPERIMENT_COVERAGE = "coverage"
EXPERIMENT_WIDTH_SCALING = "width_scaling"
EXPERIMENT_RMSE = "rmse"
EXPERIMENT_EQUIVALENCE = "equivalence"

EXPERIMENTS = (
    EXPERIMENT_COVERAGE,
    EXPERIMENT_WIDTH_SCALING,
    EXPERIMENT_RMSE,
    EXPERIMENT_EQUIVALENCE,
)

SETTING_DESIGN_BASED = "design_based"
SETTING_SUPERPOPULATION = "superpopulation"

CLOSED_WIDTH_METHODS = {m for m, s in METHOD_TABLE.items() if s.tuning is not None}
COVERAGE_METHODS = {m for m, s in METHOD_TABLE.items() if s.has_interval}
RMSE_METHODS = {m for m, s in METHOD_TABLE.items() if not s.has_interval}

REPORT_COLUMNS = [
    "schema_version",
    "method",
    "n",
    "pi",
    "alpha",
    "coverage_rate",
    "coverage_se",
    "mean_halfwidth",
    "width_times_sqrt_npi",
    "rmse",
    "rmse_bound",
    "replications",
    "seed",
]

EQUIVALENCE_COLUMNS = [
    "schema_version",
    "n",
    "n1",
    "assignment",
    "count",
    "total",
    "probability",
]

# Stream tags: the cell's table, then the streams of every replication.
_TAG_CELL_TABLE = 0
_TAG_REP_TABLE = 1
_TAG_MBCR = 2
_TAG_BERN = 3
# Each design's draw tag, in the order a replication draws the designs.
_DRAW_TAGS = {SCHEME_MBCR: _TAG_MBCR, SCHEME_BERNOULLI: _TAG_BERN}


class ConfigError(ValueError):
    """A malformed experiment configuration; message names the field."""


def substream(seed: int, cell: int, tag: int):
    """``at(rep)``: the (seed, cell, tag) stream's generator, reset to its
    seeded state and advanced ``rep * 2**64`` draws, so that replication
    ``rep`` owns a disjoint segment whatever chunk runs it, at a fraction of
    the cost of seeding a generator per replication."""
    bitgen = np.random.PCG64(np.random.SeedSequence((int(seed), int(cell), int(tag))))
    seeded = bitgen.state
    rng = np.random.Generator(bitgen)

    def at(rep: int) -> np.random.Generator:
        bitgen.state = seeded
        bitgen.advance(rep << 64)
        return rng

    return at


def parse_propensity(value: Any, where: str = "pi") -> Fraction:
    """Parse a config propensity into an exact fraction in [MIN_PI, 1/2].

    ``f"1/{2**300}"`` is exactly the floor ``MIN_PI``; a smaller value is
    refused with the floor in the message.
    """
    text = value if isinstance(value, str) else str(_number(value, where))
    try:
        frac = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where}: cannot parse propensity {value!r}: {exc}") from exc
    try:
        validate_propensity(frac)
    except DesignError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return frac


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, immutable description of one experiment."""

    experiment: str
    seed: int
    methods: tuple[str, ...] = ()
    ns: tuple[int, ...] = ()
    pis: tuple[Fraction, ...] = ()
    alphas: tuple[float, ...] = ()
    dgp: DgpSpec | None = None
    replications: int = 1
    setting: str = SETTING_DESIGN_BASED
    # equivalence-only knobs
    n: int | None = None
    n1: int | None = None
    budget: int = DEFAULT_ENUMERATION_BUDGET
    raw: dict = field(default_factory=dict, compare=False)


def _fields(obj: Any, where: str, required: tuple[str, ...], defaults: dict) -> dict:
    """An object's fields: each required one, defaults for the rest, no others."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where}: missing required field {key!r}")
    extra = set(obj) - set(required) - set(defaults)
    if extra:
        raise ConfigError(f"{where}: unknown field(s) {sorted(extra)}")
    return {**defaults, **obj}


def _brief(value: Any) -> str:
    """``repr(value)``, cut short: a JSON integer can run to thousands of digits."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"


def _int_at_least(value: Any, k: int, where: str, most: int | None = None) -> int:
    """``value`` if it is an integer of at least ``k`` (and at most ``most``)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < k:
        raise ConfigError(f"{where}: need an integer >= {k}, got {_brief(value)}")
    if most is not None and value > most:
        raise ConfigError(f"{where}: need an integer <= {most}, got {_brief(value)}")
    return value


def _number(value: Any, where: str) -> float:
    """A finite JSON number; booleans and numeric strings are refused."""
    # The bound also refuses NaN, and integers too large for a float.
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not abs(value) <= sys.float_info.max
    ):
        raise ConfigError(f"{where}: need a finite number, got {value!r}")
    return float(value)


def _nonempty_list(value: Any, where: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: need a nonempty list")
    return value


def _choice(value: Any, choices, where: str, refusal: str) -> str:
    """``value`` if it is one of the strings in ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"{where}: {value!r} {refusal}")
    return value


def _parse_dgp(obj: Any, n: int, where: str) -> DgpSpec:
    kind = _fields(obj, where, ("kind",), obj)["kind"]
    if kind not in KINDS:
        raise ConfigError(f"{where}: unknown dgp kind {kind!r}; choose from {KINDS}")
    fields = _fields(obj, where, ("kind",), KIND_FIELDS[kind])
    path = fields.pop("path", None)
    if path is not None and not isinstance(path, str):
        raise ConfigError(f"{where}.path: need a string, got {path!r}")
    bounds = {k: _number(v, f"{where}.{k}") for k, v in fields.items() if k != "kind"}
    try:
        return DgpSpec(kind=kind, n=n, path=path, **bounds)
    except DgpError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _defaults(*names: str) -> dict:
    """The dataclass defaults of optional config fields."""
    return {name: getattr(ExperimentConfig, name) for name in names}


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON object into an :class:`ExperimentConfig`."""
    # Any field may appear until the experiment says which ones belong.
    experiment = _choice(
        _fields(raw, "config", ("experiment",), raw)["experiment"],
        EXPERIMENTS,
        "config.experiment",
        f"is not an experiment; choose from {EXPERIMENTS}",
    )
    if experiment == EXPERIMENT_EQUIVALENCE:
        f = _fields(raw, "config", ("experiment", "seed", "n", "n1"), _defaults("budget"))
        return ExperimentConfig(
            experiment=experiment,
            seed=_int_at_least(f["seed"], 0, "config.seed"),
            n=_int_at_least(f["n"], 1, "config.n"),
            n1=_int_at_least(f["n1"], 1, "config.n1"),
            budget=_int_at_least(
                f["budget"], 1, "config.budget", MAX_ENUMERATION_BUDGET
            ),
            raw=raw,
        )

    required = ("experiment", "seed", "grid", "methods")
    if experiment in (EXPERIMENT_COVERAGE, EXPERIMENT_RMSE):
        required += ("dgp",)
    f = _fields(raw, "config", required, _defaults("dgp", "replications", "setting"))
    grid = _fields(f["grid"], "config.grid", ("n", "pi", "alpha"), {})
    lists = {k: _nonempty_list(grid[k], f"config.grid.{k}") for k in grid}
    ns = tuple(
        _int_at_least(v, 2, f"config.grid.n[{i}]", MAX_N)
        for i, v in enumerate(lists["n"])
    )
    pis = tuple(
        parse_propensity(v, where=f"config.grid.pi[{i}]")
        for i, v in enumerate(lists["pi"])
    )
    alphas = []
    for i, v in enumerate(lists["alpha"]):
        where = f"config.grid.alpha[{i}]"
        try:
            alphas.append(validate_alpha(_number(v, where)))
        except IntervalError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    allowed = {
        EXPERIMENT_COVERAGE: COVERAGE_METHODS,
        EXPERIMENT_WIDTH_SCALING: CLOSED_WIDTH_METHODS,
        EXPERIMENT_RMSE: RMSE_METHODS,
    }[experiment]
    refusal = f"not usable in a {experiment} experiment; choose from {sorted(allowed)}"
    methods = tuple(
        _choice(m, allowed, f"config.methods[{i}]", refusal)
        for i, m in enumerate(_nonempty_list(f["methods"], "config.methods"))
    )
    for i, m in enumerate(methods):
        if m in methods[:i]:
            first = f"config.methods[{methods.index(m)}]"
            raise ConfigError(f"config.methods[{i}]: {m!r} repeats {first}")
    settings = (SETTING_DESIGN_BASED, SETTING_SUPERPOPULATION)
    refusal = f"is not a setting; choose from {settings}"
    setting = _choice(f["setting"], settings, "config.setting", refusal)
    return ExperimentConfig(
        experiment=experiment,
        seed=_int_at_least(f["seed"], 0, "config.seed"),
        methods=methods,
        ns=ns,
        pis=pis,
        alphas=tuple(alphas),
        dgp=_parse_dgp(f["dgp"], ns[0], "config.dgp") if "dgp" in raw else None,
        replications=_int_at_least(f["replications"], 1, "config.replications"),
        setting=setting,
        raw=raw,
    )


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return parse_config(raw)


@dataclass
class Report:
    """Rows destined for one CSV file, plus free-form summary metadata."""

    experiment: str
    columns: list[str]
    rows: list[dict[str, Any]]
    summary: dict[str, Any] = field(default_factory=dict)

    def to_csv_bytes(self) -> bytes:
        buf = io.StringIO()
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(_csv_field(row.get(col)) for col in self.columns) + "\n")
        return buf.getvalue().encode("utf-8")


def _csv_field(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        text = repr(value)
    else:
        text = str(value)
    if any(ch in text for ch in ',"\r\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


# ---------------------------------------------------------------------------
# Grid cells


@dataclass(frozen=True)
class _Cell:
    idx: int
    n: int
    pi: Fraction
    alpha: float
    layout: MbcrLayout | None
    # Config methods this cell runs, in config order; the rest are skipped.
    methods: tuple[str, ...]
    # Fixed potential-outcome table, or None to sample one per replication.
    table: PotentialTable | None
    target: float


def _grouped_layout(n: int, pi: Fraction) -> tuple[MbcrLayout | None, str | None]:
    """The grouped layout for a cell, or None and the reason there is none."""
    n1 = pi * n
    if n1.denominator != 1:
        return None, f"pi={pi} gives non-integer treated count for n={n}"
    try:
        return compute_layout(n, int(n1)), None
    except DesignError as exc:
        return None, str(exc)


def _skip_reason(spec: MethodSpec, n: int, layout, layout_reason) -> str | None:
    """Why a method cannot run in a cell, decided from its design alone."""
    if spec.scheme == SCHEME_MBCR:
        if layout is None:
            return layout_reason
        groups = layout.num_groups
    else:
        groups = n
    if groups < spec.min_groups:
        return f"{groups} groups, fewer than the {spec.min_groups} this interval needs"
    return None


def _build_cells(config: ExperimentConfig) -> list[_Cell]:
    """Grid cells in (n, pi, alpha) order, logging every skipped method."""
    grouped = any(METHOD_TABLE[m].scheme == SCHEME_MBCR for m in config.methods)
    # Closed-form widths read no outcomes, so width scaling samples no table.
    dgp = None if config.experiment == EXPERIMENT_WIDTH_SCALING else config.dgp
    cells = []
    layout_of = cache(_grouped_layout)  # cells of one (n, pi) share a layout
    # Cells of one n share a fixed table: its CSV is read, and its effect
    # computed, once per call.
    fixed_of = cache(lambda n: sample_population(dgp.with_n(n), None))
    effect_of = cache(lambda n: fixed_of(n).psi_db)
    grid = itertools.product(config.ns, config.pis, config.alphas)
    for idx, (n, pi, alpha) in enumerate(grid):
        layout, layout_reason = layout_of(n, pi) if grouped else (None, None)
        methods = []
        for m in config.methods:
            reason = _skip_reason(METHOD_TABLE[m], n, layout, layout_reason)
            if reason is None:
                methods.append(m)
            else:
                skip = "cell (n=%d, pi=%s, alpha=%g): skipping %s: %s"
                log.warning(skip, n, pi, alpha, m, reason)
        table, target = None, 0.0
        if dgp is not None and dgp.kind == KIND_FIXED_TABLE:
            table, target = fixed_of(n), effect_of(n)
        elif dgp is not None and config.setting == SETTING_DESIGN_BASED:
            table = sample_population(
                dgp.with_n(n), substream(config.seed, idx, _TAG_CELL_TABLE)(0)
            )
            target = table.psi_db
        elif dgp is not None:
            target = true_ate_iid(dgp)
        cells.append(_Cell(idx, n, pi, alpha, layout, tuple(methods), table, target))
    return cells


def _row(
    config: ExperimentConfig,
    cell: _Cell,
    method: str,
    replications: int,
    *,
    coverage: float | None = None,
    half: float | None = None,
    rmse: float | None = None,
    bound: float | None = None,
) -> dict[str, Any]:
    """One report row; columns an experiment does not fill stay blank."""
    pi = float(cell.pi)
    return {
        "schema_version": SCHEMA_VERSION,
        "method": method,
        "n": cell.n,
        "pi": pi,
        "alpha": cell.alpha,
        "coverage_rate": coverage,
        "coverage_se": (
            None
            if coverage is None
            else math.sqrt(coverage * (1.0 - coverage) / replications)
        ),
        "mean_halfwidth": half,
        "width_times_sqrt_npi": None if half is None else half * math.sqrt(cell.n * pi),
        "rmse": rmse,
        "rmse_bound": bound,
        "replications": replications,
        "seed": config.seed,
    }


# ---------------------------------------------------------------------------
# Replication chunks and their schedule


def _grouped_terms(table: PotentialTable, asg: Assignment) -> np.ndarray:
    """A dense grouped draw's slot terms, which its estimate and its blocks
    read.  A drawn ``z`` holds only 0s and 1s as int8, so its bytes are the
    treated mask."""
    return slot_terms(observe(table, asg.z.view(np.bool_)), asg.eta, asg.layout)


def _coverage_chunk(
    config: ExperimentConfig, cell: _Cell, start: int, stop: int
) -> dict[tuple[str, str], np.ndarray]:
    """One flat record for replications ``start`` to ``stop - 1`` of what
    each draw produced: the point estimates under ``("est", scheme)``, and
    each data-adaptive interval's endpoints under ``("lower", m)`` and
    ``("upper", m)``, NaN for a draw with no interval (one that left an arm
    empty).  Containment and width are :func:`run_monte_carlo`'s to compute.

    Closed forms need only the estimates: their half-width is fixed per cell.
    Every draw but a dense grouped one is its treated set.  A design that an
    adaptive interval reads (``dense``) observes and weights the whole table
    in fresh arrays, which each replication frees when it ends: a grouped
    draw is a permutation that goes straight to its slot terms
    (:func:`_grouped_terms`), with no size check, since every table is built
    at the cell's ``n``; a Bernoulli treated set is realized into an
    ``ObservedData``, which its per-draw intervals read.  A grouped
    data-adaptive method therefore needs a ``block`` (the grouped Studentized
    interval has one), which reduces the replication's slot terms to group
    sums in its :class:`~tightci.intervals.StudentizedBlock`; each full
    block, and the last, is evaluated at once into the record.
    """
    specs = {m: METHOD_TABLE[m] for m in cell.methods}
    adaptive = {m: spec for m, spec in specs.items() if spec.adaptive is not None}
    schemes = {spec.scheme for spec in specs.values()}
    used = [scheme for scheme in _DRAW_TAGS if scheme in schemes]
    streams = {s: substream(config.seed, cell.idx, _DRAW_TAGS[s]) for s in used}
    dense = {spec.scheme for spec in adaptive.values()}
    if cell.table is None:
        dgp = config.dgp.with_n(cell.n)
        tables = substream(config.seed, cell.idx, _TAG_REP_TABLE)
    else:
        y0_total = cell.table.y0.sum()
    count = stop - start
    out = {("est", scheme): np.zeros(count, dtype=np.float64) for scheme in used}
    for m in adaptive:
        out["lower", m] = np.full(count, np.nan)
        out["upper", m] = np.full(count, np.nan)
    pi_f = float(cell.pi)
    blocks = {
        m: spec.block(cell.layout, cell.alpha, count)
        for m, spec in adaptive.items()
        if spec.block is not None
    }
    per_draw = {m: spec for m, spec in adaptive.items() if m not in blocks}
    for k, rep in enumerate(range(start, stop)):
        table = cell.table
        if table is None:
            table = sample_population(dgp, tables(rep))
            y0_total = table.y0.sum()
        data = {}
        for scheme in used:
            rng = streams[scheme](rep)
            # A dense draw is bound to no name of the loop, so it is freed
            # with the replication's data.
            if scheme in dense and scheme == SCHEME_MBCR:
                data[scheme] = _grouped_terms(table, draw_mbcr(cell.layout, rng))
                est = term_mean(data[scheme])
            elif scheme == SCHEME_MBCR:
                units = treated_set_mbcr(cell.layout, rng)
                est = treated_set_estimate(table, units, y0_total, cell.layout)
            else:
                units = treated_set_bernoulli(cell.n, pi_f, rng)
                est = treated_set_estimate(table, units, y0_total, pi=pi_f)
                if scheme in dense:
                    data[scheme] = ObservedData.realize(
                        table, bernoulli_assignment(cell.n, pi_f, units)
                    )
            out["est", scheme][k] = est
        for m, block in blocks.items():
            block.add(data[specs[m].scheme])
            if block.full or k == count - 1:
                bounds = block.evaluate()
                for i, (lower, upper) in enumerate(bounds, k + 1 - len(bounds)):
                    out["lower", m][i], out["upper", m][i] = lower, upper
        for m, spec in per_draw.items():
            try:
                ci = spec.adaptive(data[spec.scheme], cell.alpha)
            except EmptyArmError:
                continue  # the draw left an arm empty: its endpoints stay NaN
            out["lower", m][k], out["upper", m][k] = ci.lower, ci.upper
    return out


def _run_slice(task, config, cells):
    """One process's records: a chunk per ``(cell index, start, stop)``."""
    return [_coverage_chunk(config, cells[i], start, stop) for i, start, stop in task]


def _fork_slice(task, config, cells):
    """Fork a child that runs ``task`` on the config and cells it inherits,
    so nothing is pickled toward it; the child's pid and the read end of its
    pipe.  The child pickles ``(True, records)``, or ``(False, exception)``,
    into the pipe and always leaves through ``os._exit``."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    status = 1
    try:
        os.close(read)
        try:
            outcome = True, _run_slice(task, config, cells)
        except BaseException as exc:
            outcome = False, exc
        with open(write, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _slice_outcome(status: int, data: bytes) -> list:
    """A reaped child's records; its exception is raised as it is, and a
    child that ended without a record raises an error naming its status."""
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        raise ChildProcessError(
            f"a replication slice's process was killed by signal {-code} "
            f"({signal.strsignal(-code)}) before it sent its record"
        )
    if code:
        raise ChildProcessError(
            f"a replication slice's process exited with status {code} "
            "before it sent its record"
        )
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def _run_cells(config, cells, workers: int):
    """Run :func:`_coverage_chunk` over every (cell, replication range) and
    merge the records into one array per cell and key.

    Ranges never influence the results: every replication owns its stream
    segments and lands at its absolute index during the merge, so any worker
    count produces identical reports.  ``used`` processes, at most the usable
    CPUs and the cell-replications, each run one slice of every cell, a list of
    ``(cell index, start, stop)``; a platform without ``os.fork`` runs one.
    The parent forks a child for every slice after slice 0
    (:func:`_fork_slice`), runs slice 0 itself, then reads each child's pipe
    to EOF and reaps it.  Nothing is computed before the fork for the
    children's sake: a ``clt`` quantile costs each process microseconds.  A
    child's exception is raised as it is once every child is reaped; a
    failure of the parent's own kills and reaps every child before it is
    raised.
    """
    reps = config.replications
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    active = [i for i, cell in enumerate(cells) if cell.methods]
    used = max(1, min(workers, cpus, reps * len(active)))
    reason = f"{cpus} usable CPUs, {reps * len(active)} cell-replications"
    if not hasattr(os, "fork"):
        used, reason = 1, "no os.fork on this platform"
    if used < workers:
        log.warning("using %d of the %d requested workers (%s)", used, workers, reason)
    # Process w's range of active cell k is cuts[k + w : k + w + 2] less cuts[k]:
    # a cell's ranges differ by at most one, and so (telescoping) do the totals.
    cuts = [j * reps // used for j in range(len(active) + used)]
    slices = [[] for _ in range(used)]
    for k, i in enumerate(active):
        for w, task in enumerate(slices):
            if cuts[k + w + 1] > cuts[k + w]:
                task.append((i, cuts[k + w] - cuts[k], cuts[k + w + 1] - cuts[k]))
    children = []  # (pid, read end) per forked slice, none reaped until the end
    try:
        for task in slices[1:]:
            children.append(_fork_slice(task, config, cells))
        outs = [_run_slice(slices[0], config, cells)]
        records = [pipe.read() for _, pipe in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        # Every child has closed its pipe or been killed, so none blocks long.
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
        for _, pipe in children:
            pipe.close()
    outs += map(_slice_outcome, statuses, records)
    merged: dict[int, dict[tuple[str, str], np.ndarray]] = {}
    for (i, start, stop), out in zip(itertools.chain(*slices), itertools.chain(*outs)):
        dest = merged.setdefault(cells[i].idx, {})
        for key, arr in out.items():
            dest.setdefault(key, np.zeros(reps, dtype=arr.dtype))[start:stop] = arr
    return merged


def rmse_bound(method: str, n: int, pi: float) -> float:
    """Theoretical root-mean-square-error bound for each estimator."""
    if method not in RMSE_METHODS:
        raise ConfigError(f"no RMSE bound for method {method!r}")
    if METHOD_TABLE[method].scheme == SCHEME_MBCR:
        return 2.0 / math.sqrt(n * pi)
    return math.sqrt(2.0 / (n * pi))


def run_monte_carlo(config: ExperimentConfig, workers: int = 1) -> Report:
    """Monte Carlo summaries of every (cell, method) over the config grid.

    Each row carries the RMSE of the method's point estimate about the
    cell's target.  An interval adds its containment rate and mean
    half-width, decided here alone from its endpoints: a data-adaptive
    interval's from the chunk record, a closed form's ``est -/+ half``.  A
    draw with no interval (NaN endpoints) is a miss of width zero.  A bare
    estimator adds its theoretical RMSE bound.
    """
    cells = _build_cells(config)
    merged = _run_cells(config, cells, workers)
    rows = []
    for cell in cells:
        for m in cell.methods:
            spec = METHOD_TABLE[m]
            record = merged[cell.idx]
            est = record["est", spec.scheme]
            fill = {"rmse": float(np.sqrt(np.mean((est - cell.target) ** 2)))}
            if not spec.has_interval:
                fill["bound"] = rmse_bound(m, cell.n, float(cell.pi))
            elif spec.tuning is None:
                lo, hi = record["lower", m], record["upper", m]
            else:
                half = spec.half_width(cell.layout, cell.n, float(cell.pi), cell.alpha)
                lo, hi = est - half, est + half
            if spec.has_interval:
                covered = (lo <= cell.target) & (cell.target <= hi)
                halves = np.where(np.isnan(lo), 0.0, (hi - lo) / 2.0)
                fill["coverage"] = float(covered.mean())
                fill["half"] = float(halves.mean())
            rows.append(_row(config, cell, m, config.replications, **fill))
    return Report(config.experiment, REPORT_COLUMNS, rows)


# ---------------------------------------------------------------------------
# Width-scaling experiment (closed forms, no replication)


def run_width_scaling(config: ExperimentConfig) -> Report:
    """Closed-form half-widths and their sqrt(n pi) scalings per grid cell."""
    rows = []
    for cell in _build_cells(config):
        for m in cell.methods:
            spec = METHOD_TABLE[m]
            half = spec.half_width(cell.layout, cell.n, float(cell.pi), cell.alpha)
            rows.append(_row(config, cell, m, 0, half=half))
    return Report(EXPERIMENT_WIDTH_SCALING, REPORT_COLUMNS, rows)


# ---------------------------------------------------------------------------
# Equivalence experiment


def run_equivalence(n: int, n1: int, budget: int = DEFAULT_ENUMERATION_BUDGET) -> Report:
    """Exact check that grouped draws are uniform over all arrangements of
    ``n1`` treated among ``n`` units.

    Enumerates every permutation tuple of the two-stage design and requires
    equal integer counts for every assignment; ``budget`` caps the number of
    tuples, and a larger count is refused before anything is enumerated.
    """
    dist = enumerate_mbcr_distribution(compute_layout(n, n1), budget=budget)
    if not dist.is_uniform():
        raise RuntimeError(
            f"exact enumeration for (n={n}, n1={n1}) is not uniform over "
            "assignments; the two-stage grouped design violates its "
            "distributional contract"
        )
    rows = []
    for z in sorted(dist.counts):
        prob = dist.probability(z)
        rows.append({
            "schema_version": SCHEMA_VERSION,
            "n": n,
            "n1": n1,
            "assignment": "".join(str(v) for v in z),
            "count": dist.counts[z],
            "total": dist.total,
            "probability": f"{prob.numerator}/{prob.denominator}",
        })
    summary = {
        "exact": True,
        "uniform": True,
        "total": dist.total,
        "distinct_assignments": len(dist.counts),
    }
    return Report(EXPERIMENT_EQUIVALENCE, EQUIVALENCE_COLUMNS, rows, summary)


# ---------------------------------------------------------------------------
# Dispatch and serialization


def run_experiment(config: ExperimentConfig, workers: int = 1) -> Report:
    if workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {workers}")
    if config.experiment in (EXPERIMENT_COVERAGE, EXPERIMENT_RMSE):
        return run_monte_carlo(config, workers=workers)
    if config.experiment == EXPERIMENT_WIDTH_SCALING:
        return run_width_scaling(config)
    if config.experiment == EXPERIMENT_EQUIVALENCE:
        return run_equivalence(config.n, config.n1, budget=config.budget)
    raise ConfigError(f"unknown experiment {config.experiment!r}")


def config_sha256(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _replace_files(files: list[tuple[Path, bytes]]) -> None:
    """Write each file to a temporary sibling, then move them into place in
    order with ``os.replace``; a failed write moves none of them."""
    temps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path, _ in files]
    try:
        for (_, data), tmp in zip(files, temps):
            tmp.write_bytes(data)
        for (path, _), tmp in zip(files, temps):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


def write_outputs(out_dir, report: Report, config: ExperimentConfig) -> dict[str, Path]:
    """Write <experiment>.csv and manifest.json; contents are reproducible.

    Both are written to temporary files in ``out_dir`` first and then moved
    into place, CSV first, with ``os.replace``.  A write that fails leaves
    neither file changed; only an interruption between the two moves can
    leave a new CSV beside an old manifest.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_name = f"{report.experiment}.csv"
    csv_bytes = report.to_csv_bytes()
    csv_path = out / csv_name
    manifest = {
        "tool": "tightci",
        "tool_version": TOOL_VERSION,
        "schema_version": SCHEMA_VERSION,
        "rng_stream": RNG_STREAM,
        "experiment": report.experiment,
        "seed": config.seed,
        "config_sha256": config_sha256(config.raw),
        "outputs": {csv_name: hashlib.sha256(csv_bytes).hexdigest()},
        "summary": report.summary,
    }
    manifest_path = out / "manifest.json"
    manifest_text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    manifest_bytes = manifest_text.encode("utf-8")
    _replace_files([(csv_path, csv_bytes), (manifest_path, manifest_bytes)])
    return {"csv": csv_path, "manifest": manifest_path}
