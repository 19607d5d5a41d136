"""Horvitz-Thompson estimation of the average treatment effect.

Both point estimators are the mean of one draw's pseudo-outcomes,
:attr:`ObservedData.terms`, read by :func:`ht_estimate`; the design alone
fixes each term's weight.  A grouped draw's terms are in slot order: for slot
``s``, the observed outcome belongs to the unit that the assignment's ``eta``
seats there (``eta^{-1}(s)``) while the delivered treatment is the allocation
pattern at ``s``, weighted by the layout's ``coef`` at ``s``: full blocks use
``g`` and ``1/(1 - 1/g)``; the tail block replaces ``g`` with its own
size-per-treated ratio.  Other draws' terms are in unit order, each unit
weighted at the assignment's propensity (``Assignment.unit_weights``).  An
:class:`ObservedData` forms its terms once, in a fresh array, so the estimator
and intervals of one replication share them.  A coverage run's dense grouped
draw needs no :class:`ObservedData`: it goes through the same
:func:`observe` and :func:`slot_terms` to its terms, and through
:func:`block_sums` to its group sums.  Only the Bernoulli Studentized
interval forms mirrored terms, with the same weighting step, beside a copy
of the standard ones (:func:`paired_terms`).  An :class:`ObservedData` sums
its terms once: its ``estimate`` serves the estimator and every interval.
From a table's ``y0`` total, :func:`treated_set_estimate` gives the same
estimate from the units a draw treats, without realizing the others.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .design import (
    SCHEME_BERNOULLI,
    SCHEME_MBCR,
    Assignment,
    MbcrLayout,
    read_only,
)


class EstimatorError(ValueError):
    """Inputs incompatible with the requested estimator."""


def read_csv_columns(
    path, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> dict[str, np.ndarray]:
    """The numeric columns of a UTF-8 CSV file, keyed by their header names.

    A leading byte-order mark, as spreadsheet exports write, and spaces
    around the header names are ignored.  The header names every
    ``required`` column, and nothing outside ``required + optional`` or
    twice.  Every row holds one finite number per header name; blank lines
    are skipped, and a file without data rows is refused.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            names = [name.strip() for name in next(reader, [])]
            missing = [c for c in required if c not in names]
            if missing:
                raise EstimatorError(
                    f"{path}: missing column(s) {missing}; header was {names}"
                )
            allowed = required + optional
            extra = [c for c in names if c not in allowed or names.count(c) > 1]
            if extra:
                raise EstimatorError(
                    f"{path}: unexpected or repeated column(s) {extra}; "
                    f"header was {names}"
                )
            cols: dict[str, list[float]] = {c: [] for c in names}
            for row in reader:
                if not row:
                    continue
                where = f"{path}: row {reader.line_num}"
                if len(row) != len(names):
                    raise EstimatorError(
                        f"{where}: {len(row)} fields under a header of {len(names)}"
                    )
                for name, text in zip(names, row):
                    try:
                        value = float(text)
                    except ValueError:
                        value = math.nan
                    if not math.isfinite(value):
                        raise EstimatorError(f"{where}: bad value {text!r} in {name!r}")
                    cols[name].append(value)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise EstimatorError(f"cannot read {path}: {exc}") from exc
    if not any(cols.values()):
        raise EstimatorError(f"{path}: no data rows")
    return {c: np.array(v, dtype=np.float64) for c, v in cols.items()}


class PotentialTable:
    """Per-unit potential outcomes, each confined to the unit interval.

    A table holds ``y0`` and either its own ``y1`` or a constant ``shift``.
    A shift table's ``y1`` is ``y0 + shift``, formed read-only on its first
    read and then kept; until then the table holds one full-length array.
    Its range check reads ``y0``'s extremes plus ``shift`` (rounding is
    monotone, so it refuses exactly the tables a check of every ``y0 +
    shift`` refuses), :func:`treated_set_estimate` forms ``y0 + shift`` at
    the units it reads, and :attr:`psi_db` sums the differences a leaf at a
    time.  A null table's ``y1`` is its ``y0`` itself.
    """

    def __init__(self, y0, y1=None, *, shift: float | None = None) -> None:
        if (y1 is None) == (shift is None):
            raise EstimatorError("a table takes either y1 or a shift")
        self.y0 = y0 = np.asarray(y0, dtype=np.float64)
        self.shift = None if shift is None else float(shift)
        if y1 is not None:
            self.y1 = y1 = np.asarray(y1, dtype=np.float64)
        if y0.ndim != 1 or (y1 is not None and y0.shape != y1.shape):
            raise EstimatorError("y0 and y1 must be equal-length vectors")
        if not y0.size:
            return
        # NaN fails both comparisons, and +-inf fails the range.
        lo, hi = y0.min(), y0.max()
        if not (lo >= 0.0 and hi <= 1.0):
            raise EstimatorError("y0 has entries that are NaN or outside [0, 1]")
        if self.shift is not None:
            lo, hi = lo + self.shift, hi + self.shift
        elif y1 is not y0:  # a null table's y1 is its y0, checked above
            lo, hi = y1.min(), y1.max()
        if not (lo >= 0.0 and hi <= 1.0):
            raise EstimatorError("y1 has entries that are NaN or outside [0, 1]")

    @cached_property
    def y1(self) -> np.ndarray:
        """A shift table's treated outcomes, ``y0 + shift``, read-only."""
        return read_only(self.y0 + self.shift)

    @property
    def n(self) -> int:
        return int(self.y0.shape[0])

    @property
    def psi_db(self) -> float:
        """Finite-population average treatment effect of this table, with the
        bits of ``np.mean(y1 - y0)``.  A null table's is ``0.0``, the mean of
        its ``y0 - y0`` zeros, and a shift table's is
        :func:`_shift_effect`; neither forms a full-length difference."""
        if self.shift is not None:
            return _shift_effect(self.y0, self.shift)
        if self.y1 is self.y0:
            return 0.0
        return float(np.mean(self.y1 - self.y0))

    @classmethod
    def from_csv(cls, path) -> "PotentialTable":
        """Load a table from a CSV file with header ``y0,y1``."""
        cols = read_csv_columns(path, ("y0", "y1"))
        return cls(cols["y0"], cols["y1"])


_LEAF = 8192  # differences formed at once by _shift_effect: 64 KiB


def _shift_effect(y0: np.ndarray, shift: float) -> float:
    """``np.mean((y0 + shift) - y0)`` to the last bit, in one buffer of at
    most ``_LEAF`` values.  numpy sums a contiguous float64 array as one
    pairwise tree, whose node of m > 128 values splits at m//2 rounded down
    to a multiple of 8, and sums any node as it reduces that node's slice
    alone; :func:`_difference_sum` walks the tree down to nodes of at most
    ``_LEAF`` values and reduces each one's differences."""
    n = y0.shape[0]
    return float(_difference_sum(y0, shift, 0, n, np.empty(min(n, _LEAF))) / n)


def _difference_sum(
    y0: np.ndarray, shift: float, start: int, stop: int, buf: np.ndarray
) -> float:
    """The sum of ``(y0 + shift) - y0`` over ``start:stop`` that numpy's
    pairwise tree gives that node, its differences formed in ``buf``."""
    m = stop - start
    if m <= _LEAF:
        leaf = buf[:m]
        np.add(y0[start:stop], shift, out=leaf)
        leaf -= y0[start:stop]
        return np.add.reduce(leaf)
    half = m // 2
    half -= half % 8
    mid = start + half
    return _difference_sum(y0, shift, start, mid, buf) + _difference_sum(
        y0, shift, mid, stop, buf
    )


@dataclass(frozen=True)
class ObservedData:
    """Realized outcomes paired with the assignment that produced them."""

    y: np.ndarray
    assignment: Assignment

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=np.float64)
        object.__setattr__(self, "y", y)
        if y.shape != self.assignment.z.shape:
            raise EstimatorError("outcome vector length differs from assignment")

    @classmethod
    def realize(cls, table: PotentialTable, assignment: Assignment) -> "ObservedData":
        """Observe the potential outcome selected by each unit's arm
        (:func:`observe`)."""
        if table.n != assignment.n:
            raise EstimatorError("table and assignment sizes differ")
        return cls(y=observe(table, assignment.treated), assignment=assignment)

    @property
    def n(self) -> int:
        return int(self.y.shape[0])

    @cached_property
    def terms(self) -> np.ndarray:
        """The draw's pseudo-outcomes, read-only.  A grouped draw gives one
        per slot: the outcome of the unit at slot ``s`` (unit ``j`` sits at
        slot ``eta[j]``, so ``y`` is scattered through ``eta``) times the
        layout's coefficient at ``s``.  Other draws give one per unit."""
        asg = self.assignment
        if asg.scheme != SCHEME_MBCR:
            return read_only(_weigh_units(self.y, asg))
        return read_only(slot_terms(self.y, asg.eta, asg.layout))

    @cached_property
    def estimate(self) -> float:
        """The Horvitz-Thompson estimate, :func:`term_mean` of the terms,
        computed once for the estimator and the intervals that read it."""
        return term_mean(self.terms)


def observe(table: PotentialTable, treated: np.ndarray) -> np.ndarray:
    """Each unit's observed outcome: ``y1`` where the boolean mask ``treated``
    is set and ``y0`` elsewhere, in a fresh array; a shift table forms and
    keeps its ``y1`` on this first full read.  A null table's outcomes are
    its ``y0`` under any draw, read-only."""
    if table.y1 is table.y0:
        return read_only(table.y0.view())
    return np.where(treated, table.y1, table.y0)


def slot_terms(y: np.ndarray, eta: np.ndarray, layout: MbcrLayout) -> np.ndarray:
    """A grouped draw's pseudo-outcomes in one fresh array: ``y`` scattered
    through ``eta``, then weighted in place by ``layout.coef``."""
    terms = np.empty(layout.n)
    terms[eta] = y
    terms *= layout.coef
    return terms


def _weigh_units(
    values: np.ndarray, asg: Assignment, out: np.ndarray | None = None
) -> np.ndarray:
    """``values`` times each unit's Horvitz-Thompson weight, written into
    ``out`` (a fresh array if None): every unit's control term, then the
    treated units' over it."""
    w_treat, w_ctrl = asg.unit_weights()
    out = np.multiply(values, w_ctrl, out=out)
    np.multiply(values, w_treat, out=out, where=asg.treated)
    return out


def paired_terms(data: ObservedData) -> np.ndarray:
    """A unit-order draw's standard and mirrored pseudo-outcomes side by
    side, in one fresh ``(n, 2)`` array: column 0 holds ``data.terms``, and
    column 1 is ``y - 1`` weighed as the terms weigh ``y``."""
    pair = np.empty((data.n, 2))
    pair[:, 0] = data.terms
    _weigh_units(data.y - 1.0, data.assignment, out=pair[:, 1])
    return pair


def ht_estimate(data: ObservedData) -> float:
    """Horvitz-Thompson estimate, the mean of the draw's pseudo-outcomes: the
    grouped estimator for a grouped draw, which with no tail equals the
    standard one at ``prop = n1/n``, and the standard estimator otherwise."""
    return data.estimate


def term_mean(terms: np.ndarray) -> float:
    """The mean of a draw's pseudo-outcomes: ``np.mean``'s own sum and
    division, without its wrapper, so the same bits."""
    return float(terms.sum() / terms.shape[0])


def treated_set_estimate(
    table: PotentialTable,
    units: np.ndarray,
    y0_total: float,
    layout: MbcrLayout | None = None,
    pi: float | None = None,
) -> float:
    """:func:`ht_estimate` of a draw on ``table``, from the units it treats
    and ``y0_total = table.y0.sum()``: under a grouped ``layout``, ``units``
    as :func:`~tightci.design.treated_set_mbcr` orders them, and otherwise
    the units a Bernoulli(``pi``) draw treats.  A grouped ``layout`` has
    :func:`~tightci.design.compute_layout`'s shape: full blocks ``(g, 1, T)``
    first, then at most one tail ``(s, k, 1)``.

    Every control outside a tail has the same weight, so their sum is
    ``y0_total`` less the ``y0`` of the units listed.  A shift table's
    ``y1`` at the units is ``y0 + shift`` formed there, with the bits of
    ``y1[units]``, so no full-length ``y1`` is built.
    """
    y0 = table.y0[units]
    y1 = table.y1[units] if table.shift is None else y0 + table.shift
    if layout is None:
        return float((y1.sum() / pi - (y0_total - y0.sum()) / (1.0 - pi)) / table.n)
    (g, _, _), *tail = layout.kinds
    s, k, _ = tail[0] if tail else (0, 0, 0)
    total = g * y1[s:].sum() - g / (g - 1.0) * (y0_total - y0.sum())
    if s:
        total += s / k * y1[:k].sum() - s / (s - k) * y0[k:s].sum()
    return float(total / table.n)


def groupwise_sums(data: ObservedData) -> np.ndarray:
    """Per-group sums of the standard pseudo-outcomes, tail group last.

    Under Bernoulli randomization every unit is its own group, so this is
    the data's read-only ``terms``.  Each full-block sum lies in
    ``[-g, g]``.
    """
    asg = data.assignment
    if asg.scheme == SCHEME_BERNOULLI:
        return data.terms
    if asg.scheme != SCHEME_MBCR:
        raise EstimatorError(
            f"group sums need a grouped or Bernoulli assignment, got {asg.scheme!r}"
        )
    layout = asg.layout
    return block_sums(data.terms, layout, np.empty(layout.num_groups))


def block_sums(terms: np.ndarray, layout: MbcrLayout, out: np.ndarray) -> np.ndarray:
    """``out``, filled with the sums of a grouped draw's slot ``terms`` over
    each block, tail block last: one row-wise reduction per kind of block,
    written straight into ``out``."""
    start = row = 0
    for size, _, count in layout.kinds:
        stop = start + size * count
        rows = terms[start:stop].reshape(count, size)
        np.add.reduce(rows, axis=1, out=out[row:row + count])
        start, row = stop, row + count
    return out
