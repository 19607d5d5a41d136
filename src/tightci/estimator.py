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
interval forms mirrored terms, with the same weighting step.  On a fixed table,
:func:`treated_set_estimate` gives the same estimate from the units a draw
treats, without realizing the others.
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


@dataclass(frozen=True)
class PotentialTable:
    """Per-unit potential outcomes, each confined to the unit interval."""

    y0: np.ndarray
    y1: np.ndarray

    def __post_init__(self) -> None:
        y0 = np.asarray(self.y0, dtype=np.float64)
        y1 = np.asarray(self.y1, dtype=np.float64)
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "y1", y1)
        if y0.ndim != 1 or y0.shape != y1.shape:
            raise EstimatorError("y0 and y1 must be equal-length vectors")
        # A null table's y1 is its y0, whose range is checked once.
        named = (("y0", y0),) if y1 is y0 else (("y0", y0), ("y1", y1))
        for name, arr in named:
            # NaN fails both comparisons, and +-inf fails the range.
            if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
                raise EstimatorError(
                    f"{name} has entries that are NaN or outside [0, 1]"
                )

    @property
    def n(self) -> int:
        return int(self.y0.shape[0])

    @property
    def psi_db(self) -> float:
        """Finite-population average treatment effect of this table."""
        return float(np.mean(self.y1 - self.y0))

    @classmethod
    def from_csv(cls, path) -> "PotentialTable":
        """Load a table from a CSV file with header ``y0,y1``."""
        cols = read_csv_columns(path, ("y0", "y1"))
        return cls(cols["y0"], cols["y1"])


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
            return _weigh_units(self.y, asg)
        return read_only(slot_terms(self.y, asg.eta, asg.layout))


def observe(table: PotentialTable, treated: np.ndarray) -> np.ndarray:
    """Each unit's observed outcome: ``y1`` where the boolean mask ``treated``
    is set and ``y0`` elsewhere, in a fresh array.  A null table's outcomes
    are its ``y0`` under any draw, read-only."""
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


def _weigh_units(values: np.ndarray, asg: Assignment) -> np.ndarray:
    """``values`` times each unit's Horvitz-Thompson weight, read-only: every
    unit's control term, then the treated units' over it."""
    w_treat, w_ctrl = asg.unit_weights()
    out = values * w_ctrl
    np.multiply(values, w_treat, out=out, where=asg.treated)
    return read_only(out)


def ht_estimate(data: ObservedData) -> float:
    """Horvitz-Thompson estimate, the mean of the draw's pseudo-outcomes: the
    grouped estimator for a grouped draw, which with no tail equals the
    standard one at ``prop = n1/n``, and the standard estimator otherwise."""
    return term_mean(data.terms)


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
    """:func:`ht_estimate` of a draw on a fixed table, from the units it treats
    and ``y0_total = table.y0.sum()``: under a grouped ``layout``, ``units``
    as :func:`~tightci.design.treated_set_mbcr` orders them, and otherwise
    the units a Bernoulli(``pi``) draw treats.

    Every control outside a tail has the same weight, so their sum is
    ``y0_total`` less the ``y0`` of the units listed.
    """
    y1, y0 = table.y1[units], table.y0[units]
    if layout is None:
        return float((y1.sum() / pi - (y0_total - y0.sum()) / (1.0 - pi)) / table.n)
    g, s, k = layout.group_size, layout.tail_size, layout.tail_treated
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
    each block, tail block last: one row-wise reduction of the full blocks,
    written straight into ``out``, and the tail's sum."""
    full, g = layout.num_full_groups, layout.group_size
    body = full * g
    np.add.reduce(terms[:body].reshape(full, g), axis=1, out=out[:full])
    if layout.tail_size > 0:
        out[full] = terms[body:].sum()
    return out
