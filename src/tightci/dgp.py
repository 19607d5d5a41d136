"""Data-generating processes for the simulation harness.

Three kinds: a fixed table loaded from CSV, a uniform control outcome with a
constant additive effect, and a uniform null (identical potential outcomes).
The built-in scenarios used throughout the experiments are

* ``uniform_shift`` lo=0.1 hi=0.5 shift=0.5  (true population effect 0.5)
* ``uniform_null``  lo=0.9 hi=1.0            (true effect 0, outcomes high)
* ``uniform_null``  lo=0.0 hi=0.1            (true effect 0, outcomes low)

Generated tables always satisfy the unit-interval constraint; a spec that
could produce values outside [0, 1] is rejected at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .estimator import PotentialTable

KIND_FIXED_TABLE = "fixed_table"
KIND_UNIFORM_SHIFT = "uniform_shift"
KIND_UNIFORM_NULL = "uniform_null"

# The fields each kind reads, past ``kind`` and ``n``, with their defaults.
KIND_FIELDS = {
    KIND_FIXED_TABLE: {"path": None},
    KIND_UNIFORM_SHIFT: {"lo": 0.0, "hi": 1.0, "shift": 0.0},
    KIND_UNIFORM_NULL: {"lo": 0.0, "hi": 1.0},
}
KINDS = tuple(KIND_FIELDS)


class DgpError(ValueError):
    """An ill-posed data-generating-process description."""


@dataclass(frozen=True)
class DgpSpec:
    """Declarative description of how to produce a potential-outcome table."""

    kind: str
    n: int
    lo: float = 0.0
    hi: float = 1.0
    shift: float = 0.0
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise DgpError(f"unknown dgp kind {self.kind!r}; choose from {KINDS}")
        if self.n < 1:
            raise DgpError(f"need n >= 1, got {self.n}")
        if self.kind == KIND_FIXED_TABLE:
            if not self.path:
                raise DgpError("fixed_table dgp needs a csv path")
            return
        if not (0.0 <= self.lo < self.hi <= 1.0):
            raise DgpError(
                f"need 0 <= lo < hi <= 1, got lo={self.lo}, hi={self.hi}"
            )
        if self.kind == KIND_UNIFORM_SHIFT:
            if self.shift < 0.0 or self.hi + self.shift > 1.0:
                raise DgpError(
                    f"shift {self.shift} pushes treated outcomes outside [0, 1] "
                    f"(hi + shift = {self.hi + self.shift})"
                )

    def with_n(self, n: int) -> "DgpSpec":
        return replace(self, n=int(n))


def sample_population(spec: DgpSpec, rng: np.random.Generator) -> PotentialTable:
    """Draw a potential-outcome table according to the spec.

    Fixed tables are loaded from disk; the uniform kinds draw control
    outcomes from U(lo, hi) (:func:`_uniform_outcomes`) and derive treated
    outcomes by the constant shift; a null table's treated outcomes are its
    control array itself.
    """
    if spec.kind == KIND_FIXED_TABLE:
        table = PotentialTable.from_csv(spec.path)
        if table.n != spec.n:
            raise DgpError(
                f"fixed table has {table.n} rows but the spec asks for n={spec.n}"
            )
        return table
    y0 = _uniform_outcomes(spec, rng)
    y1 = y0 + spec.shift if spec.kind == KIND_UNIFORM_SHIFT else y0
    return PotentialTable(y0=y0, y1=y1)


def sample_table_with_effect(
    spec: DgpSpec, rng: np.random.Generator
) -> tuple[PotentialTable, float]:
    """The table :func:`sample_population` draws, and its own effect
    ``psi_db``, with no full-length array beside ``y0`` and ``y1``.

    A shift table's ``y1`` buffer first holds ``(y0 + shift) - y0``, the
    difference ``psi_db`` would form, and the effect is that buffer's mean,
    so it has ``psi_db``'s bits; the buffer is then refilled with
    ``y0 + shift``.  Other kinds read ``psi_db`` itself, which a null table
    answers without arithmetic.
    """
    if spec.kind != KIND_UNIFORM_SHIFT:
        table = sample_population(spec, rng)
        return table, table.psi_db
    y0 = _uniform_outcomes(spec, rng)
    y1 = np.add(y0, spec.shift)
    y1 -= y0
    effect = float(np.mean(y1))
    np.add(y0, spec.shift, out=y1)
    return PotentialTable(y0=y0, y1=y1), effect


def _uniform_outcomes(spec: DgpSpec, rng: np.random.Generator) -> np.ndarray:
    """``spec.n`` draws from U(lo, hi), scaled and shifted in place.

    ``rng.uniform(lo, hi, n)`` forms ``lo + (hi - lo) * u`` from one
    standard uniform ``u`` per entry, one call per entry; this draws the
    ``u`` in ``rng.random(n)``'s fill loop and forms the same products and
    sums over its array, so the same bytes and the same generator state
    afterwards, in less time.
    """
    y0 = rng.random(spec.n)
    y0 *= spec.hi - spec.lo
    y0 += spec.lo
    return y0


def true_ate_iid(spec: DgpSpec) -> float:
    """Analytic population average treatment effect of a built-in spec."""
    if spec.kind == KIND_UNIFORM_SHIFT:
        return float(spec.shift)
    if spec.kind == KIND_UNIFORM_NULL:
        return 0.0
    table = PotentialTable.from_csv(spec.path)
    return table.psi_db
