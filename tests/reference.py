"""Reference forms the tests check the library against.

Plain per-unit and per-block expressions of what the library computes in
vectorized form, the exact conditional-expectation oracle for the grouped
estimator's unbiasedness, the propensity-only bound on the grouped width
constant, the exact enumeration's tuple count, and the writers of the CSV
files that the library reads.  No library code path calls them.
"""

import csv
import itertools
import math

import numpy as np

from tightci.design import SCHEME_COMPLETE, Assignment, MbcrLayout, _check_counts
from tightci.estimator import EstimatorError, ObservedData, PotentialTable

VARIANT_STANDARD = "standard"
VARIANT_MIRRORED = "mirrored"


def draw_complete(n: int, n1: int, rng: np.random.Generator) -> Assignment:
    """Uniform draw over all arrangements of ``n1`` ones among ``n`` slots."""
    _check_counts(n, n1)
    canonical = np.zeros(n, dtype=np.int8)
    canonical[:n1] = 1
    z = rng.permutation(canonical)
    return Assignment(z=z, scheme=SCHEME_COMPLETE, pi=n1 / n)


def inverse_permutation(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.shape[0])
    return inv


def slot_blocks(layout: MbcrLayout) -> list[np.ndarray]:
    """Slot index ranges, one per group, tail last when present."""
    g, t = layout.group_size, layout.num_full_groups
    blocks = [np.arange(i * g, (i + 1) * g) for i in range(t)]
    if layout.tail_size > 0:
        blocks.append(np.arange(t * g, layout.n))
    return blocks


def write_table_csv(path, table: PotentialTable) -> None:
    """Write ``table`` as a ``y0,y1`` CSV, each value by its ``repr``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y0", "y1"])
        for a, b in zip(table.y0, table.y1):
            writer.writerow([repr(float(a)), repr(float(b))])


def unit_blocks(asg: Assignment) -> np.ndarray:
    """Each unit's block in a grouped draw, its slot's: ``min(eta[j] // g,
    T)``, so the full blocks are ``0..T-1`` in slot order and the tail ``T``."""
    lay = asg.layout
    return np.minimum(asg.eta // lay.group_size, lay.num_full_groups)


def write_grouped_csv(path, data: ObservedData) -> None:
    """Write a grouped draw as ``tightci ci`` reads it, a ``y,z,block`` CSV
    with each unit's :func:`unit_blocks` label."""
    block = unit_blocks(data.assignment)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "z", "block"])
        for y, z, b in zip(data.y, data.assignment.z, block):
            writer.writerow([repr(float(y)), int(z), int(b)])


def enumeration_space_size(layout: MbcrLayout) -> int:
    """Number of permutation tuples the exact enumeration must visit,
    ``g!**T * s! * n!``: every within-block shuffle of the ``T`` full blocks
    and the tail, times every unit-wide permutation."""
    g, t, s, n = layout.group_size, layout.num_full_groups, layout.tail_size, layout.n
    return math.factorial(g) ** t * math.factorial(s) * math.factorial(n)


def pseudo_outcome(y, z, prop: float, variant: str = VARIANT_STANDARD):
    """Inverse-probability-weighted per-unit effect estimate.

    Standard form ``y * (z/p - (1-z)/(1-p))`` lies in
    ``[-1/(1-p), 1/p]``; the mirrored form replaces ``y`` with ``y - 1`` and
    reflects that range.  Accepts scalars or arrays.  For ``z`` in {0, 1}
    the standard form equals the ``ObservedData.terms`` of a draw that is
    not grouped bit for bit.
    """
    if not (0.0 < prop < 1.0):
        raise EstimatorError(f"propensity {prop} outside (0, 1)")
    if variant not in (VARIANT_STANDARD, VARIANT_MIRRORED):
        raise EstimatorError(f"unknown variant {variant!r}")
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    base = y if variant == VARIANT_STANDARD else y - 1.0
    out = base * (z / prop - (1.0 - z) / (1.0 - prop))
    return float(out) if out.ndim == 0 else out


def conditional_mean_given_eta(
    table: PotentialTable, layout: MbcrLayout, eta: np.ndarray
) -> float:
    """Exact expectation of the grouped estimate over within-group shuffles.

    Given the unit-wide permutation, averages each group's sum over every
    admissible placement of its treated units (single choices for full
    blocks, subsets for the tail) and adds the groups up; group placements
    are independent so the sum of per-group means is the exact expectation.
    The result equals the table's finite-population effect for every
    permutation.
    """
    eta = np.asarray(eta)
    if eta.shape[0] != layout.n or table.n != layout.n:
        raise EstimatorError("table, layout, and permutation sizes differ")
    inv_eta = inverse_permutation(eta)
    g = float(layout.group_size)
    w_ctrl = g / (g - 1.0)
    total = 0.0
    blocks = slot_blocks(layout)
    full = blocks[: layout.num_full_groups]
    for block in full:
        units = inv_eta[block]
        y0g, y1g = table.y0[units], table.y1[units]
        s0 = y0g.sum()
        total += float(np.mean(g * y1g - w_ctrl * (s0 - y0g)))
    if layout.tail_size > 0:
        units = inv_eta[blocks[-1]]
        y0g, y1g = table.y0[units], table.y1[units]
        s0 = y0g.sum()
        wt = layout.tail_size / layout.tail_treated
        wc = layout.tail_size / (layout.tail_size - layout.tail_treated)
        acc = 0.0
        combos = list(itertools.combinations(range(layout.tail_size), layout.tail_treated))
        for picked in combos:
            sel = list(picked)
            acc += wt * y1g[sel].sum() - wc * (s0 - y0g[sel].sum())
        total += acc / len(combos)
    return total / layout.n


def two_point_cgf(lam: float, a: float, b: float) -> float:
    """The two-point CGF ``log(b/(b-a) e^{lam a} - a/(b-a) e^{lam b})``.

    Written as ``log1p((b expm1(lam a) - a expm1(lam b)) / (b - a))``, which
    keeps its digits when ``lam b`` is small, where a log-sum-exp of the two
    terms cancels.  Overflows once ``lam b`` exceeds about 709.
    """
    return math.log1p((b * math.expm1(lam * a) - a * math.expm1(lam * b)) / (b - a))


def cn_mbcr_bounds(layout: MbcrLayout) -> tuple[float, int]:
    """Propensity-only value or upper bound for the grouped width constant.

    Returns ``(bound, tail_treated)``: the exact ``1/sqrt(pi)`` when the
    groups tile the sample, ``(1 + pi)/sqrt(pi)`` with one spilled treated
    unit, and ``sqrt((1+pi)^2/pi + 2 (1/pi + 1)^2 / n)`` with two.  The bound
    always dominates the exact constant.
    """
    pi = float(layout.pi)
    if layout.tail_treated == 0:
        return 1.0 / math.sqrt(pi), 0
    if layout.tail_treated == 1:
        return (1.0 + pi) / math.sqrt(pi), 1
    bound = math.sqrt(
        (1.0 + pi) ** 2 / pi + 2.0 * (1.0 / pi + 1.0) ** 2 / layout.n
    )
    return bound, 2
