"""Randomization designs for two-arm experiments.

Three assignment schemes: independent Bernoulli(pi) coin flips, complete
randomization of a fixed treated count, and grouped ("mini-batch") complete
randomization over blocks of size ``ceil(1/pi)``.  The grouped form is
distributionally identical to complete randomization, but its assignment
carries what downstream estimators need: its layout and one uniform
unit-wide permutation ``eta`` that seats unit ``j`` at slot ``eta[j]``, in
that slot's block.  The paper defines the design in two stages, ``eta``
composed with within-block shuffles ``beta``; a uniform ``eta`` composed
with a block-preserving ``beta`` is again uniform, so one permutation gives
``z`` and each unit's block the same law.
:func:`enumerate_mbcr_distribution` enumerates the two-stage definition.

All draws are pure functions of an explicit ``numpy.random.Generator`` and
return arrays of their own; the same seeded generator always reproduces the
same assignment.  Exact enumeration of the grouped scheme's assignment
distribution, used by the verification harness, counts permutation tuples
with integer arithmetic only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context
from functools import cached_property
from fractions import Fraction

import numpy as np

SCHEME_BERNOULLI = "bernoulli"
SCHEME_COMPLETE = "complete"
SCHEME_MBCR = "mbcr"

DEFAULT_ENUMERATION_BUDGET = 10**8
# The largest budget a config may set, fixed so that a config gives the same
# exit on every machine: about five minutes at the 30 M tuples per second the
# enumeration runs on a 2-core Xeon VM.  A grouped tuple count is at least
# n!, so a space within the cap has n <= 13 (13! is about 6.2e9, 14! about
# 8.7e10), and the 2**n tally and the int64 ``1 << arange(n)`` weights stay
# small.
MAX_ENUMERATION_BUDGET = 10**10
# The propensity floor and the sample-size cap.  Below pi = 2**-300 no
# design of at most 2**53 units has even a 2**-247 chance of treating a
# unit, and up to 2**53 every count is exact in float64.  Inside them no
# arithmetic in the library can overflow: a pseudo-outcome term is at most
# 2**300 in size, a squared deviation is at most about 2**604, a sum of
# them over MAX_N units stays below 2**660, and the product n*(-a)*b of
# sub-bernoulli-bern's lambda is below 2**360, all far under 2**1024.
MIN_PI = 2.0**-300
MAX_N = 2**53


class DesignError(ValueError):
    """An ill-posed randomization design (bad counts or propensity)."""


class LayoutInfeasibleError(DesignError):
    """The grouped layout cannot host the requested treated count.

    Raised when the final (remainder) group would need as many or more
    treated units than it has members, which happens for propensities close
    to 1/2 that do not divide the sample evenly.  Concretely the construction
    breaks exactly when ``n1 * ceil(n / n1) - n >= 2 * ceil(n / n1) - 2``.
    """


class EnumerationBudgetError(DesignError):
    """Exact enumeration would exceed the configured tuple budget."""


def _check_counts(n: int, n1: int) -> None:
    if not isinstance(n, (int, np.integer)) or not isinstance(n1, (int, np.integer)):
        raise DesignError("n and n1 must be integers")
    if n1 < 1:
        raise DesignError(f"need at least one treated unit, got n1={n1}")
    if 2 * n1 > n:
        raise DesignError(
            f"n1={n1} exceeds n/2={n / 2}: the propensity n1/n must be at most "
            "1/2; relabel the arms so the smaller one is called treatment"
        )


def validate_propensity(pi: float | Fraction) -> None:
    """Reject propensities outside [MIN_PI, 1/2]; exact for a ``Fraction``.

    The floor ``MIN_PI = 2**-300`` keeps every computation finite; see its
    definition.
    """
    if not (0 < pi <= 0.5):
        hint = "; relabel the arms so the smaller one is called treatment"
        raise DesignError(
            f"propensity {_shown(pi)} outside (0, 1/2]" + (hint if pi > 0.5 else "")
        )
    if pi < MIN_PI:
        raise DesignError(f"propensity {_shown(pi)} below the floor {MIN_PI!r}")


def _shown(pi: float | Fraction) -> float | str:
    """``pi`` for a message: a ``Fraction`` to six significant digits, trailing
    zeros dropped, in an exponent range wide enough that none rounds to zero."""
    if not isinstance(pi, Fraction):
        return pi
    # Converting a long integer to decimal is quadratic in its digits, so the
    # fraction is cut to a 128-bit integer times 2**-shift.  Their product to
    # 28 digits equals a short decimal exactly, so its ties round correctly.
    p, q = pi.numerator, pi.denominator
    shift = 128 - (p.bit_length() - q.bit_length()) if p else 0
    m = (p << shift) // q if shift >= 0 else p // (q << -shift)
    fine, wide, six = (Context(k, Emin=MIN_EMIN, Emax=MAX_EMAX) for k in (50, 28, 6))
    x = six.plus(wide.multiply(m, fine.power(2, -shift))).normalize(six)
    if x.as_tuple().exponent > 0 and x.adjusted() < 6:
        x = x.quantize(1)  # 50, not 5e+1
    return format(x, "g")


@dataclass(frozen=True)
class MbcrLayout:
    """The blocks of a grouped complete randomization of ``n`` units.

    ``kinds`` lists them once, as ``(size, treated, count)`` per kind of
    block in slot order: ``count`` blocks of ``size`` slots, each with
    ``treated`` treated units.  :func:`compute_layout` builds full blocks
    ``(g, 1, T)`` and then at most one tail ``(s, k, 1)``.  The read-only
    :attr:`n1`, :attr:`allocation` and :attr:`coef` are built on first read
    and live as long as the layout.
    """

    n: int
    kinds: tuple[tuple[int, int, int], ...]

    @cached_property
    def n1(self) -> int:
        """The treated count: the treated units of every block."""
        return sum(treated * count for _, treated, count in self.kinds)

    @property
    def pi(self) -> Fraction:
        return Fraction(self.n1, self.n)

    @property
    def num_groups(self) -> int:
        """Total group count including the tail when present."""
        return sum(count for _, _, count in self.kinds)

    @cached_property
    def allocation(self) -> np.ndarray:
        """Pre-randomization slot pattern: 1 at a treated slot, where the
        coefficient is positive, and 0 at a control slot."""
        return read_only((self.coef > 0).view(np.int8))

    @cached_property
    def coef(self) -> np.ndarray:
        """Each slot's Horvitz-Thompson coefficient: a block of ``s`` slots
        with ``k`` treated leads with ``k`` slots of ``s/k``, then its control
        slots of ``-s/(s-k)``, so ``g`` and ``-g/(g-1)`` in a full block."""
        coef, start = np.empty(self.n), 0
        for size, treated, count in self.kinds:
            blocks = coef[start:start + size * count].reshape(count, size)
            blocks[:, :treated] = size / treated
            blocks[:, treated:] = -size / (size - treated)
            start += size * count
        return read_only(coef)


def compute_layout(n: int, n1: int) -> MbcrLayout:
    """Group-size arithmetic for a treated count ``n1`` out of ``n`` units.

    The block size is ``ceil(n / n1)`` (the reciprocal propensity rounded
    up).  The number of full blocks and the tail's treated count follow a
    three-way split: when ``n1`` divides ``n`` there is no tail; otherwise
    one or two treated units spill into a remainder group, chosen so the
    remainder has at least two members.  Inputs where even the two-spill
    case leaves the remainder group short (no control unit, or fewer slots
    than treated) are rejected with :class:`LayoutInfeasibleError`.
    """
    _check_counts(n, n1)
    n = int(n)
    n1 = int(n1)
    group_size = -(-n // n1)
    if n % n1 == 0:
        full, tail_treated = n1, 0
    elif n - (n1 - 1) * group_size >= 2:
        full, tail_treated = n1 - 1, 1
    else:
        full, tail_treated = n1 - 2, 2
    tail = n - full * group_size
    if tail_treated >= 1 and tail <= tail_treated:
        raise LayoutInfeasibleError(
            f"no valid grouping for n={n}, n1={n1}: the remainder group would "
            f"have {tail} slot(s) for {tail_treated} treated unit(s) and no "
            "control; use Bernoulli randomization (or adjust n1) at this "
            "propensity"
        )
    kinds = ((group_size, 1, full),)
    if tail:
        kinds += ((tail, tail_treated, 1),)
    return MbcrLayout(n=n, kinds=kinds)


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, locked against writes: for arrays cached and shared by readers."""
    if a.flags.writeable:
        a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Assignment:
    """A realized treatment vector plus how it was drawn: a grouped draw, and
    no other, carries its ``layout`` and the permutation ``eta`` that seats
    unit ``j`` at slot ``eta[j]``, whose pattern value it receives."""

    z: np.ndarray
    scheme: str
    pi: float
    layout: MbcrLayout | None = None
    eta: np.ndarray | None = None

    def __post_init__(self) -> None:
        grouped = self.scheme == SCHEME_MBCR
        if (self.layout is not None, self.eta is not None) != (grouped, grouped):
            need = "needs its layout and eta" if grouped else "takes no layout or eta"
            raise DesignError(f"a {self.scheme} assignment {need}")
        validate_propensity(self.pi)

    @property
    def n(self) -> int:
        return int(self.z.shape[0])

    @cached_property
    def treated(self) -> np.ndarray:
        """Read-only mask of the treated units, ``z == 1``; a ``z`` holding a
        value other than 0 and 1 is refused."""
        mask = self.z == 1
        if np.count_nonzero(mask) != np.count_nonzero(self.z):
            raise DesignError("z must hold only 0s and 1s")
        return read_only(mask)

    def unit_weights(self) -> tuple[float, float]:
        """The Horvitz-Thompson coefficients at propensity ``pi``: ``1/pi``
        for a treated unit and ``-1/(1-pi)`` for a control."""
        pi = float(self.pi)
        return 1.0 / pi, -1.0 / (1.0 - pi)


def draw_bernoulli(n: int, pi: float, rng: np.random.Generator) -> Assignment:
    """Independent Bernoulli(pi) assignment for each unit: the units
    :func:`treated_set_bernoulli` draws are treated, and no others."""
    if n < 1:
        raise DesignError(f"need n >= 1, got {n}")
    return bernoulli_assignment(n, pi, treated_set_bernoulli(n, pi, rng))


def bernoulli_assignment(n: int, pi: float, units: np.ndarray) -> Assignment:
    """The Bernoulli(pi) assignment of ``n`` units that treats ``units``."""
    z = np.zeros(n, dtype=np.int8)
    z[units] = 1
    return Assignment(z=z, scheme=SCHEME_BERNOULLI, pi=float(pi))


def grouped_assignment(layout: MbcrLayout, eta: np.ndarray) -> Assignment:
    """The grouped assignment that the permutation ``eta`` makes: unit ``j``
    receives the allocation pattern's value at slot ``eta[j]``."""
    z = layout.allocation[eta]
    pi = layout.n1 / layout.n
    return Assignment(z=z, scheme=SCHEME_MBCR, pi=pi, layout=layout, eta=eta)


def draw_mbcr(layout: MbcrLayout, rng: np.random.Generator) -> Assignment:
    """Grouped complete randomization draw: one uniform unit-wide permutation
    ``eta``, ``rng.permutation(n)``.

    Shuffling within the blocks as well would not change the law of the
    assignment or of each unit's block: a uniform ``eta`` composed with a
    block-preserving ``beta`` is again uniform and keeps every unit's block.
    """
    return grouped_assignment(layout, rng.permutation(layout.n))


def treated_set_mbcr(layout: MbcrLayout, rng: np.random.Generator) -> np.ndarray:
    """The units a grouped draw seats at the tail's slots, in slot order (its
    first ``k`` are the tail's treated units), then the units at the ``T``
    full blocks' treated slots: everything the estimate of a table reads.
    The units at any distinct slots of a uniform permutation are an ordered
    sample without replacement, so this is one, of O(1/pi + n pi) units, in
    the law of :func:`draw_mbcr`'s units at those slots.

    ``layout`` has :func:`compute_layout`'s shape: full blocks ``(g, 1, T)``
    first, then at most one tail ``(s, k, 1)``.
    """
    (_, _, full), *tail = layout.kinds
    size = full + (tail[0][0] if tail else 0)
    return rng.choice(layout.n, size, replace=False)


def treated_set_bernoulli(n: int, pi: float, rng: np.random.Generator) -> np.ndarray:
    """The units a Bernoulli(pi) draw treats: a binomial count, then a
    uniform subset of that size, whose law is that of independent
    Bernoulli(pi) coin flips."""
    validate_propensity(pi)
    return rng.choice(n, rng.binomial(n, pi), replace=False)


@dataclass(frozen=True)
class MbcrDistribution:
    """Exact assignment counts from enumerating every permutation tuple."""

    n: int
    n1: int
    counts: dict[tuple[int, ...], int]
    total: int

    def probability(self, z) -> Fraction:
        return Fraction(self.counts.get(tuple(int(v) for v in z), 0), self.total)

    def is_uniform(self) -> bool:
        """True when every arrangement of n1 ones has identical probability."""
        expected = math.comb(self.n, self.n1)
        if len(self.counts) != expected:
            return False
        want = Fraction(self.total, expected)
        return want.denominator == 1 and all(
            c == want.numerator for c in self.counts.values()
        )


def _space_factors(layout: MbcrLayout):
    """The factors of ``g!**T * s! * n!``, one at a time, each at least 2."""
    blocks = (itertools.repeat(size, count) for size, _, count in layout.kinds)
    sizes = itertools.chain(*blocks, (layout.n,))
    return itertools.chain.from_iterable(range(2, k + 1) for k in sizes)


def enumerate_mbcr_distribution(
    layout: MbcrLayout, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> MbcrDistribution:
    """Exact distribution of grouped draws over the full permutation space.

    Visits every tuple of within-block permutations and every unit-wide
    permutation, counting each resulting assignment with integer arithmetic.
    Refuses (never silently samples) when the tuple count exceeds ``budget``.
    The count's factors are each at least 2, so it is multiplied out only
    until it passes the budget, in at most ``log2(budget) + 1`` steps; a
    refusal names the count if that took every factor, else a lower bound.
    """
    space, factors = 1, _space_factors(layout)
    for factor in factors:
        space *= factor
        if space > budget:
            bound = "" if next(factors, None) is None else "at least "
            raise EnumerationBudgetError(
                f"exact enumeration needs {bound}{space} permutation tuples, over "
                f"the budget of {budget}; increase the budget or use a smaller n"
            )
    n, a = layout.n, layout.allocation
    block_perms, start = [], 0
    for size, _, count in layout.kinds:
        perms = [np.array(p) for p in itertools.permutations(range(size))]
        for _ in range(count):
            block_perms.append([p + start for p in perms])
            start += size
    patterns = [
        a[np.concatenate(combo)]
        for combo in itertools.product(*block_perms)
    ]
    weights = (1 << np.arange(n)).astype(np.int64)
    tally = np.zeros(1 << n, dtype=np.int64)
    chunk = 40320
    perm_iter = itertools.permutations(range(n))
    while True:
        batch = list(itertools.islice(perm_iter, chunk))
        if not batch:
            break
        eta_mat = np.array(batch, dtype=np.intp)
        for pattern in patterns:
            codes = pattern[eta_mat].astype(np.int64) @ weights
            tally += np.bincount(codes, minlength=1 << n)
    counts: dict[tuple[int, ...], int] = {}
    for code in np.nonzero(tally)[0]:
        z = tuple(int((code >> k) & 1) for k in range(n))
        counts[z] = int(tally[code])
    total = int(tally.sum())
    if total != space:
        raise AssertionError(
            f"enumeration visited {total} tuples, expected {space}"
        )
    return MbcrDistribution(n=n, n1=layout.n1, counts=counts, total=total)
