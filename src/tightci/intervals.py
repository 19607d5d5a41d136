"""Nonasymptotic confidence intervals for the average treatment effect.

Constructions provided:

* ``hoeff-mbcr``: Hoeffding-style interval around the grouped estimator,
  whose width constant depends only on the batching arithmetic and collapses
  to ``1/sqrt(pi)`` when the groups tile the sample exactly.
* ``sub-bernoulli-bern`` and ``sub-bernoulli-mbcr``: intervals built from
  the two-point (sub-Bernoulli) cumulant generating function, under
  Bernoulli randomization or the grouped design.
* ``studentized_ci``: a cross-fit variance-adaptive interval; each half of
  the groups tunes the exponential-bound parameter used on the other half.
* ``naive-hoeffding``: the classical bounded-range Hoeffding interval
  whose effective sample size degrades with the squared propensity, kept as
  the comparison baseline.
* ``clt_ci``: a plug-in normal interval, asymptotic only, excluded from all
  coverage guarantees.  Its normal quantile comes from ``_ndtri``, a port of
  Cephes' ``ndtri`` with scipy.special's bits, so the package runs on numpy
  alone.

One builder, :func:`closed_ci`, serves the four closed forms, whose width
depends on the design alone.  Every builder records the constants it used in
a ``tuning`` mapping, and ``reevaluate`` reproduces the endpoints from that
record alone.  A coverage chunk, which needs only endpoints, evaluates
grouped Studentized intervals a block of draws at a time with
:class:`StudentizedBlock`, through the same split statistics and scalar tail
as ``studentized_ci``, bit for bit.  ``METHOD_TABLE`` maps every method tag
the package knows to its :class:`MethodSpec`, the one place that says how a
tag draws, estimates and builds its interval.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from .design import (
    SCHEME_BERNOULLI,
    SCHEME_COMPLETE,
    SCHEME_MBCR,
    DesignError,
    MbcrLayout,
    read_only,
    validate_propensity,
)
from .estimator import (
    ObservedData,
    _weigh_units,
    block_sums,
    groupwise_sums,
    ht_estimate,
)

METHOD_HOEFF_MBCR = "hoeff-mbcr"
METHOD_SUB_BERNOULLI_BERN = "sub-bernoulli-bern"
METHOD_SUB_BERNOULLI_MBCR = "sub-bernoulli-mbcr"
METHOD_STUDENTIZED = "studentized"
METHOD_NAIVE_HOEFFDING = "naive-hoeffding"
METHOD_CLT = "clt"
# Simulation-only tags: the Studentized interval drawn under Bernoulli
# randomization, and the two bare point estimators of RMSE runs.
METHOD_STUDENTIZED_BERN = "studentized-bern"
METHOD_HT_MBCR = "ht-mbcr"
METHOD_HT_BERNOULLI = "ht-bernoulli"

# Cross-fitting splits the group sums in two halves of at least two each.
MIN_CROSS_FIT_GROUPS = 4
# The smallest miscoverage level accepted: below it 2/alpha overflows.
MIN_ALPHA = math.nextafter(2.0 / sys.float_info.max, 1.0)


class IntervalError(ValueError):
    """Inputs incompatible with an interval construction."""


class EmptyArmError(IntervalError):
    """An interval that needs both arms observed met a draw with one empty."""


def validate_alpha(alpha: float) -> float:
    """``alpha`` as a float; refuses miscoverage outside [MIN_ALPHA, 1)."""
    if not (MIN_ALPHA <= alpha < 1.0):
        raise IntervalError(
            f"alpha must lie in (0, 1) and be at least {MIN_ALPHA!r} "
            f"(so that 2/alpha is finite), got {alpha}"
        )
    return float(alpha)


@dataclass(frozen=True)
class Interval:
    """A two-sided confidence interval plus the constants that built it."""

    lower: float
    upper: float
    alpha: float
    method: str
    tuning: dict[str, Any]

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise IntervalError(f"empty interval [{self.lower}, {self.upper}]")

    @property
    def half_width(self) -> float:
        return (self.upper - self.lower) / 2.0

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    def clipped(self) -> "Interval":
        """Intersect with the estimand's natural range [-1, 1]."""
        return replace(
            self,
            lower=min(max(self.lower, -1.0), 1.0),
            upper=min(max(self.upper, -1.0), 1.0),
            tuning={**self.tuning, "clipped": (-1.0, 1.0)},
        )


def log_half_cosh2(x: float) -> float:
    """log(exp(-x)/2 + exp(x)/2) = log cosh x, stable for large |x|."""
    ax = abs(float(x))
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)


def gamma_b(lam: float, a: float, b: float) -> float:
    """Two-point cumulant generating function for a centered range [a, b].

    Equals ``log(b/(b-a) * e^{lam*a} - a/(b-a) * e^{lam*b})``, evaluated in
    log-sum-exp form.  Zero at ``lam = 0``; for small ``lam`` it behaves as
    ``(-a*b) * lam^2 / 2``.
    """
    a, b = float(a), float(b)
    if not a < 0.0 < b:
        raise IntervalError(f"need a < 0 < b, got a={a}, b={b}")
    if lam == 0.0:
        # the two-point weights sum to one, so the value is log(1) exactly
        return 0.0
    span = b - a
    return float(
        np.logaddexp(math.log(b / span) + lam * a, math.log(-a / span) + lam * b)
    )


def gamma_e(lam: float, c: float) -> float:
    """One-sided sub-exponential CGF-like function ``(-log(1-c*lam)-c*lam)/c^2``.

    Defined for ``0 <= lam < 1/c`` with ``c > 0``; nonnegative, increasing,
    and asymptotically ``lam^2/2`` as ``lam -> 0``.
    """
    c = float(c)
    lam = float(lam)
    if c <= 0.0:
        raise IntervalError(f"scale c must be positive, got {c}")
    if lam < 0.0 or lam >= 1.0 / c:
        raise IntervalError(f"lambda {lam} outside [0, 1/c) for c={c}")
    return (-math.log1p(-c * lam) - c * lam) / (c * c)


def _centered(
    method: str, psi_hat: float, alpha: float, half: float, tuning: dict[str, Any]
) -> Interval:
    """``psi_hat +/- half``, with both recorded around the builder's tuning."""
    return Interval(
        lower=psi_hat - half,
        upper=psi_hat + half,
        alpha=alpha,
        method=method,
        tuning={"psi_hat": float(psi_hat), **tuning, "half_width": half},
    )


# ---------------------------------------------------------------------------
# The closed forms: each tag's ``tuning(layout, n, pi, alpha)`` writes the
# record its ``half(alpha, tuning)`` reads, so :func:`closed_ci` and
# ``reevaluate`` run the same arithmetic.


def _grouped_shape(layout: MbcrLayout | None) -> dict[str, int]:
    if layout is None:
        raise IntervalError("a grouped form needs the layout")
    return {
        "n": layout.n,
        "num_full_groups": layout.num_full_groups,
        "group_size": layout.group_size,
        "tail_size": layout.tail_size,
    }


def _bernoulli_tuning(layout, n, pi, alpha: float) -> dict[str, Any]:
    """A Bernoulli form's ``n``, an integer of at least 1, and ``pi``."""
    if n is None or pi is None:
        raise IntervalError("a Bernoulli form needs n and pi")
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise IntervalError(f"n must be an integer of at least 1, got {n!r}")
    try:
        validate_propensity(pi)
    except DesignError as exc:
        raise IntervalError(str(exc)) from exc
    return {"n": int(n), "pi": float(pi)}


def _record_kinds(t: dict[str, Any]) -> list[tuple[int, int]]:
    """The ``(size, count)`` of each kind of block a grouped record names:
    the full blocks, then the tail when there is one."""
    pairs = ((t["group_size"], t["num_full_groups"]), (t["tail_size"], 1))
    return [(size, count) for size, count in pairs if size > 0]


def _hoeff_mbcr_constant(t: dict[str, Any]) -> float:
    squares = sum(count * size * size for size, count in _record_kinds(t))
    return math.sqrt(squares / t["n"])


def _hoeff_mbcr_tuning(layout, n, pi, alpha: float) -> dict[str, Any]:
    """Hoeffding-style interval around the grouped estimator.

    Half-width is ``c_n * sqrt(2 log(2/alpha) / n)`` with
    ``c_n = sqrt((T g^2 + tail^2) / n)``; with no tail group this is exactly
    ``sqrt(2 log(2/alpha) / (n pi))``.
    """
    t = _grouped_shape(layout)
    t["cn"] = _hoeff_mbcr_constant(t)
    return t


def _hoeff_mbcr_half(alpha: float, t: dict[str, Any]) -> float:
    return _hoeff_mbcr_constant(t) * math.sqrt(2.0 * math.log(2.0 / alpha) / t["n"])


def _sb_bern_range(pi: float) -> tuple[float, float]:
    return -1.0 / (1.0 - pi) - 1.0, 1.0 / pi + 1.0


def _sb_bern_tuning(layout, n, pi, alpha: float) -> dict[str, Any]:
    """Sub-Bernoulli interval ``psi_hat +/- (log(2/alpha) + kappa)/(n lam)``
    under Bernoulli randomization: the centered pseudo-outcome range is
    ``[-1/(1-pi) - 1, 1/pi + 1]``, ``kappa = n * gamma_b(lam)``, and ``lam``
    matches the CGF's quadratic coefficient."""
    t = _bernoulli_tuning(layout, n, pi, alpha)
    a, b = _sb_bern_range(t["pi"])
    lam = math.sqrt(2.0 * math.log(2.0 / alpha) / (t["n"] * -a * b))
    t.update(lam=lam, range_lo=a, range_hi=b, kappa=t["n"] * gamma_b(lam, a, b))
    return t


def _sb_bern_half(alpha: float, t: dict[str, Any]) -> float:
    a, b = _sb_bern_range(t["pi"])
    kappa = t["n"] * gamma_b(t["lam"], a, b)
    return (math.log(2.0 / alpha) + kappa) / (t["n"] * t["lam"])


def _sb_mbcr_tuning(layout, n, pi, alpha: float) -> dict[str, Any]:
    """The sub-Bernoulli interval under the grouped design: the centered
    group sums have range ``+/- 2g`` (``+/- 2 tail`` for the tail group),
    ``kappa`` is the per-group log-cosh total, and ``lam`` matches that
    CGF's quadratic coefficient ``4 T g^2 + 4 tail^2``, which attains the
    sharp small-propensity width scaling."""
    t = _grouped_shape(layout)
    quad = sum(4.0 * count * size * size for size, count in _record_kinds(t))
    t["lam"] = math.sqrt(2.0 * math.log(2.0 / alpha) / quad)
    return t


def _sb_mbcr_half(alpha: float, t: dict[str, Any]) -> float:
    lam = t["lam"]
    kappa = sum(c * log_half_cosh2(2.0 * s * lam) for s, c in _record_kinds(t))
    return (math.log(2.0 / alpha) + kappa) / (t["n"] * lam)


def _naive_half(alpha: float, t: dict[str, Any]) -> float:
    """Classical Hoeffding interval with the full pseudo-outcome range.

    Half-width ``(1/(1-pi) + 1/pi) * sqrt(log(2/alpha) / (2n))``, the
    two-sided union of the textbook one-sided bound.  Valid but loose: its
    effective sample size scales with ``n pi^2``.
    """
    pi = t["pi"]
    return (1.0 / (1.0 - pi) + 1.0 / pi) * math.sqrt(
        math.log(2.0 / alpha) / (2.0 * t["n"])
    )


# ---------------------------------------------------------------------------
# Cross-fit Studentized interval
#
# ``_split_statistics`` works along the last axis, so one call serves a
# stack of group-sum rows; a scalar ``math`` tail per row then forms the
# anchors, since numpy's vectorized ``log`` may differ from libm's in the
# last bit.  ``studentized_ci`` evaluates one draw this way, and a coverage
# chunk a block of grouped draws (:class:`StudentizedBlock`).

# The most group sums a StudentizedBlock stacks (one draw's, if they are more).
STUDENTIZED_BLOCK_VALUES = 2**16


def _grouped_scale(layout: MbcrLayout) -> float:
    return float(max(size for size, _, _ in layout.kinds))


def studentized_scale(data: ObservedData) -> float:
    """Scale c of the Studentized interval's CGF: a centered group sum's range.

    A full block of ``g`` slots with treated unit ``t`` sums to
    ``g y1_t - (g/(g-1)) (sum y0 - y0_t)``.  Centered at ``sum y1 - sum y0``
    it is ``(g y1_t - sum y1) + (g y0_t - sum y0)/(g-1)``, with terms in
    ``[-(g-1), g-1]`` and ``[-1, 1]``, so it lies in ``[-g, g]``.  A tail of
    ``s`` slots with ``t`` treated (weights ``s/t`` and ``s/(s-t)``) splits
    into terms in ``[-(s-t), s-t]`` and ``[-t, t]``, so it lies in
    ``[-s, s]``.  Grouped draws take ``c = max(g, s)``.  Under Bernoulli
    randomization a group is one unit, whose range is ``1/(1 - pi) + 1``.
    """
    asg = data.assignment
    if asg.scheme == SCHEME_BERNOULLI:
        return 1.0 / (1.0 - asg.pi) + 1.0
    if asg.scheme == SCHEME_MBCR:
        return _grouped_scale(asg.layout)
    raise IntervalError("Studentized interval needs Bernoulli data or a grouped draw")


@lru_cache(maxsize=8)
def _split_divisors(tbar: int) -> tuple[np.ndarray, np.ndarray]:
    """Running-mean divisors of the two splits, built once per group count.

    Step t of split one divides by ``m2 + t`` (the opposite split's size
    plus the values folded in so far), and likewise for split two.
    """
    m1 = tbar // 2
    m2 = tbar - m1
    return (
        read_only((m2 + np.arange(m1)).astype(np.float64)),
        read_only((m1 + np.arange(m2)).astype(np.float64)),
    )


def _split_sum_of_squares(s: np.ndarray, opposite_total, div: np.ndarray):
    """Sum of ``(s[t] - (opposite_total + s[:t].sum()) / div[t])**2`` over t,
    along the last axis.

    The prefix sums, means, deviations and squares share one buffer.
    """
    buf = np.empty(s.shape)
    buf[..., 0] = 0.0
    np.cumsum(s[..., :-1], axis=-1, out=buf[..., 1:])
    buf += opposite_total[..., None]
    buf /= div
    np.subtract(s, buf, out=buf)
    np.square(buf, out=buf)
    return buf.sum(axis=-1)


def _split_statistics(theta: np.ndarray) -> tuple[Any, Any]:
    """Cross-seeded running-mean sums of squares for the two group splits.

    Split one holds the first ``floor(T/2)`` group sums.  Its running mean
    at step t starts from the full total of the opposite split and then
    folds in this split's first ``t - 1`` values; each split's V, returned
    as ``(v1, v2)``, is the sum of squared deviations of each value from its
    running mean.  Works along the last axis: one row of sums gives scalar
    V's, a stack of rows one V per row, each bit for bit the row's own.
    """
    tbar = theta.shape[-1]
    m1 = tbar // 2
    s1, s2 = theta[..., :m1], theta[..., m1:]
    tot1, tot2 = s1.sum(axis=-1), s2.sum(axis=-1)
    div1, div2 = _split_divisors(tbar)
    v1 = _split_sum_of_squares(s1, tot2, div1)
    v2 = _split_sum_of_squares(s2, tot1, div2)
    return v1, v2


def _stud_lambda(v: float, alpha: float, c: float) -> float:
    """min(sqrt(2 log(2/alpha) / V), 1/(2c)); the cap alone when V = 0."""
    cap = 1.0 / (2.0 * c)
    if v <= 0.0:
        return cap
    return min(math.sqrt(2.0 * math.log(2.0 / alpha) / v), cap)


def _stud_penalty(lam: float, v: float, n: int, alpha: float, c: float) -> float:
    """One split's penalty."""
    return (gamma_e(lam, c) * v + math.log(2.0 / alpha)) / (n * lam)


# What an anchor records, in the order of its tuples and tuning keys.
_ANCHOR_KEYS = ("mean", "v1", "v2", "lam1", "lam2")


def _row_anchors(rows: np.ndarray, n: int, alpha: float, c: float) -> list:
    """The anchor ``(mean, v1, v2, lam1, lam2)`` of every row of ``rows``, in
    order: the split statistics of the whole stack in one call, then the
    scalar tail row by row."""
    v1, v2 = _split_statistics(rows)
    stats = zip(*(arr.ravel().tolist() for arr in (rows.sum(axis=-1), v1, v2)))
    return [
        (total / n, a, b, _stud_lambda(a, alpha, c), _stud_lambda(b, alpha, c))
        for total, a, b in stats
    ]


def _stud_penalties(anchor: tuple, n: int, alpha: float, c: float) -> float:
    """Both splits' penalties of one anchor; each uses the other's lambda."""
    _, v1, v2, lam1, lam2 = anchor
    return _stud_penalty(lam2, v1, n, alpha, c) + _stud_penalty(lam1, v2, n, alpha, c)


def _stud_bounds(
    low: tuple, up: tuple, n: int, alpha: float, c: float
) -> tuple[float, float, bool]:
    """The lower anchor's mean less its penalties and the upper anchor's mean
    plus its own, and whether they crossed; a grouped draw's one anchor
    serves both.  Bernoulli anchors can cross on extreme draws, and then
    both endpoints are the point between."""
    pen_l = _stud_penalties(low, n, alpha, c)
    pen_u = pen_l if up is low else _stud_penalties(up, n, alpha, c)
    lower, upper = low[0] - pen_l, up[0] + pen_u
    if upper < lower:
        lower = upper = 0.5 * (lower + upper)
        return lower, upper, True
    return lower, upper, False


def studentized_ci(data: ObservedData, alpha: float) -> Interval:
    """Cross-fit Studentized variance-adaptive interval.

    The group sums are split in half; each split's empirical variance tunes
    the exponential-bound parameter applied to the other split.  The lower
    endpoint is anchored at the standard pseudo-outcome mean and the upper
    endpoint at the mirrored one, which replaces ``y`` with ``y - 1``.  With
    parameter ``alpha`` the resulting two-sided interval has coverage at
    least ``1 - 2 alpha`` (each side is a one-sided ``1 - alpha`` bound and
    the two are union bounded).  A grouped block's coefficients sum to zero
    (``g - (g-1) g/(g-1)``, ``t s/t - (s-t) s/(s-t)`` in the tail), so there
    the mirrored sums are the standard ones and one set serves both anchors.
    """
    alpha = validate_alpha(alpha)
    theta = groupwise_sums(data)
    tbar = theta.shape[0]
    if tbar < MIN_CROSS_FIT_GROUPS:
        raise IntervalError(
            "insufficient groups for cross-fitting: need at least "
            f"{MIN_CROSS_FIT_GROUPS}, got {tbar}"
        )
    c = studentized_scale(data)
    n, m1 = data.n, tbar // 2
    low = up = _row_anchors(theta, n, alpha, c)[0]
    if data.assignment.scheme == SCHEME_BERNOULLI:
        mirrored = _weigh_units(data.y - 1.0, data.assignment)
        up = _row_anchors(mirrored, n, alpha, c)[0]
    tuning = {"n": n, "num_groups": tbar, "m1": m1, "m2": tbar - m1, "c": c}
    for side, anchor in (("l", low), ("u", up)):
        tuning.update({f"{key}_{side}": v for key, v in zip(_ANCHOR_KEYS, anchor)})
    lower, upper, crossed = _stud_bounds(low, up, n, alpha, c)
    if crossed:
        tuning["degenerate_midpoint"] = lower
    return Interval(lower, upper, alpha, METHOD_STUDENTIZED, tuning)


def _studentized_endpoints(alpha: float, t: dict[str, Any]) -> tuple[float, float]:
    low, up = ([t[f"{key}_{side}"] for key in _ANCHOR_KEYS] for side in "lu")
    return _stud_bounds(low, up, t["n"], alpha, t["c"])[:2]


class StudentizedBlock:
    """A grouped design's Studentized intervals over a chunk, a block of
    draws at a time.

    :meth:`add` reduces a draw's slot terms to its group sums, as
    :func:`~tightci.estimator.groupwise_sums` does, straight into a stack of
    at most ``STUDENTIZED_BLOCK_VALUES`` values (one draw's, if they are
    more), so memory does not grow with the draws; :meth:`evaluate` returns every
    stacked draw's endpoints from one row-wise split-statistics call and the
    scalar tail per row, exactly as :func:`studentized_ci` gives them.  The
    cell's ``c`` is fixed once; the layout must have the groups
    cross-fitting needs.
    """

    def __init__(self, layout: MbcrLayout, alpha: float, draws: int):
        groups = layout.num_groups
        size = max(1, min(draws, STUDENTIZED_BLOCK_VALUES // groups))
        self.stack = np.empty((size, groups))
        self.filled = 0
        self.layout = layout
        self.n, self.alpha, self.c = layout.n, alpha, _grouped_scale(layout)

    @property
    def full(self) -> bool:
        return self.filled == self.stack.shape[0]

    def add(self, terms: np.ndarray) -> None:
        """Stack the group sums of one draw's slot terms."""
        block_sums(terms, self.layout, self.stack[self.filled])
        self.filled += 1

    def evaluate(self) -> list[tuple[float, float]]:
        """The ``(lower, upper)`` endpoints of the draws added since the last
        call, in order; the block is then empty."""
        n, alpha, c = self.n, self.alpha, self.c
        anchors = _row_anchors(self.stack[: self.filled], n, alpha, c)
        self.filled = 0
        return [_stud_bounds(a, a, n, alpha, c)[:2] for a in anchors]


# Cephes' ndtri (S. L. Moshier), the normal quantile scipy.special.ndtri
# evaluates: a rational function of p - 1/2 on the centre, exp(-2) < p <
# 1 - exp(-2), and of 1/x, x = sqrt(-2 log p), on each tail, with one pair of
# coefficient sets below x = 8 (p = exp(-32)) and another from 8 up.
# Coefficients run from the highest degree down; each denominator's leading
# 1 is written out, which Horner's first step multiplies exactly.
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1,
    -5.66762857469070293439e1, 1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
    8.63602421390890590575e1, -2.25462687854119370527e2,
    2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1,
    5.71628192246421288162e1, 4.40805073893200834700e1,
    1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
    4.13172038254672030440e1, 1.50425385692907503408e1,
    2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0,
    3.93881025292474443415e0, 1.33303460815807542389e0,
    2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
    1.37702099489081330271e0, 2.16236993594496635890e-1,
    1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Horner's rule over ``coef``, highest degree first, as Cephes runs it."""
    ans = 0.0
    for c in coef:
        ans = ans * x + c
    return ans


def _ndtri(p: float) -> float:
    """The standard normal quantile at ``0 < p < 1``, bit for bit
    scipy.special.ndtri: Cephes' ``ndtri`` in its own order of operations,
    with ``math.log`` and ``math.sqrt``."""
    lower = p <= 1.0 - _EXP_M2
    y = p if lower else 1.0 - p
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    num, den = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x - math.log(x) / x - z * _polevl(z, num) / _polevl(z, den)
    return -x if lower else x


# Below this alpha the normal quantile is read from the upper tail.
_ISF_BELOW = 1e-3


@lru_cache(maxsize=64)
def _z_quantile(alpha: float) -> float:
    """The normal quantile at ``1 - alpha/2``, computed once per alpha.

    Forming ``1 - alpha/2`` rounds away the low digits of small tails (and
    all of them below alpha of about 1.1e-16), so below ``_ISF_BELOW`` the
    upper-tail form ``-_ndtri(alpha/2)`` gives the quantile.  Both forms are
    bit for bit scipy.stats' ``norm.isf(alpha/2)`` and ``norm.ppf(1 - alpha/2)``:
    :func:`_ndtri` runs the Cephes code behind both, so no scipy is needed.
    """
    if alpha < _ISF_BELOW:
        return -_ndtri(alpha / 2.0)
    return _ndtri(1.0 - alpha / 2.0)


def _clt_half(alpha: float, t: dict[str, Any]) -> float:
    return _z_quantile(alpha) * math.sqrt(t["vhat"] / t["n"])


def clt_ci(data: ObservedData, alpha: float) -> Interval:
    """Plug-in normal interval around the data's ``ht_estimate``.

    Asymptotic only; excluded from the coverage guarantees everywhere in
    this package.  Requires both arms to be nonempty.
    """
    alpha = validate_alpha(alpha)
    asg = data.assignment
    n_treat = np.count_nonzero(asg.treated)
    if n_treat == 0 or n_treat == data.n:
        raise EmptyArmError("plug-in normal interval needs both arms nonempty")
    est = ht_estimate(data)
    # np.var(ddof=1)'s own arithmetic, about the mean already read
    x = data.terms - est
    x *= x
    vhat = float(x.sum() / (data.n - 1))
    zq = _z_quantile(alpha)
    t = {"n": data.n, "pi": float(asg.pi), "vhat": vhat, "z_quantile": zq}
    return _centered(METHOD_CLT, est, alpha, _clt_half(alpha, t), t)


# ---------------------------------------------------------------------------
# The method table


@dataclass(frozen=True)
class MethodSpec:
    """How one method tag draws, estimates and builds its interval.

    ``scheme`` is the design the method draws under, which makes its point
    estimate, :func:`~tightci.estimator.ht_estimate`, the grouped (under
    ``SCHEME_MBCR``) or the standard Horvitz-Thompson estimator.  A closed
    form, whose half-width depends on the design alone, has ``tuning(layout,
    n, pi, alpha)``, the record :func:`closed_ci` writes; a data-adaptive
    interval has ``adaptive(data, alpha)``, which reads the design from
    ``data.assignment``; a bare point estimator has neither.
    ``half(alpha, tuning)`` (for intervals ``psi_hat +/- half``) or
    ``endpoints(alpha, tuning)`` is the arithmetic ``reevaluate`` replays.
    ``block(layout, alpha, draws)``, if set, is what a coverage chunk
    evaluates the interval through, a block of draws at a time, in place of
    ``adaptive``; a data-adaptive interval under ``SCHEME_MBCR`` must have
    one, since a coverage chunk's grouped draw is only its slot terms.
    ``miscoverage_factor`` is k in the guarantee ``coverage >= 1 - k alpha``.
    ``min_groups`` is the fewest groups (units, under Bernoulli draws) the
    interval can use.  ``cli_schemes`` lists the data schemes ``tightci ci``
    accepts for the tag.
    """

    scheme: str
    tuning: Callable[..., dict[str, Any]] | None = None
    adaptive: Callable[[ObservedData, float], Interval] | None = None
    half: Callable[[float, dict[str, Any]], float] | None = None
    endpoints: Callable[[float, dict[str, Any]], tuple[float, float]] | None = None
    block: Callable[[MbcrLayout, float, int], StudentizedBlock] | None = None
    miscoverage_factor: int = 1
    min_groups: int = 0
    cli_schemes: tuple[str, ...] = ()

    @property
    def has_interval(self) -> bool:
        return self.tuning is not None or self.adaptive is not None

    def half_width(
        self, layout: MbcrLayout | None, n: int, pi: float, alpha: float
    ) -> float:
        """Closed-form half-width for a design; the same for every draw."""
        alpha = validate_alpha(alpha)
        return self.half(alpha, self.tuning(layout, n, pi, alpha))


_STUDENTIZED = dict(
    adaptive=studentized_ci,
    endpoints=_studentized_endpoints,
    miscoverage_factor=2,
    min_groups=MIN_CROSS_FIT_GROUPS,
)
_BERNOULLI_DATA = (SCHEME_BERNOULLI, SCHEME_COMPLETE)

METHOD_TABLE: dict[str, MethodSpec] = {
    METHOD_HOEFF_MBCR: MethodSpec(
        SCHEME_MBCR,
        tuning=_hoeff_mbcr_tuning,
        half=_hoeff_mbcr_half,
        # Complete data whose groups tile the sample needs no draw detail.
        cli_schemes=(SCHEME_MBCR, SCHEME_COMPLETE),
    ),
    METHOD_SUB_BERNOULLI_BERN: MethodSpec(
        SCHEME_BERNOULLI,
        tuning=_sb_bern_tuning,
        half=_sb_bern_half,
        cli_schemes=_BERNOULLI_DATA,
    ),
    METHOD_SUB_BERNOULLI_MBCR: MethodSpec(
        SCHEME_MBCR,
        tuning=_sb_mbcr_tuning,
        half=_sb_mbcr_half,
        cli_schemes=(SCHEME_MBCR,),
    ),
    METHOD_STUDENTIZED: MethodSpec(
        SCHEME_MBCR,
        block=StudentizedBlock,
        cli_schemes=(SCHEME_MBCR, SCHEME_BERNOULLI),
        **_STUDENTIZED,
    ),
    METHOD_NAIVE_HOEFFDING: MethodSpec(
        SCHEME_BERNOULLI,
        tuning=_bernoulli_tuning,
        half=_naive_half,
        cli_schemes=_BERNOULLI_DATA,
    ),
    METHOD_CLT: MethodSpec(
        SCHEME_BERNOULLI, adaptive=clt_ci, half=_clt_half, cli_schemes=_BERNOULLI_DATA
    ),
    METHOD_STUDENTIZED_BERN: MethodSpec(SCHEME_BERNOULLI, **_STUDENTIZED),
    METHOD_HT_MBCR: MethodSpec(SCHEME_MBCR),
    METHOD_HT_BERNOULLI: MethodSpec(SCHEME_BERNOULLI),
}

# The interval methods the command line offers, in the table's order.
METHODS = tuple(m for m, s in METHOD_TABLE.items() if s.cli_schemes)


def closed_ci(
    method: str,
    psi_hat: float,
    alpha: float,
    *,
    layout: MbcrLayout | None = None,
    n: int | None = None,
    pi: float | None = None,
) -> Interval:
    """The closed-form interval ``psi_hat +/- half`` of ``method``.

    A grouped form (``hoeff-mbcr``, ``sub-bernoulli-mbcr``) reads
    ``layout``; a Bernoulli form (``sub-bernoulli-bern``,
    ``naive-hoeffding``) reads ``n``, an integer of at least 1, and ``pi``.
    The interval records the tag's tuning, from which ``reevaluate``
    replays its endpoints.
    """
    spec = METHOD_TABLE.get(method)
    if spec is None or spec.tuning is None:
        raise IntervalError(f"{method!r} is not a closed-form interval")
    alpha = validate_alpha(alpha)
    t = spec.tuning(layout, n, pi, alpha)
    return _centered(method, psi_hat, alpha, spec.half(alpha, t), t)


# ---------------------------------------------------------------------------
# Re-evaluation from a tuning record


def reevaluate(method: str, alpha: float, tuning: dict[str, Any]) -> tuple[float, float]:
    """Recompute an interval's endpoints from its tuning record.

    Uses the same arithmetic paths as the builders, so the result matches
    the original endpoints exactly.
    """
    spec = METHOD_TABLE.get(method)
    if spec is not None and spec.half is not None:
        psi_hat, half = tuning["psi_hat"], spec.half(alpha, tuning)
        lo, hi = psi_hat - half, psi_hat + half
    elif spec is not None and spec.endpoints is not None:
        lo, hi = spec.endpoints(alpha, tuning)
    else:
        raise IntervalError(f"unknown method {method!r}")
    if "clipped" in tuning:
        clo, chi = tuning["clipped"]
        lo = min(max(lo, clo), chi)
        hi = min(max(hi, clo), chi)
    return lo, hi
