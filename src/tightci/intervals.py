"""Nonasymptotic confidence intervals for the average treatment effect.

Constructions provided:

* ``hoeff_mbcr_ci``: Hoeffding-style interval around the grouped estimator,
  whose width constant depends only on the batching arithmetic and collapses
  to ``1/sqrt(pi)`` when the groups tile the sample exactly.
* ``sub_bernoulli_ci``: intervals built from the two-point (sub-Bernoulli)
  cumulant generating function, under either Bernoulli randomization or the
  grouped design.
* ``studentized_ci``: a cross-fit variance-adaptive interval; each half of
  the groups tunes the exponential-bound parameter used on the other half.
* ``naive_hoeffding_ci``: the classical bounded-range Hoeffding interval
  whose effective sample size degrades with the squared propensity, kept as
  the comparison baseline.
* ``clt_ci``: a plug-in normal interval, asymptotic only, excluded from all
  coverage guarantees.

Every builder records the constants it used in a ``tuning`` mapping, and
``reevaluate`` reproduces the endpoints from that record alone.
``METHOD_TABLE`` maps every method tag the package knows to its
:class:`MethodSpec`, the one place that says how a tag draws, estimates and
builds its interval.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Callable

import numpy as np
from scipy.stats import norm

from .design import (
    SCHEME_BERNOULLI,
    SCHEME_COMPLETE,
    SCHEME_MBCR,
    MbcrLayout,
    read_only,
)
from .estimator import (
    VARIANT_MIRRORED,
    VARIANT_STANDARD,
    ObservedData,
    groupwise_sums,
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

# The interval methods the command line offers.
METHODS = (
    METHOD_HOEFF_MBCR,
    METHOD_SUB_BERNOULLI_BERN,
    METHOD_SUB_BERNOULLI_MBCR,
    METHOD_STUDENTIZED,
    METHOD_NAIVE_HOEFFDING,
    METHOD_CLT,
)

# Cross-fitting splits the group sums in two halves of at least two each.
MIN_CROSS_FIT_GROUPS = 4
# The smallest miscoverage level accepted: below it 2/alpha overflows.
MIN_ALPHA = math.nextafter(2.0 / sys.float_info.max, 1.0)


class IntervalError(ValueError):
    """Inputs incompatible with an interval construction."""


class EmptyArmError(IntervalError):
    """An interval that needs both arms observed met a draw with one empty."""


def _check_alpha(alpha: float) -> float:
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

    def clipped(self, lo: float = -1.0, hi: float = 1.0) -> "Interval":
        """Intersect with the estimand's natural range [-1, 1]."""
        tuning = dict(self.tuning)
        tuning["clipped"] = (lo, hi)
        return replace(
            self,
            lower=min(max(self.lower, lo), hi),
            upper=min(max(self.upper, lo), hi),
            tuning=tuning,
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


def _grouped_shape(layout: MbcrLayout) -> dict[str, int]:
    return {
        "n": layout.n,
        "num_full_groups": layout.num_full_groups,
        "group_size": layout.group_size,
        "tail_size": layout.tail_size,
    }


# ---------------------------------------------------------------------------
# Hoeffding-style interval under the grouped design
#
# Each closed form's half-width is a function of alpha and the tuning record
# it writes, so the builder and ``reevaluate`` run the same arithmetic.


def _hoeff_mbcr_constant(t: dict[str, Any]) -> float:
    g, tail = t["group_size"], t["tail_size"]
    return math.sqrt((t["num_full_groups"] * g * g + tail * tail) / t["n"])


def _hoeff_mbcr_half(alpha: float, t: dict[str, Any]) -> float:
    return _hoeff_mbcr_constant(t) * math.sqrt(2.0 * math.log(2.0 / alpha) / t["n"])


def hoeff_mbcr_ci(psi_hat: float, layout: MbcrLayout, alpha: float) -> Interval:
    """Hoeffding-style interval around the grouped estimator.

    Half-width is ``c_n * sqrt(2 log(2/alpha) / n)`` with
    ``c_n = sqrt((T g^2 + tail^2) / n)``; with no tail group this is exactly
    ``sqrt(2 log(2/alpha) / (n pi))``.
    """
    alpha = _check_alpha(alpha)
    t = _grouped_shape(layout)
    t["cn"] = _hoeff_mbcr_constant(t)
    return _centered(METHOD_HOEFF_MBCR, psi_hat, alpha, _hoeff_mbcr_half(alpha, t), t)


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


# ---------------------------------------------------------------------------
# Sub-Bernoulli intervals


def _sb_bern_range(pi: float) -> tuple[float, float]:
    return -1.0 / (1.0 - pi) - 1.0, 1.0 / pi + 1.0


def _sb_bern_half(alpha: float, t: dict[str, Any]) -> float:
    a, b = _sb_bern_range(t["pi"])
    kappa = t["n"] * gamma_b(t["lam"], a, b)
    return (math.log(2.0 / alpha) + kappa) / (t["n"] * t["lam"])


def _sb_mbcr_half(alpha: float, t: dict[str, Any]) -> float:
    lam = t["lam"]
    kappa = t["num_full_groups"] * log_half_cosh2(2.0 * t["group_size"] * lam)
    if t["tail_size"] > 0:
        kappa += log_half_cosh2(2.0 * t["tail_size"] * lam)
    return (math.log(2.0 / alpha) + kappa) / (t["n"] * lam)


def sub_bernoulli_ci(
    psi_hat: float,
    alpha: float,
    *,
    scheme: str,
    n: int | None = None,
    pi: float | None = None,
    layout: MbcrLayout | None = None,
) -> Interval:
    """Sub-Bernoulli interval ``psi_hat +/- (log(2/alpha) + kappa)/(n lam)``.

    Under Bernoulli randomization the centered pseudo-outcome range is
    ``[-1/(1-pi) - 1, 1/pi + 1]``, ``kappa = n * gamma_b(lam)``, and ``lam``
    matches the CGF's quadratic coefficient.  Under the grouped design the
    centered group sums have range ``+/- 2g`` (``+/- 2 tail`` for the tail
    group), ``kappa`` is the per-group log-cosh total, and ``lam`` matches
    that CGF's quadratic coefficient ``4 T g^2 + 4 tail^2``, which attains
    the sharp small-propensity width scaling.
    """
    alpha = _check_alpha(alpha)
    log2a = 2.0 * math.log(2.0 / alpha)
    if scheme == SCHEME_BERNOULLI:
        if n is None or pi is None:
            raise IntervalError("Bernoulli form needs n and pi")
        if not (0.0 < pi <= 0.5):
            raise IntervalError(f"propensity {pi} outside (0, 1/2]")
        a, b = _sb_bern_range(pi)
        lam = math.sqrt(log2a / (n * (1.0 / (1.0 - pi) + 1.0) * (1.0 / pi + 1.0)))
        t = {"n": int(n), "pi": float(pi), "lam": lam, "range_lo": a, "range_hi": b}
        t["kappa"] = n * gamma_b(lam, a, b)
        return _centered(
            METHOD_SUB_BERNOULLI_BERN, psi_hat, alpha, _sb_bern_half(alpha, t), t
        )
    if scheme == SCHEME_MBCR:
        if layout is None:
            raise IntervalError("grouped form needs the layout")
        t = _grouped_shape(layout)
        g, tail = layout.group_size, layout.tail_size
        t["lam"] = math.sqrt(
            log2a / (4.0 * layout.num_full_groups * g * g + 4.0 * tail * tail)
        )
        return _centered(
            METHOD_SUB_BERNOULLI_MBCR, psi_hat, alpha, _sb_mbcr_half(alpha, t), t
        )
    raise IntervalError(f"no sub-Bernoulli form for scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Cross-fit Studentized interval


def studentized_scale(data: ObservedData) -> float:
    """Scale constant c used by the Studentized interval's CGF.

    ``c = 1/(1 - p) + 1`` where ``p`` is the within-group propensity (the
    marginal propensity under Bernoulli randomization), taking the larger
    value over the full and tail groups.
    """
    asg = data.assignment
    if asg.scheme == SCHEME_BERNOULLI:
        props = [asg.pi]
    elif asg.scheme == SCHEME_MBCR and asg.mbcr is not None:
        lay = asg.mbcr.layout
        props = [1.0 / lay.group_size]
        if lay.tail_size > 0:
            props.append(lay.tail_treated / lay.tail_size)
    else:
        raise IntervalError(
            "Studentized interval needs Bernoulli data or a grouped draw "
            "with permutation detail"
        )
    return max(1.0 / (1.0 - p) + 1.0 for p in props)


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


def _split_sum_of_squares(s: np.ndarray, opposite_total: float, div: np.ndarray) -> float:
    """Sum of ``(s[t] - (opposite_total + s[:t].sum()) / div[t])**2`` over t.

    The prefix sums, means, deviations and squares share one buffer.
    """
    buf = np.empty(s.shape[0])
    buf[0] = 0.0
    np.cumsum(s[:-1], out=buf[1:])
    buf += opposite_total
    buf /= div
    np.subtract(s, buf, out=buf)
    np.square(buf, out=buf)
    return float(buf.sum())


def _split_statistics(theta: np.ndarray) -> tuple[int, int, float, float]:
    """Cross-seeded running-mean sums of squares for the two group splits.

    Split one holds the first ``floor(T/2)`` group sums.  Its running mean
    at step t starts from the full total of the opposite split and then
    folds in this split's first ``t - 1`` values; the returned V is the sum
    of squared deviations of each value from its running mean.
    """
    tbar = theta.shape[0]
    m1 = tbar // 2
    m2 = tbar - m1
    s1, s2 = theta[:m1], theta[m1:]
    tot1, tot2 = float(s1.sum()), float(s2.sum())
    div1, div2 = _split_divisors(tbar)
    v1 = _split_sum_of_squares(s1, tot2, div1)
    v2 = _split_sum_of_squares(s2, tot1, div2)
    return m1, m2, v1, v2


def _stud_lambda(v: float, alpha: float, c: float) -> float:
    """min(sqrt(2 log(2/alpha) / V), 1/(2c)); the cap alone when V = 0."""
    cap = 1.0 / (2.0 * c)
    if v <= 0.0:
        return cap
    return min(math.sqrt(2.0 * math.log(2.0 / alpha) / v), cap)


def _stud_penalty(lam: float, v: float, n: int, alpha: float, c: float) -> float:
    """One split's penalty; unbounded when V overflowed and drove lambda to 0."""
    if lam == 0.0:
        return math.inf
    return (gamma_e(lam, c) * v + math.log(2.0 / alpha)) / (n * lam)


def studentized_ci(data: ObservedData, alpha: float) -> Interval:
    """Cross-fit Studentized variance-adaptive interval.

    The group sums are split in half; each split's empirical variance tunes
    the exponential-bound parameter applied to the other split.  The lower
    endpoint is anchored at the standard pseudo-outcome mean and the upper
    endpoint at the mirrored one.  With parameter ``alpha`` the resulting
    two-sided interval has coverage at least ``1 - 2 alpha`` (each side is a
    one-sided ``1 - alpha`` bound and the two are union bounded).

    Note on the scale constant: this implementation uses
    ``c = 1/(1 - p) + 1`` per group (the one-sided range of a centered
    standard pseudo-outcome at within-group propensity ``p``), which is what
    the exponential-bound inequality requires after rescaling by ``c``.
    """
    alpha = _check_alpha(alpha)
    th_l = groupwise_sums(data, VARIANT_STANDARD)
    th_u = groupwise_sums(data, VARIANT_MIRRORED)
    tbar = th_l.shape[0]
    if tbar < MIN_CROSS_FIT_GROUPS:
        raise IntervalError(
            "insufficient groups for cross-fitting: need at least "
            f"{MIN_CROSS_FIT_GROUPS}, got {tbar}"
        )
    c = studentized_scale(data)
    n = data.n
    m1 = tbar // 2
    tuning = {"n": n, "num_groups": tbar, "m1": m1, "m2": tbar - m1, "c": c}
    for side, theta in (("l", th_l), ("u", th_u)):
        _, _, v1, v2 = _split_statistics(theta)
        tuning[f"mean_{side}"] = float(theta.sum()) / n
        tuning[f"v1_{side}"] = v1
        tuning[f"v2_{side}"] = v2
        tuning[f"lam1_{side}"] = _stud_lambda(v1, alpha, c)
        tuning[f"lam2_{side}"] = _stud_lambda(v2, alpha, c)
    lower, upper = _studentized_endpoints(alpha, tuning)
    if upper < lower:
        # Adaptive anchors can cross on extreme draws; report the point between.
        mid = 0.5 * (lower + upper)
        lower = upper = mid
        tuning["degenerate_midpoint"] = mid
    return Interval(
        lower=lower,
        upper=upper,
        alpha=alpha,
        method=METHOD_STUDENTIZED,
        tuning=tuning,
    )


def _studentized_endpoints(alpha: float, t: dict[str, Any]) -> tuple[float, float]:
    if "degenerate_midpoint" in t:
        return t["degenerate_midpoint"], t["degenerate_midpoint"]
    n, c = t["n"], t["c"]
    pen_l = _stud_penalty(t["lam2_l"], t["v1_l"], n, alpha, c) + _stud_penalty(
        t["lam1_l"], t["v2_l"], n, alpha, c
    )
    pen_u = _stud_penalty(t["lam2_u"], t["v1_u"], n, alpha, c) + _stud_penalty(
        t["lam1_u"], t["v2_u"], n, alpha, c
    )
    return t["mean_l"] - pen_l, t["mean_u"] + pen_u


# ---------------------------------------------------------------------------
# Baselines


def _naive_half(alpha: float, t: dict[str, Any]) -> float:
    pi = t["pi"]
    return (1.0 / (1.0 - pi) + 1.0 / pi) * math.sqrt(
        math.log(2.0 / alpha) / (2.0 * t["n"])
    )


def naive_hoeffding_ci(psi_hat: float, n: int, pi: float, alpha: float) -> Interval:
    """Classical Hoeffding interval with the full pseudo-outcome range.

    Half-width ``(1/(1-pi) + 1/pi) * sqrt(log(2/alpha) / (2n))``, the
    two-sided union of the textbook one-sided bound.  Valid but loose: its
    effective sample size scales with ``n pi^2``.
    """
    alpha = _check_alpha(alpha)
    if not (0.0 < pi < 1.0):
        raise IntervalError(f"propensity {pi} outside (0, 1)")
    t = {"n": int(n), "pi": float(pi)}
    return _centered(METHOD_NAIVE_HOEFFDING, psi_hat, alpha, _naive_half(alpha, t), t)


@lru_cache(maxsize=64)
def _z_quantile(alpha: float) -> float:
    """The normal quantile at ``1 - alpha/2``, computed once per alpha.

    Below alpha of about 1.1e-16, ``1 - alpha/2`` rounds to 1, whose
    quantile is inf; there the upper-tail form ``isf(alpha/2)`` gives it.
    """
    q = 1.0 - alpha / 2.0
    if q == 1.0:
        return float(norm.isf(alpha / 2.0))
    return float(norm.ppf(q))


def _clt_half(alpha: float, t: dict[str, Any]) -> float:
    return _z_quantile(alpha) * math.sqrt(t["vhat"] / t["n"])


def clt_ci(data: ObservedData, alpha: float) -> Interval:
    """Plug-in normal interval around the standard estimator.

    Asymptotic only; excluded from the coverage guarantees everywhere in
    this package.  Requires both arms to be nonempty.
    """
    alpha = _check_alpha(alpha)
    asg = data.assignment
    n_treat = np.count_nonzero(asg.z)
    if n_treat == 0 or n_treat == data.n:
        raise EmptyArmError("plug-in normal interval needs both arms nonempty")
    vals = data.unit_terms
    vhat = float(np.var(vals, ddof=1))
    zq = _z_quantile(alpha)
    t = {"n": data.n, "pi": float(asg.pi), "vhat": vhat, "z_quantile": zq}
    return _centered(METHOD_CLT, float(np.mean(vals)), alpha, _clt_half(alpha, t), t)


# ---------------------------------------------------------------------------
# The method table


@dataclass(frozen=True)
class MethodSpec:
    """How one method tag draws, estimates and builds its interval.

    ``scheme`` is the design the method draws under; the point estimator
    follows from it (the grouped Horvitz-Thompson estimator under
    ``SCHEME_MBCR``, the standard one under ``SCHEME_BERNOULLI``).  A closed
    form has ``closed(psi_hat, layout, n, pi, alpha)``, whose half-width
    depends on the design alone; a data-adaptive interval has
    ``adaptive(data, alpha)``, which reads the design from
    ``data.assignment``; a bare point estimator has neither.
    ``half(alpha, tuning)`` (for intervals ``psi_hat +/- half``) or
    ``endpoints(alpha, tuning)`` is the arithmetic ``reevaluate`` replays.
    ``miscoverage_factor`` is k in the guarantee ``coverage >= 1 - k alpha``.
    ``min_groups`` is the fewest groups (units, under Bernoulli draws) the
    interval can use.  ``cli_schemes`` lists the data schemes ``tightci ci``
    accepts for the tag.
    """

    scheme: str
    closed: Callable[..., Interval] | None = None
    adaptive: Callable[[ObservedData, float], Interval] | None = None
    half: Callable[[float, dict[str, Any]], float] | None = None
    endpoints: Callable[[float, dict[str, Any]], tuple[float, float]] | None = None
    miscoverage_factor: int = 1
    min_groups: int = 0
    cli_schemes: tuple[str, ...] = ()

    @property
    def has_interval(self) -> bool:
        return self.closed is not None or self.adaptive is not None

    def half_width(
        self, layout: MbcrLayout | None, n: int, pi: float, alpha: float
    ) -> float:
        """Closed-form half-width for a design; the same for every draw."""
        return self.closed(0.0, layout, n, pi, alpha).half_width


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
        closed=lambda est, layout, n, pi, alpha: hoeff_mbcr_ci(est, layout, alpha),
        half=_hoeff_mbcr_half,
        # Complete data whose groups tile the sample needs no draw detail.
        cli_schemes=(SCHEME_MBCR, SCHEME_COMPLETE),
    ),
    METHOD_SUB_BERNOULLI_MBCR: MethodSpec(
        SCHEME_MBCR,
        closed=lambda est, layout, n, pi, alpha: sub_bernoulli_ci(
            est, alpha, scheme=SCHEME_MBCR, layout=layout
        ),
        half=_sb_mbcr_half,
        cli_schemes=(SCHEME_MBCR,),
    ),
    METHOD_STUDENTIZED: MethodSpec(
        SCHEME_MBCR, cli_schemes=(SCHEME_MBCR, SCHEME_BERNOULLI), **_STUDENTIZED
    ),
    METHOD_SUB_BERNOULLI_BERN: MethodSpec(
        SCHEME_BERNOULLI,
        closed=lambda est, layout, n, pi, alpha: sub_bernoulli_ci(
            est, alpha, scheme=SCHEME_BERNOULLI, n=n, pi=pi
        ),
        half=_sb_bern_half,
        cli_schemes=_BERNOULLI_DATA,
    ),
    METHOD_NAIVE_HOEFFDING: MethodSpec(
        SCHEME_BERNOULLI,
        closed=lambda est, layout, n, pi, alpha: naive_hoeffding_ci(est, n, pi, alpha),
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


# ---------------------------------------------------------------------------
# Re-evaluation from a tuning record


def reevaluate(method: str, alpha: float, tuning: dict[str, Any]) -> tuple[float, float]:
    """Recompute an interval's endpoints from its tuning record.

    Uses the same arithmetic paths as the builders, so the result matches
    the original endpoints exactly.
    """
    spec = METHOD_TABLE.get(method)
    if spec is not None and spec.half is not None:
        half = spec.half(alpha, tuning)
        lo, hi = tuning["psi_hat"] - half, tuning["psi_hat"] + half
    elif spec is not None and spec.endpoints is not None:
        lo, hi = spec.endpoints(alpha, tuning)
    else:
        raise IntervalError(f"unknown method {method!r}")
    if "clipped" in tuning:
        clo, chi = tuning["clipped"]
        lo = min(max(lo, clo), chi)
        hi = min(max(hi, clo), chi)
    return lo, hi
