"""Interval constructions against independently derived constants.

Expected values marked "derived" below were frozen from a 40-digit mpmath
evaluation of the corresponding closed forms, kept separate from the
library's float arithmetic.
"""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import cn_mbcr_bounds, draw_complete, pseudo_outcome, two_point_cgf
from tightci.design import MIN_PI, compute_layout, draw_bernoulli, draw_mbcr
from tightci.estimator import EstimatorError, ObservedData, PotentialTable, groupwise_sums
from tightci.intervals import (
    METHOD_TABLE,
    STUDENTIZED_BLOCK_VALUES,
    EmptyArmError,
    Interval,
    IntervalError,
    StudentizedBlock,
    _sb_bern_half,
    _split_statistics,
    _stud_lambda,
    _stud_penalty,
    _studentized_endpoints,
    closed_ci,
    clt_ci,
    gamma_b,
    gamma_e,
    log_half_cosh2,
    reevaluate,
    studentized_ci,
    studentized_scale,
)

LN40 = 3.6888794541139363  # log(2 / 0.05)

# derived: sqrt(2 ln 40), sqrt(4 ln 40), sqrt(8 ln 40)
SQRT_2LN40 = 2.716203031481239
SQRT_4LN40 = 3.841291165279683
SQRT_8LN40 = 5.432406062962478

# The smallest alpha whose 2/alpha is a finite float.
SMALLEST_ALPHA = math.nextafter(2.0 / sys.float_info.max, 1.0)


# ---------------------------------------------------------------------------
# CGFs


def test_gamma_b_zero_at_origin():
    assert gamma_b(0.0, -1.0, 2.0) == pytest.approx(0.0, abs=1e-15)


def test_gamma_b_symmetric_is_log_cosh():
    # derived: log(cosh(1)) = 0.4337808304830272
    assert gamma_b(1.0, -1.0, 1.0) == pytest.approx(0.4337808304830272, rel=1e-12)
    assert log_half_cosh2(1.0) == pytest.approx(0.4337808304830272, rel=1e-12)


def test_gamma_b_small_lambda_quadratic():
    # derived: gamma_b(0.1, -1, 2) / (0.1^2 / 2) = 2.0611818576836122,
    # within 5% of the limiting constant -a*b = 2
    ratio = gamma_b(0.1, -1.0, 2.0) / (0.1**2 / 2)
    assert ratio == pytest.approx(2.0611818576836122, rel=1e-10)
    assert abs(ratio - 2.0) / 2.0 < 0.05


def test_gamma_b_domain():
    with pytest.raises(IntervalError):
        gamma_b(0.1, 1.0, 2.0)
    with pytest.raises(IntervalError):
        gamma_b(0.1, -2.0, -1.0)


def test_gamma_b_large_lambda_stable():
    # dominated by the upper point: ~ lam*b + log(-a/(b-a))
    value = gamma_b(500.0, -1.0, 1.0)
    assert value == pytest.approx(500.0 - math.log(2.0), rel=1e-12)


@given(st.floats(-5, 5), st.floats(-4, -0.1), st.floats(0.1, 4))
@settings(max_examples=100)
def test_gamma_b_nonnegative(lam, a, b):
    # Jensen: the two-point MGF bound is at least exp(lam * mean) = 1
    assert gamma_b(lam, a, b) >= -1e-12


def test_gamma_e_values():
    assert gamma_e(0.0, 1.0) == 0.0
    # derived: -log(0.5) - 0.5 = 0.19314718055994531
    assert gamma_e(0.5, 1.0) == pytest.approx(0.19314718055994531, rel=1e-12)


def test_gamma_e_quadratic_limit():
    lam = 1e-4
    ratio = gamma_e(lam, 2.0) / (lam**2 / 2)
    assert abs(ratio - 1.0) < 1e-3


def test_gamma_e_domain():
    with pytest.raises(IntervalError):
        gamma_e(0.5, 2.0)  # lam >= 1/c
    with pytest.raises(IntervalError):
        gamma_e(-0.1, 1.0)
    with pytest.raises(IntervalError):
        gamma_e(0.1, 0.0)


def test_gamma_e_increasing():
    values = [gamma_e(lam, 1.5) for lam in np.linspace(0, 0.6, 20)]
    assert all(b >= a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Hoeffding-style grouped interval


def test_hoeff_halfwidth_exact():
    lay = compute_layout(1000, 100)
    ci = closed_ci("hoeff-mbcr", 0.1, 0.05, layout=lay)
    # derived: (1/sqrt(0.1)) * sqrt(2 ln 40 / 1000) = 0.2716203031481239
    assert ci.half_width == pytest.approx(0.2716203031481239, rel=1e-12)
    assert ci.lower == pytest.approx(0.1 - ci.half_width)
    assert ci.method == "hoeff-mbcr"


def test_hoeff_constant_with_tail():
    lay = compute_layout(9, 4)
    ci = closed_ci("hoeff-mbcr", 0.0, 0.05, layout=lay)
    assert ci.tuning["cn"] == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_hoeff_constant_half_propensity():
    lay = compute_layout(10, 5)
    ci = closed_ci("hoeff-mbcr", 0.0, 0.05, layout=lay)
    assert ci.tuning["cn"] == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_hoeff_width_identity_spot_checks():
    for K in (2, 7, 50, 333):
        lay = compute_layout(1000 * K, 1000)
        half = closed_ci("hoeff-mbcr", 0.0, 0.05, layout=lay).half_width
        assert half * math.sqrt(lay.n * (1.0 / K)) == pytest.approx(
            SQRT_2LN40, abs=1e-10
        )


def test_hoeff_rejects_bad_alpha():
    lay = compute_layout(10, 2)
    for alpha in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(IntervalError):
            closed_ci("hoeff-mbcr", 0.0, alpha, layout=lay)


def test_cn_bounds_cases():
    exact, case = cn_mbcr_bounds(compute_layout(1000, 100))
    assert case == 0
    assert exact == pytest.approx(1.0 / math.sqrt(0.1), rel=1e-12)
    lay = compute_layout(9, 4)
    bound, case = cn_mbcr_bounds(lay)
    assert case == 2
    pi = 4 / 9
    expected = math.sqrt((1 + pi) ** 2 / pi + 2 * (1 / pi + 1) ** 2 / 9)
    assert bound == pytest.approx(expected, rel=1e-12)
    assert bound >= math.sqrt(3.0)
    lay = compute_layout(10, 3)
    bound, case = cn_mbcr_bounds(lay)
    assert case == 1
    assert bound == pytest.approx(1.3 / math.sqrt(0.3), rel=1e-12)


def test_cn_bound_dominates_exact_sweep():
    """Every feasible (n, n1) with n <= 2000: the propensity-only bound is
    at least the exact constant."""
    for n in range(2, 2001):
        n1 = np.arange(1, n // 2 + 1, dtype=np.float64)
        g = np.ceil(n / n1)
        div = (n % n1.astype(np.int64)) == 0
        case2 = ~div & (n - (n1 - 1) * g >= 2)
        case3 = ~div & ~case2
        full = np.where(div, n1, np.where(case2, n1 - 1, n1 - 2))
        tail = n - full * g
        nbar = np.where(div, 0, np.where(case2, 1, 2))
        feasible = div | case2 | (case3 & (tail >= 3))
        cn = np.sqrt((full * g**2 + tail**2) / n)
        pi = n1 / n
        bound = np.where(
            nbar == 0,
            1 / np.sqrt(pi),
            np.where(
                nbar == 1,
                (1 + pi) / np.sqrt(pi),
                np.sqrt((1 + pi) ** 2 / pi + 2 * (1 / pi + 1) ** 2 / n),
            ),
        )
        bad = feasible & (bound < cn - 1e-9)
        assert not bad.any(), (n, n1[bad][:5])


# ---------------------------------------------------------------------------
# Sub-Bernoulli intervals


def test_sub_bernoulli_bern_frozen_values():
    ci = closed_ci("sub-bernoulli-bern", 0.0, 0.05, n=1000, pi=0.1)
    # derived: lambda = 0.017824212092486632, kappa = 3.8865219565548527,
    # half-width = 0.42500624270859173
    assert ci.tuning["lam"] == pytest.approx(0.017824212092486632, rel=1e-12)
    assert ci.tuning["kappa"] == pytest.approx(3.8865219565548527, rel=1e-9)
    assert ci.half_width == pytest.approx(0.42500624270859173, rel=1e-9)


def test_sub_bernoulli_bern_half_width_matches_the_expm1_cgf():
    # gamma_b's log-sum-exp loses digits as lam*b shrinks, that is as n grows;
    # up to n = 10**7, past every bundled config, it stays within 1e-9 of the
    # cancellation-free form
    for n in (10, 100, 1000, 10**5, 10**7):
        for pi in (0.5, 1 / 3, 0.1, 0.01, 1e-3, 1e-4, 1e-5):
            for alpha in (0.05, 1e-3):
                t = closed_ci("sub-bernoulli-bern", 0.0, alpha, n=n, pi=pi).tuning
                lam, a, b = t["lam"], t["range_lo"], t["range_hi"]
                kappa = n * two_point_cgf(lam, a, b)
                expected = (math.log(2.0 / alpha) + kappa) / (n * lam)
                assert _sb_bern_half(alpha, t) == pytest.approx(expected, rel=1e-9)


def test_sub_bernoulli_bern_asymptotic_ratio():
    # half-width * sqrt(n pi) approaches sqrt(4 log(2/alpha)) from above
    ratios = []
    for K, n in ((10, 10**5), (100, 10**6), (1000, 10**7)):
        pi = 1.0 / K
        half = closed_ci("sub-bernoulli-bern", 0.0, 0.05, n=n, pi=pi).half_width
        ratios.append(half * math.sqrt(n * pi) / SQRT_4LN40)
    assert all(r >= 1.0 for r in ratios)
    assert ratios[0] > ratios[1] > ratios[2]
    assert abs(ratios[-1] - 1.0) < 0.05


def test_sub_bernoulli_mbcr_asymptotic_ratio():
    ratios = []
    for K, n in ((10, 10**5), (100, 10**6), (1000, 10**7)):
        lay = compute_layout(n, n // K)
        half = closed_ci("sub-bernoulli-mbcr", 0.0, 0.05, layout=lay).half_width
        ratios.append(half * math.sqrt(n / K) / SQRT_8LN40)
    assert abs(ratios[-1] - 1.0) < 0.05


def test_sub_bernoulli_mbcr_lambda_rules():
    lay = compute_layout(10**5, 10**4)
    default = closed_ci("sub-bernoulli-mbcr", 0.0, 0.05, layout=lay)
    lam_cgf = math.sqrt(2 * LN40 / (4 * 10**4 * 100))
    assert default.tuning["lam"] == pytest.approx(lam_cgf, rel=1e-12)


def test_sub_bernoulli_mbcr_tail_term():
    lay = compute_layout(10, 3)
    assert lay.tail_size == 2
    ci = closed_ci("sub-bernoulli-mbcr", 0.0, 0.05, layout=lay)
    lam = ci.tuning["lam"]
    kappa = 2 * log_half_cosh2(2 * 4 * lam) + log_half_cosh2(2 * 2 * lam)
    expected = (LN40 + kappa) / (10 * lam)
    assert ci.half_width == pytest.approx(expected, rel=1e-12)


def test_sub_bernoulli_validation():
    with pytest.raises(IntervalError):
        closed_ci("sub-bernoulli-bern", 0.0, 0.05, n=100, pi=0.7)
    with pytest.raises(IntervalError, match="below the floor"):
        closed_ci("sub-bernoulli-bern", 0.0, 0.05, n=100, pi=1e-309)


@pytest.mark.parametrize("method", ["studentized", "clt", "ht-mbcr", "sub-bernoulli"])
def test_closed_ci_refuses_a_tag_without_a_closed_form(method):
    lay = compute_layout(100, 10)
    with pytest.raises(IntervalError, match="not a closed-form interval"):
        closed_ci(method, 0.0, 0.05, layout=lay, n=100, pi=0.1)


@pytest.mark.parametrize("method", ["hoeff-mbcr", "sub-bernoulli-mbcr"])
def test_closed_ci_grouped_form_needs_the_layout(method):
    with pytest.raises(IntervalError, match="needs the layout"):
        closed_ci(method, 0.0, 0.05, n=100, pi=0.1)


@pytest.mark.parametrize("method", ["sub-bernoulli-bern", "naive-hoeffding"])
@pytest.mark.parametrize("n, pi", [(None, 0.1), (100, None), (None, None)])
def test_closed_ci_bernoulli_form_needs_n_and_pi(method, n, pi):
    lay = compute_layout(100, 10)
    with pytest.raises(IntervalError, match="needs n and pi"):
        closed_ci(method, 0.0, 0.05, layout=lay, n=n, pi=pi)


@pytest.mark.parametrize("method", ["sub-bernoulli-bern", "naive-hoeffding"])
@pytest.mark.parametrize("n", [0, -5, 2.5, True], ids=["0", "-5", "2.5", "True"])
def test_closed_ci_bernoulli_n_is_an_integer_of_at_least_one(method, n):
    # no division by zero, math domain error or silent truncation to int
    with pytest.raises(IntervalError, match="integer of at least 1"):
        closed_ci(method, 0.0, 0.05, n=n, pi=0.1)
    with pytest.raises(IntervalError, match="integer of at least 1"):
        METHOD_TABLE[method].half_width(None, n, 0.1, 0.05)
    # a numpy integer is an integer, with the same bytes
    want = closed_ci(method, 0.0, 0.05, n=1, pi=0.1)
    assert closed_ci(method, 0.0, 0.05, n=np.int64(1), pi=0.1) == want


# ---------------------------------------------------------------------------
# Naive Hoeffding baseline and width comparisons


def test_naive_halfwidth_frozen():
    ci = closed_ci("naive-hoeffding", 0.0, 0.05, n=1000, pi=0.1)
    # derived: (1/0.9 + 10) * sqrt(ln 40 / 2000) = 0.47718823149637507
    assert ci.half_width == pytest.approx(0.47718823149637507, rel=1e-12)


def test_naive_half_propensity():
    ci = closed_ci("naive-hoeffding", 0.0, 0.05, n=500, pi=0.5)
    assert ci.half_width == pytest.approx(4.0 * math.sqrt(LN40 / 1000.0), rel=1e-12)


@pytest.mark.parametrize(
    "form",
    [
        lambda pi: closed_ci("naive-hoeffding", 0.0, 0.05, n=100, pi=pi),
        lambda pi: closed_ci("sub-bernoulli-bern", 0.0, 0.05, n=100, pi=pi),
    ],
    ids=["naive-hoeffding", "sub-bernoulli-bern"],
)
def test_bernoulli_closed_forms_take_propensities_in_min_pi_to_half(form):
    # finite endpoints from the floor up; below it, or over 1/2, a refusal
    ci = form(MIN_PI)
    assert all(math.isfinite(v) for v in (ci.lower, ci.upper, ci.half_width))
    with pytest.raises(IntervalError, match="below the floor"):
        form(MIN_PI / 2)
    with pytest.raises(IntervalError, match="relabel the arms"):
        form(0.7)


def test_hoeff_vs_naive_ratio_small_pi():
    # grouped/naive width ratio at pi = 0.01 is about 2 sqrt(pi)
    n = 10**4
    lay = compute_layout(n, n // 100)
    hoeff = closed_ci("hoeff-mbcr", 0.0, 0.05, layout=lay).half_width
    naive = closed_ci("naive-hoeffding", 0.0, 0.05, n=n, pi=0.01).half_width
    ratio = hoeff / naive
    assert ratio == pytest.approx(0.198, abs=1e-3)
    assert abs(ratio - 2 * math.sqrt(0.01)) / (2 * math.sqrt(0.01)) < 0.10


def test_naive_over_hoeff_ratio_closed_forms():
    """Derived pins for the width ratio naive / grouped at alpha = 0.05.

    The ratio is alpha- and n-free: it equals (1/(1-pi) + 1/pi) * sqrt(pi)/2.
    """
    expected = {
        0.1: 1.7568209223157663,
        0.01: 5.050505050505051,
        0.001: 15.827215516358255,
    }
    n = 10**5
    for pi, want in expected.items():
        lay = compute_layout(n, round(n * pi))
        naive = closed_ci("naive-hoeffding", 0.0, 0.05, n=n, pi=pi).half_width
        hoeff = closed_ci("hoeff-mbcr", 0.0, 0.05, layout=lay).half_width
        assert naive / hoeff == pytest.approx(want, rel=1e-9)


def test_hoeff_narrower_than_naive_sweep():
    for K in range(4, 101):
        n = 1000 * K
        lay = compute_layout(n, 1000)
        hoeff = closed_ci("hoeff-mbcr", 0.0, 0.05, layout=lay).half_width
        naive = closed_ci("naive-hoeffding", 0.0, 0.05, n=n, pi=1.0 / K).half_width
        assert hoeff <= naive


def test_halfwidths_monotone_in_alpha_and_n():
    def widths(n, pi, alpha):
        lay = compute_layout(n, round(n * pi))
        return [
            closed_ci("hoeff-mbcr", 0.0, alpha, layout=lay).half_width,
            closed_ci("sub-bernoulli-bern", 0.0, alpha, n=n, pi=pi).half_width,
            closed_ci("sub-bernoulli-mbcr", 0.0, alpha, layout=lay).half_width,
            closed_ci("naive-hoeffding", 0.0, alpha, n=n, pi=pi).half_width,
        ]

    for lo, hi in [(0.01, 0.05), (0.05, 0.2), (0.2, 0.5)]:
        a = widths(2000, 0.1, lo)
        b = widths(2000, 0.1, hi)
        assert all(x > y for x, y in zip(a, b))
    for n_small, n_big in [(1000, 2000), (2000, 16000)]:
        a = widths(n_small, 0.1, 0.05)
        b = widths(n_big, 0.1, 0.05)
        assert all(x > y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Studentized interval


def _mbcr_data(n, n1, seed, table=None):
    lay = compute_layout(n, n1)
    rng = np.random.default_rng(seed)
    if table is None:
        table = PotentialTable(rng.uniform(0, 1, n), rng.uniform(0, 1, n))
    asg = draw_mbcr(lay, rng)
    return ObservedData.realize(table, asg)


def test_studentized_needs_enough_groups():
    data = _mbcr_data(9, 3, 0)
    with pytest.raises(IntervalError, match="insufficient groups for cross-fitting"):
        studentized_ci(data, 0.05)


def test_studentized_degenerate_variance_penalty():
    # identical potential outcomes zero out every group sum, so V = 0 on
    # both splits, lambda sits at the 1/(2c) cap, and each split contributes
    # log(2/alpha) * 2c / n, with c the group-sum range g
    n, n1 = 40, 4
    table = PotentialTable(np.full(n, 0.3), np.full(n, 0.3))
    data = _mbcr_data(n, n1, 1, table=table)
    ci = studentized_ci(data, 0.05)
    c = ci.tuning["c"]
    assert c == 10.0
    for key in ("lam1_l", "lam2_l", "lam1_u", "lam2_u"):
        assert ci.tuning[key] == pytest.approx(1 / (2 * c), rel=1e-12)
    per_split = LN40 * 2 * c / n
    assert ci.upper - ci.tuning["mean_u"] == pytest.approx(2 * per_split, rel=1e-10)
    assert ci.tuning["mean_l"] - ci.lower == pytest.approx(2 * per_split, rel=1e-10)


def test_studentized_lambda_cap_property():
    rng = np.random.default_rng(2)
    for seed in range(10):
        data = _mbcr_data(60, 6, seed)
        ci = studentized_ci(data, 0.05)
        cap = 1 / (2 * ci.tuning["c"])
        for key in ("lam1_l", "lam2_l", "lam1_u", "lam2_u"):
            assert 0 < ci.tuning[key] <= cap + 1e-15
        assert math.isfinite(ci.lower) and math.isfinite(ci.upper)


def test_studentized_stationary_width_scale():
    """With balanced splits and matching split variances, the one-sided
    penalty is close to 2 sigma sqrt(log(2/alpha)/n)."""
    n = 20000
    rng = np.random.default_rng(3)
    y0 = rng.uniform(0.2, 0.6, n)
    table = PotentialTable(y0, y0 + 0.3)
    asg = draw_bernoulli(n, 0.25, rng)
    data = ObservedData.realize(table, asg)
    ci = studentized_ci(data, 0.05)
    t = ci.tuning
    cap = 1 / (2 * t["c"])
    assert t["lam1_l"] < cap and t["lam2_l"] < cap  # uncapped regime
    sigma1 = math.sqrt(t["v1_l"] / t["m1"])
    sigma2 = math.sqrt(t["v2_l"] / t["m2"])
    assert abs(sigma1 - sigma2) / sigma1 < 0.1
    penalty = t["mean_l"] - ci.lower
    sigma = 0.5 * (sigma1 + sigma2)
    target = 2 * sigma * math.sqrt(LN40 / n)
    assert abs(penalty - target) / target < 0.15


def test_studentized_anchors_match_under_grouping():
    data = _mbcr_data(60, 6, 4)
    ci = studentized_ci(data, 0.05)
    assert ci.tuning["mean_l"] == pytest.approx(ci.tuning["mean_u"], abs=1e-10)


def test_studentized_scale_variants():
    # a centered group sum lies in [-g, g], the tail's in [-s, s]
    for n, n1, c in [
        (60, 6, 10.0),  # groups of ten, no tail
        (997, 100, 10.0),  # one treated unit spills into a tail of 7
        (17, 5, 5.0),  # two spill into a tail of 5 beside groups of 4
        (111, 12, 11.0),  # two spill into a tail of 11 beside groups of 10
    ]:
        lay = compute_layout(n, n1)
        assert c == max(lay.group_size, lay.tail_size)
        assert studentized_ci(_mbcr_data(n, n1, 5), 0.05).tuning["c"] == c


def test_studentized_covers_a_sparse_null_table():
    # n = 10,000, n1 = 100 and y0 = y1 = 1 on 50 units (ATE 0).  A draw puts
    # no treated unit on a one with probability 0.604; its group sums then
    # sit near -g/(g-1) times their ones, V is small and lambda sits at its
    # cap, so a scale below the group-sum range g excludes 0.  The unit range
    # 1/(1 - 1/g) + 1 covered 0.38 here; the guarantee is 1 - 2 alpha.
    n = 10_000
    y = np.zeros(n)
    y[:50] = 1.0
    table = PotentialTable(y, y)
    layout = compute_layout(n, 100)
    rng = np.random.default_rng(1)
    draws = 300
    covered = sum(
        studentized_ci(ObservedData.realize(table, draw_mbcr(layout, rng)), 0.025)
        .contains(0.0)
        for _ in range(draws)
    )
    assert covered / draws >= 0.90


def test_studentized_under_bernoulli():
    rng = np.random.default_rng(7)
    table = PotentialTable(rng.uniform(0, 0.5, 500), rng.uniform(0.2, 0.7, 500))
    asg = draw_bernoulli(500, 0.2, rng)
    data = ObservedData.realize(table, asg)
    ci = studentized_ci(data, 0.05)
    assert ci.tuning["num_groups"] == 500
    assert ci.tuning["c"] == pytest.approx(1 / 0.8 + 1)
    assert ci.lower < ci.upper


def _split_statistics_reference(theta):
    """The split statistics as first written, before the in-place rewrite."""
    tbar = theta.shape[0]
    m1 = tbar // 2
    m2 = tbar - m1
    s1, s2 = theta[:m1], theta[m1:]
    tot1, tot2 = float(s1.sum()), float(s2.sum())
    prefix1 = np.concatenate(([0.0], np.cumsum(s1[:-1])))
    mu1 = (tot2 + prefix1) / (m2 + np.arange(m1))
    v1 = float(((s1 - mu1) ** 2).sum())
    prefix2 = np.concatenate(([0.0], np.cumsum(s2[:-1])))
    mu2 = (tot1 + prefix2) / (m1 + np.arange(m2))
    v2 = float(((s2 - mu2) ** 2).sum())
    return v1, v2


@pytest.mark.parametrize("tbar", [4, 5, 7, 100, 101, 500, 20_000, 20_001])
def test_split_statistics_bit_identical_to_reference(tbar):
    rng = np.random.default_rng(tbar)
    for magnitude in (1e-3, 1e-1, 1.0, 1e1, 1e3):
        theta = magnitude * rng.standard_normal(tbar)
        assert _split_statistics(theta) == _split_statistics_reference(theta)
    # the Bernoulli pattern: a draw's terms and its mirrored terms at pi = 1/100
    table = PotentialTable(rng.uniform(0, 1, tbar), rng.uniform(0, 1, tbar))
    data = ObservedData.realize(table, draw_bernoulli(tbar, 0.01, rng))
    mirrored = pseudo_outcome(data.y, data.assignment.z, 0.01, "mirrored")
    for theta in (groupwise_sums(data), mirrored):
        assert _split_statistics(theta) == _split_statistics_reference(theta)


def _studentized_reference(data, alpha):
    """Both anchors of the Studentized interval from the reference statistics.

    The lower anchor reads the standard group sums.  The upper one reads
    the mirrored pseudo-outcomes under Bernoulli draws and, since a grouped
    block's coefficients sum to zero, the standard sums under grouped ones.
    """
    n, c = data.n, studentized_scale(data)
    asg = data.assignment
    standard = mirrored = groupwise_sums(data)
    if asg.scheme == "bernoulli":
        mirrored = pseudo_outcome(data.y, asg.z, asg.pi, "mirrored")
    t = {"n": n, "c": c}
    for side, theta in (("l", standard), ("u", mirrored)):
        v1, v2 = _split_statistics_reference(theta)
        t[f"mean_{side}"] = float(theta.sum()) / n
        t.update({f"v1_{side}": v1, f"v2_{side}": v2})
        t[f"lam1_{side}"] = _stud_lambda(v1, alpha, c)
        t[f"lam2_{side}"] = _stud_lambda(v2, alpha, c)
    return t, _studentized_endpoints(alpha, t)


# Tiling layouts, and tails with one and two spilled treated units.
GROUPED_LAYOUTS = pytest.mark.parametrize(
    "n, n1, tail_treated",
    [(1000, 100, 0), (60, 6, 0), (47, 5, 1), (997, 100, 1), (17, 5, 2), (111, 12, 2)],
)


@GROUPED_LAYOUTS
def test_studentized_anchors_unchanged_on_grouped_layouts(n, n1, tail_treated):
    assert compute_layout(n, n1).tail_treated == tail_treated
    for seed in range(3):
        data = _mbcr_data(n, n1, seed)
        for alpha in (0.05, 0.01):
            ci = studentized_ci(data, alpha)
            t, (lower, upper) = _studentized_reference(data, alpha)
            assert {k: ci.tuning[k] for k in t} == t
            assert (ci.lower, ci.upper) == (lower, upper)


@GROUPED_LAYOUTS
def test_grouped_studentized_reads_one_set_of_sums(n, n1, tail_treated, monkeypatch):
    from tightci import intervals

    calls = []
    for name in ("groupwise_sums", "_split_statistics"):
        real = getattr(intervals, name)
        monkeypatch.setattr(
            intervals, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a)
        )
    for seed in range(3):
        data = _mbcr_data(n, n1, seed)
        for alpha in (0.05, 0.01):
            calls.clear()
            ci = studentized_ci(data, alpha)
            assert calls == ["groupwise_sums", "_split_statistics"]
            t = ci.tuning
            for key in ("mean", "v1", "v2", "lam1", "lam2"):
                assert t[f"{key}_u"] == t[f"{key}_l"]
            pen_l, pen_u = (
                _stud_penalty(t[f"lam2_{s}"], t[f"v1_{s}"], n, alpha, t["c"])
                + _stud_penalty(t[f"lam1_{s}"], t[f"v2_{s}"], n, alpha, t["c"])
                for s in "lu"
            )
            assert pen_l.hex() == pen_u.hex()
            assert "degenerate_midpoint" not in t
            assert reevaluate("studentized", alpha, t) == (ci.lower, ci.upper)


@pytest.mark.parametrize("n, pi", [(500, 0.2), (20_000, 0.01), (2001, 0.001)])
def test_studentized_anchors_unchanged_on_bernoulli_data(n, pi):
    rng = np.random.default_rng(n)
    table = PotentialTable(rng.uniform(0, 1, n), rng.uniform(0, 1, n))
    # three draws in a row, as a chunk makes them
    for _ in range(3):
        data = ObservedData.realize(table, draw_bernoulli(n, pi, rng))
        ci = studentized_ci(data, 0.05)
        t, (lower, upper) = _studentized_reference(data, 0.05)
        assert {k: ci.tuning[k] for k in t} == t
        assert (ci.lower, ci.upper) == (lower, upper)


@pytest.mark.parametrize("tbar", [4, 5, 7, 10, 11, 100, 101, 500, 501, 1001, 20_001])
def test_split_statistics_row_wise_bit_identical_to_each_row(tbar):
    # a stack of rows, and a stack of draws' anchor rows, gives each row the
    # statistics of its own one-row call (which the reference pins)
    rng = np.random.default_rng(tbar)
    for magnitude in (1e-3, 1e-1, 1.0, 1e1, 1e3):
        for shape in ((6, tbar), (3, 2, tbar)):
            rows = magnitude * rng.standard_normal(shape)
            v1, v2 = _split_statistics(rows)
            assert v1.shape == v2.shape == shape[:-1]
            for idx in np.ndindex(shape[:-1]):
                row = np.ascontiguousarray(rows[idx])
                assert (v1[idx], v2[idx]) == _split_statistics(row)


def test_studentized_block_stacks_at_most_its_values():
    # one draw's sums are stacked even when they alone pass the bound
    for (n, n1), draws, rows in [
        ((5000, 500), 10**6, STUDENTIZED_BLOCK_VALUES // 500),
        ((5000, 500), 3, 3),
        ((5000, 500), 1, 1),
        ((140_000, 70_000), 10**6, 1),
    ]:
        layout = compute_layout(n, n1)
        block = StudentizedBlock(layout, 0.05, draws)
        assert block.stack.shape == (rows, layout.num_groups)


# ---------------------------------------------------------------------------
# Plug-in normal baseline


def test_clt_quantile_and_zero_width():
    n = 50
    y = np.zeros(n)
    z = np.zeros(n, dtype=np.int8)
    z[:10] = 1
    from tightci.design import Assignment

    data = ObservedData(y=y, assignment=Assignment(z=z, scheme="complete", pi=0.2))
    ci = clt_ci(data, 0.05)
    # derived: Phi^{-1}(0.975) = 1.9599639845400545
    assert ci.tuning["z_quantile"] == pytest.approx(1.9599639845400545, rel=1e-9)
    assert ci.half_width == 0.0


def test_clt_quantile_finite_below_double_precision():
    # 1 - alpha/2 rounds to 1 below alpha of about 1.1e-16, where norm.ppf
    # gives inf; the quantile comes from the upper tail there instead
    from scipy.stats import norm

    from tightci.intervals import MIN_ALPHA, _z_quantile

    rng = np.random.default_rng(8)
    table = PotentialTable(rng.uniform(0, 1, 200), rng.uniform(0, 1, 200))
    data = ObservedData.realize(table, draw_bernoulli(200, 0.1, rng))
    for alpha in (1e-16, 1e-100, MIN_ALPHA):
        _z_quantile.cache_clear()
        ci = clt_ci(data, alpha)
        assert ci.tuning["z_quantile"] == float(norm.isf(alpha / 2.0))
        assert math.isfinite(ci.lower) and math.isfinite(ci.upper)
        assert reevaluate("clt", alpha, ci.tuning) == (ci.lower, ci.upper)
    # just above that, 1 - alpha/2 is below 1 but has lost most of the tail,
    # so the upper-tail form gives the quantile there too
    assert _z_quantile(1e-15) == float(norm.isf(1e-15 / 2.0))


def test_clt_quantile_reads_the_upper_tail_below_1e_3():
    # 1 - alpha/2 keeps too few digits of a small tail: at alpha = 1.2e-16
    # norm.ppf of it is 8.2095 where the quantile is 8.2831
    from scipy.stats import norm

    from tightci.intervals import _ISF_BELOW, MIN_ALPHA, _z_quantile

    below_edge = math.nextafter(_ISF_BELOW, 0.0)
    for alpha in (MIN_ALPHA, 1.2e-16, 1e-14, 1e-10, 9.99e-4, below_edge):
        assert _z_quantile(alpha) == float(norm.isf(alpha / 2.0))
    assert _z_quantile(1.2e-16) == pytest.approx(8.2831, abs=1e-4)
    # ordinary alphas keep the lower-tail form, and with it their bytes
    for alpha in (_ISF_BELOW, 0.01, 0.05, 0.1, 0.999):
        assert _z_quantile(alpha) == float(norm.ppf(1.0 - alpha / 2.0))


def test_ndtri_is_scipy_ndtri_bit_for_bit():
    # the port runs Cephes' operations in Cephes' order, so every branch
    # and every edge between branches gives scipy.special.ndtri's bits
    from scipy.special import ndtri

    from tightci.intervals import _EXP_M2, _ndtri

    rng = np.random.default_rng(33)
    k = 200_000
    central = rng.uniform(_EXP_M2, 1.0 - _EXP_M2, k)
    # x = sqrt(-2 log p) below 8 and from 8 up, on both tails; the second
    # reaches the subnormals
    near = np.exp(-rng.uniform(2.0, 32.0, k))
    far = 10.0 ** -rng.uniform(32.0 / math.log(10.0), 323.0, k)
    near[: k // 2] = 1.0 - near[: k // 2]
    edges = [5e-324, 1e-310]
    for edge in (_EXP_M2, 1.0 - _EXP_M2, math.exp(-2.0), math.exp(-32.0)):
        edges += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)]
    for p in (central, near, far, np.array(edges)):
        mine = np.array([_ndtri(float(q)) for q in p])
        assert np.array_equal(mine.view(np.int64), ndtri(p).view(np.int64))


def test_clt_variance_is_np_var_bit_for_bit():
    # clt_ci centres on the estimate it reads once, with np.var's arithmetic
    rng = np.random.default_rng(34)
    for n in (2, 3, 50, 2_000, 20_000):
        for _ in range(20):
            table = PotentialTable(rng.uniform(0, 1, n), rng.uniform(0, 1, n))
            asg = draw_bernoulli(n, 0.5 if n < 50 else 0.1, rng)
            if asg.treated.all() or not asg.treated.any():
                continue
            data = ObservedData.realize(table, asg)
            ci = clt_ci(data, 0.05)
            assert ci.tuning["vhat"] == float(np.var(data.terms, ddof=1))
            assert ci.tuning["psi_hat"] == float(np.mean(data.terms))


def test_clt_empty_arm_rejected():
    from tightci.design import Assignment

    z = np.ones(10, dtype=np.int8)
    data = ObservedData(y=np.zeros(10), assignment=Assignment(z=z, scheme="bernoulli", pi=0.4))
    with pytest.raises(IntervalError, match="arm"):
        clt_ci(data, 0.05)


def test_clt_width_scaling_stabilizes():
    rng = np.random.default_rng(11)
    scaled = []
    for n in (500, 2000, 8000):
        vals = []
        for _ in range(100):
            y0 = rng.uniform(0.1, 0.5, n)
            table = PotentialTable(y0, y0 + 0.5)
            asg = draw_bernoulli(n, 0.1, rng)
            ci = clt_ci(ObservedData.realize(table, asg), 0.05)
            vals.append(ci.half_width * math.sqrt(n * 0.1))
        scaled.append(float(np.mean(vals)))
    assert abs(scaled[2] / scaled[1] - 1) < 0.1
    assert abs(scaled[2] / scaled[0] - 1) < 0.15


# ---------------------------------------------------------------------------
# General interval behavior


def test_extreme_alpha_smoke():
    lay = compute_layout(1000, 100)
    data = _mbcr_data(1000, 100, 12)
    for alpha in (1 - 1e-9, 1e-12):
        assert math.isfinite(closed_ci("hoeff-mbcr", 0.0, alpha, layout=lay).half_width)
        assert math.isfinite(
            closed_ci("sub-bernoulli-bern", 0.0, alpha, n=1000, pi=0.1).half_width
        )
        assert math.isfinite(
            closed_ci("sub-bernoulli-mbcr", 0.0, alpha, layout=lay).half_width
        )
        assert math.isfinite(
            closed_ci("naive-hoeffding", 0.0, alpha, n=1000, pi=0.1).half_width
        )
        ci = studentized_ci(data, alpha)
        assert math.isfinite(ci.lower) and math.isfinite(ci.upper)


def test_alpha_floor_keeps_two_over_alpha_finite():
    from tightci.intervals import MIN_ALPHA

    assert MIN_ALPHA == SMALLEST_ALPHA
    assert math.isfinite(2.0 / MIN_ALPHA)
    assert math.isinf(2.0 / math.nextafter(MIN_ALPHA, 0.0))
    lay = compute_layout(1000, 100)
    closed = [m for m, spec in METHOD_TABLE.items() if spec.tuning is not None]
    for m in closed:
        assert math.isfinite(METHOD_TABLE[m].half_width(lay, 1000, 0.1, MIN_ALPHA))
        for alpha in (math.nextafter(MIN_ALPHA, 0.0), 5e-324):
            with pytest.raises(IntervalError, match="2/alpha"):
                METHOD_TABLE[m].half_width(lay, 1000, 0.1, alpha)


@st.composite
def _layouts(draw):
    """Feasible grouped layouts with n <= 10^4 and 0, 1 or 2 treated in the tail.

    With n = g n1 - s and 0 <= s < n1 the block size is g: s = 0 tiles the
    sample, 1 <= s <= g - 2 spills one treated unit into the tail, and
    g - 1 <= s <= 2g - 3 (which needs n1 >= g) spills two.
    """
    tail = draw(st.sampled_from((0, 1, 2)))
    if tail == 0:
        g = draw(st.integers(2, 5_000))
        n1, s = draw(st.integers(1, 10_000 // g)), 0
    elif tail == 1:
        g = draw(st.integers(3, 5_000))
        n1 = draw(st.integers(2, 10_000 // g))
        s = draw(st.integers(1, min(n1 - 1, g - 2)))
    else:
        g = draw(st.integers(3, 100))
        n1 = draw(st.integers(g, 10_000 // g))
        s = draw(st.integers(g - 1, min(n1 - 1, 2 * g - 3)))
    layout = compute_layout(g * n1 - s, n1)
    assert (layout.group_size, layout.tail_treated) == (g, tail)
    return layout


_ALPHAS = st.floats(SMALLEST_ALPHA, 0.999)


@given(_layouts(), _ALPHAS, _ALPHAS, st.floats(-1.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_closed_forms_finite_monotone_and_reevaluable(layout, a1, a2, psi_hat):
    lo_alpha, hi_alpha = sorted((a1, a2))
    n, pi = layout.n, layout.n1 / layout.n
    for m, spec in METHOD_TABLE.items():
        if spec.tuning is None:
            continue
        wide = spec.half_width(layout, n, pi, lo_alpha)
        narrow = spec.half_width(layout, n, pi, hi_alpha)
        assert math.isfinite(wide) and 0.0 < narrow <= wide, m
        ci = closed_ci(m, psi_hat, lo_alpha, layout=layout, n=n, pi=pi)
        packed = json.loads(json.dumps({"alpha": ci.alpha, "tuning": ci.tuning}))
        assert reevaluate(m, packed["alpha"], packed["tuning"]) == (ci.lower, ci.upper), m


def _table(kind, n, rng):
    """A table in [0, 1]: uniform, binary (the cube's corners) or constant."""
    if kind == "uniform":
        return PotentialTable(rng.uniform(0, 1, n), rng.uniform(0, 1, n))
    if kind == "binary":
        return PotentialTable(
            rng.integers(0, 2, n).astype(np.float64),
            rng.integers(0, 2, n).astype(np.float64),
        )
    y = np.full(n, rng.uniform(0, 1))
    return PotentialTable(y, y)


@st.composite
def _adaptive_cases(draw):
    """(methods, data): grouped draws on tiling, one- and two-spill layouts
    for ``studentized``; Bernoulli draws with n <= 10^4 and pi down to 1/n
    for ``studentized-bern`` and ``clt``."""
    kind = draw(st.sampled_from(("uniform", "binary", "constant")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        layout = draw(_layouts())
        table = _table(kind, layout.n, rng)
        return ["studentized"], ObservedData.realize(table, draw_mbcr(layout, rng))
    n = draw(st.integers(4, 10_000))
    pi = draw(st.one_of(st.just(1.0 / n), st.floats(1.0 / n, 0.5)))
    data = ObservedData.realize(_table(kind, n, rng), draw_bernoulli(n, pi, rng))
    return ["studentized-bern", "clt"], data


@given(_adaptive_cases(), _ALPHAS)
@settings(max_examples=150, deadline=None)
def test_adaptive_builders_finite_ordered_and_reevaluable(case, alpha):
    methods, data = case
    for m in methods:
        try:
            ci = METHOD_TABLE[m].adaptive(data, alpha)
        except EmptyArmError:
            assert m == "clt"
            continue
        except IntervalError as err:
            assert m == "studentized"
            lay = data.assignment.layout
            assert lay.num_full_groups + (lay.tail_size > 0) < 4
            assert "insufficient groups" in str(err)
            continue
        assert math.isfinite(ci.lower) and math.isfinite(ci.upper), m
        assert ci.lower <= ci.upper, m
        packed = json.loads(json.dumps({"alpha": ci.alpha, "tuning": ci.tuning}))
        assert reevaluate(m, packed["alpha"], packed["tuning"]) == (ci.lower, ci.upper), m


def test_clip():
    ci = closed_ci("naive-hoeffding", 0.9, 0.05, n=50, pi=0.1)
    clipped = ci.clipped()
    assert clipped.upper == 1.0
    assert clipped.lower == max(ci.lower, -1.0)
    assert clipped.tuning["clipped"] == (-1.0, 1.0)


def test_reevaluate_roundtrip_all_methods():
    lay = compute_layout(1000, 100)
    data = _mbcr_data(1000, 100, 13)
    rng = np.random.default_rng(14)
    y0 = rng.uniform(0.1, 0.5, 400)
    table = PotentialTable(y0, y0 + 0.5)
    bern = ObservedData.realize(table, draw_bernoulli(400, 0.1, rng))
    built = [
        closed_ci("hoeff-mbcr", 0.37, 0.05, layout=lay),
        closed_ci("sub-bernoulli-bern", 0.37, 0.05, n=1000, pi=0.1),
        closed_ci("sub-bernoulli-mbcr", 0.37, 0.05, layout=lay),
        closed_ci("naive-hoeffding", 0.37, 0.05, n=1000, pi=0.1),
        clt_ci(bern, 0.05),
        studentized_ci(data, 0.05),
    ]
    for ci in built:
        lo, hi = reevaluate(ci.method, ci.alpha, ci.tuning)
        assert lo == ci.lower and hi == ci.upper
        # and through a JSON round trip, to the last ulp
        packed = json.loads(json.dumps({"alpha": ci.alpha, "tuning": ci.tuning}))
        lo2, hi2 = reevaluate(ci.method, packed["alpha"], packed["tuning"])
        assert lo2 == ci.lower and hi2 == ci.upper


# Every closed-form tag's record, key by key in order, as its builder wrote it.
_GROUPED_RECORD = ["psi_hat", "n", "num_full_groups", "group_size", "tail_size"]
_CLOSED_RECORDS = {
    "hoeff-mbcr": [*_GROUPED_RECORD, "cn", "half_width"],
    "sub-bernoulli-bern": [
        "psi_hat", "n", "pi", "lam", "range_lo", "range_hi", "kappa", "half_width"
    ],
    "sub-bernoulli-mbcr": [*_GROUPED_RECORD, "lam", "half_width"],
    "naive-hoeffding": ["psi_hat", "n", "pi", "half_width"],
}


def test_closed_records_name_every_closed_form():
    closed = {m for m, spec in METHOD_TABLE.items() if spec.tuning is not None}
    assert closed == set(_CLOSED_RECORDS)


@pytest.mark.parametrize("method", sorted(_CLOSED_RECORDS))
def test_closed_ci_half_width_record_and_replay(method):
    spec = METHOD_TABLE[method]
    for n, n1 in ((1000, 100), (997, 100), (17, 5)):
        lay, pi = compute_layout(n, n1), n1 / n
        for alpha in (0.05, 1e-4, 0.5, SMALLEST_ALPHA):
            for psi_hat in (0.0, 0.37, -0.9):
                ci = closed_ci(method, psi_hat, alpha, layout=lay, n=n, pi=pi)
                assert ci.method == method and ci.alpha == alpha
                # the recorded half-width; at psi_hat = 0 the endpoints' too
                half = spec.half_width(lay, n, pi, alpha)
                assert ci.tuning["half_width"] == half
                assert psi_hat != 0.0 or ci.half_width == half
                assert list(ci.tuning) == _CLOSED_RECORDS[method]
                for built in (ci, ci.clipped()):
                    packed = json.loads(json.dumps(built.tuning))
                    got = reevaluate(method, alpha, packed)
                    assert got == (built.lower, built.upper)


def test_studentized_refuses_complete_randomization_data():
    # complete data has no groups to cross-fit; grouped data carries its
    # layout and a Bernoulli draw is its own groups
    table = PotentialTable(np.full(40, 0.25), np.full(40, 0.75))
    data = ObservedData.realize(table, draw_complete(40, 8, np.random.default_rng(1)))
    with pytest.raises(EstimatorError) as info:
        studentized_ci(data, 0.05)
    message = "group sums need a grouped or Bernoulli assignment, got 'complete'"
    assert message in str(info.value)


def test_interval_refuses_crossed_endpoints_and_unknown_tags():
    with pytest.raises(IntervalError, match=r"empty interval \[0.5, 0.25\]"):
        Interval(0.5, 0.25, 0.05, "clt", {})
    assert Interval(0.25, 0.25, 0.05, "clt", {}).half_width == 0.0
    with pytest.raises(IntervalError, match="unknown method 'no-such-method'"):
        reevaluate("no-such-method", 0.05, {"psi_hat": 0.0})
