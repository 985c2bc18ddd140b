"""Unit tests for the comparison analyses layered on the region primitives."""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import mpmath
import pytest

import gaussrd.analysis as analysis
import gaussrd.cli as cli
import oracle
from gaussrd import (
    AsymptoticConfig,
    FixedChannelConfig,
    GaussianSource,
    GaussRdError,
    InfeasibleDistortion,
    InvalidRegimeInput,
    MdcrSplit,
    OutOfRegime,
    RateTuple,
    asymptote_convergence,
    dr_bound,
    fixed_channel_loss,
    high_rate_asymptote,
    md_region_slice,
    mdcr_compare,
    wz_md_sweep,
    wz_region,
)

from conftest import make_rng

EPS = sys.float_info.epsilon

#: Operating point of the side-information-versus-plain-coding sweep.
SWEEP_RATES = RateTuple(1.0, 0.5, 1.0, 0.5)


# ---------------------------------------------------------------------------
# Binning alternative for the second user
# ---------------------------------------------------------------------------

def test_wz_matches_plain_coding_at_both_sweep_ends():
    source = GaussianSource(variance=1.0)
    lo = math.exp(-2.0 * (SWEEP_RATES.r1 + SWEEP_RATES.r3))
    hi = math.exp(-2.0 * SWEEP_RATES.r1)
    for d3 in (lo, hi):
        wz = wz_region(source, SWEEP_RATES, d3)
        md = md_region_slice(source, SWEEP_RATES, d3)
        assert abs(wz - md) <= 1e-9 * max(wz, md)


def test_wz_strictly_worse_between_the_ends():
    source = GaussianSource(variance=1.0)
    lo = math.exp(-2.0 * (SWEEP_RATES.r1 + SWEEP_RATES.r3))
    hi = math.exp(-2.0 * SWEEP_RATES.r1)
    mid = 0.5 * (lo + hi)
    gap = wz_region(source, SWEEP_RATES, mid) - md_region_slice(
        source, SWEEP_RATES, mid)
    assert gap > 1e-6


def test_wz_rejects_targets_below_the_floor():
    source = GaussianSource(variance=1.0)
    lo = math.exp(-2.0 * (SWEEP_RATES.r1 + SWEEP_RATES.r3))
    with pytest.raises(InfeasibleDistortion):
        wz_region(source, SWEEP_RATES, lo * 0.99)


def test_wz_md_sweep_shape_and_signs():
    source = GaussianSource(variance=1.0)
    rows = wz_md_sweep(source, SWEEP_RATES, points=51)
    assert len(rows) == 51
    lo = math.exp(-2.0 * (SWEEP_RATES.r1 + SWEEP_RATES.r3))
    hi = math.exp(-2.0 * SWEEP_RATES.r1)
    assert rows[0].d3 == pytest.approx(lo, rel=1e-14)
    assert rows[-1].d3 == pytest.approx(hi, rel=1e-14)
    assert abs(rows[0].gap) <= 1e-9 * rows[0].d4_md
    assert abs(rows[-1].gap) <= 1e-9 * rows[-1].d4_md
    for earlier, later in zip(rows, rows[1:]):
        assert later.d3 > earlier.d3
    assert max(row.gap for row in rows[1:-1]) > 1e-6
    # The gap is single-signed: binning never beats plain coding here.
    assert min(row.gap for row in rows) >= -1e-12


def test_wz_md_sweep_gaps_are_nonnegative_and_exactly_zero_at_the_ends():
    # Sweeps shaped like the CLI's: variance 10^U[-3, 3], rates U[0.2, 1.5].
    # Unsnapped, rounding leaves end gaps of either sign near 1e-15 relative.
    rng = make_rng(5)
    for _ in range(50):
        source = GaussianSource(10.0 ** rng.uniform(-3.0, 3.0))
        rows = wz_md_sweep(source, RateTuple(*rng.uniform(0.2, 1.5, size=4)), 200)
        assert rows[0].gap == 0.0 and rows[-1].gap == 0.0
        assert min(row.gap for row in rows) >= 0.0
        assert min(row.gap / row.d4_md for row in rows[1:-1]) > 1e-4


@pytest.mark.parametrize("variance, r1", [
    (1.0, 1.0), (1.0, 200.0), (1.0, 300.0), (1e-120, 1.0), (1e120, 1.0),
    (1e-200, 1.0), (1e200, 1.0), (1.7e308, 1.0)])
def test_wz_region_matches_a_50_digit_evaluation(variance, r1):
    # The channel's s1 s2 ~ d1*^2 underflows once d1* < ~1e-154 (r1 past ~177
    # nats at unit variance) and overflows at variances past ~1e102, and
    # var + s1 + s2 nears the top of the double range; d4_wz must not.
    source = GaussianSource(variance)
    rates = dataclasses.replace(SWEEP_RATES, r1=r1)
    rows = wz_md_sweep(source, rates, 5)
    exact = oracle.mp_wz_md_sweep(variance, rates.as_tuple(), [row.d3 for row in rows])
    for row, (wz, _, _) in zip(rows, exact):
        assert row.d4_wz == pytest.approx(float(wz), rel=1e-13)
    assert rows[0].gap == rows[-1].gap == 0.0
    assert min(row.gap for row in rows[1:-1]) > 0.0


def test_wz_md_sweep_matches_the_oracle():
    # Stage rates from 1e-18 nats, where var exp(-2 r1) rounds to var and
    # the textbook var d1*/(var - d1*) divides by 0, to 3; variances
    # 10^U[-100, 100].  d4_wz is within 16 eps, d4_md within dr_bound's
    # rounding model 4 eps (1 + r1+r2+r3+r4) sqrt(ab/delta), and the gap
    # within the sum of the two.  Every fourth r2 lies 1e-20 to 1e-16.5 of
    # r1.  The fixed cases are where a form through the binning channel's
    # noise variances s1, s2 and weight s2/(s1 + s2) loses its digits or its
    # range: r2 300 decades below r1; r1 at 1e-160 and 1e-200 at variance
    # 1e100; variance 3.96e-259 at r1 = 1.3e-158; r2 = 1e-320; r1 = 1e-310;
    # and variances 1e-300 and 0.5 at subnormal stage rates.
    rng = make_rng(9)
    cases = []
    for i in range(40):
        var = 10.0 ** rng.uniform(-100.0, 100.0)
        r1 = 10.0 ** rng.uniform(-17.0, 0.5) if i % 4 else 10.0 ** rng.uniform(-18.0, -16.0)
        r2 = 10.0 ** rng.uniform(-12.0, 0.5)
        if i % 4 == 1:
            r2 = r1 * 10.0 ** rng.uniform(-20.0, -16.5)
        cases.append((var, RateTuple(r1, r2, *rng.uniform(0.01, 2.0, size=2))))
    cases += [(1.0, RateTuple(1.0, 1e-300, 1.0, 0.5)),
              (1e100, RateTuple(1e-160, 0.5, 1.0, 0.5)),
              (1e100, RateTuple(1e-200, 0.5, 1.0, 0.5)),
              (3.9568226551624325e-259,
               RateTuple(1.342632853490674e-158, 0.0020019260325903035,
                         1.0092188134423132, 0.6386335256137914)),
              (1.0, RateTuple(1.0, 1e-320, 1.0, 0.5)),
              (1e300, RateTuple(1.0, 1e-320, 1.0, 0.5)),
              (1.0, RateTuple(1e-310, 0.5, 1.0, 0.5)),
              (1e-300, RateTuple(1e-310, 1e-200, 1.0, 0.5)),
              (0.5, RateTuple(1e-309, 1e-309, 1.0, 0.5))]
    for var, rates in cases:
        rows = wz_md_sweep(GaussianSource(var), rates, 9)
        exact = oracle.mp_wz_md_sweep(var, rates.as_tuple(), [row.d3 for row in rows])
        d2s = var * math.exp(-2.0 * (rates.r1 + rates.r2))
        for row, (wz, md, gap) in zip(rows, exact):
            kappa = oracle.mp_floor_conditioning(var, rates.as_tuple(), d2s, row.d3)
            wz_err = 16.0 * EPS * wz
            md_err = 4.0 * EPS * (1.0 + sum(rates.as_tuple())) * kappa * md
            assert abs(row.d4_wz - wz) <= wz_err
            assert abs(row.d4_md - md) <= md_err
            assert abs(row.gap - gap) <= wz_err + md_err


def test_wz_md_sweep_keeps_dr_bound_s_model_past_a_subnormal_first_layer_factor():
    # sweep-wz-md --var 1e308 --r1 360 --points 3: exp(-720) is subnormal
    # though the floors are not.  Formed as plain products, the low row's
    # d3 sat 3e-12 off its floor and d4_md was 5.8e8 eps off.  With the
    # binning channel solved in units of 2^k, where m exp(-2 (r1+r2)) is
    # subnormal too, d4_wz was 7.4e4-9.9e4 eps off and the end rows' gaps
    # read -1.35e-17 and -8.2e-18, not 0.
    var, rates = 1e308, RateTuple(360.0, 0.5, 1.0, 0.5)
    rows = wz_md_sweep(GaussianSource(var), rates, 3)
    exact = oracle.mp_wz_md_sweep(var, rates.as_tuple(), [row.d3 for row in rows])
    with mpmath.workdps(oracle.DPS):
        d2s = float(mpmath.mpf(var) * mpmath.exp(-2 * (mpmath.mpf(360.0) + mpmath.mpf(0.5))))
    for row, (wz, md, _) in zip(rows, exact):
        kappa = oracle.mp_floor_conditioning(var, rates.as_tuple(), d2s, row.d3)
        assert abs(row.d4_md - md) <= 4.0 * EPS * (1.0 + sum(rates.as_tuple())) * kappa * md
        assert abs(row.d4_wz - wz) <= 16.0 * EPS * wz
    assert [row.gap for row in rows][::2] == [0.0, 0.0]


def test_wz_region_matches_the_oracle_where_the_plain_slice_is_refused():
    # At variance 1e308, r1 = 0.1 and r2 = 360 the channel's s1 is past the
    # top of the double range and the plain slice's a = exp(-720) is
    # subnormal, so the sweep is refused; the binning bound alone is not.
    var, rates = 1e308, RateTuple(0.1, 360.0, 1.0, 0.5)
    source = GaussianSource(var)
    with pytest.raises(InvalidRegimeInput, match="below the normal double range"):
        wz_md_sweep(source, rates, 3)
    lo, hi = var * math.exp(-2.2), var * math.exp(-0.2)
    targets = [lo, 0.5 * (lo + hi), hi]
    exact = oracle.mp_wz_md_sweep(var, rates.as_tuple(), targets)
    for d3, (wz, _, _) in zip(targets, exact):
        assert abs(wz_region(source, rates, d3) - wz) <= 16.0 * EPS * wz


@pytest.mark.parametrize("field", ["r1", "r2"])
def test_wz_md_sweep_answers_at_a_zero_stage_rate(field):
    # At r1 = 0 or r2 = 0 the channel has no noise variances (1 - exp(-2 r)
    # is 0), but the bound has a value: the oracle's at the least positive
    # rate, 5e-324, to within 16 eps.  At r2 = 0, pi = 0 and binning loses
    # nothing on any row; at r1 = 0 it meets the plain slice at both ends
    # and is worse inside.
    rates = dataclasses.replace(SWEEP_RATES, **{field: 0.0})
    rows = wz_md_sweep(GaussianSource(1.0), rates, 9)
    least = dataclasses.replace(SWEEP_RATES, **{field: 5e-324})
    exact = oracle.mp_wz_md_sweep(1.0, least.as_tuple(), [row.d3 for row in rows])
    for row, (wz, _, _) in zip(rows, exact):
        assert abs(row.d4_wz - wz) <= 16.0 * EPS * wz
    gaps = [row.gap for row in rows]
    if field == "r2":
        assert gaps == [0.0] * 9
    else:
        assert gaps[0] == gaps[-1] == 0.0 and min(gaps[1:-1]) > 0.0


def test_wz_md_sweep_validates_point_count():
    with pytest.raises(ValueError):
        wz_md_sweep(GaussianSource(variance=1.0), SWEEP_RATES, points=1)


def test_md_slice_specialization_holds_across_the_range():
    # The slice's internal closed-form consistency assertions must stay quiet
    # over the whole feasible range, including both exact endpoints.
    source = GaussianSource(variance=1.0)
    rng = make_rng(401)
    lo = math.exp(-2.0 * (SWEEP_RATES.r1 + SWEEP_RATES.r3))
    hi = math.exp(-2.0 * SWEEP_RATES.r1)
    values = [lo, hi] + list(rng.uniform(lo, hi, size=50))
    for d3 in values:
        bound = md_region_slice(source, SWEEP_RATES, float(d3))
        assert bound > 0.0


def test_md_slice_specialization_mismatch_raises_a_domain_error(monkeypatch):
    # The consistency check must be an explicit raise: an ``assert`` vanishes
    # under ``python -O`` and would leave the CLI as a bare traceback.
    def perturbed(*args):
        result = dr_bound(*args)
        return dataclasses.replace(result, pi=result.pi + 1e-6)

    monkeypatch.setattr(analysis, "dr_bound", perturbed)
    mid = 0.5 * (math.exp(-2.0 * (SWEEP_RATES.r1 + SWEEP_RATES.r3))
                 + math.exp(-2.0 * SWEEP_RATES.r1))
    with pytest.raises(GaussRdError):
        md_region_slice(GaussianSource(variance=1.0), SWEEP_RATES, mid)


# ---------------------------------------------------------------------------
# Frozen first-layer channel
# ---------------------------------------------------------------------------

def test_fixed_channel_loss_reference_anchor():
    source = GaussianSource(variance=1.0)
    loss = fixed_channel_loss(source, 1.0, 1.0, FixedChannelConfig(alpha=1.0))
    expected = math.exp(2.0) + math.exp(-2.0) - 1.0
    assert abs(loss.ratio - expected) <= 1e-12


def test_fixed_channel_loss_floor_and_ratio_are_consistent():
    # ratio must equal d2_floor divided by the adaptive-design distortion.
    source = GaussianSource(variance=1.0)
    rng = make_rng(409)
    for _ in range(50):
        r1 = float(rng.uniform(0.1, 3.0))
        r3 = float(rng.uniform(0.1, 3.0))
        alpha = float(rng.uniform(0.0, 2.0))
        loss = fixed_channel_loss(source, r1, r3, FixedChannelConfig(alpha))
        adaptive = math.exp(-2.0 * (1.0 + alpha) * r1)
        assert loss.ratio == pytest.approx(loss.d2_floor / adaptive, rel=1e-11)
        assert loss.ratio >= 1.0 - 1e-12


def test_fixed_channel_loss_vanishes_as_coupling_goes_to_zero():
    source = GaussianSource(variance=1.0)
    loss = fixed_channel_loss(source, 1.0, 1.0, FixedChannelConfig(alpha=1e-6))
    assert abs(loss.ratio - 1.0) <= 1e-4
    exact_zero = fixed_channel_loss(source, 1.0, 1.0, FixedChannelConfig(alpha=0.0))
    assert exact_zero.ratio == pytest.approx(1.0, abs=1e-15)


def test_fixed_channel_loss_grows_without_bound_in_r1():
    source = GaussianSource(variance=1.0)
    config = FixedChannelConfig(alpha=1.0)
    previous = 0.0
    for r1 in (1.0, 2.0, 4.0, 8.0):
        ratio = fixed_channel_loss(source, r1, 1.0, config).ratio
        assert ratio > previous
        previous = ratio
    assert previous > 1e6  # far beyond any bounded penalty


def test_fixed_channel_loss_matches_the_oracle():
    # Each output is a sum of nonnegative terms, so nothing cancels: its
    # relative error is at most eps (1 + the exponents' magnitudes), since
    # each exponent's rounded argument moves its term by that magnitude
    # times eps.
    rng = make_rng(3)
    cases = []
    for i in range(300):
        var = 10.0 ** rng.uniform(-100.0, 100.0)
        alpha = float(rng.uniform(0.0, 2.0)) if i % 7 else 0.0
        r1 = float(rng.uniform(0.0, 20.0 if i % 5 else 100.0))
        r3 = float(rng.uniform(0.0, 3.0)) if i % 4 else 10.0 ** rng.uniform(-12.0, 0.0)
        cases.append((var, alpha, r1, r3))
    # exp(2 alpha r1) = exp(720) overflows, though the ratio does not (1 at
    # r3 = 0, 9.84e302 at r3 = 1e-10), and exp(-720) in d2_floor is subnormal.
    cases += [(1e300, 360.0, 1.0, 0.0), (1e300, 360.0, 1.0, 1e-10)]
    for var, alpha, r1, r3 in cases:
        loss = fixed_channel_loss(GaussianSource(var), r1, r3, FixedChannelConfig(alpha))
        ratio, d2_floor = oracle.mp_fixed_channel_loss(var, r1, r3, alpha)
        ar = alpha * r1
        assert abs(loss.ratio - ratio) <= EPS * (1.0 + 2.0 * (ar + r3)) * ratio
        assert (abs(loss.d2_floor - d2_floor)
                <= EPS * (1.0 + 2.0 * (r1 + ar + r3)) * d2_floor)


def test_loss_at_an_infinite_exponent_and_zero_r3_is_refused_for_its_floor(capsys):
    # 2 alpha r1 is inf, but at r3 = 0 the ratio is exp(-2 r3) = 1: the row
    # is refused because d2_floor = d1* exp(-inf) is 0, not for the ratio.
    code = cli.main(["loss", "--alpha", "1.7e308", "--r3", "0", "--r1-grid", "1"])
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 2
    assert error["type"] == "InvalidRegimeInput"
    assert error["message"] == ("the frozen floor d2_floor = 0.0 is below the "
                                "normal double range at r1 = 1.0")


def test_fixed_channel_loss_validates_inputs():
    source = GaussianSource(variance=1.0)
    with pytest.raises(ValueError):
        fixed_channel_loss(source, -0.1, 1.0, FixedChannelConfig(alpha=1.0))
    with pytest.raises(ValueError):
        FixedChannelConfig(alpha=-0.5)
    with pytest.raises(ValueError):
        FixedChannelConfig(alpha=math.inf)


# ---------------------------------------------------------------------------
# Conditional refinement versus re-budgeted plain coding
# ---------------------------------------------------------------------------

def _mdcr_at(r4: float) -> float:
    source = GaussianSource(variance=1.0)
    return mdcr_compare(source, 0.5, 0.5, r4, MdcrSplit(beta=0.5),
                        0.45, 0.45).ratio


def test_mdcr_ratio_is_one_without_refinement_rate():
    comparison = mdcr_compare(GaussianSource(variance=1.0), 0.5, 0.5, 0.0,
                              MdcrSplit(beta=0.5), 0.45, 0.45)
    assert comparison.ratio == 1.0
    assert comparison.d4_mdcr == comparison.d4_md


def test_mdcr_refinement_is_strictly_suboptimal_at_positive_rate():
    for r4 in (0.1, 0.2, 0.4):
        assert _mdcr_at(r4) > 1.0 + 1e-9


def test_mdcr_penalty_nondecreasing_in_refinement_rate():
    ratios = [_mdcr_at(r4) for r4 in (0.0, 0.05, 0.1, 0.2, 0.4, 0.8)]
    for earlier, later in zip(ratios, ratios[1:]):
        assert later >= earlier - 1e-12


def test_mdcr_split_symmetry_at_symmetric_targets():
    source = GaussianSource(variance=1.0)
    a = mdcr_compare(source, 0.5, 0.5, 0.3, MdcrSplit(beta=0.25), 0.45, 0.45)
    b = mdcr_compare(source, 0.5, 0.5, 0.3, MdcrSplit(beta=0.75), 0.45, 0.45)
    assert a.ratio == pytest.approx(b.ratio, rel=1e-12)


def test_mdcr_rejects_broken_premises():
    source = GaussianSource(variance=1.0)
    with pytest.raises(InfeasibleDistortion):
        mdcr_compare(source, 0.5, 0.5, 0.1, MdcrSplit(beta=0.5), 1.0, 0.45)
    with pytest.raises(ValueError):
        MdcrSplit(beta=1.2)
    # Over-generous targets at high rate make the re-budgeted system
    # degenerate, which voids the comparison.
    with pytest.raises(OutOfRegime):
        mdcr_compare(source, 1.0, 1.0, 1.0, MdcrSplit(beta=0.5), 0.98, 0.98)


def test_mdcr_compare_matches_the_oracle():
    # Each bound meets dr_bound's rounding model 4 eps (1 + total rate)
    # kappa, kappa = max(1, sqrt(ab/delta)) at its own rates (the
    # re-budgeted rates are rounded sums).  The ratio of the penalty
    # denominators carries no exponential of the total rate: it meets the
    # rate-free 2 eps (kappa_mdcr + kappa_md).
    rng = make_rng(29)
    compared = 0
    for i in range(200):
        var = 10.0 ** rng.uniform(-100.0, 100.0)
        r2, r3, r4 = (float(rng.uniform(0.0, 3.0 if i % 2 else 40.0)) for _ in range(3))
        beta = float(rng.uniform(0.0, 1.0)) if i % 5 else float(rng.integers(0, 2))
        d2 = var * math.exp(-2.0 * r2 * rng.uniform(0.0, 1.0))
        d3 = var * math.exp(-2.0 * r3 * rng.uniform(0.0, 1.0))
        try:
            got = mdcr_compare(GaussianSource(var), r2, r3, r4, MdcrSplit(beta), d2, d3)
        except (InfeasibleDistortion, OutOfRegime):
            continue
        compared += 1
        scale = 4.0 * EPS * (1.0 + r2 + r3 + r4)
        k_mdcr = oracle.mp_floor_conditioning(var, (0.0, r2, r3, r4), d2, d3)
        k_md = oracle.mp_floor_conditioning(
            var, (0.0, r2 + beta * r4, r3 + (1.0 - beta) * r4, 0.0), d2, d3)
        for value, exact, rtol in zip(
                (got.d4_mdcr, got.d4_md, got.ratio),
                oracle.mp_mdcr_compare(var, r2, r3, r4, beta, d2, d3),
                (scale * k_mdcr, scale * k_md, 2.0 * EPS * (k_mdcr + k_md))):
            assert abs(value - exact) <= rtol * exact, (i, value, exact)
    assert compared >= 150


@pytest.mark.parametrize("r4", [200.0, 360.0, 400.0, 1000.0])
def test_mdcr_ratio_survives_underflowed_bounds(r4):
    # Past ~354 nats of total rate the shared numerator var exp(-2 r_total)
    # leaves the normal range (0.0 past ~372); the ratio of the penalty
    # denominators does not.
    source = GaussianSource(variance=1.0)
    cmp_ = mdcr_compare(source, 1.0, 1.0, r4, MdcrSplit(beta=0.5), 0.3, 0.3)
    with mpmath.workdps(oracle.DPS):
        exact = (oracle.mp_dr_bound(1.0, (0.0, 1.0, 1.0, r4), 0.3, 0.3)
                 / oracle.mp_dr_bound(1.0, (0.0, 1.0 + 0.5 * r4, 1.0 + 0.5 * r4, 0.0),
                                      0.3, 0.3))
    assert cmp_.ratio == pytest.approx(float(exact), rel=1e-12)


# ---------------------------------------------------------------------------
# High-rate asymptotes
# ---------------------------------------------------------------------------

def test_asymptote_branch_constant_ratio_targets():
    res = high_rate_asymptote(AsymptoticConfig(b=1.0, eta=0.0), 2.0, 0.0)
    assert res.d4_asymptote_md == pytest.approx(
        math.exp(-4.0) / 2.0, rel=1e-15)
    assert res.d4_asymptote_mdcr == pytest.approx(
        math.exp(-4.0) / 2.0, rel=1e-15)
    assert res.product_bound == pytest.approx(math.exp(-8.0) / 4.0, rel=1e-15)


def test_asymptote_branch_shrinking_targets():
    res = high_rate_asymptote(AsymptoticConfig(b=2.0, eta=0.3), 2.0, 0.0)
    assert res.d4_asymptote_md == pytest.approx(
        math.exp(-2.0 * 1.3 * 2.0) / 8.0, rel=1e-15)
    # eta1 < eta loses the sharper constant.
    assert res.d4_asymptote_mdcr == res.d4_asymptote_md


def test_asymptote_conditional_refinement_keeps_sharper_constant():
    res = high_rate_asymptote(AsymptoticConfig(b=1.0, eta=0.3), 2.0, 0.3)
    assert res.d4_asymptote_mdcr == pytest.approx(
        math.exp(-2.0 * 1.3 * 2.0) / 2.0, rel=1e-15)
    assert res.d4_asymptote_md == pytest.approx(
        math.exp(-2.0 * 1.3 * 2.0) / 4.0, rel=1e-15)
    # The plain system loses exactly a factor of two at b = 1.
    assert res.d4_asymptote_md / res.d4_asymptote_mdcr == pytest.approx(
        0.5, rel=1e-14)


def test_asymptote_constant_survives_an_overflowing_b_squared():
    # b * b overflows past ~1.3e154; 2 (b + sqrt(b^2 - 1)) does not until
    # b ~ 4.5e307, and beyond that the constant is out of range.
    for b in (1e200, 4e307):
        res = high_rate_asymptote(AsymptoticConfig(b=b, eta=0.0), 1.0, 0.0)
        with mpmath.workdps(oracle.DPS):
            mb = mpmath.mpf(b)
            exact = mpmath.exp(-2) / (2 * (mb + mpmath.sqrt(mb * mb - 1)))
        assert res.d4_asymptote_md == pytest.approx(float(exact), rel=1e-15)
        assert res.d4_asymptote_mdcr == res.d4_asymptote_md
    for eta in (0.0, 0.5):
        with pytest.raises(InvalidRegimeInput):
            high_rate_asymptote(AsymptoticConfig(b=1e308, eta=eta), 1.0, eta)


def test_asymptote_constant_keeps_its_digits_near_b_one():
    # sqrt(b^2 - 1) written out cancels as b tends to 1 (b * b - 1 keeps
    # about eps/(b - 1) of relative accuracy); sqrt(b - 1) sqrt(b + 1)
    # does not, so the asymptote stays within 2 eps of 50 digits.
    rng = make_rng(37)
    for _ in range(200):
        b = 1.0 + float(10.0 ** rng.uniform(-12.0, 0.0))
        res = high_rate_asymptote(AsymptoticConfig(b=b, eta=0.0), 1.0, 0.0)
        with mpmath.workdps(oracle.DPS):
            mb = mpmath.mpf(b)
            exact = mpmath.exp(-2) / (2 * (mb + mpmath.sqrt(mb * mb - 1)))
            error = abs(res.d4_asymptote_md - exact) / exact
        assert error <= 2.0 * EPS, (b, float(error) / EPS)


def test_asymptotic_config_validation():
    # The config checks b and eta; each call checks its own r' and eta1.
    with pytest.raises(ValueError, match=r"^r_prime must be positive, got 0\.0$"):
        high_rate_asymptote(AsymptoticConfig(b=1.0, eta=0.0), 0.0, 0.0)
    with pytest.raises(ValueError, match=r"^b must be at least 1, got 0\.5$"):
        AsymptoticConfig(b=0.5, eta=0.0)
    with pytest.raises(ValueError, match=r"^eta must lie in \[0, 1\), got 1\.0$"):
        AsymptoticConfig(b=1.0, eta=1.0)
    with pytest.raises(ValueError,
                       match=r"^eta1 must lie in \[0, eta=0\.2\], got 0\.3$"):
        high_rate_asymptote(AsymptoticConfig(b=1.0, eta=0.2), 1.0, 0.3)


def test_asymptote_convergence_ratio_tends_to_one():
    config = AsymptoticConfig(b=1.0, eta=0.0)
    rows = asymptote_convergence(config, [1.0, 2.0, 4.0, 8.0])
    assert [row.r_prime for row in rows] == [1.0, 2.0, 4.0, 8.0]
    drift = [abs(row.ratio - 1.0) for row in rows]
    assert drift[-1] < drift[0]
    assert abs(rows[-1].ratio - 1.0) <= 0.05
    for row in rows:
        assert row.exact > 0.0 and row.asymptote > 0.0
        assert row.ratio == pytest.approx(row.exact / row.asymptote, rel=1e-15)


def test_asymptote_convergence_matches_the_oracle():
    # Side targets b exp(-2 (1-eta) r') and the numerator exp(-4 r') carry
    # exponents up to 4 r', each rounded argument moving its term by that
    # magnitude times eps, and sqrt(delta) scales a side target's rounding
    # by kappa = max(1, sqrt(ab/delta)): each entry of a row stays within
    # 2 eps (1 + 4 r') kappa.
    rng = make_rng(31)
    for i in range(40):
        b = 1.0 if i % 4 == 0 else float(10.0 ** rng.uniform(0.0, 3.0))
        eta = 0.0 if i % 3 == 0 else float(rng.uniform(0.0, 0.9))
        grid = sorted({float(r) for r in rng.uniform(1.0, 150.0, size=3)})
        rows = asymptote_convergence(AsymptoticConfig(b, eta), grid)
        # 1 - pi ~ exp(-2 (1-eta) r') needs 400 digits at r' = 150.
        exact = oracle.mp_asymptote_convergence(b, eta, grid, dps=400)
        for row, oracle_row in zip(rows, exact):
            rp = row.r_prime
            side = b * math.exp(-2.0 * (1.0 - eta) * rp)
            rtol = (2.0 * EPS * (1.0 + 4.0 * rp)
                    * oracle.mp_floor_conditioning(1.0, (0.0, rp, rp, 0.0), side, side))
            for value, want in zip((row.exact, row.asymptote, row.ratio), oracle_row):
                assert abs(value - want) <= rtol * want, (b, eta, rp, value, want)


def test_asymptote_convergence_validates_grid():
    config = AsymptoticConfig(b=1.0, eta=0.0)
    with pytest.raises(ValueError):
        asymptote_convergence(config, [])
    with pytest.raises(ValueError):
        asymptote_convergence(config, [0.5, 2.0])
    with pytest.raises(ValueError):
        asymptote_convergence(config, [2.0, 2.0])


def _md_slice_with(monkeypatch, field):
    # md_region_slice with dr_bound's pi or delta moved by 0.25, so that its
    # specialized closed form no longer matches.
    bound = analysis.dr_bound

    def moved(*args):
        result = bound(*args)
        return dataclasses.replace(result, **{field: getattr(result, field) + 0.25})

    monkeypatch.setattr(analysis, "dr_bound", moved)
    return md_region_slice(GaussianSource(1.0), RateTuple(0.5, 0.4, 0.6, 0.0), 0.3)


@pytest.mark.parametrize("call, message", [
    # exp(-800) underflows: d1* at r1 = 400, and 1 - pi = exp(-2 r2) +
    # (1 - exp(-2 r2)) b at r2 = 400 with b = 1e-320.
    (lambda mp: wz_md_sweep(GaussianSource(1.0), RateTuple(400.0, 0.5, 1.0, 0.5), 3),
     "first-layer floor d1* = var exp(-2 r1) = 0.0 underflows at r1 = 400.0; "
     "the second user's targets cannot be swept"),
    (lambda mp: wz_region(GaussianSource(1.0), RateTuple(0.0, 400.0, 400.0, 0.0), 1e-320),
     "1 - pi = exp(-2 r2) + (1 - exp(-2 r2)) b = 1e-320 is below the normal "
     "double range (r2=400.0, b=1e-320)"),
    (lambda mp: _md_slice_with(mp, "pi"),
     "pi specialization mismatch: 0.10160731479311585 vs 0.35160731479311585"),
    (lambda mp: _md_slice_with(mp, "delta"),
     "delta specialization mismatch: 0.2310855442114382 vs 0.4810855442114382"),
], ids=["wz-sweep-d1", "wz-den", "md-slice-pi", "md-slice-delta"])
def test_analysis_guards_raise_their_message(monkeypatch, call, message):
    with pytest.raises(InvalidRegimeInput) as raised:
        call(monkeypatch)
    assert str(raised.value) == message
