"""Unit tests for the closed-form region boundaries and their cross-checks."""

from __future__ import annotations

import dataclasses
import itertools
import math
import struct
import sys
import types
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gaussrd import (
    DistortionTuple,
    GaussianSource,
    InfeasibleDistortion,
    InvalidRegimeInput,
    OutOfRegime,
    RateTuple,
    Regime,
    UNCONSTRAINED,
    certify_achievability,
    converse_witness,
    default_grid,
    dr_bound,
    equivalence_scan,
    feasible_individual,
    maximize_t_numeric,
    rd_bound,
    t_of_epsilon,
)
from gaussrd import regions
from gaussrd.errors import NegativeDelta
from gaussrd.model import FEASIBILITY_RTOL, _over_ceiling, _require_floors
from gaussrd.regions import (BOUNDARY_RTOL, EquivalenceReport, GridSpec,
                             rate_to_reach)
from gaussrd.selfcheck import sample_witness_instance

from conftest import (
    GOLDEN_D2,
    GOLDEN_D3,
    GOLDEN_D4_BOUND,
    GOLDEN_DELTA,
    GOLDEN_EPS_STAR,
    GOLDEN_PI,
    GOLDEN_R2_BOUND,
    GOLDEN_RATES,
    GOLDEN_T_BOUND,
    make_rng,
)
from oracle import invert_dr_sum_rate


def _golden_point():
    return (GaussianSource(variance=1.0), RateTuple(*GOLDEN_RATES),
            GOLDEN_D2, GOLDEN_D3)


# ---------------------------------------------------------------------------
# Distortion-rate bound
# ---------------------------------------------------------------------------

def test_dr_bound_frozen_reference_values():
    source, rates, d2, d3 = _golden_point()
    res = dr_bound(source, rates, UNCONSTRAINED, d2, d3)
    assert res.regime is Regime.NON_DEGENERATE
    assert res.d1_star == 1.0
    assert res.d2_hat == d2
    assert res.d3_hat == d3
    assert res.pi == GOLDEN_PI
    assert res.delta == GOLDEN_DELTA
    assert res.d4_bound == GOLDEN_D4_BOUND


def test_dr_bound_trivial_at_zero_rates():
    source = GaussianSource(variance=1.0)
    res = dr_bound(source, RateTuple(0.0, 0.0, 0.0, 0.0), 1.0, 1.0, 1.0)
    assert res.d4_bound == 1.0
    assert res.pi == 0.0
    assert res.delta == 0.0


def test_dr_bound_degenerate_when_targets_too_generous():
    # d2 = d3 = d1_star leaves pi = 0 while positive rates make delta > 0,
    # so the penalty collapses and the bound is the pure exponential floor.
    source = GaussianSource(variance=1.0)
    rates = RateTuple(0.0, 0.5, 0.5, 0.0)
    res = dr_bound(source, rates, UNCONSTRAINED, 1.0, 1.0)
    assert res.regime is Regime.DEGENERATE_PI_LESS_DELTA
    assert res.pi == 0.0
    assert res.delta == pytest.approx(1.0 - math.exp(-2.0), rel=1e-15)
    assert res.d4_bound == pytest.approx(math.exp(-2.0), rel=1e-15)


def test_dr_bound_rejects_targets_below_their_floors():
    source = GaussianSource(variance=1.0)
    rates = RateTuple(0.5, 0.5, 0.5, 0.0)
    floor2 = math.exp(-2.0)
    with pytest.raises(InfeasibleDistortion):
        dr_bound(source, rates, UNCONSTRAINED, floor2 * 0.99, 0.5)
    with pytest.raises(InfeasibleDistortion):
        dr_bound(source, rates, math.exp(-1.0) * 0.99, 0.5, 0.5)
    with pytest.raises(InfeasibleDistortion):
        dr_bound(source, rates, UNCONSTRAINED, -0.1, 0.5)


def test_dr_bound_clamps_targets_above_first_layer():
    # Targets above d1_star cannot help the central decoder; the bound must
    # be identical whether they sit at d1_star or far above it.
    source = GaussianSource(variance=1.0)
    rates = RateTuple(0.3, 0.4, 0.5, 0.2)
    d1s = math.exp(-0.6)
    res_clamped = dr_bound(source, rates, UNCONSTRAINED, d1s, 5.0)
    res_wide = dr_bound(source, rates, UNCONSTRAINED, 17.0, 5.0)
    assert res_wide.d4_bound == res_clamped.d4_bound
    assert res_wide.d2_hat == d1s


def test_dr_bound_snaps_delta_to_zero_at_the_rate_floors():
    # Side targets exactly at their floors make delta identically zero; the
    # implementation must not leak square-root-of-rounding noise.
    source = GaussianSource(variance=1.0)
    for r1, r2, r3 in ((0.0, 2.9, 2.9), (0.7, 1.3, 2.1), (1.5, 3.0, 3.0)):
        rates = RateTuple(r1, r2, r3, 0.5)
        d1s = math.exp(-2.0 * r1)
        res = dr_bound(source, rates, UNCONSTRAINED,
                       d1s * math.exp(-2.0 * r2), d1s * math.exp(-2.0 * r3))
        assert res.delta == 0.0
        assert res.regime is Regime.NON_DEGENERATE


def test_dr_bound_and_certification_accept_targets_at_the_floor_band_edge():
    # Both side targets FEASIBILITY_RTOL below their floors pass the floor
    # test, and push delta about 2 FEASIBILITY_RTOL s below zero; the bound
    # and the forward construction must treat that as delta = 0.
    source = GaussianSource(variance=1.0)
    rates = RateTuple(0.2, 0.5, 0.7, 0.1)
    d1s = math.exp(-2.0 * rates.r1)
    d2 = d1s * math.exp(-2.0 * rates.r2) * (1.0 - FEASIBILITY_RTOL)
    d3 = d1s * math.exp(-2.0 * rates.r3) * (1.0 - FEASIBILITY_RTOL)
    assert feasible_individual(source, rates,
                               DistortionTuple(UNCONSTRAINED, d2, d3, 1.0))
    res = dr_bound(source, rates, UNCONSTRAINED, d2, d3)
    assert res.delta == 0.0
    assert res.regime is Regime.NON_DEGENERATE
    assert certify_achievability(source, rates, d2, d3).matches_bound


def test_side_ratios_reject_an_underflowed_first_layer_floor():
    # d1_star = exp(-800) underflows to 0; the ratios d_i / d1_star are
    # undefined and must raise a typed error, not ZeroDivisionError.
    source = GaussianSource(variance=1.0)
    with pytest.raises(InvalidRegimeInput):
        dr_bound(source, RateTuple(400.0, 0.0, 0.0, 0.0), UNCONSTRAINED, 0.5, 0.5)
    with pytest.raises(InvalidRegimeInput):
        rd_bound(source, 400.0, 0.0, DistortionTuple(UNCONSTRAINED, 0.5, 0.5, 0.1))


def test_dr_bound_within_exponential_floor_penalty():
    # The denominator lies in (0, 1], so the bound is at least the no-penalty
    # exponential and at most d1_star (reachable points only).
    rng = make_rng(101)
    source = GaussianSource(variance=1.0)
    for _ in range(300):
        rates = RateTuple(*(3.0 * rng.random(4)))
        d1s = math.exp(-2.0 * rates.r1)
        d2 = d1s * math.exp(-2.0 * rates.r2 * rng.random())
        d3 = d1s * math.exp(-2.0 * rates.r3 * rng.random())
        res = dr_bound(source, rates, UNCONSTRAINED, d2, d3)
        floor = math.exp(-2.0 * rates.total())
        assert res.d4_bound >= floor * (1.0 - 1e-12)
        assert res.d4_bound <= d1s * math.exp(-2.0 * rates.r4) * (1.0 + 1e-12)


def test_dr_bound_monotone_in_rates_and_targets():
    source = GaussianSource(variance=1.0)
    rng = make_rng(103)
    for _ in range(100):
        rates = RateTuple(*(1.0 + rng.random(4)))
        d1s = math.exp(-2.0 * rates.r1)
        d2 = d1s * math.exp(-2.0 * rates.r2 * rng.uniform(0.1, 0.9))
        d3 = d1s * math.exp(-2.0 * rates.r3 * rng.uniform(0.1, 0.9))
        base = dr_bound(source, rates, UNCONSTRAINED, d2, d3).d4_bound
        # More rate anywhere can only lower the achievable central distortion.
        for bumped in (RateTuple(rates.r1 + 0.1, rates.r2, rates.r3, rates.r4),
                       RateTuple(rates.r1, rates.r2, rates.r3, rates.r4 + 0.1)):
            assert dr_bound(source, bumped, UNCONSTRAINED, d2, d3).d4_bound \
                <= base * (1.0 + 1e-12)
        # Looser side targets can only lower the bound as well.
        assert dr_bound(source, rates, UNCONSTRAINED, d2 * 1.05, d3).d4_bound \
            <= base * (1.0 + 1e-12)
        assert dr_bound(source, rates, UNCONSTRAINED, d2, d3 * 1.05).d4_bound \
            <= base * (1.0 + 1e-12)


def test_dr_bound_scales_with_source_variance():
    rates = RateTuple(0.2, 0.6, 0.4, 0.1)
    small = dr_bound(GaussianSource(variance=1.0), rates, UNCONSTRAINED, 0.4, 0.5)
    big = dr_bound(GaussianSource(variance=4.0), rates, UNCONSTRAINED, 1.6, 2.0)
    assert big.d4_bound == pytest.approx(4.0 * small.d4_bound, rel=1e-14)
    assert big.pi == pytest.approx(small.pi, rel=1e-14)
    assert big.delta == pytest.approx(small.delta, rel=1e-14)


# ---------------------------------------------------------------------------
# Converse witness
# ---------------------------------------------------------------------------

def test_witness_frozen_reference_values():
    source, rates, d2, d3 = _golden_point()
    wit = converse_witness(source, rates, UNCONSTRAINED, d2, d3)
    assert wit.pi_star == GOLDEN_PI
    assert wit.delta_star == GOLDEN_DELTA
    assert wit.epsilon_star == GOLDEN_EPS_STAR
    assert wit.t_bound == GOLDEN_T_BOUND


def test_witness_bound_consistent_with_dr_penalty():
    # t_bound is exactly the d4 penalty factor of the distortion-rate bound.
    source, rates, d2, d3 = _golden_point()
    wit = converse_witness(source, rates, UNCONSTRAINED, d2, d3)
    res = dr_bound(source, rates, UNCONSTRAINED, d2, d3)
    floor = math.exp(-2.0 * rates.total())
    assert res.d4_bound == pytest.approx(floor * wit.t_bound, rel=1e-14)


def test_witness_requires_targets_below_first_layer():
    source = GaussianSource(variance=1.0)
    rates = RateTuple(0.5, 0.5, 0.5, 0.0)
    d1s = math.exp(-1.0)
    with pytest.raises(OutOfRegime):
        converse_witness(source, rates, UNCONSTRAINED, d1s * 1.5, d1s * 0.8)


@pytest.mark.parametrize("variance, d2, d3", [
    (1.0, 1.5 * math.exp(-1.0), 0.8 * math.exp(-1.0)), (1e-300, 1e9, 1e9)])
def test_numeric_maximizer_requires_targets_below_first_layer(variance, d2, d3):
    # At 1e-300 the targets scaled by 2^996 overflowed.
    with pytest.raises(OutOfRegime):
        maximize_t_numeric(GaussianSource(variance), RateTuple(0.5, 0.5, 0.5, 0.0),
                           UNCONSTRAINED, d2, d3)


def test_witness_degenerate_supremum_is_trivial():
    # pi* < delta*: the bound degrades to t = 1 approached only as eps -> inf.
    source = GaussianSource(variance=1.0)
    rates = RateTuple(0.0, 1.5, 1.5, 0.0)
    wit = converse_witness(source, rates, UNCONSTRAINED, 0.9, 0.9)
    assert wit.pi_star < wit.delta_star
    assert math.isinf(wit.epsilon_star)
    assert wit.t_bound == 1.0


def test_witness_agrees_with_numeric_maximizer():
    rng = make_rng(107)
    source = GaussianSource(variance=1.0)
    checked = 0
    while checked < 100:
        rates = RateTuple(0.0, float(rng.uniform(0.1, 2.0)),
                          float(rng.uniform(0.1, 2.0)), 0.0)
        d2 = math.exp(-2.0 * rates.r2 * rng.uniform(0.05, 0.95))
        d3 = math.exp(-2.0 * rates.r3 * rng.uniform(0.05, 0.95))
        wit = converse_witness(source, rates, UNCONSTRAINED, d2, d3)
        if not math.isfinite(wit.epsilon_star):
            continue
        _, t_num = maximize_t_numeric(source, rates, UNCONSTRAINED, d2, d3)
        assert abs(wit.t_bound - t_num) <= 1e-6 * max(1.0, wit.t_bound)
        # The closed form can never be beaten by the numeric search.
        assert t_num <= wit.t_bound * (1.0 + 1e-9)
        checked += 1


@pytest.mark.parametrize("variance", [1e-300, 1e-154, 1e154, 1e300])
def test_numeric_maximizer_meets_the_witness_at_extreme_variances(variance):
    # Unscaled, (d2 + eps)(d3 + eps) overflows or underflows here: 1e154
    # read residual 1.0, and the other three raised InvalidRegimeInput.
    rng = make_rng(154)
    source = GaussianSource(variance)
    for _ in range(40):
        rates, d2, d3 = sample_witness_instance(rng)
        d2, d3 = d2 * variance, d3 * variance
        wit = converse_witness(source, rates, UNCONSTRAINED, d2, d3)
        eps, t_num = maximize_t_numeric(source, rates, UNCONSTRAINED, d2, d3)
        assert abs(wit.t_bound - t_num) <= 1e-6 * wit.t_bound
        assert regions.EPS_LO * variance <= eps <= regions.EPS_HI * variance


@pytest.mark.parametrize("power", [-900, -512, 512, 900])
def test_numeric_maximizer_is_exact_under_a_power_of_two_variance(power):
    # A power-of-two variance scales every length exactly, so the maximizer
    # returns the unit-variance t and a scaled eps, bit for bit.
    rng = make_rng(155)
    scale = 2.0 ** power
    for _ in range(10):
        rates, d2, d3 = sample_witness_instance(rng)
        eps, t_num = maximize_t_numeric(GaussianSource(1.0), rates, UNCONSTRAINED, d2, d3)
        assert (maximize_t_numeric(GaussianSource(scale), rates, UNCONSTRAINED,
                                   d2 * scale, d3 * scale)
                == (math.ldexp(eps, power), t_num))


def test_t_of_epsilon_evaluates_the_witness_point():
    source, rates, d2, d3 = _golden_point()
    val = t_of_epsilon(GOLDEN_EPS_STAR, 1.0, d2, d3, rates.r2 + rates.r3)
    assert val == pytest.approx(GOLDEN_T_BOUND, rel=1e-12)
    # Perturbing the slack in either direction can only decrease the bound.
    for eps in (GOLDEN_EPS_STAR * 0.9, GOLDEN_EPS_STAR * 1.1):
        assert t_of_epsilon(eps, 1.0, d2, d3, rates.r2 + rates.r3) < val


def test_t_of_epsilon_rejects_nonpositive_denominator():
    # At eps = 0 with both targets on their floors the denominator vanishes.
    with pytest.raises(InvalidRegimeInput):
        t_of_epsilon(0.0, 1.0, math.exp(-1.0), math.exp(-1.0), 1.0)


# ---------------------------------------------------------------------------
# Rate-distortion bound and the sum-rate inversion oracle
# ---------------------------------------------------------------------------

def test_rd_bound_frozen_reference_values():
    source = GaussianSource(variance=1.0)
    dist = DistortionTuple(UNCONSTRAINED, GOLDEN_D2, GOLDEN_D3, GOLDEN_D4_BOUND)
    res = rd_bound(source, 0.0, 0.0, dist)
    assert res.r1_star == 0.0
    assert res.r2_bound == GOLDEN_R2_BOUND
    assert res.r3_bound == GOLDEN_R2_BOUND
    assert res.sum_bound == 1.0
    assert res.regime is Regime.RD_EXCESS


def test_rd_bound_first_layer_requirement():
    source = GaussianSource(variance=1.0)
    dist = DistortionTuple(0.5, 0.6, 0.6, 0.6)
    res = rd_bound(source, 0.5, 0.0, dist)
    assert res.r1_star == pytest.approx(0.5 * math.log(2.0), rel=1e-15)
    with pytest.raises(InfeasibleDistortion):
        rd_bound(source, 0.25, 0.0, dist)


def _refuses(error, call, *args) -> bool:
    try:
        call(*args)
    except error:
        return True
    return False


def test_both_characterizations_refuse_the_same_first_layer_targets():
    # d1 within 3e-12 of its floor d1* = var exp(-2 r1): dr_bound and rd_bound
    # run one floor test, so each refuses d1 exactly where the other does,
    # and exactly where feasible_individual is false.
    rng = make_rng(2101)
    refused = 0
    for _ in range(2000):
        r1, var = 10.0 ** rng.uniform(-4.0, 1.5), 10.0 ** rng.uniform(-3.0, 3.0)
        d1s = var * math.exp(-2.0 * r1)
        dist = DistortionTuple(d1s * (1.0 + rng.uniform(-3e-12, 3e-12)),
                               0.9 * d1s, 0.9 * d1s, 0.2 * d1s)
        source, rates = GaussianSource(var), RateTuple(r1, 0.5, 0.5, 0.0)
        infeasible = not feasible_individual(source, rates, dist)
        assert _refuses(InfeasibleDistortion, dr_bound, source, rates,
                        dist.d1, dist.d2, dist.d3) is infeasible
        assert _refuses(InfeasibleDistortion, rd_bound, source, r1, 0.0,
                        dist) is infeasible
        refused += infeasible
    assert 0 < refused < 2000


def test_witness_and_channel_share_the_side_target_ceiling():
    # d2 up to 2.5e-12 above d1* at r2 = 0, d3 on its floor, so pi = delta =
    # 0: the witness's OutOfRegime comes from model._over_ceiling, the one
    # ceiling test, so it fires exactly where that test flags d2 (the channel
    # clamps d2 to d1* instead).
    rng = make_rng(2102)
    refused = 0
    for _ in range(2000):
        r1, var = 10.0 ** rng.uniform(-4.0, 1.5), 10.0 ** rng.uniform(-3.0, 3.0)
        d1s = var * math.exp(-2.0 * r1)
        source, rates = GaussianSource(var), RateTuple(r1, 0.0, 0.5, 0.0)
        d2, d3 = d1s * (1.0 + rng.uniform(0.0, 2.5e-12)), d1s * math.exp(-1.0)
        out = _refuses(OutOfRegime, converse_witness, source, rates, UNCONSTRAINED,
                       d2, d3)
        over = _over_ceiling(d2, dr_bound(source, rates, UNCONSTRAINED, d2, d3).d1_star)
        assert out is over
        refused += over
    assert 0 < refused < 2000


def test_rd_bound_slack_regime_when_central_target_is_loose():
    # d2 = d3 = d1_star: the harmonic threshold equals 1, so any z >= 1 means
    # the individual constraints already cover the sum.
    source = GaussianSource(variance=1.0)
    dist = DistortionTuple(UNCONSTRAINED, 1.0, 1.0, 1.0)
    res = rd_bound(source, 0.0, 0.0, dist)
    assert res.regime is Regime.RD_SLACK
    assert res.sum_bound == 0.0
    assert res.r2_bound == 0.0
    assert res.r3_bound == 0.0


def test_rd_bound_low_regime_formula():
    # Small central target drives z below a + b - 1, where the plain
    # single-user function R(z) is the whole sum bound.
    source = GaussianSource(variance=1.0)
    dist = DistortionTuple(UNCONSTRAINED, 0.9, 0.95, 0.25)
    res = rd_bound(source, 0.0, 0.0, dist)
    assert res.regime is Regime.RD_LOW
    assert res.excess == 0.0
    assert res.sum_bound == pytest.approx(-0.5 * math.log(0.25), rel=1e-14)


def test_rd_bound_excess_term_is_positive_between_thresholds():
    source = GaussianSource(variance=1.0)
    dist = DistortionTuple(UNCONSTRAINED, GOLDEN_D2, GOLDEN_D3, GOLDEN_D4_BOUND)
    res = rd_bound(source, 0.0, 0.0, dist)
    assert res.excess > 0.0
    assert res.sum_bound == pytest.approx(
        rate_to_reach(res.d4_hat) + res.excess, rel=1e-14)


def test_rd_bound_refinement_rate_rescales_central_target():
    # Spending r4 is exactly equivalent to relaxing d4 by exp(2 r4).
    source = GaussianSource(variance=1.0)
    base = rd_bound(source, 0.0, 0.0,
                    DistortionTuple(UNCONSTRAINED, 0.45, 0.45, 0.2))
    shifted = rd_bound(source, 0.0, 0.3,
                       DistortionTuple(UNCONSTRAINED, 0.45, 0.45,
                                       0.2 * math.exp(-0.6)))
    assert shifted.d4_hat == pytest.approx(base.d4_hat, rel=1e-14)
    assert shifted.sum_bound == pytest.approx(base.sum_bound, rel=1e-13)


def test_rd_bound_sum_rate_matches_bisection_oracle():
    rng = make_rng(109)
    source = GaussianSource(variance=1.0)
    for _ in range(200):
        r1 = float(rng.uniform(0.0, 1.0))
        d1s = math.exp(-2.0 * r1)
        d2 = d1s * rng.uniform(0.15, 0.999)
        d3 = d1s * rng.uniform(0.15, 0.999)
        d4 = d1s * rng.uniform(0.01, 1.2)
        res = rd_bound(source, r1, 0.0,
                       DistortionTuple(UNCONSTRAINED, d2, d3, d4))
        oracle = invert_dr_sum_rate(source, r1, d2, d3, d4)
        assert abs(res.sum_bound - oracle) <= 1e-8 * max(1.0, res.sum_bound), (
            f"regime={res.regime}, closed={res.sum_bound}, oracle={oracle}"
        )


@pytest.mark.parametrize("variance, k", [(1.0, 6), (3.7, 7)])
def test_rd_bound_at_the_dr_bound_returns_the_sum_rate(variance, k):
    # The two characterizations meet on the boundary itself: at the central
    # target d4 = dr_bound(...).d4_bound the sum-rate bound is r2 + r3, and
    # the regimes pair one to one (the slack regime cannot hold there).
    source = GaussianSource(variance)
    grid = default_grid(source, k)
    pairs = Counter()
    worst = 0.0
    for r1, r2, r3, r4 in itertools.product(grid.r1_values, grid.r2_values,
                                            grid.r3_values, grid.r4_values):
        rates = RateTuple(r1, r2, r3, r4)
        for d1, d2, d3 in itertools.product(grid.d1_values, grid.d2_values,
                                            grid.d3_values):
            try:
                dr = dr_bound(source, rates, d1, d2, d3)
            except InfeasibleDistortion:
                continue
            rd = rd_bound(source, r1, r4, DistortionTuple(d1, d2, d3, dr.d4_bound))
            worst = max(worst, abs(rd.sum_bound - (r2 + r3)) / (r2 + r3))
            pairs[dr.regime, rd.regime] += 1
    assert worst <= 4.0 * sys.float_info.epsilon
    assert set(pairs) == {(Regime.DEGENERATE_PI_LESS_DELTA, Regime.RD_LOW),
                          (Regime.NON_DEGENERATE, Regime.RD_EXCESS)}


def test_rd_bound_boundary_ties_are_stable():
    source = GaussianSource(variance=1.0)
    a = b = 0.7
    low_thr = a + b - 1.0
    harmonic_thr = 1.0 / (1.0 / a + 1.0 / b - 1.0)
    for thr, expected in ((low_thr, Regime.RD_LOW), (harmonic_thr, Regime.RD_SLACK)):
        for nudge in (1.0 - 1e-13, 1.0, 1.0 + 1e-13):
            dist = DistortionTuple(UNCONSTRAINED, a, b, thr * nudge)
            res = rd_bound(source, 0.0, 0.0, dist)
            assert res.regime is expected
            # Continuity: the reported bound never jumps across the seam.
            exact = rd_bound(source, 0.0, 0.0,
                             DistortionTuple(UNCONSTRAINED, a, b, thr))
            assert abs(res.sum_bound - exact.sum_bound) <= 1e-9


def test_invert_dr_sum_rate_slack_short_circuit():
    source = GaussianSource(variance=1.0)
    assert invert_dr_sum_rate(source, 0.0, 1.0, 1.0, 1.5) == 0.0


def test_rate_to_reach_basics():
    assert rate_to_reach(1.0) == 0.0
    assert rate_to_reach(0.5) == pytest.approx(0.5 * math.log(2.0), rel=1e-15)
    assert rate_to_reach(2.0) == 0.0  # ratios above one need no rate
    with pytest.raises(InvalidRegimeInput, match="d1/var underflows"):
        rate_to_reach(0.0, "d1/var")


# ---------------------------------------------------------------------------
# Equivalence scan between the two characterizations
# ---------------------------------------------------------------------------

def test_default_grid_size_and_validation():
    source = GaussianSource(variance=1.0)
    grid = default_grid(source, 3)
    assert grid.total_points() == 4 * 3 ** 5
    with pytest.raises(ValueError):
        default_grid(source, 1)


def test_equivalence_scan_small_grid_has_no_mismatches():
    source = GaussianSource(variance=1.0)
    report = equivalence_scan(source, default_grid(source, 3))
    assert report.mismatch_count == 0
    assert report.evaluated > 0
    assert report.evaluated + report.skipped_infeasible + report.boundary \
        == 4 * 3 ** 5
    assert report.in_both > 0
    assert report.out_both > 0


def test_equivalence_scan_covers_all_three_regimes():
    source = GaussianSource(variance=1.0)
    report = equivalence_scan(source, default_grid(source, 4))
    for regime in (Regime.RD_LOW, Regime.RD_SLACK, Regime.RD_EXCESS):
        assert report.regime_counts.get(regime.value, 0) > 0


def test_equivalence_scan_two_description_slice():
    # r1 = r4 = 0 restricts the scan to the classic two-description region.
    source = GaussianSource(variance=1.0)
    grid = GridSpec(
        r1_values=(0.0,), r4_values=(0.0,), d1_values=(UNCONSTRAINED,),
        d2_values=(0.3, 0.45, 0.7), d3_values=(0.35, 0.5, 0.9),
        r2_values=(0.2, 0.5, 0.9), r3_values=(0.25, 0.55, 1.0),
        d4_values=(0.05, 0.15, 0.5, 1.0),
    )
    report = equivalence_scan(source, grid)
    assert report.mismatch_count == 0
    assert report.evaluated + report.skipped_infeasible + report.boundary \
        == grid.total_points()


def test_equivalence_scan_counts_infeasible_points():
    source = GaussianSource(variance=1.0)
    grid = GridSpec(
        r1_values=(0.5,), r4_values=(0.0,), d1_values=(UNCONSTRAINED,),
        d2_values=(0.01,),  # below the r2 floor everywhere
        d3_values=(0.3,), r2_values=(0.5,), r3_values=(0.5,),
        d4_values=(0.1, 0.2),
    )
    report = equivalence_scan(source, grid)
    assert report.skipped_infeasible == grid.total_points()
    assert report.evaluated == 0


def _reference_d1_star(var: float, r1: float) -> float:
    """``var e^{-2 r1}``: the double product while ``e^{-2 r1}`` is normal,
    else the 50-digit value rounded once."""
    factor = math.exp(-2.0 * r1)
    if factor >= sys.float_info.min:
        return var * factor
    with mpmath.workdps(50):
        return float(mpmath.mpf(var) * mpmath.exp(-2 * mpmath.mpf(r1)))


def _reference_margin(d, floor: float) -> float:
    """``(d - floor)/floor``: inf for an unconstrained target or a floor that
    underflowed, -inf for a target that is not positive."""
    if d is UNCONSTRAINED:
        return math.inf
    if not d > 0.0:
        return -math.inf
    return (d - floor) / floor if floor > 0.0 else math.inf


def _reference_scan(source, grid) -> EquivalenceReport:
    """The scan as a plain loop: ``dr_bound`` and ``rd_bound`` are called for
    every grid point, through the module so that a patched bound reaches
    both this loop and :func:`equivalence_scan`.  A d4 bound that underflows
    to 0 leaves its margin undefined, which the scan refuses with
    :class:`InvalidRegimeInput`; so does this loop, in the scan's words."""
    report = EquivalenceReport()
    tol = regions.BOUNDARY_RTOL
    for r1, r4, d1, r2, r3, d2, d3, d4 in itertools.product(
            grid.r1_values, grid.r4_values, grid.d1_values, grid.r2_values,
            grid.r3_values, grid.d2_values, grid.d3_values, grid.d4_values):
        rates = RateTuple(r1, r2, r3, r4)
        d1s = _reference_d1_star(source.variance, r1)
        base = min(_reference_margin(d1, d1s),
                   _reference_margin(d2, d1s * math.exp(-2.0 * r2)),
                   _reference_margin(d3, d1s * math.exp(-2.0 * r3)))
        if base < -tol:
            report.skipped_infeasible += 1
            continue
        if base <= tol:
            report.floor_band += 1
            report.boundary += 1
            continue
        d4_bound = regions.dr_bound(source, rates, d1, d2, d3).d4_bound
        if not d4_bound:
            raise InvalidRegimeInput(
                f"d4 bound underflows to 0 at rates {(r1, r2, r3, r4)}; the "
                f"margin (d4 - d4_bound)/d4_bound is undefined")
        rd = regions.rd_bound(source, r1, r4, DistortionTuple(d1, d2, d3, d4))
        key = rd.regime.value
        report.evaluated += 1
        report.regime_counts[key] = report.regime_counts.get(key, 0) + 1
        m_dr = (d4 - d4_bound) / d4_bound
        m_rd = (r2 + r3) - rd.sum_bound
        if not abs(m_dr) > tol or not abs(m_rd) > tol:  # NaN is boundary
            report.boundary += 1
        elif (m_dr > 0.0) != (m_rd > 0.0):
            report.mismatches.append({
                "rates": (r1, r2, r3, r4),
                "d": (None if d1 is UNCONSTRAINED else d1, d2, d3, d4),
                "dr_margin": m_dr,
                "rd_margin": m_rd,
                "regime": key,
            })
        elif m_dr > 0.0:
            report.in_both += 1
        else:
            report.out_both += 1
    return report


def _jittered_grid(seed: int):
    """A k=4 ``default_grid`` at a random variance, each value moved by up
    to 5%."""
    rng = make_rng(seed)
    source = GaussianSource(float(10.0 ** rng.uniform(-3.0, 3.0)))
    grid = default_grid(source, 4)
    return source, dataclasses.replace(grid, **{
        f.name: tuple(float(v * (1.0 + rng.uniform(-0.05, 0.05)))
                      for v in getattr(grid, f.name))
        for f in dataclasses.fields(grid) if f.name != "d1_values"})


def _float_d1_grid():
    # d1* is 1 at r1 = 0, above every float d1 here, and exp(-0.7) ~ 0.497
    # at r1 = 0.35, above 0.3 only.
    source = GaussianSource(variance=1.0)
    grid = dataclasses.replace(default_grid(source, 3),
                               d1_values=(UNCONSTRAINED, 0.3, 0.6, 0.9))
    return source, grid


def _duplicated_axes_grid():
    source = GaussianSource(variance=1.0)
    grid = default_grid(source, 3)
    return source, dataclasses.replace(grid, **{
        f.name: getattr(grid, f.name) + getattr(grid, f.name)[:1]
        for f in dataclasses.fields(grid)})


def _floor_band_grid():
    # Side targets on their floors at r2 = 0.3 and r3 = 0.4, and 5e-10
    # relative above and below them: inside the 1e-9 floor band.
    source = GaussianSource(variance=1.0)
    f2 = math.exp(-2.0 * 0.35) * math.exp(-2.0 * 0.3)
    f3 = math.exp(-2.0 * 0.35) * math.exp(-2.0 * 0.4)
    band = (1.0 - 5e-10, 1.0, 1.0 + 5e-10)
    grid = GridSpec(
        r1_values=(0.35,), r4_values=(0.0, 0.25), d1_values=(UNCONSTRAINED,),
        d2_values=tuple(f2 * c for c in band) + (0.3, 0.45),
        d3_values=tuple(f3 * c for c in band) + (0.25, 0.4),
        r2_values=(0.3, 0.7), r3_values=(0.4, 0.9),
        d4_values=(0.02, 0.08, 0.2, 0.5),
    )
    return source, grid


def _high_rate_grid():
    # var exp(-2 (r1+r2+r3+r4)) ~ exp(-722) lies below the normal range, so
    # the d4 bound goes through _exp_quotient; the side targets sit near
    # d1* / 2, where the penalty is of order 1.
    source = GaussianSource(variance=1.0)
    d1s = math.exp(-600.0)
    bound = math.exp(-722.0)
    grid = GridSpec(
        r1_values=(300.0,), r4_values=(60.0,), d1_values=(UNCONSTRAINED,),
        d2_values=tuple(d1s * c for c in (0.4, 0.5, 0.6)),
        d3_values=tuple(d1s * c for c in (0.45, 0.55, 0.7)),
        r2_values=(0.3, 0.6), r3_values=(0.4, 0.7),
        d4_values=tuple(bound * c for c in (0.3, 0.7, 1.5, 3.0, 6.0)),
    )
    return source, grid


def _subnormal_first_layer_grid():
    # exp(-720) is subnormal, though d1* = 1e308 exp(-720) ~ 2e-5 is normal;
    # d1 and the first side targets sit on their floors.
    source = GaussianSource(1e308)
    d1s = _reference_d1_star(1e308, 360.0)
    grid = GridSpec(
        r1_values=(360.0,), r4_values=(0.0, 0.25), d1_values=(UNCONSTRAINED, d1s),
        d2_values=(d1s * math.exp(-0.6), d1s * math.exp(-1.2), 0.5 * d1s, 0.8 * d1s),
        d3_values=(d1s * math.exp(-0.8), d1s * math.exp(-1.6), 0.45 * d1s, 0.7 * d1s),
        r2_values=(0.3, 0.6), r3_values=(0.4, 0.8),
        d4_values=tuple(d1s * c for c in (0.03, 0.08, 0.2, 0.5)),
    )
    return source, grid


def _extreme_variance_grid(variance: float):
    source = GaussianSource(variance)
    return source, default_grid(source, 3)


def _degenerate_grid():
    # Side targets near d1* at high side rates: delta = ab - exp(-2 (r2+r3))
    # exceeds pi = (1-a)(1-b), so sqrt(delta) >= sqrt(pi) and the penalty is
    # 1; the lowest targets keep some points non-degenerate.
    source = GaussianSource(variance=2.0)
    d1s = 2.0 * math.exp(-2.0 * 0.2)
    grid = GridSpec(
        r1_values=(0.2,), r4_values=(0.0, 0.1), d1_values=(UNCONSTRAINED,),
        d2_values=tuple(d1s * c for c in (0.5, 0.85, 0.99, 1.2)),
        d3_values=tuple(d1s * c for c in (0.45, 0.9, 0.98)),
        r2_values=(0.5, 1.5, 3.0), r3_values=(0.4, 1.2, 2.5),
        d4_values=tuple(d1s * c for c in (0.005, 0.02, 0.05, 0.1, 0.3)),
    )
    return source, grid


#: At r1 = r4 = 0 and unit variance, rd_bound's ``z`` is ``d4`` and its
#: ``(a, b)`` is ``(d2, d3)``.  The side pair (0.5, 0.6) has its harmonic
#: threshold ``ab/(a + b - ab)`` at 0.375, and (0.7, 0.8) its low threshold
#: ``ab - (1-a)(1-b)`` at 0.5.
HARMONIC_THR = 0.5 * 0.6 / (0.5 + 0.6 - 0.5 * 0.6)
LOW_THR = 0.7 * 0.8 - (1.0 - 0.7) * (1.0 - 0.8)


def _threshold_grid(threshold: float, *factors: float):
    source = GaussianSource(variance=1.0)
    grid = GridSpec(
        r1_values=(0.0,), r4_values=(0.0,), d1_values=(UNCONSTRAINED,),
        d2_values=(0.5, 0.7), d3_values=(0.6, 0.8),
        r2_values=(0.4, 0.9), r3_values=(0.3, 1.1),
        d4_values=tuple(threshold * c for c in factors),
    )
    return source, grid


def _harmonic_corner_grid():
    # Within 1e-12 of the harmonic threshold: the corner band, where
    # rd_bound cross-checks two branches.
    return _threshold_grid(HARMONIC_THR, 1.0 - 5e-13, 1.0, 1.0 + 5e-13)


def _harmonic_band_grid():
    # Outside the corner band: within the 1e-9 band around the harmonic
    # threshold, and outside it.
    return _threshold_grid(HARMONIC_THR, 1.0 - 3e-9, 1.0 - 8e-10, 1.0 + 8e-10,
                           1.0 + 3e-9)


def _low_band_grid():
    # Within and outside the 1e-9 band around the low threshold.
    return _threshold_grid(LOW_THR, 1.0 - 3e-9, 1.0 - 8e-10, 1.0, 1.0 + 8e-10,
                           1.0 + 3e-9)


def _z_at_least_one_grid():
    # z = d4 exp(2 r4)/d1_star from just below 1 to past it.
    return _threshold_grid(1.0, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.7)


def _first_layer_rate_grid():
    # At r1 = 0, a float d1 at or above the variance gives r1_star = R(1) =
    # 0, exactly r1; at r1 = 0.35, a d1 just above d1_star gives r1_star
    # just below r1.
    source = GaussianSource(variance=3.0)
    d1s = 3.0 * math.exp(-2.0 * 0.35)
    grid = dataclasses.replace(default_grid(source, 3), d1_values=(
        3.0 * (1.0 + 2e-9), 4.5, d1s * (1.0 + 2e-9), d1s * 1.3))
    return source, grid


@pytest.mark.parametrize("make_grid", [
    lambda: _jittered_grid(11), lambda: _jittered_grid(12),
    lambda: _jittered_grid(13), _float_d1_grid, _duplicated_axes_grid,
    _floor_band_grid, _high_rate_grid,
    lambda: _extreme_variance_grid(1e-300),
    lambda: _extreme_variance_grid(1e300), _degenerate_grid,
    _harmonic_corner_grid, _harmonic_band_grid, _low_band_grid,
    _z_at_least_one_grid, _first_layer_rate_grid, _subnormal_first_layer_grid,
], ids=["jittered-11", "jittered-12", "jittered-13", "float-d1",
        "duplicated-axes", "floor-band", "high-rate", "variance-1e-300",
        "variance-1e300", "degenerate", "harmonic-corner", "harmonic-band",
        "low-band", "z-at-least-one", "r1-at-r1-star", "r1-past-354"])
def test_equivalence_scan_matches_a_per_point_reference(make_grid):
    source, grid = make_grid()
    report = equivalence_scan(source, grid)
    expected = _reference_scan(source, grid)
    assert report == expected
    assert report.evaluated > 0
    assert (report.evaluated + report.skipped_infeasible + report.boundary
            == grid.total_points())
    assert (report.evaluated + report.skipped_infeasible + report.floor_band
            == grid.total_points())


def test_the_scan_and_the_floor_test_agree_past_a_subnormal_first_layer_factor():
    # The scan puts the targets on their floors in its floor band; dr_bound's
    # floor test admits them, its d1* within an ulp of the 50-digit one.
    source, grid = _subnormal_first_layer_grid()
    assert equivalence_scan(source, grid).floor_band > 0
    d1s, (f2, *_), (f3, *_) = grid.d1_values[1], grid.d2_values, grid.d3_values
    bound = dr_bound(source, RateTuple(360.0, 0.3, 0.4, 0.0), d1s, f2, f3)
    assert abs(bound.d1_star - d1s) <= math.ulp(d1s)


def test_equivalence_scan_counts_partition_the_grid_with_a_verdict_in_the_band():
    # d4 at dr_bound's own bound puts one evaluated point's verdict in the
    # band: boundary counts it, floor_band does not.
    source = GaussianSource(variance=1.0)
    d4_bound = 0.040762203978366225
    assert dr_bound(source, RateTuple(0.3, 0.5, 0.6, 0.2), UNCONSTRAINED,
                    0.4, 0.45).d4_bound == d4_bound
    grid = GridSpec(
        r1_values=(0.3,), r4_values=(0.2,), d1_values=(UNCONSTRAINED,),
        d2_values=(0.4,), d3_values=(0.45,), r2_values=(0.5,),
        r3_values=(0.6,), d4_values=(d4_bound, 2.0 * d4_bound),
    )
    report = equivalence_scan(source, grid)
    assert (report.evaluated, report.skipped_infeasible, report.floor_band,
            report.boundary, report.in_both) == (2, 0, 0, 1, 1)
    assert (report.evaluated + report.skipped_infeasible + report.floor_band
            == grid.total_points())


def test_equivalence_scan_covers_the_floor_band_and_low_d1():
    source, grid = _floor_band_grid()
    # 2 r4 x 2 r3 x 5 d3 x 4 d4 points for each in-band d2 at r2 = 0.3.
    assert equivalence_scan(source, grid).boundary >= 3 * 2 * 2 * 5 * 4
    source, grid = _float_d1_grid()
    report = equivalence_scan(source, grid)
    low_d1 = dataclasses.replace(grid, d1_values=(0.3,))
    assert equivalence_scan(source, low_d1).skipped_infeasible \
        == low_d1.total_points()
    assert report.evaluated > equivalence_scan(
        source, dataclasses.replace(grid, d1_values=(UNCONSTRAINED,))).evaluated


def test_equivalence_scan_kernel_branches_are_reached(monkeypatch):
    calls = Counter()
    quotient = regions._exp_quotient

    def counted(*args):
        calls["_exp_quotient"] += 1
        return quotient(*args)

    monkeypatch.setattr(regions, "_exp_quotient", counted)
    source, grid = _high_rate_grid()
    assert equivalence_scan(source, grid).evaluated > 0
    assert calls["_exp_quotient"] > 0
    source, grid = _degenerate_grid()
    regimes = Counter(
        dr_bound(source, RateTuple(r1, r2, r3, r4), d1, d2, d3).regime
        for r1, r4, d1, r2, r3, d2, d3 in itertools.product(
            grid.r1_values, grid.r4_values, grid.d1_values, grid.r2_values,
            grid.r3_values, grid.d2_values, grid.d3_values)
        if feasible_individual(source, RateTuple(r1, r2, r3, r4),
                               DistortionTuple(d1, d2, d3, grid.d4_values[0])))
    assert regimes[Regime.DEGENERATE_PI_LESS_DELTA] > 0
    assert regimes[Regime.NON_DEGENERATE] > 0


def test_rd_kernel_branches_are_reached(monkeypatch):
    calls, outputs = Counter(), []
    rd, kernel = regions.rd_bound, regions._rd_block

    def counted(*args):
        calls["rd_bound"] += 1
        return rd(*args)

    def captured(*args):
        outputs.append(kernel(*args))
        return outputs[-1]

    def scan(make_grid):
        calls.clear()
        outputs.clear()
        source, grid = make_grid()
        assert equivalence_scan(source, grid).evaluated > 0
        return grid

    monkeypatch.setattr(regions, "rd_bound", counted)
    monkeypatch.setattr(regions, "_rd_block", captured)
    # Side pairs in product order: (0.5, 0.6), (0.5, 0.8), (0.7, 0.6) and
    # (0.7, 0.8).  Only the harmonic corner row goes back to rd_bound.
    grid = scan(_harmonic_corner_grid)
    # One block, so one row of refusals.
    assert [refused.tolist() for _, _, refused in outputs] == [
        [[True, False, False, False]]]
    assert calls["rd_bound"] == len(grid.d4_values)
    # Inside the harmonic threshold's band the sum is slack on both sides;
    # inside the low threshold's band, R(z) alone holds on both sides; at
    # z >= 1 the sum is slack.
    for make_grid, row, regimes in (
            (_harmonic_band_grid, 0, ["rd-excess", "rd-slack", "rd-slack",
                                      "rd-slack"]),
            (_low_band_grid, 3, ["rd-low", "rd-low", "rd-low", "rd-low",
                                 "rd-excess"]),
            (_z_at_least_one_grid, 0, ["rd-slack"] * 4)):
        scan(make_grid)
        (_, codes, refused), = outputs
        assert not refused.any() and calls["rd_bound"] == 0
        assert [regions._RD_REGIMES[c] for c in codes[0, row].tolist()] == regimes
    # With r1 on or just above r1_star, the kernel decides too.  Blocks in
    # (r1, r4, d1) order: at r1 = 0 the last two d1 lie below the variance,
    # so below their floor.  The kernel refuses none of their rows, but no
    # point in those blocks is feasible, so rd_bound is never called.
    scan(_first_layer_rate_grid)
    (_, _, refused), = outputs
    assert not refused.any()
    assert calls["rd_bound"] == 0


def test_equivalence_scan_runs_the_rd_kernel_once(monkeypatch):
    calls = Counter()
    kernel = regions._rd_block

    def counted(*args):
        calls["_rd_block"] += 1
        return kernel(*args)

    monkeypatch.setattr(regions, "_rd_block", counted)
    source = GaussianSource(variance=1.0)
    grid = default_grid(source, 4)
    # Four (r1, r4, d1) blocks, one stacked kernel call.
    assert len(grid.r1_values) * len(grid.r4_values) * len(grid.d1_values) == 4
    assert equivalence_scan(source, grid) == _reference_scan(source, grid)
    assert calls["_rd_block"] == 1


def test_equivalence_scan_reports_mismatches_in_reference_order(monkeypatch):
    rd, kernel = regions.rd_bound, regions._rd_block

    def shifted(*args):
        res = rd(*args)
        return dataclasses.replace(res, sum_bound=0.9 * res.sum_bound + 0.01)

    def shifted_kernel(*args):
        sum_bounds, codes, refused = kernel(*args)
        return 0.9 * sum_bounds + 0.01, codes, refused

    monkeypatch.setattr(regions, "rd_bound", shifted)
    monkeypatch.setattr(regions, "_rd_block", shifted_kernel)
    source = GaussianSource(variance=1.0)
    grid = default_grid(source, 4)
    report = equivalence_scan(source, grid)
    expected = _reference_scan(source, grid)
    assert report.mismatch_count > 0
    assert report.mismatches == expected.mismatches
    assert report == expected
    # Python scalars, not numpy ones, so that reports serialize as JSON.
    for mismatch in report.mismatches:
        assert type(mismatch["dr_margin"]) is float
        assert type(mismatch["rd_margin"]) is float
        assert all(type(v) is float for v in mismatch["rates"])
        assert all(v is None or type(v) is float for v in mismatch["d"])


def test_equivalence_scan_bound_calls_follow_the_grid_structure(monkeypatch):
    calls = Counter()

    def counted(name):
        fn = getattr(regions, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("dr_bound", "rd_bound"):
        monkeypatch.setattr(regions, name, counted(name))
    source = GaussianSource(variance=1.0)
    g = default_grid(source, 4)
    equivalence_scan(source, g)
    # The d4 bound comes from the array kernel, never from dr_bound.
    assert calls["dr_bound"] == 0
    # Nor does the sum bound come from rd_bound on a grid it would not refuse.
    assert calls["rd_bound"] == 0


def _malformed(variance: float = 1.0, **axes):
    def make():
        source = GaussianSource(variance=variance)
        return source, dataclasses.replace(default_grid(source, 3), **axes)
    return make


def _grid_values(field: str, *extra: float):
    return getattr(default_grid(GaussianSource(variance=1.0), 3), field) + extra


@pytest.mark.parametrize("make_grid, raises", [
    (_malformed(r1_values=(-0.1, 0.35)), ValueError),
    (_malformed(r3_values=(0.17, -0.3)), ValueError),
    (_malformed(r4_values=(0.0, -0.25)), ValueError),
    (_malformed(d4_values=_grid_values("d4_values", -0.1)), ValueError),
    (_malformed(d4_values=_grid_values("d4_values", math.nan)), ValueError),
    (_malformed(d4_values=_grid_values("d4_values", math.inf)), ValueError),
    (_malformed(d2_values=(math.nan,) + _grid_values("d2_values")), None),
    (_malformed(d3_values=_grid_values("d3_values", 0.0)), None),
    (_malformed(d1_values=()), None),
    (_malformed(r2_values=()), None),
    (_malformed(d4_values=()), None),
    # d1* = exp(-800) underflows to 0, so the side ratios are undefined.
    (_malformed(r1_values=(400.0,)), InvalidRegimeInput),
    # The same after a normal first r1, whose points come first; the second
    # r1's side ratios, delta and penalty denominator are NaN in the scan.
    (_malformed(r1_values=(0.35, 400.0)), InvalidRegimeInput),
    (_malformed(variance=1e-300, r1_values=(0.35, 30.0)), InvalidRegimeInput),
    # Subnormal side targets clear floors that have underflowed, but
    # a b = d2 d3 / d1*^2 lies below the normal range.
    (_malformed(d2_values=(1e-300,), d3_values=(1e-300,),
                r2_values=(400.0,), r3_values=(400.0,)), InvalidRegimeInput),
    (_malformed(d4_values=_grid_values("d4_values", 0.0)), InfeasibleDistortion),
    # Infinite targets clear every floor, then fail DistortionTuple.
    (_malformed(d1_values=(UNCONSTRAINED, math.inf)), ValueError),
    (_malformed(d2_values=_grid_values("d2_values", math.inf)), ValueError),
    # z = d4 exp(2 r4)/d1_star underflows to 0 at d1_star > 2.
    (_malformed(variance=10.0, d4_values=(0.5, 5e-324)), InvalidRegimeInput),
    # exp(2 r4) overflows; the d4 bound 1e300 exp(-800 - ...) does not
    # underflow.
    (_malformed(variance=1e300, r4_values=(0.0, 400.0)), InvalidRegimeInput),
    # The d4 bound 1e-300 exp(-81) underflows to 0, which the loop meets
    # before rd_bound refuses d4 = 0.
    (_malformed(variance=1e-300, r1_values=(0.0,), r4_values=(0.0,),
                r2_values=(0.5,), r3_values=(40.0,), d2_values=(1e-300,),
                d3_values=(5e-302,), d4_values=(0.0,)), InvalidRegimeInput),
    # The bound exp(-760) underflows to 0 at the first side pair, before
    # the last pair's a b = 1e-320 is refused.
    (_malformed(r1_values=(0.0,), r4_values=(10.0,), r2_values=(185.0,),
                r3_values=(185.0,), d2_values=(0.5, 1e-160),
                d3_values=(0.5, 1e-160), d4_values=(1.0,)), InvalidRegimeInput),
], ids=["negative-r1", "negative-r3", "negative-r4", "negative-d4", "nan-d4", "inf-d4",
        "nan-d2", "zero-d3", "empty-d1", "empty-r2", "empty-d4",
        "underflowed-d1-floor", "underflowed-second-d1-floor",
        "underflowed-second-d1-floor-at-1e-300", "underflowed-side-product", "zero-d4",
        "inf-d1", "inf-d2", "underflowed-z", "overflowing-exp-2r4",
        "zero-bound-before-zero-d4", "zero-bound-before-side-product"])
def test_equivalence_scan_on_malformed_grids(make_grid, raises):
    source, grid = make_grid()
    if raises is not None:
        with pytest.raises(raises) as expected:
            _reference_scan(source, grid)
        with pytest.raises(raises) as raised:
            equivalence_scan(source, grid)
        # The per-point loop's first error, message included.
        assert str(raised.value) == str(expected.value)
        return
    report = equivalence_scan(source, grid)
    assert report == _reference_scan(source, grid)
    assert (report.evaluated + report.skipped_infeasible + report.boundary
            == grid.total_points())


def test_equivalence_scan_refuses_an_underflowed_d4_bound():
    # var exp(-2 (r1+r2+r3+r4)) = exp(-762) / den lies below the subnormal
    # range, so d4_bound is 0 and the margin (d4 - d4_bound)/d4_bound has
    # no value.
    d1s = math.exp(-600.0)
    grid = GridSpec(
        r1_values=(300.0,), r4_values=(80.0,), d1_values=(UNCONSTRAINED,),
        d2_values=(0.5 * d1s,), d3_values=(0.5 * d1s,), r2_values=(0.5,),
        r3_values=(0.5,), d4_values=(1e-300,))
    source = GaussianSource(variance=1.0)
    with pytest.raises(InvalidRegimeInput, match="underflows"):
        equivalence_scan(source, grid)
    empty = equivalence_scan(source, dataclasses.replace(grid, d4_values=()))
    assert empty == EquivalenceReport()


def test_equivalence_scan_sends_a_subnormal_factor_to_dr_bound():
    # exp(-726) is subnormal, with about 8 significant digits; the numerator
    # 1e308 exp(-726) is normal but carries that error, so the scan must
    # take dr_bound's exact quotient to classify targets within 1e-8 of it.
    source = GaussianSource(variance=1e308)
    rates = RateTuple(0.0, 181.5, 181.5, 0.0)
    assert 0.0 < math.exp(-2.0 * rates.total()) < sys.float_info.min
    d4_bound = dr_bound(source, rates, UNCONSTRAINED, 1e300, 1e300).d4_bound
    grid = GridSpec(
        r1_values=(0.0,), r4_values=(0.0,), d1_values=(UNCONSTRAINED,),
        d2_values=(1e300,), d3_values=(1e300,), r2_values=(181.5,),
        r3_values=(181.5,),
        d4_values=tuple(d4_bound * (1.0 + k * 1e-9) for k in range(-12, 13)))
    assert equivalence_scan(source, grid) == _reference_scan(source, grid)


def test_equivalence_scan_pins_the_k10_report_and_its_types():
    source = GaussianSource(variance=1.0)
    report = equivalence_scan(source, default_grid(source, 10))
    assert (report.evaluated, report.skipped_infeasible, report.boundary,
            report.in_both, report.out_both, report.mismatch_count) \
        == (239_620, 160_380, 0, 198_919, 40_701, 0)
    assert list(report.regime_counts.items()) == [
        ("rd-low", 112_719), ("rd-slack", 93_537), ("rd-excess", 33_364)]
    counts = [report.evaluated, report.skipped_infeasible, report.boundary,
              report.in_both, report.out_both, *report.regime_counts.values()]
    assert all(type(n) is int for n in counts)


@st.composite
def _random_grids(draw):
    """A grid of up to 3 values per axis: variance 1e-300 to 1e300, rates
    0 to 200 nats.  Each value is drawn either close in (targets a multiple
    of the variance up to about 1, rates below 0.5 nats), where the three
    sum-rate regimes meet, or across the whole range (targets log-uniform
    down to 1e-40 or 1e-80 of the variance, rates up to 40 or 200 nats,
    where bounds and side products leave the double range)."""
    variance = 10.0 ** draw(st.floats(-300.0, 300.0))

    def axis(values):
        return tuple(draw(st.lists(values, min_size=1, max_size=3)))

    def targets(top: float, steps: int, decades: float):
        # Either a multiple of top/steps or log-uniform over the decades.
        return st.one_of(st.integers(1, steps).map(lambda i: top * i / steps),
                         st.floats(-decades, 0.1).map(lambda e: 10.0 ** e)
                         ).map(lambda x: variance * x)

    rates = st.one_of(st.floats(0.0, 0.5), st.floats(0.0, 40.0), st.floats(0.0, 200.0))
    grid = GridSpec(
        r1_values=axis(rates), r4_values=axis(rates),
        d1_values=axis(st.one_of(st.just(UNCONSTRAINED), targets(1.2, 12, 40.0))),
        d2_values=axis(targets(0.8, 16, 40.0)),
        d3_values=axis(targets(0.8, 16, 40.0)),
        r2_values=axis(rates), r3_values=axis(rates),
        d4_values=axis(targets(1.2, 240, 80.0)))
    return GaussianSource(variance), grid


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(_random_grids())
def test_equivalence_scan_matches_the_reference_on_random_grids(case):
    source, grid = case
    try:
        expected = _reference_scan(source, grid)
    except Exception as exc:  # noqa: BLE001 - the scan must raise the same
        with pytest.raises(Exception) as raised:
            equivalence_scan(source, grid)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
        return
    assert equivalence_scan(source, grid) == expected


# ---------------------------------------------------------------------------
# The closed forms shared by the scalar bounds and the scan kernels
# ---------------------------------------------------------------------------

SHARED = settings(derandomize=True, database=None, deadline=None, max_examples=100)
RATIO = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))
NEAR = st.floats(-3.0, 3.0)


def _bits(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    return float(value).hex()


def _same_bits(form, rows):
    """``form`` through ``regions._MATH`` at each row of doubles gives, bit
    for bit, ``form`` through numpy at the columns' arrays."""
    arrays = form(np, *(np.array(column, dtype=float) for column in zip(*rows)))
    arrays = arrays if isinstance(arrays, tuple) else (arrays,)
    for i, row in enumerate(rows):
        scalars = form(regions._MATH, *row)
        scalars = scalars if isinstance(scalars, tuple) else (scalars,)
        assert [_bits(v) for v in scalars] == [_bits(v[i]) for v in arrays], row


@st.composite
def _penalty_args(draw):
    # delta either anywhere in [0, 1] or a multiple of pi up to 2, so that
    # sqrt(delta) >= sqrt(pi) and the branch point itself are drawn.
    a, b = draw(RATIO), draw(RATIO)
    pi = (1.0 - a) * (1.0 - b)
    delta = st.one_of(st.floats(0.0, 1.0), st.floats(0.5, 2.0).map(lambda x: x * pi))
    return a, b, draw(delta)


@st.composite
def _delta_args(draw):
    # s = ab (1 + k FEASIBILITY_RTOL) with |k| <= 3 puts delta in the snap
    # band or within reach of the refusal at -3 tolerances; or s anywhere.
    ab = draw(RATIO) * draw(RATIO)
    near = draw(NEAR.map(lambda k: ab * (1.0 + k * FEASIBILITY_RTOL)))
    return ab, draw(st.one_of(st.just(near), RATIO))


@st.composite
def _branch_args(draw):
    # z in [0, 1), or within 3 band widths of either threshold.
    a, b = draw(RATIO), draw(RATIO)
    ab = a * b
    threshold = draw(st.sampled_from([ab - (1.0 - a) * (1.0 - b), ab / (a + b - ab)]))
    near = draw(st.one_of(NEAR.map(lambda k: threshold * (1.0 + k * BOUNDARY_RTOL)),
                          NEAR.map(lambda k: threshold * (1.0 + k * 1e-12))))
    return a, b, draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(near)))


@SHARED
@given(st.lists(_penalty_args(), min_size=1, max_size=16))
def test_penalty_is_the_same_on_doubles_and_arrays(rows):
    _same_bits(regions._penalty, rows)


@SHARED
@given(st.lists(_delta_args(), min_size=1, max_size=16))
def test_delta_and_its_snap_are_the_same_on_doubles_and_arrays(rows):
    _same_bits(regions._delta, rows)


@SHARED
@given(st.lists(_branch_args(), min_size=1, max_size=16))
def test_rd_branches_are_the_same_on_doubles_and_arrays(rows):
    _same_bits(regions._rd_branches, rows)


@SHARED
@given(st.lists(st.tuples(RATIO, RATIO, st.floats(0.0, 1.0, exclude_max=True)),
                min_size=1, max_size=16))
def test_excess_args_are_the_same_on_doubles_and_arrays(rows):
    _same_bits(regions._excess_args, rows)


def _rd_bound_with_branches(monkeypatch, branches):
    # rd_bound's thresholds and tests replaced by fixed ones, to reach the
    # guards that the closed forms never trip.
    monkeypatch.setattr(regions, "_rd_branches", lambda xp, a, b, z: branches)
    return rd_bound(GaussianSource(variance=1.0), 0.0, 0.0,
                    DistortionTuple(UNCONSTRAINED, 0.5, 0.5, 0.1))


@pytest.mark.parametrize("call, error, message", [
    (lambda mp: regions._pi_delta(0.5, 0.5, 0.3), NegativeDelta,
     "delta=-0.04999999999999999 is negative beyond rounding; inputs are inconsistent"),
    (lambda mp: regions._penalty_den(2.0, 2.0, 0.0), InvalidRegimeInput,
     "penalty denominator 0.0 not positive (a=2.0, b=2.0, delta=0.0)"),
    (lambda mp: _rd_bound_with_branches(mp, (0.75, 0.5, False, False, False)),
     InvalidRegimeInput, "threshold order violated: ab-pi=0.75 > harmonic 0.5"),
    # At the corner, R(0.1) plus the excess term at min(z, 1/3) is not the
    # individual bounds' sum 2 R(0.5) = log 2.
    (lambda mp: _rd_bound_with_branches(mp, (0.0, 1.0 / 3.0, True, True, False)),
     InvalidRegimeInput, "branch disagreement at the harmonic corner: "
     "1.1575038064963012 vs 0.6931471805599453"),
], ids=["negative-delta", "penalty-denominator", "threshold-order", "harmonic-corner"])
def test_region_guards_raise_their_message(monkeypatch, call, error, message):
    with pytest.raises(error) as raised:
        call(monkeypatch)
    assert str(raised.value) == message


# ---------------------------------------------------------------------------
# The scalar path's clamps compare as builtin min and max do
# ---------------------------------------------------------------------------

_SPECIAL = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
            sys.float_info.min, 1.0, -1.0]
#: Any double: NaN, both zeros, both infinities, subnormals and the rest.
ANY_DOUBLE = st.one_of(st.sampled_from(_SPECIAL),
                       st.floats(allow_nan=True, allow_infinity=True,
                                 allow_subnormal=True))
CLAMPS = settings(derandomize=True, database=None, deadline=None, max_examples=400)
#: The array namespace on doubles with the builtin clamp.
_BUILTIN = types.SimpleNamespace(**{**vars(regions._MATH), "maximum": max})


def _word(value):
    """The bits of a double, so that 0.0 and -0.0 (or two NaNs) differ."""
    return struct.pack("<d", value)


def _outcome(call, *args):
    """The bits of what ``call`` returns, or the type and message it raises."""
    try:
        result = call(*args)
    except (InvalidRegimeInput, NegativeDelta, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return [_word(v) for v in (result if isinstance(result, tuple) else (result,))]


@CLAMPS
@given(ANY_DOUBLE, ANY_DOUBLE)
def test_math_maximum_returns_the_object_builtin_max_returns(x, y):
    assert regions._MATH.maximum(x, y) is max(x, y)


@CLAMPS
@given(ANY_DOUBLE, ANY_DOUBLE, ANY_DOUBLE)
def test_side_ratios_clamp_as_builtin_min(d1_star, d2, d3):
    if not d1_star > 0.0:
        with pytest.raises(InvalidRegimeInput):
            regions._side_ratios(d1_star, d2, d3)
        return
    assert (_outcome(regions._side_ratios, d1_star, d2, d3)
            == [_word(min(d2, d1_star) / d1_star), _word(min(d3, d1_star) / d1_star)])


@CLAMPS
@given(ANY_DOUBLE, ANY_DOUBLE, ANY_DOUBLE)
def test_pi_clamps_as_builtin_max(a, b, s):
    try:
        pi = regions._pi_delta(a, b, s)[0]
    except (InvalidRegimeInput, NegativeDelta):
        return  # the refusals read a b and delta, not pi
    assert _word(pi) == _word(max((1.0 - a) * (1.0 - b), 0.0))


@CLAMPS
@given(ANY_DOUBLE, ANY_DOUBLE)
def test_delta_clamps_as_builtin_max(ab, s):
    assert (_outcome(regions._delta, regions._MATH, ab, s)
            == _outcome(regions._delta, _BUILTIN, ab, s))


@CLAMPS
@given(ANY_DOUBLE, ANY_DOUBLE, ANY_DOUBLE)
def test_excess_term_clamps_as_builtin_max(a, b, z):
    def builtin(a, b, z):
        if z >= 1.0:
            return 0.0
        den = regions._penalty_den(*regions._excess_args(_BUILTIN, a, b, z))
        return max(-0.5 * math.log(den), 0.0)

    assert _outcome(regions._excess_term, a, b, z) == _outcome(builtin, a, b, z)


@CLAMPS
@given(st.lists(ANY_DOUBLE, min_size=1, max_size=3))
@example([math.nan, -1.0])
@example([0.0, math.nan, -1.0])
def test_floor_test_raises_as_builtin_min_decides(margins):
    margins = tuple(margins)
    try:
        _require_floors("d", (1.0,) * len(margins), margins)
    except InfeasibleDistortion:
        raised = True
    else:
        raised = False
    assert raised == (min(margins) < -FEASIBILITY_RTOL)


# ---------------------------------------------------------------------------
# The one-comparison band tests decide as their two-rule forms
# ---------------------------------------------------------------------------

#: The double namespace with the ``abs`` that the two-rule forms read.
_MATH_WITH_ABS = types.SimpleNamespace(**{**vars(regions._MATH), "abs": abs})
_NONNEGATIVE = st.one_of(st.sampled_from([0.0, 5e-324, sys.float_info.min, 1.0, math.inf]),
                         st.floats(0.0, allow_infinity=True, allow_subnormal=True))


def _snapped_then_clamped(xp, ab, s):
    """``_delta``'s kept ``delta`` as two rules: snapped to 0 within its
    tolerance, then clamped at 0."""
    delta = ab - s
    tol = FEASIBILITY_RTOL * xp.maximum(ab, s)
    return xp.maximum(xp.where(xp.abs(delta) <= tol, 0.0, delta), 0.0)


def _band_or_below(xp, z, low):
    """``_rd_branches``' low band as two tests: within the band around a
    positive ``low``, or below it."""
    return (low > 0.0) & ((xp.abs(z - low) <= BOUNDARY_RTOL * xp.maximum(z, low))
                          | (z < low))


def _ulps_from(draw, x):
    """``x`` moved by up to 4 ulps either way."""
    steps = draw(st.integers(-4, 4))
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@st.composite
def _delta_edges(draw):
    # s anywhere, or a few ulps from ab or from ab less its tolerance, so
    # that delta falls on either side of its snap.
    ab = draw(_NONNEGATIVE)
    edge = draw(st.sampled_from([ab, ab * (1.0 - FEASIBILITY_RTOL)]))
    return ab, draw(st.one_of(_NONNEGATIVE, st.just(max(_ulps_from(draw, edge), 0.0))))


@SHARED
@given(st.lists(_delta_edges(), min_size=1, max_size=16))
@example([(math.inf, math.inf), (0.0, 0.0), (5e-324, 0.0), (0.0, 5e-324)])
def test_delta_keeps_what_snap_then_clamp_keeps(rows):
    columns = [np.array(column, dtype=float) for column in zip(*rows)]
    with np.errstate(all="ignore"):
        arrays = regions._delta(np, *columns)[2], _snapped_then_clamped(np, *columns)
    for i, (ab, s) in enumerate(rows):
        kept = [regions._delta(regions._MATH, ab, s)[2], float(arrays[0][i])]
        two_rules = [_snapped_then_clamped(_MATH_WITH_ABS, ab, s), float(arrays[1][i])]
        if ab == s == math.inf:
            # delta = inf - inf is NaN, which the two rules keep and the one
            # comparison drops; no caller passes it.
            assert [v.hex() for v in kept + two_rules] == ["0x0.0p+0"] * 2 + ["nan"] * 2
        else:
            assert {v.hex() for v in kept + two_rules} == {two_rules[0].hex()}, (ab, s)


def _sides_of(low):
    """Side ratios ``(a, b)`` whose low threshold ``ab - (1-a)(1-b)`` is
    ``low`` or near it, and whose ``a + b - ab`` is not 0 on doubles."""
    if math.isinf(low):
        return low, 0.5
    return (1.0 if abs(low) < 2.0 ** 52 else 0.5), low


@st.composite
def _band_edges(draw):
    # z anywhere, or a few ulps from low or from its band's upper edge
    # low / (1 - BOUNDARY_RTOL), or within 3 band widths of low.
    low = draw(ANY_DOUBLE)
    edge = draw(st.sampled_from([low, low / (1.0 - BOUNDARY_RTOL)]))
    z = st.one_of(ANY_DOUBLE, st.just(_ulps_from(draw, edge)),
                  NEAR.map(lambda k: low * (1.0 + k * BOUNDARY_RTOL)))
    return low, draw(z)


@SHARED
@given(st.lists(_band_edges(), min_size=1, max_size=16))
@example([(1.0, math.nan), (math.nan, 1.0), (math.inf, math.inf), (math.inf, 1.0),
          (-math.inf, -math.inf), (0.0, -1.0), (-1.0, -2.0), (5e-324, 0.0)])
def test_low_band_decides_as_band_or_below(rows):
    sides = [_sides_of(low) for low, _ in rows]
    a, b = (np.array(column, dtype=float) for column in zip(*sides))
    z = np.array([z for _, z in rows], dtype=float)
    with np.errstate(all="ignore"):
        low, *_, band = regions._rd_branches(np, a, b, z)
        arrays = band, _band_or_below(np, z, low)
    for i, ((a_i, b_i), (_, z_i)) in enumerate(zip(sides, rows)):
        low_i, *_, band_i = regions._rd_branches(regions._MATH, a_i, b_i, z_i)
        decided = [band_i, arrays[0][i], _band_or_below(_MATH_WITH_ABS, z_i, low_i),
                   arrays[1][i]]
        assert len({bool(v) for v in decided}) == 1, (low_i, z_i, decided)
