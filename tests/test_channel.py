"""Unit tests for forward channel construction and achievability certification."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import gaussrd.cli as cli
from gaussrd import (
    GaussianSource,
    GaussRdError,
    InfeasibleDistortion,
    InvalidChannel,
    InvalidRegimeInput,
    RateTuple,
    Regime,
    UNCONSTRAINED,
    certify_achievability,
    dr_bound,
)

import gaussrd.channel as channel_module
from gaussrd.channel import TestChannel as ForwardChannel

from conftest import GOLDEN_RHO, make_rng


def _golden_channel():
    source = GaussianSource(variance=1.0)
    rates = RateTuple(0.0, 0.5, 0.5, 0.0)
    return source, rates, certify_achievability(source, rates, 0.45, 0.45).channel


# ---------------------------------------------------------------------------
# The forward channel
# ---------------------------------------------------------------------------

def test_channel_frozen_reference_correlation():
    _, _, channel = _golden_channel()
    assert channel.rho == GOLDEN_RHO


def test_channel_noise_variances_at_reference_point():
    source, rates, channel = _golden_channel()
    # r1 = 0: no first layer, the residual is the source itself.
    assert math.isinf(channel.sigma1_sq)
    # sigma_iderived from d_i = d1* sigma_i^2 / (d1* + sigma_i^2).
    assert channel.sigma2_sq == pytest.approx(0.45 / 0.55, rel=1e-14)
    assert channel.sigma3_sq == pytest.approx(0.45 / 0.55, rel=1e-14)
    # r4 = 0: the central refinement carries nothing.
    assert math.isinf(channel.sigma4_sq)


def test_channel_side_decoders_hit_targets_exactly():
    rng = make_rng(211)
    source = GaussianSource(variance=1.0)
    for _ in range(50):
        rates = RateTuple(*(0.2 + rng.random(4)))
        d1s = math.exp(-2.0 * rates.r1)
        d2 = d1s * math.exp(-2.0 * rates.r2 * rng.uniform(0.3, 0.98))
        d3 = d1s * math.exp(-2.0 * rates.r3 * rng.uniform(0.3, 0.98))
        record = certify_achievability(source, rates, d2, d3)
        if record.adjustment is not None:
            continue
        channel = record.channel
        for target, sigma_sq in ((d2, channel.sigma2_sq), (d3, channel.sigma3_sq)):
            implied = d1s * sigma_sq / (d1s + sigma_sq)
            assert implied == pytest.approx(target, rel=1e-12)


def test_channel_correlation_snaps_to_zero_on_the_floor_corner():
    # Both side targets exactly at their rate floors: delta = 0 and the
    # refinement noises must be exactly uncorrelated, not -sqrt(rounding).
    source = GaussianSource(variance=1.0)
    for r1, r2, r3 in ((0.0, 2.9, 2.9), (0.5, 3.0, 3.0), (1.5, 0.7, 1.1)):
        rates = RateTuple(r1, r2, r3, 1.0)
        d1s = math.exp(-2.0 * r1)
        channel = certify_achievability(
            source, rates, d1s * math.exp(-2.0 * r2), d1s * math.exp(-2.0 * r3)).channel
        assert channel.rho == 0.0


#: Noise parameters that TestChannel accepts; each case below spoils one.
VALID_CHANNEL = dict(sigma1_sq=1.0, sigma2_sq=2.0, sigma3_sq=3.0, sigma4_sq=math.inf,
                     rho=-0.5, d4_star=0.1, q=0.75)


@pytest.mark.parametrize("field, value, message", [
    ("sigma3_sq", 0.0, "sigma3_sq must be positive, got 0.0"),
    ("sigma1_sq", math.nan, "sigma1_sq must be positive, got nan"),
    ("rho", 0.5, "rho must lie in [-1, 0], got 0.5"),
    ("rho", -1.5, "rho must lie in [-1, 0], got -1.5"),
    ("d4_star", 0.0, "d4_star must be positive finite, got 0.0"),
    ("d4_star", math.inf, "d4_star must be positive finite, got inf"),
    ("q", 0.0, "q = 1 - rho^2 must lie in (0, 1], got 0.0"),
    ("q", 1.5, "q = 1 - rho^2 must lie in (0, 1], got 1.5"),
])
def test_channel_record_refuses_each_invalid_field(field, value, message):
    ForwardChannel(**VALID_CHANNEL)
    with pytest.raises(InvalidChannel) as caught:
        ForwardChannel(**{**VALID_CHANNEL, field: value})
    assert str(caught.value) == message


def test_channel_rejects_infeasible_targets():
    source = GaussianSource(variance=1.0)
    rates = RateTuple(0.0, 0.5, 0.5, 0.0)
    with pytest.raises(InfeasibleDistortion):
        certify_achievability(source, rates, math.exp(-1.0) * 0.9, 0.45)
    with pytest.raises(InfeasibleDistortion):
        certify_achievability(source, rates, 0.0, 0.45)


@pytest.mark.parametrize("build", [certify_achievability], ids=["certify"])
def test_channel_builders_name_an_underflowed_first_layer_floor(build):
    # d1_star = exp(-800) underflows to 0: certification validates through
    # dr_bound, which names the underflow, rather than reading 0.5 as above a
    # first-layer floor of 0.0.
    with pytest.raises(InvalidRegimeInput, match="d1_star=0.0 underflows"):
        build(GaussianSource(variance=1.0), RateTuple(400.0, 0.0, 0.0, 0.0), 0.5, 0.5)


def test_channel_central_residual_interpolates_single_description():
    # With one side description at its trivial ceiling (d2 = d1_star) the
    # central residual reduces to the single-observation conditional variance.
    # Staying non-degenerate with a = 1 forces d3 onto its rate floor.
    source = GaussianSource(variance=1.0)
    rates = RateTuple(0.0, 0.0, 0.5, 0.0)
    d3 = math.exp(-1.0)
    channel = certify_achievability(source, rates, 1.0, d3).channel
    assert math.isinf(channel.sigma2_sq)
    assert channel.rho == 0.0
    expected = channel.sigma3_sq / (1.0 + channel.sigma3_sq)
    assert channel.d4_star == pytest.approx(expected, rel=1e-14)
    assert channel.d4_star == pytest.approx(d3, rel=1e-12)


def test_channel_zero_rate_everything():
    source = GaussianSource(variance=2.0)
    channel = certify_achievability(source, RateTuple(0.0, 0.0, 0.0, 0.0), 2.0,
                                    2.0).channel
    assert math.isinf(channel.sigma1_sq)
    assert math.isinf(channel.sigma2_sq)
    assert math.isinf(channel.sigma3_sq)
    assert math.isinf(channel.sigma4_sq)
    assert channel.d4_star == 2.0
    assert channel.rho == 0.0


# ---------------------------------------------------------------------------
# The degenerate adjustment
# ---------------------------------------------------------------------------

def test_degenerate_adjust_symmetric_reference():
    # Symmetric over-generous targets shrink to (1 + exp(-2(r2+r3))) d1*/2.
    source = GaussianSource(variance=1.0)
    rates = RateTuple(0.0, 0.5, 0.5, 0.0)
    adj = certify_achievability(source, rates, 0.9, 0.9).adjustment
    expected = 0.5 * (1.0 + math.exp(-2.0))
    assert adj.d2_prime == pytest.approx(expected, rel=1e-14)
    assert adj.d3_prime == pytest.approx(expected, rel=1e-14)


def test_degenerate_adjust_lands_on_the_boundary():
    rng = make_rng(223)
    source = GaussianSource(variance=1.0)
    adjusted = 0
    while adjusted < 50:
        rates = RateTuple(float(rng.uniform(0.0, 1.0)),
                          float(rng.uniform(0.3, 2.0)),
                          float(rng.uniform(0.3, 2.0)), 0.0)
        d1s = math.exp(-2.0 * rates.r1)
        d2 = d1s * rng.uniform(0.5, 1.0)
        d3 = d1s * rng.uniform(0.5, 1.0)
        try:
            adj = certify_achievability(source, rates, d2, d3).adjustment
        except InfeasibleDistortion:
            continue
        if adj is None:
            continue
        s = math.exp(-2.0 * (rates.r2 + rates.r3))
        # On the boundary: d2' + d3' = d1*(1+s), equivalently pi = delta.
        assert adj.d2_prime + adj.d3_prime == pytest.approx(
            d1s * (1.0 + s), rel=1e-12)
        # Each target moves toward (never past) its floor, never upward.
        assert d1s * math.exp(-2.0 * rates.r2) * (1.0 - 1e-12) <= adj.d2_prime <= d2
        assert d1s * math.exp(-2.0 * rates.r3) * (1.0 - 1e-12) <= adj.d3_prime <= d3
        adjusted += 1


def test_degenerate_adjustment_choice_does_not_change_central_distortion():
    # Any split of the side targets along the boundary line yields the same
    # central distortion, namely the no-penalty exponential floor.
    source = GaussianSource(variance=1.0)
    rates = RateTuple(0.0, 0.5, 0.5, 0.25)
    d1s = 1.0
    s = math.exp(-2.0)
    target_sum = d1s * (1.0 + s)
    floor2 = d1s * math.exp(-1.0)
    achieved = []
    for d2p in (0.55, 0.62, target_sum / 2.0, 0.75):
        d3p = target_sum - d2p
        assert d2p >= floor2 and d3p >= floor2
        channel = certify_achievability(source, rates, d2p, d3p).channel
        achieved.append(math.exp(-2.0 * rates.r4) * channel.d4_star)
    expected = math.exp(-2.0 * rates.total())
    for value in achieved:
        assert value == pytest.approx(expected, rel=1e-11)


# ---------------------------------------------------------------------------
# certify_achievability
# ---------------------------------------------------------------------------

def test_certification_at_reference_point():
    source = GaussianSource(variance=1.0)
    rates = RateTuple(0.0, 0.5, 0.5, 0.0)
    record = certify_achievability(source, rates, 0.45, 0.45)
    assert record.matches_bound
    assert record.adjustment is None
    assert record.achieved.d1 == pytest.approx(1.0, rel=1e-13)
    assert record.achieved.d2 == pytest.approx(0.45, rel=1e-11)
    assert record.achieved.d3 == pytest.approx(0.45, rel=1e-11)
    assert abs(record.achieved.d4 - record.bound.d4_bound) \
        <= 1e-9 * record.bound.d4_bound


def test_certification_zero_rates_returns_trivial_point():
    source = GaussianSource(variance=3.0)
    record = certify_achievability(source, RateTuple(0.0, 0.0, 0.0, 0.0), 3.0, 3.0)
    assert record.matches_bound
    assert record.achieved.d4 == pytest.approx(3.0, rel=1e-12)
    assert record.bound.d4_bound == 3.0


def test_certification_tightens_degenerate_targets():
    source = GaussianSource(variance=1.0)
    rates = RateTuple(0.0, 0.5, 0.5, 0.0)
    record = certify_achievability(source, rates, 0.9, 0.9)
    assert record.bound.regime is Regime.DEGENERATE_PI_LESS_DELTA
    assert record.adjustment is not None
    expected = 0.5 * (1.0 + math.exp(-2.0))
    assert record.adjustment.d2_prime == pytest.approx(expected, rel=1e-14)
    # The tightened channel achieves the no-penalty bound exactly.
    assert record.matches_bound
    assert record.achieved.d4 == pytest.approx(math.exp(-2.0), rel=1e-10)
    # Side decoders end up strictly better than the requested targets.
    assert record.achieved.d2 < 0.9
    assert record.achieved.d3 < 0.9


def test_certification_clamps_targets_above_first_layer():
    # d2 far above d1_star clamps to d1_star; with d3 on its floor the point
    # stays on the non-degenerate boundary and the clamp is achieved exactly.
    source = GaussianSource(variance=1.0)
    rates = RateTuple(0.5, 0.0, 0.5, 0.5)
    d1s = math.exp(-1.0)
    record = certify_achievability(source, rates, 2.0, d1s * math.exp(-1.0))
    assert record.matches_bound
    assert record.adjustment is None
    assert record.achieved.d2 == pytest.approx(d1s, rel=1e-11)


def test_certification_clamp_can_still_trigger_adjustment():
    # A clamped target that remains over-generous is subsequently tightened.
    source = GaussianSource(variance=1.0)
    rates = RateTuple(0.5, 0.5, 0.5, 0.5)
    d1s = math.exp(-1.0)
    record = certify_achievability(source, rates, 2.0, d1s * 0.5)
    assert record.bound.regime is Regime.DEGENERATE_PI_LESS_DELTA
    assert record.adjustment is not None
    assert record.matches_bound
    assert record.achieved.d2 <= d1s
    assert record.achieved.d4 == pytest.approx(
        math.exp(-2.0 * rates.total()), rel=1e-10)


def test_certification_matches_bound_on_sampled_instances():
    rng = make_rng(227)
    source = GaussianSource(variance=1.0)
    for _ in range(200):
        rates = RateTuple(*(3.0 * rng.random(4)))
        d1s = math.exp(-2.0 * rates.r1)
        d2 = d1s * math.exp(-2.0 * rates.r2 * rng.random())
        d3 = d1s * math.exp(-2.0 * rates.r3 * rng.random())
        record = certify_achievability(source, rates, d2, d3)
        assert record.matches_bound, (
            f"rates={rates.as_tuple()}, d2={d2}, d3={d3}, "
            f"achieved={record.achieved.d4}, bound={record.bound.d4_bound}"
        )


def test_certified_distortion_agrees_with_dr_bound_closed_form():
    source = GaussianSource(variance=1.0)
    rates = RateTuple(0.25, 0.75, 0.6, 0.4)
    d1s = math.exp(-0.5)
    d2 = d1s * 0.5
    d3 = d1s * 0.55
    record = certify_achievability(source, rates, d2, d3)
    bound = dr_bound(source, rates, UNCONSTRAINED, d2, d3)
    assert record.achieved.d4 == pytest.approx(bound.d4_bound, rel=1e-10)


#: Sampled points (``sample_feasible_instance``, seeds 401, 405, 407 and 410)
#: whose degenerate adjustment lands at ``pi < 1e-4``, where ``pi`` and
#: ``delta`` agree only to about eps in absolute terms; a regime test scaled
#: by ``max(pi, delta)`` refused them.
SMALL_PI_ADJUSTED = [
    ((0.7079778017269316, 0.00016187776284792843, 0.039138929245799314, 0.0),
     0.242648433187508, 0.23452606875908227),
    ((1.4560905936657587, 0.5366414549376258, 5.715830850194781e-05, 0.0),
     0.03989109570263185, 0.054350836079708836),
    ((0.0, 2.442370676986674, 1.8456483202755614e-05, 0.0),
     0.02006398590957811, 0.9999948880168423),
    ((1.8307516411314406, 0.5034693726633743, 9.15368218746826e-05,
      2.506234808987247),
     0.025004054835751393, 0.025692066827286225),
    ((0.8066583962875536, 0.0003280412304119684, 0.1255361250720306,
      2.993418063015623),
     0.1991125791430401, 0.1733550472570175),
    ((2.0521564995009, 0.38598855180854796, 0.00013405259899723632,
      1.7779682520519182),
     0.011125658296871864, 0.016498773459069322),
]


@pytest.mark.parametrize("r, d2, d3", SMALL_PI_ADJUSTED)
def test_certification_accepts_small_pi_adjusted_points(r, d2, d3):
    record = certify_achievability(GaussianSource(1.0), RateTuple(*r), d2, d3)
    assert record.adjustment is not None
    assert record.matches_bound


@pytest.mark.parametrize("variance, rates, d2, d3", [
    # r2 = 0: d1* (1 + s) - floor2 - floor3 left only rounding, 7e-9 of d3'.
    (1.0, (0.0, 0.0, 9.0, 0.0), 1.0, 1.0),
    # ... and at 19 nats a negative shrink that put d3' at 0.
    (1.0, (0.0, 0.0, 19.0, 0.0), 1.0, 1.0),
    # r3 = 1.2e-38: exp(-2 r3) rounds to 1, so d3 - d1* exp(-2 r3) is 0,
    # not the excess d1* (1 - exp(-2 r3)) = 2.4e-38 d1*.
    (1.0, (0.0, 33.0, 1.175494351e-38, 0.0), 1.0, 1.0),
    # d2' = d1* (1 - 2.3e-16) rounds to d1*: 1 - d2'/d1* must come from the
    # excesses, not from the rounded ratio.
    (10.0, (0.0, 2.9375, 18.0, 0.0), 10.0, 10.0 * math.exp(-36.0)),
    (5.81970269236372e+198, (0.0, 27.0, 27.653481411109652, 0.0),
     2.055884801275804e+175, 5.81970269236372e+198),
    # b = 1 - 1.3e-4: pi = (1-a)(1-b) carries rounding of eps/(1-b)
    # relative, and a regime re-test of the adjusted targets refused it.
    (1.0493554174245998e-43, (5.143979738162221, 8.240567075045707,
                              5.6952894000872334e-05, 7.674316418315996),
     2.0099118019517234e-49, 3.571962216736635e-48),
], ids=["r2-0", "r2-0-19-nats", "r3-1e-38", "d2-rounds-to-d1", "d3-rounds-to-d1",
        "b-near-1"])
def test_certification_meets_the_bound_where_an_adjusted_target_nears_d1_star(
        variance, rates, d2, d3):
    record = certify_achievability(GaussianSource(variance), RateTuple(*rates),
                                   d2, d3)
    assert record.adjustment is not None
    assert record.matches_bound
    assert record.achieved.d4 == pytest.approx(record.bound.d4_bound, rel=1e-14)


@pytest.mark.parametrize("variance, rates, d2, d3", [
    # d4_bound = var exp(-2 (r1+r2+r3+r4)) / den underflows to 0: no channel
    # meets it (InvalidChannel on a zero sigma4_sq before).
    (1e-200, (38.94321942583643, 34.18371773174844, 39.68471326127271,
              35.247697372811615), 3.415362060029526e-246, 2.5985620784733553e-237),
    # A subnormal bound keeps too few digits for the 1e-9 verdict, which
    # then failed on one-unit differences.
    (1e-300, (0.0, 6.0, 6.0, 0.0), 1e-300 * math.exp(-6.0), 1e-300 * math.exp(-6.0)),
], ids=["zero", "subnormal"])
def test_certification_names_an_underflowing_bound(variance, rates, d2, d3):
    with pytest.raises(InvalidRegimeInput, match="below the normal double range"):
        certify_achievability(GaussianSource(variance), RateTuple(*rates), d2, d3)


def test_channel_names_an_overflowing_noise_variance():
    # sigma1_sq = d1_star / (1 - exp(-2e-9)) overflows at d1_star = 1e300;
    # read as a zero rate, it left achieved d1 at the source variance.
    with pytest.raises(InvalidChannel, match="overflows"):
        certify_achievability(GaussianSource(1e300),
                              RateTuple(1e-9, 0.0, 0.0, 1.524826646647446),
                              9.999999980000001e+299, 9.999999980000001e+299)


@pytest.mark.parametrize("r1", [7.0, 10.0, 20.0, 50.0, 100.0])
def test_certification_holds_at_high_first_layer_rate(r1):
    # d1_star = exp(-2 r1) sits far below the unit source variance; the
    # achieved d1 must come out at d1_star's own scale, not as the remainder
    # of a subtraction at the source scale (0.0 at r1 = 20).
    source = GaussianSource(variance=1.0)
    rates = RateTuple(r1, 0.5, 0.7, 0.3)
    d1s = math.exp(-2.0 * r1)
    d2 = d1s * math.exp(-2.0 * rates.r2 * 0.6)
    d3 = d1s * math.exp(-2.0 * rates.r3 * 0.4)
    record = certify_achievability(source, rates, d2, d3)
    assert record.achieved.d1 == pytest.approx(d1s, rel=1e-12)
    assert record.matches_bound


@pytest.mark.parametrize("argv", [
    # Central distortion 1e-10 of d1_star: the matrix route missed the bound.
    ["--rates", "0.3,12,1,0.2", "--d", "3.107756648581332e-11,0.11141036732150081"],
    # 1e-26 of d1_star: the matrix route's observed block went singular.
    ["--rates", "0.3,30,1,0.2", "--d", "7.208512497225641e-27,0.11141036732150081"],
    # d1_star near 2e-174: d2 sigma2^2 underflows a double, not the chain.
    ["--rates", "200,1,1,0", "--d", "7e-175,7e-175"],
], ids=["d4-1e-10", "d4-1e-26", "d1-2e-174"])
def test_channel_cli_certifies_far_below_the_first_layer(capsys, argv):
    code = cli.main(["channel", *argv])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["matches_bound"] is True
    if argv[1] == "200,1,1,0":
        assert out["achieved"]["d2"] == out["achieved"]["d3"] == 7.000000000000001e-175


@pytest.mark.parametrize("variance", [1e-300, 1e-200, 1e-160, 1e-100, 1.0, 1e100,
                                      1e160, 1e200, 1e300])
def test_certification_is_scale_free_over_the_double_range(variance):
    # sigma1^2 = d1_star var / (var - d1_star) under- or overflowed beyond
    # about 1e+-154; d1_star / (1 - exp(-2 r1)) does not.
    source = GaussianSource(variance)
    rates = RateTuple(1.0, 1.0, 1.0, 0.5)
    d1s = variance * math.exp(-2.0)
    record = certify_achievability(source, rates, d1s * 0.5, d1s * 0.4)
    assert record.matches_bound
    assert record.channel.sigma1_sq == pytest.approx(d1s / -math.expm1(-2.0),
                                                     rel=1e-15)
    assert record.achieved.d1 == pytest.approx(d1s, rel=1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(variance=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
       rates=st.tuples(*[st.floats(0.0, 40.0)] * 4),
       spent=st.tuples(*[st.floats(0.0, 1.0)] * 2))
def test_certification_matches_the_bound_or_raises_up_to_40_nats(variance, rates,
                                                                 spent):
    # The channel carries q = 1 - rho^2 itself, so rho near -1 (high side
    # rates) costs no accuracy: every certified point meets the bound.
    d1s = variance * math.exp(-2.0 * rates[0])
    d2 = d1s * math.exp(-2.0 * rates[1] * spent[0])
    d3 = d1s * math.exp(-2.0 * rates[2] * spent[1])
    try:
        record = certify_achievability(GaussianSource(variance), RateTuple(*rates),
                                       d2, d3)
    except GaussRdError:
        return
    assert record.matches_bound, (record.achieved.d4, record.bound.d4_bound)


@pytest.mark.parametrize("rates", ["0,7,7,0", "0,10,10,0", "0,20,20,0"])
def test_channel_cli_certifies_balanced_high_side_rates(capsys, rates):
    # rho^2 rounds to 1 - 1e-12 at 7 nats and to 1 at 10: rebuilt from rho,
    # q missed the bound by 1e-5 and then left d4_star at 0.
    code = cli.main(["channel", "--rates", rates, "--d", "0.5,0.5"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["matches_bound"] is True
    assert list(out["channel"])[-1] == "q"
    assert 0.0 < out["channel"]["q"] < 1e-11


def _assert_one_snap(variance, rates, d2, d3):
    """Off the degenerate regime, the channel's rho is 0 exactly where the
    bound's delta is: one snap decides both.  Returns the record, or None
    where certification refuses the point."""
    try:
        record = certify_achievability(GaussianSource(variance), RateTuple(*rates),
                                       d2, d3)
    except GaussRdError:
        return None
    if record.bound.regime is Regime.NON_DEGENERATE:
        assert (record.channel.rho == 0.0) == (record.bound.delta == 0.0), (
            record.channel.rho, record.bound.delta)
    return record


def test_channel_keeps_rho_where_the_bound_keeps_a_tiny_delta():
    # delta = 2.5e-67 lies just outside its snap band, while 1 - q lay just
    # inside a second tolerance test of the channel's own: rho snapped to 0
    # and the certified d4 missed the bound by 2.15e-12 relative.
    rates = (25.148569865730703, 24.247457004624493, 38.60700132251501,
             10.238145700590353)
    d2, d3 = 1.2449623120771536e-43, 4.193865369289699e-56
    record = _assert_one_snap(1.0, rates, d2, d3)
    assert record.bound.delta > 0.0
    assert record.achieved.d4 == pytest.approx(record.bound.d4_bound, rel=1e-13)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(variance=st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e),
       rates=st.tuples(*[st.floats(0.0, 40.0)] * 4),
       offsets=st.tuples(*[st.floats(-3e-12, 3e-12)] * 2))
def test_channel_snaps_rho_exactly_where_the_bound_snaps_delta(variance, rates,
                                                               offsets):
    # Side targets within 3e-12 relative of their floors, where delta sits
    # in or near its snap band.
    d1s = variance * math.exp(-2.0 * rates[0])
    d2, d3 = (d1s * math.exp(-2.0 * r) * (1.0 + k) for r, k in zip(rates[1:3], offsets))
    _assert_one_snap(variance, rates, d2, d3)


@pytest.mark.parametrize("rates, d2, d3", [
    (RateTuple(0.0, 0.5, 0.5, 0.0), 0.45, 0.45),
    (RateTuple(0.3, 0.5, 0.6, 0.2), 0.4, 0.45),
], ids=["golden", "four-stage"])
def test_certification_refuses_an_mmse_d4_off_its_closed_form(monkeypatch, rates,
                                                              d2, d3):
    # The scalar MMSE chain and the closed form agree to rounding, so the
    # cross-check fires only on a chain made to report twice its d4.
    source = GaussianSource(variance=1.0)
    record = certify_achievability(source, rates, d2, d3)
    chain = channel_module._msr_distortions

    def doubled(*args):
        d1, d2_, d3_, d4 = chain(*args)
        return d1, d2_, d3_, 2.0 * d4

    monkeypatch.setattr(channel_module, "_msr_distortions", doubled)
    closed = math.exp(-2.0 * rates.r4) * record.channel.d4_star
    with pytest.raises(InvalidChannel) as raised:
        certify_achievability(source, rates, d2, d3)
    assert str(raised.value) == (f"internal cross-check failed: MMSE "
                                 f"d4={2.0 * record.achieved.d4} vs closed form {closed}")
