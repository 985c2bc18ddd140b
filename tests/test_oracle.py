"""Properties of the region boundaries against the 50-digit oracle.

Draws span rates from 0 to 40 nats and variances from 1e-100 to 1e100.  A
side target is ``d1* exp(-2 r u)`` for a drawn fraction ``u`` of its rate:
``u = 1`` puts it on its floor, ``u <= 0`` at or above ``d1*`` (clamped),
and one strategy crowds ``u`` towards 1, where the bound's ``sqrt(delta)``
amplifies rounding.  Every draw must return a value; any ``GaussRdError``
fails the property.
"""

from __future__ import annotations

import math
import sys

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import oracle
from conftest import assert_close
from gaussrd import (AsymptoticConfig, DistortionTuple, GaussianSource,
                     InvalidRegimeInput,
                     RateTuple, UNCONSTRAINED, asymptote_convergence,
                     certify_achievability, cli, converse_witness, dr_bound,
                     rd_bound)
from gaussrd.selfcheck import sample_feasible_instance

EPS = sys.float_info.epsilon
SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=300)

RATE = st.floats(0.0, 40.0)
VARIANCE = st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e)
SPENT = st.one_of(st.floats(0.0, 1.0),
                  st.floats(-14.0, 0.0).map(lambda e: 1.0 - 10.0 ** e))
SPENT_OR_LOOSE = st.one_of(SPENT, st.floats(-0.25, 0.0))


@st.composite
def points(draw, spent=SPENT_OR_LOOSE):
    """``(var, rates, d2, d3)`` with individually feasible side targets."""
    var = draw(VARIANCE)
    rates = tuple(draw(RATE) for _ in range(4))
    d1s = var * math.exp(-2.0 * rates[0])
    d2 = d1s * math.exp(-2.0 * rates[1] * draw(spent))
    d3 = d1s * math.exp(-2.0 * rates[2] * draw(spent))
    return var, rates, d2, d3


def _dr(var, rates, d2, d3) -> float:
    return dr_bound(GaussianSource(var), RateTuple(*rates), UNCONSTRAINED,
                    d2, d3).d4_bound


def _witness_t(var, rates, d2, d3) -> float:
    return converse_witness(GaussianSource(var), RateTuple(*rates),
                            UNCONSTRAINED, d2, d3).t_bound


def _rd(var, r1, r4, d2, d3, d4) -> tuple[float, float, float]:
    """``(r2_bound, r3_bound, required sum)``; the required sum is
    ``max(sum_bound, r2_bound + r3_bound)``, continuous across the slack
    corner where ``sum_bound`` drops to 0."""
    res = rd_bound(GaussianSource(var), r1, r4,
                   DistortionTuple(UNCONSTRAINED, d2, d3, d4))
    return (res.r2_bound, res.r3_bound,
            max(res.sum_bound, res.r2_bound + res.r3_bound))


def _penalty_rtol(var, rates, d2, d3) -> float:
    """Relative error allowed on ``d4_bound`` and ``t_bound``: 1e-12, or the
    rounding model ``4 eps (1 + r1+r2+r3+r4) sqrt(ab/delta)`` where targets
    just above their floors make ``sqrt(delta)`` ill-conditioned."""
    kappa = oracle.mp_floor_conditioning(var, rates, d2, d3)
    return max(1e-12, 4.0 * EPS * (1.0 + sum(rates)) * kappa)


# ---------------------------------------------------------------------------
# Agreement with the oracle
# ---------------------------------------------------------------------------

@SETTINGS
@given(points())
def test_dr_bound_matches_the_oracle(point):
    assert_close(_dr(*point), float(oracle.mp_dr_bound(*point)),
                 rtol=_penalty_rtol(*point))


@SETTINGS
@given(points(spent=SPENT))
def test_witness_bound_matches_the_oracle(point):
    assert_close(_witness_t(*point), float(oracle.mp_witness_t(*point)),
                 rtol=_penalty_rtol(*point))


@SETTINGS
@given(points(), st.floats(-1.0, 80.0))
def test_rd_bound_matches_the_oracle(point, central_rate):
    # The central target sits central_rate nats below d1* exp(-2 r4).
    var, (r1, _, _, r4), d2, d3 = point
    d4 = var * math.exp(-2.0 * (r1 + r4)) * math.exp(-2.0 * central_rate)
    o2, o3, o_sum = oracle.mp_rd_bound(var, r1, r4, d2, d3, d4)
    r2_bound, r3_bound, required = _rd(var, r1, r4, d2, d3, d4)
    assert_close(r2_bound, float(o2), atol=1e-12)
    assert_close(r3_bound, float(o3), atol=1e-12)
    assert_close(required, float(max(o_sum, o2 + o3)), atol=1e-12)


@st.composite
def harmonic_corners(draw):
    """``(var, r1, r4, d2, d3, d4)`` with ``z = d4 exp(2 r4)/d1*`` at
    ``harm (1 + k 1e-13)``, ``k`` in {-9, -1, 0, 1, 9}, where ``harm =
    ab/(a + b - ab)`` is the harmonic threshold of ``rd_bound``'s ratios;
    each ratio lies within 10^U(-16, -1) of 1 or anywhere in [1e-6, 1]."""
    var, r1, r4 = draw(VARIANCE), draw(RATE), draw(RATE)
    d1s = var * math.exp(-2.0 * r1)
    ratio = st.one_of(st.floats(-16.0, -1.0).map(lambda e: 1.0 - 10.0 ** e),
                      st.floats(1e-6, 1.0))
    d2, d3 = d1s * draw(ratio), d1s * draw(ratio)
    a, b = min(d2, d1s) / d1s, min(d3, d1s) / d1s
    harm = a * b / (a + b - a * b)
    k = draw(st.sampled_from([-9, -1, 0, 1, 9]))
    return var, r1, r4, d2, d3, harm * (1.0 + k * 1e-13) * d1s / math.exp(2.0 * r4)


@SETTINGS
@given(harmonic_corners())
# d2 and d3 within 1e-11 of d1* = 1, where the excess term's (a - z)/(1 - z)
# is ill-conditioned at z = harm.
@example((1.0, 0.0, 0.0, 0.9999999999949605, 0.9999999999998695, 0.9999999999948301))
def test_rd_bound_answers_at_the_harmonic_threshold(point):
    # The excess branch meets the individual bounds' sum at harm, so the
    # required sum is continuous there and rd_bound answers on either side.
    o2, o3, o_sum = oracle.mp_rd_bound(*point)
    assert_close(_rd(*point)[2], float(max(o_sum, o2 + o3)), atol=1e-12)


def test_asymptote_ratios_match_the_oracle_at_high_rate(capsys):
    # Side targets on their floors at r' nats: 1 - pi is about 2 exp(-2 r'),
    # which the penalty written as 1 - g^2 lost entirely by r' = 19.
    grid = [1.0, 5.0, 10.0, 15.0, 18.0, 19.0, 25.0]
    rows = asymptote_convergence(AsymptoticConfig(1.0, 0.0), grid)
    for row in rows:
        side = math.exp(-2.0 * row.r_prime)
        exact = oracle.mp_dr_bound(1.0, (0.0, row.r_prime, row.r_prime, 0.0),
                                   side, side)
        assert_close(row.ratio, float(exact / row.asymptote), rtol=1e-12)
    assert cli.main(["asymptote", "--r-grid", "1,5,10,15,18,19,25"]) == 0
    assert capsys.readouterr().err == ""


#: Enough digits for 1 - pi down to the smallest normal double.
HIGH_RATE_DPS = 400


@pytest.mark.parametrize("var, rates, d2, d3", [
    (1.0, (0.0, 200.0, 200.0, 0.0), 1e-100, 1e-100),
    (1e100, (0.0, 250.0, 250.0, 0.0), 1e-50, 1e-50),
    (1.0, (1.0, 200.0, 150.0, 10.0), math.exp(-2.0) * 1e-100,
     math.exp(-2.0) * 1e-80),
])
def test_dr_bound_survives_an_underflowing_numerator(var, rates, d2, d3):
    # var exp(-2 (r1+r2+r3+r4)) falls below the normal range (to 0.0 in the
    # first two), but the penalty denominator, about a + b, keeps the bound
    # itself a normal double.
    assert var * math.exp(-2.0 * sum(rates)) < sys.float_info.min
    d4 = _dr(var, rates, d2, d3)
    assert d4 >= sys.float_info.min
    exact = oracle.mp_dr_bound(var, rates, d2, d3, dps=HIGH_RATE_DPS)
    assert_close(d4, float(exact), rtol=_penalty_rtol(var, rates, d2, d3))


def test_dr_bound_keeps_its_digits_past_a_subnormal_factor():
    # exp(-723) is subnormal, so it carries only about 9 digits, though the
    # numerator 1e308 exp(-723) and the bound are normal.
    var, rates = 1e308, (0.5, 1.0, 1.0, 360.0)
    assert 0.0 < math.exp(-2.0 * sum(rates)) < sys.float_info.min
    d4 = _dr(var, rates, 1e307, 1e307)
    exact = oracle.mp_dr_bound(var, rates, 1e307, 1e307, dps=HIGH_RATE_DPS)
    assert_close(d4, float(exact), rtol=2 * EPS)


def test_d1_star_keeps_its_digits_past_a_subnormal_factor():
    # exp(-720) is subnormal, though d1* = 1e308 exp(-720) is normal; as a
    # plain product it was 13,149 eps off.
    assert 0.0 < math.exp(-720.0) < sys.float_info.min
    d1s = dr_bound(GaussianSource(1e308), RateTuple(360.0, 0.0, 0.0, 0.0),
                   UNCONSTRAINED, 1.0, 1.0).d1_star
    with mpmath.workdps(oracle.DPS):
        exact = mpmath.mpf(1e308) * mpmath.exp(-720)
        assert abs(mpmath.mpf(d1s) - exact) <= EPS * exact


@pytest.mark.parametrize("b, eta", [(1.0, 0.0), (3.0, 0.0), (1.0, 0.5),
                                    (2.0, 0.3)])
def test_high_rate_asymptote_rows_are_right_or_a_typed_error(b, eta):
    # Past ~177 nats at eta = 0 the side targets' product a b leaves the
    # normal range; at eta = 0.5 the bound and its asymptote do, past ~236
    # nats.  Each row is either the oracle's value or InvalidRegimeInput.
    returned = raised = 0
    for rp in (100.0, 150.0, 176.0, 178.0, 200.0, 230.0, 240.0, 300.0, 360.0):
        try:
            (row,) = asymptote_convergence(AsymptoticConfig(b, eta), [rp])
        except InvalidRegimeInput:
            raised += 1
            continue
        returned += 1
        rates = (0.0, rp, rp, 0.0)
        side = b * math.exp(-2.0 * (1.0 - eta) * rp)
        exact = oracle.mp_dr_bound(1.0, rates, side, side, dps=HIGH_RATE_DPS)
        rtol = _penalty_rtol(1.0, rates, side, side)
        assert_close(row.exact, float(exact), rtol=rtol)
        assert_close(row.ratio, float(exact / row.asymptote), rtol=rtol)
    assert returned >= 2 and raised >= 2


@pytest.mark.parametrize("argv", [
    ["asymptote", "--r-grid", "1,200"],
    ["asymptote", "--eta", "0.5", "--r-grid", "1,300"],
])
def test_asymptote_past_the_double_range_is_a_typed_error(capsys, argv):
    # These printed exact = ratio = 0.0 and raised ZeroDivisionError before.
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert '"InvalidRegimeInput"' in captured.err


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------

@SETTINGS
@given(points())
def test_rd_bound_at_the_dr_bound_requires_the_rate_sum(point):
    var, rates, d2, d3 = point
    d4 = _dr(*point)
    required = _rd(var, rates[0], rates[3], d2, d3, d4)[2]
    assert_close(required, rates[1] + rates[2],
                 atol=_penalty_rtol(*point) * max(1.0, rates[1] + rates[2]))


@SETTINGS
@given(points(spent=SPENT))
def test_bounds_are_symmetric_in_the_two_users(point):
    var, (r1, r2, r3, r4), d2, d3 = point
    swapped = (var, (r1, r3, r2, r4), d3, d2)
    # Only the summation order of r1 + r2 + r3 + r4 differs.
    assert_close(_dr(*swapped), _dr(*point),
                 rtol=4.0 * EPS * (1.0 + r1 + r2 + r3 + r4))
    assert _witness_t(*swapped) == _witness_t(*point)
    d4 = _dr(*point)
    r2_bound, r3_bound, required = _rd(var, r1, r4, d2, d3, d4)
    assert _rd(var, r1, r4, d3, d2, d4) == (r3_bound, r2_bound, required)


@SETTINGS
@given(points(spent=SPENT), st.integers(-50, 50))
def test_bounds_scale_with_the_variance(point, exponent):
    var, rates, d2, d3 = point
    c = 10.0 ** exponent
    scaled = (var * c, rates, d2 * c, d3 * c)
    rtol = 2.0 * max(_penalty_rtol(*point), _penalty_rtol(*scaled))
    assert_close(_dr(*scaled) / c, _dr(*point), rtol=rtol)
    assert_close(_witness_t(*scaled), _witness_t(*point), rtol=rtol)
    d4 = _dr(*point)
    assert_close(_rd(var * c, rates[0], rates[3], d2 * c, d3 * c, d4 * c)[2],
                 _rd(var, rates[0], rates[3], d2, d3, d4)[2], atol=1e-12)


@SETTINGS
@given(points(), st.integers(0, 3), st.floats(1e-6, 5.0))
def test_bounds_are_monotone_in_each_rate(point, index, bump):
    # More rate anywhere keeps the targets feasible and can only lower the
    # central bound; more r1 or r4 can only lower the required sum rate.
    var, rates, d2, d3 = point
    more = tuple(r + bump if i == index else r for i, r in enumerate(rates))
    assert _dr(var, more, d2, d3) <= _dr(*point) * (1.0 + _penalty_rtol(*point))
    if index in (0, 3):
        d4 = _dr(*point)
        assert (_rd(var, more[0], more[3], d2, d3, d4)[2]
                <= _rd(var, rates[0], rates[3], d2, d3, d4)[2] + 1e-12)


# ---------------------------------------------------------------------------
# The rearranged forms against their textbook forms
# ---------------------------------------------------------------------------

def test_rearrangements_equal_their_textbook_forms():
    def zero(expr) -> bool:
        return sympy.simplify(expr) == 0

    a, b, z, s = sympy.symbols("a b z s")
    # P = sqrt(pi), D = sqrt(delta), W = sqrt((a-z)(b-z)), m = 1 - z > 0.
    P, D, W, m = sympy.symbols("P D W m", positive=True)

    def kernel(a, b, sqrt_pi, sqrt_delta):  # regions._penalty_den
        return (((a + b - a * b) / (1 + sqrt_pi) + sqrt_delta)
                * (1 + sqrt_pi - sqrt_delta))

    # The kernel is 1 - (sqrt(pi) - sqrt(delta))^2 given pi = (1-a)(1-b).
    b_of_pi = 1 - P ** 2 / (1 - a)
    assert zero(kernel(a, b_of_pi, P, D) - (1 - (P - D) ** 2))

    # _excess_term: the kernel at a' = (a-z)/(1-z), b' = (b-z)/(1-z) and
    # delta' = a'b', whose square roots are sqrt(pi)/(1-z) and W/(1-z).
    ap, bp = (a - z) / (1 - z), (b - z) / (1 - z)
    assert zero((1 - ap) * (1 - bp) - (1 - a) * (1 - b) / (1 - z) ** 2)
    assert zero(ap * bp - (a - z) * (b - z) / (1 - z) ** 2)
    ap, bp = ap.subs(z, 1 - m), bp.subs(z, 1 - m)
    excess_den = kernel(ap, bp, P / m, W / m).subs(b, 1 - P ** 2 / (1 - a))
    assert zero(excess_den * m ** 2 - (m ** 2 - (P - W) ** 2))

    # The two-description slice of analysis.md_region_slice: at d2* =
    # var e^{-2 (r1+r2)}, a = e^{-2 r2}, so pi = (1 - e2)(1 - b) and
    # delta = ab - e^{-2 (r2+r3)} = e2 (b - e3), with e2 = e^{-2 r2} and
    # e3 = e^{-2 r3}.
    var, r1, r2, r3 = sympy.symbols("var r1 r2 r3", positive=True)
    a_slice = var * sympy.exp(-2 * (r1 + r2)) / (var * sympy.exp(-2 * r1))
    e2, e3 = sympy.exp(-2 * r2), sympy.exp(-2 * r3)
    assert zero(a_slice - e2)
    assert zero((1 - a_slice) * (1 - b) - (1 - e2) * (1 - b))
    assert zero(a_slice * b - sympy.exp(-2 * (r2 + r3)) - e2 * (b - e3))
    # analysis.wz_md_sweep's gap: with N the shared numerator, d4_wz =
    # N/(1 - pi) and d4_md = N/(1 - g^2), g = sqrt(pi) - sqrt(delta), their
    # difference is d4_wz sqrt(delta) (2 sqrt(pi) - sqrt(delta))/(1 - g^2);
    # where g <= 0, d4_md = N and it is d4_wz pi.
    N = sympy.symbols("N", positive=True)
    wz, g = N / (1 - P ** 2), P - D
    assert zero(wz - N / (1 - g ** 2) - wz * D * (2 * P - D) / (1 - g ** 2))
    assert zero(wz - N - wz * P ** 2)

    # rd_bound's thresholds: ab - pi = a + b - 1, ab/(a + b - ab) is harmonic.
    assert zero(a * b - (1 - a) * (1 - b) - (a + b - 1))
    assert zero(a * b / (a + b - a * b) - 1 / (1 / a + 1 / b - 1))
    # The harmonic threshold h = ab/(1 - pi) lies above the low one by
    # (a + b) pi/(1 - pi) >= 0.  There W = ab sqrt(pi)/(1 - pi), so
    # exp(-2 (R(h) + excess(h))) = h ((1-h)^2 - (sqrt(pi) - W)^2)/(1-h)^2 is
    # ab: R(h) + excess(h) = R(a) + R(b).
    pi_ab = (1 - a) * (1 - b)
    assert zero(a * b / (1 - pi_ab) - (a * b - pi_ab) - (a + b) * pi_ab / (1 - pi_ab))
    h = (a * b / (1 - pi_ab)).subs(b, b_of_pi)
    W_h = (a * b * P / (1 - pi_ab)).subs(b, b_of_pi)
    assert zero((a - h) * (b_of_pi - h) - W_h ** 2)
    assert zero(h * ((1 - h) ** 2 - (P - W_h) ** 2) / (1 - h) ** 2 - a * b_of_pi)

    # channel._channel in side ratios a = d2/d1, b = d3/d1, t_i = sigma_i/d1.
    d1, d2, d3, rho = sympy.symbols("d1 d2 d3 rho")
    S2, S3 = sympy.symbols("S2 S3", positive=True)  # sqrt(sigma2), sqrt(sigma3)
    ra, rb = d2 / d1, d3 / d1
    assert zero(s / (ra * rb) - d1 ** 2 * s / (d2 * d3))
    assert zero(d1 * (ra / (1 - ra)) - d1 * d2 / (d1 - d2))
    sig2, sig3 = S2 ** 2, S3 ** 2
    t2, t3 = sig2 / d1, sig3 / d1
    omega, omega_rel = sig2 * sig3 * (1 - rho ** 2), t2 * t3 * (1 - rho ** 2)
    textbook_d4 = d1 * omega / (omega + d1 * (sig2 + sig3) - 2 * rho * d1 * S2 * S3)
    sqrt_t2t3 = S2 * S3 / d1  # sqrt(t2 t3) for d1 > 0
    assert zero(d1 * omega_rel / (omega_rel + t2 + t3 - 2 * rho * sqrt_t2t3)
                - textbook_d4)
    # With one side at zero rate the central residual is the other side's.
    sig3_of_b = d1 * rb / (1 - rb)
    assert zero(d1 * sig3_of_b / (d1 + sig3_of_b) - d1 * rb)

    # var(X | U1): closed form against the Schur complement.
    sx2, s1 = sympy.symbols("sx2 s1", positive=True)
    assert zero(sx2 * s1 / (sx2 + s1) - (sx2 - sx2 ** 2 / (sx2 + s1)))
    # sigma1 = d1*/(1 - e^{-2 r1}) is d1* sx2/(sx2 - d1*), with E = e^{-2 r1}.
    E = sympy.symbols("E", positive=True)
    assert zero(sx2 * E / (1 - E) - sx2 * E * sx2 / (sx2 - sx2 * E))

    # mmse._msr_distortions: U2, then the innovation U3 - c U2 with
    # c = rho sqrt(s3/s2), then U4, against the information form of
    # oracle.mp_channel_distortions.
    D1, S4 = sympy.symbols("D1 S4", positive=True)

    def update(v, noise):  # each step of mmse._msr_distortions
        return v * noise / (v + noise)

    c = rho * S3 / S2
    chain = update(update(update(D1, sig2), sig3 * (1 - rho ** 2) / (1 - c) ** 2), S4)
    info = (1 / D1 + (sig2 + sig3 - 2 * rho * S2 * S3) / (sig2 * sig3 * (1 - rho ** 2))
            + 1 / S4)
    assert zero(1 / chain - info)


@pytest.mark.skipif(np.finfo(np.longdouble).eps == EPS,
                    reason="numpy.longdouble is plain double on this platform")
def test_achieved_distortions_match_the_returned_channel():
    # The certification chain against the 50-digit information form of the
    # channel it returns, over seeded draws at unit-scale variances.
    rng = np.random.default_rng(402)
    worst = 0.0
    for _ in range(10_000):
        rates, d2, d3 = sample_feasible_instance(rng)
        var = 10.0 ** rng.uniform(-3.0, 3.0)
        record = certify_achievability(GaussianSource(var), rates, d2 * var, d3 * var)
        exact = oracle.mp_channel_distortions(var, record.channel)
        achieved = (record.achieved.d1, record.achieved.d2, record.achieved.d3,
                    record.achieved.d4)
        worst = max(worst, *(float(abs(x - y) / y) for x, y in zip(achieved, exact)))
    assert worst <= 4.0 * EPS
