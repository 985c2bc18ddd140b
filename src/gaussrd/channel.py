"""Forward test-channel construction and achievability certification.

The forward scheme quantizes in two layers: a common description ``U1 = X + N1``
whose MMSE reconstruction leaves the residual ``X'`` with variance
``d1_star``, then three refinement descriptions ``Ui = X' + Ni`` whose noise
covariance is tuned so the decoders hit their targets exactly.  ``N2`` and
``N3`` are negatively correlated (``rho <= 0``); the central refinement noise
``N4`` is independent of both.

An infinite noise variance encodes a zero-rate description (``sigma1_sq`` at
``r1 = 0``, ``sigma2_sq`` when ``d2 = d1_star``, ``sigma4_sq`` at ``r4 = 0``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidChannel, InvalidRegimeInput
from .mmse import _msr_distortions
from .model import (_DEGENERATE, _NORMAL_MIN, UNCONSTRAINED, DistortionTuple,
                    GaussianSource, RateTuple, _distortion_floor, _exp_quotient,
                    _setattr)
from .regions import _MATH, DrBoundResult, _delta, _side_ratios, dr_bound

#: Closed-form and MMSE-computed distortions must agree this tightly.
CROSSCHECK_RTOL = 1e-10
#: Tolerance on the certified d4 against the converse bound.
CERTIFY_RTOL = 1e-9


@dataclass(frozen=True, init=False)
class TestChannel:
    """Noise parameters of the two-layer forward scheme.

    ``d4_star`` is the residual variance left for the central refiner after
    observing both side descriptions, i.e. ``E[(X' - E[X'|U2, U3])^2]``.
    ``q = 1 - rho^2`` is carried exactly as computed, ``d1_star^2
    exp(-2 (r2+r3)) / (d2 d3)``: rebuilt from the double ``rho``, it would
    keep only ``eps/q`` of relative accuracy as ``rho`` nears -1, where the
    side rates are high.  It is exactly 1 when ``rho`` snaps to 0.
    """

    sigma1_sq: float
    sigma2_sq: float
    sigma3_sq: float
    sigma4_sq: float
    rho: float
    d4_star: float
    q: float

    def __init__(self, sigma1_sq: float, sigma2_sq: float, sigma3_sq: float,
                 sigma4_sq: float, rho: float, d4_star: float, q: float) -> None:
        # A noise variance may be math.inf.
        if not sigma1_sq > 0.0:
            raise InvalidChannel(f"sigma1_sq must be positive, got {sigma1_sq}")
        if not sigma2_sq > 0.0:
            raise InvalidChannel(f"sigma2_sq must be positive, got {sigma2_sq}")
        if not sigma3_sq > 0.0:
            raise InvalidChannel(f"sigma3_sq must be positive, got {sigma3_sq}")
        if not sigma4_sq > 0.0:
            raise InvalidChannel(f"sigma4_sq must be positive, got {sigma4_sq}")
        if not -1.0 <= rho <= 0.0:
            raise InvalidChannel(f"rho must lie in [-1, 0], got {rho}")
        if not (d4_star > 0.0 and math.isfinite(d4_star)):
            raise InvalidChannel(f"d4_star must be positive finite, got {d4_star}")
        if not 0.0 < q <= 1.0:
            raise InvalidChannel(f"q = 1 - rho^2 must lie in (0, 1], got {q}")
        _setattr(self, "sigma1_sq", sigma1_sq)
        _setattr(self, "sigma2_sq", sigma2_sq)
        _setattr(self, "sigma3_sq", sigma3_sq)
        _setattr(self, "sigma4_sq", sigma4_sq)
        _setattr(self, "rho", rho)
        _setattr(self, "d4_star", d4_star)
        _setattr(self, "q", q)


@dataclass(slots=True)
class DegenerateAdjustment:
    """Side targets tightened onto the degeneracy boundary."""

    d2_prime: float
    d3_prime: float


@dataclass(slots=True)
class CertificationRecord:
    """Outcome of the forward construction at one operating point."""

    achieved: DistortionTuple
    bound: DrBoundResult
    matches_bound: bool
    channel: TestChannel
    adjustment: DegenerateAdjustment | None


def _channel(rates: RateTuple, d1s: float, a: float, b: float,
             a_gap: float, b_gap: float) -> TestChannel:
    """Noise variances and correlation that meet ``(d1_star, a d1s, b d1s)``
    exactly at ``d1_star = d1s``, the side ratios ``a``, ``b`` and their gaps
    ``1 - a``, ``1 - b``, for ``pi >= delta``, unchecked.  ``rho = -sqrt(1 -
    s/(a b))``, ``s = exp(-2 (r2+r3))``, is zero exactly where ``delta`` is;
    all is formed relative to ``d1s``, so no product such as ``d2 d3``
    underflows at high ``r1``."""
    # d1_star / (1 - exp(-2 r1)) = d1_star var / (var - d1_star), free of
    # the product that over- or underflows at extreme variances.
    sigma1_sq = math.inf if rates.r1 == 0.0 else d1s / -math.expm1(-2.0 * rates.r1)
    # t2, t3: sigma2_sq, sigma3_sq relative to d1_star.
    t2 = math.inf if a_gap <= 0.0 else a / a_gap
    t3 = math.inf if b_gap <= 0.0 else b / b_gap
    # rho^2 = 1 - q = delta/(a b) snaps to 0 where the bound's delta does, so
    # targets on their rate floors give rho = 0, not -sqrt(rounding noise).
    s = math.exp(-2.0 * (rates.r2 + rates.r3))
    if _delta(_MATH, a * b, s)[2]:
        q = s / (a * b)
        rho = -math.sqrt(1.0 - q)
    else:
        rho, q = 0.0, 1.0

    if math.isinf(t2) or math.isinf(t3):
        # A zero-rate side description leaves the other side's distortion.
        rel_d4 = b if b < a else a
    else:
        omega = t2 * t3 * q
        rel_d4 = omega / (omega + t2 + t3 - 2.0 * rho * math.sqrt(t2 * t3))
    d4_star = d1s * rel_d4
    if rates.r4 == 0.0:
        sigma4_sq = math.inf
    else:
        try:
            sigma4_sq = d4_star / math.expm1(2.0 * rates.r4)
        except OverflowError:
            # Past exp(2 r4) = inf, d4_star exp(-2 r4) is the quotient to
            # rounding.
            sigma4_sq = _exp_quotient(d4_star, -2.0 * rates.r4, 1.0)
    sigma2_sq, sigma3_sq = d1s * t2, d1s * t3
    # An infinite noise variance means a zero rate; near the top of the
    # double range a small positive rate overflows to one.
    if ((rates.r1 > 0.0 and math.isinf(sigma1_sq))
            or (a_gap > 0.0 and math.isinf(sigma2_sq))
            or (b_gap > 0.0 and math.isinf(sigma3_sq))
            or (rates.r4 > 0.0 and math.isinf(sigma4_sq))):
        raise InvalidChannel(
            f"a noise variance of a positive rate overflows: ({sigma1_sq}, "
            f"{sigma2_sq}, {sigma3_sq}, {sigma4_sq}) at d1_star={d1s}")
    return TestChannel(sigma1_sq, sigma2_sq, sigma3_sq, sigma4_sq, rho, d4_star, q)


def _over_floor(d1s: float, d: float, e: float, c: float) -> float:
    """``d - d1s e``, the excess of a side target over its floor ``d1s e``,
    ``e = exp(-2 r) = 1 - c``.  Near a zero rate (``e > 1/2``) it is formed
    as ``d1s c - (d1s - d)``, whose subtraction is exact, since ``d1s e``
    would carry rounding of ``eps`` relative to ``d1s``, not to ``d1s c``.
    """
    return d - d1s * e if e < 0.5 else d1s * c - (d1s - d)


def _adjust(rates: RateTuple, d1s: float, d2: float, d3: float
            ) -> tuple[DegenerateAdjustment, float, float]:
    """Side targets ``d2``, ``d3`` with ``pi < delta`` shrunk onto the
    boundary ``pi = delta`` at ``d1_star = d1s``, unchecked, with their gaps
    ``1 - d2'/d1s`` and ``1 - d3'/d1s``.  Each lands between its floor and
    its request.

    With ``e_i = exp(-2 r_i) = 1 - c_i`` and the excesses ``x_i`` of the
    targets over their floors ``d1s e_i``, the boundary
    ``d2' + d3' = d1s (1 + s)`` leaves excesses summing to ``d1s c2 c3``:
    each excess keeps the share ``shrink = d1s c2 c3 / (x2 + x3)`` and loses
    ``cut = 1 - shrink``.  ``cut (x2 + x3) / d1s = a + b - 1 - s`` is formed
    around the smaller gap ``1 - b`` as ``c3 e2 + x2/d1s - (1 - b)`` (or its
    mirror), which cancels no more than the distance to the boundary does.
    A target is formed from whichever of its floor and its request it stays
    nearer to, and its gap ``1 - d_i/d1s + cut x_i/d1s`` adds positive
    terms, so it keeps its digits where ``d_i'`` lies within rounding of
    ``d1s``.
    """
    e2, e3 = math.exp(-2.0 * rates.r2), math.exp(-2.0 * rates.r3)
    c2, c3 = -math.expm1(-2.0 * rates.r2), -math.expm1(-2.0 * rates.r3)
    g2, g3 = (d1s - d2) / d1s, (d1s - d3) / d1s
    x2, x3 = _over_floor(d1s, d2, e2, c2), _over_floor(d1s, d3, e3, c3)
    # delta > pi forces d2 + d3 > d1s (1 + s), so span > d1s c2 c3 >= 0,
    # unless d1s is subnormal and the floors carry no digits.
    span = x2 + x3
    if not span > 0.0:
        raise InvalidRegimeInput(
            f"side targets ({d2}, {d3}) do not exceed their floors at "
            f"d1_star={d1s}; there is no excess to shrink"
        )
    shrink = d1s / span * c2 * c3
    over = c3 * e2 + x2 / d1s - g3 if g3 <= g2 else c2 * e3 + x3 / d1s - g2
    cut = d1s / span * over
    cut = 0.0 if 0.0 > cut else cut
    if shrink <= cut:
        adjustment = DegenerateAdjustment(d1s * e2 + shrink * x2,
                                          d1s * e3 + shrink * x3)
    else:
        adjustment = DegenerateAdjustment(d2 - cut * x2, d3 - cut * x3)
    return adjustment, g2 + cut * x2 / d1s, g3 + cut * x3 / d1s


def certify_achievability(source: GaussianSource, rates: RateTuple,
                          d2: float, d3: float) -> CertificationRecord:
    """Build the forward channel and verify it meets the converse bound.

    One pass: :func:`~gaussrd.regions.dr_bound` validates the inputs once,
    and its ``d1_star``, clamped side targets and ratios feed the channel
    arithmetic directly.  Side targets above ``d1_star`` are clamped (a
    zero-rate description already achieves ``d1_star``); degenerate inputs
    (``pi < delta``) are first tightened onto ``pi = delta``, and the
    channel is built from those targets and from their gaps
    ``1 - d'/d1_star`` as the adjustment forms them.  A bound below the
    normal double range raises :class:`InvalidRegimeInput`: there a double
    keeps fewer than 53 bits, too few for the verdict's 1e-9 relative
    tolerances.  The four achieved distortions come from one chain of
    scalar MMSE updates on the returned channel, carried in
    ``numpy.longdouble`` (:func:`gaussrd.mmse._msr_distortions`).  The
    central one is cross-checked against the closed form ``exp(-2 r4) d4_star``
    within 1e-10 relative; both read the channel's exact ``q = 1 - rho^2``,
    so neither loses digits as ``rho`` nears -1.  ``matches_bound`` records
    whether it meets the distortion-rate bound within 1e-9 relative.
    """
    bound = dr_bound(source, rates, UNCONSTRAINED, d2, d3)
    if not bound.d4_bound >= _NORMAL_MIN:
        raise InvalidRegimeInput(
            f"d4 bound {bound.d4_bound} underflows below the normal double range "
            f"at rates {tuple(float(r) for r in rates.as_tuple())}; it keeps too "
            f"few digits to certify a channel against")
    d1s, d2c, d3c = bound.d1_star, bound.d2_hat, bound.d3_hat
    if bound.regime is _DEGENERATE:
        adjustment, a_gap, b_gap = _adjust(rates, d1s, d2c, d3c)
        a, b = _side_ratios(d1s, adjustment.d2_prime, adjustment.d3_prime)
    else:
        adjustment = None
        a, b = d2c / d1s, d3c / d1s
        a_gap, b_gap = 1.0 - a, 1.0 - b
    channel = _channel(rates, d1s, a, b, a_gap, b_gap)
    achieved = DistortionTuple(*_msr_distortions(source.variance, channel))
    ach_d1, ach_d4 = achieved.d1, achieved.d4
    closed_d4 = _distortion_floor(channel.d4_star, rates.r4)
    if abs(ach_d4 - closed_d4) > CROSSCHECK_RTOL * closed_d4:
        raise InvalidChannel(
            f"internal cross-check failed: MMSE d4={ach_d4} vs closed form {closed_d4}"
        )
    matches = (
        abs(ach_d4 - bound.d4_bound) <= CERTIFY_RTOL * bound.d4_bound
        and abs(ach_d1 - d1s) <= 1e-12 * d1s
        and achieved.d2 <= d2 * (1.0 + CERTIFY_RTOL)
        and achieved.d3 <= d3 * (1.0 + CERTIFY_RTOL)
    )
    return CertificationRecord(achieved, bound, matches, channel, adjustment)
