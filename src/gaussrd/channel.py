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
import sys
from dataclasses import dataclass

from .errors import (InfeasibleDistortion, InvalidChannel, OutOfRegime)
from .mmse import _msr_distortions
from .model import (FEASIBILITY_RTOL, UNCONSTRAINED, DistortionTuple,
                    GaussianSource, RateTuple, Regime, _checked_d1_star)
from .regions import DrBoundResult, _pi_delta, _side_ratios, dr_bound

#: Closed-form and MMSE-computed distortions must agree this tightly.
CROSSCHECK_RTOL = 1e-10
#: Tolerance on the certified d4 against the converse bound.
CERTIFY_RTOL = 1e-9


@dataclass(frozen=True)
class TestChannel:
    """Noise parameters of the two-layer forward scheme.

    ``d4_star`` is the residual variance left for the central refiner after
    observing both side descriptions, i.e. ``E[(X' - E[X'|U2, U3])^2]``.
    """

    sigma1_sq: float
    sigma2_sq: float
    sigma3_sq: float
    sigma4_sq: float
    rho: float
    d4_star: float

    def __post_init__(self) -> None:
        for name in ("sigma1_sq", "sigma2_sq", "sigma3_sq", "sigma4_sq"):
            value = getattr(self, name)
            if not value > 0.0:  # math.inf is admissible
                raise InvalidChannel(f"{name} must be positive, got {value}")
        if not -1.0 <= self.rho <= 0.0:
            raise InvalidChannel(f"rho must lie in [-1, 0], got {self.rho}")
        if not (self.d4_star > 0.0 and math.isfinite(self.d4_star)):
            raise InvalidChannel(f"d4_star must be positive finite, got {self.d4_star}")


@dataclass(frozen=True)
class DegenerateAdjustment:
    """Side targets tightened onto the degeneracy boundary."""

    d2_prime: float
    d3_prime: float


@dataclass(frozen=True)
class CertificationRecord:
    """Outcome of the forward construction at one operating point."""

    achieved: DistortionTuple
    bound: DrBoundResult
    matches_bound: bool
    channel: TestChannel
    adjustment: DegenerateAdjustment | None


def _checked_inputs(source: GaussianSource, rates: RateTuple, d2: float, d3: float
                    ) -> tuple[float, float, float, float, float, float, bool]:
    """``(d1_star, a, b, s, pi, delta, degenerate)`` of clamped, individually
    feasible side targets, with ``a = d2/d1_star``, ``b = d3/d1_star`` and
    ``s = exp(-2 (r2+r3))``."""
    d1s = _checked_d1_star(source, rates, UNCONSTRAINED, d2, d3)
    for name, d in (("d2", d2), ("d3", d3)):
        if d > d1s * (1.0 + FEASIBILITY_RTOL):
            raise InfeasibleDistortion(
                f"{name}={d} exceeds the first-layer floor {d1s}; clamp it first"
            )
    a, b = _side_ratios(d1s, d2, d3)
    s = math.exp(-2.0 * (rates.r2 + rates.r3))
    return d1s, a, b, s, *_pi_delta(a, b, s)


def construct_channel(source: GaussianSource, rates: RateTuple,
                      d2: float, d3: float) -> TestChannel:
    """Noise variances and correlation that meet ``(d1_star, d2, d3)`` exactly.

    Requires the non-degenerate regime (``pi >= delta`` up to rounding); in
    the degenerate one call :func:`degenerate_adjust` first.  The refinement
    correlation is ``rho = -sqrt(1 - d1_star^2 exp(-2 (r2+r3)) / (d2 d3))``,
    which is zero exactly when ``delta = 0`` (both targets at their floors).
    The noise variances and ``d4_star`` are computed relative to
    ``d1_star``, so products like ``d2 d3`` never underflow at high ``r1``.
    """
    d1s, a, b, s, pi, delta, degenerate = _checked_inputs(source, rates, d2, d3)
    # The adjusted boundary case lands at pi == delta up to rounding.
    if degenerate:
        raise OutOfRegime(
            f"pi={pi} < delta={delta}: degenerate regime, adjust the targets first"
        )

    # d1_star / (1 - exp(-2 r1)) = d1_star var / (var - d1_star), free of
    # the product that over- or underflows at extreme variances.
    sigma1_sq = math.inf if rates.r1 == 0.0 else d1s / -math.expm1(-2.0 * rates.r1)
    # t2, t3: sigma2_sq, sigma3_sq relative to d1_star.
    t2 = math.inf if a >= 1.0 else a / (1.0 - a)
    t3 = math.inf if b >= 1.0 else b / (1.0 - b)
    # Snap within-rounding values of rho^2 to the exact floor corner: like
    # the delta term of the distortion bound, sqrt has unbounded sensitivity
    # at zero, and both targets sitting exactly on their rate floors must
    # yield rho = 0 rather than -sqrt(rounding noise).
    q = s / (a * b)
    rho_sq = 1.0 - q
    rho = -math.sqrt(rho_sq) if rho_sq > FEASIBILITY_RTOL * max(1.0, q) else 0.0

    if math.isinf(t2) or math.isinf(t3):
        # A zero-rate side description leaves the other side's distortion.
        rel_d4 = min(a, b)
    else:
        omega = t2 * t3 * (1.0 - rho * rho)
        rel_d4 = omega / (omega + t2 + t3 - 2.0 * rho * math.sqrt(t2 * t3))
    d4_star = d1s * rel_d4
    sigma4_sq = (math.inf if rates.r4 == 0.0
                 else d4_star / math.expm1(2.0 * rates.r4))
    return TestChannel(sigma1_sq, d1s * t2, d1s * t3, sigma4_sq, rho, d4_star)


def degenerate_adjust(source: GaussianSource, rates: RateTuple,
                      d2: float, d3: float) -> DegenerateAdjustment:
    """Shrink over-generous side targets onto the degeneracy boundary.

    In the degenerate regime (``pi < delta`` beyond rounding) the
    construction can afford to beat the requested side targets; both are
    reduced proportionally (relative to their floors) until
    ``d2' + d3' = d1_star (1 + exp(-2 (r2+r3)))``, which restores
    ``pi = delta`` exactly and leaves each target between its floor and its
    requested value.  The boundary case, ``pi == delta`` up to rounding,
    raises, since there is nothing to adjust.
    """
    d1s, _, _, s, pi, delta, degenerate = _checked_inputs(source, rates, d2, d3)
    if not degenerate:
        raise OutOfRegime(
            f"adjustment needs pi < delta beyond rounding, got pi={pi}, "
            f"delta={delta}"
        )
    floor2 = d1s * math.exp(-2.0 * rates.r2)
    floor3 = d1s * math.exp(-2.0 * rates.r3)
    target_sum = d1s * (1.0 + s)
    span = (d2 - floor2) + (d3 - floor3)
    # delta > pi forces d2 + d3 > target_sum >= floor2 + floor3, so span > 0.
    shrink = (target_sum - floor2 - floor3) / span
    d2p = floor2 + shrink * (d2 - floor2)
    d3p = floor3 + shrink * (d3 - floor3)
    return DegenerateAdjustment(d2p, d3p)


def certify_achievability(source: GaussianSource, rates: RateTuple,
                          d2: float, d3: float) -> CertificationRecord:
    """Build the forward channel and verify it meets the converse bound.

    Side targets above ``d1_star`` are clamped (a zero-rate description
    already achieves ``d1_star``); degenerate inputs are first tightened by
    :func:`degenerate_adjust`.  The four achieved distortions come from one
    chain of scalar MMSE updates on the returned channel, carried in
    ``numpy.longdouble`` (:func:`gaussrd.mmse._msr_distortions`).  The central
    one is cross-checked against the closed form ``exp(-2 r4) d4_star``
    within 1e-10 relative, widened to ``4 eps / (1 - rho^2)`` when larger:
    the closed form's ``1 - rho*rho`` cancels as ``rho`` nears -1.
    ``matches_bound`` records whether it meets the distortion-rate bound
    within 1e-9 relative.
    """
    bound = dr_bound(source, rates, UNCONSTRAINED, d2, d3)
    d1s, d2c, d3c = bound.d1_star, bound.d2_hat, bound.d3_hat
    adjustment = None
    if bound.regime is Regime.DEGENERATE_PI_LESS_DELTA:
        adjustment = degenerate_adjust(source, rates, d2c, d3c)
        d2c, d3c = adjustment.d2_prime, adjustment.d3_prime
    channel = construct_channel(source, rates, d2c, d3c)
    achieved = DistortionTuple(*_msr_distortions(source.variance, channel))
    ach_d1, ach_d4 = achieved.d1, achieved.d4
    closed_d4 = math.exp(-2.0 * rates.r4) * channel.d4_star
    tol_rel = CROSSCHECK_RTOL
    if not (math.isinf(channel.sigma2_sq) or math.isinf(channel.sigma3_sq)):
        rho, eps = channel.rho, sys.float_info.epsilon
        tol_rel = max(tol_rel, 4.0 * eps / ((1.0 - rho) * (1.0 + rho)))
    if abs(ach_d4 - closed_d4) > tol_rel * closed_d4:
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
