"""Comparison analyses built on top of the region primitives.

Four studies live here, all on a unit-variance source unless stated:

* a side-information (binning) alternative for the second user, compared with
  the plain two-description slice of the main region;
* the loss from freezing the first-layer test channel while the rate budget
  of a late stage grows;
* conditional refinement of both descriptions (splitting an extra rate
  ``r4`` onto the two side branches) versus spending the same total rate in
  the plain two-description system;
* closed-form high-rate asymptotes of the central distortion and their
  convergence against the exact bounds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import InfeasibleDistortion, InvalidRegimeInput, OutOfRegime
from .model import (_NORMAL_MIN, UNCONSTRAINED, GaussianSource, RateTuple,
                    Regime, _checked_d1_star, _distortion_floor, _exp_quotient,
                    _require_rate)
from .regions import _MATH, _delta, _penalty_den, _side_ratios, dr_bound


def wz_region(source: GaussianSource, rates: RateTuple, d3_prime: float) -> float:
    """Central-distortion bound of the binning alternative.

    The first two stages sit on their floors ``d1* = var exp(-2 r1)`` and
    ``d2* = d1* exp(-2 r2)``; ``d3_prime`` is the second user's target
    (feasible when at least ``var exp(-2 (r1+r3))``) and the returned value is
    the least central distortion reachable with the remaining rates.  The
    binning channel ``U1 = X + N1 + N2``, ``U2 = X + N2`` that pins the floors
    has ``1/var + 1/(s1 + s2) = 1/d1*``, so its bound is::

        var exp(-2 (r1+r2+r3+r4)) / (1 - pi),  pi = (1 - a)(1 - b),

    at ``a = exp(-2 r2)`` and ``b = min(d3', d1*)/d1*``: the bound of
    :func:`~gaussrd.regions.dr_bound` at ``(d2*, d3')`` without the
    ``sqrt(delta)`` term of its penalty, which is what binning loses.  So it
    coincides with the plain two-description slice where ``delta = 0`` (the
    floor of ``d3_prime``) or ``pi = 0`` (``d3_prime`` at ``d1*``, or
    ``r2 = 0``), and is strictly worse in between.  ``1 - pi`` is formed as
    ``exp(-2 r2) + (1 - exp(-2 r2)) b``, two nonnegative terms, so nothing
    cancels; only ``r3 + r4`` is summed.  Raises :class:`InvalidRegimeInput`
    where ``d1*`` underflows to 0 or ``1 - pi`` lies below the normal double
    range (``r2`` and ``r3`` both past about 354 nats).
    """
    d1s = _checked_d1_star(source, rates, UNCONSTRAINED, UNCONSTRAINED, d3_prime)
    # a = d2*/d1* is exp(-2 r2) itself; _side_ratios clamps d3' to d1* and
    # refuses an underflowed d1*.
    _, b = _side_ratios(d1s, d1s, d3_prime)
    den = math.exp(-2.0 * rates.r2) - math.expm1(-2.0 * rates.r2) * b
    if den < _NORMAL_MIN:
        raise InvalidRegimeInput(
            f"1 - pi = exp(-2 r2) + (1 - exp(-2 r2)) b = {den} is below the "
            f"normal double range (r2={rates.r2}, b={b})")
    # d1* exp(-2 r2) / den as m 2^k, then times exp(-2 (r3+r4)) by the
    # floor's route, which goes through m 2^k where that factor is subnormal.
    return _distortion_floor(_exp_quotient(d1s, -2.0 * rates.r2, den),
                             rates.r3 + rates.r4)


def md_region_slice(source: GaussianSource, rates: RateTuple, d3: float) -> float:
    """The plain two-description slice: :func:`~gaussrd.regions.dr_bound`'s
    bound at ``d2* = var exp(-2 (r1+r2))`` and ``d3``, where ``pi = (1 -
    exp(-2 r2))(1 - b)`` and ``delta = exp(-2 r2)(b - exp(-2 r3))``."""
    d2s = _distortion_floor(source.variance, rates.r1 + rates.r2)
    return dr_bound(source, rates, UNCONSTRAINED, d2s, d3).d4_bound


@dataclass(slots=True)
class SweepRow:
    d3: float
    d4_wz: float
    d4_md: float
    gap: float


def wz_md_sweep(source: GaussianSource, rates: RateTuple,
                points: int = 200) -> list[SweepRow]:
    """Sweep the second user's target across its feasible range.

    Rows run from the floor ``var exp(-2 (r1+r3))`` up to ``d1*`` inclusive.
    ``gap = d4_wz - d4_md`` is what the ``sqrt(delta)`` term of the plain
    penalty gains (see :func:`wz_region`).  As ``d4_wz = N/(1 - pi)`` and
    ``d4_md = N/(1 - g^2)``, ``g = sqrt(pi) - sqrt(delta)``, it is formed
    with no difference, as ``d4_wz sqrt(delta) (2 sqrt(pi) - sqrt(delta)) /
    (1 - g^2)`` where ``sqrt(delta) < sqrt(pi)``, else ``d4_wz pi``, from the
    slice's ``pi = (1 - exp(-2 r2))(1 - b)`` and ``delta = exp(-2 r2)(b -
    exp(-2 r3))``, ``delta`` snapped as :func:`~gaussrd.regions.dr_bound`
    snaps it.  So it is exactly 0 at both ends (``delta = 0`` at the floor,
    ``pi = 0`` at ``d1*``) and on every row at ``r2 = 0``, positive inside,
    and within about ``eps (ab/delta + b/(1 - b) + 1 + r3 + r4)`` relative.
    Where ``d1*`` or the floor underflows to 0 there is no range to sweep,
    and :class:`InvalidRegimeInput` is raised before any floor test.
    """
    if points < 2:
        raise ValueError(f"need at least 2 sweep points, got {points}")
    sx2 = source.variance
    lo = _distortion_floor(sx2, rates.r1 + rates.r3)
    hi = _distortion_floor(sx2, rates.r1)
    if not hi > 0.0:
        raise InvalidRegimeInput(
            f"first-layer floor d1* = var exp(-2 r1) = {hi} underflows at "
            f"r1 = {rates.r1}; the second user's targets cannot be swept")
    if not lo > 0.0:
        raise InvalidRegimeInput(
            f"second-user floor var exp(-2 (r1+r3)) = {lo} underflows at "
            f"r1 + r3 = {rates.r1 + rates.r3}; the second user's targets cannot be swept")
    e2, c2 = math.exp(-2.0 * rates.r2), -math.expm1(-2.0 * rates.r2)
    e3 = math.exp(-2.0 * rates.r3)
    span, rows = hi - lo, []
    for i in range(points):
        step = span * i
        # Near the top of the double range span i overflows, though the
        # fraction i/(points - 1) of the span does not.  lo + span need not
        # round to d1*, so the last row is d1* itself.
        d3 = (hi if i == points - 1 else
              lo + (step / (points - 1) if step < math.inf else span * (i / (points - 1))))
        wz = wz_region(source, rates, d3)
        md = md_region_slice(source, rates, d3)
        # No row lies above d1*, so this is wz_region's b = min(d3, d1*)/d1*.
        b = d3 / hi
        pi, delta = c2 * (1.0 - b), e2 * _delta(_MATH, b, e3)[2]
        sqrt_pi, sqrt_delta = math.sqrt(pi), math.sqrt(delta)
        if sqrt_delta < sqrt_pi:
            gap = wz * (sqrt_delta * (2.0 * sqrt_pi - sqrt_delta) / _penalty_den(e2, b, delta))
        else:
            # wz pi, with wz c2 first: pi is subnormal at r2 below about
            # 1e-308 though the gap need not be.
            gap = wz * c2 * (1.0 - b)
        rows.append(SweepRow(d3, wz, md, gap))
    return rows


@dataclass(frozen=True)
class FixedChannelConfig:
    """Coupling strength of the late-stage rate to the first layer."""

    alpha: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be a nonnegative real, got {self.alpha}")


@dataclass(slots=True)
class FixedChannelLoss:
    """Multiplicative penalty for keeping the first-layer channel frozen."""

    ratio: float
    d2_floor: float


def fixed_channel_loss(source: GaussianSource, r1: float, r3: float,
                       config: FixedChannelConfig) -> FixedChannelLoss:
    """Distortion penalty of a frozen first-layer channel.

    With the late-stage budget ``alpha r1``, an adaptive design reaches
    ``var exp(-2 (1 + alpha) r1)`` while the frozen channel cannot go below
    ``d2_floor = d1* (1 + exp(-2 (alpha r1 + r3)) - exp(-2 r3))``; the
    returned ratio ``d2_floor / (var exp(-2 (1 + alpha) r1))``,

        ``exp(2 alpha r1) + exp(-2 r3) - exp(2 (alpha r1 - r3))``,

    is at least 1, equals ``1 + O(alpha)`` as ``alpha -> 0``, and grows
    without bound in ``r1`` for fixed positive ``alpha`` and ``r3``.  Both
    are formed as sums of nonnegative terms, with ``c3 = 1 - exp(-2 r3)``
    from ``expm1``: ``ratio = exp(2 alpha r1) c3 + exp(-2 r3)`` and
    ``d2_floor = d1* (c3 + exp(-2 (alpha r1 + r3)))``, so nothing cancels at
    small ``r3`` and large ``alpha r1``.  Raises :class:`InvalidRegimeInput`
    when the ratio overflows or ``d2_floor`` falls below the normal double
    range.
    """
    _require_rate("r1", r1)
    _require_rate("r3", r3)
    a = config.alpha
    d1s = _distortion_floor(source.variance, r1)
    c3 = -math.expm1(-2.0 * r3)
    try:
        growth = math.exp(2.0 * a * r1)
        # At c3 = 0 the product is 0, also where 2 alpha r1 is inf and
        # exp(inf) * 0 would be nan.
        ratio = (growth * c3 if c3 else 0.0) + math.exp(-2.0 * r3)
        d2_floor = d1s * (c3 + math.exp(-2.0 * (a * r1 + r3)))
    except OverflowError:
        # exp(2 alpha r1) overflows, though its product with c3 need not;
        # exp(-2 (alpha r1 + r3)) then lies below the normal range.
        try:
            grown = math.exp(2.0 * a * r1 + math.log(c3)) if c3 else 0.0
        except OverflowError:
            grown = math.inf
        ratio = grown + math.exp(-2.0 * r3)
        d2_floor = d1s * c3 + _exp_quotient(d1s, -2.0 * (a * r1 + r3), 1.0)
    # exp(inf) is inf without an OverflowError.
    if not math.isfinite(ratio):
        raise InvalidRegimeInput(
            f"the penalty ratio exp(2 alpha r1) overflows at alpha r1 = {a * r1}")
    if d2_floor < sys.float_info.min:
        raise InvalidRegimeInput(
            f"the frozen floor d2_floor = {d2_floor} is below the normal double "
            f"range at r1 = {r1}")
    return FixedChannelLoss(ratio, d2_floor)


@dataclass(frozen=True)
class MdcrSplit:
    """How the conditional-refinement rate divides onto the two branches."""

    beta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")


@dataclass(slots=True)
class MdcrComparison:
    d4_mdcr: float
    d4_md: float
    ratio: float


def mdcr_compare(source: GaussianSource, r2: float, r3: float, r4: float,
                 split: MdcrSplit, d2: float, d3: float) -> MdcrComparison:
    """Conditional refinement versus re-budgeted plain two-description coding.

    Both systems run at zero first-layer rate and identical total rate: the
    refinement system keeps ``(r2, r3)`` on the side branches and spends
    ``r4`` centrally, while the comparison system folds the same budget into
    the branches as ``(r2 + beta r4, r3 + (1-beta) r4)``.  The central-
    distortion bounds share their numerator, so the ratio is that of the
    penalty denominators, formed as such: it keeps its digits where the
    numerator underflows, and its error does not grow with the rates.  It is
    at least 1 and nondecreasing in ``r4``.  Requires the re-budgeted system
    to be non-degenerate.
    """
    sx2 = source.variance
    for name, d in (("d2", d2), ("d3", d3)):
        if not 0.0 < d < sx2:
            raise InfeasibleDistortion(
                f"{name} must lie strictly between 0 and the source variance, got {d}"
            )
    rates_mdcr = RateTuple(0.0, r2, r3, r4)
    rates_md = RateTuple(0.0, r2 + split.beta * r4,
                         r3 + (1.0 - split.beta) * r4, 0.0)
    bound_md = dr_bound(source, rates_md, sx2, d2, d3)
    if bound_md.regime is Regime.DEGENERATE_PI_LESS_DELTA:
        raise OutOfRegime(
            "re-budgeted system is degenerate at these targets; the comparison "
            "premise fails"
        )
    bound_mdcr = dr_bound(source, rates_mdcr, sx2, d2, d3)
    # The numerators cancel (d1* = var), also where they have underflowed.
    a, b = bound_md.d2_hat / sx2, bound_md.d3_hat / sx2
    ratio = _penalty_den(a, b, bound_md.delta) / _penalty_den(a, b, bound_mdcr.delta)
    return MdcrComparison(bound_mdcr.d4_bound, bound_md.d4_bound, ratio)


@dataclass(frozen=True)
class AsymptoticConfig:
    """Balanced high-rate scaling: side targets ``b exp(-2 (1-eta) r')`` at
    side rates ``r'``."""

    b: float
    eta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.b) and self.b >= 1.0):
            raise ValueError(f"b must be at least 1, got {self.b}")
        if not 0.0 <= self.eta < 1.0:
            raise ValueError(f"eta must lie in [0, 1), got {self.eta}")


@dataclass(slots=True)
class HighRateAsymptotes:
    d4_asymptote_md: float
    d4_asymptote_mdcr: float
    product_bound: float


def high_rate_asymptote(config: AsymptoticConfig, r_prime: float,
                        eta1: float) -> HighRateAsymptotes:
    """Leading-order central distortion for balanced descriptions at rate
    ``r' = r_prime > 0``.

    Unit source variance.  The plain system obeys
    ``exp(-2 r') / (2 (b + sqrt(b^2 - 1)))`` when the side targets stay at
    constant ratio (``eta = 0``) and ``exp(-2 (1+eta) r') / (4 b)`` when they
    shrink; the conditional-refinement system with exponent ``eta1`` in
    ``[0, eta]`` keeps the sharper constant only when ``eta1 = eta``.  The product of the two side
    targets with the central one is bounded by ``exp(-4 r') / 4`` either way.
    """
    if not (math.isfinite(r_prime) and r_prime > 0.0):
        raise ValueError(f"r_prime must be positive, got {r_prime}")
    b, eta = config.b, config.eta
    if not 0.0 <= eta1 <= eta:
        raise ValueError(f"eta1 must lie in [0, eta={eta}], got {eta1}")
    # sqrt(b - 1) sqrt(b + 1) neither cancels near b = 1 nor overflows where
    # b * b would.
    sharp = 2.0 * (b + math.sqrt(b - 1.0) * math.sqrt(b + 1.0))
    if math.isinf(sharp):
        raise InvalidRegimeInput(
            f"b={b} is too large: the constant 2 (b + sqrt(b^2 - 1)) overflows"
        )
    # At eta == 0 the exponent -2 (1 + eta) r' is exactly -2 r'.
    decay = math.exp(-2.0 * (1.0 + eta) * r_prime)
    md = decay / (sharp if eta == 0.0 else 4.0 * b)
    mdcr = decay / (sharp if eta1 == eta else 4.0 * b)
    product = math.exp(-4.0 * r_prime) / 4.0
    return HighRateAsymptotes(md, mdcr, product)


@dataclass(slots=True)
class ConvergenceRow:
    r_prime: float
    exact: float
    asymptote: float
    ratio: float


def asymptote_convergence(config: AsymptoticConfig,
                          r_grid: list[float]) -> list[ConvergenceRow]:
    """Exact-to-asymptote ratio of the plain system's bound along a rate grid.

    Unit source variance, balanced descriptions, side targets
    ``b exp(-2 (1-eta) r')``.  Grid rates must be finite, at least 1 nat and
    increasing.  The ratio tends to 1 as ``r'`` grows.  Raises
    :class:`InvalidRegimeInput` once the bound or the asymptote falls below
    the normal double range, or the side targets' product does (past about
    177 nats at ``eta = 0``).
    """
    if not r_grid:
        raise ValueError("rate grid is empty")
    previous = None
    for rp in r_grid:
        if not 1.0 <= rp < math.inf:
            need = "finite" if rp == math.inf else "at least 1 nat"
            raise ValueError(f"grid rates must be {need}, got {rp}")
        if previous is not None and rp <= previous:
            raise ValueError("grid rates must be strictly increasing")
        previous = rp
    source = GaussianSource(1.0)
    rows = []
    for rp in r_grid:
        side = config.b * math.exp(-2.0 * (1.0 - config.eta) * rp)
        rates = RateTuple(0.0, rp, rp, 0.0)
        exact = dr_bound(source, rates, 1.0, side, side).d4_bound
        asym = high_rate_asymptote(config, rp, config.eta).d4_asymptote_md
        if (asym if asym < exact else exact) < sys.float_info.min:
            raise InvalidRegimeInput(
                f"at r'={rp} the bound {exact} or its asymptote {asym} is below "
                f"the normal double range; their ratio cannot be formed"
            )
        rows.append(ConvergenceRow(rp, exact, asym, exact / asym))
    return rows
