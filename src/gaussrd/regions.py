"""Distortion-rate and rate-distortion boundaries of the two-layer, two-user
Gaussian refinement region, together with the converse witness and a grid
scanner that cross-validates the two characterizations against each other.

Notation used throughout (all rates in nats):

* ``d1_star = var * exp(-2 r1)`` is the first-layer distortion floor and
  ``d_hat = min(d, d1_star)`` clamps a side target to it;
* the normalized side targets are ``a = d2_hat/d1_star``, ``b = d3_hat/d1_star``;
* ``pi = (1 - a)(1 - b)`` and ``delta = a b - exp(-2 (r2 + r3))`` drive the
  central-distortion penalty ``1 / (1 - (max(sqrt(pi) - sqrt(delta), 0))^2)``,
  whose denominator :func:`_penalty` evaluates in ratio form;
* ``R(x) = -log(x)/2`` is the rate that moves a distortion ratio to ``x``.

For individually feasible inputs ``delta >= 0`` always holds (``a >= exp(-2 r2)``
and ``b >= exp(-2 r3)``); a materially negative value therefore raises.

The closed forms that the scalar bounds and the grid scan share are written
once against a namespace ``xp``: numpy for arrays, :data:`_MATH` for doubles.
``xp.where`` evaluates both branches, so those bodies hold only expressions
that cannot raise on a double; the refusals stay with their callers.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace

from .errors import (InfeasibleDistortion, InvalidRegimeInput, NegativeDelta,
                     OutOfRegime)
from .model import (_DEGENERATE, _NON_DEGENERATE, _NORMAL_MIN, _RD_EXCESS,
                    _RD_LOW, _RD_SLACK, FEASIBILITY_RTOL, UNCONSTRAINED,
                    DistortionTuple, GaussianSource, RateTuple, Regime,
                    Unconstrained, _checked_d1_star, _distortion_floor,
                    _exp_quotient, _margin, _over_ceiling, _require_d1_floor,
                    _require_rate)

#: Relative half-width of the band around regime boundaries inside which the
#: adjacent branches are reconciled instead of trusted blindly.
BOUNDARY_RTOL = 1e-9


def rate_to_reach(ratio: float, name: str = "ratio") -> float:
    """Rate (nats) required to bring a distortion ratio down to ``ratio``.

    A ratio of 0 is a quotient that underflowed, which no finite rate
    reaches: it raises :class:`InvalidRegimeInput` naming the ratio.
    """
    if ratio >= 1.0:
        return 0.0
    if ratio == 0.0:
        raise InvalidRegimeInput(
            f"{name} underflows to 0; no finite rate brings a distortion there")
    return -0.5 * math.log(ratio)


@dataclass(slots=True)
class DrBoundResult:
    """Central-distortion bound for fixed rates and side targets."""

    d1_star: float
    d2_hat: float
    d3_hat: float
    pi: float
    delta: float
    d4_bound: float
    regime: Regime


@dataclass(slots=True)
class RdBoundResult:
    """Rate requirements for fixed distortion targets, r1 and r4."""

    r1_star: float
    r2_bound: float
    r3_bound: float
    d4_hat: float
    sum_bound: float
    excess: float
    regime: Regime


@dataclass(slots=True)
class ConverseWitness:
    """Closed-form maximizer of the converse's auxiliary bound.

    ``epsilon_star`` is the slack value whose bound ``t(eps)`` is largest; it
    is ``inf`` when the supremum is approached only in the limit (then the
    bound degrades to the trivial ``t = 1``).
    """

    epsilon_star: float
    pi_star: float
    delta_star: float
    t_bound: float


def _side_ratios(d1_star: float, d2: float, d3: float) -> tuple[float, float]:
    """The normalized side targets ``a = d2_hat/d1_star``, ``b = d3_hat/d1_star``.

    Raises :class:`InvalidRegimeInput` when ``d1_star`` has underflowed to 0
    (``r1`` past ~372 nats at unit variance), where the ratios are undefined.
    """
    if not d1_star > 0.0:
        raise InvalidRegimeInput(
            f"first-layer floor d1_star={d1_star} underflows; the side-target "
            f"ratios d2/d1_star and d3/d1_star are undefined"
        )
    return ((d1_star if d1_star < d2 else d2) / d1_star,
            (d1_star if d1_star < d3 else d3) / d1_star)


#: The array namespace's operations on doubles, those whose double and array
#: spellings differ.  ``maximum`` makes the builtin ``max``'s comparison and
#: returns the same object, without its argument parsing.
_MATH = SimpleNamespace(sqrt=math.sqrt,
                        maximum=lambda x, y: y if y > x else x,
                        where=lambda c, x, y: x if c else y)


def _delta(xp, ab, s):
    """``delta = a b - s``, its tolerance ``FEASIBILITY_RTOL max(a b, s)``
    (the scale on which the subtraction loses its digits), and ``delta``
    kept only above that tolerance, else 0: ``sqrt(delta)`` has unbounded
    sensitivity at zero, so input rounding treated as an excess would put
    noise of order ``sqrt(eps)`` into the bound at targets on their floors.
    """
    delta = ab - s
    tol = FEASIBILITY_RTOL * xp.maximum(ab, s)
    return delta, tol, xp.where(delta > tol, delta, 0.0)


def _pi_delta(a: float, b: float, s: float) -> tuple[float, float, bool]:
    """``pi``, ``delta`` and whether the point is degenerate, at the
    normalized side targets ``a``, ``b`` and ``s = exp(-2 (r2+r3))``.

    Degenerate means ``pi < delta`` beyond the tolerance of :func:`_delta`.
    """
    pi = (1.0 - a) * (1.0 - b)
    pi = 0.0 if 0.0 > pi else pi
    ab = a * b
    if ab < _NORMAL_MIN:
        # Then ab and s <= ab carry no relative precision, and sqrt(delta)
        # is as large as the rest of the penalty's 1 - sqrt(pi).
        raise InvalidRegimeInput(
            f"a b = {ab} is below the normal double range (a={a}, b={b}); "
            f"delta = a b - exp(-2 (r2+r3)) cannot be formed"
        )
    raw, tol, delta = _delta(_MATH, ab, s)
    # Each side target may sit FEASIBILITY_RTOL below its floor, so a b may
    # fall short of s by 2 tol plus rounding; such a delta clamps to 0.
    if raw < -3.0 * tol:
        raise NegativeDelta(
            f"delta={raw} is negative beyond rounding; inputs are inconsistent"
        )
    return pi, delta, delta - pi > tol


def _penalty(xp, a, b, delta):
    """The penalty denominator ``1 - g^2``, ``g = sqrt(pi) - sqrt(delta)``,
    at the normalized side targets ``a``, ``b`` (``pi = (1-a)(1-b)``).

    Evaluated as ``(1 - g)(1 + g)`` with ``1 - sqrt(pi) =
    (a + b - ab)/(1 + sqrt(pi))``: every term is nonnegative, so nothing
    cancels when ``pi`` tends to 1 at high rate, where ``1 - g^2`` written
    out loses all its digits.  It is 1 where ``sqrt(delta) >= sqrt(pi)``
    (the penalty vanishes).  Nothing raises; an entry that is not positive
    is refused by the caller.
    """
    sqrt_pi, sqrt_delta = xp.sqrt((1.0 - a) * (1.0 - b)), xp.sqrt(delta)
    one_plus = 1.0 + sqrt_pi
    return xp.where(sqrt_delta >= sqrt_pi, 1.0,
                    ((a + b - a * b) / one_plus + sqrt_delta) * (one_plus - sqrt_delta))


def _penalty_den(a: float, b: float, delta: float) -> float:
    """:func:`_penalty` at doubles; a denominator that is not positive raises."""
    den = _penalty(_MATH, a, b, delta)
    if den <= 0.0:
        raise InvalidRegimeInput(
            f"penalty denominator {den} not positive (a={a}, b={b}, delta={delta})"
        )
    return den


def dr_bound(source: GaussianSource, rates: RateTuple,
             d1: float | Unconstrained, d2: float, d3: float) -> DrBoundResult:
    """Tight lower bound on the central distortion d4.

    Requires ``(d1, d2, d3)`` individually feasible at ``rates``.  The bound is
    ``var * exp(-2 (r1+r2+r3+r4)) / (1 - (max(sqrt(pi)-sqrt(delta), 0))^2)``;
    when ``pi < delta`` the positive part vanishes and the penalty collapses
    to 1, and the regime is reported as degenerate once ``pi < delta`` holds
    beyond rounding.
    """
    d1s = _checked_d1_star(source, rates, d1, d2, d3)
    a, b = _side_ratios(d1s, d2, d3)
    pi, delta, degenerate = _pi_delta(a, b, math.exp(-2.0 * (rates.r2 + rates.r3)))
    regime = _DEGENERATE if degenerate else _NON_DEGENERATE
    exponent = -2.0 * rates.total()
    factor = math.exp(exponent)
    numerator = source.variance * factor
    den = _penalty_den(a, b, delta)
    if factor >= _NORMAL_MIN and numerator >= _NORMAL_MIN:
        d4_bound = numerator / den
    else:
        # The factor or the numerator has left the normal range, though the
        # quotient (den ~ exp(-2 r') at high side rates r') need not have.
        d4_bound = _exp_quotient(source.variance, exponent, den)
    return DrBoundResult(d1s, d1s if d1s < d2 else d2, d1s if d1s < d3 else d3,
                         pi, delta, d4_bound, regime)


def t_of_epsilon(epsilon: float, d1_star: float, d2: float, d3: float,
                 rate_sum_23: float) -> float:
    """The converse's auxiliary lower-bound factor at slack ``epsilon``."""
    s = math.exp(-2.0 * rate_sum_23)
    num = epsilon * (d1_star + epsilon)
    den = (d2 + epsilon) * (d3 + epsilon) - (d1_star + epsilon) * d1_star * s
    if den <= 0.0:
        raise InvalidRegimeInput(
            f"t(eps) denominator {den} not positive at eps={epsilon}"
        )
    return num / den


def converse_witness(source: GaussianSource, rates: RateTuple,
                     d1: float | Unconstrained, d2: float, d3: float) -> ConverseWitness:
    """Closed-form slack maximizing the converse bound on the d4 penalty.

    Only defined when both side targets sit at or below the first-layer floor
    (``d2, d3 <= d1_star``); otherwise raises :class:`OutOfRegime`.  Uses the
    unclamped targets: ``pi_star = (1 - d2/d1*)(1 - d3/d1*)`` and
    ``delta_star = d2 d3 / d1*^2 - exp(-2 (r2+r3))``.  When
    ``pi_star >= delta_star`` the maximizer is
    ``eps* = d1* sqrt(delta*) / (sqrt(pi*) - sqrt(delta*))`` with
    ``t(eps*) = 1 / (1 - (sqrt(pi*) - sqrt(delta*))^2)``, the reciprocal of
    :func:`_penalty_den`; otherwise the supremum ``t = 1`` is approached only
    as ``eps -> inf``.
    """
    d1s = _checked_d1_star(source, rates, d1, d2, d3)
    if _over_ceiling(d2, d1s) or _over_ceiling(d3, d1s):
        raise OutOfRegime(
            f"witness needs d2, d3 <= d1_star={d1s}, got d2={d2}, d3={d3}")
    a, b = _side_ratios(d1s, d2, d3)
    pi_star, delta_star, _ = _pi_delta(a, b, math.exp(-2.0 * (rates.r2 + rates.r3)))
    gap = math.sqrt(pi_star) - math.sqrt(delta_star)
    if gap > 0.0:
        eps_star = d1s * math.sqrt(delta_star) / gap
        t_bound = 1.0 / _penalty_den(a, b, delta_star)
    else:
        eps_star = math.inf
        t_bound = 1.0
    return ConverseWitness(eps_star, pi_star, delta_star, t_bound)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
#: The numeric maximizer's bracket on ``eps/var`` (``eps*`` scales with the
#: source variance) and relative tolerance on ``log eps``.
EPS_LO, EPS_HI, MAXIMIZER_RTOL = 1e-9, 1e9, 1e-10


def maximize_t_numeric(source: GaussianSource, rates: RateTuple,
                       d1: float | Unconstrained, d2: float, d3: float
                       ) -> tuple[float, float]:
    """Golden-section maximization of ``t(eps)`` over ``log eps``.

    Numeric counterpart of :func:`converse_witness`; the two are compared in
    the self-verification suite.  Returns ``(eps, t(eps))`` at the maximizer
    inside ``var * [EPS_LO, EPS_HI]``.

    ``t(eps)`` is a ratio of products of two distortions each, so it is
    evaluated on ``var``, ``d1_star``, ``d2`` and ``d3`` scaled once by the
    power of two ``2**-k`` that brings ``var`` into ``[0.5, 1)``.  The scaling
    is exact: wherever the unscaled products stay in the double range, every
    ``t`` is the same double, and at any variance they stay in range as they
    do at unit variance.  Unscaled, ``(d2 + eps)(d3 + eps)`` overflows above a
    variance of about 1e153 and loses digits to underflow below about 1e-150.
    Like the witness, it refuses side targets above ``d1_star`` with
    :class:`OutOfRegime`.
    """
    d1s = _checked_d1_star(source, rates, d1, d2, d3)
    if _over_ceiling(d2, d1s) or _over_ceiling(d3, d1s):
        raise OutOfRegime(
            f"maximizer needs d2, d3 <= d1_star={d1s}, got d2={d2}, d3={d3}")
    rate_sum = rates.r2 + rates.r3
    var = source.variance
    k = -math.frexp(var)[1]
    var_k, d1s_k, d2_k, d3_k = (math.ldexp(var, k), math.ldexp(d1s, k),
                                math.ldexp(d2, k), math.ldexp(d3, k))

    def f(x: float) -> float:
        return t_of_epsilon(var_k * math.exp(x), d1s_k, d2_k, d3_k, rate_sum)

    lo, hi = math.log(EPS_LO), math.log(EPS_HI)
    span = abs(lo) if abs(lo) > 1.0 else 1.0
    xtol = MAXIMIZER_RTOL * (abs(hi) if abs(hi) > span else span)
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > xtol:
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
    x = 0.5 * (lo + hi)
    return var * math.exp(x), f(x)


def _excess_args(xp, a, b, z):
    """``a' = (a-z)/(1-z)``, ``b' = (b-z)/(1-z)`` and ``a' b'`` for ``z < 1``,
    the arguments at which :func:`_penalty` gives the excess term."""
    a_rel = xp.maximum(a - z, 0.0) / (1.0 - z)
    b_rel = xp.maximum(b - z, 0.0) / (1.0 - z)
    return a_rel, b_rel, a_rel * b_rel


def _excess_term(a: float, b: float, z: float) -> float:
    """Extra sum rate beyond R(z) in the excess regime, in nats.

    ``0.5 log[(1-z)^2 / ((1-z)^2 - (sqrt(pi) - w)^2)]`` with
    ``w = sqrt((a-z)(b-z))``; algebraically this inverts the d4 bound for the
    implied ``exp(-2 (r2+r3))``, so it is nonnegative wherever defined.  It
    equals ``-0.5 log`` of the penalty denominator at the arguments of
    :func:`_excess_args`; at ``z >= 1`` (the ``a = b = 1`` corner) it is 0.
    """
    if z >= 1.0:
        return 0.0
    excess = -0.5 * math.log(_penalty_den(*_excess_args(_MATH, a, b, z)))
    return 0.0 if 0.0 > excess else excess


def _rd_branches(xp, a, b, z):
    """:func:`rd_bound`'s low threshold ``ab - pi`` and harmonic threshold
    ``ab/(a + b - ab)`` (both from ``1 - pi = a + b - ab``, whose terms do not
    cancel), then its slack, harmonic-corner and low-band tests of ``z``; a
    ``BOUNDARY_RTOL`` band around a positive threshold counts as beyond it.
    """
    ab = a * b
    low, harm = ab - (1.0 - a) * (1.0 - b), ab / (a + b - ab)
    to_harm = abs(z - harm)
    slack = ((harm > 0.0) & (to_harm <= BOUNDARY_RTOL * xp.maximum(z, harm))) | (z > harm)
    corner = slack & (to_harm <= 1e-12 * harm) & (low < z)
    low_band = (low > 0.0) & (z - low <= BOUNDARY_RTOL * xp.maximum(z, low))
    return low, harm, slack, corner, low_band


_Z_NAME = "z = d4 exp(2 r4)/d1_star"


def _exp_or_inf(x: float) -> float:
    """``math.exp(x)``, or inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def rd_bound(source: GaussianSource, r1: float, r4: float,
             dist) -> RdBoundResult:
    """Rate requirements on (r2, r3) for the targets in ``dist``.

    ``dist`` carries (d1, d2, d3, d4); ``d1`` must clear ``var exp(-2 r1)``
    by :func:`dr_bound`'s floor test.  Individual bounds are ``r2 >=
    R(d2_hat/d1_star)`` and ``r3 >= R(d3_hat/d1_star)``; the sum bound uses
    ``z = d4 exp(2 r4) / d1_star`` and splits into three regimes:

    * low (``z < a + b - 1 = ab - pi``): ``R(z)`` alone suffices;
    * slack (``z`` above the harmonic threshold ``ab/(a + b - ab)``): the
      individual bounds already imply the sum, which is 0;
    * excess (between): ``R(z)`` plus the strictly positive term of
      :func:`_excess_term`.

    Membership of a rate pair is ``r2 >= r2_bound``, ``r3 >= r3_bound`` and
    ``r2 + r3 >= sum_bound``; this is equivalent point-by-point to the
    distortion-side characterization of :func:`dr_bound`.
    """
    sx2 = source.variance
    # Nonnegative finite rates, then positive targets (d1 may be UNCONSTRAINED).
    _require_rate("r1", r1)
    _require_rate("r4", r4)
    d1 = dist.d1
    if d1 is not UNCONSTRAINED and not d1 > 0:
        raise InfeasibleDistortion(f"d1 must be positive, got {d1}")
    if not dist.d2 > 0:
        raise InfeasibleDistortion(f"d2 must be positive, got {dist.d2}")
    if not dist.d3 > 0:
        raise InfeasibleDistortion(f"d3 must be positive, got {dist.d3}")
    if not dist.d4 > 0:
        raise InfeasibleDistortion(f"d4 must be positive, got {dist.d4}")
    r1_star = rate_to_reach(1.0 if d1 is UNCONSTRAINED else d1 / sx2, "d1/var")
    d1s = _distortion_floor(sx2, r1)
    _require_d1_floor(d1, d1s)
    a, b = _side_ratios(d1s, dist.d2, dist.d3)
    r2_bound = rate_to_reach(a, "a = d2_hat/d1_star")
    r3_bound = rate_to_reach(b, "b = d3_hat/d1_star")
    d4_hat = dist.d4 * _exp_or_inf(2.0 * r4)
    # exp(inf) is inf without an OverflowError (r4 past ~8.9e307), and the
    # product may overflow where exp(2 r4) does not.
    if d4_hat == math.inf:
        raise InvalidRegimeInput(
            f"d4_hat = d4 exp(2 r4) overflows at d4={dist.d4}, r4={r4}")
    z = d4_hat / d1s

    low_thr, harmonic_thr, slack, at_corner, low_band = _rd_branches(_MATH, a, b, z)
    if low_thr > harmonic_thr * (1.0 + FEASIBILITY_RTOL):
        raise InvalidRegimeInput(
            f"threshold order violated: ab-pi={low_thr} > harmonic {harmonic_thr}"
        )
    excess = 0.0
    if slack:
        # At the harmonic corner the excess branch lands exactly on the sum of
        # the individual bounds, so the constraint it would add is redundant.
        if at_corner:
            z_corner = harmonic_thr if harmonic_thr < z else z
            corner = rate_to_reach(z) + _excess_term(a, b, z_corner)
            if (abs(corner - (r2_bound + r3_bound))
                    > BOUNDARY_RTOL * (corner if corner > 1.0 else 1.0)):
                raise InvalidRegimeInput(
                    f"branch disagreement at the harmonic corner: {corner} vs "
                    f"{r2_bound + r3_bound}"
                )
        regime, sum_bound = _RD_SLACK, 0.0
    elif low_band:
        # Both branches are continuous across the low threshold and the
        # excess term is nonnegative, so inside its band R(z) is the weaker.
        regime, sum_bound = _RD_LOW, rate_to_reach(z, _Z_NAME)
    else:
        regime = _RD_EXCESS
        excess = _excess_term(a, b, z)
        sum_bound = rate_to_reach(z, _Z_NAME) + excess
    return RdBoundResult(r1_star, r2_bound, r3_bound, d4_hat, sum_bound,
                         excess, regime)


# ---------------------------------------------------------------------------
# Cross-validation of the two characterizations on a grid.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Cartesian product grid over operating points.

    ``d1_values`` entries may be :data:`UNCONSTRAINED`; all other axes hold
    positive floats.  Rates are in nats.
    """

    r1_values: tuple[float, ...]
    r4_values: tuple[float, ...]
    d1_values: tuple[float | Unconstrained, ...]
    d2_values: tuple[float, ...]
    d3_values: tuple[float, ...]
    r2_values: tuple[float, ...]
    r3_values: tuple[float, ...]
    d4_values: tuple[float, ...]

    def total_points(self) -> int:
        n = 1
        for axis in (self.r1_values, self.r4_values, self.d1_values,
                     self.d2_values, self.d3_values, self.r2_values,
                     self.r3_values, self.d4_values):
            n *= len(axis)
        return n


@dataclass(slots=True)
class EquivalenceReport:
    """Outcome of scanning both region characterizations over a grid.

    ``evaluated``, ``skipped_infeasible`` and ``floor_band`` partition the
    grid.  ``boundary`` counts the ``floor_band`` points, which are never
    evaluated, plus the evaluated points whose verdict falls in the band.
    """

    evaluated: int = 0
    skipped_infeasible: int = 0
    boundary: int = 0
    floor_band: int = 0
    in_both: int = 0
    out_both: int = 0
    regime_counts: dict[str, int] = field(default_factory=dict)
    mismatches: list[dict] = field(default_factory=list)

    @property
    def mismatch_count(self) -> int:
        return len(self.mismatches)


def default_grid(source: GaussianSource, points_per_axis: int) -> GridSpec:
    """A grid that reaches all three sum-rate regimes and both sides of every
    boundary; total size ``4 * points_per_axis**5``."""
    if points_per_axis < 2:
        raise ValueError("need at least two points per swept axis")
    k = points_per_axis
    sx2 = source.variance

    def lin(lo: float, hi: float) -> tuple[float, ...]:
        step = (hi - lo) / (k - 1)
        return tuple(lo + i * step for i in range(k))

    def geo(lo: float, hi: float) -> tuple[float, ...]:
        ratio = (hi / lo) ** (1.0 / (k - 1))
        return tuple(lo * ratio ** i for i in range(k))

    return GridSpec(
        r1_values=(0.0, 0.35),
        r4_values=(0.0, 0.25),
        d1_values=(UNCONSTRAINED,),
        d2_values=tuple(v * sx2 for v in geo(0.16, 1.07)),
        d3_values=tuple(v * sx2 for v in geo(0.13, 0.97)),
        r2_values=lin(0.12, 1.31),
        r3_values=lin(0.17, 1.13),
        d4_values=tuple(v * sx2 for v in geo(0.015, 1.10)),
    )


#: ``rd_bound``'s sum-rate regimes, indexed by the codes of :func:`_rd_block`.
_RD_REGIMES = (Regime.RD_LOW.value, Regime.RD_SLACK.value, Regime.RD_EXCESS.value)


def _positive_float(value) -> bool:
    return isinstance(value, float) and 0.0 < value < math.inf


def _rd_block(np, blocks, grid: GridSpec, d1s, a, b):
    """``rd_bound(source, r1, r4, DistortionTuple(d1, d2, d3, d4))`` over the
    ``(r1, r4, d1)`` blocks of ``grid`` listed in ``blocks``, bit for bit:
    the ``sum_bound`` and the regime code (an index into
    :data:`_RD_REGIMES`) of each block (axis 0, whose ``d1_star`` is the
    same row of ``d1s``), each side pair ``(d2, d3)`` in ``itertools.product``
    order (axis 1, at the ratios ``a``, ``b``, one row per block) and each
    ``d4`` (axis 2), and a mask of the (block, side pair) rows that only
    ``rd_bound`` may evaluate.

    Those are the rows where ``rd_bound`` could raise (a target that is not a
    finite positive float, ``d1`` neither that nor ``UNCONSTRAINED``, a block
    whose ``z = d4 exp(2 r4)/d1_star`` is not finite and positive at every
    ``d4``, the threshold order violated, an excess denominator not
    positive) and those in the harmonic corner band, where it cross-checks
    two branches.  ``d1`` below its floor is not among them: no point of
    such a block is feasible, so no row of it reaches ``rd_bound``.  Every
    ``log`` and ``exp`` comes from :mod:`math`: ``exp(2 r4)`` once per
    block, ``R(z)`` once per block and ``d4``, the excess ``log`` once per
    entry.
    """
    d4 = np.array([v if _positive_float(v) else math.nan for v in grid.d4_values])
    # rd_bound's z, (d4 exp(2 r4))/d1_star, over (block, d4).
    z = d4 * np.array([_exp_or_inf(2.0 * r4) for _, r4, _ in blocks])[:, None] / d1s
    whole = ~((z > 0.0) & (z < math.inf)).all(axis=1) | np.array(
        [not (d1 is UNCONSTRAINED or _positive_float(d1)) for _, _, d1 in blocks])
    # A block refused whole takes z = 1, which reaches no excess entry.
    z[whole] = 1.0
    rz = np.array([[rate_to_reach(v) for v in row] for row in z.tolist()])

    low, harm, slack, corner, low_band = _rd_branches(
        np, a[:, :, None], b[:, :, None], z[:, None, :])
    clean = np.logical_and.outer([_positive_float(d2) for d2 in grid.d2_values],
                                 [_positive_float(d3) for d3 in grid.d3_values])
    refused = (whole[:, None] | ~clean.ravel() | ~(a > 0.0) | ~(b > 0.0)
               | corner.any(axis=2)
               | (low[:, :, 0] > harm[:, :, 0] * (1.0 + FEASIBILITY_RTOL)))
    # The codes index _RD_REGIMES (low 0, slack 1, excess 2).
    codes = np.where(slack, 1, np.where(low_band, 0, 2))
    sums = np.where(slack, 0.0, rz[:, None, :])

    # _excess_term over the excess entries with z < 1; at z >= 1 it is 0.
    blk, rows, cols = np.nonzero(~(slack | low_band) & (z[:, None, :] < 1.0))
    den = _penalty(np, *_excess_args(np, a[blk, rows], b[blk, rows], z[blk, cols]))
    positive = den > 0.0
    refused[blk[~positive], rows[~positive]] = True
    logs = np.array(list(map(math.log, np.where(positive, den, 1.0).tolist())))
    sums[blk, rows, cols] = rz[blk, cols] + np.maximum(-0.5 * logs, 0.0)
    return sums, codes, refused


def equivalence_scan(source: GaussianSource, grid: GridSpec) -> EquivalenceReport:
    """Classify every grid point by both characterizations and reconcile.

    The three individual floors are literally the same inequalities on both
    sides, so points that clearly fail one are skipped (counted as
    infeasible).  For the rest, the distortion-side verdict ``d4 >= d4_bound``
    is compared with the rate-side verdict ``r2 + r3 >= sum_bound``; verdicts
    within a relative band of ``1e-9`` around either boundary are recorded as
    boundary points rather than disagreements.

    The whole grid goes through each kernel once, on arrays with a leading
    axis over the ``(r1, r4, d1)`` blocks.  The floor margins, the side
    ratios and :func:`_delta` and :func:`_penalty` depend on ``r1`` alone
    and are built once per ``r1``; so is ``d1_star``, which both kernels
    read.  The d4 bound of every (block x rate pair x side-target pair)
    point divides ``var exp(-2 total)`` by them; every ``exp`` comes from
    :mod:`math` (the floors, ``exp(-2 (r2+r3))`` and the numerators, one
    per block and rate pair).  One call of :func:`_rd_block` gives
    ``rd_bound``'s sum bound and regime for every (block x side-target pair
    x d4) entry, which is all ``rd_bound`` reads.  The fallback takes,
    at the position where a per-point loop meets it, each flagged point (a
    refusal the kernel hints at, or an ``exp(-2 total)`` or numerator below
    the normal range, whose quotient ``dr_bound`` forms by
    :func:`_exp_quotient`) through
    ``dr_bound``, which raises, returns 0 (then the scan raises
    :class:`InvalidRegimeInput`: the margin has no value) or gives the bound,
    and each row ``_rd_block`` refuses through ``rd_bound``, after the
    ``dr_bound`` call at its pair's first feasible ``(r2, r3)``.  So the
    errors and the first raise are a per-point loop's.  The regime counts
    are keyed in the order low, slack, excess.  Verdicts are taken
    one ``d4`` column at a time over all blocks, so a temporary holds
    ``total_points / len(d4_values)`` doubles (16,384 at ``default_grid``
    k=8).  numpy is imported here, not when the module loads.
    """
    import numpy as np

    report = EquivalenceReport()
    if not grid.total_points():
        return report
    for name in ("r1", "r2", "r3", "r4"):
        for value in getattr(grid, f"{name}_values"):
            _require_rate(name, value)
    sx2, tol = source.variance, BOUNDARY_RTOL
    d4_values, n4 = grid.d4_values, len(grid.d4_values)
    sides = list(itertools.product(grid.d2_values, grid.d3_values))
    rate_pairs = list(itertools.product(grid.r2_values, grid.r3_values))
    rate_sums = [r2 + r3 for r2, r3 in rate_pairs]
    blocks = list(itertools.product(grid.r1_values, grid.r4_values, grid.d1_values))
    n_pairs, n_sides, n_blocks = len(rate_pairs), len(sides), len(blocks)
    # Blocks are r1-major: (r1, block of that r1) indexes the stacked axis.
    n1 = len(grid.r1_values)
    per_r1 = n_blocks // n1
    stacked = (n_blocks, n_pairs, n_sides)
    d1s_of = [_distortion_floor(sx2, r1) for r1 in grid.r1_values]
    s = [math.exp(-2.0 * rs) for rs in rate_sums]
    # Entries off the feasible mask may divide by 0 or overflow; none is read.
    with np.errstate(all="ignore"):
        # The tables of r1 alone, (r1, rate pair, side pair).
        d1s = np.array(d1s_of)[:, None]

        def margins(d_values, r_values):
            # model._margin over (r1, r, d): -inf at a target that is not
            # positive, inf over a floor that underflowed.
            d = np.array(d_values, dtype=float)
            f = d1s[:, :, None] * np.array([math.exp(-2.0 * r) for r in r_values])[:, None]
            return np.where(d > 0.0, np.where(f > 0.0, (d - f) / f, math.inf), -math.inf)

        m2 = margins(grid.d2_values, grid.r2_values)
        m3 = margins(grid.d3_values, grid.r3_values)
        floor_margin = np.minimum(m2[:, :, None, :, None], m3[:, None, :, None, :])
        floor_margin = floor_margin.reshape(n1, 1, n_pairs, n_sides)
        a = np.repeat(np.minimum(np.array(grid.d2_values, dtype=float), d1s) / d1s,
                      len(grid.d3_values), axis=1)
        b = np.tile(np.minimum(np.array(grid.d3_values, dtype=float), d1s) / d1s,
                    len(grid.d2_values))
        ab = a * b
        raw, dtol, delta = _delta(np, ab[:, None, :], np.array(s)[:, None])
        den = _penalty(np, a[:, None, :], b[:, None, :], delta)
        # Every point at which dr_bound could raise, and maybe more: an
        # underflowed d1_star makes a, b and den NaN.
        refusal = ((ab < sys.float_info.min)[:, None, :] | (raw < -3.0 * dtol)
                   | ~(den > 0.0))

        # The stacked arrays, (block, rate pair, side pair); the r1 tables
        # broadcast over the blocks of their r1.
        m1 = np.array([_margin(d1, d1s_of[i // per_r1])
                       for i, (_, _, d1) in enumerate(blocks)])
        base = np.minimum(floor_margin, m1.reshape(n1, per_r1, 1, 1)).reshape(stacked)
        n_skipped = int(np.count_nonzero(base < -tol))
        feasible = base > tol
        n_feasible = int(np.count_nonzero(feasible))
        report.skipped_infeasible = n_skipped * n4
        report.floor_band = (base.size - n_skipped - n_feasible) * n4
        report.boundary = report.floor_band
        report.evaluated = n_feasible * n4
        if not n_feasible:
            return report

        factors = np.array([math.exp(-2.0 * (r1 + r2 + r3 + r4))
                            for r1, r4, _ in blocks for r2, r3 in rate_pairs])
        numerators = sx2 * factors
        bound = numerators.reshape(n1, per_r1, n_pairs, 1) / den[:, None]
        # An infeasible point's bound is NaN, which no verdict decides.
        bound = np.where(feasible, bound.reshape(stacked), math.nan)
        # dr_bound decides the points it may refuse, and those whose factor
        # or numerator lies below the normal range: it forms their quotient
        # as m 2^k.
        subnormal = ((factors < sys.float_info.min) | (numerators < sys.float_info.min)
                     ).reshape(n_blocks, n_pairs, 1)
        flagged = feasible & (np.repeat(refusal, per_r1, axis=0) | subnormal)
        sums, codes, rd_refused = _rd_block(
            np, blocks, grid, *(np.repeat(t, per_r1, axis=0) for t in (d1s, a, b)))

        # The calls of a per-point loop that may raise, in its order:
        # dr_bound at each flagged point, then rd_bound at each refused row.
        uses = feasible.sum(axis=1)
        met = ((np.arange(n_blocks)[:, None] * n_pairs + feasible.argmax(axis=1))
               * n_sides + np.arange(n_sides))
        events = sorted(
            [(g, 0, g) for g in np.flatnonzero(flagged).tolist()]
            + [(met.flat[i], 1, i)
               for i in np.flatnonzero(rd_refused & (uses > 0)).tolist()])
        for _, kind, index in events:
            if kind == 0:
                blk, p, k = np.unravel_index(index, stacked)
                r1, r4, d1 = blocks[blk]
                rates = (r1, *rate_pairs[p], r4)
                d4_bound = dr_bound(source, RateTuple(*rates), d1, *sides[k]).d4_bound
                if not d4_bound:
                    raise InvalidRegimeInput(
                        f"d4 bound underflows to 0 at rates {rates}; the margin "
                        f"(d4 - d4_bound)/d4_bound is undefined")
                bound.flat[index] = d4_bound
            else:
                blk, k = divmod(index, n_sides)
                r1, r4, d1 = blocks[blk]
                for j, d4 in enumerate(d4_values):
                    rd = rd_bound(source, r1, r4, DistortionTuple(d1, *sides[k], d4))
                    sums[blk, k, j] = rd.sum_bound
                    codes[blk, k, j] = _RD_REGIMES.index(rd.regime.value)

        # Each regime's count, keyed in _RD_REGIMES order: a row's entries
        # count once per use.
        counts = np.bincount(codes.ravel(), np.repeat(uses.ravel(), n4),
                             len(_RD_REGIMES)).tolist()
        report.regime_counts = {key: int(n) for key, n in zip(_RD_REGIMES, counts) if n}

        # Verdicts one d4 column at a time over every block, into buffers
        # that every column reuses: fresh temporaries of this size cost more
        # to allocate than to fill.  Both operands of m_rd are contiguous,
        # which numpy subtracts fastest.
        rate_sum = np.broadcast_to(np.array(rate_sums)[:, None], stacked).copy()
        sum_columns = np.ascontiguousarray(np.moveaxis(sums, 2, 0))[:, :, None, :]
        m_dr, m_rd = np.empty(stacked), np.empty(stacked)
        dr_in, dr_out, rd_in, rd_out, both, disagree = (np.empty(stacked, dtype=bool)
                                                        for _ in range(6))
        found = []
        for j, d4 in enumerate(d4_values):
            np.divide(np.subtract(d4, bound, out=m_dr), bound, out=m_dr)
            np.subtract(rate_sum, sum_columns[j], out=m_rd)
            np.greater(m_dr, tol, out=dr_in)
            np.less(m_dr, -tol, out=dr_out)
            np.greater(m_rd, tol, out=rd_in)
            np.less(m_rd, -tol, out=rd_out)
            n_in = int(np.count_nonzero(np.logical_and(dr_in, rd_in, out=both)))
            n_out = int(np.count_nonzero(np.logical_and(dr_out, rd_out, out=both)))
            np.logical_or(np.logical_and(dr_in, rd_out, out=both),
                          np.logical_and(dr_out, rd_in, out=disagree), out=disagree)
            split = np.flatnonzero(disagree).tolist()
            report.in_both += n_in
            report.out_both += n_out
            report.boundary += n_feasible - n_in - n_out - len(split)
            found += [g * n4 + j for g in split]
    for index in sorted(found):
        blk, p, k, j = np.unravel_index(index, (*stacked, n4))
        r1, r4, d1 = blocks[blk]
        d4, d4_bound = d4_values[j], bound[blk, p, k].item()
        report.mismatches.append({
            "rates": (r1, *rate_pairs[p], r4),
            "d": (None if d1 is UNCONSTRAINED else d1, *sides[k], d4),
            "dr_margin": (d4 - d4_bound) / d4_bound,
            "rd_margin": rate_sums[p] - sums[blk, k, j].item(),
            "regime": _RD_REGIMES[codes[blk, k, j]],
        })
    return report
