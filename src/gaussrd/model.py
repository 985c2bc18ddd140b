"""Core domain types shared by every other module.

Conventions: rates are nonnegative and carried internally in nats per source
symbol; distortions are mean squared errors.  The first-layer distortion may
be the distinguished value :data:`UNCONSTRAINED`, which makes the
two-description reduction visible in the type rather than hidden in a
sentinel float.

The value types validate accept-first, in an ``__init__`` of their own.  One
expression per field admits the common case, a ``float`` in range
(``isinstance(v, float) and 0.0 <= v < math.inf`` for a rate).  Only a value
it does not admit goes through the ``_require_*`` chain, which refuses it with
its exception and message, or accepts it (an ``int``, say).  The first test
admits nothing the chain would refuse, so it changes no outcome.  The fields
are then stored by :data:`_setattr`, bound once, where a generated frozen
``__init__`` would look ``object.__setattr__`` up for each field and then
call ``__post_init__``.

Every Gaussian floor ``var exp(-2 r)`` comes from :func:`_distortion_floor`.
:func:`_checked_d1_star` forms its three floors once and admits, with one
comparison chain, targets that are :data:`UNCONSTRAINED` or a ``float`` at or
above a positive floor; anything else, NaN, zero, an ``int`` or a floor that
underflowed to 0, passes those floors' margins to :func:`_require_floors`,
which refuses with its exception and message or accepts.
:func:`_require_d1_floor` and :func:`_over_ceiling` admit first as the value
types do, since their slow path decides the ``FEASIBILITY_RTOL`` band around
the floor or ceiling, not the same predicate again.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from .errors import InfeasibleDistortion

LN2 = math.log(2.0)

#: Relative tolerance used for feasibility comparisons against exponential
#: floors, absorbing rounding in exp/log round trips.
FEASIBILITY_RTOL = 1e-12

#: Defaults of the seeded self-verification (``gaussrd verify``), kept here
#: so the command line reads them without importing numpy.
DEFAULT_SEED = 12345
DEFAULT_GRID_DENSITY = 6


class Unconstrained(enum.Enum):
    """Singleton tag for a distortion component with no constraint."""

    UNCONSTRAINED = "unconstrained"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "UNCONSTRAINED"


UNCONSTRAINED = Unconstrained.UNCONSTRAINED


class RateUnit(enum.Enum):
    NATS = "nats"
    BITS = "bits"


class Regime(enum.Enum):
    """Which branch of a region evaluation produced the returned bound."""

    NON_DEGENERATE = "non-degenerate"
    DEGENERATE_PI_LESS_DELTA = "degenerate-pi-less-delta"
    RD_LOW = "rd-low"
    RD_SLACK = "rd-slack"
    RD_EXCESS = "rd-excess"


# The per-call path reads these as module globals: on CPython 3.11.7 a
# ``Regime`` member costs about 95 ns to look up, ``sys.float_info.min`` 24 ns
# and a global 7 ns.
_NON_DEGENERATE, _DEGENERATE = Regime.NON_DEGENERATE, Regime.DEGENERATE_PI_LESS_DELTA
_RD_LOW, _RD_SLACK, _RD_EXCESS = Regime.RD_LOW, Regime.RD_SLACK, Regime.RD_EXCESS
#: The smallest positive normal double.
_NORMAL_MIN = sys.float_info.min
#: How a frozen value type's ``__init__`` stores each checked field, past the
#: ``__setattr__`` that refuses assignment.  It keeps the instance's inline
#: attribute layout: filling ``self.__dict__`` in place would make every later
#: read take the slow path (on CPython 3.11.7, 29 ns against 13 ns), and a
#: new dict set whole costs about 130 bytes more per record.
_setattr = object.__setattr__


def _require_finite_number(name: str, value: float) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _require_rate(name: str, value: float) -> None:
    if not (isinstance(value, float) and 0.0 <= value < math.inf):
        _require_finite_number(name, value)
        if value < 0.0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


@dataclass(frozen=True, init=False)
class GaussianSource:
    """Memoryless Gaussian source, characterized by its variance."""

    variance: float

    def __init__(self, variance: float) -> None:
        if not (isinstance(variance, float) and 0.0 < variance < math.inf):
            _require_finite_number("variance", variance)
            if variance <= 0.0:
                raise ValueError(f"variance must be positive, got {variance}")
        _setattr(self, "variance", variance)


@dataclass(frozen=True, init=False)
class RateTuple:
    """Rates of the four descriptions, in nats per source symbol."""

    r1: float
    r2: float
    r3: float
    r4: float

    def __init__(self, r1: float, r2: float, r3: float, r4: float) -> None:
        if not (isinstance(r1, float) and 0.0 <= r1 < math.inf
                and isinstance(r2, float) and 0.0 <= r2 < math.inf
                and isinstance(r3, float) and 0.0 <= r3 < math.inf
                and isinstance(r4, float) and 0.0 <= r4 < math.inf):
            for name, value in zip(("r1", "r2", "r3", "r4"), (r1, r2, r3, r4)):
                _require_rate(name, value)
        _setattr(self, "r1", r1)
        _setattr(self, "r2", r2)
        _setattr(self, "r3", r3)
        _setattr(self, "r4", r4)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.r1, self.r2, self.r3, self.r4)

    def total(self) -> float:
        return self.r1 + self.r2 + self.r3 + self.r4


@dataclass(frozen=True, init=False)
class DistortionTuple:
    """Distortion targets for the four decoders.

    ``d1`` may be :data:`UNCONSTRAINED`; the remaining components are
    nonnegative reals.  Zero is admitted here, as a valid mean squared error;
    the Gaussian operations reject non-positive targets through their
    feasibility checks instead.
    """

    d1: float | Unconstrained
    d2: float
    d3: float
    d4: float

    def __init__(self, d1: float | Unconstrained, d2: float, d3: float,
                 d4: float) -> None:
        if not ((d1 is UNCONSTRAINED or isinstance(d1, float) and 0.0 <= d1 < math.inf)
                and isinstance(d2, float) and 0.0 <= d2 < math.inf
                and isinstance(d3, float) and 0.0 <= d3 < math.inf
                and isinstance(d4, float) and 0.0 <= d4 < math.inf):
            # A distortion is held to a rate's test: finite and nonnegative.
            if d1 is not UNCONSTRAINED:
                _require_rate("d1", d1)
            for name, value in (("d2", d2), ("d3", d3), ("d4", d4)):
                _require_rate(name, value)
        _setattr(self, "d1", d1)
        _setattr(self, "d2", d2)
        _setattr(self, "d3", d3)
        _setattr(self, "d4", d4)


def convert_rate(value: float, from_unit: RateUnit, to_unit: RateUnit) -> float:
    """Convert a rate between nats and bits; the factor is ln 2 exactly."""
    if from_unit is to_unit:
        return value
    if from_unit is RateUnit.BITS and to_unit is RateUnit.NATS:
        return value * LN2
    if from_unit is RateUnit.NATS and to_unit is RateUnit.BITS:
        return value / LN2
    raise ValueError(f"unsupported unit pair {from_unit!r} -> {to_unit!r}")


def _margin(d: float | Unconstrained, floor: float) -> float:
    if d is UNCONSTRAINED:
        return math.inf
    if not d > 0.0:  # zero, negative or NaN: unreachable at any finite rate
        return -math.inf
    # An underflowed floor is cleared by every positive target.
    return (d - floor) / floor if floor > 0.0 else math.inf


#: ln 2 split so that ``n * _LN2_HI`` is exact for ``|n| < 2**21``.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


def _exp_quotient(scale: float, exponent: float, den: float) -> float:
    """``scale * exp(exponent) / den`` for positive ``scale`` and ``den``
    and ``exponent <= 0``, formed as ``m 2^k`` so that no intermediate leaves
    the double range.

    ``exponent = n ln 2 + r`` with ``|r| <= ln 2 / 2``, so ``exp(r)`` and the
    mantissa quotient stay near 1; only the final ``ldexp`` rounds into the
    subnormal range, when the quotient itself lies there.  Below
    ``-4000 ln 2`` the quotient is 0.0 for any double ``scale`` and ``den``,
    and so is ``exp(r)``.
    """
    (ms, es), (md, ed) = math.frexp(scale), math.frexp(den)
    q = exponent / LN2
    n = round(-4000.0 if -4000.0 > q else q)
    r = (exponent - n * _LN2_HI) - n * _LN2_LO
    return math.ldexp(ms * math.exp(r) / md, es - ed + n)


def _distortion_floor(var: float, r: float) -> float:
    """The Gaussian floor ``var exp(-2 r)``: the plain product while
    ``exp(-2 r)`` is a normal double, else :func:`_exp_quotient`'s scaled
    form, so a subnormal factor (``r`` past about 354 nats) costs a normal
    floor no digits."""
    factor = math.exp(-2.0 * r)
    if factor >= _NORMAL_MIN:
        return var * factor
    return _exp_quotient(var, -2.0 * r, 1.0)


def _require_floors(names: str, targets: tuple, margins: tuple[float, ...]) -> None:
    """The one floor test: a target whose margin over its floor is below
    ``-FEASIBILITY_RTOL`` raises :class:`InfeasibleDistortion`."""
    # min(margins), folded as the builtin folds it (a NaN first entry stays).
    low = margins[0]
    for m in margins:
        low = m if m < low else low
    if low < -FEASIBILITY_RTOL:
        raise InfeasibleDistortion(
            f"a target lies below its floor: ({names}) = "
            f"({', '.join(map(repr, targets))}), relative margins "
            f"({', '.join(f'{m:.3e}' for m in margins)})")


def _over_ceiling(d: float, d1_star: float) -> bool:
    """The one ceiling test: ``(d - d1_star)/d1_star > FEASIBILITY_RTOL``."""
    if isinstance(d, float) and d <= d1_star:
        return False
    return _margin(d, d1_star) > FEASIBILITY_RTOL


def _require_d1_floor(d1: float | Unconstrained, d1_star: float) -> None:
    """The floor test of ``d1`` alone, over ``d1_star``."""
    if not (d1 is UNCONSTRAINED or isinstance(d1, float) and 0.0 < d1_star <= d1):
        _require_floors("d1", (d1,), (_margin(d1, d1_star),))


def _checked_d1_star(source: GaussianSource, rates: RateTuple,
                     d1: float | Unconstrained, d2: float | Unconstrained,
                     d3: float | Unconstrained) -> float:
    """``d1_star = var exp(-2 r1)``, once ``d1``, ``d2``, ``d3`` clear their
    floors ``d1_star`` and ``d1_star exp(-2 r_i)``."""
    d1s = _distortion_floor(source.variance, rates.r1)
    f2 = d1s * math.exp(-2.0 * rates.r2)
    f3 = d1s * math.exp(-2.0 * rates.r3)
    if ((d1 is UNCONSTRAINED or isinstance(d1, float) and 0.0 < d1s <= d1)
            and (d2 is UNCONSTRAINED or isinstance(d2, float) and 0.0 < f2 <= d2)
            and (d3 is UNCONSTRAINED or isinstance(d3, float) and 0.0 < f3 <= d3)):
        return d1s
    _require_floors("d1, d2, d3", (d1, d2, d3),
                    (_margin(d1, d1s), _margin(d2, f2), _margin(d3, f3)))
    return d1s


def feasible_individual(source: GaussianSource, rates: RateTuple,
                        dist: DistortionTuple) -> bool:
    """True when each first-round decoder target clears its exponential floor
    by the test of :func:`_require_floors`.

    The three tests are ``d1 >= var*exp(-2 r1)``, ``d2 >= var*exp(-2 (r1+r2))``
    and ``d3 >= var*exp(-2 (r1+r3))``; an unconstrained ``d1`` passes its test
    vacuously, and ``d4`` is not consulted here.
    """
    try:
        _checked_d1_star(source, rates, dist.d1, dist.d2, dist.d3)
    except InfeasibleDistortion:
        return False
    return True
