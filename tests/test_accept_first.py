"""The checks on the per-call scalar path decide as their refusal chains.

The floor test and the ``TestChannel`` and ``rd_bound`` input checks each make
their comparisons once, in one chain; ``_require_d1_floor`` and
``_over_ceiling`` admit first and leave the rest to the margin test.  These
tests pit each site against a reference chain kept here (the floor, channel
and ``rd_bound`` ones are the separate refusal chains the sites once replayed
after an accept-first test; the value types' are the ``__post_init__`` bodies
their one-step ``__init__`` replaced), on the returned value or stored fields
or on the exception's type and message, over seeded draws of targets placed
around their floors (a few ulps either side, and around the
``FEASIBILITY_RTOL`` band), non-positive, NaN, infinite, ``int``, ``bool``
and :data:`UNCONSTRAINED` values, at variances from subnormal to 1e300.
Counted guards then check that an interior point never enters the floor
helpers and makes no ``__post_init__`` call.
"""

from __future__ import annotations

import dataclasses
import math
import struct
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

from gaussrd import channel, regions
from gaussrd.channel import TestChannel as ForwardChannel
from gaussrd.errors import GaussRdError, InfeasibleDistortion, InvalidChannel
from gaussrd.model import (FEASIBILITY_RTOL, UNCONSTRAINED, DistortionTuple,
                           GaussianSource, RateTuple, _checked_d1_star,
                           _distortion_floor, _margin, _over_ceiling,
                           _require_d1_floor, _require_finite_number,
                           _require_floors, _require_rate)

from conftest import make_rng

EPS = sys.float_info.epsilon
VARIANCES = (5e-324, 1e-310, 1e-300, 1e-154, 1e-9, 1.0, 3.7, 1e9, 1e154, 1e300)
#: Rates, a few of them ints, up to where d1_star underflows at unit variance.
RATES = (0.0, 1e-300, 1e-12, 0.25, 0.5, 1.5, 3.0, 20.0, 372.0, 400.0, 0, 2)
#: Targets with no floor to sit around.
SPECIAL = (0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, 1, 0, -3,
           10 ** 400, UNCONSTRAINED)
#: Relative offsets below a floor: inside and outside the 1e-12 band.
BAND = (0.5, 0.99, 1.01, 1.5, 2.0, 3.0)

DRAWS = 4000


def _word(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


def _outcome(call, *args):
    """``(None, bits)`` of what ``call`` returns, or the type and message of
    what it raises."""
    try:
        result = call(*args)
    except Exception as exc:  # noqa: BLE001 - every refusal is compared
        return type(exc), str(exc)
    return None, _word(result)


def _around(floor: float) -> list:
    """Targets a few ulps either side of ``floor``, across the 1e-12 band
    below it, and the values with no floor to sit around."""
    near = [floor * (1.0 + k * EPS) for k in range(-4, 5)]
    band = [floor * (1.0 - m * FEASIBILITY_RTOL) for m in BAND]
    return near + band + [math.nextafter(floor, 0.0), math.nextafter(floor, math.inf),
                          2.0 * floor] + list(SPECIAL)


def _pick(rng, values):
    return values[int(rng.integers(len(values)))]


def _instances(seed: int):
    """Seeded ``(source, rates, d1_star, f2, f3)``, the floors formed as the
    floor test forms them."""
    rng = make_rng(seed)
    for _ in range(DRAWS):
        source = GaussianSource(_pick(rng, VARIANCES))
        rates = RateTuple(*(_pick(rng, RATES) for _ in range(4)))
        d1s = _distortion_floor(source.variance, rates.r1)
        yield (rng, source, rates, d1s, d1s * math.exp(-2.0 * rates.r2),
               d1s * math.exp(-2.0 * rates.r3))


def _floor_margins(d1_star, rates, d1, d2, d3):
    """Margins ``(d - f)/f`` over the floors ``d1_star``, ``d1_star exp(-2 r_i)``."""
    return (_margin(d1, d1_star),
            _margin(d2, d1_star * math.exp(-2.0 * rates.r2)),
            _margin(d3, d1_star * math.exp(-2.0 * rates.r3)))


def _chain_d1_star(source, rates, d1, d2, d3):
    d1s = _distortion_floor(source.variance, rates.r1)
    _require_floors("d1, d2, d3", (d1, d2, d3), _floor_margins(d1s, rates, d1, d2, d3))
    return d1s


def test_floor_test_decides_as_its_chain():
    u = UNCONSTRAINED
    for rng, source, rates, d1s, f2, f3 in _instances(29):
        d1, d2, d3 = _pick(rng, _around(d1s)), _pick(rng, _around(f2)), _pick(rng, _around(f3))
        # All three drawn, then each alone with the other two unconstrained.
        for targets in ((d1, d2, d3), (d1, u, u), (u, d2, u), (u, u, d3)):
            assert (_outcome(_checked_d1_star, source, rates, *targets)
                    == _outcome(_chain_d1_star, source, rates, *targets)), (source, rates, targets)


def test_floor_test_admits_each_target_at_and_above_its_floor():
    # The accept chain must not leave these to the chain by accident: the
    # counted guard below reads the calls, this reads the values.
    source, rates = GaussianSource(3.7), RateTuple(0.3, 0.5, 1.25, 0.0)
    d1s = 3.7 * math.exp(-0.6)
    for d2 in (d1s * math.exp(-1.0), math.nextafter(d1s * math.exp(-1.0), math.inf), d1s):
        assert _checked_d1_star(source, rates, d1s, d2, UNCONSTRAINED) == d1s


def test_d1_floor_test_decides_as_its_chain():
    def chain(d1, d1s):
        _require_floors("d1", (d1,), (_margin(d1, d1s),))

    for rng, _, _, d1s, _, _ in _instances(30):
        d1 = _pick(rng, _around(d1s))
        assert _outcome(_require_d1_floor, d1, d1s) == _outcome(chain, d1, d1s), (d1, d1s)


def test_ceiling_test_decides_as_its_chain():
    for rng, _, _, d1s, _, _ in _instances(31):
        ceiling = [d1s * (1.0 + k * EPS) for k in range(-4, 5)]
        ceiling += [d1s * (1.0 + m * FEASIBILITY_RTOL) for m in BAND]
        d = _pick(rng, ceiling + list(SPECIAL))
        assert (_outcome(_over_ceiling, d, d1s)
                == _outcome(lambda: _margin(d, d1s) > FEASIBILITY_RTOL)), (d, d1s)


#: Rates rd_bound refuses or admits only through its chain.
BAD_RATES = (-1.0, -0.0, math.nan, math.inf, -math.inf, True, 10 ** 400, "0.5", 3)


def _require_rd_inputs(r1, r4, dist):
    """rd_bound's input checks: nonnegative finite rates, positive targets
    (``d1`` may be UNCONSTRAINED)."""
    _require_rate("r1", r1)
    _require_rate("r4", r4)
    d1 = dist.d1
    if d1 is not UNCONSTRAINED and not d1 > 0:
        raise InfeasibleDistortion(f"d1 must be positive, got {d1}")
    for name, value in (("d2", dist.d2), ("d3", dist.d3), ("d4", dist.d4)):
        if not value > 0:
            raise InfeasibleDistortion(f"{name} must be positive, got {value}")


def _chain_rd_bound(source, r1, r4, dist):
    """rd_bound's checks alone, in its order, up to its floor test of d1."""
    _require_rd_inputs(r1, r4, dist)
    d1 = dist.d1
    regions.rate_to_reach(1.0 if d1 is UNCONSTRAINED else d1 / source.variance, "d1/var")
    d1s = _distortion_floor(source.variance, r1)
    _require_floors("d1", (d1,), (_margin(d1, d1s),))


def test_rd_bound_checks_decide_as_their_chain():
    rng = make_rng(32)
    for _ in range(DRAWS):
        source = GaussianSource(_pick(rng, VARIANCES))
        r1, r4 = (_pick(rng, RATES + BAD_RATES) for _ in range(2))
        try:
            d1s = _distortion_floor(source.variance, r1)
        except (TypeError, ValueError, OverflowError):
            d1s = 1.0
        # Not 10**400: both routes admit it, and the bound then overflows.
        targets = [1e-3, 0.5, 2.0, 1e300] + [v for v in SPECIAL[:-1] if v != 10 ** 400]
        dist = SimpleNamespace(d1=_pick(rng, _around(d1s)), d2=_pick(rng, targets),
                               d3=_pick(rng, targets), d4=_pick(rng, targets))
        chain = _outcome(_chain_rd_bound, source, r1, r4, dist)
        site = _outcome(regions.rd_bound, source, r1, r4, dist)
        if chain[0] is not None:
            assert site == chain, (source, r1, r4, dist)
        else:
            # Past its checks rd_bound refuses only as a GaussRdError.
            assert site[0] is None or issubclass(site[0], GaussRdError), (
                source, r1, r4, dist, site)


#: Values for each TestChannel field: admissible ones first, then others.
CHANNEL_FIELDS = {
    "sigma1_sq": ((1.0, math.inf, 5e-324, 1e308, 2), (0.0, -0.0, -1.0, math.nan, -math.inf, "1")),
    "sigma2_sq": ((2.0, math.inf, 5e-324, 1e308, 10 ** 400), (0.0, -1.0, math.nan, None)),
    "sigma3_sq": ((3.0, math.inf, 5e-324, 1), (0.0, -0.0, math.nan, -math.inf)),
    "sigma4_sq": ((math.inf, 0.5, 5e-324), (0.0, -1.0, math.nan)),
    "rho": ((-0.5, -1.0, 0.0, -0.0, -1, 0, -5e-324),
            (math.nextafter(-1.0, -2.0), 5e-324, 1.0, math.nan, -math.inf, "0")),
    "d4_star": ((0.1, 5e-324, 1e308, 3), (0.0, -0.0, math.inf, math.nan, -1.0, 10 ** 400)),
    "q": ((0.75, 1.0, 5e-324, 1), (0.0, math.nextafter(1.0, 2.0), math.nan, math.inf, -0.5)),
}


def _stored(cls, *args, **kwargs) -> tuple:
    """The fields of ``cls(*args, **kwargs)``, each as :func:`_word` gives it."""
    record = cls(*args, **kwargs)
    return tuple(_word(getattr(record, f.name)) for f in dataclasses.fields(cls))


def _admitted(chain, *values) -> tuple:
    """``values``, as :func:`_word` gives them, once ``chain`` admits them."""
    chain(*values)
    return tuple(_word(v) for v in values)


def _require_channel(ch) -> None:
    """TestChannel's field checks, each refusal an InvalidChannel."""
    for name in ("sigma1_sq", "sigma2_sq", "sigma3_sq", "sigma4_sq"):
        value = getattr(ch, name)
        if not value > 0.0:  # math.inf is admissible
            raise InvalidChannel(f"{name} must be positive, got {value}")
    if not -1.0 <= ch.rho <= 0.0:
        raise InvalidChannel(f"rho must lie in [-1, 0], got {ch.rho}")
    if not (ch.d4_star > 0.0 and math.isfinite(ch.d4_star)):
        raise InvalidChannel(f"d4_star must be positive finite, got {ch.d4_star}")
    if not 0.0 < ch.q <= 1.0:
        raise InvalidChannel(f"q = 1 - rho^2 must lie in (0, 1], got {ch.q}")


def _chain_channel(*values) -> None:
    _require_channel(SimpleNamespace(**dict(zip(CHANNEL_FIELDS, values))))


def test_channel_record_decides_as_its_chain():
    rng = make_rng(33)
    for _ in range(DRAWS):
        fields = {name: _pick(rng, good if rng.random() < 0.85 else bad)
                  for name, (good, bad) in CHANNEL_FIELDS.items()}
        values = tuple(fields.values())
        assert (_outcome(_stored, ForwardChannel, *values)
                == _outcome(_admitted, _chain_channel, *values)), fields


def _chain_source(variance) -> None:
    """GaussianSource's checks, as its ``__post_init__`` made them."""
    v = variance
    if isinstance(v, float) and 0.0 < v < math.inf:
        return
    _require_finite_number("variance", v)
    if v <= 0.0:
        raise ValueError(f"variance must be positive, got {v}")


def _chain_rates(r1, r2, r3, r4) -> None:
    """RateTuple's checks, as its ``__post_init__`` made them."""
    if (isinstance(r1, float) and 0.0 <= r1 < math.inf
            and isinstance(r2, float) and 0.0 <= r2 < math.inf
            and isinstance(r3, float) and 0.0 <= r3 < math.inf
            and isinstance(r4, float) and 0.0 <= r4 < math.inf):
        return
    for name, value in zip(("r1", "r2", "r3", "r4"), (r1, r2, r3, r4)):
        _require_rate(name, value)


def _chain_distortions(d1, d2, d3, d4) -> None:
    """DistortionTuple's checks, as its ``__post_init__`` made them."""
    if ((d1 is UNCONSTRAINED or isinstance(d1, float) and 0.0 <= d1 < math.inf)
            and isinstance(d2, float) and 0.0 <= d2 < math.inf
            and isinstance(d3, float) and 0.0 <= d3 < math.inf
            and isinstance(d4, float) and 0.0 <= d4 < math.inf):
        return
    if d1 is not UNCONSTRAINED:
        _require_rate("d1", d1)
    for name, value in (("d2", d2), ("d3", d3), ("d4", d4)):
        _require_rate(name, value)


#: Admissible values, then :data:`SPECIAL` (``UNCONSTRAINED`` among them) and
#: the bools, which every slot of every value type refuses.
FIELD_VALUES = (0.5, 2.0, 1e300, 5e-324, 2) + SPECIAL + (True, False)


def test_value_types_decide_and_store_as_their_chains():
    rng = make_rng(34)
    for cls, chain in ((GaussianSource, _chain_source), (RateTuple, _chain_rates),
                       (DistortionTuple, _chain_distortions)):
        width = len(dataclasses.fields(cls))
        # Each value in each slot, the others admissible, then seeded draws.
        cases = [tuple(value if i == slot else 0.5 for i in range(width))
                 for slot in range(width) for value in FIELD_VALUES]
        cases += [tuple(_pick(rng, FIELD_VALUES) for _ in range(width))
                  for _ in range(DRAWS)]
        for values in cases:
            assert (_outcome(_stored, cls, *values)
                    == _outcome(_admitted, chain, *values)), (cls, values)


def test_value_types_refuse_assignment_to_every_field():
    records = (GaussianSource(3.7), RateTuple(0.3, 0.5, 1.25, 0.0),
               DistortionTuple(UNCONSTRAINED, 0.5, 0.25, 0.1),
               ForwardChannel(1.0, math.inf, 3.0, 0.5, -0.5, 0.1, 0.75))
    for record in records:
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, 0.25)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, f.name)


def _calls(call) -> Counter:
    """Python function calls made by ``call()``, by qualified name."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_qualname] += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


def _interior_op():
    """A bench ``point`` op at an interior point."""
    rates, d2, d3, variance = RateTuple(0.3, 0.5, 1.25, 0.4), 2.0, 1.2, 3.7
    source = GaussianSource(variance)
    d1s = variance * math.exp(-2.0 * rates.r1)
    bound = regions.dr_bound(source, rates, d1s, d2, d3)
    regions.rd_bound(source, rates.r1, rates.r4,
                     DistortionTuple(d1s, d2, d3, bound.d4_bound))
    regions.converse_witness(source, rates, d1s, d2, d3)
    channel.certify_achievability(source, rates, d2, d3)


def test_an_interior_point_makes_no_floor_helper_call():
    # With the refusal chains alone it made 12 _margin and 4 _require_floors
    # calls.
    _interior_op()
    calls = _calls(_interior_op)
    assert calls["_margin"] == calls["_require_floors"] == 0, calls


def test_an_interior_point_builds_its_records_in_one_step():
    # A generated frozen __init__ stored each field through
    # object.__setattr__ and then called __post_init__: one call per record.
    _interior_op()
    calls = _calls(_interior_op)
    built = {name: calls[f"{name}.__init__"]
             for name in ("GaussianSource", "DistortionTuple", "TestChannel")}
    assert built == {"GaussianSource": 1, "DistortionTuple": 2, "TestChannel": 1}, calls
    assert not [name for name in calls if name.endswith(".__post_init__")], calls


def test_a_target_one_ulp_below_its_floor_reaches_the_floor_test():
    rates, variance = RateTuple(0.3, 0.5, 1.25, 0.4), 3.7
    source = GaussianSource(variance)
    d1s = variance * math.exp(-2.0 * rates.r1)
    d2 = math.nextafter(d1s * math.exp(-2.0 * rates.r2), 0.0)
    calls = _calls(lambda: regions.dr_bound(source, rates, d1s, d2, 1.2))
    assert calls["_require_floors"] == 1 and calls["_margin"] == 3
    calls = _calls(lambda: regions.rd_bound(
        source, rates.r1, rates.r4,
        DistortionTuple(math.nextafter(d1s, 0.0), 2.0, 1.2, 0.5)))
    assert calls["_require_floors"] == 1


# ---------------------------------------------------------------------------
# No public input reaches a guard that the closed forms make unreachable
# ---------------------------------------------------------------------------

def test_no_public_input_reaches_a_deleted_guard(monkeypatch):
    # The penalty denominator of dr_bound, converse_witness, rd_bound's
    # excess term and certification's bound is positive, rd_bound's excess
    # term sees z < 1, pi needs no clamp at 0, and the degenerate adjustment
    # always has an excess to shrink: over the seeded draws above, at
    # variances from 5e-324 to 1e300, whatever each call returns or refuses.
    # The checks record what they see: _outcome would catch an assertion.
    seen, broken = Counter(), []
    penalty, pi_delta, excess_term, adjust = (
        regions._penalty, regions._pi_delta, regions._excess_term, channel._adjust)

    def checked_penalty(xp, a, b, delta):
        den = penalty(xp, a, b, delta)
        if xp is regions._MATH:
            seen["penalty"] += 1
            if not den > 0.0:
                broken.append(("penalty", a, b, delta, den))
        return den

    def checked_pi_delta(a, b, s):
        seen["pi"] += 1
        if not (1.0 - a) * (1.0 - b) >= 0.0:
            broken.append(("pi", a, b))
        return pi_delta(a, b, s)

    def checked_excess_term(a, b, z):
        seen["excess"] += 1
        if not z < 1.0:
            broken.append(("excess", a, b, z))
        return excess_term(a, b, z)

    def checked_adjust(rates, d1s, d2, d3):
        seen["adjust"] += 1
        e2, e3 = math.exp(-2.0 * rates.r2), math.exp(-2.0 * rates.r3)
        c2, c3 = -math.expm1(-2.0 * rates.r2), -math.expm1(-2.0 * rates.r3)
        span = (channel._over_floor(d1s, d2, e2, c2) + channel._over_floor(d1s, d3, e3, c3))
        if not span > 0.0:
            broken.append(("adjust", rates, d1s, d2, d3))
        return adjust(rates, d1s, d2, d3)

    monkeypatch.setattr(regions, "_penalty", checked_penalty)
    monkeypatch.setattr(regions, "_pi_delta", checked_pi_delta)
    monkeypatch.setattr(regions, "_excess_term", checked_excess_term)
    monkeypatch.setattr(channel, "_adjust", checked_adjust)
    u = UNCONSTRAINED
    for seed in (33, 34):
        for rng, source, rates, d1s, f2, f3 in _instances(seed):
            d2, d3 = _pick(rng, _around(f2)), _pick(rng, _around(f3))
            # The side targets up to d1_star, where the witness is defined.
            if rng.random() < 0.5:
                d2, d3 = (_pick(rng, [f, d1s, 0.5 * (f + d1s), math.sqrt(f) * math.sqrt(d1s)])
                          for f in (f2, f3))
            bound = _outcome(regions.dr_bound, source, rates, u, d2, d3)
            _outcome(regions.converse_witness, source, rates, u, d2, d3)
            _outcome(channel.certify_achievability, source, rates, d2, d3)
            d4 = _pick(rng, [0.5 * d1s, d1s * math.exp(-2.0 * (rates.r2 + rates.r3)), d1s])
            if bound[0] is None:
                d4_bound = bound[1].d4_bound
                d4 = _pick(rng, [d4, d4_bound, math.nextafter(d4_bound, 0.0)])
            _outcome(regions.rd_bound, source, rates.r1, rates.r4,
                     SimpleNamespace(d1=u, d2=d2, d3=d3, d4=d4))
    assert not broken, broken[:5]
    assert min(seen.values()) > 0 and len(seen) == 4, seen
