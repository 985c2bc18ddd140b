"""Unit tests for the shared data model: sources, tuples, units, feasibility."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gaussrd import (
    DistortionTuple,
    GaussianSource,
    RateTuple,
    RateUnit,
    UNCONSTRAINED,
    convert_rate,
    feasible_individual,
)

from conftest import make_rng


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_source_requires_positive_finite_variance():
    assert GaussianSource(variance=2.5).variance == 2.5
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            GaussianSource(variance=bad)


def test_rate_tuple_rejects_negative_and_non_finite():
    rates = RateTuple(0.1, 0.2, 0.3, 0.4)
    assert rates.as_tuple() == (0.1, 0.2, 0.3, 0.4)
    assert rates.total() == pytest.approx(1.0)
    for bad in (-1e-12, math.inf, math.nan):
        with pytest.raises(ValueError):
            RateTuple(bad, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            RateTuple(0.0, 0.0, 0.0, bad)


#: Each probe value, and how a field refuses it: ``None`` where it is
#: accepted, else the message between the field's name and the value's repr.
_PROBES = {
    "true": (True, "must be a real number, got"),
    "int": (1, None),
    "negative": (-1.0, "must be nonnegative, got"),
    "negative-zero": (-0.0, None),
    "inf": (math.inf, "must be finite, got"),
    "nan": (math.nan, "must be finite, got"),
    "np-nan": (np.float64("nan"), "must be finite, got"),
    "str": ("1", "must be a real number, got"),
    "none": (None, "must be a real number, got"),
}
_FIELDS = {
    "variance": (GaussianSource, {"variance": 1.0}),
    **{f"r{i}": (RateTuple, dict.fromkeys(("r1", "r2", "r3", "r4"), 0.5))
       for i in range(1, 5)},
    **{f"d{i}": (DistortionTuple, {"d1": UNCONSTRAINED, "d2": 0.5, "d3": 0.5,
                                   "d4": 0.5})
       for i in range(1, 5)},
}


@pytest.mark.parametrize("probe", sorted(_PROBES))
@pytest.mark.parametrize("field", sorted(_FIELDS))
def test_each_field_accepts_or_refuses_a_probe_value(field, probe):
    # A finite, nonnegative int is accepted like a float; a variance is
    # refused at zero, -0.0 included, and says "positive" where a rate or a
    # distortion says "nonnegative".
    cls, valid = _FIELDS[field]
    value, refusal = _PROBES[probe]
    if field == "variance" and probe in ("negative", "negative-zero"):
        refusal = "must be positive, got"
    kwargs = {**valid, field: value}
    if refusal is None:
        assert getattr(cls(**kwargs), field) is value
        return
    with pytest.raises(ValueError) as caught:
        cls(**kwargs)
    assert type(caught.value) is ValueError
    assert str(caught.value) == f"{field} {refusal} {value!r}"


def test_distortion_tuple_allows_unconstrained_first_stage():
    dist = DistortionTuple(UNCONSTRAINED, 0.4, 0.5, 0.1)
    assert dist.d1 is UNCONSTRAINED
    assert dist.d2 == 0.4
    constrained = DistortionTuple(0.9, 0.4, 0.5, 0.1)
    assert constrained.d1 == 0.9
    with pytest.raises(ValueError):
        DistortionTuple(-0.1, 0.4, 0.5, 0.1)
    with pytest.raises(ValueError):
        DistortionTuple(0.9, math.nan, 0.5, 0.1)
    with pytest.raises(ValueError):
        DistortionTuple(0.9, 0.4, math.inf, 0.1)


def test_zero_distortion_targets_are_representable():
    # Zero is a legal target value; it is simply infeasible at finite rate.
    dist = DistortionTuple(0.0, 0.0, 0.0, 0.0)
    src = GaussianSource(variance=1.0)
    assert not feasible_individual(src, RateTuple(3.0, 3.0, 3.0, 3.0), dist)


# ---------------------------------------------------------------------------
# Rate unit conversion
# ---------------------------------------------------------------------------

def test_convert_rate_known_values():
    assert convert_rate(1.0, RateUnit.BITS, RateUnit.NATS) == math.log(2.0)
    assert convert_rate(math.log(2.0), RateUnit.NATS, RateUnit.BITS) == pytest.approx(1.0, rel=1e-15)
    assert convert_rate(0.0, RateUnit.BITS, RateUnit.NATS) == 0.0
    assert convert_rate(0.7, RateUnit.NATS, RateUnit.NATS) == 0.7


def test_convert_rate_round_trip_within_one_ulp():
    rng = make_rng(20240811)
    values = [0.0, 1.0, math.log(2.0), 100.0] + list(100.0 * rng.random(500))
    for value in values:
        both_ways = convert_rate(
            convert_rate(value, RateUnit.NATS, RateUnit.BITS),
            RateUnit.BITS,
            RateUnit.NATS,
        )
        assert abs(both_ways - value) <= math.ulp(max(value, 1.0))


# ---------------------------------------------------------------------------
# Individual-rate feasibility
# ---------------------------------------------------------------------------

def test_feasibility_boundary_point_is_feasible():
    src = GaussianSource(variance=1.0)
    rates = RateTuple(0.5, 0.5, 0.5, 0.0)
    dist = DistortionTuple(math.exp(-1.0), math.exp(-2.0), math.exp(-2.0), 1.0)
    assert feasible_individual(src, rates, dist)


def test_feasibility_rejects_target_below_rate_floor():
    src = GaussianSource(variance=1.0)
    rates = RateTuple(1.0, 0.0, 0.0, 0.0)
    dist = DistortionTuple(math.exp(-2.0) * 0.99, 1.0, 1.0, 1.0)
    assert not feasible_individual(src, rates, dist)


def test_feasibility_zero_rates_require_targets_at_least_variance():
    src = GaussianSource(variance=2.0)
    rates = RateTuple(0.0, 0.0, 0.0, 0.0)
    assert feasible_individual(src, rates, DistortionTuple(2.0, 2.0, 2.0, 2.0))
    assert feasible_individual(src, rates, DistortionTuple(5.0, 3.0, 2.5, 2.0))
    assert not feasible_individual(src, rates, DistortionTuple(2.0, 1.999, 2.0, 2.0))


def test_feasibility_unconstrained_first_stage_is_vacuous():
    src = GaussianSource(variance=1.0)
    rates = RateTuple(0.0, 0.25, 0.25, 0.0)
    floor2 = math.exp(-0.5)
    assert feasible_individual(
        src, rates, DistortionTuple(UNCONSTRAINED, floor2, floor2, 1.0))
    # An explicit tiny d1 at zero first-stage rate must fail instead.
    assert not feasible_individual(
        src, rates, DistortionTuple(1e-6, floor2, floor2, 1.0))


def test_feasibility_ignores_central_target():
    # The central constraint is cumulative, not individual, so d4 below every
    # single-rate floor must not affect this predicate.
    src = GaussianSource(variance=1.0)
    rates = RateTuple(0.5, 0.5, 0.5, 0.5)
    dist = DistortionTuple(1.0, 1.0, 1.0, 1e-9)
    assert feasible_individual(src, rates, dist)


def test_feasibility_monotone_in_rates_and_targets():
    rng = make_rng(7)
    src = GaussianSource(variance=1.0)
    for _ in range(200):
        r = RateTuple(*(3.0 * rng.random(4)))
        d = DistortionTuple(*(math.exp(-2.0 * 3.0) + rng.random(4)))
        if not feasible_individual(src, r, d):
            continue
        # Loosening any target keeps the point feasible.
        wider = DistortionTuple(d.d1 * 2.0, d.d2 * 2.0, d.d3 * 2.0, d.d4 * 2.0)
        assert feasible_individual(src, r, wider)
        # Raising any rate keeps the point feasible.
        faster = RateTuple(r.r1 + 0.5, r.r2 + 0.5, r.r3 + 0.5, r.r4 + 0.5)
        assert feasible_individual(src, faster, d)


@pytest.mark.parametrize("units, message", [
    (("nats", RateUnit.BITS), "unsupported unit pair 'nats' -> <RateUnit.BITS: 'bits'>"),
    ((RateUnit.NATS, "bits"), "unsupported unit pair <RateUnit.NATS: 'nats'> -> 'bits'"),
], ids=["from-string", "to-string"])
def test_convert_rate_refuses_a_unit_that_is_not_a_rate_unit(units, message):
    with pytest.raises(ValueError) as raised:
        convert_rate(1.0, *units)
    assert str(raised.value) == message
