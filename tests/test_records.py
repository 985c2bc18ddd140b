"""The records the library returns survive the standard-library copies, and
the records callers pass in stay frozen.

Result records are slotted, mutable dataclasses; records that validate their
fields, or that callers build and pass in, are frozen
(``tests/test_hygiene.py`` checks which is which).  Either way ``pickle`` at
its default protocol, ``copy.deepcopy``, ``dataclasses.asdict`` and
``dataclasses.replace`` must give back an equal record.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from gaussrd import (
    UNCONSTRAINED,
    InvalidChannel,
    AsymptoticConfig,
    CovarianceMatrix,
    DistortionTuple,
    FixedChannelConfig,
    GaussianSource,
    MdcrSplit,
    MmseResult,
    RateTuple,
    asymptote_convergence,
    certify_achievability,
    conditional_mmse,
    converse_witness,
    default_grid,
    dr_bound,
    equivalence_scan,
    eval_region_bounds,
    fixed_channel_loss,
    high_rate_asymptote,
    mdcr_compare,
    random_pmf,
    rd_bound,
    wz_md_sweep,
)
from gaussrd.channel import TestChannel as ForwardChannel

from conftest import make_rng, random_psd_matrix


def _results() -> list[tuple[str, object]]:
    source = GaussianSource(variance=1.0)
    rates = RateTuple(0.0, 0.5, 0.5, 0.0)
    bound = dr_bound(source, rates, UNCONSTRAINED, 0.45, 0.45)
    adjusted = certify_achievability(source, rates, 0.9, 0.9)
    assert adjusted.adjustment is not None
    config = AsymptoticConfig(b=1.5, eta=0.0)
    joint = CovarianceMatrix(random_psd_matrix(make_rng(3), 4))
    return [
        ("dr_bound", bound),
        ("rd_bound", rd_bound(source, 0.0, 0.0,
                              DistortionTuple(1.0, 0.45, 0.45, bound.d4_bound))),
        ("converse_witness", converse_witness(source, rates, 1.0, 0.45, 0.45)),
        ("certify_achievability", certify_achievability(source, rates, 0.45, 0.45)),
        ("certify_achievability-adjusted", adjusted),
        ("degenerate_adjustment", adjusted.adjustment),
        ("equivalence_scan", equivalence_scan(source, default_grid(source, 2))),
        ("wz_md_sweep", wz_md_sweep(source, RateTuple(0.3, 0.4, 0.5, 0.0), 3)[1]),
        ("fixed_channel_loss", fixed_channel_loss(source, 1.0, 1.0,
                                                  FixedChannelConfig(alpha=1.0))),
        ("mdcr_compare", mdcr_compare(source, 0.5, 0.5, 0.3, MdcrSplit(0.5),
                                      0.45, 0.45)),
        ("high_rate_asymptote", high_rate_asymptote(config, 2.0, 0.0)),
        ("asymptote_convergence", asymptote_convergence(config, [1.0, 2.0])[0]),
        ("eval_region_bounds", eval_region_bounds(
            random_pmf(make_rng(5), (2, 2, 2, 2, 2)))),
        ("conditional_mmse", conditional_mmse(joint, 0, (1, 2, 3))),
    ]


RESULTS = _results()


def _rebuilt(record):
    """The record built again from its ``asdict``, nested records too."""
    values = dataclasses.asdict(record)
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if dataclasses.is_dataclass(value):
            values[f.name] = _rebuilt(value)
    return type(record)(**values)


@pytest.mark.parametrize("record", [r for _, r in RESULTS],
                         ids=[name for name, _ in RESULTS])
def test_result_round_trips_through_the_standard_copies(record):
    for other in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                  _rebuilt(record), dataclasses.replace(record)):
        assert other is not record
        assert other == record
        assert record == other
    assert dataclasses.asdict(pickle.loads(pickle.dumps(record))).keys() \
        == {f.name for f in dataclasses.fields(record)}


VALUE_TYPES = [GaussianSource(2.5), RateTuple(0.3, 0.5, 1.25, 0.0),
               DistortionTuple(UNCONSTRAINED, 0.5, 0.25, 0.1),
               ForwardChannel(1.0, float("inf"), 3.0, 0.5, -0.5, 0.1, 0.75)]


@pytest.mark.parametrize("record", VALUE_TYPES, ids=lambda r: type(r).__name__)
def test_value_types_round_trip_hash_and_check_on_replace(record):
    for other in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                  _rebuilt(record), dataclasses.replace(record)):
        assert other is not record
        assert other == record and hash(other) == hash(record)
    assert dataclasses.asdict(record) == {f.name: getattr(record, f.name)
                                          for f in dataclasses.fields(record)}
    # replace builds through the same checks.
    name = dataclasses.fields(record)[-1].name
    with pytest.raises((ValueError, InvalidChannel)):
        dataclasses.replace(record, **{name: -1.0})


def test_mmse_result_compares_its_coefficients_elementwise():
    joint = CovarianceMatrix(random_psd_matrix(make_rng(3), 4))
    record = conditional_mmse(joint, 0, (1, 2, 3))
    assert record == copy.deepcopy(record)
    others = [dataclasses.replace(record, coefficients=record.coefficients[::-1]),
              dataclasses.replace(record, coefficients=record.coefficients[:2]),
              dataclasses.replace(record, error_variance=record.error_variance / 2),
              conditional_mmse(joint, 0, (3, 2, 1)), conditional_mmse(joint, 0, ())]
    for other in others:
        assert record != other and other != record
    assert record != None and record != (record.error_variance,)  # noqa: E711
    assert MmseResult(np.zeros(0), 1.0, 0) == MmseResult(np.zeros(0), 1.0, 0)


def test_passed_in_records_refuse_assignment():
    source = GaussianSource(variance=1.0)
    rates = RateTuple(0.0, 0.5, 0.5, 0.0)
    record = certify_achievability(source, rates, 0.45, 0.45)
    for value, name in ((rates, "r2"), (record.achieved, "d4"),
                        (record.channel, "q")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 0.25)
