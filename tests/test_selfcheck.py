"""Unit tests for the seeded self-verification harness."""

from __future__ import annotations

import json
import math

import pytest

from gaussrd import (
    GaussianSource,
    RateTuple,
    converse_witness,
    feasible_individual,
    selfcheck,
)
from gaussrd.mmse import conditional_mmse
from gaussrd.model import DistortionTuple, UNCONSTRAINED
from gaussrd.selfcheck import (
    run_verification,
    sample_feasible_instance,
    sample_witness_instance,
)

import oracle
from conftest import make_rng


def test_sampled_instances_are_individually_feasible():
    rng = make_rng(501)
    source = GaussianSource(variance=1.0)
    saw_zero_r1 = False
    for _ in range(300):
        rates, d2, d3 = sample_feasible_instance(rng)
        assert isinstance(rates, RateTuple)
        assert 0.0 <= rates.r1 <= 3.0
        saw_zero_r1 = saw_zero_r1 or rates.r1 == 0.0
        dist = DistortionTuple(UNCONSTRAINED, d2, d3, 1.0)
        assert feasible_individual(source, rates, dist)
        d1s = math.exp(-2.0 * rates.r1)
        assert d2 <= d1s * (1.0 + 1e-12)
        assert d3 <= d1s * (1.0 + 1e-12)
    assert saw_zero_r1  # the zero-rate convention is exercised


def test_witness_instances_have_finite_interior_maximizer():
    rng = make_rng(503)
    source = GaussianSource(variance=1.0)
    for _ in range(50):
        rates, d2, d3 = sample_witness_instance(rng)
        wit = converse_witness(source, rates, UNCONSTRAINED, d2, d3)
        assert 0.0 < wit.epsilon_star < 1e8
        assert wit.t_bound >= 1.0


def test_sampling_is_seed_deterministic():
    a = [sample_feasible_instance(make_rng(507)) for _ in range(1)][0]
    b = [sample_feasible_instance(make_rng(507)) for _ in range(1)][0]
    assert a[0].as_tuple() == b[0].as_tuple()
    assert (a[1], a[2]) == (b[1], b[2])


@pytest.mark.parametrize("variance", [1.0, 1e-9, 1e9])
def test_run_verification_passes_at_low_density(variance):
    # The witness maximizer's bracket scales with the variance, as eps* does.
    report = run_verification(variance=variance, seed=12345, grid_density=2)
    assert report["all_passed"] is True
    assert report["seed"] == 12345
    names = [check["name"] for check in report["checks"]]
    assert names == ["equivalence-scan", "achievability",
                     "witness-maximizer", "monte-carlo"]
    for check in report["checks"]:
        assert check["passed"] is True
        assert check["count"] > 0
        assert check["worst_residual"] <= check["tolerance"]


def test_run_verification_is_reproducible():
    first = run_verification(variance=1.0, seed=99, grid_density=2)
    second = run_verification(variance=1.0, seed=99, grid_density=2)
    assert first == second
    other_seed = run_verification(variance=1.0, seed=100, grid_density=2)
    assert other_seed["checks"] != first["checks"]


def test_run_verification_report_equals_the_unchunked_estimator(monkeypatch):
    streamed = run_verification(seed=12345, grid_density=6)
    monkeypatch.setattr(selfcheck, "mc_estimate_mse",
                        oracle.mc_estimate_mse_unchunked)
    unchunked = run_verification(seed=12345, grid_density=6)
    assert (json.dumps(streamed, sort_keys=True)
            == json.dumps(unchunked, sort_keys=True))


@pytest.mark.parametrize("offset, worst, passed",
                         [(0.0, 0.0, True), (1e-3, math.inf, False)])
def test_monte_carlo_zero_error_bar_passes_only_an_exact_estimate(
        monkeypatch, offset, worst, passed):
    def estimator(joint, target, observed, samples, seed):
        analytic = conditional_mmse(joint, target, observed).error_variance
        return analytic * (1.0 + offset), 0.0

    monkeypatch.setattr(selfcheck, "mc_estimate_mse", estimator)
    report = run_verification(seed=12345, grid_density=2)
    check = report["checks"][-1]
    assert check["name"] == "monte-carlo"
    assert check["worst_residual"] == worst
    assert check["passed"] is passed
    assert report["all_passed"] is passed
