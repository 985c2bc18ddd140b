"""Unit tests for the seeded self-verification harness."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import threading
import warnings

import pytest

from gaussrd import (
    GaussianSource,
    RateTuple,
    converse_witness,
    feasible_individual,
    selfcheck,
)
import gaussrd.cli as cli
from gaussrd.errors import InvalidRegimeInput, SingularObservation
from gaussrd.mmse import IDX_U1, IDX_U3, conditional_mmse
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


def _four_call_sample(rng, max_rate, zero_rate_prob):
    """The sampler as four generator calls, the reference of its stream."""
    r = rng.uniform(0.0, max_rate, size=4)
    if rng.random() < zero_rate_prob:
        r[0] = 0.0
    if rng.random() < zero_rate_prob:
        r[3] = 0.0
    d1s = math.exp(-2.0 * r[0])
    u2, u3 = rng.uniform(0.0, 1.0, size=2)
    return (*r, d1s * math.exp(-2.0 * r[1] * u2), d1s * math.exp(-2.0 * r[2] * u3))


@pytest.mark.parametrize("zero_rate_prob", [0.0, 0.15])
@pytest.mark.parametrize("max_rate", [2.0, 3.0, 10.0, 40.0])
def test_sampling_reads_the_four_call_stream(max_rate, zero_rate_prob):
    # One rng.random(8) per draw gives the four calls' values bit for bit
    # and leaves the generator where they leave it.
    rng, reference = make_rng(507), make_rng(507)
    for _ in range(5_000):
        rates, d2, d3 = sample_feasible_instance(rng, max_rate=max_rate,
                                                 zero_rate_prob=zero_rate_prob)
        expected = _four_call_sample(reference, max_rate, zero_rate_prob)
        assert all(type(r) is float for r in rates.as_tuple())
        assert ([float.hex(float(v)) for v in (*rates.as_tuple(), d2, d3)]
                == [float.hex(float(v)) for v in expected])
        assert rng.bit_generator.state == reference.bit_generator.state


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


@pytest.mark.parametrize("variance", [1.0, 1e-9, 1e9])
@pytest.mark.parametrize("seed", [12345, 7])
def test_every_monte_carlo_trial_equals_the_unchunked_estimator(monkeypatch,
                                                               seed, variance):
    # The report keeps only the worst z-score of the eight trials, so each
    # trial's (estimate, std_error) is compared here, bit for bit.
    streamed = selfcheck.mc_estimate_mse
    compared = []

    def estimator(joint, target, observed, samples, mc_seed):
        result = streamed(joint, target, observed, samples, mc_seed)
        assert result == oracle.mc_estimate_mse_unchunked(
            joint, target, observed, samples, mc_seed)
        compared.append(result)
        return result

    monkeypatch.setattr(selfcheck, "mc_estimate_mse", estimator)
    run_verification(variance=variance, seed=seed, grid_density=6)
    assert len(compared) == 8


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


@pytest.mark.parametrize("seed", [12345, 7])
def test_monte_carlo_report_does_not_depend_on_the_worker_count(monkeypatch,
                                                                seed):
    texts = []
    for workers in (1, 16):
        monkeypatch.setattr(selfcheck, "_worker_count", lambda trials: workers)
        threads = threading.active_count()
        report = run_verification(seed=seed, grid_density=6)
        # The pool's threads are joined before the call returns.
        assert threading.active_count() == threads
        texts.append(json.dumps(report, sort_keys=True))
    assert texts[0] == texts[1]


@pytest.mark.parametrize("workers", [1, 16])
def test_a_failing_monte_carlo_trial_raises_its_own_error(monkeypatch, capsys,
                                                          workers):
    # At grid density 2 the only (U1, U3) trial is the third one.
    def estimator(joint, target, observed, samples, seed):
        if tuple(observed) == (IDX_U1, IDX_U3):
            raise SingularObservation("third trial")
        return conditional_mmse(joint, target, observed).error_variance, 1.0

    monkeypatch.setattr(selfcheck, "mc_estimate_mse", estimator)
    monkeypatch.setattr(selfcheck, "_worker_count", lambda trials: workers)
    threads = threading.active_count()
    with pytest.raises(SingularObservation, match="third trial"):
        run_verification(seed=12345, grid_density=2)
    assert cli.main(["verify", "--grid-density", "2"]) == cli.EXIT_INFEASIBLE
    assert "third trial" in capsys.readouterr().err
    assert threading.active_count() == threads


def test_worker_count_falls_back_to_the_cpu_count(monkeypatch):
    expected = json.dumps(run_verification(seed=12345, grid_density=2),
                          sort_keys=True)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert selfcheck._worker_count(8) == 3
    assert selfcheck._worker_count(2) == 2
    assert (json.dumps(run_verification(seed=12345, grid_density=2),
                       sort_keys=True) == expected)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert selfcheck._worker_count(8) == 1
    assert (json.dumps(run_verification(seed=12345, grid_density=2),
                       sort_keys=True) == expected)


@pytest.mark.parametrize("grid_density", [2, 3])
def test_achievability_fails_on_a_record_that_misses_its_bound(monkeypatch,
                                                               grid_density):
    # A record whose d4 meets the bound but whose matches_bound is false (a
    # side target missed) scores the worst residual, 1.
    certify = selfcheck.certify_achievability
    monkeypatch.setattr(selfcheck, "certify_achievability", lambda *args: (
        dataclasses.replace(certify(*args), matches_bound=False)))
    report = run_verification(grid_density=grid_density)
    achievability, = [c for c in report["checks"] if c["name"] == "achievability"]
    assert achievability == {"name": "achievability", "tolerance": 1e-9,
                             "worst_residual": 1.0, "count": 25 * grid_density,
                             "passed": False}
    assert not report["all_passed"]


@pytest.mark.parametrize("variance, grid_density", [
    (1e-200, 2), (1e-158, 6), (1e300, 2)])
def test_verify_passes_at_extreme_variances(variance, grid_density):
    # Unscaled, the Monte Carlo squares underflow to a zero error bar at
    # 1e-200, the covariance fails its eigenvalue test at 1e-158 and its
    # entries overflow at 1e300.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_verification(variance=variance, grid_density=grid_density)
    assert report["all_passed"], report


def test_a_non_finite_monte_carlo_error_bar_is_refused(monkeypatch, capsys):
    # An infinite error bar would score every estimate z = 0, so the check
    # would pass without a word.
    monkeypatch.setattr(selfcheck, "mc_estimate_mse",
                        lambda joint, target, observed, samples, seed: (
                            conditional_mmse(joint, target, observed).error_variance,
                            math.inf))
    with pytest.raises(InvalidRegimeInput, match=r"not finite at variance 1\.0"):
        run_verification(grid_density=2)
    assert cli.main(["verify", "--grid-density", "2"]) == cli.EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "InvalidRegimeInput"
