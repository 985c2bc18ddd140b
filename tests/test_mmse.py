"""Unit tests for Gaussian conditioning: covariances, MMSE, Monte Carlo."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussrd import (
    CovarianceMatrix,
    DimensionMismatch,
    GaussianSource,
    GaussRdError,
    RateTuple,
    SingularObservation,
    assemble_msr_covariance,
    conditional_mmse,
    certify_achievability,
    mc_estimate_mse,
)
from gaussrd.channel import TestChannel as ForwardChannel
from gaussrd.mmse import (IDX_U1, IDX_U2, IDX_U3, IDX_U4, IDX_X, IDX_XPRIME,
                          MC_CHUNK, _msr_distortions)
from gaussrd.selfcheck import sample_feasible_instance

import oracle
from conftest import make_rng, random_psd_matrix


# ---------------------------------------------------------------------------
# CovarianceMatrix validation
# ---------------------------------------------------------------------------

def test_covariance_matrix_basic_acceptance():
    cov = CovarianceMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert cov.entries.shape == (2, 2)
    assert not cov.entries.flags.writeable


def test_covariance_matrix_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        CovarianceMatrix(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        CovarianceMatrix(np.zeros((0, 0)))
    with pytest.raises(DimensionMismatch):
        CovarianceMatrix(np.eye(7))
    with pytest.raises(DimensionMismatch):
        CovarianceMatrix(np.ones((2, 2, 2)))


def test_covariance_matrix_rejects_asymmetric_and_indefinite():
    with pytest.raises(ValueError):
        CovarianceMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ValueError):
        CovarianceMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1
    with pytest.raises(ValueError):
        CovarianceMatrix(np.array([[1.0, math.nan], [math.nan, 1.0]]))


def _mmse_of_eye(target, observed):
    return lambda: conditional_mmse(CovarianceMatrix(np.eye(3)), target, observed)


@pytest.mark.parametrize("build, error, message", [
    (lambda: CovarianceMatrix(np.diag([-1.0, -2.0])), ValueError,
     "covariance trace is negative"),
    (_mmse_of_eye(3, (0,)), DimensionMismatch, "target index 3 out of range for dim 3"),
    (_mmse_of_eye(-1, (0,)), DimensionMismatch, "target index -1 out of range for dim 3"),
    (_mmse_of_eye(0, (1, 2, 1)), DimensionMismatch,
     "observed indices contain duplicates: (1, 2, 1)"),
    (_mmse_of_eye(0, (1, 3)), DimensionMismatch, "observed index 3 out of range for dim 3"),
    (_mmse_of_eye(0, (1, 0)), DimensionMismatch, "target index may not be observed"),
], ids=["negative-trace", "target-past-dim", "target-negative", "duplicates",
        "observed-past-dim", "target-observed"])
def test_covariance_and_indices_refusals(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# conditional_mmse closed-form cases
# ---------------------------------------------------------------------------

def test_mmse_halves_variance_with_equal_noise():
    # X ~ N(0,1), U = X + N with N ~ N(0,1): var(X|U) = 1/2, coefficient 1/2.
    cov = CovarianceMatrix(np.array([[1.0, 1.0], [1.0, 2.0]]))
    res = conditional_mmse(cov, 0, (1,))
    assert res.error_variance == pytest.approx(0.5, rel=1e-14)
    assert res.coefficients == pytest.approx([0.5], rel=1e-14)
    assert res.target_index == 0
    assert res.observed_indices == (1,)


def test_mmse_empty_observation_returns_prior():
    cov = CovarianceMatrix(np.diag([3.0, 1.0]))
    res = conditional_mmse(cov, 0, ())
    assert res.error_variance == 3.0
    assert res.coefficients.size == 0


def test_mmse_product_over_sum_formula():
    rng = make_rng(11)
    for _ in range(50):
        d1 = float(rng.uniform(0.05, 2.0))
        s2 = float(rng.uniform(0.05, 5.0))
        cov = CovarianceMatrix(np.array([[d1, d1], [d1, d1 + s2]]))
        res = conditional_mmse(cov, 0, (1,))
        assert res.error_variance == pytest.approx(d1 * s2 / (d1 + s2), rel=1e-12)


def test_mmse_error_never_exceeds_prior_and_shrinks_with_observations():
    rng = make_rng(23)
    for _ in range(25):
        cov = CovarianceMatrix(random_psd_matrix(rng, 5))
        prior = cov.entries[0, 0]
        previous = prior
        for size in range(1, 5):
            res = conditional_mmse(cov, 0, tuple(range(1, size + 1)))
            assert 0.0 <= res.error_variance <= prior * (1.0 + 1e-12)
            assert res.error_variance <= previous * (1.0 + 1e-10)
            previous = res.error_variance


def test_mmse_singular_observation_block_raises():
    entries = np.array([
        [1.0, 0.5, 0.5],
        [0.5, 1.0, 1.0],
        [0.5, 1.0, 1.0],
    ])
    cov = CovarianceMatrix(entries)
    with pytest.raises(SingularObservation):
        conditional_mmse(cov, 0, (1, 2))


# ---------------------------------------------------------------------------
# Joint covariance assembly for the layered channel
# ---------------------------------------------------------------------------

def _hand_built_channel():
    """Unit source, all rates 0.5, side targets in the non-degenerate regime."""
    source = GaussianSource(variance=1.0)
    rates = RateTuple(0.5, 0.5, 0.5, 0.5)
    channel = certify_achievability(source, rates, 0.16, 0.16).channel
    return source, rates, channel


def test_assembled_covariance_hand_oracle_uncorrelated_case():
    # Directly verify entries for sigma1=sigma2=sigma3=sigma4=1, rho=0 using
    # var(X') = sigma1^2 sigma_x^2 / (sigma1^2 + sigma_x^2) = 1/2.
    source = GaussianSource(variance=1.0)
    base = ForwardChannel(
        sigma1_sq=1.0, sigma2_sq=1.0, sigma3_sq=1.0, sigma4_sq=1.0,
        rho=0.0, d4_star=0.25, q=1.0)
    cov = assemble_msr_covariance(source, base).entries
    d1 = 0.5
    assert cov[IDX_X, IDX_X] == 1.0
    assert cov[IDX_X, IDX_U1] == pytest.approx(1.0)
    assert cov[IDX_U1, IDX_U1] == pytest.approx(2.0)
    assert cov[IDX_X, IDX_XPRIME] == pytest.approx(d1)
    assert cov[IDX_XPRIME, IDX_XPRIME] == pytest.approx(d1)
    assert cov[IDX_XPRIME, IDX_U1] == 0.0
    for idx in (IDX_U2, IDX_U3, IDX_U4):
        assert cov[IDX_XPRIME, idx] == pytest.approx(d1)
        assert cov[idx, idx] == pytest.approx(d1 + 1.0)
        assert cov[IDX_X, idx] == pytest.approx(d1)
    # rho = 0 leaves U2 and U3 coupled only through X'.
    assert cov[IDX_U2, IDX_U3] == pytest.approx(d1)
    assert cov[IDX_U2, IDX_U4] == pytest.approx(d1)
    assert cov[IDX_U3, IDX_U4] == pytest.approx(d1)


def test_assembled_covariance_correlated_noise_entry():
    source, _, channel = _hand_built_channel()
    cov = assemble_msr_covariance(source, channel).entries
    d1s = source.variance * channel.sigma1_sq / (source.variance + channel.sigma1_sq)
    expected = d1s + channel.rho * math.sqrt(
        channel.sigma2_sq * channel.sigma3_sq)
    assert cov[IDX_U2, IDX_U3] == pytest.approx(expected, rel=1e-14)
    assert channel.rho < 0.0


def test_assembled_covariance_is_valid_for_extreme_correlation():
    source, _, channel = _hand_built_channel()
    for rho in (0.0, -0.5, -1.0 + 1e-9):
        tweaked = ForwardChannel(
            sigma1_sq=channel.sigma1_sq, sigma2_sq=channel.sigma2_sq,
            sigma3_sq=channel.sigma3_sq, sigma4_sq=channel.sigma4_sq,
            rho=rho, d4_star=channel.d4_star, q=(1.0 - rho) * (1.0 + rho))
        cov = assemble_msr_covariance(source, tweaked)
        eigvals = np.linalg.eigvalsh(cov.entries)
        assert eigvals.min() >= -1e-10 * eigvals.max()


def test_assembled_covariance_replaces_infinite_branches():
    # Zero refinement rate: sigma4^2 = inf; the U4 row becomes a unit-variance
    # placeholder independent of everything else.
    source = GaussianSource(variance=1.0)
    channel = certify_achievability(source, RateTuple(0.5, 0.5, 0.5, 0.0), 0.16,
                                    0.16).channel
    assert math.isinf(channel.sigma4_sq)
    cov = assemble_msr_covariance(source, channel).entries
    assert cov[IDX_U4, IDX_U4] == 1.0
    off_diag = np.delete(cov[IDX_U4], IDX_U4)
    assert np.all(off_diag == 0.0)


def test_assembled_covariance_refuses_a_noise_variance_past_the_double_range():
    # In units of the source variance 1e-300, a noise variance of 1e300 is
    # past the double range.
    channel = ForwardChannel(1e300, 1e300, 1e300, 1e300, 0.0, 1e-300, 1.0)
    with pytest.raises(ValueError, match="covariance entries must be finite"):
        assemble_msr_covariance(GaussianSource(1e-300), channel)


# ---------------------------------------------------------------------------
# The two conditioning routes agree
# ---------------------------------------------------------------------------

def test_scalar_chain_matches_conditional_mmse_on_the_assembled_covariance():
    # Certification reads the chain, the Monte Carlo check the 6x6 matrix.
    # Rates stay below 1.5 nats: beyond ~3 the double-precision Schur
    # complement itself loses digits on d4 (the chain's accuracy there is
    # pinned against the 50-digit oracle in test_oracle.py).
    source = GaussianSource(variance=1.0)
    observed = ((IDX_U1,), (IDX_U1, IDX_U2), (IDX_U1, IDX_U3),
                (IDX_U1, IDX_U2, IDX_U3, IDX_U4))
    rng = make_rng(41)
    checked = 0
    for _ in range(50):
        rates = RateTuple(*(1.5 * rng.random(4)))
        d1s = math.exp(-2.0 * rates.r1)
        d2 = d1s * math.exp(-2.0 * rates.r2 * rng.uniform(0.2, 0.95))
        d3 = d1s * math.exp(-2.0 * rates.r3 * rng.uniform(0.2, 0.95))
        record = certify_achievability(source, rates, d2, d3)
        if record.adjustment is not None:  # keep to non-degenerate draws
            continue
        channel = record.channel
        cov = assemble_msr_covariance(source, channel)
        chain = _msr_distortions(source.variance, channel)
        for value, obs in zip(chain, observed):
            matrix = conditional_mmse(cov, IDX_X, obs).error_variance
            assert value == pytest.approx(matrix, rel=1e-10), obs
        checked += 1
    assert checked >= 25


def test_chain_equals_the_longdouble_constructor_form_bit_for_bit():
    # The chain converts each double by adding it to a longdouble zero; over
    # certified channels up to 40 nats and across the double range that
    # must give exactly the numpy.longdouble(x) form.  The hand-built
    # channels reach every branch: each of the 16 sets of infinite noise
    # variances (certified draws almost never give sigma2_sq = inf), rho = 0
    # with q = 1, and q near 1e-300.
    for variance in (1e-300, 1.0, 1e300):
        for infinite in itertools.product((False, True), repeat=4):
            sigmas = [math.inf if inf else scale * variance
                      for inf, scale in zip(infinite, (0.7, 1.3, 0.4, 2.5))]
            for rho, q in ((-0.6, 0.64), (0.0, 1.0), (-1.0, 1e-300), (-1.0, 3e-301)):
                channel = ForwardChannel(*sigmas, rho, 0.1 * variance, q)
                assert (_msr_distortions(variance, channel)
                        == oracle.ld_channel_distortions(variance, channel)), channel
    rng = np.random.default_rng(1407)
    channels = 0
    while channels < 10_000:
        rates, d2, d3 = sample_feasible_instance(
            rng, max_rate=(3.0, 40.0)[channels % 2])
        variance = 10.0 ** rng.uniform(-300.0, 300.0)
        try:
            channel = certify_achievability(GaussianSource(variance), rates,
                                            d2 * variance, d3 * variance).channel
        except GaussRdError:
            continue
        assert (_msr_distortions(variance, channel)
                == oracle.ld_channel_distortions(variance, channel)), channel
        channels += 1


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------

def test_mc_estimate_rejects_small_sample_sizes():
    cov = CovarianceMatrix(np.eye(2))
    with pytest.raises(ValueError):
        mc_estimate_mse(cov, 0, (1,), samples=999, seed=1)


def test_mc_estimate_is_deterministic_for_fixed_seed():
    cov = CovarianceMatrix(np.array([[1.0, 1.0], [1.0, 2.0]]))
    first = mc_estimate_mse(cov, 0, (1,), samples=20_000, seed=77)
    second = mc_estimate_mse(cov, 0, (1,), samples=20_000, seed=77)
    assert first == second
    third = mc_estimate_mse(cov, 0, (1,), samples=20_000, seed=78)
    assert third != first


def test_mc_estimate_recovers_half_variance_within_four_errors():
    cov = CovarianceMatrix(np.array([[1.0, 1.0], [1.0, 2.0]]))
    estimate, stderr = mc_estimate_mse(cov, 0, (1,), samples=200_000, seed=5)
    assert stderr > 0.0
    assert abs(estimate - 0.5) <= 4.0 * stderr


def test_mc_estimate_empty_observation_recovers_prior():
    cov = CovarianceMatrix(np.diag([2.0, 1.0]))
    estimate, stderr = mc_estimate_mse(cov, 0, (), samples=200_000, seed=9)
    assert abs(estimate - 2.0) <= 4.0 * stderr


def test_mc_estimate_matches_layered_channel_distortion():
    source = GaussianSource(variance=1.0)
    rates = RateTuple(0.5, 0.5, 0.5, 0.5)
    channel = certify_achievability(source, rates, 0.16, 0.16).channel
    cov = assemble_msr_covariance(source, channel)
    analytic = conditional_mmse(
        cov, IDX_XPRIME, (IDX_U2, IDX_U3, IDX_U4)).error_variance
    estimate, stderr = mc_estimate_mse(
        cov, IDX_XPRIME, (IDX_U2, IDX_U3, IDX_U4), samples=300_000, seed=13)
    assert abs(estimate - analytic) <= 4.0 * stderr


def test_mc_estimate_rejects_non_integer_sample_counts():
    cov = CovarianceMatrix(np.eye(2))
    for samples in (2e5, 180_000.0, True, "20000", None):
        with pytest.raises(ValueError, match="samples"):
            mc_estimate_mse(cov, 0, (1,), samples=samples, seed=1)
    assert (mc_estimate_mse(cov, 0, (1,), samples=np.int64(20_000), seed=1)
            == mc_estimate_mse(cov, 0, (1,), samples=20_000, seed=1))


def _channel_covariance(variance: float, seed: int) -> CovarianceMatrix:
    """Covariance of the first sampled instance off the degenerate regime;
    zero rates (pure-noise rows) are drawn too."""
    source = GaussianSource(variance)
    rng = make_rng(seed)
    while True:
        rates, d2, d3 = sample_feasible_instance(rng, max_rate=2.0)
        record = certify_achievability(source, rates, d2 * variance,
                                       d3 * variance)
        if record.adjustment is None:
            return assemble_msr_covariance(source, record.channel)


@st.composite
def mc_problems(draw):
    """``(joint, target, observed)`` on a channel covariance at a variance
    in [1e-3, 1e3], or on a 2x2 covariance."""
    if draw(st.booleans()):
        a = draw(st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
        c = draw(st.floats(-0.99, 0.99))
        b = draw(st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
        joint = CovarianceMatrix(np.array([[a, c * math.sqrt(a * b)],
                                           [c * math.sqrt(a * b), b]]))
        target = draw(st.sampled_from((0, 1)))
        return joint, target, draw(st.sampled_from(((), (1 - target,))))
    variance = draw(st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
    joint = _channel_covariance(variance, draw(st.integers(0, 2**32 - 1)))
    target = draw(st.sampled_from((IDX_X, IDX_XPRIME)))
    observed = draw(st.sampled_from((
        (), (IDX_U1,), (IDX_U1, IDX_U2), (IDX_U1, IDX_U3),
        (IDX_U1, IDX_U2, IDX_U3, IDX_U4), (IDX_U4, IDX_U2, IDX_U3))))
    return joint, target, observed


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(problem=mc_problems(),
       samples=st.sampled_from((1000, MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1,
                                3 * MC_CHUNK + 17, 180_000)),
       seed=st.integers(0, 2**63 - 1))
def test_mc_estimate_streams_the_unchunked_draws_bit_for_bit(problem, samples,
                                                             seed):
    joint, target, observed = problem
    assert (mc_estimate_mse(joint, target, observed, samples, seed)
            == oracle.mc_estimate_mse_unchunked(joint, target, observed,
                                                samples, seed))


@pytest.mark.parametrize("variance", [1e-300, 1e-200, 1e200, 1e300])
def test_mc_estimate_keeps_its_error_bar_at_extreme_variances(variance):
    # Unscaled, the squared residuals underflow to a zero error bar at
    # 1e-200 and the covariance itself overflows at 1e300.
    joint = _channel_covariance(variance, 11)
    observed = (IDX_U1, IDX_U2, IDX_U3, IDX_U4)
    analytic = conditional_mmse(joint, IDX_X, observed).error_variance
    estimate, std_error = mc_estimate_mse(joint, IDX_X, observed, 20_000, 5)
    assert 0.0 < std_error < math.inf
    assert abs(estimate - analytic) <= 4.0 * std_error


def test_mc_estimate_peak_memory_stays_near_the_residual_array():
    # 10^6 squared residuals take 8 MB and the standard error is formed in
    # place; drawing all samples in one array takes ~130 MB.
    cov = _channel_covariance(1.0, 11)
    tracemalloc.start()
    try:
        mc_estimate_mse(cov, IDX_X, (IDX_U1, IDX_U2, IDX_U3, IDX_U4),
                        samples=1_000_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6
