"""Release acceptance gate.

Ten numbered criteria, each with pinned tolerances and (where stated) wall
clock budgets.  Every test prints a ``[criterion NN] PASS/FAIL`` line with the
measured values before asserting, so the final report carries the evidence.

Criterion 05 pins the fixed-channel penalty ratio of ``fixed_channel_loss``,
``exp(2 alpha r1) + exp(-2 r3) - exp(2 (alpha r1 - r3))``, which equals
``(1 - exp(-2 r3)) exp(2 alpha r1) + exp(-2 r3)``.  Its growth clause asks for
the ratio to exceed the exponential floor ``(1 - exp(-2 r3)) exp(2 alpha r1)``
at every listed rate; the exact margin is ``exp(-2 r3)``.  A threshold of
``exp(2 r1) - 1`` would be wrong here: it is the ``r3 -> infinity`` limit of
the ratio, and at ``r3 = 1`` it lies above the ratio for every ``r1`` beyond
about 1.07.
"""

from __future__ import annotations

import math
import time

import numpy as np

from gaussrd import (
    AsymptoticConfig,
    FixedChannelConfig,
    GaussianSource,
    MdcrSplit,
    RateTuple,
    UNCONSTRAINED,
    asymptote_convergence,
    assemble_msr_covariance,
    certify_achievability,
    conditional_mmse,
    converse_witness,
    default_grid,
    dr_bound,
    equivalence_scan,
    eval_region_bounds,
    fixed_channel_loss,
    maximize_t_numeric,
    mc_estimate_mse,
    mdcr_compare,
    random_pmf,
    rd_bound,
    timeshare,
    wz_md_sweep,
    wz_region,
)
from gaussrd.mmse import IDX_U1, IDX_U2, IDX_U3, IDX_U4, IDX_X, IDX_XPRIME
from gaussrd.model import DistortionTuple, Regime
from gaussrd.selfcheck import sample_feasible_instance, sample_witness_instance

from conftest import GOLDEN_D4_BOUND, GOLDEN_EPS_STAR, GOLDEN_T_BOUND, make_rng

from test_discrete import _oracle_bounds


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


# ---------------------------------------------------------------------------

def test_criterion_01_certified_distortion_meets_bound_on_random_instances():
    """1000+ random feasible instances: certified d4 within 1e-9 of the bound."""
    rng = make_rng(42)
    source = GaussianSource(variance=1.0)
    n = 1000
    worst = 0.0
    start = time.perf_counter()
    for _ in range(n):
        rates, d2, d3 = sample_feasible_instance(rng, max_rate=3.0)
        record = certify_achievability(source, rates, d2, d3)
        rel = abs(record.achieved.d4 - record.bound.d4_bound) / record.bound.d4_bound
        worst = max(worst, rel)
        assert record.matches_bound, (
            f"certification failed at rates={rates.as_tuple()}, "
            f"d2={d2}, d3={d3}: residual {rel:.3e}"
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(1, ok, f"n={n}, worst residual {worst:.3e} (tol 1e-9), "
                   f"{elapsed:.2f}s (budget 10s)")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_02_region_characterizations_agree_on_a_dense_grid():
    """>= 10^4 grid points, all three sum-rate regimes, zero mismatches."""
    source = GaussianSource(variance=1.0)
    grid = default_grid(source, 8)
    assert grid.total_points() >= 10_000
    start = time.perf_counter()
    report = equivalence_scan(source, grid)
    elapsed = time.perf_counter() - start
    regimes = {Regime.RD_LOW.value, Regime.RD_SLACK.value, Regime.RD_EXCESS.value}
    covered = {k for k, v in report.regime_counts.items() if v > 0}
    ok = (report.mismatch_count == 0 and regimes <= covered and elapsed < 10.0)
    _report(2, ok, f"points={grid.total_points()}, evaluated={report.evaluated}, "
                   f"mismatches={report.mismatch_count}, "
                   f"regimes={report.regime_counts}, {elapsed:.2f}s (budget 10s)")
    assert report.mismatch_count == 0, report.mismatches[:3]
    assert regimes <= covered
    assert elapsed < 10.0


def test_criterion_03_closed_form_witness_matches_numeric_maximizer():
    """1000 in-regime instances: closed-form t versus golden-section search."""
    rng = make_rng(4242)
    source = GaussianSource(variance=1.0)
    n = 1000
    worst = 0.0
    for _ in range(n):
        rates, d2, d3 = sample_witness_instance(rng)
        wit = converse_witness(source, rates, UNCONSTRAINED, d2, d3)
        _, t_num = maximize_t_numeric(source, rates, UNCONSTRAINED, d2, d3)
        worst = max(worst, abs(wit.t_bound - t_num))
    ok = worst <= 1e-6
    _report(3, ok, f"n={n}, worst |t_closed - t_numeric| = {worst:.3e} (tol 1e-6)")
    assert worst <= 1e-6


def test_criterion_04_binning_alternative_meets_plain_coding_at_the_ends():
    """Sweep rates (1, 0.5, 1, 0.5): equality at both ends, a real gap inside."""
    source = GaussianSource(variance=1.0)
    rates = RateTuple(1.0, 0.5, 1.0, 0.5)
    lo, hi, d2s = math.exp(-4.0), math.exp(-2.0), math.exp(-3.0)
    end_resid = 0.0
    for d3 in (lo, hi):
        wz = wz_region(source, rates, d3)
        md = dr_bound(source, rates, UNCONSTRAINED, d2s, d3).d4_bound
        end_resid = max(end_resid, abs(wz - md) / md)
    rows = wz_md_sweep(source, rates, points=201)
    mid_gap = rows[100].gap  # midpoint of the odd-length sweep
    ok = end_resid <= 1e-9 and mid_gap > 1e-6
    _report(4, ok, f"endpoint residual {end_resid:.3e} (tol 1e-9), "
                   f"midpoint gap {mid_gap:.3e} (> 1e-6)")
    assert end_resid <= 1e-9
    assert mid_gap > 1e-6


def test_criterion_05_fixed_channel_penalty_growth():
    """Penalty strictly increasing in r1, anchored at r1 = 1, equal to its
    closed form and above the floor (1 - e^(-2 r3)) e^(2 alpha r1) at
    r1 in {1, 2, 4, 8}: unbounded growth at the full rate e^(2 alpha r1)."""
    source = GaussianSource(variance=1.0)
    alpha, r3 = 1.0, 1.0
    config = FixedChannelConfig(alpha=alpha)
    r1_values = (1.0, 2.0, 4.0, 8.0)
    ratios = {r1: fixed_channel_loss(source, r1, r3, config).ratio
              for r1 in r1_values}
    increasing = all(ratios[a] < ratios[b]
                     for a, b in zip(r1_values, r1_values[1:]))
    anchor = math.exp(2.0) + math.exp(-2.0) - 1.0
    anchor_err = abs(ratios[1.0] - anchor)
    closed_err = max(
        abs(ratios[r1] - (math.exp(2.0 * alpha * r1) + math.exp(-2.0 * r3)
                          - math.exp(2.0 * (alpha * r1 - r3)))) / ratios[r1]
        for r1 in r1_values)
    floors = {r1: (1.0 - math.exp(-2.0 * r3)) * math.exp(2.0 * alpha * r1)
              for r1 in r1_values}
    exceeds = {r1: ratios[r1] > floors[r1] for r1 in r1_values}
    ok = (increasing and anchor_err <= 1e-12 and closed_err <= 1e-12
          and all(exceeds.values()))
    shortfalls = {r1: f"{ratios[r1]:.6e} <= {floors[r1]:.6e}"
                  for r1, flag in exceeds.items() if not flag}
    _report(5, ok, f"increasing={increasing}, anchor error {anchor_err:.3e} "
                   f"(tol 1e-12), closed-form relative error {closed_err:.3e} "
                   f"(tol 1e-12), exceeds (1-e^-2r3) e^(2 alpha r1): {exceeds}")
    assert increasing
    assert anchor_err <= 1e-12
    assert closed_err <= 1e-12
    assert all(exceeds.values()), (
        f"penalty ratio does not exceed (1 - e^-2r3) exp(2 alpha r1) at "
        f"{shortfalls}; the closed form exceeds it by exactly e^-2r3"
    )


def test_criterion_06_conditional_refinement_is_strictly_suboptimal():
    """Equal-total-rate comparison: ratio 1 at r4 = 0, above 1 + 1e-9 after."""
    source = GaussianSource(variance=1.0)
    split = MdcrSplit(beta=0.5)
    at_zero = mdcr_compare(source, 0.5, 0.5, 0.0, split, 0.45, 0.45).ratio
    ratios = {r4: mdcr_compare(source, 0.5, 0.5, r4, split, 0.45, 0.45).ratio
              for r4 in (0.1, 0.2, 0.4)}
    ok = at_zero == 1.0 and all(r > 1.0 + 1e-9 for r in ratios.values())
    _report(6, ok, f"ratio(r4=0)={at_zero}, ratios={ratios} (each > 1+1e-9)")
    assert at_zero == 1.0
    for r4, ratio in ratios.items():
        assert ratio > 1.0 + 1e-9, f"r4={r4}: ratio {ratio}"


def test_criterion_07_high_rate_asymptotes_converge():
    """Exact/asymptote within 5% at r' = 8; refinement loss factor 2 +/- 2%."""
    cases = ((0.0, 1.0), (0.3, 1.0), (0.3, 2.0))
    ratios = {}
    for eta, b in cases:
        config = AsymptoticConfig(b=b, eta=eta)
        rows = asymptote_convergence(config, [1.0, 2.0, 4.0, 8.0])
        ratios[(eta, b)] = rows[-1].ratio
    band_ok = all(0.95 <= r <= 1.05 for r in ratios.values())
    # Loss factor of the plain system against conditional refinement at
    # eta1 = eta, b = 1: evaluated with both systems at identical total rate.
    eta, b, rp = 0.3, 1.0, 8.0
    side = b * math.exp(-2.0 * (1.0 - eta) * rp)
    factor = mdcr_compare(GaussianSource(variance=1.0),
                          (1.0 - eta) * rp, (1.0 - eta) * rp, 2.0 * eta * rp,
                          MdcrSplit(beta=0.5), side, side).ratio
    factor_ok = abs(factor - 2.0) <= 0.04
    ok = band_ok and factor_ok
    _report(7, ok, f"exact/asymptote at r'=8: {ratios} (band [0.95, 1.05]), "
                   f"loss factor {factor:.6f} (2 within 2%)")
    assert band_ok, ratios
    assert factor_ok, factor


def test_criterion_08_monte_carlo_confirms_analytic_distortions():
    """20 seeded channels, 10^6 samples each: estimates within 4 sigma."""
    rng = make_rng(777)
    source = GaussianSource(variance=1.0)
    observation_cycle = (
        (IDX_X, (IDX_U1,)),
        (IDX_XPRIME, (IDX_U2,)),
        (IDX_XPRIME, (IDX_U2, IDX_U3)),
        (IDX_XPRIME, (IDX_U2, IDX_U3, IDX_U4)),
    )
    start = time.perf_counter()
    worst_z = 0.0
    built = 0
    while built < 20:
        rates, d2, d3 = sample_feasible_instance(rng, max_rate=2.0,
                                                 zero_rate_prob=0.0)
        if dr_bound(source, rates, UNCONSTRAINED, d2, d3).regime \
                is not Regime.NON_DEGENERATE:
            continue
        channel = certify_achievability(source, rates, d2, d3).channel
        cov = assemble_msr_covariance(source, channel)
        target, observed = observation_cycle[built % len(observation_cycle)]
        analytic = conditional_mmse(cov, target, observed).error_variance
        estimate, stderr = mc_estimate_mse(cov, target, observed,
                                           samples=1_000_000,
                                           seed=9000 + built)
        z = abs(estimate - analytic) / stderr
        worst_z = max(worst_z, z)
        assert z <= 4.0, (
            f"channel {built}: estimate {estimate} vs analytic {analytic} "
            f"is {z:.2f} standard errors off"
        )
        built += 1
    elapsed = time.perf_counter() - start
    ok = worst_z <= 4.0 and elapsed < 30.0
    _report(8, ok, f"channels=20, samples=1e6, worst |z| = {worst_z:.2f} "
                   f"(limit 4), {elapsed:.2f}s (budget 30s)")
    assert elapsed < 30.0


def test_criterion_09_discrete_bounds_and_time_sharing():
    """100 random pmfs against the entropy oracle; chords exactly affine."""
    rng = make_rng(31337)
    worst = 0.0
    for _ in range(100):
        sizes = tuple(int(n) for n in rng.integers(1, 4, size=5))
        pmf = random_pmf(rng, sizes, concentration=0.9)
        got = eval_region_bounds(pmf)
        want = _oracle_bounds(pmf)
        for g, w in zip((got.b1, got.b12, got.b13, got.b123, got.b1234), want):
            worst = max(worst, abs(g - w))
    assert worst <= 1e-12

    worst_affine = 0.0
    for pair in range(10):
        x_marginal = rng.dirichlet(np.ones(2))
        x_marginal = x_marginal / x_marginal.sum()
        pmf_a = random_pmf(rng, (2, 2, 2, 2, 2), x_marginal=x_marginal)
        pmf_b = random_pmf(rng, (2, 2, 2, 2, 2), x_marginal=x_marginal)
        at_a = eval_region_bounds(pmf_a)
        at_b = eval_region_bounds(pmf_b)
        ends_a = (at_a.b1, at_a.b12, at_a.b13, at_a.b123, at_a.b1234)
        ends_b = (at_b.b1, at_b.b12, at_b.b13, at_b.b123, at_b.b1234)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            mixed = eval_region_bounds(timeshare(pmf_a, pmf_b, lam))
            for g, ea, eb in zip(
                    (mixed.b1, mixed.b12, mixed.b13, mixed.b123, mixed.b1234),
                    ends_a, ends_b):
                worst_affine = max(worst_affine,
                                   abs(g - (lam * ea + (1.0 - lam) * eb)))
    ok = worst <= 1e-12 and worst_affine <= 1e-12
    _report(9, ok, f"oracle residual {worst:.3e}, time-sharing affineness "
                   f"residual {worst_affine:.3e} (tol 1e-12 each)")
    assert worst_affine <= 1e-12


def test_criterion_10_two_description_reduction():
    """r1 = r4 = 0 reproduces the classic symmetric two-description point."""
    source = GaussianSource(variance=1.0)
    rates = RateTuple(0.0, 0.5, 0.5, 0.0)
    res = dr_bound(source, rates, UNCONSTRAINED, 0.45, 0.45)
    golden_err = abs(res.d4_bound - GOLDEN_D4_BOUND)
    prose_err = abs(res.d4_bound - 0.14785)
    assert res.d1_star == 1.0

    record = certify_achievability(source, rates, 0.45, 0.45)
    assert record.matches_bound
    assert math.isinf(record.channel.sigma1_sq)
    assert math.isinf(record.channel.sigma4_sq)
    assert record.achieved.d1 == 1.0
    assert abs(record.achieved.d4 - record.channel.d4_star) == 0.0

    wit = converse_witness(source, rates, UNCONSTRAINED, 0.45, 0.45)
    witness_resid = abs(res.d4_bound - math.exp(-2.0) * wit.t_bound)
    assert wit.epsilon_star == GOLDEN_EPS_STAR
    assert wit.t_bound == GOLDEN_T_BOUND

    rd = rd_bound(source, 0.0, 0.0,
                  DistortionTuple(UNCONSTRAINED, 0.45, 0.45, res.d4_bound))
    sum_err = abs(rd.sum_bound - 1.0)

    ok = (golden_err == 0.0 and prose_err <= 1e-4
          and witness_resid <= 1e-16 and sum_err <= 1e-12)
    _report(10, ok, f"d4_bound={res.d4_bound!r} (golden residual {golden_err:.1e}, "
                    f"vs 0.14785 {prose_err:.1e}), witness residual "
                    f"{witness_resid:.1e}, sum-rate inversion error {sum_err:.1e}")
    assert golden_err == 0.0
    assert prose_err <= 1e-4
    assert witness_resid <= 1e-16
    assert sum_err <= 1e-12
