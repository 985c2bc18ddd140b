"""Seeded end-to-end verification of the package's internal consistency.

Four dual-route checks, each pitting an independent computation against the
closed forms: the grid scan of the two region characterizations, forward
construction against the converse bound, the closed-form witness against a
golden-section maximization, and Monte Carlo sampling against analytic MMSE.
All randomness flows from one ``numpy.random.SeedSequence``, so a seed pins
the full run.  The Monte Carlo trials run on up to one thread per usable
CPU, the calling thread included; each trial's seed is drawn before any
trial starts and the z-scores are folded in trial order, so the report is
the same for any number of threads.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .channel import certify_achievability
from .errors import InvalidRegimeInput
from .mmse import (IDX_U1, IDX_U2, IDX_U3, IDX_U4, IDX_X,
                   assemble_msr_covariance, conditional_mmse, mc_estimate_mse)
from .model import (DEFAULT_GRID_DENSITY, DEFAULT_SEED, UNCONSTRAINED,
                    GaussianSource, RateTuple, Regime)
from .regions import (converse_witness, default_grid, dr_bound,
                      equivalence_scan, maximize_t_numeric)


def sample_feasible_instance(rng: np.random.Generator, *,
                             max_rate: float = 3.0,
                             zero_rate_prob: float = 0.15
                             ) -> tuple[RateTuple, float, float]:
    """Random rates plus side targets between their floors and d1_star.

    Unit-variance convention: scale the targets by the source variance before
    use.  Some rate components are zeroed outright so the infinite-variance
    conventions get exercised.

    Each call reads exactly eight doubles ``u`` from one ``rng.random(8)``:
    the rates are ``max_rate u[0:4]``, ``u[4]`` and ``u[5]`` decide whether
    ``r1`` and ``r4`` are zeroed, and ``u[6]``, ``u[7]`` place ``d2`` and
    ``d3``.  That is the stream, values and generator state of the calls
    ``uniform(0, max_rate, 4)``, ``random()``, ``random()`` and
    ``uniform(0, 1, 2)``, since numpy's ``uniform(lo, hi)`` is ``lo + (hi -
    lo) u``.  Rates and targets are plain ``float``.
    """
    u = rng.random(8).tolist()
    r1, r2, r3, r4 = (max_rate * u[0], max_rate * u[1], max_rate * u[2],
                      max_rate * u[3])
    if u[4] < zero_rate_prob:
        r1 = 0.0
    if u[5] < zero_rate_prob:
        r4 = 0.0
    d1s = math.exp(-2.0 * r1)
    # u = 0 puts the target at d1_star, u = 1 at its floor.
    d2 = d1s * math.exp(-2.0 * r2 * u[6])
    d3 = d1s * math.exp(-2.0 * r3 * u[7])
    return RateTuple(r1, r2, r3, r4), d2, d3


#: Sampled witnesses lie below this ``eps``, inside the maximizer's bracket.
MAX_WITNESS_EPS = 1e8


def sample_witness_instance(rng: np.random.Generator
                            ) -> tuple[RateTuple, float, float]:
    """Like :func:`sample_feasible_instance`, restricted to instances whose
    witness is finite and below :data:`MAX_WITNESS_EPS`."""
    while True:
        rates, d2, d3 = sample_feasible_instance(rng, zero_rate_prob=0.0)
        witness = converse_witness(GaussianSource(1.0), rates, UNCONSTRAINED,
                                   d2, d3)
        if 0.0 < witness.epsilon_star < MAX_WITNESS_EPS:
            return rates, d2, d3


def _check(name: str, tolerance: float, worst: float, count: int,
           **extra) -> dict:
    entry = {
        "name": name,
        "tolerance": tolerance,
        "worst_residual": worst,
        "count": count,
        "passed": bool(worst <= tolerance),
    }
    entry.update(extra)
    return entry


def run_verification(variance: float = 1.0, seed: int = DEFAULT_SEED,
                     grid_density: int = DEFAULT_GRID_DENSITY) -> dict:
    """Run all four checks; returns a report dict with an ``all_passed`` flag."""
    source = GaussianSource(variance)
    seq = np.random.SeedSequence(seed)
    seed_cert, seed_eps, seed_mc = seq.spawn(3)
    checks = []

    # 1. The two region characterizations agree on a grid.
    grid = default_grid(source, grid_density)
    report = equivalence_scan(source, grid)
    worst = max((abs(m["dr_margin"]) for m in report.mismatches), default=0.0)
    checks.append(_check(
        "equivalence-scan", 0.0, float(len(report.mismatches)),
        report.evaluated,
        skipped_infeasible=report.skipped_infeasible,
        boundary=report.boundary,
        regimes=dict(sorted(report.regime_counts.items())),
        worst_margin=worst,
    ))

    # 2. The forward construction meets the converse bound.
    rng = np.random.default_rng(seed_cert)
    n_cert = 25 * grid_density
    worst = 0.0
    for _ in range(n_cert):
        rates, d2, d3 = sample_feasible_instance(rng)
        d2, d3 = d2 * variance, d3 * variance
        record = certify_achievability(source, rates, d2, d3)
        residual = abs(record.achieved.d4 - record.bound.d4_bound) / record.bound.d4_bound
        worst = max(worst, residual)
        if not record.matches_bound:
            worst = max(worst, 1.0)
    checks.append(_check("achievability", 1e-9, worst, n_cert))

    # 3. Closed-form witness equals the numeric maximizer.
    rng = np.random.default_rng(seed_eps)
    n_eps = 25 * grid_density
    worst = 0.0
    for _ in range(n_eps):
        rates, d2, d3 = sample_witness_instance(rng)
        d2, d3 = d2 * variance, d3 * variance
        witness = converse_witness(source, rates, UNCONSTRAINED, d2, d3)
        _, t_num = maximize_t_numeric(source, rates, UNCONSTRAINED, d2, d3)
        worst = max(worst, abs(witness.t_bound - t_num) / witness.t_bound)
    checks.append(_check("witness-maximizer", 1e-6, worst, n_eps))

    # 4. Monte Carlo sampling confirms the analytic conditional MMSE.  Every
    # channel and trial seed is drawn first, in a fixed order, so the pool
    # below cannot change which trial gets which stream.
    rng = np.random.default_rng(seed_mc)
    n_channels = max(1, grid_density // 3)
    samples = 30_000 * grid_density
    observed_cycles = ((IDX_U1,), (IDX_U1, IDX_U2), (IDX_U1, IDX_U3),
                       (IDX_U1, IDX_U2, IDX_U3, IDX_U4))
    trials = []
    for _ in range(n_channels):
        rates, d2, d3 = _nondegenerate_instance(rng, source)
        channel = certify_achievability(source, rates, d2, d3).channel
        cov = assemble_msr_covariance(source, channel)
        for observed in observed_cycles:
            analytic = conditional_mmse(cov, IDX_X, observed).error_variance
            mc_seed = int(rng.integers(0, 2**63 - 1))
            trials.append((analytic, cov, observed, mc_seed))
    # The draws and the matmul release the GIL, so threads overlap the
    # trials.  The calling thread takes trials too, which spares one thread
    # and its malloc arena.  Imported here: only this check needs a pool.
    from concurrent.futures import ThreadPoolExecutor
    results = [None] * len(trials)
    pending = iter(range(len(trials)))

    def run_trials() -> None:
        # ``next`` on the shared range iterator is atomic under the GIL.
        for k in pending:
            _, cov, observed, mc_seed = trials[k]
            results[k] = mc_estimate_mse(cov, IDX_X, observed, samples,
                                         mc_seed)

    workers = _worker_count(len(trials))
    with ThreadPoolExecutor(workers) as pool:
        helpers = [pool.submit(run_trials) for _ in range(workers - 1)]
        run_trials()
        for helper in helpers:
            helper.result()
    worst = 0.0
    for (analytic, *_), (estimate, std_error) in zip(trials, results):
        if not (math.isfinite(estimate) and math.isfinite(std_error)):
            # An infinite error bar would pass any estimate.
            raise InvalidRegimeInput(
                f"Monte Carlo estimate {estimate} with standard error {std_error} "
                f"is not finite at variance {variance}; the squared residuals "
                f"leave the double range")
        if std_error > 0:
            z = abs(estimate - analytic) / std_error
        else:
            # A zero error bar passes only an exact estimate.
            z = 0.0 if estimate == analytic else math.inf
        worst = max(worst, z)
    checks.append(_check("monte-carlo", 4.0, worst, len(trials),
                         samples_per_trial=samples))

    return {
        "seed": seed,
        "grid_density": grid_density,
        "variance": variance,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }


def _worker_count(trials: int) -> int:
    """The number of CPUs this process may run on, capped at ``trials``."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, trials)


def _nondegenerate_instance(rng: np.random.Generator,
                            source: GaussianSource) -> tuple[RateTuple, float, float]:
    while True:
        rates, d2, d3 = sample_feasible_instance(rng, max_rate=2.0,
                                                 zero_rate_prob=0.0)
        d2, d3 = d2 * source.variance, d3 * source.variance
        bound = dr_bound(source, rates, UNCONSTRAINED, d2, d3)
        if bound.regime is Regime.NON_DEGENERATE and bound.pi > bound.delta:
            return rates, d2, d3
