"""Shared fixtures and frozen reference values for the test suite.

The ``GOLDEN_*`` constants below were produced by high-precision oracle
runs (mpmath, 50 significant digits) of the closed-form expressions and
then frozen at double precision.  Tests compare library output against
these values exactly (or at explicitly stated tolerances) so that any
behavioural drift in the numeric kernels is caught immediately.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from gaussrd import GaussianSource, RateTuple

# ---------------------------------------------------------------------------
# Reference operating point: unit-variance source, rates (0, 0.5, 0.5, 0),
# side-decoder targets d2 = d3 = 0.45, central target left free.  This is the
# symmetric two-description configuration used throughout the documentation.
# ---------------------------------------------------------------------------

GOLDEN_VAR = 1.0
GOLDEN_RATES = (0.0, 0.5, 0.5, 0.0)
GOLDEN_D2 = 0.45
GOLDEN_D3 = 0.45

GOLDEN_PI = 0.30250000000000005
GOLDEN_DELTA = 0.06716471676338731
GOLDEN_D4_BOUND = 0.14784068233621636
GOLDEN_T_BOUND = 1.0924030954864883
GOLDEN_EPS_STAR = 0.8910843058415546
GOLDEN_RHO = -0.5759145888466076
GOLDEN_R2_BOUND = 0.3992538481088858


@pytest.fixture
def unit_source() -> GaussianSource:
    return GaussianSource(variance=1.0)


@pytest.fixture
def golden_rates() -> RateTuple:
    return RateTuple(*GOLDEN_RATES)


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator; every randomized test derives from a literal seed."""
    return np.random.default_rng(seed)


def assert_close(actual: float, expected: float, *, rtol: float = 0.0,
                 atol: float = 0.0) -> None:
    """Absolute/relative closeness with an informative failure message."""
    err = abs(actual - expected)
    allowed = atol + rtol * abs(expected)
    assert err <= allowed, (
        f"|{actual!r} - {expected!r}| = {err:.3e} > {allowed:.3e}"
    )


def random_psd_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Well-conditioned random symmetric positive-definite matrix."""
    basis = rng.standard_normal((dim, dim))
    mat = basis @ basis.T + dim * np.eye(dim)
    return 0.5 * (mat + mat.T)


def total_rate(rates: RateTuple) -> float:
    return rates.r1 + rates.r2 + rates.r3 + rates.r4


def d1_star(variance: float, r1: float) -> float:
    return variance * math.exp(-2.0 * r1)
