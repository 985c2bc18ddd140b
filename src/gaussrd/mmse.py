"""Small linear-Gaussian engine: two conditioning routes, one per consumer.

* Certification reads the four achieved distortions of a forward test channel
  from one chain of scalar MMSE updates (:func:`_msr_distortions`); no matrix
  is built.
* The Monte Carlo cross-check works on an explicit covariance of at most six
  jointly Gaussian variables (:class:`CovarianceMatrix`, built for the
  channel by :func:`assemble_msr_covariance`): :func:`conditional_mmse` gives
  the analytic error variance through the Schur complement, and
  :func:`mc_estimate_mse` samples it.

The Monte Carlo path uses ``numpy.random.default_rng`` (the PCG64 generator),
so a fixed seed yields reproducible streams across platforms.  It streams the
draws through one reused block of :data:`MC_CHUNK` rows and keeps only the
squared residuals; its results are bit for bit those of drawing every sample
in one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DimensionMismatch, SingularObservation

if TYPE_CHECKING:  # pragma: no cover
    from .channel import TestChannel
    from .model import GaussianSource

#: Symmetry check tolerance, relative to the largest entry magnitude.
SYMMETRY_RTOL = 1e-12
#: Eigenvalue floor for positive semidefiniteness, relative to the trace.
PSD_RTOL = 1e-10
#: Invertibility threshold for observed sub-blocks, relative to their trace.
OBSERVATION_RTOL = 1e-12
#: ``_LD_ZERO + x`` is ``numpy.longdouble(x)`` for every positive double
#: ``x``, at a tenth of the scalar constructor's cost.
_LD_ZERO = np.longdouble(0.0)
#: Rows of the block the Monte Carlo draws stream through (8192 x 6 doubles
#: is 393 KB, inside a core's L2 cache).
MC_CHUNK = 8192

# Variable order used by :func:`assemble_msr_covariance`.
IDX_X = 0        # the source
IDX_XPRIME = 1   # first-layer quantization residual
IDX_U1 = 2       # common-layer description
IDX_U2 = 3       # refinement description, user 1
IDX_U3 = 4       # refinement description, user 2
IDX_U4 = 5       # central refinement description


@dataclass(frozen=True)
class CovarianceMatrix:
    """Validated covariance of up to six jointly Gaussian variables."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"covariance must be square, got shape {arr.shape}")
        n = arr.shape[0]
        if not 1 <= n <= 6:
            raise DimensionMismatch(f"dimension must be between 1 and 6, got {n}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("covariance entries must be finite")
        scale = float(np.max(np.abs(arr)))
        if scale > 0 and float(np.max(np.abs(arr - arr.T))) > SYMMETRY_RTOL * scale:
            raise ValueError("covariance matrix is not symmetric")
        arr = 0.5 * (arr + arr.T)
        trace = float(np.trace(arr))
        if trace < 0:
            raise ValueError("covariance trace is negative")
        # The eigenvalues are taken of a copy scaled by a power of two to a
        # trace in [0.5, 1), where the solver neither under- nor overflows.
        e = math.frexp(trace)[1]
        low = math.ldexp(float(np.linalg.eigvalsh(np.ldexp(arr, -e)).min()), e)
        if low < -PSD_RTOL * max(trace, 1e-300):
            raise ValueError(
                f"covariance is not positive semidefinite "
                f"(min eigenvalue {low:.3e}, trace {trace:.3e})"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(slots=True)
class MmseResult:
    """Linear MMSE estimator of one variable from a subset of the others."""

    coefficients: np.ndarray
    error_variance: float
    target_index: int
    observed_indices: tuple[int, ...] = field(default=())

    def __eq__(self, other):
        # The generated __eq__ compares field tuples, which raises on a
        # coefficient array of two or more entries; compare it elementwise.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (np.array_equal(self.coefficients, other.coefficients)
                and (self.error_variance, self.target_index, self.observed_indices)
                == (other.error_variance, other.target_index, other.observed_indices))


def _check_indices(joint: CovarianceMatrix, target_index: int,
                   observed_indices: Sequence[int]) -> tuple[int, ...]:
    n = joint.dim
    if not 0 <= target_index < n:
        raise DimensionMismatch(f"target index {target_index} out of range for dim {n}")
    obs = tuple(int(i) for i in observed_indices)
    if len(set(obs)) != len(obs):
        raise DimensionMismatch(f"observed indices contain duplicates: {obs}")
    for i in obs:
        if not 0 <= i < n:
            raise DimensionMismatch(f"observed index {i} out of range for dim {n}")
    if target_index in obs:
        raise DimensionMismatch("target index may not be observed")
    return obs


def conditional_mmse(joint: CovarianceMatrix, target_index: int,
                     observed_indices: Sequence[int]) -> MmseResult:
    """MMSE estimate of one coordinate given a subset of the others.

    Returns the linear coefficients on the observed coordinates and the
    conditional error variance ``S_tt - S_to S_oo^{-1} S_ot`` (the Schur
    complement).  An empty observation set returns the prior variance.

    Raises :class:`SingularObservation` when the observed sub-block is not
    invertible (smallest eigenvalue at most ``1e-12`` times its trace).
    """
    obs = _check_indices(joint, target_index, observed_indices)
    sigma = joint.entries
    prior = float(sigma[target_index, target_index])
    if not obs:
        return MmseResult(np.zeros(0), prior, target_index, obs)
    oo = sigma[np.ix_(obs, obs)]
    ot = sigma[np.ix_(obs, [target_index])][:, 0]
    eigs = np.linalg.eigvalsh(oo)
    if eigs.min() <= OBSERVATION_RTOL * max(float(np.trace(oo)), 1e-300):
        raise SingularObservation(
            f"observed block {obs} is singular (min eigenvalue {eigs.min():.3e})"
        )
    coeffs = np.linalg.solve(oo, ot)
    err = prior - float(ot @ coeffs)
    # Clamp the unavoidable last-ulp noise; the true value lies in [0, prior].
    err = min(max(err, 0.0), prior)
    return MmseResult(coeffs, err, target_index, obs)


def _msr_distortions(sx2: float, channel: "TestChannel"
                     ) -> tuple[float, float, float, float]:
    """``var(X|U1)``, ``var(X|U1, U2)``, ``var(X|U1, U3)`` and
    ``var(X|U1, U2, U3, U4)`` under a forward channel for ``var(X) = sx2``.

    One chain of updates ``v x / (v + x)``, the variance ``v`` left after
    observing through noise of variance ``x``, carried in ``numpy.longdouble``,
    whose exponent range holds every product of two doubles; unlike the Schur
    complement the update keeps its digits when the result is far below
    ``v``.  ``U1`` is independent of ``(X', U2, U3, U4)``, so the chain
    conditions the residual ``X'``; ``U3`` enters through its innovation
    ``U3 - c U2``, ``c = rho sqrt(s3/s2)``, which observes ``(1 - c) X'``
    through noise of variance ``s3 q`` independent of ``U2``, with the
    channel's own ``q = 1 - rho^2``.  With ``rho <= 0`` every step adds and
    multiplies positive terms, so nothing cancels however far the central
    distortion sits below ``var(X')``.  An infinite noise variance, a
    zero-rate description, leaves its update out: each is tested once, on
    the double, and only a finite one is converted.  No matrix is built.
    """
    inf = math.inf
    s1, s2, s3, s4 = (channel.sigma1_sq, channel.sigma2_sq, channel.sigma3_sq,
                      channel.sigma4_sq)
    d1 = _LD_ZERO + sx2
    if s1 < inf:
        x1 = _LD_ZERO + s1
        d1 = d1 * x1 / (d1 + x1)
    d2 = d1
    finite2 = s2 < inf
    if finite2:
        x2 = _LD_ZERO + s2
        d2 = d1 * x2 / (d1 + x2)
    d3, d4 = d1, d2
    if s3 < inf:
        x3 = _LD_ZERO + s3
        d3 = d1 * x3 / (d1 + x3)
        innovation = x3
        if finite2:
            gain = 1 - (_LD_ZERO + channel.rho) * np.sqrt(x3 / x2)
            innovation = x3 * (_LD_ZERO + channel.q) / (gain * gain)
        d4 = d2 * innovation / (d2 + innovation)
    if s4 < inf:
        x4 = _LD_ZERO + s4
        d4 = d4 * x4 / (d4 + x4)
    return float(d1), float(d2), float(d3), float(d4)


def mc_estimate_mse(joint: CovarianceMatrix, target_index: int,
                    observed_indices: Sequence[int], samples: int,
                    seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the conditional MSE, with its standard error.

    Draws ``samples`` vectors from N(0, joint) through an eigendecomposition
    factorization (eigenvalues clamped at zero), applies the analytic MMSE
    coefficients, and returns the empirical mean squared error together with
    the standard error of that mean.

    The draws stream through one reused ``(MC_CHUNK, dim)`` block of the
    ``default_rng(seed)`` stream; only the squared residuals outlive a block.
    Peak memory is then one array of ``samples`` doubles plus about 1.2 MB of
    per-block arrays, about 9 MB at 10^6 samples.  Each block goes through
    the same operations, in the same order, as the whole array would; the
    mean and standard deviation run over all residuals at once, the latter in
    place but with numpy's own operation sequence, so the result is bit for
    bit that of drawing every sample in one array.  ``samples`` must be an
    int of at least 1000 (:class:`ValueError` otherwise).  An estimate or
    error bar that leaves the double range is returned as it comes out, inf
    or NaN; the caller decides what a non-finite one means.
    """
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
        raise ValueError(f"samples must be an int, got {samples!r}")
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples for a stable error bar, got {samples}")
    est = conditional_mmse(joint, target_index, observed_indices)
    w, v = np.linalg.eigh(joint.entries)
    w = np.clip(w, 0.0, None)
    factor = v * np.sqrt(w)
    # The draws come out in units of 2^e, near the target's standard
    # deviation, so their squares stay in the double range at any variance;
    # the mean and its error bar are scaled back by 4^e.
    e = math.frexp(joint.entries[target_index, target_index])[1] // 2
    # ``factor.T`` as a C-contiguous copy: OpenBLAS takes a slower operand
    # path through the transposed view, for the same bits.
    factor_t = np.ldexp(factor, -e).T.copy()
    observed = list(est.observed_indices)
    rng = np.random.default_rng(seed)
    block = np.empty((MC_CHUNK, joint.dim))
    sq = np.empty(samples)
    for start in range(0, samples, MC_CHUNK):
        z = block[:samples - start]
        rng.standard_normal(out=z)
        draws = z @ factor_t
        predicted = draws[:, observed] @ est.coefficients if observed else 0.0
        residual = sq[start:start + len(z)]
        np.subtract(draws[:, target_index], predicted, out=residual)
        np.square(residual, out=residual)
    # An estimate past the double range is returned as inf, without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = sq.mean()
        # ``sq.std(ddof=1)``'s own steps, run in place of its full-size temporary.
        sq -= mean
        sq *= sq
        std_error = math.sqrt(sq.sum() / (samples - 1)) / math.sqrt(samples)
        return float(np.ldexp(mean, 2 * e)), float(np.ldexp(std_error, 2 * e))


def assemble_msr_covariance(source: "GaussianSource",
                            channel: "TestChannel") -> CovarianceMatrix:
    """Joint covariance of (X, X', U1, U2, U3, U4) under a forward channel.

    ``X' = X - E[X|U1]`` is the first-layer residual, ``U1 = X + N1`` and
    ``Ui = X' + Ni`` for i in {2, 3, 4}, with ``cov(N2, N3) = rho s2 s3`` and
    all other noise pairs independent.  An infinite noise variance encodes a
    zero-rate description; its row is replaced by an independent unit-variance
    pure-noise variable so the matrix stays 6x6 and every conditional MMSE is
    unaffected.  The noise parameters are not re-checked here:
    :class:`TestChannel` validates them on construction.

    The entries are formed in units of ``2^k``, ``k = frexp(var)[1]``, so no
    product in them under- or overflows, and scaled back once.
    """
    k = math.frexp(source.variance)[1]
    sx2 = math.ldexp(source.variance, -k)
    try:
        s1, s2, s3, s4 = (math.ldexp(s, -k) for s in (
            channel.sigma1_sq, channel.sigma2_sq, channel.sigma3_sq, channel.sigma4_sq))
    except OverflowError as exc:
        raise ValueError("covariance entries must be finite: a noise variance "
                         "exceeds the source variance by over 2^1023") from exc
    # var(X') = var(X|U1); an infinite s1, a zero-rate U1, leaves var(X).
    d1 = sx2 if math.isinf(s1) else sx2 * s1 / (sx2 + s1)

    refinements = ((IDX_U2, s2), (IDX_U3, s3), (IDX_U4, s4))
    # X' and every finite-noise description share var(X'), and only N2 and N3
    # correlate.
    shared = [IDX_XPRIME] + [row for row, s in refinements if not math.isinf(s)]
    m = np.zeros((6, 6))
    m[np.ix_(shared, shared)] = d1
    for row, s in refinements:
        m[row, row] = d1 + s
    if not (math.isinf(s2) or math.isinf(s3)):
        m[IDX_U2, IDX_U3] = m[IDX_U3, IDX_U2] = d1 + channel.rho * math.sqrt(s2 * s3)
    # X = X' + E[X|U1] shares the residual's covariance with every refinement
    # description; cov(X', U1) = 0 by orthogonality of the residual.
    m[IDX_X, IDX_XPRIME:] = m[IDX_XPRIME:, IDX_X] = m[IDX_XPRIME, IDX_XPRIME:]
    m[IDX_X, IDX_X] = sx2
    m[IDX_U1, IDX_U1] = sx2 + s1
    if not math.isinf(s1):
        m[IDX_X, IDX_U1] = m[IDX_U1, IDX_X] = sx2
    m = np.ldexp(m, k)
    # A zero-rate row is unit-variance pure noise.
    for row, s in ((IDX_U1, s1), *refinements):
        if math.isinf(s):
            m[row, row] = 1.0
    return CovarianceMatrix(m)
