"""Independent reference forms of the region boundaries.

The ``mp_*`` functions evaluate the textbook closed forms in 50-digit
``mpmath`` arithmetic at the exact values of their double inputs, so their
results are correct far beyond double precision and serve as the oracle for
the library's rearranged double-precision forms.  They apply the library's
documented conventions: side targets are clamped to ``d1* = var e^{-2 r1}``
and ``delta`` is snapped to 0 within ``FEASIBILITY_RTOL * max(ab, s)``.

:func:`invert_dr_sum_rate` is a plain double-precision bisection that
inverts the distortion-rate bound for the sum rate, independently of the
closed-form sum bound of :func:`gaussrd.regions.rd_bound`.

:func:`mc_estimate_mse_unchunked` is the Monte Carlo estimator in its
original whole-array form; the library streams the same draws through a
fixed block and must return exactly its result.

:func:`ld_channel_distortions` is the certification chain in its original
form, each double converted by ``numpy.longdouble(x)``; the library feeds
the same chain without the scalar constructor and must return exactly its
result.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from gaussrd.analysis import SPECIALIZATION_RTOL
from gaussrd.errors import InfeasibleDistortion
from gaussrd.mmse import conditional_mmse
from gaussrd.model import FEASIBILITY_RTOL

DPS = 50


def _ratios(var, r1, d2, d3):
    """``(d1*, a, b)`` with the side targets clamped to ``d1*``."""
    d1s = mpmath.mpf(var) * mpmath.exp(-2 * mpmath.mpf(r1))
    return (d1s, min(mpmath.mpf(d2), d1s) / d1s,
            min(mpmath.mpf(d3), d1s) / d1s)


def _pi_delta(a, b, r2, r3):
    """Textbook ``pi = (1-a)(1-b)`` and ``delta = ab - e^{-2(r2+r3)}``,
    with the library's snap band on ``delta``."""
    s = mpmath.exp(-2 * (mpmath.mpf(r2) + mpmath.mpf(r3)))
    pi = (1 - a) * (1 - b)
    delta = a * b - s
    if abs(delta) <= mpmath.mpf(FEASIBILITY_RTOL) * max(a * b, s):
        delta = mpmath.mpf(0)
    return max(pi, 0), max(delta, 0)


def _penalty(var, rates, d2, d3):
    """``1 / (1 - max(sqrt(pi) - sqrt(delta), 0)^2)``."""
    r1, r2, r3, _ = rates
    _, a, b = _ratios(var, r1, d2, d3)
    pi, delta = _pi_delta(a, b, r2, r3)
    gap = max(mpmath.sqrt(pi) - mpmath.sqrt(delta), 0)
    return 1 / (1 - gap * gap)


def mp_dr_bound(var, rates, d2, d3, dps=DPS):
    """``var e^{-2 (r1+r2+r3+r4)} / (1 - max(sqrt(pi) - sqrt(delta), 0)^2)``.

    ``1 - gap^2`` cancels about ``log10(1/(1 - pi))`` digits, so side ratios
    below ``1e-30`` or so need more than the default ``dps``.
    """
    with mpmath.workdps(dps):
        total = sum(mpmath.mpf(r) for r in rates)
        return +(mpmath.mpf(var) * mpmath.exp(-2 * total)
                 * _penalty(var, rates, d2, d3))


def mp_witness_t(var, rates, d2, d3):
    """The witness bound ``t(eps*)``, the d4 penalty factor itself."""
    with mpmath.workdps(DPS):
        return +_penalty(var, rates, d2, d3)


def mp_fixed_channel_loss(var, r1, r3, alpha):
    """``(ratio, d2_floor)`` of the frozen first-layer channel: ``ratio =
    e^{2 alpha r1} (1 - e^{-2 r3}) + e^{-2 r3}`` and ``d2_floor = var
    e^{-2 r1} (1 - e^{-2 r3} + e^{-2 (alpha r1 + r3)})``, each a sum of
    nonnegative terms with ``1 - e^{-x}`` from ``expm1``."""
    with mpmath.workdps(DPS):
        r1, r3, alpha = mpmath.mpf(r1), mpmath.mpf(r3), mpmath.mpf(alpha)
        c3 = -mpmath.expm1(-2 * r3)
        ratio = mpmath.exp(2 * alpha * r1) * c3 + mpmath.exp(-2 * r3)
        d2_floor = (mpmath.mpf(var) * mpmath.exp(-2 * r1)
                    * (c3 + mpmath.exp(-2 * (alpha * r1 + r3))))
        return +ratio, +d2_floor


def mp_mdcr_compare(var, r2, r3, r4, beta, d2, d3):
    """``(d4_mdcr, d4_md, ratio)`` at zero first-layer rate: ``d4_mdcr`` is
    :func:`mp_dr_bound` at rates ``(0, r2, r3, r4)``, ``d4_md`` at the
    re-budgeted rates ``(0, r2 + beta r4, r3 + (1 - beta) r4, 0)`` formed
    exactly, and ``ratio = d4_mdcr / d4_md``."""
    with mpmath.workdps(DPS):
        r2, r3, r4, beta = (mpmath.mpf(x) for x in (r2, r3, r4, beta))
        mdcr = mp_dr_bound(var, (0, r2, r3, r4), d2, d3)
        md = mp_dr_bound(var, (0, r2 + beta * r4, r3 + (1 - beta) * r4, 0), d2, d3)
        return mdcr, md, mdcr / md


def mp_asymptote_convergence(b, eta, r_grid, dps=DPS):
    """``(exact, asymptote, ratio)`` at each ``r'`` of ``r_grid``: ``exact``
    is :func:`mp_dr_bound` at unit variance, rates ``(0, r', r', 0)`` and
    both side targets ``b e^{-2 (1-eta) r'}`` formed exactly; the asymptote
    is ``e^{-2 r'} / (2 (b + sqrt(b^2 - 1)))`` at ``eta = 0`` and
    ``e^{-2 (1+eta) r'} / (4 b)`` otherwise.  The bound needs about
    ``0.87 (1 - eta) r'`` digits beyond double precision (see
    :func:`mp_dr_bound`)."""
    with mpmath.workdps(dps):
        b, eta = mpmath.mpf(b), mpmath.mpf(eta)
        rows = []
        for rp in r_grid:
            rp = mpmath.mpf(rp)
            side = b * mpmath.exp(-2 * (1 - eta) * rp)
            exact = mp_dr_bound(1, (0, rp, rp, 0), side, side, dps=dps)
            if eta == 0:
                asym = mpmath.exp(-2 * rp) / (2 * (b + mpmath.sqrt(b * b - 1)))
            else:
                asym = mpmath.exp(-2 * (1 + eta) * rp) / (4 * b)
            rows.append((exact, asym, exact / asym))
        return rows


def mp_wz_md_sweep(var, rates, d3_values):
    """``(d4_wz, d4_md, gap)`` of each ``d3`` in ``d3_values``, with the
    first two stages at their floors ``d1* = var e^{-2 r1}`` and
    ``d2* = var e^{-2 (r1+r2)}``.

    The binning channel solves ``1/(1/var + 1/(s1 + s2)) = d1*`` and
    ``1/(1/var + 1/s2) = d2*``, so ``s2 = d2*/c(r1+r2)`` and ``s1 + s2 =
    d1*/c(r1)`` with ``c(r) = 1 - e^{-2 r}``, and ``gamma = s2/(s1 + s2)``.
    The difference is formed as ``s1 = d1* c(r2)/(c(r1) c(r1+r2))``, which
    does not cancel at ``r2`` far below ``r1``;
    ``d4_md`` is :func:`mp_dr_bound` at ``(d2*, d3)``.  ``gap = d4_wz - d4_md``
    is 0 within ``SPECIALIZATION_RTOL d4_md``, the library's convention.
    """
    with mpmath.workdps(DPS):
        var = mpmath.mpf(var)
        r1, r2, r3, r4 = (mpmath.mpf(r) for r in rates)
        d1s, d2s = var * mpmath.exp(-2 * r1), var * mpmath.exp(-2 * (r1 + r2))
        c1, c2, c12 = (-mpmath.expm1(-2 * r) for r in (r1, r2, r1 + r2))
        s2 = d2s / c12
        s1 = d1s * c2 / (c1 * c12)
        g = s2 / (s1 + s2)
        scale = mpmath.exp(-2 * (r3 + r4))
        rows = []
        for d3 in d3_values:
            wz = (scale * var * s1 * s2 / ((var + s1 + s2)
                  * ((1 - g) ** 2 * min(mpmath.mpf(d3), d1s) + g * s1)))
            md = mp_dr_bound(var, rates, d2s, d3)
            gap = wz - md
            rows.append((wz, md, 0 if abs(gap) <= SPECIALIZATION_RTOL * md else gap))
        return rows


def _rate(x):
    """``R(x) = max(-log(x)/2, 0)``."""
    return max(-mpmath.log(x) / 2, 0)


def mp_rd_bound(var, r1, r4, d2, d3, d4):
    """``(r2_bound, r3_bound, sum_bound)`` by the textbook regime split.

    ``z = d4 e^{2 r4} / d1*``; the sum bound is 0 at or above the harmonic
    threshold ``1/(1/a + 1/b - 1)``, ``R(z)`` below ``a + b - 1``, and
    ``R(z) + 0.5 log[(1-z)^2 / ((1-z)^2 - (sqrt(pi) - sqrt((a-z)(b-z)))^2)]``
    in between, with ``R(x) = -log(x)/2``.
    """
    with mpmath.workdps(DPS):
        d1s, a, b = _ratios(var, r1, d2, d3)
        z = mpmath.mpf(d4) * mpmath.exp(2 * mpmath.mpf(r4)) / d1s
        if z >= 1 / (1 / a + 1 / b - 1):
            sum_bound = mpmath.mpf(0)
        elif z < a + b - 1:
            sum_bound = _rate(z)
        else:
            gap = mpmath.sqrt((1 - a) * (1 - b)) - mpmath.sqrt((a - z) * (b - z))
            sum_bound = _rate(z) + mpmath.log((1 - z) ** 2
                                             / ((1 - z) ** 2 - gap * gap)) / 2
        return _rate(a), _rate(b), sum_bound


def mp_floor_conditioning(var, rates, d2, d3) -> float:
    """``max(1, sqrt(ab / delta))`` at the exact inputs.

    The bound depends on ``sqrt(delta)``, ``delta = ab - s``; when the side
    targets sit just above their floors ``delta`` is a small difference of
    ``ab`` and ``s``, so a rounding of ``eps`` in either moves the bound by
    about ``eps * sqrt(ab / delta)`` relative.
    """
    with mpmath.workdps(DPS):
        r1, r2, r3, _ = rates
        _, a, b = _ratios(var, r1, d2, d3)
        delta = a * b - mpmath.exp(-2 * (mpmath.mpf(r2) + mpmath.mpf(r3)))
        return float(max(mpmath.sqrt(a * b / delta), 1)) if delta > 0 else 1.0


def mp_channel_distortions(var, channel):
    """``(var(X|U1), var(X|U1,U2), var(X|U1,U3), var(X|U1,U2,U3,U4))`` of a
    forward channel, in the information form: conditional precisions add,
    ``1/var(X'|U) = 1/d1 + 1' K^-1 1`` over the observed noise covariance
    ``K``, whose correlation is ``-sqrt(1 - q)`` at the channel's exact
    ``q = 1 - rho^2``.  An infinite noise variance contributes no
    information."""
    with mpmath.workdps(DPS):
        s1, s2, s3, s4 = (mpmath.mpf(s) for s in (
            channel.sigma1_sq, channel.sigma2_sq, channel.sigma3_sq,
            channel.sigma4_sq))
        info1 = 1 / mpmath.mpf(var) + 1 / s1
        if mpmath.isinf(s2) or mpmath.isinf(s3):
            info23 = 1 / s2 + 1 / s3
        else:
            q = mpmath.mpf(channel.q)
            cov = -mpmath.sqrt(1 - q) * mpmath.sqrt(s2 * s3)
            info23 = (s2 + s3 - 2 * cov) / (s2 * s3 * q)
        return (1 / info1, 1 / (info1 + 1 / s2), 1 / (info1 + 1 / s3),
                1 / (info1 + info23 + 1 / s4))


def mp_region_bounds(probabilities, dps=DPS):
    """``(b1, b12, b13, b123, b1234)`` of the pmf tensor over ``(X, U1, U2,
    U3, U4)`` divided by its sum, each information term written as the
    entropy combination ``I(A; B | C) = H(AC) + H(BC) - H(C) - H(ABC)``.

    The entropies are at most ``log(8^5)``, about 10.4 nats, so the
    combination loses no digit that matters at ``dps`` digits."""
    with mpmath.workdps(dps):
        q = np.array([mpmath.mpf(float(v)) for v in np.ravel(probabilities)],
                     dtype=object)
        q = (q / mpmath.fsum(q)).reshape(np.shape(probabilities))
        entropies = {(): mpmath.mpf(0)}

        def h(axes):
            if axes not in entropies:
                drop = tuple(i for i in range(5) if i not in axes)
                m = q.sum(axis=drop) if drop else q
                entropies[axes] = -mpmath.fsum(v * mpmath.log(v)
                                               for v in m.ravel() if v > 0)
            return entropies[axes]

        def info(a, b, c=()):
            return (h(tuple(sorted(a + c))) + h(tuple(sorted(b + c)))
                    - h(c) - h(tuple(sorted(a + b + c))))

        cond = info((2,), (3,), (1,))
        return (info((0,), (1,)), info((0,), (1, 2)), info((0,), (1, 3)),
                info((0,), (1, 2, 3)) + cond, info((0,), (1, 2, 3, 4)) + cond)


def ld_channel_distortions(sx2, channel):
    """``gaussrd.mmse._msr_distortions``'s chain of ``v s / (v + s)``
    updates, each double converted by ``numpy.longdouble(x)`` and each
    infinity tested on the converted value."""
    def update(v, s):
        return v if math.isinf(s) else v * s / (v + s)

    s1, s2, s3, s4 = (np.longdouble(s) for s in (
        channel.sigma1_sq, channel.sigma2_sq, channel.sigma3_sq,
        channel.sigma4_sq))
    d1 = update(np.longdouble(sx2), s1)
    if math.isinf(s2) or math.isinf(s3):
        innovation = s3
    else:
        gain = 1 - np.longdouble(channel.rho) * np.sqrt(s3 / s2)
        innovation = s3 * np.longdouble(channel.q) / (gain * gain)
    v2 = update(d1, s2)
    d4 = update(update(v2, innovation), s4)
    return float(d1), float(v2), float(update(d1, s3)), float(d4)


def invert_dr_sum_rate(source, r1: float, d2: float, d3: float,
                       d4_hat: float, *, tol: float = 1e-12,
                       max_iter: int = 200) -> float:
    """Numeric inversion of the d4 bound for the required sum rate r2 + r3.

    Bisects on ``s = exp(-2 (r2+r3))`` until the central-distortion bound at
    ``(d2, d3, s)`` meets ``d4_hat``; the bound is strictly increasing in
    ``s``, so the root is unique.
    """
    sx2 = source.variance
    if not (d2 > 0 and d3 > 0 and d4_hat > 0):
        raise InfeasibleDistortion("distortions must be positive")
    d1s = sx2 * math.exp(-2.0 * r1)
    a = min(d2, d1s) / d1s
    b = min(d3, d1s) / d1s
    z = d4_hat / d1s
    pi = (1.0 - a) * (1.0 - b)
    ab = a * b

    def d4_norm(s: float) -> float:
        delta = max(ab - s, 0.0)
        gap = max(math.sqrt(pi) - math.sqrt(delta), 0.0)
        return s / (1.0 - gap * gap)

    if z >= d4_norm(ab):
        return 0.0  # slack: the individual bounds alone are binding
    lo, hi = 0.0, ab
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if d4_norm(mid) >= z:
            hi = mid
        else:
            lo = mid
    return -0.5 * math.log(0.5 * (lo + hi))


def mc_estimate_mse_unchunked(joint, target_index, observed_indices,
                              samples, seed):
    """``gaussrd.mmse.mc_estimate_mse`` drawing every sample in one array."""
    est = conditional_mmse(joint, target_index, observed_indices)
    w, v = np.linalg.eigh(joint.entries)
    w = np.clip(w, 0.0, None)
    factor = v * np.sqrt(w)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((samples, joint.dim))
    draws = z @ factor.T
    if est.observed_indices:
        predicted = draws[:, list(est.observed_indices)] @ est.coefficients
    else:
        predicted = 0.0
    sq = (draws[:, target_index] - predicted) ** 2
    estimate = float(sq.mean())
    std_error = float(sq.std(ddof=1) / math.sqrt(samples))
    return estimate, std_error
