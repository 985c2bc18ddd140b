"""Achievable-region evaluation for finite-alphabet auxiliary variables.

A configuration is a joint pmf over ``(X, U1, U2, U3, U4)`` stored as a dense
tensor (alphabets are capped at 8 letters per variable, so the largest tensor
has 8^5 entries).  The rate bounds are

* ``b1    = I(X; U1)``
* ``b12   = I(X; U1, U2)``
* ``b13   = I(X; U1, U3)``
* ``b123  = I(X; U1, U2, U3) + I(U2; U3 | U1)``
* ``b1234 = I(X; U1, U2, U3, U4) + I(U2; U3 | U1)``

in nats, each information term one sum ``I(A; B | C) = sum p log(p p_C /
(p_AC p_BC))`` over the support of the tensor divided by its correctly
rounded sum.  No two sums of entropy size cancel, and a sum that rounding
leaves below 0 is 0, so every bound is nonnegative.
Expected distortions come from lookup decoders and a per-letter distortion
matrix.

JSON interchange format (used by the CLI and the loaders here)::

    {
      "alphabet_sizes": [|X|, |U1|, |U2|, |U3|, |U4|],
      "probabilities": [...],            # row-major flattening of the tensor
      "decoders": {                      # optional
        "g1": [...],                     # shape (|U1|,), row-major
        "g2": [...],                     # shape (|U1|, |U2|)
        "g3": [...],                     # shape (|U1|, |U3|)
        "g4": [...]                      # shape (|U1|, |U2|, |U3|, |U4|)
      },
      "distortion_matrix": [[...], ...]  # shape (|X|, n_reconstructions)
    }

Decoder entries are indices into the columns of ``distortion_matrix``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AlphabetMismatch, DimensionMismatch, InvalidPmf

#: Largest admissible alphabet per variable; keeps every tensor dense and small.
MAX_ALPHABET = 8
#: Normalization tolerance for pmfs.
PMF_ATOL = 1e-12

_VARIABLE_NAMES = ("X", "U1", "U2", "U3", "U4")


def _typed_array(name: str, value, dtype: type) -> np.ndarray:
    """Nested lists of ints (dtype int) or numbers (dtype float), not bools,
    or numpy arrays of such a dtype, as an array; numpy would truncate 1.9,
    read ``true`` as 1 and parse ``"0.5"``."""
    if dtype is int:
        kinds, codes, kind = (int, np.integer), "iu", "integers"
    else:
        kinds, codes, kind = (int, float, np.integer, np.floating), "iuf", "numbers"
    stack = [value]
    while stack:
        entry = stack.pop()
        if isinstance(entry, (list, tuple)):
            stack.extend(reversed(entry))
        elif isinstance(entry, np.ndarray):
            if entry.dtype.kind not in codes:
                raise TypeError(f"{name} entries must be {kind}, got an array "
                                f"of dtype {entry.dtype}")
        elif isinstance(entry, bool) or not isinstance(entry, kinds):
            raise TypeError(f"{name} entries must be {kind}, got {entry!r}")
    return np.array(value, dtype=dtype)


@dataclass(frozen=True)
class JointPmf:
    """Dense joint pmf over (X, U1, U2, U3, U4), of number entries; a bool
    or a string is refused, not converted."""

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        arr = _typed_array("probabilities", self.probabilities, float)
        if arr.ndim != 5:
            raise InvalidPmf(f"pmf tensor must be 5-dimensional, got {arr.ndim}")
        for name, size in zip(_VARIABLE_NAMES, arr.shape):
            if not 1 <= size <= MAX_ALPHABET:
                raise InvalidPmf(
                    f"alphabet of {name} must have 1..{MAX_ALPHABET} letters, got {size}"
                )
        if not np.all(np.isfinite(arr)):
            raise InvalidPmf("pmf entries must be finite")
        if np.any(arr < 0.0):
            raise InvalidPmf(f"pmf entries must be nonnegative (min {arr.min():.3e})")
        # An overflowing sum is inf, which the check below refuses.
        with np.errstate(over="ignore"):
            total = float(arr.sum())
        if abs(total - 1.0) > PMF_ATOL:
            raise InvalidPmf(f"pmf must sum to 1 within {PMF_ATOL}, got {total!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "probabilities", arr)

    @property
    def alphabet_sizes(self) -> tuple[int, ...]:
        return self.probabilities.shape

    @classmethod
    def from_dict(cls, payload: dict) -> "JointPmf":
        try:
            sizes = tuple(map(int, _typed_array("alphabet_sizes",
                                                payload["alphabet_sizes"], int)))
            flat = _typed_array("probabilities", payload["probabilities"], float)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidPmf(f"malformed pmf payload: {exc}") from exc
        if len(sizes) != 5:
            raise InvalidPmf(f"alphabet_sizes must list 5 sizes, got {len(sizes)}")
        expected = int(np.prod(sizes))
        if flat.size != expected:
            raise DimensionMismatch(
                f"probabilities has {flat.size} entries, expected {expected}"
            )
        return cls(flat.reshape(sizes))

    def to_dict(self) -> dict:
        return {
            "alphabet_sizes": list(self.alphabet_sizes),
            "probabilities": [float(v) for v in self.probabilities.reshape(-1)],
        }


@dataclass(slots=True)
class RateRegionBounds:
    """The five mutual-information bounds, in nats."""

    b1: float
    b12: float
    b13: float
    b123: float
    b1234: float


@dataclass(frozen=True)
class DecoderMaps:
    """Lookup decoders plus the per-letter distortion matrix.

    The decoders hold integer indices and the matrix numbers, as lists or
    numpy arrays; a float or bool index is refused, not truncated.
    """

    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray
    g4: np.ndarray
    distortion_matrix: np.ndarray

    def __post_init__(self) -> None:
        for name in ("g1", "g2", "g3", "g4"):
            object.__setattr__(self, name, _typed_array(name, getattr(self, name), int))
        dm = _typed_array("distortion_matrix", self.distortion_matrix, float)
        if dm.ndim != 2:
            raise DimensionMismatch("distortion_matrix must be 2-dimensional")
        if not np.all(np.isfinite(dm)) or np.any(dm < 0.0):
            raise ValueError("distortion_matrix entries must be finite and nonnegative")
        object.__setattr__(self, "distortion_matrix", dm)
        n_hat = dm.shape[1]
        for name in ("g1", "g2", "g3", "g4"):
            arr = getattr(self, name)
            if arr.size and (arr.min() < 0 or arr.max() >= n_hat):
                raise DimensionMismatch(
                    f"{name} maps outside the {n_hat} reconstruction letters"
                )

    def check_shapes(self, pmf: JointPmf) -> None:
        _, n1, n2, n3, n4 = pmf.alphabet_sizes
        expected = {"g1": (n1,), "g2": (n1, n2), "g3": (n1, n3),
                    "g4": (n1, n2, n3, n4)}
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise AlphabetMismatch(
                    f"{name} has shape {arr.shape}, expected {shape}"
                )
        if self.distortion_matrix.shape[0] != pmf.alphabet_sizes[0]:
            raise AlphabetMismatch(
                f"distortion_matrix has {self.distortion_matrix.shape[0]} rows, "
                f"expected {pmf.alphabet_sizes[0]}"
            )

    @classmethod
    def from_dict(cls, payload: dict, sizes: Sequence[int]) -> "DecoderMaps":
        _, n1, n2, n3, n4 = (int(n) for n in sizes)
        try:
            dec = payload["decoders"]
            g1 = _typed_array("g1", dec["g1"], int).reshape(n1)
            g2 = _typed_array("g2", dec["g2"], int).reshape(n1, n2)
            g3 = _typed_array("g3", dec["g3"], int).reshape(n1, n3)
            g4 = _typed_array("g4", dec["g4"], int).reshape(n1, n2, n3, n4)
            dm = _typed_array("distortion_matrix", payload["distortion_matrix"], float)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidPmf(f"malformed decoder payload: {exc}") from exc
        return cls(g1, g2, g3, g4, dm)


def load_configuration(text: str) -> tuple[JointPmf, DecoderMaps | None]:
    """Parse the JSON interchange format; decoders are optional."""
    payload = json.loads(text)
    pmf = JointPmf.from_dict(payload)
    decoders = None
    if "decoders" in payload:
        if "distortion_matrix" not in payload:
            raise InvalidPmf("decoders given without a distortion_matrix")
        decoders = DecoderMaps.from_dict(payload, pmf.alphabet_sizes)
        decoders.check_shapes(pmf)
    return pmf, decoders


_TINY = np.finfo(float).tiny


def _information(p: np.ndarray, a: tuple[int, ...], b: tuple[int, ...]) -> float:
    """``I(A; B | C) = sum p log(p p_C / (p_AC p_BC))`` in nats over the
    support of the table ``p``, whose axes ``a`` hold A, axes ``b`` hold B
    and the other axes C (``p_C = 1`` when C is empty); wherever ``p > 0``
    its marginals are positive too.  A sum that rounding leaves below 0 is 0.
    """
    p_ac = p.sum(axis=b, keepdims=True)
    p_bc = p.sum(axis=a, keepdims=True)
    p_c = p_ac.sum(axis=a, keepdims=True) if len(a) + len(b) < p.ndim else 1.0
    mask = p > 0.0
    num, den = (p * p_c)[mask], (p_ac * p_bc)[mask]
    low = (num < _TINY) | (den < _TINY)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(num / den)
    if low.any():
        # Below the normal range a product has lost digits or vanished.
        lp, lc, lac, lbc = (np.log(np.broadcast_to(m, p.shape)[mask][low])
                            for m in (p, p_c, p_ac, p_bc))
        log_ratio[low] = lp + lc - lac - lbc
    total = float(np.sum(p[mask] * log_ratio))
    return 0.0 if 0.0 > total else total


def eval_region_bounds(pmf: JointPmf) -> RateRegionBounds:
    """The five achievable-rate bounds of a configuration, in nats.

    Each is one or two :func:`_information` sums on a marginal of the
    tensor (see the module docstring), within a few eps nats of its exact
    value however small: 1.45 eps at worst against a 60-digit evaluation
    over 2,000 bounds.  All five are nonnegative, and the chain
    ``b1 <= b12 <= b123`` holds along with ``b123 <= b1234`` up to that error.

    The tensor is first divided by its correctly rounded sum: a pmf admitted
    ``PMF_ATOL`` away from 1 would otherwise shift each bound by about its
    distance from 1, negative at an independent pmf that sums above 1.  A
    pmf whose sum rounds to 1.0 keeps its bits.
    """
    p = pmf.probabilities
    p = p / math.fsum(p.ravel().tolist())
    p_x_u123 = p.sum(axis=4)
    cond_mi = _information(p_x_u123.sum(axis=0), (1,), (2,))
    b1 = _information(p.sum(axis=(2, 3, 4)), (0,), (1,))
    b12 = _information(p.sum(axis=(3, 4)), (0,), (1, 2))
    b13 = _information(p.sum(axis=(2, 4)), (0,), (1, 2))
    b123 = _information(p_x_u123, (0,), (1, 2, 3)) + cond_mi
    b1234 = _information(p, (0,), (1, 2, 3, 4)) + cond_mi
    return RateRegionBounds(b1, b12, b13, b123, b1234)


def eval_distortions(pmf: JointPmf, decoders: DecoderMaps) -> tuple[float, float, float, float]:
    """Expected distortion of each decoder under the configuration."""
    decoders.check_shapes(pmf)
    p = pmf.probabilities
    dm = decoders.distortion_matrix
    d1 = float(np.sum(p.sum(axis=(2, 3, 4)) * dm[:, decoders.g1]))
    d2 = float(np.sum(p.sum(axis=(3, 4)) * dm[:, decoders.g2]))
    d3 = float(np.sum(p.sum(axis=(2, 4)) * dm[:, decoders.g3]))
    d4 = float(np.sum(p * dm[:, decoders.g4]))
    return d1, d2, d3, d4


def timeshare(pmf_a: JointPmf, pmf_b: JointPmf, lam: float) -> JointPmf:
    """Mixture configuration realizing the chord between two operating points.

    A single shared switch ``Q`` (P(Q=0) = ``lam``) is folded into each
    auxiliary variable: the extended alphabet of ``Ui`` stacks the letters of
    configuration A (as ``(u, Q=0)``, indices ``0..m-1``) above those of B
    (as ``(u, Q=1)``, indices ``m..2m-1``), where ``m`` is the larger of the
    two original sizes.  The X alphabet must agree between the two inputs.

    When the two configurations share the same X marginal -- the physical
    setting, since X is the source and the switch is drawn independently of
    it -- ``I(X; Q) = 0`` and all five bounds and all four expected
    distortions are exactly affine in ``lam``.  With differing X marginals
    the mixture is still a valid configuration but picks up an ``I(X; Q)``
    term, so affineness holds only up to it.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    na = pmf_a.alphabet_sizes
    nb = pmf_b.alphabet_sizes
    if na[0] != nb[0]:
        raise AlphabetMismatch(
            f"X alphabets differ: {na[0]} vs {nb[0]}"
        )
    merged = tuple(max(na[i], nb[i]) for i in range(1, 5))
    if any(2 * m > MAX_ALPHABET for m in merged):
        raise InvalidPmf(
            f"time-shared alphabets {[2 * m for m in merged]} exceed the cap "
            f"of {MAX_ALPHABET}"
        )
    shape = (na[0],) + tuple(2 * m for m in merged)
    out = np.zeros(shape)
    out[:, :na[1], :na[2], :na[3], :na[4]] = lam * pmf_a.probabilities
    m1, m2, m3, m4 = merged
    out[:, m1:m1 + nb[1], m2:m2 + nb[2], m3:m3 + nb[3], m4:m4 + nb[4]] = (
        (1.0 - lam) * pmf_b.probabilities
    )
    return JointPmf(out)


def random_pmf(rng: np.random.Generator, sizes: Sequence[int],
               concentration: float = 1.0,
               x_marginal: Sequence[float] | None = None) -> JointPmf:
    """Dirichlet-distributed random configuration, for tests and scans.

    With ``x_marginal`` given, the auxiliary block is drawn conditionally per
    source letter, so the X marginal of the result is exactly the one
    requested (useful for time-sharing pairs over a common source).
    """
    sizes = tuple(int(n) for n in sizes)
    if len(sizes) != 5:
        raise InvalidPmf(f"need 5 alphabet sizes, got {len(sizes)}")
    block = int(np.prod(sizes[1:]))
    if x_marginal is None:
        flat = rng.dirichlet(np.full(sizes[0] * block, concentration))
        # Dirichlet draws are normalized only up to rounding; fix it exactly.
        flat = flat / flat.sum()
        return JointPmf(flat.reshape(sizes))
    px = np.array(x_marginal, dtype=float)
    if px.shape != (sizes[0],):
        raise DimensionMismatch(
            f"x_marginal has shape {px.shape}, expected ({sizes[0]},)"
        )
    rows = []
    for x in range(sizes[0]):
        cond = rng.dirichlet(np.full(block, concentration))
        rows.append(px[x] * cond / cond.sum())
    return JointPmf(np.stack(rows).reshape(sizes))
