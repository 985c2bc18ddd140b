"""Unit tests for the finite-alphabet achievable region and time-sharing."""

from __future__ import annotations

import itertools
import json
import math
import sys

import numpy as np
import pytest

from gaussrd import (
    AlphabetMismatch,
    DecoderMaps,
    DimensionMismatch,
    InvalidPmf,
    JointPmf,
    eval_distortions,
    eval_region_bounds,
    load_configuration,
    random_pmf,
    timeshare,
)

import oracle
from conftest import make_rng


# ---------------------------------------------------------------------------
# Entropy-combination oracle, implemented independently of the library.
# ---------------------------------------------------------------------------

def _entropy(axes_kept: tuple[int, ...], p: np.ndarray) -> float:
    """Joint entropy (nats) of the variables on the kept axes."""
    drop = tuple(i for i in range(5) if i not in axes_kept)
    marg = p.sum(axis=drop) if drop else p
    flat = marg.reshape(-1)
    flat = flat[flat > 0.0]
    return float(-np.sum(flat * np.log(flat)))


def _oracle_bounds(pmf: JointPmf) -> tuple[float, float, float, float, float]:
    """The five bounds written purely as sums and differences of entropies."""
    p = pmf.probabilities
    H = lambda *axes: _entropy(tuple(axes), p)  # noqa: E731
    b1 = H(0) + H(1) - H(0, 1)
    b12 = H(0) + H(1, 2) - H(0, 1, 2)
    b13 = H(0) + H(1, 3) - H(0, 1, 3)
    # b123 = I(X; U1 U2 U3) + I(U2; U3 | U1); the conditional term expands to
    # H(U1 U2) + H(U1 U3) - H(U1) - H(U1 U2 U3).
    b123 = H(0) + H(1, 2) + H(1, 3) - H(1) - H(0, 1, 2, 3)
    b1234 = (H(0) + H(1, 2, 3, 4) - H(0, 1, 2, 3, 4)
             + H(1, 2) + H(1, 3) - H(1) - H(1, 2, 3))
    return b1, b12, b13, b123, b1234


def _brute_force_distortions(pmf: JointPmf, dec: DecoderMaps):
    """Expected distortions by explicit enumeration of all letter tuples."""
    p = pmf.probabilities
    dm = dec.distortion_matrix
    totals = [0.0, 0.0, 0.0, 0.0]
    for idx in itertools.product(*(range(n) for n in pmf.alphabet_sizes)):
        prob = p[idx]
        if prob == 0.0:
            continue
        x, u1, u2, u3, u4 = idx
        totals[0] += prob * dm[x, dec.g1[u1]]
        totals[1] += prob * dm[x, dec.g2[u1, u2]]
        totals[2] += prob * dm[x, dec.g3[u1, u3]]
        totals[3] += prob * dm[x, dec.g4[u1, u2, u3, u4]]
    return tuple(totals)


# ---------------------------------------------------------------------------
# JointPmf validation and serialization
# ---------------------------------------------------------------------------

def test_pmf_rejects_malformed_tensors():
    with pytest.raises(InvalidPmf):
        JointPmf(np.full((2, 2, 2, 2), 1.0 / 16))  # only 4 axes
    with pytest.raises(InvalidPmf):
        JointPmf(np.full((9, 1, 1, 1, 1), 1.0 / 9))  # alphabet too large
    bad_sum = np.zeros((2, 1, 1, 1, 1))
    bad_sum[0] = 0.7
    with pytest.raises(InvalidPmf):
        JointPmf(bad_sum)
    negative = np.zeros((2, 1, 1, 1, 1))
    negative[0] = 1.2
    negative[1] = -0.2
    with pytest.raises(InvalidPmf):
        JointPmf(negative)


def test_pmf_dict_round_trip():
    rng = make_rng(301)
    pmf = random_pmf(rng, (2, 3, 2, 2, 2))
    clone = JointPmf.from_dict(pmf.to_dict())
    assert clone.alphabet_sizes == pmf.alphabet_sizes
    assert np.array_equal(clone.probabilities, pmf.probabilities)


def test_pmf_from_dict_validates_flat_length():
    with pytest.raises(DimensionMismatch):
        JointPmf.from_dict({"alphabet_sizes": [2, 2, 2, 2, 2],
                            "probabilities": [1.0] * 7})
    with pytest.raises(InvalidPmf):
        JointPmf.from_dict({"alphabet_sizes": [2, 2, 2, 2],
                            "probabilities": [1.0 / 16] * 16})


# ---------------------------------------------------------------------------
# Rate bounds
# ---------------------------------------------------------------------------

def test_bounds_vanish_for_independent_auxiliaries():
    # X independent of (U1..U4) that are independent among themselves.
    marginals = [np.array([0.5, 0.5]), np.array([0.25, 0.75]),
                 np.array([0.6, 0.4]), np.array([0.3, 0.7]),
                 np.array([0.9, 0.1])]
    joint = marginals[0]
    for m in marginals[1:]:
        joint = np.multiply.outer(joint, m)
    bounds = eval_region_bounds(JointPmf(joint))
    for value in (bounds.b1, bounds.b12, bounds.b13, bounds.b123, bounds.b1234):
        assert 0.0 <= value <= 1e-14


@pytest.mark.parametrize("axis", [1, 2, 3, 4], ids=["U1", "U2", "U3", "U4"])
def test_bounds_of_a_source_independent_of_an_auxiliary_are_never_negative(axis):
    # Every bound is 0 here; a difference of two entropy-size sums left
    # 270 of the 2,000 bounds with U1 negative, the worst -6.66e-16.
    rng = make_rng(5)
    shape = [3, 1, 1, 1, 1]
    shape[axis] = 4
    for trial in range(400):
        p = np.outer(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(4)))
        bounds = eval_region_bounds(JointPmf((p / p.sum()).reshape(shape)))
        for value in (bounds.b1, bounds.b12, bounds.b13, bounds.b123, bounds.b1234):
            assert value >= 0.0, f"trial {trial}: {value!r}"


@pytest.mark.parametrize("scale", [1.0 - 9e-13, 1.0 - 4e-13, 1.0 + 4e-13, 1.0 + 9e-13])
def test_bounds_of_a_pmf_summing_off_one_are_those_of_its_normalisation(scale):
    # Summed as given, an independent pmf's bounds would be about 1 - scale.
    joint = np.multiply.outer(np.array([0.25, 0.75]), np.array([0.5, 0.5]))
    bounds = eval_region_bounds(JointPmf(scale * joint.reshape(2, 2, 1, 1, 1)))
    for value in (bounds.b1, bounds.b12, bounds.b13, bounds.b123, bounds.b1234):
        assert abs(value) <= 2.0 * sys.float_info.epsilon


def test_bounds_for_noiseless_copy_description():
    # U1 = X uniform binary, the rest constant: every bound is one bit.
    joint = np.zeros((2, 2, 1, 1, 1))
    joint[0, 0] = joint[1, 1] = 0.5
    bounds = eval_region_bounds(JointPmf(joint))
    for value in (bounds.b1, bounds.b12, bounds.b13, bounds.b123, bounds.b1234):
        assert value == pytest.approx(math.log(2.0), abs=1e-14)


def test_bounds_count_redundant_side_descriptions_twice():
    # U2 = U3 = X adds I(U2; U3 | U1) = 1 bit on top of I(X; everything).
    joint = np.zeros((2, 1, 2, 2, 1))
    joint[0, 0, 0, 0] = joint[1, 0, 1, 1] = 0.5
    bounds = eval_region_bounds(JointPmf(joint))
    assert bounds.b1 == pytest.approx(0.0, abs=1e-14)
    assert bounds.b12 == pytest.approx(math.log(2.0), abs=1e-14)
    assert bounds.b13 == pytest.approx(math.log(2.0), abs=1e-14)
    assert bounds.b123 == pytest.approx(2.0 * math.log(2.0), abs=1e-14)
    assert bounds.b1234 == pytest.approx(2.0 * math.log(2.0), abs=1e-14)


def test_bounds_match_entropy_combination_oracle():
    rng = make_rng(307)
    for trial in range(25):
        sizes = tuple(int(n) for n in rng.integers(1, 4, size=5))
        pmf = random_pmf(rng, sizes, concentration=0.7)
        bounds = eval_region_bounds(pmf)
        oracle = _oracle_bounds(pmf)
        for got, want in zip(
                (bounds.b1, bounds.b12, bounds.b13, bounds.b123, bounds.b1234),
                oracle):
            assert abs(got - want) <= 1e-12, f"trial {trial}: {got} vs {want}"


def test_bounds_with_underflowing_products_match_the_oracle():
    # Masses far below 1e-154, whose products with their marginals leave
    # the normal range or vanish, once gave nan or inf bounds.
    rng = make_rng(331)
    for trial in range(25):
        sizes = tuple(int(n) for n in rng.integers(1, 4, size=5))
        p = random_pmf(rng, sizes, concentration=0.7).probabilities.copy()
        tiny = rng.random(p.shape) < 0.5
        p[tiny] = 10.0 ** rng.uniform(-320.0, -160.0, size=int(tiny.sum()))
        pmf = JointPmf(p / p.sum())
        bounds = eval_region_bounds(pmf)
        for got, want in zip(
                (bounds.b1, bounds.b12, bounds.b13, bounds.b123, bounds.b1234),
                _oracle_bounds(pmf)):
            assert abs(got - want) <= 1e-12, f"trial {trial}: {got} vs {want}"


def test_bounds_are_within_two_eps_nats_of_the_50_digit_oracle():
    """Each bound is within ``2 eps`` nats of :func:`oracle.mp_region_bounds`.

    Model: each term of a bound is ``p log r``, where the ratio ``r`` of
    the entry and its marginals takes a few roundings, each marginal being
    a sum of nonnegative entries.  So each ``log r`` is off by a few eps in
    absolute terms, and the weights ``p`` sum to 1: the error is a few eps
    nats, whatever the size of the bound.  The draws run from sparse pmfs
    (concentration 0.05) to nearly uniform ones (1e5), whose bounds are
    near 0.  Over 400 such draws the worst error was 1.45 eps, and 1.03 eps
    over 30 draws of 5 to 8 letters per variable; the difference of two
    entropy-size sums used before reached 7.53 eps.
    """
    rng = make_rng(3)
    for trial in range(120):
        sizes = tuple(int(n) for n in rng.integers(2, 5, size=5))
        pmf = random_pmf(rng, sizes, 10.0 ** rng.uniform(math.log10(0.05), 5.0))
        bounds = eval_region_bounds(pmf)
        for got, want in zip(
                (bounds.b1, bounds.b12, bounds.b13, bounds.b123, bounds.b1234),
                oracle.mp_region_bounds(pmf.probabilities)):
            error = abs(got - want) / sys.float_info.epsilon
            assert error <= 2.0, f"trial {trial}: {got!r} is {float(error):.2f} eps off"


def test_bounds_obey_monotone_chain():
    rng = make_rng(311)
    for _ in range(25):
        pmf = random_pmf(rng, (2, 2, 2, 2, 2), concentration=0.5)
        b = eval_region_bounds(pmf)
        slack = 1e-12
        assert 0.0 <= b.b1 + slack
        assert b.b1 <= b.b12 + slack
        assert b.b1 <= b.b13 + slack
        assert b.b12 <= b.b123 + slack
        assert b.b13 <= b.b123 + slack
        assert b.b123 <= b.b1234 + slack


# ---------------------------------------------------------------------------
# Decoders and distortions
# ---------------------------------------------------------------------------

def _hamming_copy_configuration():
    """U1 = X uniform binary; identity decoders under Hamming distortion."""
    joint = np.zeros((2, 2, 1, 1, 1))
    joint[0, 0] = joint[1, 1] = 0.5
    pmf = JointPmf(joint)
    hamming = 1.0 - np.eye(2)
    dec = DecoderMaps(
        g1=np.array([0, 1]),
        g2=np.array([[0], [1]]),
        g3=np.array([[0], [1]]),
        g4=np.array([[[[0]]], [[[1]]]]),
        distortion_matrix=hamming,
    )
    return pmf, dec


def test_distortions_zero_for_perfect_copy():
    pmf, dec = _hamming_copy_configuration()
    assert eval_distortions(pmf, dec) == (0.0, 0.0, 0.0, 0.0)


def test_distortions_half_for_blind_decoder():
    # Constant decoders guess letter 0; uniform X gives Hamming loss 1/2.
    pmf, dec = _hamming_copy_configuration()
    blind = DecoderMaps(
        g1=np.zeros(2, dtype=int), g2=np.zeros((2, 1), dtype=int),
        g3=np.zeros((2, 1), dtype=int), g4=np.zeros((2, 1, 1, 1), dtype=int),
        distortion_matrix=dec.distortion_matrix,
    )
    assert eval_distortions(pmf, blind) == (0.5, 0.5, 0.5, 0.5)


def test_distortions_match_brute_force_oracle():
    rng = make_rng(313)
    for _ in range(10):
        sizes = (3, 2, 2, 2, 2)
        pmf = random_pmf(rng, sizes, concentration=0.8)
        n_hat = 3
        dec = DecoderMaps(
            g1=rng.integers(0, n_hat, size=(2,)),
            g2=rng.integers(0, n_hat, size=(2, 2)),
            g3=rng.integers(0, n_hat, size=(2, 2)),
            g4=rng.integers(0, n_hat, size=(2, 2, 2, 2)),
            distortion_matrix=rng.random((3, n_hat)),
        )
        got = eval_distortions(pmf, dec)
        want = _brute_force_distortions(pmf, dec)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12


def test_decoder_shape_and_range_validation():
    pmf, dec = _hamming_copy_configuration()
    wrong_shape = DecoderMaps(
        g1=np.array([0, 1, 0]), g2=dec.g2, g3=dec.g3, g4=dec.g4,
        distortion_matrix=dec.distortion_matrix,
    )
    with pytest.raises(AlphabetMismatch):
        wrong_shape.check_shapes(pmf)
    with pytest.raises(DimensionMismatch):
        DecoderMaps(
            g1=np.array([0, 5]),  # 5 is not a reconstruction letter
            g2=dec.g2, g3=dec.g3, g4=dec.g4,
            distortion_matrix=dec.distortion_matrix,
        )
    with pytest.raises(ValueError):
        DecoderMaps(
            g1=dec.g1, g2=dec.g2, g3=dec.g3, g4=dec.g4,
            distortion_matrix=np.array([[0.0, -1.0], [1.0, 0.0]]),
        )


_DIRECT = dict(g2=[[0], [1]], g3=[[0], [1]], g4=[[[[0]]], [[[1]]]],
               distortion_matrix=[[0, 1], [1, 0]])


@pytest.mark.parametrize("field, value, message", [
    ("g1", [0.7, 1.9], "g1 entries must be integers, got 0.7"),
    ("g1", np.array([0.0, 1.0]), "g1 entries must be integers, got an array of dtype float64"),
    ("g1", np.array([False, True]), "g1 entries must be integers, got an array of dtype bool"),
    ("g4", [[[[0]]], [[[True]]]], "g4 entries must be integers, got True"),
    ("g2", [np.array([0]), [1.0]], "g2 entries must be integers, got 1.0"),
    ("distortion_matrix", [[0, True], [1, 0]],
     "distortion_matrix entries must be numbers, got True"),
    ("probabilities", np.array([True]).reshape(1, 1, 1, 1, 1),
     "probabilities entries must be numbers, got an array of dtype bool"),
    ("probabilities", [[[[["1.0"]]]]], "probabilities entries must be numbers, got '1.0'"),
], ids=["float-list", "float-array", "bool-array", "bool-in-ints", "float-after-array",
        "matrix-bool", "pmf-bool-array", "pmf-string"])
def test_decoders_built_directly_refuse_what_json_refuses(field, value, message):
    # numpy would store [0.7, 1.9] as [0, 1], True as 1 and "1.0" as 1.0;
    # a JointPmf built directly holds its probabilities to the same rule.
    with pytest.raises(TypeError) as caught:
        if field == "probabilities":
            JointPmf(value)
        else:
            DecoderMaps(**{"g1": [0, 1], **_DIRECT, field: value})
    assert str(caught.value) == message


@pytest.mark.parametrize("g1", [[0, 1], (0, 1), np.array([0, 1], dtype=np.int32),
                                [np.int64(0), 1], np.array([0, 1], dtype=np.uint8)],
                         ids=["list", "tuple", "int32-array", "numpy-int", "uint8-array"])
def test_decoders_built_directly_take_integer_lists_and_arrays(g1):
    dec = DecoderMaps(g1=g1, **_DIRECT)
    assert dec.g1.tolist() == [0, 1] and dec.g1.dtype == np.dtype(int)
    assert dec.distortion_matrix.dtype == np.dtype(float)


def _nan_pmf():
    joint = np.full((2, 1, 1, 1, 1), 0.5)
    joint[1] = math.nan
    return JointPmf(joint)


def _flat_distortion_matrix():
    _, dec = _hamming_copy_configuration()
    return DecoderMaps(dec.g1, dec.g2, dec.g3, dec.g4, np.zeros(4))


def _three_row_distortion_matrix():
    pmf, dec = _hamming_copy_configuration()
    DecoderMaps(dec.g1, dec.g2, dec.g3, dec.g4, np.ones((3, 2))).check_shapes(pmf)


def _payload_without_g4():
    pmf, dec = _hamming_copy_configuration()
    decoders = {name: getattr(dec, name).tolist() for name in ("g1", "g2", "g3")}
    return DecoderMaps.from_dict({"decoders": decoders,
                                  "distortion_matrix": dec.distortion_matrix.tolist()},
                                 pmf.alphabet_sizes)


@pytest.mark.parametrize("build, error, message", [
    (_nan_pmf, InvalidPmf, "pmf entries must be finite"),
    (lambda: JointPmf.from_dict({"alphabet_sizes": [2, 1, 1, 1, 1]}), InvalidPmf,
     "malformed pmf payload: 'probabilities'"),
    (lambda: JointPmf.from_dict({"alphabet_sizes": [2, "x", 1, 1, 1],
                                 "probabilities": [0.5, 0.5]}), InvalidPmf,
     "malformed pmf payload: alphabet_sizes entries must be integers, got 'x'"),
    (_flat_distortion_matrix, DimensionMismatch,
     "distortion_matrix must be 2-dimensional"),
    (_three_row_distortion_matrix, AlphabetMismatch,
     "distortion_matrix has 3 rows, expected 2"),
    (_payload_without_g4, InvalidPmf, "malformed decoder payload: 'g4'"),
], ids=["pmf-nan", "pmf-payload-missing-key", "pmf-payload-bad-size",
        "matrix-1d", "matrix-rows", "decoder-payload-missing-key"])
def test_pmf_and_decoder_refusals(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def _copy_payload() -> dict:
    """The Hamming copy configuration in the JSON interchange format."""
    pmf, dec = _hamming_copy_configuration()
    return {**pmf.to_dict(),
            "decoders": {name: getattr(dec, name).tolist()
                         for name in ("g1", "g2", "g3", "g4")},
            "distortion_matrix": dec.distortion_matrix.tolist()}


_SIZES = "malformed pmf payload: alphabet_sizes entries must be integers, got "
_PROBABILITIES = "malformed pmf payload: probabilities entries must be numbers, got "
_DECODER = "malformed decoder payload: "


@pytest.mark.parametrize("field, value, message", [
    ("alphabet_sizes", [2.9, 2, 1, 1, 1], _SIZES + "2.9"),
    ("alphabet_sizes", [2.0, 2, 1, 1, 1], _SIZES + "2.0"),
    ("alphabet_sizes", ["2", 2, 1, 1, 1], _SIZES + "'2'"),
    ("alphabet_sizes", [2, 2, True, 1, 1], _SIZES + "True"),
    ("probabilities", ["0.5", 0.0, 0.0, 0.5], _PROBABILITIES + "'0.5'"),
    ("probabilities", [0.5, False, 0.0, 0.5], _PROBABILITIES + "False"),
    ("g1", [0.2, 1.9], _DECODER + "g1 entries must be integers, got 0.2"),
    ("g1", [0, True], _DECODER + "g1 entries must be integers, got True"),
    ("g2", [[0], ["1"]], _DECODER + "g2 entries must be integers, got '1'"),
    ("g4", [[[[0]]], [[[True]]]], _DECODER + "g4 entries must be integers, got True"),
    ("g1", [0, 10 ** 30], _DECODER + "Python int too large to convert to C long"),
    ("distortion_matrix", [[0.0, True], [1.0, 0.0]],
     _DECODER + "distortion_matrix entries must be numbers, got True"),
    ("distortion_matrix", [[0.0, "1"], [1.0, 0.0]],
     _DECODER + "distortion_matrix entries must be numbers, got '1'"),
], ids=["size-float", "size-integral-float", "size-string", "size-bool",
        "probability-string", "probability-bool", "index-float", "index-bool-in-ints",
        "index-string", "index-bool", "index-overflow", "matrix-bool", "matrix-string"])
def test_json_entries_of_the_wrong_type_are_refused(field, value, message):
    # numpy would truncate a float index or size, read a bool as 0 or 1 (also
    # inside a list of ints) and parse a numeric string; an index past the
    # int64 range would leave as an OverflowError.
    payload = _copy_payload()
    (payload["decoders"] if field in ("g1", "g2", "g3", "g4") else payload)[field] = value
    with pytest.raises(InvalidPmf) as caught:
        load_configuration(json.dumps(payload))
    assert str(caught.value) == message


def test_json_integers_are_numbers():
    payload = _copy_payload()
    payload["probabilities"] = [1, 0, 0, 0]
    payload["distortion_matrix"] = [[0, 1], [1, 0]]
    pmf, dec = load_configuration(json.dumps(payload))
    assert eval_distortions(pmf, dec) == (0.0, 0.0, 0.0, 0.0)


def test_load_configuration_round_trip_with_decoders():
    pmf, dec = _hamming_copy_configuration()
    payload = pmf.to_dict()
    payload["decoders"] = {
        "g1": dec.g1.tolist(), "g2": dec.g2.tolist(),
        "g3": dec.g3.tolist(), "g4": dec.g4.tolist(),
    }
    payload["distortion_matrix"] = dec.distortion_matrix.tolist()
    loaded_pmf, loaded_dec = load_configuration(json.dumps(payload))
    assert np.array_equal(loaded_pmf.probabilities, pmf.probabilities)
    assert loaded_dec is not None
    assert eval_distortions(loaded_pmf, loaded_dec) == (0.0, 0.0, 0.0, 0.0)


def test_load_configuration_without_decoders():
    pmf, _ = _hamming_copy_configuration()
    loaded_pmf, loaded_dec = load_configuration(json.dumps(pmf.to_dict()))
    assert loaded_dec is None
    assert np.array_equal(loaded_pmf.probabilities, pmf.probabilities)


def test_load_configuration_rejects_decoders_without_matrix():
    pmf, dec = _hamming_copy_configuration()
    payload = pmf.to_dict()
    payload["decoders"] = {
        "g1": dec.g1.tolist(), "g2": dec.g2.tolist(),
        "g3": dec.g3.tolist(), "g4": dec.g4.tolist(),
    }
    with pytest.raises(InvalidPmf):
        load_configuration(json.dumps(payload))


# ---------------------------------------------------------------------------
# Time-sharing
# ---------------------------------------------------------------------------

def _timeshare_pair(rng):
    x_marginal = rng.dirichlet(np.ones(2))
    x_marginal = x_marginal / x_marginal.sum()
    pmf_a = random_pmf(rng, (2, 2, 2, 2, 2), x_marginal=x_marginal)
    pmf_b = random_pmf(rng, (2, 2, 2, 2, 2), x_marginal=x_marginal)
    return pmf_a, pmf_b


def test_timeshare_endpoints_reproduce_inputs():
    rng = make_rng(317)
    pmf_a, pmf_b = _timeshare_pair(rng)
    for lam, reference in ((1.0, pmf_a), (0.0, pmf_b)):
        mixed = timeshare(pmf_a, pmf_b, lam)
        got = eval_region_bounds(mixed)
        want = eval_region_bounds(reference)
        for g, w in zip((got.b1, got.b12, got.b13, got.b123, got.b1234),
                        (want.b1, want.b12, want.b13, want.b123, want.b1234)):
            assert abs(g - w) <= 1e-12


def test_timeshare_bounds_affine_with_shared_source_marginal():
    rng = make_rng(331)
    pmf_a, pmf_b = _timeshare_pair(rng)
    at_a = eval_region_bounds(pmf_a)
    at_b = eval_region_bounds(pmf_b)
    ends_a = (at_a.b1, at_a.b12, at_a.b13, at_a.b123, at_a.b1234)
    ends_b = (at_b.b1, at_b.b12, at_b.b13, at_b.b123, at_b.b1234)
    for lam in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
        got = eval_region_bounds(timeshare(pmf_a, pmf_b, lam))
        for g, ea, eb in zip((got.b1, got.b12, got.b13, got.b123, got.b1234),
                             ends_a, ends_b):
            assert abs(g - (lam * ea + (1.0 - lam) * eb)) <= 1e-12


def test_timeshare_mixture_weights_are_exact():
    rng = make_rng(337)
    pmf_a, pmf_b = _timeshare_pair(rng)
    lam = 0.3
    mixed = timeshare(pmf_a, pmf_b, lam)
    assert mixed.alphabet_sizes == (2, 4, 4, 4, 4)
    block_a = mixed.probabilities[:, :2, :2, :2, :2]
    block_b = mixed.probabilities[:, 2:, 2:, 2:, 2:]
    assert np.allclose(block_a, lam * pmf_a.probabilities, atol=1e-15)
    assert np.allclose(block_b, (1.0 - lam) * pmf_b.probabilities, atol=1e-15)
    assert mixed.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_timeshare_validates_inputs():
    rng = make_rng(347)
    pmf_a, pmf_b = _timeshare_pair(rng)
    with pytest.raises(ValueError):
        timeshare(pmf_a, pmf_b, 1.5)
    mismatched = random_pmf(rng, (3, 2, 2, 2, 2))
    with pytest.raises(AlphabetMismatch):
        timeshare(pmf_a, mismatched, 0.5)
    big = random_pmf(rng, (2, 5, 2, 2, 2))
    with pytest.raises(InvalidPmf):
        timeshare(big, big, 0.5)


# ---------------------------------------------------------------------------
# Random configuration generator
# ---------------------------------------------------------------------------

def test_random_pmf_exact_x_marginal():
    rng = make_rng(349)
    x_marginal = np.array([0.2, 0.3, 0.5])
    pmf = random_pmf(rng, (3, 2, 2, 2, 2), x_marginal=x_marginal)
    got = pmf.probabilities.sum(axis=(1, 2, 3, 4))
    assert np.allclose(got, x_marginal, atol=1e-15)


def test_random_pmf_is_seed_deterministic():
    first = random_pmf(make_rng(353), (2, 2, 2, 2, 2))
    second = random_pmf(make_rng(353), (2, 2, 2, 2, 2))
    assert np.array_equal(first.probabilities, second.probabilities)


def test_random_pmf_validates_sizes():
    rng = make_rng(359)
    with pytest.raises(InvalidPmf):
        random_pmf(rng, (2, 2, 2, 2))
    with pytest.raises(DimensionMismatch):
        random_pmf(rng, (3, 2, 2, 2, 2), x_marginal=[0.5, 0.5])
