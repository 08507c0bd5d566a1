"""Family parameter validation, square classes, descent quartics."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinselmer as ts
from twinselmer.family import (
    PHI,
    PHI_HAT,
    HomogeneousSpace,
    InvalidParamsError,
    build_space,
    class_of_integer,
    enumerate_square_classes,
    validate_params,
)
from helpers import random_instances


def test_validate_params_accepts():
    params = validate_params(1, 3, 5, [7])
    assert params.D == 7 and params.n == 1
    params = validate_params(-1, 5, 7, [11, 13])
    assert params.D == 143
    assert params.dhat(1) == 13 and params.dhat(2) == 11


def test_validate_params_rejects():
    with pytest.raises(InvalidParamsError):
        validate_params(1, 3, 5, [3])  # p divides D
    with pytest.raises(InvalidParamsError):
        validate_params(1, 3, 5, [5])  # q divides D
    with pytest.raises(InvalidParamsError):
        validate_params(1, 5, 9, [11])  # 9 composite
    with pytest.raises(InvalidParamsError):
        validate_params(1, 7, 11, [13])  # gap 4
    with pytest.raises(InvalidParamsError):
        validate_params(1, 3, 5, [])  # n = 0
    with pytest.raises(InvalidParamsError):
        validate_params(1, 3, 5, [7, 7])  # repeated
    with pytest.raises(InvalidParamsError):
        validate_params(1, 3, 5, [9])  # composite D prime
    with pytest.raises(InvalidParamsError, match="odd primes"):
        validate_params(1, 3, 5, (318665857834031151167461,))  # psi_12, composite
    with pytest.raises(InvalidParamsError):
        validate_params(1, 3, 5, [2])  # even
    with pytest.raises(InvalidParamsError):
        validate_params(2, 3, 5, [7])  # bad epsilon
    # ints only: nothing is truncated or coerced
    for bad in (
        (True, 3, 5, [7]),  # bool epsilon
        (1.0, 3, 5, [7]),
        (1, 3.0, 5, [7]),  # float p
        (1, 3, 5.0, [7]),
        (1, 3, 5, [61.9]),  # float D prime, once truncated to 61
        (1, 3, 5, [61.0]),
        (1, 3, 5, [True]),
        (1, 3, 5, ["61"]),
        (1, 3, 5, 61),  # not an iterable of D primes
        (1, 3, 5, None),
        (1, 3, 5, "61"),  # a string, once split into the characters '6' and '1'
        (1, 3, 5, b"61"),  # bytes, once split into the byte values 54 and 49
        (1, 3, 5, "7"),  # one character that would read as the prime 7
    ):
        with pytest.raises(InvalidParamsError):
            validate_params(*bad)
    # a str or bytes is rejected as the value the caller gave
    for given in ("61", b"61", "7"):
        with pytest.raises(InvalidParamsError, match=re.escape(repr(given))):
            validate_params(1, 3, 5, given)


def test_places_order():
    params = validate_params(1, 11, 13, [7, 41, 3])
    assert params.places() == ["inf", 2, 11, 13, 3, 7, 41]


def test_enumerate_square_classes_counts():
    params = validate_params(1, 3, 5, [7])
    classes = enumerate_square_classes(params)
    assert len(classes) == 32
    assert len(set(classes)) == 32
    assert params.value(0) == 1
    params2 = validate_params(1, 3, 5, [7, 11])
    assert len(enumerate_square_classes(params2)) == 64


def test_group_law_matches_multiplication_mod_squares():
    params = validate_params(1, 3, 5, [7, 11])
    basis_primes = [2, 3, 5, 7, 11]

    def squarefree_part(m):
        for b in basis_primes:
            while m % (b * b) == 0:
                m //= b * b
        return m

    rng = random.Random(31)
    bits = range(1 << (params.n + 4))
    for _ in range(200):
        a, b = rng.choice(bits), rng.choice(bits)
        assert params.value(a ^ b) == squarefree_part(params.value(a) * params.value(b))


def test_class_of_integer():
    params = validate_params(1, 3, 5, [7])
    bits = class_of_integer(params, -21)
    assert params.value(bits) == -21
    assert bits == 0b10101  # -1, p = 3 and D_1 = 7 on the basis (-1, 2, 3, 5, 7)
    assert class_of_integer(params, 1) == 0
    with pytest.raises(ValueError):
        class_of_integer(params, 11)  # 11 outside the basis
    with pytest.raises(ValueError):
        class_of_integer(params, 4)  # not squarefree
    with pytest.raises(ValueError):
        class_of_integer(params, 0)


def test_class_roundtrip_all():
    params = validate_params(-1, 5, 7, [3, 11])
    for bits, d in enumerate(enumerate_square_classes(params)):
        assert class_of_integer(params, d) == bits


_TWINS = [t for t in ts.arith.twin_pairs_up_to(200) if t[1] < 200]
_ODD_PRIMES = [r for r in ts.arith.primes_up_to(200) if r > 2]


@st.composite
def _params_and_bits(draw):
    """Random valid params and two exponent-bit vectors below 2^(n+4)."""
    p, q = draw(st.sampled_from(_TWINS))
    pool = [r for r in _ODD_PRIMES if r not in (p, q)]
    ds = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique=True))
    params = validate_params(draw(st.sampled_from((1, -1))), p, q, ds)
    bits = st.integers(0, (1 << (params.n + 4)) - 1)
    return params, draw(bits), draw(bits)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_params_and_bits())
def test_value_and_class_of_integer_are_inverse_homomorphisms(case):
    # XOR of exponent bits is multiplication modulo squares: the shared
    # generators of a and b are the square factor
    params, a, b = case
    value = params.value
    assert value(a) * value(b) == value(a ^ b) * value(a & b) ** 2
    assert class_of_integer(params, value(a)) == a


def test_build_space_coefficients():
    params = validate_params(1, 3, 5, [7])
    space = build_space(params, 2, PHI)
    assert (space.u4, space.u2, space.u0) == (196, -224, 4)
    space = build_space(params, 1, PHI_HAT)
    assert (space.u4, space.u2, space.u0) == (735, 56, 1)
    params_neg = validate_params(-1, 3, 5, [7])
    space = build_space(params_neg, 1, PHI_HAT)
    assert (space.u4, space.u2, space.u0) == (735, -56, 1)


def test_build_space_structure():
    for params in random_instances(seed=11, count=5, prime_bound=60):
        D = params.D
        for d in enumerate_square_classes(params):
            c_space = build_space(params, d, PHI)
            cp_space = build_space(params, d, PHI_HAT)
            assert c_space.g(0) == d * d and cp_space.g(0) == d * d
            assert c_space.u4 == 4 * D * D
            assert cp_space.u4 == params.p * params.q * D * D
            assert c_space.disc() != 0 and cp_space.disc() != 0
        for kind in (PHI, PHI_HAT):
            with pytest.raises(ValueError, match="d must be nonzero"):
                build_space(params, 0, kind)


def _separability_forms(params, d):
    """4*u4*u0 - u2^2 of C_d and of C'_d, the closed forms build_space's docstring states."""
    p, q, D = params.p, params.q, params.D
    return {PHI: -16 * p * q * D * D * d * d, PHI_HAT: -4 * D * D * d * d}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_params_and_bits())
def test_descent_quartics_are_separable_in_closed_form(case):
    # build_space computes no discriminant: every class's quartic is
    # separable because u4*u0 != 0 and 4*u4*u0 - u2^2 has these closed forms
    params = case[0]
    for d in enumerate_square_classes(params):
        for kind, form in _separability_forms(params, d).items():
            space = build_space(params, d, kind)
            assert space.u4 * space.u0 != 0
            assert 4 * space.u4 * space.u0 - space.u2 ** 2 == form != 0, (params, d, kind)
            assert space.disc() == 16 * space.u4 * space.u0 * form ** 2


def test_build_space_accepts_kind_aliases():
    params = validate_params(1, 3, 5, [7])
    assert build_space(params, 1, ts.PHI).kind == PHI
    assert build_space(params, 1, ts.PHI_HAT).kind == PHI_HAT
    with pytest.raises(ValueError):
        build_space(params, 1, "nope")


@pytest.mark.parametrize("kind", ["C", "C'", "PHI", "phi-hat", "", None])
@pytest.mark.parametrize(
    "call",
    [
        lambda params, kind: build_space(params, 1, kind),
        lambda params, kind: ts.closed_form_local(params, kind, 1, 2),
        lambda params, kind: ts.membership_closed_form(params, kind, 1),
        lambda params, kind: ts.compute_selmer(params, kind),
    ],
    ids=["build_space", "closed_form_local", "membership_closed_form", "compute_selmer"],
)
def test_unknown_kind_is_rejected(call, kind):
    # phi and phi_hat are the only directions; the retired quartic names
    # "C" and "C'" must not pass as either
    with pytest.raises(ValueError, match="kind must be"):
        call(validate_params(1, 3, 5, [7]), kind)


def test_quartic_disc_formula():
    # biquadratic discriminant against the resultant definition on one case
    space = HomogeneousSpace(PHI, 2, 196, -224, 4)
    # disc(a z^4 + b z^2 + c) = 16 a c (4 a c - b^2)^2
    assert space.disc() == 16 * 196 * 4 * (4 * 196 * 4 - 224 * 224) ** 2
