"""Local oracle tests: real sign analysis, p-adic digit search, witnesses."""

import itertools
from fractions import Fraction

import pytest

import twinselmer as ts
from twinselmer.family import KIND_C, KIND_CPRIME, HomogeneousSpace, build_space, enumerate_square_classes, validate_params
from twinselmer.localsolve import padic_solvable, real_solvable, square_class_qp

from bruteforce_oracle import brute_padic_solvable
from helpers import random_instances


def test_real_c_kind_sign_rule():
    params = validate_params(1, 3, 5, [7])
    assert real_solvable(build_space(params, 5, KIND_C)).solvable
    assert not real_solvable(build_space(params, -5, KIND_C)).solvable
    # every positive class passes, every negative one fails
    for cls in enumerate_square_classes(params):
        verdict = real_solvable(build_space(params, cls, KIND_C))
        assert verdict.solvable == (cls.value > 0)


def test_real_cprime_always_solvable_plus():
    params = validate_params(1, 3, 5, [7])
    for cls in enumerate_square_classes(params):
        assert real_solvable(build_space(params, cls, KIND_CPRIME)).solvable


def test_real_cprime_sign_rule_minus():
    params = validate_params(-1, 3, 5, [7])
    for cls in enumerate_square_classes(params):
        verdict = real_solvable(build_space(params, cls, KIND_CPRIME))
        assert verdict.solvable == (cls.value > 0)


def test_real_c_kind_minus_always_solvable():
    params = validate_params(-1, 3, 5, [7])
    for cls in enumerate_square_classes(params):
        assert real_solvable(build_space(params, cls, KIND_C)).solvable


def test_real_witness_visible_point():
    params = validate_params(1, 3, 5, [7])
    verdict = real_solvable(build_space(params, -21, KIND_CPRIME))  # d = -p*D
    assert verdict.solvable
    assert verdict.witness == {"type": "rational", "z": Fraction(1), "w": Fraction(0)}


def test_padic_two_adic_congruence_cases():
    # D = 7: 7*(7-8) = -7 = 9 mod 16, so the d=2 curve fails at 2
    params = validate_params(1, 3, 5, [7])
    assert not padic_solvable(build_space(params, 2, KIND_C), 2).solvable
    # D = 77: 77*69 = 1 mod 16, so it passes at 2
    params = validate_params(1, 3, 5, [7, 11])
    assert padic_solvable(build_space(params, 2, KIND_C), 2).solvable


def test_padic_visible_point_all_places():
    params = validate_params(1, 3, 5, [7])
    space = build_space(params, -21, KIND_CPRIME)
    for l in (2, 3, 5, 7):
        verdict = padic_solvable(space, l)
        assert verdict.solvable
        if verdict.witness["type"] == "rational":
            z, w = verdict.witness["z"], verdict.witness["w"]
            assert space.d * w * w == space.g(z)


def test_square_class_qp():
    cls = square_class_qp(18, 2)
    assert (cls.valuation, cls.is_square) == (1, False)
    assert square_class_qp(17, 2).is_square
    assert not square_class_qp(12, 3).is_square
    assert square_class_qp(Fraction(9, 4), 2).is_square
    assert square_class_qp(Fraction(9, 4), 2).valuation == -2


def _check_square_class_certificate(space, l, w):
    # recompute the value at lifts of the certified residue and confirm the
    # square class holds on the whole certified class, not just at the residue
    for j in range(8):
        r = w["residue"] + j * w["modulus"]
        value = space.g(r) * space.d if w["patch"] == 1 else (
            space.d * (space.u0 * r**4 + space.u2 * r**2 + space.u4)
        )
        got = square_class_qp(value, l)
        assert got.valuation == w["valuation"] and got.is_square, (space, l, w, r)


def test_square_class_certificates_check_out():
    params = validate_params(1, 3, 5, [7, 11])
    for d in (7, 11, 77, -77, 2):
        space = build_space(params, d, KIND_C)
        for l in (2, 3, 5, 7, 11):
            verdict = padic_solvable(space, l)
            if verdict.solvable and verdict.witness["type"] == "square_class":
                _check_square_class_certificate(space, l, verdict.witness)


def test_two_adic_generic_quartics_match_bruteforce():
    # the family quartics never leave a unit undetermined mod 8 after one
    # digit; generic even quartics do, and exercise the mod-8 refinement
    grid = itertools.product((1, 3, 5, 7, -1, 2, 6), (1, 3, 5, 2, 4, 12), (0, 1, 2, 3, 6), (1, 3, 5, 2, 4))
    for d, u0, u2, u4 in grid:
        space = HomogeneousSpace(KIND_C, d, u4, u2, u0)
        if space.disc() == 0:
            continue
        verdict = padic_solvable(space, 2)
        assert verdict.solvable == brute_padic_solvable(space, 2), space
        if verdict.solvable and verdict.witness["type"] == "square_class":
            _check_square_class_certificate(space, 2, verdict.witness)


def test_oracle_matches_bruteforce_small():
    small = random_instances(seed=1001, count=4, prime_bound=50)
    cases = [(params, params.places()[1:]) for params in small]
    # the brute force is cheap at l = 2, so that place also gets larger instances
    wide = random_instances(seed=1003, count=6, prime_bound=400, max_n=4)
    cases += [(params, (2,)) for params in wide]
    for params, places in cases:
        for kind in (KIND_C, KIND_CPRIME):
            for cls in enumerate_square_classes(params):
                space = build_space(params, cls, kind)
                for place in places:
                    assert (
                        padic_solvable(space, place).solvable
                        == brute_padic_solvable(space, place)
                    ), (params.label(), kind, cls.value, place)


def test_good_primes_always_solvable():
    # places outside the bad set never obstruct
    params = validate_params(1, 3, 5, [7])
    bad = set(params.places()[1:])
    for cls in (1, 2, -1, 7, -35, 105):
        space = build_space(params, cls, KIND_C)
        for l in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            assert l not in bad
            assert padic_solvable(space, l).solvable, (cls, l)


def test_reciprocal_symmetry():
    # swapping z <-> 1/z gives the reversed quartic and the same verdict
    for params in random_instances(seed=77, count=4, prime_bound=50):
        for kind in (KIND_C, KIND_CPRIME):
            for d in (params.D, -params.D, 2 * params.p, params.d_primes[0]):
                space = build_space(params, ts.class_of_integer(params, d), kind)
                flipped = HomogeneousSpace(space.kind, space.d, space.u0, space.u2, space.u4)
                if flipped.disc() == 0:
                    continue
                for place in params.places()[1:]:
                    assert (
                        padic_solvable(space, place).solvable
                        == padic_solvable(flipped, place).solvable
                    )


def test_unsolvable_records_depth():
    params = validate_params(1, 3, 5, [7])
    verdict = padic_solvable(build_space(params, 2, KIND_C), 2)
    assert not verdict.solvable and verdict.witness is None
    # an exhausted search reaches depth >= 2: both patches are searched and
    # patch 2 starts one digit deep
    assert verdict.search_depth >= 2
    assert verdict.search_depth == 2  # the depth this engine reaches


def test_padic_rejects_bad_prime():
    params = validate_params(1, 3, 5, [7])
    with pytest.raises(ValueError):
        padic_solvable(build_space(params, 2, KIND_C), 1)
