"""Local oracle tests: local square classes, real sign analysis, p-adic digit search, witnesses."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twinselmer as ts
from twinselmer import localsolve
from twinselmer.arith import _int_valuation, primes_up_to, twin_pairs_up_to
from twinselmer.family import PHI, PHI_HAT, HomogeneousSpace, build_space, enumerate_square_classes, validate_params
from twinselmer.localsolve import (
    OracleUndecidedError,
    class_label,
    local_class,
    local_verdict,
    padic_solvable,
    real_solvable,
)
from twinselmer.selmer import compute_selmer

from bruteforce_oracle import brute_padic_solvable
from helpers import TWO_ADIC_GRID, random_instances

# derandomized, so every run draws the same examples
_PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)
_PRIMES = primes_up_to(200)
_PLACES = st.sampled_from([ts.INF_PLACE, *_PRIMES])
_NONZERO = st.integers(-(10**6), 10**6).filter(bool)
_SMALL_NONZERO = st.integers(-(10**4), 10**4).filter(bool)


def test_real_c_kind_sign_rule():
    params = validate_params(1, 3, 5, [7])
    assert real_solvable(build_space(params, 5, PHI)).solvable
    assert not real_solvable(build_space(params, -5, PHI)).solvable
    # every positive class passes, every negative one fails
    for d in enumerate_square_classes(params):
        verdict = real_solvable(build_space(params, d, PHI))
        assert verdict.solvable == (d > 0)


def test_real_cprime_always_solvable_plus():
    params = validate_params(1, 3, 5, [7])
    for d in enumerate_square_classes(params):
        assert real_solvable(build_space(params, d, PHI_HAT)).solvable


def test_real_cprime_sign_rule_minus():
    params = validate_params(-1, 3, 5, [7])
    for d in enumerate_square_classes(params):
        verdict = real_solvable(build_space(params, d, PHI_HAT))
        assert verdict.solvable == (d > 0)


def test_real_c_kind_minus_always_solvable():
    params = validate_params(-1, 3, 5, [7])
    for d in enumerate_square_classes(params):
        assert real_solvable(build_space(params, d, PHI)).solvable


def test_real_witness_visible_point():
    params = validate_params(1, 3, 5, [7])
    space = build_space(params, -21, PHI_HAT)  # d = -p*D, point (1, 0)
    verdict = real_solvable(space)
    assert verdict.solvable
    # the sign rule decides it: s = z^2 at the vertex, where d*g(s) >= 0
    assert verdict.witness["type"] == "real_sign"
    s = verdict.witness["s"]
    assert s >= 0
    assert space.d * (space.u4 * s * s + space.u2 * s + space.u0) >= 0


def test_padic_two_adic_congruence_cases():
    # D = 7: 7*(7-8) = -7 = 9 mod 16, so the d=2 curve fails at 2
    params = validate_params(1, 3, 5, [7])
    assert not padic_solvable(build_space(params, 2, PHI), 2).solvable
    # D = 77: 77*69 = 1 mod 16, so it passes at 2
    params = validate_params(1, 3, 5, [7, 11])
    assert padic_solvable(build_space(params, 2, PHI), 2).solvable


def test_padic_visible_point_all_places():
    params = validate_params(1, 3, 5, [7])
    space = build_space(params, -21, PHI_HAT)
    for l in (2, 3, 5, 7):
        verdict = padic_solvable(space, l)
        assert verdict.solvable
        if verdict.witness["type"] == "rational":
            z, w = verdict.witness["z"], verdict.witness["w"]
            assert space.d * w * w == space.g(z)


def test_local_class():
    assert local_class(18, 2) == 0b001  # 2 * 9, and 9 = 1 mod 8 is a square
    assert local_class(17, 2) == 0
    assert local_class(-7, 2) == 0  # -7 = 1 mod 8
    assert local_class(5, 2) == 0b100
    assert local_class(36, 2) == 0
    assert local_class(12, 3) == 0b01  # 3 * 4
    assert local_class(3, 11) == 0  # 3 = 5^2 mod 11
    assert local_class(2, 11) == 0b10
    assert local_class(-5, ts.INF_PLACE) == 1


def test_local_class_rejects_bad_input():
    for place in (ts.INF_PLACE, 2, 3, 101):
        with pytest.raises(ValueError):
            local_class(0, place)
    for place in (1, 0, -3):
        with pytest.raises(ValueError):
            local_class(5, place)


@_PROPERTY
@given(_NONZERO, _NONZERO, _PLACES)
def test_local_class_is_a_homomorphism(a, b, place):
    assert local_class(a * b, place) == local_class(a, place) ^ local_class(b, place)


@_PROPERTY
@given(_NONZERO, _PLACES)
def test_local_class_kills_squares(y, place):
    assert local_class(y * y, place) == 0


@_PROPERTY
@given(_NONZERO, _PLACES)
@example(-10, 2)  # the largest class at each kind of place: 7, 3 and 1
@example(6, 3)
@example(-1, ts.INF_PLACE)
def test_local_class_fits_below_the_survivor_tag(x, place):
    # the selmer kernel packs a survivor's tag above bit 2 of its local class
    assert 0 <= local_class(x, place) < {ts.INF_PLACE: 2, 2: 8}.get(place, 4) <= 8


@_PROPERTY
@given(_PLACES)
def test_local_class_image_is_the_whole_group(place):
    # Q_v*/Q_v*^2 has 2 classes at infinity, 4 at odd l and 8 at 2, and
    # 8 * l integers either side of 0 reach every one of them
    m = 8 * (1 if place == ts.INF_PLACE else place)
    image = {local_class(x, place) for x in range(-m, m + 1) if x}
    size = {ts.INF_PLACE: 2, 2: 8}.get(place, 4)
    assert image == set(range(size)), (place, image)


def reference_label(d: int, place) -> str:
    """Seed-table label of d at place, from the valuation and squares mod l or mod 8."""
    if place == ts.INF_PLACE:
        return "sign=-1" if d < 0 else "sign=+1"
    v = 0
    while d % place == 0:
        d //= place
        v += 1
    if place == 2:
        tag = d % 8
    else:
        tag = 1 if d % place in {x * x % place for x in range(1, place)} else -1
    return f"val={v % 2},unit={tag}"


def test_labels_match_reference():
    for params in random_instances(seed=4242, count=12, prime_bound=200, max_n=3):
        for kind in (ts.PHI, ts.PHI_HAT):
            images = compute_selmer(params, kind).local_images()
            labels = {}
            for (place, c), entry in images.items():
                want = reference_label(entry.d, place)
                assert class_label(entry.d, place) == entry.label == want, (params, place, entry.d)
                labels.setdefault(place, set()).add(entry.label)
            # distinct classes at a place get distinct labels
            for place in params.places():
                assert len(labels[place]) == sum(1 for (v, _) in images if v == place)


@st.composite
def _instances(draw):
    eps = draw(st.sampled_from((1, -1)))
    p, q = draw(st.sampled_from(twin_pairs_up_to(60)))
    pool = [r for r in _PRIMES if 2 < r < 60 and r not in (p, q)]
    ds = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True))
    return validate_params(eps, p, q, ds)


def _local_square(place, y: int, k: int) -> int:
    """y^2 times a square of Q_v* that need not be a square of Q."""
    if place == ts.INF_PLACE:
        return y * y * (abs(k) + 1)
    # 1 + 8k is a square in Z_2, and 1 + l*k a square in Z_l
    return y * y * (1 + (8 if place == 2 else place) * k)


def _solvable(params, d, kind, place) -> bool:
    return local_verdict(build_space(params, d, kind), place).solvable


@_PROPERTY
@given(st.data())
def test_verdict_is_constant_on_local_classes(data):
    params = data.draw(_instances())
    kind = data.draw(st.sampled_from((ts.PHI, ts.PHI_HAT)))
    place = data.draw(st.sampled_from(params.places()))
    d = data.draw(_SMALL_NONZERO)
    y = data.draw(st.integers(1, 100))
    u = _local_square(place, y, data.draw(st.integers(-(10**3), 10**3).filter(bool)))
    assert u != 0 and local_class(u, place) == 0
    assert _solvable(params, d, kind, place) == _solvable(params, d * u, kind, place)


@_PROPERTY
@given(st.data())
def test_solvable_classes_form_a_subgroup(data):
    params = data.draw(_instances())
    kind = data.draw(st.sampled_from((ts.PHI, ts.PHI_HAT)))
    place = data.draw(st.sampled_from(params.places()))
    a = data.draw(_SMALL_NONZERO)
    b = data.draw(_SMALL_NONZERO)
    assert _solvable(params, 1, kind, place)
    if _solvable(params, a, kind, place) and _solvable(params, b, kind, place):
        assert _solvable(params, a * b, kind, place)


def _check_square_class_certificate(space, l, w):
    # recompute the value at lifts of the certified residue and confirm the
    # square class holds on the whole certified class, not just at the residue
    for j in range(8):
        r = w["residue"] + j * w["modulus"]
        value = space.g(r) * space.d if w["patch"] == 1 else (
            space.d * (space.u0 * r**4 + space.u2 * r**2 + space.u4)
        )
        assert _int_valuation(value, l) == w["valuation"] and local_class(value, l) == 0, (space, l, w, r)


def test_square_class_certificates_check_out():
    params = validate_params(1, 3, 5, [7, 11])
    for d in (7, 11, 77, -77, 2):
        space = build_space(params, d, PHI)
        for l in (2, 3, 5, 7, 11):
            verdict = padic_solvable(space, l)
            if verdict.solvable and verdict.witness["type"] == "square_class":
                _check_square_class_certificate(space, l, verdict.witness)


def test_two_adic_generic_quartics_match_bruteforce():
    # generic even quartics exercise the mod-8 refinement
    for d, u0, u2, u4 in TWO_ADIC_GRID:
        space = HomogeneousSpace(PHI, d, u4, u2, u0)
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
        for kind in (PHI, PHI_HAT):
            for d in enumerate_square_classes(params):
                space = build_space(params, d, kind)
                for place in places:
                    assert (
                        padic_solvable(space, place).solvable
                        == brute_padic_solvable(space, place)
                    ), (params.label(), kind, d, place)


def test_good_primes_always_solvable():
    # places outside the bad set never obstruct
    params = validate_params(1, 3, 5, [7])
    bad = set(params.places()[1:])
    for cls in (1, 2, -1, 7, -35, 105):
        space = build_space(params, cls, PHI)
        for l in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            assert l not in bad
            assert padic_solvable(space, l).solvable, (cls, l)


def test_reciprocal_symmetry():
    # swapping z <-> 1/z gives the reversed quartic and the same verdict
    for params in random_instances(seed=77, count=4, prime_bound=50):
        for kind in (PHI, PHI_HAT):
            for d in (params.D, -params.D, 2 * params.p, params.d_primes[0]):
                space = build_space(params, d, kind)
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
    verdict = padic_solvable(build_space(params, 2, PHI), 2)
    assert not verdict.solvable and verdict.witness is None
    # an exhausted search reaches depth >= 2: both patches are searched and
    # patch 2 starts one digit deep
    assert verdict.search_depth >= 2
    assert verdict.search_depth == 2  # the depth this engine reaches


@pytest.mark.parametrize("l", [2, 7])
def test_depth_cap_raises_through_the_real_oracle(monkeypatch, l):
    # a margin this low puts the cap at or below depth 0, where the search starts
    monkeypatch.setattr(localsolve, "_DEPTH_MARGIN", -1000)
    params = validate_params(1, 3, 5, [7])
    for d in (1, 2, 7, -35):
        with pytest.raises(OracleUndecidedError, match=rf"depth cap -\d+ exceeded at l={l} on "):
            padic_solvable(build_space(params, d, PHI), l)


def test_padic_rejects_bad_prime():
    params = validate_params(1, 3, 5, [7])
    with pytest.raises(ValueError):
        padic_solvable(build_space(params, 2, PHI), 1)
    # odd composites, 561 a Carmichael number: none is a place to answer for
    space = build_space(validate_params(1, 3, 5, [61]), 61, PHI)
    for l in (9, 15, 21, 561):
        with pytest.raises(ValueError, match="not a prime"):
            padic_solvable(space, l)


# g = (z^2 + 1)^2 has disc = 0; d = 0 is no square class
@pytest.mark.parametrize("space", [HomogeneousSpace(PHI, 1, 1, 2, 1), HomogeneousSpace(PHI, 0, 1, 3, 1)])
@pytest.mark.parametrize("l", [2, 3])
def test_padic_rejects_a_degenerate_quartic(space, l):
    with pytest.raises(ValueError, match="degenerate quartic"):
        padic_solvable(space, l)


def test_real_rejects_d_zero():
    with pytest.raises(ValueError, match="degenerate quartic"):
        real_solvable(HomogeneousSpace(PHI, 0, 1, 3, 1))


@pytest.mark.parametrize("space", [HomogeneousSpace(PHI, 1, 1, 2, 1), HomogeneousSpace(PHI, 1, 0, 3, 1)])
def test_real_rejects_a_separability_failure(space):
    # (z^2 + 1)^2, and a quartic with u4 = 0: both have disc = 0
    with pytest.raises(ValueError, match="degenerate quartic"):
        real_solvable(space)


def test_real_reads_the_signs_of_u4_and_u0():
    # d*g(0) = 3 > 0 although d < 0
    verdict = real_solvable(HomogeneousSpace(PHI, -1, 1, 5, -3))
    assert verdict.solvable and verdict.witness == {"type": "real_sign", "s": 0}
    # g = -z^4 - 1 < 0 everywhere, so d = 1 has no real point
    assert not real_solvable(HomogeneousSpace(PHI, 1, -1, 0, -1)).solvable


def test_real_matches_a_grid_scan():
    # s = k/64 for k <= 640 holds s = 0 and the point s <= 9 past which d*g
    # keeps the sign of d*u4; every vertex lies within 1/128 of the grid,
    # where a positive maximum (at least 1/16) drops by at most 1/1024
    checked = 0
    for d, u4, u2, u0 in itertools.product(range(-4, 5), repeat=4):
        space = HomogeneousSpace(PHI, d, u4, u2, u0)
        if d == 0 or space.disc() == 0:
            continue
        scan = any(d * (u4 * k * k + 64 * u2 * k + 4096 * u0) >= 0 for k in range(641))
        verdict = real_solvable(space)
        assert verdict.solvable == scan, space
        if scan:
            s = verdict.witness["s"]
            assert s >= 0 and d * ((u4 * s + u2) * s + u0) >= 0, space
        checked += 1
    assert checked > 4000
