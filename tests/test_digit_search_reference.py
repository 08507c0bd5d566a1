"""The digit search against the residue-scan reference: same verdict, witness and depth.

padic_solvable decides a disc whose non-constant coefficients all vanish mod
m (l, or 8 at l = 2) from the residue 0 alone, and tests each unit with
local_class.  reference_digit_search scans every residue against a table of
squares.  Both must return the same LocalVerdict on every input.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import twinselmer as ts
from twinselmer.arith import is_odd_prime, twin_pairs_up_to
from twinselmer.family import PHI, PHI_HAT, HomogeneousSpace, build_space, validate_params
from twinselmer.localsolve import OracleUndecidedError, padic_solvable
from twinselmer.selmer import compute_selmer

from helpers import TWO_ADIC_GRID, random_instances
from reference_digit_search import reference_padic_solvable


def _outcome(search, space, l):
    try:
        return search(space, l)
    except OracleUndecidedError:
        return "undecided"


def _assert_same(space, l):
    got = _outcome(padic_solvable, space, l)
    want = _outcome(reference_padic_solvable, space, l)
    assert got == want, (space, l, got, want)


def _check_reached_classes(params, places=None):
    """Compare at every finite place (or those given) on every class the basis reaches."""
    for kind in (PHI, PHI_HAT):
        for (place, _), entry in compute_selmer(params, kind).local_images().items():
            if place != ts.INF_PLACE and (places is None or place in places):
                _assert_same(build_space(params, entry.d, kind), place)


def test_reached_classes_match_on_random_instances():
    # l = 2 and odd l < 300 at every bad place
    for params in random_instances(seed=2719, count=24, prime_bound=300, max_n=3):
        _check_reached_classes(params)


def test_one_prime_instances_match_at_the_large_place():
    rng = random.Random(5003)
    twins = twin_pairs_up_to(200)
    big = [r for r in range(1001, 5000, 2) if is_odd_prime(r)]
    for _ in range(12):
        p, q = rng.choice(twins)
        D = rng.choice(big)
        _check_reached_classes(validate_params(rng.choice((1, -1)), p, q, [D]), places=(D,))


def test_two_adic_generic_quartics_match():
    for d, u0, u2, u4 in TWO_ADIC_GRID:
        space = HomogeneousSpace(PHI, d, u4, u2, u0)
        if space.disc() != 0:
            _assert_same(space, 2)


_SMALL = st.integers(-40, 40)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_SMALL.filter(bool), _SMALL, _SMALL, _SMALL, st.sampled_from((2, 3, 5, 7, 11, 13)))
def test_even_quartics_match(d, u4, u2, u0, l):
    space = HomogeneousSpace(PHI, d, u4, u2, u0)
    if space.disc() != 0:
        _assert_same(space, l)


_UNIT = st.integers(-40, 40).filter(bool)
_POWER = st.integers(0, 8)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    st.sampled_from((2, 3, 5, 7)),
    st.tuples(_UNIT, _POWER),
    st.tuples(_UNIT, _POWER),
    st.one_of(st.just((0, 0)), st.tuples(_UNIT, _POWER)),
    st.tuples(_UNIT, _POWER),
)
def test_even_quartics_match_at_depth(l, d, u4, u2, u0):
    # each coefficient and d carry up to l^8, so both patch contents and the
    # re-centred contents run deep; u2 = 0 leaves the content to u0 and u4
    d, u4, u2, u0 = (x * l**k for x, k in (d, u4, u2, u0))
    space = HomogeneousSpace(PHI, d, u4, u2, u0)
    if space.disc() != 0:
        _assert_same(space, l)
