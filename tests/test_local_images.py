"""Local images of the two descents: the oracle's solvable classes against theorems about them.

At each bad place v, the classes where C_d (phi) and C'_d (phi_hat) have
Q_v-points form the local images im_v(phi) and im_v(phi_hat).  Three facts
hold for them and are checked here on the oracle's verdicts:

  * im_v(phi) is the annihilator of im_v(phi_hat) under the Hilbert symbol
    (Cassels, Arithmetic on curves of genus 1, VIII, 1965);
  * |im_v(phi)| * |im_v(phi_hat)| = |Q_v*/Q_v*^2|: 2 at infinity, 8 at 2
    and 4 at an odd prime;
  * the 2-torsion alone fills the local image at infinity and at every D_i,
    and at p and q exactly when (-B | p) = -1 and (-A | q) = -1.

The first two, and the "only when" half of the third, need every class of
Q_v*/Q_v*^2, so they are checked where the basis reaches all of them.  The
"when" half is read on the classes it reaches.
"""

import math
import random
from dataclasses import replace
from functools import cache

from twinselmer.family import INF_PLACE, PHI, PHI_HAT
from twinselmer.selmer import compute_selmer

from helpers import random_instances
from reference_images import (
    hilbert_symbol,
    images_from_span,
    local_order,
    multiplicative_places,
    torsion_filled_places,
    torsion_pairs,
    torsion_span,
)

INSTANCES = random_instances(seed=31, count=200, prime_bound=300, max_n=3)


def _solvable(group, place) -> set[int]:
    return {c for c in group.representatives[place] if group.verdict_table[(place, c)].solvable}


@cache  # shared by the tests below; compute_selmer itself keeps only the last instance
def _groups(params):
    """The phi and phi_hat groups of params, with every reached class decided."""
    groups = compute_selmer(params, PHI), compute_selmer(params, PHI_HAT)
    for group in groups:
        group.local_images()
    return groups


def _annihilator_failures(params, phi, phi_hat) -> tuple[list, int]:
    """(fully reached places where either fact fails, number of fully reached places)."""
    failures, checked = [], 0
    for place in params.places():
        reps = phi.representatives[place]
        if len(reps) != local_order(place):
            continue
        checked += 1
        im_phi, im_hat = _solvable(phi, place), _solvable(phi_hat, place)
        annihilator = {
            c for c, d in reps.items()
            if all(hilbert_symbol(d, reps[e], place) == 1 for e in im_hat)
        }
        if im_phi != annihilator or len(im_phi) * len(im_hat) != local_order(place):
            failures.append(place)
    return failures, checked


def _torsion_failures(params, phi, phi_hat, pairs) -> tuple[list, int]:
    """(places where the span of pairs misreads the oracle, number of places checked)."""
    failures = []
    places = torsion_filled_places(params)
    for place in places:
        reached = set(phi.representatives[place])
        want_phi, want_hat = images_from_span(torsion_span(pairs, place))
        if (_solvable(phi, place), _solvable(phi_hat, place)) != (want_phi & reached, want_hat & reached):
            failures.append(place)
    return failures, len(places)


def test_hilbert_symbol_reference():
    # Serre III.1: symmetric, bilinear, (a, -a) = (a, 1 - a) = 1, and the
    # product over every place of Q is 1
    rng = random.Random(31)
    odd_primes = [l for l in range(3, 501) if all(l % k for k in range(2, math.isqrt(l) + 1))]
    for _ in range(300):
        a, b, c = (rng.choice((-1, 1)) * rng.randint(1, 500) for _ in range(3))
        places = [INF_PLACE, 2, *(l for l in odd_primes if a * b * c % l == 0)]
        for v in places:
            assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
            assert hilbert_symbol(a * c, b, v) == hilbert_symbol(a, b, v) * hilbert_symbol(c, b, v)
            assert hilbert_symbol(a, -a, v) == 1
            if a != 1:
                assert hilbert_symbol(a, 1 - a, v) == 1, (a, v)
        assert math.prod(hilbert_symbol(a, b, v) for v in places) == 1, (a, b)
    assert hilbert_symbol(-1, -1, 2) == hilbert_symbol(-1, -1, INF_PLACE) == -1
    assert hilbert_symbol(3, 3, 3) == -1 and hilbert_symbol(5, 5, 5) == 1


def test_local_images_annihilate_and_fill_the_group():
    checked = 0
    for params in INSTANCES:
        failures, count = _annihilator_failures(params, *_groups(params))
        assert failures == [], (params, failures)
        checked += count
    assert checked > 1000


def test_annihilator_catches_one_flipped_verdict():
    # any single flipped verdict at a fully reached place breaks one of the facts
    flips = 0
    for params in INSTANCES[:10]:
        phi, phi_hat = _groups(params)
        for group in (phi, phi_hat):
            table = group.verdict_table
            for place in params.places():
                if len(group.representatives[place]) != local_order(place):
                    continue
                for c in group.representatives[place]:
                    verdict = table[(place, c)]
                    table[(place, c)] = replace(verdict, solvable=not verdict.solvable)
                    failures, _ = _annihilator_failures(params, phi, phi_hat)
                    table[(place, c)] = verdict
                    assert place in failures, (params, group.kind, place, c)
                    flips += 1
    assert flips > 100


def test_torsion_fills_the_local_image():
    checked = 0
    for params in INSTANCES:
        failures, count = _torsion_failures(params, *_groups(params), torsion_pairs(params))
        assert failures == [], (params, failures)
        checked += count
    assert checked > 500


def test_torsion_falls_short_where_the_symbol_is_one():
    # at p with (-B | p) = +1 and at q with (-A | q) = +1 the torsion spans
    # less than the local image, so the images it reads miss the oracle's
    short = checked = 0
    for params in INSTANCES:
        phi, phi_hat = _groups(params)
        for place in multiplicative_places(params, 1):
            if len(phi.representatives[place]) != local_order(place):
                continue
            checked += 1
            images = images_from_span(torsion_span(torsion_pairs(params), place))
            short += images != (_solvable(phi, place), _solvable(phi_hat, place))
    assert short == checked > 150


def test_torsion_check_catches_a_wrong_torsion_image():
    # (-A, A) in place of (-A, A(A - B)) reads wrong images somewhere
    mismatches = 0
    for params in INSTANCES:
        (ab, a), _, third = torsion_pairs(params)
        failures, _ = _torsion_failures(params, *_groups(params), [(ab, a), (-a, a), third])
        mismatches += len(failures)
    assert mismatches > 0
