"""Shared test utilities: deterministic random instance generation."""

from __future__ import annotations

import random

import twinselmer as ts


def random_instances(seed: int, count: int, prime_bound: int = 300, max_n: int = 3):
    """Deterministic list of valid family parameters under the given bounds."""
    rng = random.Random(seed)
    twins = [t for t in ts.arith.twin_pairs_up_to(prime_bound) if t[1] < prime_bound]
    pool = [r for r in ts.arith.primes_up_to(prime_bound) if r >= 3]
    out = []
    for _ in range(count):
        eps = rng.choice([1, -1])
        p, q = rng.choice(twins)
        n = rng.randint(1, max_n)
        ds = rng.sample([r for r in pool if r not in (p, q)], n)
        out.append(ts.validate_params(eps, p, q, ds))
    return out


# find_family(eps, id, n, 500) for every sieveable catalog entry and n = 1, 2:
# the smallest hits in the sieve's order (twin pairs, then D primes ascending)
SEARCH_HITS = {
    ("1.2A", 1): (3, 5, (61,)),
    ("1.2A", 2): (3, 5, (61, 109)),
    ("1.2B", 1): (3, 5, (61,)),
    ("1.2B", 2): (3, 5, (61, 109)),
    ("1.2C", 1): (71, 73, (89,)),
    ("1.2C", 2): (191, 193, (97, 241)),
    ("1.4ex", 1): (3, 5, (41,)),
    ("1.4ex", 2): (3, 5, (41, 73)),
    ("1.5A", 1): (5, 7, (29,)),
    ("1.5A", 2): (3, 5, (61, 109)),
    ("1.5B", 1): (71, 73, (89,)),
    ("1.5B", 2): (191, 193, (97, 241)),
    ("1.7A", 1): (3, 5, (11,)),
    ("1.7A", 2): (3, 5, (11, 181)),
    ("1.7B", 1): (17, 19, (59,)),
    ("1.7B", 2): (17, 19, (59, 137)),
    ("1.9ex", 1): (3, 5, (41,)),
    ("1.9ex", 2): (3, 5, (41, 73)),
    ("1.10A", 1): (17, 19, (101,)),
    ("1.10A", 2): (3, 5, (61, 109)),
    ("1.10B", 1): (17, 19, (137,)),
    ("1.10B", 2): (41, 43, (337, 353)),
}
