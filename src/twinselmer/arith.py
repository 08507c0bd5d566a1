"""Exact integer kernel: primality, quadratic residue symbols, valuations."""

from __future__ import annotations

import math
import random
from itertools import compress

# Fixed Miller-Rabin witness set: the first 13 primes are deterministic for
# every n below psi_13 = 3317044064679887385961981 (> 2**81; Sorenson-Webster
# 2015).  The first 12 stop at psi_12 = 318665857834031151167461, a strong
# pseudoprime to the bases 2..37.  Above psi_13 we fall back to 40
# pseudo-random rounds seeded by n so results stay reproducible.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981
_MR_ROUNDS = 40
# a composite below 41**2 has a prime factor <= 37, which trial division finds
_TRIAL_DIVISION_BOUND = _MR_WITNESSES[-1] ** 2


def is_prime(n: int) -> bool:
    """Primality test, exact for n < psi_13 (> 2**81) and strongly probabilistic above."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < _TRIAL_DIVISION_BOUND:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if n < _MR_DETERMINISTIC_BOUND:
        witnesses = list(_MR_WITNESSES)
    else:
        rng = random.Random(n)
        witnesses = [rng.randrange(2, n - 1) for _ in range(_MR_ROUNDS)]
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_odd_prime(n: int) -> bool:
    return n >= 3 and n % 2 == 1 and is_prime(n)


def is_twin_pair(p: int, q: int) -> bool:
    """True iff p and q are odd primes with q = p + 2."""
    return q - p == 2 and p >= 3 and is_prime(p) and is_prime(q)


def legendre_symbol(a: int, l: int) -> int:
    """Legendre symbol of a modulo the odd prime l, in {-1, 0, 1}.

    a is reduced mod l first, so negative and composite arguments are fine.
    ValueError when l is not an odd prime: l < 3, l even, or Euler's
    criterion a^((l - 1)/2) landing outside {0, 1, l - 1} (l composite).
    """
    if l < 3 or l % 2 == 0:
        raise ValueError(f"modulus must be an odd prime, got {l}")
    r = pow(a % l, (l - 1) // 2, l)
    if r == l - 1:
        return -1
    if r > 1:
        raise ValueError(f"modulus must be an odd prime, got {l}")
    return r


def _int_valuation(m: int, l: int) -> int:
    """Exponent of the prime l in the nonzero integer m; ValueError when m = 0."""
    if m == 0:
        raise ValueError("0 has no valuation")
    if l == 2:
        return (m & -m).bit_length() - 1  # the lowest set bit, for either sign
    m = abs(m)
    v = 0
    while m % l == 0:
        m //= l
        v += 1
    return v


def _sieve(n: int) -> bytearray:
    """Byte i is 1 if i is prime and 0 if not, for 0 <= i <= max(n, 1)."""
    sieve = bytearray(2) + bytearray([1]) * (n - 1)
    for i in range(2, math.isqrt(max(n, 0)) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return sieve


def primes_up_to(n: int) -> list[int]:
    """Ascending primes <= n by sieve."""
    return list(compress(range(n + 1), _sieve(n)))


def twin_pairs_up_to(n: int) -> list[tuple[int, int]]:
    """Ascending twin pairs (p, p+2) of odd primes, p + 2 <= n; p = 2 fails as 4 is not prime."""
    sieve = _sieve(n)
    return [(p, p + 2) for p in compress(range(n - 1), sieve) if sieve[p + 2]]
