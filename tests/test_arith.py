"""Integer kernel tests: symbols, primality, CRT."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinselmer import arith

from reference_digit_search import _int_valuation as division_valuation


def squares_mod(l):
    return {x * x % l for x in range(1, l)}


def test_legendre_examples():
    assert arith.legendre_symbol(2, 7) == 1
    assert arith.legendre_symbol(14, 7) == 0
    # oracle: enumerate squares mod 7
    assert 3 not in squares_mod(7)
    assert arith.legendre_symbol(3, 7) == -1


def test_legendre_matches_enumeration():
    for l in arith.primes_up_to(100):
        if l == 2:
            continue
        sq = squares_mod(l)
        for a in range(l):
            want = 0 if a == 0 else (1 if a in sq else -1)
            assert arith.legendre_symbol(a, l) == want


def test_legendre_negative_arguments():
    # (-1|l) depends only on l mod 4
    for l in (3, 5, 7, 11, 13, 17, 19, 23):
        want = 1 if l % 4 == 1 else -1
        assert arith.legendre_symbol(-1, l) == want


def test_legendre_multiplicative():
    rng = random.Random(42)
    primes = [l for l in arith.primes_up_to(1000) if l > 2]
    for _ in range(300):
        l = rng.choice(primes)
        a, b = rng.randrange(-50, 50), rng.randrange(-50, 50)
        assert arith.legendre_symbol(a * b, l) == arith.legendre_symbol(
            a, l
        ) * arith.legendre_symbol(b, l)


def test_quadratic_reciprocity_exhaustive():
    odd = [l for l in arith.primes_up_to(200) if l > 2]
    for l in odd:
        for m in odd:
            if l == m:
                continue
            lhs = arith.legendre_symbol(l, m) * arith.legendre_symbol(m, l)
            rhs = (-1) ** (((l - 1) // 2) * ((m - 1) // 2))
            assert lhs == rhs


def test_euler_criterion():
    rng = random.Random(7)
    primes = [l for l in arith.primes_up_to(500) if l > 2]
    for _ in range(200):
        l = rng.choice(primes)
        a = rng.randrange(1, l)
        assert arith.legendre_symbol(a, l) % l == pow(a, (l - 1) // 2, l)


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        arith.legendre_symbol(3, 4)
    # odd composites whose Euler value 2^4 = 7 mod 9 and 5^7 = 5 mod 15 is no symbol
    for a, l in ((2, 9), (5, 15)):
        with pytest.raises(ValueError, match="odd prime"):
            arith.legendre_symbol(a, l)


@pytest.mark.parametrize("l", [2, 3])
def test_valuation_of_zero_raises(l):
    with pytest.raises(ValueError):
        arith._int_valuation(0, l)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(-(2**200), 2**200).filter(bool) | st.integers(-64, 64).filter(bool))
def test_two_adic_valuation_is_the_division_loop(m):
    # the lowest-bit rule at l = 2, on either sign and far beyond a machine word
    assert arith._int_valuation(m, 2) == division_valuation(m, 2)
    assert arith._int_valuation(m << 37, 2) == division_valuation(m, 2) + 37


def test_odd_valuation_examples():
    assert arith._int_valuation(-3**7 * 10, 3) == 7
    assert arith._int_valuation(5**40 * 7, 5) == 40
    assert arith._int_valuation(11, 7) == 0


def test_is_twin_pair():
    assert arith.is_twin_pair(3, 5)
    assert not arith.is_twin_pair(5, 9)
    assert not arith.is_twin_pair(7, 11)
    assert not arith.is_twin_pair(2, 4)
    assert arith.is_twin_pair(101, 103)


def test_is_prime_small_exhaustive():
    sieve = set(arith.primes_up_to(2000))
    for n in range(-3, 2000):
        assert arith.is_prime(n) == (n in sieve)


def test_is_prime_large():
    assert arith.is_prime(2**61 - 1)  # Mersenne prime
    assert not arith.is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert arith.is_prime(10**18 + 9)
    # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to every base 2..37:
    # the witnesses need 41 to be exact up to the deterministic bound psi_13
    assert not arith.is_prime(318665857834031151167461)
    assert arith.is_prime(798330580441) and arith.is_prime(399165290221)
    # above the deterministic witness bound: a known 82-digit prime shape
    assert arith.is_prime(2**271 - 169)
    assert not arith.is_prime((2**89 - 1) * (2**107 - 1))


def test_twin_pairs_table():
    pairs = arith.twin_pairs_up_to(100)
    assert pairs[0] == (3, 5)
    assert (71, 73) in pairs
    assert all(arith.is_twin_pair(p, q) for p, q in pairs)
    for n in (*range(-2, 12), 100, 101, 10**4):
        scan = [r for r in range(n + 1) if arith.is_prime(r)]
        assert arith.primes_up_to(n) == scan, n
        assert arith.twin_pairs_up_to(n) == [(r, r + 2) for r in scan if r > 2 and r + 2 in scan], n
    assert len(arith.twin_pairs_up_to(10**6)) == 8169
