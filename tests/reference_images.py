"""Reference facts about the local images of the two descents, independent of the oracle.

hilbert_symbol is the Hilbert symbol (a, b)_v by Serre's formulas (A Course
in Arithmetic III.1): at infinity, at an odd prime l and at 2.

The family curve is E: y^2 = x(x + A)(x + B) with A = eps*p*D and
B = eps*q*D.  A point P of E maps to the pair of square classes
(x, x + A); torsion_pairs gives the three 2-torsion points' pairs, with the
vanishing coordinate replaced as usual (Silverman, AEC X.1.4).  At a place
where the span W of their local classes is the whole local image, the
phi_hat-solvable classes are the first coordinates of W, and the
phi-solvable classes the c2 with (1, c2) in W.  Pairs are packed
c1 | c2 << 3, each coordinate a localsolve.local_class.
"""

from __future__ import annotations

from twinselmer.family import INF_PLACE, FamilyParams
from twinselmer.localsolve import local_class

# |Q_v*/Q_v*^2| at infinity, at 2 and at an odd prime
LOCAL_ORDER = {INF_PLACE: 2, 2: 8}


def local_order(place) -> int:
    return LOCAL_ORDER.get(place, 4)


def _split(x: int, l: int) -> tuple[int, int]:
    """(v_l(x), x / l^v_l(x)) for a nonzero integer x."""
    v = 0
    while x % l == 0:
        x //= l
        v += 1
    return v, x


def legendre(u: int, l: int) -> int:
    """(u | l) for an odd prime l not dividing u, by Euler's criterion."""
    return 1 if pow(u, (l - 1) // 2, l) == 1 else -1


def hilbert_symbol(a: int, b: int, place) -> int:
    """(a, b)_v for nonzero integers a, b: +1 when z^2 = a*x^2 + b*y^2 has a nonzero point over Q_v."""
    if a == 0 or b == 0:
        raise ValueError("the Hilbert symbol needs nonzero arguments")
    if place == INF_PLACE:
        return -1 if a < 0 and b < 0 else 1
    alpha, u = _split(a, place)
    beta, v = _split(b, place)
    if place == 2:
        # (-1)^(e(u)e(v) + alpha*w(v) + beta*w(u)), e(u) = (u - 1)/2, w(u) = (u^2 - 1)/8 mod 2
        e_u, e_v = u % 4 == 3, v % 4 == 3
        w_u, w_v = u % 8 in (3, 5), v % 8 in (3, 5)
        return -1 if (e_u and e_v) ^ (alpha & w_v) ^ (beta & w_u) else 1
    # (-1)^(alpha*beta*(l - 1)/2) * (u | l)^beta * (v | l)^alpha
    sign = -1 if alpha & beta & 1 and place % 4 == 3 else 1
    return sign * legendre(u, place) ** beta * legendre(v, place) ** alpha


def _a_b(params: FamilyParams) -> tuple[int, int]:
    return params.epsilon * params.p * params.D, params.epsilon * params.q * params.D


def torsion_pairs(params: FamilyParams) -> list[tuple[int, int]]:
    """(x, x + A) of the 2-torsion points (0, 0), (-A, 0) and (-B, 0), a zero entry replaced."""
    A, B = _a_b(params)
    return [(A * B, A), (-A, A * (A - B)), (-B, A - B)]


def multiplicative_places(params: FamilyParams, symbol: int) -> list[int]:
    """p when (-B | p) = symbol and q when (-A | q) = symbol; E has multiplicative reduction at both."""
    A, B = _a_b(params)
    return [l for l, c in ((params.p, -B), (params.q, -A)) if legendre(c, l) == symbol]


def torsion_filled_places(params: FamilyParams) -> list:
    """Places where the torsion pairs span the whole local image.

    Infinity and every D_i, where E has additive reduction with E[2]
    rational; p when (-B | p) = -1 and q when (-A | q) = -1, where the
    reduction is multiplicative.  At p and q with symbol +1 they do not.
    """
    return [INF_PLACE, *params.d_primes, *multiplicative_places(params, -1)]


def torsion_span(pairs, place) -> set[int]:
    """The GF(2) span of the pairs' local classes at place, packed c1 | c2 << 3."""
    span = {0}
    for x, y in pairs:
        w = local_class(x, place) | local_class(y, place) << 3
        span |= {s ^ w for s in span}
    return span


def images_from_span(span) -> tuple[set[int], set[int]]:
    """(phi-solvable, phi_hat-solvable) local classes read off a local image W."""
    return {w >> 3 for w in span if w & 7 == 0}, {w & 7 for w in span}
