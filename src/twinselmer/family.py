"""Curve-family parameters, square classes on the bad-place basis, and descent quartics.

The family is y^2 = x(x + eps*p*D)(x + eps*q*D) for a twin-prime pair
(p, q) and D a squarefree product of further odd primes.  A square class is
its signed squarefree integer d supported on the basis (-1, 2, p, q,
D_1..D_n).  Its exponent bits (bit j is the exponent of basis()[j]) are the
GF(2) coordinates of the selmer kernel; FamilyParams.value and
class_of_integer convert between the two.  Membership of d in the phi or
the phi_hat Selmer group is tested through an even quartic curve
d*w^2 = g(z), C_d or C'_d, whose coefficients are built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

from . import arith

INF_PLACE = "inf"

# The two descent directions: phi is tested on the quartics C_d (leading
# coefficient 4*D^2), phi_hat on the quartics C'_d (leading coefficient p*q*D^2).
PHI = "phi"
PHI_HAT = "phi_hat"


def check_kind(kind: str) -> str:
    """kind itself when it is PHI or PHI_HAT; ValueError for any other value."""
    if kind not in (PHI, PHI_HAT):
        raise ValueError(f"kind must be {PHI!r} or {PHI_HAT!r}, got {kind!r}")
    return kind


class InvalidParamsError(ValueError):
    """Rejected family parameters."""


@dataclass(frozen=True)
class FamilyParams:
    """Validated family data (eps, p, q, D_1..D_n); build via validate_params."""

    epsilon: int
    p: int
    q: int
    d_primes: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.d_primes)

    @cached_property  # build_space reads it for every decided class
    def D(self) -> int:
        return prod(self.d_primes)

    def dhat(self, i: int) -> int:
        """D with the i-th prime removed (i is 1-based); 1 when n = 1."""
        return self.D // self.d_primes[i - 1]

    def basis(self) -> tuple[int, ...]:
        return (-1, 2, self.p, self.q) + self.d_primes

    def value(self, bits: int) -> int:
        """The class with these exponent bits on basis(), as its signed squarefree integer."""
        v = 1
        for j, b in enumerate(self.basis()):
            if (bits >> j) & 1:
                v *= b
        return v

    def places(self) -> list:
        """Bad places in evaluation order: infinity, 2, p, q, then D_i ascending."""
        return [INF_PLACE, 2, self.p, self.q] + sorted(self.d_primes)

    def label(self) -> str:
        ds = ",".join(str(x) for x in self.d_primes)
        return f"eps={'+' if self.epsilon == 1 else '-'}1 p={self.p} q={self.q} D={ds}"

    def as_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "p": self.p,
            "q": self.q,
            "d_primes": list(self.d_primes),
        }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def validate_params(epsilon: int, p: int, q: int, d_primes) -> FamilyParams:
    """Validate (eps, p, q, D_1..D_n) and return FamilyParams; raise on bad input.

    Every value must be an int: a float, a bool or a string is rejected, not converted.
    """
    if not _is_int(epsilon) or epsilon not in (1, -1):
        raise InvalidParamsError(f"epsilon must be +1 or -1, got {epsilon!r}")
    if not (_is_int(p) and _is_int(q) and arith.is_twin_pair(p, q)):
        raise InvalidParamsError(f"({p!r}, {q!r}) is not a twin pair of odd primes")
    try:
        # a str or bytes iterates over characters or byte values, never the D primes given
        ds = None if isinstance(d_primes, (str, bytes, bytearray)) else tuple(d_primes)
    except TypeError:
        ds = None
    if ds is None:
        raise InvalidParamsError(f"D primes must be an iterable of ints, got {d_primes!r}")
    if not ds:
        raise InvalidParamsError("at least one prime D_i is required")
    for x in ds:
        if not _is_int(x):
            raise InvalidParamsError(f"D_i must be ints, got {x!r}")
    if len(set(ds)) != len(ds):
        raise InvalidParamsError(f"D primes must be distinct, got {ds}")
    for x in ds:
        if not arith.is_odd_prime(x):
            raise InvalidParamsError(f"D_i must be odd primes, got {x}")
        if x in (p, q):
            raise InvalidParamsError(f"D_i must avoid p and q, got {x}")
    return FamilyParams(epsilon, p, q, ds)


def class_of_integer(params: FamilyParams, m: int) -> int:
    """Exponent bits of a signed squarefree integer supported on the basis; params.value inverts it."""
    if m == 0:
        raise ValueError("0 has no square class")
    basis = params.basis()
    bits, rest = (1, -m) if m < 0 else (0, m)
    for j, b in enumerate(basis[1:], start=1):
        if rest % b == 0:
            bits |= 1 << j
            rest //= b
    if rest != 1:
        raise ValueError(f"{m} is not squarefree over the basis {basis}")
    return bits


def enumerate_square_classes(params: FamilyParams) -> list[int]:
    """All 2^(n+4) square classes, in ascending bit order (byte-stable)."""
    return [params.value(bits) for bits in range(1 << (params.n + 4))]


@dataclass(frozen=True)
class HomogeneousSpace:
    """Descent curve d*w^2 = u4*z^4 + u2*z^2 + u0 with exact integer data; kind is PHI or PHI_HAT."""

    kind: str
    d: int
    u4: int
    u2: int
    u0: int

    def g(self, z):
        z2 = z * z
        return (self.u4 * z2 + self.u2) * z2 + self.u0

    def disc(self) -> int:
        # discriminant of the even quartic a*z^4 + b*z^2 + c
        a, b, c = self.u4, self.u2, self.u0
        return 16 * a * c * (4 * a * c - b * b) ** 2


def build_space(params: FamilyParams, d: int, kind: str) -> HomogeneousSpace:
    """Descent quartic of the class d: C_d for PHI, C'_d for PHI_HAT.

    Separable for every d != 0, so nothing here computes disc(): u4*u0 != 0,
    and as q = p + 2, 4*u4*u0 - u2^2 is -16*p*q*D^2*d^2 on C_d and -4*D^2*d^2
    on C'_d.  The oracle's own disc() check still rejects any other quartic.
    """
    check_kind(kind)
    if d == 0:
        raise ValueError("d must be nonzero")
    D = params.D
    s = params.epsilon * (params.p + params.q) * D * d
    if kind == PHI:
        return HomogeneousSpace(kind, d, 4 * D * D, -2 * s, d * d)
    return HomogeneousSpace(kind, d, params.p * params.q * D * D, s, d * d)
