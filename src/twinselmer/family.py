"""Curve-family parameters, square classes on the bad-place basis, and descent quartics.

The family is y^2 = x(x + eps*p*D)(x + eps*q*D) for a twin-prime pair
(p, q) and D a squarefree product of further odd primes.  Membership of a
square class d in either descent Selmer group is tested through an even
quartic curve d*w^2 = g(z) whose coefficients are built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from . import arith

INF_PLACE = "inf"

KIND_C = "C"  # quartic with leading coefficient 4*D^2
KIND_CPRIME = "C'"  # quartic with leading coefficient p*q*D^2

# Selmer-side names for the two descent directions.
PHI = "phi"
PHI_HAT = "phi_hat"

_KIND_ALIASES = {
    KIND_C: KIND_C,
    KIND_CPRIME: KIND_CPRIME,
    PHI: KIND_C,
    PHI_HAT: KIND_CPRIME,
}


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

    @property
    def D(self) -> int:
        return prod(self.d_primes)

    def dhat(self, i: int) -> int:
        """D with the i-th prime removed (i is 1-based); 1 when n = 1."""
        return self.D // self.d_primes[i - 1]

    def basis(self) -> tuple[int, ...]:
        return (-1, 2, self.p, self.q) + self.d_primes

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


def validate_params(epsilon: int, p: int, q: int, d_primes) -> FamilyParams:
    """Validate (eps, p, q, D_1..D_n) and return FamilyParams; raise on bad input."""
    if epsilon not in (1, -1):
        raise InvalidParamsError(f"epsilon must be +1 or -1, got {epsilon}")
    if not arith.is_twin_pair(p, q):
        raise InvalidParamsError(f"({p}, {q}) is not a twin pair of odd primes")
    ds = tuple(int(x) for x in d_primes)
    if not ds:
        raise InvalidParamsError("at least one prime D_i is required")
    if len(set(ds)) != len(ds):
        raise InvalidParamsError(f"D primes must be distinct, got {ds}")
    for x in ds:
        if not arith.is_odd_prime(x):
            raise InvalidParamsError(f"D_i must be odd primes, got {x}")
        if x in (p, q):
            raise InvalidParamsError(f"D_i must avoid p and q, got {x}")
    return FamilyParams(epsilon, p, q, ds)


@dataclass(frozen=True)
class SquareClass:
    """Element of the square-class group on basis (-1, 2, p, q, D_1..D_n).

    bits holds one exponent per basis entry (bit j = exponent of basis[j]);
    the group law is bitwise XOR, matching multiplication modulo squares.
    """

    bits: int
    basis: tuple[int, ...]

    @property
    def value(self) -> int:
        v = 1
        for j, b in enumerate(self.basis):
            if (self.bits >> j) & 1:
                v *= b
        return v

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if self.basis != other.basis:
            raise ValueError("square classes live on different bases")
        return SquareClass(self.bits ^ other.bits, self.basis)

    def __str__(self) -> str:
        return str(self.value)


def identity_class(params: FamilyParams) -> SquareClass:
    return SquareClass(0, params.basis())


def class_of_integer(params: FamilyParams, m: int) -> SquareClass:
    """Square class of a signed squarefree integer supported on the basis."""
    if m == 0:
        raise ValueError("0 has no square class")
    basis = params.basis()
    bits = 0
    rest = m
    if rest < 0:
        bits |= 1
        rest = -rest
    for j, b in enumerate(basis[1:], start=1):
        if rest % b == 0:
            bits |= 1 << j
            rest //= b
    if rest != 1:
        raise ValueError(f"{m} is not squarefree over the basis {basis}")
    return SquareClass(bits, basis)


def enumerate_square_classes(params: FamilyParams) -> list[SquareClass]:
    """All 2^(n+4) square classes, in ascending bit order (byte-stable)."""
    basis = params.basis()
    return [SquareClass(bits, basis) for bits in range(1 << len(basis))]


@dataclass(frozen=True)
class HomogeneousSpace:
    """Descent curve d*w^2 = u4*z^4 + u2*z^2 + u0 with exact integer data."""

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


def build_space(params: FamilyParams, d, kind: str) -> HomogeneousSpace:
    """Quartic descent curve for class d; kind selects the leading coefficient shape."""
    k = _KIND_ALIASES.get(kind)
    if k is None:
        raise ValueError(f"unknown kind {kind!r}")
    dv = d.value if isinstance(d, SquareClass) else int(d)
    if dv == 0:
        raise ValueError("d must be nonzero")
    D = params.D
    s = params.epsilon * (params.p + params.q) * D * dv
    if k == KIND_C:
        space = HomogeneousSpace(k, dv, 4 * D * D, -2 * s, dv * dv)
    else:
        space = HomogeneousSpace(k, dv, params.p * params.q * D * D, s, dv * dv)
    assert space.disc() != 0, "descent quartic must be separable"
    return space
