"""Local solvability oracle for descent quartics d*w^2 = g(z).

The real place is decided exactly by sign analysis of the quadratic in
s = z^2.  A finite place l is decided by one re-centering digit search over
two integral patches (z in Z_l, and t = 1/z with v_l(t) >= 1).  A node of
the search writes d*g = l^val * P(y) on the class coordinate = base +
scale*y, with the content of P divided out.  A unit's square class is fixed
mod m (m = l at odd l, 8 at l = 2), and the square test is
local_class(unit, l) == 0.

  * Node rule: when every non-constant coefficient of P is 0 mod m, the
    whole disc is the one unit class of P(0): it certifies solvability at
    residue base (val even, unit a square) or dies.
  * Otherwise each residue s of y mod l is looked at.  If P(s) is a unit
    mod l, an odd val kills the class; at odd l the unit is P(s) mod l,
    and at l = 2 the search refines one digit, val unchanged, until every
    non-constant coefficient of P(s + 2y) is 0 mod 8.
  * A residue with P(s) = 0 mod l certifies a w = 0 point nearby when P
    has a liftable root there, v_l(P(s)) > 2*v_l(P'(s)); otherwise the
    search re-centres, y = s + l*y', moves the content of the shifted
    polynomial into val, and descends.

Every subtree dies or certifies at bounded depth because g is separable;
the hard cap below is generous, and hitting it raises instead of guessing.

local_class is the one map from a nonzero integer to its class in
Q_v*/Q_v*^2, as an int of GF(2) coordinates: the sign at infinity, and at a
prime the valuation's parity and the unit's class.  Solvability at v
depends only on that class, so the Selmer engine keys its verdicts by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import _int_valuation, legendre_symbol
from .family import INF_PLACE, HomogeneousSpace

_DEPTH_MARGIN = 8


class OracleUndecidedError(RuntimeError):
    """Digit search hit its depth cap without a verdict."""


@dataclass(frozen=True)
class LocalVerdict:
    """Solvability of C_d at one place, with a witness or the exhausted search depth."""

    place: object
    d: int
    solvable: bool
    witness: dict | None
    search_depth: int

    @property
    def label(self) -> str:
        """class_label of d at the place: the local class the verdict stands for."""
        return class_label(self.d, self.place)


def local_class(x: int, place) -> int:
    """GF(2) coordinates of the nonzero integer x in Q_v*/Q_v*^2, a homomorphism.

    At infinity the one bit is the sign.  At a prime l, bit 0 is the
    valuation's parity; bit 1 marks a unit part that is a non-residue (odd l)
    or 3 mod 4 (l = 2); bit 2 a unit part that is 3 or 5 mod 8 (l = 2 only).
    """
    if x == 0:
        raise ValueError("0 has no square class")
    if place == INF_PLACE:
        return int(x < 0)
    if place < 2:
        raise ValueError(f"not a prime: {place}")
    v = _int_valuation(x, place)
    u = x // place**v
    if place == 2:
        u &= 7
        return v & 1 | (u & 3 == 3) << 1 | (u in (3, 5)) << 2
    return v & 1 | (legendre_symbol(u, place) == -1) << 1


def class_label(x: int, place) -> str:
    """Label of local_class(x, place): "sign=+1"/"sign=-1", or "val=<bit 0>,unit=<tag>" at a prime."""
    c = local_class(x, place)
    if place == INF_PLACE:
        return "sign=-1" if c else "sign=+1"
    # bits 1 and 2 give the Legendre symbol at odd l, the residue mod 8 at 2
    unit = (1, 7, 5, 3)[c >> 1] if place == 2 else 1 - (c & 2)
    return f"val={c & 1},unit={unit}"


def _rational_witness(space: HomogeneousSpace, z: Fraction, w: Fraction) -> dict:
    assert space.d * w * w == space.g(z), "witness must satisfy the curve exactly"
    return {"type": "rational", "z": z, "w": w}


def real_solvable(space: HomogeneousSpace) -> LocalVerdict:
    """Exact real verdict: does d*g(z) >= 0 happen for some real z?

    d*g is a quadratic in s = z^2 >= 0, so it is largest there at s = 0, at
    the vertex when u2*u4 < 0, or far out when d*u4 > 0, where it exceeds 0
    from s = 1 + (|u2| + |u0|)/|u4| on.  The first of these candidates with
    d*g >= 0 is the witness.  ValueError when d = 0 or disc = 0.
    """
    d, u4, u2, u0 = space.d, space.u4, space.u2, space.u0
    if d == 0 or space.disc() == 0:
        raise ValueError(f"degenerate quartic, d = 0 or disc = 0: {space}")
    candidates = [Fraction(0)]
    if u2 * u4 < 0:
        candidates.append(Fraction(-u2, 2 * u4))
    if d * u4 > 0:
        candidates.append(1 + Fraction(abs(u2) + abs(u0), abs(u4)))
    for s in candidates:
        if d * ((u4 * s + u2) * s + u0) >= 0:
            return LocalVerdict(INF_PLACE, d, True, {"type": "real_sign", "s": s}, 0)
    return LocalVerdict(INF_PLACE, d, False, None, 0)


def _strip_content(coeffs: list[int], l: int) -> tuple[list[int], int]:
    """Divide out the largest power of l dividing every coefficient; return it too."""
    content = min(_int_valuation(c, l) for c in coeffs if c != 0)
    scale_down = l**content
    return [c // scale_down for c in coeffs], content


def _taylor_shift_scale(coeffs: list[int], s: int, m: int) -> list[int]:
    """Coefficients (ascending) of P(s + m*y) given those of P."""
    c = list(coeffs)
    n = len(c)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            c[j] += s * c[j + 1]
    power = 1
    for j in range(1, n):
        power *= m
        c[j] *= power
    return c


def padic_solvable(space: HomogeneousSpace, l: int) -> LocalVerdict:
    """Decide existence of Q_l-points on d*w^2 = g(z) by two-patch digit search.

    ValueError when d = 0 or g is not separable (disc = 0).
    """
    if l < 2:
        raise ValueError(f"not a prime: {l}")
    d, disc = space.d, space.disc()
    # _int_valuation never returns on 0
    if d == 0 or disc == 0:
        raise ValueError(f"degenerate quartic, d = 0 or disc = 0: {space}")
    cap = _int_valuation(disc, l) + _int_valuation(4 * space.u4 * d, l) + _DEPTH_MARGIN
    m = 8 if l == 2 else l  # a unit's square class is fixed mod m
    max_depth = 0

    def descend(patch, coeffs, val, k, base, scale):
        """Decide d*g = l^val * P(y) for y in Z_l; coordinate = base + scale*y."""
        nonlocal max_depth
        max_depth = max(max_depth, k + 1)
        if k >= cap:
            raise OracleUndecidedError(f"depth cap {cap} exceeded at l={l} on {space}")
        cmod = [c % l for c in coeffs]
        # node rule: P = P(0) mod m on the whole disc, so s = 0 decides it
        for s in range(l if any(c % m for c in coeffs[1:]) else 1):
            u = 0
            for c in reversed(cmod):
                u = (u * s + c) % l
            if u != 0:
                # a unit on the whole class; an odd valuation kills it outright
                if val % 2:
                    continue
                if l == 2:
                    # refine one digit until P(s + 2y) = P(s) mod 8 for all y
                    shifted = _taylor_shift_scale(coeffs, s, 2)
                    if any(c % m for c in shifted[1:]):
                        w = descend(patch, shifted, val, k + 1, base + scale * s, scale * 2)
                        if w is not None:
                            return w
                        continue
                    u = shifted[0]
                if local_class(u, l) == 0:
                    return {
                        "type": "square_class",
                        "patch": patch,
                        "residue": base + scale * s,
                        "modulus": scale * l,
                        "valuation": val,
                    }
                continue
            shifted = _taylor_shift_scale(coeffs, s, 1)  # P(s + y): P(s), then P'(s)
            exact, deriv = shifted[0], shifted[1]
            coord = base + scale * s
            if exact == 0:
                # a root of g: the point (z, 0), with z = 1/t on patch 2
                assert patch == 1 or coord != 0
                z = Fraction(coord) if patch == 1 else Fraction(1, coord)
                return _rational_witness(space, z, Fraction(0))
            if deriv != 0 and _int_valuation(exact, l) > 2 * _int_valuation(deriv, l):
                return {"type": "hensel_root", "patch": patch, "residue": coord, "modulus": scale * l}
            shifted, content = _strip_content([c * l**j for j, c in enumerate(shifted)], l)
            w = descend(patch, shifted, val + content, k + 1, coord, scale * l)
            if w is not None:
                return w
        return None

    # d*g in z (patch 1) and, reversed, in t = 1/z with t = l*y (patch 2)
    patches = (
        (1, 0, [d * space.u0, 0, d * space.u2, 0, d * space.u4]),
        (2, 1, [d * space.u4, 0, d * space.u2, 0, d * space.u0]),
    )
    witness = None
    for patch, start_k, coeffs in patches:
        scale = l**start_k
        coeffs, content = _strip_content(_taylor_shift_scale(coeffs, 0, scale), l)
        witness = descend(patch, coeffs, content, start_k, 0, scale)
        if witness is not None:
            break
    return LocalVerdict(l, d, witness is not None, witness, max_depth)


def local_verdict(space: HomogeneousSpace, place) -> LocalVerdict:
    """Dispatch on the place: infinity or a finite prime."""
    if place == INF_PLACE:
        return real_solvable(space)
    return padic_solvable(space, place)
