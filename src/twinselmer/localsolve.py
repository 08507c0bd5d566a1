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

Each search is set up in closed form.  With d*g = c0 + c2*z^2 + c4*z^4,
the valuations v0, v2, v4 of c0, c2, c4 are taken once: patch 1 is d*g
over l^min(v0, v2, v4), patch 2 is c4 + c2*l^2*y^2 + c0*l^4*y^4 over
l^min(v4, v2 + 2, v0 + 4), and c2 = 0 never sets the content.  A re-centring
shifts straight to P(s + l*y), whose first two coefficients are P(s) and
l*P'(s), and its content is one valuation of the coefficients' gcd.  At
l = 2 every valuation is read off the lowest set bit.

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
from math import gcd

from .arith import _int_valuation, is_prime, legendre_symbol
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
    if place == 2:
        u = x >> v & 7
        return v & 1 | (u & 3 == 3) << 1 | (u in (3, 5)) << 2
    return v & 1 | (legendre_symbol(x // place**v, place) == -1) << 1


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


def _taylor_shift_scale(coeffs: list[int], s: int, m: int) -> list[int]:
    """Coefficients (ascending) of P(s + m*y) given those of the quartic P.

    Four rounds of synthetic division by y - s leave the Taylor coefficients
    at s; the j-th is then scaled by m^j.
    """
    c0, c1, c2, c3, c4 = coeffs
    if s:
        c3 += s * c4
        c2 += s * c3
        c1 += s * c2
        c0 += s * c1
        c3 += s * c4
        c2 += s * c3
        c1 += s * c2
        c3 += s * c4
        c2 += s * c3
        c3 += s * c4
    m2 = m * m
    return [c0, c1 * m, c2 * m2, c3 * m2 * m, c4 * m2 * m2]


def padic_solvable(space: HomogeneousSpace, l: int) -> LocalVerdict:
    """Decide existence of Q_l-points on d*w^2 = g(z) by two-patch digit search.

    ValueError when l is not prime, d = 0 or g is not separable (disc = 0).
    """
    if not is_prime(l):
        raise ValueError(f"not a prime: {l}")
    d, disc = space.d, space.disc()
    if d == 0 or disc == 0:
        raise ValueError(f"degenerate quartic, d = 0 or disc = 0: {space}")
    # d*g = c0 + c2*z^2 + c4*z^4, where disc != 0 makes c0 and c4 nonzero
    c0, c2, c4 = d * space.u0, d * space.u2, d * space.u4
    v0, v4 = _int_valuation(c0, l), _int_valuation(c4, l)
    v2 = _int_valuation(c2, l) if c2 else max(v0, v4)  # c2 = 0 never sets the content
    # v(disc) + v(4*u4*d), where 4*u4*d = 4*c4
    cap = _int_valuation(disc, l) + v4 + (2 if l == 2 else 0) + _DEPTH_MARGIN
    m = 8 if l == 2 else l  # a unit's square class is fixed mod m
    max_depth = 0

    def descend(patch, coeffs, val, k, base, scale):
        """Decide d*g = l^val * P(y) for y in Z_l; coordinate = base + scale*y."""
        nonlocal max_depth
        if k >= max_depth:
            max_depth = k + 1
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
            shifted = _taylor_shift_scale(coeffs, s, l)  # P(s + l*y): P(s), then l*P'(s)
            exact, deriv = shifted[0], shifted[1]
            coord = base + scale * s
            if exact == 0:
                # a root of g: the point (z, 0), with z = 1/t on patch 2
                assert patch == 1 or coord != 0
                z = Fraction(coord) if patch == 1 else Fraction(1, coord)
                return _rational_witness(space, z, Fraction(0))
            # Hensel: v(P(s)) > 2*v(P'(s)), and v(P'(s)) = v(l*P'(s)) - 1
            if deriv != 0 and _int_valuation(exact, l) > 2 * _int_valuation(deriv, l) - 2:
                return {"type": "hensel_root", "patch": patch, "residue": coord, "modulus": scale * l}
            content = _int_valuation(gcd(*shifted), l)
            power = l**content
            w = descend(patch, [c // power for c in shifted], val + content, k + 1, coord, scale * l)
            if w is not None:
                return w
        return None

    # patch 1: d*g in z, with its content l^min(v0, v2, v4)
    content = min(v0, v2, v4)
    power = l**content
    witness = descend(1, [c0 // power, 0, c2 // power, 0, c4 // power], content, 0, 0, 1)
    if witness is None:
        # patch 2: d*g reversed in t = 1/z with t = l*y, c4 + c2*l^2*y^2 + c0*l^4*y^4
        content = min(v4, v2 + 2, v0 + 4)
        power = l**content
        l2 = l * l
        witness = descend(2, [c4 // power, 0, c2 * l2 // power, 0, c0 * l2 * l2 // power], content, 1, 0, l)
    return LocalVerdict(l, d, witness is not None, witness, max_depth)


def local_verdict(space: HomogeneousSpace, place) -> LocalVerdict:
    """Dispatch on the place: infinity or a finite prime."""
    if place == INF_PLACE:
        return real_solvable(space)
    return padic_solvable(space, place)
