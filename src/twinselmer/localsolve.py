"""Local solvability oracle for descent quartics d*w^2 = g(z).

The real place is decided exactly by sign analysis of the quadratic in
s = z^2.  A finite place l is decided by one re-centering digit search over
two integral patches (z in Z_l, and t = 1/z with v_l(t) >= 1).  A node of
the search writes d*g = l^val * P(y) on the class coordinate = base +
scale*y, with the content of P divided out, and looks at each residue s of
y mod l:

  * if P(s) is a unit mod l, d*g has the constant valuation val on the
    class and its unit is read mod l (mod 8 at l = 2), so the class either
    certifies solvability (val even, unit a square) or dies.  At l = 2 with
    val even, the unit is fixed mod 8 only once every non-constant
    coefficient of P(s + 2y) is 0 mod 8; until then the search refines one
    more digit with val unchanged;
  * otherwise the residue is tested for a liftable root of P (valuation of
    the value exceeding twice that of the derivative), which certifies a
    w = 0 point nearby;
  * otherwise the search re-centres, y = s + l*y', divides out the content
    of the shifted polynomial into val, and descends.

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
    """Solvability at one place, with a witness or the exhausted search depth."""

    place: object
    solvable: bool
    witness: dict | None
    search_depth: int


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

    g has positive leading coefficient, so d > 0 always works; for d < 0 the
    minimum of the s-quadratic over s = z^2 >= 0 decides.
    """
    d = space.d
    if d > 0:
        return LocalVerdict(INF_PLACE, True, {"type": "real_sign", "s": Fraction(0)}, 0)
    # d < 0: need g(s) <= 0 somewhere on s >= 0; vertex must be right of 0
    if space.u2 < 0 and space.u2 * space.u2 >= 4 * space.u4 * space.u0:
        s = Fraction(-space.u2, 2 * space.u4)
        gmin = space.u4 * s * s + space.u2 * s + space.u0
        assert d * gmin >= 0
        return LocalVerdict(INF_PLACE, True, {"type": "real_sign", "s": s}, 0)
    return LocalVerdict(INF_PLACE, False, None, 0)


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


def _eval_poly(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class _DigitSearch:
    """Shared state for the two-patch digit search at one finite place."""

    def __init__(self, space: HomogeneousSpace, l: int):
        self.space = space
        self.l = l
        self.cap = (
            _int_valuation(space.disc(), l)
            + _int_valuation(4 * space.u4 * space.d, l)
            + _DEPTH_MARGIN
        )
        self.max_depth = 0
        # squares among the units mod l; at l = 2 a unit's class is read mod 8
        m = 8 if l == 2 else l
        self.qr = bytearray(m)
        for x in range(1, m):
            self.qr[x * x % m] = 1

    def run(self) -> dict | None:
        l, space = self.l, self.space
        d = space.d
        # d*g in z (patch 1) and, reversed, in t = 1/z with t = l*y (patch 2)
        patches = (
            (1, 0, [d * space.u0, 0, d * space.u2, 0, d * space.u4]),
            (2, 1, [d * space.u4, 0, d * space.u2, 0, d * space.u0]),
        )
        for patch, start_k, coeffs in patches:
            scale = l**start_k
            coeffs, content = _strip_content(_taylor_shift_scale(coeffs, 0, scale), l)
            w = self._descend(patch, coeffs, content, start_k, 0, scale)
            if w is not None:
                return w
        return None

    def _descend(self, patch, coeffs, val, k, base, scale):
        """Decide d*g = l^val * P(y) for y in Z_l; coordinate = base + scale*y."""
        l = self.l
        if k + 1 > self.max_depth:
            self.max_depth = k + 1
        if k >= self.cap:
            raise OracleUndecidedError(
                f"depth cap {self.cap} exceeded at l={l} on {self.space}"
            )
        cmod = [c % l for c in coeffs]
        parity_ok = val % 2 == 0
        # an odd valuation kills a unit class outright, so only an even one
        # needs the unit read mod 8 at l = 2
        read_mod_8 = parity_ok and l == 2
        for s in range(l):
            u = 0
            for c in reversed(cmod):
                u = (u * s + c) % l
            if u != 0:
                # unit on the whole class: its square class is fixed by u
                if read_mod_8:
                    # P(s + 2y) = P(s) mod 8 for all y once every non-constant
                    # coefficient is 0 mod 8; until then, refine one digit
                    shifted = _taylor_shift_scale(coeffs, s, 2)
                    if any(c & 7 for c in shifted[1:]):
                        w = self._descend(patch, shifted, val, k + 1, base + scale * s, scale * 2)
                        if w is not None:
                            return w
                        continue
                    u = shifted[0] & 7
                if parity_ok and self.qr[u]:
                    return {
                        "type": "square_class",
                        "patch": patch,
                        "residue": base + scale * s,
                        "modulus": scale * l,
                        "valuation": val,
                    }
                continue
            exact = _eval_poly(coeffs, s)
            if exact == 0:
                return self._root_witness(patch, base + scale * s)
            deriv = _eval_poly([j * coeffs[j] for j in range(1, len(coeffs))], s)
            if deriv != 0 and _int_valuation(exact, l) > 2 * _int_valuation(deriv, l):
                return {
                    "type": "hensel_root",
                    "patch": patch,
                    "residue": base + scale * s,
                    "modulus": scale * l,
                }
            shifted, content = _strip_content(_taylor_shift_scale(coeffs, s, l), l)
            w = self._descend(patch, shifted, val + content, k + 1, base + scale * s, scale * l)
            if w is not None:
                return w
        return None

    def _root_witness(self, patch, coord: int) -> dict:
        if patch == 1:
            return _rational_witness(self.space, Fraction(coord), Fraction(0))
        assert coord != 0
        return _rational_witness(self.space, Fraction(1, coord), Fraction(0))


def padic_solvable(space: HomogeneousSpace, l: int) -> LocalVerdict:
    """Decide existence of Q_l-points on d*w^2 = g(z) by two-patch digit search."""
    if l < 2:
        raise ValueError(f"not a prime: {l}")
    search = _DigitSearch(space, l)
    witness = search.run()
    return LocalVerdict(l, witness is not None, witness, search.max_depth)


def local_verdict(space: HomogeneousSpace, place) -> LocalVerdict:
    """Dispatch on the place: infinity or a finite prime."""
    if place == INF_PLACE:
        return real_solvable(space)
    return padic_solvable(space, place)
