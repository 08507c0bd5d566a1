"""Reference digit search: the residue scan that localsolve.padic_solvable replaced.

The same two-patch search as the package oracle, as it stood before the
node rule: every node scans all l residues, a unit's square class is read
from a table of the squares mod l (mod 8 at l = 2) built on every call, and
the l = 2 mod-8 refinement is its own branch.  Each patch is set up by the
generic Taylor shift and a content strip, and valuations are taken by
division, not by the lowest-bit rule.  It imports nothing of the search it
checks, so tests can require the two to agree exactly: the verdict, the
witness and the search depth.
"""

from __future__ import annotations

from fractions import Fraction

from twinselmer.family import HomogeneousSpace
from twinselmer.localsolve import LocalVerdict, OracleUndecidedError

_DEPTH_MARGIN = 8


def _int_valuation(m: int, l: int) -> int:
    """Exponent of the prime l in the nonzero integer m, by repeated division."""
    m = abs(m)
    v = 0
    while m % l == 0:
        m //= l
        v += 1
    return v


def _rational_witness(space: HomogeneousSpace, z: Fraction, w: Fraction) -> dict:
    assert space.d * w * w == space.g(z), "witness must satisfy the curve exactly"
    return {"type": "rational", "z": z, "w": w}


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


class _DigitSearch:
    """Shared state for the two-patch digit search at one finite place."""

    def __init__(self, space: HomogeneousSpace, l: int):
        self.space = space
        self.l = l
        d, disc = space.d, space.disc()
        # _int_valuation never returns on 0
        if d == 0 or disc == 0:
            raise ValueError(f"degenerate quartic, d = 0 or disc = 0: {space}")
        self.cap = _int_valuation(disc, l) + _int_valuation(4 * space.u4 * d, l) + _DEPTH_MARGIN
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
            shifted = _taylor_shift_scale(coeffs, s, 1)  # P(s + y): P(s), then P'(s)
            exact, deriv = shifted[0], shifted[1]
            if exact == 0:
                return self._root_witness(patch, base + scale * s)
            if deriv != 0 and _int_valuation(exact, l) > 2 * _int_valuation(deriv, l):
                return {
                    "type": "hensel_root",
                    "patch": patch,
                    "residue": base + scale * s,
                    "modulus": scale * l,
                }
            shifted, content = _strip_content([c * l**j for j, c in enumerate(shifted)], l)
            w = self._descend(patch, shifted, val + content, k + 1, base + scale * s, scale * l)
            if w is not None:
                return w
        return None

    def _root_witness(self, patch, coord: int) -> dict:
        if patch == 1:
            return _rational_witness(self.space, Fraction(coord), Fraction(0))
        assert coord != 0
        return _rational_witness(self.space, Fraction(1, coord), Fraction(0))


def reference_padic_solvable(space: HomogeneousSpace, l: int) -> LocalVerdict:
    """The residue-scan verdict, witness and depth for d*w^2 = g(z) over Q_l.

    ValueError when d = 0 or g is not separable (disc = 0).
    """
    if l < 2:
        raise ValueError(f"not a prime: {l}")
    search = _DigitSearch(space, l)
    witness = search.run()
    return LocalVerdict(l, space.d, witness is not None, witness, search.max_depth)
