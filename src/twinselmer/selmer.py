"""Selmer groups as the kernel of the local-image map over GF(2).

A class d, a signed squarefree integer on the basis (-1, 2, p, q,
D_1..D_n), belongs to the group exactly when its descent quartic has points
in every completion at the bad places.
Solvability at a place v depends only on the class of d in Q_v*/Q_v*^2,
because z -> u*z maps C_{d*u^2} onto C_d, and the classes where it holds
form a subgroup there (Silverman, AEC X.4).  So the engine maps the basis
into Q_v*/Q_v*^2 (rank 1 at infinity, 2 at odd l, 3 at l = 2) and, place by
place, decides one representative d per local class reached by the classes
that passed every earlier place (at most 2 + 8 + 4(n + 2) oracle calls per
group).  It checks that the solvable classes form a subgroup, and the
survivors are the kernel of the stacked annihilators of those subgroups.
The 2^(n+4) square classes are never enumerated; elements are listed from
the basis when asked for.  A class no survivor reaches is skipped: at a
large prime an unsolvable class costs a scan of every residue.  The kernel
works on exponent bits (family.class_of_integer); every class it hands out,
the basis included, is an int d (FamilyParams.value).

A local class is an int of GF(2) coordinates, localsolve.local_class: the
sign at infinity, and at a prime the valuation's parity and the unit's
class.  The verdict table maps (place, local class) to the representative's
verdict; verdict_at reads it for any d, and local_images lists every class
the basis reaches, deciding the skipped ones once each.  In the JSON and CSV
outputs a class is labelled "sign=+1" / "sign=-1" at infinity and
"val=<valuation mod 2>,unit=<tag>" at a prime, both read off the class bits
by localsolve.class_label: the tag is the unit's Legendre symbol at odd l
and its residue mod 8 at l = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .family import (
    FamilyParams,
    build_space,
    check_kind,
    class_of_integer,
    enumerate_square_classes,  # noqa: F401  (kept importable; the bench tracer wraps it)
)
from .localsolve import LocalVerdict, class_label, local_class, local_verdict


def _columns(params: FamilyParams, place) -> list[int]:
    """Local class of each generator (-1, 2, p, q, D_1..D_n) at place."""
    return [local_class(g, place) for g in params.basis()]


def _image(columns, bits: int) -> int:
    """Local class of the square class with these bits, given each generator's class."""
    c = 0
    for j, col in enumerate(columns):
        if (bits >> j) & 1:
            c ^= col
    return c


def _class_reps(columns) -> dict[int, int]:
    """Every class in the span of columns, with the bits of a representative.

    A class's representative uses the earliest columns that reach it, so
    every caller picks the same one.
    """
    reps = {0: 0}
    for j, col in enumerate(columns):
        if col not in reps:
            reps.update({c ^ col: r | 1 << j for c, r in reps.items()})
    return reps


def class_representatives(params: FamilyParams, place) -> dict[int, int]:
    """Each local class at place the basis reaches, with the d that _decide decides it on."""
    reps = _class_reps(_columns(params, place))
    return {c: params.value(bits) for c, bits in reps.items()}


@dataclass(frozen=True)
class ClassVerdict:
    """Oracle verdict for one local class, decided on its representative d."""

    d: int
    verdict: LocalVerdict

    @property
    def label(self) -> str:
        return class_label(self.d, self.verdict.place)


def _decide(table: dict, params: FamilyParams, kind: str, place, c: int, reps=None) -> ClassVerdict:
    """Table entry of local class c at place; the oracle decides it on its representative once.

    reps is _class_reps of the place's columns, computed here when not given.
    """
    entry = table.get((place, c))
    if entry is None:
        if reps is None:
            reps = _class_reps(_columns(params, place))
        d = params.value(reps[c])
        entry = table[(place, c)] = ClassVerdict(d, local_verdict(build_space(params, d, kind), place))
    return entry


@dataclass(frozen=True)
class SelmerGroup:
    """One descent Selmer group: its reduced GF(2) basis and the local verdicts behind it.

    basis is the reduced basis, each vector as its int d, ordered by the lowest
    set bit of its exponent bits.

    verdict_table maps (place, local class) to its ClassVerdict.  It holds
    the classes the kernel needed: at each place, those reached by the
    classes that passed every earlier place.  So members have verdicts at
    every place, and non-members up to their first failing place.
    verdict_at and local_images decide the other classes the basis reaches,
    once each, and add them to the table.
    """

    kind: str
    params: FamilyParams
    basis: tuple[int, ...]
    verdict_table: dict

    @property
    def dim2(self) -> int:
        return len(self.basis)

    @property
    def order(self) -> int:
        return 1 << self.dim2

    @cached_property
    def _basis_bits(self) -> tuple[int, ...]:
        """The exponent bits of each basis vector: the reduced GF(2) rows."""
        return tuple(class_of_integer(self.params, d) for d in self.basis)

    def element_values(self) -> list[int]:
        """Every member, ascending: the span of the basis."""
        span = [0]
        for row in self._basis_bits:
            span += [x ^ row for x in span]
        return sorted(self.params.value(bits) for bits in span)

    def contains_value(self, v: int) -> bool:
        """Span membership of v's class; False when v is not a class on the basis."""
        try:
            bits = class_of_integer(self.params, v)
        except ValueError:
            return False
        for row in self._basis_bits:  # reduced rows: each pivot (lowest bit) is in one row only
            if bits & row & -row:
                bits ^= row
        return bits == 0

    def verdict_at(self, d: int, place) -> LocalVerdict:
        """The oracle verdict at place for any d on the basis: that of d's local class."""
        c = local_class(d, place)
        return _decide(self.verdict_table, self.params, self.kind, place, c).verdict

    def local_images(self) -> dict:
        """ClassVerdict of every class the basis reaches, in place order, then class order."""
        out = {}
        for place in self.params.places():
            reps = _class_reps(_columns(self.params, place))
            for c in sorted(reps):
                out[(place, c)] = _decide(self.verdict_table, self.params, self.kind, place, c, reps)
        return out


def gf2_rref(rows) -> list[int]:
    """Reduced row-echelon basis of the span of integer bitmasks over GF(2)."""
    pivots: dict[int, int] = {}
    for row in rows:
        cur = row
        while cur:
            pos = (cur & -cur).bit_length() - 1
            if pos in pivots:
                cur ^= pivots[pos]
            else:
                pivots[pos] = cur
                break
    # back-substitute for canonical form
    for pos in sorted(pivots, reverse=True):
        for other in pivots:
            if other != pos and (pivots[other] >> pos) & 1:
                pivots[other] ^= pivots[pos]
    return [pivots[pos] for pos in sorted(pivots)]


def _kernel(rows, width: int) -> list[int]:
    """Basis of the x in GF(2)^width with an even overlap with every row."""
    pivots = {(r & -r).bit_length() - 1: r for r in gf2_rref(rows)}
    out = []
    for free in range(width):
        if free in pivots:
            continue
        x = 1 << free
        for pos, r in pivots.items():
            if (r >> free) & 1:
                x |= 1 << pos
        out.append(x)
    return out


def compute_selmer(params: FamilyParams, kind: str) -> SelmerGroup:
    """Kernel of the local-image map, deciding one class per (place, local class) at most."""
    check_kind(kind)
    width = len(params.basis())
    table: dict = {}
    rows = []
    survivors = [1 << j for j in range(width)]  # basis of the classes passing so far
    for place in params.places():
        columns = _columns(params, place)
        reps = _class_reps(columns)
        reached = _class_reps([_image(columns, x) for x in survivors])
        solvable = {
            c for c in sorted(reached) if _decide(table, params, kind, place, c, reps).verdict.solvable
        }
        assert 0 in solvable and all(
            a ^ b in solvable for a in solvable for b in solvable
        ), f"solvable local classes at {place} must form a subgroup"
        # a survivor passes at place iff every functional vanishing on the
        # solvable classes vanishes on its class
        for f in range(1, 8):
            if not any((f & s).bit_count() & 1 for s in solvable):
                rows.append(sum(((f & col).bit_count() & 1) << j for j, col in enumerate(columns)))
        survivors = _kernel(rows, width)
    basis = tuple(params.value(b) for b in gf2_rref(survivors))
    return SelmerGroup(kind, params, basis, table)


def _jsonable_witness(witness: dict | None):
    if witness is None:
        return None
    out = {}
    for key, val in witness.items():
        out[key] = str(val) if isinstance(val, Fraction) else val
    return out


def to_jsonable(
    group: SelmerGroup, include_table: bool = False, include_elements: bool = False
) -> dict:
    """Stable dict form of a SelmerGroup (sorted keys give byte-stable JSON).

    The group is given by dim2, order and its reduced basis, so the size of
    the output grows with dim2, not with the order.  include_elements adds
    the 2^dim2 members in ascending order; include_table adds
    local_images(): every (place, local class) the basis reaches, keyed by
    place and class label.
    """
    out = {
        "schema": "twinselmer/selmer-v4",
        "kind": group.kind,
        "params": group.params.as_dict(),
        "dim2": group.dim2,
        "order": group.order,
        "basis": list(group.basis),
    }
    if include_elements:
        out["elements"] = group.element_values()
    if include_table:
        table: dict[str, dict] = {}
        for (place, _), entry in group.local_images().items():
            verdict = entry.verdict
            table.setdefault(str(place), {})[entry.label] = {
                "d": entry.d,
                "solvable": verdict.solvable,
                "search_depth": verdict.search_depth,
                "witness": _jsonable_witness(verdict.witness),
            }
        out["verdicts"] = table
    return out
