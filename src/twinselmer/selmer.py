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
group).  It checks that the solvable classes form a subgroup, and one
GF(2) echelon (_echelon, which gf2_rref also reduces) keeps the survivor
combinations whose image lies in it.
The 2^(n+4) square classes are never enumerated; elements are listed from
the basis when asked for.  A class no survivor reaches is skipped: at a
large prime an unsolvable class costs a scan of every residue.  The engine
works on exponent bits (family.class_of_integer); every class it hands out,
the basis included, is an int d (FamilyParams.value).

A local class is an int of GF(2) coordinates, localsolve.local_class: the
sign at infinity, and at a prime the valuation's parity and the unit's
class.  SelmerGroup.representatives maps each place to every local class the
basis reaches and the d it is decided on: the product of the earliest
generators that reach it.  The verdict table maps (place, local class) to
the LocalVerdict the oracle gave on that d; verdict_at reads it for any d,
and local_images lists every class the basis reaches, deciding the skipped
ones once each.  In the JSON and CSV outputs a class is labelled by
LocalVerdict.label, "sign=+1" / "sign=-1" at infinity and
"val=<valuation mod 2>,unit=<tag>" at a prime, both read off the class bits
by localsolve.class_label: the tag is the unit's Legendre symbol at odd l
and its residue mod 8 at l = 2.

compute_selmer keeps the groups of its last two calls (functools.lru_cache),
so the phi and phi_hat groups of one instance are computed once and shared by
every caller in the process: cli, criteria.audit_params, theorems and search
receive the same SelmerGroup object.  A shared verdict_table grows as
verdict_at and local_images decide more classes, and each (kind, place,
local class) is decided once per process.  A call that raises is not kept.
FamilyParams must come from family.validate_params, which makes it hashable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache

from .family import (
    FamilyParams,
    build_space,
    check_kind,
    class_of_integer,
    enumerate_square_classes,  # noqa: F401  (kept importable; the bench tracer wraps it)
)
from .localsolve import LocalVerdict, local_class, local_verdict


def _images(columns, survivors) -> list[int]:
    """Local class of each square class in survivors (exponent bits), given each generator's class.

    Bit b of an image is the parity of the survivor's generators whose class
    has bit b set; a local class has at most 3 bits.
    """
    mask0 = mask1 = mask2 = 0
    for j, col in enumerate(columns):
        bit = 1 << j
        if col & 1:
            mask0 |= bit
        if col & 2:
            mask1 |= bit
        if col & 4:
            mask2 |= bit
    return [
        (x & mask0).bit_count() & 1 | ((x & mask1).bit_count() & 1) << 1 | ((x & mask2).bit_count() & 1) << 2
        for x in survivors
    ]


def _span(rows) -> list[int]:
    """Every GF(2) sum of the independent integer bitmasks rows, 0 included, each once."""
    span = [0]
    for row in rows:
        span += [x ^ row for x in span]
    return span


def _echelon(rows) -> dict[int, int]:
    """Echelon basis of the span of integer bitmasks over GF(2), keyed by each row's lowest set bit."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row & -row in pivots:
            row ^= pivots[row & -row]
        if row:
            pivots[row & -row] = row
    return pivots


def gf2_rref(rows) -> list[int]:
    """Reduced row-echelon basis of the span of integer bitmasks over GF(2)."""
    pivots = _echelon(rows)
    for low in sorted(pivots, reverse=True):  # back-substitute for canonical form
        for other in pivots:
            if other != low and pivots[other] & low:
                pivots[other] ^= pivots[low]
    return [pivots[low] for low in sorted(pivots)]


@dataclass(frozen=True)
class SelmerGroup:
    """One descent Selmer group: its reduced GF(2) basis and the local verdicts behind it.

    basis is the reduced basis, each vector as its int d, ordered by the lowest
    set bit of its exponent bits.

    representatives maps each place to {local class: d} for every class the
    basis reaches there; d is the product of the earliest generators (-1, 2,
    p, q, D_1..D_n) that reach the class, and the oracle decides the class on
    it.  verdict_table maps (place, local class) to that LocalVerdict, whose
    d and label name the class.  It holds
    the classes compute_selmer needed: at each place, those reached by the
    classes that passed every earlier place.  So members have verdicts at
    every place, and non-members up to their first failing place.
    verdict_at and local_images decide the other classes the basis reaches,
    once each, and add them to the table.  compute_selmer hands the same
    group to every caller, so the table holds every class any of them
    decided.
    """

    kind: str
    params: FamilyParams
    basis: tuple[int, ...]
    verdict_table: dict
    representatives: dict

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
        return sorted(self.params.value(bits) for bits in _span(self._basis_bits))

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

    def _decide(self, place, c: int) -> LocalVerdict:
        """Table entry of local class c at place; the oracle decides it on its representative once."""
        entry = self.verdict_table.get((place, c))
        if entry is None:
            space = build_space(self.params, self.representatives[place][c], self.kind)
            entry = self.verdict_table[(place, c)] = local_verdict(space, place)
        return entry

    def verdict_at(self, d: int, place) -> LocalVerdict:
        """The oracle verdict at place for any d on the basis: that of d's local class."""
        return self._decide(place, local_class(d, place))

    def local_images(self) -> dict:
        """LocalVerdict of every class the basis reaches, in place order, then class order."""
        return {(place, c): self._decide(place, c)
                for place, reps in self.representatives.items() for c in sorted(reps)}


@lru_cache(maxsize=2)  # the phi and phi_hat groups of the last instance
def compute_selmer(params: FamilyParams, kind: str) -> SelmerGroup:
    """Preimage of the solvable subgroups, deciding one class per (place, local class) at most."""
    check_kind(kind)
    group = SelmerGroup(kind, params, (), {}, {})  # the basis is known once every place is done
    survivors = [1 << j for j in range(len(params.basis()))]  # basis of the classes passing so far
    for place in params.places():
        columns = [local_class(g, place) for g in params.basis()]
        reps = group.representatives[place] = {0: 1}
        for g, col in zip(params.basis(), columns):
            if col not in reps:
                reps.update({c ^ col: d * g for c, d in reps.items()})
        images = _images(columns, survivors)
        reached = sorted(_span(_echelon(images).values()))
        solvable = {c for c in reached if group._decide(place, c).solvable}
        assert 0 in solvable and all(
            a ^ b in solvable for a in solvable for b in solvable
        ), f"solvable local classes at {place} must form a subgroup"
        # local classes fill bits 0-2 and each survivor is tagged above them: a row
        # whose lowest bit is in the tag has image 0, a combination passing here
        rows = _echelon([*solvable, *(image | x << 3 for image, x in zip(images, survivors))])
        survivors = [row >> 3 for low, row in rows.items() if low >= 8]
    return replace(group, basis=tuple(params.value(b) for b in gf2_rref(survivors)))


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
        for verdict in group.local_images().values():
            table.setdefault(str(verdict.place), {})[verdict.label] = {
                "d": verdict.d,
                "solvable": verdict.solvable,
                "search_depth": verdict.search_depth,
                "witness": _jsonable_witness(verdict.witness),
            }
        out["verdicts"] = table
    return out
