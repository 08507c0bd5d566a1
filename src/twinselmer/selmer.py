"""Selmer groups computed by everywhere-local filtering of square classes.

A class d belongs to the group exactly when its descent quartic has points
in every completion at the bad places.  The full square-class group is
enumerated (no generator chasing), so group closure of the result is a
genuine cross-check on the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .family import (
    KIND_C,
    KIND_CPRIME,
    PHI,
    PHI_HAT,
    FamilyParams,
    SquareClass,
    build_space,
    enumerate_square_classes,
)
from .localsolve import LocalVerdict, local_verdict

_SPACE_KIND = {PHI: KIND_C, PHI_HAT: KIND_CPRIME}


@dataclass(frozen=True)
class SelmerGroup:
    """One descent Selmer group with its membership audit trail.

    verdict_table maps (class value, place) to the oracle verdict; members
    carry verdicts at every place, non-members at least their failing place.
    """

    kind: str
    params: FamilyParams
    elements: tuple[SquareClass, ...]
    basis: tuple[SquareClass, ...]
    dim2: int
    verdict_table: dict

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_values(self) -> list[int]:
        return sorted(cls.value for cls in self.elements)

    def contains_value(self, v: int) -> bool:
        return any(cls.value == v for cls in self.elements)


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


def check_group_closure(elements) -> bool:
    """True iff the set of classes contains the identity and is XOR-closed."""
    classes = list(elements)
    if not classes:
        return False
    basis = classes[0].basis
    bits = {cls.bits for cls in classes}
    if 0 not in bits or any(cls.basis != basis for cls in classes):
        return False
    return all(a ^ b in bits for a in bits for b in bits)


def compute_selmer(params: FamilyParams, kind: str) -> SelmerGroup:
    """Filter the square-class group through the local oracle at every bad place."""
    if kind not in _SPACE_KIND:
        raise ValueError(f"kind must be {PHI!r} or {PHI_HAT!r}, got {kind!r}")
    space_kind = _SPACE_KIND[kind]
    places = params.places()
    members: list[SquareClass] = []
    table: dict = {}
    for cls in enumerate_square_classes(params):
        space = build_space(params, cls, space_kind)
        ok = True
        for place in places:
            verdict = local_verdict(space, place)
            table[(cls.value, place)] = verdict
            if not verdict.solvable:
                ok = False
                break
        if ok:
            members.append(cls)
    basis_bits = gf2_rref(cls.bits for cls in members)
    dim2 = len(basis_bits)
    assert len(members) == 1 << dim2, "member set must be a subgroup"
    assert check_group_closure(members), "member set must be XOR-closed"
    basis = tuple(SquareClass(b, params.basis()) for b in basis_bits)
    return SelmerGroup(kind, params, tuple(members), basis, dim2, table)


def _jsonable_witness(witness: dict | None):
    if witness is None:
        return None
    out = {}
    for key, val in witness.items():
        out[key] = str(val) if isinstance(val, Fraction) else val
    return out


def _jsonable_verdict(verdict: LocalVerdict) -> dict:
    return {
        "solvable": verdict.solvable,
        "search_depth": verdict.search_depth,
        "witness": _jsonable_witness(verdict.witness),
    }


def to_jsonable(group: SelmerGroup, include_table: bool = False) -> dict:
    """Stable dict form of a SelmerGroup (sorted keys give byte-stable JSON)."""
    out = {
        "schema": "twinselmer/selmer-v2",
        "kind": group.kind,
        "params": group.params.as_dict(),
        "dim2": group.dim2,
        "order": group.order,
        "basis": [cls.value for cls in group.basis],
        "elements": group.element_values(),
    }
    if include_table:
        table: dict[str, dict] = {}
        for (value, place), verdict in group.verdict_table.items():
            table.setdefault(str(value), {})[str(place)] = _jsonable_verdict(verdict)
        out["verdicts"] = table
    return out
