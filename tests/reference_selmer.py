"""Reference Selmer engine: filter all 2^(n+4) square classes through the oracle.

twinselmer.selmer decides one class per (place, local square class) and
takes a GF(2) kernel.  This engine assumes neither fact: it tests every
class at every bad place, in place order, and checks that the members form
a group.  Tests require both engines to give the same group.
"""

from __future__ import annotations

from twinselmer.family import build_space, enumerate_square_classes
from twinselmer.localsolve import local_verdict
from twinselmer.selmer import gf2_rref


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


def enumerate_selmer(params, kind):
    """(members in ascending bit order, reduced basis bits) by testing every class."""
    members = []
    for cls in enumerate_square_classes(params):
        space = build_space(params, cls, kind)
        if all(local_verdict(space, place).solvable for place in params.places()):
            members.append(cls)
    basis = gf2_rref(cls.bits for cls in members)
    assert len(members) == 1 << len(basis), "member set must be a subgroup"
    assert check_group_closure(members), "member set must be XOR-closed"
    return members, basis
