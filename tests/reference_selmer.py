"""Reference Selmer engine: filter all 2^(n+4) square classes through the oracle.

twinselmer.selmer decides one class per (place, local square class) and
takes a GF(2) kernel.  This engine assumes neither fact: it tests every
class at every bad place, in place order, and checks that the members form
a group.  Tests require both engines to give the same group.
class_representatives finds the d each local class is decided on by the
same scan, stopped once every local class has one, with no kernel, and
image sums a class's local class generator by generator, the reference for
the bit-sliced selmer._images.
"""

from __future__ import annotations

from twinselmer.family import build_space, class_of_integer, enumerate_square_classes
from twinselmer.localsolve import local_class, local_verdict
from twinselmer.selmer import gf2_rref

from reference_images import local_order


def check_group_closure(params, values) -> bool:
    """True iff the classes (ints on params' basis) contain 1 and are closed under products mod squares."""
    bits = {class_of_integer(params, d) for d in values}
    return 0 in bits and all(a ^ b in bits for a in bits for b in bits)


def enumerate_selmer(params, kind):
    """(members in ascending bit order, reduced basis bits) by testing every class."""
    members = []
    for d in enumerate_square_classes(params):
        space = build_space(params, d, kind)
        if all(local_verdict(space, place).solvable for place in params.places()):
            members.append(d)
    basis = gf2_rref(class_of_integer(params, d) for d in members)
    assert len(members) == 1 << len(basis), "member set must be a subgroup"
    assert check_group_closure(params, members), "member set must be XOR-closed"
    return members, basis


def class_representatives(params, place) -> dict[int, int]:
    """Each local class at place the basis reaches, with its first class in ascending bit order.

    That first class is the product of the earliest generators that reach
    the local class: trading a later generator for earlier ones that reach
    the same class lowers the bits.
    """
    reps = {}
    for bits in range(1 << (params.n + 4)):
        d = params.value(bits)
        reps.setdefault(local_class(d, place), d)
        if len(reps) == local_order(place):
            break  # every class of Q_v*/Q_v*^2 has its first d
    return reps


def image(columns, bits: int) -> int:
    """Local class of the square class with these exponent bits, given each generator's class."""
    c = 0
    for j, col in enumerate(columns):
        if (bits >> j) & 1:
            c ^= col
    return c
