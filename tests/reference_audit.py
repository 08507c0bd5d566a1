"""Reference audit: compare both engines on every one of the 2^(n+4) square classes.

twinselmer.criteria.audit_params checks each closed-form rule once per cell:
on the values the rules are stated on, on one representative per local
class, and membership on the group's basis.  This audit assumes none of
that: it walks every class at every place, for both kinds.  Tests require
both audits to report the same (check, kind, rule, place) keys.

The rules are read through the criteria module, so a test that patches one
rule there patches it for both audits.
"""

from __future__ import annotations

from twinselmer import criteria, selmer
from twinselmer.family import PHI, PHI_HAT, enumerate_square_classes


def enumerating_audit(params, groups=None) -> list[dict]:
    """Compare both engines on every covered (d, place) cell and membership.

    Returns one row per disagreement; an empty list means the engines agree
    on this instance.  Every class d is listed; its oracle verdict is read
    from the Selmer verdict table by d's local class (verdict_at), so the
    oracle runs once per local class the kernel skipped, never per d.
    """
    if groups is None:
        groups = {kind: selmer.compute_selmer(params, kind) for kind in (PHI, PHI_HAT)}
    rows = []
    for kind in (PHI, PHI_HAT):
        group = groups[kind]
        for dv in enumerate_square_classes(params):
            for place in params.places():
                cf = criteria.closed_form_local(params, kind, dv, place)
                if not cf.applicable:
                    continue
                verdict = group.verdict_at(dv, place)
                if cf.solvable != verdict.solvable:
                    rows.append(
                        {
                            "check": "local",
                            "params": params.label(),
                            "kind": kind,
                            "d": dv,
                            "place": str(place),
                            "rule": cf.rule_id,
                            "closed_form": cf.solvable,
                            "oracle": verdict.solvable,
                        }
                    )
            mem = criteria._membership_with_rule(params, kind, dv)
            if mem.applicable:
                have = group.contains_value(dv)
                if mem.solvable != have:
                    rows.append(
                        {
                            "check": "membership",
                            "params": params.label(),
                            "kind": kind,
                            "d": dv,
                            "place": "",
                            "rule": mem.rule_id,
                            "closed_form": mem.solvable,
                            "oracle": have,
                        }
                    )
    return rows
