"""The Cassels difference dim2 S(phi) - dim2 S(phi_hat) in closed form.

Each bad place v contributes dim2 im_v(phi) - 1: -[eps = +1] at infinity,
-1 at p and at q, -[(pq | D_i) = -1] at D_i, and t2 at 2, where t2 = 1
exactly when phi's 2-adic image has 4 classes.  So

    dim2 S(phi) - dim2 S(phi_hat) = -2 - [eps = +1] - #{i : (pq | D_i) = -1} + t2,

with t2 = 1 when (D - p) mod 8 lies in {4, 6} for eps = +1 and p = 1 mod 4,
and in {0, 2} otherwise.  The form is checked against computed groups and,
without the oracle, on every allowed cell of the catalog entries that state
both orders exactly.
"""

import dataclasses
import itertools

import pytest

import twinselmer as ts
from twinselmer.arith import legendre_symbol, primes_up_to
from twinselmer.theorems import CONSTRAINTS

from helpers import random_instances

# (eps = +1 and p = 1 mod 4) -> the residues of (D - p) mod 8 where t2 = 1
T2_CELLS = {True: frozenset({4, 6}), False: frozenset({0, 2})}
FLIPPED_T2_CELLS = {True: T2_CELLS[False], False: T2_CELLS[True]}


def cassels_difference(epsilon, p, d_mod8, pq_symbols, t2_cells=T2_CELLS):
    """dim2 S(phi) - dim2 S(phi_hat) from eps, p, D mod 8 and each (pq | D_i)."""
    t2 = (d_mod8 - p) % 8 in t2_cells[epsilon == 1 and p % 4 == 1]
    return -2 - (epsilon == 1) - sum(s == -1 for s in pq_symbols) + t2


def _grid_mismatches(t2_cells=T2_CELLS):
    instances = random_instances(seed=2121, count=300, prime_bound=600, max_n=4)
    assert {params.n for params in instances} == {1, 2, 3, 4}
    out = []
    for params in instances:
        pq = params.p * params.q
        want = cassels_difference(
            params.epsilon, params.p, params.D % 8,
            [legendre_symbol(pq, r) for r in params.d_primes], t2_cells,
        )
        have = ts.compute_selmer(params, ts.PHI).dim2 - ts.compute_selmer(params, ts.PHI_HAT).dim2
        if want != have:
            out.append((params, want, have))
    return out


def test_closed_form_matches_computed_groups():
    assert _grid_mismatches() == []


# Each catalog entry below states both orders exactly: 2^(n + a) for phi and
# 2^(n + b) for phi_hat, so it claims the difference a - b.
EXACT_DIFFERENCES = {"1.5A": -3, "1.5B": -2, "1.10A": -2, "1.10B": -1}

# one twin pair per class of p mod 8
TWIN_BY_P8 = {1: (17, 19), 3: (3, 5), 5: (5, 7), 7: (71, 73)}


def _d_options(cs, p, q):
    """(D_i mod 8, (pq | D_i)) for every D_i the entry admits beside the twin pair (p, q).

    (pq | D_i) is fixed by D_i mod 4 and the symbols (D_i | p), (D_i | q)
    (reciprocity), and so is every symbol predicate.  So one prime per
    (D_i mod 8, (D_i | p), (D_i | q)) pattern stands for all of them; all 16
    patterns are required to occur.
    """
    first = {}
    for r in primes_up_to(5000):
        if r > 2 and r not in (p, q):
            first.setdefault((r % 8, legendre_symbol(r, p), legendre_symbol(r, q)), r)
    assert len(first) == 16, (p, sorted(first))
    return {(r % 8, legendre_symbol(p * q, r)) for r in first.values() if cs.d_ok(r, p, q)}


def _catalog_mismatches(t2_cells=T2_CELLS):
    """(id, p mod 8, cells of D_1..D_n) where the closed form misses the claimed difference."""
    out, checked = [], {}
    for tid, claimed in EXACT_DIFFERENCES.items():
        cs = CONSTRAINTS[tid]
        checked[tid] = 0
        for p8, (p, q) in TWIN_BY_P8.items():
            if not cs.p_ok(p):
                continue
            options = sorted(_d_options(cs, p, q))
            for n in (1, 2, 3):
                for cells in itertools.product(options, repeat=n):
                    residues = [d8 for d8, _ in cells]
                    if not cs.set_ok(p, residues):  # reads D_i mod 8 only
                        continue
                    checked[tid] += 1
                    d_mod8 = 1
                    for d8 in residues:
                        d_mod8 = d_mod8 * d8 % 8
                    got = cassels_difference(
                        cs.epsilon, p, d_mod8, [s for _, s in cells], t2_cells
                    )
                    if got != claimed:
                        out.append((tid, p8, cells, got))
    assert all(checked.values()), checked
    return out


def test_catalog_exact_orders_agree_with_the_closed_form():
    # every n-tuple of admitted D_i cells, n <= 3; the pairwise symbols among
    # the D_i are ignored, so a superset of the admitted instances is checked
    assert _catalog_mismatches() == []


@pytest.mark.parametrize("check", [_grid_mismatches, _catalog_mismatches])
def test_flipped_t2_cells_fail(check):
    assert check(FLIPPED_T2_CELLS)


@pytest.mark.parametrize("kind", [ts.PHI, ts.PHI_HAT])
def test_dropped_basis_vector_fails(monkeypatch, kind):
    # a group of one kind that loses a basis vector shifts the difference by one
    compute = ts.compute_selmer

    def dropping(params, k):
        group = compute(params, k)
        if k == kind and group.basis:
            return dataclasses.replace(group, basis=group.basis[1:])
        return group

    monkeypatch.setattr(ts, "compute_selmer", dropping)
    assert _grid_mismatches()
