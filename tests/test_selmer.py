"""Selmer group computation: goldens, group structure, caps, audit trail, reference engine."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinselmer as ts
from twinselmer import selmer
from twinselmer.family import HomogeneousSpace, build_space, validate_params
from twinselmer.localsolve import LocalVerdict, OracleUndecidedError, local_class, local_verdict
from twinselmer.selmer import compute_selmer, gf2_rref, to_jsonable

from helpers import random_instances
from reference_selmer import check_group_closure, class_representatives, enumerate_selmer, image


def test_golden_phi_d61():
    group = compute_selmer(validate_params(1, 3, 5, [61]), ts.PHI)
    assert group.element_values() == [1, 61]
    assert group.order == 2 and group.dim2 == 1
    assert list(group.basis) == [61]


def test_golden_phi_hat_d41_plus():
    group = compute_selmer(validate_params(1, 3, 5, [41]), ts.PHI_HAT)
    assert group.order == 16 and group.dim2 == 4
    # every odd class of the group on (-1, 3, 5, 41)
    assert all(v % 2 != 0 for v in group.element_values())


def test_golden_phi_hat_d41_minus():
    group = compute_selmer(validate_params(-1, 3, 5, [41]), ts.PHI_HAT)
    assert group.element_values() == [1, 3, 5, 15, 41, 123, 205, 615]
    assert group.order == 8 and group.dim2 == 3


def test_selmer_dim():
    g1 = compute_selmer(validate_params(1, 3, 5, [61]), ts.PHI)
    assert g1.dim2 == len(g1.basis) == 1 and g1.order == 1 << g1.dim2
    g0 = compute_selmer(validate_params(1, 3, 5, [7]), ts.PHI)
    assert g0.dim2 == len(g0.basis) == 0  # only the identity survives
    assert g0.element_values() == [1]


def test_check_group_closure():
    params = validate_params(1, 3, 5, [7])
    one, a, b, ab = 1, 2, 7, 14
    assert check_group_closure(params, [one])
    assert check_group_closure(params, [one, a, b, ab])
    assert not check_group_closure(params, [one, a, b])
    assert not check_group_closure(params, [a])  # no identity
    assert not check_group_closure(params, [])


def test_gf2_rref():
    assert gf2_rref([]) == []
    basis = gf2_rref([0b011, 0b110, 0b101])
    # fully reduced: each pivot bit appears in exactly one basis row
    assert basis == [0b101, 0b110]
    spanned = {0}
    for row in basis:
        spanned |= {row ^ s for s in spanned}
    assert spanned == {0, 0b011, 0b110, 0b101}
    assert len(gf2_rref([1, 2, 4, 7])) == 3


def test_verdict_table_records_membership_and_failures():
    for params in (validate_params(1, 3, 5, [7]), validate_params(-1, 5, 7, [11, 13])):
        for kind in (ts.PHI, ts.PHI_HAT):
            group = compute_selmer(params, kind)
            table = dict(group.verdict_table)
            # each entry is its class's verdict, decided on a representative
            for (place, cls), verdict in table.items():
                assert local_class(verdict.d, place) == cls
                assert verdict.place == place
                assert local_verdict(build_space(params, verdict.d, kind), place) == verdict
            # members carry a verdict at every place, non-members up to and
            # including their first failing place
            members = set(group.element_values())
            for d in ts.enumerate_square_classes(params):
                failed = None
                for place in params.places():
                    verdict = table[(place, local_class(d, place))]
                    if not verdict.solvable:
                        failed = place
                        break
                assert (d in members) == (failed is None), (d, failed)
                assert group.contains_value(d) == (d in members)
            assert not group.contains_value(10007)  # a prime off the basis has no class on it
            # the full local images keep every entry the kernel decided
            images = group.local_images()
            assert all(images[key] is verdict for key, verdict in table.items())
            assert group.verdict_table == images


def test_kernel_matches_enumerating_reference():
    # the enumerating engine tests every class at every place and assumes no
    # local-class structure; both engines must give the same group exactly
    instances = random_instances(seed=777, count=80, prime_bound=300, max_n=3)
    instances += random_instances(seed=778, count=80, prime_bound=300, max_n=3)
    assert {params.epsilon for params in instances} == {1, -1}
    assert {params.n for params in instances} == {1, 2, 3}
    for params in instances:
        for kind in (ts.PHI, ts.PHI_HAT):
            group = compute_selmer(params, kind)
            members, basis = enumerate_selmer(params, kind)
            assert group.element_values() == sorted(members), (params, kind)
            assert [ts.class_of_integer(params, b) for b in group.basis] == basis, (params, kind)
            assert group.basis == tuple(params.value(b) for b in basis)


def test_verdict_constant_on_local_classes():
    # the audit and the CLI read the oracle side of every d from the table
    # entry of d's local class; that is sound only if the verdict depends on
    # nothing else
    for params in random_instances(seed=909, count=12, prime_bound=200, max_n=3):
        for kind in (ts.PHI, ts.PHI_HAT):
            group = compute_selmer(params, kind)
            for d in ts.enumerate_square_classes(params):
                space = build_space(params, d, kind)
                for place in params.places():
                    want = group.verdict_at(d, place).solvable
                    assert local_verdict(space, place).solvable == want, (params, kind, d, place)


def test_solvable_local_classes_form_subgroup():
    for params in random_instances(seed=910, count=30, prime_bound=300, max_n=3):
        for kind in (ts.PHI, ts.PHI_HAT):
            images = compute_selmer(params, kind).local_images()
            for place in params.places():
                image = {c for (v, c) in images if v == place}
                solvable = {c for c in image if images[(place, c)].solvable}
                assert all(a ^ b in image for a in image for b in image)
                assert 0 in solvable
                assert all(a ^ b in solvable for a in solvable for b in solvable)
                # rank of Q_v*/Q_v*^2: 1 at infinity, 3 at 2, 2 at odd l; the
                # basis reaches both signs and, at a prime, an odd valuation
                rank = {ts.INF_PLACE: 1, 2: 3}.get(place, 2)
                assert 1 in image and len(image) <= 1 << rank, (params, place, image)


def test_class_representatives_are_the_table_representatives():
    # each class is decided on the product of the earliest generators reaching it
    for params in random_instances(seed=911, count=20, prime_bound=300, max_n=3):
        for kind in (ts.PHI, ts.PHI_HAT):
            group = compute_selmer(params, kind)
            images = group.local_images()
            for place in params.places():
                reps = class_representatives(params, place)
                assert group.representatives[place] == reps
                assert reps == {c: e.d for (v, c), e in images.items() if v == place}


def test_oracle_calls_per_group(monkeypatch):
    # at most 2 + 8 + 4(n + 2) oracle calls, and no class enumeration
    calls = []

    def counting(space, place):
        calls.append(place)
        return local_verdict(space, place)

    def refuse(params):
        raise AssertionError("compute_selmer must not enumerate square classes")

    monkeypatch.setattr(selmer, "local_verdict", counting)
    monkeypatch.setattr(selmer, "enumerate_square_classes", refuse)
    primes = [r for r in ts.arith.primes_up_to(200) if r > 7][:20]
    for n in (1, 5, 20):
        params = validate_params(1, 5, 7, primes[:n])
        for kind in (ts.PHI, ts.PHI_HAT):
            calls.clear()
            group = compute_selmer(params, kind)
            assert len(calls) <= 2 + 8 + 4 * (n + 2)
            assert group.order == 1 << group.dim2


def test_build_space_seam_sees_every_oracle_call(monkeypatch):
    # the bench tracer wraps selmer.build_space to time the family layer; it
    # must see one call per oracle call, or that layer would read 0
    spaces, verdicts = [], []

    def building(params, d, kind):
        spaces.append(d)
        return build_space(params, d, kind)

    def counting(space, place):
        verdicts.append(space.d)
        return local_verdict(space, place)

    monkeypatch.setattr(selmer, "build_space", building)
    monkeypatch.setattr(selmer, "local_verdict", counting)
    for params in (validate_params(1, 5, 7, [11, 13, 17, 19]), validate_params(-1, 3, 5, [1009])):
        for kind in (ts.PHI, ts.PHI_HAT):
            compute_selmer.cache_clear()
            spaces.clear()
            verdicts.clear()
            compute_selmer(params, kind)
            assert verdicts and spaces == verdicts


def test_one_discriminant_per_oracle_call(monkeypatch):
    # build_space relies on the family's closed forms and computes no
    # discriminant; the oracle's own separability check is the only one
    discs, verdicts = [], []
    disc = HomogeneousSpace.disc

    def counting_disc(space):
        discs.append(space.d)
        return disc(space)

    def counting(space, place):
        verdicts.append(space.d)
        return local_verdict(space, place)

    monkeypatch.setattr(HomogeneousSpace, "disc", counting_disc)
    monkeypatch.setattr(selmer, "local_verdict", counting)
    for params in random_instances(seed=31, count=10, prime_bound=300, max_n=3):
        for kind in (ts.PHI, ts.PHI_HAT):
            compute_selmer(params, kind)
    assert verdicts and discs == verdicts


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_bit_sliced_images_match_the_reference(data):
    # a local class has at most 3 bits (l = 2); survivors are exponent bits on n + 4 generators
    n = data.draw(st.integers(1, 124), label="generators")
    columns = data.draw(st.lists(st.integers(0, 7), min_size=n, max_size=n), label="columns")
    survivors = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n), label="survivors")
    assert selmer._images(columns, survivors) == [image(columns, x) for x in survivors]


def test_failures_are_not_memoised(monkeypatch):
    def undecided(space, place):
        raise OracleUndecidedError(f"depth cap exceeded at {place}")

    params = validate_params(1, 3, 5, [61])
    monkeypatch.setattr(selmer, "local_verdict", undecided)
    for _ in range(2):
        with pytest.raises(OracleUndecidedError):
            compute_selmer(params, ts.PHI)
    monkeypatch.undo()
    assert compute_selmer(params, ts.PHI).basis == (61,)


def test_memo_returns_the_same_group():
    params = validate_params(-1, 5, 7, [11, 13])
    groups = [compute_selmer(params, kind) for kind in (ts.PHI, ts.PHI_HAT)]
    equal = validate_params(-1, 5, 7, [11, 13])
    assert [compute_selmer(equal, kind) for kind in (ts.PHI, ts.PHI_HAT)] == groups
    assert all(compute_selmer(params, g.kind) is g for g in groups)


def test_forced_subgroup_and_caps():
    for params in random_instances(seed=555, count=8, prime_bound=120, max_n=2):
        gphi = compute_selmer(params, ts.PHI)
        ghat = compute_selmer(params, ts.PHI_HAT)
        p, q, D, n = params.p, params.q, params.D, params.n
        forced = {1, p * q, -params.epsilon * p * D, -params.epsilon * q * D}
        assert forced <= set(ghat.element_values())
        if params.epsilon == 1:
            assert gphi.dim2 <= n + 1
            assert ghat.dim2 <= n + 3
            # no -1, p or q factor in any member
            for d in gphi.element_values():
                assert d > 0 and d % p and d % q
        else:
            assert gphi.dim2 <= n + 1
            assert ghat.dim2 <= n + 2
            for d in ghat.element_values():
                assert d > 0 and d % 2
        assert gphi.dim2 + ghat.dim2 - 2 >= 0
        assert check_group_closure(params, gphi.element_values())
        assert check_group_closure(params, ghat.element_values())


_TWINS_500 = [t for t in ts.arith.twin_pairs_up_to(500) if t[1] < 500]
_ODD_PRIMES_500 = [r for r in ts.arith.primes_up_to(500) if r > 2]


@st.composite
def _params_below_500(draw):
    eps = draw(st.sampled_from((1, -1)))
    p, q = draw(st.sampled_from(_TWINS_500))
    pool = [r for r in _ODD_PRIMES_500 if r not in (p, q)]
    ds = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    return validate_params(eps, p, q, ds)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_params_below_500())
def test_forced_phi_hat_subgroup_property(params):
    # {1, pq, -eps*p*D, -eps*q*D} lies in every phi-hat group
    group = compute_selmer(params, ts.PHI_HAT)
    p, q, D, eps = params.p, params.q, params.D, params.epsilon
    for v in (1, p * q, -eps * p * D, -eps * q * D):
        assert group.contains_value(v), (params, v)


def test_compute_selmer_rejects_bad_kind():
    with pytest.raises(ValueError):
        compute_selmer(validate_params(1, 3, 5, [7]), "both")


def test_jsonable_shape():
    group = compute_selmer(validate_params(1, 3, 5, [61]), ts.PHI)
    payload = to_jsonable(group)
    assert payload["basis"] == [61] and "elements" not in payload
    assert payload["dim2"] == 1 and payload["order"] == 2
    assert "verdicts" not in payload
    assert to_jsonable(group, include_elements=True)["elements"] == [1, 61]
    full = to_jsonable(group, include_table=True)
    assert full["schema"] == "twinselmer/selmer-v4"
    assert full["verdicts"]["inf"]["sign=+1"] == {
        "d": 1, "solvable": True, "search_depth": 0, "witness": {"type": "real_sign", "s": "0"}
    }
    # 61 is the representative of its own class at 61: valuation 1, unit 1
    assert full["verdicts"]["61"]["val=1,unit=1"]["d"] == 61
    assert set(full["verdicts"]) == {"inf", "2", "3", "5", "61"}


def _subgroup_oracle(params, seed):
    """A local_verdict stand-in solvable on a seeded random subgroup of Q_v*/Q_v*^2 at each place."""
    rng = random.Random(seed)
    solvable = {}
    for place in params.places():
        rank = {ts.INF_PLACE: 1, 2: 3}.get(place, 2)
        span = {0}
        for _ in range(rng.randint(0, rank)):
            g = rng.randrange(1 << rank)
            span |= {g ^ c for c in span}
        solvable[place] = span

    def oracle(space, place):
        return LocalVerdict(place, space.d, local_class(space.d, place) in solvable[place], None, 0)

    return oracle, solvable


def test_elimination_matches_brute_force_on_random_subgroups(monkeypatch):
    # local conditions the real oracle never produces: compute_selmer must
    # still keep exactly the classes inside every solvable subgroup
    instances = random_instances(seed=1818, count=60, prime_bound=300, max_n=4)
    assert {params.n for params in instances} == {1, 2, 3, 4}
    sizes = set()
    for seed, params in enumerate(instances):
        oracle, solvable = _subgroup_oracle(params, seed)
        sizes |= {len(span) for span in solvable.values()}
        monkeypatch.setattr(selmer, "local_verdict", oracle)
        compute_selmer.cache_clear()  # no group decided by another instance's oracle
        members = [
            d for d in ts.enumerate_square_classes(params)
            if all(local_class(d, place) in solvable[place] for place in params.places())
        ]
        bits = gf2_rref([ts.class_of_integer(params, d) for d in members])
        for kind in (ts.PHI, ts.PHI_HAT):
            group = compute_selmer(params, kind)
            assert group.element_values() == sorted(members), (params, seed)
            assert group.basis == tuple(params.value(b) for b in bits), (params, seed)
    assert sizes == {1, 2, 4, 8}


_FIRST_40 = [r for r in ts.arith.primes_up_to(200) if r > 7][:40]
# dim2, basis and len(verdict_table) on (+1, 5, 7) with the first 40 primes above 7
_PINNED_N40 = {
    ts.PHI: (0, [], 131),
    ts.PHI_HAT: (23, [
        -2626077560674389994769, 4551796314232983985839412547815, 6372514839926177580175177566941,
        1835923452671937178424963, 16275361169039713, 2536538624698816391, 71208267391309,
        27634627854215170347907, 170167970157011353606577, 359988033127340983219, 63142675541851799,
        30498542308944771093601, 2128581068715476283089, 875635221243423521009, 4658501645029581119,
        9004260216887605627, 6299255855257385401, 22976527047729540858108457, 1746593608371624375763,
        2526371968293796376129, 854604428549741, 107190989571647860804769, 49232265433682033,
    ], 178),
}


@pytest.mark.parametrize("kind", [ts.PHI, ts.PHI_HAT])
def test_pinned_groups_at_n40(kind):
    assert len(_FIRST_40) == 40
    group = compute_selmer(validate_params(1, 5, 7, _FIRST_40), kind)
    assert (group.dim2, list(group.basis), len(group.verdict_table)) == _PINNED_N40[kind]
