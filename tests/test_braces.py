"""Tests for brace construction, validation, and constructions on braces."""

import random
import re
from itertools import combinations

import pytest

from skewbrace import (
    ActionNotHomomorphism,
    BraceInvalid,
    CocycleIdentityViolation,
    CocycleSpec,
    DeltaNotBijective,
    DistributivityViolation,
    IdentityMismatch,
    MissingInverse,
    MissingZero,
    NoIdentity,
    NonAssociative,
    NotAnIdeal,
    NotClosed,
    SkewBraceError,
    FiniteGroup,
    SkewBrace,
    TranscriptionInvalid,
    all_ideals,
    brace_core,
    brace_from_cocycle,
    brace_isomorphic,
    census,
    check_brace_invariants,
    check_braces,
    cyclic_group,
    direct_product,
    direct_product_braces,
    group_catalog,
    group_isomorphism,
    index,
    is_supersoluble_group,
    make_brace,
    make_group,
    quotient_brace,
    semidirect_group,
    trivial_brace,
    u_p,
)

from skewbrace import braces
from skewbrace.braces import _brace
from skewbrace.groups import _group, _relabel

import scalar_reference as ref


def catalog_group(n, label):
    for lbl, g in group_catalog(n):
        if lbl == label:
            return g
    raise AssertionError(f"no group labeled {label} of order {n}")


def table_of(group):
    return [list(row) for row in group.table]


def test_trivial_brace_has_coinciding_operations():
    b = trivial_brace(cyclic_group(6))
    assert b.order == 6
    assert b.is_trivial()
    assert all(b.add(x, y) == b.mul(x, y) for x in range(6) for y in range(6))
    assert all(b.star(x, y) == 0 for x in range(6) for y in range(6))
    assert check_brace_invariants(b)


def test_trivial_brace_on_nonabelian_group():
    b = trivial_brace(catalog_group(6, "S3"))
    assert b.is_trivial()
    assert not b.is_abelian()
    assert check_brace_invariants(b)


def test_make_brace_detects_identity_mismatch():
    add = [[0, 1], [1, 0]]
    mul = [[1, 0], [0, 1]]
    with pytest.raises(IdentityMismatch) as exc:
        make_brace(add, mul)
    assert "additive identity is 0" in str(exc.value)


def test_make_brace_rejects_ragged_tables():
    with pytest.raises(NotClosed):
        make_brace([[0], [1, 0]], [[0, 1], [1, 0]])
    with pytest.raises(NotClosed):
        make_brace([[0, 1], [1, 0]], [[0, 1], [1]])


def _union_of_halves(b):
    """The union of the first two of the three ideals of order 16 of ex32,
    neither inside the other, so the ideals inside it have no largest
    member."""
    I, J, _ = [I for I in all_ideals(b) if len(I) == 16]
    return sorted(set(I) | set(J))


@pytest.mark.parametrize("call, error, message", [
    (lambda ex: brace_core(ex["ex32"].brace, _union_of_halves(ex["ex32"].brace)),
     NotAnIdeal, "ideals inside the subset have no common largest member"),
    (lambda ex: brace_core(ex["ex8"].brace, (1, 2)),
     MissingZero, "the core is taken inside a subbrace containing 0"),
    (lambda ex: index(ex["ex8"].brace, (0, 1, 2)),
     NotAnIdeal, "subset size 3 does not divide the order 8"),
    (lambda ex: make_brace(cyclic_group(2).table, cyclic_group(3).table),
     BraceInvalid, "table sizes differ: 2 vs 3"),
    (lambda ex: brace_from_cocycle(CocycleSpec(cyclic_group(2), cyclic_group(2),
                                               ((0, 1), (0, 1)), (0,))),
     TranscriptionInvalid, "acting or delta table has the wrong length"),
    (lambda ex: group_catalog(0), SkewBraceError, "group order must be positive, got 0"),
], ids=["core-no-largest", "core-without-zero", "index", "table-sizes", "cocycle-length",
        "catalog-order"])
def test_public_rejections_name_their_fault(worked_examples, call, error, message):
    with pytest.raises(SkewBraceError) as exc:
        call(worked_examples)
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("entry", [2, 1.0, True])
def test_make_brace_proves_both_tables_closed(entry):
    """An entry off the carrier, in either table, raises NotClosed naming its
    cell, in `make_brace` and in `make_group`; a bool is not the element 1."""
    for side in range(2):
        tables = [[[0, 1], [1, 0]], [[0, 1], [1, 0]]]
        tables[side][1][1] = entry
        message = re.escape(f"entry at (1, 1) is {entry!r}, outside 0..1")
        with pytest.raises(NotClosed, match=message):
            make_brace(*tables)
        with pytest.raises(NotClosed, match=message):
            make_group(tables[side])


def test_make_brace_detects_distributivity_violation():
    add = table_of(cyclic_group(4))
    mul = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]
    with pytest.raises(DistributivityViolation) as exc:
        make_brace(add, mul)
    assert "2(1+1)" in str(exc.value)


def test_xor_multiplication_on_cyclic_additive_group_is_a_brace():
    add = table_of(cyclic_group(4))
    xor = [[a ^ b for b in range(4)] for a in range(4)]
    b = make_brace(add, xor)
    assert not b.is_trivial()
    assert check_brace_invariants(b)


def test_lambda_of_zero_is_identity_and_star_vanishes_at_zero(worked_examples):
    for ex in worked_examples.values():
        b = ex.brace
        assert b.lam_table[0] == tuple(range(b.order))
        assert all(b.star(0, y) == 0 for y in range(b.order))
        assert all(b.star(x, 0) == 0 for x in range(b.order))


def test_full_invariant_suite_on_worked_examples(worked_examples):
    for ex in worked_examples.values():
        assert check_brace_invariants(ex.brace), ex.name


def test_power_helpers(worked_examples):
    """A huge or negative k costs at most one pass over the element's order."""
    b = trivial_brace(cyclic_group(6))
    assert b.add_power(1, 6) == 0
    assert b.add_power(1, 4) == 4
    assert b.mul_power(5, 6) == 0
    assert b.neg(2) == 4
    assert b.add_power(1, 10**12) == b.add_power(1, -2) == 4
    assert b.add_power(1, 6 * 10**12) == b.add_power(1, -6) == 0
    assert b.mul_power(5, 6 * 10**12) == b.mul_power(5, -6) == 0
    ex8 = worked_examples["ex8"].brace
    for a in ex8.elements():
        for k in range(-9, 10):
            assert ex8.add_power(a, k + 1) == ex8.add(ex8.add_power(a, k), a)
            assert ex8.mul_power(a, k + 1) == ex8.mul(ex8.mul_power(a, k), a)
            assert ex8.mul_power(a, -k) == ex8.inv(ex8.mul_power(a, k))


def test_cocycle_round_trip_recovers_action_and_product(worked_examples):
    from skewbrace import GroupMap

    for ex in worked_examples.values():
        spec = ex.spec
        b = ex.brace
        delta = list(spec.delta)
        emb = GroupMap(spec.multiplicative, b.mul_group, delta)
        assert emb.is_homomorphism(), ex.name
        assert emb.is_bijective(), ex.name
        for c in range(spec.multiplicative.order):
            assert b.lam_table[delta[c]] == tuple(spec.acting[c]), ex.name
        rebuilt = brace_from_cocycle(spec)
        assert rebuilt.tables() == b.tables(), ex.name
        # Rows given as lists are sequences of ints too, and build the same brace.
        listed = spec._replace(acting=[list(p) for p in spec.acting], delta=list(spec.delta))
        assert brace_from_cocycle(listed).tables() == b.tables(), ex.name


def test_identity_cocycle_yields_trivial_brace():
    c6 = cyclic_group(6)
    ident = tuple(range(6))
    spec = CocycleSpec(c6, c6, tuple([ident] * 6), ident)
    b = brace_from_cocycle(spec)
    assert b.is_trivial()


def test_cocycle_validation_rejects_bad_specs():
    c4 = cyclic_group(4)
    ident = (0, 1, 2, 3)
    neg = (0, 3, 2, 1)
    shift = (1, 2, 3, 0)
    with pytest.raises(DeltaNotBijective):
        brace_from_cocycle(CocycleSpec(c4, c4, (ident,) * 4, (0, 1, 1, 3)))
    with pytest.raises(TranscriptionInvalid):
        brace_from_cocycle(CocycleSpec(c4, c4, (ident,) * 4, (1, 0, 2, 3)))
    with pytest.raises(ActionNotHomomorphism):
        brace_from_cocycle(CocycleSpec(c4, c4, (ident, neg, ident, ident), ident))
    with pytest.raises(TranscriptionInvalid):
        brace_from_cocycle(CocycleSpec(c4, c4, (ident, shift, ident, ident), ident))
    with pytest.raises(TranscriptionInvalid):
        brace_from_cocycle(
            CocycleSpec(c4, cyclic_group(6), (ident,) * 6, (0, 1, 2, 3, 4, 5))
        )


def test_cocycle_entries_must_be_ints_on_the_carrier():
    """A float equals an int but cannot index a table, and a bool is not an
    element: each is refused with the class of its table and named."""
    c4 = cyclic_group(4)
    ident = (0, 1, 2, 3)
    for acting, entry in ((ident, ident, ident, (0, 1.0, 2, 3)), "3 has entry 1.0 at 1"), \
            (((0, 1, 2, None),) + (ident,) * 3, "0 has entry None at 3"):
        with pytest.raises(TranscriptionInvalid,
                           match=f"acting map of element {entry}, not an int in 0..3"):
            brace_from_cocycle(CocycleSpec(c4, c4, acting, ident))
    for delta, entry in (((0, 1.0, 2, 3), "1.0 at 1"), ((0, 1, 2, -3), "-3 at 3"),
                         ((0, 1, 2, [3]), r"\[3\] at 3")):
        with pytest.raises(DeltaNotBijective, match=f"delta has entry {entry}, not an int"):
            brace_from_cocycle(CocycleSpec(c4, c4, (ident,) * 4, delta))
    flags = (False, True, 2, 3)
    with pytest.raises(TranscriptionInvalid,
                       match="acting map of element 0 has entry False at 0, not an int in 0..3"):
        brace_from_cocycle(CocycleSpec(c4, c4, (flags,) * 4, ident))
    with pytest.raises(DeltaNotBijective, match="delta has entry False at 0, not an int"):
        brace_from_cocycle(CocycleSpec(c4, c4, (ident,) * 4, flags))


def test_corrupted_delta_breaks_cocycle_identity(worked_examples):
    spec = worked_examples["ex8"].spec
    delta = list(spec.delta)
    delta[1], delta[2] = delta[2], delta[1]
    bad = CocycleSpec(spec.additive, spec.multiplicative, spec.acting, tuple(delta))
    with pytest.raises(CocycleIdentityViolation):
        brace_from_cocycle(bad)


def _outcome(check, spec):
    try:
        return check(spec).tables(), None
    except SkewBraceError as exc:
        return type(exc), str(exc)


def test_delta_swaps_are_judged_like_the_all_pairs_cocycle_check(worked_examples):
    """Every swap of two delta values of an example gets the same brace or
    the same exception class from the generator check as from the all-pairs
    one, and a named cocycle witness (c, d) really breaks the identity.
    No swap of these examples is a cocycle."""
    swaps = rejected = 0
    for ex in worked_examples.values():
        spec = ex.spec
        ta, tm = spec.additive.table, spec.multiplicative.table
        for c, d in combinations(range(spec.additive.order), 2):
            delta = list(spec.delta)
            delta[c], delta[d] = delta[d], delta[c]
            swapped = spec._replace(delta=tuple(delta))
            found, message = _outcome(brace_from_cocycle, swapped)
            assert found == _outcome(ref.brace_from_cocycle, swapped)[0], (ex.name, c, d)
            if found is CocycleIdentityViolation:
                x, y = map(int, re.search(r"lambda\((\d+)\)\(delta\((\d+)\)\)",
                                          message).groups())
                assert delta[tm[x][y]] != ta[delta[x]][spec.acting[x][delta[y]]]
            swaps += 1
            rejected += found in (CocycleIdentityViolation, TranscriptionInvalid)
    assert rejected == swaps


def test_cocycle_witness_separates_two_digit_elements(worked_examples):
    """Swapping delta(12) and delta(13) of ex32 breaks the identity at
    c = 10, a two-digit element; the witness delta(c d) names the pair
    without reading the right-hand side, and the pair really violates
    delta(cd) = delta(c) + lambda(c)(delta(d))."""
    spec = worked_examples["ex32"].spec
    delta = list(spec.delta)
    delta[12], delta[13] = delta[13], delta[12]
    with pytest.raises(CocycleIdentityViolation) as exc:
        brace_from_cocycle(spec._replace(delta=tuple(delta)))
    c, d = map(int, re.match(r"delta\((\d+) (\d+)\) != ", str(exc.value)).groups())
    assert c >= 10
    assert str(exc.value) == f"delta({c} {d}) != delta({c}) + lambda({c})(delta({d}))"
    ta, tm = spec.additive.table, spec.multiplicative.table
    assert delta[tm[c][d]] != ta[delta[c]][spec.acting[c][delta[d]]]


def test_quotient_by_zero_ideal_is_identity(worked_examples):
    b = worked_examples["ex12"].brace
    q, proj = quotient_brace(b, (0,))
    assert proj == list(range(b.order))
    assert q.tables() == b.tables()


def test_quotient_by_whole_brace_is_zero(worked_examples):
    b = worked_examples["ex12"].brace
    q, _ = quotient_brace(b, tuple(range(b.order)))
    assert q.order == 1


def test_quotient_facts_on_worked_examples(worked_examples):
    ex12 = worked_examples["ex12"]
    q, _ = quotient_brace(ex12.brace, ex12.subsets["socle"])
    assert q.order == 4
    assert not q.is_trivial()
    ex24 = worked_examples["ex24"]
    q2, _ = quotient_brace(ex24.brace, ex24.subsets["socle2"])
    assert q2.order == 4
    assert q2.is_trivial()
    q3, _ = quotient_brace(ex24.brace, ex24.subsets["I"])
    assert q3.order == 2
    assert q3.is_trivial()


def test_quotient_rejects_non_ideal(worked_examples):
    with pytest.raises(NotAnIdeal):
        quotient_brace(worked_examples["ex12"].brace, (0, 6))
    # Normal in both groups, but not invariant under lambda.
    with pytest.raises(NotAnIdeal, match="lambda"):
        quotient_brace(worked_examples["ex8"].brace, (0, 1))


def test_semidirect_group_of_trivial_brace():
    g = semidirect_group(trivial_brace(cyclic_group(2)))
    assert g.order == 4
    assert g.is_abelian()
    assert group_isomorphism(
        g, direct_product(cyclic_group(2), cyclic_group(2))
    ) is not None


def test_semidirect_group_orders_and_supersolubility(worked_examples):
    g8 = semidirect_group(worked_examples["ex8"].brace)
    assert g8.order == 64
    g12 = semidirect_group(worked_examples["ex12"].brace)
    assert g12.order == 144
    for g in (g8, g12):
        assert make_group(g.table).inverse == g.inverse
    assert is_supersoluble_group(g12)


def test_direct_product_of_trivial_braces_is_trivial():
    b = direct_product_braces(
        trivial_brace(cyclic_group(2)), trivial_brace(cyclic_group(3))
    )
    assert b.order == 6
    assert b.is_trivial()
    assert check_brace_invariants(b)


def test_direct_product_with_zero_brace_is_isomorphic(worked_examples):
    b = worked_examples["ex8"].brace
    prod = direct_product_braces(b, trivial_brace(cyclic_group(1)))
    assert brace_isomorphic(prod, b) is not None


def test_direct_product_carries_odd_part(worked_examples):
    prod = direct_product_braces(
        worked_examples["ex8"].brace, trivial_brace(cyclic_group(3))
    )
    assert prod.order == 24
    result = u_p(prod, 2)
    assert len(result.additive) == 3
    assert result.equal
    assert result.is_ideal


def _relabel_fixing_zero(table, perm):
    inv = [0] * len(perm)
    for x, px in enumerate(perm):
        inv[px] = x
    n = len(table)
    return [[perm[table[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]


def _violates(add, mul, a, b, c):
    """Whether a(b+c) != ab - a + ac in the given tables."""
    neg = add.inverse
    ta = add.table
    return mul[a][ta[b][c]] != ta[ta[mul[a][b]][neg[a]]][mul[a][c]]


def _witness(exc):
    a, b, c = re.match(r"(\d+)\((\d+)\+(\d+)\)", str(exc.value)).groups()
    return int(a), int(b), int(c)


def test_make_brace_agrees_with_all_triples_check_on_small_orders():
    accepted = rejected = 0
    for n in range(1, 9):
        catalog = group_catalog(n)
        for add_label, add in catalog:
            for mul_label, mul_group in catalog:
                for s in range(6):
                    rng = random.Random(f"{n}:{add_label}:{mul_label}:{s}")
                    rest = list(range(1, n))
                    rng.shuffle(rest)
                    mul = _relabel_fixing_zero(mul_group.table, [0] + rest)
                    naive = not any(_violates(add, mul, a, b, c)
                                    for a in range(n) for b in range(n)
                                    for c in range(n))
                    if naive:
                        make_brace(add.table, mul)
                        accepted += 1
                        continue
                    with pytest.raises(DistributivityViolation) as exc:
                        make_brace(add.table, mul)
                    assert _violates(add, mul, *_witness(exc))
                    rejected += 1
    assert accepted > 0 and rejected > 0


def test_validation_is_exact_at_orders_128_and_192(worked_examples):
    ex = {name: worked_examples[name].brace for name in ("ex32", "ex24", "ex8")}
    big = direct_product_braces(ex["ex32"], trivial_brace(cyclic_group(4)))
    assert big.order == 128
    assert direct_product_braces(ex["ex24"], ex["ex8"]).order == 192
    # Relabelling the odd elements only leaves the product among even
    # elements (a subbrace) untouched, so every violation has an odd entry
    # and a scan over a stride-2 grid of triples finds none.
    n = big.order
    odd = list(range(1, n, 2))
    random.Random(128).shuffle(odd)
    perm = list(range(n))
    perm[1::2] = odd
    mul = _relabel_fixing_zero(big.mul_group.table, perm)
    assert all(mul[a][b] == big.mul(a, b) for a in range(0, n, 2) for b in range(0, n, 2))
    with pytest.raises(DistributivityViolation) as exc:
        make_brace(big.add_group.table, mul)
    assert _violates(big.add_group, mul, *_witness(exc))


def test_single_cell_corruptions_of_the_action_are_rejected(worked_examples):
    spec = worked_examples["ex8"].spec
    n = spec.additive.order
    for c in range(n):
        for x in range(n):
            for value in range(n):
                if value == spec.acting[c][x]:
                    continue
                acting = [list(p) for p in spec.acting]
                acting[c][x] = value
                bad = CocycleSpec(spec.additive, spec.multiplicative,
                                  tuple(map(tuple, acting)), spec.delta)
                with pytest.raises(TranscriptionInvalid):
                    brace_from_cocycle(bad)


def test_single_cell_corruptions_of_brace_tables_are_rejected(worked_examples, products):
    """A changed cell repeats an entry in its row, so the table is no group
    and `make_brace` must reject it; a swap of two labels in the product
    table keeps both groups, so only the brace axiom can reject it.  A
    named witness must really break the identity it names."""
    rng = random.Random(48)
    for b in (worked_examples["ex8"].brace, worked_examples["ex12"].brace,
              products["ex24xC2"]):
        n = b.order
        for trial in range(40):
            tables = [table_of(b.add_group), table_of(b.mul_group)]
            bad = tables[trial % 2]
            a, c = rng.randrange(n), rng.randrange(n)
            bad[a][c] = rng.choice([v for v in range(n) if v != bad[a][c]])
            with pytest.raises((NoIdentity, NonAssociative, MissingInverse)) as exc:
                make_brace(*tables)
            if exc.type is NonAssociative:
                s, x, y = map(int, re.match(
                    r"\((\d+)\*(\d+)\)\*(\d+)", str(exc.value)).groups())
                assert bad[bad[s][x]][y] != bad[s][bad[x][y]]
        for _ in range(5):
            perm = list(range(n))
            i, j = rng.sample(range(1, n), 2)
            perm[i], perm[j] = j, i
            mul = _relabel_fixing_zero(b.mul_group.table, perm)
            try:
                make_brace(b.add_group.table, mul)
            except DistributivityViolation as exc:
                a, x, y = map(int, re.match(r"(\d+)\((\d+)\+(\d+)\)", str(exc)).groups())
                assert _violates(b.add_group, mul, a, x, y)
            else:
                assert not any(_violates(b.add_group, mul, a, x, y) for a in range(n)
                               for x in range(n) for y in range(n))


def test_distributivity_witness_is_the_first_of_the_scan_over_every_element(
        ybe_products, monkeypatch):
    """The labels 1 and 2 swapped in ex24xex8's product table break the axiom
    at every multiplicative generator.  The proof runs a over generators, but
    the witness is the first failing (a, b, c) of the scan over every a, as
    the reference names it, also with the generators in reverse order."""
    B = ybe_products["ex24xex8"]
    n = B.order
    perm = list(range(n))
    perm[1], perm[2] = 2, 1
    mul = make_group(_relabel_fixing_zero(B.mul_group.table, perm))
    expected = "1(1+1) != 1 1 - 1 + 1 1"
    with pytest.raises(DistributivityViolation) as exc:
        ref.validate_pair(B.add_group, mul)
    assert str(exc.value) == expected
    ascending = braces.generating_set
    for gens in (ascending, lambda G: ascending(G)[::-1] if G is mul else ascending(G)):
        monkeypatch.setattr(braces, "generating_set", gens)
        with pytest.raises(DistributivityViolation) as exc:
            braces._validate_pair(B.add_group, mul)
        assert str(exc.value) == expected


def _outcome(check, B):
    """check(B), or the class and message of the `SkewBraceError` it raises."""
    try:
        return check(B)
    except SkewBraceError as exc:
        return type(exc), str(exc)


def _rebuilt_verdict(B):
    """The check of one brace by definition: `make_brace` on its tables,
    then the rebuilt tables and lambda compared with the stored ones."""
    rebuilt = make_brace(B.add_group.table, B.mul_group.table, B.name)
    return (rebuilt.add_group.table == B.add_group.table
            and rebuilt.mul_group.table == B.mul_group.table
            and rebuilt.lam_table == B.lam_table)


def _assert_batch_matches_rebuilds(pool):
    """Entry by entry, `check_braces` and `check_brace_invariants` give the
    rebuild's verdict, or its error class and message; returns them."""
    expected = [_outcome(_rebuilt_verdict, B) for B in pool]
    batch = [(type(v), str(v)) if isinstance(v, SkewBraceError) else v
             for v in check_braces(pool)]
    assert [(type(v), v) for v in batch] == [(type(v), v) for v in expected]
    assert [_outcome(check_brace_invariants, B) for B in pool] == expected
    return expected


def _census_pool(n):
    return [entry.brace for entry in census(n).entries]


def _with_row_swapped(B, x):
    """B with cells x(n-2) and x(n-1) of its product table swapped: a row
    that stays a permutation, so no group axiom fails before associativity,
    and lambda derived from the new table."""
    mul = [list(row) for row in B.mul_group.table]
    mul[x][-2], mul[x][-1] = mul[x][-1], mul[x][-2]
    return _brace(B.add_group, _group(tuple(map(tuple, mul))), B.name)


def _with_labels_swapped(B):
    """B with the labels 1 and 2 of its product table swapped, which
    breaks the brace axiom in most entries."""
    perm = list(range(B.order))
    perm[1], perm[2] = 2, 1
    mul = _relabel_fixing_zero(B.mul_group.table, perm)
    return _brace(B.add_group, _group(tuple(map(tuple, mul))), B.name)


def test_check_rejects_a_lambda_table_that_disagrees_with_the_tables():
    """Both tables form a brace, so only the comparison with the rebuild
    can reject the stored lambda table."""
    B = _census_pool(4)[0]
    row = list(B.lam_table[1])
    row[2], row[3] = row[3], row[2]
    tampered = B.lam_table[:1] + (tuple(row),) + B.lam_table[2:]
    bad = SkewBrace(B.add_group, B.mul_group, tampered, B.name)
    assert check_brace_invariants(bad) is False
    assert check_braces([B, bad, B]) == [True, False, True]


def test_batch_check_matches_the_rebuild_on_every_census_entry():
    for n in range(1, 16):
        pool = _census_pool(n)
        assert _assert_batch_matches_rebuilds(pool) == [True] * len(pool), n


@pytest.mark.parametrize("n", [4, 6, 8, 12])
def test_batch_check_names_each_broken_entry_as_the_rebuild_does(n):
    """One entry at a time, its product table broken in the brace axiom or
    in associativity; the entries around it share its additive table."""
    pool = _census_pool(n)
    for k, B in enumerate(pool):
        for bad in (_with_labels_swapped(B), _with_row_swapped(B, n - 1)):
            expected = _assert_batch_matches_rebuilds(pool[:k] + [bad] + pool[k + 1:])
            assert expected[:k] + expected[k + 1:] == [True] * (len(pool) - 1)
    # Associativity fails in every row-swapped entry, and the brace axiom
    # in some label-swapped ones.
    assert {_outcome(_rebuilt_verdict, _with_row_swapped(B, n - 1))[0]
            for B in pool} == {NonAssociative}
    swapped = [_outcome(_rebuilt_verdict, _with_labels_swapped(B)) for B in pool]
    assert any(v is not True and v[0] is DistributivityViolation for v in swapped)


@pytest.mark.parametrize("n", [8, 12])
def test_batch_check_fails_every_entry_over_a_corrupted_shared_table(n):
    """After the first entry over each additive group A, every entry over A
    gets one shared corrupted copy of A's table under A's own name: each
    fails with make_brace's message, not with the first entry's proof."""
    pool, corrupt, seen = [], {}, set()
    for B in _census_pool(n):
        A = B.add_group
        if A.name in seen:
            if A.name not in corrupt:
                table = [list(row) for row in A.table]
                table[1][1] = table[1][2]
                corrupt[A.name] = FiniteGroup(tuple(map(tuple, table)), A.inverse, A.name)
            B = SkewBrace(corrupt[A.name], B.mul_group, B.lam_table, B.name)
        seen.add(A.name)
        pool.append(B)
    expected = _assert_batch_matches_rebuilds(pool)
    for B, verdict in zip(pool, expected):
        assert (verdict is True) == (B.add_group not in corrupt.values())


def test_batch_check_proves_equal_tables_in_distinct_objects():
    """Copies of a proven table pass as the original does; a copy that is
    equal but holds floats (1.0 == 1), or lists, gets the rebuild's verdict,
    NotClosed or False, not the original's proof."""
    pool = _census_pool(8)
    copies = []
    for B in pool:
        A = B.add_group
        for rows in (tuple(map(tuple, A.table)), tuple(tuple(map(float, r)) for r in A.table),
                     [list(r) for r in A.table]):
            copies.append(SkewBrace(FiniteGroup(rows, A.inverse, A.name), B.mul_group,
                                    B.lam_table, B.name))
    expected = _assert_batch_matches_rebuilds(pool + copies)
    assert expected[len(pool)::3] == [True] * len(pool)
    assert {v[0] for v in expected[len(pool) + 1::3]} == {NotClosed}
    assert expected[len(pool) + 2::3] == [False] * len(pool)


def test_batch_check_proves_each_additive_table_once(monkeypatch):
    """A pool of braces proves each distinct additive table once and each
    product table once, with no make_brace rebuild: an additive table is
    known by its content, not by its group's name or by its object."""
    pool = _census_pool(4) + _census_pool(8)
    for G in (cyclic_group(4), catalog_group(4, "C2xC2")):
        renamed = FiniteGroup(tuple(map(tuple, G.table)), G.inverse, "same name")
        pool.append(trivial_brace(renamed))
    proved, rebuilt = [], []
    prove, make = braces._prove_group, braces.make_brace
    monkeypatch.setattr(braces, "_prove_group",
                        lambda table, *rest: proved.append(table) or prove(table, *rest))
    monkeypatch.setattr(braces, "make_brace",
                        lambda *args: rebuilt.append(args) or make(*args))
    assert check_braces(pool) == [True] * len(pool)
    additive = {B.add_group.table for B in pool}
    assert len(additive) == 7 and rebuilt == []
    assert sorted(proved) == sorted(list(additive) + [B.mul_group.table for B in pool])


def test_batch_check_judges_braces_with_their_identity_at_one(monkeypatch):
    """Census braces relabeled by the swap of 0 and 1 are braces with the
    identity at 1, which make_brace moves back to 0, so every rebuild
    differs from the stored tables.  Entries over one additive group share
    one relabeled table object, whose relabeled group is proven once."""
    swap = (1, 0) + tuple(range(2, 8))
    shared, pool = {}, []
    for B in _census_pool(8):
        A = B.add_group
        if A.name not in shared:
            shared[A.name] = FiniteGroup(_relabel(A.table, swap), A.inverse, A.name)
        mul = FiniteGroup(_relabel(B.mul_group.table, swap), B.mul_group.inverse)
        pool.append(SkewBrace(shared[A.name], mul, _relabel(B.lam_table, swap), B.name))
    assert len(pool) > len(shared)
    assert _assert_batch_matches_rebuilds(pool) == [False] * len(pool)
    proved, prove = [], braces._prove_group
    monkeypatch.setattr(braces, "_prove_group",
                        lambda table, *rest: proved.append(table) or prove(table, *rest))
    assert check_braces(pool) == [False] * len(pool)
    tables = [G.table for G in shared.values()]
    assert [t for t in proved if any(t is u for u in tables)] == tables


def test_batch_check_names_the_first_fault_of_an_entry_with_two():
    """An additive table that is no group and a product table with an entry
    off the carrier: make_brace proves both tables closed first, so it
    names the product table's entry, and so must the batch."""
    B = _census_pool(8)[0]
    add = [list(row) for row in B.add_group.table]
    add[1][1] = add[1][2]
    mul = [list(row) for row in B.mul_group.table]
    mul[3][3] = 8
    bad = SkewBrace(FiniteGroup(tuple(map(tuple, add)), B.add_group.inverse),
                    FiniteGroup(tuple(map(tuple, mul)), B.mul_group.inverse),
                    B.lam_table, B.name)
    expected = _assert_batch_matches_rebuilds([B, bad])
    assert expected[1] == (NotClosed, "entry at (3, 3) is 8, outside 0..7")
