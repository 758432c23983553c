"""Tests for brace enumeration and isomorphism search."""

import random
from itertools import product

import pytest

from skewbrace import (
    OrderBoundExceeded,
    aut_group,
    brace_isomorphic,
    braces_with_additive_group,
    census,
    census_oracle,
    check_brace_invariants,
    cyclic_group,
    direct_product,
    group_catalog,
    make_brace,
    trivial_brace,
)
from skewbrace.census import (
    ORACLE_BOUND,
    _action_homs,
    _bfs_edges,
    _bijective_cocycles,
    _generator_levels,
    _hol_order,
    _oracle_counts,
)
from skewbrace.groups import _compose, _relabel, element_order, generating_set

EXPECTED_COUNTS = {
    1: 1,
    2: 1,
    3: 1,
    4: 4,
    5: 1,
    6: 6,
    7: 1,
    8: 47,
    9: 4,
    10: 6,
    11: 1,
    12: 38,
}

EXPECTED_SPLITS = {
    4: {"C2xC2": 2, "C4": 2},
    6: {"C6": 2, "S3": 4},
    8: {"C2xC2xC2": 8, "C4xC2": 14, "C8": 5, "D8": 12, "Q8": 8},
    9: {"C3xC3": 2, "C9": 2},
    10: {"C10": 2, "D10": 4},
    12: {"A4": 8, "C12": 5, "C6xC2": 5, "D12": 10, "Dic3": 10},
}


def test_counts_up_to_twelve():
    for n, expected in EXPECTED_COUNTS.items():
        assert census(n).count() == expected, n


def test_counts_by_additive_group():
    for n, split in EXPECTED_SPLITS.items():
        assert census(n).count_by_additive() == split, n


def test_census_agrees_with_pair_table_oracle():
    for n in range(2, 9):
        assert census(n).count() == census_oracle(n), n


def test_oracle_matches_census_per_additive_group():
    for n in range(2, 16):
        assert _oracle_counts(n) == census(n, order_bound=16).count_by_additive(), n


def _all_pairs_homs(C, auts):
    """Every product of generator images of fitting order, extended along
    BFS edges and kept when lam(ab) = lam(a) lam(b) on all pairs."""
    gens = generating_set(C)
    edges = _bfs_edges(C, gens)
    ident = auts[0]

    def perm_order(phi):
        k, psi = 1, phi
        while psi != ident:
            k, psi = k + 1, _compose(psi, phi)
        return k

    candidates = [
        [phi for phi in auts if element_order(C, g) % perm_order(phi) == 0]
        for g in gens
    ]
    out = set()
    for images in product(*candidates):
        lam = [ident] * C.order
        for g, phi in zip(gens, images):
            lam[g] = phi
        for x, g, y in edges:
            lam[y] = _compose(lam[x], lam[g])
        if all(_compose(lam[a], lam[b]) == lam[C.table[a][b]]
               for a in range(C.order) for b in range(C.order)):
            out.add(tuple(lam))
    return out


def _all_pairs_cocycles(C, A, lam):
    """Every product of generator images of fitting holomorph order, kept
    when it is a bijection and a cocycle on all pairs."""
    n = C.order
    gens = generating_set(C)
    edges = _bfs_edges(C, gens)
    candidates = [
        [v for v in range(n) if _hol_order(A, v, lam[g]) == element_order(C, g)]
        for g in gens
    ]
    out = set()
    for images in product(*candidates):
        delta = [0] * n
        for g, v in zip(gens, images):
            delta[g] = v
        for x, g, y in edges:
            delta[y] = A.table[delta[x]][lam[x][delta[g]]]
        if len(set(delta)) == n and all(
            delta[C.table[a][b]] == A.table[delta[a]][lam[a][delta[b]]]
            for a in range(n) for b in range(n)
        ):
            out.add(tuple(delta))
    return out


def _generator_proofs(C, A):
    """Homomorphisms C -> Aut(A) as permutation tuples, each mapped to its
    set of bijective cocycles, from the oracle's generator proofs."""
    aut, perms = aut_group(A)
    hol = [[_hol_order(A, v, phi) for v in range(A.order)] for phi in perms]
    levels = _generator_levels(C)
    return {
        tuple(perms[phi] for phi in lam):
            set(_bijective_cocycles(C, levels, A, lam, perms, hol))
        for lam in _action_homs(C, levels, aut)
    }


def test_generator_proofs_match_all_pairs_reference():
    for n in (1, 2, 3, 4, 5, 6, 12):
        catalog = group_catalog(n)
        for _, A in catalog:
            auts = aut_group(A)[1]
            for _, C in catalog:
                found = _generator_proofs(C, A)
                assert set(found) == _all_pairs_homs(C, auts), (C.name, A.name)
                for lam, cocycles in found.items():
                    assert cocycles == _all_pairs_cocycles(C, A, lam), (C.name, A.name)


def test_order_eight_homomorphism_and_cocycle_totals():
    catalog = group_catalog(8)
    homs, cocycles = {}, {}
    for label, A in catalog:
        found = [_generator_proofs(C, A) for _, C in catalog]
        homs[label] = sum(len(f) for f in found)
        cocycles[label] = sum(len(c) for f in found for c in f.values())
    assert homs == {"C8": 116, "C4xC2": 224, "C2xC2xC2": 1496, "D8": 224, "Q8": 440}
    assert cocycles == {"C8": 56, "C4xC2": 576, "C2xC2xC2": 3360, "D8": 496, "Q8": 528}


def test_non_commuting_generator_images_are_rejected():
    v4 = dict(group_catalog(4))["C2xC2"]
    aut, perms = aut_group(v4)
    levels = _generator_levels(v4)
    g1, g2 = generating_set(v4)
    transpositions = [phi for phi in range(aut.order) if element_order(aut, phi) == 2]
    assert len(transpositions) == 3
    assert element_order(v4, g1) == element_order(v4, g2) == 2
    homs = _action_homs(v4, levels, aut)
    # The trivial map, and each of 3 kernels of index 2 with 3 images.
    assert len(homs) == 10
    for t1 in transpositions:
        for t2 in transpositions:
            if t1 != t2:
                assert aut.table[t1][t2] != aut.table[t2][t1]
                assert not any(lam[g1] == t1 and lam[g2] == t2 for lam in homs)


def test_every_entry_passes_invariants(medium_entries):
    for entry in medium_entries:
        assert check_brace_invariants(entry.brace), entry.brace.name


def test_census_is_deterministic():
    first = census(6)
    second = census(6)
    assert [e.additive_label for e in first.entries] == [
        e.additive_label for e in second.entries
    ]
    assert [e.brace.tables() for e in first.entries] == [
        e.brace.tables() for e in second.entries
    ]


def test_census_label_order():
    labels = [
        (e.additive_label, e.multiplicative_label) for e in census(6).entries
    ]
    assert labels == [
        ("C6", "C6"),
        ("C6", "S3"),
        ("S3", "C6"),
        ("S3", "C6"),
        ("S3", "S3"),
        ("S3", "S3"),
    ]


@pytest.mark.parametrize("n", range(1, 13))
def test_entries_are_pairwise_non_isomorphic(n):
    entries = census(n).entries
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            assert brace_isomorphic(entries[i].brace, entries[j].brace) is None


@pytest.mark.parametrize("n", range(1, 13))
def test_relabeled_entries_are_isomorphic(n):
    rng = random.Random(n)
    for entry in census(n).entries:
        b = entry.brace
        perm = [0] + rng.sample(range(1, n), n - 1)
        add, mul = _relabel(b.add_group.table, perm), _relabel(b.mul_group.table, perm)
        f = brace_isomorphic(b, make_brace(add, mul))
        assert f is not None and sorted(f) == list(range(n))
        for x in range(n):
            for y in range(n):
                assert f[b.add(x, y)] == add[f[x]][f[y]]
                assert f[b.mul(x, y)] == mul[f[x]][f[y]]


def test_brace_isomorphic_finds_identity():
    b = trivial_brace(cyclic_group(4))
    assert brace_isomorphic(b, b) == list(range(4))


def test_brace_isomorphic_rejects_different_additive_groups():
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    assert brace_isomorphic(trivial_brace(cyclic_group(4)), trivial_brace(v4)) is None


def test_relabeled_brace_is_isomorphic(worked_examples):
    b = worked_examples["ex8"].brace
    perm = [0] * 8
    for i in range(4):
        for j in range(2):
            perm[2 * i + j] = 2 * ((3 * i) % 4) + j
    add = [[0] * 8 for _ in range(8)]
    mul = [[0] * 8 for _ in range(8)]
    for x in range(8):
        for y in range(8):
            add[perm[x]][perm[y]] = perm[b.add(x, y)]
            mul[perm[x]][perm[y]] = perm[b.mul(x, y)]
    relabeled = make_brace(add, mul)
    assert brace_isomorphic(b, relabeled) is not None


def test_worked_examples_appear_in_census(worked_examples):
    hits8 = [
        (e.additive_label, e.multiplicative_label)
        for e in census(8).entries
        if brace_isomorphic(worked_examples["ex8"].brace, e.brace) is not None
    ]
    assert hits8 == [("C4xC2", "D8")]
    hits12 = [
        (e.additive_label, e.multiplicative_label)
        for e in census(12).entries
        if brace_isomorphic(worked_examples["ex12"].brace, e.brace) is not None
    ]
    assert hits12 == [("C12", "D12")]


def test_prime_orders_have_one_brace():
    for p in (2, 3, 5, 7, 11):
        result = census(p)
        assert result.count() == 1
        assert result.entries[0].brace.is_trivial()


def test_braces_with_single_additive_group():
    c6 = cyclic_group(6)
    found = braces_with_additive_group(c6)
    assert len(found) == 2
    for b in found:
        assert check_brace_invariants(b)


def test_extended_bound_pins():
    c16 = cyclic_group(16)
    assert len(braces_with_additive_group(c16, order_bound=16)) == 8
    c4x4 = direct_product(cyclic_group(4), cyclic_group(4))
    assert len(braces_with_additive_group(c4x4, order_bound=16)) == 83


def test_extended_census_on_doubled_primes():
    r14 = census(14, order_bound=16)
    assert r14.count() == 6
    assert r14.count_by_additive() == {"C14": 2, "D14": 4}
    r15 = census(15, order_bound=16)
    assert r15.count() == 1


def test_order_bounds_raise():
    with pytest.raises(OrderBoundExceeded):
        census(13)
    with pytest.raises(OrderBoundExceeded):
        census_oracle(ORACLE_BOUND + 1)
    with pytest.raises(OrderBoundExceeded):
        braces_with_additive_group(cyclic_group(16))
    with pytest.raises(OrderBoundExceeded):
        group_catalog(16)


def test_group_catalog_shapes():
    assert [lbl for lbl, _ in group_catalog(8)] == [
        "C8",
        "C4xC2",
        "C2xC2xC2",
        "D8",
        "Q8",
    ]
    assert [len(group_catalog(n)) for n in range(1, 16)] == [
        1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1,
    ]
    for n in (6, 8, 12):
        for lbl, g in group_catalog(n):
            assert g.order == n, lbl
