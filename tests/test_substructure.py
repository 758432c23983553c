"""Tests for subbrace and ideal detection."""

import pytest

from skewbrace import (
    MissingZero,
    all_ideals,
    all_subbraces,
    brace_core,
    check_brace_invariants,
    classify_subset,
    cyclic_group,
    direct_product_braces,
    frattini,
    group_catalog,
    ideal_generated,
    index,
    maximal_subbraces,
    minimal_ideals,
    quotient_brace,
    sub_brace,
    subbrace_generated,
    subgroups,
    trivial_brace,
)


def plain_subgroups(G):
    """Every subgroup of a group of order <= 15, which is generated by at most
    three elements: the product closure of every triple, by brute force,
    ordered by (size, elements)."""
    t, n = G.table, G.order
    found = set()
    for a in range(n):
        for b in range(a, n):
            for c in range(b, n):
                elems = {0, a, b, c}
                while True:
                    grown = {t[x][y] for x in elems for y in elems}
                    if grown == elems:
                        break
                    elems = grown
                found.add(tuple(sorted(elems)))
    return sorted(found, key=lambda s: (len(s), s))


def test_subgroups_match_plain_enumeration():
    for n in range(1, 16):
        for label, G in group_catalog(n):
            assert subgroups(G) == plain_subgroups(G), label


def test_all_ideals_match_plain_enumeration(small_entries, medium_entries):
    reference = {}
    for entry in small_entries + medium_entries:
        b = entry.brace
        if b.add_group.table not in reference:
            reference[b.add_group.table] = plain_subgroups(b.add_group)
        expected = [s for s in reference[b.add_group.table] if classify_subset(b, s).is_ideal]
        assert all_ideals(b) == expected, b.name


def test_subset_must_contain_zero(worked_examples):
    with pytest.raises(MissingZero):
        classify_subset(worked_examples["ex8"].brace, (1, 2))


def test_zero_and_whole_brace_are_ideals(worked_examples):
    for ex in worked_examples.values():
        for subset in ((0,), tuple(range(ex.brace.order))):
            flags = classify_subset(ex.brace, subset)
            assert flags.is_subbrace
            assert flags.is_left_ideal
            assert flags.is_strong_left_ideal
            assert flags.is_ideal


def test_flag_implications_across_all_subbraces(small_pool):
    """Also: every subbrace and every quotient by an ideal, built without a
    proof of its own, passes the public validator."""
    for b in small_pool:
        for subset in all_subbraces(b):
            flags = classify_subset(b, subset)
            assert flags.is_subbrace
            assert check_brace_invariants(sub_brace(b, subset))
            if flags.is_ideal:
                assert flags.is_strong_left_ideal
                assert check_brace_invariants(quotient_brace(b, subset)[0])
            if flags.is_strong_left_ideal:
                assert flags.is_left_ideal


def test_order8_example_subset_flags(worked_examples):
    b = worked_examples["ex8"].brace
    left_not_ideal = classify_subset(b, (0, 4))
    assert left_not_ideal.is_left_ideal
    assert not left_not_ideal.is_ideal
    for subset in ((0, 1), (0, 5)):
        flags = classify_subset(b, subset)
        assert flags.is_subbrace
        assert not flags.is_left_ideal


def test_order8_example_maximal_subbrace(worked_examples):
    b = worked_examples["ex8"].brace
    maximal = maximal_subbraces(b)
    assert maximal == [(0, 1, 4, 5)]
    assert index(b, maximal[0]) == 2
    assert classify_subset(b, maximal[0]).is_ideal


def test_order12_example_subset_flags(worked_examples):
    b = worked_examples["ex12"].brace
    strong = classify_subset(b, (0, 6))
    assert strong.is_strong_left_ideal
    assert not strong.is_ideal
    left = classify_subset(b, (0, 3, 6, 9))
    assert left.is_left_ideal
    assert not left.is_ideal


def test_order12_example_ideals_and_maximals(worked_examples):
    b = worked_examples["ex12"].brace
    ideals = {tuple(sorted(i)) for i in all_ideals(b)}
    assert ideals == {
        (0,),
        (0, 4, 8),
        (0, 2, 4, 6, 8, 10),
        tuple(range(12)),
    }
    maximal = {tuple(sorted(m)) for m in maximal_subbraces(b)}
    assert maximal == {(0, 3, 6, 9), (0, 2, 4, 6, 8, 10)}
    assert sorted(index(b, m) for m in maximal) == [2, 3]
    assert sorted(frattini(b).elements) == [0, 6]


def test_order24_example_substructure(worked_examples):
    ex = worked_examples["ex24"]
    b = ex.brace
    assert index(b, ex.subsets["I"]) == 2
    assert sorted(len(i) for i in all_ideals(b)) == [1, 3, 6, 12, 12, 12, 24]
    assert sorted(frattini(b).elements) == [0, 12]
    fit_i = ex.subsets["fit_I"]
    flags = classify_subset(b, fit_i)
    assert flags.is_subbrace
    assert not flags.is_left_ideal


def test_order32_example_ideal_sizes(worked_examples):
    b = worked_examples["ex32"].brace
    assert sorted(len(i) for i in all_ideals(b)) == [1, 8, 16, 16, 16, 32]
    assert sorted(index(b, m) for m in maximal_subbraces(b)) == [2, 2, 2]


def test_ideal_generated_examples(worked_examples):
    ex12 = worked_examples["ex12"]
    assert sorted(ideal_generated(ex12.brace, [6])) == [0, 2, 4, 6, 8, 10]
    ex24 = worked_examples["ex24"]
    assert sorted(ideal_generated(ex24.brace, [8])) == [0, 8, 16]
    assert sorted(ideal_generated(ex24.brace, [])) == [0]


def test_subbrace_generated_examples(worked_examples):
    ex8 = worked_examples["ex8"]
    assert sorted(subbrace_generated(ex8.brace, [1])) == [0, 1]
    ex12 = worked_examples["ex12"]
    assert sorted(subbrace_generated(ex12.brace, [1])) == list(range(12))


def test_generated_subsets_are_minimal_closures(small_pool):
    for b in small_pool[:20]:
        for x in range(min(b.order, 4)):
            sub = subbrace_generated(b, [x])
            assert classify_subset(b, sub).is_subbrace
            ideal = ideal_generated(b, [x])
            assert classify_subset(b, ideal).is_ideal
            assert set(sub) <= set(ideal)


def test_trivial_brace_substructure_matches_subgroups():
    b = trivial_brace(cyclic_group(6))
    assert len(all_ideals(b)) == 4
    assert len(all_subbraces(b)) == 4
    prime = trivial_brace(cyclic_group(5))
    assert maximal_subbraces(prime) == [(0,)]
    assert sorted(frattini(prime).elements) == [0]


def test_brace_core_is_largest_contained_ideal(worked_examples):
    ex12 = worked_examples["ex12"]
    assert brace_core(ex12.brace, (0, 3, 6, 9)) == (0,)
    ex8 = worked_examples["ex8"]
    maximal = maximal_subbraces(ex8.brace)[0]
    assert tuple(sorted(brace_core(ex8.brace, maximal))) == maximal


def test_minimal_ideals(worked_examples):
    ex12 = worked_examples["ex12"]
    assert [sorted(m) for m in minimal_ideals(ex12.brace)] == [[0, 4, 8]]
    ex32 = worked_examples["ex32"]
    mins = minimal_ideals(ex32.brace)
    assert [len(m) for m in mins] == [8]


def test_index_is_multiplicative(worked_examples):
    for ex in worked_examples.values():
        b = ex.brace
        for sub in all_subbraces(b):
            assert index(b, sub) * len(sub) == b.order


def test_all_ideals_match_classified_subgroups(full_pool, worked_examples):
    brace = {name: ex.brace for name, ex in worked_examples.items()}
    products = [
        direct_product_braces(brace["ex24"], trivial_brace(cyclic_group(2))),
        direct_product_braces(brace["ex12"], trivial_brace(cyclic_group(4))),
        direct_product_braces(brace["ex8"], brace["ex8"]),
    ]
    for b in full_pool + products:
        expected = [s for s in subgroups(b.add_group) if classify_subset(b, s).is_ideal]
        assert all_ideals(b) == expected, b
