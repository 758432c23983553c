"""Tests for subbrace and ideal detection."""

import random
import re
from functools import reduce
from itertools import combinations

import pytest

import scalar_reference as ref
from skewbrace import (
    GroupInvalid,
    MissingZero,
    NotAnIdeal,
    NotClosed,
    OrderBoundExceeded,
    SkewBraceError,
    b_central_series,
    all_ideals,
    all_subbraces,
    brace_core,
    additive_closure,
    check_brace_invariants,
    classify_subset,
    closure,
    cyclic_group,
    direct_product,
    direct_product_braces,
    element_order,
    frattini,
    group_catalog,
    ideal_chain,
    ideal_generated,
    index,
    is_b_centrally_nilpotent,
    is_normal,
    is_subgroup,
    make_brace,
    maximal_subbraces,
    minimal_ideals,
    quotient_brace,
    quotient_group,
    sub_brace,
    subbrace_generated,
    subgroups,
    trivial_brace,
)
from skewbrace import groups
from skewbrace.braces import SkewBrace
from skewbrace.groups import _relabel, _Span


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


def naive_subgroups(G):
    """Every subgroup by a fixed point: join every subgroup found with every
    element, each join the orbit of 0 under right multiplication by the
    elements joined so far, until nothing new appears.  Ordered by (size,
    elements)."""
    t = G.table

    def generated(gens):
        elems, seen = [0], {0}
        for e in elems:
            for g in gens:
                z = t[e][g]
                if z not in seen:
                    seen.add(z)
                    elems.append(z)
        return frozenset(seen)

    found = {frozenset((0,)): ()}
    todo = list(found)
    while todo:
        H = todo.pop()
        for x in range(G.order):
            if x not in H:
                gens = found[H] + (x,)
                K = generated(gens)
                if K not in found:
                    found[K] = gens
                    todo.append(K)
    return sorted((tuple(sorted(K)) for K in found), key=lambda s: (len(s), s))


def plain_ideal_generated(B, seed):
    """The least ideal containing the seed, with every element reached
    mapped by all 3n maps: lam_b, b + x - b and b x b^-1 for every b."""
    ta, lam = B.add_group.table, B.lam_table
    tm = B.mul_group.table
    neg, inv = B.add_group.inverse, B.mul_group.inverse
    carrier = range(B.order)
    span = _Span(ta, seed)
    elems, inside = span.elems, span.inside
    i = 0
    while i < len(elems):
        x = elems[i]
        i += 1
        for b in carrier:
            for z in (lam[b][x], ta[ta[b][x]][neg[b]], tm[tm[b][x]][inv[b]]):
                if z not in inside:
                    span.add(z)
    return tuple(sorted(elems))


@pytest.fixture(scope="module")
def products(worked_examples):
    """The order 48-64 products of the analyze benchmark, then ex32 x C2."""
    brace = {name: ex.brace for name, ex in worked_examples.items()}
    c2 = trivial_brace(cyclic_group(2))
    return {
        "ex24xC2": direct_product_braces(brace["ex24"], c2),
        "ex12xC4": direct_product_braces(brace["ex12"], trivial_brace(cyclic_group(4))),
        "ex8xex8": direct_product_braces(brace["ex8"], brace["ex8"]),
        "ex32xC2": direct_product_braces(brace["ex32"], c2),
    }


def test_subgroups_match_plain_enumeration():
    for n in range(1, 16):
        for label, G in group_catalog(n):
            assert subgroups(G) == plain_subgroups(G), label


def test_subgroups_match_fixed_point_past_order_15(worked_examples, products):
    groups = [
        (worked_examples["ex32"].brace.add_group, 374),
        (products["ex8xex8"].add_group, 249),
        (products["ex24xC2"].add_group, 54),
        (products["ex12xC4"].add_group, 30),
    ]
    for G, count in groups:
        found = subgroups(G)
        assert len(found) == count
        assert found == naive_subgroups(G)


def test_lattice_counts_of_order_64(products):
    c2_6 = trivial_brace(reduce(direct_product, [cyclic_group(2)] * 6))
    assert len(subgroups(c2_6.add_group)) == 2825
    assert len(all_ideals(c2_6)) == 2825
    assert len(all_subbraces(c2_6)) == 2825
    for name, subbraces, ideals in (("ex8xex8", 93, 10), ("ex32xC2", 81, 18)):
        assert len(all_subbraces(products[name])) == subbraces, name
        assert len(all_ideals(products[name])) == ideals, name


def relabelled(B, seed):
    """The same brace with its elements renumbered by a seeded permutation
    fixing 0."""
    rest = list(range(1, B.order))
    random.Random(seed).shuffle(rest)
    perm = [0] + rest
    return make_brace(_relabel(B.add_group.table, perm), _relabel(B.mul_group.table, perm))


def test_subbraces_match_filtered_additive_subgroups(full_pool, products, worked_examples):
    """The join loop closing each join in both tables against the additive
    subgroups kept when closed under the product, past order 64 and on
    relabelled copies, whose elements the joins meet in another order."""
    ex = {name: w.brace for name, w in worked_examples.items()}
    braces = full_pool + list(products.values()) + [
        direct_product_braces(ex["ex24"], ex["ex8"]),
        direct_product_braces(ex["ex24"], ex["ex12"]),
        relabelled(products["ex8xex8"], 1),
        relabelled(products["ex24xC2"], 2),
    ]
    assert [b.order for b in braces[-4:]] == [192, 288, 64, 48]
    for b in braces:
        assert all_subbraces(b) == ref.filtered_subbraces(b), b


def test_subbrace_generated_matches_alternating_closures(full_pool, products):
    for b in full_pool:
        for x in b.elements():
            assert subbrace_generated(b, (x,)) == ref.alternating_subbrace(b, (x,)), (b, x)
    b = products["ex8xex8"]
    for seed in ((1, 8), (3, 17, 40), (5, 9), ()):
        assert subbrace_generated(b, seed) == ref.alternating_subbrace(b, seed), seed


def test_common_subgroups_need_one_carrier():
    with pytest.raises(GroupInvalid, match="got 4 and 6"):
        subgroups(cyclic_group(4), cyclic_group(6))


def test_lattices_refuse_past_the_entry_bound(monkeypatch):
    """Trivial C2^5 has 374 subbraces, all ideals: a bound of 373 refuses
    both lattices and caches neither, and 374 lists them."""
    b = trivial_brace(reduce(direct_product, [cyclic_group(2)] * 5))
    monkeypatch.setattr(groups, "LATTICE_ENTRY_BOUND", 373)
    for lattice, key in ((all_ideals, "ideals"), (all_subbraces, "subbraces")):
        with pytest.raises(OrderBoundExceeded, match="lattice has more than 373 entries"):
            lattice(b)
        assert key not in b.cache
    monkeypatch.setattr(groups, "LATTICE_ENTRY_BOUND", 374)
    assert len(all_ideals(b)) == len(all_subbraces(b)) == 374


def test_ideal_generated_matches_all_maps(full_pool, products):
    """The generating-set closure of `ideal_generated` against all 3n maps."""
    braces = full_pool + [products[k] for k in ("ex24xC2", "ex12xC4", "ex8xex8")]
    for b in braces:
        for x in b.elements():
            assert ideal_generated(b, (x,)) == plain_ideal_generated(b, (x,)), (b, x)


def test_maximal_subbraces_match_pairwise_definition(full_pool, products):
    for b in full_pool + list(products.values()):
        proper = [s for s in all_subbraces(b) if len(s) < b.order]
        expected = [s for s in proper if not any(set(s) < set(o) for o in proper)]
        assert maximal_subbraces(b) == expected, b


def test_all_ideals_match_plain_enumeration(small_entries, medium_entries):
    reference = {}
    for entry in small_entries + medium_entries:
        b = entry.brace
        if b.add_group.table not in reference:
            reference[b.add_group.table] = plain_subgroups(b.add_group)
        expected = [s for s in reference[b.add_group.table] if ref.classify_subset(b, s).is_ideal]
        assert all_ideals(b) == expected, b.name


def test_ideals_read_off_the_subbraces_match_the_join_loop(full_pool, products):
    """`all_ideals` filters the subbrace lattice when B holds it and runs the
    join loop over principal ideals when not: both give one list, on each
    brace of the pool (the worked examples among them), the products and
    trivial C2^6, each route on its own copy with an empty cache."""
    c2_6 = trivial_brace(reduce(direct_product, [cyclic_group(2)] * 6))
    for b in full_pool + list(products.values()) + [c2_6]:
        joined, filtered = [SkewBrace(b.add_group, b.mul_group, b.lam_table) for _ in range(2)]
        all_subbraces(filtered)
        assert all_ideals(filtered) == all_ideals(joined), b.name
        assert "subbraces" not in joined.cache
    assert len(all_ideals(filtered)) == 2825


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


def test_all_ideals_match_classified_subgroups(full_pool, products):
    for b in full_pool + [products[k] for k in ("ex24xC2", "ex12xC4", "ex8xex8")]:
        expected = [s for s in subgroups(b.add_group) if ref.classify_subset(b, s).is_ideal]
        assert all_ideals(b) == expected, b


SUBSET_VALIDATORS = {
    "classify_subset": classify_subset,
    "sub_brace": sub_brace,
    "quotient_brace": quotient_brace,
    "quotient_group": lambda b, s: quotient_group(b.add_group, s),
    "ideal_chain": lambda b, s: ideal_chain(b, [s]),
    "b_central_series": b_central_series,
    "is_b_centrally_nilpotent": is_b_centrally_nilpotent,
    "closure": lambda b, s: closure(b.add_group, s),
    "is_subgroup": lambda b, s: is_subgroup(b.add_group, s),
    "is_normal": lambda b, s: is_normal(b.mul_group, s),
    "additive_closure": additive_closure,
    "subbrace_generated": subbrace_generated,
    "ideal_generated": ideal_generated,
    "brace_core": brace_core,
    "index": index,
    "element_order": lambda b, s: [element_order(b.add_group, x) for x in s],
}


@pytest.mark.parametrize("name", SUBSET_VALIDATORS)
@pytest.mark.parametrize("bad", [8, -1, 1.0, True])
def test_subset_element_outside_the_carrier_is_named(worked_examples, name, bad):
    """An element that is not an int in 0..n-1, or is a bool, raises
    NotClosed naming it, before the check that 0 is in the subset;
    `element_order` checks its one element the same way."""
    b = worked_examples["ex8"].brace
    assert b.order == 8
    with pytest.raises(NotClosed, match=rf"subset element {bad!r} is not an int in 0\.\.7"):
        SUBSET_VALIDATORS[name](b, [0, bad])


def subsets_with_zero(n):
    """Every subset of 0..n-1 that holds 0."""
    for r in range(n):
        yield from ((0,) + rest for rest in combinations(range(1, n), r))


def test_subset_prover_matches_all_pairs_reference(small_entries, medium_entries,
                                                   worked_examples):
    """`classify_subset`, `is_subgroup` and `is_normal`, proven on generators,
    against the all-pairs references, exactly: on every subset holding 0 of
    each census brace of order <= 10, and on 300 seeded random subsets
    holding 0 and every subbrace of each brace of orders 11-12 and of the
    four examples."""
    rng = random.Random(0)
    pool = []
    for b in (e.brace for e in small_entries + medium_entries):
        if b.order <= 10:
            pool.append((b, list(subsets_with_zero(b.order))))
    for b in [e.brace for e in medium_entries if e.brace.order > 10] + [
            w.brace for w in worked_examples.values()]:
        rest = range(1, b.order)
        randoms = [(0, *rng.sample(rest, rng.randrange(b.order))) for _ in range(300)]
        pool.append((b, randoms + all_subbraces(b)))
    assert sum(len(subsets) for _, subsets in pool) == 23672
    for b, subsets in pool:
        for s in subsets:
            assert classify_subset(b, s) == ref.classify_subset(b, s), (b.name, s)
            for G in (b.add_group, b.mul_group):
                assert is_subgroup(G, s) == ref.is_subgroup(G, s), (b.name, s)
                assert is_normal(G, s) == ref.is_normal(G, s), (b.name, s)


def named_escape(b, subset, message, group=None):
    """Whether the witness that a rejection message names really leaves the
    subset, re-checked in b's tables: a lambda image, a product or a
    conjugate in `group`, or else in the group the message names."""
    inside = set(subset)
    if group is None:
        group = b.mul_group if "multiplicati" in message else b.add_group
    t, inv = group.table, group.inverse
    if m := re.search(r"lambda of (\d+)$", message):
        lam = b.lam_table[int(m[1])]
        return any(lam[x] not in inside for x in inside)
    if m := re.search(r"at \((\d+), (\d+)\)$|: (\d+)\*(\d+) escapes$", message):
        x, y = (int(v) for v in m.groups() if v is not None)
        return x in inside and y in inside and t[x][y] not in inside
    if m := re.search(r": (\d+)\*(\d+)\*(\d+)\^-1 escapes$", message):
        g, h, g_again = map(int, m.groups())
        return g == g_again and h in inside and t[t[g][h]][inv[g]] not in inside
    return False


IDEAL_FAULTS = (
    "subset not invariant under lambda of #",
    "additive group: subset not closed: #*# escapes",
    "additive group: subset not normal: #*#*#^-# escapes",
    "multiplicative group: subset not normal: #*#*#^-# escapes",
)
GROUP_FAULTS = ("subset not closed: #*# escapes", "subset not normal: #*#*#^-# escapes")
REJECTION_PATHS = {
    "sub_brace": {f"subset not closed under {op} at (#, #)"
                  for op in ("addition", "multiplication")},
    "quotient_group+": set(GROUP_FAULTS),
    "quotient_group*": set(GROUP_FAULTS),
    "quotient_brace": set(IDEAL_FAULTS),
    "ideal_chain": {f"chain term of size # is not an ideal: {f}" for f in IDEAL_FAULTS},
    "b_central_series": {f"relative central series needs an ideal of B: {f}"
                         for f in IDEAL_FAULTS},
}


def test_every_rejection_names_a_witness_that_escapes(small_entries):
    """Every subset holding 0 of every census brace of order <= 8 through each
    subset validator: each rejection keeps its exception class and names a
    product, conjugate or lambda image that really leaves the subset, and
    every rejection path with a witness is taken."""
    seen = {name: set() for name in REJECTION_PATHS}
    for b in (e.brace for e in small_entries):
        for s in subsets_with_zero(b.order):
            validators = (
                ("sub_brace", lambda: sub_brace(b, s), NotClosed, None),
                ("quotient_group+", lambda: quotient_group(b.add_group, s), GroupInvalid,
                 b.add_group),
                ("quotient_group*", lambda: quotient_group(b.mul_group, s), GroupInvalid,
                 b.mul_group),
                ("quotient_brace", lambda: quotient_brace(b, s), NotAnIdeal, None),
                ("ideal_chain", lambda: ideal_chain(b, [s]), NotAnIdeal, None),
                ("b_central_series", lambda: b_central_series(b, s), NotAnIdeal, None),
            )
            for name, call, error, group in validators:
                try:
                    call()
                except SkewBraceError as exc:
                    assert type(exc) is error, (name, b.name, s, exc)
                    assert named_escape(b, s, str(exc), group), (name, b.name, s, exc)
                    seen[name].add(re.sub(r"\d+", "#", str(exc)))
    assert seen == REJECTION_PATHS


def test_rejection_paths_without_a_witness(worked_examples):
    b = worked_examples["ex8"].brace
    for call, error, message in (
        (lambda: sub_brace(b, (1,)), MissingZero, "a subbrace must contain 0"),
        (lambda: quotient_group(b.add_group, (1,)), GroupInvalid,
         "a normal subgroup must contain 0"),
        (lambda: quotient_brace(b, (1,)), MissingZero, "an ideal must contain 0"),
        (lambda: ideal_chain(b, [(1,)]), MissingZero,
         "classification requires a subset containing 0"),
        (lambda: b_central_series(b, (1,)), MissingZero,
         "classification requires a subset containing 0"),
        (lambda: ideal_chain(b, []), NotAnIdeal, "a chain needs at least one term"),
        (lambda: ideal_chain(b, [(0,), (0,)]), NotAnIdeal,
         "chain terms are not strictly monotone"),
    ):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
