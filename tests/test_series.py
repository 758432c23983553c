"""Tests for socle, central, nilpotency, and solubility series."""

import itertools
from functools import reduce

import pytest

import scalar_reference as ref
from skewbrace import (
    NotAnIdeal,
    SkewBraceError,
    all_ideals,
    all_subbraces,
    b_central_series,
    chief_series,
    additive_closure,
    cyclic_group,
    derived_ideal,
    direct_product,
    direct_product_braces,
    element_orders,
    fitting,
    group_catalog,
    ideal_chain,
    is_b_centrally_nilpotent,
    is_centrally_nilpotent,
    is_left_nilpotent,
    is_right_nilpotent,
    is_soluble,
    is_supersoluble,
    left_series,
    lower_central_series,
    make_brace,
    make_group,
    minimal_ideals,
    multipermutation_level,
    quotient_brace,
    right_series,
    socle,
    socle_series,
    sub_brace,
    sylow_tower,
    trivial_brace,
    upper_central_series,
    zeta,
)
from skewbrace.groups import _nilpotent
from skewbrace.series import _central, _relative_central_terms
from skewbrace.substructure import _covers


def catalog_group(n, label):
    for lbl, g in group_catalog(n):
        if lbl == label:
            return g
    raise AssertionError(f"no group labeled {label} of order {n}")


FROZEN = {
    "ex8": {
        "socle": (1,),
        "mp": None,
        "lower": (8, 4),
        "upper": (1,),
        "left": [8, 4, 2, 1],
        "right": [8, 4],
        "derived": [0, 1, 4, 5],
        "fitting": [0, 1, 4, 5],
        "chief": (4, 2),
        "cn": False,
        "ln": True,
        "rn": False,
    },
    "ex12": {
        "socle": (1, 3, 6, 12),
        "mp": 3,
        "lower": (12, 6, 3),
        "upper": (1,),
        "left": [12, 6, 3],
        "right": [12, 6, 3, 1],
        "derived": [0, 2, 4, 6, 8, 10],
        "fitting": [0, 4, 8],
        "chief": (3, 2, 2),
        "cn": False,
        "ln": False,
        "rn": True,
    },
    "ex24": {
        "socle": (1, 3, 6, 24),
        "mp": 3,
        "lower": (24, 6, 3),
        "upper": (1,),
        "left": [24, 6, 3],
        "right": [24, 6, 3, 1],
        "derived": [0, 4, 8, 12, 16, 20],
        "fitting": [0, 8, 16],
        "chief": (3, 2, 2, 2),
        "cn": False,
        "ln": False,
        "rn": True,
    },
    "ex32": {
        "socle": (1,),
        "mp": None,
        "lower": (32, 8),
        "upper": (1,),
        "left": [32, 8, 2, 1],
        "right": [32, 8],
        "derived": [0, 7, 10, 13, 16, 23, 26, 29],
        "fitting": [0, 7, 10, 13, 16, 23, 26, 29],
        "chief": (8, 2, 2),
        "cn": False,
        "ln": True,
        "rn": False,
    },
}


def test_frozen_series_values(worked_examples):
    for name, expect in FROZEN.items():
        b = worked_examples[name].brace
        assert socle_series(b).orders() == expect["socle"], name
        assert multipermutation_level(b) == expect["mp"], name
        assert lower_central_series(b).orders() == expect["lower"], name
        assert upper_central_series(b).orders() == expect["upper"], name
        assert [len(t) for t in left_series(b)] == expect["left"], name
        assert [len(t) for t in right_series(b)] == expect["right"], name
        if expect["derived"] is not None:
            assert sorted(derived_ideal(b)) == expect["derived"], name
        assert sorted(fitting(b).elements) == expect["fitting"], name
        assert chief_series(b).factor_orders() == expect["chief"], name
        assert is_centrally_nilpotent(b) == expect["cn"], name
        assert is_left_nilpotent(b) == expect["ln"], name
        assert is_right_nilpotent(b) == expect["rn"], name


def _assert_chain(b, chain):
    """Every term an ideal of b; each factor order the ratio of the sizes of
    consecutive terms."""
    assert chain.parent is b
    for term in chain.terms:
        assert ref.classify_subset(b, term).is_ideal, (b.name, chain.terms)
    sizes = [len(t) for t in chain.terms]
    steps = list(zip(sizes, sizes[1:]))
    if not chain.ascending:
        steps = [(hi, lo) for lo, hi in steps]
    assert all(lo < hi and hi % lo == 0 for lo, hi in steps)
    assert chain.factor_orders() == tuple(hi // lo for lo, hi in steps)


def test_socle_and_zeta_are_ideals(full_pool, worked_examples):
    """The series and chains the engine builds are trusted without a runtime
    check; this proves the theorems behind that on every pooled brace (the
    pool holds the worked examples)."""
    for b in full_pool:
        for subset in (socle(b), zeta(b), derived_ideal(b), *right_series(b)):
            assert ref.classify_subset(b, subset).is_ideal
        for subset in left_series(b):
            assert ref.classify_subset(b, subset).is_left_ideal
        chains = [socle_series(b), upper_central_series(b), lower_central_series(b),
                  chief_series(b), is_soluble(b)[1], is_supersoluble(b).chain,
                  sylow_tower(b)]
        chains += [b_central_series(b, i) for i in all_ideals(b)]
        for chain in chains:
            if chain is not None:
                _assert_chain(b, chain)
    with pytest.raises(NotAnIdeal):
        b_central_series(worked_examples["ex12"].brace, (0, 6))


def test_descending_series_match_the_star_loops(full_pool, products, ybe_products,
                                                worked_examples):
    """The series taken on generators give the terms of the loops over every
    star product of the last term: on the pool, the products of orders
    48-192 and ex24 x ex24 (576)."""
    ex24 = worked_examples["ex24"].brace
    braces = full_pool + list(products.values()) + list(ybe_products.values())
    for b in braces + [direct_product_braces(ex24, ex24)]:
        lower = ref.lower_central_series(b)
        assert lower_central_series(b).terms == tuple(lower), b
        assert derived_ideal(b) == lower[min(1, len(lower) - 1)], b
        assert right_series(b) == ref.right_series(b), b
        assert left_series(b) == ref.left_series(b), b


def test_star_and_triviality_read_the_reference_star_grid(full_pool):
    for b in full_pool:
        star = ref.star_table(b)
        assert tuple(tuple(b.star(x, y) for y in b.elements()) for x in b.elements()) == star
        assert b.is_trivial() == all(v == 0 for row in star for v in row), b


def test_socle_of_trivial_brace_is_group_center():
    assert socle(trivial_brace(catalog_group(6, "S3"))) == (0,)
    assert sorted(socle(trivial_brace(cyclic_group(6)))) == list(range(6))


def test_trivial_brace_on_centerless_group_has_no_level():
    b = trivial_brace(catalog_group(6, "S3"))
    assert socle_series(b).orders() == (1,)
    assert multipermutation_level(b) is None
    assert not is_centrally_nilpotent(b)


def test_trivial_abelian_brace_is_multipermutation_level_one():
    b = trivial_brace(cyclic_group(4))
    assert multipermutation_level(b) == 1
    assert upper_central_series(b).orders() == (1, 4)
    assert lower_central_series(b).orders() == (4, 1)
    assert is_centrally_nilpotent(b)


def test_zero_brace_degenerate_series():
    b = trivial_brace(cyclic_group(1))
    assert multipermutation_level(b) == 0
    assert lower_central_series(b).orders() == (1,)
    assert is_centrally_nilpotent(b)
    assert is_soluble(b)[0]


def test_socle_series_factors_sit_in_quotient_socle(worked_examples):
    for ex in worked_examples.values():
        b = ex.brace
        terms = socle_series(b).terms
        for lower, upper in zip(terms, terms[1:]):
            q, proj = quotient_brace(b, lower)
            assert {proj[x] for x in upper} <= set(socle(q))


def test_lower_and_upper_termination_agree(full_pool):
    for b in full_pool:
        lower = lower_central_series(b)
        upper = upper_central_series(b)
        lower_terminates = len(lower.terms[-1]) == 1
        upper_terminates = len(upper.terms[-1]) == b.order
        assert lower_terminates == upper_terminates
        if lower_terminates:
            assert len(lower.terms) == len(upper.terms)


def test_left_and_right_nilpotency_meet_at_central(small_pool):
    from skewbrace import is_nilpotent_group

    for b in small_pool:
        if not is_nilpotent_group(b.add_group):
            continue
        both = is_left_nilpotent(b) and is_right_nilpotent(b)
        assert both == is_centrally_nilpotent(b)


def test_embedded_ideal_is_centrally_nilpotent_as_brace(worked_examples):
    ex32 = worked_examples["ex32"]
    inner = sub_brace(ex32.brace, ex32.subsets["L"])
    assert is_centrally_nilpotent(inner)
    assert multipermutation_level(inner) is not None


def test_b_central_nilpotency(worked_examples):
    ex12 = worked_examples["ex12"]
    assert is_b_centrally_nilpotent(ex12.brace, (0,))
    assert is_b_centrally_nilpotent(ex12.brace, ex12.subsets["socle"])
    chain = b_central_series(ex12.brace, ex12.subsets["socle"])
    assert [len(t) for t in chain.terms] == [1, 3]
    ex24 = worked_examples["ex24"]
    assert not is_b_centrally_nilpotent(ex24.brace, ex24.subsets["I"])


def test_fitting_inside_embedded_ideal(worked_examples):
    ex24 = worked_examples["ex24"]
    inner = sub_brace(ex24.brace, ex24.subsets["I"])
    inner_fit = fitting(inner).elements
    positions = tuple(sorted(ex24.subsets["I"][k] for k in inner_fit))
    assert positions == tuple(sorted(ex24.subsets["fit_I"]))


def test_fitting_of_supersoluble_examples_is_centrally_nilpotent(worked_examples):
    for name in ("ex12", "ex24"):
        b = worked_examples[name].brace
        fit = sorted(fitting(b).elements)
        assert is_centrally_nilpotent(sub_brace(b, fit))


def test_chief_series_of_prime_order_brace():
    chain = chief_series(trivial_brace(cyclic_group(5)))
    assert chain.orders() == (1, 5)
    assert chain.factor_orders() == (5,)
    assert all(f.is_prime_order for f in chain.factors)


def test_chief_series_validates_and_covers(worked_examples):
    for ex in worked_examples.values():
        chain = chief_series(ex.brace)
        assert chain.orders()[0] == 1
        assert chain.orders()[-1] == ex.brace.order


def test_solubility_of_examples_and_pool(small_pool):
    for b in small_pool:
        ok, chain = is_soluble(b)
        assert ok
        assert chain.orders()[-1] == b.order


def _permutation_group(n, even):
    """S_n, or A_n when `even` is set, on the permutations in lex order."""
    perms = [p for p in itertools.permutations(range(n))
             if not even or sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0]
    at = {p: i for i, p in enumerate(perms)}
    return make_group([[at[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms])


def test_trivial_brace_of_a5_is_insoluble():
    """A5 is its only nonzero ideal, and A5 is not abelian."""
    assert is_soluble(trivial_brace(_permutation_group(5, True))) == (False, None)


def test_soluble_matches_the_lattice_search_and_the_all_pairs_series(
        full_pool, products, ybe_products, worked_examples):
    """The derived series seeded on generators decides what the search of the
    ideal lattice for a chain with abelian factors decides, and its terms,
    ascending, are those seeded by every pair: on the pool, the products of
    orders 48-576 and the trivial braces of S4 and A5."""
    ex24 = worked_examples["ex24"].brace
    braces = full_pool + list(products.values()) + list(ybe_products.values()) + [
        direct_product_braces(ex24, ex24),
        trivial_brace(_permutation_group(4, False)),
        trivial_brace(_permutation_group(5, True)),
    ]
    insoluble = []
    for b in braces:
        ok, chain = is_soluble(b)
        assert ok == (ref.soluble_chain_search(b) is not None), b
        series = ref.derived_series(b)
        assert ok == (len(series[-1]) == 1), b
        if ok:
            assert chain.terms == tuple(series[::-1]), b
        else:
            assert chain is None
            insoluble.append(b.order)
    assert insoluble == [12, 12, 60]


def test_soluble_builds_no_ideal_lattice():
    b = trivial_brace(reduce(direct_product, [cyclic_group(2)] * 7))
    ok, chain = is_soluble(b)
    assert ok and "ideals" not in b.cache
    assert chain.orders() == (1, 128)


def test_ideal_chain_rejects_non_ideal_terms(worked_examples):
    b = worked_examples["ex12"].brace
    with pytest.raises(NotAnIdeal):
        ideal_chain(b, [(0,), (0, 6), tuple(range(12))])


def test_ideal_chain_rejects_non_nested_terms(worked_examples):
    b = worked_examples["ex12"].brace
    with pytest.raises(SkewBraceError):
        ideal_chain(b, [(0, 4, 8), (0,), tuple(range(12))])


def test_ideal_chain_validates_a_generator_of_terms(worked_examples):
    """The terms are read once: a generator's terms are all validated, so
    the non-ideal (0, 1) is rejected rather than an empty chain returned."""
    b = worked_examples["ex24"].brace
    with pytest.raises(NotAnIdeal):
        ideal_chain(b, (t for t in [(0,), (0, 1), tuple(range(24))]))


def test_ideal_chain_reads_an_iterator_term_once(worked_examples):
    b = worked_examples["ex24"].brace
    chain = ideal_chain(b, [iter((0,)), tuple(range(24))])
    assert chain.terms == ((0,), tuple(range(24)))


def test_ideal_chain_counts_a_repeated_element_once(worked_examples):
    b = worked_examples["ex24"].brace
    chain = ideal_chain(b, [(0, 0), (16, 8, 0, 8), tuple(range(24))])
    assert chain.orders() == (1, 3, 24)
    assert chain.factor_orders() == (3, 8)


def test_b_central_nilpotency_reads_an_iterator_ideal_once(worked_examples):
    b = worked_examples["ex24"].brace
    assert is_b_centrally_nilpotent(b, [0, 8, 16])
    assert is_b_centrally_nilpotent(b, iter((0, 8, 16)))


def _preimage(proj, subset):
    wanted = set(subset)
    return tuple(x for x, c in enumerate(proj) if c in wanted)


def test_quotient_brace_coset_map(worked_examples):
    ex24 = worked_examples["ex24"]
    q, proj = quotient_brace(ex24.brace, ex24.subsets["socle"])
    assert q.order == 8
    assert _preimage(proj, [0]) == tuple(sorted(ex24.subsets["socle"]))
    assert _preimage(proj, range(q.order)) == tuple(range(24))


def _minimal_by_definition(q):
    nonzero = [set(i) for i in all_ideals(q) if len(i) > 1]
    return [tuple(sorted(m)) for m in nonzero if not any(o < m for o in nonzero)]


def _socle_by_definition(q, mul):
    ident = tuple(q.elements())
    return tuple(
        a for a in q.elements()
        if q.lam_table[a] == ident
        and all(q.add(a, x) == q.add(x, a) for x in q.elements())
        and not (mul and any(q.mul(a, x) != q.mul(x, a) for x in q.elements())))


def test_climbs_inside_b_match_the_quotient_brace(full_pool):
    """Correspondence theorem: over an ideal I, the ideals minimal over I and
    the socle and centre taken modulo I are the preimages of the minimal
    ideals, the socle and the centre of B/I, in the same order."""
    for b in full_pool:
        for ideal in all_ideals(b):
            q, proj = quotient_brace(b, ideal)
            minimal = _minimal_by_definition(q)
            assert minimal_ideals(q) == minimal
            assert _covers(b, ideal) == [_preimage(proj, m) for m in minimal]
            for mul, centre in ((False, socle), (True, zeta)):
                expected = _socle_by_definition(q, mul)
                assert centre(q) == expected
                assert _central(b, proj, b.elements(), mul) == _preimage(proj, expected)


def test_derived_ideal_of_trivial_brace_is_zero():
    assert derived_ideal(trivial_brace(cyclic_group(6))) == (0,)


def _reference_fitting(B):
    """The sum of every ideal whose central series relative to B reaches it,
    each ideal tested."""
    union = set()
    for i in all_ideals(B):
        if _relative_central_terms(B, i)[-1] == i:
            union |= set(i)
    return additive_closure(B, union)


def test_fitting_matches_the_all_ideals_reference(full_pool, products):
    for b in full_pool + list(products.values()):
        assert fitting(b).elements == _reference_fitting(b), b.name


def test_b_centrally_nilpotent_ideals_are_closed_under_sums_and_sub_ideals(
        full_pool, products, worked_examples):
    """Fitting's theorem as `fitting` proves it, on braces that are not
    products too: on the pool, the proper sub-braces of the worked examples
    and their quotients by proper ideals, and the products, the additive
    closure of two B-centrally nilpotent ideals is one, every ideal inside
    one is one, and `fitting` is the largest."""
    braces = full_pool + list(products.values())
    for b in (ex.brace for ex in worked_examples.values()):
        braces += [sub_brace(b, s) for s in all_subbraces(b) if len(s) < b.order]
        braces += [quotient_brace(b, i)[0] for i in all_ideals(b) if len(i) < b.order]
    for b in braces:
        ideals = all_ideals(b)
        reached = [i for i in ideals if _relative_central_terms(b, i)[-1] == i]
        nilpotent = set(reached)
        for i, j in itertools.combinations(reached, 2):
            assert additive_closure(b, i + j) in nilpotent, (b.name, i, j)
        for i in map(set, reached):
            assert all(j in nilpotent for j in ideals if i.issuperset(j)), (b.name, i)
        fit = fitting(b).elements
        assert fit in nilpotent and all(set(fit).issuperset(i) for i in reached), b.name


def test_b_centrally_nilpotent_ideals_have_nilpotent_groups(full_pool, products):
    """The premise of the Fitting scan's filter: an ideal whose central series
    relative to B reaches it has both groups nilpotent by the element-order
    kernel, so the scan skips no such ideal."""
    reached = 0
    for b in full_pool + list(products.values()):
        orders = element_orders(b.add_group), element_orders(b.mul_group)
        for i in all_ideals(b):
            if _relative_central_terms(b, i)[-1] == i:
                reached += 1
                assert all(_nilpotent(o, i) for o in orders), (b.name, i)
    assert reached > len(full_pool)


def test_fitting_of_trivial_c2_power_six_is_everything():
    b = trivial_brace(reduce(direct_product, [cyclic_group(2)] * 6))
    assert len(all_ideals(b)) == 2825
    assert fitting(b).elements == tuple(range(64))


SERIES = (socle_series, upper_central_series, lower_central_series,
          left_series, right_series, derived_ideal)


def test_cached_series_repeat_and_are_not_shared(worked_examples):
    for ex in worked_examples.values():
        # A fresh brace, so the first call computes rather than reads.
        b = make_brace(ex.brace.add_group.table, ex.brace.mul_group.table)
        for series in SERIES:
            first = series(b)
            assert series(b) == first, series.__name__
        for series in (left_series, right_series):
            expected = list(series(b))
            mutated = series(b)
            mutated.append(())
            mutated[0] = ()
            assert series(b) == expected, series.__name__
