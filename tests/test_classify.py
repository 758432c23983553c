"""Tests for supersolubility decisions and the classification report."""

from functools import reduce

import pytest

from skewbrace import (
    OrderBoundExceeded,
    SkewBraceError,
    all_ideals,
    brace_report,
    census,
    chief_series,
    classify_subset,
    cyclic_group,
    direct_product,
    direct_product_braces,
    fitting,
    group_catalog,
    index,
    is_centrally_nilpotent,
    is_supersoluble,
    is_supersoluble_group,
    is_supersoluble_oracle,
    maximal_subbraces,
    multipermutation_level,
    semidirect_group,
    socle_series,
    sub_brace,
    sylow_tower,
    trivial_brace,
    u_p,
)
from skewbrace import generating_set, groups
from skewbrace.groups import _prime_steps
from skewbrace.substructure import _ideal_maps

import scalar_reference as ref


def primes_of(n):
    result = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            result.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        result.append(n)
    return result


def test_greedy_matches_oracle_on_small_pool(small_pool):
    for b in small_pool:
        assert bool(is_supersoluble(b)) == is_supersoluble_oracle(b), b.name


def test_greedy_matches_oracle_on_worked_examples(worked_examples):
    for ex in worked_examples.values():
        assert bool(is_supersoluble(ex.brace)) == is_supersoluble_oracle(ex.brace)


def test_supersoluble_result_fields(worked_examples):
    good = is_supersoluble(worked_examples["ex12"].brace)
    assert good.supersoluble
    assert good.chain.orders() == (1, 3, 6, 12)
    assert good.chain.factor_orders() == (3, 2, 2)
    assert good.blocking_minimal_orders == ()
    bad = is_supersoluble(worked_examples["ex8"].brace)
    assert not bad.supersoluble
    assert bad.chain is None
    assert bad.blocking_minimal_orders == (4,)


def test_greedy_chain_is_deterministic(worked_examples):
    b = worked_examples["ex12"].brace
    assert is_supersoluble(b).chain.terms == (
        (0,),
        (0, 4, 8),
        (0, 2, 4, 6, 8, 10),
        tuple(range(12)),
    )


def test_certificate_terms_are_prime_index_ideals(small_pool):
    for b in small_pool:
        result = is_supersoluble(b)
        if not result:
            continue
        for factor in result.chain.factors:
            assert factor.is_prime_order
        for term in result.chain.terms:
            assert classify_subset(b, term).is_ideal


def test_supersoluble_implies_supersoluble_semidirect_group(small_pool):
    for b in (b for b in small_pool if b.order <= 24):
        if is_supersoluble(b):
            assert is_supersoluble_group(semidirect_group(b)), b.name


def test_prime_power_supersoluble_iff_centrally_nilpotent(small_pool):
    for b in small_pool:
        if len(primes_of(b.order)) != 1:
            continue
        assert bool(is_supersoluble(b)) == is_centrally_nilpotent(b), b.name


def test_centrally_nilpotent_implies_supersoluble(full_pool):
    for b in full_pool:
        if is_centrally_nilpotent(b):
            assert is_supersoluble(b), b.name


def test_supersoluble_consequences_on_pool(small_pool):
    for b in small_pool:
        if not is_supersoluble(b):
            continue
        assert all(f.is_prime_order for f in chief_series(b).factors), b.name
        for m in maximal_subbraces(b):
            k = index(b, m)
            assert primes_of(k) == [k], b.name
            if k == 2:
                assert classify_subset(b, m).is_ideal, b.name
        for p in set(primes_of(b.order)) | {2, 3}:
            result = u_p(b, p)
            assert result.equal, b.name
            assert result.is_ideal, b.name


def test_supersoluble_nilpotent_additive_iff_multipermutation(small_pool):
    from skewbrace import is_nilpotent_group

    for b in small_pool:
        if not is_supersoluble(b):
            continue
        has_level = multipermutation_level(b) is not None
        assert is_nilpotent_group(b.add_group) == has_level, b.name


def test_supersoluble_derived_ideal_has_multipermutation_level(small_pool):
    from skewbrace import derived_ideal

    for b in small_pool:
        if not is_supersoluble(b):
            continue
        inner = sub_brace(b, sorted(derived_ideal(b)))
        assert multipermutation_level(inner) is not None, b.name


def test_socle_reaching_brace_with_supersoluble_group_is_supersoluble(small_pool):
    for b in small_pool:
        reaches = socle_series(b).orders()[-1] == b.order
        if reaches and is_supersoluble_group(b.mul_group):
            assert is_supersoluble(b), b.name


def test_cyclic_sylow_structure_forces_supersolubility(small_pool, medium_entries):
    from skewbrace import element_order

    braces = small_pool + [e.brace for e in medium_entries]
    for b in braces:
        n = b.order
        has_cyclic_sylows = True
        for p in primes_of(n):
            pk = 1
            while n % (pk * p) == 0:
                pk *= p
            add_ok = any(
                element_order(b.add_group, x) == pk for x in range(n)
            )
            mul_ok = any(
                element_order(b.mul_group, x) == pk for x in range(n)
            )
            if not (add_ok and mul_ok):
                has_cyclic_sylows = False
                break
        if has_cyclic_sylows:
            assert is_supersoluble(b), b.name


@pytest.fixture(scope="module")
def tower_pool(full_pool, products, odd_prime_products):
    """Census orders 1-15, the worked examples and the products, among them
    the ones with two or three odd primes."""
    return (full_pool + [e.brace for n in range(13, 16) for e in census(n).entries]
            + list(products.values()) + list(odd_prime_products.values()))


def test_sylow_tower_exists_iff_supersoluble(tower_pool):
    for b in tower_pool:
        tower = sylow_tower(b)
        assert (tower is not None) == bool(is_supersoluble(b)), b.name


def test_sylow_tower_factor_pattern(tower_pool):
    for b in tower_pool:
        tower = sylow_tower(b)
        if tower is None:
            continue
        factors = list(tower.factor_orders())
        odd = [p for p in factors if p != 2]
        assert factors == sorted(odd, reverse=True) + [2] * factors.count(2), b.name
        assert all(f.is_prime_order for f in tower.factors)


def test_sylow_tower_matches_the_section_search(tower_pool, odd_prime_products):
    for b in tower_pool:
        tower = sylow_tower(b)
        assert (tower and tower.terms) == ref.sylow_tower(b), b.name
    # The pool orders two odd primes in a tower: 5 before 3, 7 before 5.
    assert sylow_tower(odd_prime_products["C15xex12"]).factor_orders() == (5, 3, 3, 2, 2)
    assert sylow_tower(odd_prime_products["D14#0xC15"]).factor_orders() == (7, 5, 3, 2)
    assert sylow_tower(odd_prime_products["C15xex8"]) is None


def test_sylow_tower_frozen_values(worked_examples):
    t12 = sylow_tower(worked_examples["ex12"].brace)
    assert t12.orders() == (1, 3, 6, 12)
    assert t12.factor_orders() == (3, 2, 2)
    t24 = sylow_tower(worked_examples["ex24"].brace)
    assert t24.factor_orders() == (3, 2, 2, 2)
    assert sylow_tower(worked_examples["ex8"].brace) is None


def test_u_p_frozen_values(worked_examples):
    for name, size in (("ex8", 1), ("ex12", 3), ("ex24", 3), ("ex32", 1)):
        result = u_p(worked_examples[name].brace, 2)
        assert len(result.additive) == size, name
        assert result.equal
        assert result.is_ideal
    u3 = u_p(worked_examples["ex12"].brace, 3)
    assert len(u3.additive) == 1


def test_u_p_extreme_primes(worked_examples):
    b = worked_examples["ex12"].brace
    above = u_p(b, 13)
    assert above.additive == (0,)
    below = u_p(b, 1)
    assert len(below.additive) == b.order


def test_u_p_takes_any_int_bound_and_rejects_the_rest(worked_examples):
    """Any int p keeps the elements whose order has every prime factor above
    p, prime or not; a p that is not an int, or is a bool, is refused."""
    b = worked_examples["ex12"].brace
    assert u_p(b, 4)[1:] == u_p(b, 3)[1:] and u_p(b, 4).prime == 4
    assert u_p(b, -5)[1:] == u_p(b, 0)[1:] == u_p(b, 1)[1:]
    for p in (True, False, 2.0, "2", None):
        with pytest.raises(SkewBraceError, match=rf"^prime bound must be an int, got {p!r}$"):
            u_p(b, p)


def test_report_frozen_fields_ex8(worked_examples):
    r = brace_report(worked_examples["ex8"].brace, "ex8")
    assert r.order == 8
    assert not r.supersoluble
    assert r.blocking_minimal_orders == (4,)
    assert not r.centrally_nilpotent
    assert r.left_nilpotent
    assert not r.right_nilpotent
    assert r.soluble
    assert r.mp_level is None
    assert r.fitting_order == 4
    assert r.chief_factor_orders == (4, 2)
    assert r.maximal_subbrace_indices == (2,)
    assert r.ideal_count == 3
    assert not r.is_trivial
    assert r.additive.abelian
    assert not r.multiplicative.abelian
    assert r.multiplicative.nilpotent
    assert r.additive.primes == (2,)


def test_fitting_is_an_ideal(full_pool):
    for b in full_pool:
        assert classify_subset(b, fitting(b).elements).is_ideal, b.name


def test_report_frozen_fields_ex12(worked_examples):
    r = brace_report(worked_examples["ex12"].brace, "ex12")
    assert r.supersoluble
    assert r.certificate_orders == (1, 3, 6, 12)
    assert r.mp_level == 3
    assert r.fitting_order == 3
    assert r.chief_factor_orders == (3, 2, 2)
    assert r.maximal_subbrace_indices == (3, 2)
    assert r.ideal_count == 4
    by_prime = {entry.prime: entry for entry in r.u_p_by_prime}
    assert by_prime[2].equal and by_prime[2].additive == (0, 4, 8)
    assert by_prime[3].equal and by_prime[3].additive == (0,)
    assert r.soluble


def test_report_on_zero_brace():
    r = brace_report(trivial_brace(cyclic_group(1)), "zero")
    assert r.supersoluble
    assert r.certificate_orders == (1,)
    assert r.mp_level == 0
    assert r.centrally_nilpotent
    assert r.chief_factor_orders == ()
    assert r.ideal_count == 1
    assert r.maximal_subbrace_indices == ()
    assert r.fitting_order == 1


def test_greedy_matches_oracle_above_order_64(worked_examples):
    """The greedy decision has no order bound: it agrees with the oracle on
    products of orders 96, 192 and 288."""
    ex = {name: w.brace for name, w in worked_examples.items()}
    for left, right, order in ((ex["ex32"], trivial_brace(cyclic_group(3)), 96),
                               (ex["ex24"], ex["ex8"], 192),
                               (ex["ex24"], ex["ex12"], 288)):
        b = direct_product_braces(left, right)
        assert b.order == order
        assert bool(is_supersoluble(b)) == is_supersoluble_oracle(b), order


def test_brace_report_fails_fast_above_the_subgroup_bound(monkeypatch):
    """The capped subbrace lattice comes first, so no ideal is computed:
    trivial C2^5 has 374 subbraces, over a bound lowered to 100."""
    b = trivial_brace(reduce(direct_product, [cyclic_group(2)] * 5))
    monkeypatch.setattr(groups, "LATTICE_ENTRY_BOUND", 100)
    with pytest.raises(OrderBoundExceeded, match="more than 100 entries"):
        brace_report(b)
    assert "ideals" not in b.cache


def test_greedy_matches_oracle_at_order_64(worked_examples):
    ex8, ex32 = worked_examples["ex8"].brace, worked_examples["ex32"].brace
    verdicts = []
    for b in (direct_product_braces(ex32, trivial_brace(cyclic_group(2))),
              direct_product_braces(ex8, ex8),
              trivial_brace(cyclic_group(64))):
        assert b.order == 64
        verdicts.append(is_supersoluble_oracle(b))
        assert bool(is_supersoluble(b)) == verdicts[-1], b
    assert verdicts == [False, False, True]


def test_order_64_product_is_not_supersoluble(worked_examples):
    b = direct_product_braces(worked_examples["ex32"].brace, trivial_brace(cyclic_group(2)))
    result = is_supersoluble(b)
    assert not result.supersoluble
    assert result.blocking_minimal_orders == (8,)
    assert len(all_ideals(b)) == 18


def test_u_p_sets_follow_the_element_orders(full_pool):
    """Each U_p set holds the elements whose order has only primes above p,
    in its own group; an order of one group need not occur in the other
    (additive C2xC2 with multiplicative C4 keeps its elements of order 4
    at p = 1)."""
    from skewbrace import element_order

    for b in full_pool:
        for p in (1, 2, 3, 5, 7, 11):
            u = u_p(b, p)
            for G, kept in ((b.add_group, u.additive), (b.mul_group, u.multiplicative)):
                assert kept == tuple(x for x in b.elements()
                                     if min(primes_of(element_order(G, x)), default=p + 1) > p)


def test_u_p_ideal_flag_matches_the_lattice(full_pool):
    """`u_p` proves its ideal flag on generators: it is membership in the
    ideal lattice on the pool, and on trivial C2^8, whose lattice the bound
    refuses, it builds none."""
    for b in full_pool:
        ideals = set(all_ideals(b))
        for p in (2, 3, 5, 7, 11):
            u = u_p(b, p)
            assert u.is_ideal == (u.additive in ideals), (b.name, p)
    b = trivial_brace(reduce(direct_product, [cyclic_group(2)] * 8))
    assert u_p(b, 2).is_ideal
    assert "ideals" not in b.cache


def test_supersoluble_climb_builds_no_lattice():
    """`is_supersoluble` and `sylow_tower` climb on cosets: on trivial C2^7
    and C2^8 (whose lattice the bound refuses) they return a chain of
    factors 2 and leave no ideal lattice in the cache."""
    for k in (7, 8):
        b = trivial_brace(reduce(direct_product, [cyclic_group(2)] * k))
        assert is_supersoluble(b).chain.factor_orders() == (2,) * k
        assert sylow_tower(b).factor_orders() == (2,) * k
        assert "ideals" not in b.cache


def test_sylow_tower_refuses_without_a_lattice(monkeypatch):
    """On a brace that is not supersoluble the tower's own climb stops
    short: trivial A4 gets None under a lattice bound of 2 entries, and no
    ideal lattice is built."""
    b = trivial_brace(dict(group_catalog(12))["A4"])
    monkeypatch.setattr(groups, "LATTICE_ENTRY_BOUND", 2)
    assert sylow_tower(b) is None
    assert "ideals" not in b.cache


def test_prime_steps_are_the_prime_index_ideals(full_pool):
    """Over every ideal I, `_prime_steps` under `_ideal_maps` yields each
    ideal of prime index over I exactly once, as the lattice lists them."""
    for b in full_pool:
        ideals = all_ideals(b)
        for I in ideals:
            expected = [J for J in ideals if len(J) % len(I) == 0
                        and primes_of(len(J) // len(I)) == [len(J) // len(I)]
                        and set(I) <= set(J)]
            steps = sorted(_prime_steps(b.add_group, _ideal_maps(b), I),
                           key=lambda J: (len(J), J))
            assert steps == expected, (b.name, I)


@pytest.mark.parametrize("name, mutant, witness, step", [
    ("ex12", "lambda maps only", (0, 6), (0, 4, 8)),
    ("ex24", "additive conjugations only", (0, 1), (0, 8, 16)),
])
def test_prime_steps_need_every_ideal_map(worked_examples, name, mutant, witness, step):
    """Half of `_ideal_maps` lets a step through that is not an ideal, at
    the first step of the brace's climb, over {0}: the lambda maps alone
    pass ex12's (0, 6), and the additive conjugations alone (normality in
    (B, +) alone) pass ex24's (0, 1).  With every map the climb's first
    step is the least prime-order ideal."""
    b = worked_examples[name].brace
    maps = {"lambda maps only": [b.lam_table[g] for g in generating_set(b.mul_group)],
            "additive conjugations only": [groups._conjugation(b.add_group, a)
                                           for a in generating_set(b.add_group)]}[mutant]
    assert witness in _prime_steps(b.add_group, maps, (0,))
    assert not classify_subset(b, witness).is_ideal
    assert witness not in _prime_steps(b.add_group, _ideal_maps(b), (0,))
    assert is_supersoluble(b).chain.terms[1] == step
