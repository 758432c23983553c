"""Tests for the finite group layer."""

import itertools
import random
import re

import pytest

from skewbrace import (
    ActionNotHomomorphism,
    GroupInvalid,
    MissingInverse,
    NoIdentity,
    NonAssociative,
    NotClosed,
    GroupMap,
    SkewBraceError,
    aut_group,
    automorphism_perms,
    build,
    center,
    closure,
    conjugacy_class_sizes,
    cyclic_extension,
    cyclic_group,
    derived_subgroup,
    direct_product,
    direct_product_braces,
    element_order,
    element_orders,
    example_names,
    generating_set,
    group_catalog,
    group_isomorphism,
    group_predicates,
    is_nilpotent_group,
    is_normal,
    is_subgroup,
    is_supersoluble_group,
    make_group,
    quaternion_group,
    quotient_group,
    subgroups,
    trivial_brace,
)
from skewbrace.groups import _Span, _conjugation, _is_prime, _prime_steps

import scalar_reference as ref


def catalog_group(n, label):
    for lbl, g in group_catalog(n):
        if lbl == label:
            return g
    raise AssertionError(f"no group labeled {label} of order {n}")


def assert_proven(g):
    """A group built without a proof passes the public validator unchanged."""
    checked = make_group(g.table)
    assert (checked.table, checked.inverse) == (g.table, g.inverse)


def trial_division_is_prime(n):
    """Plain trial division: the reference for `_is_prime`."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    assert ([n for n in range(5001) if _is_prime(n)]
            == [n for n in range(5001) if trial_division_is_prime(n)])


def test_cyclic_group_basics():
    g = cyclic_group(4)
    assert g.order == 4
    assert g.inverse == (0, 3, 2, 1)
    assert g.is_abelian()
    assert g.mul(1, 3) == 0
    assert element_order(g, 1) == 4
    assert element_order(g, 2) == 2


@pytest.mark.parametrize("bad", [True, 2.0, "2"])
def test_cyclic_group_rejects_orders_that_are_not_ints(bad):
    with pytest.raises(SkewBraceError, match=re.escape(f"group order must be an int, got {bad!r}")):
        cyclic_group(bad)
    with pytest.raises(NoIdentity, match="cyclic group order must be positive, got 0"):
        cyclic_group(0)
    assert cyclic_group(1).name == "C1"


def test_make_group_rejects_bad_tables():
    with pytest.raises(NotClosed):
        make_group([[0, 1], [1, 5]])
    with pytest.raises(NoIdentity):
        make_group([[1, 1], [1, 1]])
    nonassoc = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(NonAssociative) as exc:
        make_group(nonassoc)
    assert "(1*1)*2" in str(exc.value)


def test_make_group_requires_inverses():
    table = [[0, 1, 2], [1, 1, 1], [2, 1, 0]]
    with pytest.raises(MissingInverse):
        make_group(table)


def test_single_cell_corruptions_of_group_tables_are_rejected():
    for n, label in ((8, "D8"), (8, "Q8"), (12, "A4")):
        table = catalog_group(n, label).table
        for a in range(n):
            for b in range(n):
                for value in range(n):
                    if value == table[a][b]:
                        continue
                    bad = [list(row) for row in table]
                    bad[a][b] = value
                    with pytest.raises((NoIdentity, NonAssociative, MissingInverse)) as exc:
                        make_group(bad)
                    if exc.type is NonAssociative:
                        s, x, y = map(int, re.match(
                            r"\((\d+)\*(\d+)\)\*(\d+)", str(exc.value)).groups())
                        assert bad[bad[s][x]][y] != bad[s][bad[x][y]]


def test_direct_product_of_cyclics():
    g = direct_product(cyclic_group(4), cyclic_group(2))
    assert g.order == 8
    assert g.is_abelian()
    assert max(element_orders(g)) == 4
    assert group_isomorphism(g, catalog_group(8, "C4xC2")) is not None


def test_semidirect_product_dihedral():
    c4 = cyclic_group(4)
    inv = tuple(c4.inverse)
    d8 = cyclic_extension(c4, inv, 0, 2)
    assert_proven(d8)
    assert d8.order == 8
    assert not d8.is_abelian()
    assert group_isomorphism(d8, catalog_group(8, "D8")) is not None


def _witness(message, pattern):
    return tuple(map(int, re.search(pattern, message).groups()))


def test_cyclic_extension_rejects_a_non_bijection():
    c4 = cyclic_group(4)
    for alpha in ((0, 1, 1, 3), (0, 1, 2), (0, 1, 2, 3, 0)):
        with pytest.raises(ActionNotHomomorphism, match="alpha is not a bijection"):
            cyclic_extension(c4, alpha, 0, 2)


def test_cyclic_extension_rejects_a_non_additive_bijection():
    c4 = cyclic_group(4)
    for alpha in ((0, 2, 1, 3), (0, 1, 3, 2), (0, 3, 1, 2)):
        with pytest.raises(ActionNotHomomorphism, match="alpha is not additive") as exc:
            cyclic_extension(c4, alpha, 0, 2)
        x, y = _witness(str(exc.value), r"at \((\d+), (\d+)\)")
        assert alpha[c4.table[x][y]] != c4.table[alpha[x]][alpha[y]]


def test_cyclic_extension_rejects_an_alpha_moving_g():
    c4 = cyclic_group(4)
    with pytest.raises(ActionNotHomomorphism, match="alpha moves g") as exc:
        cyclic_extension(c4, c4.inverse, 1, 2)
    g, image = _witness(str(exc.value), r"g = (\d+) to (\d+)")
    assert (g, image) == (1, 3) and c4.inverse[g] == image != g


def test_cyclic_extension_rejects_alpha_power_not_conjugation_by_g():
    c3, c4 = cyclic_group(3), cyclic_group(4)
    s3 = catalog_group(6, "S3")
    cases = [(c3, c3.inverse, 0, 3), (c4, c4.inverse, 0, 1), (c4, c4.inverse, 2, 1)]
    # In S3 conjugation by a reflection r fixes r and moves the rotations.
    r = next(x for x in range(6) if element_order(s3, x) == 2)
    cases.append((s3, tuple(range(6)), r, 2))
    for normal, alpha, g, m in cases:
        with pytest.raises(ActionNotHomomorphism, match="not to its conjugate") as exc:
            cyclic_extension(normal, alpha, g, m)
        power, x, image, by = _witness(
            str(exc.value), r"alpha\^(\d+) sends (\d+) to (\d+), not to its conjugate by (\d+)")
        assert (power, by) == (m, g)
        y = x
        for _ in range(m):
            y = alpha[y]
        t = normal.table
        assert y == image != t[t[g][x]][normal.inverse[g]]


def test_cyclic_extension_rejects_a_bad_order_or_g():
    c4 = cyclic_group(4)
    for m, g in ((0, 0), (-1, 0), (2.0, 0), (None, 0), (2, -1), (2, 4), (2, 1.0), (2, "0")):
        with pytest.raises(ActionNotHomomorphism,
                           match=re.escape(f"need an int m >= 1 and g in N, got m = {m!r}, g = {g!r}")):
            cyclic_extension(c4, c4.inverse, g, m)


def test_cyclic_extension_names_an_entry_off_the_carrier():
    c4 = cyclic_group(4)
    for alpha, entry in (((0, 3.0, 2, 1), "3.0 at 1"), ((0, 3, 2, 4), "4 at 3"),
                         ((0, [3], 2, 1), r"\[3\] at 1"), ((False, 3, 2, True), "False at 0")):
        with pytest.raises(ActionNotHomomorphism, match=f"alpha has entry {entry}, not an int"):
            cyclic_extension(c4, alpha, 0, 2)
    with pytest.raises(ActionNotHomomorphism, match="got m = 2, g = True"):
        cyclic_extension(c4, c4.inverse, True, 2)


def test_every_built_table_is_proven_by_make_group():
    """The catalog, Q8 and the fixture groups are built unproven; each
    passes the public validator unchanged, and so do extensions with g != 0."""
    built = [G for n in range(1, 16) for _, G in group_catalog(n)] + [quaternion_group()]
    for name in example_names():
        spec = build(name).spec
        built += [spec.additive, spec.multiplicative]
    c3, c4, c5, c6, c8 = (cyclic_group(k) for k in (3, 4, 5, 6, 8))
    for args, like in (((c6, c6.inverse, 3, 2), "Dic3"), ((c3, (0, 1, 2), 1, 3), "C9"),
                       ((c4, (0, 1, 2, 3), 2, 2), "C4xC2")):
        G = cyclic_extension(*args)
        assert group_isomorphism(G, catalog_group(G.order, like)), like
        built.append(G)
    q16 = cyclic_extension(c8, c8.inverse, 4, 2)
    assert sorted(element_orders(q16)).count(2) == 1 and not q16.is_abelian()
    f20 = cyclic_extension(c5, (0, 2, 4, 1, 3), 0, 4)
    assert len(center(f20)) == 1 and max(element_orders(f20)) == 5
    built += [q16, f20]
    for G in built:
        assert_proven(G)


def test_alternating_group_from_catalog_is_not_supersoluble():
    a4 = catalog_group(12, "A4")
    assert a4.order == 12
    assert not is_supersoluble_group(a4)
    assert not is_nilpotent_group(a4)


def test_quaternion_group_shape():
    q = quaternion_group()
    assert q.order == 8
    assert sum(1 for x in range(8) if element_order(q, x) == 2) == 1
    assert tuple(sorted(element_orders(q))) == (1, 2, 4, 4, 4, 4, 4, 4)
    assert group_isomorphism(q, catalog_group(8, "Q8")) is not None


def test_subgroup_counts():
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    counts = {
        "C4": (cyclic_group(4), 3),
        "V4": (v4, 5),
        "S3": (catalog_group(6, "S3"), 6),
        "D8": (catalog_group(8, "D8"), 10),
        "Q8": (catalog_group(8, "Q8"), 6),
        "C6": (cyclic_group(6), 4),
        "C2xC2xC2": (catalog_group(8, "C2xC2xC2"), 16),
    }
    for label, (g, expected) in counts.items():
        assert len(subgroups(g)) == expected, label


def test_center_sizes():
    assert len(center(catalog_group(8, "D8"))) == 2
    assert len(center(catalog_group(8, "Q8"))) == 2
    assert len(center(catalog_group(6, "S3"))) == 1
    assert len(center(cyclic_group(6))) == 6


def test_derived_subgroups():
    s3 = catalog_group(6, "S3")
    assert len(derived_subgroup(s3)) == 3
    assert sorted(derived_subgroup(catalog_group(8, "Q8"))) == sorted(
        center(catalog_group(8, "Q8"))
    )
    assert derived_subgroup(cyclic_group(6)) == (0,)


def test_normality_and_quotient():
    s3 = catalog_group(6, "S3")
    rot = next(x for x in range(6) if element_order(s3, x) == 3)
    a3 = sorted(closure(s3, [rot]))
    assert len(a3) == 3
    assert is_normal(s3, a3)
    q, proj = quotient_group(s3, a3)
    assert_proven(q)
    assert q.order == 2
    assert sorted(set(proj)) == [0, 1]
    flip = next(x for x in range(6) if element_order(s3, x) == 2)
    assert not is_normal(s3, sorted(closure(s3, [flip])))
    for reflections in ((0, 1), (0, 3)):
        with pytest.raises(GroupInvalid, match="subset not normal"):
            quotient_group(s3, reflections)
    with pytest.raises(GroupInvalid, match="subset not closed"):
        quotient_group(s3, (0, 1, 3))
    with pytest.raises(GroupInvalid, match="must contain 0"):
        quotient_group(s3, (2, 4))


def test_closure_and_generating_set():
    c12 = cyclic_group(12)
    assert sorted(closure(c12, [2])) == [0, 2, 4, 6, 8, 10]
    for g in (c12, catalog_group(6, "S3"), catalog_group(8, "Q8")):
        gens = generating_set(g)
        assert sorted(closure(g, gens)) == list(range(g.order))


def naive_closure(g, seed):
    """Close under all products until nothing new appears."""
    elems = {0, *seed}
    while True:
        grown = elems | {g.table[x][y] for x in elems for y in elems}
        if grown == elems:
            return tuple(sorted(elems))
        elems = grown


def naive_generating_set(g):
    """Least element not yet reached, repeated until the group is reached."""
    gens = []
    while len(naive_closure(g, gens)) < g.order:
        reached = set(naive_closure(g, gens))
        gens.append(min(x for x in range(g.order) if x not in reached))
    return gens


def test_closure_matches_naive_fixed_point(worked_examples):
    order64 = direct_product_braces(
        worked_examples["ex32"].brace, trivial_brace(cyclic_group(2))).add_group
    groups = {
        "C12": cyclic_group(12),
        "D12": catalog_group(12, "D12"),
        "Q8": quaternion_group(),
        "ex32xC2 additive": order64,
    }
    rng = random.Random(20240229)
    for label, g in groups.items():
        n = g.order
        seeds = [(), (0,), (0, 0), tuple(range(n)), tuple(range(n - 1, -1, -1))]
        for _ in range(40):
            picks = [rng.randrange(n) for _ in range(rng.randrange(1, 5))]
            seeds.append(tuple(picks + picks[: rng.randrange(len(picks) + 1)] + [0]))
        for seed in seeds:
            assert closure(g, seed) == naive_closure(g, seed), (label, seed)


def test_span_grows_a_subgroup_by_the_elements_found_from_a_new_generator():
    # `_Span` multiplies only g and the elements found from it on by the
    # generators.  Started from each subgroup H of the catalog groups and
    # of S4 with the generators it keeps for H, adding each g outside H
    # must give the closure of H and g under all products.
    s4 = _permutation_group(list(itertools.permutations(range(4))))
    cases = 0
    for G in [G for n in range(1, 16) for _, G in group_catalog(n)] + [s4]:
        for H in subgroups(G):
            kept = _Span(G.table, H).gens
            for g in sorted(set(G.elements()) - set(H)):
                span = _Span(G.table, elems=H, gens=kept)
                span.add(g)
                assert sorted(span.elems) == list(naive_closure(G, H + (g,))), (G.name, H, g)
                cases += 1
    assert cases == 1554


def test_generating_set_matches_naive_greedy():
    for n in range(1, 13):
        for label, g in group_catalog(n):
            assert generating_set(g) == naive_generating_set(g), label


def test_is_subgroup():
    c12 = cyclic_group(12)
    assert is_subgroup(c12, [0, 4, 8])
    assert not is_subgroup(c12, [0, 4, 7])


@pytest.mark.parametrize("elems, expected", [
    ([1, 3], False), ([], False), ([0, 1], False), ([0], True), ([0, 2], True),
    ([0, 1, 2, 3], True)])
def test_is_normal_means_a_normal_subgroup(elems, expected):
    """A subset without 0, or not closed, is no normal subgroup, although
    every subset of an abelian group is closed under conjugation."""
    c4 = cyclic_group(4)
    assert is_normal(c4, elems) is expected
    assert ref.is_normal(c4, elems) is expected


AUT_ORDERS = {
    "C1": 1, "C2": 1, "C3": 2, "C4": 2, "C2xC2": 6, "C5": 4, "C6": 2, "S3": 6,
    "C7": 6, "C8": 4, "C4xC2": 8, "C2xC2xC2": 168, "D8": 8, "Q8": 24, "C9": 6,
    "C3xC3": 48, "C10": 4, "D10": 20, "C11": 10, "C12": 4, "C6xC2": 12,
    "D12": 12, "Dic3": 12, "A4": 24, "C13": 12, "C14": 6, "D14": 42, "C15": 8,
}


def test_automorphism_perms_of_catalog():
    labels = []
    for n in range(1, 16):
        for label, g in group_catalog(n):
            labels.append(label)
            perms = automorphism_perms(g)
            assert len(perms) == AUT_ORDERS[label], label
            assert perms[0] == tuple(range(n))
            assert len(set(perms)) == len(perms)
            for p in perms:
                m = GroupMap(g, g, p)
                assert m.is_bijective() and m.is_homomorphism(), (label, p)
    assert sorted(labels) == sorted(AUT_ORDERS)


def test_automorphism_group_orders():
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    expected = [
        (cyclic_group(4), 2),
        (v4, 6),
        (catalog_group(6, "S3"), 6),
        (catalog_group(8, "D8"), 8),
        (catalog_group(8, "Q8"), 24),
        (catalog_group(8, "C2xC2xC2"), 168),
        (cyclic_group(6), 2),
    ]
    for g, order in expected:
        a, perms = aut_group(g)
        assert_proven(a)
        assert a.order == order
        assert len(perms) == order
        assert tuple(range(g.order)) in perms


def test_conjugacy_class_sizes():
    s3 = catalog_group(6, "S3")
    assert tuple(sorted(conjugacy_class_sizes(s3))) == (1, 2, 2, 3, 3, 3)
    q8 = catalog_group(8, "Q8")
    assert tuple(sorted(conjugacy_class_sizes(q8))) == (1, 1, 2, 2, 2, 2, 2, 2)


def test_class_sizes_and_centre_match_the_all_elements_scan(full_pool, products):
    # The classes come from the Schreier tree of conjugation by a
    # generating set; the reference conjugates by every element.
    groups = [aut_group(A)[0] for n in range(1, 16) for _, A in group_catalog(n)]
    for B in full_pool + list(products.values()):
        groups += [B.add_group, B.mul_group]
    for G in groups:
        assert conjugacy_class_sizes(G) == ref.conjugacy_class_sizes(G), G.name
        assert center(G) == ref.center(G), G.name


def test_group_isomorphism_positive_and_negative():
    c6 = cyclic_group(6)
    assert group_isomorphism(c6, direct_product(cyclic_group(2), cyclic_group(3))) is not None
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    assert group_isomorphism(cyclic_group(4), v4) is None
    assert group_isomorphism(catalog_group(8, "D8"), catalog_group(8, "Q8")) is None


def test_nilpotency_and_supersolubility_predicates():
    assert is_nilpotent_group(catalog_group(8, "D8"))
    assert not is_nilpotent_group(catalog_group(6, "S3"))
    assert is_supersoluble_group(catalog_group(6, "S3"))
    assert is_supersoluble_group(catalog_group(8, "Q8"))
    assert is_supersoluble_group(catalog_group(12, "D12"))
    assert not is_supersoluble_group(catalog_group(12, "A4"))


def test_group_predicates_bundle():
    s3 = catalog_group(6, "S3")
    p = group_predicates(s3)
    assert p.order == 6
    assert not p.abelian
    assert not p.nilpotent
    assert p.supersoluble
    assert p.primes == (2, 3)
    assert tuple(sorted(p.element_orders)) == (1, 2, 2, 2, 3, 3)


def _reference_is_nilpotent(G):
    """The quotient-table predicate: the upper central series reaches G."""
    while G.order > 1:
        z = center(G)
        if len(z) == 1:
            return False
        G, _ = quotient_group(G, z)
    return True


def _reference_prime_order_normal_generator(G):
    """An element generating a normal subgroup of prime order, central ones
    first, if any."""
    n = G.order
    orders = element_orders(G)
    central = set(center(G))
    candidates = [a for a in range(1, n) if _is_prime(orders[a])]
    for a in candidates:
        if a in central:
            return a
    t = G.table
    inv = G.inverse
    for a in candidates:
        cyc = set(closure(G, (a,)))
        if all(t[t[g][a]][inv[g]] in cyc for g in range(n)):
            return a
    return None


def _reference_is_supersoluble(G):
    """The quotient-table predicate: factor out a normal subgroup of prime
    order while there is one."""
    while G.order > 1:
        a = _reference_prime_order_normal_generator(G)
        if a is None:
            return False
        G, _ = quotient_group(G, closure(G, (a,)))
    return True


def _permutation_group(perms):
    """The group of a list of permutations closed under composition,
    identity first."""
    at = {p: i for i, p in enumerate(perms)}
    return make_group([[at[tuple(p[x] for x in q)] for q in perms] for p in perms])


def test_group_predicates_match_the_quotient_table_reference(
        small_entries, medium_entries, products):
    s4 = _permutation_group(list(itertools.permutations(range(4))))
    a5 = _permutation_group([
        p for p in itertools.permutations(range(5))
        if sum(p[i] > p[j] for i in range(5) for j in range(i + 1, 5)) % 2 == 0])
    groups = [g for n in range(1, 16) for _, g in group_catalog(n)] + [s4, a5]
    for b in [e.brace for e in small_entries + medium_entries] + list(products.values()):
        groups += [b.add_group, b.mul_group]
    # The climb's path depends on the labels, so each table also runs
    # under two seeded relabellings.
    rng = random.Random(13)
    for g in list({g.table: g for g in groups}.values()):
        for _ in range(2):
            perm = [0] + rng.sample(range(1, g.order), g.order - 1)
            inv = sorted(range(g.order), key=perm.__getitem__)
            groups.append(make_group([[perm[g.table[inv[a]][inv[b]]] for b in g.elements()]
                                      for a in g.elements()]))
    distinct = list({g.table: g for g in groups}.values())
    assert len(distinct) > 250
    for g in distinct:
        assert is_nilpotent_group(g) == _reference_is_nilpotent(g)
        assert is_supersoluble_group(g) == _reference_is_supersoluble(g)
        assert group_predicates(g).supersoluble == _reference_is_supersoluble(g)
    for g in (s4, a5):
        assert not is_nilpotent_group(g) and not is_supersoluble_group(g)


def test_prime_steps_are_the_normal_subgroups_of_prime_index():
    """Over every normal subgroup N of each catalog group and S4,
    `_prime_steps` under conjugation by the generators yields each normal
    subgroup of prime index over N exactly once."""
    s4 = _permutation_group(list(itertools.permutations(range(4))))
    for g in [g for n in range(1, 16) for _, g in group_catalog(n)] + [s4]:
        maps = [_conjugation(g, x) for x in generating_set(g)]
        normal = [h for h in subgroups(g) if is_normal(g, h)]
        for n in normal:
            expected = [h for h in normal if set(n) <= set(h) and _is_prime(len(h) // len(n))]
            steps = sorted(_prime_steps(g, maps, n), key=lambda h: (len(h), h))
            assert steps == expected, (g.name, n)


def test_element_orders_match_the_power_walk(full_pool, ybe_products):
    """One walk per cyclic subgroup gives every element the order that
    `element_order` finds by walking its own powers."""
    for B in full_pool + list(ybe_products.values()):
        for G in (B.add_group, B.mul_group):
            orders = element_orders(G)
            assert orders == tuple(element_order(G, a) for a in G.elements())
            predicates = group_predicates(G)
            assert predicates.element_orders == tuple(sorted(orders))
            assert predicates.nilpotent == is_nilpotent_group(G)
