"""Tests for brace enumeration and isomorphism search."""

import hashlib
import itertools
import random
import re
import sys

import pytest

from skewbrace import (
    OrderBoundExceeded,
    SkewBraceError,
    aut_group,
    automorphism_perms,
    brace_isomorphic,
    braces_with_additive_group,
    census,
    census_oracle,
    check_brace_invariants,
    closure,
    cyclic_group,
    direct_product,
    group_catalog,
    group_isomorphism,
    make_brace,
    make_group,
    trivial_brace,
)
from skewbrace.census import (
    _action_classes,
    _action_homs,
    _bijective_cocycles,
    _hol_orders,
    _label_group,
    _oracle_counts,
    _oracle_pools,
    _orbit_representatives,
    _regular_families,
    _root_twists,
)
from skewbrace import groups
from skewbrace.cli import write_census_document
from skewbrace.braces import _brace
from skewbrace.groups import (_Span, _class_roots, _compose, _generator_levels, _group, _orbits,
                              _relabel, _stabiliser, element_order,
                              element_orders, generating_set)

import scalar_reference as ref

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
        assert _oracle_counts(n) == census(n).count_by_additive(), n


def test_oracle_enumerates_automorphisms_once_per_catalog_group(monkeypatch):
    # Every automorphism enumeration is one search of G onto itself for
    # more than one map.  From a fresh catalog, both routes and a second
    # census read each catalog group's Aut from one search.
    monkeypatch.setattr(sys.modules["skewbrace.census"], "_CATALOGS", {})
    enumerated = []
    search = groups._map_search

    def counting(sources, targets, limit, *rest):
        if limit > 1:
            enumerated.append(sources[0])
        return search(sources, targets, limit, *rest)

    monkeypatch.setattr(groups, "_map_search", counting)
    assert census(8).count() == EXPECTED_COUNTS[8]
    assert census_oracle(8) == EXPECTED_COUNTS[8]
    assert census(8).count() == EXPECTED_COUNTS[8]
    assert sorted(map(id, enumerated)) == sorted(id(G) for _, G in group_catalog(8))


CATALOG = [G for n in range(1, 16) for _, G in group_catalog(n)]

# SHA-256 of `enumerate n --export` for n = 1..15, as written by the
# tuple-composition primary route (1..12) and by the unrestricted family
# search (13..15).
EXPORT_SHA256 = {
    1: "ebb769bfe10fd08d34220ea94b2ede5002ade1e390fdca49813a2fa2e313c9d6",
    2: "4f8927a3e56e7e698bb0a6878d41b76de99d47494f5de0c59f44d784ebdb0e30",
    3: "963faf0073c900b310e3e97745a0f5d830cf305eb33dd0a723b48d50049d1d89",
    4: "ed1faacfa18987ac23b02908dd11900862ee0198e81c49d48554acd62bf04430",
    5: "c3ba1c2cf64f39c54f376717f10c55d6fe6c15170ca5c81c505c3f12908bdeab",
    6: "80bd88696eeddc42fc94f0f3003ba2718b17cddbc0d6ae3f612f10801603b31c",
    7: "cdc784bd2ed464a23522cfdec31ca3b5e8c1a873cda2ba1827b0656f8b05142e",
    8: "106aa06af1802a3a5d7f7ce190f444b642969ae1038be7fb9b058a1509ef97a5",
    9: "41fa779f46300082d83b34f03288e576230fb32264c45c73ff8a66f146082837",
    10: "eec70a78e14758335620559624b4ee10fdb01ceba728124ee755e16002f75695",
    11: "d5dc1afe1a7774ebcc0ec3e3a88a55387c2118c7f5643b9e88f0deea3f3a0a0a",
    12: "836b713528fd5a8d47c2da6dadaabcc667887da4c6de96cb227b0bbba96dff5c",
    13: "4699e00f9254fd95ae51ae993d558fceff7435c93a9c171403a3b892f6d5dc8a",
    14: "941e4d6fdace12312677684b44873373cdd55aba8b864fe0b75fd6f7c4cacb42",
    15: "19a3c098046525339f76714af32295d55b5f4600cfdf6bdf42b780a7e9a353c6",
}

# Brace count and SHA-256 of the repr of the list of multiplicative tables
# of `braces_with_additive_group(A)`, as written by the unrestricted family
# search: the groups where a search up to symmetry prunes the most.
FAMILY_TABLES_SHA256 = {
    "C2xC2xC2": (8, "0652b9fe774b4254534e2c0ead4c1c69109caa480e7688753e99b46f3bcb4228"),
    "C4xC4": (83, "89bfab693380182fb394c10a17d96e327ae4b33a7bd231b0c157aaebd6a12ccd"),
    "C4xC2xC2": (161, "b367f8272e4f5dd210ab3a1fd341c176b1e32ff6e68516a8b7e21a41727db2ea"),
    "C8xC2": (66, "139271c24176116f7f23fa209885f140d0892f3b2443e774299f77b2ece2dc9b"),
}


def _reference_families(A):
    """All regular families f_a as permutation tuples, closed by multiplying
    every pair of assigned elements in both orders."""
    n = A.order
    ta = A.table
    ident = tuple(range(n))
    auts = automorphism_perms(A)
    usable = {
        a: [phi for phi in auts if n % ref.hol_order(A, a, phi) == 0]
        for a in range(1, n)
    }
    results = []

    def close(assign, fresh):
        while fresh:
            e = fresh.pop()
            fe = assign[e]
            for x in list(assign):
                fx = assign[x]
                for left, fl, right, fr in ((x, fx, e, fe), (e, fe, x, fx)):
                    z = ta[left][fl[right]]
                    fz = _compose(fl, fr)
                    known = assign.get(z)
                    if known is None:
                        assign[z] = fz
                        fresh.append(z)
                    elif known != fz:
                        return False
        return n % len(assign) == 0

    def search(assign):
        if len(assign) == n:
            results.append(tuple(assign[a] for a in range(n)))
            return
        a = min(x for x in range(n) if x not in assign)
        for phi in usable[a]:
            trial = dict(assign)
            trial[a] = phi
            if close(trial, [a]):
                search(trial)

    search({0: ident})
    return results


def _reference_representatives(families, auts):
    """The lex-first family of each orbit under relabeling by `auts`."""
    reps, covered = [], set()
    for fam in sorted(families):
        if fam not in covered:
            reps.append(fam)
            covered.update(_relabel(fam, theta) for theta in auts)
    return reps


def test_package_attribute_census_is_the_function_not_the_module():
    """The package binds the function `census` over the submodule of that
    name; the module is reached by a from-import or through sys.modules."""
    import sys
    import types

    import skewbrace
    import skewbrace.census as by_import
    from skewbrace.census import census_oracle as from_module

    module = sys.modules["skewbrace.census"]
    assert isinstance(module, types.ModuleType)
    assert skewbrace.census is by_import is module.census
    assert isinstance(skewbrace.census, types.FunctionType)
    assert from_module is module.census_oracle is skewbrace.census_oracle


def test_hol_orders_match_tuple_composition():
    for A in CATALOG:
        perms = aut_group(A)[1]
        assert _hol_orders(A) == tuple(
            tuple(ref.hol_order(A, v, phi) for v in range(A.order)) for phi in perms), A.name


# Abelian groups of order 16 with 96, 16 and 192 automorphisms: C4xC4,
# C8xC2 and C4xC2xC2.
EXTRA = [direct_product(cyclic_group(4), cyclic_group(4)),
         direct_product(cyclic_group(8), cyclic_group(2)),
         direct_product(direct_product(cyclic_group(4), cyclic_group(2)), cyclic_group(2))]


def test_aut_group_matches_composed_permutations():
    assert len(CATALOG) == 28
    orders = []
    for A in CATALOG + EXTRA:
        aut, perms = aut_group(A)
        index = {p: i for i, p in enumerate(perms)}
        assert aut.table == tuple(
            tuple(index[_compose(p, q)] for q in perms) for p in perms), A.name
        assert make_group(aut.table).table == aut.table, A.name
        orders.append(aut.order)
    assert orders[-3:] == [96, 16, 192]


def test_aut_group_looks_up_only_greedy_generator_rows():
    # `aut_group` looks up a row only for each automorphism that `_Span`'s
    # rule keeps in index order, and caches those as Aut's generating set
    # while it builds the table: the list a fresh span of the finished table
    # keeps, each member at least doubling the subgroup reached.  Aut(C257)
    # is cyclic of order 256, so at most 9 of its rows may be looked up.
    for A in CATALOG + EXTRA + [cyclic_group(257)]:
        aut, _ = aut_group(_group(A.table, A.name))
        assert "generating_set" in aut.cache, A.name
        fresh = _group(aut.table)
        kept = generating_set(aut)
        assert kept == _Span(fresh.table, fresh.elements()).gens, A.name
        assert len(kept) <= aut.order.bit_length(), A.name


def test_aut_group_returns_a_new_list_each_call():
    # A copy of D8, so that a leak would corrupt no group other tests share.
    d8 = _group(dict(group_catalog(8))["D8"].table)
    aut, perms = aut_group(d8)
    expected = automorphism_perms(d8)
    assert perms == expected
    perms.reverse()
    perms.append(perms[0])
    again, listed = aut_group(d8)
    assert again is aut and listed is not perms
    assert listed == expected


def test_cached_aut_and_holomorph_orders_match_a_fresh_group():
    # The caches hold group invariants: a fresh copy of each table, with
    # an empty cache, rebuilds the same Aut, and the uncached search lists
    # the same automorphisms.
    for G in CATALOG + EXTRA:
        aut, perms = aut_group(G)
        hol = _hol_orders(G)
        assert type(hol) is tuple and all(type(row) is tuple for row in hol), G.name
        fresh = _group(G.table)
        assert fresh.cache == {}
        fresh_aut, fresh_perms = aut_group(fresh)
        assert perms == fresh_perms == automorphism_perms(fresh), G.name
        assert aut.table == fresh_aut.table, G.name
        assert hol == _hol_orders(fresh), G.name
        assert hol == tuple(tuple(ref.hol_order(fresh, v, phi) for v in range(fresh.order))
                            for phi in fresh_perms), G.name


def test_aut_table_bound(monkeypatch):
    # The bound is checked again on a group whose Aut is already cached.
    c2x2x2 = dict(group_catalog(8))["C2xC2xC2"]
    aut_group(c2x2x2)
    monkeypatch.setattr(groups, "AUT_TABLE_BOUND", 167)
    with pytest.raises(OrderBoundExceeded, match=re.escape(
            "C2xC2xC2 has more than 167 automorphisms, the Aut table bound")):
        braces_with_additive_group(c2x2x2)
    monkeypatch.setattr(groups, "AUT_TABLE_BOUND", 168)
    assert len(braces_with_additive_group(c2x2x2)) == 8


def test_aut_group_stops_the_search_past_the_bound(monkeypatch):
    # Both listers share one bounded search: `aut_group` on a C2^3 with
    # no cached Aut yet, and `automorphism_perms` on C2^5, whose 9,999,360
    # maps no test could list.
    monkeypatch.setattr(sys.modules["skewbrace.census"], "_CATALOGS", {})
    c2x2x2 = dict(group_catalog(8))["C2xC2xC2"]
    c2pow5 = direct_product(c2x2x2, dict(group_catalog(4))["C2xC2"])
    search = groups._map_search
    returned = []

    def recording(*args):
        found = search(*args)
        returned.append(len(found))
        return found

    monkeypatch.setattr(groups, "_map_search", recording)
    monkeypatch.setattr(groups, "AUT_TABLE_BOUND", 10)
    for lister, G in ((aut_group, c2x2x2), (automorphism_perms, c2pow5)):
        returned.clear()
        with pytest.raises(OrderBoundExceeded, match="more than 10 automorphisms"):
            lister(G)
        assert returned and max(returned) <= 11


def test_orbits_are_schreier_trees_closed_through_non_points():
    # Conjugation on Aut(C2xC2xC2) by its generators from every fifth
    # index, and translation by 2 on Z/6 from 0, 3 and 4: each edge is a
    # move, the roots are the points no earlier orbit reached, and each
    # orbit is closed through members that are not points.
    aut, _ = aut_group(dict(group_catalog(8))["C2xC2xC2"])
    tx, inv, gens = aut.table, aut.inverse, generating_set(aut)
    group = closure(aut, gens)
    z6 = cyclic_group(6).table
    cases = [(range(0, aut.order, 5), lambda x: [(g, tx[tx[g][x]][inv[g]]) for g in gens],
              lambda x: {tx[tx[t][x]][inv[t]] for t in group}),
             ([0, 3, 4], lambda x: [(2, z6[2][x])], lambda x: {z6[k][x] for k in (0, 2, 4)})]
    for points, moves, orbit in cases:
        tree = _orbits(points, moves)
        order = list(tree)
        for y, edge in tree.items():
            if edge is not None:
                x, g = edge
                assert dict(moves(x))[g] == y and order.index(x) < order.index(y)
        roots, reached = [], set()
        for p in points:
            if p not in reached:
                roots.append(p)
                reached |= orbit(p)
        assert [x for x, edge in tree.items() if edge is None] == roots
        assert set(tree) == reached and not reached <= set(points)
    assert _orbits([0, 3, 4], cases[1][1]) == {
        0: None, 2: (0, 2), 4: (2, 2), 3: None, 5: (3, 2), 1: (5, 2)}


def test_orbit_representatives_names_the_missing_relabeling():
    c2x2 = dict(group_catalog(4))["C2xC2"]
    aut, perms = aut_group(c2x2)
    orbits = [{_relabel(B.mul_group.table, p) for p in perms}
              for B in braces_with_additive_group(c2x2)]
    pool = next(orbit for orbit in orbits if len(orbit) > 1)
    missing = max(pool)
    with pytest.raises(SkewBraceError, match="dropped a relabeling") as info:
        _orbit_representatives(pool - {missing}, lambda t, g: _relabel(t, perms[g]),
                               generating_set(aut), aut.table)
    t, pos = map(int, re.search(r"automorphism (\d+) moves item (\d+)", str(info.value)).groups())
    assert _relabel(sorted(pool - {missing})[pos], perms[t]) == missing


def test_orbit_representatives_close_orbits_through_unheld_members():
    # C6 acting on Z/6 by translation, generated by +1.  From the pool's
    # least member 0 the missing 2 is reached only through 1, which lies
    # outside the pool but need not be in it: the orbit is closed through
    # every member, so 2 is found, and the error names the translation
    # composed along the path 0 -> 1 -> 2.
    z6 = cyclic_group(6).table
    pool = {0, 3, 4, 5}
    with pytest.raises(SkewBraceError, match="dropped a relabeling") as info:
        _orbit_representatives(pool, lambda x, k: z6[k][x], [1], z6, lambda x: x != 1)
    t, pos = map(int, re.search(r"automorphism (\d+) moves item (\d+)", str(info.value)).groups())
    assert (t, pos) == (2, 0) and z6[t][sorted(pool)[pos]] == 2
    assert _orbit_representatives(pool | {2}, lambda x, k: z6[k][x], [1], z6,
                                  lambda x: x != 1) == [0]
    assert _orbit_representatives(range(6), lambda x, k: z6[k][x], [2], z6) == [0, 1]


def test_family_search_names_the_dropped_relabeling(monkeypatch):
    # The restricted pool must hold every relabeled family with a root at
    # 1: drop one whose orbit meets the pool again, and the self-check of
    # `braces_with_additive_group` names an automorphism moving a pool
    # member onto it.
    module = sys.modules["skewbrace.census"]
    c2x2x2 = dict(group_catalog(8))["C2xC2xC2"]
    aut, perms = aut_group(c2x2x2)
    pool = sorted(_regular_families(c2x2x2, aut, perms, _hol_orders(c2x2x2),
                                    _root_twists(c2x2x2)))
    index = {p: i for i, p in enumerate(perms)}

    def relabel(fam, theta):
        # theta f_a theta^-1 at theta(a).
        back = tuple(sorted(range(8), key=theta.__getitem__))
        return tuple(index[_compose(_compose(theta, perms[fam[a]]), back)] for a in back)

    orbits = [{relabel(fam, theta) for theta in perms} & set(pool) for fam in pool]
    dropped = max(fam for fam, orbit in zip(pool, orbits) if len(orbit) > 1)
    kept = [fam for fam in pool if fam != dropped]
    monkeypatch.setattr(module, "_regular_families", lambda *args: kept)
    with pytest.raises(SkewBraceError, match="dropped a relabeling") as info:
        braces_with_additive_group(c2x2x2)
    t, pos = map(int, re.search(r"automorphism (\d+) moves item (\d+)", str(info.value)).groups())
    assert relabel(kept[pos], perms[t]) == dropped


def _first(found):
    return list(found[0]) if found else None


def _relabeled_group(G, rng):
    perm = [0] + rng.sample(range(1, G.order), G.order - 1)
    return make_group(_relabel(G.table, perm))


def _isomorphism_images(G, H):
    found = group_isomorphism(G, H)
    return list(found.images) if found else None


def test_group_maps_match_the_all_pairs_search():
    rng = random.Random(20)
    for G in CATALOG:
        assert automorphism_perms(G) == sorted(ref.map_search((G,), (G,), True)), G.name
        for H in CATALOG:
            if H.order == G.order:
                assert _isomorphism_images(G, H) == _first(ref.map_search((G,), (H,), False))
        R = _relabeled_group(G, rng)
        for S, T in ((G, R), (R, G)):
            assert _isomorphism_images(S, T) == _first(ref.map_search((S,), (T,), False))


def test_full_pool_group_maps_match_the_all_pairs_search(full_pool):
    rng = random.Random(21)
    refused = 0
    for B in full_pool:
        pair = (B.add_group, B.mul_group)
        for G in pair:
            if G.order < 32 or max(element_orders(G)) > 2:
                assert automorphism_perms(G) == sorted(ref.map_search((G,), (G,), True))
            else:
                # ex32's additive C2^5 has 9,999,360 automorphisms, past the bound.
                with pytest.raises(OrderBoundExceeded):
                    automorphism_perms(G)
                refused += 1
            R = _relabeled_group(G, rng)
            assert _isomorphism_images(G, R) == _first(ref.map_search((G,), (R,), False))
        for S, T in (pair, pair[::-1]):
            assert _isomorphism_images(S, T) == _first(ref.map_search((S,), (T,), False))
    assert refused == 1


def test_two_unrelated_tables_match_the_all_pairs_search():
    # Bijections that carry a catalog table and a relabeled second table at
    # once: unlike a brace's pair, the second table has no tie to the first.
    rng = random.Random(23)
    for n in (4, 6, 8):
        catalog = [G for _, G in group_catalog(n)]
        for A in catalog:
            for X in catalog:
                for _ in range(4):
                    p, q = ([0] + rng.sample(range(1, n), n - 1) for _ in range(2))
                    sides = ((A, make_group(_relabel(X.table, p))),
                             (A, make_group(_relabel(X.table, q))))
                    assert sorted(groups._map_search(*sides, float("inf"))) == sorted(
                        ref.map_search(*sides, True)), (A.name, X.name, p, q)


def _least_generating_sets(G):
    """Every generating set of G of the least size, as lists."""
    for k in range(G.order):
        found = [list(S) for S in itertools.combinations(range(1, G.order), k)
                 if len(closure(G, S)) == G.order]
        if found:
            return found


def test_other_tables_closed_on_any_generating_set_match_the_all_pairs_search():
    # `_walk` closes a second table only over the pairs (x, h) with h in the
    # generating set it is given.  Every least generating set of the
    # catalog tables and of their relabeling 0, n-1, 1, n-2, ... gives the
    # all-pairs maps; a closure that skips the pairs (y, h) with y known
    # before h returns wrong maps here (C8 onto C8 over C2xC2xC2, h = 4).
    for n in (4, 6, 8):
        catalog = [G for _, G in group_catalog(n)]
        interleaved = [0] + [x for pair in zip(range(n - 1, 0, -1), range(1, n)) for x in pair]
        for A in catalog:
            levels = _generator_levels(A)
            for X in catalog:
                for p in (range(n), interleaved[:n]):
                    Xp = make_group(_relabel(X.table, p))
                    spans = _least_generating_sets(Xp)
                    for Y in catalog:
                        want = sorted(ref.map_search((A, Xp), (A, Y), True))
                        for S in spans:
                            assert sorted(groups._walk(
                                levels, A, [tuple(range(n))] * n, [range(n)] * len(levels),
                                True, float("inf"), [(Xp.table, Y.table, S)])) == want, (
                                    A.name, X.name, Y.name, list(p), S)


def _brace_maps_agree(B1, B2):
    found = brace_isomorphic(B1, B2)
    sides = ((B1.add_group, B1.mul_group), (B2.add_group, B2.mul_group))
    assert found == _first(ref.map_search(*sides, False))
    return found


def test_brace_maps_match_the_all_pairs_search(small_entries):
    braces = [e.brace for e in small_entries]
    for i, B1 in enumerate(braces):
        for j, B2 in enumerate(braces):
            if B1.order == B2.order:
                assert (_brace_maps_agree(B1, B2) is None) == (i != j)


@pytest.mark.parametrize("name", ["ex24xC2", "ex8xex8"])
def test_relabeled_product_maps_match_the_all_pairs_search(products, name):
    P = products[name]
    rng = random.Random(22)
    perm = [0] + rng.sample(range(1, P.order), P.order - 1)
    Q = make_brace(_relabel(P.add_group.table, perm), _relabel(P.mul_group.table, perm))
    assert _brace_maps_agree(P, Q) is not None
    assert _brace_maps_agree(Q, P) is not None


def _roots_at_one(auts):
    """The lex-least automorphism of each class under conjugation by the
    automorphisms fixing 1, as permutation tuples."""
    stab = [(theta, tuple(sorted(range(len(theta)), key=theta.__getitem__)))
            for theta in auts if theta[1] == 1]
    return {phi for phi in auts
            if phi == min(_compose(_compose(theta, phi), theta_inv) for theta, theta_inv in stab)}


def test_indexed_families_match_tuple_reference():
    # The restricted pool is the full reference's families with a root at
    # 1, and its braces are the full reference's orbit representatives.
    masses = {}
    for A in CATALOG:
        aut, perms = aut_group(A)
        indexed = _regular_families(A, aut, perms, _hol_orders(A), _root_twists(A))
        families = _reference_families(A)
        roots = _roots_at_one(perms) if A.order > 1 else set()
        assert {tuple(perms[i] for i in fam) for fam in indexed} == {
            fam for fam in families if A.order == 1 or fam[1] in roots}, A.name
        reps = _reference_representatives(families, perms)
        ta = A.table
        braces = braces_with_additive_group(A)
        assert [B.mul_group.table for B in braces] == [
            tuple(tuple(ta[a][fam[a][b]] for b in range(A.order)) for a in range(A.order))
            for fam in reps
        ], A.name
        # Mass formula: the Aut(A)-orbits of the braces' families, each read
        # from the lambda rows, partition the regular families.
        masses[A.name] = sum(len({_relabel(B.lam_table, theta) for theta in perms})
                             for B in braces)
        assert masses[A.name] == len(families), A.name
    assert (masses["C2xC2xC2"], masses["D8"], masses["A4"]) == (232, 20, 42)


def test_multiplicative_orders_and_lambda_are_read_off_the_family():
    # The primary route caches each multiplicative group's element orders
    # from the holomorph and takes lambda from the twists: both must be
    # what a fresh group and the trusted constructor derive from the tables.
    braces = [e.brace for n in range(1, 16) for e in census(n).entries]
    braces += [B for A in EXTRA for B in braces_with_additive_group(A)]
    assert len(braces) == 119 + 83 + 66 + 161
    for B in braces:
        G = B.mul_group
        assert "element_orders" in G.cache, B.name
        assert element_orders(G) == element_orders(_group(G.table)), B.name
        assert B.lam_table == _brace(B.add_group, G).lam_table, B.name


@pytest.mark.parametrize("n", range(1, 16))
def test_census_export_is_unchanged(n):
    text = write_census_document(census(n))
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_SHA256[n]


def _inverse(p):
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def test_oracle_class_pools_match_all_actions():
    # Relabeled by all of Aut(A), the class pools give every table of every
    # action, and no table of one pool relabels into another.
    for n in range(1, 13):
        sources = [C for _, C in group_catalog(n)]
        for A in sources:
            aut, perms = aut_group(A)
            every = {
                _relabel(C.table, delta)
                for C in sources
                for lam in _action_homs(C, aut, range(aut.order))
                for delta in _bijective_cocycles(C, A, lam, perms, _hol_orders(A))
            }
            closures = [{_relabel(t, theta) for t in tables for theta in perms}
                        for tables, _stab in _oracle_pools(A, sources)]
            union = set().union(*closures)
            assert union == every, (n, A.name)
            assert sum(map(len, closures)) == len(union), (n, A.name)


def _reference_class_count(C, A):
    """The classes of every homomorphism C -> Aut(A) under
    (alpha, theta) lam = theta (lam alpha) theta^-1, folded by every alpha
    and theta on full tuples; automorphisms conjugate as permutations."""
    perms = automorphism_perms(A)
    index = {p: i for i, p in enumerate(perms)}
    conj = [[index[_compose(_compose(theta, phi), _inverse(theta))] for phi in perms]
            for theta in perms]
    c_perms = automorphism_perms(C)
    seen, classes = set(), 0
    for lam in _action_homs(C, aut_group(A)[0], range(len(perms))):
        if lam not in seen:
            classes += 1
            for alpha in c_perms:
                moved = [lam[x] for x in alpha]
                seen.update(tuple(map(row.__getitem__, moved)) for row in conj)
    return classes


def test_action_classes_match_the_fold_by_every_pair():
    for n in range(1, 9):
        catalog = group_catalog(n)
        for _, A in catalog:
            aut, perms = aut_group(A)
            root, canon = _class_roots(aut, _stabiliser(aut))
            centralisers = {}
            for _, C in catalog:
                c_aut, c_perms = aut_group(C)
                found = _action_classes(C, c_aut, c_perms, aut, root, canon, centralisers)
                assert len(set(found)) == len(found) == _reference_class_count(C, A), (
                    C.name, A.name)


def test_class_roots_canonise_onto_the_least_conjugate():
    for A in CATALOG:
        aut, perms = aut_group(A)
        for gens in (generating_set(aut), _stabiliser(aut),
                     [t for t, p in enumerate(perms) if p[1:2] == (1,)]):
            root, canon = _class_roots(aut, gens)
            group = closure(aut, gens)
            for phi in range(aut.order):
                kappa = canon[phi]
                assert kappa in group, A.name
                assert aut.table[aut.table[kappa][phi]][aut.inverse[kappa]] == root[phi], A.name
                assert root[phi] == min(
                    aut.table[aut.table[t][phi]][aut.inverse[t]] for t in group), A.name


def test_stabiliser_generators_span_exactly_the_fixed_indices():
    # For all of Aut(A), Stab(1) and the centraliser of each class root, the
    # kept generators pass the condition and their span holds every index
    # that does; none of the groups needs more generators than the greedy
    # ascending-index set of the whole group.
    for A in CATALOG:
        aut, perms = aut_group(A)
        tx = aut.table
        gens = _stabiliser(aut)
        assert len(_Span(tx, gens).elems) == aut.order, A.name
        assert len(gens) <= len(generating_set(aut)), A.name
        root = _class_roots(aut, gens)[0]
        conditions = [lambda t: perms[t][1:2] == (1,)] * (A.order > 1) + [
            lambda t, r=r: tx[t][r] == tx[r][t] for r in range(aut.order) if root[r] == r]
        for fixes in conditions:
            kept = _stabiliser(aut, fixes)
            assert all(map(fixes, kept)), A.name
            assert len(_Span(tx, kept).elems) == sum(map(fixes, range(aut.order))), A.name
    c2x2x2 = dict(group_catalog(8))["C2xC2xC2"]
    assert len(_stabiliser(aut_group(c2x2x2)[0])) == 2


def test_census_orbits_run_on_small_generating_sets(monkeypatch):
    # Points and moves of every orbit closed by one census(8) and one
    # census_oracle(8), after a first call of each has cached the root
    # twists: the points depend only on the groups acting, the moves on
    # their generators (1,408 and 9,411 with ascending-index generators).
    # The kernel is counted in `groups`, where the class roots call it,
    # and under the name `census` imports.
    module = sys.modules["skewbrace.census"]
    orbits = groups._orbits
    counts = {"points": 0, "moves": 0}

    def counting(points, moves):
        def counted(x):
            out = list(moves(x))
            counts["moves"] += len(out)
            return out

        tree = orbits(points, counted)
        counts["points"] += len(tree)
        return tree

    census(8)
    census_oracle(8)
    monkeypatch.setattr(groups, "_orbits", counting)
    monkeypatch.setattr(module, "_orbits", counting)
    for route, points, moves in ((census, 314, 628), (census_oracle, 1374, 4934)):
        counts.update(points=0, moves=0)
        route(8)
        assert counts["points"] == points and counts["moves"] <= moves, (route, counts)


def test_acting_groups_are_spanned_once(monkeypatch):
    # After a first call, census(8) spans no group again: Aut(A) keeps the
    # generators `_stabiliser` found for it.  census_oracle(8) spans only
    # the filtered stabilisers, the centralisers and the Stab(lam) (96
    # spans when Aut(A) and Aut(C) were spanned again on every call).
    spans = []

    class Counting(_Span):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            spans.append(args[0])
            super().__init__(*args, **kwargs)

    census(8)
    census_oracle(8)
    monkeypatch.setattr(groups, "_Span", Counting)
    assert census(8).count() == EXPECTED_COUNTS[8] and not spans
    assert census_oracle(8) == EXPECTED_COUNTS[8] and 0 < len(spans) <= 66


def test_oracle_finds_each_centraliser_once_per_additive_group(monkeypatch):
    # The stabiliser scans of one census_oracle(8), the calls with a
    # condition: one centraliser per class root and additive group, kept
    # across the multiplicative groups, and one Stab(lam) per pool (122
    # scans when each (C, A) pair found its own centralisers).
    module = sys.modules["skewbrace.census"]
    stabiliser = module._stabiliser
    scans = []

    def counting(aut, fixes=None):
        if fixes is not None:
            scans.append(aut)
        return stabiliser(aut, fixes)

    monkeypatch.setattr(module, "_stabiliser", counting)
    assert census_oracle(8) == EXPECTED_COUNTS[8]
    assert len(scans) <= 66


def test_action_search_names_the_dropped_homomorphism(monkeypatch):
    # Every move of a rooted homomorphism must land in the walk's list:
    # drop one whose rooted class has another member, and the class search
    # names a move taking a listed hom onto it.
    module = sys.modules["skewbrace.census"]
    c2x2x2 = dict(group_catalog(8))["C2xC2xC2"]
    aut, perms = aut_group(c2x2x2)
    c_aut, c_perms = aut, perms
    root, canon = _class_roots(aut, generating_set(aut))
    roots = [phi for phi in range(aut.order) if root[phi] == phi]
    homs = _action_homs(c2x2x2, aut, roots)
    tx, inv = aut.table, aut.inverse

    def move(lam, a, t):
        return tuple(tx[tx[t][lam[x]]][inv[t]] for x in c_perms[a])

    rooted = set(homs)
    dropped = next(lam for lam in sorted(homs, reverse=True) if len(rooted & {
        move(lam, a, t) for a in range(c_aut.order) for t in range(aut.order)}) > 1)
    kept = [lam for lam in homs if lam != dropped]
    monkeypatch.setattr(module, "_action_homs", lambda *args: kept)
    with pytest.raises(SkewBraceError, match="dropped a homomorphism") as info:
        _action_classes(c2x2x2, c_aut, c_perms, aut, root, canon, {})
    a, t, j = map(int, re.search(r"\(alpha (\d+), theta (\d+)\) move hom (\d+)",
                                 str(info.value)).groups())
    assert move(kept[j], a, t) == dropped


def test_oracle_names_the_dropped_table(monkeypatch):
    # Each class pool must hold every relabeling by its stabiliser: drop
    # one table whose Stab(lam)-orbit has another member, and the oracle
    # names an element of the span of Stab(lam) moving a pool table onto it.
    module = sys.modules["skewbrace.census"]
    catalog = group_catalog(8)
    c2x2x2 = dict(catalog)["C2xC2xC2"]
    aut, perms = aut_group(c2x2x2)
    sources = [C for _, C in catalog]
    pools = _oracle_pools(c2x2x2, sources)
    orbits = [({_relabel(t, perms[theta]) for theta in closure(aut, stab)}, i)
              for i, (tables, stab) in enumerate(pools) for t in tables]
    dropped, i = max((max(orbit), i) for orbit, i in orbits if len(orbit) > 1)
    cocycles = module._bijective_cocycles

    def dropping(C, A, *rest):
        return [delta for delta in cocycles(C, A, *rest)
                if A is not c2x2x2 or _relabel(C.table, delta) != dropped]

    monkeypatch.setattr(module, "_bijective_cocycles", dropping)
    with pytest.raises(SkewBraceError, match="dropped a relabeling") as info:
        _oracle_counts(8)
    t, pos = map(int, re.search(r"automorphism (\d+) moves item (\d+)", str(info.value)).groups())
    tables, stab = _oracle_pools(c2x2x2, sources)[i]
    assert tables == pools[i][0] - {dropped} and t in closure(aut, stab)
    assert _relabel(sorted(tables)[pos], perms[t]) == dropped


def _generator_proofs(C, A):
    """Homomorphisms C -> Aut(A) as permutation tuples, each mapped to its
    set of bijective cocycles, from the oracle's generator proofs."""
    aut, perms = aut_group(A)
    hol = _hol_orders(A)
    return {
        tuple(perms[phi] for phi in lam): set(_bijective_cocycles(C, A, lam, perms, hol))
        for lam in _action_homs(C, aut, range(aut.order))
    }


def test_generator_proofs_match_all_pairs_reference():
    for n in (1, 2, 3, 4, 5, 6, 12):
        catalog = group_catalog(n)
        for _, A in catalog:
            auts = aut_group(A)[1]
            for _, C in catalog:
                found = _generator_proofs(C, A)
                assert set(found) == ref.all_pairs_homs(C, auts), (C.name, A.name)
                for lam, cocycles in found.items():
                    assert cocycles == ref.all_pairs_cocycles(C, A, lam), (C.name, A.name)


def test_order_eight_homomorphism_and_cocycle_totals():
    catalog = group_catalog(8)
    homs, cocycles = {}, {}
    for label, A in catalog:
        found = [_generator_proofs(C, A) for _, C in catalog]
        homs[label] = sum(len(f) for f in found)
        cocycles[label] = sum(len(c) for f in found for c in f.values())
    assert homs == {"C8": 116, "C4xC2": 224, "C2xC2xC2": 1496, "D8": 224, "Q8": 440}
    assert cocycles == {"C8": 56, "C4xC2": 576, "C2xC2xC2": 3360, "D8": 496, "Q8": 528}


def _assert_levels_visit_each_pair_once(G):
    """Up to level k every (x, g) with x new at a level j <= k (in H_j, not
    in H_{j-1}) and g among g_1..g_j is listed exactly once, after x is
    reached (as 0, a generator or the product of an earlier pair), level k
    reaches H_k, and the last level reaches G (the trivial group has no
    level)."""
    levels = _generator_levels(G)
    gens = generating_set(G)
    assert [level[0] for level in levels] == gens, G.name
    reached, listed, expected = {0}, [], []
    for k, (g_k, order, pairs) in enumerate(levels):
        assert order == element_order(G, g_k), G.name
        new = set(closure(G, gens[:k + 1])) - reached
        reached.add(g_k)
        for x, g, y in pairs:
            assert x in reached and G.table[x][g] == y, G.name
            reached.add(y)
            listed.append((x, g))
        expected += [(x, g) for x in new for g in gens[:k + 1]]
        assert sorted(listed) == sorted(expected), G.name
        assert reached == set(closure(G, gens[:k + 1])), G.name
    assert reached == set(G.elements()), G.name


@pytest.mark.parametrize("n", range(1, 16))
def test_generator_levels_visit_each_pair_once(n):
    for _, C in group_catalog(n):
        _assert_levels_visit_each_pair_once(C)


def test_full_pool_generator_levels_visit_each_pair_once(full_pool):
    for B in full_pool:
        _assert_levels_visit_each_pair_once(B.add_group)
        _assert_levels_visit_each_pair_once(B.mul_group)


def test_non_commuting_generator_images_are_rejected():
    v4 = dict(group_catalog(4))["C2xC2"]
    aut, perms = aut_group(v4)
    g1, g2 = generating_set(v4)
    transpositions = [phi for phi in range(aut.order) if element_order(aut, phi) == 2]
    assert len(transpositions) == 3
    assert element_order(v4, g1) == element_order(v4, g2) == 2
    homs = _action_homs(v4, aut, range(aut.order))
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


@pytest.mark.parametrize("n", range(1, 16))
def test_keyed_labels_match_first_isomorphic_catalog_group(n):
    catalog = group_catalog(n)
    for e in census(n).entries:
        G = e.brace.mul_group
        first = next(label for label, H in catalog if group_isomorphism(G, H) is not None)
        assert e.multiplicative_label == first


def test_label_without_matching_catalog_group_raises():
    catalog = group_catalog(8)
    q8 = dict(catalog)["Q8"]
    spectra = [sorted(element_orders(H)) for _, H in catalog]
    assert _label_group(q8, catalog, spectra) == "Q8"
    without = [entry for entry in catalog if entry[0] != "Q8"]
    with pytest.raises(SkewBraceError, match="no catalog group matches"):
        _label_group(q8, without, [sorted(element_orders(H)) for _, H in without])


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
    assert len(braces_with_additive_group(c16)) == 8
    c4x4 = direct_product(cyclic_group(4), cyclic_group(4))
    assert len(braces_with_additive_group(c4x4)) == 83


@pytest.mark.parametrize("label", sorted(FAMILY_TABLES_SHA256))
def test_family_search_tables_are_unchanged(label):
    c = cyclic_group
    groups_by_label = {
        "C2xC2xC2": direct_product(direct_product(c(2), c(2)), c(2)),
        "C4xC4": direct_product(c(4), c(4)),
        "C4xC2xC2": direct_product(direct_product(c(4), c(2)), c(2)),
        "C8xC2": direct_product(c(8), c(2)),
    }
    tables = [B.mul_group.table for B in braces_with_additive_group(groups_by_label[label])]
    assert (len(tables), hashlib.sha256(repr(tables).encode()).hexdigest()) == (
        FAMILY_TABLES_SHA256[label])


def test_extended_census_on_doubled_primes():
    r14 = census(14)
    assert r14.count() == 6
    assert r14.count_by_additive() == {"C14": 2, "D14": 4}
    r15 = census(15)
    assert r15.count() == 1


def test_order_bounds_raise():
    with pytest.raises(OrderBoundExceeded):
        census(16)
    with pytest.raises(OrderBoundExceeded):
        census_oracle(16)
    with pytest.raises(OrderBoundExceeded):
        braces_with_additive_group(cyclic_group(17))
    with pytest.raises(OrderBoundExceeded):
        group_catalog(16)


@pytest.mark.parametrize("bad", [True, 8.0, "8"])
def test_group_catalog_rejects_orders_that_are_not_ints(bad):
    # Neither a cold nor a warm cache takes a bool, a float or a string for
    # an order, and none of them is cached under the int it equals.
    for _ in range(2):
        with pytest.raises(SkewBraceError, match=re.escape(f"got {bad!r}")):
            group_catalog(bad)
        with pytest.raises(SkewBraceError, match=re.escape(f"got {bad!r}")):
            census(bad)
        group_catalog(8)
    assert census(1).entries[0].additive_label == "C1"


def test_group_catalog_is_built_once_per_order():
    first, second = group_catalog(12), group_catalog(12)
    assert first == second and first is not second
    assert all(g is h for (_, g), (_, h) in zip(first, second))
    first.clear()
    assert [label for label, _ in group_catalog(12)] == [label for label, _ in second]


def test_root_twists_are_built_once_per_catalog_group(monkeypatch):
    # From a fresh catalog, two censuses of order 8 read each catalog
    # group's root twists from one class-root pass over its Aut.
    monkeypatch.setattr(sys.modules["skewbrace.census"], "_CATALOGS", {})
    module = sys.modules["skewbrace.census"]
    rooted = []
    roots = module._class_roots

    def counting(aut, gens):
        rooted.append(aut)
        return roots(aut, gens)

    monkeypatch.setattr(module, "_class_roots", counting)
    assert census(8).count() == census(8).count() == EXPECTED_COUNTS[8]
    catalog = [G for _, G in group_catalog(8)]
    assert sorted(map(id, rooted)) == sorted(id(aut_group(G)[0]) for G in catalog)
    assert all(type(G.cache["root_twists"]) is frozenset for G in catalog)


def test_census_braces_are_built_on_their_catalog_group():
    for n in (4, 8, 12):
        catalog = dict(group_catalog(n))
        for entry in census(n).entries:
            assert entry.brace.add_group is catalog[entry.additive_label], entry.brace.name
    assert repr(census(4).entries[-1].brace.add_group) == "FiniteGroup(C4, order=4)"


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
