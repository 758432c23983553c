"""Enumeration of braces of small order over each additive group.

The primary route walks regular families f: A -> Aut(A) (equivalently,
regular subgroups of the holomorph of A) by backtracking: each chosen f_a
is a new generator of a subgroup of the holomorph, closed as an orbit of
(0, id), so a branch dies as soon as one a gets two twists.  One
representative per relabeling orbit is kept: a relabeling by theta in
Aut(A) moves f to a -> theta f_{theta^-1(a)} theta^-1, two lookups in the
Aut(A) table per entry, and only the representatives are moved, so no
|Aut(A)|^2 conjugation table is built.  An independent oracle
recounts everything through the other door: group actions
lambda: C -> Aut(A), up to Aut(C), paired with bijective cocycles delta,
deduplicated at the multiplication-table level.  A homomorphism is a
cocycle of the trivial action, so one walker finds both, placing generator
images one at a time and proving the identity on the generator pairs, so a
branch dies as soon as a prefix of generator images fails.  Both routes
compose automorphisms by one lookup in the indexed Aut(A) of `aut_group`.

The routes share only table-level primitives: `aut_group` and the one map
search of `groups` behind it, `_label_group` and `brace_isomorphic` (over
the additive and multiplicative tables at once), and `_hol_orders`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .braces import SkewBrace, _brace
from .errors import OrderBoundExceeded, SkewBraceError
from .groups import (
    FiniteGroup,
    _dihedral,
    _group,
    _map_search,
    _relabel,
    aut_group,
    cyclic_group,
    direct_product,
    element_order,
    element_orders,
    generating_set,
    group_isomorphism,
    make_group,
    semidirect_product,
)

__all__ = [
    "ENUMERATION_ORDER_BOUND",
    "group_catalog",
    "quaternion_group",
    "braces_with_additive_group",
    "CensusEntry",
    "BraceCensus",
    "census",
    "brace_isomorphic",
    "census_oracle",
]

ENUMERATION_ORDER_BOUND = 16


def quaternion_group() -> FiniteGroup:
    """The order-8 group of quaternion units, identity first."""
    unit_mul = (
        ((0, 0), (0, 1), (0, 2), (0, 3)),
        ((0, 1), (1, 0), (0, 3), (1, 2)),
        ((0, 2), (1, 3), (1, 0), (0, 1)),
        ((0, 3), (0, 2), (1, 1), (1, 0)),
    )
    table = []
    for idx1 in range(8):
        u1, s1 = divmod(idx1, 2)
        row = []
        for idx2 in range(8):
            u2, s2 = divmod(idx2, 2)
            extra, unit = unit_mul[u1][u2]
            row.append(2 * unit + (s1 ^ s2 ^ extra))
        table.append(tuple(row))
    return make_group(tuple(table), name="Q8")


def group_catalog(n: int) -> list[tuple[str, FiniteGroup]]:
    """All isomorphism types of groups of order n, for orders 1 to 15."""
    if n < 1:
        raise SkewBraceError(f"group order must be positive, got {n}")
    if n > 15:
        raise OrderBoundExceeded(f"group catalog covers orders up to 15, got {n}")
    c = cyclic_group
    out: list[tuple[str, FiniteGroup]] = [(f"C{n}", c(n))]
    if n == 4:
        out.append(("C2xC2", direct_product(c(2), c(2), name="C2xC2")))
    elif n == 6:
        out.append(("S3", _dihedral(3, "S3")))
    elif n == 8:
        out.append(("C4xC2", direct_product(c(4), c(2), name="C4xC2")))
        v4 = direct_product(c(2), c(2))
        out.append(("C2xC2xC2", direct_product(v4, c(2), name="C2xC2xC2")))
        out.append(("D8", _dihedral(4, "D8")))
        out.append(("Q8", quaternion_group()))
    elif n == 9:
        out.append(("C3xC3", direct_product(c(3), c(3), name="C3xC3")))
    elif n == 10:
        out.append(("D10", _dihedral(5, "D10")))
    elif n == 12:
        out.append(("C6xC2", direct_product(c(6), c(2), name="C6xC2")))
        out.append(("D12", _dihedral(6, "D12")))
        out.append(("Dic3", semidirect_product(
            c(3), c(4), [(0, 1, 2), (0, 2, 1), (0, 1, 2), (0, 2, 1)], name="Dic3")))
        v4 = direct_product(c(2), c(2))
        out.append(("A4", semidirect_product(
            v4, c(3), [(0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)], name="A4")))
    elif n == 14:
        out.append(("D14", _dihedral(7, "D14")))
    return out


def _hol_orders(A: FiniteGroup, aut: FiniteGroup, perms) -> list[list[int]]:
    """hol[phi][v]: the order of (translate by v, twist by perms[phi]) in the
    holomorph, where (w, psi)(v, phi) = (w + psi(v), psi phi)."""
    ta, tx = A.table, aut.table
    hol = [[1] * A.order for _ in perms]
    for phi, row in enumerate(hol):
        for v in range(A.order):
            w, psi = v, phi
            while w or psi:
                w, psi = ta[w][perms[psi][v]], tx[psi][phi]
                row[v] += 1
    return hol


def _regular_families(A: FiniteGroup, aut: FiniteGroup, perms, hol) -> list[tuple[int, ...]]:
    """All families f with f_0 = id and f_{a + f_a(b)} = f_a f_b, f_a an
    index into `perms`.  The chosen (a, f_a) are closed as the orbit of
    (0, id) under right multiplication by them: old elements times the
    newest one, new elements times all.  Two twists for one a, or an orbit
    whose size does not divide n, kill a branch."""
    n = A.order
    ta, tx = A.table, aut.table
    usable = [[phi for phi in range(aut.order) if n % hol[phi][a] == 0] for a in range(n)]
    f = [-1] * n
    f[0] = 0
    elems = [0]
    gens: list[int] = []
    results: list[tuple[int, ...]] = []

    def close(mark: int) -> bool:
        i = 0
        while i < len(elems):
            x = elems[i]
            tax, px, tfx = ta[x], perms[f[x]], tx[f[x]]
            for g in gens if i >= mark else gens[-1:]:
                z = tax[px[g]]
                w = tfx[f[g]]
                if f[z] < 0:
                    f[z] = w
                    elems.append(z)
                elif f[z] != w:
                    return False
            i += 1
        return n % len(elems) == 0

    def search() -> None:
        if len(elems) == n:
            results.append(tuple(f))
            return
        a = f.index(-1)
        mark = len(elems)
        gens.append(a)
        for phi in usable[a]:
            f[a] = phi
            elems.append(a)
            if close(mark):
                search()
            for x in elems[mark:]:
                f[x] = -1
            del elems[mark:]
        gens.pop()

    search()
    return results


def _orbit_representatives(items, transports) -> list:
    """First-seen lex-minimal representative of each relabeling orbit.

    Every transported item must already be in the input set; a miss means
    the generator lost part of an orbit, and the error names the
    representative's position in the sorted pool and the index of the
    transport (the automorphism) that moves it outside.
    """
    pool = set(items)
    covered = set()
    reps = []
    for pos, item in enumerate(sorted(pool)):
        if item in covered:
            continue
        reps.append(item)
        for t, move in enumerate(transports):
            moved = move(item)
            if moved not in pool:
                raise SkewBraceError(
                    "enumeration dropped a relabeling of one of its own results: "
                    f"automorphism {t} moves item {pos} of the sorted pool outside it"
                )
            covered.add(moved)
    return reps


def braces_with_additive_group(A: FiniteGroup) -> list[SkewBrace]:
    """One brace per isomorphism class with additive group A.

    A regular subgroup of Hol(A) gives a brace by theorem (Guarnieri &
    Vendramin 2017), so each is built by the trusted constructor; the exact
    proof is `enumerate --check`.
    """
    if A.order > ENUMERATION_ORDER_BOUND:
        raise OrderBoundExceeded(
            f"enumeration capped at order {ENUMERATION_ORDER_BOUND}, got {A.order}"
        )
    n = A.order
    ta = A.table
    aut, perms = aut_group(A)
    families = _regular_families(A, aut, perms, _hol_orders(A, aut, perms))
    # Relabeling by theta = perms[t] puts theta f_a theta^-1 at theta(a), found
    # by two lookups per entry.  Index order is the lex order of `perms`, so
    # reps are unchanged.
    tx, inv = aut.table, aut.inverse
    moves = [(lambda fam, row=tx[t], t_inv=inv[t], back=perms[inv[t]]:
              tuple([tx[row[fam[a]]][t_inv] for a in back]))
             for t in range(aut.order)]
    braces = []
    for family in _orbit_representatives(families, moves):
        mul = tuple(tuple(map(ta[a].__getitem__, perms[family[a]])) for a in range(n))
        name = f"{A.name or 'A'}#{len(braces)}"
        braces.append(_brace(_group(ta, f"{name}+"), _group(mul, f"{name}*"), name))
    return braces


class CensusEntry(NamedTuple):
    """One isomorphism class of braces in a census."""

    brace: SkewBrace
    additive_label: str
    multiplicative_label: str


class BraceCensus(NamedTuple):
    """All braces of one order up to isomorphism."""

    order: int
    entries: tuple[CensusEntry, ...]

    def count(self) -> int:
        """The number of entries; replaces tuple.count."""
        return len(self.entries)

    def count_by_additive(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self.entries:
            out[e.additive_label] = out.get(e.additive_label, 0) + 1
        return out


def _label_group(G: FiniteGroup, catalog: Sequence[tuple[str, FiniteGroup]]) -> str:
    """The label of the first catalog group isomorphic to G, proven by an
    explicit isomorphism; the map search rejects a group whose element
    invariants differ before it maps anything."""
    for label, H in catalog:
        if group_isomorphism(G, H) is not None:
            return label
    raise SkewBraceError(f"no catalog group matches one of order {G.order}")


def census(n: int) -> BraceCensus:
    """Every brace of order n up to isomorphism, labeled and sorted.

    Capped by the group catalog, which covers the orders up to 15.
    """
    catalog = group_catalog(n)
    entries = []
    for label, A in catalog:
        for B in braces_with_additive_group(A):
            entries.append(CensusEntry(
                brace=B,
                additive_label=label,
                multiplicative_label=_label_group(B.mul_group, catalog),
            ))
    entries.sort(key=lambda e: (e.additive_label, e.multiplicative_label,
                                e.brace.mul_group.table))
    return BraceCensus(order=n, entries=tuple(entries))


def brace_isomorphic(B1: SkewBrace, B2: SkewBrace) -> Optional[list[int]]:
    """A bijection preserving both operations, or None.

    The shared map search of `groups` over the additive tables, whose
    generating set is mapped, and then the multiplicative ones.
    """
    found = _map_search((B1.add_group, B1.mul_group), (B2.add_group, B2.mul_group), 1)
    return list(found[0]) if found else None


def _generator_levels(C: FiniteGroup):
    """One level per generator g_k of `generating_set(C)`, for proving the
    identity f(xg) = f(x) acts[x](f(g)) of `_cocycles` on every x of C and
    every generator g.

    A level is (g_k, its order, the elements of H_k = <g_1..g_k>, edges,
    checks).  H_k is closed as an orbit of 0, as in `groups._Span`: the
    elements of H_{k-1} times g_k, and the new ones, g_k first, times
    g_1..g_k.  A pair (x, g) with x != 0 (where the identity holds once
    f(0) is neutral) is an edge (x, g, xg) if xg is new, else a check, so
    each pair of H_k x {g_1..g_k} is visited once and each edge starts at
    an element placed before.
    """
    gens, t = generating_set(C), C.table
    elems, inside, levels = [0], {0}, []
    for k, g_k in enumerate(gens):
        mark = len(elems)
        elems.append(g_k)
        inside.add(g_k)
        edges, checks = [], []
        i = 1
        while i < len(elems):
            x = elems[i]
            for g in gens[:k + 1] if i >= mark else (g_k,):
                y = t[x][g]
                if y in inside:
                    checks.append((x, g, y))
                else:
                    inside.add(y)
                    elems.append(y)
                    edges.append((x, g, y))
            i += 1
        levels.append((g_k, element_order(C, g_k), list(elems), edges, checks))
    return levels


def _cocycles(levels, G: FiniteGroup, acts, candidates, bijective: bool):
    """All f: C -> G with f(xy) = f(x) acts[x](f(y)), injective if
    `bijective`, as tuples; acts[x] is a permutation of G.

    The image of g_k, from candidates[k], is extended over H_k along the
    edges of levels[k], and its checks (and f injective on H_k) are proven
    before g_{k+1} gets an image.  If acts is a homomorphism into Aut(G),
    the g that satisfy the identity for every x are closed under products,
    f(xgh) = f(x) acts[x](f(g) acts[g](f(h))), so passing the last level
    proves it on C.  With identity acts the f are the homomorphisms.
    """
    tg = G.table
    f = [0] * len(acts)
    out = []

    def extend(k: int) -> None:
        if k == len(levels):
            out.append(tuple(f))
            return
        g_k, _order, elems, edges, checks = levels[k]
        for v in candidates[k]:
            f[g_k] = v
            for x, g, y in edges:
                f[y] = tg[f[x]][acts[x][f[g]]]
            if (not bijective or len({f[x] for x in elems}) == len(elems)) and all(
                    f[y] == tg[f[x]][acts[x][f[g]]] for x, g, y in checks):
                extend(k + 1)

    extend(0)
    return out


def _action_homs(C: FiniteGroup, levels, aut: FiniteGroup):
    """All homomorphisms lam: C -> aut, the cocycles of the trivial action,
    as tuples of indices into aut; g_k goes to the images of order dividing
    its own."""
    orders = element_orders(aut)
    return _cocycles(levels, aut, [tuple(range(aut.order))] * C.order,
                     [[phi for phi in range(aut.order) if order % orders[phi] == 0]
                      for _g, order, *_ in levels], False)


def _bijective_cocycles(C: FiniteGroup, levels, A: FiniteGroup, lam, perms, hol):
    """All bijections delta with delta(xy) = delta(x) + lam_x(delta(y)),
    lam_x = perms[lam[x]]; g_k goes to the v with holomorph order
    hol[lam[g_k]][v] equal to the order of g_k."""
    return _cocycles(levels, A, [perms[phi] for phi in lam],
                     [[v for v in range(A.order) if hol[lam[g]][v] == order]
                      for g, order, *_ in levels], True)


def _oracle_tables(A: FiniteGroup, aut: FiniteGroup, perms, split) -> set:
    """Each C of `split` relabeled by the bijective cocycles of one lam per
    orbit lam ~ lam alpha, alpha in Aut(C): delta alpha is a cocycle for
    lam alpha and relabels C to the same table as delta."""
    hol = _hol_orders(A, aut, perms)
    tables = set()
    for C, levels, c_perms in split:
        seen = set()
        for lam in _action_homs(C, levels, aut):
            if lam not in seen:
                seen.update(tuple([lam[x] for x in alpha]) for alpha in c_perms)
                tables.update(_relabel(C.table, delta) for delta in
                              _bijective_cocycles(C, levels, A, lam, perms, hol))
    return tables


def _oracle_counts(n: int) -> dict[str, int]:
    """Brace counts per additive group via the cocycle parametrization."""
    counts: dict[str, int] = {}
    catalog = group_catalog(n)
    auts = {label: aut_group(C) for label, C in catalog}
    split = [(C, _generator_levels(C), auts[label][1]) for label, C in catalog]
    for label, A in catalog:
        aut, perms = auts[label]
        tables = _oracle_tables(A, aut, perms, split)
        moves = [(lambda t, th=theta: _relabel(t, th)) for theta in perms]
        counts[label] = len(_orbit_representatives(tables, moves))
    return counts


def census_oracle(n: int) -> int:
    """Independent recount of census(n) through actions and cocycles.

    Capped by `group_catalog` at order 15.  On a shared 2-vCPU Xeon VM
    under Python 3.11 (medians of 21 calls) order 8 (C2xC2xC2 has 168
    automorphisms) takes 0.10-0.13 s and every other order up to 15 under
    0.05 s.
    """
    return sum(_oracle_counts(n).values())
