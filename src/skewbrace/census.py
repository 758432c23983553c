"""Enumeration of braces of small order over each additive group.

The primary route walks regular families f: A -> Aut(A) (equivalently,
regular subgroups of the holomorph of A) by backtracking: each chosen f_a
is a new generator of a subgroup of the holomorph, closed as an orbit of
(0, id), so a branch dies as soon as one a gets two twists.  It searches
up to symmetry at the root: the twist f_1 of the first free element runs
only over one representative of each class under conjugation by the
stabiliser of 1 in Aut(A), which every relabeling orbit meets (McKay,
J. Algorithms 26 (1998), in its first step).  One representative per
relabeling orbit is kept: a relabeling by theta in Aut(A) moves f to
a -> theta f_{theta^-1(a)} theta^-1, two lookups in the Aut(A) table per
entry, and each orbit is closed under generators of Aut(A) alone, so no
|Aut(A)|^2 conjugation table is built.  Each brace is read off its
family (lambda_a = f_a, and a has the order of (a, f_a) in the
holomorph), and its multiplicative group labeled by one walk from the
catalog groups with its sorted element orders.  An independent oracle
recounts everything through the other door: group actions
lambda: C -> Aut(A) paired with bijective cocycles delta (Guarnieri &
Vendramin, Math. Comp. 86 (2017)), also up to symmetry.  It takes one
lambda per class under (alpha, theta) lambda = theta (lambda alpha)
theta^-1, alpha in Aut(C) and theta in Aut(A), walking only the lambda
whose image of the first generator of C is the least of its conjugacy
class in Aut(A), and deduplicates the tables of each lambda by
generators of its stabiliser.  A homomorphism is a cocycle of the
trivial action, so the one walker of `groups` (`_walk`) finds both,
placing generator images one at a time and proving the identity on the
generator pairs, so a branch dies as soon as a prefix of generator
images fails.  Both routes compose automorphisms by one lookup in the
indexed Aut(A) of `aut_group`.

The routes share only table-level primitives, the group actions from
`groups`: the walker, behind `aut_group`, `_label_group` and
`brace_isomorphic` (over the additive and multiplicative tables at once)
as well as the oracle's searches; `_stabiliser`, the generators of every
acting group and stabiliser; the orbit kernel `_orbits`, whose Schreier
tree gives the relabeling orbits of `_orbit_representatives` and the
classes of `_action_classes`; and `_class_roots` (under Stab(1) for the
primary route, under all of Aut(A) for the oracle).  Besides them the
routes share `_hol_orders`; the primary route's own search is
`_regular_families`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .braces import SkewBrace
from .errors import OrderBoundExceeded, SkewBraceError
from .groups import (
    FiniteGroup,
    _cached,
    _class_roots,
    _dihedral,
    _generator_levels,
    _group,
    _map_search,
    _orbits,
    _relabel,
    _stabiliser,
    _walk,
    aut_group,
    cyclic_extension,
    cyclic_group,
    direct_product,
    element_orders,
    generating_set,
)

__all__ = [
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
_CATALOGS: dict[int, tuple[tuple[str, FiniteGroup], ...]] = {}


def quaternion_group() -> FiniteGroup:
    """The quaternion units 1, -1, i, -i, j, -j, k, -k: C4 = <i> extended
    by inversion with t = j and t^2 = 2 = -1."""
    c4 = cyclic_group(4)
    q8 = cyclic_extension(c4, c4.inverse, 2, 2)
    return _group(_relabel(q8.table, (0, 4, 2, 6, 1, 5, 3, 7)), "Q8")


def group_catalog(n: int) -> list[tuple[str, FiniteGroup]]:
    """All isomorphism types of groups of order n, for orders 1 to 15, each
    order built once and kept; every call returns a new list."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise SkewBraceError(f"group order must be an int, got {n!r}")
    if n < 1:
        raise SkewBraceError(f"group order must be positive, got {n}")
    if n > 15:
        raise OrderBoundExceeded(f"group catalog covers orders up to 15, got {n}")
    if n in _CATALOGS:
        return list(_CATALOGS[n])
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
        out.append(("Dic3", cyclic_extension(c(3), (0, 2, 1), 0, 4, name="Dic3")))
        v4 = direct_product(c(2), c(2))
        out.append(("A4", cyclic_extension(v4, (0, 2, 3, 1), 0, 3, name="A4")))
    elif n == 14:
        out.append(("D14", _dihedral(7, "D14")))
    _CATALOGS[n] = tuple(out)
    return out


def _hol_orders(A: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """hol[phi][v]: the order of (v, phi) in the holomorph of A, phi an index
    of `aut_group(A)`, (w, psi)(v, phi) = (w + psi(v), psi phi); cached in A."""
    def build() -> tuple[tuple[int, ...], ...]:
        aut, perms = aut_group(A)
        ta, tx = A.table, aut.table
        hol = [[1] * A.order for _ in perms]
        for phi, row in enumerate(hol):
            for v in range(A.order):
                w, psi = v, phi
                while w or psi:
                    w, psi = ta[w][perms[psi][v]], tx[psi][phi]
                    row[v] += 1
        return tuple(map(tuple, hol))

    return _cached(A, "hol_orders", build)


def _root_twists(A: FiniteGroup) -> frozenset[int]:
    """The least index in each class phi ~ theta phi theta^-1 of
    `aut_group(A)`, theta in Stab(1) = {theta in Aut(A) : theta(1) = 1};
    every index if A has no element 1.  Cached in A."""
    def build() -> frozenset[int]:
        aut, perms = aut_group(A)
        root = _class_roots(aut, _stabiliser(aut, lambda t: perms[t][1:2] == (1,)))[0]
        return frozenset(phi for phi in range(aut.order) if root[phi] == phi)

    return _cached(A, "root_twists", build)


def _regular_families(A: FiniteGroup, aut: FiniteGroup, perms, hol,
                      roots) -> list[tuple[int, ...]]:
    """Every family f with f_0 = id, f_{a + f_a(b)} = f_a f_b and f_1 in
    `roots`, f_a an index into `perms`.  The chosen (a, f_a) are closed as
    the orbit of (0, id) under right multiplication by them, by `_Span`'s
    rule: the elements found from the newest one on, times all.  Two twists
    for one a, or an orbit whose size does not divide n, kill a branch.

    With `_root_twists` as roots, every relabeling orbit of families meets
    the result, and every member of an orbit whose twist at 1 is a root is
    in it.  The first free element of the search is always 1, and the
    search is otherwise complete, so it finds exactly the families whose
    f_1 is a root.  For any family f pick sigma in Stab(1) with
    sigma f_1 sigma^-1 a root; relabeled by sigma, f has twist
    sigma f_{sigma^-1(1)} sigma^-1 = sigma f_1 sigma^-1 at 1, so it is
    found.  The lex-least member g of an orbit is found too: relabeling g
    by sigma in Stab(1) gives a member with twist sigma g_1 sigma^-1 at 1,
    no less than g_1, so g_1 is the least index in its class, a root.
    """
    n = A.order
    ta, tx = A.table, aut.table
    usable = [[phi for phi in range(aut.order)
               if n % hol[phi][a] == 0 and (a != 1 or phi in roots)] for a in range(n)]
    f = [-1] * n
    f[0] = 0
    elems = [0]
    gens: list[int] = []
    results: list[tuple[int, ...]] = []

    def close(mark: int) -> bool:
        i = mark
        while i < len(elems):
            x = elems[i]
            tax, px, tfx = ta[x], perms[f[x]], tx[f[x]]
            for g in gens:
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
    # Drop the cycle search -> its cell -> search, as `groups._walk` does.
    search = None
    return results


def _orbit_representatives(items, move, gens, table, held=None) -> list:
    """The lex-least member of each relabeling orbit that meets `items`, in
    order: the roots of the `_orbits` tree of the sorted pool under
    move(x, g), the relabeling of x by g of `gens`, indices of the acting
    group's table `table` (identity 0; relabeling by s, then t, is
    relabeling by table[t][s]).

    The pool must hold each member with held(member) true (every one if
    held is None) and the lex-least member of each orbit, which is then the
    first of its orbit in the sorted pool.  A miss means the search lost
    part of an orbit, and the error names the root's position in the sorted
    pool and the automorphism composed along the tree path onto the miss.
    """
    inside = set(items)
    pool = sorted(inside)
    tree = _orbits(pool, lambda x: [(g, move(x, g)) for g in gens])
    for x, edge in tree.items():
        if x not in inside and (held is None or held(x)):
            t = 0
            while edge is not None:
                x, g = edge
                t, edge = table[t][g], tree[x]
            raise SkewBraceError(
                "enumeration dropped a relabeling of one of its own results: automorphism "
                f"{t} moves item {pool.index(x)} of the sorted pool outside it")
    return [x for x, edge in tree.items() if edge is None]


def braces_with_additive_group(A: FiniteGroup) -> list[SkewBrace]:
    """One brace per isomorphism class with additive group A.

    A regular family f gives the brace a b = a + f_a(b), and a -> (a, f_a)
    maps it onto a regular subgroup of Hol(A) (Guarnieri & Vendramin
    2017), so each is built unproven on A itself, sharing A's cached
    invariants, and read off f: lam_a(b) = -a + a b = f_a(b), and a has
    the order hol[f_a][a] of (a, f_a).  Each comes from the lex-least
    family of its relabeling orbit, searched only with a root twist at 1
    (see `_regular_families`); a relabeled family with a root twist at 1
    that the search missed raises `SkewBraceError` naming the automorphism.
    """
    if A.order > ENUMERATION_ORDER_BOUND:
        raise OrderBoundExceeded(
            f"enumeration capped at order {ENUMERATION_ORDER_BOUND}, got {A.order}"
        )
    ta = A.table
    aut, perms = aut_group(A)
    roots, hol = _root_twists(A), _hol_orders(A)
    families = _regular_families(A, aut, perms, hol, roots)
    tx, inv = aut.table, aut.inverse

    def move(fam, t):
        """fam relabeled by theta = perms[t]: theta f_a theta^-1 at theta(a)."""
        row, t_inv = tx[t], inv[t]
        return tuple([tx[row[fam[a]]][t_inv] for a in perms[t_inv]])

    braces = []
    for family in _orbit_representatives(families, move, _stabiliser(aut), tx,
                                         lambda fam: fam[1] in roots):
        name = f"{A.name or 'A'}#{len(braces)}"
        lam = tuple(perms[phi] for phi in family)
        mul = _group(tuple(tuple(map(ta[a].__getitem__, row)) for a, row in enumerate(lam)),
                     f"{name}*")
        mul.cache["element_orders"] = tuple(hol[phi][a] for a, phi in enumerate(family))
        braces.append(SkewBrace(A, mul, lam, name))
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


def _label_group(G: FiniteGroup, catalog: Sequence[tuple[str, FiniteGroup]],
                 spectra: Sequence[list[int]]) -> str:
    """The label of the first catalog group H isomorphic to G, among those
    with G's sorted element orders, proven by one `_walk` over H's cached
    generator levels onto the elements of G of each generator's order: an
    injective homomorphism between groups of one order is an isomorphism,
    and it keeps the order of every element.  `spectra` holds the catalog
    groups' sorted element orders, in catalog order."""
    orders = element_orders(G)
    spectrum = sorted(orders)
    ident = [tuple(range(G.order))] * G.order
    for (label, H), sorted_orders in zip(catalog, spectra):
        levels = _generator_levels(H)
        if sorted_orders == spectrum and _walk(levels, G, ident, [
                [x for x in G.elements() if orders[x] == k] for _g, k, _p in levels], True, 1):
            return label
    raise SkewBraceError(f"no catalog group matches one of order {G.order}")


def census(n: int) -> BraceCensus:
    """Every brace of order n up to isomorphism, labeled and sorted.

    Capped by the group catalog, which covers the orders up to 15.
    """
    catalog = group_catalog(n)
    spectra = [sorted(element_orders(H)) for _, H in catalog]
    entries = [CensusEntry(B, label, _label_group(B.mul_group, catalog, spectra))
               for label, A in catalog for B in braces_with_additive_group(A)]
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


def _action_homs(C: FiniteGroup, aut: FiniteGroup, first):
    """All homomorphisms lam: C -> aut with lam(g_1) in `first`, the
    cocycles of the trivial action, as tuples of indices into aut; g_k goes
    to the images of order dividing its own."""
    orders = element_orders(aut)
    levels = _generator_levels(C)
    return _walk(levels, aut, [tuple(range(aut.order))] * C.order,
                 [[phi for phi in (first if k == 0 else range(aut.order))
                   if order % orders[phi] == 0]
                  for k, (_g, order, _pairs) in enumerate(levels)], False, float("inf"))


def _action_classes(C: FiniteGroup, c_aut: FiniteGroup, c_perms, aut: FiniteGroup,
                    root, canon, centralisers: dict) -> list[tuple[int, ...]]:
    """One homomorphism lam: C -> aut per class under
    (alpha, theta) lam = theta (lam alpha) theta^-1, alpha in Aut(C) (the
    automorphisms `c_perms`, indexed by c_aut), theta in aut; `root` and
    `canon` are `_class_roots` of aut under its own generators.
    `centralisers` maps a root r to the moves (0, t), t generators of its
    centraliser in aut; it is filled as roots come up, and may be shared
    by the calls over one aut.

    Only the rooted homomorphisms, lam(g_1) the root of its class (g_1 the
    first generator of C, or 0 if C is trivial), are walked.  Every class
    meets them: lam is conjugate by kappa = canon[lam(g_1)] to the rooted
    kappa lam kappa^-1.  Two moves connect each class within them: compose
    with a generator alpha of Aut(C) and conjugate by the canoniser of the
    new image of g_1, or conjugate by a generator of the centraliser of
    lam(g_1).  For a class member theta (lam w) theta^-1, w a word
    alpha_1 .. alpha_k in the generators, the first move step by step
    reaches kappa (lam w) kappa^-1 for some kappa, as
    (kappa (lam alpha) kappa^-1) beta = kappa (lam alpha beta) kappa^-1.
    Both are rooted conjugates of lam w, so their images of g_1 are
    conjugate roots, hence equal, and theta kappa^-1 centralises it: a word
    in the centraliser's generators, each step of which stays rooted.

    A move landing outside the walk's list means the walk lost a
    homomorphism, and raises `SkewBraceError` naming the hom's position in
    the list and the move's (alpha, theta) as indices of c_aut and aut.
    """
    homs = _action_homs(C, aut, [phi for phi in range(aut.order) if root[phi] == phi])
    index = {lam: i for i, lam in enumerate(homs)}
    tx, inv = aut.table, aut.inverse
    g1 = generating_set(C)[0] if C.order > 1 else 0
    alphas = _stabiliser(c_aut)

    def moves(j: int):
        lam = homs[j]
        r = lam[g1]
        if r not in centralisers:
            centralisers[r] = [(0, t) for t in _stabiliser(aut, lambda t: tx[t][r] == tx[r][t])]
        for a, t in [(a, canon[lam[c_perms[a][g1]]]) for a in alphas] + centralisers[r]:
            row, t_inv = tx[t], inv[t]
            k = index.get(tuple([tx[row[lam[x]]][t_inv] for x in c_perms[a]]), -1)
            if k < 0:
                raise SkewBraceError(
                    "action search dropped a homomorphism of its own class: "
                    f"automorphisms (alpha {a}, theta {t}) move hom {j} of the "
                    "walk's list outside it")
            yield (a, t), k

    return [homs[j] for j, edge in _orbits(range(len(homs)), moves).items() if edge is None]


def _bijective_cocycles(C: FiniteGroup, A: FiniteGroup, lam, perms, hol):
    """All bijections delta with delta(xy) = delta(x) + lam_x(delta(y)),
    lam_x = perms[lam[x]]; g_k goes to the v with holomorph order
    hol[lam[g_k]][v] equal to the order of g_k."""
    levels = _generator_levels(C)
    return _walk(levels, A, [perms[phi] for phi in lam],
                 [[v for v in range(A.order) if hol[lam[g]][v] == order]
                  for g, order, _pairs in levels], True, float("inf"))


def _oracle_pools(A: FiniteGroup, sources: Sequence[FiniteGroup]) -> list:
    """(tables, Stab(lam)) for one lam per class of `_action_classes` with a
    bijective cocycle, over each group C of `sources`: the tables are C
    relabeled by lam's bijective cocycles delta, and Stab(lam) lists
    generators, as indices of `aut_group(A)`, of the theta of Aut(A) with
    theta lam theta^-1 in lam Aut(C).

    The tables of lam are closed under Stab(lam): if
    theta lam theta^-1 = lam alpha, then theta delta alpha^-1 is a
    lam-cocycle, and it relabels C to theta's relabeling of delta's table.
    Different classes never give isomorphic braces, and two tables of one
    class related by theta in Aut(A) are related by Stab(lam): a table T
    fixes lam = lam^T delta up to Aut(C), lam^T the brace's lambda map,
    because delta is unique up to Aut(C), and relabeling T by theta
    conjugates lam^T by theta.  So the braces with additive group A are
    the Stab(lam)-orbits on the tables, summed over the pools.  The
    centralisers of the class roots are found once for A, across every C.
    """
    aut, perms = aut_group(A)
    tx, inv = aut.table, aut.inverse
    root, canon = _class_roots(aut, _stabiliser(aut))
    centralisers: dict[int, list] = {}
    pools = []
    for C in sources:
        c_aut, c_perms = aut_group(C)
        for lam in _action_classes(C, c_aut, c_perms, aut, root, canon, centralisers):
            tables = {_relabel(C.table, delta) for delta in
                      _bijective_cocycles(C, A, lam, perms, _hol_orders(A))}
            if tables:
                twins = {tuple([lam[x] for x in alpha]) for alpha in c_perms}
                pools.append((tables, _stabiliser(aut, lambda t: tuple(
                    [tx[tx[t][phi]][inv[t]] for phi in lam]) in twins)))
    return pools


def _oracle_counts(n: int) -> dict[str, int]:
    """Brace counts per additive group via the cocycle parametrization:
    the Stab(lam)-orbits on each pool of `_oracle_pools`, closed under
    generators of Stab(lam), every relabeling by it required in the pool."""
    counts: dict[str, int] = {}
    catalog = group_catalog(n)
    for label, A in catalog:
        aut, perms = aut_group(A)
        counts[label] = sum(len(_orbit_representatives(
            tables, lambda t, g: _relabel(t, perms[g]), stab, aut.table))
            for tables, stab in _oracle_pools(A, [C for _, C in catalog]))
    return counts


def census_oracle(n: int) -> int:
    """Independent recount of census(n) through actions and cocycles.

    Capped by `group_catalog` at order 15.  On a shared 2-vCPU Xeon VM
    under Python 3.11 (medians of 21 calls after a first, three runs) order
    8 (C2xC2xC2: 168 automorphisms) takes 22-25 ms, order 12 14-22 ms, and
    every other order up to 15 under 5 ms.
    """
    return sum(_oracle_counts(n).values())
