"""Finite groups on dense Cayley tables with 0-based element indices.

Elements of a group of order n are the integers 0..n-1 and the identity is
always normalized to index 0.  Every table, whatever its order, is proven
associative from a generating set S: if (s, x, y) associates for every s in
S and all x, y, associativity propagates to the whole table, so the proof
costs |S| n^2 lookups with |S| <= log2 n.  Each of its |S| n row
compositions is one C call: on a carrier of at most 256 elements a
`bytearray.translate` of byte rows, and on a larger one, whose elements
do not fit in a byte, an `itemgetter` over tuple rows (`_row_getter`).

Every generated subgroup comes from one orbit kernel (`_Span`): a finite
subgroup is the orbit of 0 under right multiplication by its generators
(Holt, Eick & O'Brien, Handbook of Computational Group Theory, 2005, ch. 4).
A seed element is kept as a generator only when it is not already inside,
and each kept generator at least doubles the orbit, so a subgroup H costs
O(|H| log |H|) table lookups plus one membership test per seed element.
One join loop (`_joins`) lists the subgroups common to tables on one
carrier and the ideals, refusing past `LATTICE_ENTRY_BOUND` entries.
One subset prover (`_escape`) decides, on generators, whether a caller's
subset is a subgroup, normal, a subbrace or an ideal.

One walker (`_walk`) finds every map: the isomorphisms and automorphisms of
groups and braces (`_map_search`) and the census oracle's actions and
bijective cocycles.  It places images of the generators g_1, g_2, .. of
the source one at a time and proves f(xg) = f(x) acts[x](f(g)) on the
group's cached `_generator_levels`, which replay `_Span` over the
generators: level k closes the graph of f on H_k = <g_1..g_k> by
`_Span`'s rule, so f is proven on H_k at every node that passes, at
O(|H_k| k) lookups instead of O(|H_k|^2).  A brace's multiplicative table
is closed alongside, over the pairs of known elements whose right factor
is one of its generators.
One orbit kernel (`_orbits`) gives the Schreier tree of every group action:
the conjugacy classes and centre, the class roots (`_class_roots`) under the
subgroups that `_stabiliser` generates, `census`'s orbits, and the rows of
`aut_group`'s table, composed from the rows of its greedy generators.
One coset builder (`_cosets`) gives the quotients of groups and braces.  The
predicates build no quotient: nilpotency is read off element orders, and
the one prime-step kernel of groups and braces (`_prime_steps`) climbs on cosets.

Exact at the boundary, trusted after: `make_group` proves a table, and a
table derived from proven groups (quotients, Aut, products, and cyclic
extensions once their three conditions are proven) is a group by theorem,
built by `_group` unproven.  One pair builder (`_twisted`) gives the direct
products and the lambda product of a brace, and one induced-table builder
(`_induced`) the relabelings, quotients and subtables.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    ActionNotHomomorphism,
    GroupInvalid,
    MissingInverse,
    NoIdentity,
    NonAssociative,
    NotClosed,
    OrderBoundExceeded,
    SkewBraceError,
)

__all__ = [
    "FiniteGroup",
    "GroupMap",
    "GroupPredicates",
    "make_group",
    "cyclic_group",
    "direct_product",
    "cyclic_extension",
    "closure",
    "subgroups",
    "is_subgroup",
    "is_normal",
    "center",
    "element_order",
    "element_orders",
    "quotient_group",
    "conjugacy_class_sizes",
    "derived_subgroup",
    "is_nilpotent_group",
    "is_supersoluble_group",
    "group_predicates",
    "group_isomorphism",
    "automorphism_perms",
    "aut_group",
    "generating_set",
]

# Entries of one lattice: trivial C2^7's 29,212 finish in about 1 s, and
# trivial C2^8 (417,199) is refused after about 2 s.
LATTICE_ENTRY_BOUND = 32768
# |Aut(G)|^2 table entries: 2,048 automorphisms is about 34 MB of table.  The
# search behind `automorphism_perms` stops at the next automorphism, so a
# larger group such as Aut(C2^4) (20,160) or Aut(C2^5) (9,999,360) is refused
# without its full list.
AUT_TABLE_BOUND = 2048


class FiniteGroup:
    """A finite group given by its full multiplication table.

    `cache` is bounded: nine keys, one value each, built once by `_cached`:
    "generating_set", "element_orders" (which `census` reads off the
    holomorph for its braces), "conjugacy_class_sizes", "generator_levels",
    "aut_group", on an acting group `_stabiliser`'s "descending_orders"
    (its elements by descending element order, the candidate generators of
    its subgroups) and "descending_generators" (those kept for all of it),
    and `census`'s "hol_orders" and "root_twists".
    """

    __slots__ = ("order", "table", "inverse", "name", "cache")

    def __init__(self, table: tuple[tuple[int, ...], ...], inverse: tuple[int, ...],
                 name: Optional[str] = None):
        self.order = len(table)
        self.table = table
        self.inverse = inverse
        self.name = name
        self.cache: dict = {}

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        t, gens = self.table, generating_set(self)
        return all(t[a][b] == t[b][a] for a in gens for b in gens)

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"FiniteGroup({label}, order={self.order})"


def _cached(owner, key: str, build):
    """owner.cache[key], a key listed on the owner's class (`FiniteGroup` or
    `braces.SkewBrace`), built by `build()` on the first call."""
    if key not in owner.cache:
        owner.cache[key] = build()
    return owner.cache[key]


def _on_carrier(v: object, n: int) -> bool:
    """Whether v is an element of 0..n-1: an int in range, not a bool."""
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n


def _length(seq: object, *name: object) -> int:
    """len(seq), or NotClosed naming seq by the words of `name` if it has none."""
    try:
        return len(seq)
    except TypeError:
        raise NotClosed(f"{' '.join(map(str, name))} is {seq!r}, which has no length") from None


def _check_closure(table: Sequence[Sequence[int]]) -> None:
    """The table and every row have a length, every row n entries, each
    `_on_carrier`.  A row of exact ints inside the carrier passes by two set
    containments; any other row (bool, an int subclass, an unhashable entry)
    is scanned to name the witness.  The types are tested first, so no
    unhashable entry reaches the set."""
    n = _length(table, "table")
    ints, carrier = {int}, frozenset(range(n))
    for a, row in enumerate(table):
        if _length(row, "row", a) != n:
            raise NotClosed(f"row {a} has length {len(row)}, expected {n}")
        if ints.issuperset(map(type, row)) and carrier.issuperset(row):
            continue
        for b, v in enumerate(row):
            if not _on_carrier(v, n):
                raise NotClosed(f"entry at ({a}, {b}) is {v!r}, outside 0..{n - 1}")


def _identity_of(table: Sequence[Sequence[int]]) -> int:
    """The two-sided identity of a table already proven closed: by
    `_check_closure` in the public constructors, or by the document reader,
    which reads every entry as an int in 0..n-1."""
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    raise NoIdentity("no element acts as a two-sided identity")


def _compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """The map x -> p[q[x]]."""
    return tuple([p[x] for x in q])


def _induced(table: Sequence[Sequence[int]], reps: Sequence[int],
             label) -> tuple[tuple[int, ...], ...]:
    """The table on positions i, j of `reps` with entry label[table[reps[i]][reps[j]]]:
    the one builder of relabelings, quotients and subtables."""
    through = _row_getter(reps)
    return tuple([_row_getter(through(table[a]))(label) for a in reps])


def _relabel(table: Sequence[Sequence[int]], perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Return the table of the same group with element x renamed perm[x]."""
    inv = [0] * len(table)
    for x, px in enumerate(perm):
        inv[px] = x
    return _induced(table, inv, perm)


class _Span:
    """The subgroup generated so far: the orbit of 0 under right
    multiplication by `gens`, kept closed under it.  A new generator g gives
    a subgroup K with g K = K, so the words starting with g reach all of K
    and only the elements found from g on are multiplied by the generators.
    On a table not yet known to be associative the orbit still consists of
    left-nested products of the generators.

    A span may start from a subgroup already found, given by its elements
    and the generators `_Span` kept for it, so extending it costs only the
    new elements.
    """

    __slots__ = ("table", "elems", "inside", "gens")

    def __init__(self, table: Sequence[Sequence[int]], seed: Iterable[int] = (),
                 elems: Sequence[int] = (0,), gens: Sequence[int] = ()):
        self.table = table
        self.elems = list(elems)
        self.inside = set(elems)
        self.gens = list(gens)
        for s in seed:
            if s not in self.inside:
                self.add(s)

    def add(self, g: int, floor: int = 0) -> bool:
        """Keep g (not inside yet) as a generator and close the orbit.

        Stops, leaving the span unusable, and returns False at the first
        new element below `floor`.
        """
        if g < floor:
            return False
        t, elems, inside, gens = self.table, self.elems, self.inside, self.gens
        gens.append(g)
        i = len(elems)
        elems.append(g)
        inside.add(g)
        while i < len(elems):
            row = t[elems[i]]
            i += 1
            for s in gens:
                z = row[s]
                if z not in inside:
                    if z < floor:
                        return False
                    inside.add(z)
                    elems.append(z)
        return True


def _escape(inside: set[int], table: Optional[Sequence[Sequence[int]]] = None,
            maps: Sequence[Sequence[int]] = ()) -> Optional[tuple[int, int]]:
    """None when `inside` (holding 0 if `table` is given) is closed in the
    table and sent into itself by each of `maps`, else the first escape:
    (a, b) with table[a][b] outside, or (k, x) with maps[k][x] outside.
    Closed is a seeded `_Span` that adds nothing, O(|S| log |S|) lookups.
    A map sending a finite set into itself sends it onto itself, so the
    generators of a group of maps stand for it, at |S| lookups a map: the
    conjugations by `generating_set(G)` for Inn(G), a brace's lam_g for
    multiplicative generators g for every lam_b.  Only a failure is scanned."""
    if table is not None and len(_Span(table, inside).elems) > len(inside):
        elems = sorted(inside)
        return next((a, b) for a in elems for b in elems if table[a][b] not in inside)
    for k, m in enumerate(maps):
        if not inside.issuperset(map(m.__getitem__, inside)):
            return k, min(x for x in inside if m[x] not in inside)
    return None


def _conjugation(G: FiniteGroup, g: int) -> tuple[int, ...]:
    """x -> g x g^-1 in G, as a permutation."""
    t, row, g_inv = G.table, G.table[g], G.inverse[g]
    return tuple([t[row[x]][g_inv] for x in G.elements()])


def _normal_fault(G: FiniteGroup, inside: set[int],
                  table: Optional[Sequence[Sequence[int]]]) -> Optional[str]:
    """Why `inside`, holding 0, is not closed in `table` (if given) and normal
    in G, naming the witness; or None."""
    gens = generating_set(G)
    w = _escape(inside, table)
    if w:
        return f"subset not closed: {w[0]}*{w[1]} escapes"
    w = _escape(inside, maps=[_conjugation(G, g) for g in gens])
    return w and f"subset not normal: {gens[w[0]]}*{w[1]}*{gens[w[0]]}^-1 escapes"


def _row_getter(idx: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The map row -> (row[i] for i in idx) in one C call, `itemgetter(*idx)`,
    kept a tuple also when idx has one entry or none."""
    if len(idx) < 2:
        return lambda row: tuple([row[i] for i in idx])
    return itemgetter(*idx)


def _assoc_generators(table: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Associativity proven from a generating set, which is returned: the
    group's `generating_set`, as both span the table the same way.

    The set of elements a with (a*x)*y == a*(x*y) for all x, y contains the
    identity and is closed under products, and every element is a
    left-nested product of the kept generators, so checking it on them
    covers the whole table.  Each row over y is compared whole: (s*x)*. is
    row s*x, and s*(x*.) is row s read through row x.  A carrier of at most
    256 elements is copied once into byte rows, and row s read through row
    x is one `bytearray.translate` of row x, with row s padded to 256 bytes
    as the table.  A byte holds only 0..255 and a translate table has 256
    entries, so a larger carrier composes tuple rows by `_row_getter`.
    Only a pair of rows that differ is scanned, to name the witness, and
    both paths name the same one.
    """
    n = len(table)
    gens = tuple(_Span(table, range(n)).gens)
    if n <= 256:
        # bytearray copies a tuple of ints about twice as fast as bytes.
        rows = list(map(bytearray, table))
        pad = bytes(256 - n)
        for s in gens:
            through_s = rows[s] + pad
            for x, sx in enumerate(rows[s]):
                composed = rows[x].translate(through_s)
                if rows[sx] != composed:
                    raise _assoc_fault(s, x, rows[sx], composed)
        return gens
    through = [_row_getter(row) for row in table]
    for s in gens:
        ts = table[s]
        for x in range(n):
            composed = through[x](ts)
            if table[ts[x]] != composed:
                raise _assoc_fault(s, x, table[ts[x]], composed)
    return gens


def _assoc_fault(s: int, x: int, left: Sequence[int], right: Sequence[int]) -> NonAssociative:
    """The error naming the first y at which row (s*x)*. (left) and row
    s*(x*.) (right) differ."""
    y = next(y for y, (a, b) in enumerate(zip(left, right)) if a != b)
    return NonAssociative(f"({s}*{x})*{y} != {s}*({x}*{y})")


def make_group(table: Sequence[Sequence[int]], name: Optional[str] = None) -> FiniteGroup:
    """Validate a Cayley table and return the group, identity moved to 0."""
    _check_closure(table)
    return _prove_group(table, _identity_of(table), name)


def _prove_group(table: Sequence[Sequence[int]], e: int, name: Optional[str]) -> FiniteGroup:
    """`make_group` on a table proven closed, with identity e.  The
    generators of the associativity proof become the group's cached
    `generating_set`, so the table is spanned once."""
    n = len(table)
    rows = tuple(tuple(row) for row in table)
    if e != 0:
        perm = list(range(n))
        perm[0], perm[e] = e, 0
        rows = _relabel(rows, perm)
    gens = _assoc_generators(rows)
    # Finite and associative with identity 0: ab = 0 gives ba = 0.
    for a, row in enumerate(rows):
        if 0 not in row:
            raise MissingInverse(f"element {a} has no two-sided inverse")
    G = _group(rows, name)
    _cached(G, "generating_set", lambda: gens)
    return G


def _group(rows: tuple[tuple[int, ...], ...], name: Optional[str] = None) -> FiniteGroup:
    """The trusted constructor: a table already known to be a group with
    identity 0, so the inverse of a is the first 0 in row a."""
    return FiniteGroup(rows, tuple(row.index(0) for row in rows), name)


def cyclic_group(n: int) -> FiniteGroup:
    """The cyclic group of order n, written additively mod n."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise SkewBraceError(f"group order must be an int, got {n!r}")
    if n < 1:
        raise NoIdentity(f"cyclic group order must be positive, got {n}")
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    inverse = tuple((-a) % n for a in range(n))
    return FiniteGroup(table, inverse, f"C{n}")


def _twisted(normal: FiniteGroup, acting: FiniteGroup, perms: Sequence[Sequence[int]],
             name: Optional[str]) -> FiniteGroup:
    """The trusted pair table (x, h)(y, k) = (x perms[h](y), hk), pairs
    flattened as index = x * |acting| + h: a group whenever h -> perms[h]
    is a homomorphism into Aut(normal)."""
    nh = acting.order
    through = [_row_getter(p) for p in perms]
    rows = tuple(tuple([u * nh + v for u in through_h(row_x) for v in row_h])
                 for row_x in normal.table for through_h, row_h in zip(through, acting.table))
    return _group(rows, name)


def direct_product(left: FiniteGroup, right: FiniteGroup,
                   name: Optional[str] = None) -> FiniteGroup:
    """Direct product on pairs, flattened as index = left_part * |right| + right_part."""
    label = name or f"{left.name or '?'}x{right.name or '?'}"
    return _twisted(left, right, [range(left.order)] * right.order, label)


def _off_carrier(p: Sequence, n: int) -> Optional[str]:
    """Names the first entry of p that is not `_on_carrier`, or None."""
    for x, v in enumerate(p):
        if not _on_carrier(v, n):
            return f"has entry {v!r} at {x}, not an int in 0..{n - 1}"
    return None


def _automorphism_fault(G: FiniteGroup, p: Sequence[int]) -> Optional[str]:
    """Why p is not an automorphism of G, or None.  The entries are tested
    before any is hashed or used as an index.  The x with p(xy) = p(x)p(y)
    for all y are closed under products, so x runs over `generating_set(G)`;
    a row over y is compared whole, and scanned only to name a witness."""
    n, t = G.order, G.table
    off = _off_carrier(p, n)
    if off or len(p) != n or len(set(p)) != n:
        return off or "is not a bijection"
    through = _row_getter(p)
    for x in generating_set(G):
        row = t[x]
        if _row_getter(row)(p) != through(t[p[x]]):
            y = next(y for y in range(n) if p[row[y]] != t[p[x]][p[y]])
            return f"is not additive at ({x}, {y})"
    return None


def cyclic_extension(normal: FiniteGroup, alpha: Sequence[int], g: int, m: int,
                     name: Optional[str] = None) -> FiniteGroup:
    """The group <N, t> with t x t^-1 = alpha(x) and t^m = g, N = `normal`.

    It exists exactly when alpha is in Aut(N), alpha(g) = g and alpha^m is
    conjugation by g (Hall, The Theory of Groups, 1959, 15.3).  Each is
    proven, the last on generators as both sides are automorphisms, and a
    failure raises ActionNotHomomorphism naming its witness.  x t^i sits at
    x * m + i, and (x t^i)(y t^j) = x alpha^i(y) t^(i+j), with t^m = g.
    """
    n, t = normal.order, normal.table
    if not (isinstance(m, int) and m >= 1 and _on_carrier(g, n)):
        raise ActionNotHomomorphism(f"need an int m >= 1 and g in N, got m = {m!r}, g = {g!r}")
    fault = _automorphism_fault(normal, alpha)
    if fault:
        raise ActionNotHomomorphism(f"alpha {fault}")
    if alpha[g] != g:
        raise ActionNotHomomorphism(f"alpha moves g = {g} to {alpha[g]}")
    powers = [tuple(range(n))]
    while len(powers) <= m:
        powers.append(_compose(alpha, powers[-1]))
    for x in generating_set(normal):
        if powers[m][x] != t[t[g][x]][normal.inverse[g]]:
            raise ActionNotHomomorphism(
                f"alpha^{m} sends {x} to {powers[m][x]}, not to its conjugate by {g}")

    def at(u: int, k: int) -> int:
        """The index of u t^k, 0 <= k < 2m."""
        return u * m + k if k < m else t[u][g] * m + k - m

    rows = tuple(tuple([at(u, i + j) for u in _row_getter(p)(row_x) for j in range(m)])
                 for row_x in t for i, p in enumerate(powers[:m]))
    return _group(rows, name)


def _dihedral(m: int, name: str) -> FiniteGroup:
    """The dihedral group of order 2m: C_m extended by inversion."""
    c = cyclic_group(m)
    return cyclic_extension(c, c.inverse, 0, 2, name)


def closure(G: FiniteGroup, seed: Iterable[int]) -> tuple[int, ...]:
    """The subgroup generated by `seed`, as a sorted element tuple.

    The orbit of 0 under right multiplication by the seed elements that are
    not already inside when reached: O(|seed| + |H| log |H|) for the result H.
    A seed element that is not an int in 0..n-1 raises NotClosed.
    """
    return tuple(sorted(_Span(G.table, _subset(G.order, seed)).elems))


def is_subgroup(G: FiniteGroup, elems: Sequence[int]) -> bool:
    s = _subset(G.order, elems)
    return 0 in s and _escape(s, G.table) is None


def is_normal(G: FiniteGroup, elems: Sequence[int]) -> bool:
    """Whether `elems` is a normal subgroup of G: it holds 0, is closed, and
    is sent into itself by conjugation."""
    s = _subset(G.order, elems)
    return 0 in s and _normal_fault(G, s, G.table) is None


def _agree(spans: Sequence[_Span], floor: int, start: int = 1) -> bool:
    """Grow the spans, which share their first `start` elements, by each other's
    elements until all hold one set; False at the first new one below `floor`."""
    shared = [start] * len(spans)
    while len(spans) > 1 and any(len(span.elems) > k for span, k in zip(spans, shared)):
        for i, span in enumerate(spans):
            new, shared[i] = span.elems[shared[i]:], len(span.elems)
            for other in spans:
                for x in new:
                    if x not in other.inside and not other.add(x, floor):
                        return False
    return True


def _joins(groups: Sequence[FiniteGroup], atoms: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """{0} and every join of the atoms[g], each closed in every table of the
    groups on one carrier, ordered by (size, elements): the one join loop
    behind `subgroups` and `substructure.all_ideals`.  Each atoms[g] must
    generate a join that contains g and lies in every join containing g.

    Each join is reached once, from its parent (reverse search; Avis &
    Fukuda, Discrete Appl. Math. 65, 1996).  A join K != {0} has the greedy
    sequence s_1 < ... < s_r, s_i the least element of K outside the join
    of the atoms of the earlier ones, and K is its parent, the join for
    s_1..s_{r-1}, joined with atoms[s_r].  So a join H with last element s
    is extended only by the g > s that are least in their coset H g of the
    first table, and the extension K is kept only when no element of K
    below g lies outside H; the closures stop at the first such element.
    Each extension closes atoms[g] in a `_Span` of the first table, started
    from H's elements and kept generators; only if that passes are the
    other tables' spans started the same way and brought level by `_agree`:
    O((|K| - |H|) log |K|) lookups per table at most, plus n per H.
    """
    t = groups[0].table
    out = []
    frontier = [((0,), ((),) * len(groups), 0)]
    while frontier:
        base, gens, last = frontier.pop()
        out.append(base)
        if len(out) > LATTICE_ENTRY_BOUND:
            raise OrderBoundExceeded(f"lattice has more than {LATTICE_ENTRY_BOUND} entries")
        done = set(base)
        for g in range(1, len(t)):
            if g in done:
                continue
            done.update([t[h][g] for h in base])
            if g < last:
                continue
            first = _Span(t, elems=base, gens=gens[0])
            if not all(a in first.inside or first.add(a, g) for a in atoms[g]):
                continue
            spans = [first] + [_Span(G.table, elems=base, gens=gk)
                               for G, gk in zip(groups[1:], gens[1:])]
            if _agree(spans, g, len(base)):
                frontier.append((tuple(sorted(first.elems)), [s.gens for s in spans], g))
    return sorted(out, key=lambda s: (len(s), s))


def subgroups(G: FiniteGroup, *others: FiniteGroup) -> list[tuple[int, ...]]:
    """Every subgroup of G that is also one of each group in `others` on G's
    carrier, ordered by (size, elements): joins of the least such ones."""
    for H in others:
        if H.order != G.order:
            raise GroupInvalid(f"one carrier needs one order, got {G.order} and {H.order}")
    return _joins((G, *others), [(g,) for g in G.elements()])


def center(G: FiniteGroup) -> tuple[int, ...]:
    """The elements whose conjugacy class is one element."""
    sizes = conjugacy_class_sizes(G)
    return tuple(a for a in G.elements() if sizes[a] == 1)


def element_order(G: FiniteGroup, a: int) -> int:
    """The order of a, an element of G as `_subset` checks it."""
    (a,) = _subset(G.order, (a,))
    return element_orders(G)[a]


def element_orders(G: FiniteGroup) -> tuple[int, ...]:
    """The order of every element, cached in G.  The powers a, a^2, .., a^m
    = 0 of each element a not reached yet are walked once: a^k has order
    m / gcd(k, m)."""
    def build() -> tuple[int, ...]:
        t = G.table
        orders = [0] * G.order
        for a in G.elements():
            if not orders[a]:
                powers = [a]
                while powers[-1]:
                    powers.append(t[powers[-1]][a])
                for k, x in enumerate(powers, 1):
                    orders[x] = len(powers) // gcd(k, len(powers))
        return tuple(orders)

    return _cached(G, "element_orders", build)


def _orbits(points, moves) -> dict:
    """The Schreier tree of the orbits meeting `points` (Holt, Eick &
    O'Brien, 2005, 4.1): each orbit closed breadth first from the first
    point not yet reached, through members outside `points` too, under
    moves(x), the (label, y) pairs of the moves of x.  Each reached member
    maps to the (parent, label) that first reached it, or to None for a
    root, in the order reached."""
    tree: dict = {}
    for p in points:
        if p not in tree:
            tree[p] = None
            orbit = [p]
            for x in orbit:
                for label, y in moves(x):
                    if y not in tree:
                        tree[y] = (x, label)
                        orbit.append(y)
    return tree


def _stabiliser(G: FiniteGroup, fixes=None) -> list[int]:
    """Generators of the subgroup of the elements t of G with fixes(t), or
    of all of G if fixes is None, kept by `_Span` from the candidates in
    descending element order, ties by index: an element of large order
    reaches much of the group at once, so Aut(C2xC2xC2) = GL(3,2) gets 2
    generators where ascending index keeps 5.  Only the subgroup generated
    matters to the orbits and class roots read off these generators.  The
    candidate order and the generators of all of G are cached in G."""
    candidates = _cached(G, "descending_orders", lambda: tuple(sorted(
        G.elements(), key=lambda t: (-element_orders(G)[t], t))))
    if fixes is None:
        return list(_cached(G, "descending_generators",
                            lambda: tuple(_Span(G.table, candidates).gens)))
    return _Span(G.table, filter(fixes, candidates)).gens


def _class_roots(G: FiniteGroup, gens) -> tuple[list[int], list[int]]:
    """For each element x of G, the least element of its class
    x ~ t x t^-1 under the subgroup the elements `gens` generate, and an
    element kappa with kappa x kappa^-1 that least element.

    Read off the `_orbits` tree of conjugation by the generators, whose
    roots are the least members: y = g x g^-1 gets kappa_x g^-1, as
    kappa_x g^-1 y g kappa_x^-1 = kappa_x x kappa_x^-1.
    """
    t, inv = G.table, G.inverse
    root, canon = [0] * G.order, [0] * G.order
    tree = _orbits(G.elements(), lambda x: [(g, t[t[g][x]][inv[g]]) for g in gens])
    for y, edge in tree.items():
        if edge is None:
            root[y] = y
        else:
            x, g = edge
            root[y], canon[y] = root[x], t[canon[x]][inv[g]]
    return root, canon


def conjugacy_class_sizes(G: FiniteGroup) -> tuple[int, ...]:
    """Size of the conjugacy class of each element, indexed by element:
    the classes are the `_class_roots` of G under its `generating_set`,
    O(n |S|) lookups.  Cached in G."""
    def build() -> tuple[int, ...]:
        root = _class_roots(G, generating_set(G))[0]
        sizes = [0] * G.order
        for r in root:
            sizes[r] += 1
        return tuple([sizes[r] for r in root])

    return _cached(G, "conjugacy_class_sizes", build)


def derived_subgroup(G: FiniteGroup) -> tuple[int, ...]:
    t, inv, carrier = G.table, G.inverse, G.elements()
    return closure(G, {t[t[inv[a]][inv[b]]][t[a][b]] for a in carrier for b in carrier})


def _subset(n: int, elements: Iterable[int]) -> set[int]:
    """A caller's subset of the carrier 0..n-1 as a set; an element that is
    not `_on_carrier` raises NotClosed, naming it."""
    inside = list(elements)
    for x in inside:
        if not _on_carrier(x, n):
            raise NotClosed(f"subset element {x!r} is not an int in 0..{n - 1}")
    return set(inside)


def quotient_group(G: FiniteGroup, normal_elems: Sequence[int],
                   name: Optional[str] = None) -> tuple[FiniteGroup, list[int]]:
    """Quotient by a normal subgroup; returns the group and the coset index map.

    The subset is proven a normal subgroup by `_escape`, naming an escaping
    product or conjugate otherwise, so the table on the cosets g N is a group.
    """
    inside = _subset(G.order, normal_elems)
    if 0 not in inside:
        raise GroupInvalid("a normal subgroup must contain 0")
    fault = _normal_fault(G, inside, G.table)
    if fault:
        raise GroupInvalid(fault)
    coset_of, reps = _cosets(G, inside)
    return _group(_induced(G.table, reps, coset_of), name), coset_of


def _cosets(G: FiniteGroup, normal: Iterable[int]) -> tuple[list[int], list[int]]:
    """The coset index of each element and the least element of each coset
    g N of a normal subgroup N, which is trusted.

    Cosets are numbered in the order of their least elements.
    """
    t = G.table
    coset_of = [-1] * G.order
    reps: list[int] = []
    for g in G.elements():
        if coset_of[g] < 0:
            for h in normal:
                coset_of[t[g][h]] = len(reps)
            reps.append(g)
    return coset_of, reps


def _prime_steps(G: FiniteGroup, maps: Sequence[Sequence[int]],
                 base: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Each J = base + <x> with |J/base| prime that every map sends into
    itself, as a sorted tuple: the one prime step of every climb, with no
    lattice.  `base` is normal in G and invariant; the maps are conjugations
    of G, or for a brace on (G, +) its `_ideal_maps`.  x suffices:
    - J/base has prime order, so x generates J modulo base under both
      operations (under o once the lambda maps pass: J is a subbrace);
    - base is already invariant, so each map needs checking on x only.
    Every coset in J outside base generates J modulo base too, so the
    cosets inside a factor of prime order found before are skipped.
    """
    t = G.table
    coset_of, reps = _cosets(G, base)
    primes = _primes_of(len(reps))  # the order of a factor divides |G/base|
    found: set[int] = set()
    for x in reps[1:]:
        if coset_of[x] in found:
            continue
        cyclic, y = {0}, x
        while coset_of[y]:
            cyclic.add(coset_of[y])
            y = t[y][x]
        if len(cyclic) in primes:
            found |= cyclic
            if all(coset_of[f[x]] in cyclic for f in maps):
                yield tuple(sorted([t[reps[c]][h] for c in cyclic for h in base]))


def _ascending_series(owner, step) -> list[tuple[int, ...]]:
    """Terms from {0}, each next one `step(N)`, a subgroup of the group or
    brace `owner` that contains the last term N, until all of it or a step
    that does not grow.  A step that works modulo N indexes the cosets of
    N itself; the others never pay."""
    terms = [(0,)]
    while len(terms[-1]) < owner.order:
        grown = step(terms[-1])
        if len(grown) == len(terms[-1]):
            break
        terms.append(grown)
    return terms


def _primes_of(n: int) -> tuple[int, ...]:
    ps = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            ps.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        ps.append(n)
    return tuple(ps)


def _is_prime(n: int) -> bool:
    return _primes_of(n) == (n,)


def _nilpotent(orders: Sequence[int], elems: Sequence[int]) -> bool:
    """Whether the subgroup H = `elems`, with element orders `orders`, has
    exactly |H|_p elements of order dividing |H|_p for each prime p.  A
    finite group is nilpotent exactly when its Sylow subgroups are normal,
    and every p-element lies in a Sylow p-subgroup, which holds |H|_p of
    them: so there are |H|_p exactly when that subgroup is unique."""
    n, orders = len(elems), [orders[x] for x in elems]
    for p in _primes_of(n):
        part = p
        while n % (part * p) == 0:
            part *= p
        if sum(part % k == 0 for k in orders) != part:
            return False
    return True


def is_nilpotent_group(G: FiniteGroup) -> bool:
    """Whether G is nilpotent, read off its element orders by `_nilpotent`."""
    return _nilpotent(element_orders(G), G.elements())


def is_supersoluble_group(G: FiniteGroup) -> bool:
    """Whether some chain of normal subgroups climbs from 1 to G by prime
    steps: the `_prime_steps` climb under conjugation by the generators of
    G, taking the first step found.  Any step may be taken, as a quotient
    of a supersoluble group is supersoluble and, if nontrivial, has a
    normal subgroup of prime order."""
    maps = [_conjugation(G, g) for g in generating_set(G)]
    return len(_ascending_series(G, lambda N: next(_prime_steps(G, maps, N), N))[-1]) == G.order


class GroupPredicates(NamedTuple):
    order: int
    abelian: bool
    nilpotent: bool
    supersoluble: bool
    element_orders: tuple[int, ...]
    primes: tuple[int, ...]


def group_predicates(G: FiniteGroup) -> GroupPredicates:
    """The class predicates of G.  A nilpotent G is supersoluble with no climb:
    its upper central series refines to a normal series of prime factors."""
    nilpotent = is_nilpotent_group(G)
    return GroupPredicates(
        order=G.order,
        abelian=G.is_abelian(),
        nilpotent=nilpotent,
        supersoluble=nilpotent or is_supersoluble_group(G),
        element_orders=tuple(sorted(element_orders(G))),
        primes=_primes_of(G.order),
    )


class GroupMap(NamedTuple):
    """A map between groups recorded by the image of every element."""

    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.images[a]

    def is_bijective(self) -> bool:
        return sorted(self.images) == list(range(self.target.order))

    def is_homomorphism(self) -> bool:
        ts, tt, im, n = self.source.table, self.target.table, self.images, len(self.images)
        return all(im[ts[a][b]] == tt[im[a]][im[b]] for a in range(n) for b in range(n))


def generating_set(G: FiniteGroup) -> list[int]:
    """A small generating set, grown greedily by ascending element index.

    Each element not yet reached by the earlier ones is kept, so every kept
    generator at least doubles the subgroup reached.  Cached in G; returns
    a new list.
    """
    return list(_cached(G, "generating_set", lambda: tuple(_Span(G.table, G.elements()).gens)))


def _generator_levels(G: FiniteGroup) -> tuple:
    """One level per generator g_k of `generating_set(G)`, cached in G: the
    pairs on which `_walk` proves its identity.

    A level is (g_k, its order, pairs).  `_Span` is replayed over the
    generating set, and level k's pairs are the (x, g, xg) for each x that
    adding g_k appends, in its order, and each g of g_1..g_k.  So up to
    level k each (x, g) with x new at a level j <= k and g among g_1..g_j
    is listed once, after x is reached.
    """
    def build() -> tuple:
        t, orders, span, levels = G.table, element_orders(G), _Span(G.table), []
        for g_k in generating_set(G):
            mark = len(span.elems)
            span.add(g_k)
            pairs = tuple([(x, g, t[x][g]) for x in span.elems[mark:] for g in span.gens])
            levels.append((g_k, orders[g_k], pairs))
        return tuple(levels)

    return _cached(G, "generator_levels", build)


def _walk(levels, target: FiniteGroup, acts, candidates, injective: bool, limit: float,
          others=()) -> list[tuple[int, ...]]:
    """The first `limit` maps f from the group of `levels` to `target` with
    f(xg) = f(x) acts[x](f(g)), injective if asked, in the order of their
    generator images in `candidates`; acts[x] is a permutation of the target.

    The one map search (Holt, Eick & O'Brien, 2005, ch. 4).  The image of
    g_k comes from candidates[k], and each pair (x, g, y) of levels[k] sets
    f(y) or checks it.  If acts is a homomorphism into Aut(target), the
    pairs (x, u) form a group under (x, u)(y, v) = (xy, u acts[x](v)), and
    the identity at (x, g) says (x, f(x))(g, f(g)) = (xg, f(xg)).  Level k's
    pairs are the `_Span` closure of the placed (g_i, f(g_i)) from
    (g_k, f(g_k)), keyed by the source element, so a level that passes with
    no clash proves that f's graph on H_k is a subgroup: the identity on
    H_k, at O(|H_k| k) lookups instead of O(|H_k|^2).  With identity acts
    the f are the homomorphisms.

    Each (ug, uh, gens) of `others` is a second pair of group tables on the
    same carriers (a brace's multiplicative ones) and a generating set of
    ug, on which f is closed as a homomorphism over each pair (x, h) of
    known elements with h in gens, as the later of x and h becomes known.
    An element they reach may be a generator not placed yet: it has no
    choice of image.  At a leaf, where every element is known, that proves
    f a homomorphism from ug to uh: the h with f(xh) = f(x) f(h) for every
    x are closed under products, as f(x h h') = f(xh) f(h') =
    f(x) f(h) f(h') = f(x) f(hh'), and so, in a finite group, they hold the
    subgroup gens generate.
    """
    f = [-1] * len(acts)
    f[0] = 0
    back = [-1] * target.order  # back[w]: the element mapped to w, read if injective
    back[0] = 0
    known = [0]
    same = [tuple(range(target.order))] * len(acts) if others else None
    out: list[tuple[int, ...]] = []

    def close(pairs, table, twist) -> bool:
        """Set or check f(y) = f(x) twist[x](f(g)) in `table` for each pair
        (x, g, y); False at the first clash."""
        for x, g, y in pairs:
            w = table[f[x]][twist[x][f[g]]]
            fy = f[y]
            if fy < 0:
                if injective and back[w] >= 0:
                    return False
                f[y] = w
                back[w] = y
                known.append(y)
            elif fy != w:
                return False
        return True

    def close_others(mark: int) -> bool:
        """Close f in the other tables over each pair (x, h) of known
        elements, h in gens, with x or h known from position mark on: a
        pair is closed when its later element is reached, and may be
        closed again when its earlier one is."""
        i = mark
        while others and i < len(known):
            x = known[i]
            for ug, uh, gens in others:
                ugx = ug[x]
                pairs = [(x, h, ugx[h]) for h in gens if f[h] >= 0]
                if x in gens:
                    pairs += [(y, x, ug[y][x]) for y in known[:i]]
                if not close(pairs, uh, same):
                    return False
            i += 1
        return True

    def extend(k: int) -> bool:
        if k == len(levels):
            out.append(tuple(f))
            return len(out) == limit
        g_k, _order, pairs = levels[k]
        mark = len(known)
        forced = f[g_k] >= 0
        for v in (f[g_k],) if forced else candidates[k]:
            if not forced:
                if injective and back[v] >= 0:
                    continue
                f[g_k] = v
                back[v] = g_k
                known.append(g_k)
            if close(pairs, target.table, acts) and close_others(mark) and extend(k + 1):
                return True
            for x in known[mark:]:
                back[f[x]] = -1
                f[x] = -1
            del known[mark:]
        return False

    extend(0)
    # Drop the cycle extend -> its cell -> extend, so the walk's lists are
    # freed now rather than left to the cyclic collector: the oracle walks
    # once per action.
    extend = None
    return out


def _map_search(sources: Sequence[FiniteGroup], targets: Sequence[FiniteGroup],
                limit: float) -> list[tuple[int, ...]]:
    """Bijections carrying each source table onto its target table: the
    first `limit` of them, in the lex order of their generator images.

    `_walk` with identity acts over the first tables, closing the others
    over the pairs whose right factor is in their `generating_set`.  An
    element maps only to one with the same (element order, conjugacy class
    size) in every table of its side; the sorted element orders of the
    first tables, the cheapest of these tests, are compared first.
    """
    n = sources[0].order
    if sorted(element_orders(sources[0])) != sorted(element_orders(targets[0])):
        return []
    inv_g, inv_h = (list(zip(*(zip(element_orders(G), conjugacy_class_sizes(G)) for G in side)))
                    for side in (sources, targets))
    if sorted(inv_g) != sorted(inv_h):
        return []
    levels = _generator_levels(sources[0])
    candidates = [[h for h in range(n) if inv_h[h] == inv_g[g]] for g, *_ in levels]
    others = [(G.table, H.table, generating_set(G)) for G, H in zip(sources[1:], targets[1:])]
    return _walk(levels, targets[0], [tuple(range(n))] * n, candidates, True, limit, others)


def group_isomorphism(G: FiniteGroup, H: FiniteGroup) -> Optional[GroupMap]:
    """An isomorphism G -> H, or None when the groups are not isomorphic."""
    found = _map_search((G,), (H,), 1)
    if not found:
        return None
    return GroupMap(G, H, found[0])


def automorphism_perms(G: FiniteGroup) -> list[tuple[int, ...]]:
    """All automorphisms as element permutations in lex order, so identity first.

    The search stops at automorphism AUT_TABLE_BOUND + 1, so a larger
    Aut(G) is refused before its list is complete.
    """
    found = _map_search((G,), (G,), AUT_TABLE_BOUND + 1)
    if len(found) > AUT_TABLE_BOUND:
        raise OrderBoundExceeded(
            f"{G.name or 'the group'} has more than {AUT_TABLE_BOUND} automorphisms, "
            f"the Aut table bound")
    return sorted(found)


def aut_group(G: FiniteGroup) -> tuple[FiniteGroup, list[tuple[int, ...]]]:
    """The automorphism group under composition, with its permutation list.

    An automorphism is fixed by its images of the generators g_1..g_k of
    `generating_set(G)`, so the row of p (the index of p . q for every q)
    can be looked up by the images p(q(g)), through one C-level getter per
    automorphism q.  That is done only for the automorphisms kept by
    `_Span`'s rule in index order: one is kept when the `_orbits` tree of
    left multiplication by the rows kept so far has not reached it from
    the identity, and the tree is then rebuilt.  Each kept row at least
    doubles the subgroup reached, so at most floor(log2 |Aut|) + 1 rows are
    looked up, and once every automorphism is reached the kept ones generate
    Aut(G); they become its cached `generating_set`.  Every other row is
    composed along the final tree: row[s . e] is row[e] read through
    row[s].  The list is `automorphism_perms`, so it is bounded.  Both are
    cached in G while G lives, at most about 34 MB at the bound; each call
    checks the bound again and returns the shared aut and a new list.
    """
    def build() -> tuple[FiniteGroup, tuple[tuple[int, ...], ...]]:
        perms = automorphism_perms(G)
        images = list(map(_row_getter(generating_set(G)), perms))
        index = {im: i for i, im in enumerate(images)}
        through = list(map(_row_getter, images))
        kept: list[int] = []
        kept_rows: list[tuple[int, ...]] = []
        tree: dict = {0: None}
        for s in range(len(perms)):
            if s not in tree:
                kept.append(s)
                kept_rows.append(tuple([index[get(perms[s])] for get in through]))
                tree = _orbits((0,), lambda e: [(row_s, row_s[e]) for row_s in kept_rows])
        rows: list = [None] * len(perms)
        for y, edge in tree.items():
            rows[y] = _row_getter(rows[edge[0]])(edge[1]) if edge else tuple(range(len(perms)))
        aut = _group(tuple(rows), f"Aut({G.name or '?'})")
        _cached(aut, "generating_set", lambda: tuple(kept))
        return aut, tuple(perms)

    aut, perms = _cached(G, "aut_group", build)
    if len(perms) > AUT_TABLE_BOUND:
        automorphism_perms(G)  # raises: G has more automorphisms than the bound
    return aut, list(perms)
