"""Subset classification and the subbrace/ideal lattices of a finite brace.

Subsets are sorted element tuples.  A subbrace is closed under both
operations; a left ideal is additionally invariant under every lambda map;
a strong left ideal is also normal in the additive group; an ideal is also
normal in the multiplicative group.  The flags are proven on generators by
`groups._escape`: two spans that add nothing, then invariance under the
lam_g, under the maps of `ideal_generated`, and only for a left ideal that
is not an ideal under the additive conjugations.

Both lattices come from the one join loop `groups._joins`, and both are
refused past `groups.LATTICE_ENTRY_BOUND` entries: the subbraces are the
common subgroups of the additive and the multiplicative table, each join
closed in both, and the ideals are the joins of the principal ideals, or
the subbraces that are ideals when the subbrace lattice is built already.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, NamedTuple, Sequence

from .braces import SkewBrace
from .errors import MissingZero, NotAnIdeal
from .groups import (_agree, _cached, _conjugation, _escape, _Span, _joins, _subset,
                     generating_set, subgroups)

__all__ = [
    "SubStructure",
    "classify_subset",
    "subbrace_generated",
    "ideal_generated",
    "all_subbraces",
    "all_ideals",
    "minimal_ideals",
    "maximal_subbraces",
    "frattini",
    "brace_core",
    "index",
]


class SubStructure(NamedTuple):
    """A subset of a brace together with its classification flags."""

    elements: tuple[int, ...]
    is_subbrace: bool
    is_left_ideal: bool
    is_strong_left_ideal: bool
    is_ideal: bool

    @property
    def order(self) -> int:
        return len(self.elements)


def classify_subset(B: SkewBrace, subset: Iterable[int]) -> SubStructure:
    """Compute all four structure flags for a subset containing 0."""
    inside = _subset(B.order, subset)
    if 0 not in inside:
        raise MissingZero("classification requires a subset containing 0")
    elems = tuple(sorted(inside))
    if _escape(inside, B.add_group.table) or _escape(inside, B.mul_group.table):
        return SubStructure(elems, False, False, False, False)
    is_left = not _escape(inside, maps=[B.lam_table[g] for g in generating_set(B.mul_group)])
    is_ideal = is_left and not _escape(inside, maps=_ideal_maps(B))
    is_strong = is_ideal or is_left and not _escape(inside, maps=[
        _conjugation(B.add_group, a) for a in generating_set(B.add_group)])
    return SubStructure(elems, True, is_left, is_strong, is_ideal)


def subbrace_generated(B: SkewBrace, seed: Iterable[int]) -> tuple[int, ...]:
    """The least subset containing the seed closed under both operations: one
    `_Span` per table, grown by `groups._agree` until both hold one set."""
    inside = _subset(B.order, seed)
    spans = [_Span(G.table, inside) for G in (B.add_group, B.mul_group)]
    _agree(spans, 0)
    return tuple(sorted(spans[0].elems))


def ideal_generated(B: SkewBrace, seed: Iterable[int]) -> tuple[int, ...]:
    """The least ideal containing the seed.

    Sums come from the orbit kernel over the additive table, grown by every
    image that falls outside under the maps of `_ideal_maps`.  That is
    exact: as `groups._escape` proves, invariance under the lam_g and the
    conjugations by generators is invariance under every lam_b and in both
    groups, and products come for free from ab = a + lam_a(b).  The ideal I
    costs O(|I| log n) lookups plus O(n log n) to tabulate the maps once.
    """
    return tuple(sorted(_ideal_closure(B, _subset(B.order, seed), _ideal_maps(B)).elems))


def _ideal_maps(B: SkewBrace) -> tuple[tuple[int, ...], ...]:
    """The maps of `ideal_generated` as permutations, without repeats or the
    identity, cached in B: lam_g and g x g^-1 for g in a generating set of
    the multiplicative group, and a + x - a for a in one of the additive
    group."""
    def build() -> tuple[tuple[int, ...], ...]:
        maps = [m for g in generating_set(B.mul_group)
                for m in (B.lam_table[g], _conjugation(B.mul_group, g))]
        maps.extend(_conjugation(B.add_group, a) for a in generating_set(B.add_group))
        identity = tuple(B.elements())
        return tuple(m for m in dict.fromkeys(maps) if m != identity)

    return _cached(B, "ideal_maps", build)


def _ideal_closure(B: SkewBrace, seed: Iterable[int], maps: Sequence[Sequence[int]]) -> _Span:
    """The least additive subgroup containing the seed that the maps send
    into itself, as the `_Span` that closed it: its elements and the
    generators it kept."""
    span = _Span(B.add_group.table, seed)
    elems, inside = span.elems, span.inside
    for x in elems:
        for m in maps:
            z = m[x]
            if z not in inside:
                span.add(z)
    return span


def all_subbraces(B: SkewBrace) -> list[tuple[int, ...]]:
    """Every subbrace, ordered by (size, elements): the common subgroups of both groups."""
    return list(_cached(B, "subbraces", lambda: subgroups(B.add_group, B.mul_group)))


def all_ideals(B: SkewBrace) -> list[tuple[int, ...]]:
    """Every ideal, as sorted tuples ordered by (size, elements).

    Once B holds its subbrace lattice, these are the subbraces that the maps
    of `ideal_generated` send into themselves, |S| lookups a map: every ideal
    is a subbrace, and `groups._escape` proves such a subbrace an ideal.
    Else every ideal is the join of the principal ideals P_x of its elements,
    and a join of ideals is the additive subgroup their sum generates: so the
    lattice is `groups._joins` of the additive group with atoms[x] the
    generators the closure of P_x kept, O(|P_x| log n) lookups each.
    """
    maps, subs = _ideal_maps(B), B.cache.get("subbraces")
    return list(_cached(B, "ideals", lambda: _joins((B.add_group,), [
        _ideal_closure(B, (x,), maps).gens for x in B.elements()]) if subs is None
        else [s for s in subs if not _escape(set(s), maps=maps)]))


def _covers(B: SkewBrace, base: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The ideals minimal over the ideal `base`, ordered by (size, elements):
    the preimages of the minimal ideals of B/base.  A smaller ideal above
    `base` comes first in the lattice's order, so one pass finds them."""
    below = set(base)
    covers: list[tuple[int, ...]] = []
    for cand in all_ideals(B):
        cset = set(cand)
        if len(cand) > len(base) and below <= cset and not any(map(cset.issuperset, covers)):
            covers.append(cand)
    return covers


def minimal_ideals(B: SkewBrace) -> list[tuple[int, ...]]:
    """The minimal nonzero ideals."""
    return _covers(B, (0,))


def maximal_subbraces(B: SkewBrace) -> list[tuple[int, ...]]:
    """The maximal proper subbraces, ordered by (size, elements).

    Scanned from the largest: a proper subbrace inside another one lies in
    a maximal one, which is larger and so already found.
    """
    found: list[set[int]] = []
    result = []
    for cand in reversed(all_subbraces(B)):
        if len(cand) < B.order and not any(m.issuperset(cand) for m in found):
            found.append(set(cand))
            result.append(cand)
    return result[::-1]


def frattini(B: SkewBrace) -> SubStructure:
    """The intersection of all maximal subbraces, with its computed flags.

    No structural level is assumed for the result; the returned flags say
    what it actually is inside this brace.
    """
    return classify_subset(B, set(B.elements()).intersection(*maximal_subbraces(B)))


def brace_core(B: SkewBrace, subset: Sequence[int]) -> tuple[int, ...]:
    """The largest ideal of B contained in the given subbrace: one pass of
    set lookups over the ideals no larger than it, which the lattice's
    (size, elements) order puts first."""
    inside = _subset(B.order, subset)
    if 0 not in inside:
        raise MissingZero("the core is taken inside a subbrace containing 0")
    ideals = all_ideals(B)
    contained = list(filter(inside.issuperset,
                            ideals[:bisect_right(ideals, len(inside), key=len)]))
    best = max(contained, key=len)
    if not all(map(set(best).issuperset, contained)):
        raise NotAnIdeal("ideals inside the subset have no common largest member")
    return best


def index(B: SkewBrace, subset: Sequence[int]) -> int:
    """The index of a subbrace in B."""
    k = len(_subset(B.order, subset))
    if k == 0 or B.order % k != 0:
        raise NotAnIdeal(f"subset size {k} does not divide the order {B.order}")
    return B.order // k
