"""Subset classification and the subbrace/ideal lattices of a finite brace.

Subsets are sorted element tuples.  A subbrace is closed under both
operations; a left ideal is additionally invariant under every lambda map;
a strong left ideal is also normal in the additive group; an ideal is also
normal in the multiplicative group.  The flags are computed independently,
so the containment hierarchy between them is a checkable fact rather than
an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .braces import SkewBrace
from .errors import MissingZero, NotAnIdeal
from .groups import _Span, closure, subgroups

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


@dataclass(frozen=True)
class SubStructure:
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
    elems = tuple(sorted(set(subset)))
    if not elems or elems[0] != 0:
        raise MissingZero("classification requires a subset containing 0")
    inside = set(elems)
    ta, tm, lam = B.add_group.table, B.mul_group.table, B.lam_table
    neg, inv = B.add_group.inverse, B.mul_group.inverse

    closed_add = all(ta[a][b] in inside for a in elems for b in elems)
    closed_mul = all(tm[a][b] in inside for a in elems for b in elems)
    lam_invariant = all(lam[b][s] in inside for b in B.elements() for s in elems)
    add_normal = all(ta[ta[b][s]][neg[b]] in inside
                     for b in B.elements() for s in elems)
    mul_normal = all(tm[tm[b][s]][inv[b]] in inside
                     for b in B.elements() for s in elems)

    is_subbrace = closed_add and closed_mul
    is_left = closed_add and lam_invariant and closed_mul
    is_strong = is_left and add_normal
    is_ideal = is_strong and mul_normal
    return SubStructure(elems, is_subbrace, is_left, is_strong, is_ideal)


def subbrace_generated(B: SkewBrace, seed: Iterable[int]) -> tuple[int, ...]:
    """The least subset containing the seed closed under both operations.

    Alternates the orbit kernel over the additive and the multiplicative
    table; every round that does not stop at least doubles the set, so at
    most log2 |B| rounds of two closures each.
    """
    elems = tuple(seed)
    while True:
        span = closure(B.add_group, elems)
        elems = closure(B.mul_group, span)
        if len(elems) == len(span):
            return span


def ideal_generated(B: SkewBrace, seed: Iterable[int]) -> tuple[int, ...]:
    """The least ideal containing the seed.

    Closing under sums, every lambda image, and both kinds of conjugation
    suffices: multiplicative products then come for free from
    ab = a + lam_a(b).  Sums come from the orbit kernel over the additive
    table, grown by every image that falls outside; each element reached
    is mapped once by all 3n maps, so the ideal I costs
    O(n |I| + |I| log |I|) lookups.
    """
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


def all_subbraces(B: SkewBrace) -> list[tuple[int, ...]]:
    """Every subbrace, as sorted tuples ordered by (size, elements)."""
    if "subbraces" not in B.cache:
        tm = B.mul_group.table
        found = []
        for sub in subgroups(B.add_group):
            inside = set(sub)
            if all(tm[a][b] in inside for a in sub for b in sub):
                found.append(sub)
        B.cache["subbraces"] = found
    return list(B.cache["subbraces"])


def all_ideals(B: SkewBrace) -> list[tuple[int, ...]]:
    """Every ideal, as sorted tuples ordered by (size, elements).

    Every ideal is the join of the principal ideals of its elements, and the
    join of ideals I and J is the additive subgroup generated by I + J.  So
    the lattice is the join-closure of the n principal ideals: n
    `ideal_generated` calls, then one `closure` per found ideal I and
    distinct principal ideal whose generator lies outside I.
    """
    if "ideals" not in B.cache:
        add = B.add_group
        principal: dict[tuple[int, ...], int] = {}
        for x in B.elements():
            principal.setdefault(ideal_generated(B, (x,)), x)
        found = set(principal)
        frontier = list(found)
        while frontier:
            base = frontier.pop()
            inside = set(base)
            for ideal, x in principal.items():
                if x in inside:
                    continue
                joined = closure(add, base + ideal)
                if joined not in found:
                    found.add(joined)
                    frontier.append(joined)
        B.cache["ideals"] = sorted(found, key=lambda s: (len(s), s))
    return list(B.cache["ideals"])


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
    """The maximal proper subbraces."""
    proper = [s for s in all_subbraces(B) if len(s) < B.order]
    result = []
    for cand in proper:
        cset = set(cand)
        if not any(cset < set(other) for other in proper if other != cand):
            result.append(cand)
    return result


def frattini(B: SkewBrace) -> SubStructure:
    """The intersection of all maximal subbraces, with its computed flags.

    No structural level is assumed for the result; the returned flags say
    what it actually is inside this brace.
    """
    maxes = maximal_subbraces(B)
    if not maxes:
        return classify_subset(B, range(B.order))
    common = set(maxes[0])
    for other in maxes[1:]:
        common &= set(other)
    return classify_subset(B, common)


def brace_core(B: SkewBrace, subset: Sequence[int]) -> tuple[int, ...]:
    """The largest ideal of B contained in the given subbrace."""
    inside = set(subset)
    if 0 not in inside:
        raise MissingZero("the core is taken inside a subbrace containing 0")
    best: tuple[int, ...] = (0,)
    contained = [i for i in all_ideals(B) if set(i) <= inside]
    for cand in contained:
        if len(cand) > len(best):
            best = cand
    for cand in contained:
        if not set(cand) <= set(best):
            raise NotAnIdeal("ideals inside the subset have no common largest member")
    return best


def index(B: SkewBrace, subset: Sequence[int]) -> int:
    """The index of a subbrace in B."""
    k = len(set(subset))
    if k == 0 or B.order % k != 0:
        raise NotAnIdeal(f"subset size {k} does not divide the order {B.order}")
    return B.order // k
