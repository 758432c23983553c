"""Ideal series of a finite brace: socle, central, derived, chief.

Ascending series climb from {0} through preimages of structure computed in
successive quotients; descending series shrink through additively generated
star and commutator subgroups.  Every term handed back in an IdealChain is
revalidated as an ideal of the parent brace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .braces import SkewBrace, quotient_brace, sub_brace
from .errors import NotAnIdeal
from .groups import _is_prime, closure
from .substructure import all_ideals, brace_core, classify_subset

__all__ = [
    "FactorInfo",
    "IdealChain",
    "ideal_chain",
    "additive_closure",
    "socle",
    "zeta",
    "socle_series",
    "multipermutation_level",
    "upper_central_series",
    "is_centrally_nilpotent",
    "lower_central_series",
    "left_series",
    "right_series",
    "is_left_nilpotent",
    "is_right_nilpotent",
    "derived_ideal",
    "b_central_series",
    "is_b_centrally_nilpotent",
    "fitting",
    "chief_series",
    "chief_factors",
    "is_soluble",
]


@dataclass(frozen=True)
class FactorInfo:
    """What one step of an ideal chain looks like in its quotient."""

    order: int
    is_prime_order: bool


@dataclass(frozen=True)
class IdealChain:
    """A strictly monotone chain of ideals of one parent brace."""

    parent: SkewBrace
    terms: tuple[tuple[int, ...], ...]
    factors: tuple[FactorInfo, ...]
    ascending: bool

    def orders(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self.terms)

    def factor_orders(self) -> tuple[int, ...]:
        return tuple(f.order for f in self.factors)


def quotient_with_map(B: SkewBrace, term: tuple[int, ...]) -> tuple[SkewBrace, list[int]]:
    """Quotient by an ideal, cached per term."""
    key = ("quotient", term)
    if key not in B.cache:
        B.cache[key] = quotient_brace(B, term)
    return B.cache[key]


def preimage(proj: Sequence[int], subset: Iterable[int]) -> tuple[int, ...]:
    wanted = set(subset)
    return tuple(x for x, c in enumerate(proj) if c in wanted)


def ideal_chain(B: SkewBrace, terms: Sequence[tuple[int, ...]]) -> IdealChain:
    """Validate chain terms as ideals and record the order of each step."""
    if not terms:
        raise NotAnIdeal("a chain needs at least one term")
    sets = [set(t) for t in terms]
    ascending = True
    for a, b in zip(sets, sets[1:]):
        if a < b:
            continue
        ascending = False
        break
    if not ascending:
        for a, b in zip(sets, sets[1:]):
            if not b < a:
                raise NotAnIdeal("chain terms are not strictly monotone")
    for t in terms:
        flags = classify_subset(B, t)
        if not flags.is_ideal:
            raise NotAnIdeal(f"chain term of size {len(t)} is not an ideal")
    factors = []
    for lower, upper in zip(terms, terms[1:]):
        if not ascending:
            lower, upper = upper, lower
        step = len(upper) // len(lower)
        factors.append(FactorInfo(order=step, is_prime_order=_is_prime(step)))
    return IdealChain(B, tuple(terms), tuple(factors), ascending)


def additive_closure(B: SkewBrace, values: Iterable[int]) -> tuple[int, ...]:
    """The additive subgroup generated by the given elements."""
    return closure(B.add_group, values)


def socle(B: SkewBrace) -> tuple[int, ...]:
    """Elements with identity lambda map lying in the additive center."""
    n = B.order
    ta = B.add_group.table
    ident = tuple(range(n))
    out = tuple(
        a for a in range(n)
        if B.lam_table[a] == ident and all(ta[a][b] == ta[b][a] for b in range(n))
    )
    if not classify_subset(B, out).is_ideal:
        raise NotAnIdeal("socle failed its ideal check")
    return out


def zeta(B: SkewBrace) -> tuple[int, ...]:
    """The center: socle elements that also commute multiplicatively."""
    tm = B.mul_group.table
    n = B.order
    out = tuple(
        a for a in socle(B)
        if all(tm[a][b] == tm[b][a] for b in range(n))
    )
    if not classify_subset(B, out).is_ideal:
        raise NotAnIdeal("center failed its ideal check")
    return out


def _ascending_series(B: SkewBrace, step) -> list[tuple[int, ...]]:
    """Terms from {0} taking preimages of `step` applied to each quotient."""
    terms = [(0,)]
    while True:
        current = terms[-1]
        if len(current) == B.order:
            return terms
        Q, proj = quotient_with_map(B, current)
        grown = preimage(proj, step(Q))
        if len(grown) == len(current):
            return terms
        terms.append(grown)


def socle_series(B: SkewBrace) -> IdealChain:
    """The ascending series of socle preimages."""
    return ideal_chain(B, _ascending_series(B, socle))


def multipermutation_level(B: SkewBrace) -> Optional[int]:
    """Steps for the socle series to exhaust B, or None if it stalls."""
    chain = socle_series(B)
    if len(chain.terms[-1]) == B.order:
        return len(chain.terms) - 1
    return None


def upper_central_series(B: SkewBrace) -> IdealChain:
    """The ascending series of center preimages."""
    return ideal_chain(B, _ascending_series(B, zeta))


def is_centrally_nilpotent(B: SkewBrace) -> bool:
    chain = upper_central_series(B)
    return len(chain.terms[-1]) == B.order


def _star_values(B: SkewBrace, left: Sequence[int], right: Sequence[int]) -> set[int]:
    """left*right, right*left and the additive commutators of left and right."""
    ta = B.add_group.table
    neg = B.add_group.inverse
    star = B.star_table
    vals = set()
    for g in left:
        sg = star[g]
        for b in right:
            vals.add(sg[b])
            vals.add(star[b][g])
            vals.add(ta[ta[ta[g][b]][neg[g]]][neg[b]])
    return vals


def _descending_series(B: SkewBrace, step) -> list[tuple[int, ...]]:
    """Terms from B, each next one the additive closure of `step` applied to
    the last, until a step no longer shrinks."""
    terms = [tuple(range(B.order))]
    while True:
        nxt = additive_closure(B, step(terms[-1]))
        if len(nxt) == len(terms[-1]):
            return terms
        terms.append(nxt)


def lower_central_series(B: SkewBrace) -> IdealChain:
    """Descending terms generated by stars against B and additive commutators."""
    full = tuple(range(B.order))
    return ideal_chain(B, _descending_series(B, lambda cur: _star_values(B, cur, full)))


def right_series(B: SkewBrace) -> list[tuple[int, ...]]:
    """Descending terms R, each next one generated by R * B."""
    star = B.star_table
    terms = _descending_series(B, lambda cur: {star[r][b] for r in cur for b in B.elements()})
    for t in terms:
        if not classify_subset(B, t).is_ideal:
            raise NotAnIdeal("right series term failed its ideal check")
    return terms


def left_series(B: SkewBrace) -> list[tuple[int, ...]]:
    """Descending terms L, each next one generated by B * L."""
    star = B.star_table
    terms = _descending_series(B, lambda cur: {star[b][l] for b in B.elements() for l in cur})
    for t in terms:
        if not classify_subset(B, t).is_left_ideal:
            raise NotAnIdeal("left series term failed its left ideal check")
    return terms


def is_right_nilpotent(B: SkewBrace) -> bool:
    return len(right_series(B)[-1]) == 1


def is_left_nilpotent(B: SkewBrace) -> bool:
    return len(left_series(B)[-1]) == 1


def derived_ideal(B: SkewBrace) -> tuple[int, ...]:
    """The additive closure of all stars and additive commutators."""
    full = tuple(range(B.order))
    out = additive_closure(B, _star_values(B, full, full))
    if not classify_subset(B, out).is_ideal:
        raise NotAnIdeal("derived subset failed its ideal check")
    return out


def b_central_series(B: SkewBrace, ideal_elems: Sequence[int]) -> IdealChain:
    """Ascending central series of an ideal relative to the whole brace.

    Each step lifts the largest ideal of the quotient of B that sits inside
    the center of the ideal's image brace.
    """
    target = tuple(sorted(set(ideal_elems)))
    if not classify_subset(B, target).is_ideal:
        raise NotAnIdeal("relative central series needs an ideal of B")
    terms = [(0,)]
    while True:
        current = terms[-1]
        if current == target:
            break
        Q, proj = quotient_with_map(B, current)
        image = tuple(sorted({proj[x] for x in target}))
        inner = sub_brace(Q, image)
        local_center = zeta(inner)
        allowed = {image[x] for x in local_center}
        grown_q = brace_core(Q, allowed)
        grown = preimage(proj, grown_q)
        if len(grown) == len(current):
            break
        terms.append(grown)
    return ideal_chain(B, terms)


def is_b_centrally_nilpotent(B: SkewBrace, ideal_elems: Sequence[int]) -> bool:
    target = tuple(sorted(set(ideal_elems)))
    chain = b_central_series(B, target)
    return chain.terms[-1] == target


def fitting(B: SkewBrace):
    """The sum of all ideals whose relative central series reaches them.

    Returns the classification of the resulting subset; its flags report
    whether the sum is itself an ideal (it is in every tested case).
    """
    good = [i for i in all_ideals(B) if is_b_centrally_nilpotent(B, i)]
    union = set()
    for i in good:
        union |= set(i)
    return classify_subset(B, additive_closure(B, union))


def chief_series(B: SkewBrace) -> IdealChain:
    """A chain through minimal ideals of successive quotients.

    At every step the quotient's minimal nonzero ideal that is least under
    (size, elements) is lifted, so the output is deterministic.
    """
    from .substructure import minimal_ideals

    terms = [(0,)]
    while len(terms[-1]) < B.order:
        Q, proj = quotient_with_map(B, terms[-1])
        minima = minimal_ideals(Q)
        chosen = min(minima, key=lambda s: (len(s), s))
        terms.append(preimage(proj, chosen))
    return ideal_chain(B, terms)


def chief_factors(B: SkewBrace) -> list[tuple[int, bool]]:
    """(order, is_prime) for each factor of the deterministic chief series."""
    chain = chief_series(B)
    return [(f.order, f.is_prime_order) for f in chain.factors]


def _factor_is_abelian(Q: SkewBrace, image: Sequence[int]) -> bool:
    ta = Q.add_group.table
    star = Q.star_table
    return all(
        star[x][y] == 0 and ta[x][y] == ta[y][x]
        for x in image for y in image
    )


def is_soluble(B: SkewBrace) -> tuple[bool, Optional[IdealChain]]:
    """Search the ideal lattice for a chain with abelian factors."""
    ideals = all_ideals(B)
    full = tuple(range(B.order))
    stuck: set[tuple[int, ...]] = set()

    def grow(current: tuple[int, ...]) -> Optional[list[tuple[int, ...]]]:
        if current == full:
            return [current]
        if current in stuck:
            return None
        Q, proj = quotient_with_map(B, current)
        cur = set(current)
        for cand in ideals:
            if not (cur < set(cand)):
                continue
            image = sorted({proj[x] for x in cand})
            if not _factor_is_abelian(Q, image):
                continue
            rest = grow(cand)
            if rest is not None:
                return [current] + rest
        stuck.add(current)
        return None

    path = grow((0,))
    if path is None:
        return False, None
    return True, ideal_chain(B, path)
