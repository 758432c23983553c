"""Ideal series of a finite brace: socle, central, derived, chief.

Ascending series climb from {0} through preimages of structure computed in
successive quotients; descending series shrink through additively generated
star and commutator subgroups.  Only terms a caller supplies are validated
(`ideal_chain`); every term built here is an ideal by theorem and is trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .braces import SkewBrace, quotient_brace, sub_brace
from .errors import NotAnIdeal
from .groups import _is_prime, closure
from .substructure import all_ideals, brace_core, classify_subset, minimal_ideals

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
    """Validate caller-supplied terms: a strictly monotone chain of ideals.

    The chains this package builds itself are ideals by theorem and skip
    this check.
    """
    if not terms:
        raise NotAnIdeal("a chain needs at least one term")
    sets = [set(t) for t in terms]
    pairs = list(zip(sets, sets[1:]))
    if not (all(a < b for a, b in pairs) or all(b < a for a, b in pairs)):
        raise NotAnIdeal("chain terms are not strictly monotone")
    for t in terms:
        if not classify_subset(B, t).is_ideal:
            raise NotAnIdeal(f"chain term of size {len(t)} is not an ideal")
    return _chain(B, terms)


def _chain(B: SkewBrace, terms: Sequence[tuple[int, ...]]) -> IdealChain:
    """The chain of trusted, strictly monotone ideal terms, with the order of
    each factor; one term counts as ascending."""
    sizes = [len(t) for t in terms]
    ascending = len(sizes) < 2 or sizes[0] < sizes[1]
    steps = [max(a, b) // min(a, b) for a, b in zip(sizes, sizes[1:])]
    factors = tuple(FactorInfo(order=k, is_prime_order=_is_prime(k)) for k in steps)
    return IdealChain(B, tuple(terms), factors, ascending)


def additive_closure(B: SkewBrace, values: Iterable[int]) -> tuple[int, ...]:
    """The additive subgroup generated by the given elements."""
    return closure(B.add_group, values)


def socle(B: SkewBrace) -> tuple[int, ...]:
    """Elements with identity lambda map lying in the additive center.

    An ideal by theorem (Guarnieri & Vendramin 2017).
    """
    n = B.order
    ta = B.add_group.table
    ident = tuple(range(n))
    return tuple(
        a for a in range(n)
        if B.lam_table[a] == ident and all(ta[a][b] == ta[b][a] for b in range(n))
    )


def zeta(B: SkewBrace) -> tuple[int, ...]:
    """The center: socle elements that also commute multiplicatively.

    An ideal by theorem (Guarnieri & Vendramin 2017).
    """
    tm = B.mul_group.table
    n = B.order
    return tuple(
        a for a in socle(B)
        if all(tm[a][b] == tm[b][a] for b in range(n))
    )


def _ascending_series(B: SkewBrace, step) -> list[tuple[int, ...]]:
    """Terms from {0}, each next one the preimage of `step(Q, proj)`, a subset
    of the quotient Q of B by the last term, until B or a step that does not
    grow.  A preimage of an ideal of a quotient is an ideal."""
    terms = [(0,)]
    while len(terms[-1]) < B.order:
        Q, proj = quotient_with_map(B, terms[-1])
        grown = preimage(proj, step(Q, proj))
        if len(grown) == len(terms[-1]):
            break
        terms.append(grown)
    return terms


def socle_series(B: SkewBrace) -> IdealChain:
    """The ascending series of socle preimages."""
    return _chain(B, _ascending_series(B, lambda Q, proj: socle(Q)))


def multipermutation_level(B: SkewBrace) -> Optional[int]:
    """Steps for the socle series to exhaust B, or None if it stalls."""
    chain = socle_series(B)
    if len(chain.terms[-1]) == B.order:
        return len(chain.terms) - 1
    return None


def upper_central_series(B: SkewBrace) -> IdealChain:
    """The ascending series of center preimages."""
    return _chain(B, _ascending_series(B, lambda Q, proj: zeta(Q)))


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
    """Descending terms generated by stars against B and additive commutators,
    ideals by theorem (Bonatto & Jedlicka)."""
    full = tuple(range(B.order))
    return _chain(B, _descending_series(B, lambda cur: _star_values(B, cur, full)))


def right_series(B: SkewBrace) -> list[tuple[int, ...]]:
    """Descending terms R, each next one generated by R * B: ideals by theorem
    (Cedo, Smoktunowicz & Vendramin 2019)."""
    star = B.star_table
    return _descending_series(B, lambda cur: {star[r][b] for r in cur for b in B.elements()})


def left_series(B: SkewBrace) -> list[tuple[int, ...]]:
    """Descending terms L, each next one generated by B * L: left ideals by
    theorem (Cedo, Smoktunowicz & Vendramin 2019)."""
    star = B.star_table
    return _descending_series(B, lambda cur: {star[b][l] for b in B.elements() for l in cur})


def is_right_nilpotent(B: SkewBrace) -> bool:
    return len(right_series(B)[-1]) == 1


def is_left_nilpotent(B: SkewBrace) -> bool:
    return len(left_series(B)[-1]) == 1


def derived_ideal(B: SkewBrace) -> tuple[int, ...]:
    """The additive closure of all stars and additive commutators: the second
    term of the lower central series, an ideal by theorem."""
    full = tuple(range(B.order))
    return additive_closure(B, _star_values(B, full, full))


def _relative_central_terms(B: SkewBrace, target: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The central series of the ideal `target` relative to B: each step lifts
    the largest ideal of the quotient inside the center of the image of
    `target`, so every term lies in `target`."""

    def step(Q: SkewBrace, proj: Sequence[int]) -> tuple[int, ...]:
        image = tuple(sorted({proj[x] for x in target}))
        return brace_core(Q, {image[x] for x in zeta(sub_brace(Q, image))})

    return _ascending_series(B, step)


def b_central_series(B: SkewBrace, ideal_elems: Sequence[int]) -> IdealChain:
    """Ascending central series of an ideal relative to the whole brace.

    Each step lifts the largest ideal of the quotient of B that sits inside
    the center of the ideal's image brace.
    """
    target = tuple(sorted(set(ideal_elems)))
    if not classify_subset(B, target).is_ideal:
        raise NotAnIdeal("relative central series needs an ideal of B")
    return _chain(B, _relative_central_terms(B, target))


def is_b_centrally_nilpotent(B: SkewBrace, ideal_elems: Sequence[int]) -> bool:
    target = tuple(sorted(set(ideal_elems)))
    chain = b_central_series(B, target)
    return chain.terms[-1] == target


def fitting(B: SkewBrace):
    """The sum of all ideals whose relative central series reaches them.

    Returns the classification of the resulting subset; its flags report
    whether the sum is itself an ideal (it is in every tested case).
    """
    union = set()
    for i in all_ideals(B):
        if _relative_central_terms(B, i)[-1] == i:
            union |= set(i)
    return classify_subset(B, additive_closure(B, union))


def chief_series(B: SkewBrace) -> IdealChain:
    """A chain through minimal ideals of successive quotients.

    At every step the quotient's minimal nonzero ideal that is least under
    (size, elements) is lifted, so the output is deterministic.
    """
    return _chain(B, _ascending_series(
        B, lambda Q, proj: min(minimal_ideals(Q), key=lambda s: (len(s), s))))


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
    return True, _chain(B, path)
