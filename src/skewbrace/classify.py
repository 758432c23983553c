"""Supersolubility with certificates, Sylow towers, U_p sets, brace reports.

The primary decision procedure is greedy: a nonzero brace is supersoluble
exactly when it has some prime-order ideal whose quotient is supersoluble,
so the search never needs to backtrack, and each step is read off the
cosets of the last term by `groups._prime_steps`, with no lattice.  The
exhaustive cross-check, `is_supersoluble_oracle`, is the one search that
walks the cached ideal lattice for a chain.  A Sylow tower is the same
greedy climb with its primes ranked in the tower's order.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .braces import SkewBrace
from .errors import SkewBraceError
from .groups import (GroupPredicates, _ascending_series, _cached, _is_prime, _prime_steps,
                     _primes_of, element_orders, group_predicates)
from .series import (
    IdealChain,
    _chain,
    chief_series,
    fitting,
    is_centrally_nilpotent,
    is_left_nilpotent,
    is_right_nilpotent,
    is_soluble,
    multipermutation_level,
)
from .substructure import (_covers, _ideal_maps, all_ideals, classify_subset, index,
                           maximal_subbraces)

__all__ = [
    "SupersolubleResult",
    "is_supersoluble",
    "is_supersoluble_oracle",
    "UPResult",
    "u_p",
    "sylow_tower",
    "ClassificationReport",
    "brace_report",
]

class SupersolubleResult(NamedTuple):
    """Outcome of the greedy supersolubility decision."""

    supersoluble: bool
    chain: Optional[IdealChain]
    reached: tuple[tuple[int, ...], ...]
    blocking_minimal_orders: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.supersoluble


def is_supersoluble(B: SkewBrace) -> SupersolubleResult:
    """Greedy search for a chain of ideals of B with prime-order factors.

    At each level the `_prime_steps` ideal over the last term I least under
    (size, elements) is taken.  When there is none, the orders of the
    minimal ideals of B/I, the indices of the ideals minimal over I, are
    reported: only a failing verdict reads the lattice.
    """
    def build() -> SupersolubleResult:
        terms = _ascending_series(B, lambda I: min(_prime_steps(B.add_group, _ideal_maps(B), I),
                                                   key=lambda J: (len(J), J), default=I))
        last = terms[-1]
        if len(last) == B.order:
            return SupersolubleResult(True, _chain(B, terms), tuple(terms), ())
        blocking = tuple(sorted(len(J) // len(last) for J in _covers(B, last)))
        return SupersolubleResult(False, None, tuple(terms), blocking)

    return _cached(B, "supersoluble", build)


def is_supersoluble_oracle(B: SkewBrace) -> bool:
    """Exhaustive check: whether some chain of ideals of B climbs from {0}
    to B through prime index steps.

    Independent of the greedy route (`_prime_steps`): depth
    first over B's cached `all_ideals`, each step to the next candidate in
    (size, elements) order, remembering the ideals from which no chain
    climbs, so it may backtrack over every chain of the lattice.
    """
    ideals = all_ideals(B)
    dead: set[tuple[int, ...]] = set()

    def climb(current: tuple[int, ...]) -> bool:
        if len(current) == B.order:
            return True
        if current in dead:
            return False
        cur = set(current)
        if any(_is_prime(len(cand) // len(current)) and cur < set(cand) and climb(cand)
               for cand in ideals):
            return True
        dead.add(current)
        return False

    return climb((0,))


class UPResult(NamedTuple):
    """Elements whose additive resp. multiplicative order avoids primes <= p,
    the int bound `prime` (which need not be prime itself)."""

    prime: int
    additive: tuple[int, ...]
    multiplicative: tuple[int, ...]
    equal: bool
    is_ideal: bool


def u_p(B: SkewBrace, p: int) -> UPResult:
    """Both U_p sets, whether they agree, and the ideal flag of the additive
    one, proven on generators by `classify_subset` with no lattice.

    p is any int, prime or not: an element is kept when every prime factor
    of its order exceeds p, so p < 2 keeps every element.  A p that is not
    an int, or is a bool, raises SkewBraceError."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise SkewBraceError(f"prime bound must be an int, got {p!r}")
    add_ord = element_orders(B.add_group)
    mul_ord = element_orders(B.mul_group)
    kept = {k for k in {*add_ord, *mul_ord} if all(q > p for q in _primes_of(k))}
    additive = tuple(x for x in B.elements() if add_ord[x] in kept)
    multiplicative = tuple(x for x in B.elements() if mul_ord[x] in kept)
    return UPResult(
        prime=p,
        additive=additive,
        multiplicative=multiplicative,
        equal=additive == multiplicative,
        is_ideal=classify_subset(B, additive).is_ideal,
    )


def sylow_tower(B: SkewBrace) -> Optional[IdealChain]:
    """A chain of prime-order factors grouped by descending odd primes, 2 last.

    Only supersoluble braces carry one.  It is the greedy prime-index climb
    in that order: each step takes the `_prime_steps` ideal J over the last
    term I least by (p == 2, -p, elements) for p = |J/I|.  The section of a
    prime q holds the elements whose additive order has no prime ranked
    after q.  An ideal J of prime index q over I is I + <a> for the q-part
    a of any x in J outside I, as a lies in x + I and has q-power additive
    order; so J lies in the section of q.  Once the sections of the primes
    ranked before q lie inside I, no such prime indexes a cover of I or
    divides |B/I|, and the Sylow tower of the supersoluble B/I starts with
    the image of a cover of index q.  A quotient of a supersoluble brace is
    supersoluble and, if nonzero, has an ideal of prime order, so any prime
    step may be taken: the climb reaches B exactly when B is supersoluble.
    When it stops short, None is returned with no lattice built.
    """
    terms = _ascending_series(B, lambda I: min(
        _prime_steps(B.add_group, _ideal_maps(B), I), default=I,
        key=lambda J: (len(J) == 2 * len(I), -len(J), J)))
    return _chain(B, terms) if len(terms[-1]) == B.order else None


class ClassificationReport(NamedTuple):
    """Everything the analyzers know about one brace, in a fixed field order."""

    name: str
    order: int
    additive: GroupPredicates
    multiplicative: GroupPredicates
    supersoluble: bool
    certificate_orders: Optional[tuple[int, ...]]
    blocking_minimal_orders: tuple[int, ...]
    centrally_nilpotent: bool
    left_nilpotent: bool
    right_nilpotent: bool
    soluble: bool
    mp_level: Optional[int]
    u_p_by_prime: tuple[UPResult, ...]
    fitting_order: int
    chief_factor_orders: tuple[int, ...]
    maximal_subbrace_indices: tuple[int, ...]
    ideal_count: int
    is_trivial: bool = False


def brace_report(B: SkewBrace, name: str = "") -> ClassificationReport:
    """Aggregate series, substructure and classification data for one brace."""
    # Every ideal is a subbrace: taken first, the subbrace lattice is capped
    # first, and `all_ideals` filters it instead of building a second lattice.
    maximal, ideals = maximal_subbraces(B), all_ideals(B)
    ss = is_supersoluble(B)
    chain = chief_series(B)
    primes = sorted(_primes_of(B.order))
    return ClassificationReport(
        name=name or B.name,
        order=B.order,
        additive=group_predicates(B.add_group),
        multiplicative=group_predicates(B.mul_group),
        supersoluble=ss.supersoluble,
        certificate_orders=ss.chain.orders() if ss.chain is not None else None,
        blocking_minimal_orders=ss.blocking_minimal_orders,
        centrally_nilpotent=is_centrally_nilpotent(B),
        left_nilpotent=is_left_nilpotent(B),
        right_nilpotent=is_right_nilpotent(B),
        soluble=is_soluble(B)[0],
        mp_level=multipermutation_level(B),
        u_p_by_prime=tuple(u_p(B, p) for p in primes),
        fitting_order=len(fitting(B).elements),
        chief_factor_orders=chain.factor_orders(),
        maximal_subbrace_indices=tuple(index(B, s) for s in maximal),
        ideal_count=len(ideals),
        is_trivial=B.is_trivial(),
    )
