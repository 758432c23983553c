"""Ideal series of a finite brace: socle, central, derived, chief.

Ascending series climb from {0} inside B.  Each step works modulo the last
term I, on B's own tables and B's one cached ideal lattice: by the
correspondence theorem the ideals of B/I are the ideals of B that contain
I, so no quotient brace is built.  Descending series, the derived series
of `is_soluble` among them, shrink through terms that the closure kernel of
`ideal_generated` builds from the stars and commutators of generators, not
of every element, and build no lattice.  Only terms a caller supplies are
validated (`ideal_chain`); every term built here is an ideal by theorem
and is trusted.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .braces import SkewBrace, _ideal_fault
from .errors import NotAnIdeal
from .groups import (_ascending_series, _cached, _conjugation, _cosets, _is_prime, _nilpotent,
                     closure, element_orders, generating_set)
from .substructure import (SubStructure, _covers, _ideal_closure, _ideal_maps, all_ideals,
                           brace_core, classify_subset)

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
    "is_soluble",
]


class FactorInfo(NamedTuple):
    """What one step of an ideal chain looks like in its quotient."""

    order: int
    is_prime_order: bool


class IdealChain(NamedTuple):
    """A strictly monotone chain of ideals of one parent brace."""

    parent: SkewBrace
    terms: tuple[tuple[int, ...], ...]
    factors: tuple[FactorInfo, ...]
    ascending: bool

    def orders(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self.terms)

    def factor_orders(self) -> tuple[int, ...]:
        return tuple(f.order for f in self.factors)


def ideal_chain(B: SkewBrace, terms: Iterable[Iterable[int]]) -> IdealChain:
    """Validate caller-supplied terms: a strictly monotone chain of ideals.

    The chains this package builds itself are ideals by theorem and skip
    this check.  The terms, and each term, are read once, and an element
    repeated in a term counts once.
    """
    terms = [tuple(dict.fromkeys(t)) for t in terms]
    if not terms:
        raise NotAnIdeal("a chain needs at least one term")
    sets = [set(t) for t in terms]
    pairs = list(zip(sets, sets[1:]))
    if not (all(a < b for a, b in pairs) or all(b < a for a, b in pairs)):
        raise NotAnIdeal("chain terms are not strictly monotone")
    for t in terms:
        if not classify_subset(B, t).is_ideal:
            raise NotAnIdeal(f"chain term of size {len(t)} is not an ideal: "
                             f"{_ideal_fault(B, set(t))}")
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


def _central(B: SkewBrace, coset_of: Sequence[int], inside: Iterable[int],
             mul: bool) -> tuple[int, ...]:
    """The preimage of the socle of S, the image of `inside` in B/I, or of
    the centre of S when `mul` is set; `coset_of` indexes the cosets of I.

    Tested modulo I on one element of each coset in S: x is kept when
    lambda_x fixes S and x commutes with S additively (and multiplicatively).
    """
    ta, tm, lam = B.add_group.table, B.mul_group.table, B.lam_table
    image: dict[int, int] = {}
    for x in inside:
        image.setdefault(coset_of[x], x)
    reps = [(y, coset_of[y]) for y in image.values()]
    kept = {
        c for c, x in image.items()
        if all(coset_of[lam[x][y]] == cy and coset_of[ta[x][y]] == coset_of[ta[y][x]]
               and (not mul or coset_of[tm[x][y]] == coset_of[tm[y][x]])
               for y, cy in reps)
    }
    return tuple(a for a in B.elements() if coset_of[a] in kept)


def socle(B: SkewBrace) -> tuple[int, ...]:
    """Elements with identity lambda map lying in the additive center: an
    ideal by theorem (Guarnieri & Vendramin 2017), the first term of the
    socle series after {0}."""
    terms = socle_series(B).terms
    return terms[min(1, len(terms) - 1)]


def zeta(B: SkewBrace) -> tuple[int, ...]:
    """The center: socle elements that also commute multiplicatively; an
    ideal by theorem (Guarnieri & Vendramin 2017), the first term of the
    upper central series after {0}."""
    terms = upper_central_series(B).terms
    return terms[min(1, len(terms) - 1)]


def socle_series(B: SkewBrace) -> IdealChain:
    """The ascending series of socle preimages; its terms are cached in B."""
    return _chain(B, _cached(B, "socle_series", lambda: tuple(_ascending_series(
        B, lambda I: _central(B, _cosets(B.add_group, I)[0], B.elements(), False)))))


def multipermutation_level(B: SkewBrace) -> Optional[int]:
    """Steps for the socle series to exhaust B, or None if it stalls."""
    chain = socle_series(B)
    if len(chain.terms[-1]) == B.order:
        return len(chain.terms) - 1
    return None


def upper_central_series(B: SkewBrace) -> IdealChain:
    """The ascending series of center preimages; its terms are cached in B."""
    return _chain(B, _cached(B, "upper_central_series", lambda: tuple(_ascending_series(
        B, lambda I: _central(B, _cosets(B.add_group, I)[0], B.elements(), True)))))


def is_centrally_nilpotent(B: SkewBrace) -> bool:
    chain = upper_central_series(B)
    return len(chain.terms[-1]) == B.order


def _stars(B: SkewBrace, left: Iterable[int], right: Sequence[int]) -> list[int]:
    """a*b = lam_a(b) - b for a in `left` and b in `right`."""
    ta, lam, neg = B.add_group.table, B.lam_table, B.add_group.inverse
    return [ta[lam[a][b]][neg[b]] for a in left for b in right]


def _commutators(B: SkewBrace, left: Iterable[int], right: Sequence[int]) -> list[int]:
    """[a, b]+ = a + b - a - b for a in `left` and b in `right`."""
    ta, neg = B.add_group.table, B.add_group.inverse
    return [ta[ta[ta[a][b]][neg[a]]][neg[b]] for a in left for b in right]


def _descending_series(B: SkewBrace, step) -> list[tuple[int, ...]]:
    """Terms from B, each next one the `_Span` that `step(gens)` closes
    from the additive generators of the last term, `generating_set` for B,
    until it stops shrinking.

    Each step closes seeds under maps the next term is closed under, so
    the closure J lies in that term; J contains it by these facts, for
    additive subgroups X and Y:
    - J normalised by Y: a*(x + y) = a*x + (x + a*y - x) makes
      {y in Y : a*y in J} a subgroup, so a*Y lies in J when a*g does for
      the generators g of Y;
    - and Y lam-invariant: (ab)*y = a*(lam_b y) + b*y makes {a : a*Y in J}
      a multiplicative subgroup, so B*Y lies in J when h*Y does for the
      multiplicative generators h of B;
    - J an ideal: {a : a*B in J} is the preimage of the kernel of lambda on
      B/J, on which a + c = a lam_a^-1(c) = ac, so an additive subgroup, and
      X*B lies in J when g*B does for the generators g of X;
    - J normal: [x + y, b]+ = x + [y, b]+ - x + [x, b]+ and
      [x, b]+ = -[b, x]+ make [X, Y]+ lie in J when it does on generators.
    """
    terms, gens = [tuple(range(B.order))], generating_set(B.add_group)
    while True:
        span = step(gens)
        if len(span.elems) == len(terms[-1]):
            return terms
        terms.append(tuple(sorted(span.elems)))
        gens = span.gens


def lower_central_series(B: SkewBrace) -> IdealChain:
    """Descending terms G, each next one the additive closure of G*B, B*G
    and [G, B]+: ideals by theorem (Bonatto & Jedlicka); the terms are
    cached in B.

    Each is the ideal generated by g*a, h*g and [g, a]+ for additive
    generators g of G and a of B and multiplicative ones h of B, by the
    facts of `_descending_series`: G and the term are ideals.
    """
    def step(gens: list[int]):
        adds = generating_set(B.add_group)
        return _ideal_closure(
            B, _stars(B, gens, adds) + _stars(B, generating_set(B.mul_group), gens)
            + _commutators(B, gens, adds), _ideal_maps(B))

    return _chain(B, _cached(B, "lower_central_series",
                             lambda: tuple(_descending_series(B, step))))


def right_series(B: SkewBrace) -> list[tuple[int, ...]]:
    """Descending terms R, each next one generated by R * B: ideals by theorem
    (Cedo, Smoktunowicz & Vendramin 2019).  Cached in B; returns a copy.

    Each is the ideal generated by g*a for additive generators g of R and
    a of B, by the facts of `_descending_series`: the term is an ideal.
    """
    def step(gens: list[int]):
        return _ideal_closure(B, _stars(B, gens, generating_set(B.add_group)), _ideal_maps(B))

    return list(_cached(B, "right_series", lambda: _descending_series(B, step)))


def left_series(B: SkewBrace) -> list[tuple[int, ...]]:
    """Descending terms L, each next one generated by B * L: left ideals by
    theorem (Cedo, Smoktunowicz & Vendramin 2019).  Cached in B; returns a
    copy.

    Each is the least additive subgroup normalised by L that holds h*g for
    multiplicative generators h of B and additive ones g of L, by the facts
    of `_descending_series`: L is lam-invariant, and the term is normalised
    by L, as x + b*y - x = -(b*x) + b*(x + y).
    """
    def step(gens: list[int]):
        return _ideal_closure(B, _stars(B, generating_set(B.mul_group), gens),
                              [_conjugation(B.add_group, g) for g in gens])

    return list(_cached(B, "left_series", lambda: _descending_series(B, step)))


def is_right_nilpotent(B: SkewBrace) -> bool:
    return len(right_series(B)[-1]) == 1


def is_left_nilpotent(B: SkewBrace) -> bool:
    return len(left_series(B)[-1]) == 1


def derived_ideal(B: SkewBrace) -> tuple[int, ...]:
    """The additive closure of all stars and additive commutators, an ideal
    by theorem: the second term of the lower central series, or B itself
    when that series stops at once."""
    terms = lower_central_series(B).terms
    return terms[min(1, len(terms) - 1)]


def _relative_central_terms(B: SkewBrace, target: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The central series of the ideal `target` relative to B: each step is
    the largest ideal of B inside the preimage of the center of the image of
    `target` in B/I, so every term lies in `target`.  That is the largest
    ideal K inside `target` with [K, target]_B in I, the bracket of
    `fitting`'s proof."""
    return _ascending_series(
        B, lambda I: brace_core(B, _central(B, _cosets(B.add_group, I)[0], target, True)))


def b_central_series(B: SkewBrace, ideal_elems: Iterable[int]) -> IdealChain:
    """Ascending central series of an ideal relative to the whole brace.

    Each step takes the largest ideal of B that sits inside the preimage of
    the center of the ideal's image in the quotient by the last term.  This
    is the engine's reading of B-central nilpotency: the ideal I is
    B-centrally nilpotent when the series reaches I, that is, when
    I, [I, I]_B, [[I, I]_B, I]_B, ... reaches {0}, where [K, I]_B is the
    ideal generated by x*y, y*x and [x, y]+ for x in K and y in I (proof in
    `fitting`).
    """
    target = tuple(sorted(set(ideal_elems)))
    if not classify_subset(B, target).is_ideal:
        raise NotAnIdeal(f"relative central series needs an ideal of B: "
                         f"{_ideal_fault(B, set(target))}")
    return _chain(B, _relative_central_terms(B, target))


def is_b_centrally_nilpotent(B: SkewBrace, ideal_elems: Iterable[int]) -> bool:
    target = tuple(sorted(set(ideal_elems)))
    return b_central_series(B, target).terms[-1] == target


def fitting(B: SkewBrace) -> SubStructure:
    """The Fitting ideal: the sum of the B-centrally nilpotent ideals, those
    whose central series relative to B reaches them.  That sum is itself
    B-centrally nilpotent (Fitting's theorem, proven below for this reading),
    so it is the first such ideal in the lattice scanned from the largest;
    being a member of the lattice, its flags are stated, not computed.  Only
    ideals with both groups nilpotent (`groups._nilpotent`) are tested: the
    relative series of I is a chain of ideals of B, each factor central in
    both groups of I over the last term.  For B that series is the upper
    central series: an ideal is its own core.

    For ideals K and I of B, let [K, I]_B be the ideal of B generated by
    x*y, y*x and [x, y]+ = x + y - x - y for x in K and y in I.
    1. [K, I]_B lies in K and in I, as an ideal is lam-invariant, normal in
       both groups and holds I*B.  It is monotone and symmetric in K and I,
       as [y, x]+ = -[x, y]+.
    2. [K + K', I]_B = [K, I]_B + [K', I]_B, and so in I too, by symmetry.
       The right side J lies in the left by 1.  For k in K, k' in K' and y
       in I, k + k' = k lam_k^-1(k') with lam_k^-1(k') in K', and J is an
       ideal, so these put the generators of the left side in J:
       - (ab)*c = a*(b*c) + b*c + a*c;
       - c*(a + b) = c*a + (a + c*b - a);
       - [a + b, c]+ = a + [b, c]+ - a + [a, c]+.
    3. Let Z be an ideal of B inside I.  In B/Z, x is central in the image
       of I (lam_x fixes it and x commutes with it in both groups, as
       `_central` tests) exactly when x*y, y*x and [x, y]+ lie in Z for
       every y in I: with x*y and [x, y]+ in Z, xy = x + lam_x(y) is x + y
       modulo Z, and yx = y + y*x + x is x + y exactly when y*x is in Z.
       So each step of `_relative_central_terms` is the largest ideal K
       inside I with [K, I]_B in Z.  Hence its terms Z_k reach I exactly
       when G_1 = I, G_(k+1) = [G_k, I]_B reaches {0}: by induction on k,
       G_(c+1) = {0} puts G_(c+1-k) in Z_k, and Z_c = I puts G_(k+1) in
       Z_(c-k).
    4. Sums: let G_(a+1)(I) = G_(c+1)(J) = {0}.  By 2, term a + c + 1 of
       the series of I + J is a sum of left-normed brackets of a + c + 1
       letters I or J.  By 1, one with r letters I and s letters J lies in
       G_r(I) and in G_s(J), with G_0 = B, and r > a or s > c, so it is {0}.
    5. Sub-ideals: let J be an ideal inside I, whose relative series Z_k
       reaches I.  The intersections M_k of the Z_k with J are ideals of B,
       and [M_(k+1), J]_B lies in [Z_(k+1), I]_B, so in Z_k, and in J by 1:
       so in M_k.  By 3 and induction on k, the k-th term of J's relative
       series contains M_k, so it reaches J.
    So the B-centrally nilpotent ideals have a largest member, which holds
    every hit of the scan: the first hit, no smaller, is that member.  By 5
    every ideal inside it is B-centrally nilpotent too."""
    orders = element_orders(B.add_group), element_orders(B.mul_group)
    return SubStructure(next(
        i for i in reversed(all_ideals(B)) if all(_nilpotent(o, i) for o in orders)
        and (upper_central_series(B).terms if len(i) == B.order
             else _relative_central_terms(B, i))[-1] == i), True, True, True, True)


def chief_series(B: SkewBrace) -> IdealChain:
    """A chain through minimal ideals of successive quotients.

    At every step the ideal minimal over the last term that is least under
    (size, elements) is taken, so the output is deterministic.
    """
    return _chain(B, _ascending_series(B, lambda I: _covers(B, I)[0]))


def is_soluble(B: SkewBrace) -> tuple[bool, Optional[IdealChain]]:
    """Whether B is soluble, with its derived series of ideals ascending from
    {0} when it is: D_0 = B, and D_{k+1} is the ideal generated by the stars
    x*y and the commutators [x, y]+ = x + y - x - y of x and y in D_k.

    Each step seeds g*h and [g, h]+ for additive generators g and h of D_k
    only.  Let J be an ideal holding those seeds, and D = D_k:
    - a*D lies in J when a*g does for the generators g of D, as J is
      normal, by the first fact of `_descending_series`;
    - so K = {a : a*D in J} holds the generators of D.  It is a
      multiplicative subgroup by (ab)*y = a*(lam_b y) + b*y, as D is
      lam-invariant, and it contains J, as J is an ideal.  For a and a' in
      K and D, a*a' in J gives lam_a^-1(a') in a' + J, which lies in K, as
      a' + j = a' lam_a'^-1(j).  So a + a' = a lam_a^-1(a') is in K: K
      meets D in an additive subgroup, all of D, and D*D lies in J;
    - [D, D]+ lies in J when it does on generators, by the last fact of
      `_descending_series`.

    The series decides solubility.  D_k/D_{k+1} is abelian (trivial, with an
    abelian group), so a series that reaches {0} is a chain of ideals with
    abelian factors.  Conversely, let 0 = I_0 < ... < I_m = B be one.  Then
    I_{m-k} contains D_k, by induction on k: the stars and commutators of
    D_k lie in those of I_{m-k}, which lie in the ideal I_{m-k-1}, and
    D_{k+1} is the least ideal that holds them.  So D_m = {0}.
    """
    terms = _descending_series(B, lambda gens: _ideal_closure(
        B, _stars(B, gens, gens) + _commutators(B, gens, gens), _ideal_maps(B)))
    if len(terms[-1]) > 1:
        return False, None
    return True, _chain(B, terms[::-1])
