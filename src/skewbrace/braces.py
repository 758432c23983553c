"""Skew left braces on a shared 0-based carrier.

A brace holds two group tables on the same element set: an additive one
(written a + b, inverse -a) and a multiplicative one (written ab, inverse
a^-1), sharing 0 as identity and tied together by a(b + c) = ab - a + ac.
The derived map lam_a(b) = -a + ab is the one table built at construction;
the star product a*b = lam_a(b) - b is read from it and the additive table.

Validation is exact at every order.  Both tables are proven closed, once,
by `make_brace` or the document reader that hands them over, then proven
to be groups, and the linking axiom is proven for a over a multiplicative
and b over an additive generating set, with c over all elements:
O(|S_mul| |S_add| n) lookups, each set of at most log2 n elements.  That
lambda is a homomorphism into Aut(A) and the star identities follow from
the axiom and need no check of their own (Guarnieri & Vendramin, Math.
Comp. 86, 2017).

Exact at the boundary, trusted after: `make_brace` proves a pair of tables,
and a brace derived from proven ones (after the exact ideal, closure or
cocycle checks of its constructor) is built by `_brace` unproven.

Proofs and derived tables go a row at a time: a row read through another
in one C call, compared whole.  Every entry is examined; a scalar loop
runs only over a row that differs, to name the first witness.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Union

from .errors import (
    ActionNotHomomorphism,
    BraceInvalid,
    CocycleIdentityViolation,
    DeltaNotBijective,
    DistributivityViolation,
    IdentityMismatch,
    MissingZero,
    NotAnIdeal,
    NotClosed,
    SkewBraceError,
    TranscriptionInvalid,
)
from .groups import (FiniteGroup, direct_product, element_orders, generating_set,
                     _automorphism_fault, _check_closure, _cosets, _escape, _group,
                     _identity_of, _induced, _length, _normal_fault, _off_carrier,
                     _prove_group, _relabel, _row_getter, _twisted, _subset)

__all__ = [
    "SkewBrace",
    "CocycleSpec",
    "make_brace",
    "trivial_brace",
    "brace_from_cocycle",
    "quotient_brace",
    "sub_brace",
    "semidirect_group",
    "direct_product_braces",
    "check_brace_invariants",
    "check_braces",
]

class SkewBrace:
    """A finite skew left brace; construct through make_brace.

    It stores its two groups and the lambda table, and no other n^2 table.
    `cache` is bounded: nine keys, one value each, built once by
    `groups._cached` from the tables: "ideals" and "subbraces" (the two
    lattices), "ideal_maps" (the maps the ideal closure kernel is closed
    under), "supersoluble", and the series "socle_series",
    "upper_central_series", "lower_central_series", "left_series" and
    "right_series".
    """

    __slots__ = ("order", "add_group", "mul_group", "lam_table", "name", "cache")

    def __init__(self, add_group: FiniteGroup, mul_group: FiniteGroup,
                 lam_table: tuple[tuple[int, ...], ...], name: Optional[str] = None):
        self.order = add_group.order
        self.add_group = add_group
        self.mul_group = mul_group
        self.lam_table = lam_table
        self.name = name
        self.cache: dict = {}

    def elements(self) -> range:
        return range(self.order)

    def add(self, a: int, b: int) -> int:
        return self.add_group.table[a][b]

    def neg(self, a: int) -> int:
        return self.add_group.inverse[a]

    def mul(self, a: int, b: int) -> int:
        return self.mul_group.table[a][b]

    def inv(self, a: int) -> int:
        return self.mul_group.inverse[a]

    def lam(self, a: int, b: int) -> int:
        return self.lam_table[a][b]

    def star(self, a: int, b: int) -> int:
        return self.add_group.table[self.lam_table[a][b]][self.add_group.inverse[b]]

    def add_power(self, a: int, k: int) -> int:
        """k-fold additive multiple of a, for any integer k."""
        return _power(self.add_group, a, k)

    def mul_power(self, a: int, k: int) -> int:
        """k-fold multiplicative power of a, for any integer k."""
        return _power(self.mul_group, a, k)

    def is_trivial(self) -> bool:
        """Whether ab = a + b everywhere, i.e. the star product vanishes."""
        return self.add_group.table == self.mul_group.table

    def is_abelian(self) -> bool:
        return self.is_trivial() and self.add_group.is_abelian()

    def tables(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        return self.add_group.table, self.mul_group.table

    def __repr__(self) -> str:
        label = self.name or "brace"
        return f"SkewBrace({label}, order={self.order})"


def _power(G: FiniteGroup, a: int, k: int) -> int:
    """a^k in G: k is reduced modulo the order of a, which also covers k < 0."""
    row, x = G.table[a], 0
    for _ in range(k % element_orders(G)[a]):
        x = row[x]
    return x


def _validate_pair(add: FiniteGroup, mul: FiniteGroup) -> None:
    """Prove a(b + c) = ab - a + ac for all a, b, c, given two proven groups
    with the identity 0, as `make_brace` proves them before this call.

    With lam_a(b) = -a + ab the axiom at a says lam_a(b + c) = lam_a(b) +
    lam_a(c).  For one a, the b satisfying it for all c contain 0 and are
    closed under +, since a(b + b' + c) = ab - a + a(b' + c), so b runs over
    an additive generating set S_add.  The set M of a satisfying it for all
    b, c contains 0 and is closed under products: for a in M and any b, c,
    (ab)c = a(bc) = a(b + lam_b(c)) = ab - a + a lam_b(c), so lam_ab =
    lam_a lam_b, an endomorphism when b is in M too (lambda is a
    homomorphism; Guarnieri & Vendramin, Math. Comp. 86, 2017).  Every
    element is a left-nested product of a multiplicative generating set
    S_mul, so a runs over S_mul: O(|S_mul| |S_add| n) lookups, both sets of
    at most log2 n elements.  Rows over c are compared whole (a(b + .) is
    row a through row b, ab - a + a. is row ab - a through row a).  Once a
    generator fails, every a is tried in order, so the witness named is the
    first failing (a, b, c) of the all-elements scan.
    """
    n = add.order
    ta, tm = add.table, mul.table
    neg = add.inverse
    shifts = [(b, _row_getter(ta[b])) for b in generating_set(add)]

    def fault(a: int) -> Optional[str]:
        tma = tm[a]
        through_a = _row_getter(tma)
        for b, shift in shifts:
            left_part = ta[ta[tma[b]][neg[a]]]
            if shift(tma) != through_a(left_part):
                tab = ta[b]
                c = next(c for c in range(n) if tma[tab[c]] != left_part[tma[c]])
                return f"{a}({b}+{c}) != {a} {b} - {a} + {a} {c}"
        return None

    if any(map(fault, generating_set(mul))):
        raise DistributivityViolation(next(filter(None, map(fault, range(n)))))


def _brace(add: FiniteGroup, mul: FiniteGroup, name: Optional[str] = None) -> SkewBrace:
    """The trusted constructor: two groups already known to form a brace,
    with the lambda table derived from them: lam_a is row -a read through
    row a of the product."""
    ta, tm, neg = add.table, mul.table, add.inverse
    lam = tuple(_row_getter(tma)(ta[na]) for tma, na in zip(tm, neg))
    return SkewBrace(add, mul, lam, name)


def make_brace(add_table: Sequence[Sequence[int]], mul_table: Sequence[Sequence[int]],
               name: Optional[str] = None) -> SkewBrace:
    """Validate a pair of Cayley tables as a skew brace."""
    return _make_brace(add_table, mul_table, name, None)


def _make_brace(add_table: Sequence[Sequence[int]], mul_table: Sequence[Sequence[int]],
                name: Optional[str], known) -> SkewBrace:
    """`make_brace`'s steps: the sizes, the closure of both tables, then
    `_prove_brace`.  `known` is None or (a table equal to add_table, its
    proven group), whose group is reused, and its closure proof too if it
    is add_table itself."""
    if _length(add_table, "additive table") != _length(mul_table, "multiplicative table"):
        raise BraceInvalid(
            f"table sizes differ: {len(add_table)} vs {len(mul_table)}")
    if known is None or known[0] is not add_table:
        _check_closure(add_table)
    _check_closure(mul_table)
    return _prove_brace(add_table, mul_table, name, known and known[1])


def _prove_brace(add_table: Sequence[Sequence[int]], mul_table: Sequence[Sequence[int]],
                 name: Optional[str], add: Optional[FiniteGroup] = None) -> SkewBrace:
    """`make_brace` on two tables of one order proven closed: the shared
    identity, then each group (the additive one `add`, if already proven),
    then the axiom, which needs both groups."""
    e_add = _identity_of(add_table)
    e_mul = _identity_of(mul_table)
    if e_add != e_mul:
        raise IdentityMismatch(
            f"additive identity is {e_add}, multiplicative identity is {e_mul}")
    # With one shared identity, both tables move it to 0 by the same swap,
    # so they stay aligned.
    if add is None:
        add = _prove_group(add_table, e_add, name and f"{name}+")
    mul = _prove_group(mul_table, e_mul, name and f"{name}*")
    _validate_pair(add, mul)
    return _brace(add, mul, name)


def check_brace_invariants(brace: SkewBrace) -> bool:
    """Re-run the full construction suite on an existing brace: whether
    `make_brace` on its two tables rebuilds its tables and lambda table.
    This is `check_braces` on [brace], raising the error it returns."""
    verdict, = check_braces([brace])
    if isinstance(verdict, SkewBraceError):
        raise verdict
    return verdict


def check_braces(braces: Sequence[SkewBrace]) -> list[Union[bool, SkewBraceError]]:
    """`check_brace_invariants` of each brace, in order: True or False, or
    the `SkewBraceError` it raises.

    Each brace goes through `make_brace`'s own steps, so its verdict, error
    class and message are those of a rebuild on its own.  Braces over one
    additive group carry its table (each census brace over A carries A's
    own), so the additive group of each brace rebuilt is kept for the call,
    keyed by its table's content.  An equal table held in another
    object is proven closed again, since equal content may hide entries of
    another type (1.0 == 1); a table that cannot be a key (rows held as
    lists) is proven in full.
    """
    proven: dict = {}
    verdicts: list[Union[bool, SkewBraceError]] = []
    for B in braces:
        add, mul = B.add_group.table, B.mul_group.table
        try:
            known, keyed = proven.get(add), True
        except TypeError:  # rows held as lists: proven in full, not kept
            known, keyed = None, False
        try:
            rebuilt = _make_brace(add, mul, None, known)
        except SkewBraceError as exc:
            verdicts.append(exc)
            continue
        if keyed and known is None:
            proven[add] = (add, rebuilt.add_group)
        verdicts.append(rebuilt.tables() == (add, mul) and rebuilt.lam_table == B.lam_table)
    return verdicts


def trivial_brace(G: FiniteGroup, name: Optional[str] = None) -> SkewBrace:
    """The brace with both operations equal to the group operation."""
    return _brace(G, G, name or (G.name and f"triv({G.name})"))


class CocycleSpec(NamedTuple):
    """A bijective 1-cocycle presentation of a brace.

    `acting` maps each multiplicative element c to a permutation of the
    additive elements, and `delta` is the cocycle itself:
    delta(cd) = delta(c) + acting[c](delta(d)).
    """

    additive: FiniteGroup
    multiplicative: FiniteGroup
    acting: tuple[tuple[int, ...], ...]
    delta: tuple[int, ...]


def brace_from_cocycle(spec: CocycleSpec, name: Optional[str] = None) -> SkewBrace:
    """Validate the cocycle and build the brace a.b = delta(delta^-1(a) delta^-1(b)).

    A bijective cocycle of an action into Aut(A) gives a brace with
    lambda_delta(c) = acting[c] (Guarnieri & Vendramin, 2017)."""
    add = spec.additive
    mul = spec.multiplicative
    n = add.order
    if mul.order != n:
        raise TranscriptionInvalid(
            f"group orders differ: {n} additive vs {mul.order} multiplicative")
    if len(spec.delta) != n or len(spec.acting) != n:
        raise TranscriptionInvalid("acting or delta table has the wrong length")
    off = _off_carrier(spec.delta, n)
    if off or len(set(spec.delta)) != n:
        raise DeltaNotBijective(f"delta {off or 'is not a bijection onto the additive carrier'}")
    if spec.delta[0] != 0:
        raise TranscriptionInvalid(
            f"delta must send the identity to 0, got {spec.delta[0]}")
    ta, tm = add.table, mul.table
    # Additivity at x, compatibility at c and then the cocycle identity at d
    # are closed under + or products, so x, c and d run over generating sets.
    for c, p in enumerate(spec.acting):
        fault = _automorphism_fault(add, p)
        if fault:
            raise TranscriptionInvalid(f"acting map of element {c} {fault}")
    acting = [tuple(p) for p in spec.acting]
    for c in generating_set(mul):
        pc = acting[c]
        for d in range(n):
            if acting[tm[c][d]] != tuple(pc[v] for v in acting[d]):
                raise ActionNotHomomorphism(
                    f"acting map of {c} {d} differs from composing the maps")
    for d in generating_set(mul):
        for c in range(n):
            if spec.delta[tm[c][d]] != ta[spec.delta[c]][acting[c][spec.delta[d]]]:
                raise CocycleIdentityViolation(
                    f"delta({c} {d}) != delta({c}) + lambda({c})(delta({d}))")
    return _brace(add, _group(_relabel(tm, spec.delta)), name)


def quotient_brace(B: SkewBrace, ideal_elems: Sequence[int],
                   name: Optional[str] = None) -> tuple[SkewBrace, list[int]]:
    """Quotient by an ideal; returns the brace and the coset index map.

    Once the ideal I is lambda-invariant, b I = b + lambda_b(I) = b + I for
    every b, so the multiplicative cosets are the additive ones and both
    quotient tables are well defined on them.
    """
    inside = _subset(B.order, ideal_elems)
    if 0 not in inside:
        raise MissingZero("an ideal must contain 0")
    fault = _ideal_fault(B, inside)
    if fault:
        raise NotAnIdeal(fault)
    coset_of, reps = _cosets(B.add_group, inside)
    add, mul = (_group(_induced(G.table, reps, coset_of)) for G in (B.add_group, B.mul_group))
    return _brace(add, mul, name), coset_of


def _ideal_fault(B: SkewBrace, inside: set[int]) -> Optional[str]:
    """Why `inside`, holding 0, is not an ideal of B, naming the witness, or
    None: lambda-invariant and normal in both groups, closed under + and so
    under products, ij = i + lam_i(j); all proven by `groups._escape`."""
    gens = generating_set(B.mul_group)
    w = _escape(inside, maps=[B.lam_table[g] for g in gens])
    if w:
        return f"subset not invariant under lambda of {gens[w[0]]}"
    for label, G, table in (("additive", B.add_group, B.add_group.table),
                            ("multiplicative", B.mul_group, None)):
        fault = _normal_fault(G, inside, table)
        if fault:
            return f"{label} group: {fault}"
    return None


def sub_brace(B: SkewBrace, elements: Sequence[int],
              name: Optional[str] = None) -> SkewBrace:
    """The brace induced on a subset closed under both operations.

    Elements are relabeled in ascending order, so position k of the sorted
    subset becomes element k.
    """
    inside = _subset(B.order, elements)
    if 0 not in inside:
        raise MissingZero("a subbrace must contain 0")
    for G, op in ((B.add_group, "addition"), (B.mul_group, "multiplication")):
        w = _escape(inside, G.table)
        if w:
            raise NotClosed(f"subset not closed under {op} at ({w[0]}, {w[1]})")
    elems = tuple(sorted(inside))
    pos = {x: i for i, x in enumerate(elems)}
    add, mul = (_group(_induced(G.table, elems, pos)) for G in (B.add_group, B.mul_group))
    return _brace(add, mul, name)


def semidirect_group(B: SkewBrace, name: Optional[str] = None) -> FiniteGroup:
    """The group on pairs (x, g) with (x1,g1)(x2,g2) = (x1 + lam_g1(x2), g1 g2).

    The additive group is twisted by the lambda action of the multiplicative
    group; pairs flatten as index = x * order + g.
    """
    return _twisted(B.add_group, B.mul_group, B.lam_table,
                    name or (B.name and f"semi({B.name})"))


def direct_product_braces(B1: SkewBrace, B2: SkewBrace,
                          name: Optional[str] = None) -> SkewBrace:
    """Componentwise brace on pairs, flattened like the group product."""
    add = direct_product(B1.add_group, B2.add_group)
    mul = direct_product(B1.mul_group, B2.mul_group)
    return _brace(add, mul, name)
