"""Four embedded worked examples, each rebuilt from the paper's own data.

An example is given as its lambda/delta presentation (Guarnieri &
Vendramin, Math. Comp. 86, 2017): the additive and multiplicative groups,
lambda on the multiplicative generators as images of the additive
generators written as words, and delta as a table indexed by words in the
multiplicative generators.  lambda is a homomorphism, so its images of the
generators fix it; `brace_from_cocycle` proves the extended action and the
cocycle.  Each example also carries named subsets and a registry of named
claims evaluated against the other modules.  The subsets are written on the
additive carrier, where ia + jb of C4 x C2 or C12 x C2 is 2i + j and the
bits of C2^5 are a=16, b=8, c=4, d=2, e=1.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from typing import Callable, NamedTuple, Sequence

from .braces import CocycleSpec, SkewBrace, brace_from_cocycle, sub_brace
from .classify import is_supersoluble
from .errors import SkewBraceError
from .groups import (
    FiniteGroup,
    _compose,
    _dihedral,
    closure,
    cyclic_extension,
    cyclic_group,
    direct_product,
    element_orders,
    group_isomorphism,
    is_nilpotent_group,
)
from .series import (
    derived_ideal,
    fitting,
    is_centrally_nilpotent,
    multipermutation_level,
    socle,
    socle_series,
)
from .substructure import all_ideals, all_subbraces, classify_subset, index, maximal_subbraces

__all__ = [
    "Claim",
    "PaperExample",
    "example_names",
    "build",
    "verify_claims",
]


class Claim(NamedTuple):
    """One named, self-contained boolean check on a built example."""

    name: str
    description: str
    check: Callable[["PaperExample"], bool]


class PaperExample(NamedTuple):
    """A worked example: cocycle data, the built brace, named subsets, claims."""

    name: str
    spec: CocycleSpec
    brace: SkewBrace
    subsets: dict[str, tuple[int, ...]]
    claims: tuple[Claim, ...]


def example_names() -> tuple[str, ...]:
    return ("ex8", "ex12", "ex24", "ex32")


def _word(table: Sequence[Sequence[int]], gens: Sequence[int],
          exponents: Sequence[int]) -> int:
    """The element g_1^e_1 g_2^e_2 .. of a group table, gens = (g_1, g_2, ..)."""
    x = 0
    for g, e in zip(gens, exponents):
        for _ in range(e):
            x = table[x][g]
    return x


def _linear(G: FiniteGroup, gens: Sequence[int],
            image_words: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The endomorphism of the abelian group G, with basis `gens`, sending
    gens[k] to the element that image_words[k] names: sum e_k g_k goes to
    sum e_k f(g_k).  `brace_from_cocycle` and `cyclic_extension` prove it an
    automorphism."""
    images = [_word(G.table, gens, w) for w in image_words]
    out = [0] * G.order
    for e in product(*(range(element_orders(G)[g]) for g in gens)):
        out[_word(G.table, gens, e)] = _word(G.table, images, e)
    return tuple(out)


def _spec(add: FiniteGroup, mul: FiniteGroup, gens: Sequence[int],
          maps: Sequence[Sequence[int]], delta_by_word: dict) -> CocycleSpec:
    """The cocycle data of a table of delta by words in the generators `gens`
    of `mul`: the word names an element c, lambda_c is the generators' `maps`
    composed along it, and delta(c) is the table's value.  An element no word
    names keeps None, which `brace_from_cocycle` rejects, naming it."""
    acting, delta = [None] * mul.order, [None] * mul.order
    for w, value in delta_by_word.items():
        c = _word(mul.table, gens, w)
        letters = [m for m, e in zip(maps, w) for _ in range(e)]
        acting[c] = reduce(_compose, letters, tuple(range(add.order)))
        delta[c] = value
    return CocycleSpec(add, mul, tuple(acting), tuple(delta))


def _local(parent_elems: tuple[int, ...], subset) -> tuple[int, ...]:
    """Translate a parent-level subset into sub-brace positions."""
    pos = {e: i for i, e in enumerate(sorted(parent_elems))}
    return tuple(sorted(pos[e] for e in subset))


def _sub(ex: PaperExample, key: str) -> SkewBrace:
    return sub_brace(ex.brace, ex.subsets[key], name=f"{ex.name}.{key}")


def _iso(G: FiniteGroup, H: FiniteGroup) -> bool:
    return group_isomorphism(G, H) is not None


# ---------------------------------------------------------------- order 8

def _build_ex8() -> tuple[CocycleSpec, dict[str, tuple[int, ...]]]:
    """Additive C4 x C2 = <a, b> = <2, 1>, multiplicative D8 = <x, y> =
    <2, 1>, x a rotation and y a reflection."""
    add = direct_product(cyclic_group(4), cyclic_group(2), name="C4xC2")
    mul = _dihedral(4, "D8")
    a_b = (2, 1)
    lam_x = _linear(add, a_b, ((3, 1), (2, 1)))
    lam_y = _linear(add, a_b, ((3, 1), (0, 1)))
    delta_by_word = {
        (0, 0): 0, (1, 0): 2, (2, 0): 1, (3, 0): 7,
        (0, 1): 4, (1, 1): 6, (2, 1): 5, (3, 1): 3,
    }
    subsets = {"maximal": (0, 1, 4, 5)}
    return _spec(add, mul, (2, 1), (lam_x, lam_y), delta_by_word), subsets


_EX8_CLAIMS = (
    Claim("additive_type", "the carrier group decomposes as C4 x C2",
          lambda ex: _iso(ex.brace.add_group,
                          direct_product(cyclic_group(4), cyclic_group(2)))),
    Claim("multiplicative_type", "the product group is dihedral of order 8",
          lambda ex: _iso(ex.brace.mul_group, _dihedral(4, "D8"))),
    Claim("not_supersoluble", "no chain of ideals with prime-order steps exists",
          lambda ex: not is_supersoluble(ex.brace).supersoluble),
    Claim("unique_maximal_subbrace", "exactly one maximal subbrace, {0, b, 2a, 2a+b}",
          lambda ex: maximal_subbraces(ex.brace) == [ex.subsets["maximal"]]),
    Claim("maximal_prime_index", "that maximal subbrace has index 2",
          lambda ex: index(ex.brace, ex.subsets["maximal"]) == 2),
    Claim("small_subbraces_covered", "every 2-element subbrace lies in the maximal one",
          lambda ex: all(
              set(s) <= set(ex.subsets["maximal"])
              for s in all_subbraces(ex.brace) if len(s) == 2)),
    Claim("no_prime_order_ideal", "no 2-element subbrace is an ideal, so no prime chain starts",
          lambda ex: all(
              not classify_subset(ex.brace, s).is_ideal
              for s in all_subbraces(ex.brace) if len(s) == 2)),
)


# --------------------------------------------------------------- order 12

def _build_ex12() -> tuple[CocycleSpec, dict[str, tuple[int, ...]]]:
    """Additive C12 = <a> = <1>, multiplicative D12 = <x, y> = <2, 1>, x a
    rotation and y a reflection; x acts as a -> 7a, y as a -> 5a."""
    add = cyclic_group(12)
    mul = _dihedral(6, "D12")
    lam_x = _linear(add, (1,), ((7,),))
    lam_y = _linear(add, (1,), ((5,),))
    delta_by_word = {
        (0, 0): 0, (1, 0): 5, (2, 0): 4, (3, 0): 9, (4, 0): 8, (5, 0): 1,
        (0, 1): 6, (1, 1): 11, (2, 1): 10, (3, 1): 3, (4, 1): 2, (5, 1): 7,
    }
    subsets = {
        "socle": (0, 4, 8),
        "socle2": (0, 2, 4, 6, 8, 10),
        "star_span": (0, 2, 4, 6, 8, 10),
    }
    return _spec(add, mul, (2, 1), (lam_x, lam_y), delta_by_word), subsets


_EX12_CLAIMS = (
    Claim("additive_type", "the carrier group is cyclic of order 12",
          lambda ex: _iso(ex.brace.add_group, cyclic_group(12))),
    Claim("multiplicative_type", "the product group is dihedral of order 12",
          lambda ex: _iso(ex.brace.mul_group, _dihedral(6, "D12"))),
    Claim("supersoluble", "a chain of ideals with prime-order steps reaches the top",
          lambda ex: is_supersoluble(ex.brace).supersoluble),
    Claim("socle_is_4a", "the socle is the order-3 subgroup generated by 4a",
          lambda ex: socle(ex.brace) == ex.subsets["socle"]),
    Claim("socle_chain", "socle terms grow 1 | 3 | 6 | 12, so the level is 3",
          lambda ex: socle_series(ex.brace).orders() == (1, 3, 6, 12)
          and multipermutation_level(ex.brace) == 3),
    Claim("star_span_is_2a", "the star products generate the even part",
          lambda ex: derived_ideal(ex.brace) == ex.subsets["star_span"]),
    Claim("star_mult_group_sym3", "the star part carries a product group of symmetric type",
          lambda ex: _iso(_sub(ex, "star_span").mul_group, _dihedral(3, "S3"))
          and not is_nilpotent_group(_sub(ex, "star_span").mul_group)),
    Claim("star_part_not_centrally_nilpotent",
          "the star part has trivial center as a brace, so no central chain",
          lambda ex: not is_centrally_nilpotent(_sub(ex, "star_span"))),
)


# --------------------------------------------------------------- order 24

def _build_ex24() -> tuple[CocycleSpec, dict[str, tuple[int, ...]]]:
    """Additive C12 x C2 = <a, b> = <2, 1>, multiplicative S3 x C2 x C2 =
    <x, y, z, t> = <8, 4, 2, 1>, x a rotation and y a reflection of S3.

    One table cell reads "10+b" in the source and is completed to 10a+b,
    the only bijective choice.
    """
    add = direct_product(cyclic_group(12), cyclic_group(2), name="C12xC2")
    s3 = _dihedral(3, "S3")
    mul = direct_product(direct_product(s3, cyclic_group(2)), cyclic_group(2),
                         name="S3xC2xC2")
    a_b = (2, 1)
    maps = (
        _linear(add, a_b, ((1, 0), (0, 1))),
        _linear(add, a_b, ((5, 0), (0, 1))),
        _linear(add, a_b, ((7, 0), (0, 1))),
        _linear(add, a_b, ((7, 0), (6, 1))),
    )
    delta_by_word = {
        (0, 0, 0, 0): 0, (1, 0, 0, 0): 16, (2, 0, 0, 0): 8,
        (0, 1, 0, 0): 12, (1, 1, 0, 0): 4, (2, 1, 0, 0): 20,
        (0, 0, 1, 0): 1, (1, 0, 1, 0): 17, (2, 0, 1, 0): 9,
        (0, 1, 1, 0): 13, (1, 1, 1, 0): 5, (2, 1, 1, 0): 21,
        (0, 0, 0, 1): 6, (1, 0, 0, 1): 22, (2, 0, 0, 1): 14,
        (0, 1, 0, 1): 18, (1, 1, 0, 1): 10, (2, 1, 0, 1): 2,
        (0, 0, 1, 1): 19, (1, 0, 1, 1): 11, (2, 0, 1, 1): 3,
        (0, 1, 1, 1): 7, (1, 1, 1, 1): 23, (2, 1, 1, 1): 15,
    }
    b, two_a, four_a = 1, 4, 8
    subsets = {
        "socle": (0, 8, 16),
        "socle2": (0, 4, 8, 12, 16, 20),
        "I": closure(add, (two_a, b)),
        "fit_I": closure(add, (four_a, b)),
    }
    return _spec(add, mul, (8, 4, 2, 1), maps, delta_by_word), subsets


def _ex24_fitting_matches(ex: PaperExample) -> bool:
    inner = _sub(ex, "I")
    fit = fitting(inner).elements
    lifted = tuple(sorted(ex.subsets["I"])[x] for x in fit)
    return lifted == ex.subsets["fit_I"]


_EX24_CLAIMS = (
    Claim("additive_type", "the carrier group decomposes as C12 x C2",
          lambda ex: _iso(ex.brace.add_group,
                          direct_product(cyclic_group(12), cyclic_group(2)))),
    Claim("multiplicative_type", "the product group decomposes as S3 x C2 x C2",
          lambda ex: _iso(ex.brace.mul_group,
                          direct_product(direct_product(_dihedral(3, "S3"),
                                                        cyclic_group(2)),
                                         cyclic_group(2)))),
    Claim("supersoluble", "a chain of ideals with prime-order steps reaches the top",
          lambda ex: is_supersoluble(ex.brace).supersoluble),
    Claim("socle_is_4a", "the socle is the order-3 subgroup generated by 4a",
          lambda ex: socle(ex.brace) == ex.subsets["socle"]),
    Claim("socle_chain", "socle terms grow 1 | 3 | 6 | 24, so the level is 3",
          lambda ex: socle_series(ex.brace).orders() == (1, 3, 6, 24)
          and multipermutation_level(ex.brace) == 3),
    Claim("I_is_ideal", "the subgroup generated by 2a and b is an ideal",
          lambda ex: classify_subset(ex.brace, ex.subsets["I"]).is_ideal),
    Claim("I_mult_group_dihedral", "that ideal carries a dihedral product group of order 12",
          lambda ex: _iso(_sub(ex, "I").mul_group, _dihedral(6, "D12"))
          and not is_nilpotent_group(_sub(ex, "I").mul_group)),
    Claim("I_not_centrally_nilpotent", "so the ideal has no central chain of its own",
          lambda ex: not is_centrally_nilpotent(_sub(ex, "I"))),
    Claim("fitting_of_I", "the largest well-behaved ideal of I is generated by 4a and b",
          _ex24_fitting_matches),
    Claim("fitting_not_lambda_invariant",
          "that subset is not action-invariant in the big brace, hence no ideal there",
          lambda ex: not classify_subset(ex.brace, ex.subsets["fit_I"]).is_left_ideal
          and not classify_subset(ex.brace, ex.subsets["fit_I"]).is_ideal),
)


# --------------------------------------------------------------- order 32

def _build_ex32() -> tuple[CocycleSpec, dict[str, tuple[int, ...]]]:
    """Additive C2^5 = <a, b, c, d, e> = <16, 8, 4, 2, 1>, multiplicative
    (C4 x C4) : C2 = <x, y, z> = <8, 2, 1> with z x z^-1 = x^3 y^2 and
    z y z^-1 = x^2 y.  An image of lambda is a word in a..e, the source's
    bit mask."""
    c2 = cyclic_group(2)
    add = direct_product(
        direct_product(direct_product(direct_product(c2, c2), c2), c2), c2,
        name="C2^5",
    )
    c4c4 = direct_product(cyclic_group(4), cyclic_group(4))
    twist = _linear(c4c4, (4, 1), ((3, 2), (2, 1)))
    mul = cyclic_extension(c4c4, twist, 0, 2, name="(C4xC4):C2")
    abcde = (16, 8, 4, 2, 1)
    lam_x = _linear(add, abcde, ((0, 0, 1, 1, 1), (0, 0, 1, 0, 1), (1, 0, 1, 0, 0),
                                 (1, 1, 0, 0, 0), (1, 1, 1, 0, 0)))
    lam_y = _linear(add, abcde, ((1, 0, 0, 0, 0), (1, 0, 1, 0, 1), (1, 1, 1, 1, 0),
                                 (0, 1, 0, 0, 0), (1, 0, 0, 0, 1)))
    lam_z = _linear(add, abcde, ((1, 0, 0, 0, 0), (0, 1, 1, 1, 1), (1, 1, 1, 1, 0),
                                 (0, 0, 1, 0, 1), (1, 1, 1, 0, 0)))
    delta_by_word = {
        (0, 0, 0): 0, (1, 0, 0): 20, (2, 0, 0): 7, (3, 0, 0): 4,
        (0, 1, 0): 21, (1, 1, 0): 27, (2, 1, 0): 18, (3, 1, 0): 11,
        (0, 2, 0): 10, (1, 2, 0): 9, (2, 2, 0): 13, (3, 2, 0): 25,
        (0, 3, 0): 8, (1, 3, 0): 17, (2, 3, 0): 15, (3, 3, 0): 1,
        (0, 0, 1): 16, (1, 0, 1): 19, (2, 0, 1): 23, (3, 0, 1): 3,
        (0, 1, 1): 5, (1, 1, 1): 28, (2, 1, 1): 2, (3, 1, 1): 12,
        (0, 2, 1): 26, (1, 2, 1): 14, (2, 2, 1): 29, (3, 2, 1): 30,
        (0, 3, 1): 24, (1, 3, 1): 22, (2, 3, 1): 31, (3, 3, 1): 6,
    }
    subsets = {
        "I": closure(add, (16, 4, 10, 9)),
        "J": closure(add, (16, 8, 2, 5)),
        "K": closure(add, (16, 12, 10, 1)),
        "L": closure(add, (16, 10, 13)),
        "L2": closure(add, (26, 13)),
        "L3": closure(add, (13,)),
    }
    return _spec(add, mul, (8, 2, 1), (lam_x, lam_y, lam_z), delta_by_word), subsets


def _ex32_ideals_exact(ex: PaperExample) -> bool:
    expected = {
        (0,),
        ex.subsets["I"], ex.subsets["J"], ex.subsets["K"], ex.subsets["L"],
        tuple(range(32)),
    }
    return set(all_ideals(ex.brace)) == expected


def _ex32_sum_full(ex: PaperExample) -> bool:
    combined = set(ex.subsets["I"]) | set(ex.subsets["J"])
    return len(closure(ex.brace.add_group, combined)) == 32


def _ideals_of(ex: PaperExample, outer: str, *keys: str) -> bool:
    """Whether the named subsets are ideals of the subbrace named `outer`."""
    inner = _sub(ex, outer)
    return all(classify_subset(inner, _local(ex.subsets[outer], ex.subsets[key])).is_ideal
               for key in keys)


_EX32_CLAIMS = (
    Claim("additive_type", "the carrier group is elementary abelian of order 32",
          lambda ex: ex.brace.add_group.is_abelian()
          and all(ex.brace.add_group.table[v][v] == 0 for v in range(32))),
    Claim("multiplicative_type", "the product group is the stated order-32 semidirect product",
          lambda ex: _iso(ex.brace.mul_group, ex.spec.multiplicative)
          and not ex.brace.mul_group.is_abelian()),
    Claim("proper_ideals_exactly", "the proper nonzero ideals are the three 16s and one 8",
          _ex32_ideals_exact),
    Claim("sum_of_I_and_J_is_everything", "the two order-16 ideals add up to the whole brace",
          _ex32_sum_full),
    Claim("star_span_is_L", "the star products generate exactly the order-8 ideal",
          lambda ex: derived_ideal(ex.brace) == ex.subsets["L"]),
    Claim("I_supersoluble", "the first order-16 ideal is supersoluble on its own",
          lambda ex: is_supersoluble(_sub(ex, "I")).supersoluble),
    Claim("J_supersoluble", "the second order-16 ideal is supersoluble on its own",
          lambda ex: is_supersoluble(_sub(ex, "J")).supersoluble),
    Claim("not_supersoluble", "the whole brace admits no prime-step chain of ideals",
          lambda ex: not is_supersoluble(ex.brace).supersoluble),
    Claim("L_centrally_nilpotent", "the order-8 ideal has a full central chain of its own",
          lambda ex: is_centrally_nilpotent(_sub(ex, "L"))),
    Claim("L_chain_ideals_of_I", "L and its two shrinkages are ideals of the first 16",
          lambda ex: _ideals_of(ex, "I", "L", "L2", "L3")),
    Claim("L_ideal_of_J", "L is an ideal of the second 16 as well",
          lambda ex: _ideals_of(ex, "J", "L")),
)


_BUILDERS = {
    "ex8": (_build_ex8, _EX8_CLAIMS),
    "ex12": (_build_ex12, _EX12_CLAIMS),
    "ex24": (_build_ex24, _EX24_CLAIMS),
    "ex32": (_build_ex32, _EX32_CLAIMS),
}

_CACHE: dict[str, PaperExample] = {}


def build(name: str) -> PaperExample:
    """Construct (and cache) one worked example by name."""
    if name not in _BUILDERS:
        raise SkewBraceError(
            f"unknown example {name!r}, expected one of {', '.join(example_names())}"
        )
    if name not in _CACHE:
        builder, claims = _BUILDERS[name]
        spec, subsets = builder()
        brace = brace_from_cocycle(spec, name=name)
        _CACHE[name] = PaperExample(
            name=name, spec=spec, brace=brace, subsets=subsets, claims=claims,
        )
    return _CACHE[name]


def verify_claims(name: str) -> list[tuple[str, bool]]:
    """Evaluate every named claim of one example."""
    ex = build(name)
    return [(claim.name, bool(claim.check(ex))) for claim in ex.claims]
