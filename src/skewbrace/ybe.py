"""Set-theoretic Yang-Baxter solutions attached to braces, with retraction.

A brace yields r(x,y) = (lam_x(y), lam_x(y)^-1 x y) on its carrier.  For
every skew brace this is a non-degenerate bijective solution (Guarnieri &
Vendramin, Math. Comp. 86, 2017), and the brace was proven when it was
built, so the solution is valid by theorem and is not re-checked.
`verify_solution` is the exhaustive check for solutions a user supplies,
and `retract`, `retraction_sizes` and `retraction_level` retract them; all
four check the tables at their entry (`_check_tables`).

The retraction of a brace's solution is read off its socle series instead,
by this theorem, the skew-brace form of Rump's for braces (J. Algebra 307,
2007): the k-th retraction of r_B is r_{B/Soc_k(B)}, with |B/Soc_k(B)|
points.  Write x' for the multiplicative inverse of x.  Soc(B) is
ker lam & Z(B,+), the first term of `series.socle_series`.  Retraction
identifies x and y when sigma_x = sigma_y and tau_x = tau_y, where
sigma_x = lam_x and tau_x(z) = r2(z, x) = lam_z(x)' z x, column x of r2.
Put s = x'y.
1. sigma_y = lam_x lam_s equals sigma_x exactly when s is in ker lam.
2. Let s be in ker lam and t = tau_x(z).  Expanding
   lam_z(xs) = lam_z(x) + lam_{zx}(s) gives: tau_{xs}(z) = tau_x(z) exactly
   when lam_t(s) = t s t' = t + lam_t(s) - t.  Applying lam_t^-1, this holds
   exactly when s commutes additively with lam_t^-1(t) = -t'.
3. tau_x is a bijection, as r_B is non-degenerate (Guarnieri & Vendramin),
   so t runs over all of B, and tau_x = tau_y exactly when s is in Z(B,+).
4. So the retraction classes are the cosets x Soc(B) = x + Soc(B) of the
   ideal Soc(B).  The quotient map f is a brace homomorphism, so
   (f x f) r_B = r_{B/Soc(B)} (f x f), and Ret(r_B) = r_{B/Soc(B)}.
   Soc(B/Soc_k(B)) is Soc_{k+1}(B)/Soc_k(B), so by induction the k-th
   retraction is r_{B/Soc_k(B)}, and the chain stalls exactly where the
   socle series does.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Optional

from .braces import SkewBrace
from .errors import NotClosed, RetractNotWellDefined, SolutionInvalid
from .groups import _check_closure, _length, _row_getter

__all__ = [
    "SolutionChecks",
    "Solution",
    "verify_solution",
    "solution_from_brace",
    "retract",
    "retraction_sizes",
    "retraction_level",
]


class SolutionChecks(NamedTuple):
    """Outcome of the three exhaustive solution checks."""

    braid: bool
    bijective: bool
    nondegenerate: bool

    def all_ok(self) -> bool:
        return self.braid and self.bijective and self.nondegenerate


class Solution(NamedTuple):
    """A map r(x,y) = (r1[x][y], r2[x][y]) on {0..n-1}^2."""

    size: int
    r1: tuple[tuple[int, ...], ...]
    r2: tuple[tuple[int, ...], ...]

    def apply(self, x: int, y: int) -> tuple[int, int]:
        return self.r1[x][y], self.r2[x][y]


def _braid_holds(n: int, r1, r2) -> bool:
    """Whether (r x id)(id x r)(r x id) = (id x r)(r x id)(id x r) on every
    triple (x, y, z), examined in order until the first failure.

    For each (x, y), r(x, y) = (a, b) and the rows of a, b and y are looked
    up once, outside the z loop.  With (p, q) = r(b, z), (c, d) = r(y, z)
    and (s, t) = r(x, c), the left side is (r1[a][p], r2[a][p], q) and the
    right side (s, r1[t][d], r2[t][d]).
    """
    for x in range(n):
        r1x, r2x = r1[x], r2[x]
        for y in range(n):
            a, b = r1x[y], r2x[y]
            r1a, r2a, r1b, r2b, r1y, r2y = r1[a], r2[a], r1[b], r2[b], r1[y], r2[y]
            for z in range(n):
                p = r1b[z]
                c, d = r1y[z], r2y[z]
                t = r2x[c]
                if r1a[p] != r1x[c] or r2a[p] != r1[t][d] or r2b[z] != r2[t][d]:
                    return False
    return True


def _check_tables(size: int, r1, r2) -> None:
    """Raise SolutionInvalid unless the size is an int, not a bool, and r1
    and r2 are size x size tables over 0..size-1."""
    if not isinstance(size, int) or isinstance(size, bool):
        raise SolutionInvalid(f"solution size must be an int, got {size!r}")
    for label, table in (("r1", r1), ("r2", r2)):
        try:
            if _length(table, "table") != size:
                raise SolutionInvalid(f"{label} has {len(table)} rows, expected {size}")
            _check_closure(table)
        except NotClosed as exc:
            raise SolutionInvalid(f"{label}: {exc}") from None


def verify_solution(size: int, r1, r2) -> SolutionChecks:
    """Check braid relation, pair bijectivity and both non-degeneracies;
    a size or tables that `_check_tables` rejects raise SolutionInvalid."""
    _check_tables(size, r1, r2)
    n = size
    # Every entry is now an int in 0..n-1, so n distinct entries in a row or
    # column make it a permutation, and n*n distinct pairs make r bijective.
    pairs = zip(chain.from_iterable(r1), chain.from_iterable(r2))
    bijective = len(set(pairs)) == n * n
    left = all(len(set(row)) == n for row in r1)
    right = all(len(set(column)) == n for column in zip(*r2))
    return SolutionChecks(braid=_braid_holds(n, r1, r2), bijective=bijective,
                          nondegenerate=left and right)


def solution_from_brace(B: SkewBrace) -> Solution:
    """The solution r(x,y) = (lam_x(y), lam_x(y)^-1 x y) of the brace carrier,
    valid by theorem."""
    lam = B.lam_table
    mul = B.mul_group.table
    mul_by_inverse = [mul[u] for u in B.mul_group.inverse]
    r2 = tuple(tuple([mul_by_inverse[u][v] for u, v in zip(lam_x, mul_x)])
               for lam_x, mul_x in zip(lam, mul))
    return Solution(size=B.order, r1=lam, r2=r2)


def retract(S: Solution) -> tuple[Solution, list[int]]:
    """Identify points with equal left-action row and right-action column,
    and map each point to its class; tables that `_check_tables` rejects
    raise SolutionInvalid."""
    _check_tables(S.size, S.r1, S.r2)
    return _retract(S)


def _retract(S: Solution) -> tuple[Solution, list[int]]:
    """`retract` of checked tables.

    Once r is checked to respect the classes, the quotient of a solution
    is a solution, so it is not re-verified.  Row x of class labels of r1
    and r2 is compared whole with its class's rows read back through the
    labels; only a row that differs is scanned, to name the first pair."""
    reps: dict[tuple, int] = {}
    class_of = [reps.setdefault(sig, len(reps)) for sig in zip(map(tuple, S.r1), zip(*S.r2))]
    member = [class_of.index(c) for c in range(len(reps))]
    labels1 = [_row_getter(row)(class_of) for row in S.r1]
    labels2 = [_row_getter(row)(class_of) for row in S.r2]
    at_members = _row_getter(member)
    r1 = tuple(at_members(labels1[x]) for x in member)
    r2 = tuple(at_members(labels2[x]) for x in member)
    spread = _row_getter(class_of)
    for x, c in enumerate(class_of):
        if labels1[x] != spread(r1[c]) or labels2[x] != spread(r2[c]):
            for y, d in enumerate(class_of):
                if r1[c][d] != labels1[x][y] or r2[c][d] != labels2[x][y]:
                    raise RetractNotWellDefined(
                        f"pair ({x},{y}) disagrees with the class representatives")
    return Solution(len(member), r1, r2), class_of


def retraction_sizes(S: Solution) -> list[int]:
    """Sizes along the retraction chain from S itself: the list ends at 1,
    or at the size where a retraction identifies no points.  The tables
    are checked once, here: a retraction of checked tables is checked."""
    _check_tables(S.size, S.r1, S.r2)
    sizes = [S.size]
    current = S
    while current.size > 1:
        current, _ = _retract(current)
        if current.size == sizes[-1]:
            break
        sizes.append(current.size)
    return sizes


def retraction_level(S: Solution) -> Optional[int]:
    """Retractions needed to reach one point, or None if the size stalls."""
    sizes = retraction_sizes(S)
    return len(sizes) - 1 if sizes[-1] == 1 else None
