"""Exception types raised by table validation and structure construction."""

from __future__ import annotations

__all__ = [
    "SkewBraceError",
    "GroupInvalid",
    "NotClosed",
    "NoIdentity",
    "NonAssociative",
    "MissingInverse",
    "ActionNotHomomorphism",
    "OrderBoundExceeded",
    "BraceInvalid",
    "IdentityMismatch",
    "DistributivityViolation",
    "CocycleInvalid",
    "CocycleIdentityViolation",
    "DeltaNotBijective",
    "TranscriptionInvalid",
    "NotAnIdeal",
    "MissingZero",
    "SolutionInvalid",
    "RetractNotWellDefined",
    "ParseError",
]


class SkewBraceError(Exception):
    """Base class for every error raised by this package."""


class GroupInvalid(SkewBraceError):
    """A Cayley table fails one of the group axioms."""


class NotClosed(GroupInvalid):
    """A table entry, or an element of a subset passed in, falls outside
    the element range."""


class NoIdentity(GroupInvalid):
    """No element acts as a two-sided identity."""


class NonAssociative(GroupInvalid):
    """Associativity fails; the message names a witnessing triple."""


class MissingInverse(GroupInvalid):
    """Some element has no two-sided inverse."""


class ActionNotHomomorphism(SkewBraceError):
    """A claimed action map does not respect multiplication."""


class OrderBoundExceeded(SkewBraceError):
    """An operation was asked to run above its configured order bound."""


class BraceInvalid(SkewBraceError):
    """A pair of group tables fails the skew brace axioms."""


class IdentityMismatch(BraceInvalid):
    """The additive and multiplicative identities disagree."""


class DistributivityViolation(BraceInvalid):
    """a(b+c) != ab - a + ac; the message names the witnessing triple."""


class CocycleInvalid(SkewBraceError):
    """Base class for bijective 1-cocycle validation failures."""


class CocycleIdentityViolation(CocycleInvalid):
    """delta(cd) != delta(c) + lambda_c(delta(d)) for some pair."""


class DeltaNotBijective(CocycleInvalid):
    """The transcribed delta table is not a bijection."""


class TranscriptionInvalid(CocycleInvalid):
    """Transcribed cocycle data is internally inconsistent."""


class NotAnIdeal(SkewBraceError):
    """A subset passed where an ideal is required is not one."""


class MissingZero(SkewBraceError):
    """A subset passed to a structure query does not contain 0."""


class SolutionInvalid(SkewBraceError):
    """A claimed set-theoretic solution fails verification."""


class RetractNotWellDefined(SkewBraceError):
    """The retraction tables disagree on equivalent inputs."""


class ParseError(SkewBraceError):
    """A document failed to parse; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
