"""Exception types shared across the package, and its one prime check.

Everything raised on purpose derives from :class:`TwistlabError`, so callers
(and the CLI) can distinguish domain errors from genuine bugs with a single
``except`` clause.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt


class TwistlabError(Exception):
    """Base class for all deliberate errors raised by this package."""


class NonPartitionDifference(TwistlabError):
    """Subtracting partitions row-wise left a sequence that is not a partition."""


class NotDistinctParts(TwistlabError):
    """An operation needed all nonzero parts distinct, and they were not."""


class Overflow(TwistlabError):
    """An arithmetic result left the safe integer range for array kernels."""


class TooFewBeads(TwistlabError):
    """An abacus display was requested with fewer beads than the partition has rows."""


class NotPRegular(TwistlabError):
    """A p-regular partition was required (no part repeated p or more times)."""


class NotPRestricted(TwistlabError):
    """A p-restricted partition was required (successive differences below p)."""


class InvalidSymbol(TwistlabError):
    """A two-row symbol violated the defining inequalities for its prime."""


class NoInsertion(TwistlabError):
    """No valid rim insertion exists with the requested endpoint row and size."""


class NotTwoPart(TwistlabError):
    """A two-part partition (lambda_1, lambda_2) was required."""


class EqualSizeRequired(TwistlabError):
    """Both partitions must partition the same integer for this computation."""


class NotPrime(TwistlabError):
    """A prime was required and the given number is not one."""


class PrimeTooSmall(TwistlabError):
    """The criterion is stated only for primes strictly larger than this one."""


class HypothesisViolated(TwistlabError, ValueError):
    """Input failed a stated hypothesis of the formula being evaluated.

    Also a ValueError, so callers that caught the bare ValueError it replaced
    (a prime below 2, a negative degree or part, an empty twist range) still do.
    """


class CongruenceViolated(TwistlabError):
    """A congruence the construction relies on does not hold for this input."""


class TooLarge(TwistlabError):
    """The request exceeds a configured budget: a module's dimension or a map's rim steps."""


class SizeMismatch(TwistlabError):
    """Array or partition sizes disagree where equality is required."""


class Inconclusive(TwistlabError):
    """The randomized splitting test neither found a splitting nor ruled one out."""


@lru_cache(maxsize=64)  # every symbol, map and Specht module checks its prime
def check_prime(p: int) -> None:
    """Raise NotPrime unless p is prime: the Mullineux map, the criteria and Specht modules need it."""
    if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise NotPrime(f"{p} is not prime")
