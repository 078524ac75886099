"""Exception types shared across the package, its one prime check and its one modulus check.

Everything raised on purpose derives from :class:`TwistlabError`, so callers
(and the CLI) can distinguish domain errors from genuine bugs with a single
``except`` clause.
"""

from __future__ import annotations

from functools import lru_cache


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
    """The request passes a budget: a degree, tabloids, rows, beads, a run's rim
    or row steps, a hook's leg, End's idempotent search, a scan's cases, a
    symbol's written-out columns, or p >= 2^64."""


class SizeMismatch(TwistlabError):
    """Array or partition sizes disagree where equality is required."""


def check_modulus(p: int) -> None:
    """Raise HypothesisViolated unless p >= 2: runners, p-regularity and base-p levels need it."""
    if p < 2:
        raise HypothesisViolated("p must be at least 2")


# Miller-Rabin with these bases is exact below 3.18e23 (Sorenson and Webster,
# Math. Comp. 86 (2017), 985-1003), so for every p < 2^64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=64)  # every symbol, map and Specht module checks its prime
def check_prime(p: int) -> None:
    """Raise NotPrime unless p is prime: the Mullineux map, criteria and Specht modules need it.

    A deterministic Miller-Rabin test, so its time is bounded by the bit
    length of p; p >= 2^64 is refused with TooLarge.
    """
    if p >= 2**64:
        raise TooLarge(f"{p} is past the 2^64 bound of the prime check")
    if p in _WITNESSES:
        return
    if p < 2 or any(p % q == 0 for q in _WITNESSES):
        raise NotPrime(f"{p} is not prime")
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _WITNESSES:
        x = pow(a, odd, p)
        if x in (1, p - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise NotPrime(f"{p} is not prime")
