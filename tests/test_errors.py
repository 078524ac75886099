from math import isqrt

import pytest

from twistlab.errors import NotPrime, TooLarge, check_prime


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))


def _accepts(n: int) -> bool:
    try:
        check_prime(n)
    except NotPrime:
        return False
    return True


def test_agrees_with_trial_division_below_100000():
    wrong = [n for n in range(-2, 10**5) if _accepts(n) != _trial_division(n)]
    assert wrong == []


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
def test_refuses_strong_pseudoprimes(n):
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2, ..., 23 respectively
    with pytest.raises(NotPrime):
        check_prime(n)


def test_accepts_large_primes():
    check_prime(2**61 - 1)
    check_prime(100000000000031)


def test_refuses_numbers_past_64_bits():
    with pytest.raises(TooLarge):
        check_prime(2**64 + 13)
    check_prime(2**64 - 59)  # the largest prime below 2^64
