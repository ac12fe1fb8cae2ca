"""Trial-division arithmetic against sympy."""

from math import factorial

from sympy import factorint, isprime

from oblique.arith import is_prime, prime_factors


def test_is_prime_matches_sympy():
    large = [2**32 - 5, 2**32 - 1, 2**32, 2**32 + 15, 2**61 - 1, (2**31 - 1) * (2**31 + 11)]
    for n in [*range(-3, 5000), *large]:
        assert is_prime(n) == isprime(n), n


def test_prime_factors_match_sympy():
    # group orders: large, but with small prime divisors
    large = [2**32 + 2, 3**40, factorial(20), factorial(64) // 7**10, 2**40 * 4093]
    for n in [*range(1, 5000), *large]:
        assert prime_factors(n) == sorted(factorint(n)), n
