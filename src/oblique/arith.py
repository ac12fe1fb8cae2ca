"""Small number-theoretic helpers."""

from __future__ import annotations

from math import isqrt


def is_prime(n: int) -> bool:
    """Trial division below 2**32; sympy's test (imported on demand) above."""
    if n >= 1 << 32:
        from sympy import isprime

        return bool(isprime(n))
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def prime_factors(n: int):
    """Sorted distinct prime divisors of n, by trial division.

    Meant for group orders: every prime divisor of the order of a permutation
    group is at most its degree, so the divisors tried stay small.
    """
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def p_prime_part(n: int, p: int) -> int:
    return n // p_part(n, p)


def p_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


def digit_sum(n: int, b: int) -> int:
    """Sum of base-b digits of n."""
    if b < 2:
        raise ValueError("base must be >= 2")
    if n < 0:
        raise ValueError("n must be non-negative")
    s = 0
    while n:
        s += n % b
        n //= b
    return s


def legendre_factorial_valuation(n: int, p: int) -> int:
    """v_p(n!) = (n - s_p(n)) / (p - 1)."""
    return (n - digit_sum(n, p)) // (p - 1)
