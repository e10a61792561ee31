"""Integer primitives shared across the package: primality, prime factors and
p-adic valuations.  Standard library only and no package imports, so every
module can depend on it.
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    """Trial-division primality test (inputs here are field sizes and degrees)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> list[int]:
    """The distinct prime divisors of n, ascending; empty for n < 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
