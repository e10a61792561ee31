"""Integer primitives shared across the package: primality, prime factors,
integer roots and p-adic valuations.  Standard library only, and no package
import but the exception types, so every module can depend on it.
"""

from __future__ import annotations

from .errors import UnprovenPrimeError


# Miller-Rabin with the primes up to 41 as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin below 3.3 * 10^24.

    Above that bound the same 13 rounds run, and a witness proves n
    composite; a number that passes them all raises UnprovenPrimeError, since
    no round count proves primality there.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n < _MR_EXACT_BELOW:
        return True
    raise UnprovenPrimeError(
        f"{n} passes Miller-Rabin to the prime bases up to 41, which proves "
        f"primality only below {_MR_EXACT_BELOW}"
    )


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


def iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0 and k >= 1, by integer Newton steps."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n^(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer, for p >= 2."""
    if p < 2:
        raise ValueError(f"valuation base {p} is below 2")
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
