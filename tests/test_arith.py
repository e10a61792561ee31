import time

import pytest

from weilpoly import weil
from weilpoly.arith import _MR_EXACT_BELOW, iroot, is_prime, prime_factors, vp
from weilpoly.errors import StructuralError, UnprovenPrimeError
from weilpoly.weil import WeilParams, factor_prime_power

N = range(501)


def brute_prime_factors(n):
    return [d for d in range(2, n + 1) if n % d == 0 and all(d % e for e in range(2, d))]


def brute_vp(n, p):
    return max(k for k in range(n.bit_length() + 1) if n % p ** k == 0)


@pytest.mark.parametrize("primitive", ["is_prime", "prime_factors", "vp", "factor_prime_power"])
def test_against_brute_force(primitive):
    primes = [n for n in N if brute_prime_factors(n) == [n]]
    if primitive == "is_prime":
        assert [n for n in N if is_prime(n)] == primes
        # strong pseudoprimes to the leading prime bases, and large primes
        # that trial division cannot reach in reasonable time
        for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
            assert not is_prime(n), n
        assert is_prime(2**61 - 1) and is_prime(10**18 + 9)
        assert not is_prime((10**9 + 7) * (10**9 + 9))
    elif primitive == "prime_factors":
        for n in N:
            assert prime_factors(n) == brute_prime_factors(n), n
    elif primitive == "vp":
        for p in primes[:10]:
            for n in N[1:]:
                assert vp(n, p) == vp(-n, p) == brute_vp(n, p), (n, p)
            with pytest.raises(ValueError):
                vp(0, p)
    else:
        rejected = set()
        for q in N:
            ps = brute_prime_factors(q)
            if len(ps) == 1:
                assert factor_prime_power(q) == (ps[0], brute_vp(q, ps[0])), q
            else:
                with pytest.raises(StructuralError):
                    factor_prime_power(q)
                rejected.add(q)
        assert {0, 1, 6, 12, 100} <= rejected


def test_vp():
    assert vp(48, 2) == 4
    assert vp(-9, 3) == 2
    with pytest.raises(ValueError):
        vp(0, 2)
    for p in (0, 1, -2):
        with pytest.raises(ValueError):
            vp(12, p)


def test_iroot():
    for n in range(3000):
        for k in range(1, 14):
            r = iroot(n, k)
            assert r ** k <= n < (r + 1) ** k, (n, k)
    for n in (2**61 - 1, (2**61 - 1) ** 2, 3**200, 3**200 - 1, 10**50 + 1):
        for k in (1, 2, 3, 7, 40, 200):
            r = iroot(n, k)
            assert r ** k <= n < (r + 1) ** k, (n, k)


def test_factor_prime_power_agrees_with_prime_factors():
    for q in range(2, 5001):
        ps = prime_factors(q)
        if len(ps) == 1:
            assert factor_prime_power(q) == (ps[0], vp(q, ps[0])), q
        else:
            with pytest.raises(StructuralError):
                factor_prime_power(q)
    big = 2**61 - 1
    assert factor_prime_power(big) == (big, 1)
    assert factor_prime_power(big**3) == (big, 3)
    with pytest.raises(StructuralError):
        factor_prime_power(big * 3)


def test_above_the_exact_bound_primality_is_unproven_not_slow(monkeypatch):
    start = time.perf_counter()
    big = 2**89 - 1
    # a prime, and the composite bound itself (a strong pseudoprime to every
    # base): the rounds cannot tell them apart, so neither gets an answer
    for n in (big, _MR_EXACT_BELOW):
        with pytest.raises(UnprovenPrimeError, match=str(_MR_EXACT_BELOW)):
            is_prime(n)
    # a witness still proves a composite above the bound at once
    assert not is_prime(big * (2**61 - 1))
    assert not is_prime(_MR_EXACT_BELOW + 2)
    with pytest.raises(UnprovenPrimeError):
        WeilParams.from_q(big**2)
    assert time.perf_counter() - start < 2.0

    # WeilParams.from_q tests p once
    calls = []
    monkeypatch.setattr(weil, "is_prime", lambda n: calls.append(n) or is_prime(n))
    assert WeilParams.from_q(2**61 - 1).n == 1
    assert WeilParams.from_q(3**40).n == 40
    assert calls == [2**61 - 1, 3]
