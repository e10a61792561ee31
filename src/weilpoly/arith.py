"""Primitives shared across the package: primality, prime factors, integer
roots, p-adic valuations, the sign of a + b*sqrt(q), square-and-multiply
powers in any ring (_power), and the record decorator.  No import but the
exception types, so every module can depend on it.
"""

from __future__ import annotations

from math import isqrt

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


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def surd_sign(a, b, q) -> int:
    """Exact sign of a + b*sqrt(q) for integers a, b and q > 0.

    Zero needs a^2 == q b^2 with a, b of opposite signs, so it only occurs
    for square q; q is read only then.  The case analysis uses nothing but
    ordered-ring operations, so quadreal.sign_with_radical passes QuadReal
    values.
    """
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    d = a * a - q * b * b
    return sa if d > 0 else sb if d < 0 else 0


def _power(x, n: int, one, mul):
    """x^n for n >= 0 by square-and-multiply from the low bit of n, with the
    ring given by its one and its product mul; x is squared only while
    higher bits of n remain."""
    out = one
    while True:
        if n & 1:
            out = mul(out, x)
        n >>= 1
        if not n:
            return out
        x = mul(x, x)


def _immutable(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


def _record(cls):
    """Make cls an immutable record of its annotated fields, in their order.

    Adds __init__ (positional or keyword arguments, the class attribute of
    a field as its default, then __post_init__ when the class has one),
    __repr__, __eq__ (fieldwise, between instances of one class only) and
    __hash__, and refuses assignment and deletion.  The four methods come
    from one exec of generated source per class.  The standard library's
    generator of such classes is not used: importing it loads inspect, ast
    and dis, which cost every command more than the records do.  __init__
    stores into the instance __dict__ directly.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    params = [f"{n}=_dflt.{n}" if n in cls.__dict__ else n for n in names]
    fields = "".join(f"self.{n}, " for n in names)
    other = "".join(f"other.{n}, " for n in names)
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    src = (
        f"def __init__(self, {', '.join(params)}):\n"
        "    d = self.__dict__\n"
        + "".join(f"    d[{n!r}] = {n}\n" for n in names)
        + post
        + "def __repr__(self):\n"
        f"    return f'{{type(self).__qualname__}}({shown})'\n"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({fields}) == ({other})\n"
        "    return NotImplemented\n"
        "def __hash__(self):\n"
        f"    return hash(({fields}))\n"
    )
    namespace = {"_dflt": cls}
    exec(src, namespace)
    for name in ("__init__", "__repr__", "__eq__", "__hash__"):
        fn = namespace[name]
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    cls.__setattr__ = _immutable
    cls.__delattr__ = _immutable
    return cls
