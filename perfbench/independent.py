"""Decisions made apart from weilpoly, used to check its outputs.

Polynomials here are plain integer lists, constant term first.  The Weil
decision and the reducibility test run on sympy's exact real-root counting
and factorization, which share no code with weilpoly.  sympy is imported
only by the checks, after the timed part of a run, so it never counts
towards a measured time or the measured peak memory.
"""

from __future__ import annotations

from functools import cache
from math import comb


def poly_mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def chi_from_a(a: tuple[int, ...], q: int) -> tuple[int, ...]:
    """t^2g + a_1 t^(2g-1) + ... + a_g t^g + q a_(g-1) t^(g-1) + ... + q^g."""
    g = len(a)
    chi = [0] * (2 * g + 1)
    chi[2 * g] = 1
    chi[g] = a[g - 1]
    chi[0] = q ** g
    for i in range(1, g):
        chi[2 * g - i] = a[i - 1]
        chi[g - i] = q ** i * a[g - i - 1]
    return tuple(chi)


def a_from_chi(chi) -> tuple[int, ...]:
    g = (len(chi) - 1) // 2
    return tuple(chi[2 * g - i] for i in range(1, g + 1))


def is_palindromic(chi, q: int) -> bool:
    g = (len(chi) - 1) // 2
    return all(chi[g - i] == q ** i * chi[g + i] for i in range(1, g + 1))


def companion(chi, q: int) -> list[int]:
    """h of degree g with chi(t) = t^g h(t + q/t), by peeling the top term."""
    g = (len(chi) - 1) // 2
    rest = list(chi)
    h = [0] * (g + 1)
    for k in range(g, -1, -1):
        hk = rest[g + k]
        h[k] = hk
        # t^g (t + q/t)^k = sum_j C(k, j) q^(k-j) t^(g-k+2j)
        for j in range(k + 1):
            rest[g - k + 2 * j] -= hk * comb(k, j) * q ** (k - j)
    if any(rest):
        raise ValueError("not a palindromic polynomial")
    return h


def squared_roots_poly(h: list[int]) -> list[int]:
    """H with H(y) = prod (y - x_i^2) over the roots x_i of monic h.

    Split h(x) = E(x^2) + x O(x^2); then h(x) h(-x) = E(y)^2 - y O(y)^2 at
    y = x^2, which is (-1)^g H(y).
    """
    even = h[0::2]
    odd = h[1::2]
    e2 = poly_mul(even, even)
    o2 = [0] + poly_mul(odd, odd) if odd else [0]
    n = max(len(e2), len(o2))
    out = [(e2[i] if i < len(e2) else 0) - (o2[i] if i < len(o2) else 0) for i in range(n)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    if out[-1] < 0:
        out = [-c for c in out]
    return out


def _real_roots_with_multiplicity(coeffs: list[int], sup=None) -> int:
    """Real roots in (-oo, sup] counted with multiplicity (sympy counts
    distinct roots, so the count runs over the squarefree factors)."""
    from sympy import Poly, symbols

    x = symbols("x")
    _, parts = Poly(list(reversed(coeffs)), x).sqf_list()
    return sum(m * p.count_roots(None, sup) for p, m in parts)


@cache
def weil_decision(chi: tuple[int, ...], q: int) -> tuple[bool, bool]:
    """(is q-Weil, has a real root) for a monic chi; memoized, since a run
    checks each input once per pass.

    Weil means every root of h is real and lies in [-2 sqrt q, 2 sqrt q],
    that is: deg h real roots, and every x_i^2 at most 4q.  A real root of
    chi is a root of h at +-2 sqrt q, that is H(4q) = 0.
    """
    if not is_palindromic(chi, q):
        return False, False
    h = companion(chi, q)
    g = len(h) - 1
    if _real_roots_with_multiplicity(h) != g:
        return False, False
    big_h = squared_roots_poly(h)
    if _real_roots_with_multiplicity(big_h, 4 * q) != g:
        return False, False
    at_edge = sum(c * (4 * q) ** i for i, c in enumerate(big_h)) == 0
    return True, at_edge


@cache
def is_reducible(f: tuple[int, ...]) -> bool:
    """Does sympy find a proper factor (or a repeated one) of f over Z?"""
    from sympy import Poly, symbols

    x = symbols("x")
    _, parts = Poly(list(reversed(f)), x).factor_list()
    return len(parts) > 1 or parts[0][1] > 1
