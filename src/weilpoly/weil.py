"""The q-Weil polynomial predicate and the genus-6 transforms.

A monic integer polynomial of even degree 2g is a q-Weil polynomial iff it
has the palindromic coefficient shape (coefficient of t^(g-i) equals q^i
times the coefficient of t^(g+i)) and the companion polynomial h, defined by
chi(t) = t^g * h(t + q/t), has all roots real in [-2 sqrt(q), 2 sqrt(q)].
Real roots of chi itself can only be +-sqrt(q), and the palindromic shape
forces even multiplicity there, so the verdict records them rather than
re-deciding them.

The predicate runs over Z.  h is solved from chi's coefficients and
certified by evaluating t^g * h(t + q/t) = chi at 2g + 1 integer points.  The
Sturm chain of h is a primitive pseudo-remainder sequence in Z[x].  Its signs
at +-2 sqrt(q) come from writing each member there as A + B sqrt(q) with
integers A, B.  The multiplicities of +-sqrt(q) in chi come from exact monic
division by t^2 - q, or by t -+ sqrt(q) when q is a square.

factor_weil factors a Weil chi over Z through the same companion: each
irreducible factor of h gives one factor of chi, irreducible except at the
roots +-2 sqrt(q) of h, where it is a square.

build_f_ftilde and symmetric_v evaluate the explicit degree-6 coefficient
transforms f(t) = h(2 sqrt(q) - t), ftilde(t) = h(t - 2 sqrt(q)) (the test
suite enforces the identity).  They no longer feed the bound checker, which
decides on h itself (_real_rooted); they give lemma_check's inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt

from .arith import iroot, is_prime
from .errors import ExactnessError, StructuralError
from .factorint import factor_over_integers
from .polynomial import (
    IntPoly,
    QuadPoly,
    _div_exact,
    _divmod_monic,
    _homogeneous_horner,
    _prs,
    _variations_right,
)
from .quadreal import QuadReal, is_square, surd_sign


def _perfect_power(q: int) -> tuple[int, int]:
    """(m, k) with q = m^k and k as large as possible; (q, 1) when q is no
    perfect power.  With k maximal m is no perfect power itself, so q is a
    prime power exactly when m is prime."""
    for k in range(q.bit_length(), 1, -1):
        m = iroot(q, k)
        if m ** k == q:
            return m, k
    return q, 1


def factor_prime_power(q: int) -> tuple[int, int]:
    """q = p^n with p prime; raises StructuralError otherwise."""
    params = WeilParams.from_q(q)
    return params.p, params.n


@dataclass(frozen=True)
class WeilParams:
    """Ground field size q = p^n."""

    p: int
    n: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise StructuralError(f"{self.p} is not prime")
        if self.n < 1:
            raise StructuralError("n must be positive")

    @staticmethod
    def from_q(q: int) -> "WeilParams":
        """Split q into p^n from exact integer roots alone, so the one
        primality test is the one in __post_init__."""
        try:
            return WeilParams(*_perfect_power(q))
        except StructuralError:
            raise StructuralError(f"{q} is not a prime power") from None

    @property
    def q(self) -> int:
        return self.p ** self.n


@dataclass(frozen=True)
class WeilVerdict:
    is_weil: bool
    real_roots: tuple[tuple[int, int], ...]  # (sign of sqrt(q) root, multiplicity)
    companion: IntPoly | None
    reason: str = ""


def check_symmetry(chi: IntPoly, params: WeilParams) -> bool:
    """Palindromic shape: coeff(t^(g-i)) == q^i * coeff(t^(g+i)) for 1<=i<=g."""
    if chi.is_zero() or not chi.is_monic():
        raise StructuralError("polynomial must be monic")
    if chi.degree % 2 != 0:
        raise StructuralError("degree must be even")
    g = chi.degree // 2
    q = params.q
    for i in range(1, g + 1):
        if chi[g - i] != q ** i * chi[g + i]:
            return False
    return True


def companion_poly(chi: IntPoly, params: WeilParams) -> IntPoly:
    """The monic degree-g h with chi(t) = t^g * h(t + q/t).

    Solved by matching coefficients of t^(g+i) top-down: the system is
    triangular because t^g * (t + q/t)^k = sum_j C(k,j) q^j t^(g+k-2j).
    """
    if not check_symmetry(chi, params):
        raise StructuralError("companion polynomial needs a symmetric input")
    g = chi.degree // 2
    q = params.q
    c = [0] * (g + 1)
    for i in range(g, -1, -1):
        acc = chi[g + i]
        for k in range(i + 2, g + 1, 2):
            acc -= c[k] * comb(k, (k - i) // 2) * q ** ((k - i) // 2)
        c[i] = acc
    # certificate: t^g * h(t + q/t) = sum c_k (t^2 + q)^k t^(g-k) equals chi.
    # Both sides have degree <= 2g, so agreement at 2g + 1 points suffices.
    for t in range(1, 2 * g + 2):
        if _homogeneous_horner(c, t * t + q, t) != chi.evaluate(t):
            raise ExactnessError("companion reconstruction failed")
    return IntPoly(c)


def _sturm_chain(h: IntPoly) -> list[list[int]]:
    """Sturm chain of the squarefree part of h in Z[x].

    The primitive PRS of (h, h') ends in the primitive gcd(h, h').  When h
    has repeated roots every member is divided by it, which leaves a Sturm
    chain of h / gcd(h, h'): its second member has the sign of the
    derivative of the first at each root of the first.
    """
    chain = _prs(list(h.coeffs), h.derivative().primitive()[1].coeffs)
    g = chain[-1]
    if len(g) > 1:
        if g[-1] < 0:
            g = [-x for x in g]
        chain = [_div_exact(p, g) for p in chain]
    return chain


def _real_rooted(chain: list[list[int]]) -> bool:
    """Whether the polynomial of this Sturm chain has only real roots.

    chain[0] is its squarefree part, so they are all real when the distinct
    real ones, V(-inf) - V(+inf), number deg chain[0].  A chain has at most
    deg + 1 members, so then V(-inf) = deg and V(+inf) = 0."""
    at_inf = [1 if p[-1] > 0 else -1 for p in chain]
    at_neg_inf = [s if len(p) % 2 else -s for s, p in zip(at_inf, chain)]
    return _variations_right(at_neg_inf) - _variations_right(at_inf) == len(chain[0]) - 1


def _real_root_divisors(q: int) -> list[tuple[tuple[int, ...], IntPoly]]:
    """The monic integer factors carrying the roots +-sqrt(q), each with the
    signs of the roots it carries: t -+ sqrt(q) for square q, else t^2 - q."""
    if is_square(q):
        r = isqrt(q)
        return [((1,), IntPoly([-r, 1])), ((-1,), IntPoly([r, 1]))]
    return [((1, -1), IntPoly([-q, 0, 1]))]


def _multiplicity(chi: IntPoly, factor: IntPoly) -> int:
    """How often the monic factor divides chi, by exact division over Z."""
    m, cur = 0, chi.coeffs
    while True:
        quot, rem = _divmod_monic(cur, factor.coeffs)
        if any(rem):
            return m
        m, cur = m + 1, quot


def is_weil(chi: IntPoly, params: WeilParams) -> WeilVerdict:
    """Decide the q-Weil property by exact Sturm counts on the companion."""
    if not check_symmetry(chi, params):
        return WeilVerdict(False, (), None, reason="not symmetric")
    h = companion_poly(chi, params)
    q = params.q
    chain = _sturm_chain(h)
    verdict = True
    reason = ""
    if not _real_rooted(chain):
        verdict, reason = False, "companion has non-real roots"
    else:
        # p(+-2 sqrt q) = E +- 2 O sqrt q, with E and O the even and odd
        # parts of p evaluated at 4q
        at_hi, at_lo = [], []
        for p in chain:
            e = _homogeneous_horner(p[0::2], 4 * q, 1)
            o = 2 * _homogeneous_horner(p[1::2], 4 * q, 1)
            at_hi.append(surd_sign(e, o, q))
            at_lo.append(surd_sign(e, -o, q))
        # roots of h strictly outside [-2 sqrt q, 2 sqrt q]; all are real, so
        # V(+inf) = 0 and V(-inf) = deg chain[0] (see _real_rooted)
        high = _variations_right(at_hi)
        low = len(chain[0]) - 1 - _variations_right(at_lo) - (at_lo[0] == 0)
        if high or low:
            verdict, reason = False, "companion root outside [-2 sqrt(q), 2 sqrt(q)]"
    roots = []
    for signs, factor in _real_root_divisors(q):
        m = _multiplicity(chi, factor)
        if m:
            roots += [(sign, m) for sign in signs]
            if m % 2 != 0:
                verdict, reason = False, "odd multiplicity at a real root"
    return WeilVerdict(verdict, tuple(roots), h, reason=reason)


def _from_companion(h: IntPoly, q: int) -> IntPoly:
    """t^d h(t + q/t) for d = deg h: the sum of h_k C(k, j) q^j t^(d + k - 2j)."""
    d = h.degree
    out = [0] * (2 * d + 1)
    for k, c in enumerate(h.coeffs):
        if c:
            for j in range(k + 1):
                out[d + k - 2 * j] += c * comb(k, j) * q ** j
    return IntPoly(out)


def factor_weil(
    chi: IntPoly, verdict: WeilVerdict, params: WeilParams
) -> tuple[int, list[tuple[IntPoly, int]]]:
    """factor_over_integers(chi) for a q-Weil chi, read off its companion.

    verdict must be is_weil(chi, params) with is_weil set.  The degree-g
    companion h = prod h_i^m_i is factored instead of chi, and each
    irreducible h_i of degree d gives the factor chi_i = t^d h_i(t + q/t)
    with multiplicity m_i; distinct h_i give coprime chi_i.  Every chi_i is
    irreducible unless h_i divides x^2 - 4q:
      - every root a of the Weil chi has |a| = sqrt(q), so q/a = conj(a);
      - a rational factor u of chi_i has real coefficients, so with a root
        a it holds q/a: the whole pair over the root a + q/a of h_i;
      - Galois permutes the roots of u and acts transitively on the roots
        of the irreducible h_i, so u holds the pairs over all d of them,
        which are all 2d roots of chi_i, and u = chi_i;
      - this counts a and q/a as two roots; a = q/a means a = +-sqrt(q),
        that is h_i(+-2 sqrt q) = 0.
    There chi_i is a square: (t^2 - q)^2 for h_i = x^2 - 4q, (t -+ sqrt q)^2
    for h_i = x -+ 2 sqrt(q) when q is a square.

    The product of the factors is checked against chi before returning
    (ExactnessError otherwise), which also proves the verdict is chi's.
    """
    if not verdict.is_weil:
        raise StructuralError("factor_weil needs the verdict of a Weil polynomial")
    q = params.q
    squares = [(root, root * root) for _, root in _real_root_divisors(q)]
    _, parts = factor_over_integers(verdict.companion)
    out = []
    for h_i, m in parts:
        chi_i = _from_companion(h_i, q)
        root = next((r for r, square in squares if square == chi_i), None)
        out.append((chi_i, m) if root is None else (root, 2 * m))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    check = IntPoly.one()
    for g, m in out:
        check = check * g ** m
    if check != chi:
        raise ExactnessError("companion factors do not multiply back to chi")
    return 1, out


# -- genus-6 coefficient transforms -------------------------------------------


def symmetric_v(a: tuple[int, ...], params: WeilParams) -> tuple[int, ...]:
    """Elementary symmetric functions v_1..v_6 of the x_i in terms of a_1..a_6."""
    if len(a) != 6:
        raise StructuralError("expected a_1..a_6")
    a1, a2, a3, a4, a5, a6 = a
    q = params.q
    return (
        a1,
        a2 - 6 * q,
        a3 - 5 * q * a1,
        a4 - 4 * q * a2 + 9 * q * q,
        a5 - 3 * q * a3 + 5 * q * q * a1,
        a6 - 2 * q * a4 + 2 * q * q * a2 - 2 * q ** 3,
    )


def r_coefficients(a: tuple[int, ...], params: WeilParams, tilde: bool = False):
    """The six coefficients r_1..r_6 (or r~ for the sign-flipped a) in Z[sqrt q]."""
    if len(a) != 6:
        raise StructuralError("expected a_1..a_6")
    s = -1 if tilde else 1
    a1, a2, a3, a4, a5, a6 = [s ** i * ai for i, ai in enumerate(a, start=1)]
    q = params.q
    rq = QuadReal.sqrt(q)
    r1 = -12 * rq - a1
    r2 = 54 * q + 10 * rq * a1 + QuadReal(a2)
    r3 = -112 * q * rq - 35 * q * a1 - 8 * rq * a2 - QuadReal(a3)
    r4 = 105 * q * q + 50 * q * rq * a1 + 20 * q * a2 + 6 * rq * a3 + QuadReal(a4)
    r5 = (
        -36 * q * q * rq
        - 25 * q * q * a1
        - 16 * q * rq * a2
        - 9 * q * a3
        - 4 * rq * a4
        - QuadReal(a5)
    )
    r6 = (
        2 * q ** 3
        + 2 * q * q * rq * a1
        + 2 * q * q * a2
        + 2 * q * rq * a3
        + 2 * q * a4
        + 2 * rq * a5
        + QuadReal(a6)
    )
    return (r1, r2, r3, r4, r5, r6)


def build_f_ftilde(a: tuple[int, ...], params: WeilParams) -> tuple[QuadPoly, QuadPoly]:
    """The degree-6 real polynomials f, ftilde whose roots are 2 sqrt(q) +- x_i."""
    r = r_coefficients(a, params, tilde=False)
    rt = r_coefficients(a, params, tilde=True)
    qq = None if is_square(params.q) else params.q

    def build(rs):
        coeffs = [rs[5], rs[4], rs[3], rs[2], rs[1], rs[0], QuadReal(1)]
        return QuadPoly(coeffs, q=qq)

    return build(r), build(rt)


def chi_from_a(a: tuple[int, ...], params: WeilParams) -> IntPoly:
    """Degree-2g symmetric polynomial from its free coefficients a_1..a_g."""
    g = len(a)
    q = params.q
    coeffs = [0] * (2 * g + 1)
    coeffs[2 * g] = 1
    coeffs[0] = q ** g
    coeffs[g] = a[g - 1]
    for i in range(1, g):
        coeffs[2 * g - i] = a[i - 1]
        coeffs[g - i] = q ** i * a[g - i - 1]
    return IntPoly(coeffs)


@dataclass(frozen=True)
class RealRootReduction:
    kind: str  # "no_real_root" | "square_q" | "non_square_q"
    factor: IntPoly | None = None
    quotient: IntPoly | None = None


def real_root_reduction(chi: IntPoly, params: WeilParams) -> RealRootReduction:
    """Split off the forced square factor at a real root of a degree-12 input.

    If q is a square and m = sqrt(q), a real root +-m forces (t -+ m)^2 | chi
    and the degree-10 quotient decides the Weil property.  If q is not a
    square, a real root forces (t^2 - q)^2 | chi, leaving a degree-8
    quotient.  (The source text asserts degree 10 for the latter case right
    after displaying the (t^2-q)^2 division; the division is what it is.)
    """
    if chi.degree != 12:
        raise StructuralError("real_root_reduction expects degree 12")
    if not check_symmetry(chi, params):
        raise StructuralError("real_root_reduction expects a symmetric input")
    for signs, factor in _real_root_divisors(params.q):
        if _multiplicity(chi, factor):
            quot, rem = chi.divmod_monic(factor * factor)
            if not rem.is_zero():
                raise ExactnessError(
                    "odd multiplicity at a real root of a symmetric polynomial"
                )
            kind = "square_q" if len(signs) == 1 else "non_square_q"
            return RealRootReduction(kind, factor=factor, quotient=quot)
    return RealRootReduction("no_real_root")
