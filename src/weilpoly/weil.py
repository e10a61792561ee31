"""The q-Weil polynomial predicate and the genus-6 transforms.

A monic integer polynomial of even degree 2g is a q-Weil polynomial iff it
has the palindromic coefficient shape (coefficient of t^(g-i) equals q^i
times the coefficient of t^(g+i)) and the companion polynomial h, defined by
chi(t) = t^g * h(t + q/t), has all roots real in [-2 sqrt(q), 2 sqrt(q)].
Real roots of chi itself can only be +-sqrt(q), and the palindromic shape
forces even multiplicity there, so the verdict records them rather than
re-deciding them.

The predicate runs over Z, on coefficient tuples, and its verdicts are
memoized on (chi, params) in a small LRU cache, so a chi decided and then
handed to classify7.classify is decided once.  h is solved from chi's
coefficients and certified by expanding t^g * h(t + q/t) back into chi's
coefficients.  The Sturm chain of h is a primitive pseudo-remainder sequence
in Z[x], cut short at the first member that shows a non-real root.  Its
signs at +-2 sqrt(q) come from writing each member there as A + B sqrt(q)
with integers A, B.  The roots +-sqrt(q) of chi are read off
h's roots +-2 sqrt(q): t + q/t -+ 2 sqrt(q) = (t -+ sqrt(q))^2 / t and
(t + q/t)^2 - 4q = (t^2 - q)^2 / t^2, so a root of h of multiplicity m there
is a root of chi of multiplicity 2m.  Whether h has such a root is read off
its value A + B sqrt(q) there, as for the chain; only when that value is 0
is m counted, by exact monic division of h by x^2 - 4q, or by
x -+ 2 sqrt(q) when q is a square.

factor_weil factors a Weil chi over Z through the same companion: each
irreducible factor of h gives one factor of chi, irreducible except at the
roots +-2 sqrt(q) of h, where it is a square.  Its factors are memoized in
a one-entry cache, so a chi factored by census's irreducible filter and
then by classify7.classify is factored once.

symmetric_v gives the genus-6 companion h in closed form from a_1..a_6;
corollary_bounds builds h's derivatives from it and decides conditions 6
and 8 on them (_sturm_chain, which stops at the first member that shows a
non-real root).  build_f_ftilde and r_coefficients evaluate the explicit
degree-6 coefficient transforms f(t) = h(2 sqrt(q) - t),
ftilde(t) = h(t - 2 sqrt(q)) (the test suite enforces the identity); they
give lemma_check's inputs, and are the only functions here that compute in
Q(sqrt(q)), so they import quadreal when called.
"""

from __future__ import annotations

import functools
import operator
from math import comb, gcd, isqrt

from .arith import _record, iroot, is_prime, is_square, surd_sign
from .errors import ExactnessError, StructuralError
from .polynomial import IntPoly, _div_exact, _divmod_monic, _variations_right


def _perfect_power(q: int) -> tuple[int, int]:
    """(m, k) with q = m^k and k as large as possible; (q, 1) when q is no
    perfect power.  With k maximal m is no perfect power itself, so q is a
    prime power exactly when m is prime."""
    for k in range(q.bit_length(), 1, -1):
        m = iroot(q, k)
        if m ** k == q:
            return m, k
    return q, 1


def _integer(name: str, value) -> int:
    """value as an int; a float, string or Fraction is a StructuralError,
    never truncated or parsed."""
    try:
        return operator.index(value)
    except TypeError:
        raise StructuralError(f"{name} must be an integer, got {value!r}") from None


def factor_prime_power(q: int) -> tuple[int, int]:
    """q = p^n with p prime; raises StructuralError otherwise."""
    params = WeilParams.from_q(q)
    return params.p, params.n


@_record
class WeilParams:
    """Ground field size q = p^n."""

    p: int
    n: int

    def __post_init__(self):
        self.__dict__.update(p=_integer("p", self.p), n=_integer("n", self.n))
        if not is_prime(self.p):
            raise StructuralError(f"{self.p} is not prime")
        if self.n < 1:
            raise StructuralError("n must be positive")

    @staticmethod
    def from_q(q: int) -> "WeilParams":
        """Split q into p^n from exact integer roots alone, so the one
        primality test is the one in __post_init__."""
        q = _integer("q", q)
        try:
            return WeilParams(*_perfect_power(q))
        except StructuralError:
            raise StructuralError(f"{q} is not a prime power") from None

    @property
    def q(self) -> int:
        return self.p ** self.n


@_record
class WeilVerdict:
    is_weil: bool
    real_roots: tuple[tuple[int, int], ...]  # (sign of sqrt(q) root, multiplicity)
    companion: IntPoly | None
    reason: str = ""


def check_symmetry(chi: IntPoly, params: WeilParams) -> bool:
    """Palindromic shape: coeff(t^(g-i)) == q^i * coeff(t^(g+i)) for 1<=i<=g."""
    c = chi.coeffs
    if not c or c[-1] != 1:
        raise StructuralError("polynomial must be monic")
    if len(c) % 2 == 0:
        raise StructuralError("degree must be even")
    g = len(c) // 2
    q = params.q
    qi = 1
    for i in range(1, g + 1):
        qi *= q
        if c[g - i] != qi * c[g + i]:
            return False
    return True


def companion_poly(chi: IntPoly, params: WeilParams) -> IntPoly:
    """The monic degree-g h with chi(t) = t^g * h(t + q/t).

    Solved by matching coefficients of t^(g+i) top-down: the system is
    triangular because t^g * (t + q/t)^k = sum_j C(k,j) q^j t^(g+k-2j).
    """
    if not check_symmetry(chi, params):
        raise StructuralError("companion polynomial needs a symmetric input")
    return IntPoly(_companion(chi.coeffs, params.q))


def _companion(chi: tuple, q: int) -> list[int]:
    """companion_poly on the coefficients of a chi whose symmetry is already
    checked."""
    g = len(chi) // 2
    table = _binomial_table(g, q)
    c = [0] * (g + 1)
    for i in range(g, -1, -1):
        acc = chi[g + i]
        for k in range(i + 2, g + 1, 2):
            acc -= c[k] * table[k][(k - i) // 2]
        c[i] = acc
    # certificate: t^g * h(t + q/t), expanded coefficient by coefficient by
    # the forward map factor_weil uses, is chi itself, an identity in Z[t]
    if tuple(_expand(c, q)) != chi:
        raise ExactnessError("companion reconstruction failed")
    return c


# is_weil expands companions of one degree at one q, and factor_weil
# expands the factors of a companion, of every degree up to it: the
# degree-14 scan meets degrees 1..7 at q = 2 and q = 8, and the degree-12
# sweeps degree 6 at five q, so 16 entries hold every table a run reads.
_BINOMIAL_TABLE_SIZE = 16


@functools.lru_cache(maxsize=_BINOMIAL_TABLE_SIZE)
def _binomial_table(d: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Row k, for k = 0..d, holds C(k, j) q^j for j = 0..k: the
    coefficients of t^k (t + q/t)^k, from t^(2k) down."""
    return tuple(tuple(comb(k, j) * q ** j for j in range(k + 1)) for k in range(d + 1))


def _sturm_chain(c) -> list[list[int]] | None:
    """Sturm chain of the squarefree part of the integer polynomial with
    coefficients c, or None when it has a non-real root.

    The chain is the primitive pseudo-remainder sequence of (c, c'), each
    member after c divided by its positive content as it is made.  A step
    is taken only when the two members' degrees are one apart (a gap
    returns None first), so _sturm_step gives each pseudo-remainder in
    closed form, with no division loop.  The chain ends in the primitive
    gcd(c, c') = g; when c has repeated roots every member is divided by g,
    which leaves a Sturm chain of c / g: its second member has the sign of
    the derivative of the first at each root of the first.  A negative
    leading coefficient is negated first, which keeps every root.

    The sequence stops at the first member that shows a non-real root.  c
    has only real roots iff c / g does, and the distinct real roots of c / g
    number V(-inf) - V(+inf) on its chain.  The chain's degrees fall
    strictly to 0, so it has at most deg(c / g) + 1 members, and
    V(-inf) - V(+inf) = deg(c / g) holds exactly when every member has
    degree one less than the one before and the positive leading sign of c:
    then V(+inf) = 0 and V(-inf) = deg(c / g), while a degree gap leaves
    fewer members and a negative leading sign makes V(+inf) > 0.  Dividing
    by g, whose leading coefficient is positive, keeps each member's degree
    gap and leading sign, so both are read on c's own sequence as it is
    made.
    """
    a = [-x for x in c] if c[-1] < 0 else list(c)
    b = [i * a[i] for i in range(1, len(a))]
    k = gcd(*b)  # positive, so c' keeps the positive leading sign of c
    chain = [a]
    while b:
        if k != 1:
            b = [x // k for x in b]
        if len(b) != len(a) - 1 or b[-1] <= 0:
            return None
        chain.append(b)
        if len(b) == 1:
            break
        # with lc(b) > 0 the next Sturm member is -prem(a, b) over its
        # positive content
        a, b = b, _sturm_step(a, b)
        k = -gcd(*b)
    g = chain[-1]
    if len(g) > 1:
        chain = [_div_exact(p, g) for p in chain]
    return chain


def _sturm_step(a, b) -> list[int]:
    """polynomial._prem(a, b) in closed form for integer sequences with
    deg a = deg b + 1 and deg b >= 1, the one shape _sturm_chain divides.

    With n = deg b and lc = b_n, lc^2 a minus (s x + t) b, for s = lc a_(n+1)
    and t = lc a_n - a_(n+1) b_(n-1), cancels at x^(n+1) and x^n; what is
    left below x^n is the remainder, trimmed."""
    n = len(b) - 1
    lc, top = b[n], a[n + 1]
    s = lc * top
    t = lc * a[n] - top * b[n - 1]
    lc2 = lc * lc
    rem = [lc2 * a[0] - t * b[0]]
    for i in range(1, n):
        rem.append(lc2 * a[i] - t * b[i] - s * b[i - 1])
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _real_root_divisors(q: int) -> list[tuple[tuple[int, ...], IntPoly, IntPoly]]:
    """The monic integer factors carrying the roots +-sqrt(q), each with the
    signs of the roots it carries and the divisor of the companion over
    them: t -+ sqrt(q) and x -+ 2 sqrt(q) for square q, else t^2 - q and
    x^2 - 4q."""
    if is_square(q):
        r = isqrt(q)
        return [
            ((1,), IntPoly([-r, 1]), IntPoly([-2 * r, 1])),
            ((-1,), IntPoly([r, 1]), IntPoly([2 * r, 1])),
        ]
    return [((1, -1), IntPoly([-q, 0, 1]), IntPoly([-4 * q, 0, 1]))]


def _multiplicity(p: IntPoly, factor: IntPoly) -> int:
    """How often the monic factor divides p, by exact division over Z."""
    m, cur = 0, p.coeffs
    while True:
        quot, rem = _divmod_monic(cur, factor.coeffs)
        if any(rem):
            return m
        m, cur = m + 1, quot


def _at_edges(p, q: int) -> tuple[int, int]:
    """(E, O) with p(+-2 sqrt q) = E +- O sqrt q: E and O come from the even
    and odd parts of p evaluated at 4q."""
    return _horner(p[0::2], 4 * q), 2 * _horner(p[1::2], 4 * q)


def _horner(coeffs, x: int) -> int:
    """The polynomial of these coefficients, lowest first, at the integer x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def is_weil(chi: IntPoly, params: WeilParams) -> WeilVerdict:
    """Decide the q-Weil property by exact Sturm counts on the companion.

    The verdict is memoized on (chi, params); an input that raises is not,
    so it raises on every call."""
    return _is_weil(chi, params)


# Callers decide a chi and then hand it to a function that decides it
# again: the degree-14 scan and census.cross_check run is_weil and then
# classify7.classify on the same chi, with no other chi decided between the
# two calls, so one entry serves them.  chi, params and the verdict are
# immutable and hashable.
_VERDICT_MEMO_SIZE = 1


@functools.lru_cache(maxsize=_VERDICT_MEMO_SIZE)
def _is_weil(chi: IntPoly, params: WeilParams) -> WeilVerdict:
    """is_weil, computed."""
    if not check_symmetry(chi, params):
        return WeilVerdict(False, (), None, reason="not symmetric")
    q = params.q
    h = IntPoly(_companion(chi.coeffs, q))
    chain = _sturm_chain(h.coeffs)
    verdict = True
    reason = ""
    if chain is None:
        verdict, reason = False, "companion has non-real roots"
    else:
        at_hi, at_lo = [], []
        for p in chain:
            e, o = _at_edges(p, q)
            at_hi.append(surd_sign(e, o, q))
            at_lo.append(surd_sign(e, -o, q))
        # roots of h strictly outside [-2 sqrt q, 2 sqrt q]; all are real, so
        # V(+inf) = 0 and V(-inf) = deg chain[0] (see _sturm_chain)
        high = _variations_right(at_hi)
        low = len(chain[0]) - 1 - _variations_right(at_lo) - (at_lo[0] == 0)
        if high or low:
            verdict, reason = False, "companion root outside [-2 sqrt(q), 2 sqrt(q)]"
    # chi has a root +-sqrt q only where h(+-2 sqrt q) = E +- O sqrt q is 0;
    # only then is h divided
    e, o = _at_edges(h.coeffs, q)
    roots = []
    if not (surd_sign(e, o, q) and surd_sign(e, -o, q)):
        for signs, _, divisor in _real_root_divisors(q):
            m = _multiplicity(h, divisor)
            if m:
                roots += [(sign, 2 * m) for sign in signs]
    return WeilVerdict(verdict, tuple(roots), h, reason=reason)


def _expand(h, q: int) -> list[int]:
    """The coefficients of t^d h(t + q/t) for the coefficients h of a degree-d
    polynomial: the sum of h_k C(k, j) q^j t^(d + k - 2j)."""
    d = len(h) - 1
    table = _binomial_table(d, q)
    out = [0] * (2 * d + 1)
    for k, c in enumerate(h):
        if c:
            for j, b in enumerate(table[k]):
                out[d + k - 2 * j] += c * b
    return out


def _from_companion(h: IntPoly, q: int) -> IntPoly:
    """t^d h(t + q/t) for d = deg h."""
    return IntPoly(_expand(h.coeffs, q))


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
    The factors are memoized on (chi, verdict, params) and each call gets a
    fresh list; an input that raises is not memoized.
    """
    if not verdict.is_weil:
        raise StructuralError("factor_weil needs the verdict of a Weil polynomial")
    return 1, list(_factor_weil(chi, verdict, params))


# census.cross_check's irreducible filter factors a Weil chi and then hands
# it to classify7.classify, which factors it again, with no other chi
# factored between the two calls, so one entry serves them.
_FACTORS_MEMO_SIZE = 1


@functools.lru_cache(maxsize=_FACTORS_MEMO_SIZE)
def _factor_weil(
    chi: IntPoly, verdict: WeilVerdict, params: WeilParams
) -> tuple[tuple[IntPoly, int], ...]:
    """factor_weil's factors, computed, as a tuple."""
    # the predicate never factors, so only this route loads the factorizer
    from .factorint import factor_over_integers

    q = params.q
    squares = {divisor: factor for _, factor, divisor in _real_root_divisors(q)}
    _, parts = factor_over_integers(verdict.companion)
    out = []
    for h_i, m in parts:
        factor = squares.get(h_i)
        out.append((_from_companion(h_i, q), m) if factor is None else (factor, 2 * m))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    # the factors alone, each repeated by its multiplicity, multiplied back;
    # only a constant chi has none
    factors = [g for g, m in out for _ in range(m)]
    check = functools.reduce(operator.mul, factors) if factors else IntPoly.one()
    if check != chi:
        raise ExactnessError("companion factors do not multiply back to chi")
    return tuple(out)


# -- genus-6 coefficient transforms -------------------------------------------


def symmetric_v(a: tuple[int, ...], params: WeilParams) -> tuple[int, ...]:
    """The coefficients v_1..v_6 of h = x^6 + v_1 x^5 + ... + v_6 in terms of
    a_1..a_6: v_i = (-1)^i e_i, with e_i the elementary symmetric functions
    of the roots x_i of h."""
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
    from .quadreal import QuadReal

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
    from .quadreal import QuadPoly, QuadReal

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


@_record
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
    for signs, factor, _ in _real_root_divisors(params.q):
        # chi is symmetric, so factor divides it iff h vanishes at the
        # matching +-2 sqrt(q), iff factor^2 divides it (module docstring)
        quot, rem = chi.divmod_monic(factor * factor)
        if rem.is_zero():
            kind = "square_q" if len(signs) == 1 else "non_square_q"
            return RealRootReduction(kind, factor=factor, quotient=quot)
    return RealRootReduction("no_real_root")
