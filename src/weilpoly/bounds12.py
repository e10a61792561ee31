"""Necessary coefficient bounds for degree-12 Weil polynomials.

Two predicates live here.  lemma_check takes the six coefficients of a
monic degree-6 real polynomial and evaluates the five necessary conditions
for all roots to be real and positive.  corollary_bounds takes the free
coefficients (a_1..a_6, q) of a symmetric degree-12 polynomial with no real
roots and evaluates the nine specialized conditions.

Conditions (1)-(3) and their corollary counterparts are decided fully
exactly in Z[sqrt(q)] (one radical layer is eliminated by squaring).
In lemma_check, conditions (4)-(5) involve the critical points of g = f'/6:
the bounds on r_4 come from evaluating g' at the three real roots of the
depressed cubic w^3 + u2*w + u3 (the value set S reduces to -u2*w^2 - 3*u3*w
there), and the bounds on r_5 from evaluating g minus its constant term at
the four real roots of the depressed quartic z^4 + 2*u2*z^2 + 4*u3*z + u4
shifted by -g1/5.  Those roots are isolated exactly (Sturm bisection).
Comparing a value at a root w with a target c builds the level polynomial
value - c once; then, doubling the precision from START_BITS to MAX_BITS, it
refines w's bracket and takes one integer enclosure of the level over it
(intervals.eval_poly_interval) until the enclosure excludes zero.  The first
undecided step runs an exact equality screen (gcd of the level with w's
defining polynomial), so a verdict is Indeterminate only at the precision
cap, never silently wrong.  Reality of the cubic/quartic roots is itself
necessary and failures are reported as structured Fails.

The sorted-value trick: the lower bound on r_4 uses the smallest of the
three candidate values and the upper bound the middle one, which is
equivalent to counting how many candidates lie on each side of the tested
value; no algebraic-vs-algebraic sorting is ever needed.

corollary_bounds needs none of this: its (6) and (8) are real-rootedness
tests of the integer companion's derivatives (proof in its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import comb

from .errors import PrecisionExhausted
from .intervals import eval_poly_interval
from .polynomial import QuadPoly
from .quadreal import QuadReal, sign_with_radical
from .sturm import isolate_real_roots, refine_interval, sturm_count
from .weil import WeilParams, _real_rooted, _sturm_chain, chi_from_a, companion_poly

START_BITS = 32
MAX_BITS = 4096


class Status(Enum):
    PASS = "pass"
    FAIL = "fail"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class ConditionResult:
    cond: str
    status: Status
    note: str = ""


@dataclass
class BoundsReport:
    conditions: list[ConditionResult] = field(default_factory=list)

    def add(self, cond: str, ok: bool | None, note: str = ""):
        if ok is None:
            st = Status.INDETERMINATE
        else:
            st = Status.PASS if ok else Status.FAIL
        self.conditions.append(ConditionResult(cond, st, note))

    @property
    def all_pass(self) -> bool:
        return all(c.status is Status.PASS for c in self.conditions)

    @property
    def failures(self) -> list[str]:
        return [c.cond for c in self.conditions if c.status is Status.FAIL]

    @property
    def indeterminates(self) -> list[str]:
        return [c.cond for c in self.conditions if c.status is Status.INDETERMINATE]

    def to_dict(self) -> dict:
        return {
            "conditions": [
                {"id": c.cond, "status": c.status.value, "note": c.note}
                for c in self.conditions
            ],
            "all_pass": self.all_pass,
        }


# -- certified comparison of an exact value against a root evaluation ----------


class CertifiedReal:
    """A real algebraic value value_poly(w) for one isolated root w.

    Carries the squarefree defining polynomial of w, an isolating bracket
    (lo, hi] with rational endpoints (degenerate when w is rational), and
    the evaluation polynomial.  Enclosures refine on demand.
    """

    def __init__(self, defining: QuadPoly, bracket, value_poly: QuadPoly):
        self.defining = defining
        self.bracket = (Fraction(bracket[0]), Fraction(bracket[1]))
        self.value_poly = value_poly

    def _refined(self, bits: int) -> tuple[Fraction, Fraction]:
        """The bracket, refined to width 2^-bits unless it is a point."""
        lo, hi = self.bracket
        if lo != hi:
            lo, hi = refine_interval(self.defining, lo, hi, Fraction(1, 1 << bits))
            self.bracket = (lo, hi)
        return lo, hi

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        """Refine to width 2^-bits and enclose value_poly(w)."""
        return eval_poly_interval(self.value_poly, *self._refined(bits), bits)

    def compare(self, c: QuadReal) -> int:
        """Exact sign of value_poly(w) - c; raises PrecisionExhausted at the cap."""
        f = self.value_poly
        level = QuadPoly([f[0] - c, *f.coeffs[1:]], q=f.q)  # value_poly - c
        screened = False
        bits = START_BITS
        while bits <= MAX_BITS:
            lo, hi = self._refined(bits)
            if lo == hi:  # the root is exactly rational
                return level.sign_at(lo)
            elo, ehi = eval_poly_interval(level, lo, hi, bits)
            if elo > 0:
                return 1
            if ehi < 0:
                return -1
            if not screened:
                # undecided at first refinement: rule exact equality in or out
                g = self.defining.gcd(level)
                if g.degree > 0 and sturm_count(g, lo, hi) > 0:
                    return 0
                screened = True
            bits *= 2
        raise PrecisionExhausted(
            f"comparison undecided at {MAX_BITS} bits (value straddles the target)"
        )


# -- the machinery behind conditions (4) and (5) --------------------------------


def _as_quad(x) -> QuadReal:
    return x if isinstance(x, QuadReal) else QuadReal(Fraction(x))


@dataclass
class LemmaQuantities:
    u2: QuadReal
    u3: QuadReal
    u4: QuadReal
    delta: QuadReal
    poly_part: QuadReal
    cubic: QuadPoly
    quartic: QuadPoly
    cubic_all_real: bool
    quartic_all_real: bool
    thetas: list[CertifiedReal]
    betas: list[CertifiedReal]  # descending, with multiplicity expanded
    g1: QuadReal


def lemma_quantities(r) -> LemmaQuantities:
    """Assemble every intermediate used by conditions (4) and (5).

    The thetas are the values -u2*w^2 - 3*u3*w at the real roots of the
    depressed cubic (that is the value set S after eliminating the cube
    roots with w^3 = -u2*w - u3).  The betas are the real roots of the
    depressed quartic shifted by -g1/5, covering both the biquadratic u3 = 0
    branch and the general one uniformly; they are the critical points of g.
    """
    r1, r2, r3, r4, r5, r6 = [_as_quad(v) for v in r]
    g1 = r1 * Fraction(5, 6)
    g2 = r2 * Fraction(2, 3)
    g3 = r3 * Fraction(1, 2)
    g4 = r4 * Fraction(1, 3)
    u2 = -r1 * r1 * Fraction(1, 12) + r2 * Fraction(1, 5)
    u3 = r1 ** 3 * Fraction(1, 108) - r1 * r2 * Fraction(1, 30) + r3 * Fraction(1, 20)
    u4 = (
        -(r1 ** 4) * Fraction(1, 432)
        + r1 * r1 * r2 * Fraction(1, 90)
        - r1 * r3 * Fraction(1, 30)
        + r4 * Fraction(1, 15)
    )
    delta = u3 * u3 + u2 ** 3 * Fraction(4, 27)
    poly_part = (
        r1 ** 4 * Fraction(5, 144)
        - r1 * r1 * r2 * Fraction(1, 6)
        + r1 * r3 * Fraction(1, 2)
    )
    qq = None
    for v in (u2, u3, u4):
        if v.q is not None:
            qq = v.q
    one = QuadReal(1)
    cubic = QuadPoly([u3, u2, QuadReal(0), one], q=qq)
    quartic = QuadPoly([u4, u3 * 4, u2 * 2, QuadReal(0), one], q=qq)

    cubic_roots = isolate_real_roots(cubic)
    n_cubic = sum(m for _, _, m in cubic_roots)
    cubic_all_real = n_cubic == 3
    svalue = QuadPoly([QuadReal(0), u3 * (-3), -u2], q=qq)
    cubic_sf = cubic.squarefree_part()
    thetas = []
    for lo, hi, mult in cubic_roots:
        thetas.extend([CertifiedReal(cubic_sf, (lo, hi), svalue)] * mult)

    quartic_roots = isolate_real_roots(quartic)
    n_quartic = sum(m for _, _, m in quartic_roots)
    quartic_all_real = n_quartic == 4
    quartic_sf = quartic.squarefree_part()
    # G(x) = x^5 + g1 x^4 + g2 x^3 + g3 x^2 + g4 x evaluated at beta = z - g1/5
    gpoly = QuadPoly([QuadReal(0), g4, g3, g2, g1, one], q=qq)
    shifted = gpoly.compose_linear(one, -g1 * Fraction(1, 5))
    betas = []
    for lo, hi, mult in reversed(quartic_roots):  # descending root order
        cr = CertifiedReal(quartic_sf, (lo, hi), shifted)
        betas.extend([cr] * mult)
    return LemmaQuantities(
        u2=u2,
        u3=u3,
        u4=u4,
        delta=delta,
        poly_part=poly_part,
        cubic=cubic,
        quartic=quartic,
        cubic_all_real=cubic_all_real,
        quartic_all_real=quartic_all_real,
        thetas=thetas,
        betas=betas,
        g1=g1,
    )


def _condition_r4(r, report: BoundsReport, lq: LemmaQuantities):
    """poly_part + 15*theta_min <= r4 <= poly_part + 15*theta_mid."""
    if not lq.cubic_all_real:
        report.add("4", False, "critical-point cubic has non-real roots")
        return
    r4 = _as_quad(r[3])
    c = (r4 - lq.poly_part) * Fraction(1, 15)
    try:
        signs = [th.compare(c) for th in lq.thetas]
    except PrecisionExhausted as exc:
        report.add("4", None, str(exc))
        return
    # sign s = theta - c: lower bound needs some theta <= c; upper needs >= two thetas >= c
    n_le = sum(1 for s in signs if s <= 0)
    n_ge = sum(1 for s in signs if s >= 0)
    report.add("4", n_le >= 1 and n_ge >= 2)


def _condition_r5(r, report: BoundsReport, lq: LemmaQuantities):
    """-6*lambda2 <= r5 <= -6*lambda1 via per-critical-point comparisons."""
    if not lq.quartic_all_real:
        report.add("5", False, "critical points of g are not all real")
        return
    r5 = _as_quad(r[4])
    c = -r5 * Fraction(1, 6)
    assert len(lq.betas) == 4, "four real critical points expected"
    try:
        s1 = lq.betas[0].compare(c)
        s3 = lq.betas[2].compare(c)
        s2 = lq.betas[1].compare(c)
        s4 = lq.betas[3].compare(c)
    except PrecisionExhausted as exc:
        report.add("5", None, str(exc))
        return
    # need G(b1) <= c, G(b3) <= c, G(b2) >= c, G(b4) >= c
    report.add("5", s1 <= 0 and s3 <= 0 and s2 >= 0 and s4 >= 0)


def lemma_check(r) -> BoundsReport:
    """The five necessary conditions on r_1..r_6 for all-positive-real roots."""
    if len(r) != 6:
        raise ValueError("expected r_1..r_6")
    rv = [_as_quad(v) for v in r]
    r1, r2, r3, r4, r5, r6 = rv
    report = BoundsReport()
    report.add("1", r1.sign() < 0)
    report.add("2", r2.sign() > 0 and (r1 * r1 * Fraction(5, 12) - r2).sign() >= 0)
    # condition 3: r3 < 0 and |10/9 r1^3 - 4 r1 r2 + 6 r3| <= sqrt(w) * K
    w = r1 * r1 * 25 - r2 * 60
    mid = r1 ** 3 * Fraction(10, 9) - r1 * r2 * 4 + r3 * 6
    if w.sign() < 0:
        report.add("3", False, "25 r1^2 - 60 r2 < 0 (condition 2 already fails)")
    else:
        k = r1 * r1 * Fraction(1, 3) - w * Fraction(1, 225) - r2 * Fraction(4, 5)
        upper_ok = sign_with_radical(mid, -k, w) <= 0  # mid <= K sqrt(w)
        lower_ok = sign_with_radical(mid, k, w) >= 0  # mid >= -K sqrt(w)
        report.add("3", r3.sign() < 0 and upper_ok and lower_ok)
    lq = lemma_quantities(rv)
    if r4.sign() <= 0:
        report.add("4", False)
    else:
        _condition_r4(rv, report, lq)
    if r5.sign() >= 0:
        report.add("5", False)
    else:
        _condition_r5(rv, report, lq)
    return report


def trivial_bounds(a, params: WeilParams) -> BoundsReport:
    """|a_i| < C(2g, i) q^(i/2), decided on squares; equality fails (it needs
    all roots real, excluded in the no-real-roots regime this feeds)."""
    g = len(a)
    q = params.q
    report = BoundsReport()
    for i, ai in enumerate(a, start=1):
        bound_sq = comb(2 * g, i) ** 2 * q ** i
        report.add(f"a{i}", ai * ai < bound_sq)
    return report


def corollary_bounds(a, params: WeilParams) -> BoundsReport:
    """The nine necessary conditions on (a_1..a_6, q), no-real-roots regime.

    Items 6 and 8 are lemma conditions (4) and (5) on both transforms f and
    ftilde, decided on the integer companion h.  Item 6 fails with the
    cubic's note if h''' has a non-real root, else passes iff h'' has only
    real roots; item 8 likewise on h'' and h', with the quartic's note.
      - The lemma's cubic is f'''/120 in w = x + r1/6, with theta - c =
        -f''(x)/30 at its roots; its quartic has the roots b of f'', with
        G(b) - c = f'(b)/6.
      - F of degree d, with positive leading coefficient and F' real-rooted
        at x_1 <= ... <= x_(d-1), has only real roots iff
        (-1)^(d-i) F(x_i) <= 0 for all i: Rolle one way, intermediate
        values on the d pieces the other (a zero at an x_i is a root of F'
        too, so one more time a root of F than of F').  That is (5) for
        F = f', and (4) for F = f'', as F(x_2) is its largest value.
      - f(y) = h(2 sqrt q - y) and ftilde(y) = h(y - 2 sqrt q): an affine
        change of variable, reflection included, keeps each derivative's
        real-rootedness, so both sides give h's answer and note.
      - Multiplicities need no care: both sides list repeated roots, and
        weil._real_rooted counts the roots of the squarefree part.
    No value is compared, so items 6 and 8 are never Indeterminate.
    """
    if len(a) != 6:
        raise ValueError("expected a_1..a_6")
    a1, a2, a3, a4, a5, a6 = [int(v) for v in a]
    q = params.q
    report = BoundsReport()
    report.add("1", a1 * a1 < 144 * q)
    left2 = sign_with_radical(QuadReal(a2 + 54 * q), QuadReal(-10 * abs(a1)), QuadReal(q)) > 0
    right2 = 12 * a2 <= 72 * q + 5 * a1 * a1
    report.add("2", left2 and right2)
    e3a = QuadReal(Fraction(a3 + 35 * q * a1), Fraction(8 * a2 + 112 * q), q)
    e3b = QuadReal(Fraction(-a3 - 35 * q * a1), Fraction(8 * a2 + 112 * q), q)
    report.add("3", e3a.sign() > 0 and e3b.sign() > 0)
    bigw = 25 * a1 * a1 - 60 * a2 + 360 * q
    if bigw < 0:
        report.add("4", False, "radicand negative (condition 2 already fails)")
    else:
        polyterm = Fraction(-5 * a1 ** 3, 27) + Fraction(2 * a1 * a2, 3) + q * a1
        coeff = Fraction(a1 * a1, 27) - Fraction(4 * a2, 45) + Fraction(8 * q, 15)
        base = QuadReal(a3 - polyterm)
        lower_ok = sign_with_radical(base, QuadReal(coeff), QuadReal(bigw)) >= 0
        upper_ok = sign_with_radical(base, QuadReal(-coeff), QuadReal(bigw)) <= 0
        report.add("4", lower_ok and upper_ok)
    e5 = QuadReal(a4 + 105 * q * q + 20 * q * a2)
    m5 = abs(25 * q * a1 + 3 * a3)
    report.add("5", sign_with_radical(e5, QuadReal(-2 * m5), QuadReal(q)) > 0)
    h1 = companion_poly(chi_from_a((a1, a2, a3, a4, a5, a6), params), params).derivative()
    h2 = h1.derivative()
    real3 = _real_rooted(_sturm_chain(h2.derivative()))
    real2 = real3 and _real_rooted(_sturm_chain(h2))  # by Rolle, real2 implies real3
    if not real3:
        report.add("6", False, "critical-point cubic has non-real roots")
    else:
        report.add("6", real2)
    left7 = QuadReal(
        Fraction(a5 + 25 * q * q * a1 + 9 * q * a3),
        Fraction(36 * q * q + 16 * q * a2 + 4 * a4),
        q,
    )
    right7 = QuadReal(
        Fraction(-25 * q * q * a1 - 9 * q * a3 - a5),
        Fraction(36 * q * q + 16 * q * a2 + 4 * a4),
        q,
    )
    report.add("7", left7.sign() > 0 and right7.sign() > 0)
    if not real2:
        report.add("8", False, "critical points of g are not all real")
    else:
        report.add("8", _real_rooted(_sturm_chain(h1)))
    report.add("9", a6 * a6 < 924 ** 2 * q ** 6)
    return report

