"""Q_p factor profiles of squarefree integer polynomials.

The profile records, for each irreducible factor of f over Q_p, its degree,
the common valuation of its roots (the slope, normalized v_p(p) = 1), the
valuation of its constant term, and the degree of the residual-polynomial
irreducible that certified it.  The engine is Ore's method with first-order
Montes refinement:

  * Newton-polygon segments are read off exactly; a segment of slope -a/b
    (lowest terms) and length l has a residual polynomial of degree l/b over
    F_p, and every simple irreducible residual factor of degree D certifies
    an irreducible Q_p factor of degree D*b with slope a/b.  The t-adic
    polygon is the phi-adic one for phi = t (Guardia-Montes-Nart), so one
    reader, _side, reads every side: t-adic, shifted and phi-adic alike,
    each from its digits (1-tuples of the coefficients when phi = t), and
    one rule, _records, turns its residual factors into records.
  * Residual polynomials are multiplicative (Guardia-Montes-Nart, Trans.
    AMS 364, 2012): on a side of f = g h, f's residual polynomial is g's
    times h's, and a factor with no root of that slope adds a nonzero
    constant.  So every root cluster is read off f itself: the
    positive-slope records off f's sides, and the unit records off
    f mod p = t^m u with u factored, a simple residue class phi certifying
    its record by Hensel's lemma.
  * Repeated residual factors trigger refinement, still on f itself: a
    repeated unit class t - c is shifted to 0, which gives its roots
    positive valuation and leaves the others units, and read as above; a
    repeated class phi of degree d >= 2 gets a phi-adic polygon over the
    abscissas 0..e of its multiplicity, with residuals over F_{p^d}, and
    repeated linear residuals there refine phi by a lifted correction.
    Integer-slope parts are peeled by the scaling t -> p*t, which turns
    them into unit classes.  The one Hensel lift splits the positive part
    off the unit roots for that scaling, and only when a side of integer
    slope has a repeated residual, since the scaling keeps every other
    residual polynomial.
  * Whatever remains (a repeated residual on a fractional-slope segment, or
    anything past the refinement depth) becomes an uncertified block record
    carrying the block degree, its slope, and the granularity its factor
    degrees are forced to respect.  Queries that cannot be decided from that
    much raise UncertifiedProfileError.

Inside the engine a slope h/e is the integer pair (h, e) in lowest terms:
_side returns it, the scaling t -> p*t maps it to (h + e, e), profile_weil's
mirror s -> n - s maps it to (n e - h, e), and _profile orders slopes by
exact integer keys.  A Fraction is made only where a FactorRecord stores
one, and no slope is ever compared as a float.

Working precision is K = 2 v_p(disc f) + v_p(f(0)) + 4, which separates the
true Q_p factors of a squarefree f; the engine retries at doubled precision
if a capped valuation is ever load-bearing, four tries in all.  Every profile
is checked against the Newton polygon of f: the slope multisets must agree.

qp_factor_profile(f, p) is the generic route.  profile_weil profiles a
q-Weil chi (q = p^n) through its companion h, as factor_weil factors it (the
companion route, proved in its docstring): each Q_p factor of h of slope
s < n/2 gives two factors of chi, of slopes s and n - s, read off h's profile
at half the degree and a far smaller K, and chi's side of slope n/2 is read
on chi's exact coefficients by _side, the one side reader of the engine.
The engine runs on chi itself (the fallback) only when h(0) = 0, when h's
profile below slope n/2 is not fully certified or its retries run out, or
when n is even and the middle side's residual polynomial is not squarefree.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import fpoly
from .arith import _record, is_prime, vp
from .errors import ExactnessError, StructuralError, UncertifiedProfileError
from .factorint import _monicize, discriminant
from .fpoly import ExtField, PrimeField, fdeg, ftrim
from .hensel import hensel_lift_pair
from .newton import _points_and_vertices, lower_hull
from .polynomial import IntPoly
from .weil import WeilParams, WeilVerdict

_ATTEMPTS = 4  # precision tries, K doubling after each
_MAX_DEPTH = 8  # refinement steps of one root cluster


@_record
class FactorRecord:
    degree: int
    slope: Fraction  # common root valuation
    const_valuation: int
    residual_degree: int | None
    certified: bool
    granularity: int = 1  # inside an uncertified block, factor degrees are
    # multiples of this

    def __post_init__(self):
        if self.degree % self.slope.denominator:
            raise StructuralError("degree not divisible by the slope denominator")
        if self.degree * self.slope.numerator != (
            self.const_valuation * self.slope.denominator
        ):
            raise StructuralError("constant valuation must be degree * slope")


@_record
class PadicFactorProfile:
    p: int
    degree: int
    const_valuation: int
    factors: tuple[FactorRecord, ...]

    def __post_init__(self):
        if sum(r.degree for r in self.factors) != self.degree:
            raise StructuralError("factor degrees do not sum to deg f")
        if sum(r.const_valuation for r in self.factors) != self.const_valuation:
            raise StructuralError("constant valuations do not sum to v_p(f(0))")

    @property
    def fully_certified(self) -> bool:
        return all(r.certified for r in self.factors)

    def slope_multiset(self) -> dict[Fraction, int]:
        out: dict[Fraction, int] = {}
        for r in self.factors:
            out[r.slope] = out.get(r.slope, 0) + r.degree
        return out


class _PrecisionShort(Exception):
    pass


# the slope of a unit root, as the engine carries slopes: an integer pair
# (h, e) in lowest terms for h/e, e > 0
_UNIT = (0, 1)


def _rec(degree, slope, residual_degree, certified, granularity=1) -> FactorRecord:
    """A record whose slope is the integer pair (h, e), h/e in lowest terms;
    its Fraction is made here, where the record stores it."""
    h, e = slope
    return FactorRecord(
        degree, Fraction(h, e), degree * h // e, residual_degree, certified, granularity
    )


def _pair(r: FactorRecord) -> tuple[int, int]:
    """r's slope as an integer pair in lowest terms."""
    return r.slope.numerator, r.slope.denominator


def _reslope(r: FactorRecord, slope) -> FactorRecord:
    return _rec(r.degree, slope, r.residual_degree, r.certified, r.granularity)


def _side(digits, start, end, p: int, K: int, F):
    """The slope of the Newton side of digits from vertex start to vertex
    end, as the integer pair (h, e) of h/e in lowest terms, and the
    factorization over F of its residual polynomial.

    digits are coefficient lists read mod p^K: 1-tuples of the coefficients
    for a t-adic polygon over F_p, the phi-adic digits for a phi-adic one
    over F_{p^d}.  The residual coefficient j is digit x1 + j e read at
    height y1 - j h and reduced into F.
    """
    (x1, y1), (x2, y2) = start, end
    if y1 + 1 > K:
        raise _PrecisionShort
    g = gcd(y1 - y2, x2 - x1)
    h, e = (y1 - y2) // g, (x2 - x1) // g
    res = []
    for j in range(g + 1):
        idx = x1 + j * e
        digit = digits[idx] if idx < len(digits) else ()
        res.append(F.of_poly([(c // p ** (y1 - j * h)) % p for c in digit]))
    return (h, e), fpoly.factor(F, res)[1]


def _records(parts, slope, e: int, d: int) -> list[FactorRecord]:
    """Ore's records of a side of ramification e whose residual polynomial
    over F_{p^d} factors as parts, for roots of valuation slope (an integer
    pair, as _rec takes it).  Each simple irreducible factor psi certifies a
    Q_p factor of degree e d deg psi and residual degree d deg psi; a
    repeated psi^m leaves an uncertified block of degree m e d deg psi whose
    factor degrees are multiples of e d deg psi."""
    out = []
    for psi, m in parts:
        deg = e * d * fdeg(psi)
        if m == 1:
            out.append(_rec(deg, slope, d * fdeg(psi), True))
        else:
            out.append(_rec(m * deg, slope, None, False, deg))
    return out


class _Engine:
    def __init__(self, p: int, K: int):
        self.p = p
        self.K = K
        self.mod = p ** K

    # -- helpers ---------------------------------------------------------------

    def _red(self, coeffs) -> list[int]:
        out = [c % self.mod for c in coeffs]
        n = len(out)
        while n and out[n - 1] == 0:
            n -= 1
        return out[:n]

    def _vp(self, c: int) -> int | None:
        """Valuation of a residue mod p^K; None means >= K (treated as +inf)."""
        c %= self.mod
        if c == 0:
            return None
        return vp(c, self.p)

    def _points(self, digits):
        """(j, the least valuation in digit j) for every digit that is not
        zero mod p^K."""
        pts = []
        for j, digit in enumerate(digits):
            vals = [v for v in map(self._vp, digit) if v is not None]
            if vals:
                pts.append((j, min(vals)))
        return pts

    # -- analysis ----------------------------------------------------------------

    def analyze(self, g: list[int], depth: int) -> list[FactorRecord]:
        """Records of the roots of the monic g: g mod p is t^m times the
        reduction of its unit part, its m roots of positive valuation are
        read by _positive and its unit roots by analyze_unit, both off g."""
        g = self._red(g)
        n = fdeg(g)
        if n <= 0:
            return []
        m = 0
        while m <= n and g[m] % self.p == 0:
            m += 1
        if m > n:  # pragma: no cover - leading coefficient must be a unit
            raise _PrecisionShort
        return self._positive(g, m, depth) + self.analyze_unit(g, depth, m)

    def _positive(self, g: list[int], m: int, depth: int) -> list[FactorRecord]:
        """Records of the m roots of positive valuation of the reduced g,
        whose m lowest coefficients are divisible by p and whose coefficient
        m is a unit, so the hull of g[:m+1] is g's hull cut at m.  Its other
        roots are units, which add only a unit constant to the residual
        polynomial of each side of positive slope, so those sides' records
        are read off g itself.  Only the scaling t -> p t refines anything
        more, and only on a side of integer slope with a repeated residual:
        then the positive part is split off by a Hensel lift (it is g itself
        when m = deg g) and scaled, which keeps every residual polynomial."""
        if not m:
            return []
        if g[0] == 0:
            raise _PrecisionShort
        p = self.p
        digits = [(c,) for c in g[: m + 1]]
        hull = lower_hull(self._points(digits))
        recs, below_one, repeated = [], False, False
        for start, end in zip(hull, hull[1:]):
            (h, e), parts = _side(digits, start, end, p, self.K, PrimeField(p))
            recs += _records(parts, (h, e), e, 1)
            below_one = below_one or h < e
            repeated = repeated or (e == 1 and any(mult > 1 for _, mult in parts))
        # the scaling needs every root valuation >= 1
        if below_one or not repeated:
            return recs
        if m < fdeg(g):
            tpart, upart = [0] * m + [1], [c % p for c in g[m:]]
            g = self._red(hensel_lift_pair(IntPoly(g), tpart, upart, p, self.K)[0].coeffs)
        scaled = [g[i] // p ** (m - i) for i in range(m + 1)]
        out = []
        for r in self.analyze(scaled, depth):
            h, e = _pair(r)
            out.append(_reslope(r, (h + e, e)))
        return out

    def analyze_unit(self, g: list[int], depth: int, m: int) -> list[FactorRecord]:
        """Records of the unit roots of the reduced g, whose m lowest
        coefficients are divisible by p and whose coefficient m is a unit.
        A simple residue class phi certifies its record by Hensel's lemma; a
        repeated one is refined on g itself."""
        F = PrimeField(self.p)
        gbar = ftrim(F, [c % self.p for c in g[m:]])
        _, parts = fpoly.factor(F, gbar)
        out = []
        for phi, e in parts:
            if e == 1:
                out.append(_rec(fdeg(phi), _UNIT, fdeg(phi), True))
            else:
                out.extend(self._unit_power(g, phi, e, depth))
        return out

    def _unit_power(self, g: list[int], phibar, e: int, depth: int) -> list[FactorRecord]:
        """Records of the e deg phibar roots of the reduced g in the residue
        class phibar^e, phibar irreducible mod p and e >= 2.  g's other roots
        lie in other classes, so the rest of g adds only a unit constant to
        each residual polynomial of the cluster."""
        d = fdeg(phibar)
        if depth <= 0:
            return [_rec(e * d, _UNIT, None, False, d)]
        if d > 1:
            return self._phi_adic(g, phibar, e, depth)
        # shift the class t - c to 0: its e roots get positive valuation,
        # and every other root stays a unit
        c = (-phibar[0] * pow(phibar[1], -1, self.p)) % self.p
        shifted = self._red(IntPoly(g).compose_linear(1, c).coeffs)
        out = []
        if shifted[0] == 0:
            # the shift hit a root to full working precision: that root is
            # certified (the separation bound rules out a second one), so
            # peel the linear factor t and continue with the cofactor
            out.append(_rec(1, _UNIT, 1, True))
            shifted, e = shifted[1:], e - 1
        inner = self._positive(shifted, e, depth - 1)
        return out + [_reslope(r, _UNIT) for r in inner]

    def _phi_expand(self, g: list[int], phi: list[int], count: int) -> list[list[int]]:
        """The first count digits of g's phi-adic expansion, mod p^K."""
        digits = []
        cur, phi_poly = IntPoly(g), IntPoly(phi)
        for _ in range(count):
            cur, rem = cur.divmod_monic(phi_poly)
            digits.append(self._red(rem.coeffs))
        return digits

    def _phi_adic(self, g: list[int], phibar, e: int, depth: int) -> list[FactorRecord]:
        """The cluster phibar^e, deg phibar >= 2, by the phi-adic polygon of
        g over the abscissas 0..e: the rest of g is coprime to phibar, so its
        digit 0 is a unit and g's digit e has valuation 0.  A repeated linear
        residual at integer phi-slope refines phi, at most depth times; past
        that it is left as an uncertified block.  A refined phi that divides
        g to full working precision is peeled as a certified factor."""
        p = self.p
        d = fdeg(phibar)
        Fd = ExtField(p, list(phibar))
        phi = [c % p for c in phibar]
        budget = depth
        peeled: list[FactorRecord] = []
        while True:
            digits = self._phi_expand(g, phi, e + 1)
            pts = self._points(digits)
            if not pts or pts[-1][0] != e or pts[-1][1] != 0:
                raise _PrecisionShort
            if pts[0][0] != 0:
                # phi divides g to full working precision: that factor is
                # certified (the separation bound rules out a second one), so
                # peel it and continue with the cofactor, as _unit_power does
                peeled.append(_rec(d, _UNIT, d, True))
                g = self._red(IntPoly(g).divmod_monic(IntPoly(phi))[0].coeffs)
                e -= 1
                continue
            hull = lower_hull(pts)
            sides = [_side(digits, a, b, p, self.K, Fd) for a, b in zip(hull, hull[1:])]
            repeated = [
                (h, psi)
                for (h, den), parts in sides
                for psi, m in parts
                if m > 1 and fdeg(psi) == 1 and den == 1
            ]
            if not (budget and repeated):
                return peeled + [
                    r
                    for (_, den), parts in sides
                    for r in _records(parts, _UNIT, den, d)
                ]
            # refine phi by the lifted residual root c = -psi[0]: the
            # cluster's roots satisfy v(phi(rho)/p^h - c) > 0
            h, psi = repeated[0]
            lift = Fd.neg(psi[0])
            phi = [phi[i] - p**h * lift[i] for i in range(d)] + [phi[d]]
            budget -= 1


def qp_factor_profile(f: IntPoly, p: int) -> PadicFactorProfile:
    """Certified Q_p factor profile of a squarefree integer polynomial."""
    if not is_prime(p):
        raise StructuralError(f"p = {p} is not a prime")
    if f.is_zero() or f.degree < 1:
        raise StructuralError("need a nonconstant polynomial")
    if f[0] == 0:
        raise StructuralError("constant term vanishes; factor out t-powers first")
    if f.lc() % p == 0:
        raise StructuralError("leading coefficient divisible by p is unsupported")
    disc = discriminant(f)
    if disc == 0:
        raise StructuralError(
            "input is not squarefree over Q; factor over Z first and profile "
            "each factor"
        )
    v0 = vp(f[0], p)
    K = 2 * vp(disc, p) + v0 + 4
    # lc is a unit at p, so lc^(n-1) f(t/lc) has f's root valuations
    work = _monicize(f)
    for attempt in range(1, _ATTEMPTS + 1):
        try:
            recs = _Engine(p, K).analyze(list(work.coeffs), _MAX_DEPTH)
            break
        except _PrecisionShort as exc:
            if attempt == _ATTEMPTS:
                raise UncertifiedProfileError(
                    f"precision retries exhausted after {attempt} attempts, "
                    f"the last at K={K}"
                ) from exc
            K *= 2
    return _profile(f, p, recs, _points_and_vertices(f, p)[1])


def _profile(f: IntPoly, p: int, recs, vertices) -> PadicFactorProfile:
    """The profile of f from its factor records, sorted, with its slopes
    checked against the vertices of f's Newton polygon: walked from f's unit
    leading coefficient, each record goes left by its degree and up by its
    constant valuation, and records of one slope make one side.  Records are
    ordered by slope, then degree, certified first; a slope h/e is ordered
    by the integer h * (scale // e), where scale is the lcm of the slopes'
    denominators, which orders any slopes exactly as their fractions."""
    keyed = [(r.slope.numerator, r.slope.denominator, r) for r in recs]
    scale = lcm(*[e for _, e, _ in keyed])
    keyed.sort(key=lambda t: (t[0] * (scale // t[1]), t[2].degree, not t[2].certified))
    factors = tuple([r for _, _, r in keyed])
    profile = PadicFactorProfile(
        p=p, degree=f.degree, const_valuation=vp(f[0], p), factors=factors
    )
    walk, side = [(f.degree, 0)], None
    for h, e, r in keyed:
        x, y = walk[-1]
        if side == (h, e):
            walk.pop()
        side = h, e
        walk.append((x - r.degree, y + r.const_valuation))
    if tuple(reversed(walk)) != vertices:
        raise ExactnessError("Q_p factor slopes differ from the Newton polygon")
    return profile


def profile_weil(chi: IntPoly, verdict: WeilVerdict, params: WeilParams) -> PadicFactorProfile:
    """The Q_p factor profile of a squarefree q-Weil chi, for verdict =
    is_weil(chi, params), read off the companion h = verdict.companion and
    off chi's Newton side of slope n/2 (q = p^n).

    The roots of chi above a root beta of h are the roots alpha, q/alpha of
    t^2 - beta t + q, whose valuations add up to n.

    Low slopes.  Let v(beta) = s < n/2.  Over Q_p(beta) the Newton polygon
    of t^2 - beta t + q has the points (0, n), (1, s), (2, 0), and (1, s)
    lies below the chord, so it has two slopes: v(alpha) = s and
    v(q/alpha) = n - s.  Roots of different valuation are not conjugate over
    Q_p(beta), so the quadratic splits there, and Q_p(alpha) = Q_p(beta)
    because beta = alpha + q/alpha.  Let H be an irreducible Q_p factor of h
    of degree d with roots of valuation s < n/2.  Galois permutes the roots
    of H transitively and keeps valuations, so the roots of chi of valuation
    s above them form one orbit, as do those of valuation n - s.  Each orbit
    has d elements, since each of its elements generates the field of a root
    of H.  So H gives exactly two irreducible Q_p factors of chi, of degree
    d and slopes s and n - s, whose fields are the field of H: each keeps
    H's record, whose residual degree is the residue degree of that field.

    The middle side.  Let v(beta) >= n/2.  Then (1, v(beta)) lies on or
    above the chord from (0, n) to (2, 0), so both roots above beta have
    valuation n/2.  Conversely, if v(alpha) = n/2 then v(q/alpha) = n/2 and
    v(beta) >= n/2.  So the roots of chi of valuation n/2 are exactly the
    two above each root of h of valuation >= n/2: chi has one Newton side of
    slope n/2, of length 2 #{beta : v(beta) >= n/2}, or none.  By Ore's
    theorem of the residual polynomial (Ore, Math. Ann. 99, 1928;
    Guardia-Montes-Nart, Trans. AMS 364, 2012), each simple irreducible
    factor psi of that side's residual polynomial certifies an irreducible
    Q_p factor of chi of degree e deg psi and residual degree deg psi, where
    e is the denominator of n/2, and a repeated psi^m leaves a block whose
    factor degrees are multiples of e deg psi (_side and _records, which
    read every t-adic, shifted and phi-adic side of chi's engine).  The side
    is read on chi's exact coefficients.

    Agreement with chi's engine.  Residual polynomials are multiplicative: a
    factor with no root of valuation n/2 contributes a nonzero constant.
    chi's engine reads positive-slope sides off chi itself, and only when a
    side of integer slope has a repeated residual off a positive part it
    has Hensel-lifted and scaled by t -> pt (every root valuation >= 1).
    The scaling divides coefficient i by the same power of p by which it
    lowers the side's heights, so it keeps the residual polynomial.  The
    engine therefore reads the same residual polynomial up to a unit and
    certifies the same records.  For odd n the slope is fractional and the
    engine never refines a fractional side, so its uncertified blocks there
    are the ones above.

    Routes.  The companion route mirrors the records of qp_factor_profile(h)
    of slope below n/2 (h's engine is skipped when there are none) and adds
    the records of the middle side.  qp_factor_profile(chi) runs instead
    (the fallback) when h(0) = 0, when a record of h of slope below n/2 is
    uncertified or h's precision retries run out (an uncertified block of h
    says nothing about how chi splits above it), and when n is even and the
    middle side's residual polynomial is not squarefree, since chi's engine
    refines repeated residuals at integer slopes.  Every profile's slopes
    are checked against chi's Newton polygon, and those of the companion
    route also for symmetry under s -> n - s.
    """
    return _profile_weil(chi, verdict, params, _points_and_vertices(chi, params.p)[1])


def _profile_weil(chi: IntPoly, verdict: WeilVerdict, params: WeilParams, vertices):
    """profile_weil, given the vertices of chi's Newton polygon at p."""
    if not verdict.is_weil:
        raise StructuralError("profile_weil needs a Weil verdict")
    h, p, n = verdict.companion, params.p, params.n
    if h[0] == 0:
        return qp_factor_profile(chi, p)
    recs = []
    # h has a root of valuation below n/2 exactly when chi has one (see the
    # middle side), that is when chi's polygon is more than one side
    if len(vertices) > 2:
        try:
            inner = qp_factor_profile(h, p)
        except UncertifiedProfileError:
            return qp_factor_profile(chi, p)
        for r in inner.factors:
            h, e = _pair(r)
            if 2 * h < n * e:
                if not r.certified:
                    return qp_factor_profile(chi, p)
                # gcd(n e - h, e) = gcd(h, e) = 1: the mirror is in lowest terms
                recs += (r, _reslope(r, (n * e - h, e)))
    for start, end in zip(vertices, vertices[1:]):
        if 2 * (start[1] - end[1]) == n * (end[0] - start[0]):
            digits = [(c,) for c in chi.coeffs]
            slope, parts = _side(digits, start, end, p, start[1] + 1, PrimeField(p))
            middle = _records(parts, slope, slope[1], 1)
            if n % 2 == 0 and not all(r.certified for r in middle):
                return qp_factor_profile(chi, p)
            recs += middle
    profile = _profile(chi, p, recs, vertices)
    shapes = [
        (
            r.slope.numerator,
            r.slope.denominator,
            r.degree,
            r.certified,
            r.residual_degree or 0,
            r.granularity,
        )
        for r in profile.factors
    ]
    if sorted(shapes) != sorted((n * d - s, d, *rest) for s, d, *rest in shapes):
        raise ExactnessError("Weil Q_p profile is not symmetric under s -> n - s")
    return profile


# -- queries -------------------------------------------------------------------


def _has_root_of_valuation(profile: PadicFactorProfile, h: int, e: int) -> bool:
    """Does the profile certify a Q_p root of valuation h/e, e > 0?  Each
    slope is compared with h/e by cross-multiplication.  An unresolved block
    of granularity 1 at that slope could hold such a root, so it raises
    UncertifiedProfileError unless a certified root answers first."""
    for r in profile.factors:
        if (
            r.certified
            and r.degree == 1
            and r.slope.numerator * e == h * r.slope.denominator
        ):
            return True
    for r in profile.factors:
        if (
            not r.certified
            and r.granularity == 1
            and r.slope.numerator * e == h * r.slope.denominator
        ):
            raise UncertifiedProfileError(
                "an unresolved block could contain the queried root"
            )
    return False


def tate_condition_profile(profile: PadicFactorProfile, n: int) -> bool:
    for r in profile.factors:
        if r.certified:
            if r.const_valuation % n:
                return False
        else:
            # factor degrees in the block are multiples of granularity;
            # candidate constant valuations are k * granularity * slope.  The
            # engine never builds a block that fails the next test: _records
            # gives each one the granularity e d deg psi, a multiple of its
            # slope denominator e, the _unit_power depth cap has slope 0, and
            # _reslope keeps e (or moves a unit cluster's slope to 0).  Only
            # a planted record reaches the raise.
            h, e = _pair(r)
            if r.granularity * h % e:
                raise UncertifiedProfileError(
                    "unresolved block with fractional valuation granularity"
                )
            if r.granularity * h // e % n == 0:
                continue  # every possible split passes
            if r.const_valuation % n:
                return False  # even the unsplit block fails
            raise UncertifiedProfileError(
                "Tate divisibility depends on an unresolved block"
            )
    return True
