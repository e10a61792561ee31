"""Q_p factor profiles of squarefree integer polynomials.

The profile records, for each irreducible factor of f over Q_p, its degree,
the common valuation of its roots (the slope, normalized v_p(p) = 1), the
valuation of its constant term, and the degree of the residual-polynomial
irreducible that certified it.  The engine is Ore's method with first-order
Montes refinement:

  * Newton-polygon segments are read off exactly; a segment of slope -a/b
    (lowest terms) and length l has a residual polynomial of degree l/b over
    F_p, and every simple irreducible residual factor of degree D certifies
    an irreducible Q_p factor of degree D*b with slope a/b.
  * Repeated residual factors trigger refinement: unit blocks (slope 0)
    whose residue class phi is repeated are split off by mod-p Hensel
    lifting, against the product of the simple classes, and analyzed per
    residue class (a simple phi certifies its record by Hensel's lemma,
    with no lift);
    residue classes t - c are shifted by a lifted approximation and re-run;
    residue classes of degree d >= 2 get a phi-adic polygon with residuals
    over F_{p^d}, and repeated linear residuals there refine phi by a lifted
    correction.  Integer-slope parts are peeled by the scaling t -> p*t.
  * Whatever remains (a repeated residual on a fractional-slope segment, or
    anything past the refinement depth) becomes an uncertified block record
    carrying the block degree, its slope, and the granularity its factor
    degrees are forced to respect.  Queries that cannot be decided from that
    much raise UncertifiedProfileError with the partial profile attached.

Working precision is K = 2 v_p(disc f) + v_p(f(0)) + 4, which separates the
true Q_p factors of a squarefree f; the engine retries at doubled precision
if a capped valuation is ever load-bearing, four tries in all.  Every profile
is checked against the Newton polygon of f: the slope multisets must agree.

qp_factor_profile(f, p) is the generic route.  profile_weil profiles a
q-Weil chi (q = p^n) through its companion h, as factor_weil factors it (the
companion route, proved in its docstring): each Q_p factor of h of slope
s < n/2 gives two factors of chi, of slopes s and n - s, read off h's profile
at half the degree and a far smaller K, and chi's side of slope n/2 is read
on chi's exact coefficients by _side_records, the side reader of the engine.
The engine runs on chi itself (the fallback) only when h(0) = 0, when h's
profile below slope n/2 is not fully certified or its retries run out, or
when n is even and the middle side's residual polynomial is not squarefree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from . import fpoly
from .arith import vp
from .errors import ExactnessError, StructuralError, UncertifiedProfileError
from .factorint import discriminant
from .fpoly import DEFAULT_SEED, ExtField, PrimeField, fdeg, fmul, ftrim
from .hensel import hensel_lift_multi, hensel_lift_pair
from .newton import lower_hull, newton_polygon
from .polynomial import IntPoly
from .weil import WeilParams, WeilVerdict

_ATTEMPTS = 4  # precision tries, K doubling after each


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "factors": [
                {
                    "degree": r.degree,
                    "slope": str(r.slope),
                    "const_valuation": r.const_valuation,
                    "residual_degree": r.residual_degree,
                    "certified": r.certified,
                }
                for r in self.factors
            ],
            "fully_certified": self.fully_certified,
        }


class _PrecisionShort(Exception):
    pass


@dataclass(frozen=True)
class _Rec:
    degree: int
    slope: Fraction
    residual_degree: int | None
    certified: bool
    granularity: int


def _side_records(g, start, end, p: int, K: int, seed: int) -> list[_Rec]:
    """Ore's records of the Newton side of g from vertex start to vertex end,
    its coefficients read mod p^K.

    A side of root valuation a/b (lowest terms) and length l has a residual
    polynomial of degree l/b over F_p.  Each simple irreducible factor psi of
    it certifies a Q_p factor of degree b * deg psi and residual degree
    deg psi; a repeated factor psi^m leaves an uncertified block of degree
    m * b * deg psi whose factor degrees are multiples of b * deg psi.
    """
    (x1, y1), (x2, y2) = start, end
    rise, run = y1 - y2, x2 - x1
    d = gcd(rise, run)
    a, b = rise // d, run // d
    if y1 + 1 > K:
        raise _PrecisionShort
    mod = p**K
    res = []
    for j in range(run // b + 1):
        idx = x1 + j * b
        c = g[idx] % mod if idx < len(g) else 0
        res.append((c // p ** (y1 - j * a)) % p)
    _, parts = fpoly.factor(PrimeField(p), res, seed=seed)
    slope = Fraction(a, b)
    out = []
    for psi, mult in parts:
        deg_psi = fdeg(psi)
        if mult == 1:
            out.append(_Rec(deg_psi * b, slope, deg_psi, True, 1))
        else:
            out.append(_Rec(mult * deg_psi * b, slope, None, False, deg_psi * b))
    return out


class _Engine:
    def __init__(self, p: int, K: int, seed: int, max_depth: int):
        self.p = p
        self.K = K
        self.mod = p ** K
        self.seed = seed
        self.max_depth = max_depth

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

    def _points(self, g: list[int]):
        pts = []
        for i, c in enumerate(g):
            v = self._vp(c)
            if v is not None:
                pts.append((i, v))
        return pts

    # -- top-level analysis ------------------------------------------------------

    def analyze(self, g: list[int], depth: int) -> list[_Rec]:
        g = self._red(g)
        n = fdeg(g)
        if n <= 0:
            return []
        if self._vp(g[0]) is None:
            raise _PrecisionShort
        p = self.p
        m = 0
        while m <= n and g[m] % p == 0:
            m += 1
        if m == 0:
            return self.analyze_unit(g, depth)
        if m > n:  # pragma: no cover - leading coefficient must be a unit
            raise _PrecisionShort
        if m == n:
            return self._analyze_positive(g, depth)
        # mixed: split off the unit part by a mod-p coprime Hensel lift
        F = PrimeField(p)
        gbar = ftrim(F, [c % p for c in g])
        tpart = [0] * m + [1]
        upart = fpoly.fdivmod(F, gbar, tpart)[0]
        gp, gu = hensel_lift_pair(IntPoly(g), tpart, upart, p, self.K)
        return self._analyze_positive(list(gp.coeffs), depth) + self.analyze_unit(
            list(gu.coeffs), depth
        )

    def _analyze_positive(self, g: list[int], depth: int) -> list[_Rec]:
        """All roots of g have strictly positive valuation."""
        g = self._red(g)
        n = fdeg(g)
        pts = self._points(g)
        hull = lower_hull(pts)
        if self._vp(g[0]) is None:
            raise _PrecisionShort
        # integral scaling when every root valuation is >= 1
        if all(v >= n - i for i, v in pts):
            scaled = [g[i] // self.p ** (n - i) for i in range(n + 1)]
            inner = self.analyze(scaled, depth)
            return [replace(r, slope=r.slope + 1) for r in inner]
        out: list[_Rec] = []
        for start, end in zip(hull, hull[1:]):
            out.extend(_side_records(g, start, end, self.p, self.K, self.seed))
        return out

    # -- unit blocks ---------------------------------------------------------------

    def analyze_unit(self, g: list[int], depth: int) -> list[_Rec]:
        g = self._red(g)
        p = self.p
        F = PrimeField(p)
        gbar = ftrim(F, [c % p for c in g])
        _, parts = fpoly.factor(F, gbar, seed=self.seed)
        # A simple factor phi certifies its record by Hensel's lemma, so only
        # the blocks phi^e with e >= 2 are lifted, against the product of
        # the simple ones; the lift of a coprime split mod p is unique.
        repeated = [(phi, e) for phi, e in parts if e > 1]
        if len(parts) == 1 and repeated:
            return self._unit_power(g, *repeated[0], depth)
        blocks = iter(())
        if repeated:
            seeds, simple = [], [F.one]
            for phi, e in parts:
                if e == 1:
                    simple = fmul(F, simple, phi)
                    continue
                blk = [F.one]
                for _ in range(e):
                    blk = fmul(F, blk, phi)
                seeds.append(blk)
            if len(simple) > 1:
                seeds.append(simple)
            blocks = iter(hensel_lift_multi(IntPoly(g), seeds, p, self.K))
        out = []
        for phi, e in parts:
            if e == 1:
                out.append(_Rec(fdeg(phi), Fraction(0), fdeg(phi), True, 1))
            else:
                out.extend(self._unit_power(list(next(blocks).coeffs), phi, e, depth))
        return out

    def _unit_power(self, g: list[int], phibar, e: int, depth: int) -> list[_Rec]:
        """g == phibar^e mod p with phibar irreducible, e >= 2."""
        d = fdeg(phibar)
        n = fdeg(g)
        if depth <= 0:
            return [_Rec(n, Fraction(0), None, False, d)]
        if d == 1:
            # shift by the lifted residue root and re-run on positive slopes
            c = (-phibar[0] * pow(phibar[1], -1, self.p)) % self.p
            shifted = self._red(IntPoly(self._red(g)).compose_linear(1, c).coeffs)
            out = []
            if not shifted or shifted[0] % self.mod == 0:
                # the shift hit a root to full working precision: that root is
                # certified (the separation bound rules out a second one), so
                # peel the linear factor t and continue with the cofactor
                out.append(_Rec(1, Fraction(0), 1, True, 1))
                shifted = shifted[1:]
                if fdeg(shifted) <= 0:
                    return out
            inner = self.analyze(shifted, depth - 1)
            return out + [replace(r, slope=Fraction(0)) for r in inner]
        return self._phi_adic(g, phibar, e, depth)

    def _phi_expand(self, g: list[int], phi: list[int]) -> list[list[int]]:
        digits = []
        cur = IntPoly(self._red(g))
        phi_poly = IntPoly(phi)
        while not cur.is_zero():
            quot, rem = cur.divmod_monic(phi_poly)
            digits.append(self._red(list(rem.coeffs)))
            cur = quot
        return digits

    def _phi_adic(self, g: list[int], phibar, e: int, depth: int) -> list[_Rec]:
        p = self.p
        d = fdeg(phibar)
        Fd = ExtField(p, list(phibar))
        phi = [c % p for c in phibar]
        budget = depth
        while True:
            digits = self._phi_expand(g, phi)
            pts = []
            for j, digit in enumerate(digits):
                vals = [self._vp(c) for c in digit]
                vals = [v for v in vals if v is not None]
                if vals:
                    pts.append((j, min(vals)))
            if not pts or pts[-1][0] != e or pts[-1][1] != 0:
                raise _PrecisionShort
            if pts[0][0] != 0:
                # phi divides g mod p^K exactly at index 0: cannot happen for
                # squarefree input at adequate precision
                raise _PrecisionShort
            hull = lower_hull(pts)
            out: list[_Rec] = []
            refine_to = None
            for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
                rise, run = y1 - y2, x2 - x1
                gg = gcd(rise, run)
                h, ee = rise // gg, run // gg  # phi-slope -h/ee
                coeffs = []
                for j in range((x2 - x1) // ee + 1):
                    idx = x1 + j * ee
                    need = y1 - j * h
                    if need + 1 > self.K:
                        raise _PrecisionShort
                    digit = digits[idx] if idx < len(digits) else []
                    red = [(c // p ** need) % p for c in digit]
                    coeffs.append(Fd.of_poly(red))
                _, parts = fpoly.factor(Fd, coeffs, seed=self.seed)
                for psi, mult in parts:
                    dpsi = fdeg(psi)
                    if mult == 1:
                        out.append(_Rec(ee * dpsi * d, Fraction(0), d * dpsi, True, 1))
                    elif dpsi == 1 and ee == 1 and refine_to is None and budget > 0:
                        # refine phi by the lifted residual root: the cluster's
                        # roots satisfy v(phi(rho)/p^h - c) > 0
                        c_elem = Fd.neg(psi[0])  # psi = y - c, root c = -psi[0]
                        lift = [int(x) % p for x in c_elem]
                        refine_to = [
                            (phi[i] - p ** h * (lift[i] if i < len(lift) else 0))
                            for i in range(len(phi))
                        ]
                    else:
                        out.append(
                            _Rec(
                                mult * ee * dpsi * d,
                                Fraction(0),
                                None,
                                False,
                                ee * dpsi * d,
                            )
                        )
            if refine_to is None:
                return out
            phi = refine_to
            budget -= 1
            if budget < 0:
                return [_Rec(fdeg(g), Fraction(0), None, False, d)]


def qp_factor_profile(
    f: IntPoly, p: int, max_depth: int = 8, seed: int = DEFAULT_SEED
) -> PadicFactorProfile:
    """Certified Q_p factor profile of a squarefree integer polynomial."""
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
    work = f
    if f.lc() != 1:
        # normalize to monic over Z_p: multiply by lc^(n-1) and substitute t/lc
        b = f.lc()
        work = IntPoly([c * b ** (f.degree - 1 - i) for i, c in enumerate(f.coeffs)])
    for attempt in range(1, _ATTEMPTS + 1):
        try:
            recs = _Engine(p, K, seed, max_depth).analyze(list(work.coeffs), max_depth)
            break
        except _PrecisionShort as exc:
            if attempt == _ATTEMPTS:
                raise UncertifiedProfileError(
                    f"precision retries exhausted after {attempt} attempts, "
                    f"the last at K={K}"
                ) from exc
            K *= 2
    return _profile(f, p, recs, newton_polygon(f, p).vertices)


def _profile(f: IntPoly, p: int, recs, vertices) -> PadicFactorProfile:
    """The profile of f from its factor records, sorted, with its slopes
    checked against the vertices of f's Newton polygon: walked from f's unit
    leading coefficient, each record goes left by its degree and up by its
    constant valuation, and records of one slope make one side."""
    factors = tuple(
        FactorRecord(
            degree=r.degree,
            slope=r.slope,
            const_valuation=r.degree * r.slope.numerator // r.slope.denominator,
            residual_degree=r.residual_degree,
            certified=r.certified,
            granularity=r.granularity,
        )
        for r in sorted(recs, key=lambda r: (r.slope, r.degree, not r.certified))
    )
    profile = PadicFactorProfile(
        p=p, degree=f.degree, const_valuation=vp(f[0], p), factors=factors
    )
    walk, side = [(f.degree, 0)], None
    for r in factors:
        x, y = walk[-1]
        if side == (r.slope.numerator, r.slope.denominator):
            walk.pop()
        side = r.slope.numerator, r.slope.denominator
        walk.append((x - r.degree, y + r.const_valuation))
    if tuple(reversed(walk)) != vertices:
        raise ExactnessError("Q_p factor slopes differ from the Newton polygon")
    return profile


def profile_weil(
    chi: IntPoly, verdict: WeilVerdict, params: WeilParams, seed: int = DEFAULT_SEED
) -> PadicFactorProfile:
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
    factor degrees are multiples of e deg psi (_side_records, the reader
    chi's engine uses).  The side is read on chi's exact coefficients.

    Agreement with chi's engine.  Residual polynomials are multiplicative: a
    factor with no root of valuation n/2 contributes a nonzero constant.
    chi's engine splits off the unit roots by a Hensel lift and scales
    t -> pt while every root valuation is >= 1; the scaling divides
    coefficient i by the same power of p by which it lowers the side's
    heights, so it keeps the residual polynomial.  The engine therefore
    reads the same residual polynomial up to a unit and certifies the same
    records.  For odd n the slope is fractional and the engine never refines
    a fractional side, so its uncertified blocks there are the ones above.

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
    if not verdict.is_weil:
        raise StructuralError("profile_weil needs a Weil verdict")
    h, p, n = verdict.companion, params.p, params.n
    if h[0] == 0:
        return qp_factor_profile(chi, p, seed=seed)
    recs = []
    (x, y), (g, _) = newton_polygon(h, p).vertices[-2:]  # h's least root valuation
    if 2 * y < n * (g - x):
        try:
            inner = qp_factor_profile(h, p, seed=seed)
        except UncertifiedProfileError:
            return qp_factor_profile(chi, p, seed=seed)
        for r in inner.factors:
            if 2 * r.slope.numerator < n * r.slope.denominator:
                if not r.certified:
                    return qp_factor_profile(chi, p, seed=seed)
                recs += (r, _Rec(r.degree, n - r.slope, r.residual_degree, True, 1))
    vertices = newton_polygon(chi, p).vertices
    for start, end in zip(vertices, vertices[1:]):
        if 2 * (start[1] - end[1]) == n * (end[0] - start[0]):
            middle = _side_records(chi.coeffs, start, end, p, start[1] + 1, seed)
            if n % 2 == 0 and not all(r.certified for r in middle):
                return qp_factor_profile(chi, p, seed=seed)
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


def profile_has_root_of_valuation(profile: PadicFactorProfile, target) -> bool:
    target = Fraction(target)
    for r in profile.factors:
        if r.certified and r.degree == 1 and r.slope == target:
            return True
    for r in profile.factors:
        if not r.certified and r.slope == target and r.granularity == 1:
            raise UncertifiedProfileError(
                "an unresolved block could contain the queried root",
                partial=profile,
            )
    return False


def tate_condition_profile(profile: PadicFactorProfile, n: int) -> bool:
    for r in profile.factors:
        if r.certified:
            if r.const_valuation % n:
                return False
        else:
            # factor degrees in the block are multiples of granularity;
            # candidate constant valuations are k * granularity * slope
            unit = r.granularity * r.slope
            if unit.denominator != 1:
                raise UncertifiedProfileError(
                    "unresolved block with fractional valuation granularity",
                    partial=profile,
                )
            if int(unit) % n == 0:
                continue  # every possible split passes
            if (r.degree * r.slope) % n:
                return False  # even the unsplit block fails
            raise UncertifiedProfileError(
                "Tate divisibility depends on an unresolved block",
                partial=profile,
            )
    return True
