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
  * Repeated residual factors trigger refinement: unit blocks (slope 0) are
    split off by mod-p Hensel lifting and analyzed per residue class;
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
q-Weil chi through its companion h, as factor_weil factors it.  When every
root of h has valuation below n/2 (q = p^n), each Q_p factor of h gives two
factors of chi, of slopes s and n - s (the mirror route, proved in its
docstring), and the engine runs on h at half the degree and a far smaller
K.  When a root of h has valuation n/2 or more, or h's profile is not fully
certified, the engine runs on chi itself.
"""

from __future__ import annotations

from collections import Counter
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
        if self.degree * self.slope != self.const_valuation:
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
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            rise, run = y1 - y2, x2 - x1
            d = gcd(rise, run)
            a, b = rise // d, run // d  # slope -a/b, lowest terms
            out.extend(self._segment_records(g, (x1, y1), (x2, y2), a, b, depth))
        return out

    def _segment_residual(self, g, start, end, a, b):
        x1, y1 = start
        x2, _ = end
        length = x2 - x1
        coeffs = []
        for j in range(length // b + 1):
            idx = x1 + j * b
            need = y1 - j * a
            c = g[idx] % self.mod if idx < len(g) else 0
            if need + 1 > self.K:
                raise _PrecisionShort
            coeffs.append((c // self.p ** need) % self.p)
        return coeffs

    def _segment_records(self, g, start, end, a, b, depth) -> list[_Rec]:
        slope = Fraction(a, b)
        res = self._segment_residual(g, start, end, a, b)
        F = PrimeField(self.p)
        _, parts = fpoly.factor(F, res, seed=self.seed)
        out = []
        for psi, mult in parts:
            deg_psi = fdeg(psi)
            if mult == 1:
                out.append(_Rec(deg_psi * b, slope, deg_psi, True, 1))
            else:
                # repeated residual on a (necessarily fractional here when it
                # cannot be rescaled) segment: unresolvable at first order
                out.append(
                    _Rec(mult * deg_psi * b, slope, None, False, deg_psi * b)
                )
        return out

    # -- unit blocks ---------------------------------------------------------------

    def analyze_unit(self, g: list[int], depth: int) -> list[_Rec]:
        g = self._red(g)
        p = self.p
        F = PrimeField(p)
        gbar = ftrim(F, [c % p for c in g])
        _, parts = fpoly.factor(F, gbar, seed=self.seed)
        if len(parts) == 1:
            phi, e = parts[0]
            if e == 1:
                return [_Rec(fdeg(phi), Fraction(0), fdeg(phi), True, 1)]
            return self._unit_power(g, phi, e, depth)
        seeds = []
        for phi, e in parts:
            blk = [F.one]
            for _ in range(e):
                blk = fmul(F, blk, phi)
            seeds.append(blk)
        blocks = hensel_lift_multi(IntPoly(g), seeds, p, self.K)
        out = []
        for (phi, e), blk in zip(parts, blocks):
            if e == 1:
                out.append(_Rec(fdeg(phi), Fraction(0), fdeg(phi), True, 1))
            else:
                out.extend(self._unit_power(list(blk.coeffs), phi, e, depth))
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
    return _profile(f, p, recs)


def _profile(f: IntPoly, p: int, recs) -> PadicFactorProfile:
    """The profile of f from its factor records, sorted, with its slopes
    checked against the Newton polygon of f."""
    factors = tuple(
        FactorRecord(
            degree=r.degree,
            slope=r.slope,
            const_valuation=int(r.degree * r.slope),
            residual_degree=r.residual_degree,
            certified=r.certified,
            granularity=r.granularity,
        )
        for r in sorted(recs, key=lambda r: (r.slope, r.degree, not r.certified))
    )
    profile = PadicFactorProfile(
        p=p, degree=f.degree, const_valuation=vp(f[0], p), factors=factors
    )
    if profile.slope_multiset() != newton_polygon(f, p).valuation_multiset():
        raise ExactnessError("Q_p factor slopes differ from the Newton polygon")
    return profile


def profile_weil(
    chi: IntPoly, verdict: WeilVerdict, params: WeilParams, seed: int = DEFAULT_SEED
) -> PadicFactorProfile:
    """The Q_p factor profile of a squarefree q-Weil chi, for verdict =
    is_weil(chi, params), read off the companion h = verdict.companion where
    that is possible.

    Mirror lemma.  Let beta be a root of h with v(beta) = s < n/2, and let
    alpha, q/alpha be the two roots of t^2 - beta t + q, the roots of chi
    above beta.  Over Q_p(beta) the Newton polygon of t^2 - beta t + q has
    the points (0, n), (1, s), (2, 0), and (1, s) lies below the chord, so
    it has two slopes: v(alpha) = s and v(q/alpha) = n - s.  Roots of
    different valuation are not conjugate over Q_p(beta), so the quadratic
    splits there, and Q_p(alpha) = Q_p(beta) because beta = alpha + q/alpha.
    Let H be an irreducible Q_p factor of h of degree d with roots of
    valuation s < n/2.  Galois permutes the roots of H transitively and keeps
    valuations, so the roots of chi of valuation s above them form one orbit,
    as do those of valuation n - s.  Each orbit has d elements, since each of
    its elements generates the field of a root of H.  So H gives exactly two
    irreducible Q_p factors of chi, of degree d and slopes s and n - s, whose
    fields are the field of H: each keeps H's record, whose residual degree is
    the residue degree of that field.  The profile's slopes are then checked
    against chi's Newton polygon and for symmetry under s -> n - s.

    Routes.  A root of h of valuation >= n/2 (beta = 0 included) has roots of
    chi of valuation n/2 above it, which the lemma does not describe, so then
    qp_factor_profile(chi) runs (the middle route).  Otherwise h's profile is
    mirrored (the mirror route), unless it is not fully certified or its
    precision retries run out: an uncertified block of h says nothing about
    how chi splits above it, so chi's engine runs (the fallback).
    """
    if not verdict.is_weil:
        raise StructuralError("profile_weil needs a Weil verdict")
    h, p, n = verdict.companion, params.p, params.n
    if h[0] != 0 and all(2 * s < n for s in newton_polygon(h, p).valuation_multiset()):
        try:
            inner = qp_factor_profile(h, p, seed=seed)
        except UncertifiedProfileError:
            inner = None
        if inner is not None and inner.fully_certified:
            return _mirror(chi, inner, n)
    return qp_factor_profile(chi, p, seed=seed)


def _mirror(chi: IntPoly, inner: PadicFactorProfile, n: int) -> PadicFactorProfile:
    """Two records of slopes s and n - s for each record of h's profile."""
    profile = _profile(
        chi,
        inner.p,
        [
            _Rec(r.degree, s, r.residual_degree, r.certified, r.granularity)
            for r in inner.factors
            for s in (r.slope, n - r.slope)
        ],
    )

    def shape(r, slope):
        return slope, r.degree, r.residual_degree, r.certified, r.granularity

    if Counter(shape(r, r.slope) for r in profile.factors) != Counter(
        shape(r, n - r.slope) for r in profile.factors
    ):
        raise ExactnessError("mirrored Q_p profile is not symmetric under s -> n - s")
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
