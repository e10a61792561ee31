"""Planted faults: each exact-arithmetic gate raises ExactnessError when the
intermediate it certifies is wrong.

Every test plants one wrong intermediate by monkeypatch, on an input whose
unplanted run passes the gate, and asserts the gate's message.  The sweep
at the end finds every `raise ExactnessError` in the package and requires a
test here or elsewhere in the suite to name its message.
"""

import ast
import re
from pathlib import Path

import pytest

from weilpoly import factorint, hensel, padic, weil
from weilpoly.errors import ExactnessError
from weilpoly.factorint import factor_over_integers
from weilpoly.hensel import hensel_lift_pair
from weilpoly.padic import profile_weil
from weilpoly.polynomial import IntPoly
from weilpoly.weil import WeilParams, chi_from_a, companion_poly, is_weil

PACKAGE_DIR = Path(weil.__file__).parent
TESTS_DIR = Path(__file__).parent

# (t^4 + 1)(t^4 + t + 1): two irreducible quartics, so the degree sieve
# cannot rule out degree 4 and the factorization lifts and recombines
TWO_QUARTICS = IntPoly([1, 0, 0, 0, 1]) * IntPoly([1, 1, 0, 0, 1])


def test_zassenhaus_recombination_is_verified(monkeypatch):
    # the sieve hands back a linear factor t + 1 that does not divide f
    sieve = factorint._sieve

    def planted(f, lc, disc):
        linear, cofactor, allowed, reductions = sieve(f, lc, disc)
        return [*linear, IntPoly([1, 1])], cofactor, allowed, reductions

    assert factor_over_integers(TWO_QUARTICS)[1] == [(IntPoly([1, 0, 0, 0, 1]), 1), (IntPoly([1, 1, 0, 0, 1]), 1)]
    monkeypatch.setattr(factorint, "_sieve", planted)
    with pytest.raises(ExactnessError, match="^Zassenhaus recombination failed verification$"):
        factor_over_integers(TWO_QUARTICS)


def test_factorization_is_checked_against_the_input(monkeypatch):
    # one irreducible factor goes missing
    factor = factorint._factor_primitive
    monkeypatch.setattr(factorint, "_factor_primitive", lambda f, disc: factor(f, disc)[1:])
    with pytest.raises(ExactnessError, match="^factorization failed to reconstruct the input$"):
        factor_over_integers(TWO_QUARTICS)


def test_hensel_lift_is_verified(monkeypatch):
    # t^2 - 2 = (t - 3)(t - 4) mod 7, lifted to 7^4; the last step's G
    # comes back off by m, a wrong lift mod m^2 that still agrees mod m
    f, p, k = IntPoly([-2, 0, 1]), 7, 4
    lift = hensel._lift_factors

    def planted(m, fl, g, h, s, t):
        G, H = lift(m, fl, g, h, s, t)
        if m * m >= p ** k:
            G = [G[0] + m, *G[1:]]
        return G, H

    g, h = hensel_lift_pair(f, [-3, 1], [-4, 1], p, k)
    assert all(c % p ** k == 0 for c in (g * h - f).coeffs)
    monkeypatch.setattr(hensel, "_lift_factors", planted)
    with pytest.raises(ExactnessError, match="^Hensel lift failed verification$"):
        hensel_lift_pair(f, [-3, 1], [-4, 1], p, k)


def test_weil_profile_is_checked_for_symmetry(monkeypatch):
    # t^2 + t + 2 at q = 2 is ordinary: its companion x + 1 has a root of
    # valuation 0, mirrored to slope 1.  The mirror comes back with another
    # residual degree, which keeps the Newton polygon but breaks s -> n - s.
    chi, P = IntPoly([2, 1, 1]), WeilParams.from_q(2)
    verdict = is_weil(chi, P)
    assert verdict.is_weil and profile_weil(chi, verdict, P).fully_certified
    monkeypatch.setattr(
        padic,
        "_reslope",
        lambda r, slope: padic._rec(r.degree, slope, (r.residual_degree or 0) + 1, r.certified, r.granularity),
    )
    with pytest.raises(ExactnessError, match=r"^Weil Q_p profile is not symmetric under s -> n - s$"):
        profile_weil(chi, verdict, P)


def test_companion_is_certified_by_expansion(monkeypatch):
    # the triangular solve reads a wrong C(6, 1) q, so h's x^4 coefficient
    # is off; the expansion back into chi reads the true table
    P = WeilParams.from_q(2)
    chi = chi_from_a((1, 0, -2, 0, 3, 1), P)
    table = weil._binomial_table
    reads = []

    def planted(d, q):
        rows = table(d, q)
        reads.append(d)
        if len(reads) == 1:
            rows = (*rows[:d], (rows[d][0], rows[d][1] + 1, *rows[d][2:]))
        return rows

    companion_poly(chi, P)
    monkeypatch.setattr(weil, "_binomial_table", planted)
    with pytest.raises(ExactnessError, match="^companion reconstruction failed$"):
        companion_poly(chi, P)
    assert reads == [6, 6]


def test_sturm_chain_gcd_division_checks_the_leading_coefficient(monkeypatch):
    # x^3 + x^2: a planted zero remainder makes 3x^2 + 2x the "gcd", whose
    # leading coefficient does not divide x^3's
    monkeypatch.setattr(weil, "_sturm_step", lambda a, b: [])
    with pytest.raises(ExactnessError, match="^division was not exact$"):
        weil._sturm_chain((0, 0, 1, 1))


def test_sturm_chain_gcd_division_checks_the_remainder(monkeypatch):
    # x^3 + 3x: a planted zero remainder makes x^2 + 1 the "gcd", which
    # leaves the remainder 2x
    monkeypatch.setattr(weil, "_sturm_step", lambda a, b: [])
    with pytest.raises(ExactnessError, match="^division was not exact$"):
        weil._sturm_chain((0, 3, 0, 1))


def _raised_messages() -> list[str]:
    """The message of every `raise ExactnessError("...")` in the package, one
    entry per raise."""
    out = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                if getattr(func, "id", getattr(func, "attr", None)) == "ExactnessError":
                    (arg,) = node.exc.args
                    assert isinstance(arg, ast.Constant), f"{path.name}:{node.lineno} raises no literal message"
                    out.append(arg.value)
    return out


def _named_patterns() -> list[str]:
    """The match= pattern of every `pytest.raises(ExactnessError, match=...)`
    in the test suite, one entry per call."""
    out = []
    for path in sorted(TESTS_DIR.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "raises"
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "ExactnessError"
            ):
                out += [kw.value.value for kw in node.keywords if kw.arg == "match"]
    return out


def test_every_exactness_gate_has_a_planted_fault_test():
    """A message raised at k places needs k tests whose pattern finds it and
    no other message."""
    raised = _raised_messages()
    assert len(raised) >= 9  # the gates of this writing: the walk finds them all
    patterns = _named_patterns()
    for message in set(raised):
        naming = [p for p in patterns if re.search(p, message)]
        assert all(not re.search(p, other) for p in naming for other in set(raised) - {message})
        assert len(naming) >= raised.count(message), message
