import hashlib
import itertools
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weilpoly import fpoly
from weilpoly.fpoly import (
    ExtField,
    PrimeField,
    distinct_degree,
    fadd,
    fdeg,
    fdiff,
    fdivmod,
    fgcd,
    fmul,
    fpow_mod,
    frem,
    fscale,
    fsub,
    ftrim,
    is_irreducible,
    squarefree_decomposition,
)


def reconstruct(F, lc, parts):
    out = [lc]
    for g, e in parts:
        for _ in range(e):
            out = fmul(F, out, g)
    return out


def test_small_factorizations():
    F2 = PrimeField(2)
    lc, parts = fpoly.factor(F2, [1, 1, 1])
    assert parts == [([1, 1, 1], 1)]
    F5 = PrimeField(5)
    _, parts = fpoly.factor(F5, [1, 0, 1])
    assert sorted(g[0] for g, _ in parts) == [2, 3]
    # t^4 + 3t^2 + 4 == t^2 (t+1)^2 mod 2
    _, parts = fpoly.factor(F2, [4 % 2, 0, 3 % 2, 0, 1])
    assert sorted((tuple(g), e) for g, e in parts) == [((0, 1), 2), ((1, 1), 2)]


def test_char_p_squarefree_decomposition():
    F2 = PrimeField(2)
    # (t+1)^2 (t^2+t+1)
    dec = squarefree_decomposition(F2, [1, 1, 0, 1, 1])
    assert sorted((tuple(g), e) for g, e in dec) == [((1, 1), 2), ((1, 1, 1), 1)]
    # (t+1)^4 = t^4 + 1 mod 2: pure p-th power chain
    dec = squarefree_decomposition(F2, [1, 0, 0, 0, 1])
    assert dec == [([1, 1], 4)]


def test_irreducibility():
    F2 = PrimeField(2)
    assert is_irreducible(F2, [1, 1, 1])
    assert is_irreducible(F2, [1, 1, 0, 1])
    assert not is_irreducible(F2, [1, 0, 1])
    F3 = PrimeField(3)
    assert is_irreducible(F3, [1, 0, 1])  # t^2+1 mod 3


def test_determinism():
    F7 = PrimeField(7)
    f = [3, 1, 4, 1, 5, 1]
    assert fpoly.factor(F7, f) == fpoly.factor(F7, f)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_random_reconstruction_prime_fields(p, rng):
    F = PrimeField(p)
    for _ in range(60):
        deg = rng.randint(1, 8)
        f = [rng.randrange(p) for _ in range(deg)] + [1]
        lc, parts = fpoly.factor(F, f)
        assert reconstruct(F, lc, parts) == ftrim(F, f)
        for g, _ in parts:
            assert is_irreducible(F, g)


@pytest.mark.parametrize("p,mod", [(2, [1, 1, 1]), (3, [1, 0, 1]), (2, [1, 1, 0, 1])])
def test_random_reconstruction_extension_fields(p, mod, rng):
    F = ExtField(p, mod)
    for _ in range(40):
        deg = rng.randint(1, 5)
        f = [F.random(rng) for _ in range(deg)] + [F.one]
        lc, parts = fpoly.factor(F, f)
        assert reconstruct(F, lc, parts) == ftrim(F, list(f))
        for g, _ in parts:
            assert is_irreducible(F, g)


def test_ext_field_arithmetic():
    F4 = ExtField(2, [1, 1, 1])
    x = (0, 1)
    assert F4.mul(x, x) == F4.of_poly([1, 1])  # x^2 = x + 1
    assert F4.pow(x, 3) == F4.one
    assert F4.mul(x, F4.inv(x)) == F4.one


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 11, 13, 101]),
    f=st.lists(st.integers(0, 10**4), max_size=12),
    g=st.lists(st.integers(0, 10**4), max_size=9),
    k=st.integers(0, 10**4),
)
@example(p=7, f=[3, 1], g=[1, 2, 0, 5], k=3)  # dividend shorter than a non-monic divisor
@example(p=5, f=[1, 2, 3, 4, 1, 2, 3], g=[2, 0, 3], k=0)  # non-monic divisor
@example(p=3, f=[2, 0, 1, 1, 2, 1], g=[1, 1, 0, 1], k=2)  # monic divisor
def test_prime_field_kernel_matches_the_generic_path(p, f, g, k):
    """The int-list kernel of PrimeField against the generic loop, run
    over the same field presented as ExtField(p, [0, 1])."""
    Fp, Fg = PrimeField(p), ExtField(p, [0, 1])
    f = ftrim(Fp, [c % p for c in f])
    g = ftrim(Fp, [c % p for c in g])
    k %= p

    def generic(op, *args):
        out = op(Fg, *[[(c,) for c in a] if isinstance(a, list) else a for a in args])
        if isinstance(out, tuple):
            return tuple([c[0] for c in part] for part in out)
        return [c[0] for c in out]

    assert fmul(Fp, f, g) == generic(fmul, f, g)
    assert fadd(Fp, f, g) == generic(fadd, f, g)
    assert fsub(Fp, f, g) == generic(fsub, f, g)
    assert fscale(Fp, f, k) == generic(fscale, f, (k,))
    assert fgcd(Fp, f, g) == generic(fgcd, f, g)
    if g:
        assert fdivmod(Fp, f, g) == generic(fdivmod, f, g)
        assert frem(Fp, f, g) == generic(frem, f, g)
        for n in (0, 1, p, p**2, p**7, (p**3 - 1) // 2):
            assert fpow_mod(Fp, f, n, g) == generic(fpow_mod, f, n, g), n
        power = frem(Fp, [1], g)
        for _ in range(p):
            power = frem(Fp, fmul(Fp, power, f), g)
        assert fpow_mod(Fp, f, p, g) == power
    if fdeg(f) > 0:
        for part, _ in squarefree_decomposition(Fp, f):
            got = distinct_degree(Fg, [(c,) for c in part])
            assert distinct_degree(Fp, part) == [([c[0] for c in h], d) for h, d in got]


def factor_corpus(seed):
    """Seeded polynomials over F_p (p <= 11) and F_{p^d} (4, 8, 9): random
    ones with any nonzero leading coefficient, products with a squared
    factor, and p-th powers times a random factor, which send the
    squarefree decomposition through its p-th-root step."""
    rng = random.Random(seed)
    fields = [PrimeField(p) for p in (2, 3, 5, 7, 11)]
    fields += [ExtField(2, [1, 1, 1]), ExtField(2, [1, 1, 0, 1]), ExtField(3, [1, 0, 1])]
    out = []
    for F in fields:
        for _ in range(120):
            def draw(deg):
                lead = F.random(rng)
                while lead == F.zero:
                    lead = F.random(rng)
                return [F.random(rng) for _ in range(deg)] + [lead]

            kind = rng.choice(["random", "square", "power"])
            f = draw(rng.randint(0, 8))
            if kind == "square":
                g = draw(rng.randint(1, 3))
                f = fmul(F, fmul(F, g, g), draw(rng.randint(0, 4)))
            elif kind == "power":
                g = draw(rng.randint(1, 2))
                power = [F.one]
                for _ in range(F.char * rng.randint(1, 2)):
                    power = fmul(F, power, g)
                f = fmul(F, power, draw(rng.randint(0, 3)))
            out.append((F, f))
    return out


def test_factorizations_match_the_pinned_digest():
    """factor and squarefree_decomposition on factor_corpus, pinned as one
    digest.  The digest was computed before factor was memoized over F_p and
    the stages got their fast paths for squarefree, linear and irreducible
    input."""
    digest = hashlib.sha256()
    for F, f in factor_corpus(20261019):
        lc, parts = fpoly.factor(F, f)
        assert reconstruct(F, lc, parts) == f
        digest.update(f"{F}|{f}|{lc}|{parts}|{squarefree_decomposition(F, f)}\n".encode())
    assert digest.hexdigest() == "dbea35892fdd3409b8acfd6c34812b6f0091b7f9d559dbd1e9f6f3190e9f682b"


def distinct_degree_corpus(seed):
    """Seeded squarefree polynomials over F_2..F_11 of degree 1..14, monic
    (as the degree sieve passes them) or with any nonzero leading
    coefficient."""
    rng = random.Random(seed)
    out = []
    for p in (2, 3, 5, 7, 11):
        F = PrimeField(p)
        size = len(out) + 200
        while len(out) < size:
            lead = 1 if rng.random() < 0.5 else rng.randrange(1, p)
            f = [rng.randrange(p) for _ in range(rng.randint(1, 14))] + [lead]
            df = fdiff(F, f)
            if df and fdeg(fgcd(F, f, df)) == 0:
                out.append((F, f))
    return out


def test_distinct_degree_matches_the_pinned_digest():
    """distinct_degree over F_p on distinct_degree_corpus, pinned as one
    digest computed before its F_p path read the field's int lists
    directly."""
    digest = hashlib.sha256()
    for F, f in distinct_degree_corpus(20261020):
        digest.update(f"{F}|{f}|{distinct_degree(F, f)}\n".encode())
    assert digest.hexdigest() == "737d4a71c99a82596a08808ff56ec609338f29a12e16e330ca6c20afd2fd6143"


@pytest.mark.parametrize("p", [1_000_003, 2**61 - 1])
def test_distinct_degree_at_a_large_prime_matches_the_generic_path(p):
    """Past small p the Frobenius step is square-and-multiply, not the
    substitution h(x^p), whose list grows with p: the split matches the
    generic loop over ExtField(p, [0, 1]), factor reconstructs its input,
    and the F_p calls take well under the bound."""
    rng = random.Random(p)
    Fp, Fg = PrimeField(p), ExtField(p, [0, 1])
    elapsed = 0.0
    for n in (2, 7, 14):
        f = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
        start = time.perf_counter()
        split = distinct_degree(Fp, f)
        lc, parts = fpoly.factor(Fp, f)
        elapsed += time.perf_counter() - start
        got = distinct_degree(Fg, [(c,) for c in f])
        assert split == [([c[0] for c in h], d) for h, d in got]
        assert reconstruct(Fp, lc, parts) == f
    assert elapsed < 5


@pytest.mark.parametrize(
    "p, f, expected",
    [
        (3, [1, 0, 3], (1, [])),  # the leading 3 is 0 mod 3
        (3, [2, 1, 4], (1, [([2, 1, 1], 1)])),  # leading coefficient 4 = 1 mod 3
        (2, [3, 5, 2], (1, [([1, 1], 1)])),
        (5, [-1, 0, 0, 0, 0, 1], (1, [([4, 1], 5)])),  # t^5 - 1 = (t - 1)^5
    ],
)
def test_prime_field_input_is_reduced_before_it_is_trimmed(p, f, expected):
    assert fpoly.factor(PrimeField(p), f) == expected


def test_factoring_zero_mod_p_is_an_error():
    with pytest.raises(ValueError):
        fpoly.factor(PrimeField(3), [3, 6, 9])


def test_memoized_answers_are_fresh_lists():
    F2 = PrimeField(2)
    f = [1, 0, 1, 1, 0, 0, 1, 1]  # (t + 1)^2 times a quintic
    first = fpoly.factor(F2, f)
    expected = (first[0], [(list(g), e) for g, e in first[1]])
    for g, _ in first[1]:
        g.append(1)
        g[0] = 0
    first[1].clear()
    assert fpoly.factor(F2, f) == expected


def test_extension_field_calls_bypass_the_memo():
    F4 = ExtField(2, [1, 1, 1])
    before = fpoly._factor_mod_p.cache_info()
    fpoly.factor(F4, [F4.one, F4.one, F4.zero, F4.one])
    after = fpoly._factor_mod_p.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses, before.currsize)


def test_memo_holds_a_whole_scan14_input_list():
    """The residues of one full degree-14 scan list (a third of the q=2 box
    and 60 draws at q=8, as the scan14 benchmark builds for seed 1) fit in the
    memo with nothing evicted, and most calls are hits."""
    from weilpoly.classify7 import classify
    from weilpoly.weil import WeilParams, chi_from_a, is_weil

    fpoly._factor_mod_p.cache_clear()
    inputs = [(2, a) for a in itertools.product((-1, 0, 1), repeat=7) if sum(a) % 3 == 1]
    rng = random.Random("scan14/1")
    inputs += [(8, tuple(rng.randint(-3, 3) for _ in range(7))) for _ in range(60)]
    for q, a in inputs:
        P = WeilParams.from_q(q)
        chi = chi_from_a(a, P)
        if is_weil(chi, P).is_weil:
            classify(chi, P)
    info = fpoly._factor_mod_p.cache_info()
    assert info.maxsize == fpoly._FACTOR_MEMO_SIZE
    assert 0 < info.currsize == info.misses <= info.maxsize
    assert info.hits > 5 * info.misses, info
