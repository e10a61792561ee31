import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilpoly import fpoly
from weilpoly.fpoly import (
    ExtField,
    PrimeField,
    fdeg,
    fdivmod,
    fgcd,
    fmul,
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
)
def test_prime_field_kernel_matches_the_generic_path(p, f, g):
    """The int-list kernel of PrimeField against the generic loop, run
    over the same field presented as ExtField(p, [0, 1])."""
    Fp, Fg = PrimeField(p), ExtField(p, [0, 1])
    f = ftrim(Fp, [c % p for c in f])
    g = ftrim(Fp, [c % p for c in g])

    def generic(op, *args):
        out = op(Fg, *[[(c,) for c in a] for a in args])
        if isinstance(out, tuple):
            return tuple([c[0] for c in part] for part in out)
        return [c[0] for c in out]

    assert fmul(Fp, f, g) == generic(fmul, f, g)
    assert fsub(Fp, f, g) == generic(fsub, f, g)
    assert fgcd(Fp, f, g) == generic(fgcd, f, g)
    if g:
        assert fdivmod(Fp, f, g) == generic(fdivmod, f, g)
