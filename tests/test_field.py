"""Cantor-basis field arithmetic against independent oracles."""

import random

import numpy as np
import pytest

from fafft.field import (
    _EXP16,
    _LOG16,
    CantorField,
    _mul_by_u,
    _mul_vec,
    _mul_zeta,
    _transpose_bits,
    binru,
)


# ---------------------------------------------------------------------------
# Oracle: reduce products of multilinear u-monomials via the tower relations
# u_t^2 = u_t + zeta_t, with monomials encoded by their generator sets.  This
# shares no code with the Karatsuba split in fafft.field.


def _mono_mul(i, j):
    """Product of basis monomials v_i * v_j as an element bit vector."""
    common = i & j
    if common == 0:
        return 1 << (i | j)
    t = common & -common
    base = _mono_mul(i ^ t, j ^ t)
    # u_t^2 * base = (u_t + zeta_t) * base; zeta_t's generator set is t - 1
    return _elem_mul_mono(base, t) ^ _elem_mul_mono(base, t - 1)


def _elem_mul_mono(e, m):
    out = 0
    while e:
        low = e & -e
        out ^= _mono_mul(low.bit_length() - 1, m)
        e ^= low
    return out


def oracle_mul(a, b):
    """Field product by exhaustive monomial expansion and tower reduction."""
    out = 0
    x = a
    while x:
        lx = x & -x
        out ^= _elem_mul_mono(b, lx.bit_length() - 1)
        x ^= lx
    return out


def schoolbook_field_mul(f, a, b):
    """Four-product recursive split, no Karatsuba (debug oracle)."""

    def rec(a, b, w):
        if w == 1:
            return a & b
        h = w >> 1
        hm = (1 << h) - 1
        a0, a1 = a & hm, a >> h
        b0, b1 = b & hm, b >> h
        j = h.bit_length() - 1
        lo = rec(a0, b0, h) ^ _mul_zeta(rec(a1, b1, h), j)
        hi = rec(a0, b1, h) ^ rec(a1, b0, h) ^ rec(a1, b1, h)
        return lo | (hi << h)

    return rec(a, b, f.d)


# ---------------------------------------------------------------------------
# Exhaustive small fields

GF4_TABLE = [
    [0, 0, 0, 0],
    [0, 1, 2, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
]


def test_gf4_exhaustive(gf4):
    for a in range(4):
        for b in range(4):
            assert gf4.mul(a, b) == GF4_TABLE[a][b]


def test_gf16_exhaustive_vs_oracle(gf16):
    for a in range(16):
        for b in range(16):
            assert gf16.mul(a, b) == oracle_mul(a, b)


def test_gf256_random_vs_oracle(gf256):
    rng = random.Random(0xC0)
    for _ in range(200):
        a, b = rng.randrange(256), rng.randrange(256)
        assert gf256.mul(a, b) == oracle_mul(a, b)


def test_full_field_random_vs_oracle(field):
    rng = random.Random(0xC1)
    pairs = [(rng.getrandbits(64), rng.getrandbits(64)) for _ in range(40)]

    def exact(w):  # a random operand of exactly w bits
        return rng.getrandbits(w) | 1 << (w - 1)

    # every width against a random one, both ways round, and zero and one
    # against every width
    for w in range(1, 65):
        a, b = exact(w), exact(rng.randint(1, 64))
        pairs += [(a, b), (b, a), (0, a), (a, 0), (1, a), (a, 1)]
    for a, b in pairs:
        assert field.mul(a, b) == oracle_mul(a, b)


def test_full_field_vs_schoolbook_split(field):
    rng = random.Random(0xC2)
    for _ in range(100):
        a, b = rng.getrandbits(64), rng.getrandbits(64)
        assert field.mul(a, b) == schoolbook_field_mul(field, a, b)


# ---------------------------------------------------------------------------
# Pinned examples

def test_mul_examples(field):
    assert field.mul(2, 2) == 3          # u_0^2 = u_0 + 1
    assert field.mul(4, 4) == 6          # u_1^2 = u_1 + u_0
    assert field.mul(3, 2) == 1
    assert field.mul(0x7, 0x9) == oracle_mul(0x7, 0x9)


def test_mul_range_errors(gf16):
    with pytest.raises(ValueError):
        gf16.mul(16, 1)
    with pytest.raises(ValueError):
        gf16.mul(1, -2)


# ---------------------------------------------------------------------------
# Ring axioms

@pytest.mark.parametrize("K", [1, 2, 3, 4, 6])
def test_axioms(K):
    f = CantorField(K)
    rng = random.Random(K)
    for _ in range(60):
        a = rng.getrandbits(f.d)
        b = rng.getrandbits(f.d)
        c = rng.getrandbits(f.d)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0


def test_subfield_closure(field):
    rng = random.Random(7)
    for j in range(7):
        w = 1 << j
        for _ in range(40):
            a = rng.getrandbits(w)
            b = rng.getrandbits(w)
            assert field.mul(a, b) < (1 << w)


# ---------------------------------------------------------------------------
# Frobenius

def test_frobenius_examples(field):
    assert field.frobenius(1) == 1
    assert field.frobenius(2) == 3
    assert field.frobenius(4) == 6


def test_frobenius_matrix_matches_mul(field):
    rng = random.Random(11)
    for _ in range(300):
        a = rng.getrandbits(64)
        assert field.frobenius(a) == field.mul(a, a)


def test_frobenius_additive(field):
    rng = random.Random(12)
    for _ in range(100):
        a, b = rng.getrandbits(64), rng.getrandbits(64)
        assert field.frobenius(a ^ b) == field.frobenius(a) ^ field.frobenius(b)


def test_frobenius_order(field):
    rng = random.Random(13)
    for _ in range(10):
        a = rng.getrandbits(64)
        x = a
        for _ in range(64):
            x = field.frobenius(x)
        assert x == a


def test_frobenius_preserves_subfields(field):
    rng = random.Random(14)
    for j in range(7):
        for _ in range(20):
            a = rng.getrandbits(1 << j)
            assert field.frobenius(a) < (1 << (1 << j))


# ---------------------------------------------------------------------------
# inverse

def test_inverse_examples(field):
    assert field.inverse(1) == 1
    assert field.inverse(2) == 3
    with pytest.raises(ZeroDivisionError):
        field.inverse(0)


@pytest.mark.parametrize("K", [1, 2, 4, 6])
def test_inverse_random(K):
    f = CantorField(K)
    rng = random.Random(30 + K)
    for _ in range(25):
        a = rng.getrandbits(f.d)
        if a == 0:
            continue
        assert f.mul(a, f.inverse(a)) == 1


# ---------------------------------------------------------------------------
# Constant-multiplication paths

def test_mul_zeta_matches_generic(field):
    rng = random.Random(41)
    for j in range(6):
        zeta = 1 << ((1 << j) - 1)  # zeta_j = u_0 * ... * u_{j-1} = v_{2^j - 1}
        for _ in range(50):
            a = rng.getrandbits(64)
            assert _mul_zeta(a, j) == field.mul(a, zeta)


def test_mul_by_u_matches_generic(field):
    rng = random.Random(42)
    for t in range(6):
        u = 1 << (1 << t)
        for _ in range(50):
            a = rng.getrandbits(64)
            assert _mul_by_u(a, t) == field.mul(a, u)


# ---------------------------------------------------------------------------
# Vector product on numpy lanes


def test_log16_tables_invert():
    x = np.arange(1, 1 << 16)
    assert (_EXP16[_LOG16[x]] == x).all()
    # a zero factor lands in the zero part of the power table
    assert not _EXP16[_LOG16[0] + _LOG16[x]].any()
    assert _EXP16[2 * _LOG16[0]] == 0


def test_mul_vec_matches_oracle(field):
    rng = random.Random(43)
    for w in (1, 2, 4, 8, 16, 32, 64):
        top = (1 << w) - 1
        a = [rng.getrandbits(w) for _ in range(30)] + [0, 1, top, top]
        b = [rng.getrandbits(w) for _ in range(30)] + [top, top, 0, 1]
        want = [oracle_mul(x, y) for x, y in zip(a, b)]
        for dt in (np.uint8, np.uint16, np.uint32, np.uint64):
            if np.iinfo(dt).bits >= w:
                assert _mul_vec(np.array(a, dt), np.array(b, dt), w).tolist() == want
        # one constant per row against a matrix, the engine's twiddle shape
        col = np.array(a[:5], np.uint64)[:, None]
        mat = np.array(b[:30], np.uint64).reshape(5, 6)
        got = _mul_vec(col, mat, w).tolist()
        assert got == [[field.mul(x, y) for y in row] for x, row in zip(a, mat.tolist())]


# ---------------------------------------------------------------------------
# helpers

_SHAPES = [(1, 1), (7, 3), (9, 1), (8, 8), (64, 40), (1000, 17), (10015, 128)]


@pytest.mark.parametrize("shape", _SHAPES)
def test_transpose_bits_matches_unpack(shape):
    # oracle: unpack every bit, transpose, pack again
    x = np.random.default_rng(shape[0]).integers(0, 256, shape, dtype=np.uint8)
    bits = np.unpackbits(x, axis=1, bitorder="little")
    want = np.packbits(bits.T, axis=1, bitorder="little")
    assert np.array_equal(_transpose_bits(x), want)


def test_binru():
    assert [binru(x) for x in range(9)] == [1, 1, 2, 4, 4, 8, 8, 8, 8]


def test_bad_tower_height():
    with pytest.raises(ValueError):
        CantorField(0)
    with pytest.raises(ValueError):
        CantorField(7)
