"""Monomial <-> subspace-product basis conversion."""

import random

import pytest

from fafft.basis import (
    ConvTally,
    from_novel,
    from_novel_packed,
    to_novel,
    to_novel_by_division,
    to_novel_packed,
)
from fafft.subspace import eval_subspace


def poly_eval_gf2(field, f: int, alpha: int) -> int:
    """Horner evaluation of a GF(2)[x] polynomial at a field point."""
    r = 0
    for i in range(f.bit_length() - 1, -1, -1):
        r = field.mul(r, alpha)
        if (f >> i) & 1:
            r ^= 1
    return r


def novel_eval(field, g: int, n: int, alpha: int) -> int:
    """Evaluate sum of X_t over set bits t of g, with X_t the product of the
    subspace polynomials selected by t's binary digits."""
    r = 0
    for t in range(n):
        if not (g >> t) & 1:
            continue
        term = 1
        i = 0
        tt = t
        while tt:
            if tt & 1:
                term = field.mul(term, eval_subspace(field, i, alpha))
            tt >>= 1
            i += 1
        r ^= term
    return r


def test_pinned_small():
    # x^2 = X_1 + X_2 and x^3 = X_1 + X_2 + X_3
    assert to_novel(0b0100, 4) == 0b0110
    assert to_novel(0b1000, 4) == 0b1110
    assert from_novel(0b0110, 4) == 0b0100
    assert from_novel(0b1110, 4) == 0b1000


def test_identity_below_degree_two():
    for n in (1, 2):
        for f in range(1 << n):
            assert to_novel(f, n) == f
            assert from_novel(f, n) == f


def test_first_basis_elements_fixed():
    # X_0 = 1 and X_1 = x in every length
    for n in (4, 16, 256):
        assert to_novel(1, n) == 1
        assert to_novel(2, n) == 2


def test_roundtrip():
    rng = random.Random(21)
    for m in range(1, 13):
        n = 1 << m
        for _ in range(8):
            f = rng.getrandbits(n)
            assert from_novel(to_novel(f, n), n) == f


def test_linearity():
    rng = random.Random(22)
    for n in (8, 64, 1024):
        for _ in range(20):
            a = rng.getrandbits(n)
            b = rng.getrandbits(n)
            assert to_novel(a ^ b, n) == to_novel(a, n) ^ to_novel(b, n)


def test_matches_division_oracle_exhaustive():
    for f in range(256):
        assert to_novel(f, 8) == to_novel_by_division(f, 8)


def test_matches_division_oracle_random():
    rng = random.Random(23)
    for m in range(2, 11):
        n = 1 << m
        for _ in range(10):
            f = rng.getrandbits(n)
            assert to_novel(f, n) == to_novel_by_division(f, n)


def test_evaluation_agreement(field):
    rng = random.Random(24)
    for n in (4, 16, 64):
        for _ in range(10):
            f = rng.getrandbits(n)
            g = to_novel(f, n)
            alpha = rng.randrange(field.order)
            assert novel_eval(field, g, n, alpha) == poly_eval_gf2(field, f, alpha)


def test_packed_matches_bit_planes(field):
    rng = random.Random(25)
    w = field.d
    for n in (4, 32, 256):
        coeffs = [rng.randrange(field.order) for _ in range(n)]
        packed = 0
        for i, c in enumerate(coeffs):
            packed |= c << (i * w)
        out = to_novel_packed(packed, n, w)
        back = from_novel_packed(out, n, w)
        assert back == packed
        for b in range(w):
            plane = 0
            for i, c in enumerate(coeffs):
                plane |= ((c >> b) & 1) << i
            out_plane = 0
            for i in range(n):
                out_plane |= (((out >> (i * w)) >> b) & 1) << i
            assert out_plane == to_novel(plane, n)


def test_packed_at_square_width_matches_rows():
    # w = n = 2^m: an n x n bit matrix, one coefficient vector per bit plane
    rng = random.Random(27)
    for m in range(0, 9):
        n = 1 << m
        rows = [rng.getrandbits(n) for _ in range(n)]
        packed = sum(((r >> i) & 1) << (i * n + j) for j, r in enumerate(rows) for i in range(n))

        def plane(f, j):
            return sum(((f >> (i * n + j)) & 1) << i for i in range(n))

        fwd = to_novel_packed(packed, n, n)
        back = from_novel_packed(packed, n, n)
        for j, r in enumerate(rows):
            assert plane(fwd, j) == to_novel(r, n)
            assert plane(back, j) == from_novel(r, n)


def test_word_count_scaling():
    rng = random.Random(26)
    counts = {}
    for m in range(10, 18):
        n = 1 << m
        tally = ConvTally()
        to_novel(rng.getrandbits(n), n, tally)
        counts[m] = tally.words
    for m in range(10, 17):
        assert counts[m + 1] / counts[m] <= 2.5


def test_bad_lengths_rejected():
    for n in (0, 3, 12):
        with pytest.raises(ValueError):
            to_novel(0, n)
    with pytest.raises(ValueError):
        to_novel(1 << 8, 8)
    with pytest.raises(ValueError):
        from_novel(-1, 8)
