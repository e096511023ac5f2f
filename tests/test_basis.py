"""Monomial <-> subspace-product basis conversion."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fafft.basis import _levels, from_novel, to_novel
from fafft.reference import to_novel_by_division
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


def _vector(data, max_m: int) -> tuple[int, int]:
    """A length-2^m vector, m <= max_m: all zeros, all ones, or random."""
    n = 1 << data.draw(st.integers(0, max_m), label="m")
    kind = data.draw(st.sampled_from(("zero", "ones", "random")), label="kind")
    if kind == "zero":
        return 0, n
    if kind == "ones":
        return (1 << n) - 1, n
    return data.draw(st.integers(0, (1 << n) - 1), label="f"), n


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.data())
def test_conversion_properties(data):
    f, n = _vector(data, 10)
    assert to_novel(f, n) == to_novel_by_division(f, n)
    f, n = _vector(data, 16)
    assert from_novel(to_novel(f, n), n) == f
    assert to_novel(from_novel(f, n), n) == f


def test_word_count_scaling():
    # each radix level of to_novel costs about 8 operations on every 64-bit
    # word of the vector, whatever the data
    counts = {}
    for m in range(10, 18):
        n = 1 << m
        counts[m] = 8 * len(_levels(m)) * ((n >> 6) + 1)
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
