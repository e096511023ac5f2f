"""Subspace polynomial coefficients, evaluation, and the twiddle table."""

import random

import numpy as np
import pytest

from fafft.field import CantorField
from fafft.subspace import TwiddleTable, eval_subspace, subspace_coeffs


def frobenius_iter(field, a, t):
    """a^(2^t): the Frobenius map applied t times."""
    for _ in range(t):
        a = field.frobenius(a)
    return a


def test_coeff_vectors_small():
    assert subspace_coeffs(0) == 0b1
    assert subspace_coeffs(1) == 0b11
    assert subspace_coeffs(2) == 0b101
    assert subspace_coeffs(3) == 0b1111


def test_coeff_vectors_power_of_two_collapse():
    # s_k = x^(2^k) + x whenever k is a power of two
    for k in (1, 2, 4, 8, 16, 32):
        assert subspace_coeffs(k) == (1 << k) | 1


def test_coeffs_negative_k_rejected():
    with pytest.raises(ValueError):
        subspace_coeffs(-1)


def test_eval_matches_coeff_vector(field):
    rng = random.Random(11)
    for _ in range(40):
        k = rng.randrange(0, 8)
        a = rng.randrange(field.order)
        bits = subspace_coeffs(k)
        want = 0
        i = 0
        while bits:
            if bits & 1:
                want ^= frobenius_iter(field, a, i)
            bits >>= 1
            i += 1
        assert eval_subspace(field, k, a) == want


def test_eval_pinned(field):
    # s_1(w_4) = w_4^2 + w_4 = w_6 + w_4 = w_2
    assert eval_subspace(field, 1, 4) == 2


def test_vanishes_exactly_on_subspace(gf64k):
    # d = 16: the roots of s_k are exactly the 2^k elements below v_k.
    f = gf64k
    table = TwiddleTable(f)
    rows = table.rows_np()
    for k in range(5):
        vals = np.zeros(f.order, dtype=np.uint64)
        idx = np.arange(f.order, dtype=np.uint64)
        for i in range(f.d):
            vals ^= np.where((idx >> np.uint64(i)) & np.uint64(1), rows[k][i], np.uint64(0))
        roots = np.nonzero(vals == 0)[0]
        assert roots.tolist() == list(range(1 << k))


def test_vectorized_fold_agrees_with_eval(gf64k):
    table = TwiddleTable(gf64k)
    rng = random.Random(12)
    for _ in range(200):
        k = rng.randrange(0, gf64k.d)
        a = rng.randrange(gf64k.order)
        assert table.twiddle(k, a) == eval_subspace(gf64k, k, a)


def test_value_one_at_own_generator(field):
    table = TwiddleTable(field)
    for k in range(field.d):
        assert table.value(k, k) == 1


def test_value_zero_below_diagonal(field):
    table = TwiddleTable(field)
    for j in range(field.d):
        for i in range(j):
            assert table.value(j, i) == 0


def test_value_lands_near_shifted_generator(field):
    # s_j(v_i) differs from v_{i-j} only inside the span of v_0..v_{i-j-1}.
    table = TwiddleTable(field)
    for j in range(field.d):
        for i in range(j, field.d):
            t = table.value(j, i) ^ (1 << (i - j))
            assert t < (1 << (i - j))


def test_composition(field):
    rng = random.Random(13)
    for _ in range(50):
        j = rng.randrange(0, 5)
        k = rng.randrange(0, 5)
        a = rng.randrange(field.order)
        assert eval_subspace(field, j + k, a) == eval_subspace(
            field, j, eval_subspace(field, k, a)
        )


def test_linearity(field):
    rng = random.Random(14)
    for _ in range(50):
        k = rng.randrange(0, 10)
        a = rng.randrange(field.order)
        b = rng.randrange(field.order)
        assert eval_subspace(field, k, a ^ b) == eval_subspace(field, k, a) ^ eval_subspace(
            field, k, b
        )


def test_power_of_two_k_is_frobenius_orbit_sum(field):
    rng = random.Random(15)
    for k in (1, 2, 4, 8, 16, 32):
        for _ in range(10):
            a = rng.randrange(field.order)
            assert eval_subspace(field, k, a) == frobenius_iter(field, a, k) ^ a


def test_twiddle_pinned(field):
    # s_1(v_3) = v_3^2 + v_3 = w_5
    assert TwiddleTable(field).twiddle(1, 8) == 5


def test_twiddle_equals_eval(field):
    table = TwiddleTable(field)
    rng = random.Random(16)
    for _ in range(100):
        j = rng.randrange(0, 11)
        a = rng.randrange(field.order)
        assert table.twiddle(j, a) == eval_subspace(field, j, a)


@pytest.mark.parametrize("K", range(1, 7))
def test_rows_equal_eval_at_every_height(K):
    # the rows step by byte tables of the Frobenius matrix, padded below d = 8
    f = CantorField(K)
    table = TwiddleTable(f)
    for j in range(0, f.d, max(1, f.d // 16)):
        assert table.rows[j] == [eval_subspace(f, j, 1 << i) for i in range(f.d)]


def test_twiddle_level_out_of_range(field):
    table = TwiddleTable(field)
    with pytest.raises(ValueError):
        table.twiddle(field.d, 1)
    with pytest.raises(ValueError):
        table.twiddle(-1, 1)


@pytest.mark.parametrize("K", range(1, 6))
def test_tower_is_nested(K, field):
    # a height-K tower is the low corner of the height-6 one, so twiddles
    # and products are the same ints at every height
    small = CantorField(K)
    d = small.d
    assert [row[:d] for row in TwiddleTable(field).rows[:d]] == TwiddleTable(small).rows
    rng = random.Random(K)
    for _ in range(200):
        a, b = rng.randrange(small.order), rng.randrange(small.order)
        assert small.mul(a, b) == field.mul(a, b)


def test_rows_np_roundtrip(field):
    table = TwiddleTable(field)
    arr = table.rows_np()
    assert arr.shape == (field.d, field.d)
    assert int(arr[1][3]) == table.value(1, 3)
