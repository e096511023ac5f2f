"""GF(2)[x] multiplication routes."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fafft.basis import from_novel, to_novel
from fafft.engine import LayeredEngine
from fafft.mul import _tables, mul, mul_fafft, mul_karatsuba, mul_schoolbook
from fafft.transform import FaftEngine


def conv_naive(a: int, b: int) -> int:
    """Bit-by-bit convolution, the smallest possible oracle."""
    out = 0
    i = 0
    while a >> i:
        if (a >> i) & 1:
            out ^= b << i
        i += 1
    return out


ALL = (mul_schoolbook, mul_karatsuba, mul_fafft)


def test_pinned():
    # (x^3 + x + 1)(x^3 + x^2 + 1) = x^6 + ... + 1
    for f in ALL:
        assert f(0xB, 0xD) == 0x7F


def test_exhaustive_small():
    for a in range(16):
        for b in range(16):
            want = conv_naive(a, b)
            for f in ALL:
                assert f(a, b) == want


def test_schoolbook_across_blocks():
    # operands spanning several 512-bit accumulator blocks of a, one of
    # them all zero
    rng = random.Random(60)
    for la, lb in ((1500, 700), (700, 1500), (513, 2), (4100, 64)):
        a = rng.getrandbits(la) | (1 << (la - 1))
        b = rng.getrandbits(lb) | (1 << (lb - 1))
        assert mul_schoolbook(a, b) == conv_naive(a, b)
    a = (rng.getrandbits(512) << 1024) | rng.getrandbits(512)
    assert mul_schoolbook(a, 0b1011) == conv_naive(a, 0b1011)


def test_monomials():
    for i, j in ((0, 0), (1, 5), (17, 40), (100, 200)):
        for f in ALL:
            assert f(1 << i, 1 << j) == 1 << (i + j)


def test_zero_and_identity():
    rng = random.Random(61)
    for f in ALL:
        for _ in range(5):
            a = rng.getrandbits(200)
            assert f(a, 0) == 0
            assert f(0, a) == 0
            assert f(a, 1) == a
            assert f(1, a) == a


def test_routes_agree_random():
    rng = random.Random(62)
    for bits in (64, 200, 1000, 5000, 20000):
        for _ in range(4):
            a = rng.getrandbits(bits) | (1 << (bits - 1))
            b = rng.getrandbits(bits // 2 + 1) | 1
            want = mul_schoolbook(a, b)
            assert mul_karatsuba(a, b) == want
            assert mul_fafft(a, b) == want


def test_uneven_operands():
    rng = random.Random(63)
    for _ in range(10):
        a = rng.getrandbits(3000)
        b = rng.getrandbits(17) | 1
        assert mul_fafft(a, b) == mul_schoolbook(a, b)


def test_degree_additivity():
    rng = random.Random(64)
    for _ in range(20):
        a = rng.getrandbits(300) | (1 << 299)
        b = rng.getrandbits(150) | (1 << 149)
        c = mul_fafft(a, b)
        assert c.bit_length() == 300 + 150 - 1


def test_ring_properties():
    rng = random.Random(65)
    for _ in range(10):
        a = rng.getrandbits(500)
        b = rng.getrandbits(500)
        c = rng.getrandbits(500)
        assert mul_fafft(a, b) == mul_fafft(b, a)
        assert mul_fafft(a, b ^ c) == mul_fafft(a, b) ^ mul_fafft(a, c)
    # associativity on smaller operands (three-way products)
    for _ in range(5):
        a = rng.getrandbits(80)
        b = rng.getrandbits(80)
        c = rng.getrandbits(80)
        assert mul_fafft(mul_fafft(a, b), c) == mul_fafft(a, mul_fafft(b, c))


def test_tower_height_bounds_product_size():
    # GF(2^(2^K)) has 2^(2^K) points, enough for a product of that many bits
    rng = random.Random(9)

    def operand(bits):
        return rng.getrandbits(bits - 1) | (1 << (bits - 1))

    for K in range(1, 5):
        n = 1 << (1 << K)
        a, b = operand(n // 2), operand(n // 2 + 1)
        assert mul_fafft(a, b, K) == mul_schoolbook(a, b)
        with pytest.raises(ValueError):
            mul_fafft(a, b << 1, K)
    for K in (0, 7):
        with pytest.raises(ValueError):
            mul_fafft(3, 3, K)


def test_pointwise_rejects_wrong_lane_count():
    lay = LayeredEngine(FaftEngine(6))
    leaves = np.ones(len(lay.plan(5).leaf_max), dtype=np.uint64)  # 8 leaves
    assert lay.pointwise(leaves, leaves, 5).tolist() == leaves.tolist()
    # one lane would broadcast against eight without the check
    for a, b in ((leaves[:3], leaves[:3]), (leaves, leaves[:1]), (leaves[:1], leaves)):
        with pytest.raises(ValueError):
            lay.pointwise(a, b, 5)


def test_dispatch():
    assert mul(0xB, 0xD, "schoolbook") == 0x7F
    assert mul(0xB, 0xD, "karatsuba") == 0x7F
    assert mul(0xB, 0xD, "fafft") == 0x7F
    with pytest.raises(ValueError):
        mul(1, 1, "fft")
    with pytest.raises(ValueError):
        mul(-1, 1)


# ----- byte tables (products of at most 2^8 bits) ---------------------


@pytest.fixture(scope="module")
def lay():
    return LayeredEngine(FaftEngine(6))


def test_table_path_covers_leaves_of_one_byte(lay):
    for m in range(0, 12):
        assert (lay.plan(m).leaf_width <= 8) == (m <= 8)


def test_input_table_matches_engine(lay):
    rng = random.Random(70)
    for m in range(0, 9):
        n = 1 << m
        for _ in range(20):
            a, b = rng.getrandbits(n), rng.getrandbits(n)
            lanes = np.stack([lay.bits_to_lanes(to_novel(f, n), n) for f in (a, b)])
            assert _tables(m).leaves(a, b).tolist() == lay.forward(lanes, m).tolist()


def test_output_table_matches_engine(lay):
    rng = random.Random(71)
    for m in range(0, 9):
        n = 1 << m
        widths = lay.plan(m).leaf_widths.tolist()
        for _ in range(20):
            leaves = np.array([rng.getrandbits(w) for w in widths], dtype=np.uint64)
            want = from_novel(lay.lanes_to_bits(lay.inverse(leaves, m)), n)
            assert _tables(m).product(leaves) == want


def test_table_switch_and_edge_operands():
    rng = random.Random(72)

    def operand(bits):
        return rng.getrandbits(bits - 1) | (1 << (bits - 1))

    cases = []
    for need in (1 << 8, (1 << 8) + 1):  # the last table size, the first engine size
        for la in (1, 2, 8, 100, need // 2, need):
            cases.append((operand(la), operand(need + 1 - la)))
        cases.append((1 << (need - 1), 1))  # every byte but the top one zero
        cases.append((operand(need - 20), operand(21) & ~0xFF))
    for a, b in cases:
        assert mul_fafft(a, b) == mul_schoolbook(a, b)
        assert mul_fafft(b, a) == mul_schoolbook(a, b)
    for a in (0, 1, (1 << 255) | 1, (1 << 256) - 1):
        assert mul_fafft(a, 0) == mul_fafft(0, a) == 0
        assert mul_fafft(a, 1) == mul_fafft(1, a) == a


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.data())
def test_property_fafft_matches_schoolbook(data):
    need = data.draw(st.integers(1, 1 << 10), label="product bits")
    la = data.draw(st.integers(1, need), label="bits of a")
    a = data.draw(st.integers(0, (1 << la) - 1), label="a")
    b = data.draw(st.integers(0, (1 << (need + 1 - la)) - 1), label="b")
    assert mul_fafft(a, b) == mul_schoolbook(a, b)


# ----- operand types ----------------------------------------------------


@pytest.mark.parametrize("route", ALL + (mul,))
def test_operands_must_be_integers(route):
    for bad in (True, False, np.True_, 1.5, 2.0, "3", None, np.float64(3)):
        with pytest.raises(TypeError):
            route(bad, 3)
        with pytest.raises(TypeError):
            route(3, bad)
    with pytest.raises(ValueError):
        route(np.int64(-1), 3)


@pytest.mark.parametrize("route", ALL + (mul,))
def test_numpy_integer_operands(route):
    for a, b in ((np.int64(5), 3), (5, np.uint8(3)), (np.uint64(0xB), np.int32(0xD))):
        c = route(a, b)
        assert type(c) is int
        assert c == conv_naive(int(a), int(b))
    big = np.uint64(2**64 - 1)
    assert route(big, big) == conv_naive(2**64 - 1, 2**64 - 1)
