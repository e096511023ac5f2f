"""GF(2)[x] multiplication routes."""

import importlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fafft import engine, transform
from fafft.basis import from_novel, to_novel
from fafft.engine import LayeredEngine
from fafft.mul import (
    _mul_mod,
    _residues,
    _tables,
    _times_s,
    mul,
    mul_fafft,
    mul_karatsuba,
    mul_schoolbook,
)
from fafft.subspace import subspace_coeffs
from fafft.transform import schedule

mul_module = importlib.import_module("fafft.mul")


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


def test_products_at_subfield_sizes():
    # products of exactly 2^(2^K) bits, the points of GF(2^(2^K)), and of
    # one bit more, for the heights below the GF(2^32) that holds every
    # twiddle and leaf value up to m = 32
    rng = random.Random(9)

    def operand(bits):
        return rng.getrandbits(bits - 1) | (1 << (bits - 1))

    for K in range(1, 5):
        n = 1 << (1 << K)
        for need in (n, n + 1):
            a, b = operand(need // 2), operand(need + 1 - need // 2)
            c = mul_fafft(a, b)
            assert c.bit_length() == need
            assert c == mul_schoolbook(a, b)


def test_pointwise_rejects_wrong_lane_count():
    lay = LayeredEngine()
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


# ----- tables (products of at most 2^11 bits) --------------------------

TABLE_MS = range(0, 11)
SPLIT_M = 11  # split at the root into the m = 10 tables and the coset table
SPLIT_MS = range(1, SPLIT_M + 1)


@pytest.fixture(scope="module")
def lay():
    return LayeredEngine()


def leaf_dtype(m):
    """The engine's lane dtype for the leaves at 2^m points."""
    return engine._dtype(int(schedule(m)[-1].width.max()))


def test_input_table_matches_engine(lay):
    rng = random.Random(70)
    for m in TABLE_MS:
        n = 1 << m
        for _ in range(20):
            a, b = rng.getrandbits(n), rng.getrandbits(n)
            lanes = np.stack([lay.bits_to_lanes(to_novel(f, n), n) for f in (a, b)])
            want = lay.forward(lanes, m)
            got = _tables(m).leaves(a, b)
            assert got.dtype == leaf_dtype(m)
            assert got.astype(np.uint64).tolist() == want.tolist()


def test_output_table_matches_engine(lay):
    rng = random.Random(71)
    for m in TABLE_MS:
        n = 1 << m
        widths = schedule(m)[-1].width.tolist()
        for _ in range(20):
            leaves = np.array([rng.getrandbits(w) for w in widths], dtype=np.uint64)
            want = from_novel(lay.lanes_to_bits(lay.inverse(leaves, m)), n)
            assert _tables(m).product(leaves.astype(leaf_dtype(m))) == want


def test_closed_form_unit_images_match_engine(lay):
    # every leaf bit alone: the table rows are the closed-form images
    for m in TABLE_MS:
        n = 1 << m
        widths = schedule(m)[-1].width
        leaf = np.repeat(np.arange(len(widths)), widths)
        bit = np.arange(n) - np.repeat(np.cumsum(widths) - widths, widths)
        units = np.zeros((n, len(widths)), dtype=np.uint64)
        units[np.arange(n), leaf] = np.uint64(1) << bit.astype(np.uint64)
        lanes = lay.inverse(units, m)
        for u, row in zip(units.astype(leaf_dtype(m)), lanes):
            want = from_novel(lay.lanes_to_bits(row), n)
            assert _tables(m).product(u) == want


def s_poly(k):
    """s_k as a packed int, from its coefficient vector."""
    bits = subspace_coeffs(k)
    return sum(1 << (1 << i) for i in range(k + 1) if bits >> i & 1)


def test_residues_reconstruct():
    assert _times_s(1, 10) == (1 << 1024) | (1 << 256) | (1 << 4) | (1 << 1)  # s_10
    rng = random.Random(76)
    for k in range(11):
        n, s_k = 1 << k, s_poly(k)
        assert _times_s(1, k) == s_k
        edges = [0, 1, (1 << 2 * n) - 1, 1 << (2 * n - 1), s_k, s_k ^ 1]
        for a in edges + [rng.getrandbits(2 * n) for _ in range(20)]:
            r, r1 = _residues(a, k)
            assert r >> n == 0 and r1 >> n == 0
            assert r ^ _times_s(r ^ r1, k) == a  # a = q s_k + r, q = r + r'


@pytest.mark.parametrize("m", SPLIT_MS)
def test_split_leaves_match_engine(lay, m, monkeypatch):
    # the root's children at 2^m points: the first holds the leaves of
    # W_(m-1), the second those of v_(m-1) + W_(m-1), of the residues mod
    # s_(m-1) and mod s_(m-1) + 1; the split product is the engine's
    monkeypatch.setattr(mul_module, "_TABLE_MAX_M", m - 1)
    n = 1 << m
    top, below = schedule(m)[-1], schedule(m - 1)[-1]
    k = len(below.alpha)
    assert top.alpha[:k].tolist() == below.alpha.tolist()
    assert top.width[:k].tolist() == below.width.tolist()
    assert _tables(m - 1, True).nleaves == len(top.alpha) - k
    assert _tables(m - 1, True).leaves(0, 0).dtype == leaf_dtype(m)
    rng = random.Random(74)
    for _ in range(20):
        a, b = rng.getrandbits(n), rng.getrandbits(n)
        lanes = np.stack([lay.bits_to_lanes(to_novel(f, n), n) for f in (a, b)])
        want = lay.forward(lanes, m)
        (a0, a1), (b0, b1) = _residues(a, m - 1), _residues(b, m - 1)
        low = _tables(m - 1).leaves(a0, b0)
        high = _tables(m - 1, True).leaves(a1, b1)
        assert low.astype(np.uint64).tolist() == want[:, :k].tolist()
        assert high.astype(np.uint64).tolist() == want[:, k:].tolist()
        c = from_novel(lay.lanes_to_bits(lay.inverse(lay.pointwise(*want, m), m)), n)
        assert _mul_mod(m, a, b) == c  # ab mod s_m


@pytest.mark.parametrize("m", SPLIT_MS)
def test_split_inverse_matches_engine(lay, m, monkeypatch):
    # r0 + s_(m-1) (r0 + r1) from the two tables' products is the engine's
    # inverse over all leaves; a unit leaf bit under v_(m-1) + W_(m-1) alone
    # gives r0 = 0 and the product s_(m-1) r1
    monkeypatch.setattr(mul_module, "_TABLE_MAX_M", m - 1)
    n = 1 << m
    k = len(schedule(m - 1)[-1].alpha)
    widths, dtype = schedule(m)[-1].width, leaf_dtype(m)
    below, coset = _tables(m - 1), _tables(m - 1, True)
    rng = random.Random(75)
    for _ in range(20):
        leaves = np.array([rng.getrandbits(w) for w in widths.tolist()], dtype=np.uint64)
        want = from_novel(lay.lanes_to_bits(lay.inverse(leaves, m)), n)
        r0 = below.product(leaves[:k].astype(below.dtype))  # narrower below m = 10
        r1 = coset.product(leaves[k:].astype(dtype))
        assert r0 ^ _times_s(r0 ^ r1, m - 1) == want
    high = widths[k:]
    leaf = np.repeat(np.arange(k, len(widths)), high)
    bit = np.arange(high.sum()) - np.repeat(np.cumsum(high) - high, high)
    units = np.zeros((len(leaf), len(widths)), dtype=np.uint64)
    units[np.arange(len(leaf)), leaf] = np.uint64(1) << bit.astype(np.uint64)
    for u, row in zip(units, lay.inverse(units, m)):
        want = from_novel(lay.lanes_to_bits(row), n)
        assert _times_s(coset.product(u[k:].astype(dtype)), m - 1) == want


def test_split_recursion_matches_tables(monkeypatch):
    # with no direct tables past 2^0 bits, _mul_mod(m) splits m times down
    # to the 1-bit table
    rng = random.Random(77)
    monkeypatch.setattr(mul_module, "_TABLE_MAX_M", 0)
    for m in TABLE_MS:
        n = 1 << m
        for _ in range(10):
            a, b = rng.getrandbits(n), rng.getrandbits(n)
            assert _mul_mod(m, a, b) == _tables(m).mul(a, b)


def test_table_path_never_touches_the_engine(monkeypatch):
    def fail(*args):
        raise AssertionError("the table path ran the engine or the conversion")

    monkeypatch.setattr(LayeredEngine, "plan", fail)
    for module, name in (
        (transform, "twiddles"),
        (engine, "twiddles"),
        (mul_module, "to_novel"),
        (mul_module, "from_novel"),
        (np, "unique"),  # a first call imports numpy.ma: 12-15 ms of set-up
    ):
        monkeypatch.setattr(module, name, fail)
    rng = random.Random(73)
    _tables.cache_clear()
    try:
        for m in range(SPLIT_M + 1):
            need = 1 << m
            la = rng.randint(1, need)
            a = rng.getrandbits(la) | (1 << (la - 1))
            b = rng.getrandbits(need - la) | (1 << (need - la))
            assert mul_fafft(a, b) == mul_schoolbook(a, b)
        with pytest.raises(AssertionError):  # m = 12 takes the engine
            mul_fafft(1 << 2048, 1)
    finally:
        _tables.cache_clear()


def test_table_switch_and_edge_operands():
    rng = random.Random(72)

    def operand(bits):
        return rng.getrandbits(bits - 1) | (1 << (bits - 1))

    cases = []
    # the last direct table size, the first and last split sizes, the first
    # engine size
    for need in (1 << 10, (1 << 10) + 1, 1 << 11, (1 << 11) + 1):
        for la in (1, 2, 8, 100, need // 2, need):
            cases.append((operand(la), operand(need + 1 - la)))
        cases.append((1 << (need - 1), 1))  # every byte but the top one zero
        cases.append((operand(need - 20), operand(21) & ~0xFF))
    for m in range(SPLIT_M + 1):  # full-length and unbalanced operands at every table size
        need = 1 << m
        half = need // 2 + 1
        cases.append((operand(half), operand(need + 1 - half)))
        cases.append((operand(need), 1))
        cases.append(((1 << need) - 1, 1))
        cases.append(((1 << half) - 1, (1 << (need + 1 - half)) - 1))
    for a, b in cases:
        assert mul_fafft(a, b) == mul_schoolbook(a, b)
        assert mul_fafft(b, a) == mul_schoolbook(a, b)
    edges = (1 << 1024) - 1, (1 << 1024) | 1, (1 << 2047) | 1, (1 << 2048) - 1, (1 << 2048) | 1
    for a in (0, 1) + edges:
        assert mul_fafft(a, 0) == mul_fafft(0, a) == 0
        assert mul_fafft(a, 1) == mul_fafft(1, a) == a


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.data())
def test_property_fafft_matches_schoolbook(data):
    need = data.draw(st.integers(1, 1 << 11), label="product bits")
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


@pytest.mark.parametrize("m", [12, 14, 16])
def test_engine_peak_per_product_bit(m):
    # A warm product holds one transform state, its child and a bounded
    # temporary at a time: 5.3-7.8 bytes per product bit at these sizes.  A
    # full intp index of the GF(2^8) gather made it 10.0-16.6.
    rng = random.Random(m)
    n = 1 << (m - 1)
    a, b = (rng.getrandbits(n) | (1 << (n - 1)) for _ in range(2))
    want = mul_fafft(a, b)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert mul_fafft(a, b) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.0 * (1 << m)
