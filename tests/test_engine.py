"""Layered array engine against the recursive reference."""

import random

import numpy as np
import pytest

from fafft.basis import to_novel
from fafft.engine import _BLOCK, LayeredEngine, _ConstMul, _dtype
from fafft.field import _mul_vec
from fafft.mul import _tables
from fafft.reference import FaftEngine
from fafft.transform import n_cross_section, schedule, twiddles


@pytest.fixture(scope="module")
def eng():
    return FaftEngine(6)


@pytest.fixture(scope="module")
def lay(eng):
    return LayeredEngine(eng)  # the call form of perfbench; the argument is unused


def novel_lanes(rng, n):
    f = rng.getrandbits(n) if n > 1 else rng.getrandbits(1)
    g = to_novel(f, n)
    return np.array([(g >> i) & 1 for i in range(n)], dtype=np.uint64)


# Sizes of the differential tests.  m = 17 is the first size whose twiddle
# products need 32 bits and m = 18 the first whose values do (state l = 17),
# so this range reaches every multiplier form of the engine (see
# test_differential_sizes_cover_every_path).
DIFF_M = range(0, 19)


def test_differential_sizes_cover_every_path(lay):
    rows, forms = set(), set()
    for m in DIFF_M:
        for layer in lay.plan(m).layers:
            rows.add(layer.rows is None)
            forms.add(layer.tw.form)
    # depths where every row survives and depths that mix branch and
    # truncated rows
    assert rows == {True, False}
    # every form _ConstMul defines, read from its _<form> methods, so a form
    # that no plan here reaches fails
    defined = {k[1:] for k in vars(_ConstMul) if k.startswith("_") and not k.startswith("__")}
    assert forms == defined


def _check_const_mul(mul, t, width, rng):
    """A planned multiplier of the twiddles t against the vector field
    product, on random width-bit values, 0 and 2^width - 1 in every row.
    Every product up to m = 32 lies in GF(2^32)."""
    top = (1 << width) - 1
    x = rng.integers(0, top, (len(t), 6), endpoint=True, dtype=np.uint64)
    x[:, 0], x[:, 1] = 0, top
    x = x.astype(f"uint{max(8, width)}")
    want = _mul_vec(t[:, None], x.astype(np.uint64), 32)
    got = mul(x)
    assert got.shape == x.shape
    assert np.array_equal(got.astype(np.uint64), want.astype(np.uint64))


def test_planned_multipliers_match_field_product(lay):
    rng = np.random.default_rng(56)
    for m in range(0, 21):
        for layer, seg, t in zip(lay.plan(m).layers, schedule(m), twiddles(m)):
            _check_const_mul(layer.tw, t, int(seg.width.max()), rng)


@pytest.mark.parametrize(
    "shape",
    [
        (5, 7),  # one block
        (4, _BLOCK // 4),  # exactly one block
        (4, _BLOCK // 4 + 1),  # blocks of 3 rows, the last partial
        (40, 1000),  # blocks of 16 rows, the last partial
        (3, _BLOCK + 5),  # one row wider than a block
        (2, 3, _BLOCK // 2 + 3),  # a row wider than a block across the batch
        (0, 4, 100),
        (2, 0, 4, 100),
    ],
)
def test_byte_form_blocks_match_field_product(shape):
    rng = np.random.default_rng(57)
    t = rng.integers(1, 256, shape[-2], dtype=np.uint64)
    mul = _ConstMul(t, 8)
    assert mul.form == "byte"
    # a strided view, as forward hands the multiplier each segment's p1
    x = rng.integers(0, 256, shape[:-1] + (2 * shape[-1],), dtype=np.uint8)[..., ::2]
    got = mul(x)
    assert got.shape == x.shape
    assert np.array_equal(got, _mul_vec(t[:, None], x.astype(np.uint64), 8))


def test_forward_matches_recursive(eng, lay):
    rng = random.Random(51)
    for m in DIFF_M:
        n = 1 << m
        batch = np.stack([novel_lanes(rng, n), novel_lanes(rng, n)])
        got = lay.forward(batch, m)
        assert got.dtype == _dtype(lay.plan(m).leaf_width)
        for lanes, leaves in zip(batch, got):
            assert leaves.tolist() == eng.fafft_leaves(m, lanes.tolist())
            assert lay.forward(lanes, m).tolist() == leaves.tolist()


def test_inverse_roundtrip(eng, lay):
    rng = random.Random(52)
    for m in range(0, 13):
        n = 1 << m
        lanes = novel_lanes(rng, n)
        leaves = lay.forward(lanes, m)
        back = lay.inverse(leaves, m)
        assert back.tolist() == lanes.tolist()


def test_inverse_matches_recursive_on_products(eng, lay):
    # field-valued leaves (a pointwise product), not just 0/1 data
    rng = random.Random(53)
    for m in DIFF_M:
        n = 1 << m
        va = lay.forward(novel_lanes(rng, n), m)
        vb = lay.forward(novel_lanes(rng, n), m)
        vc = lay.pointwise(va, vb, m)
        got = lay.inverse(vc, m)
        want = eng.ifafft_leaves(m, [int(x) for x in vc])
        assert got.tolist() == want


def test_pointwise_matches_field_mul(eng, lay):
    rng = random.Random(54)
    for m in (3, 6, 9, 17):
        n = 1 << m
        va = lay.forward(novel_lanes(rng, n), m)
        vb = lay.forward(novel_lanes(rng, n), m)
        vc = lay.pointwise(va, vb, m)
        for x, y, z in zip(va.tolist(), vb.tolist(), vc.tolist()):
            assert z == eng.field.mul(x, y)


def test_leaves_take_the_tables_dtype(lay):
    # the engine's leaf vector is the Four-Russians tables' one, lane dtype
    # included
    for m in range(0, 11):
        lanes = np.zeros(1 << m, dtype=np.uint8)
        assert lay.forward(lanes, m).dtype == _tables(m).leaves(0, 0).dtype


@pytest.mark.parametrize("m", [0, 1, 3, 12])
@pytest.mark.parametrize("batch", [(0,), (2, 0)])
def test_empty_batches(lay, m, batch):
    # every shape comes from the plan, so a batch axis of length 0 passes
    nleaves = len(lay.plan(m).leaf_max)
    leaves = lay.forward(np.zeros(batch + (1 << m,), dtype=np.uint8), m)
    assert leaves.shape == batch + (nleaves,)
    assert lay.pointwise(leaves, leaves, m).shape == batch + (nleaves,)
    assert lay.inverse(leaves, m).shape == batch + (1 << m,)


def test_leaf_count(lay):
    for m in range(0, 14):
        assert len(lay.plan(m).leaf_max) == n_cross_section(m)


def test_widths_match_cross_section(eng, lay):
    for m in range(0, 12):
        widths = schedule(m)[-1].width.tolist()
        assert widths == [pt.orbit for pt in eng.cross_section(m)]
        assert lay.plan(m).leaf_max.tolist() == [(1 << w) - 1 for w in widths]


def test_lane_packing_roundtrip(lay):
    rng = random.Random(55)
    for n in (1, 2, 4, 8, 64, 1000, 4096):
        f = rng.getrandbits(n)
        lanes = lay.bits_to_lanes(f, n)
        assert len(lanes) == n
        assert lay.lanes_to_bits(lanes) == f
    with pytest.raises(ValueError):
        lay.lanes_to_bits(np.array([2], dtype=np.uint64))


def test_inverse_wrong_length(lay):
    with pytest.raises(ValueError):
        lay.inverse(np.zeros(5, dtype=np.uint64), 3)


def test_rejects_values_outside_their_fields(lay):
    with pytest.raises(ValueError):
        lay.forward(np.array([0, 1, 2, 0], dtype=np.uint64), 2)
    with pytest.raises(ValueError):
        lay.forward(np.zeros(3, dtype=np.uint64), 2)
    p = lay.plan(5)
    leaves = np.zeros(len(p.leaf_max), dtype=np.uint64)
    leaves[-1] = p.leaf_max[-1] + np.uint64(1)
    with pytest.raises(ValueError):
        lay.inverse(leaves, 5)
