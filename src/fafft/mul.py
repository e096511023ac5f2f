"""Multiplication in GF(2)[x] on bit-packed operands (bit i = coeff of x^i).

Three routes: a byte-windowed shift/XOR convolution (quadratic, the baseline
oracle), plain Karatsuba on the packed ints, and the transform pipeline:
convert both operands to the subspace-product basis at the smallest
power-of-two length covering the product, evaluate with the pruned
transform, multiply leaf values lane by lane, invert, convert back.  The
pruned leaf set is closed under lane products because each lane's values
stay in that leaf's orbit subfield.

Both halves of the pipeline around the lane products are GF(2)-linear.
Where every leaf of the plan fits one byte (products of at most 2^8 bits),
each half is applied as a Four-Russians byte table (Arlazarov et al. 1970):
one gather per operand byte or leaf and an XOR reduce, in place of the
per-depth array steps whose dispatch dominates at these sizes.  The tables
are built once per size by running the conversion and the engine on basis
vectors, so the transform itself is written down only in the engine.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

from .basis import from_novel, from_novel_packed, to_novel, to_novel_packed
from .engine import LayeredEngine
from .field import _span
from .transform import FaftEngine

__all__ = ["mul", "mul_fafft", "mul_karatsuba", "mul_schoolbook"]

_KARA_CUTOFF_BITS = 4096
_SCHOOL_BLOCK_BYTES = 64  # 512 bits of a per accumulator block

# One engine for every tower height: the tower is nested, so K only bounds m.
_LAYERED = LayeredEngine(FaftEngine(6))


class _ByteTables:
    """The two linear halves of the pipeline at 2^m bits as byte tables.

    Row 256 i + v of fwd holds the leaves of the operand whose only nonzero
    byte is v, at byte i; row 256 k + v of inv holds the product bytes of
    the leaf vector whose only nonzero leaf is k, with value v.  Both come
    from running to_novel, forward, inverse and from_novel on all 2^m basis
    vectors at once, and from one subset-XOR table per byte position.
    """

    def __init__(self, m: int):
        n = 1 << m
        widths = _LAYERED.plan(m).leaf_widths
        nleaves = len(widths)
        self.nbytes = nb = (n + 7) // 8
        to_bits, to_lanes = _LAYERED.lanes_to_bits, _LAYERED.bits_to_lanes
        # Monomial x^j to its leaves: slot t, bit j of the converted identity
        # is the coefficient of X_t in x^j.
        eye = to_bits(np.eye(n, dtype=np.uint8).ravel())
        novel = to_lanes(to_novel_packed(eye, n, n), n * n).reshape(n, n)
        fwd = np.zeros((8 * nb, nleaves), dtype=np.uint8)
        fwd[:n] = _LAYERED.forward(novel.T, m)
        # Unit bit b of leaf k to its product bits, packed into bytes.
        leaf = np.repeat(np.arange(nleaves), widths)
        bit = np.arange(n) - np.repeat(np.cumsum(widths) - widths, widths)
        units = np.zeros((n, nleaves), dtype=np.uint64)
        units[np.arange(n), leaf] = np.uint64(1) << bit.astype(np.uint64)
        g = from_novel_packed(to_bits(_LAYERED.inverse(units, m).T.ravel()), n, n)
        inv = np.zeros((nleaves, 8, nb), dtype=np.uint8)
        inv[leaf, bit] = np.packbits(to_lanes(g, n * n).reshape(n, n).T, axis=1, bitorder="little")
        # _span puts the byte value first; move it inside the byte or leaf
        fwd = _span(fwd.reshape(nb, 8, nleaves).transpose(1, 0, 2))
        self.fwd = fwd.transpose(1, 0, 2).reshape(nb * 256, nleaves)
        self.inv = _span(inv.transpose(1, 0, 2)).transpose(1, 0, 2).reshape(nleaves * 256, nb)
        self.fwd.setflags(write=False)
        self.inv.setflags(write=False)
        self._fwd_rows = np.tile(256 * np.arange(nb), 2)
        self._inv_rows = 256 * np.arange(nleaves, dtype=np.uint64)

    def leaves(self, a: int, b: int) -> np.ndarray:
        """Leaf values (uint8, shape (2, leaves)) of two operands of at most 2^m bits."""
        raw = a.to_bytes(self.nbytes, "little") + b.to_bytes(self.nbytes, "little")
        rows = np.frombuffer(raw, dtype=np.uint8) + self._fwd_rows
        parts = np.take(self.fwd, rows, axis=0).reshape(2, self.nbytes, -1)
        return np.bitwise_xor.reduce(parts, axis=1)

    def product(self, leaves: np.ndarray) -> int:
        """The product whose leaf values are the uint64 vector leaves."""
        parts = np.take(self.inv, leaves + self._inv_rows, axis=0)
        return int.from_bytes(np.bitwise_xor.reduce(parts, axis=0).tobytes(), "little")


@lru_cache(maxsize=None)
def _tables(m: int) -> _ByteTables:
    return _ByteTables(m)


def _check_operands(a, b) -> tuple[int, int]:
    """The operands as Python ints; TypeError unless integers, ValueError
    if negative."""
    out = []
    for x in (a, b):
        if isinstance(x, bool):
            raise TypeError("polynomial operands must be ints, not bool")
        try:
            x = operator.index(x)
        except TypeError:
            raise TypeError(f"polynomial operands must be ints, got {type(x).__name__}") from None
        if x < 0:
            raise ValueError("polynomial operands must be nonnegative ints")
        out.append(x)
    return out[0], out[1]


def mul_schoolbook(a: int, b: int) -> int:
    """Quadratic convolution, windowed one byte of a at a time."""
    a, b = _check_operands(a, b)
    if a == 0 or b == 0:
        return 0
    if a.bit_length() < b.bit_length():
        a, b = b, a
    # table[v] = v(x) * b, filled along the lowest-set-bit lattice
    table = [0] * 256
    for v in range(1, 256):
        low = v & -v
        table[v] = table[v ^ low] ^ (b << (low.bit_length() - 1))
    # Bytes of a are summed into a short accumulator one block at a time, so
    # each byte shifts and XORs about len(b) + block bits, not the whole
    # product.
    raw = a.to_bytes((a.bit_length() + 7) // 8, "little")
    out = 0
    for base in range(0, len(raw), _SCHOOL_BLOCK_BYTES):
        acc = 0
        for i, w in enumerate(raw[base : base + _SCHOOL_BLOCK_BYTES]):
            if w:
                acc ^= table[w] << (8 * i)
        out ^= acc << (8 * base)
    return out


def mul_karatsuba(a: int, b: int) -> int:
    """Split-at-half recursion on the packed ints."""
    a, b = _check_operands(a, b)
    if a == 0 or b == 0:
        return 0
    n = max(a.bit_length(), b.bit_length())
    if n <= _KARA_CUTOFF_BITS:
        return mul_schoolbook(a, b)
    h = n >> 1
    hm = (1 << h) - 1
    a0, a1 = a & hm, a >> h
    b0, b1 = b & hm, b >> h
    z0 = mul_karatsuba(a0, b0)
    z2 = mul_karatsuba(a1, b1)
    z1 = mul_karatsuba(a0 ^ a1, b0 ^ b1) ^ z0 ^ z2
    return z0 ^ (z1 << h) ^ (z2 << (2 * h))


def mul_fafft(a: int, b: int, K: int = 6) -> int:
    """Transform pipeline multiplication over the tower of height K."""
    a, b = _check_operands(a, b)
    if not 1 <= K <= 6:
        raise ValueError(f"tower height K must be in 1..6, got {K}")
    if a == 0 or b == 0:
        return 0
    need = a.bit_length() + b.bit_length() - 1
    m = (need - 1).bit_length()
    if m > 1 << K:
        raise ValueError(f"product needs 2^{m} points, above the field size 2^{1 << K}")
    if _LAYERED.plan(m).leaf_width <= 8:
        t = _tables(m)
        va, vb = t.leaves(a, b)
        c = t.product(_LAYERED.pointwise(va, vb, m))
    else:
        n = 1 << m
        lanes = np.stack([_LAYERED.bits_to_lanes(to_novel(f, n), n) for f in (a, b)])
        va, vb = _LAYERED.forward(lanes, m)
        vc = _LAYERED.pointwise(va, vb, m)
        c = from_novel(_LAYERED.lanes_to_bits(_LAYERED.inverse(vc, m)), n)
    if c.bit_length() > need:
        raise RuntimeError(f"product has {c.bit_length()} bits, operands allow {need}")
    return c


def mul(a: int, b: int, method: str = "fafft") -> int:
    """Multiply two GF(2)[x] polynomials by the chosen route."""
    a, b = _check_operands(a, b)
    if method == "fafft":
        return mul_fafft(a, b)
    if method == "schoolbook":
        return mul_schoolbook(a, b)
    if method == "karatsuba":
        return mul_karatsuba(a, b)
    raise ValueError(f"unknown method {method!r}")
