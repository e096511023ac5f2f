"""Multiplication in GF(2)[x] on bit-packed operands (bit i = coeff of x^i).

Three routes: a byte-windowed shift/XOR convolution (quadratic, the baseline
oracle), plain Karatsuba on the packed ints, and the transform pipeline:
convert both operands to the subspace-product basis at the smallest
power-of-two length covering the product, evaluate with the pruned
transform, multiply leaf values lane by lane, invert, convert back.  The
pruned leaf set is closed under lane products because each lane's values
stay in that leaf's orbit subfield.
"""

from __future__ import annotations

import numpy as np

from .basis import from_novel, to_novel
from .engine import LayeredEngine
from .transform import FaftEngine

__all__ = ["mul", "mul_fafft", "mul_karatsuba", "mul_schoolbook"]

_KARA_CUTOFF_BITS = 4096
_SCHOOL_BLOCK_BYTES = 64  # 512 bits of a per accumulator block

# One engine for every tower height: the tower is nested, so K only bounds m.
_LAYERED = LayeredEngine(FaftEngine(6))


def _check_operands(a: int, b: int) -> None:
    if a < 0 or b < 0:
        raise ValueError("polynomial operands must be nonnegative ints")


def mul_schoolbook(a: int, b: int) -> int:
    """Quadratic convolution, windowed one byte of a at a time."""
    _check_operands(a, b)
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
    _check_operands(a, b)
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
    _check_operands(a, b)
    if not 1 <= K <= 6:
        raise ValueError(f"tower height K must be in 1..6, got {K}")
    if a == 0 or b == 0:
        return 0
    need = a.bit_length() + b.bit_length() - 1
    m = (need - 1).bit_length()
    if m > 1 << K:
        raise ValueError(f"product needs 2^{m} points, above the field size 2^{1 << K}")
    n = 1 << m
    lanes = np.stack([_LAYERED.bits_to_lanes(to_novel(f, n), n) for f in (a, b)])
    va, vb = _LAYERED.forward(lanes, m)
    vc = _LAYERED.pointwise(va, vb, m)
    g = _LAYERED.lanes_to_bits(_LAYERED.inverse(vc, m))
    c = from_novel(g, n)
    if c.bit_length() > need:
        raise RuntimeError(f"product has {c.bit_length()} bits, operands allow {need}")
    return c


def mul(a: int, b: int, method: str = "fafft") -> int:
    """Multiply two GF(2)[x] polynomials by the chosen route."""
    if method == "fafft":
        return mul_fafft(a, b)
    if method == "schoolbook":
        return mul_schoolbook(a, b)
    if method == "karatsuba":
        return mul_karatsuba(a, b)
    raise ValueError(f"unknown method {method!r}")
