"""Arithmetic in GF(2^d), d = 2^K, over a Cantor basis.

A field element is a plain Python int used as a coordinate vector: bit i of
the int is the GF(2) coefficient of the basis vector v_i (little-endian by
basis index).  The basis is built from tower generators u_0, ..., u_{K-1}
satisfying

    u_j^2 + u_j = u_0 * u_1 * ... * u_{j-1}        (empty product = 1),

and v_i is the monomial u_0^{i_0} * ... * u_{K-1}^{i_{K-1}} where i_j are the
binary digits of i.  In particular v_0 = 1, v_{2^j} = u_j, and the element
omega_i with coordinate vector i is simply the int i.  An element lies in the
subfield GF(2^{2^j}) exactly when all coordinates with index >= 2^j vanish,
i.e. when the int is < 2^{2^j}.

Multiplication splits an element at the top active generator u_j into
a0 + a1*u_j and recurses with three half-width products (Karatsuba), using

    u_j^2 = u_j + zeta_j,      zeta_j = u_0*...*u_{j-1} = v_{2^j - 1}.

The product by zeta_j = v_{2^j - 1} is one more half-width product.  Two
recursions of one shape run it, _mul_vec on arrays (the engine's lanes) and
_mul_int on ints: the GF(256) product table up to 8 bits, discrete logs over
GF(2^16) up to 16 bits, Karatsuba halves above.  Both tables are built at
import from the tower relations alone, as shift/mask products by the u_t.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["CantorField", "binru"]


def _as_int(x, what: str) -> int:
    """x as a Python int; TypeError for bool and non-integers."""
    if isinstance(x, bool):
        raise TypeError(f"{what} must be an int, not bool")
    try:
        return operator.index(x)
    except TypeError:
        raise TypeError(f"{what} must be an int, got {type(x).__name__}") from None


def binru(x: int) -> int:
    """Smallest power of two >= x (1 for x <= 1)."""
    return 1 if x <= 1 else 1 << (x - 1).bit_length()


# Masks over coordinate indices 0..63: _M0[t] keeps indices whose bit t is
# clear.  Shifting an element right by 2^t and masking with _M0[t] moves every
# coordinate with index bit t set onto its bit-t-cleared index, which is how
# the u_t products below are implemented.
_M0 = []
for _t in range(6):
    _m = 0
    for _i in range(64):
        if not (_i >> _t) & 1:
            _m |= 1 << _i
    _M0.append(_m)
del _m, _t, _i


def _mul_by_u(x, t: int):
    """Multiply x by the generator u_t.  Works on ints and uint64 arrays."""
    p = 1 << t
    m = _M0[t]
    x1 = (x >> p) & m
    x0 = x & m
    return ((x0 ^ x1) << p) ^ _mul_zeta(x1, t)


def _mul_zeta(x, t: int):
    """Multiply x by zeta_t = u_0 * ... * u_{t-1} (= v_{2^t - 1})."""
    for s in range(t):
        x = _mul_by_u(x, s)
    return x


def _times_v(x, i: int):
    """Multiply x by v_i, the product of the generators u_t over the set bits
    t of i.  Works on ints and uint64 arrays."""
    for t in range(i.bit_length()):
        if (i >> t) & 1:
            x = _mul_by_u(x, t)
    return x


def _mul_vec(a, b, w: int):
    """Elementwise Cantor product of two width-w coordinate arrays.

    Widths up to 8 take one lookup in the GF(2^8) product table (uint8 out),
    widths up to 16 one discrete-log lookup in GF(2^16) (uint16 out), and
    wider ones split into Karatsuba halves (uint64 out).  Put the smaller
    operand first: it is the one that gets shifted.
    """
    if w == 1:
        return a & b
    if w <= 8:
        return _BYTE_NP.take(np.bitwise_or(np.left_shift(a, 8, dtype=np.intp), b, dtype=np.intp))
    if w <= 16:
        return _EXP16.take(_LOG16.take(a) + _LOG16.take(b))
    h = w >> 1
    hm = (1 << h) - 1
    a0 = a & hm
    a1 = (a >> h) & hm
    b0 = b & hm
    b1 = (b >> h) & hm
    m0 = _mul_vec(a0, b0, h)
    m1 = _mul_vec(a1, b1, h)
    t = _mul_vec(a0 ^ a1, b0 ^ b1, h)
    zm1 = _mul_vec(np.uint64(1 << (h - 1)), m1, h)  # zeta_{lg h} = v_{h-1}
    return m0 ^ zm1 ^ ((t ^ m0).astype(np.uint64) << h)


def _span(cols) -> np.ndarray:
    """Subset-XOR table: entry i is the XOR of cols[j] over the set bits j
    of i, in the dtype of cols.  A GF(2)-linear map is its span table over
    the basis images."""
    cols = np.asarray(cols)
    t = np.zeros((1,) + cols.shape[1:], dtype=cols.dtype)
    for c in cols:
        t = np.concatenate([t, t ^ c])
    return t


def _transpose_bits(x: np.ndarray) -> np.ndarray:
    """The transpose of a bit matrix stored as rows of bytes, bit i of byte
    s being column 8 s + i: row 8 s + i of the result holds bit i of byte s
    of every row of x, packed the same way.

    Each 8 x 8 block is one uint64, transposed by three delta swaps (Hacker's
    Delight, section 7-3).
    """
    rows, nbytes = x.shape
    blocks = np.zeros((nbytes, -(-rows // 8) * 8), dtype=np.uint8)
    blocks[:, :rows] = x.T
    w = blocks.view("<u8").astype(np.uint64)
    for shift, mask in _DELTA_SWAPS:
        t = (w ^ (w >> shift)) & mask
        w ^= t ^ (t << shift)
    out = w.astype("<u8").view(np.uint8).reshape(nbytes, -1, 8)
    return out.transpose(0, 2, 1).reshape(8 * nbytes, -1)


# GF(256) product table at index (a << 8) | b: the span over the rows v_i * b
_BYTE_NP = _span([_times_v(np.arange(256, dtype=np.uint64), i) for i in range(8)])
_BYTE_NP = _BYTE_NP.reshape(-1).astype(np.uint8)
_Q16 = (1 << 16) - 1  # order of GF(2^16)*
_G16 = 0x102  # u_0 + u_3, a generator of GF(2^16)*
_DELTA_SWAPS = tuple(
    (np.uint64(s), np.uint64(m))
    for s, m in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
)


def _build_log16():
    """Discrete logs and powers of the generator _G16 of GF(2^16)*.

    exp holds g^i for 0 <= i < 2q (q = 2^16 - 1), so the sum of two logs
    needs no reduction mod q, and zeros from 2q on; log[0] = 2q sends every
    product with a zero factor into the zeros.  The logs are int32, so an
    array of gathered logs takes half the bytes; a sum of two stays below
    4q + 1.
    """
    q = _Q16
    pw = np.ones(1, dtype=np.uint64)  # pw[i] = g^i
    # cols[i] = c * v_i for c = g^len(pw); x * c is GF(2)-linear in x, so it
    # is one span table per byte of x, and c^2 is c applied to its own columns
    cols = np.array([_times_v(_G16, i) for i in range(16)], dtype=np.uint64)
    while len(pw) <= q:
        lo, hi = _span(cols[:8]), _span(cols[8:])
        pw = np.concatenate([pw, lo[pw & 0xFF] ^ hi[pw >> 8]])
        cols = lo[cols & 0xFF] ^ hi[cols >> 8]
    exp = np.zeros(4 * q + 1, dtype=np.uint16)
    exp[:q] = exp[q : 2 * q] = pw[:q]
    log = np.full(q + 1, 2 * q, dtype=np.int32)
    log[pw[:q]] = np.arange(q)
    if (log[1:] == 2 * q).any():
        raise RuntimeError(f"{_G16:#x} does not generate GF(2^16)*")
    return log, exp


_LOG16, _EXP16 = _build_log16()


def _mul_int(a: int, b: int, w: int) -> int:
    """Scalar Cantor product at width w (a power of two): _mul_vec on ints."""
    if w <= 8:
        return _BYTE_NP.item((a << 8) | b)
    if w <= 16:
        return _EXP16.item(_LOG16.item(a) + _LOG16.item(b))
    h = w >> 1
    hm = (1 << h) - 1
    a0 = a & hm
    a1 = a >> h
    b0 = b & hm
    b1 = b >> h
    m0 = _mul_int(a0, b0, h)
    m1 = _mul_int(a1, b1, h)
    t = _mul_int(a0 ^ a1, b0 ^ b1, h)
    return m0 ^ _mul_int(1 << (h - 1), m1, h) ^ ((t ^ m0) << h)  # zeta_{lg h} = v_{h-1}


class CantorField:
    """GF(2^(2^K)) with elements as coordinate ints, 1 <= K <= 6."""

    def __init__(self, K: int = 6):
        K = _as_int(K, "tower height K")
        if not 1 <= K <= 6:
            raise ValueError(f"tower height K must be in 1..6, got {K}")
        self.K = K
        self.d = 1 << K
        self.order = 1 << self.d
        self.mask = self.order - 1
        # Frobenius as a bit matrix: row i is v_i squared.
        self._sq = [self.mul(1 << i, 1 << i) for i in range(self.d)]

    def __repr__(self):
        return f"CantorField(K={self.K})"

    def _check(self, a: int) -> int:
        """a as a Python int, checked to be an element."""
        a = _as_int(a, "a field element")
        if not 0 <= a <= self.mask:
            raise ValueError(f"element {a:#x} outside GF(2^{self.d})")
        return a

    def mul(self, a: int, b: int) -> int:
        """Product of two elements."""
        a, b = self._check(a), self._check(b)
        return _mul_int(a, b, binru((a | b).bit_length()))

    def frobenius(self, a: int) -> int:
        """a squared, evaluated through the precomputed bit matrix."""
        a = self._check(a)
        r = 0
        sq = self._sq
        while a:
            low = a & -a
            r ^= sq[low.bit_length() - 1]
            a ^= low
        return r

    def inverse(self, a: int) -> int:
        """Multiplicative inverse, a^(2^d - 2)."""
        a = self._check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        # exponent 2^d - 2 = sum of 2^i for i = 1..d-1
        r = 1
        sq = a
        for _ in range(1, self.d):
            sq = self.frobenius(sq)
            r = self.mul(r, sq)
        return r
