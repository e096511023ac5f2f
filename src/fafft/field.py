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

The recursion bottoms out in a precomputed GF(256) table, and multiplication
by the constants zeta_j has a dedicated shift/mask path that never calls the
generic product routine.  Arrays of elements (the lanes of the transform
engine) multiply by table lookups instead: the GF(256) table up to 8 bits,
discrete logs over GF(2^16) up to 16 bits, Karatsuba halves above.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CantorField", "binru", "binrd"]


def binru(x: int) -> int:
    """Smallest power of two >= x (1 for x <= 1)."""
    return 1 if x <= 1 else 1 << (x - 1).bit_length()


def binrd(x: int) -> int:
    """Largest power of two <= x (x must be >= 1)."""
    if x < 1:
        raise ValueError("binrd needs x >= 1")
    return 1 << (x.bit_length() - 1)


# Masks over coordinate indices 0..63: _M0[t] keeps indices whose bit t is
# clear.  Shifting an element right by 2^t and masking with _M0[t] moves every
# coordinate with index bit t set onto its bit-t-cleared index, which is how
# both split_by_u and the u_t products below are implemented.
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
        return _BYTE_NP[np.bitwise_or(np.left_shift(a, 8, dtype=np.intp), b, dtype=np.intp)]
    if w <= 16:
        return _EXP16[_LOG16[a] + _LOG16[b]]
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


def _build_tables():
    """Precompute the GF(256) product table and zeta byte tables."""
    v = np.arange(256, dtype=np.uint64)
    # Row i holds v_i * b for every byte b; v_i is the product of the
    # generators u_t over the set bits t of i.
    rows = []
    for i in range(8):
        r = v
        for t in range(3):
            if (i >> t) & 1:
                r = _mul_by_u(r, t)
        rows.append(r)
    byte_np = _span(rows).reshape(-1).astype(np.uint8)  # index (a << 8) | b
    # _ZB[j][pos][v] = zeta_j * (v << 8*pos) for the widths where the scalar
    # Karatsuba needs a fold: zeta_3 on 8-bit, zeta_4 on 16-bit, zeta_5 on
    # 32-bit halves.
    zb = {}
    for j in (3, 4, 5):
        zb[j] = [_mul_zeta(v << np.uint64(8 * pos), j).tolist() for pos in range((1 << j) // 8)]
    return byte_np, byte_np.tolist(), zb


_BYTE_NP, _BYTE, _ZB = _build_tables()


def _zeta_fold(x: int, h: int) -> int:
    """Multiply x (an element of GF(2^h), h in {8, 16, 32}) by zeta_{lg h}."""
    rows = _ZB[h.bit_length() - 1]
    r = rows[0][x & 0xFF]
    pos = 1
    x >>= 8
    while x:
        r ^= rows[pos][x & 0xFF]
        x >>= 8
        pos += 1
    return r


def _mul_int(a: int, b: int, w: int) -> int:
    """Scalar Cantor product at width w (a power of two, >= 8)."""
    if w == 8:
        return _BYTE[(a << 8) | b]
    h = w >> 1
    hm = (1 << h) - 1
    a0 = a & hm
    a1 = a >> h
    b0 = b & hm
    b1 = b >> h
    if a1 == 0:
        if b1 == 0:
            return _mul_int(a0, b0, h)
        # one operand confined to the half-size subfield: two products suffice
        return _mul_int(a0, b0, h) | (_mul_int(a0, b1, h) << h)
    if b1 == 0:
        return _mul_int(a0, b0, h) | (_mul_int(a1, b0, h) << h)
    m0 = _mul_int(a0, b0, h)
    m1 = _mul_int(a1, b1, h)
    t = _mul_int(a0 ^ a1, b0 ^ b1, h)
    return m0 ^ _zeta_fold(m1, h) ^ ((t ^ m0) << h)


class CantorField:
    """GF(2^(2^K)) with elements as coordinate ints, 1 <= K <= 6."""

    def __init__(self, K: int = 6):
        if not 1 <= K <= 6:
            raise ValueError(f"tower height K must be in 1..6, got {K}")
        self.K = K
        self.d = 1 << K
        self.order = 1 << self.d
        self.mask = self.order - 1
        self.zeta = [1 << ((1 << j) - 1) for j in range(K)]
        # Frobenius as a bit matrix: row i is v_i squared.
        self._sq = [self.mul(1 << i, 1 << i) for i in range(self.d)]

    def __repr__(self):
        return f"CantorField(K={self.K})"

    def _check(self, a: int) -> None:
        if not 0 <= a <= self.mask:
            raise ValueError(f"element {a:#x} outside GF(2^{self.d})")

    def omega(self, i: int) -> int:
        """The element whose coordinates are the binary digits of i."""
        if not 0 <= i <= self.mask:
            raise ValueError(f"omega index {i} outside 0..2^{self.d}-1")
        return i

    def add(self, a: int, b: int) -> int:
        """Sum of two elements (coordinate-wise XOR)."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """Product of two elements."""
        self._check(a)
        self._check(b)
        if a < 256 and b < 256:
            return _BYTE[(a << 8) | b]
        return _mul_int(a, b, binru(max(a.bit_length(), b.bit_length())))

    def mul_zeta(self, a: int, j: int) -> int:
        """Product a * zeta_j by the dedicated constant path (no Karatsuba)."""
        self._check(a)
        if not 0 <= j < self.K:
            raise ValueError(f"zeta index {j} outside 0..{self.K - 1}")
        return _mul_zeta(a, j)

    def mul_by_u(self, a: int, t: int) -> int:
        """Product a * u_t by shift/mask folding."""
        self._check(a)
        if not 0 <= t < self.K:
            raise ValueError(f"generator index {t} outside 0..{self.K - 1}")
        return _mul_by_u(a, t)

    def frobenius(self, a: int) -> int:
        """a squared, evaluated through the precomputed bit matrix."""
        self._check(a)
        r = 0
        sq = self._sq
        while a:
            low = a & -a
            r ^= sq[low.bit_length() - 1]
            a ^= low
        return r

    def frobenius_iter(self, a: int, t: int) -> int:
        """a^(2^t): the Frobenius map applied t times."""
        for _ in range(t):
            a = self.frobenius(a)
        return a

    def split_by_u(self, a: int, j: int) -> tuple[int, int]:
        """Write a = r0 + u_j * r1 with both halves free of u_j.

        r0 collects coordinates whose index has bit j clear; r1 collects
        those with bit j set, reindexed with that bit cleared.
        """
        self._check(a)
        if not 0 <= j < self.K:
            raise ValueError(f"split level {j} outside 0..{self.K - 1}")
        m = _M0[j]
        return a & m, (a >> (1 << j)) & m

    def join_by_u(self, r0: int, r1: int, j: int) -> int:
        """Inverse of split_by_u: r0 + u_j * r1 for u_j-free halves."""
        if not 0 <= j < self.K:
            raise ValueError(f"split level {j} outside 0..{self.K - 1}")
        if (r0 | r1) & ~_M0[j] & self.mask:
            raise ValueError(f"halves {r0:#x}, {r1:#x} hold u_{j} coordinates")
        return r0 | (r1 << (1 << j))

    def inverse(self, a: int) -> int:
        """Multiplicative inverse, a^(2^d - 2)."""
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        # exponent 2^d - 2 = sum of 2^i for i = 1..d-1
        r = 1
        sq = a
        for _ in range(1, self.d):
            sq = self.frobenius(sq)
            r = self.mul(r, sq)
        return r

    def pow(self, a: int, e: int) -> int:
        """a raised to a nonnegative integer power."""
        self._check(a)
        r = 1
        base = a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    def in_subfield(self, a: int, j: int) -> bool:
        """True when a lies in GF(2^(2^j)), i.e. support below 2^j."""
        return a.bit_length() <= (1 << j)


def _build_log16():
    """Discrete logs and powers of a generator g of GF(2^16)*.

    exp holds g^i for 0 <= i < 2q (q = 2^16 - 1), so the sum of two logs
    needs no reduction mod q, and zeros from 2q on; log[0] = 2q sends every
    product with a zero factor into the zeros.
    """
    f = CantorField(4)
    q = f.order - 1
    # g generates when g^(q/p) != 1 for each prime p of q; elements below
    # 2^8 lie in GF(2^8)
    g = next(
        g for g in range(1 << 8, f.order) if all(f.pow(g, q // p) != 1 for p in (3, 5, 17, 257))
    )
    pw = np.ones(1, dtype=np.uint64)  # pw[i] = g^i
    c = g  # g^len(pw)
    while len(pw) <= q:
        # x * c is GF(2)-linear in x: one span table per byte of x
        cols = np.array([f.mul(c, 1 << i) for i in range(16)], dtype=np.uint64)
        lo, hi = _span(cols[:8]), _span(cols[8:])
        pw = np.concatenate([pw, lo[pw & 0xFF] ^ hi[pw >> 8]])
        c = f.mul(c, c)
    exp = np.zeros(4 * q + 1, dtype=np.uint16)
    exp[:q] = exp[q : 2 * q] = pw[:q]
    log = np.full(q + 1, 2 * q, dtype=np.int64)
    log[pw[:q]] = np.arange(q)
    return log, exp


_LOG16, _EXP16 = _build_log16()
