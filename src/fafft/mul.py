"""Multiplication in GF(2)[x] on bit-packed operands (bit i = coeff of x^i).

Three routes, named once in ROUTES: a byte-windowed shift/XOR convolution
(quadratic, the baseline oracle), plain Karatsuba on the packed ints, and
the transform pipeline: convert both operands to the subspace-product basis
at the smallest power-of-two length covering the product, evaluate with the
pruned transform, multiply leaf values lane by lane, invert, convert
back.  The pruned leaf set is closed under lane products because each lane's
values stay in that leaf's orbit subfield.  Cantor's tower is nested, so
every field gives the same twiddles and products and one engine serves
every size.  Transforms stop at 2^32 points (transform._MAX_M), whose
twiddles and leaf values all lie in GF(2^32), which bounds the product at
2^32 bits.

Both halves of the pipeline around the lane products are GF(2)-linear.  Up
to 2^10 product bits each half is applied as a Four-Russians table
(Arlazarov et al. 1970): one gather per chunk of the operands or of the leaf
products and an XOR reduce, in place of the per-depth array steps whose
dispatch dominates at these sizes.  Between them the leaf vector is the
engine's, lanes in depth-first order, so the lane products are the engine
path's.  The tables come from two closed forms, not from running the
conversion or the engine:

- forward: the pruned transform evaluates at the cross-section of W_m, so
  leaf k of x^j is sigma_k^j, a Vandermonde matrix;
- inverse: s_m(x) is the product of x + w over W_m, and its derivative is
  its x coefficient, 1, so Lagrange interpolation over W_m gives
  c(x) = sum of c(w) s_m(x) / (x + w).  The product c has GF(2)
  coefficients, so over one Frobenius orbit the terms are conjugates and
  sum to a trace.

Past the direct tables the product takes the root butterfly's split: with
k = m - 1, s_m = s_k (s_k + 1), and the transform's first step sends a
polynomial to its residues mod s_k and mod s_k + 1, evaluated over W_k and
over its coset v_k + W_k.  The first product recurses, the second takes
tables of the same closed forms over the coset, and the Chinese remainder
theorem joins the two.  So 2^11 bits take the 2^10 tables and a 1 MiB pair
over v_10 + W_10, not a 4 MiB direct table.

The tests hold all the tables to the engine.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .basis import from_novel, to_novel
from .engine import LayeredEngine, _dtype, _forward, _inverse, _pointwise
from .field import _EXP16, _LOG16, _Q16, _as_int, _mul_vec, _span, _transpose_bits
from .subspace import subspace_coeffs
from .transform import schedule

__all__ = ["mul", "mul_fafft", "mul_karatsuba", "mul_schoolbook"]

_KARA_CUTOFF_BITS = 4096
_SCHOOL_BLOCK_BYTES = 64  # 512 bits of a per accumulator block
_TABLE_MAX_M = 10  # the largest direct tables; one split past them reaches 2^11 bits
_NIBBLES = np.arange(256)[:, None] >> np.array([0, 4]) & 15  # low, high nibble of a byte

_LAYERED = LayeredEngine()


class _Tables:
    """The two linear halves of the pipeline at 2^m bits as Four-Russians
    tables over c-bit chunks (c = 8 up to m = 8, else 4), over the points
    W_m, the roots of s_m, or, with coset, over v_m + W_m, the roots of
    s_m + 1.  Any m builds; products run m <= _TABLE_MAX_M, and the coset
    at _TABLE_MAX_M alone, for the root split past it.

    A leaf vector is the engine's: the leaves of schedule(m)[-1] (over the
    coset, those of schedule(m + 1)[-1] past W_m's) in depth-first order,
    one lane each in the dtype of the widest leaf.  Row 2^c i + v of fwd
    holds the leaf vector, as uint64 words, of the operand whose only
    nonzero chunk is v, at chunk i; row 2^c i + v of inv holds the product,
    as uint64 words, of the leaf vector whose only nonzero chunk is v, at
    chunk i.
    """

    def __init__(self, m: int, coset: bool = False):
        n = 1 << m
        # The leaves over v_m + W_m are those of the tree at 2^(m+1) points
        # whose alpha has bit m set; the tree at 2^m points has those over
        # W_m, whose alphas are all below 2^m.
        cs = schedule(m + coset)[-1]
        on = cs.alpha >> np.uint64(m) == coset
        widths, sigma = cs.width[on], cs.alpha[on]
        self.width = int(widths.max())
        self.dtype = _dtype(self.width)
        self.nleaves = len(widths)
        self.chunk = c = 8 if m <= 8 else 4
        # Leaf k of x^j is sigma_k^j: the transform evaluates at the
        # cross-section points sigma_k.  0^j is 1 at j = 0 and 0 after.
        j = np.arange(n, dtype=np.int32)[:, None]
        fwd = _EXP16.take(j * _LOG16.take(sigma) % _Q16)
        fwd[1:, sigma == 0] = 0
        # Lagrange over W_m, where s_m' = 1: bit j of the product c is the
        # sum over w in W_m of c(w) R_j(w), where R_j(w), the x^j coefficient
        # of s_m(x)/(x + w), sums w^(2^i - 1 - j) over the terms x^(2^i) of
        # s_m with 2^i > j: reversed Vandermonde rows.  Over v_m + W_m the
        # points are the roots of s_m(x) + 1, whose derivative is 1 too, and
        # (s_m(x) + 1)/(x + w) = (s_m(x) + s_m(w))/(x + w) has the same R_j.
        # R_j has GF(2) coefficients, so over the orbit of sigma the sum is
        # the trace Tr_w(c(sigma) R_j(sigma)), and bit j of the image of leaf
        # k, bit b, is Tr_w(v_b R_j(sigma_k)).
        r = np.zeros_like(fwd)
        for e in _terms(m):
            r[:e] ^= fwd[e - 1 :: -1]
        for w in set(widths.tolist()):
            sel = widths == w
            r[:, sel] = _trace_form(w, r[:, sel])
        self.fwd = _chunk_table(fwd.astype(self.dtype).view(np.uint8), c)
        self.inv = _chunk_table(_transpose_bits(r.astype(self.dtype).view(np.uint8)), c)
        self.fwd.setflags(write=False)
        self.inv.setflags(write=False)
        self.nbytes = (n + 7) // 8
        self._fwd_rows = np.tile(_chunk_offsets(self.nbytes, c), 2)
        self._inv_rows = _chunk_offsets(self.nleaves * self.dtype.itemsize, c)

    def leaves(self, a: int, b: int) -> np.ndarray:
        """The leaf vectors of two operands of at most 2^m bits, one row
        each."""
        rows = _chunks(_pair_bytes(a, b, self.nbytes), self.chunk) + self._fwd_rows
        parts = np.take(self.fwd, rows, axis=0).reshape(2, len(rows) // 2, -1)
        return np.bitwise_xor.reduce(parts, axis=1).view(self.dtype)[:, : self.nleaves]

    def product(self, leaves: np.ndarray) -> int:
        """The product whose leaf vector is leaves."""
        rows = _chunks(leaves.view(np.uint8), self.chunk) + self._inv_rows
        parts = np.take(self.inv, rows, axis=0)
        return int.from_bytes(np.bitwise_xor.reduce(parts, axis=0).tobytes(), "little")

    def mul(self, a: int, b: int) -> int:
        """ab mod s_m, or mod s_m + 1 over the coset, for a and b of at most
        2^m bits: interpolation over the points gives the residue."""
        va, vb = self.leaves(a, b)
        return self.product(_mul_vec(va, vb, self.width))


def _trace_form(w: int, y: np.ndarray) -> np.ndarray:
    """The w-bit values whose bit b is Tr_w(v_b y), for y in GF(2^w).

    Tr_w = s_{w-1} on GF(2^w) for w a power of two, and s_{w-1} kills v_i
    below w - 1 and maps v_{w-1} to 1, so the trace is the top coordinate;
    the map is linear in y, one span table per byte of it.
    """
    v = np.uint16(1) << np.arange(w, dtype=np.uint16)
    gram = _mul_vec(v[:, None], v, w).astype(np.uint16) >> (w - 1) & 1
    cols = (gram << np.arange(w, dtype=np.uint16)[:, None]).sum(axis=0, dtype=np.uint16)
    out = np.zeros(y.shape, dtype=np.uint16)
    for p in range(0, w, 8):
        out ^= _span(cols[p : p + 8])[(y >> p) & 0xFF]
    return out


def _chunk_table(units: np.ndarray, c: int) -> np.ndarray:
    """Four-Russians table of the linear map whose unit-bit images are the
    byte rows of units: row 2^c i + v is the image of chunk value v at chunk
    i, as uint64 words."""
    nbits, width = units.shape
    chunks = -(-nbits // c)
    cols = np.zeros((chunks * c, -(-width // 8) * 8), dtype=np.uint8)
    cols[:nbits, :width] = units
    # _span puts the chunk value first; move it inside the chunk
    t = _span(cols.reshape(chunks, c, -1).transpose(1, 0, 2)).transpose(1, 0, 2)
    return np.ascontiguousarray(t).reshape(chunks << c, -1).view(np.uint64)


def _chunk_offsets(nbytes: int, c: int) -> np.ndarray:
    """The first table row of each c-bit chunk of nbytes bytes."""
    return np.arange(nbytes * 8 // c, dtype=np.intp) << c


def _pair_bytes(a: int, b: int, nbytes: int) -> np.ndarray:
    """The little-endian bytes of a, then of b, nbytes each, as one uint8 array."""
    return np.frombuffer(a.to_bytes(nbytes, "little") + b.to_bytes(nbytes, "little"), np.uint8)


def _chunks(raw: np.ndarray, c: int) -> np.ndarray:
    """The c-bit chunks (c = 4 or 8) of a byte array, low chunk first."""
    return raw if c == 8 else _NIBBLES.take(raw, axis=0).ravel()


@lru_cache(maxsize=None)
def _tables(m: int, coset: bool = False) -> _Tables:
    return _Tables(m, coset)


@lru_cache(maxsize=None)
def _terms(k: int) -> tuple[int, ...]:
    """The exponents 2^i of the terms x^(2^i) of s_k, lowest first."""
    bits = subspace_coeffs(k)
    return tuple(1 << i for i in range(k + 1) if bits >> i & 1)


def _times_s(t: int, k: int) -> int:
    """t(x) s_k(x), one shift-XOR per term of s_k."""
    out = 0
    for e in _terms(k):
        out ^= t << e
    return out


def _residues(a: int, k: int) -> tuple[int, int]:
    """a mod s_k and a mod (s_k + 1), for a of at most 2^(k+1) bits.

    With a = q s_k + r, a mod (s_k + 1) = q + r.  A fold a + h s_k,
    h = a >> 2^k, clears the bits from 2^k up; the next term of s_k, at most
    x^(2^(k-1)), carries fewer than 2^(k-1) bits past 2^k again, and their
    fold settles r, as in basis._radix_fwd.
    """
    q = a >> (1 << k)
    r = a ^ _times_s(q, k)
    h = r >> (1 << k)
    r ^= _times_s(h, k)
    return r, r ^ q ^ h


def _mul_mod(m: int, a: int, b: int) -> int:
    """ab mod s_m for a and b of at most 2^m bits, as _Tables(m).mul.

    Past the tables the root splits the points into W_k (k = m - 1), where
    s_k vanishes, and v_k + W_k, where it is 1: the children's leaves are
    those of the residues mod s_k and mod s_k + 1.  Their products r0 and r1
    join as c = r0 + s_k (r0 + r1): r0 mod s_k, r1 mod s_k + 1, below 2^m bits.
    """
    if m <= _TABLE_MAX_M:
        return _tables(m).mul(a, b)
    k = m - 1
    (a0, a1), (b0, b1) = _residues(a, k), _residues(b, k)
    r0 = _mul_mod(k, a0, b0)
    return r0 ^ _times_s(r0 ^ _tables(k, True).mul(a1, b1), k)


def _check_operands(a, b) -> tuple[int, int]:
    """The operands as Python ints; TypeError unless integers, ValueError
    if negative."""
    a, b = _as_int(a, "a polynomial operand"), _as_int(b, "a polynomial operand")
    if a < 0 or b < 0:
        raise ValueError("polynomial operands must be nonnegative ints")
    return a, b


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


def mul_fafft(a: int, b: int) -> int:
    """Transform pipeline multiplication over GF(2^32).

    Products of up to 2^11 bits take the tables, larger ones the engine.
    Any product size works up to 2^32 bits; the engine's plan raises
    ValueError past that.
    """
    a, b = _check_operands(a, b)
    if a == 0 or b == 0:
        return 0
    need = a.bit_length() + b.bit_length() - 1
    m = (need - 1).bit_length()
    if m <= _TABLE_MAX_M + 1:
        c = _mul_mod(m, a, b)
    else:
        # The packed coefficients and leaves below are built here, so they skip
        # the engine's input checks; no name keeps the operands' bytes, so
        # they go once the forward has its index bytes.
        n, p = 1 << m, _LAYERED.plan(m)
        leaves = _forward(p, _pair_bytes(to_novel(a, n), to_novel(b, n), n // 8).reshape(2, n // 8))
        g = _inverse(p, _pointwise(p, *leaves))
        c = from_novel(int.from_bytes(g.tobytes(), "little"), n)
    if c.bit_length() > need:
        raise RuntimeError(f"product has {c.bit_length()} bits, operands allow {need}")
    return c


# The multiplication routes by name, in the order the front ends list them.
ROUTES = {"fafft": mul_fafft, "schoolbook": mul_schoolbook, "karatsuba": mul_karatsuba}


def mul(a: int, b: int, method: str = "fafft") -> int:
    """Multiply two GF(2)[x] polynomials by the route ROUTES names; ValueError
    for any other method.  The route checks the operands."""
    try:
        route = ROUTES[method]
    except (KeyError, TypeError):  # TypeError: an unhashable method
        raise ValueError(f"unknown method {method!r}") from None
    return route(a, b)
