"""Subspace (linearized) polynomials and twiddle factors.

The chain starts at s_0(x) = x and steps by s_j = s_{j-1}^2 + s_{j-1}.  Every
s_j is GF(2)-linear with coefficients supported on exponents 2^i, so a
coefficient vector fits in an int: bit i is the coefficient of x^(2^i).
Squaring such a polynomial shifts that vector up by one, which gives the
one-line recursion in subspace_coeffs.

s_k vanishes exactly on the span W_k of v_0..v_{k-1}, takes the value 1 at
v_k, and for power-of-two k collapses to x^(2^k) + x.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .field import CantorField, _span

__all__ = ["SubspaceCoeffs", "subspace_coeffs", "eval_subspace", "TwiddleTable"]


class SubspaceCoeffs(NamedTuple):
    k: int
    bits: int  # bit i = coefficient of x^(2^i)


def subspace_coeffs(k: int) -> SubspaceCoeffs:
    """Coefficient vector of s_k, driven purely by the recursion."""
    if k < 0:
        raise ValueError("subspace index must be nonnegative")
    bits = 1
    for _ in range(k):
        bits = (bits << 1) ^ bits
    return SubspaceCoeffs(k, bits)


def eval_subspace(field: CantorField, k: int, a: int) -> int:
    """Evaluate s_k(a) by accumulating Frobenius iterates of a."""
    bits = subspace_coeffs(k).bits
    r = 0
    power = a
    while bits:
        if bits & 1:
            r ^= power
        bits >>= 1
        if bits:
            power = field.frobenius(power)
    return r


class TwiddleTable:
    """Precomputed s_j(v_i) for all 0 <= j <= i < d.

    Rows are filled once at construction (row j + 1 follows from row j by one
    Frobenius step per entry, since s_{j+1} = s_1 composed with s_j).  The
    Frobenius map is GF(2)-linear, so a whole row steps through one span
    table of its bit matrix per byte of an element.  The twiddle of an
    arbitrary point alpha is the XOR of the rows selected by alpha's
    coordinates, by GF(2)-linearity of s_j.
    """

    def __init__(self, field: CantorField):
        self.field = field
        d = field.d
        nbytes = (d + 7) // 8
        # frob[v, p]: the square of byte v placed at byte p of an element
        sq = np.zeros(8 * nbytes, dtype=np.uint64)
        sq[:d] = field._sq
        frob = _span(sq.reshape(nbytes, 8).T)
        shifts = np.arange(0, 8 * nbytes, 8, dtype=np.uint64)
        pos = np.arange(nbytes)
        row = np.uint64(1) << np.arange(d, dtype=np.uint64)  # s_0(v_i) = v_i
        rows = [row]
        for _ in range(d - 1):
            byte = (row[:, None] >> shifts) & np.uint64(0xFF)
            row = np.bitwise_xor.reduce(frob[byte, pos], axis=1) ^ row
            rows.append(row)
        self.rows = np.array(rows).tolist()

    def value(self, j: int, i: int) -> int:
        """s_j(v_i)."""
        return self.rows[j][i]

    def twiddle(self, j: int, alpha: int) -> int:
        """s_j(alpha) for any field element alpha."""
        if not 0 <= j < self.field.d:
            raise ValueError(f"twiddle level {j} outside 0..{self.field.d - 1}")
        self.field._check(alpha)
        row = self.rows[j]
        r = 0
        while alpha:
            low = alpha & -alpha
            r ^= row[low.bit_length() - 1]
            alpha ^= low
        return r

    def rows_np(self) -> np.ndarray:
        """The table as a (d, d) uint64 array."""
        return np.array(self.rows, dtype=np.uint64)
