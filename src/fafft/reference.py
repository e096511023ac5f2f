"""Recursive reference transforms and basis conversion, the tests' oracle;
nothing on the product path imports this module.

FaftEngine runs the plain forward transform (the oracle of orbit expansion)
and the pruned transform of transform.py by direct recursion, with its own
twiddle table and its own walk of the state rule.  Its truncated inverse
step keeps the paper's form P0 = (q mod 2^l) + c * P1 with c = tw + v_l,
where the engine and the circuit generator write q + tw * P1: an oracle
that shares that rewriting could not catch a fault in it.  afft's slot i
holds the value at alpha + omega_i.  to_novel_by_division converts by long
division with the full s_k, in quadratic time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .basis import _check_packed, from_novel, to_novel
from .field import CantorField, _as_int, binru
from .subspace import TwiddleTable, subspace_coeffs
from .transform import (
    CrossSectionPoint,
    OpCounters,
    _check_m,
    _truncated,
    cross_section,
    n_cross_section,
)

__all__ = ["FaftEngine", "FaftResult", "to_novel_by_division"]


@dataclass
class FaftResult:
    """Pruned-transform output: one value per cross-section point."""

    m: int
    points: tuple[CrossSectionPoint, ...]
    values: list[int]


def _charge(counters: OpCounters | None, h: int, l: int, halves: int) -> None:
    """Count one butterfly at state l: h multiplies and h adds per output
    half it computes, each weighted by binru(l)."""
    if counters is not None:
        w = binru(l)
        counters.add(OpCounters(h, halves * h, h * w, halves * h * w))


def _check_unit_top(tw: int, l: int) -> None:
    """A truncated step at state l needs tw = c + v_l with c in GF(2^l)."""
    if tw >> l != 1:
        raise RuntimeError(f"twiddle {tw:#x} at state {l} is not v_{l} + (lower bits)")


class FaftEngine:
    """Recursive reference transforms over one field instance."""

    def __init__(self, K: int = 6):
        self.field = CantorField(K)

    @cached_property
    def twiddles(self) -> TwiddleTable:
        """The oracle's own twiddle table, built on first use."""
        return TwiddleTable(self.field)

    # ----- plain additive FFT -------------------------------------------

    def afft(self, k: int, coeffs: list[int], alpha: int = 0) -> list[int]:
        """Evaluate the subspace-product polynomial at alpha + W_k."""
        self._check_size(k, coeffs)
        alpha = self.field._check(alpha)
        return self._afft(k, list(coeffs), alpha)

    def _afft(self, k, p, alpha):
        if k == 0:
            return p
        h = 1 << (k - 1)
        tw = self.twiddles.twiddle(k - 1, alpha)
        mul = self.field.mul
        q0 = [p[j] ^ mul(tw, p[h + j]) for j in range(h)]
        q1 = [q0[j] ^ p[h + j] for j in range(h)]
        return self._afft(k - 1, q0, alpha) + self._afft(k - 1, q1, alpha ^ h)

    # ----- Frobenius-pruned transform -----------------------------------

    def fafft_leaves(
        self, m: int, coeffs: list[int], counters: OpCounters | None = None
    ) -> list[int]:
        """Pruned evaluations over W_m, one per cross-section point, in
        depth-first leaf order."""
        self._check_size(m, coeffs)
        out: list[int] = []
        self._fafft(m, list(coeffs), 0, 0, out, counters)
        return out

    def ifafft_leaves(
        self, m: int, leaves: list[int], counters: OpCounters | None = None
    ) -> list[int]:
        """Inverse of fafft_leaves."""
        self._check_m(m)
        want = n_cross_section(m)
        if len(leaves) != want:
            raise ValueError(f"expected {want} leaf values for m={m}, got {len(leaves)}")
        p, pos = self._ifafft(m, leaves, 0, 0, 0, counters)
        if pos != len(leaves):
            raise RuntimeError(f"inverse read {pos} of {len(leaves)} leaves")
        return p

    def _fafft(self, k, p, l, alpha, out, counters):
        if k == 0:
            out.append(p[0])
            return
        h = 1 << (k - 1)
        tw = self.twiddles.twiddle(k - 1, alpha)
        mul = self.field.mul
        q0 = [p[j] ^ mul(tw, p[h + j]) for j in range(h)]
        if _truncated(l):
            _check_unit_top(tw, l)
            _charge(counters, h, l, 1)
            self._fafft(k - 1, q0, l + 1, alpha, out, counters)
            return
        q1 = [q0[j] ^ p[h + j] for j in range(h)]
        _charge(counters, h, l, 2)
        self._fafft(k - 1, q0, 0 if l == 0 else l + 1, alpha, out, counters)
        self._fafft(k - 1, q1, 1 if l == 0 else l + 1, alpha ^ h, out, counters)

    def _ifafft(self, k, a, pos, l, alpha, counters):
        if k == 0:
            return [a[pos]], pos + 1
        h = 1 << (k - 1)
        tw = self.twiddles.twiddle(k - 1, alpha)
        mul = self.field.mul
        if _truncated(l):
            q, pos = self._ifafft(k - 1, a, pos, l + 1, alpha, counters)
            _check_unit_top(tw, l)
            c, lmask = tw ^ (1 << l), (1 << l) - 1
            p1 = [qj >> l for qj in q]
            p0 = [(qj & lmask) ^ mul(c, r1) for qj, r1 in zip(q, p1)]
            _charge(counters, h, l, 1)
            return p0 + p1, pos
        q0, pos = self._ifafft(k - 1, a, pos, 0 if l == 0 else l + 1, alpha, counters)
        q1, pos = self._ifafft(k - 1, a, pos, 1 if l == 0 else l + 1, alpha ^ h, counters)
        p1 = [q0[j] ^ q1[j] for j in range(h)]
        p0 = [q0[j] ^ mul(tw, p1[j]) for j in range(h)]
        _charge(counters, h, l, 2)
        return p0 + p1, pos

    # ----- cross-sections and orbit expansion ---------------------------

    def cross_section(self, m: int) -> tuple[CrossSectionPoint, ...]:
        """Evaluation points of the surviving leaves, in leaf order."""
        return cross_section(self._check_m(m))

    def expand_to_full_aft(self, m: int, values: list[int]) -> list[int]:
        """Rebuild the full 2^m evaluation vector from cross-section values
        by walking each Frobenius orbit.  Every slot is written exactly once.

        Each value must lie in its leaf's orbit subfield, GF(2^orbit)."""
        pts = self.cross_section(m)
        if len(values) != len(pts):
            raise ValueError(f"expected {len(pts)} values for m={m}, got {len(values)}")
        for pt, val in zip(pts, values):
            if not 0 <= val < 1 << pt.orbit:
                raise ValueError(f"value {val:#x} at point {pt.index} outside GF(2^{pt.orbit})")
        frob = self.field.frobenius
        out: list[int | None] = [None] * (1 << m)
        for pt, val in zip(pts, values):
            x, v = pt.index, val
            for _ in range(pt.orbit):
                if out[x] is not None:
                    raise RuntimeError(f"orbit collision at index {x}")
                out[x] = v
                x = frob(x)
                v = frob(v)
        if None in out:
            raise RuntimeError(f"orbit expansion left slot {out.index(None)} unwritten")
        return out  # type: ignore[return-value]

    # ----- whole-polynomial entry points --------------------------------

    def faft(self, f: int, m: int) -> FaftResult:
        """Pruned transform of a GF(2)[x] polynomial (bit i = coeff of x^i)
        of degree below 2^m."""
        m = self._check_m(m)
        n = 1 << m
        if _as_int(f, "a polynomial") >> n > 0:  # to_novel rejects a negative f
            raise ValueError(f"polynomial degree must be below 2^{m}")
        g = to_novel(f, n)
        coeffs = [(g >> i) & 1 for i in range(n)]
        values = self.fafft_leaves(m, coeffs)
        return FaftResult(m, self.cross_section(m), values)

    def ifaft(self, values: list[int], m: int) -> int:
        """Inverse of faft; requires values consistent with a GF(2) preimage."""
        coeffs = self.ifafft_leaves(m, values)
        if any(c > 1 for c in coeffs):
            raise ValueError("leaf values do not come from a GF(2) polynomial")
        return from_novel(sum(c << i for i, c in enumerate(coeffs)), 1 << m)

    def _check_m(self, m: int) -> int:
        """m as a Python int; TypeError unless an integer, ValueError
        unless 0 <= m <= transform._MAX_M and 2^m points fit in the field."""
        return _check_m(m, self.field.d)

    def _check_size(self, k: int, seq) -> None:
        self._check_m(k)
        if len(seq) != 1 << k:
            raise ValueError(f"expected 2^{k} = {1 << k} entries, got {len(seq)}")


def to_novel_by_division(f: int, n: int) -> int:
    """Quadratic reference conversion by long division with the full s_k."""
    f, n = _check_packed(f, n)

    def rec(g: int, length: int) -> int:
        if length <= 2:
            return g
        half = length >> 1
        k = half.bit_length() - 1
        bits = subspace_coeffs(k)  # s_k = sum of x^(2^i) over set bits i
        s = sum(1 << (1 << i) for i in range(bits.bit_length()) if bits >> i & 1)
        degs, q, r = 1 << k, 0, g
        while r.bit_length() > degs:
            sh = r.bit_length() - 1 - degs
            q |= 1 << sh
            r ^= s << sh
        return rec(r, half) | (rec(q, half) << half)

    return rec(f, n)
