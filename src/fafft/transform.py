"""Additive FFT over the Cantor basis, plain and Frobenius-pruned.

The plain transform afft takes 2^k coefficients in the subspace-product
basis and returns evaluations at alpha + W_k (index order: slot i holds the
value at alpha + omega_i).  Each split peels the top coefficient half with
the twiddle tw = s_{k-1}(alpha); the sibling evaluation set differs by
v_{k-1}, where s_{k-1} takes the value 1, so the second butterfly output is
a single XOR.

For input polynomials with GF(2) coefficients the evaluations are Frobenius
conjugates across each squaring orbit, so most subtrees compute values that
are squares of values in an earlier sibling.  The pruned transform keeps one
representative per orbit.  State l tracks how far the current subtree sits
below its most recent surviving branch: the spine (l = 0) branches normally,
a subtree at power-of-two l descends only into its first half, and all other
l branch normally with l + 1.  Values at state l live in the subfield of
size 2^binru(l), which is what the weighted operation counts charge per
butterfly.  Leaves come out in depth-first order; their evaluation points
form the cross-section of W_m, one point per Frobenius orbit.

The truncated step stays invertible because its twiddle satisfies
tw = c + v_l with c in GF(2^l): the skipped half of the state is the shifted
top of the surviving half, so the inverse recovers P1 = q >> l and
P0 = (q mod 2^l) + c * P1 coefficient by coefficient.

schedule(m) writes the pruned tree out once, depth by depth, twiddles
included, and every consumer reads it: count_ops, n_cross_section,
FaftEngine.cross_section, the numpy engine and the circuit generator.  The
Cantor tower is nested (s_j(v_i) for i < 2^K are the same ints at every
height K), so one GF(2^64) table serves every field and K only bounds m.
FaftEngine's recursion keeps its own twiddles and state rule as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .basis import from_novel, to_novel
from .field import CantorField, binru
from .subspace import TwiddleTable

__all__ = [
    "CrossSectionPoint",
    "Depth",
    "OpCounters",
    "FaftResult",
    "FaftEngine",
    "count_ops",
    "n_cross_section",
    "schedule",
]


@dataclass(frozen=True)
class CrossSectionPoint:
    """One surviving leaf: evaluation point, depth class, and orbit size."""

    index: int  # the point sigma, as a coordinate int
    level: int  # recursion state l at the leaf; equals sigma.bit_length()
    orbit: int  # Frobenius orbit size binru(level)


@dataclass
class OpCounters:
    """Butterfly operation tallies for one transform run.

    mults/adds count field operations as performed.  The weighted variants
    charge each operation the subfield word width binru(l) of its state, so
    they track bit-level cost across the pruned tree.
    """

    mults: int = 0
    adds: int = 0
    weighted_mults: int = 0
    weighted_adds: int = 0

    def add(self, other: "OpCounters") -> None:
        self.mults += other.mults
        self.adds += other.adds
        self.weighted_mults += other.weighted_mults
        self.weighted_adds += other.weighted_adds


@dataclass
class FaftResult:
    """Pruned-transform output: one value per cross-section point."""

    m: int
    points: tuple[CrossSectionPoint, ...]
    values: list[int]
    counters: OpCounters | None = None


def _truncated(l: int) -> bool:
    """Whether state l keeps only its first half: l is a power of two."""
    return l > 0 and (l & (l - 1)) == 0


class Depth(NamedTuple):
    """The segments at one depth of the pruned tree, in depth-first order."""

    alpha: np.ndarray  # uint64: the segment evaluates over alpha + W_k
    l: np.ndarray  # int64: recursion state
    width: np.ndarray  # int64: binru(l), the bits of a value at that state
    trunc: np.ndarray  # bool: the segment keeps only its first half
    tw: np.ndarray  # uint64: twiddle s_{k-1}(alpha); 0 at the leaves
    c: np.ndarray  # uint64: tw with v_l cleared on truncated segments

    def segments(self) -> list[tuple[int, int, int, bool, int, int]]:
        """(alpha, l, width, trunc, tw, c) per segment, as Python scalars."""
        return list(zip(*(c.tolist() for c in self)))


@lru_cache(maxsize=None)
def _twiddle_rows() -> np.ndarray:
    """s_j(v_i) over GF(2^64), the table of every tower height at once."""
    return TwiddleTable(CantorField(6)).rows_np()


@lru_cache(maxsize=None)
def schedule(m: int) -> tuple[Depth, ...]:
    """The pruned tree at size 2^m: depth j holds the segments of length
    2^(m-j) with their twiddles, and the last of the m + 1 depths holds the
    leaves, whose points form the cross-section.

    The arrays are shared by every caller and read-only.
    """
    if not 0 <= m <= 64:
        raise ValueError(f"transform size exponent {m} outside 0..64")
    rows = _twiddle_rows()
    # per-state tables, indexed by l <= depth
    widths = np.array([binru(x) for x in range(m + 1)])
    truncs = np.array([_truncated(x) for x in range(m + 1)])

    def depth(alpha, l, k):
        trunc = truncs[l]
        tw = np.zeros(len(alpha), dtype=np.uint64)
        c = tw
        if k:
            for b in range(k, m):  # alphas have no coordinates below k
                tw ^= rows[k - 1, b] * ((alpha >> np.uint64(b)) & np.uint64(1))
            lu = l.astype(np.uint64)
            c = tw ^ (trunc.astype(np.uint64) << lu)
            if np.any(trunc & (c >> lu != 0)):
                raise RuntimeError(f"a truncated twiddle at m={m} is not v_l + (lower bits)")
        d = Depth(alpha, l, widths[l], trunc, tw, c)
        for a in d:
            a.setflags(write=False)
        return d

    depths = [depth(np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.int64), m)]
    for k in range(m, 0, -1):
        d = depths[-1]
        # children: 0 and 1 below the spine, l + 1 elsewhere; the second
        # child (coset alpha + v_{k-1}) survives unless the segment truncates
        l = np.repeat(d.l + 1, 2)
        l[0::2] *= d.l > 0
        alpha = np.repeat(d.alpha, 2)
        alpha[1::2] ^= np.uint64(1 << (k - 1))
        if d.trunc.any():
            keep = np.ones(len(l), dtype=bool)
            keep[1::2] = ~d.trunc
            alpha, l = alpha[keep], l[keep]
        depths.append(depth(alpha, l, k - 1))
    return tuple(depths)


def count_ops(m: int) -> OpCounters:
    """Operation counts of the pruned transform at size 2^m, by structure.

    A segment of length 2h costs what _charge charges the recursion: h
    multiplies and h adds per output half (one half when it truncates),
    each weighted by its width.
    """
    c = OpCounters()
    for j, d in enumerate(schedule(m)[:-1]):
        h = 1 << (m - j - 1)
        halves = 2 - d.trunc.astype(np.int64)
        w = d.width
        c.add(OpCounters(h * len(w), h * int(halves.sum()), h * int(w.sum()), h * int(halves @ w)))
    return c


def n_cross_section(m: int) -> int:
    """Number of surviving leaves (cross-section points) at size 2^m."""
    return len(schedule(m)[-1].l)


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
        self._cs: dict[int, tuple[CrossSectionPoint, ...]] = {}

    @cached_property
    def twiddles(self) -> TwiddleTable:
        """The oracle's own twiddle table, built on first use."""
        return TwiddleTable(self.field)

    # ----- plain additive FFT -------------------------------------------

    def afft(self, k: int, coeffs: list[int], alpha: int = 0) -> list[int]:
        """Evaluate the subspace-product polynomial at alpha + W_k."""
        self._check_size(k, coeffs)
        self.field._check(alpha)
        return self._afft(k, list(coeffs), alpha)

    def iafft(self, k: int, values: list[int], alpha: int = 0) -> list[int]:
        """Inverse of afft."""
        self._check_size(k, values)
        self.field._check(alpha)
        return self._iafft(k, list(values), alpha)

    def _afft(self, k, p, alpha):
        if k == 0:
            return p
        h = 1 << (k - 1)
        tw = self.twiddles.twiddle(k - 1, alpha)
        mul = self.field.mul
        q0 = [p[j] ^ mul(tw, p[h + j]) for j in range(h)]
        q1 = [q0[j] ^ p[h + j] for j in range(h)]
        return self._afft(k - 1, q0, alpha) + self._afft(k - 1, q1, alpha ^ h)

    def _iafft(self, k, v, alpha):
        if k == 0:
            return v
        h = 1 << (k - 1)
        tw = self.twiddles.twiddle(k - 1, alpha)
        mul = self.field.mul
        q0 = self._iafft(k - 1, v[:h], alpha)
        q1 = self._iafft(k - 1, v[h:], alpha ^ h)
        p1 = [q0[j] ^ q1[j] for j in range(h)]
        p0 = [q0[j] ^ mul(tw, p1[j]) for j in range(h)]
        return p0 + p1

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

    # Keeps its own copy of the state rule, apart from schedule(), as the tests' oracle.
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
            c = tw ^ (1 << l)
            lmask = (1 << l) - 1
            p0 = []
            p1 = []
            for qj in q:
                r1 = qj >> l
                r0 = qj & lmask
                p0.append(r0 ^ mul(c, r1))
                p1.append(r1)
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
        if m not in self._cs:
            self._check_m(m)
            leaves = schedule(m)[-1]
            self._cs[m] = tuple(CrossSectionPoint(a, l, w) for a, l, w, *_ in leaves.segments())
        return self._cs[m]

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
            x = pt.index
            v = val
            for _ in range(pt.orbit):
                if out[x] is not None:
                    raise RuntimeError(f"orbit collision at index {x}")
                out[x] = v
                x = frob(x)
                v = frob(v)
        missing = [i for i, v in enumerate(out) if v is None]
        if missing:
            raise RuntimeError(f"orbit expansion left slots unwritten: {missing[:4]}")
        return out  # type: ignore[return-value]

    # ----- whole-polynomial entry points --------------------------------

    def faft(self, f: int, m: int, counters: OpCounters | None = None) -> FaftResult:
        """Pruned transform of a GF(2)[x] polynomial (bit i = coeff of x^i)
        of degree below 2^m."""
        self._check_m(m)
        n = 1 << m
        g = to_novel(f, n)
        coeffs = [(g >> i) & 1 for i in range(n)]
        values = self.fafft_leaves(m, coeffs, counters)
        return FaftResult(m, self.cross_section(m), values, counters)

    def ifaft(self, values: list[int], m: int, counters: OpCounters | None = None) -> int:
        """Inverse of faft; requires values consistent with a GF(2) preimage."""
        coeffs = self.ifafft_leaves(m, values, counters)
        g = 0
        for i, c in enumerate(coeffs):
            if c > 1:
                raise ValueError("leaf values do not come from a GF(2) polynomial")
            g |= c << i
        return from_novel(g, 1 << m)

    def _check_m(self, m: int) -> None:
        """ValueError unless 2^m points fit in the field."""
        if not 0 <= m <= self.field.d:
            raise ValueError(f"transform size exponent {m} outside 0..{self.field.d}")

    def _check_size(self, k: int, seq) -> None:
        self._check_m(k)
        if len(seq) != 1 << k:
            raise ValueError(f"expected 2^{k} = {1 << k} entries, got {len(seq)}")
