"""The Frobenius-pruned additive FFT over the Cantor basis, as a schedule.

The additive FFT takes 2^k coefficients in the subspace-product basis and
returns evaluations at alpha + W_k.  Each split peels the top coefficient
half with the twiddle tw = s_{k-1}(alpha); the sibling evaluation set
differs by v_{k-1}, where s_{k-1} takes the value 1, so the second butterfly
output is a single XOR.

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
P0 = q + tw * P1 coefficient by coefficient, where the top half of
tw * P1 = c * P1 + (P1 << l) cancels that of q.

schedule(m) writes the pruned tree out once, depth by depth, and every
consumer reads it: count_ops, n_cross_section, cross_section, the numpy
engine and the circuit generator.  twiddles(m) adds tw per depth for the
two consumers that multiply, so counting builds no field table.  The
Cantor tower is nested (s_j(v_i) for i < 2^K are the same ints at every
height K), so one GF(2^32) table serves every field and every m <= _MAX_M.
The recursive transforms in reference.py keep their own twiddles and state
rule as the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import NamedTuple

import numpy as np

from .field import CantorField, _as_int, binru
from .subspace import TwiddleTable

__all__ = [
    "CrossSectionPoint",
    "Depth",
    "OpCounters",
    "count_ops",
    "cross_section",
    "n_cross_section",
    "schedule",
    "twiddles",
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


def _truncated(l: int) -> bool:
    """Whether state l keeps only its first half: l is a power of two."""
    return l > 0 and (l & (l - 1)) == 0


class Depth(NamedTuple):
    """The segments at one depth of the pruned tree, in depth-first order."""

    alpha: np.ndarray  # uint64: the segment evaluates over alpha + W_k
    l: np.ndarray  # int64: recursion state
    width: np.ndarray  # int64: binru(l), the bits of a value at that state
    trunc: np.ndarray  # bool: the segment keeps only its first half

    def segments(self) -> list[tuple[int, int, int, bool]]:
        """(alpha, l, width, trunc) per segment, as Python scalars."""
        return list(zip(*(c.tolist() for c in self)))


# The largest transform size: up to 2^32 points every twiddle and leaf value
# lies in GF(2^32), and at m = 33 the schedule outgrows memory.
_MAX_M = 32


def _check_m(m: int, d: int = _MAX_M) -> int:
    """m as a Python int; TypeError unless an integer, ValueError unless
    0 <= m <= _MAX_M and 2^m points fit in GF(2^d)."""
    m = _as_int(m, "transform size exponent")
    if not 0 <= m <= d or m > _MAX_M:
        raise ValueError(f"transform size exponent {m} outside 0..{min(d, _MAX_M)}")
    return m


def _per_size(f):
    """f cached per size exponent, with m checked before the cache, where a
    bool would hit the entry of the int it equals."""
    cached = lru_cache(maxsize=None)(f)

    @wraps(f)
    def call(m: int):
        return cached(_check_m(m))

    call.cache_clear = cached.cache_clear
    return call


@lru_cache(maxsize=None)
def _twiddle_rows() -> np.ndarray:
    """s_j(v_i) over GF(2^32), the corner of every larger field's table."""
    return TwiddleTable(CantorField(5)).rows_np()


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@_per_size
def schedule(m: int) -> tuple[Depth, ...]:
    """The pruned tree at size 2^m: depth j holds the segments of length
    2^(m-j), and the last of the m + 1 depths holds the leaves, whose points
    form the cross-section.

    The arrays are shared by every caller and read-only.
    """
    # per-state tables, indexed by l <= depth
    widths = np.array([binru(x) for x in range(m + 1)])
    truncs = np.array([_truncated(x) for x in range(m + 1)])
    alpha, l = np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.int64)
    depths = [Depth(*_frozen(alpha, l, widths[l], truncs[l]))]
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
        depths.append(Depth(*_frozen(alpha, l, widths[l], truncs[l])))
    return tuple(depths)


@_per_size
def twiddles(m: int) -> tuple[np.ndarray, ...]:
    """Uint64 twiddles tw = s_{k-1}(alpha) per segment for each of the m
    non-leaf depths of schedule(m), from one GF(2^32) table; read-only.

    RuntimeError if a truncated twiddle is not v_l + (lower bits).
    """
    rows = _twiddle_rows()
    out = []
    for j, d in enumerate(schedule(m)[:-1]):
        k = m - j
        tw = np.zeros(len(d.alpha), dtype=np.uint64)
        for b in range(k, m):  # alphas have no coordinates below k
            tw ^= rows[k - 1, b] * ((d.alpha >> np.uint64(b)) & np.uint64(1))
        if np.any(d.trunc & (tw >> d.l.astype(np.uint64) != 1)):
            raise RuntimeError(f"a truncated twiddle at m={m} is not v_l + (lower bits)")
        out.append(tw)
    return _frozen(*out)


def count_ops(m: int) -> OpCounters:
    """Operation counts of the pruned transform at size 2^m, by structure.

    A segment of length 2h costs h multiplies and h adds per output half
    (one half when it truncates), each weighted by its width.
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


@_per_size
def cross_section(m: int) -> tuple[CrossSectionPoint, ...]:
    """Evaluation points of the surviving leaves at size 2^m, in leaf order."""
    return tuple(CrossSectionPoint(a, l, w) for a, l, w, _ in schedule(m)[-1].segments())
