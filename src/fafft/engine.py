"""Batched depth-by-depth execution of the pruned transform.

transform.schedule(m) lists the segments of the pruned tree depth by depth
and transform.twiddles(m) their twiddles; reference.FaftEngine's recursion
is the tests' oracle.  This module runs that schedule one depth at a time:
every surviving segment at depth j has the same length 2^(m-j), so the
state is a (segments, 2, half) array and each depth is a handful of
whole-array operations.  A plan holds every array's form: shapes, row
gathers, shifts, dtypes and multipliers; the loops reshape only by it.

The forward step writes q0 = p0 + tw * p1 and q1 = q0 + p1 straight into a
fresh (segments, 2, half) buffer.  Read row by row, that buffer is the next
depth's state in depth-first order whenever every segment branches;
otherwise one row gather drops the q1 rows of the truncated segments.  The
inverse scatters the surviving rows back into a zeroed buffer, so a
truncated segment reads q1 = 0, and then both kinds of segment undo the
forward step with its own twiddle,

    p1 = (q0 >> s) + q1,    p0 = q0 + tw * p1,

with s = 0 on a branching segment and s = l on a truncated one.  There
tw = c + v_l with c in GF(2^l) (see transform.py), so the top half of
tw * p1 is v_l * p1 = p1 << l, which is the top half of q0: the two cancel.

Every multiplication in the transform is a twiddle product: each segment's
row times one constant, fixed before any data arrives.  So the plan turns
each depth's tw into one constant multiplier (_ConstMul), which forward and
inverse share.  Its form follows from two widths alone: the value width
binru(max l), and the product width, which also holds the constants.
Single-bit values take an integer multiply and 2-bit values two bit images
of the constant (a constant multiply is GF(2)-linear), so neither builds an
index array.
Products of up to 8 bits take one gather in the GF(2^8) table at a planned
row offset, products of up to 16 bits the GF(2^16) logs with log t planned,
and 32-bit products split the constant into 16-bit halves with four planned
logs.  Only pointwise multiplies two variable arrays.

Memory: at any moment a transform holds one depth's state, the buffer of
the next and one temporary, the twiddle product of half a state.  The loops
drop each state, and each buffer before its row gather, before the next
depth allocates; they drop their input after the first depth, so a caller
that keeps no reference to it (mul_fafft) frees it there.  The byte form's
offsets are a uint16 column (t << 8 < 2^16), but np.take copies an index
that is not intp to a full intp array, eight bytes a value, so that form
gathers in blocks of at most _BLOCK values: its index never grows with the
state it indexes.

Everything here assumes the GF(2)-input setting: coefficient vectors are
uint8 lanes of 0/1, leaf values lanes in the widest leaf's dtype, and in
between each depth keeps its state in the narrowest unsigned dtype that
holds its values, so the wide top depths move one byte per lane.  A plan
built once per m is reused across calls.  Leading axes of the arrays passed
in are batch axes, so both operands of a product share one forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import _BYTE_NP, _EXP16, _LOG16, _as_int, _mul_vec, binru
from .transform import _check_m, schedule, twiddles

__all__ = ["LayeredEngine"]

_U = np.uint64
# Values per byte-form gather: np.take's intp copy of its index is 128 KiB, and
# products up to 2^15 bits take each byte depth in one gather.
_BLOCK = 1 << 14


@dataclass
class _Layer:
    shape: tuple[int, int, int]  # (segments, 2, half) of the state at this depth
    rows: np.ndarray | None  # surviving rows of the 2 * segments children; None: all
    dtype: np.dtype  # holds the values at this depth
    child_dtype: np.dtype  # holds the values one depth down
    tw: _ConstMul  # times the twiddle s_{k-1}(alpha) of each segment
    shift: np.ndarray  # uint8 (count, 1): l on truncated rows, 0 elsewhere


@dataclass
class _Plan:
    m: int
    layers: list[_Layer]
    leaf_max: np.ndarray  # uint64: largest value a leaf can hold, 2^width - 1
    leaf_width: int  # widest leaf


def _dtype(width: int) -> np.dtype:
    """Narrowest unsigned dtype for values of width bits (a power of two)."""
    return np.dtype(f"uint{max(8, width)}")


def _narrow(t: np.ndarray) -> np.ndarray:
    """Per-row constants as a (count, 1) column of the narrowest dtype."""
    return t.astype(np.min_scalar_type(int(t.max())))[:, None]


def _logs(*ts: np.ndarray) -> tuple[np.ndarray, ...]:
    """GF(2^16) discrete logs of per-row constants, as (count, 1) columns."""
    return tuple(_LOG16.take(t)[:, None] for t in ts)


class _ConstMul:
    """Products of per-row constants t with width-bit values, planned once.

    The form follows from the value width and the product width alone:

    - "int": single-bit values, one integer multiply;
    - "bits": 2-bit values as two bit images, (x & 1) t ^ (x >> 1) (t v_1),
      since a constant multiply is GF(2)-linear;
    - "byte": products of at most 8 bits, one gather in the GF(2^8) table
      at the planned row offset t << 8;
    - "log": products of at most 16 bits, log t planned, one gather each
      way through the GF(2^16) logs;
    - "halves16"/"halves32": 32-bit products of 16-/32-bit values in 16-bit
      halves t = c0 + c1 u (u = v_16, u^2 = u + zeta, zeta = v_15): the low
      half is c0 x0 + (zeta c1) x1 and the high half (c0 + c1) x1 + c1 x0.
    """

    def __init__(self, t: np.ndarray, width: int):
        pw = binru(max(int(t.max()).bit_length(), width))
        if width == 1:
            self.form, self.consts = "int", (_narrow(t),)
        elif width == 2:
            self.form, self.consts = "bits", (_narrow(t), _narrow(_mul_vec(t, _U(2), pw)))
        elif pw <= 8:
            self.form, self.consts = "byte", ((t << _U(8)).astype(np.uint16)[:, None],)
        elif pw <= 16:
            self.form, self.consts = "log", _logs(t)
        else:
            c0, c1 = t & _U(0xFFFF), t >> _U(16)
            self.form = "halves16" if width <= 16 else "halves32"
            self.consts = _logs(c0, _mul_vec(_U(1 << 15), c1, 16), c0 ^ c1, c1)
        self._apply = getattr(_ConstMul, "_" + self.form)  # unbound: no reference cycle

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._apply(self, x)

    def _int(self, x):
        return x * self.consts[0]

    def _bits(self, x):
        t0, t1 = self.consts
        return ((x & 1) * t0) ^ ((x >> 1) * t1)

    def _byte(self, x):
        t = self.consts[0]
        if x.size <= _BLOCK:
            return _BYTE_NP.take(x + t)
        # blocks of whole rows (axis -2), or of lanes (axis -1) while one row
        # across the batch axes exceeds a block
        n, h = math.prod(x.shape[:-2]), x.shape[-1]
        rows, lanes = max(1, _BLOCK // (n * h)), max(1, _BLOCK // n)
        out = np.empty(x.shape, _BYTE_NP.dtype)
        for r in range(0, x.shape[-2], rows):
            for c in range(0, h, lanes):
                blk = (..., slice(r, r + rows), slice(c, c + lanes))
                out[blk] = _BYTE_NP.take(x[blk] + t[r : r + rows])
        return out

    def _log(self, x):
        return _EXP16.take(_LOG16.take(x) + self.consts[0])

    def _halves16(self, x):
        l0, _, _, l3 = self.consts
        a = _LOG16.take(x)
        return _EXP16.take(a + l0) | (_EXP16.take(a + l3).astype(np.uint32) << 16)

    def _halves32(self, x):
        l0, l1, l2, l3 = self.consts
        a, b = _LOG16.take(x & 0xFFFF), _LOG16.take(x >> 16)
        lo = _EXP16.take(a + l0) ^ _EXP16.take(b + l1)
        hi = _EXP16.take(b + l2) ^ _EXP16.take(a + l3)
        return lo | (hi.astype(np.uint32) << 16)


class LayeredEngine:
    """Array-batched pruned transform of schedule(m).

    The twiddles are the same in every field of the nested tower, so one
    engine serves every size up to transform._MAX_M, where plan raises
    ValueError.  The constructor ignores its optional argument, so callers
    written as LayeredEngine(FaftEngine(6)) keep working.
    """

    def __init__(self, eng=None):
        self._plans: dict[int, _Plan] = {}

    def plan(self, m: int) -> _Plan:
        m = _check_m(m)
        if m not in self._plans:
            self._plans[m] = self._build_plan(m)
        return self._plans[m]

    def _build_plan(self, m: int) -> _Plan:
        sched = schedule(m)
        layers: list[_Layer] = []
        for depth, (seg, tw) in enumerate(zip(sched, twiddles(m))):
            trunc = seg.trunc
            width = int(seg.width.max())
            rows = None
            if trunc.any():  # truncated segment i drops its q1, child row 2i + 1
                rows = np.flatnonzero(np.column_stack((np.ones_like(trunc), ~trunc)))
            layers.append(
                _Layer(
                    shape=(len(trunc), 2, 1 << (m - depth - 1)),
                    rows=rows,
                    dtype=_dtype(width),
                    child_dtype=_dtype(int(sched[depth + 1].width.max())),
                    tw=_ConstMul(tw, width),
                    shift=np.where(trunc, seg.l, 0).astype(np.uint8)[:, None],
                )
            )
        widths = sched[-1].width
        leaf_max = ~_U(0) >> (64 - widths).astype(_U)
        return _Plan(m, layers, leaf_max, int(widths.max()))

    # ----- transforms on novel-basis GF(2) coefficient vectors ----------

    def forward(self, coeffs: np.ndarray, m: int) -> np.ndarray:
        """Leaf values (depth-first, in the leaves' dtype) from 2^m GF(2) coeffs.

        Leading axes of coeffs are batch axes; the last holds the 2^m
        coefficients of one vector.
        """
        p = self.plan(m)
        data = _coeff_lanes(coeffs)
        if data.shape[-1:] != (1 << m,):
            raise ValueError(f"expected 2^{m} coefficients for m={m}, got shape {data.shape}")
        return _forward(p, data)

    def inverse(self, leaves: np.ndarray, m: int) -> np.ndarray:
        """Novel-basis GF(2) coefficients (uint8) back from depth-first leaf
        values.

        Leading axes of leaves are batch axes, as in forward.  Each leaf
        value must lie in its orbit subfield (below 2^width).
        """
        p = self.plan(m)
        return _inverse(p, _leaves(leaves, p))

    def pointwise(self, a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
        """Lane-by-lane field product of two leaf vectors, in the leaves'
        dtype.  Each leaf value must lie in its orbit subfield, as in inverse."""
        p = self.plan(m)
        c = _mul_vec(_leaves(a, p), _leaves(b, p), p.leaf_width)
        return c.astype(_dtype(p.leaf_width), copy=False)

    # ----- packing helpers ----------------------------------------------

    @staticmethod
    def bits_to_lanes(f: int, n: int) -> np.ndarray:
        """Unpack an n-bit GF(2) coefficient int into uint8 lanes; ValueError
        unless 0 <= f < 2^n."""
        f, n = _as_int(f, "a coefficient int"), _as_int(n, "a lane count")
        if n < 0 or f < 0 or f >> n:
            raise ValueError(f"need n >= 0 and a coefficient int in 0..2^n - 1, n = {n}")
        raw = np.frombuffer(f.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=n, bitorder="little")

    @staticmethod
    def lanes_to_bits(lanes: np.ndarray) -> int:
        """Pack a 1-D array of 0/1 lanes back into a coefficient int."""
        lanes = _coeff_lanes(lanes)
        if lanes.ndim != 1:
            raise ValueError(f"expected 1-D lanes, got shape {lanes.shape}")
        return int.from_bytes(np.packbits(lanes, bitorder="little").tobytes(), "little")


def _forward(p: _Plan, data: np.ndarray) -> np.ndarray:
    """LayeredEngine.forward on checked lanes; drops data after depth 0."""
    batch = data.shape[:-1]
    n = math.prod(batch)
    for layer in p.layers:
        count, _, h = layer.shape
        src = data.reshape((n,) + layer.shape)
        data = np.empty(src.shape, dtype=layer.child_dtype)
        np.bitwise_xor(src[:, :, 0], layer.tw(src[:, :, 1]), out=data[:, :, 0])
        np.bitwise_xor(data[:, :, 0], src[:, :, 1], out=data[:, :, 1])
        del src  # the last reference to the old state
        data = data.reshape(n, 2 * count, h)
        if layer.rows is not None:
            data = np.take(data, layer.rows, axis=1)  # several times quicker than data[:, rows]
    return data.reshape(batch + (len(p.leaf_max),))


def _inverse(p: _Plan, data: np.ndarray) -> np.ndarray:
    """LayeredEngine.inverse on checked leaves; drops data at the first depth."""
    batch = data.shape[:-1]
    n = math.prod(batch)
    data = data.astype(_dtype(p.leaf_width), copy=False)
    for layer in reversed(p.layers):
        count, _, h = layer.shape
        shape = (n,) + layer.shape
        if layer.rows is None:  # the root: every segment branches
            q = data.reshape(shape)
        else:
            q = np.zeros(shape, dtype=layer.child_dtype)
            q.reshape(n, 2 * count, h)[:, layer.rows] = data.reshape(n, len(layer.rows), h)
        del data  # q holds all of the child state that is still read
        data = np.empty(shape, dtype=layer.dtype)
        p1 = data[:, :, 1]
        np.right_shift(q[:, :, 0], layer.shift, out=p1)
        p1 ^= q[:, :, 1]
        # on truncated rows the top halves of q0 and tw * p1 cancel
        np.bitwise_xor(q[:, :, 0], layer.tw(p1), out=data[:, :, 0])
        del q  # before the next depth allocates its own
    return data.reshape(batch + (1 << p.m,))


def _leaves(x, p: _Plan) -> np.ndarray:
    """x as an array of leaf vectors of plan p; ValueError unless it has
    one unsigned value per leaf, each in its orbit subfield."""
    a = np.asarray(x)
    n = len(p.leaf_max)
    if a.shape[-1:] != (n,):
        raise ValueError(f"expected {n} leaves for m={p.m}, got shape {a.shape}")
    if a.dtype.kind != "u":
        raise ValueError(f"leaf values must be unsigned integers, got dtype {a.dtype}")
    if np.any(a > p.leaf_max):
        raise ValueError("leaf values outside their orbit subfields")
    return a


def _coeff_lanes(x) -> np.ndarray:
    """x as uint8 GF(2) coefficient lanes; ValueError unless every entry is 0 or 1."""
    a = np.asarray(x)
    if a.dtype.kind not in "biu" or (a.size and (a.max() > 1 or a.min() < 0)):
        raise ValueError("lanes hold values outside GF(2)")
    return a.astype(np.uint8, copy=False)
