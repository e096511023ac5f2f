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
inverse share.  Its form follows from the product width, which also holds
the constants: products of up to 8 bits take one gather in the GF(2^8)
table at a planned row offset, products of up to 16 bits the GF(2^16) logs
with log t planned, and 32-bit products split the constant into 16-bit
halves with four planned logs.  Only pointwise multiplies two variable
arrays.

The top depths take no per-depth steps on the data.  Through depths 0..d-1
(d = min(m, 5)) position i < L = 2^(m-d) of every segment sees only the 2^d
coefficients at i + kL, k < 2^d, and every position runs them through the
same GF(2)-linear map to its depth-d state: at most 8 segments of at most
8 bits, 2^d bits in all.  So each plan runs its own layers 0..d-1 once on
unit inputs at one position and keeps that map as two Four-Russians tables
(Arlazarov et al. 1970): forward, one 256-row table per index byte of 8
coefficients, whose rows hold the 8 state bytes as a uint64; inverse, one
per state byte, whose rows hold the position's coefficients in index
bytes.  The index bytes come from the packed coefficients by one 8 x 8 bit
transpose per 64-bit word (_Bits), so forward takes and inverse returns
packed bytes, little-endian, and no array of one bit per byte is built.
The inverse checks that the depth-d state lies in its subfields, one AND
per state byte, before the table drops the bits above each width.

Memory: every step runs in blocks of at most _BLOCK values of p1,
because np.take copies an index that is not intp to a full intp array,
eight bytes a value, and a multiplier's temporaries come to several times
its input.  A depth's block is a range of whole segments, or a range of
lanes while one segment across the batch exceeds a block.  The plan knows
where each segment's child rows start (_Layer.off), so the forward writes a
block's surviving child rows straight into the next state and the inverse
reads them straight from it: a block whose segments all branch, or all
truncate, works in place, and one that mixes them builds its own 2 *
segments rows and keeps the surviving ones.  Neither a full twiddle product
nor a buffer of all child rows exists.  The tables gather and check blocks
of positions, and the lane products run in blocks of leaves.  So a
transform holds one depth's state, the next one and the temporaries of one
block; the loops drop each state before the next depth allocates, and
forward drops its input once it has the index bytes, so a caller that
keeps no reference to it (mul_fafft) frees it there.  A depth that fits one
block makes one whole-array step and one row gather, as an unblocked
transform would.  At 2^20 product bits the peak, about 1.2 MiB, is a
32-bit depth of the forward: its state, the next one and the `halves32`
temporaries of one block.

Everything here assumes the GF(2)-input setting: coefficient vectors are
packed bits (LayeredEngine's forward and inverse take and return uint8
lanes of 0/1 and pack them at the boundary), leaf values lanes in the
widest leaf's dtype, and in between each depth keeps its state in the
narrowest unsigned dtype that holds its values.  A plan built once per m is
reused across calls.  Leading axes of the arrays passed in are batch axes,
so both operands of a product share one forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .field import _BYTE_NP, _EXP16, _LOG16, _as_int, _mul_vec, _span, _transpose8, binru
from .transform import _check_m, schedule, twiddles

__all__ = ["LayeredEngine"]

_U = np.uint64
# Values per block of a step: np.take's intp copy of an index is then at most
# 128 KiB, and products up to 2^16 bits take every depth in one block.
_BLOCK = 1 << 14
_TOP = 5  # depths run as tables: 2^5 coefficients to at most 8 state bytes


@dataclass
class _Layer:
    shape: tuple[int, int, int]  # (segments, 2, half) of the state at this depth
    rows: np.ndarray | None  # surviving rows of the 2 * segments children; None: all
    keep: np.ndarray  # bool (2 * segments,): the surviving child rows
    off: np.ndarray  # (segments + 1,): surviving child rows before each segment
    dtype: np.dtype  # holds the values at this depth
    child_dtype: np.dtype  # holds the values one depth down
    tw: _ConstMul  # times the twiddle s_{k-1}(alpha) of each segment
    shift: np.ndarray  # uint8 (count, 1): l on truncated rows, 0 elsewhere
    blocks: dict = field(default_factory=dict)  # _blocks per (n, h), a few at a time


class _Bits:
    """The bit transpose between 2^m packed coefficients and index bytes.

    Coefficient kL + i is row k at position i (L = 2^(m-d), rows k < 2^d).
    From L = 8 up, one 64-bit word holds byte s of 8 rows, an 8 x 8 bit
    block whose transpose is 8 index bytes, one per position 8s + t, each
    with 8 of the position's rows.  Below that the words are 8 consecutive
    bytes, zero-padded to a whole word: a byte holds 8 / L rows, and an
    index byte still holds rows of one position, only other ones.  Either
    way index byte q is position q mod L of chunk q // L.
    """

    def __init__(self, m: int):
        self.L = 1 << (m - min(m, _TOP))
        self.nbytes = -(-(1 << m) // 8)  # packed bytes
        self.words = -(-self.nbytes // 8)  # 64-bit words once padded
        self.group = max(1, self.L // 8)  # bytes of one row in a word
        self.chunks = 8 * self.words // self.L  # index bytes per position: 4, or 8 below m = 6

    def index(self, x: np.ndarray) -> np.ndarray:
        """The (n, chunks, L) index bytes of packed coefficients x, (n, nbytes)."""
        n, g = len(x), self.group
        if self.nbytes == 8 * self.words:  # rows of a word together, in a copy
            w = x.reshape(n, self.words // g, 8, g).transpose(0, 1, 3, 2).copy()
        else:  # one word, consecutive bytes
            w = np.zeros((n, 8), dtype=np.uint8)
            w[:, : self.nbytes] = x
        _transpose8(w.reshape(n, 8 * self.words).view(_U))
        return w.reshape(n, self.chunks, self.L)

    def packed(self, y: np.ndarray) -> np.ndarray:
        """Packed coefficients (n, nbytes) from the index bytes y, (n, L,
        chunks): the gathered words of inverse, as bytes."""
        n, g = len(y), self.group
        w = y.transpose(0, 2, 1).copy()
        _transpose8(w.reshape(n, 8 * self.words).view(_U))
        if self.nbytes < 8 * self.words:
            return w.reshape(n, 8)[:, : self.nbytes]
        return w.reshape(n, self.words // g, g, 8).transpose(0, 1, 3, 2).reshape(n, self.nbytes)


@dataclass
class _Plan:
    m: int
    layers: list[_Layer]  # every depth; the data runs those from top on
    leaf_max: np.ndarray  # uint64: largest value a leaf can hold, 2^width - 1
    leaf_width: int  # widest leaf
    top: int  # d = min(m, _TOP): the depths the tables run
    bits: _Bits
    fwd: np.ndarray  # uint64 (chunks, 256): depth-d state bytes per index byte
    inv: np.ndarray  # (segments, 256), chunks bytes: index bytes per state byte
    high: np.ndarray  # uint8 (segments, 1): the bits above each depth-d width


def _dtype(width: int) -> np.dtype:
    """Narrowest unsigned dtype for values of width bits (a power of two)."""
    return np.dtype(f"uint{max(8, width)}")


def _logs(*ts: np.ndarray) -> tuple[np.ndarray, ...]:
    """GF(2^16) discrete logs of per-row constants, as (count, 1) columns."""
    return tuple(_LOG16.take(t)[:, None] for t in ts)


class _ConstMul:
    """Products of per-row constants t with width-bit values, planned once.

    The form follows from the product width alone:

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
        if pw <= 8:
            self.form, self.consts = "byte", ((t << _U(8)).astype(np.uint16)[:, None],)
        elif pw <= 16:
            self.form, self.consts = "log", _logs(t)
        else:
            c0, c1 = t & _U(0xFFFF), t >> _U(16)
            l0, l1, l2, l3 = _logs(c0, _mul_vec(_U(1 << 15), c1, 16), c0 ^ c1, c1)
            self.form = "halves16" if width <= 16 else "halves32"
            self.consts = (l0, l3) if width <= 16 else (l0, l1, l2, l3)  # x1 = 0 below 16 bits
        self._apply = getattr(_ConstMul, "_" + self.form)  # a plain function: no reference cycle

    def __call__(self, x: np.ndarray, consts: tuple | None = None) -> np.ndarray:
        """x times the constants of its rows (axis -2): all of them, or
        consts, their slices for a range of rows."""
        return self._apply(x, *(self.consts if consts is None else consts))

    @staticmethod
    def _byte(x, t):
        return _BYTE_NP.take(x + t)

    @staticmethod
    def _log(x, t):
        return _EXP16.take(_LOG16.take(x) + t)

    @staticmethod
    def _halves16(x, l0, l3):
        a = _LOG16.take(x)
        return _EXP16.take(a + l0) | (_EXP16.take(a + l3).astype(np.uint32) << 16)

    @staticmethod
    def _halves32(x, l0, l1, l2, l3):
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
            # truncated segment i drops its q1, child row 2i + 1
            keep = np.column_stack((np.ones_like(trunc), ~trunc)).reshape(-1)
            layers.append(
                _Layer(
                    shape=(len(trunc), 2, 1 << (m - depth - 1)),
                    rows=np.flatnonzero(keep) if trunc.any() else None,
                    keep=keep,
                    off=np.r_[0, np.cumsum(2 - trunc)],
                    dtype=_dtype(width),
                    child_dtype=_dtype(int(sched[depth + 1].width.max())),
                    tw=_ConstMul(tw, width),
                    shift=np.where(trunc, seg.l, 0).astype(np.uint8)[:, None],
                )
            )
        widths = sched[-1].width
        leaf_max = ~_U(0) >> (64 - widths).astype(_U)
        top, bits = min(m, _TOP), _Bits(m)
        fwd, inv, high = _top_tables(layers[:top], sched[top].width, bits, m)
        return _Plan(m, layers, leaf_max, int(widths.max()), top, bits, fwd, inv, high)

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
        return _forward(p, np.packbits(data, axis=-1, bitorder="little"))

    def inverse(self, leaves: np.ndarray, m: int) -> np.ndarray:
        """Novel-basis GF(2) coefficients (uint8) back from depth-first leaf
        values.

        Leading axes of leaves are batch axes, as in forward.  Each leaf
        value must lie in its orbit subfield (below 2^width).
        """
        p = self.plan(m)
        packed = _inverse(p, _leaves(leaves, p).astype(_dtype(p.leaf_width), copy=False))
        return np.unpackbits(packed, axis=-1, count=1 << m, bitorder="little")

    def pointwise(self, a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
        """Lane-by-lane field product of two leaf vectors, in the leaves'
        dtype.  Each leaf value must lie in its orbit subfield, as in inverse."""
        p = self.plan(m)
        return _pointwise(p, *np.broadcast_arrays(_leaves(a, p), _leaves(b, p)))

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


def _forward(p: _Plan, packed: np.ndarray) -> np.ndarray:
    """Leaf values from packed coefficient bytes, (batch..., nbytes), as in
    LayeredEngine.forward; drops packed once it has the index bytes."""
    batch = packed.shape[:-1]
    n = math.prod(batch)
    idx = p.bits.index(packed.reshape(n, p.bits.nbytes))
    del packed
    count = len(p.high)
    data = np.empty((n, count, p.bits.L), dtype=np.uint8)
    for b in _positions(n, p.bits.L):
        # one chunk at a time: np.take copies one (n, block) index row to intp
        words = p.fwd[0].take(idx[:, 0, b])
        for g in range(1, len(p.fwd)):
            words ^= p.fwd[g].take(idx[:, g, b])
        data[:, :, b] = words.view(np.uint8).reshape(words.shape + (8,))[:, :, :count].transpose(0, 2, 1)
    del idx, words
    for layer in p.layers[p.top :]:
        data = _butterfly(layer, data, n, layer.shape[2])
    return data.reshape(batch + (len(p.leaf_max),))


def _inverse(p: _Plan, data: np.ndarray) -> np.ndarray:
    """Packed coefficient bytes, (batch..., nbytes), from checked leaves in
    the leaves' dtype; drops data at the first depth.  RuntimeError if the
    depth-d state leaves its subfields."""
    batch = data.shape[:-1]
    n = math.prod(batch)
    for layer in reversed(p.layers[p.top :]):
        data = _unbutterfly(layer, data, n, layer.shape[2])
    data = data.reshape(n, len(p.high), p.bits.L)
    words = np.empty((n, p.bits.L), dtype=p.inv.dtype)
    for b in _positions(n, p.bits.L):
        state = data[:, :, b]
        if np.bitwise_and(state, p.high).any():
            raise RuntimeError(f"the depth-{p.top} state at m={p.m} left its subfields")
        w = p.inv[0].take(state[:, 0], out=words[:, b], mode="clip")  # index bytes < 256
        for s in range(1, len(p.inv)):
            w ^= p.inv[s].take(state[:, s])
    del data, state
    packed = p.bits.packed(words.view(np.uint8).reshape(n, p.bits.L, p.bits.chunks))
    return packed.reshape(batch + (p.bits.nbytes,))


def _pointwise(p: _Plan, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lane-by-lane field product of checked leaf vectors a and b of one
    shape, in the leaves' dtype, in blocks of at most _BLOCK values."""
    if a.size <= _BLOCK:
        return _mul_vec(a, b, p.leaf_width).astype(_dtype(p.leaf_width), copy=False)
    out = np.empty(a.shape, dtype=_dtype(p.leaf_width))
    for c in _positions(a.size // a.shape[-1], a.shape[-1]):
        out[..., c] = _mul_vec(a[..., c], b[..., c], p.leaf_width)
    return out


def _positions(n: int, length: int) -> list[slice]:
    """Blocks of a last axis of length across n rows, at most _BLOCK values
    each (one position a block when a row alone exceeds one)."""
    step = max(1, _BLOCK // max(n, 1))
    return [slice(c, c + step) for c in range(0, length, step)]


def _butterfly(layer: _Layer, data: np.ndarray, n: int, h: int) -> np.ndarray:
    """One forward depth on n states of layer.shape at half length h: q0 and
    q1 of every branching segment and q0 of every truncated one, as the n
    (rows, h) child states."""
    segs = layer.shape[0]
    src = data.reshape(n, segs, 2, h)
    if n * segs * h <= _BLOCK:  # one block: whole arrays, then one row gather
        out = _forward_step(layer.tw, layer.tw.consts, src, np.empty(src.shape, dtype=layer.child_dtype))
        out = out.reshape(n, 2 * segs, h)
        return out if layer.rows is None else np.take(out, layer.rows, axis=1)
    out = np.empty((n, layer.off[-1], h), dtype=layer.child_dtype)
    for s, c, lo, hi, keep, consts, _ in _blocks(layer, n, h):
        block = src[:, s, :, c]
        if keep is None:  # every segment branches: q0, q1 in place
            _forward_step(layer.tw, consts, block, out[:, lo:hi].reshape(n, -1, 2, h)[..., c])
        elif hi - lo == s.stop - s.start:  # every segment truncates: q0 in place
            _forward_step(layer.tw, consts, block, out[:, lo:hi, c])
        else:  # q0 and q1 of every segment, then the surviving rows
            q = _forward_step(layer.tw, consts, block, layer.child_dtype)
            out[:, lo:hi, c] = np.compress(keep, q.reshape(n, -1, q.shape[-1]), axis=1)
    return out


def _unbutterfly(layer: _Layer, data: np.ndarray, n: int, h: int) -> np.ndarray:
    """Undo one forward depth on the n child states data of layer at half
    length h: the n (segments, 2, h) states.  A truncated segment reads
    q1 = 0 from a zeroed buffer its child rows are scattered into."""
    segs = layer.shape[0]
    out = np.empty((n, segs, 2, h), dtype=layer.dtype)
    if n * segs * h <= _BLOCK:  # one block: whole arrays
        if layer.rows is None:
            q = data.reshape(out.shape)
        else:
            q = np.zeros(out.shape, dtype=layer.child_dtype)
            q.reshape(n, 2 * segs, h)[:, layer.rows] = data.reshape(n, len(layer.rows), h)
        _inverse_step(layer.tw, layer.tw.consts, q, layer.shift, out)
        return out
    child = data.reshape(n, -1, h)
    for s, c, lo, hi, keep, consts, shift in _blocks(layer, n, h):
        block = out[:, s, :, c]
        if keep is None:  # every segment branches: shift 0
            _inverse_step(layer.tw, consts, child[:, lo:hi].reshape(n, -1, 2, h)[..., c], None, block)
        elif hi - lo == s.stop - s.start:  # every segment truncates: q1 = 0
            _inverse_step(layer.tw, consts, child[:, lo:hi, c], shift, block)
        else:  # the surviving rows into zeroed q0, q1 rows of every segment
            q = np.zeros(block.shape, dtype=layer.child_dtype)
            q.reshape(n, -1, q.shape[-1])[:, keep] = child[:, lo:hi, c]
            _inverse_step(layer.tw, consts, q, shift, block)
    return out


def _forward_step(tw: _ConstMul, consts: tuple, src: np.ndarray, q) -> np.ndarray:
    """q0 = p0 + tw * p1 and q1 = q0 + p1 of the (n, segments, 2, h) states
    src, with the segments' constants consts, into q: (n, segments, 2, h)
    for both, or (n, segments, h) for q0 alone.  q a dtype: into a fresh
    (n, segments, 2, h) array of it, made once the product's temporaries
    are gone.  Returns q."""
    along = 1 < src.shape[-1] <= 4  # see _along_segments
    if along:
        t = tw(src[:, :, 1].transpose(0, 2, 1), tuple(c.T for c in consts))
    else:
        t = tw(src[:, :, 1], consts)
    if not isinstance(q, np.ndarray):
        q = np.empty(src.shape, dtype=q)
    q0, q1 = (q, None) if q.ndim == 3 else (q[:, :, 0], q[:, :, 1])
    if along:
        p0, p1, q0, q1 = _along_segments(src[:, :, 0], src[:, :, 1], q0, q1)
        np.bitwise_xor(p0, t, out=q0, order="C")
        if q1 is not None:
            np.bitwise_xor(q0, p1, out=q1, order="C")
    else:
        np.bitwise_xor(src[:, :, 0], t, out=q0)
        if q1 is not None:
            np.bitwise_xor(q0, src[:, :, 1], out=q1)
    return q


def _inverse_step(tw: _ConstMul, consts: tuple, q: np.ndarray, shift, out: np.ndarray) -> None:
    """p1 = (q0 >> shift) + q1 and p0 = q0 + tw * p1 into the (n, segments,
    2, h) states out, from q: (n, segments, 2, h), or (n, segments, h) for
    q0 alone (q1 = 0); shift None reads 0."""
    q0, q1 = (q, None) if q.ndim == 3 else (q[:, :, 0], q[:, :, 1])
    p0, p1 = out[:, :, 0], out[:, :, 1]
    if 1 < out.shape[-1] <= 4:  # see _along_segments
        q0, q1, p0, p1 = _along_segments(q0, q1, p0, p1)
        if shift is None:
            np.bitwise_xor(q0, q1, out=p1, order="C")
        else:
            np.right_shift(q0, shift.T, out=p1, order="C")
            if q1 is not None:
                np.bitwise_xor(p1, q1, out=p1, order="C")
        np.bitwise_xor(q0, tw(p1, tuple(c.T for c in consts)), out=p0, order="C")
        return
    if shift is None:
        np.bitwise_xor(q0, q1, out=p1)
    else:
        np.right_shift(q0, shift, out=p1)
        if q1 is not None:
            p1 ^= q1
    # on truncated rows the top halves of q0 and tw * p1 cancel
    np.bitwise_xor(q0, tw(p1, consts), out=p0)


def _along_segments(*views):
    """(n, segments, h) views as (n, h, segments), None as None, for ufuncs
    run in C order along the segments, with the constants' columns as rows:
    numpy steps a short strided last axis (h of 2..4) row by row, several
    times slower."""
    return [None if v is None else v.transpose(0, 2, 1) for v in views]


def _blocks(layer: _Layer, n: int, h: int) -> list:
    """The blocks of one depth on n states at half length h, at most _BLOCK
    values of p1 each, planned on the first call with n and h: (segments,
    lanes, first and stop child row, the block's part of layer.keep or None
    when every child row survives, and its slices of the constants and of
    the shifts).  A block is a range of whole segments, or of lanes while
    one segment across the batch exceeds a block."""
    blocks = layer.blocks.get((n, h))
    if blocks is not None:
        return blocks
    rows, lanes = _BLOCK // (n * h), h
    if not rows:
        rows, lanes = 1, max(1, _BLOCK // n)
    segs, blocks = layer.shape[0], []
    for r in range(0, segs, rows):
        s = slice(r, min(r + rows, segs))
        lo, hi = int(layer.off[s.start]), int(layer.off[s.stop])
        keep = None if hi - lo == 2 * (s.stop - s.start) else layer.keep[2 * s.start : 2 * s.stop]
        consts = tuple(t[s] for t in layer.tw.consts)
        blocks += [(s, slice(c, c + lanes), lo, hi, keep, consts, layer.shift[s]) for c in range(0, h, lanes)]
    if len(layer.blocks) >= 4:  # forward, inverse and the table build use two or three
        layer.blocks.clear()
    layer.blocks[n, h] = blocks
    return blocks


def _top_tables(layers: list[_Layer], widths: np.ndarray, bits: _Bits, m: int):
    """fwd, inv and high of the plan at 2^m points, whose layers 0..d-1 are
    layers, whose depth-d segments have widths and whose index bytes bits
    lays out: the plan's own steps on unit inputs at one position.

    RuntimeError unless every subfield unit state inverts to 0/1
    coefficients and every unit coefficient vector round-trips through both
    tables inside the subfields.
    """
    d, count = len(layers), len(widths)
    rows = 1 << d
    # The index bytes of row k's coefficient at position 0, through the
    # transpose the data takes; every L >= 8 shares the layout of L = 8.
    probe = _Bits(min(m, 8))
    at = np.arange(rows) * probe.L
    x = np.zeros((rows, probe.nbytes), dtype=np.uint8)
    x[np.arange(rows), at >> 3] = 1 << (at & 7)
    unit = np.ascontiguousarray(probe.index(x)[:, :, 0])  # (rows, chunks)
    planes = np.unpackbits(unit[:, :, None], axis=2, bitorder="little")  # (rows, chunks, 8)
    # forward: the depth-d state of each unit coefficient, one byte a segment
    state = np.eye(rows, dtype=np.uint8)
    for j, layer in enumerate(layers):
        state = _butterfly(layer, state, rows, 1 << (d - j - 1))
    image = np.zeros((rows, 8), dtype=np.uint8)
    image[:, :count] = state.reshape(rows, count)
    cols = np.bitwise_xor.reduce(image.view(_U)[:, :, None] * planes, axis=0)  # (chunks, 8)
    fwd = np.ascontiguousarray(_span(cols.T).T)
    # inverse: the index bytes of each unit state inside the subfields
    seg = np.repeat(np.arange(count), widths)
    bit = np.arange(len(seg)) - np.repeat(np.cumsum(widths) - widths, widths)
    coeffs = np.zeros((len(seg), count, 1), dtype=np.uint8)
    coeffs[np.arange(len(seg)), seg, 0] = 1 << bit
    for j in reversed(range(d)):
        coeffs = _unbutterfly(layers[j], coeffs, len(seg), 1 << (d - j - 1))
    coeffs = coeffs.reshape(len(seg), rows)
    if coeffs.max(initial=0) > 1:
        raise RuntimeError(f"a depth-{d} unit state at m={m} inverts to coefficients outside GF(2)")
    dtype = np.dtype(f"<u{bits.chunks}")
    cols = np.zeros((8, count), dtype=dtype)
    cols[bit, seg] = np.bitwise_xor.reduce(coeffs[:, :, None] * unit, axis=1).view(dtype)[:, 0]
    inv = np.ascontiguousarray(_span(cols).T)
    high = (0xFF << widths & 0xFF).astype(np.uint8)[:, None]
    # every unit coefficient: index bytes -> state bytes -> index bytes
    got = np.bitwise_xor.reduce(fwd[np.arange(bits.chunks), unit], axis=1)
    got = got.view(np.uint8).reshape(rows, 8)[:, :count]
    back = np.bitwise_xor.reduce(inv[np.arange(count), got], axis=1)
    if (got & high.T).any() or not np.array_equal(back, unit.view(dtype)[:, 0]):
        raise RuntimeError(f"the depth-{d} tables at m={m} do not invert each other")
    for a in (fwd, inv, high):
        a.setflags(write=False)
    return fwd, inv, high


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
