"""Straight-line AND/XOR circuits for GF(2)[x] multiplication.

The multiplication pipeline is GF(2)-linear everywhere except the lane
products, so a circuit falls out of running the pipeline symbolically: basis
conversion and butterfly stages become XOR networks, and each cross-section
lane gets one tower Karatsuba multiplier (all of the circuit's AND gates,
3^lg(w) for a width-w lane).  The conversion is basis._convert itself,
run on _Wires (wire refs standing for the bits of a packed vector), so the
folds of basis._folds apply to ints there and to wires here; the
butterflies walk transform.schedule depth by depth, with
transform.twiddles: the same lists the numeric pipeline runs.

Wires are ints: 0 is the constant zero, 1..n the bits of operand a,
n+1..2n the bits of b, then one ref per emitted gate.  The builder folds
away trivial gates (x^x, x^0, x&x, x&0) and stores each distinct gate once.
Constant multiplications (twiddles, the zeta step inside Karatsuba) replay
an XOR template built once per constant and widths: the columns of the
constant's GF(2) matrix, each the set of output rows an input coordinate
feeds, reduced by greedy pair extraction (repeatedly materialize the XOR of
the two columns that the most rows share).  A final dead-code sweep drops
everything the product bits never read, including the inverse-stage work
for coefficient slots above 2n-2.

The text form ("SLP") lists gates in dependency order followed by the output
bindings; verify_slp replays it bitsliced (one big int per wire, one trial
per bit) against the quadratic convolution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .basis import _convert
from .field import _as_int, _mul_int, _transpose_bits, binru
from .transform import schedule, twiddles

__all__ = [
    "Circuit",
    "VerifyReport",
    "gen_mul_circuit",
    "parse_slp",
    "eval_slp",
    "verify_slp",
]

ZERO = 0


@dataclass
class Circuit:
    n: int
    gates: list[tuple[str, int, int]]  # ref of gates[i] is 2n + 1 + i
    outputs: list[int]  # 2n-1 wire refs, one per product bit

    @property
    def and_count(self) -> int:
        return sum(1 for g in self.gates if g[0] == "AND")

    @property
    def xor_count(self) -> int:
        return sum(1 for g in self.gates if g[0] == "XOR")

    def to_slp(self) -> str:
        n = self.n
        names = {ZERO: "ZERO"}
        for i in range(n):
            names[1 + i] = f"a{i}"
            names[n + 1 + i] = f"b{i}"
        lines = [f"SLP n={n} and={self.and_count} xor={self.xor_count}"]
        for i, (op, x, y) in enumerate(self.gates):
            names[2 * n + 1 + i] = f"t{i}"
            lines.append(f"t{i} = {op} {names[x]} {names[y]}")
        for i, ref in enumerate(self.outputs):
            lines.append(f"c{i} = {names[ref]}")
        return "\n".join(lines) + "\n"


class _Builder:
    def __init__(self, n: int):
        self.n = n
        self.gates: dict[tuple[str, int, int], int] = {}  # gate -> its ref, in ref order

    def _emit(self, op: str, x: int, y: int) -> int:
        if x > y:
            x, y = y, x
        return self.gates.setdefault((op, x, y), 2 * self.n + 1 + len(self.gates))

    def xor(self, x: int, y: int) -> int:
        if x == ZERO:
            return y
        if y == ZERO:
            return x
        if x == y:
            return ZERO
        return self._emit("XOR", x, y)

    def and_(self, x: int, y: int) -> int:
        if x == ZERO or y == ZERO:
            return ZERO
        if x == y:
            return x
        return self._emit("AND", x, y)

    def xor_vec(self, a: list[int], b: list[int]) -> list[int]:
        if len(a) != len(b):
            raise RuntimeError(f"xor of {len(a)}- and {len(b)}-bit vectors")
        return [self.xor(x, y) for x, y in zip(a, b)]


def _pad(refs: list[int], w: int) -> list[int]:
    return refs + [ZERO] * (w - len(refs))


# ----- constant-matrix templates ----------------------------------------


def _paar_reduce(occ: list[int], nrows: int):
    """Greedy pair extraction over XOR columns: occ[c] is the set of the
    nrows output rows that read input column c, as a bitmask.

    Returns (steps, outs): steps materialize new columns as XORs of earlier
    column pairs, outs lists the column indices each output row XORs.
    """
    occ = list(occ)
    steps: list[tuple[int, int]] = []
    while True:
        best_score = 1
        best = None
        ncols = len(occ)
        for i in range(ncols):
            if occ[i] == 0:
                continue
            for j in range(i + 1, ncols):
                s = (occ[i] & occ[j]).bit_count()
                if s > best_score:
                    best_score = s
                    best = (i, j)
        if best is None:
            break
        i, j = best
        shared = occ[i] & occ[j]
        steps.append((i, j))
        occ[i] &= ~shared
        occ[j] &= ~shared
        occ.append(shared)
    outs = tuple(tuple(c for c, s in enumerate(occ) if s >> r & 1) for r in range(nrows))
    return tuple(steps), outs


@lru_cache(maxsize=None)
def _template(c: int, w_in: int, w_out: int):
    """_paar_reduce of the GF(2) columns of x -> c * x, for x of w_in and
    the product of w_out coordinates; built once per key."""
    w = binru(max(c.bit_length(), w_in))  # holds both factors, as CantorField.mul's width
    return _paar_reduce([_mul_int(c, 1 << j, w) & ((1 << w_out) - 1) for j in range(w_in)], w_out)


def _mul_const(bld: _Builder, c: int, x: list[int], w_in: int, w_out: int) -> list[int]:
    """c * x as a w_out-bit vector, x given by w_in coordinate wires."""
    steps, outs = _template(c, w_in, w_out)
    vals = list(x)
    for i, j in steps:
        vals.append(bld.xor(vals[i], vals[j]))
    out_refs = []
    for cols in outs:
        r = ZERO
        for k in cols:
            r = bld.xor(r, vals[k])
        out_refs.append(r)
    return out_refs


# ----- symbolic pipeline stages ------------------------------------------


class _Wires:
    """Wire refs standing for a packed GF(2) vector, ref i for bit i, so
    that basis._convert runs its folds on them: & keeps the slots an int
    mask selects, >> shifts slots down, ^ adds slotwise through the
    builder."""

    __slots__ = ("bld", "refs")

    def __init__(self, bld: _Builder, refs: list[int]):
        self.bld = bld
        self.refs = refs

    def __and__(self, mask: int) -> _Wires:
        bits = format(mask, f"0{len(self.refs)}b")[::-1]
        return _Wires(self.bld, [r if b == "1" else ZERO for r, b in zip(self.refs, bits)])

    def __rshift__(self, d: int) -> _Wires:
        return _Wires(self.bld, self.refs[d:] + [ZERO] * d)

    def __xor__(self, other: _Wires) -> _Wires:
        xor = self.bld.xor  # which folds ZERO too; the tests here skip the call
        pairs = zip(self.refs, other.refs, strict=True)
        refs = [y if x == ZERO else x if y == ZERO else xor(x, y) for x, y in pairs]
        return _Wires(self.bld, refs)


def _trace_forward(bld, m, coeffs: list[int]) -> list[list[int]]:
    """Forward pruned transform on wires, one depth of schedule(m) at a
    time; returns lane ref-vectors in leaf order."""
    sched = schedule(m)
    segs = [[[c] for c in coeffs]]  # segment -> value -> coordinate refs
    for depth, (d, tws) in enumerate(zip(sched, twiddles(m))):
        h = 1 << (m - depth - 1)
        child_width = sched[depth + 1].width.tolist()
        nxt = []
        for vals, (_, _, w, trunc), tw in zip(segs, d.segments(), tws.tolist()):
            wc = child_width[len(nxt)]  # both children share a width
            p0, p1 = vals[:h], vals[h:]
            q0 = [bld.xor_vec(_pad(a, wc), _mul_const(bld, tw, b, w, wc)) for a, b in zip(p0, p1)]
            nxt.append(q0)
            if not trunc:
                nxt.append([bld.xor_vec(a, _pad(b, wc)) for a, b in zip(q0, p1)])
        segs = nxt
    return [vals[0] for vals in segs]


def _trace_inverse(bld, m, lanes: list[list[int]]) -> list[int]:
    """Inverse pruned transform on wires, from the leaves of schedule(m) up;
    returns 2^m single-bit coeff refs."""
    segs = [[v] for v in lanes]
    for d, tws in zip(reversed(schedule(m)[:-1]), reversed(twiddles(m))):
        children = iter(segs)
        segs = []
        for (_, l, w, trunc), tw in zip(d.segments(), tws.tolist()):
            q0 = next(children)
            if trunc:  # p1 = q0 >> l, p0 = q0 + tw * p1, whose top halves cancel (w = l)
                p1 = [q[l:] for q in q0]
                q0 = [q[:l] for q in q0]
            else:
                p1 = [bld.xor_vec(a, b) for a, b in zip(q0, next(children))]
            p0 = [bld.xor_vec(a, _mul_const(bld, tw, b, w, w)) for a, b in zip(q0, p1)]
            segs.append(p0 + p1)
    return [v[0] for v in segs[0]]


def _lane_mul_sym(bld, a: list[int], b: list[int], w: int) -> list[int]:
    """Tower Karatsuba product of two w-wide wire vectors."""
    if w == 1:
        return [bld.and_(a[0], b[0])]
    h = w >> 1
    a0, a1 = a[:h], a[h:]
    b0, b1 = b[:h], b[h:]
    m0 = _lane_mul_sym(bld, a0, b0, h)
    m1 = _lane_mul_sym(bld, a1, b1, h)
    t = _lane_mul_sym(bld, bld.xor_vec(a0, a1), bld.xor_vec(b0, b1), h)
    zeta = 1 << (h - 1)  # v_{h-1} = zeta_{lg h}
    zm1 = _mul_const(bld, zeta, m1, h, h)
    low = bld.xor_vec(m0, zm1)
    high = bld.xor_vec(t, m0)
    return low + high


def _dead_code_sweep(n: int, gates, outputs):
    """Drop the gates no output reads and renumber the rest; a gate reads
    only earlier refs, so one pass from the last gate back finds them."""
    first = 2 * n + 1
    live = [False] * (first + len(gates))
    for r in outputs:
        live[r] = True
    for r in reversed(range(first, len(live))):
        if live[r]:
            _, x, y = gates[r - first]
            live[x] = live[y] = True
    new_ref = list(range(first))  # old ref -> new ref; dead gates' entries go unread
    new_gates = []
    for (op, x, y), keep in zip(gates, live[first:]):
        if keep:
            new_gates.append((op, new_ref[x], new_ref[y]))
        new_ref.append(first + len(new_gates) - 1)
    return new_gates, [new_ref[r] for r in outputs]


def gen_mul_circuit(n: int) -> Circuit:
    """Circuit multiplying two n-bit GF(2)[x] polynomials (2n-1 outputs)."""
    n = _as_int(n, "operand bit count n")
    if n < 1:
        raise ValueError("operand bit count must be >= 1")
    need = 2 * n - 1
    m = (need - 1).bit_length()
    N = 1 << m
    bld = _Builder(n)

    def transform_side(base: int) -> list[list[int]]:
        refs = [base + i for i in range(n)] + [ZERO] * (N - n)
        return _trace_forward(bld, m, _convert(_Wires(bld, refs), N, True).refs)

    la = transform_side(1)
    lb = transform_side(n + 1)
    widths = schedule(m)[-1].width.tolist()
    lanes = [_lane_mul_sym(bld, _pad(a, w), _pad(b, w), w) for a, b, w in zip(la, lb, widths)]
    poly = _convert(_Wires(bld, _trace_inverse(bld, m, lanes)), N, False)
    outputs = poly.refs[:need]
    gates, outputs = _dead_code_sweep(n, list(bld.gates), outputs)
    return Circuit(n, gates, outputs)


# ----- text form, evaluation, verification -------------------------------


def _decimal(s: str) -> int:
    """s as an int; ValueError unless it is all ASCII decimal digits (int()
    would also take signs, underscores and other scripts' digits)."""
    if not (s.isascii() and s.isdigit()):
        raise ValueError(f"{s!r} is not a decimal number")
    return int(s)


def parse_slp(text: str) -> Circuit:
    """Circuit from its SLP text.  Every line may read only wires defined
    above it; anything malformed raises ValueError."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split()[0] != "SLP":
        raise ValueError("missing SLP header")
    pairs = [kv.split("=", 1) for kv in lines[0].split()[1:]]
    for kv in pairs:
        if len(kv) < 2 or kv[0] not in ("n", "and", "xor"):
            raise ValueError(f"bad header field {'='.join(kv)!r}")
    fields = dict(pairs)
    if len(fields) < len(pairs):
        raise ValueError("header repeats a field")
    missing = {"n", "and", "xor"} - fields.keys()
    if missing:
        raise ValueError(f"header lacks {', '.join(sorted(missing))}")
    n = _decimal(fields["n"])
    if not 1 <= 2 * n <= len(lines):  # one line per output bit follows the header
        raise ValueError(f"operand bit count n={n} outside 1..{len(lines) // 2}")

    def index(tok: str, bound: int) -> int:
        idx = _decimal(tok[1:])
        if not 0 <= idx < bound:
            raise ValueError(f"{tok!r} outside 0..{bound - 1}")
        return idx

    def ref(tok: str) -> int:
        if tok == "ZERO":
            return ZERO
        kind = tok[0]
        if kind == "a":
            return 1 + index(tok, n)
        if kind == "b":
            return n + 1 + index(tok, n)
        if kind == "t":
            return 2 * n + 1 + index(tok, len(gates))
        raise ValueError(f"bad wire token {tok!r}")

    gates: list[tuple[str, int, int]] = []
    outputs: list[int | None] = [None] * (2 * n - 1)
    for ln in lines[1:]:
        lhs, eq, rhs = ln.partition("=")
        lhs = lhs.strip()
        parts = rhs.split()
        if eq and lhs.startswith("t") and len(parts) == 3:
            if _decimal(lhs[1:]) != len(gates):
                raise ValueError(f"gate {lhs} out of order")
            op, x, y = parts
            if op not in ("AND", "XOR"):
                raise ValueError(f"bad op {op!r}")
            gates.append((op, ref(x), ref(y)))
        elif eq and lhs.startswith("c") and len(parts) == 1:
            i = index(lhs, len(outputs))
            if outputs[i] is not None:
                raise ValueError(f"output {lhs} bound twice")
            outputs[i] = ref(parts[0])
        else:
            raise ValueError(f"bad line {ln!r}")
    if any(o is None for o in outputs):
        raise ValueError("missing output bindings")
    circ = Circuit(n, gates, outputs)  # type: ignore[arg-type]
    counts = (circ.and_count, circ.xor_count)
    declared = (_decimal(fields["and"]), _decimal(fields["xor"]))
    if counts != declared:
        raise ValueError(f"header counts {declared} != actual {counts}")
    return circ


def _as_circuit(circ: Circuit | str) -> Circuit:
    """circ, parsed if SLP text; TypeError unless a Circuit or a str, and
    ValueError naming the first fault that parse_slp would reject."""
    if isinstance(circ, str):
        return parse_slp(circ)
    if not isinstance(circ, Circuit):
        raise TypeError(f"circ must be a Circuit or SLP text, got {type(circ).__name__}")
    n = circ.n
    if n < 1:
        raise ValueError(f"operand bit count n={n} is below 1")
    for w, (op, x, y) in enumerate(circ.gates, 2 * n + 1):  # w: the gate's own wire
        if op not in ("AND", "XOR") or not (0 <= x < w and 0 <= y < w):
            raise ValueError(f"bad gate t{w - 2 * n - 1}: {op!r} of wires {x}, {y}")
    wires = 2 * n + 1 + len(circ.gates)
    if len(circ.outputs) != 2 * n - 1 or not all(0 <= r < wires for r in circ.outputs):
        raise ValueError(f"need {2 * n - 1} outputs, each a wire in 0..{wires - 1}")
    return circ


def eval_slp(circ: Circuit | str, a_bits: list[int], b_bits: list[int]) -> list[int]:
    """Replay the circuit bitsliced: each wire is an int, one trial per bit."""
    return _replay(_as_circuit(circ), a_bits, b_bits)


def _replay(circ: Circuit, a_bits: list[int], b_bits: list[int]) -> list[int]:
    """eval_slp on a circuit that _as_circuit has checked."""
    n = circ.n
    if len(a_bits) != n or len(b_bits) != n:
        raise ValueError(f"expected {n} bits per operand, got {len(a_bits)} and {len(b_bits)}")
    wires = [0] + [_as_int(p, "a bit plane") for p in (*a_bits, *b_bits)]
    if min(wires) < 0:
        raise ValueError("bit planes must be nonnegative")
    for op, x, y in circ.gates:
        wires.append((wires[x] & wires[y]) if op == "AND" else (wires[x] ^ wires[y]))
    return [wires[r] for r in circ.outputs]


def _planes(vals: list[int], n: int) -> list[int]:
    """Bit planes of n-bit ints: plane i holds bit i of vals[t] in bit t."""
    nbytes = (n + 7) >> 3
    rows = np.frombuffer(b"".join(v.to_bytes(nbytes, "little") for v in vals), np.uint8)
    planes = _transpose_bits(rows.reshape(len(vals), nbytes))[:n]
    return [int.from_bytes(p.tobytes(), "little") for p in planes]


_EXHAUSTIVE_PAIRS = 1 << 16  # verify_slp tries every pair up to n = 8


@dataclass
class VerifyReport:
    n: int
    lanes: int
    exhaustive: bool
    failures: list[tuple[int, int, int, int, int]] = dc_field(default_factory=list)
    # entries: (a, b, coeff index, got bit, want bit)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_slp(circ: Circuit | str, trials: int = 10_000, seed: int = 0) -> VerifyReport:
    """Compare the circuit against the quadratic convolution on bitsliced
    batches: every (a, b) pair when there are at most _EXHAUSTIVE_PAIRS,
    otherwise edge patterns plus random trials."""
    trials = _as_int(trials, "trials")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    circ = _as_circuit(circ)
    n = circ.n
    if 1 << (2 * n) <= _EXHAUSTIVE_PAIRS:
        pairs = [(t >> n, t & ((1 << n) - 1)) for t in range(1 << (2 * n))]
        exhaustive = True
    else:
        rng = random.Random(seed)
        ones = (1 << n) - 1
        pairs = [(0, 0), (ones, ones), (ones, 0), (0, ones), (1, 1)]
        for i in range(n):
            pairs.append((1 << i, 1 << (n - 1 - i)))
        pairs.extend(
            (rng.getrandbits(n), rng.getrandbits(n)) for _ in range(trials)
        )
        exhaustive = False
    lanes = len(pairs)
    a_bits = _planes([a for a, _ in pairs], n)
    b_bits = _planes([b for _, b in pairs], n)
    got = _replay(circ, a_bits, b_bits)
    # bitsliced quadratic convolution
    want = [0] * (2 * n - 1)
    for i in range(n):
        ai = a_bits[i]
        if ai == 0:
            continue
        for j in range(n):
            want[i + j] ^= ai & b_bits[j]
    report = VerifyReport(n, lanes, exhaustive)
    for k in range(2 * n - 1):
        diff = got[k] ^ want[k]
        while diff and len(report.failures) < 8:
            t = (diff & -diff).bit_length() - 1
            a, b = pairs[t]
            report.failures.append((a, b, k, (got[k] >> t) & 1, (want[k] >> t) & 1))
            diff &= diff - 1
    return report
