"""Straight-line AND/XOR circuits for GF(2)[x] multiplication.

The multiplication pipeline is GF(2)-linear everywhere except the lane
products, so a circuit falls out of running the pipeline symbolically: basis
conversion and butterfly stages become XOR networks, and each cross-section
lane gets one tower Karatsuba multiplier (all of the circuit's AND gates,
3^lg(w) for a width-w lane).  The conversion walks the radix levels of
basis._levels and the butterflies walk transform.schedule depth by depth,
twiddles included: the same lists the numeric pipeline runs.

Wires are ints: 0 is the constant zero, 1..n the bits of operand a,
n+1..2n the bits of b, then one ref per emitted gate.  The builder folds
away trivial gates (x^x, x^0, x&x, x&0) and dedups identical gate pairs.
Constant multiplications (twiddles, the zeta step inside Karatsuba) pass
through a per-matrix template cache; with cse enabled the template rows are
first reduced by greedy pair extraction (repeatedly materialize the XOR pair
shared by the most rows).  A final dead-code sweep drops everything the
product bits never read, including the inverse-stage work for coefficient
slots above 2n-2.

The text form ("SLP") lists gates in dependency order followed by the output
bindings; verify_slp replays it bitsliced (one big int per wire, one trial
per bit) against the quadratic convolution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from .basis import _levels
from .field import CantorField
from .transform import schedule

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
        self.gates: list[tuple[str, int, int]] = []
        self._memo: dict[tuple[str, int, int], int] = {}

    def _emit(self, op: str, x: int, y: int) -> int:
        if x > y:
            x, y = y, x
        key = (op, x, y)
        ref = self._memo.get(key)
        if ref is None:
            self.gates.append((op, x, y))
            ref = 2 * self.n + len(self.gates)
            self._memo[key] = ref
        return ref

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


def _paar_reduce(rows: tuple[int, ...], w_in: int):
    """Greedy pair extraction over XOR rows (masks over w_in columns).

    Returns (steps, outs): steps materialize new columns as XORs of earlier
    column pairs, outs lists the column indices each output row XORs.
    """
    occ = [0] * w_in
    for r, row in enumerate(rows):
        for c in range(w_in):
            if (row >> c) & 1:
                occ[c] |= 1 << r
    rows_l = list(rows)
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
        new = len(occ)
        steps.append((i, j))
        occ[i] &= ~shared
        occ[j] &= ~shared
        occ.append(shared)
        pair = (1 << i) | (1 << j)
        rr = shared
        while rr:
            low = rr & -rr
            r = low.bit_length() - 1
            rows_l[r] = (rows_l[r] & ~pair) | (1 << new)
            rr ^= low
    outs = []
    for row in rows_l:
        cols = []
        while row:
            low = row & -row
            cols.append(low.bit_length() - 1)
            row ^= low
        outs.append(tuple(cols))
    return steps, tuple(outs)


class _MatrixCache:
    """Emit out = M * x for constant GF(2) matrices, with template reuse."""

    def __init__(self, bld: _Builder, cse: bool):
        self.bld = bld
        self.cse = cse
        self.field = CantorField(6)
        self._templates: dict[tuple[int, tuple[int, ...]], tuple] = {}

    def apply(self, rows: tuple[int, ...], w_in: int, x: list[int]) -> list[int]:
        key = (w_in, rows)
        tpl = self._templates.get(key)
        if tpl is None:
            if self.cse:
                tpl = _paar_reduce(rows, w_in)
            else:
                outs = []
                for row in rows:
                    cols = [c for c in range(w_in) if (row >> c) & 1]
                    outs.append(tuple(cols))
                tpl = ((), tuple(outs))
            self._templates[key] = tpl
        steps, outs = tpl
        vals = list(x)
        for i, j in steps:
            vals.append(self.bld.xor(vals[i], vals[j]))
        out_refs = []
        for cols in outs:
            r = ZERO
            for c in cols:
                r = self.bld.xor(r, vals[c])
            out_refs.append(r)
        return out_refs

    def mul_const(self, c: int, x: list[int], w_in: int, w_out: int) -> list[int]:
        """c * x as a w_out-bit vector, x given by w_in coordinate wires."""
        rows = []
        cols = [self.field.mul(c, 1 << j) for j in range(w_in)]
        for i in range(w_out):
            mask = 0
            for j in range(w_in):
                mask |= ((cols[j] >> i) & 1) << j
            rows.append(mask)
        return self.apply(tuple(rows), w_in, x)


# ----- symbolic pipeline stages ------------------------------------------


def _radix_sym(
    bld: _Builder, slots: list[int], mu: int, k: int, wu: int, forward: bool
) -> list[int]:
    """One radix level of the basis conversion (basis._radix_fwd or
    _radix_inv) on wire refs, with H and A counted in refs (units of wu)."""
    out = list(slots)
    h = wu << (mu - 1)
    a = wu << (mu - 1 - k)
    xor = bld.xor_vec
    for s in range(0, len(out), 2 * h):
        lo, hi = out[s : s + h], out[s + h : s + 2 * h]
        r = lo[:a] + xor(lo[a:], hi[: h - a])
        if forward:
            # divide lo + x^H hi by y^A = x^H + x^A, layout [r | q]: the
            # spill of hi << A beyond the half mark folds in once more
            spill = hi[h - a :]
            r[a : 2 * a] = xor(r[a : 2 * a], spill)
            hi = xor(hi[:a], spill) + hi[a:]
        else:
            hi = xor(hi[:a], hi[h - a :]) + hi[a:]
        out[s : s + 2 * h] = r + hi
    return out


def _trace_forward(bld, mats, m, coeffs: list[int]) -> list[list[int]]:
    """Forward pruned transform on wires, one depth of schedule(m) at a
    time; returns lane ref-vectors in leaf order."""
    sched = schedule(m)
    segs = [[[c] for c in coeffs]]  # segment -> value -> coordinate refs
    for depth, d in enumerate(sched[:-1]):
        h = 1 << (m - depth - 1)
        child_width = sched[depth + 1].width.tolist()
        nxt = []
        for vals, (_, _, w, trunc, tw, _) in zip(segs, d.segments()):
            wc = child_width[len(nxt)]  # both children share a width
            p0, p1 = vals[:h], vals[h:]
            q0 = [bld.xor_vec(_pad(a, wc), mats.mul_const(tw, b, w, wc)) for a, b in zip(p0, p1)]
            nxt.append(q0)
            if not trunc:
                nxt.append([bld.xor_vec(a, _pad(b, wc)) for a, b in zip(q0, p1)])
        segs = nxt
    return [vals[0] for vals in segs]


def _trace_inverse(bld, mats, m, lanes: list[list[int]]) -> list[int]:
    """Inverse pruned transform on wires, from the leaves of schedule(m) up;
    returns 2^m single-bit coeff refs."""
    segs = [[v] for v in lanes]
    for depth in range(m - 1, -1, -1):
        children = iter(segs)
        segs = []
        for _, l, w, trunc, _, c in schedule(m)[depth].segments():
            q0 = next(children)
            if trunc:  # p1 = q0 >> l, p0 = (q0 mod 2^l) + c * p1, where w = l
                p1 = [q[l:] for q in q0]
                q0 = [q[:l] for q in q0]
            else:
                p1 = [bld.xor_vec(a, b) for a, b in zip(q0, next(children))]
            p0 = [bld.xor_vec(a, mats.mul_const(c, b, w, w)) for a, b in zip(q0, p1)]
            segs.append(p0 + p1)
    return [v[0] for v in segs[0]]


def _lane_mul_sym(bld, mats, a: list[int], b: list[int], w: int) -> list[int]:
    """Tower Karatsuba product of two w-wide wire vectors."""
    if w == 1:
        return [bld.and_(a[0], b[0])]
    h = w >> 1
    a0, a1 = a[:h], a[h:]
    b0, b1 = b[:h], b[h:]
    m0 = _lane_mul_sym(bld, mats, a0, b0, h)
    m1 = _lane_mul_sym(bld, mats, a1, b1, h)
    t = _lane_mul_sym(bld, mats, bld.xor_vec(a0, a1), bld.xor_vec(b0, b1), h)
    zeta = 1 << (h - 1)  # v_{h-1} = zeta_{lg h}
    zm1 = mats.mul_const(zeta, m1, h, h)
    low = bld.xor_vec(m0, zm1)
    high = bld.xor_vec(t, m0)
    return low + high


def _dead_code_sweep(n: int, gates, outputs):
    first = 2 * n + 1
    live = [False] * len(gates)
    stack = [r for r in outputs if r >= first]
    while stack:
        r = stack.pop()
        i = r - first
        if live[i]:
            continue
        live[i] = True
        for x in gates[i][1:]:
            if x >= first:
                stack.append(x)
    remap = {}
    new_gates = []
    for i, g in enumerate(gates):
        if not live[i]:
            continue
        op, x, y = g
        x = remap.get(x, x)
        y = remap.get(y, y)
        new_gates.append((op, x, y))
        remap[first + i] = first + len(new_gates) - 1
    new_outputs = [remap.get(r, r) for r in outputs]
    return new_gates, new_outputs


def gen_mul_circuit(n: int, cse: bool = True) -> Circuit:
    """Circuit multiplying two n-bit GF(2)[x] polynomials (2n-1 outputs)."""
    if n < 1:
        raise ValueError("operand bit count must be >= 1")
    need = 2 * n - 1
    m = (need - 1).bit_length()
    N = 1 << m
    bld = _Builder(n)
    mats = _MatrixCache(bld, cse)

    levels = _levels(m)

    def transform_side(base: int) -> list[list[int]]:
        refs = [base + i for i in range(n)] + [ZERO] * (N - n)
        for mu, k, s in levels:
            refs = _radix_sym(bld, refs, mu, k, 1 << s, True)
        return _trace_forward(bld, mats, m, refs)

    la = transform_side(1)
    lb = transform_side(n + 1)
    widths = schedule(m)[-1].width.tolist()
    lanes = [_lane_mul_sym(bld, mats, _pad(a, w), _pad(b, w), w) for a, b, w in zip(la, lb, widths)]
    poly = _trace_inverse(bld, mats, m, lanes)
    for mu, k, s in reversed(levels):
        poly = _radix_sym(bld, poly, mu, k, 1 << s, False)
    outputs = poly[:need]
    gates, outputs = _dead_code_sweep(n, bld.gates, outputs)
    return Circuit(n, gates, outputs)


# ----- text form, evaluation, verification -------------------------------


def parse_slp(text: str) -> Circuit:
    """Circuit from its SLP text.  Every line may read only wires defined
    above it; anything malformed raises ValueError."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split()[0] != "SLP":
        raise ValueError("missing SLP header")
    fields = dict(kv.split("=", 1) for kv in lines[0].split()[1:])
    missing = {"n", "and", "xor"} - fields.keys()
    if missing:
        raise ValueError(f"header lacks {', '.join(sorted(missing))}")
    n = int(fields["n"])
    if not 1 <= 2 * n <= len(lines):  # one line per output bit follows the header
        raise ValueError(f"operand bit count n={n} outside 1..{len(lines) // 2}")

    def index(tok: str, bound: int) -> int:
        idx = int(tok[1:])
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
        lhs, rhs = ln.split("=", 1)
        lhs = lhs.strip()
        parts = rhs.split()
        if lhs.startswith("t"):
            if int(lhs[1:]) != len(gates):
                raise ValueError(f"gate {lhs} out of order")
            op, x, y = parts
            if op not in ("AND", "XOR"):
                raise ValueError(f"bad op {op!r}")
            gates.append((op, ref(x), ref(y)))
        elif lhs.startswith("c") and len(parts) == 1:
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
    declared = (int(fields["and"]), int(fields["xor"]))
    if counts != declared:
        raise ValueError(f"header counts {declared} != actual {counts}")
    return circ


def eval_slp(circ: Circuit, a_bits: list[int], b_bits: list[int]) -> list[int]:
    """Replay the circuit bitsliced: each wire is an int, one trial per bit."""
    n = circ.n
    if len(a_bits) != n or len(b_bits) != n:
        raise ValueError(f"expected {n} bits per operand, got {len(a_bits)} and {len(b_bits)}")
    wires = [0] + a_bits + b_bits
    for op, x, y in circ.gates:
        wires.append((wires[x] & wires[y]) if op == "AND" else (wires[x] ^ wires[y]))
    return [wires[r] for r in circ.outputs]


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


def verify_slp(
    circ: Circuit | str,
    trials: int = 10_000,
    seed: int = 0,
    exhaustive_limit: int = 1 << 16,
) -> VerifyReport:
    """Compare the circuit against the quadratic convolution on bitsliced
    batches: every (a, b) pair when 2^(2n) fits the limit, otherwise edge
    patterns plus random trials."""
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if isinstance(circ, str):
        circ = parse_slp(circ)
    n = circ.n
    if 1 << (2 * n) <= exhaustive_limit:
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
    a_bits = [0] * n
    b_bits = [0] * n
    for t, (a, b) in enumerate(pairs):
        for i in range(n):
            a_bits[i] |= ((a >> i) & 1) << t
            b_bits[i] |= ((b >> i) & 1) << t
    got = eval_slp(circ, a_bits, b_bits)
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
