"""Spans around calls into fafft's layers, and the traced layer panel.

The spans are taken here, around calls into the library's public
functions; the library itself is not instrumented.  ``staged_mul``
rebuilds ``mul_fafft`` from those public calls, one span per call, and
every caller checks that it returns exactly what ``mul_fafft`` returns, so
the per-layer view cannot drift from the real pipeline.

The panel measures every layer at fixed sizes, the same on every workload:
product sizes 2^m for m in PANEL_M (m = 8 and 12 fall in mul-small, 17, 18
and 20 in mul-large, with the L2 cliff between 17 and 18), and the four
circuit sizes.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager

from fafft import (
    FaftEngine,
    LayeredEngine,
    binru,
    count_ops,
    eval_slp,
    from_novel,
    gen_mul_circuit,
    mul_fafft,
    mul_karatsuba,
    mul_schoolbook,
    n_cross_section,
    parse_slp,
    to_novel,
)
from inputs import CIRCUIT_N, operands

PANEL_M = (8, 12, 17, 18, 20)
PEAK_M = (18, 20)  # tracemalloc around forward/inverse
COUNT_M = (12, 20)  # exact counts and lane-width histogram
LANE_WIDTHS = (1, 2, 4, 8, 16, 32, 64)
EVAL_LANES = 64  # operand pairs in the eval_slp batch
SUBPROCESS_REPS = 3

# Stages of staged_mul, in pipeline order.
STAGES = (
    "basis.to_novel",
    "engine.bits_to_lanes",
    "engine.forward",
    "engine.pointwise",
    "engine.inverse",
    "engine.lanes_to_bits",
    "basis.from_novel",
)

_MIB = 1 << 20


class Tracer:
    """Spans kept in memory as [op, name, parent, start, end].

    A root span opens one op; its nested spans share the op's id and point
    at the span that caused them.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [self._op, name, parent, time.perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()
            if parent == -1:
                self._op += 1

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        out: dict[str, float] = defaultdict(float)
        for op, name, parent, t0, t1 in self.spans:
            out[name] += t1 - t0
            if parent >= 0:
                out[self.spans[parent][1]] -= t1 - t0
        return dict(out)

    def op_stage_times(self, first_span: int) -> dict[str, float]:
        """Summed duration per span name from span index first_span on."""
        out: dict[str, float] = defaultdict(float)
        for op, name, parent, t0, t1 in self.spans[first_span:]:
            out[name] += t1 - t0
        return dict(out)


def staged_mul(lay: LayeredEngine, a: int, b: int, tracer: Tracer) -> int:
    """mul_fafft rebuilt from public calls, one span per call."""
    span = tracer.span
    with span("mul.mul_fafft"):
        if a == 0 or b == 0:
            return 0
        m = (a.bit_length() + b.bit_length() - 2).bit_length()
        n = 1 << m
        with span("basis.to_novel"):
            ga = to_novel(a, n)
        with span("basis.to_novel"):
            gb = to_novel(b, n)
        with span("engine.bits_to_lanes"):
            la = lay.bits_to_lanes(ga, n)
        with span("engine.bits_to_lanes"):
            lb = lay.bits_to_lanes(gb, n)
        with span("engine.forward"):
            va = lay.forward(la, m)
        with span("engine.forward"):
            vb = lay.forward(lb, m)
        with span("engine.pointwise"):
            vc = lay.pointwise(va, vb, m)
        with span("engine.inverse"):
            g = lay.inverse(vc, m)
        with span("engine.lanes_to_bits"):
            gc = lay.lanes_to_bits(g)
        with span("basis.from_novel"):
            return from_novel(gc, n)


def transform_counts(eng: FaftEngine, m: int) -> dict[str, int]:
    """Exact counts at size 2^m: count_ops, n_cross_section, and the
    lane-width histogram read from the cross-section orbits."""
    ops = count_ops(m)
    hist = Counter(p.orbit for p in eng.cross_section(m))
    rec = {
        "weighted_mults": ops.weighted_mults,
        "weighted_adds": ops.weighted_adds,
        "leaves": n_cross_section(m),
    }
    rec.update({f"lanes_w{w}": hist.get(w, 0) for w in LANE_WIDTHS})
    return rec


def peak_mib(fn, *args):
    """tracemalloc peak of one call in MiB (numpy reports its buffers to it)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / _MIB


def _reps(m: int) -> int:
    return 15 if m <= 12 else 5 if m <= 18 else 3


def _run_child(args: list[str], src: str) -> tuple[float, str, bool]:
    """Wall time, stdout and success of one child interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        args, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120
    )
    return time.perf_counter() - t0, proc.stdout.strip(), proc.returncode == 0


# Times the package import inside a fresh interpreter; numpy is loaded first,
# since its import is not fafft's set-up.
_IMPORT_TIMER = (
    "import time, numpy; t = time.perf_counter(); import fafft; print(time.perf_counter() - t)"
)


def panel(seed: int, src: str) -> tuple[dict, dict, int, int]:
    """Per-layer metrics at the fixed panel sizes.

    Returns (metrics as name -> (value, unit), exact counts, checks
    attempted, checks failed).
    """
    rng = random.Random(f"panel/{seed}")
    metrics: dict[str, tuple[float, str]] = {}
    attempted = failed = 0

    def check(ok: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        failed += not ok

    init = []
    for _ in range(5):
        t0 = time.perf_counter()
        eng = FaftEngine(6)
        init.append(time.perf_counter() - t0)
    metrics["transform.engine_init_ms"] = (statistics.median(init) * 1e3, "ms")

    lay = LayeredEngine(eng)
    tracer = Tracer()
    cold_pair = None
    for m in PANEL_M:
        a, b = operands(rng, 1 << (m - 1), 1 << (m - 1))
        if m == 12:
            cold_pair = (a, b)
        builds = []
        for _ in range(3):
            fresh = LayeredEngine(eng)
            t0 = time.perf_counter()
            fresh.plan(m)
            builds.append(time.perf_counter() - t0)
        metrics[f"engine.plan_build_ms.m{m}"] = (statistics.median(builds) * 1e3, "ms")

        kara = []
        for _ in range(3 if m <= 12 else 1):
            t0 = time.perf_counter()
            want = mul_karatsuba(a, b)
            kara.append(time.perf_counter() - t0)
        metrics[f"mul.karatsuba_ms.m{m}"] = (statistics.median(kara) * 1e3, "ms")

        mul_fafft(a, b)
        staged_mul(lay, a, b, tracer)  # warm both plan caches
        whole, stages = [], defaultdict(list)
        for _ in range(_reps(m)):
            t0 = time.perf_counter()
            c = mul_fafft(a, b)
            whole.append(time.perf_counter() - t0)
            first = len(tracer.spans)
            c2 = staged_mul(lay, a, b, tracer)
            for name, t in tracer.op_stage_times(first).items():
                stages[name].append(t)
            check(c == want and c2 == c)
        staged = 0.0
        for name in STAGES:
            med = statistics.median(stages[name])
            staged += med
            metrics[f"{name}_ms.m{m}"] = (med * 1e3, "ms")
        metrics[f"mul.residual_ms.m{m}"] = ((statistics.median(whole) - staged) * 1e3, "ms")

        if m in PEAK_M:
            n = 1 << m
            la = lay.bits_to_lanes(to_novel(a, n), n)
            lb = lay.bits_to_lanes(to_novel(b, n), n)
            va, fwd = peak_mib(lay.forward, la, m)
            vc = lay.pointwise(va, lay.forward(lb, m), m)
            g, inv = peak_mib(lay.inverse, vc, m)
            check(from_novel(lay.lanes_to_bits(g), n) == want)
            metrics[f"engine.forward_peak_mib.m{m}"] = (fwd, "MiB")
            metrics[f"engine.inverse_peak_mib.m{m}"] = (inv, "MiB")

    counts: dict[str, dict] = {"transform": {}, "gates": {}}
    for m in COUNT_M:
        rec = transform_counts(eng, m)
        check(sum(rec[f"lanes_w{w}"] for w in LANE_WIDTHS) == rec["leaves"])
        counts["transform"][str(m)] = rec
        for k in ("weighted_mults", "weighted_adds", "leaves"):
            metrics[f"transform.{k}.m{m}"] = (rec[k], "count")
        # Values at size 2^m fit in binru(m) bits, so wider bins are empty by
        # construction; they stay in the exact counts but are not metrics.
        for w in LANE_WIDTHS:
            if w <= binru(m):
                metrics[f"engine.lanes_w{w}.m{m}"] = (rec[f"lanes_w{w}"], "count")

    for n in CIRCUIT_N:
        t0 = time.perf_counter()
        circ = gen_mul_circuit(n)
        t1 = time.perf_counter()
        text = circ.to_slp()
        t2 = time.perf_counter()
        parsed = parse_slp(text)
        t3 = time.perf_counter()
        pairs = [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(EVAL_LANES)]
        a_bits = [sum(((a >> i) & 1) << t for t, (a, _) in enumerate(pairs)) for i in range(n)]
        b_bits = [sum(((b >> i) & 1) << t for t, (_, b) in enumerate(pairs)) for i in range(n)]
        t4 = time.perf_counter()
        out = eval_slp(parsed, a_bits, b_bits)
        t5 = time.perf_counter()
        got = [sum(((out[k] >> t) & 1) << k for k in range(2 * n - 1)) for t in range(EVAL_LANES)]
        check(got == [mul_schoolbook(a, b) for a, b in pairs])
        check(parsed.gates == circ.gates and parsed.outputs == circ.outputs)
        gates = [circ.and_count, circ.xor_count]
        counts["gates"][str(n)] = gates
        metrics[f"circuit.gen_ms.n{n}"] = ((t1 - t0) * 1e3, "ms")
        metrics[f"circuit.to_slp_ms.n{n}"] = ((t2 - t1) * 1e3, "ms")
        metrics[f"circuit.parse_slp_ms.n{n}"] = ((t3 - t2) * 1e3, "ms")
        metrics[f"circuit.eval_slp_ms.n{n}"] = ((t5 - t4) * 1e3, "ms")
        metrics[f"circuit.gates_and.n{n}"] = (gates[0], "gates")
        metrics[f"circuit.gates_xor.n{n}"] = (gates[1], "gates")

    imports = []
    for _ in range(SUBPROCESS_REPS):
        _, out, ok = _run_child([sys.executable, "-c", _IMPORT_TIMER], src)
        check(ok)
        imports.append(float(out) if ok else float("nan"))
    metrics["field.import_ms"] = (statistics.median(imports) * 1e3, "ms")
    a, b = cold_pair
    args = [sys.executable, "-m", "fafft.cli", "mul", "--a", format(a, "x"), "--b", format(b, "x")]
    colds = []
    for _ in range(SUBPROCESS_REPS):
        wall, out, ok = _run_child(args, src)
        check(ok and out == format(mul_schoolbook(a, b), "x"))
        colds.append(wall)
    metrics["cli.mul_cold_s"] = (statistics.median(colds), "s")
    return metrics, counts, attempted, failed

