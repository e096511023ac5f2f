"""The fafft benchmark.

    python3 perfbench/run.py --workload mul-large --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 1

Run it from the root of a checkout; it imports fafft from ``src/``.  Each
workload is a closed loop with one client in this one process: the next op
starts when the previous one has returned.  An op is one product
(``mul_fafft``) on the mul workloads and one ``gen_mul_circuit`` followed by
``verify_slp`` on the circuit workload.  Inputs come from the seed and are
built before timing starts; every output is checked against an independent
route (``mul_karatsuba`` for products, the circuit's own verification
against the quadratic convolution for circuits) outside the timed calls.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates each op with a traced replica of it (spans around every call
into a layer, see layers.py), reports the tracing overhead from the pair,
and then measures the layer panel.  Human-readable lines come first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only when every check passed.
``--workload all`` runs the three workloads one after another, each in its
own process, and forwards what they print.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh interpreters per set-up measurement; one mul-large probe takes about 4 s.
SETUP_PROBES = {"mul-large": 5, "mul-small": 5, "circuit": 3}
FAST_K = 20  # latency_ms_fast20 is, per size class, the median of the 20 fastest ops
EXACT_COUNTS = HERE / "exact_counts.json"


def geomean(xs) -> float:
    return math.exp(statistics.fmean(math.log(x) for x in xs))


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile that has at
    least ten samples beyond it, interpolated between neighbouring samples
    so it moves smoothly with the sample count.  With fewer than twenty
    samples no percentile above the median qualifies; the median is used."""
    xs = sorted(samples)
    n = len(xs)
    p = max(0.5, 1.0 - 10.0 / n)
    h = p * (n - 1)
    lo = int(h)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo]), 100.0 * p, n


def closed_loop(rounds, step, seconds: float) -> tuple[int, int, float]:
    """Run ops back to back until the deadline has passed at the end of a
    round (so the size classes of a round stay equally represented).
    Returns (attempted, failed, wall seconds)."""
    attempted = failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    for rnd in itertools.cycle(rounds):
        for op in rnd:
            attempted += 1
            failed += not step(op)
        if time.perf_counter() >= deadline:
            break
    return attempted, failed, time.perf_counter() - start


def setup_probes(workload: str, seed: int) -> list[dict]:
    """Fresh-interpreter set-up timings, see probe.py."""
    out = []
    for _ in range(SETUP_PROBES[workload]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(SRC)],
            capture_output=True,
            text=True,
            timeout=150,
            check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def setup_seconds(probes: list[dict]) -> tuple[float, float, float]:
    """Import time plus, per size class, the extra cost of the first call
    over the steady median of the calls after it in the same process.
    Returns (setup_s, import_s, first-call extra), each the median over the
    probes."""
    imports = [p["import_s"] for p in probes]
    extras = [sum(p["first_s"][c] - p["steady_s"][c] for c in p["first_s"]) for p in probes]
    totals = [i + e for i, e in zip(imports, extras)]
    return statistics.median(totals), statistics.median(imports), statistics.median(extras)


# ----- machine record ------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def machine_record(seed: int) -> dict:
    import numpy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next(
        (ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}/"
        level, kind, size = (_read(base + f) for f in ("level", "type", "size"))
        if level is None or size is None:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get((kind or "").strip(), "")
        caches[f"L{level.strip()}{suffix}"] = size.strip()
    try:  # only the checkout's own repository, not one that encloses it
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split() or ("", "")
        if Path(top).resolve() != ROOT:
            commit = ""
    except (OSError, subprocess.SubprocessError, ValueError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "caches_cpu0": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit or "unknown (not a git checkout)",
        "seed": seed,
    }


def compare_counts(counts: dict) -> str:
    """Compare exact counts with the ones recorded in exact_counts.json."""
    ref = json.loads(EXACT_COUNTS.read_text())
    diffs = [
        f"{kind}[{size}]: {got} != {ref.get(kind, {}).get(size)}"
        for kind, by_size in counts.items()
        for size, got in by_size.items()
        if ref.get(kind, {}).get(size) != got
    ]
    if diffs:
        return "WARNING exact counts differ from exact_counts.json: " + "; ".join(diffs)
    return "exact counts: same as exact_counts.json"


# ----- workloads -----------------------------------------------------------


class Run:
    """What one workload run collects: checks, metrics, report lines."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, tuple[float, str]] = {}
        self.lines: list[str] = []

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def loop(self, rounds, step, seconds: float) -> float:
        attempted, failed, wall = closed_loop(rounds, step, seconds)
        self.attempted += attempted
        self.failed += failed
        return wall

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (value, unit)
        self.say(name, value, unit, note)

    def say(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.lines.append(f"{name:<34} {value:>14.6g} {unit:<6} {note}".rstrip())


def fast_k(samples: list[float]) -> float:
    """Median of the FAST_K fastest samples; the median of all of them when
    there are no more than FAST_K."""
    return statistics.median(sorted(samples)[:FAST_K])


def latency_metrics(run: Run, lat: dict, what: str) -> None:
    """Per-class latency lines, then geometric means over the size classes
    (so that the class mix, not the gap between classes, sets them) of the
    per-class median of the FAST_K fastest ops (latency_ms_fast20), median
    (latency_ms_p50) and tail (latency_ms_tail).  Only latency_ms_fast20
    goes into the result line: the host's slow spells take a different
    share of every run and move whole-run medians, a single fastest op
    depends on catching one short fast spell, and the median of the fastest
    twenty repeats best across runs (see README.md)."""
    tails = {c: tail(xs) for c, xs in sorted(lat.items())}
    for c, xs in sorted(lat.items()):
        v, pct, n = tails[c]
        run.lines.append(
            f"  {what}={c:<5} samples={n:<5} best={min(xs) * 1e3:.4g} ms"
            f"  fast{FAST_K}={fast_k(xs) * 1e3:.4g} ms"
            f"  median={statistics.median(xs) * 1e3:.4g} ms  p{pct:.1f}={v * 1e3:.4g} ms"
        )
    run.metric(
        f"latency_ms_fast{FAST_K}",
        geomean(map(fast_k, lat.values())) * 1e3,
        "ms",
        f"geomean over {len(lat)} size classes of the median of the {FAST_K} fastest ops",
    )
    run.say(
        "latency_ms_p50",
        geomean(statistics.median(xs) for xs in lat.values()) * 1e3,
        "ms",
        "geomean of the per-class median op",
    )
    pcts = sorted({round(t[1], 1) for t in tails.values()})
    counts = [t[2] for t in tails.values()]
    run.say(
        "latency_ms_tail",
        geomean(t[0] for t in tails.values()) * 1e3,
        "ms",
        f"geomean of per-class p{pcts[0]}..p{pcts[-1]} (samples {min(counts)}..{max(counts)})",
    )


def trace_overhead(run: Run, plain: dict, traced: dict, tracer) -> None:
    ops = sum(len(xs) for xs in plain.values())
    t_plain = sum(map(sum, plain.values()))
    t_traced = sum(map(sum, traced.values()))
    run.metric("trace.untraced_ops_per_s", ops / t_plain, "1/s", "ops alternate with traced replicas")
    run.metric("trace.traced_ops_per_s", ops / t_traced, "1/s")
    run.metric("trace.overhead_pct", 100.0 * (t_traced - t_plain) / t_plain, "%")
    selfs = tracer.self_times()
    run.lines.append(f"self time per layer, share of traced op time ({ops} ops):")
    for name, t in sorted(selfs.items(), key=lambda kv: -kv[1]):
        run.lines.append(f"  {name:<26} {100.0 * t / t_traced:6.2f} %")


def run_panel(run: Run, seed: int) -> None:
    import layers

    metrics, counts, attempted, failed = layers.panel(seed, str(SRC))
    run.attempted += attempted
    run.failed += failed
    run.lines.append("layer panel:")
    for name, (value, unit) in metrics.items():
        run.metric(name, value, unit)
    run.lines.append(compare_counts(counts))


def run_mul(run: Run, args, mul) -> None:
    from fafft import mul_karatsuba

    from layers import peak_mib

    rounds = inputs.rounds(args.workload, args.seed)
    distinct = {op[1]: op for rnd in rounds for op in rnd}
    expected = {key: mul_karatsuba(a, b) for key, (_, _, a, b) in distinct.items()}
    firsts = inputs.first_of_each_class(rounds)
    run.lines.append(
        f"{len(distinct)} distinct operand pairs, size classes m={sorted(op[0] for op in firsts)}"
    )
    for _, key, a, b in firsts:  # plan builds and other lazy state, untimed
        run.check(mul(a, b) == expected[key])

    if args.trace:
        from fafft import FaftEngine, LayeredEngine

        import layers

        lay = LayeredEngine(FaftEngine(6))
        tracer = layers.Tracer()
        for _, key, a, b in firsts:
            run.check(layers.staged_mul(lay, a, b, tracer) == expected[key])
        tracer.spans.clear()
        plain, traced = defaultdict(list), defaultdict(list)

        def step(op):
            m, key, a, b = op
            t0 = time.perf_counter()
            c = mul(a, b)
            t1 = time.perf_counter()
            c2 = layers.staged_mul(lay, a, b, tracer)
            t2 = time.perf_counter()
            plain[m].append(t1 - t0)
            traced[m].append(t2 - t1)
            return c == expected[key] and c2 == c

        run.loop(rounds, step, args.seconds)
        trace_overhead(run, plain, traced, tracer)
        run_panel(run, args.seed)
        return

    from fafft import FaftEngine

    from layers import transform_counts

    eng = FaftEngine(6)
    counts = {"transform": {str(m): transform_counts(eng, m) for m, *_ in sorted(firsts)}}
    for m, rec in counts["transform"].items():
        run.lines.append(f"  m={m:<3} " + " ".join(f"{k}={v}" for k, v in rec.items()))
    run.lines.append(compare_counts(counts))

    probes = setup_probes(args.workload, args.seed)
    _, key, a, b = max(firsts)
    c, peak = peak_mib(mul, a, b)
    run.check(c == expected[key])
    lat = defaultdict(list)

    def step(op):
        m, key, a, b = op
        t0 = time.perf_counter()
        c = mul(a, b)
        lat[m].append(time.perf_counter() - t0)
        return c == expected[key]

    wall = run.loop(rounds, step, args.seconds)
    ops = sum(map(len, lat.values()))
    run.say("products_per_s", ops / wall, "1/s", f"{ops} products in {wall:.3f} s")
    latency_metrics(run, lat, "m")
    run.metric("peak_mib", peak, "MiB", f"tracemalloc peak of one mul_fafft at m={max(firsts)[0]}")
    setup, imp, extra = setup_seconds(probes)
    run.metric(
        "setup_s", setup, "s",
        f"median of {len(probes)} fresh processes: import {imp:.4f} s"
        f" + first-call extra {extra:.4f} s over {len(firsts)} sizes",
    )


def run_circuit(run: Run, args) -> None:
    from fafft import gen_mul_circuit, verify_slp

    from layers import peak_mib

    rounds = inputs.circuit(args.seed)
    counts = {}
    for n, _ in inputs.first_of_each_class(rounds):  # lazy state, untimed
        circ = gen_mul_circuit(n)
        counts[n] = [circ.and_count, circ.xor_count]

    def gen_verify(op):
        n, key = op
        t0 = time.perf_counter()
        circ = gen_mul_circuit(n)
        t1 = time.perf_counter()
        rep = verify_slp(circ, trials=inputs.CIRCUIT_TRIALS, seed=key)
        t2 = time.perf_counter()
        return t1 - t0, t2 - t1, rep.ok and [circ.and_count, circ.xor_count] == counts[n]

    if args.trace:
        import layers

        tracer = layers.Tracer()
        plain, traced = defaultdict(list), defaultdict(list)

        def step(op):
            n, key = op
            g, v, ok = gen_verify(op)
            plain[n].append(g + v)
            t0 = time.perf_counter()
            with tracer.span("circuit.op"):
                with tracer.span("circuit.gen_mul_circuit"):
                    circ = gen_mul_circuit(n)
                with tracer.span("circuit.verify_slp"):
                    rep = verify_slp(circ, trials=inputs.CIRCUIT_TRIALS, seed=key)
            traced[n].append(time.perf_counter() - t0)
            return ok and rep.ok and [circ.and_count, circ.xor_count] == counts[n]

        run.loop(rounds, step, args.seconds)
        trace_overhead(run, plain, traced, tracer)
        run_panel(run, args.seed)
        return

    probes = setup_probes("circuit", args.seed)
    top = max(inputs.CIRCUIT_N)
    circ, peak = peak_mib(gen_mul_circuit, top)
    run.check([circ.and_count, circ.xor_count] == counts[top])
    del circ
    gen, ver, lat = defaultdict(list), defaultdict(list), defaultdict(list)

    def step(op):
        g, v, ok = gen_verify(op)
        gen[op[0]].append(g)
        ver[op[0]].append(v)
        lat[op[0]].append(g + v)
        return ok

    wall = run.loop(rounds, step, args.seconds)
    ops = sum(map(len, lat.values()))
    run.say(
        "circuits_per_s", ops / wall, "1/s",
        f"{ops} circuits generated and verified ({inputs.CIRCUIT_TRIALS} random trials"
        f" + edge patterns) in {wall:.3f} s",
    )
    latency_metrics(run, lat, "n")
    run.metric("peak_mib", peak, "MiB", f"tracemalloc peak of gen_mul_circuit({top})")
    setup, imp, extra = setup_seconds(probes)
    run.metric(
        "setup_s", setup, "s",
        f"median of {len(probes)} fresh processes: import {imp:.4f} s"
        f" + first-gen extra {extra:.4f} s at n={'/'.join(map(str, inputs.CIRCUIT_SETUP_N))}",
    )
    run.say("gen_s", sum(statistics.median(xs) for xs in gen.values()), "s", "median per n, summed")
    run.say("verify_s", sum(statistics.median(xs) for xs in ver.values()), "s", "median per n, summed")
    run.say("gates_and", sum(c[0] for c in counts.values()), "gates", "summed over n")
    run.say("gates_xor", sum(c[1] for c in counts.values()), "gates", "summed over n")
    for n, (g_and, g_xor) in sorted(counts.items()):
        run.lines.append(f"  n={n:<5} and={g_and} xor={g_xor} total={g_and + g_xor}")
    run.lines.append(compare_counts({"gates": {str(n): c for n, c in counts.items()}}))


# ----- entry point ---------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="timed loop length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def run_all(args) -> int:
    """Each workload in its own process; their output is forwarded."""
    results, code = {}, 0
    for w in inputs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {w}", flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = max(code, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        results[w] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return code


def main(argv=None, mul=None) -> int:
    """Run one workload and print its result; ``mul`` replaces mul_fafft
    (the harness self-test passes a wrong one)."""
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "fafft" / "__init__.py").is_file():
        print(f"no fafft sources under {SRC}; run from the root of a fafft checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import fafft

    record = machine_record(args.seed)
    run = Run()
    run.lines.append("machine: " + json.dumps(record))
    run.lines.append(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
        " loop=closed clients=1"
    )
    if args.workload == "circuit":
        run_circuit(run, args)
    else:
        run_mul(run, args, mul or fafft.mul_fafft)
    run.say("failed_frac", run.failed / run.attempted, "ratio", f"{run.failed} of {run.attempted}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()},
    }
    print("\n".join(run.lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
