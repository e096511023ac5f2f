"""Command-line front end.

Polynomials travel as hex strings (bit i of the value = coefficient of x^i,
so "b" is x^3 + x + 1); field elements print as lowercase hex of their
coordinate int.  Exit codes: 0 success, 1 verification failure, 2 usage.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from .basis import from_novel, to_novel
from .circuit import gen_mul_circuit, parse_slp, verify_slp
from .field import CantorField
from .mul import ROUTES, mul, mul_fafft, mul_schoolbook
from .reference import FaftEngine, to_novel_by_division

__all__ = ["main"]


def _hex_poly(s: str) -> int:
    try:
        v = int(s, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{s!r} is not a hex polynomial")
    if v < 0:
        raise argparse.ArgumentTypeError("polynomial hex must be nonnegative")
    return v


def _count(s: str, least: int = 0) -> int:
    try:
        v = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{s!r} is not an integer")
    if v < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}")
    return v


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fafft",
        description="Multiply GF(2)[x] polynomials through the pruned "
        "additive FFT, inspect its evaluations, and emit AND/XOR circuits.",
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed for bench/verify/selftest")
    sub = p.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("mul", help="multiply two polynomials")
    q.add_argument("--a", type=_hex_poly, required=True, help="first operand, hex")
    q.add_argument("--b", type=_hex_poly, required=True, help="second operand, hex")
    q.add_argument("--method", choices=tuple(ROUTES), default="fafft")

    q = sub.add_parser("faft", help="pruned-transform evaluations of a polynomial")
    q.add_argument("--poly", type=_hex_poly, required=True, help="polynomial, hex")
    q.add_argument("--m", type=int, required=True, help="evaluate over W_m (2^m points)")
    q.add_argument("--expand", action="store_true", help="also print the full 2^m vector")
    q.add_argument("--dump-twiddles", action="store_true", help="also print s_j(v_i) for j <= i < m")

    q = sub.add_parser("bench", help="time the multiplication routes and their peak memory")
    q.add_argument("--min-log", type=int, default=14, help="smallest product size, log2 bits")
    q.add_argument("--max-log", type=int, default=18, help="largest product size, log2 bits")
    q.add_argument(
        "--reps", type=lambda s: _count(s, 1), default=3,
        help="timed rounds, each one call per size and method",
    )
    q.add_argument(
        "--json", type=Path, default=None, help="also write the rows and a machine record here"
    )

    q = sub.add_parser("gen-circuit", help="emit a multiplication circuit")
    q.add_argument("--n", type=int, required=True, help="operand bit width")
    q.add_argument("--out", type=Path, default=None, help="write the SLP text here")

    q = sub.add_parser("verify-circuit", help="check an SLP against the convolution")
    q.add_argument("--slp", type=Path, required=True, help="SLP file to verify")
    q.add_argument(
        "--trials", type=_count, default=10_000, help="random trials (plus edge patterns)"
    )

    sub.add_parser("selftest", help="quick end-to-end consistency battery")
    return p


def _cmd_mul(args) -> int:
    print(format(mul(args.a, args.b, args.method), "x"))
    return 0


def _cmd_faft(args) -> int:
    eng = FaftEngine(6)
    try:
        res = eng.faft(args.poly, args.m)
    except ValueError as e:  # m out of range, or a degree of 2^m or more
        print(e, file=sys.stderr)
        return 2
    for pt, val in zip(res.points, res.values):
        print(f"sigma_index={pt.index} level={pt.level} orbit={pt.orbit} value={val:x}")
    if args.expand:
        for i, v in enumerate(eng.expand_to_full_aft(args.m, res.values)):
            print(f"expand_index={i} value={v:x}")
    if args.dump_twiddles:
        for j in range(args.m):
            for i in range(j, args.m):
                print(f"twiddle j={j} i={i} value={eng.twiddles.value(j, i):x}")
    return 0


def _cmd_bench(args) -> int:
    if not 4 <= args.min_log <= args.max_log <= 31:
        print("need 4 <= min-log <= max-log <= 31", file=sys.stderr)
        return 2
    if args.json is not None and not _write(args.json, ""):
        return 2  # a bad path exits before any product runs
    rng = random.Random(args.seed)
    points = []  # (log_bits, method name, method, a, b), one per row
    for logn in range(args.min_log, args.max_log + 1):
        half = (1 << logn) // 2
        a = rng.getrandbits(half) | (1 << (half - 1))
        b = rng.getrandbits(half) | (1 << (half - 1))
        points += [(logn, name, f, a, b) for name, f in ROUTES.items()]
    for _, _, f, a, b in points:
        f(a, b)  # warm any cached plans before timing
    # Each round times every point once, so a host slow spell spreads over
    # the rows instead of reading as a difference between sizes.  An untimed
    # call before each timed one gives it the caches of back-to-back calls,
    # not those the previous point left.
    times = [[] for _ in points]
    for _ in range(args.reps):
        for ts, (_, _, f, a, b) in zip(times, points):
            f(a, b)
            t0 = time.perf_counter()
            f(a, b)
            ts.append(time.perf_counter() - t0)
    rows = []
    for ts, (logn, name, f, a, b) in zip(times, points):
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            f(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows.append(
            {
                "method": name,
                "log_bits": logn,
                "seconds_median": statistics.median(ts),
                "peak_mib": peak / 2**20,
            }
        )
    text = "method,log_bits,seconds_median,peak_mib\n" + "".join(
        f"{r['method']},{r['log_bits']},{r['seconds_median']:.6f},{r['peak_mib']:.4f}\n"
        for r in rows
    )
    sys.stdout.write(text)
    if args.json is not None:
        import json

        record = {"machine": _machine(), "seed": args.seed, "reps": args.reps, "rows": rows}
        if not _write(args.json, json.dumps(record, indent=1) + "\n"):
            return 2
    return 0


def _write(path: Path, text: str) -> bool:
    """Write text to path; False, with the reason on stderr, if that fails."""
    try:
        path.write_text(text)
    except OSError as e:
        print(f"cannot write {path}: {e.strerror or e}", file=sys.stderr)
        return False
    return True


def _machine() -> dict:
    """Cores, CPU model, Python, numpy and the commit of this checkout (None
    outside a git checkout of the project; dirty if tracked files differ)."""
    import os
    import platform
    import subprocess

    import numpy as np

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            names = [ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")]
        model = names[0] if names else model
    except OSError:
        pass
    root = Path(__file__).resolve().parents[2]
    commit = None
    try:
        git = ["git", "-C", str(root)]
        top, sha = subprocess.run(
            git + ["rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if Path(top).resolve() == root:
            dirty = subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip()
            commit = sha + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
    }


def _cmd_gen_circuit(args) -> int:
    if args.n < 1:
        print("need n >= 1", file=sys.stderr)
        return 2
    if args.out is not None and not _write(args.out, ""):
        return 2  # a bad path exits before the circuit is generated
    c = gen_mul_circuit(args.n)
    print(f"and={c.and_count} xor={c.xor_count} total={c.and_count + c.xor_count}")
    if args.out is not None and not _write(args.out, c.to_slp()):
        return 2
    return 0


def _cmd_verify_circuit(args) -> int:
    try:
        circ = parse_slp(args.slp.read_text())
    except (OSError, ValueError) as e:
        print(f"cannot load SLP: {e}", file=sys.stderr)
        return 1
    rep = verify_slp(circ, trials=args.trials, seed=args.seed)
    mode = "exhaustive" if rep.exhaustive else "sampled"
    if rep.ok:
        print(f"ok n={rep.n} lanes={rep.lanes} mode={mode}")
        return 0
    print(f"FAILED n={rep.n} lanes={rep.lanes} mode={mode}")
    for a, b, k, got, want in rep.failures:
        print(f"mismatch a={a:x} b={b:x} coeff={k} got={got} want={want}")
    return 1


def _cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    eng = FaftEngine(6)

    def check(name, cond):
        print(f"check {name} {'ok' if cond else 'FAILED'}")
        return cond

    ok = True
    for K in range(1, 7):  # commutativity, Frobenius and inverses at every height
        f = CantorField(K)
        pairs = [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(100)]
        ok &= check(
            f"field-K{K}",
            all(
                f.mul(a, b) == f.mul(b, a)
                and f.frobenius(a) == f.mul(a, a)
                and (a == 0 or f.mul(a, f.inverse(a)) == 1)
                for a, b in pairs
            ),
        )
    g = rng.getrandbits(1024)
    ok &= check("basis-roundtrip", from_novel(to_novel(g, 1024), 1024) == g)
    h = rng.getrandbits(64)
    ok &= check("basis-oracle", to_novel(h, 64) == to_novel_by_division(h, 64))
    m = 6
    p = rng.getrandbits(1 << m)
    res = eng.faft(p, m)
    full = eng.expand_to_full_aft(m, res.values)
    coeffs = [(to_novel(p, 1 << m) >> i) & 1 for i in range(1 << m)]
    ok &= check("transform-expand", full == eng.afft(m, coeffs))
    ok &= check("transform-inverse", eng.ifaft(res.values, m) == p)
    a = rng.getrandbits(2000)
    b = rng.getrandbits(1500)
    ok &= check("mul-agreement", mul_fafft(a, b) == mul_schoolbook(a, b))
    ok &= check("circuit-exhaustive", verify_slp(gen_mul_circuit(4)).ok)
    print("selftest ok" if ok else "selftest FAILED")
    return 0 if ok else 1


_CMDS = {
    "mul": _cmd_mul,
    "faft": _cmd_faft,
    "bench": _cmd_bench,
    "gen-circuit": _cmd_gen_circuit,
    "verify-circuit": _cmd_verify_circuit,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return _CMDS[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
