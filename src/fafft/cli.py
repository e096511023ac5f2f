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
from pathlib import Path

from .basis import from_novel, to_novel, to_novel_by_division
from .circuit import gen_mul_circuit, parse_slp, verify_slp
from .mul import mul, mul_fafft, mul_karatsuba, mul_schoolbook
from .transform import FaftEngine

__all__ = ["main"]


def _hex_poly(s: str) -> int:
    try:
        v = int(s, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{s!r} is not a hex polynomial")
    if v < 0:
        raise argparse.ArgumentTypeError("polynomial hex must be nonnegative")
    return v


def _count(s: str) -> int:
    try:
        v = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{s!r} is not an integer")
    if v < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return v


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fafft",
        description="Multiply GF(2)[x] polynomials through the pruned "
        "additive FFT, inspect its evaluations, and emit AND/XOR circuits.",
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed for bench/verify/selftest")
    p.add_argument(
        "--k", type=int, choices=range(1, 7), default=6, help="field tower height, GF(2^(2^k))"
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("mul", help="multiply two polynomials")
    q.add_argument("--a", type=_hex_poly, required=True, help="first operand, hex")
    q.add_argument("--b", type=_hex_poly, required=True, help="second operand, hex")
    q.add_argument(
        "--method",
        choices=("fafft", "schoolbook", "karatsuba"),
        default="fafft",
    )

    q = sub.add_parser("faft", help="pruned-transform evaluations of a polynomial")
    q.add_argument("--poly", type=_hex_poly, required=True, help="polynomial, hex")
    q.add_argument("--m", type=int, required=True, help="evaluate over W_m (2^m points)")
    q.add_argument("--expand", action="store_true", help="also print the full 2^m vector")
    q.add_argument("--dump-twiddles", action="store_true", help="also print s_j(v_i) for j <= i < m")

    q = sub.add_parser("bench", help="time the multiplication routes")
    q.add_argument("--min-log", type=int, default=14, help="smallest product size, log2 bits")
    q.add_argument("--max-log", type=int, default=18, help="largest product size, log2 bits")
    q.add_argument("--reps", type=int, default=3, help="timed repetitions per point")
    q.add_argument("--csv", type=Path, default=None, help="also write the CSV here")

    q = sub.add_parser("gen-circuit", help="emit a multiplication circuit")
    q.add_argument("--n", type=int, required=True, help="operand bit width")
    q.add_argument("--no-cse", action="store_true", help="skip shared-pair extraction")
    q.add_argument("--out", type=Path, default=None, help="write the SLP text here")

    q = sub.add_parser("verify-circuit", help="check an SLP against the convolution")
    q.add_argument("--slp", type=Path, required=True, help="SLP file to verify")
    q.add_argument(
        "--trials", type=_count, default=10_000, help="random trials (plus edge patterns)"
    )

    sub.add_parser("selftest", help="quick end-to-end consistency battery")
    return p


def _cmd_mul(args) -> int:
    if args.method == "fafft":
        try:
            c = mul_fafft(args.a, args.b, args.k)
        except ValueError as e:  # the product needs more points than the field has
            print(e, file=sys.stderr)
            return 2
    else:
        c = mul(args.a, args.b, args.method)
    print(format(c, "x"))
    return 0


def _cmd_faft(args) -> int:
    eng = FaftEngine(args.k)
    if args.m < 0 or args.m > eng.field.d:
        print(f"m must be in 0..{eng.field.d}", file=sys.stderr)
        return 2
    if args.poly.bit_length() > 1 << args.m:
        print(f"polynomial degree must be below 2^{args.m}", file=sys.stderr)
        return 2
    res = eng.faft(args.poly, args.m)
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
    if args.min_log > args.max_log or args.min_log < 4:
        print("need 4 <= min-log <= max-log", file=sys.stderr)
        return 2
    if args.max_log > 1 << args.k:
        print(f"max-log must be at most 2^k = {1 << args.k}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    methods = (
        ("fafft", lambda a, b: mul_fafft(a, b, args.k)),
        ("schoolbook", mul_schoolbook),
        ("karatsuba", mul_karatsuba),
    )
    lines = ["method,log_bits,seconds_median"]
    for logn in range(args.min_log, args.max_log + 1):
        half = (1 << logn) // 2
        a = rng.getrandbits(half) | (1 << (half - 1))
        b = rng.getrandbits(half) | (1 << (half - 1))
        for name, f in methods:
            f(a, b)  # warm any cached plans before timing
            times = []
            for _ in range(max(args.reps, 1)):
                t0 = time.perf_counter()
                f(a, b)
                times.append(time.perf_counter() - t0)
            lines.append(f"{name},{logn},{statistics.median(times):.6f}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.csv is not None:
        args.csv.write_text(text)
    return 0


def _cmd_gen_circuit(args) -> int:
    if args.n < 1:
        print("need n >= 1", file=sys.stderr)
        return 2
    m = (2 * args.n - 2).bit_length()  # the 2n - 1 product bits need 2^m points
    if m > 1 << args.k:
        print(f"product needs 2^{m} points, above the field size 2^{1 << args.k}", file=sys.stderr)
        return 2
    c = gen_mul_circuit(args.n, cse=not args.no_cse)
    print(f"and={c.and_count} xor={c.xor_count} total={c.and_count + c.xor_count}")
    if args.out is not None:
        args.out.write_text(c.to_slp())
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
    eng = FaftEngine(args.k)
    f = eng.field

    def check(name, cond):
        if not cond:
            print(f"check {name} FAILED")
            return False
        print(f"check {name} ok")
        return True

    ok = True
    pairs = [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(100)]
    ok &= check("field-commutative", all(f.mul(a, b) == f.mul(b, a) for a, b in pairs))
    ok &= check(
        "field-frobenius", all(f.frobenius(a) == f.mul(a, a) for a, _ in pairs)
    )
    ok &= check(
        "field-inverse",
        all(f.mul(a, f.inverse(a)) == 1 for a, _ in pairs if a),
    )
    g = rng.getrandbits(1024)
    ok &= check("basis-roundtrip", from_novel(to_novel(g, 1024), 1024) == g)
    h = rng.getrandbits(64)
    ok &= check("basis-oracle", to_novel(h, 64) == to_novel_by_division(h, 64))
    m = min(6, f.d)  # 2^m points must fit in the field
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
