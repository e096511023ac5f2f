"""End-to-end acceptance battery.

One test per shipping criterion.  Each test times its own body, enforces a
hard wall-clock budget, and records a PASS/FAIL line that conftest replays
in a terminal section after the run, so the per-criterion outcome is visible
even with capture on.
"""

import functools
import random
import statistics
import time

from fafft.basis import from_novel, to_novel
from fafft.circuit import gen_mul_circuit, verify_slp
from fafft.engine import LayeredEngine
from fafft.mul import mul_fafft, mul_schoolbook
from fafft.reference import FaftEngine
from fafft.transform import OpCounters, count_ops


@functools.lru_cache(maxsize=1)
def _engines() -> tuple[FaftEngine, LayeredEngine]:
    eng = FaftEngine(6)
    return eng, LayeredEngine()


def _run(log, name, budget_s, body):
    t0 = time.perf_counter()
    try:
        detail = body()
    except BaseException as exc:
        log.append(f"FAIL {name}: {type(exc).__name__}: {exc}")
        raise
    dt = time.perf_counter() - t0
    if dt > budget_s:
        log.append(f"FAIL {name}: {dt:.2f} s over the {budget_s:g} s budget")
        raise AssertionError(f"{name} took {dt:.2f} s, budget {budget_s:g} s")
    line = f"PASS {name} [{dt:.2f} s / {budget_s:g} s]"
    log.append(line + (f" {detail}" if detail else ""))


def test_c1_cross_section_landmark(acceptance_log):
    """m=5 cross section: the 8 known points with their subfield widths."""

    def body():
        eng, _ = _engines()
        pts = eng.cross_section(5)
        assert [p.index for p in pts] == [0, 1, 2, 4, 8, 9, 16, 18]
        assert [p.orbit for p in pts] == [1, 1, 2, 4, 4, 4, 8, 8]
        rng = random.Random(0xC1)
        for _ in range(8):
            res = eng.faft(rng.getrandbits(32), 5)
            for pt, val in zip(pts, res.values):
                assert val < (1 << pt.orbit)
        return "8 points, value widths (1,1,2,4,4,4,8,8)"

    _run(acceptance_log, "c1 cross-section landmark", 1.0, body)


def test_c2_orbit_partition(acceptance_log):
    """Frobenius orbits of the cross section tile the whole subspace."""

    def body():
        eng, _ = _engines()
        frob = eng.field.frobenius
        for m in range(17):
            seen: set[int] = set()
            for pt in eng.cross_section(m):
                orb = [pt.index]
                x = frob(pt.index)
                while x != pt.index:
                    orb.append(x)
                    x = frob(x)
                l = pt.level
                want = 1 if l < 2 else 1 << (l - 1).bit_length()
                assert len(orb) == want == pt.orbit
                assert not seen.intersection(orb)
                seen.update(orb)
            assert seen == set(range(1 << m))
        return "m in 0..16, disjoint cover with predicted orbit sizes"

    _run(acceptance_log, "c2 orbit partition", 30.0, body)


def test_c3_multiplication_oracle(acceptance_log):
    """mul_fafft agrees with mul_schoolbook, exhaustively small then randomly."""

    def body():
        for a in range(16):
            for b in range(16):
                assert mul_fafft(a, b) == mul_schoolbook(a, b)
        rng = random.Random(0xC3)
        pairs = 0
        for m in range(3, 17):
            n = 1 << m
            for _ in range(1000):
                # product bit-length drawn from (n/2, n] so size class m
                # is the one actually exercised
                need = rng.randrange((n >> 1) + 1, n + 1)
                la = rng.randrange(1, need + 1)
                lb = need - la + 1
                a = rng.getrandbits(la) | (1 << (la - 1))
                b = rng.getrandbits(lb) | (1 << (lb - 1))
                assert mul_fafft(a, b) == mul_schoolbook(a, b)
                pairs += 1
        return f"256 exhaustive pairs below degree 4, {pairs} random pairs"

    _run(acceptance_log, "c3 multiplication oracle", 60.0, body)


def test_c4_frobenius_expansion(acceptance_log):
    """Orbit expansion of the pruned transform equals the full transform."""

    def body():
        eng, _ = _engines()
        rng = random.Random(0xC4)
        cases = 0
        for m in range(2, 9):
            n = 1 << m
            for _ in range(100):
                f = rng.getrandbits(n)
                res = eng.faft(f, m)
                full = eng.expand_to_full_aft(m, res.values)
                g = to_novel(f, n)
                assert full == eng.afft(m, [(g >> i) & 1 for i in range(n)])
                cases += 1
        return f"{cases} cases, m in 2..8"

    _run(acceptance_log, "c4 Frobenius expansion", 10.0, body)


def test_c5_operation_count_bounds(acceptance_log):
    """Width-weighted butterfly counts stay under n*lg(n)/2 and 2*n*lg(n)."""

    def body():
        eng, _ = _engines()
        rng = random.Random(0xC5)
        for m in range(4, 17):
            n = 1 << m
            c = count_ops(m)
            assert 2 * c.weighted_mults <= n * m
            assert c.weighted_adds <= 2 * n * m
            if m <= 10:
                # structural counts must match an instrumented run
                got = OpCounters()
                eng.fafft_leaves(m, [rng.getrandbits(1) for _ in range(n)], got)
                assert got == c
        return "m in 4..16; instrumented runs match for m <= 10"

    _run(acceptance_log, "c5 operation-count bounds", 30.0, body)


# Best hand-tuned reference totals for these sizes; generated circuits must
# stay within 1.5x of them.
_GATE_TARGETS = {128: 11556, 256: 29005, 512: 68446, 1024: 158226}


def test_c6_bit_operation_circuits(acceptance_log):
    """Generated SLPs verify, with gate totals within 1.5x of the targets."""

    def body():
        parts = []
        for n, target in _GATE_TARGETS.items():
            circ = gen_mul_circuit(n)
            rep = verify_slp(circ, trials=10_000, seed=0xC6)
            assert rep.ok, f"n={n}: {rep.failures[:2]}"
            assert rep.lanes >= 10_000
            assert len(circ.outputs) == 2 * n - 1
            total = circ.and_count + circ.xor_count
            assert 2 * total <= 3 * target
            parts.append(f"n={n}: {total} (target {target}, x{total / target:.3f})")
        return "; ".join(parts)

    _run(acceptance_log, "c6 bit-operation circuits", 600.0, body)


def test_c7_runtime_scaling(acceptance_log):
    """Doubling the product size at most 2.5x's the runtime, and the
    transform beats schoolbook at the largest size."""

    def body():
        rng = random.Random(0xC7)
        pairs = []
        for m in range(14, 21):
            n = 1 << m
            h = n >> 1
            a = rng.getrandbits(h) | (1 << (h - 1))
            b = rng.getrandbits(n - h) | (1 << (n - h - 1))
            mul_fafft(a, b)  # warm the plan before timing
            pairs.append((a, b))
        # nine rounds of one call per size, so that a host slow spell
        # slows every size alike instead of reading as a doubling cliff
        times = [[] for _ in pairs]
        for _ in range(9):
            for ts, (x, y) in zip(times, pairs):
                t0 = time.perf_counter()
                mul_fafft(x, y)
                ts.append(time.perf_counter() - t0)
        meds = [statistics.median(ts) for ts in times]
        ratios = [meds[i + 1] / meds[i] for i in range(len(meds) - 1)]
        assert max(ratios) <= 2.5
        ts = []
        for _ in range(3):
            # a, b still hold the largest-size operands
            t0 = time.perf_counter()
            mul_schoolbook(a, b)
            ts.append(time.perf_counter() - t0)
        base = statistics.median(ts)
        assert meds[-1] < base
        return (
            f"max doubling ratio {max(ratios):.2f}; 2^20 bits: "
            f"{meds[-1] * 1e3:.0f} ms vs schoolbook {base * 1e3:.0f} ms"
        )

    _run(acceptance_log, "c7 runtime scaling", 300.0, body)


def test_c8_roundtrips(acceptance_log):
    """Basis conversion and the transform both invert exactly."""

    def body():
        eng, lay = _engines()
        rng = random.Random(0xC8)
        for i in range(1000):
            m = 1 + i % 16
            n = 1 << m
            f = rng.getrandbits(n)
            assert from_novel(to_novel(f, n), n) == f
        for i in range(1000):
            m = 1 + i % 12
            n = 1 << m
            f = rng.getrandbits(n)
            if m <= 8:
                res = eng.faft(f, m)
                assert eng.ifaft(res.values, m) == f
            else:
                g = to_novel(f, n)
                lanes = lay.forward(lay.bits_to_lanes(g, n), m)
                back = lay.lanes_to_bits(lay.inverse(lanes, m))
                assert from_novel(back, n) == f
        return "1000 basis + 1000 transform roundtrips"

    _run(acceptance_log, "c8 roundtrips", 10.0, body)
