"""Circuit generation, serialization, and verification."""

import random

import pytest

from fafft.circuit import (
    Circuit,
    _paar_reduce,
    eval_slp,
    gen_mul_circuit,
    parse_slp,
    verify_slp,
)
from fafft.mul import mul_schoolbook


def test_n1_is_single_and():
    c = gen_mul_circuit(1)
    assert c.and_count == 1
    assert c.xor_count == 0
    assert len(c.outputs) == 1
    r = verify_slp(c)
    assert r.ok and r.exhaustive


def test_paar_shared_pair_extracted():
    # two identical rows of weight w cost w-1 once, plus one free reuse
    rows = (0b1111, 0b1111)
    steps, outs = _paar_reduce(rows, 4)
    cost = len(steps) + sum(max(len(o) - 1, 0) for o in outs)
    assert cost == 3
    # overlapping rows share exactly the common pair
    rows = (0b0111, 0b1110)
    steps, outs = _paar_reduce(rows, 4)
    assert len(steps) == 1
    assert steps[0] == (1, 2)


def test_paar_preserves_function():
    rng = random.Random(71)
    for _ in range(50):
        w = rng.choice((2, 3, 4, 6, 8))
        nrows = rng.randrange(1, 9)
        rows = tuple(rng.getrandbits(w) for _ in range(nrows))
        steps, outs = _paar_reduce(rows, w)
        # evaluate both forms on random vectors
        for _ in range(10):
            x = [rng.getrandbits(1) for _ in range(w)]
            vals = list(x)
            for i, j in steps:
                vals.append(vals[i] ^ vals[j])
            for row, cols in zip(rows, outs):
                want = 0
                for c in range(w):
                    if (row >> c) & 1:
                        want ^= x[c]
                got = 0
                for c in cols:
                    got ^= vals[c]
                assert got == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
def test_small_circuits_exhaustive(n):
    c = gen_mul_circuit(n)
    r = verify_slp(c)
    assert r.exhaustive
    assert r.ok, r.failures[:3]


def test_medium_circuit_random(n=40):
    c = gen_mul_circuit(n)
    r = verify_slp(c, trials=2000, seed=5)
    assert not r.exhaustive
    assert r.ok, r.failures[:3]


def test_outputs_match_schoolbook_directly():
    rng = random.Random(72)
    n = 16
    c = gen_mul_circuit(n)
    for _ in range(30):
        a = rng.getrandbits(n)
        b = rng.getrandbits(n)
        outs = eval_slp(c, [(a >> i) & 1 for i in range(n)], [(b >> i) & 1 for i in range(n)])
        got = 0
        for k, bit in enumerate(outs):
            got |= bit << k
        assert got == mul_schoolbook(a, b)


def test_and_gates_only_in_lane_products():
    from fafft.transform import FaftEngine

    for n in (8, 16, 33):
        c = gen_mul_circuit(n)
        m = (2 * n - 2).bit_length()
        eng = FaftEngine(6)
        want = sum(3 ** (p.orbit.bit_length() - 1) for p in eng.cross_section(m))
        assert c.and_count == want


def test_cse_never_hurts():
    for n in (4, 16, 40):
        with_cse = gen_mul_circuit(n, cse=True)
        without = gen_mul_circuit(n, cse=False)
        assert with_cse.and_count == without.and_count
        assert with_cse.xor_count <= without.xor_count
        assert verify_slp(without, trials=500).ok


# Exact (AND, XOR) totals with and without CSE, so that a change to the
# generator cannot move them unnoticed.
_PINNED_GATES = {
    4: ((10, 46), (10, 46)),
    16: ((86, 602), (86, 616)),
    33: ((410, 3825), (410, 4071)),
    128: ((842, 10972), (842, 11863)),
    256: ((2138, 27495), (2138, 29936)),
}


@pytest.mark.parametrize("n", sorted(_PINNED_GATES))
def test_pinned_gate_counts(n):
    for cse, want in zip((True, False), _PINNED_GATES[n]):
        c = gen_mul_circuit(n, cse=cse)
        assert (c.and_count, c.xor_count) == want


def test_slp_roundtrip():
    c = gen_mul_circuit(12)
    text = c.to_slp()
    c2 = parse_slp(text)
    assert c2.n == c.n
    assert c2.gates == c.gates
    assert c2.outputs == c.outputs
    assert c2.to_slp() == text


def test_slp_header_format():
    c = gen_mul_circuit(3)
    head = c.to_slp().splitlines()[0]
    assert head == f"SLP n=3 and={c.and_count} xor={c.xor_count}"


def test_parse_rejects_malformed():
    good = gen_mul_circuit(2).to_slp()
    with pytest.raises(ValueError):
        parse_slp(good.replace("SLP ", "XLP ", 1))
    with pytest.raises(ValueError):
        parse_slp(good.replace("and=", "and=9", 1))
    lines = good.splitlines()
    lines[1] = lines[1].replace("= AND", "= NAND").replace("= XOR", "= NOR")
    with pytest.raises(ValueError):
        parse_slp("\n".join(lines))
    n_gates = sum(ln.startswith("t") for ln in good.splitlines())

    def rebind_c0(wire):
        return good.replace(good[good.index("c0 = ") :].split("\n", 1)[0], f"c0 = {wire}")

    for text in (
        "",
        good.replace("n=2 ", "", 1),  # header without n=
        "SLP n=0 and=0 xor=0\n",
        "SLP n=1000000 and=0 xor=0\nc0 = ZERO\n",  # too few lines to bind 2n - 1 outputs
        good + "c3 = ZERO\n",  # outputs are c0..c2 for n = 2
        good + "c-1 = ZERO\n",
        rebind_c0("a7"),
        rebind_c0("b2"),
        rebind_c0(f"t{n_gates}"),  # past the last gate
        good + "c0 = ZERO\n",  # bound twice
        "SLP n=1 and=0 xor=0\nc0 =\n",
    ):
        with pytest.raises(ValueError):
            parse_slp(text)
    assert parse_slp(rebind_c0("a1")).outputs[0] == 2


def test_verify_catches_mutation():
    c = gen_mul_circuit(6)
    assert verify_slp(c).ok
    # flip one gate's op
    for i, (op, x, y) in enumerate(c.gates):
        if op == "XOR" and x != 0:
            broken = Circuit(c.n, c.gates[:i] + [("AND", x, y)] + c.gates[i + 1 :], c.outputs)
            break
    r = verify_slp(broken)
    assert not r.ok
    assert r.failures


def test_verify_catches_swapped_outputs():
    c = gen_mul_circuit(5)
    outs = list(c.outputs)
    outs[2], outs[3] = outs[3], outs[2]
    r = verify_slp(Circuit(c.n, c.gates, outs))
    assert not r.ok


def test_gate_refs_are_topological():
    c = gen_mul_circuit(20)
    n = c.n
    for i, (op, x, y) in enumerate(c.gates):
        assert 0 <= x <= 2 * n + i
        assert 0 <= y <= 2 * n + i


def test_verify_rejects_negative_trials():
    c = gen_mul_circuit(6)
    assert verify_slp(c, trials=0).ok
    with pytest.raises(ValueError):
        verify_slp(c, trials=-1)


def test_bad_n():
    with pytest.raises(ValueError):
        gen_mul_circuit(0)


def test_eval_rejects_wrong_operand_width():
    c = gen_mul_circuit(2)
    assert eval_slp(c, [1, 1], [1, 0]) == [1, 1, 0]  # (1 + x) * 1
    for a_bits, b_bits in (([1, 1, 0], [1, 0]), ([1, 1], [1]), ([], [])):
        with pytest.raises(ValueError):
            eval_slp(c, a_bits, b_bits)
