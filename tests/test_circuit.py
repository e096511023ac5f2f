"""Circuit generation, serialization, and verification."""

import hashlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fafft.basis import _convert, from_novel, to_novel
from fafft.circuit import (
    Circuit,
    _Builder,
    _dead_code_sweep,
    _paar_reduce,
    _Wires,
    _template,
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


def _cols(rows: tuple[int, ...], w: int) -> list[int]:
    """The w columns of a matrix given by its rows: bit r of column c is
    bit c of rows[r]."""
    return [sum((row >> c & 1) << r for r, row in enumerate(rows)) for c in range(w)]


def test_paar_shared_pair_extracted():
    # two identical rows of weight w cost w-1 once, plus one free reuse
    rows = (0b1111, 0b1111)
    steps, outs = _paar_reduce(_cols(rows, 4), len(rows))
    cost = len(steps) + sum(max(len(o) - 1, 0) for o in outs)
    assert cost == 3
    # overlapping rows share exactly the common pair
    rows = (0b0111, 0b1110)
    steps, outs = _paar_reduce(_cols(rows, 4), len(rows))
    assert len(steps) == 1
    assert steps[0] == (1, 2)


def test_paar_keeps_zero_rows():
    # rows no column reads still get their (empty) output
    assert _paar_reduce([0, 0], 3) == ((), ((), (), ()))


def test_paar_preserves_function():
    rng = random.Random(71)
    for _ in range(50):
        w = rng.choice((2, 3, 4, 6, 8))
        nrows = rng.randrange(1, 9)
        rows = tuple(rng.getrandbits(w) for _ in range(nrows))
        steps, outs = _paar_reduce(_cols(rows, w), nrows)
        assert len(outs) == nrows
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


def test_dead_code_sweep():
    # n = 2: ZERO, a0 a1 = 1 2, b0 b1 = 3 4, gate i is ref 5 + i
    gates = [
        ("XOR", 1, 3),  # 5: a dead chain ...
        ("AND", 5, 2),  # 6
        ("XOR", 6, 4),  # 7
        ("AND", 1, 3),  # 8: live
        ("XOR", 7, 8),  # 9: dead, reads the chain and a live gate
        ("XOR", 2, 8),  # 10: live, after the dead ones
    ]
    new_gates, outputs = _dead_code_sweep(2, gates, [10, 2, 0])
    assert new_gates == [("AND", 1, 3), ("XOR", 2, 5)]
    assert outputs == [6, 2, 0]


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
    from fafft.reference import FaftEngine

    for n in (8, 16, 33):
        c = gen_mul_circuit(n)
        m = (2 * n - 2).bit_length()
        eng = FaftEngine(6)
        want = sum(3 ** (p.orbit.bit_length() - 1) for p in eng.cross_section(m))
        assert c.and_count == want


def _bitslice(vectors: list[int], n: int) -> list[int]:
    """Slot i of every n-bit vector, trial t in bit t."""
    return [sum((v >> i & 1) << t for t, v in enumerate(vectors)) for i in range(n)]


@pytest.mark.parametrize("m", range(12))
def test_conversion_on_wires_matches_basis(m):
    # basis._convert run on wire refs emits an XOR network whose slot j,
    # replayed on a vector, is slot j of to_novel (from_novel) of it
    n = 1 << m
    rng = random.Random(m)
    vectors = [rng.getrandbits(n) for _ in range(64)]
    for forward, convert in ((True, to_novel), (False, from_novel)):
        bld = _Builder(n)
        out = _convert(_Wires(bld, list(range(1, n + 1))), n, forward)
        wires = [0] + _bitslice(vectors, n) + [0] * n  # b's refs stay unread
        for op, x, y in bld.gates:
            assert op == "XOR"
            wires.append(wires[x] ^ wires[y])
        got = [wires[r] for r in out.refs]
        assert got == _bitslice([convert(v, n) for v in vectors], n)


def test_builder_stores_each_gate_once():
    bld = _Builder(2)  # refs 1, 2 are a, 3, 4 are b; gates start at 5
    assert bld.xor(1, 1) == 0 and bld.xor(3, 0) == 3 and bld.xor(0, 3) == 3
    assert bld.gates == {}
    t = bld.xor(1, 3)
    assert bld.xor(3, 1) == bld.xor(1, 3) == t == 5
    u = bld.and_(4, 2)
    assert bld.and_(2, 4) == u == 6
    v = bld.xor(t, u)
    assert list(bld.gates) == [("XOR", 1, 3), ("AND", 2, 4), ("XOR", 5, 6)]
    assert list(bld.gates.values()) == [t, u, v] == [5, 6, 7]


# Exact (AND, XOR) totals, so that a change to the generator cannot move
# them unnoticed.
_PINNED_GATES = {
    4: (10, 46),
    16: (86, 602),
    33: (410, 3825),
    128: (842, 10972),
    256: (2138, 27495),
}


@pytest.mark.parametrize("n", sorted(_PINNED_GATES))
def test_pinned_gate_counts(n):
    c = gen_mul_circuit(n)
    assert (c.and_count, c.xor_count) == _PINNED_GATES[n]


# SHA-256 of the whole SLP text: equal gate counts do not pin the gates'
# order or operands, and the text must not change unless the generator is
# meant to.
_PINNED_SLP_SHA256 = {
    5: "f3e24827c0f6bf755444627ba61f75d3f55ee24023144ec14382ccf8198b31c4",
    17: "630bdc30a3895a09ae7e3dfa5430ad63dc2f37ff16f6a8e906e79c7734bb7809",
    64: "f4b32e5088c7b6e3ca0366dcd6b6fd1e7278ecd3d24ee78ab2748e9c88b6ddc7",
    100: "dffc640ecc3c48330d71249e2e6a69fbe9b8528469ea68a7a12965dbb7672aba",
    256: "d9e7dfb08838270a1c97680920c70fa762c0947f9d95a5257687932ee0cf662a",
}


@pytest.mark.parametrize("n", sorted(_PINNED_SLP_SHA256))
def test_pinned_slp_text(n):
    text = gen_mul_circuit(n).to_slp()
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_SLP_SHA256[n]


def test_templates_outlive_a_call():
    # the constant-multiply templates are cached across calls: a warm
    # generation builds none and emits the same circuit as a cold one
    for n in (33, 65):
        _template.cache_clear()
        cold = gen_mul_circuit(n)
        built = _template.cache_info().misses
        warm = gen_mul_circuit(n)
        assert _template.cache_info().misses == built
        assert (warm.gates, warm.outputs) == (cold.gates, cold.outputs)


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
        # indices and counts are ASCII decimal digits only; int() alone
        # would read each of these as a number
        rebind_c0("a0_0"),
        rebind_c0("a\u0660"),  # ARABIC-INDIC DIGIT ZERO
        rebind_c0("a+1"),
        good.replace("t0 = ", "t+0 = ", 1),
        good.replace("c0 = ", "c-0 = ", 1),
        "SLP n=+1 and=0 xor=0\nc0 = ZERO\n",
        "SLP n=1 and=-0 xor=0\nc0 = ZERO\n",
        "SLP n=1 and=0 xor=0_0\nc0 = ZERO\n",
        "SLP n=1 and=-1 xor=0 and=0\nc0 = ZERO\n",  # a field given twice
    ):
        with pytest.raises(ValueError):
            parse_slp(text)
    # unknown header keys, each over a valid 1-bit body
    one = gen_mul_circuit(1).to_slp()
    assert one.startswith("SLP n=1 and=1 xor=0\n")
    for token, text in (
        ("foo=1", one.replace("xor=0", "xor=0 foo=1", 1)),
        ("nn=4", one.replace("SLP ", "SLP nn=4 ", 1)),
    ):
        with pytest.raises(ValueError, match=f"bad header field '{token}'"):
            parse_slp(text)
    # lines of the wrong shape name themselves
    gate = "t0 = AND a0 b0"
    for line in ("t0 AND a0 b0", "c0", "t0 = AND a0", "t0 = AND a0 b0 b0"):
        with pytest.raises(ValueError, match=re.escape(repr(line))):
            parse_slp(f"SLP n=1 and=1 xor=0\n{gate}\n{line}\nc0 = t0\n")
    with pytest.raises(ValueError, match="'foo'"):
        parse_slp(f"SLP n=1 and=1 xor=0 foo\n{gate}\nc0 = t0\n")
    assert parse_slp(rebind_c0("a1")).outputs[0] == 2
    assert parse_slp("SLP n=1 and=0 xor=0\nc0 = ZERO\n").outputs == [0]


# Mutations of valid SLP texts: single characters, including signs,
# underscores, non-ASCII digits and a NUL, and whole tokens, some of them
# indices that int() would read as numbers.
_SLP_TEXTS = [gen_mul_circuit(n).to_slp() for n in (1, 2, 3)]
_CHARS = "0123456789abctxnd=AXORZS -+_\n\t\u0660\u00b2\x00"
_TOKENS = ["AND", "XOR", "ZERO", "SLP", "=", "a0", "b1", "t0", "t99", "c0", "c9", "n=2",
           "and=3", "xor=-1", "+1", "a+0", "b0_0", "t\u0660", "c+1", "\n"]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_parse_mutated_slp_raises_only_value_error(data):
    text = data.draw(st.sampled_from(_SLP_TEXTS))
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        kind = data.draw(st.sampled_from(("insert", "delete", "replace")))
        if data.draw(st.booleans(), label="by token"):
            parts = re.split(r"(\s+)", text)  # tokens at even indices
            i = 2 * data.draw(st.integers(0, len(parts) // 2))
            new = "" if kind == "delete" else data.draw(st.sampled_from(_TOKENS))
            parts[i] = new + " " + parts[i] if kind == "insert" else new
            text = "".join(parts)
        else:
            i = data.draw(st.integers(0, len(text)))
            new = "" if kind == "delete" else data.draw(st.sampled_from(_CHARS))
            text = text[:i] + new + text[i + (kind != "insert") :]
    try:
        circ = parse_slp(text)
    except ValueError:
        return
    # whatever parses is a well-formed circuit: it survives its own text
    # form, and its text spells every index and count in ASCII digits
    again = parse_slp(circ.to_slp())
    assert (again.n, again.gates, again.outputs) == (circ.n, circ.gates, circ.outputs)
    head, *body = [ln for ln in text.splitlines() if ln.strip()]
    for kv in head.split()[1:]:
        key, value = kv.split("=", 1)
        assert key not in ("n", "and", "xor") or re.fullmatch("[0-9]+", value)
    for ln in body:
        lhs, rhs = ln.split("=", 1)
        assert re.fullmatch("[tc][0-9]+", lhs.strip())
        assert all(re.fullmatch("AND|XOR|ZERO|[abt][0-9]+", tok) for tok in rhs.split())


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
