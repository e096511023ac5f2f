"""Bad input at the public entry points: TypeError where an int is due and
something else arrives, ValueError for values outside their domain.  The
multiplication routes' operand types have their own tests in test_mul."""

import numpy as np
import pytest

from fafft import (
    CantorField,
    Circuit,
    FaftEngine,
    LayeredEngine,
    count_ops,
    eval_slp,
    from_novel,
    gen_mul_circuit,
    mul,
    TwiddleTable,
    eval_subspace,
    n_cross_section,
    subspace_coeffs,
    to_novel,
    verify_slp,
)
from fafft.engine import _dtype
from fafft.reference import to_novel_by_division
from fafft.transform import cross_section, schedule, twiddles

LAY = LayeredEngine()
ORACLE = FaftEngine(6)
GF4, GF16 = CantorField(1), CantorField(2)
T1, T2 = TwiddleTable(GF4), TwiddleTable(GF16)
C3 = gen_mul_circuit(3)
C2 = gen_mul_circuit(2)


def leaves(m, value=0, dtype=np.uint64):
    """A leaf vector of size m whose first leaf holds value."""
    x = np.zeros(len(LAY.plan(m).leaf_max), dtype=dtype)
    x[0] = value
    return x


def pointwise(m, value, dtype=np.uint64):
    """A call of pointwise at size m on leaves(m, value, dtype) and zeros."""
    return lambda: LAY.pointwise(leaves(m, value, dtype), leaves(m), m)


BAD = {
    "circuit n bool": (lambda: gen_mul_circuit(True), TypeError, "bool"),
    "circuit n float": (lambda: gen_mul_circuit(1.5), TypeError, "float"),
    "circuit n str": (lambda: gen_mul_circuit("3"), TypeError, "str"),
    "to_novel bool": (lambda: to_novel(True, 4), TypeError, "bool"),
    "to_novel float": (lambda: to_novel(1.0, 4), TypeError, "float"),
    "to_novel length": (lambda: to_novel(1, 4.0), TypeError, "length"),
    "from_novel bool": (lambda: from_novel(1, True), TypeError, "bool"),
    "packed length": (lambda: from_novel(1, np.float64(4)), TypeError, "float64"),
    "division float": (lambda: to_novel_by_division(1.0, 4), TypeError, "float"),
    "field height bool": (lambda: CantorField(True), TypeError, "bool"),
    "field height float": (lambda: CantorField(6.0), TypeError, "float"),
    "field element bool": (lambda: CantorField(6).mul(True, 5), TypeError, "bool"),
    "field element float": (lambda: CantorField(6).mul(3, 5.0), TypeError, "float"),
    "twiddle point bool": (lambda: ORACLE.twiddles.twiddle(0, True), TypeError, "bool"),
    "afft point float": (lambda: ORACLE.afft(1, [0, 1], 1.0), TypeError, "float"),
    "verify trials bool": (lambda: verify_slp(gen_mul_circuit(9), trials=True), TypeError, "bool"),
    "verify trials float": (lambda: verify_slp(gen_mul_circuit(9), trials=2.5), TypeError, "float"),
    "verify circuit int": (lambda: verify_slp(123), TypeError, "int"),
    "eval circuit int": (lambda: eval_slp(123, [1], [1]), TypeError, "int"),
    # Circuit objects that parse_slp would reject as text
    "verify extra output": (
        lambda: verify_slp(Circuit(2, C2.gates, C2.outputs + [5])), ValueError, "3 outputs"
    ),
    "verify short outputs": (
        lambda: verify_slp(Circuit(2, C2.gates, C2.outputs[:2])), ValueError, "3 outputs"
    ),
    "verify output past the wires": (
        lambda: verify_slp(Circuit(2, C2.gates, C2.outputs[:2] + [99])), ValueError, "outputs"
    ),
    "verify negative ref": (
        lambda: verify_slp(Circuit(2, [("AND", -1, 1)] + C2.gates, C2.outputs)),
        ValueError,
        "bad gate t0",
    ),
    "verify forward ref": (
        lambda: verify_slp(Circuit(2, [("AND", 1, 5)] + C2.gates, C2.outputs)),
        ValueError,
        "bad gate t0",
    ),
    "verify op OR": (
        lambda: verify_slp(Circuit(2, C2.gates + [("OR", 1, 2)], C2.outputs)), ValueError, "'OR'"
    ),
    "verify n 0": (lambda: verify_slp(Circuit(0, [], [])), ValueError, "n=0"),
    "eval plane negative": (lambda: eval_slp(C3, [-1, 0, 0], [1, 1, 1]), ValueError, "nonnegative"),
    "eval plane float": (lambda: eval_slp(C3, [1.0, 0, 0], [1, 1, 1]), TypeError, "float"),
    # size exponents are checked before any cache, where True would hit m = 1
    "count_ops bool": (lambda: count_ops(True), TypeError, "bool"),
    "n_cross_section bool": (lambda: n_cross_section(True), TypeError, "bool"),
    "schedule bool": (lambda: schedule(True), TypeError, "bool"),
    "cross_section bool": (lambda: cross_section(True), TypeError, "bool"),
    "cross_section float": (lambda: cross_section(1.0), TypeError, "float"),
    "oracle cross_section bool": (lambda: ORACLE.cross_section(True), TypeError, "bool"),
    "oracle faft bool": (lambda: ORACLE.faft(3, True), TypeError, "bool"),
    "plan bool": (lambda: LAY.plan(True), TypeError, "bool"),
    # twiddles of 64 bits first appear at m = 33, and its schedule outgrows
    # memory: every per-size entry point stops at transform._MAX_M = 32
    "plan 33": (lambda: LAY.plan(33), ValueError, "0..32"),
    "schedule 33": (lambda: schedule(33), ValueError, "0..32"),
    "twiddles 33": (lambda: twiddles(33), ValueError, "0..32"),
    "count_ops 33": (lambda: count_ops(33), ValueError, "0..32"),
    "n_cross_section 33": (lambda: n_cross_section(33), ValueError, "0..32"),
    "cross_section 33": (lambda: cross_section(33), ValueError, "0..32"),
    "oracle cross_section 33": (lambda: ORACLE.cross_section(33), ValueError, "0..32"),
    # a leaf above its orbit subfield: GF(2^16) logs at m = 9, the byte
    # table at m = 6
    "pointwise 2^20 at m=9": (pointwise(9, 1 << 20), ValueError, "subfield"),
    "pointwise 300 at m=6": (pointwise(6, 300), ValueError, "subfield"),
    "pointwise signed": (pointwise(9, -1, np.int64), ValueError, "unsigned"),
    "pointwise float": (pointwise(9, 1, np.float64), ValueError, "unsigned"),
    "pointwise bool": (pointwise(3, True, bool), ValueError, "unsigned"),
    "inverse signed": (lambda: LAY.inverse(leaves(9, 0, np.int64), 9), ValueError, "unsigned"),
    # indices that would wrap around or run off the rows, and an element
    # that s_0 = x would hand back unchecked
    "twiddle value level -1": (lambda: T2.value(-1, 0), ValueError, "level"),
    "twiddle value index -1": (lambda: T2.value(0, -1), ValueError, "index"),
    "twiddle value level d": (lambda: T1.value(2, 0), ValueError, "level"),
    "twiddle value index d": (lambda: T1.value(0, 2), ValueError, "index"),
    "twiddle value float": (lambda: T2.value(0, 1.0), TypeError, "float"),
    "twiddle level bool": (lambda: T1.twiddle(True, 1), TypeError, "bool"),
    "subspace_coeffs bool": (lambda: subspace_coeffs(True), TypeError, "bool"),
    "subspace_coeffs float": (lambda: subspace_coeffs(2.0), TypeError, "float"),
    "eval_subspace 999 in GF(4)": (lambda: eval_subspace(GF4, 0, 999), ValueError, "outside"),
    "eval_subspace negative": (lambda: eval_subspace(GF16, 0, -5), ValueError, "outside"),
    "eval_subspace bool": (lambda: eval_subspace(GF16, 1, True), TypeError, "bool"),
    # mul() takes its route from fafft.mul.ROUTES, and the route checks the
    # operands
    "mul method unknown": (lambda: mul(1, 1, "fft"), ValueError, "unknown method 'fft'"),
    "mul method int": (lambda: mul(1, 1, 3), ValueError, "unknown method 3"),
    "mul method None": (lambda: mul(1, 1, None), ValueError, "unknown method None"),
    "mul method list": (lambda: mul(1, 1, ["fafft"]), ValueError, "unknown method \\['fafft'\\]"),
    "mul operand float": (lambda: mul(1.5, 1), TypeError, "float"),
    "mul operand bool": (lambda: mul(1, True, "schoolbook"), TypeError, "bool"),
    "mul operand str": (lambda: mul("3", 1, "karatsuba"), TypeError, "str"),
    "mul operand negative": (lambda: mul(1, -1, "karatsuba"), ValueError, "nonnegative"),
    "mul operand negative fafft": (lambda: mul(-1, 1), ValueError, "nonnegative"),
    # lane packing kept only the low n bits
    "bits_to_lanes 3 in 1 bit": (lambda: LAY.bits_to_lanes(3, 1), ValueError, "2\\^n"),
    "bits_to_lanes 0xff in 4 bits": (lambda: LAY.bits_to_lanes(0xFF, 4), ValueError, "2\\^n"),
    "bits_to_lanes 2^20 in 8 bits": (lambda: LAY.bits_to_lanes(1 << 20, 8), ValueError, "2\\^n"),
    "bits_to_lanes negative": (lambda: LAY.bits_to_lanes(-1, 8), ValueError, "2\\^n"),
    "bits_to_lanes negative n": (lambda: LAY.bits_to_lanes(0, -1), ValueError, "n >= 0"),
    "bits_to_lanes bool": (lambda: LAY.bits_to_lanes(True, 8), TypeError, "bool"),
    "bits_to_lanes n bool": (lambda: LAY.bits_to_lanes(1, True), TypeError, "bool"),
    "bits_to_lanes float": (lambda: LAY.bits_to_lanes(1.0, 8), TypeError, "float"),
    # two vectors would merge into one int, a scalar into a one-bit one
    "lanes_to_bits 2-D": (lambda: LAY.lanes_to_bits(np.uint8([[1, 0], [1, 1]])), ValueError, "1-D"),
    "lanes_to_bits 0-D": (lambda: LAY.lanes_to_bits(np.array(1, np.uint8)), ValueError, "1-D"),
}


@pytest.mark.parametrize("case", sorted(BAD))
def test_bad_input_raises(case):
    call, exc, match = BAD[case]
    with pytest.raises(exc, match=match):
        call()


def test_integer_likes_accepted():
    # numpy integers stand in for ints, and come back as Python ints
    assert to_novel(np.int64(5), np.uint8(4)) == to_novel(5, 4)
    assert from_novel(np.uint64(3), np.int32(2)) == from_novel(3, 2)
    assert [p.index for p in ORACLE.cross_section(np.int64(2))] == [0, 1, 2]
    m = ORACLE.faft(3, np.uint8(2)).m
    assert m == 2 and type(m) is int
    n = gen_mul_circuit(np.int64(2)).n
    assert n == 2 and type(n) is int
    assert CantorField(np.int64(6)).order == 1 << 64
    f = CantorField(6)
    assert f.mul(np.uint8(3), np.uint8(5)) == 15  # no uint8 wraparound
    assert f.mul(np.int64(300), 5) == f.mul(300, 5)
    assert LAY.bits_to_lanes(np.uint64(5), np.int64(3)).tolist() == [1, 0, 1]
    assert LAY.bits_to_lanes(0, 0).tolist() == []
    assert T1.value(np.int64(1), np.uint8(1)) == 1 and subspace_coeffs(np.int64(2)) == 0b101
    top = LAY.plan(9).leaf_max.astype(np.uint16)  # every leaf at its largest value
    assert LAY.pointwise(top, top, 9).dtype == _dtype(LAY.plan(9).leaf_width)
    # SLP text stands in for the circuit it describes
    assert eval_slp(C3.to_slp(), [5, 3, 6], [1, 7, 2]) == eval_slp(C3, [5, 3, 6], [1, 7, 2])
