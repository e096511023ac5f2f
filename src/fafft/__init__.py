"""Frobenius additive FFT over Cantor bases.

The package multiplies polynomials over GF(2) by evaluating them at one
representative per Frobenius orbit instead of at every point of an
affine subspace, and it can emit the whole pipeline as a verified
straight-line XOR/AND circuit.

Layering, bottom up:

- ``field``: the Cantor tower GF(2^(2^K)) with elements packed in ints.
- ``subspace``: vanishing polynomials of the spanned subspaces and the
  twiddle constants they induce.
- ``basis``: change of basis between monomial and subspace-product
  coefficients, packed over machine words.
- ``transform``: ``schedule(m)``, the pruned tree written out once per
  depth for every tower height, which cross sections, operation counts,
  ``engine`` and ``circuit`` all read, and ``twiddles(m)``, its twiddles
  per depth, which only ``engine`` and ``circuit`` read.
- ``engine``: the vectorised evaluator that runs the schedule depth by
  depth for bulk multiplication.
- ``mul``: carryless multiplication entry points and baselines.
- ``circuit``: straight-line program generation (the schedule and the
  basis conversion levels run on wires), parsing, evaluation, and
  verification.

``reference`` holds the tests' oracle, the recursive transforms and the
quadratic basis conversion; no module above imports it.
"""

from .basis import from_novel, to_novel
from .circuit import (
    Circuit,
    VerifyReport,
    eval_slp,
    gen_mul_circuit,
    parse_slp,
    verify_slp,
)
from .engine import LayeredEngine
from .field import CantorField, binru
from .mul import mul, mul_fafft, mul_karatsuba, mul_schoolbook
from .subspace import TwiddleTable, eval_subspace, subspace_coeffs
from .reference import FaftEngine
from .transform import OpCounters, count_ops, n_cross_section

__version__ = "0.1.0"

__all__ = [
    "CantorField",
    "Circuit",
    "FaftEngine",
    "LayeredEngine",
    "OpCounters",
    "TwiddleTable",
    "VerifyReport",
    "binru",
    "count_ops",
    "eval_slp",
    "eval_subspace",
    "from_novel",
    "gen_mul_circuit",
    "mul",
    "mul_fafft",
    "mul_karatsuba",
    "mul_schoolbook",
    "n_cross_section",
    "parse_slp",
    "subspace_coeffs",
    "to_novel",
    "verify_slp",
    "__version__",
]
