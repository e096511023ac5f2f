"""Seeded inputs of the three workloads.

This module imports nothing from fafft, so the set-up probe can build the
same inputs before it times ``import fafft``.  The same workload name and
seed always give the same operands, the same order and the same circuit
sizes.

Every mul op is ``(cls, key, a, b)``: ``cls`` is the size class m (the
product fits in 2^m bits), ``key`` indexes the distinct operand pair, whose
product is checked once against the oracle.  Every circuit op is
``(n, key)``.
"""

from __future__ import annotations

import random

MUL_LARGE_M = (17, 18, 19, 20)
MUL_LARGE_PAIRS = 2  # distinct operand pairs per size, used in turn
MUL_SMALL_M = tuple(range(6, 15))
MUL_SMALL_POOL = 1500  # distinct operand pairs, cycled in order
CIRCUIT_N = (128, 256, 512, 1024)
CIRCUIT_TRIALS = 200  # random verify_slp trials per circuit, plus n + 5 edge patterns
# Sizes at which the set-up probe times the first gen_mul_circuit call over
# the second.  The generator's lazy state (its FaftEngine) is per process,
# not per size, and at 512 and 1024 a one-off call takes 0.5 to 2 s, so the
# host's speed drift between two such calls would swamp the difference.
CIRCUIT_SETUP_N = (128, 256)

WORKLOADS = ("mul-large", "mul-small", "circuit")

# Enough rounds for any run up to 60 s; a run stops at its
# deadline long before the schedule runs out.
_ROUNDS = 4096


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def operands(rng: random.Random, la: int, lb: int) -> tuple[int, int]:
    """Polynomials of exactly la and lb coefficients (top bits set)."""
    a = rng.getrandbits(la) | (1 << (la - 1))
    b = rng.getrandbits(lb) | (1 << (lb - 1))
    return a, b


def mul_large(seed: int):
    """Pairs of 2^(m-1)-bit operands per m, and rounds of one product per m
    in shuffled order, the pairs of a size taking turns."""
    rng = _rng("mul-large", seed)
    pairs = {}
    for m in MUL_LARGE_M:
        for p in range(MUL_LARGE_PAIRS):
            pairs[(m, p)] = operands(rng, 1 << (m - 1), 1 << (m - 1))
    rounds = []
    for r in range(_ROUNDS):
        order = list(MUL_LARGE_M)
        rng.shuffle(order)
        rounds.append(
            [(m, (m, r % MUL_LARGE_PAIRS), *pairs[(m, r % MUL_LARGE_PAIRS)]) for m in order]
        )
    return rounds


def mul_small(seed: int):
    """A pool of products like the c3 acceptance stream: m uniform in 6..14,
    product length uniform in (2^(m-1), 2^m], random split between the two
    operand lengths.  Each round is one product; the pool repeats."""
    rng = _rng("mul-small", seed)
    pool = []
    for key in range(MUL_SMALL_POOL):
        m = rng.choice(MUL_SMALL_M)
        length = rng.randint((1 << (m - 1)) + 1, 1 << m)
        la = rng.randint(1, length)
        pool.append((m, key, *operands(rng, la, length + 1 - la)))
    return [[op] for op in pool]


def circuit(seed: int):
    """Passes over all circuit sizes in shuffled order; the key seeds the
    random trials of verify_slp."""
    rng = _rng("circuit", seed)
    rounds = []
    for r in range(_ROUNDS):
        order = list(CIRCUIT_N)
        rng.shuffle(order)
        rounds.append([(n, rng.getrandbits(32)) for n in order])
    return rounds


def rounds(workload: str, seed: int):
    return {"mul-large": mul_large, "mul-small": mul_small, "circuit": circuit}[workload](seed)


def first_of_each_class(rounds_) -> list:
    """The first op of every size class, in order of appearance."""
    seen = {}
    for rnd in rounds_:
        for op in rnd:
            seen.setdefault(op[0], op)
    return list(seen.values())
