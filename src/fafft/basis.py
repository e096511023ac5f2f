"""Conversion between the monomial basis and the subspace-product basis.

Basis element X_t is the product of the subspace polynomials s_i selected by
the binary digits of t, so X_t has degree t and the first 2^k elements span
exactly the polynomials of degree below 2^k.  Conversion of a length-2^m
coefficient vector takes k, the largest power of two below m, rewrites the
input in radix y = s_k(x) = x^(2^k) + x, converts the outer vector of
y-coefficients, then converts each y-coefficient in place.
_levels flattens that recursion into one list of radix levels, which
_convert walks here and circuit.gen_mul_circuit walks on wires.

Everything here operates on a GF(2) vector packed in one int, bit i the
coefficient of slot i.  The radix rewrite is a fold: dividing by
y^A = x^(2H) + x^A (H and A in slots, A = H / 2^k <= H / 2) moves the top
half down by H - A slots at most twice before the remainder settles, and
because the fold is oblivious to the data it runs on every block of the
packed vector simultaneously under a periodic mask.  No per-block Python
loop survives.

reference.to_novel_by_division is the straightforward quadratic rewrite
(long division by the full s_k), kept as the tests' cross-check.
"""

from __future__ import annotations

from functools import lru_cache

from .field import _as_int

__all__ = ["to_novel", "from_novel"]


@lru_cache(maxsize=256)
def _high_mask(total: int, seg: int) -> int:
    """Mask selecting the high half of every seg-bit segment of a total-bit int."""
    h = seg >> 1
    p = ((1 << h) - 1) << h
    span = seg
    while span < total:
        p |= p << span
        span <<= 1
    return p


@lru_cache(maxsize=None)
def _levels(m: int) -> tuple[tuple[int, int, int], ...]:
    """Radix levels (mu, k, s) of the conversion at 2^m slots, in forward
    order: level (mu, k, s) rewrites every segment of 2^mu units of 2^s
    slots in radix y = s_k(x)."""
    if m <= 1:
        return ()
    k = 1 << ((m - 1).bit_length() - 1)
    outer = tuple((mu, kk, s + k) for mu, kk, s in _levels(m - k))
    return tuple((mu, k, 0) for mu in range(m, k, -1)) + outer + _levels(k)


def _radix_fwd(f: int, high: int, d: int) -> int:
    """Write every segment of f as q * y^A + r, y^A = x^(2H) + x^A, and
    store [r | q].

    high masks the high half of every segment, and d = H - A in bits; f ^ h
    is then the low halves, as f has no bits past the mask.  With
    f = [r0 | q], the first fold adds q x^A into the low half and may carry
    bits past it; a second fold of that carry settles r, since A <= H/2,
    and the carry joins the quotient.
    """
    h = f & high
    r = f ^ h ^ (h >> d)
    return r ^ ((r & high) >> d) ^ h


def _radix_inv(f: int, high: int, d: int) -> int:
    """Undo _radix_fwd: rebuild q * (x^(2H) + x^A) + r."""
    return f ^ ((f & high) >> d)


def to_novel(f: int, n: int) -> int:
    """Convert a GF(2)[x] polynomial of length n, bit i the coeff of x^i,
    to the subspace-product basis."""
    return _convert(f, n, forward=True)


def from_novel(g: int, n: int) -> int:
    """Inverse of to_novel."""
    return _convert(g, n, forward=False)


def _check_packed(f: int, n: int) -> tuple[int, int]:
    """f and n as Python ints; TypeError unless integers, ValueError
    unless n is a power of two and f fits n bits."""
    f, n = _as_int(f, "a coefficient vector"), _as_int(n, "the vector length")
    if n < 1 or n & (n - 1):
        raise ValueError(f"vector length {n} is not a power of two")
    if f < 0 or f.bit_length() > n:
        raise ValueError("coefficient vector overflows the stated length")
    return f, n


def _convert(f: int, n: int, forward: bool) -> int:
    """Convert the n-bit vector f: the levels of _levels(lg n) in order, or
    their inverses in reverse order."""
    f, n = _check_packed(f, n)
    m = (n - 1).bit_length()
    for mu, k, s in _levels(m) if forward else reversed(_levels(m)):
        hb = 1 << (s + mu - 1)
        d = hb - (1 << (s + mu - 1 - k))
        high = _high_mask(n, 2 * hb)
        f = _radix_fwd(f, high, d) if forward else _radix_inv(f, high, d)
    return f
