"""Conversion between the monomial basis and the subspace-product basis.

Basis element X_t is the product of the subspace polynomials s_i selected by
the binary digits of t, so X_t has degree t and the first 2^k elements span
exactly the polynomials of degree below 2^k.  Conversion of a length-2^m
coefficient vector splits off the largest power-of-two block k = binrd(m-1),
rewrites the input in radix y = s_k(x) = x^(2^k) + x, converts the outer
vector of y-coefficients, then converts each y-coefficient in place.
_levels flattens that recursion into one list of radix levels, which
_convert walks here and circuit.gen_mul_circuit walks on wires.

Everything here operates on bit-packed vectors: one int, W bits per
coefficient slot, slot i at bits [i*W, (i+1)*W).  GF(2) polynomials use
W = 1; vectors over an extension field pack each coordinate int into a wider
slot, and since slot addition is XOR in both cases the same routine serves
both.  The radix rewrite is a fold: dividing by y^A = x^(2H) + x^A (H and A
in slots, A = H / 2^k <= H / 2) moves the top half down by H - A slots at
most twice before the remainder settles, and because the fold is oblivious
to the data it runs on every block of the packed vector simultaneously
under a periodic mask.  No per-block Python loop survives.

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


def to_novel(f: int, n: int, w: int = 1) -> int:
    """Convert a coefficient vector of length n, packed w bits per slot, to
    the subspace-product basis; at w = 1 a GF(2)[x] polynomial, bit i the
    coeff of x^i."""
    return _convert(f, n, w, forward=True)


def from_novel(g: int, n: int, w: int = 1) -> int:
    """Inverse of to_novel."""
    return _convert(g, n, w, forward=False)


def _check_packed(f: int, n: int, w: int) -> tuple[int, int, int]:
    """f, n and w as Python ints; TypeError unless integers, ValueError
    unless n is a power of two and f fits n slots of w bits."""
    f, n = _as_int(f, "a coefficient vector"), _as_int(n, "the vector length")
    w = _as_int(w, "the slot width")
    if n < 1 or n & (n - 1):
        raise ValueError(f"vector length {n} is not a power of two")
    if f < 0 or f.bit_length() > n * w:
        raise ValueError("coefficient vector overflows the stated length")
    return f, n, w


def _convert(f: int, n: int, w: int, forward: bool) -> int:
    """Convert the vector f of n slots of w bits: the levels of
    _levels(lg n) in order, or their inverses in reverse order."""
    f, n, w = _check_packed(f, n, w)
    m = (n - 1).bit_length()
    total = n * w
    for mu, k, s in _levels(m) if forward else reversed(_levels(m)):
        hb = w << s << (mu - 1)
        d = hb - (w << s << (mu - 1 - k))
        high = _high_mask(total, 2 * hb)
        f = _radix_fwd(f, high, d) if forward else _radix_inv(f, high, d)
    return f

