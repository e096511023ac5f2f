"""Plain and Frobenius-pruned additive FFTs."""

import random

import pytest

from fafft.basis import to_novel
from fafft.field import binru
from fafft.subspace import eval_subspace
from fafft import transform
from fafft.transform import FaftEngine, OpCounters, count_ops, n_cross_section, schedule


@pytest.fixture(scope="module")
def eng():
    return FaftEngine(6)


def novel_eval_field(field, coeffs, alpha):
    """Direct evaluation: sum of coeffs[t] * X_t(alpha)."""
    r = 0
    for t, c in enumerate(coeffs):
        if c == 0:
            continue
        term = c
        i = 0
        tt = t
        while tt:
            if tt & 1:
                term = field.mul(term, eval_subspace(field, i, alpha))
            tt >>= 1
            i += 1
        r ^= term
    return r


def bits_of(f, n):
    return [(f >> i) & 1 for i in range(n)]


def test_afft_pinned_identity_poly(eng):
    # X_1 = x evaluated over W_2 in index order
    assert eng.afft(2, [0, 1, 0, 0]) == [0, 1, 2, 3]


def test_afft_matches_direct_evaluation(eng):
    rng = random.Random(31)
    for k in range(0, 6):
        n = 1 << k
        coeffs = [rng.randrange(eng.field.order) for _ in range(n)]
        alpha = rng.randrange(eng.field.order)
        vals = eng.afft(k, coeffs, alpha)
        for i in range(n):
            assert vals[i] == novel_eval_field(eng.field, coeffs, alpha ^ i)


def test_afft_iafft_roundtrip(eng):
    rng = random.Random(32)
    for k in range(0, 8):
        n = 1 << k
        coeffs = [rng.randrange(eng.field.order) for _ in range(n)]
        alpha = rng.randrange(eng.field.order)
        assert eng.iafft(k, eng.afft(k, coeffs, alpha), alpha) == coeffs


def test_afft_coset_shift(eng):
    # shifting alpha inside W_k permutes the output slots by XOR
    rng = random.Random(33)
    k = 5
    n = 1 << k
    coeffs = [rng.randrange(eng.field.order) for _ in range(n)]
    base = eng.afft(k, coeffs, 0)
    for alpha in (1, 7, 19, 31):
        shifted = eng.afft(k, coeffs, alpha)
        for i in range(n):
            assert shifted[i] == base[alpha ^ i]


def test_fafft_pinned_small(eng):
    # f = 1 + x: values 1, 0, 3 at points 0, 1, 2
    leaves = eng.fafft_leaves(2, [1, 1, 0, 0])
    assert leaves == [1, 0, 3]
    pts = eng.cross_section(2)
    assert [p.index for p in pts] == [0, 1, 2]


def test_cross_section_golden_m5(eng):
    pts = eng.cross_section(5)
    assert [p.index for p in pts] == [0, 1, 2, 4, 8, 9, 16, 18]
    assert [p.level for p in pts] == [0, 1, 2, 3, 4, 4, 5, 5]
    assert [p.orbit for p in pts] == [1, 1, 2, 4, 4, 4, 8, 8]


def test_cross_section_level_is_bit_length(eng):
    for m in range(0, 13):
        for p in eng.cross_section(m):
            assert p.level == p.index.bit_length()
            assert p.orbit == binru(p.level)


def test_cross_section_size_formula(eng):
    for m in range(1, 17):
        want = 2
        for i in range(2, m + 1):
            want += 1 << (i - 2 - (i - 1).bit_length() + 1)
        got = n_cross_section(m)
        assert got == want
        if m <= 12:
            assert len(eng.cross_section(m)) == got


def test_orbits_partition_the_space(eng):
    frob = eng.field.frobenius
    for m in range(0, 13):
        seen = set()
        total = 0
        for p in eng.cross_section(m):
            x = p.index
            for _ in range(p.orbit):
                assert x not in seen
                seen.add(x)
                x = frob(x)
            assert x == p.index  # orbit size is exact, not a multiple
            total += p.orbit
        assert total == 1 << m
        assert seen == set(range(1 << m))


def test_fafft_agrees_with_full_afft(eng):
    rng = random.Random(34)
    for m in range(0, 9):
        n = 1 << m
        f = rng.getrandbits(n) if n > 1 else 1
        coeffs = bits_of(to_novel(f, n), n)
        full = eng.afft(m, coeffs)
        leaves = eng.fafft_leaves(m, coeffs)
        pts = eng.cross_section(m)
        assert len(leaves) == len(pts)
        for p, v in zip(pts, leaves):
            assert v == full[p.index]


def test_leaf_values_live_in_orbit_subfield(eng):
    rng = random.Random(35)
    for m in range(1, 10):
        n = 1 << m
        coeffs = bits_of(to_novel(rng.getrandbits(n), n), n)
        leaves = eng.fafft_leaves(m, coeffs)
        for p, v in zip(eng.cross_section(m), leaves):
            assert v < (1 << p.orbit)


def test_expand_matches_full_afft(eng):
    rng = random.Random(36)
    for m in range(2, 9):
        n = 1 << m
        coeffs = bits_of(to_novel(rng.getrandbits(n), n), n)
        full = eng.afft(m, coeffs)
        expanded = eng.expand_to_full_aft(m, eng.fafft_leaves(m, coeffs))
        assert expanded == full


def test_expand_rejects_values_outside_orbit_subfield(eng):
    with pytest.raises(ValueError):
        eng.expand_to_full_aft(0, [2])
    rng = random.Random(36)
    m = 5
    pts = eng.cross_section(m)
    for i, pt in enumerate(pts):
        values = [rng.getrandbits(p.orbit) for p in pts]
        values[i] = 1 << pt.orbit
        with pytest.raises(ValueError):
            eng.expand_to_full_aft(m, values)
        values[i] = -1
        with pytest.raises(ValueError):
            eng.expand_to_full_aft(m, values)


def test_schedule_matches_recursive_walk(eng):
    def walk(k, l, alpha, depth, out):
        out[depth].append((alpha, l))
        if k == 0:
            return
        if l > 0 and l & (l - 1) == 0:
            walk(k - 1, l + 1, alpha, depth + 1, out)
            return
        walk(k - 1, 0 if l == 0 else l + 1, alpha, depth + 1, out)
        walk(k - 1, 1 if l == 0 else l + 1, alpha ^ (1 << (k - 1)), depth + 1, out)

    for m in range(0, 13):
        want = [[] for _ in range(m + 1)]
        walk(m, 0, 0, 0, want)
        sched = schedule(m)
        assert len(sched) == m + 1
        for depth, d in enumerate(sched):
            assert list(zip(d.alpha.tolist(), d.l.tolist())) == want[depth]
            assert d.width.tolist() == [binru(l) for _, l in want[depth]]
            assert d.trunc.tolist() == [l > 0 and l & (l - 1) == 0 for _, l in want[depth]]
            for alpha, l, _, trunc, tw, c in d.segments():
                if depth == m:
                    assert (tw, c) == (0, 0)
                    continue
                assert tw == eng.twiddles.twiddle(m - depth - 1, alpha)
                if trunc:  # tw = v_l + c with c in GF(2^l)
                    assert c == tw ^ (1 << l) and c >> l == 0
                else:
                    assert c == tw


def test_schedule_rejects_twiddle_without_unit_top(monkeypatch):
    rows = transform._twiddle_rows().copy()
    rows[0, 1] ^= 2  # s_0(v_1) = v_1 no longer: the state-1 segment at m = 2 breaks
    monkeypatch.setattr(transform, "_twiddle_rows", lambda: rows)
    with pytest.raises(RuntimeError):
        transform.schedule.__wrapped__(2)


def test_ifafft_roundtrip(eng):
    rng = random.Random(37)
    for m in range(0, 10):
        n = 1 << m
        coeffs = bits_of(to_novel(rng.getrandbits(n), n), n)
        leaves = eng.fafft_leaves(m, coeffs)
        assert eng.ifafft_leaves(m, leaves) == coeffs


def test_faft_ifaft_roundtrip_poly(eng):
    rng = random.Random(38)
    for m in range(1, 11):
        f = rng.getrandbits(1 << m)
        res = eng.faft(f, m)
        assert eng.ifaft(res.values, m) == f


def test_counters_match_structural_count(eng):
    rng = random.Random(39)
    for m in range(1, 11):
        n = 1 << m
        coeffs = bits_of(to_novel(rng.getrandbits(n), n), n)
        c = OpCounters()
        eng.fafft_leaves(m, coeffs, c)
        s = count_ops(m)
        assert (c.mults, c.adds, c.weighted_mults, c.weighted_adds) == (
            s.mults,
            s.adds,
            s.weighted_mults,
            s.weighted_adds,
        )


def test_inverse_counters_match_forward(eng):
    rng = random.Random(40)
    for m in range(1, 9):
        n = 1 << m
        coeffs = bits_of(to_novel(rng.getrandbits(n), n), n)
        leaves = eng.fafft_leaves(m, coeffs)
        c = OpCounters()
        eng.ifafft_leaves(m, leaves, c)
        s = count_ops(m)
        assert (c.mults, c.adds) == (s.mults, s.adds)


def test_weighted_bounds(eng):
    for m in range(4, 17):
        n = 1 << m
        c = count_ops(m)
        assert c.weighted_mults <= n * m / 2
        assert c.weighted_adds <= 2 * n * m


def test_bad_inputs(eng):
    with pytest.raises(ValueError):
        eng.afft(2, [0, 1, 2])
    with pytest.raises(ValueError):
        eng.afft(-1, [])
    with pytest.raises(ValueError):
        eng.ifafft_leaves(3, [0, 0])
    with pytest.raises(ValueError):
        eng.ifaft([5, 0, 3], 2)
    for m in (-1, 65):
        with pytest.raises(ValueError):
            schedule(m)


def test_faft_checks_size_before_conversion(eng, monkeypatch):
    # to_novel would build 2^m-bit masks; the size check must come first
    def fail(f, n):
        raise AssertionError("to_novel called before the size check")

    monkeypatch.setattr(transform, "to_novel", fail)
    with pytest.raises(ValueError):
        eng.faft(1, 65)
