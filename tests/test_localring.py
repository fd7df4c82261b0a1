import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from indgl2.errors import CheckFailed, NotDivisible, PrecisionExhausted
from indgl2.localring import (
    DigitString,
    LocalRingCtx,
    RingElem,
    check_translation_table,
    digits,
    divide_by_uniformizer,
    from_digits,
    residue,
    teichmuller,
    translate_digits,
    translation_table,
    witt_carry,
    witt_carry_closed_form,
)
from oracles import make_digits, ring_int, scalar_digits, scalar_value


@pytest.fixture(scope="module")
def q3():
    return LocalRingCtx(3, 1, 1, N=4)


@pytest.fixture(scope="module")
def ram3():
    # ramified quadratic over Q_3, ϖ^2 = 3
    return LocalRingCtx(3, 1, 2, N=5)


@pytest.fixture(scope="module")
def unram9():
    return LocalRingCtx(3, 2, 1, N=3)


def test_coefficient_precision_guard():
    ctx = LocalRingCtx(3, 1, 2, N=5)
    assert ctx.M == 4  # ⌈5/2⌉+1
    assert ctx.e * ctx.M >= ctx.N + 1


def _gr_mul_oracle(ctx, a, b):
    """a·b in GR(p^M, f) = (Z/p^M)[y]/(h), in Python integers."""
    f = ctx.f
    prod = [0] * (2 * f - 1)
    for i in range(f):
        for j in range(f):
            prod[i + j] += int(a[i]) * int(b[j])
    h = [int(c) for c in ctx.h]  # monic, ascending
    for k in range(2 * f - 2, f - 1, -1):
        c, prod[k] = prod[k], 0
        for i in range(f):
            prod[k - f + i] -= c * h[i]
    return [x % ctx.pM for x in prod[:f]]


@pytest.mark.parametrize("p,f,N", [(7, 2, 7), (5, 2, 9), (3, 2, 13), (5, 2, 8), (2, 3, 20)])
def test_gr_mul_matches_integer_oracle(p, f, N):
    # p^{3M} > 2^63 in the first three: an unreduced product would wrap
    ctx = LocalRingCtx(p, f, 1, N=N)
    rng = np.random.default_rng(N)
    for _ in range(500):
        a, b = rng.integers(0, ctx.pM, size=(2, f))
        assert ctx.gr_mul(a, b).tolist() == _gr_mul_oracle(ctx, a, b)


def test_precision_beyond_int64_rejected():
    LocalRingCtx(7, 2, 1, N=10)  # M = 11: 2·(7^11 - 1)^2 < 2^63
    with pytest.raises(ValueError, match="int64"):
        LocalRingCtx(7, 2, 1, N=11)  # M = 12: 2·(7^12 - 1)^2 ≥ 2^63


def test_eisenstein_validation():
    with pytest.raises(ValueError):
        LocalRingCtx(3, 1, 2, E=[-9, 0, 1])  # constant coeff divisible by p^2
    with pytest.raises(ValueError):
        LocalRingCtx(3, 1, 2, E=[-3, 1, 1])  # middle coeff not divisible by p
    LocalRingCtx(3, 1, 2, E=[-3, 3, 1])  # valid: x^2 + 3x - 3


@pytest.mark.parametrize(
    "f, E",
    [(1, [-3, 0, 2]), (1, [-3, 0, [2]]), (2, [[-3, 0], [0, 0], [1, 1]]), (2, [[-3, 0], [0, 0], [1]])],
    ids=["int", "coords-f1", "coords-f2", "coords-short"],
)
def test_eisenstein_lead_must_be_one(f, E):
    # the lead is 1 whether it is written as an integer or as f coordinates
    with pytest.raises(ValueError, match="monic"):
        LocalRingCtx(3, f, 2, E=E)


@pytest.mark.parametrize("f, E", [(1, [-3, 0, [1]]), (2, [[-3, 0], [0, 0], [1, 0]])], ids=["f1", "f2"])
def test_eisenstein_lead_one_as_coordinates(f, E):
    as_int = LocalRingCtx(3, f, 2, E=E[:-1] + [1])
    assert [c.tolist() for c in LocalRingCtx(3, f, 2, E=E).E] == [c.tolist() for c in as_int.E]


def test_defining_relation(ram3):
    pi = ram3.uniformizer()
    assert pi * pi == ring_int(ram3, 3)


def test_custom_eisenstein_relation():
    ctx = LocalRingCtx(3, 1, 2, E=[-3, 3, 1], N=4)
    pi = ctx.uniformizer()
    # ϖ^2 + 3ϖ - 3 = 0
    assert pi * pi + ring_int(ctx, 3) * pi == ring_int(ctx, 3)


class TestTeichmuller:
    def test_idempotents(self, q3):
        fq = q3.field.fq
        assert teichmuller(fq.zero, q3) == q3.zero()
        assert teichmuller(fq.one, q3) == q3.one()

    def test_minus_one_odd_p(self):
        # oracle: [-1] = -1 for odd p, so teichmuller(2) = 8 mod 9
        ctx = LocalRingCtx(3, 1, 1, N=2)
        t = teichmuller(ctx.field.fq.elem(2), ctx)
        assert int(ctx.canon(t.vec, 2)[0, 0]) == 8

    def test_fixed_point_q4(self):
        ctx = LocalRingCtx(2, 2, 1, N=2)
        for lam in ctx.field.enumerate_field("Fq"):
            t = teichmuller(lam, ctx)
            assert t**4 == t

    @pytest.mark.parametrize("p,f,e", [(3, 1, 1), (2, 2, 1), (3, 2, 1), (3, 1, 2), (2, 2, 2)])
    def test_defining_property_and_multiplicativity(self, p, f, e):
        ctx = LocalRingCtx(p, f, e, N=2 * e + 1)
        els = ctx.field.enumerate_field("Fq")
        for a in els:
            t = teichmuller(a, ctx)
            assert t ** ctx.q == t
            assert residue(t) == a
        for a in els:
            for b in els:
                assert teichmuller(a, ctx) * teichmuller(b, ctx) == teichmuller(a * b, ctx)

    def test_cache_does_not_keep_ctx_alive(self):
        ctx = LocalRingCtx(2, 2, 1, N=3)
        lam = ctx.field.fq.elem(2)
        assert teichmuller(lam, ctx) == teichmuller(lam, ctx)  # second call reads the cache
        ref = weakref.ref(ctx)
        del ctx
        gc.collect()
        assert ref() is None


class TestDigits:
    def test_zero(self, q3):
        assert digits(q3.zero(), 3).codes == (0, 0, 0)

    def test_two_in_q3(self):
        # oracle: 2 = [2] + 3·1 + 9·0 since [2] = -1 mod 27 and (2+1)/3 = 1 = [1]
        ctx = LocalRingCtx(3, 1, 1, N=3)
        assert digits(ring_int(ctx, 2), 3).codes == (2, 1, 0)

    def test_ramified_conventions(self, ram3):
        # 3 = ϖ^2 has all-zero digits at level 2; ϖ itself is (0, 1)
        assert digits(ring_int(ram3, 3), 2).codes == (0, 0)
        assert digits(ram3.uniformizer(), 2).codes == (0, 1)

    def test_roundtrip_exhaustive_small(self, q3):
        for n in range(0, 4):
            for val in range(3**n):
                a = ring_int(q3, val)
                d = digits(a, n)
                assert from_digits(d).at_precision(n) == a.at_precision(n)

    @pytest.mark.parametrize("p,f,e,N", [(3, 1, 2, 5), (2, 2, 2, 5), (3, 2, 1, 3), (2, 1, 1, 6)])
    def test_roundtrip_random(self, p, f, e, N):
        rng = np.random.default_rng(7)
        ctx = LocalRingCtx(p, f, e, N=N)
        for _ in range(40):
            vec = rng.integers(0, ctx.pM, size=(e, f))
            a = RingElem(ctx, vec.astype(np.int64), N)
            for n in range(N + 1):
                assert from_digits(digits(a, n)).at_precision(n) == a.at_precision(n)

    @pytest.mark.parametrize("p,f,e,N", [(3, 1, 2, 5), (2, 2, 2, 5), (3, 2, 1, 3), (2, 3, 3, 6), (5, 1, 1, 4)])
    def test_kernels_match_scalar_oracle(self, p, f, e, N):
        # digits, from_digits and divide_by_uniformizer run on the stack kernels with the W and Π
        # matrices; the oracle divides by the element W = p/ϖ and multiplies by ϖ in RingElem arithmetic
        rng = np.random.default_rng(11)
        ctx = LocalRingCtx(p, f, e, N=N)
        pi = ctx.uniformizer()
        for _ in range(20):
            a = RingElem(ctx, rng.integers(0, ctx.pM, size=(e, f)), N)
            want = scalar_digits(a, N)
            assert digits(a, N).codes == want
            assert from_digits(make_digits(ctx, want)) == scalar_value(ctx, want)
            assert divide_by_uniformizer(a * pi) == a.at_precision(N - 1)

    def test_unique_representative(self, ram3):
        # distinct digit strings name distinct classes mod ϖ^n
        seen = {}
        for c0 in range(3):
            for c1 in range(3):
                d = make_digits(ram3, (c0, c1))
                a = from_digits(d)
                key = ram3.canon(a.vec, 2).tobytes()
                assert key not in seen
                seen[key] = d

    def test_precision_exceeded(self, q3):
        a = ring_int(q3, 5).at_precision(2)
        with pytest.raises(PrecisionExhausted):
            digits(a, 3)


def _sampled_ranks(q, n):
    """Every rank of a level with at most 729 keys, else 40 spread over the level."""
    return range(q**n) if q**n <= 729 else np.linspace(0, q**n - 1, 40).astype(int)


def _check_against_digit_expansion(ctx, c, n):
    perm, twist = translation_table(c, n)
    q = ctx.q
    for rank in _sampled_ranks(q, n):
        mu = tuple(int(rank) // q ** (n - 1 - i) % q for i in range(n))
        want = scalar_digits(scalar_value(ctx, mu) + c, n + 1)
        assert translate_digits(c, mu) == (want[:n], want[n])
        assert perm[rank] == sum(d * q ** (n - 1 - i) for i, d in enumerate(want[:n]))
        assert twist[rank] == want[n]


class TestTranslation:
    """[μ] + c = [μ″] + ϖⁿ[t] mod ϖ^{n+1}, against the greedy digit expansion in RingElem arithmetic."""

    @pytest.mark.parametrize(
        "p,f,e",
        [(3, 1, 2), (3, 2, 1), (2, 1, 1), (2, 1, 3), (2, 2, 2), (2, 2, 3), (2, 3, 1), (2, 3, 2), (2, 3, 3)],
    )
    def test_table_matches_digit_expansion(self, p, f, e):
        ctx = LocalRingCtx(p, f, e, N=5)
        pi = ctx.uniformizer()
        lam = teichmuller(ctx.field.fq.elem(ctx.q - 1), ctx)
        unit = ring_int(ctx, 1 + p) + pi  # a unit that is no Teichmüller lift
        for c in (lam, lam * pi, lam * pi * pi, unit):  # valuations 0, 1, 2, 0
            for n in range(5):
                _check_against_digit_expansion(ctx, c, n)

    def test_non_default_eisenstein(self):
        ctx = LocalRingCtx(3, 1, 2, E=[-3, 3, 1], N=5)  # ϖ² + 3ϖ - 3 = 0
        pi = ctx.uniformizer()
        lam = teichmuller(ctx.field.fq.elem(2), ctx)
        for c in (lam, lam * pi, lam * pi * pi, ring_int(ctx, 4) + pi):
            for n in range(5):
                _check_against_digit_expansion(ctx, c, n)

    def test_at_int64_bound(self):
        # f·(p^M - 1)² < 2^63 holds at M = 11 for p = 7, f = 2, while a product summing
        # all e·f terms of a row at once would overflow.  p is odd, so an overflow
        # (a wrap mod 2^64) shows mod p^M.  The Eisenstein coefficients are near
        # p^M, and so are the entries of the matrix of ϖ.
        E = [[7**11 - 7, 7**11 - 14], [7**11 - 7, 7**11 - 21], 1]
        ctx = LocalRingCtx(7, 2, 2, E=E, N=20)
        assert ctx.M == 11 and ctx.e * ctx.f * (ctx.pM - 1) ** 2 >= 2**63
        with pytest.raises(ValueError):
            LocalRingCtx(7, 2, 2, E=E, N=21)
        rng = np.random.default_rng(5)
        for _ in range(3):
            c = RingElem(ctx, rng.integers(0, ctx.pM, size=(2, 2)), ctx.N)
            for n in range(4):
                _check_against_digit_expansion(ctx, c, n)
        # the matrix of ϖ has at most f + 1 nonzeros per column, so the exact products
        # above do not need the f-term sums; a dense e·f x e·f matrix does
        A, B = rng.integers(ctx.pM - 1000, ctx.pM, size=(50, 4)), rng.integers(ctx.pM - 1000, ctx.pM, size=(4, 4))
        want = (A.astype(object) @ B.astype(object)) % ctx.pM
        assert np.array_equal(ctx._matmul_mod(A, B), want.astype(np.int64))

    @pytest.mark.parametrize("where", ["perm", "twist", "repeat"])
    def test_forward_check_rejects_a_corrupted_table(self, unram9, where):
        c = teichmuller(unram9.field.fq.elem(5), unram9) + unram9.uniformizer()
        perm, twist = (a.copy() for a in translation_table(c, 2))
        check_translation_table(c, 2, perm, twist)  # the true table passes
        if where == "perm":
            perm[[3, 7]] = perm[[7, 3]]  # still a permutation
        elif where == "twist":
            twist[4] = (twist[4] + 1) % unram9.q
        else:
            perm[0] = perm[1]
        with pytest.raises(CheckFailed):
            check_translation_table(c, 2, perm, twist)

    @pytest.mark.parametrize("p,f,e", [(3, 1, 2), (3, 2, 1), (2, 2, 2)])
    def test_deep_translations_act_trivially(self, p, f, e):
        # ϖ^{n+1}·c moves no key of level n and leaves no twist, whatever c is
        ctx = LocalRingCtx(p, f, e, N=5)
        rng = np.random.default_rng(2)
        pi = ctx.uniformizer()
        for n in range(1, 4):
            keys = ctx.q**n
            c = pi ** (n + 1) * RingElem(ctx, rng.integers(0, ctx.pM, size=(e, f)), ctx.N)
            check_translation_table(c, n, np.arange(keys), np.zeros(keys, dtype=np.int64))
            with pytest.raises(CheckFailed):
                check_translation_table(c, n, np.arange(keys)[::-1], np.zeros(keys, dtype=np.int64))

    def test_precision_guard(self, ram3):
        c = ram3.one().at_precision(2)
        with pytest.raises(PrecisionExhausted):
            translation_table(c, 2)
        with pytest.raises(PrecisionExhausted):
            translate_digits(c, (0, 0))


class TestDivision:
    def test_section_of_multiplication(self, ram3):
        pi = ram3.uniformizer()
        for c in (1, 2, 4, 5):
            u = ring_int(ram3, c)
            assert divide_by_uniformizer(pi * u) == u.at_precision(ram3.N - 1)

    def test_worked_example_mod9(self):
        # 2 - [2] = 2 - 8 = -6 ≡ 3 mod 9; dividing by 3 gives 1 mod 3
        ctx = LocalRingCtx(3, 1, 1, N=2)
        val = ring_int(ctx, 2) - teichmuller(ctx.field.fq.elem(2), ctx)
        q = divide_by_uniformizer(val)
        assert q.prec == 1
        assert residue(q).code == 1

    def test_rejects_units(self, q3):
        with pytest.raises(NotDivisible):
            divide_by_uniformizer(q3.one())

    @pytest.mark.parametrize("ring", ["unram9", "ram3"])
    def test_constant_not_divisible_by_p_is_a_unit(self, ring, request):
        # a constant coefficient with a digit not divisible by p has a nonzero residue, so the residue
        # check rejects it: over GR(9^N, 2) and the ramified quadratic over Q_3 alike
        ctx = request.getfixturevalue(ring)
        rng = np.random.default_rng(ctx.e * 10 + ctx.f)
        for j in range(ctx.f):
            for d in range(1, ctx.p):
                vec = ctx.p * rng.integers(0, ctx.pM, size=(ctx.e, ctx.f))
                vec[0, j] += d
                a = RingElem(ctx, vec, ctx.N)
                assert residue(a).code != 0
                with pytest.raises(NotDivisible, match="unit mod"):
                    divide_by_uniformizer(a)

    def test_precision_floor(self, q3):
        a = (q3.uniformizer()).at_precision(1)
        with pytest.raises(PrecisionExhausted):
            divide_by_uniformizer(a)

    def test_ramified_division_chain(self, ram3):
        # 3/ϖ = ϖ (up to the tracked precision)
        q = divide_by_uniformizer(ring_int(ram3, 3))
        assert q == ram3.uniformizer().at_precision(q.prec)


class TestResidue:
    def test_basics(self, ram3):
        assert residue(ram3.uniformizer()).code == 0
        assert residue(ram3.one() + ram3.uniformizer()).code == 1
        for lam in ram3.field.enumerate_field("Fq"):
            assert residue(teichmuller(lam, ram3)) == lam

    def test_is_ring_hom(self, unram9):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = RingElem(unram9, rng.integers(0, unram9.pM, size=(1, 2)).astype(np.int64), unram9.N)
            b = RingElem(unram9, rng.integers(0, unram9.pM, size=(1, 2)).astype(np.int64), unram9.N)
            assert residue(a + b) == residue(a) + residue(b)
            assert residue(a * b) == residue(a) * residue(b)


class TestWittCarry:
    def test_p3_example(self):
        # oracle: [1]+[1] = 2 mod 9 has digits (2, 1); F(1,1) = (2-8)/3 = -2 ≡ 1
        ctx = LocalRingCtx(3, 1, 1, N=2)
        w = witt_carry(ctx.field.fq.elem(1), ctx.field.fq.elem(1), ctx)
        assert w.codes == (2, 1)

    def test_p2_example(self):
        ctx = LocalRingCtx(2, 1, 1, N=2)
        w = witt_carry(ctx.field.fq.elem(1), ctx.field.fq.elem(1), ctx)
        assert w.codes == (0, 1)

    @pytest.mark.parametrize("p,f", [(2, 2), (3, 2)])
    def test_closed_form_all_pairs_unramified(self, p, f):
        ctx = LocalRingCtx(p, f, 1, N=2)
        els = ctx.field.enumerate_field("Fq")
        for a in els:
            for b in els:
                w = witt_carry(a, b, ctx)
                assert w.codes[0] == (a + b).code
                assert w.codes[1] == witt_carry_closed_form(a, b, ctx).code

    @pytest.mark.parametrize("p", [2, 3])
    def test_ramified_no_carry_mod_pi2(self, p):
        # [a]+[b] ≡ [a+b] mod ϖ^2 whenever e ≥ 2
        ctx = LocalRingCtx(p, 1, 2, N=3)
        els = ctx.field.enumerate_field("Fq")
        for a in els:
            for b in els:
                w = witt_carry(a, b, ctx)
                assert w.codes[0] == (a + b).code
                assert w.codes[1] == 0

    def test_mixed_ramified_no_carry(self):
        ctx = LocalRingCtx(2, 2, 2, N=3)
        els = ctx.field.enumerate_field("Fq")
        for a in els:
            for b in els:
                assert witt_carry(a, b, ctx).codes[1] == 0

    def test_second_carry_needs_precision(self):
        ctx = LocalRingCtx(3, 1, 1, N=2)
        with pytest.raises(PrecisionExhausted):
            witt_carry(ctx.field.fq.elem(1), ctx.field.fq.elem(1), ctx, carries=2)
        ctx2 = LocalRingCtx(3, 1, 1, N=3)
        w = witt_carry(ctx2.field.fq.elem(1), ctx2.field.fq.elem(1), ctx2, carries=2)
        assert len(w.codes) == 3


def test_ring_operators_match_integers(q3):
    a, b = ring_int(q3, 4), ring_int(q3, 7)
    assert a + b == ring_int(q3, 11)
    assert a - b == ring_int(q3, -3)
    assert a * b == ring_int(q3, 28)


def test_equality_respects_min_precision(q3):
    a = ring_int(q3, 1)
    b = ring_int(q3, 1 + 27).at_precision(3)
    assert a == b  # agree mod 3^3
    assert not (ring_int(q3, 1) == ring_int(q3, 2))


@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80))
@settings(max_examples=50, deadline=None)
def test_ring_axioms_random(x, y, z):
    ctx = LocalRingCtx(3, 1, 2, N=4)
    a, b, c = ring_int(ctx, x), ring_int(ctx, y), ring_int(ctx, z)
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a


@given(st.lists(st.integers(0, 8), min_size=0, max_size=4))
@settings(max_examples=60, deadline=None)
def test_digit_addition_associative(codes):
    # I_n addition with carries, via roundtrip: from_digits is a bijection onto O/ϖ^n
    ctx = LocalRingCtx(3, 2, 1, N=6)
    n = len(codes)
    d = make_digits(ctx, codes)
    a = from_digits(d)
    assert digits(a, n).codes == tuple(codes)
