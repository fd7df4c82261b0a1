import pytest
from hypothesis import given, settings, strategies as st

from indgl2.errors import DegreeTooHigh, DivisionByZero, MixedFieldContexts
from indgl2.gf import (
    FieldCtx,
    FqElem,
    PrimeExtField,
    default_modulus,
    is_irreducible,
    monomial_exp,
    sum_over_field,
)

SMALL_Q = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]


@pytest.fixture(scope="module")
def f9():
    return FieldCtx(3, 2)


def test_f9_modulus_and_square():
    # oracle: x^2 + 2x + 2 over F_3, so t^2 = -2 - 2t = 1 + t, code 4
    ctx = FieldCtx(3, 2)
    assert ctx.fq.modulus == (2, 2, 1)
    t = ctx.fq.elem(3)  # the class of x
    assert (t * t).code == 4


def test_f4_multiplication_table():
    # oracle: F_4 = F_2[t]/(t^2+t+1); codes 0,1,2=t,3=t+1
    F = FieldCtx(2, 2).fq
    mul = {(a, b): F.mul_code(a, b) for a in range(4) for b in range(4)}
    assert mul[(2, 2)] == 3  # t^2 = t+1
    assert mul[(2, 3)] == 1  # t(t+1) = t^2+t = 1
    assert mul[(3, 3)] == 2  # (t+1)^2 = t


@pytest.mark.parametrize("p,f", SMALL_Q)
def test_field_axioms_exhaustive(p, f):
    F = FieldCtx(p, f).fq
    els = [F.elem(c) for c in range(F.order)]
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
            assert a + (-a) == F.zero
            if b:
                assert (a / b) * b == a
    for a in els:
        for b in els:
            for c in els[: min(len(els), 5)]:
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p,f", SMALL_Q)
def test_inverse_exhaustive(p, f):
    F = FieldCtx(p, f).fq
    for c in range(1, F.order):
        a = F.elem(c)
        assert a * a.inverse() == F.one
    with pytest.raises(DivisionByZero):
        F.zero.inverse()


@pytest.mark.parametrize("p,f", SMALL_Q)
def test_frobenius_is_hom_exhaustive(p, f):
    F = FieldCtx(p, f).fq
    codes = range(F.order)
    for a in codes:
        for b in codes:
            assert F.frob_code(F.add_code(a, b)) == F.add_code(F.frob_code(a), F.frob_code(b))
            assert F.frob_code(F.mul_code(a, b)) == F.mul_code(F.frob_code(a), F.frob_code(b))
    # order f: stepping through the FROB table f times is the identity
    for a in codes:
        x = a
        for _ in range(f):
            x = int(F.FROB[x])
        assert x == a


def test_frobenius_fixes_prime_field(f9):
    for c in range(3):
        assert f9.fq.frob_code(c) == c


@pytest.mark.parametrize(
    "p,f",
    [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)],
)
def test_sum_over_field_monomials_exhaustive(p, f):
    # oracle: sum_{t in F_q} t^i is -1 at i = q-1 and 0 for 0 <= i < q-1
    ctx = FieldCtx(p, f)
    kk = ctx.kk
    q = ctx.q
    for i in range(q):
        coeffs = [kk.zero] * i + [kk.one]
        got = sum_over_field(coeffs, ctx)
        want = -kk.one if i == q - 1 else kk.zero
        assert got == want, (p, f, i)


def test_sum_over_field_rejects_high_degree():
    ctx = FieldCtx(3, 1)
    kk = ctx.kk
    with pytest.raises(DegreeTooHigh):
        sum_over_field([kk.zero] * 3 + [kk.one], ctx)


def test_sum_over_field_frozen_values():
    # q=9: sum t^8 = -1, code 2; q=4: sum t^3 = 1
    ctx9 = FieldCtx(3, 2)
    s = sum_over_field([ctx9.kk.zero] * 8 + [ctx9.kk.one], ctx9)
    assert s.code == 2
    ctx4 = FieldCtx(2, 2)
    s = sum_over_field([ctx4.kk.zero] * 3 + [ctx4.kk.one], ctx4)
    assert s.code == 1


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_random_linearity_of_sum(c0, c1, c2):
    ctx = FieldCtx(3, 2)
    kk = ctx.kk
    a = [kk.elem(c0), kk.elem(c1), kk.elem(c2)]
    b = [kk.elem(c2), kk.elem(c0), kk.elem(c1)]
    lhs = sum_over_field([x + y for x, y in zip(a, b)], ctx)
    assert lhs == sum_over_field(a, ctx) + sum_over_field(b, ctx)


def test_monomial_exp_conventions(f9):
    F = f9.fq
    assert monomial_exp(F.zero, (0, 0)) == F.one  # 0^0 = 1
    assert monomial_exp(F.zero, (1, 0)) == F.zero
    t = F.elem(3)  # the class of x
    # exponent weighting: (i_0, i_1) -> i_0 + p*i_1
    assert monomial_exp(t, (1, 1)) == t**4
    assert monomial_exp(t, (2, 2)) == t**8


def test_mixed_contexts_rejected():
    a = FieldCtx(3, 1).fq.one
    b = FieldCtx(3, 2).fq.one
    with pytest.raises(MixedFieldContexts):
        _ = a + b


@pytest.mark.parametrize(
    "p,n",
    [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
     (3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6),
     (5, 1), (5, 2), (5, 3), (5, 4), (7, 1), (7, 2)],
)
def test_default_moduli_irreducible(p, n):
    assert is_irreducible(default_modulus(p, n), p)


def test_irreducibility_rejects_products():
    # (x+1)^2 = x^2 + 2x + 1 over F_3
    assert not is_irreducible((1, 2, 1), 3)
    # x^2 over F_2
    assert not is_irreducible((0, 0, 1), 2)
    # x^2 + 1 = (x+1)(x+2) over F_5? (x+2)(x+3) = x^2+5x+6 = x^2+1: reducible
    assert not is_irreducible((1, 0, 1), 5)


class TestEmbedding:
    def test_m1_identity(self):
        ctx = FieldCtx(3, 2, m=1)
        assert ctx.kk is ctx.fq
        a = ctx.fq.elem(3)  # the class of x
        assert ctx.embed(a) == a

    def test_m2_ring_hom_exhaustive(self):
        ctx = FieldCtx(3, 2, m=2)
        assert ctx.kk.order == 81
        els = ctx.enumerate_field("Fq")
        for x in els:
            for y in els:
                assert ctx.embed(x + y) == ctx.embed(x) + ctx.embed(y)
                assert ctx.embed(x * y) == ctx.embed(x) * ctx.embed(y)
        assert ctx.embed(ctx.fq.one) == ctx.kk.one

    def test_m2_section_roundtrip(self):
        # embed is injective, so every element of its image comes from exactly one of F_q
        ctx = FieldCtx(2, 2, m=2)
        img = [ctx.embed(a).code for a in ctx.enumerate_field("Fq")]
        assert len(set(img)) == ctx.q


def test_enumerate_field_zero_first(f9):
    els = f9.enumerate_field("Fq")
    assert els[0] == f9.fq.zero
    assert len(els) == 9
    assert len({e.code for e in els}) == 9
