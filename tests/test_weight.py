import itertools
import random

import numpy as np
import pytest

from indgl2 import _kernels
from indgl2.errors import SingularMatrix
from indgl2.gf import FieldCtx, monomial_exp
from indgl2.linalg import member
from indgl2.weight import WeightCtx, action_matrix
from oracles import u_invariants


def brute_force_row(ctx, g_codes, ivec):
    """Independent oracle: expand ⊗_j (a^{p^j}x+c^{p^j}y)^{r_j-i_j}(b^{p^j}x+d^{p^j}y)^{i_j}
    with a dict-based polynomial multiply, then apply the χ(det) twist."""
    fq = ctx.field.fq
    a, b, c, d = g_codes

    def lin(u, w):
        # the linear form u·x + w·y as {exponent_of_y: coeff}
        return {0: u, 1: w}

    def pmul(P, Q, cap):
        out = {}
        for e1, c1 in P.items():
            for e2, c2 in Q.items():
                if e1 + e2 > cap:
                    continue
                k = e1 + e2
                out[k] = fq.add_code(out.get(k, 0), fq.mul_code(c1, c2))
        return out

    def ppow(P, n, cap):
        out = {0: 1}
        for _ in range(n):
            out = pmul(out, P, cap)
        return out

    per_factor = []
    for j, (r, i) in enumerate(zip(ctx.rvec, ivec)):
        aj, bj, cj, dj = (fq.frob_code(t, j) for t in (a, b, c, d))
        poly = pmul(ppow(lin(aj, cj), r - i, r), ppow(lin(bj, dj), i, r), r)
        per_factor.append([poly.get(k, 0) for k in range(r + 1)])
    row = np.zeros(ctx.D, dtype=np.int32)
    for kvec in ctx.basis:
        acc = 1
        for j, k in enumerate(kvec):
            acc = fq.mul_code(acc, per_factor[j][k])
        row[ctx.index[kvec]] = acc
    det = fq.sub_code(fq.mul_code(a, d), fq.mul_code(b, c))
    kk = ctx.field.kk
    row = ctx.field._embed[row] if ctx.field.m > 1 else row
    twist = kk.pow_code(ctx.field.embed_code(det), ctx.chi_c)
    return kk.MUL[twist, row].astype(np.int32)


def gl2_elements(field):
    els = field.enumerate_field("Fq")
    out = []
    for g in itertools.product(els, repeat=4):
        if g[0] * g[3] - g[1] * g[2]:
            out.append([[g[0], g[1]], [g[2], g[3]]])
    return out


def test_unipotent_on_y():
    ctx = WeightCtx(FieldCtx(3, 1), (1,))
    M = action_matrix(ctx, [[1, 1], [0, 1]])
    assert M[ctx.index[(1,)]].tolist() == [1, 1]  # y ↦ x + y


def test_identity_acts_trivially():
    ctx = WeightCtx(FieldCtx(2, 2), (1, 1), chi_c=2)
    assert np.array_equal(action_matrix(ctx, [[1, 0], [0, 1]]), np.eye(ctx.D, dtype=np.int32))


def test_swap_on_sym2():
    ctx = WeightCtx(FieldCtx(3, 1), (2,))
    M = action_matrix(ctx, [[0, 1], [1, 0]])
    assert M[ctx.index[(0,)]].tolist() == [0, 0, 1]  # x² ↦ y²


def test_singular_rejected():
    ctx = WeightCtx(FieldCtx(3, 1), (1,))
    with pytest.raises(SingularMatrix):
        action_matrix(ctx, [[1, 1], [1, 1]])


def _product(g, h):
    return [
        [g[0][0] * h[0][0] + g[0][1] * h[1][0], g[0][0] * h[0][1] + g[0][1] * h[1][1]],
        [g[1][0] * h[0][0] + g[1][1] * h[1][0], g[1][0] * h[0][1] + g[1][1] * h[1][1]],
    ]


def _assert_multiplicative(ctx, g, h):
    # row convention v ↦ v·M(g): acting by h, then by g, is acting by gh, so M(gh) = M(h)·M(g)
    want = _kernels.matmul(action_matrix(ctx, h), action_matrix(ctx, g), ctx.field.kk)
    assert np.array_equal(action_matrix(ctx, _product(g, h)), want)


def test_weight_validation():
    field = FieldCtx(3, 1)
    with pytest.raises(ValueError):
        WeightCtx(field, (3,))  # r_j > p-1
    with pytest.raises(ValueError):
        WeightCtx(field, (1, 1))  # wrong length
    with pytest.raises(ValueError):
        WeightCtx(field, (1,), nu=field.kk.zero)


@pytest.mark.parametrize(
    "p,f,rvec,chi_c",
    [(3, 1, (1,), 0), (3, 1, (2,), 1), (2, 2, (1, 1), 1), (3, 2, (1, 2), 3), (5, 1, (3,), 2)],
)
def test_matrix_rows_match_polynomial_oracle(p, f, rvec, chi_c):
    ctx = WeightCtx(FieldCtx(p, f), rvec, chi_c=chi_c)
    fq = ctx.field.fq
    rng = random.Random(11)
    els = list(range(ctx.field.q))
    tried = 0
    while tried < 12:
        g = [rng.choice(els) for _ in range(4)]
        if not fq.sub_code(fq.mul_code(g[0], g[3]), fq.mul_code(g[1], g[2])):
            continue
        tried += 1
        gm = [[fq.elem(g[0]), fq.elem(g[1])], [fq.elem(g[2]), fq.elem(g[3])]]
        M = action_matrix(ctx, gm)
        for iv in ctx.basis:
            want = brute_force_row(ctx, g, iv)
            assert np.array_equal(M[ctx.index[iv]], want), (g, iv)


@pytest.mark.parametrize("p,f,rvec,chi_c", [(3, 1, (2,), 1), (2, 2, (1, 1), 1)])
def test_multiplicativity_random(p, f, rvec, chi_c):
    field = FieldCtx(p, f)
    ctx = WeightCtx(field, rvec, chi_c=chi_c)
    gl2 = gl2_elements(field)
    rng = random.Random(5)
    for _ in range(50):
        _assert_multiplicative(ctx, rng.choice(gl2), rng.choice(gl2))


def test_multiplicativity_exhaustive_generators_q3():
    field = FieldCtx(3, 1)
    ctx = WeightCtx(field, (2,), chi_c=1)
    gens = [
        [[field.fq.from_int(x) for x in row] for row in h]
        for h in ([[1, 1], [0, 1]], [[1, 0], [1, 1]], [[2, 0], [0, 1]])
    ]
    for g in gl2_elements(field):
        for h in gens:
            _assert_multiplicative(ctx, g, h)


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_u_invariants_one_dimensional_exhaustive(p, f):
    field = FieldCtx(p, f)
    for rvec in itertools.product(range(p), repeat=f):
        for c in range(max(field.q - 1, 1)):
            ctx = WeightCtx(field, rvec, chi_c=c)
            inv = u_invariants(ctx)
            assert inv.dim == 1, (p, f, rvec, c)
            top = np.zeros(ctx.D, dtype=np.int32)
            top[0] = 1  # e_{0⃗} = x^{r⃗}
            assert member(top, inv)


def test_u_invariants_trivial_weight():
    ctx = WeightCtx(FieldCtx(3, 1), (0,))
    assert u_invariants(ctx).dim == 1  # the whole space


def test_central_scalar_identity():
    field = FieldCtx(3, 2)
    ctx = WeightCtx(field, (1, 2), chi_c=3)
    kk = field.kk
    for a in field.enumerate_field("Fq"):
        if not a:
            continue
        M = action_matrix(ctx, [[a, field.fq.zero], [field.fq.zero, a]])
        scalar = kk.elem(kk.pow_code(field.embed_code(a.code), 2 * ctx.chi_c)) * field.embed(
            monomial_exp(a, ctx.rvec)
        )
        want = np.zeros((ctx.D, ctx.D), dtype=np.int32)
        np.fill_diagonal(want, scalar.code)
        assert np.array_equal(M, want)

