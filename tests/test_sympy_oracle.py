"""sympy's DomainMatrix over GF(p) as an independent oracle: reduced echelon
forms and kernels of random prime-field matrices, and the witness spaces V and W
of two prime-field configurations recomputed from the per-basis-vector operators."""

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from indgl2 import _kernels, analysis, linalg  # noqa: E402
from indgl2.gf import FieldCtx  # noqa: E402
from indgl2.induction import LevelRange, hecke_T_plus, operator_matrix, u_act  # noqa: E402
from oracles import all_translations, dense_candidates, hecke_T_minus  # noqa: E402


def to_dm(A, p):
    K = sympy.GF(p)
    return DomainMatrix([[K(int(x)) for x in row] for row in A], A.shape, K)


def to_np(M, p):
    return np.array([[M.domain.to_int(x) % p for x in row] for row in M.to_list()], dtype=np.int32).reshape(M.shape)


def rref_rows(A, p):
    """Nonzero rows of sympy's reduced row echelon form of A."""
    R, piv = to_dm(A, p).rref()
    return to_np(R, p)[: len(piv)]


def left_null(A, p):
    """Rows x with x @ A = 0 mod p, in reduced echelon form."""
    return rref_rows(to_np(to_dm(A.T, p).nullspace(), p), p)


def random_rank_deficient(rng, p, n, m, rank):
    return (rng.integers(0, p, size=(n, rank)) @ rng.integers(0, p, size=(rank, m)) % p).astype(np.int32)


GRID = [(2, 6, 9, 4), (3, 12, 7, 5), (5, 15, 15, 11), (7, 9, 20, 9), (3, 10, 10, 0)]


@pytest.mark.parametrize("p,n,m,rank", GRID)
def test_rref_matches(p, n, m, rank):
    F = FieldCtx(p, 1).fq
    rng = np.random.default_rng(p * 100 + n)
    for _ in range(5):
        A = random_rank_deficient(rng, p, n, m, rank)
        R, piv = _kernels.rref(A, F)
        want_R, want_piv = to_dm(A, p).rref()
        assert list(piv) == list(want_piv)
        assert np.array_equal(R, to_np(want_R, p))


@pytest.mark.parametrize("p,n,m,rank", GRID)
def test_kernel_matches_nullspace(p, n, m, rank):
    F = FieldCtx(p, 1).fq
    rng = np.random.default_rng(p * 100 + m)
    for _ in range(5):
        A = random_rank_deficient(rng, p, n, m, rank)
        assert np.array_equal(linalg.kernel(A, F).rows, left_null(A, p))


@pytest.mark.parametrize("args", [(3, 1, 2, (1,)), (5, 1, 2, (3,))])
def test_witness_spaces_match(args):
    # V = {g in R₂ : (u-1)g ∈ T₊R₁′ for every generator u} and W = V ∩ T₊R₁, with
    # x ∈ span(S) tested as x @ null(S) = 0; every space here is a sympy nullspace
    ctx = analysis.build_ctx(*args, N=5)
    p = ctx.ring.p
    R0, R1, R2 = (LevelRange("all", n, n) for n in range(3))
    r1p = left_null(operator_matrix(ctx, hecke_T_minus, R1, R0), p)
    Tplus = operator_matrix(ctx, hecke_T_plus, R1, R2)
    ann = to_np(to_dm(r1p.astype(np.int64) @ Tplus % p, p).nullspace(), p).T  # S @ ann = 0 for S = T₊R₁′
    eye = np.eye(Tplus.shape[1], dtype=np.int64)
    deltas = [
        (operator_matrix(ctx, lambda x, c=c: u_act(c, x), R2, R2) - eye) @ ann % p
        for c in all_translations(ctx, 2)
    ]
    V = left_null(np.hstack(deltas), p)
    ann_tplus = to_np(to_dm(Tplus, p).nullspace(), p).T
    W = rref_rows(left_null(V.astype(np.int64) @ ann_tplus % p, p).astype(np.int64) @ V % p, p)
    spaces = analysis._candidate_spaces(ctx)
    _, got_V, got_W = dense_candidates(ctx)
    for got, want in ((got_V, V), (got_W, W)):
        assert np.array_equal(got.rows, want)
        assert np.array_equal(got.pivots, [np.flatnonzero(row)[0] for row in want])
    assert (spaces.v_dim, spaces.w_dim) == (len(V), len(W)) and len(V) > len(W)
