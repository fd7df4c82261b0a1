import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from indgl2 import _kernels
from indgl2.analysis import build_ctx
from indgl2.errors import DimensionMismatch
from indgl2.gf import FieldCtx
from indgl2.induction import LevelRange, hecke_matrix
from indgl2.linalg import (
    BlockSum,
    Subspace,
    coinvariant_complement,
    echelon,
    fixed_space,
    intersect,
    kernel,
    member,
    preimage,
)
from oracles import direct_sum, embed, image, subspace_sum


@pytest.fixture(scope="module")
def F9():
    return FieldCtx(3, 2).fq


@pytest.fixture(scope="module")
def F3():
    return FieldCtx(3, 1).fq


def rand_mat(rng, F, n, m):
    return rng.integers(0, F.order, size=(n, m)).astype(np.int32)


def test_echelon_idempotent(F9):
    rng = np.random.default_rng(0)
    for _ in range(15):
        S = echelon(rand_mat(rng, F9, 5, 8), F9)
        assert echelon(S.rows, F9, ambient=8) == S


def test_echelon_strictly_increasing_pivots(F9):
    rng = np.random.default_rng(1)
    S = echelon(rand_mat(rng, F9, 6, 9), F9)
    assert list(S.pivots) == sorted(set(int(p) for p in S.pivots))
    # pivot entries are 1, pivot columns elsewhere 0
    for k, col in enumerate(S.pivots):
        assert S.rows[k, col] == 1
        assert np.count_nonzero(S.rows[:, col]) == 1


def test_member_basic(F3):
    v = np.array([1, 2, 0], dtype=np.int32)
    w = np.array([0, 1, 1], dtype=np.int32)
    S = echelon(np.vstack([v, w]), F3)
    assert member(v, S)
    assert member(F3.ADD[v, w], S)
    assert not member(np.array([0, 0, 1], dtype=np.int32), S)


def test_reduce_stack_matches_pivot_loop(F9):
    # oracle: clear the pivot coordinates one echelon row at a time
    rng = np.random.default_rng(21)
    S = echelon(rand_mat(rng, F9, 4, 9), F9)
    V = rand_mat(rng, F9, 6, 9)
    want = V.copy()
    for row in want:
        for k, col in enumerate(S.pivots):
            row[:] = F9.ADD[row, F9.MUL[int(F9.NEG[row[col]]), S.rows[k]]]
    assert np.array_equal(S.reduce(V), want)
    assert all(np.array_equal(S.reduce(v), w) for v, w in zip(V, want))
    assert not S.reduce(S.rows).any()


def test_reduce_narrow_support(F9):
    # rows that vanish on most columns: the remainder there is the input itself
    rng = np.random.default_rng(22)
    M = rand_mat(rng, F9, 3, 12)
    M[:, [0, 2, 5, 6, 7, 11]] = 0
    S = echelon(M, F9)
    V = rand_mat(rng, F9, 5, 12)
    want = V.copy()
    for row in want:
        for k, col in enumerate(S.pivots):
            row[:] = F9.ADD[row, F9.MUL[int(F9.NEG[row[col]]), S.rows[k]]]
    assert np.array_equal(S.reduce(V), want)
    assert np.array_equal(S.reduce(V)[:, [0, 2, 5, 6, 7, 11]], V[:, [0, 2, 5, 6, 7, 11]])
    assert all(np.array_equal(S.reduce(v), w) for v, w in zip(V, want))


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (2, 6)])
@pytest.mark.parametrize("ambient", [12, 64])
def test_reduce_matches_full_support_formula(p, k, ambient):
    # oracle: v − v[pivots] @ rows on every column, for subspaces from zero to near-full and full,
    # where reduce computes only the non-pivot columns of the rows' support
    F = FieldCtx(p, k).fq
    rng = np.random.default_rng(p * k + ambient)
    V = rand_mat(rng, F, 7, ambient)
    for dim in (0, 1, ambient // 2, ambient - 4, ambient - 1, ambient):
        S = echelon(rand_mat(rng, F, dim, ambient), F, ambient=ambient)
        want = F.ADD[V, F.NEG[_matmul_loops(V[:, S.pivots], S.rows, F)]]
        assert np.array_equal(S.reduce(V), want)
        assert np.array_equal(S.reduce(V[2]), want[2])
        assert not S.reduce(S.rows).any()


def test_direct_sum_is_echelon_of_blocks(F9):
    rng = np.random.default_rng(23)
    S = echelon(rand_mat(rng, F9, 3, 5), F9)
    blocks = np.zeros((4 * S.dim, 4 * 5), dtype=np.int32)
    for k in range(4):
        blocks[k * S.dim : (k + 1) * S.dim, 5 * k : 5 * (k + 1)] = S.rows
    T = direct_sum(S, 4)
    assert T == echelon(blocks, F9)
    assert np.array_equal(T.pivots, echelon(blocks, F9).pivots)


def test_embed_matches_echelon(F9):
    rng = np.random.default_rng(24)
    Z = echelon(rand_mat(rng, F9, 5, 9), F9)
    S = echelon(rand_mat(rng, F9, 3, Z.dim), F9)
    want = echelon(_kernels.matmul(S.rows, Z.rows, F9), F9, ambient=9)
    got = embed(S, Z)
    assert got == want and np.array_equal(got.pivots, want.pivots)
    # coordinates of a member of Z are its entries on Z's pivot columns
    assert np.array_equal(got.rows[:, Z.pivots], S.rows)
    assert embed(echelon(np.zeros((0, Z.dim), dtype=np.int32), F9, ambient=Z.dim), Z).dim == 0
    with pytest.raises(DimensionMismatch):
        embed(S, echelon(rand_mat(rng, F9, 2, 9), F9))


def test_block_sum_matches_dense_direct_sum(F9):
    rng = np.random.default_rng(25)
    S = echelon(rand_mat(rng, F9, 3, 5), F9)
    T, dense = BlockSum(S, 4), direct_sum(S, 4)
    assert (T.dim, T.ambient) == (dense.dim, dense.ambient)
    assert np.array_equal(T.pivots, dense.pivots)
    members = _kernels.matmul(rand_mat(rng, F9, 3, dense.dim), dense.rows, F9)
    V = np.vstack([members, rand_mat(rng, F9, 6, 20)])
    assert np.array_equal(T.reduce(V), dense.reduce(V))
    assert all(np.array_equal(T.reduce(v), dense.reduce(v)) for v in V)
    assert [member(v, T) for v in V] == [True] * 3 + [member(v, dense) for v in V[3:]]
    with pytest.raises(DimensionMismatch):
        T.reduce(np.zeros(19, dtype=np.int32))


def test_block_sum_vectors_match_dense_embed(F9):
    # a subspace S in coordinates over the sum's rows is vectors(S.rows) with pivots pivots[S.pivots] in the ambient
    rng = np.random.default_rng(26)
    Z = BlockSum(echelon(rand_mat(rng, F9, 3, 7), F9), 5)
    for rows in (rand_mat(rng, F9, 6, Z.dim), rand_mat(rng, F9, Z.dim, Z.dim), np.zeros((0, Z.dim), dtype=np.int32)):
        S = echelon(rows, F9, ambient=Z.dim)
        got, want = Z.vectors(S.rows), embed(S, direct_sum(Z.block, Z.copies))
        assert np.array_equal(got, want.rows) and np.array_equal(Z.pivots[S.pivots], want.pivots)
        R, piv = _kernels.rref(got, F9)  # already reduced echelon
        assert np.array_equal(R, got) and np.array_equal(piv, Z.pivots[S.pivots])
        assert np.array_equal(got[:, Z.pivots], S.rows)
    with pytest.raises(DimensionMismatch):
        Z.vectors(rand_mat(rng, F9, 2, Z.dim + 1))


def test_kernel_zero_map(F3):
    Z = np.zeros((3, 4), dtype=np.int32)
    assert kernel(Z, F3).dim == 3


def test_kernel_all_ones_row_map(F3):
    # 1x3 all-ones map transposed: v ↦ Σv_i; kernel has dimension 2
    M = np.ones((3, 1), dtype=np.int32)
    assert kernel(M, F3).dim == 2


def test_rank_nullity_random(F9):
    rng = np.random.default_rng(2)
    for _ in range(25):
        n, m = rng.integers(1, 14, size=2)
        M = rand_mat(rng, F9, n, m)
        k = kernel(M, F9)
        assert k.dim + image(M, F9).dim == n
        for row in k.rows:
            assert not np.any(_kernels.vec_mat(row, M, F9))


def test_sum_intersect_dim_formula(F9):
    rng = np.random.default_rng(3)
    for _ in range(25):
        amb = int(rng.integers(2, 12))
        S = echelon(rand_mat(rng, F9, int(rng.integers(1, 6)), amb), F9)
        T = echelon(rand_mat(rng, F9, int(rng.integers(1, 6)), amb), F9)
        assert S.dim + T.dim == subspace_sum(S, T).dim + intersect(S, T).dim
        for row in intersect(S, T).rows:
            assert member(row, S) and member(row, T)


def test_preimage(F9):
    rng = np.random.default_rng(4)
    for _ in range(15):
        M = rand_mat(rng, F9, 6, 5)
        S = echelon(rand_mat(rng, F9, 2, 5), F9)
        P = preimage(M, S)
        for row in P.rows:
            assert member(_kernels.vec_mat(row, M, F9), S)
        # the preimage contains the kernel
        for row in kernel(M, F9).rows:
            assert member(row, P)


def test_preimage_exhaustive_small(F3):
    # brute force count over F_3^3
    rng = np.random.default_rng(5)
    M = rand_mat(rng, F3, 3, 2)
    S = echelon(np.array([[1, 2]], dtype=np.int32), F3)
    P = preimage(M, S)
    count = 0
    for code in range(27):
        v = np.array([code % 3, (code // 3) % 3, (code // 9) % 3], dtype=np.int32)
        if member(_kernels.vec_mat(v, M, F3), S):
            count += 1
    assert count == 3**P.dim


def test_fixed_space_identity(F3):
    assert fixed_space([np.eye(4, dtype=np.int32)], F3, 4).dim == 4
    assert fixed_space([], F3, 4).dim == 4


def test_fixed_space_regular_rep(F3):
    # cyclic shift on K^3 = regular representation of Z/3
    P = np.zeros((3, 3), dtype=np.int32)
    P[0, 1] = P[1, 2] = P[2, 0] = 1
    fx = fixed_space([P], F3, 3)
    assert fx.dim == 1
    assert member(np.array([1, 1, 1], dtype=np.int32), fx)


def test_fixed_space_multiple_ops(F9):
    rng = np.random.default_rng(6)
    # two commuting unipotents: I + N with N strictly upper triangular
    n = 6
    ops = []
    for _ in range(2):
        N = np.triu(rand_mat(rng, F9, n, n), k=1)
        M = N.copy()
        np.fill_diagonal(M, 1)
        ops.append(M)
    fx = fixed_space(ops, F9, n)
    for u in ops:
        for row in fx.rows:
            assert np.array_equal(_kernels.vec_mat(row, u, F9), row)


def test_coinvariant_complement_regular_rep(F3):
    P = np.zeros((3, 3), dtype=np.int32)
    P[0, 1] = P[1, 2] = P[2, 0] = 1
    cw = coinvariant_complement([P], F3, 3)
    assert cw.dim == 2  # augmentation ideal image has codimension 1


def test_coinvariant_identity_op(F3):
    assert coinvariant_complement([np.eye(5, dtype=np.int32)], F3, 5).dim == 0
    assert coinvariant_complement([], F3, 5).dim == 0


def test_coinvariant_contains_product_op(F9):
    # (uv - 1)v ∈ im(u-1) + im(v-1) for commuting u, v
    rng = np.random.default_rng(7)
    n = 5
    mats = []
    for _ in range(2):
        N = np.triu(rand_mat(rng, F9, n, n), k=1)
        M = N.copy()
        np.fill_diagonal(M, 1)
        mats.append(M)
    cw = coinvariant_complement(mats, F9, n)
    uv = _kernels.matmul(mats[0], mats[1], F9)
    for row in image(F9.ADD[uv, F9.NEG[np.eye(n, dtype=np.int32)]], F9).rows:
        assert member(row, cw)


def test_dimension_mismatch_guards(F3, F9):
    S = echelon(np.array([[1, 0]], dtype=np.int32), F3)
    T = echelon(np.array([[1, 0, 0]], dtype=np.int32), F3)
    with pytest.raises(DimensionMismatch):
        subspace_sum(S, T)
    with pytest.raises(DimensionMismatch):
        intersect(S, echelon(np.array([[1, 0]], dtype=np.int32), F9))


def _layout(M, layout):
    """M, equal in value, as int64, as a transposed (Fortran-order) view, or as a column slice of a wider array."""
    if layout == "int64":
        return M.astype(np.int64)
    if layout == "transposed":
        return np.ascontiguousarray(M.T).T
    wide = np.zeros((M.shape[0], 2 * M.shape[1]), dtype=np.int32)
    wide[:, ::2] = M
    return wide[:, ::2]


@pytest.mark.parametrize("layout", ["int64", "transposed", "column-sliced"])
@pytest.mark.parametrize("p,k", [(3, 1), (3, 2)])
def test_map_functions_take_caller_arrays(p, k, layout):
    # the matrices go in as the caller holds them, e.g. analysis's delta[:, mask]
    F = FieldCtx(p, k).fq
    rng = np.random.default_rng(10 * k + len(layout))
    M = rand_low_rank(rng, F, 7, 5, 3)
    U = np.triu(rand_mat(rng, F, 6, 6), k=1)
    np.fill_diagonal(U, 1)
    S = echelon(rand_mat(rng, F, 2, 5), F)
    got_M, got_U = _layout(M, layout), _layout(U, layout)
    assert got_M.dtype != np.int32 or not got_M.flags.c_contiguous
    ref_M, ref_U = np.ascontiguousarray(M, dtype=np.int32), np.ascontiguousarray(U, dtype=np.int32)
    assert kernel(got_M, F) == kernel(ref_M, F) and kernel(got_M, F).dim >= 2
    assert preimage(got_M, S) == preimage(ref_M, S)
    assert fixed_space([got_U, got_U.T], F, 6) == fixed_space([ref_U, ref_U.T], F, 6)
    assert coinvariant_complement([got_U], F, 6) == coinvariant_complement([ref_U], F, 6)
    # the guards on caller input
    for bad in (M[0], M[None]):  # not 2-dimensional
        for call in (lambda: kernel(bad, F), lambda: preimage(bad, S)):
            with pytest.raises(DimensionMismatch):
                call()
    with pytest.raises(DimensionMismatch):
        preimage(M.T, S)  # S lives in K^5, the map lands in K^7
    for bad in (M, U[:5, :5], U[0]):  # not square, wrong size, not 2-dimensional
        with pytest.raises(DimensionMismatch):
            fixed_space([U, bad], F, 6)
        with pytest.raises(DimensionMismatch):
            coinvariant_complement([U, bad], F, 6)


def _matmul_loops(A, B, F):
    """Scalar triple loop over the field tables: the oracle for _kernels.matmul."""
    n, m = A.shape
    r = B.shape[1]
    C = np.zeros((n, r), dtype=np.int32)
    for i in range(n):
        for k in range(m):
            a = A[i, k]
            if a == 0:
                continue
            for j in range(r):
                b = B[k, j]
                if b != 0:
                    C[i, j] = F.ADD[C[i, j], F.MUL[a, b]]
    return C


def _rref_loops(M, F):
    """Scalar Gauss-Jordan elimination, first-nonzero pivoting: the oracle for _kernels.rref."""
    R = M.copy()
    n, m = R.shape
    pivots = []
    row = 0
    for col in range(m):
        if row >= n:
            break
        sel = next((i for i in range(row, n) if R[i, col] != 0), -1)
        if sel == -1:
            continue
        if sel != row:
            for j in range(m):
                R[row, j], R[sel, j] = R[sel, j], R[row, j]
        inv = F.INV[R[row, col]]
        if inv != 1:
            for j in range(m):
                if R[row, j] != 0:
                    R[row, j] = F.MUL[R[row, j], inv]
        for i in range(n):
            if i != row and R[i, col] != 0:
                c = F.NEG[R[i, col]]
                for j in range(m):
                    v = R[row, j]
                    if v != 0:
                        R[i, j] = F.ADD[R[i, j], F.MUL[c, v]]
        pivots.append(col)
        row += 1
    return R, np.array(pivots, dtype=np.int64)


def _kernel_augmented(M, F):
    """{v : v @ M = 0} from the rref of [M | I]: the oracle for linalg.kernel."""
    n, m = M.shape
    aug = np.zeros((n, m + n), dtype=np.int32)
    aug[:, :m] = M
    aug[np.arange(n), m + np.arange(n)] = 1
    R, piv = _kernels.rref(aug, F)
    R = R[: len(piv)]
    null_rows = R[piv >= m][:, m:]
    return echelon(null_rows, F, ambient=n)


def _kernel_by_null_rows(M, F):
    """{v : v @ M = 0} as the echelon form of e_j − Σ_i R[i, j]·e_{piv_i} over the free columns j of
    R = rref(Mᵀ) by the scalar loops: the oracle for the null rows linalg.kernel reads off directly."""
    n = M.shape[0]
    R, piv = _rref_loops(np.array(M.T, dtype=np.int32), F)
    free = [j for j in range(n) if j not in set(piv.tolist())]
    null_rows = np.zeros((len(free), n), dtype=np.int32)
    for a, j in enumerate(free):
        null_rows[a, j] = 1
        null_rows[a, piv] = F.NEG[R[: len(piv), j]]
    return echelon(null_rows, F, ambient=n)


def rand_low_rank(rng, F, n, m, rank):
    return _kernels.matmul(rand_mat(rng, F, n, rank), rand_mat(rng, F, rank, m), F)


def rand_sparse_rows(rng, F, n, m, low, high):
    """n rows of width m, each with low..high nonzeros at random columns."""
    M = np.zeros((n, m), dtype=np.int32)
    for row in M:
        cols = rng.choice(m, size=rng.integers(low, high + 1), replace=False)
        row[cols] = rng.integers(1, F.order, size=cols.size)
    return M


def sparse_cases(rng, F):
    """Structured sparse matrices, named, on which the work of rref follows the nonzeros."""
    zero_cols = rand_sparse_rows(rng, F, 14, 30, 2, 6)
    zero_cols[:, [0, 1, 9, 17, 29]] = 0
    one_per_col = np.zeros((12, 30), dtype=np.int32)
    one_per_col[rng.integers(0, 12, size=30), np.arange(30)] = rng.integers(1, F.order, size=30)
    # sparse pivot rows (1-3 nonzeros) beside dense ones, so both updates run in one elimination
    mixed = np.vstack([rand_sparse_rows(rng, F, 12, 40, 1, 3), rand_mat(rng, F, 6, 40)])
    mixed = mixed[rng.permutation(len(mixed))]
    # rows that reduce to zero: combinations of two sparse rows
    base = rand_sparse_rows(rng, F, 10, 36, 2, 3)
    a, b = rng.integers(1, F.order, size=(2, 5, 1))
    combos = F.ADD[F.MUL[a, base[:5]], F.MUL[b, base[5:]]]
    dependent = np.vstack([base, combos])[rng.permutation(15)]
    return {
        "zero-columns": zero_cols,
        "all-zero": np.zeros((6, 9), dtype=np.int32),
        "one-per-column": one_per_col,
        "mixed-pivot-rows": mixed,
        "dependent-rows": dependent,
        # a transposed view, as linalg.kernel passes it
        "transposed-view": rand_sparse_rows(rng, F, 40, 16, 1, 3).T,
        "transposed-mixed": mixed.T,
    }


def sparse_pivot_cases(rng, F):
    """sparse_cases, low-rank matrices and random sparse ones, each as a C-order array."""
    cases = sparse_cases(rng, F)
    cases.update({f"low-rank-{i}": rand_low_rank(rng, F, 30, 24, rank) for i, rank in enumerate((0, 7, 19, 24))})
    cases.update({f"sparse-{i}": rand_sparse_rows(rng, F, 50, 40, 1, 4) for i in range(6)})
    return {name: np.array(M) for name, M in cases.items()}


def dense_rows(pivot_rows, m):
    """The row dicts of _kernels.sparse_pivot_rows as a dense matrix of width m."""
    D = np.zeros((len(pivot_rows), m), dtype=np.int32)
    for i, row in enumerate(pivot_rows.values()):
        D[i, list(row)] = list(row.values())
    return D


# (p, degree) of F_2, F_3, F_8, F_9, F_25, F_49 and the largest prime field under the table cap
MATMUL_FIELDS = [(2, 1), (3, 1), (2, 3), (3, 2), (5, 2), (7, 2), (4093, 1)]


def with_nonzeros(rng, F, shape, count):
    """A matrix of the shape with exactly count nonzero codes, at random positions."""
    M = np.zeros(shape, dtype=np.int32)
    M.flat[rng.choice(M.size, size=count, replace=False)] = rng.integers(1, F.order, size=count)
    return M


def _recording_routes(monkeypatch):
    """The list of routes matmul takes, "entries" or "gather", one a call, with the real routes run."""
    taken = []
    for route, name in (("entries", "sparse_matmul"), ("gather", "_matmul_gather")):
        real = getattr(_kernels, name)

        def recorded(a, b, field, real=real, route=route):
            taken.append(route)
            return real(a, b, field)

        monkeypatch.setattr(_kernels, name, recorded)
    return taken


class TestBackends:
    # the vectorised kernels against the scalar loops above
    def test_rref_agrees(self, F9):
        rng = np.random.default_rng(8)
        for _ in range(10):
            M = rand_mat(rng, F9, 7, 9)
            r1, p1 = _kernels.rref(M, F9)
            r2, p2 = _rref_loops(M, F9)
            assert np.array_equal(r1, r2)
            assert np.array_equal(p1, p2)

    @pytest.mark.parametrize("p,k", [(3, 2), (5, 2)])
    @pytest.mark.parametrize("n,m,rank", [(60, 90, 60), (70, 90, 41), (90, 60, 35)])
    def test_rref_agrees_wide(self, p, k, n, m, rank):
        # enough pivots and free columns that the update right of each pivot matters
        F = FieldCtx(p, k).fq
        rng = np.random.default_rng(p * 1000 + n + m + rank)
        M = rand_low_rank(rng, F, n, m, rank)
        M[:, [3, 17]] = 0
        r1, p1 = _kernels.rref(M, F)
        r2, p2 = _rref_loops(M, F)
        assert np.array_equal(p1, p2) and len(p1) == rank
        assert np.array_equal(r1, r2)

    @pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 2)])
    def test_rref_agrees_sparse(self, p, k):
        F = FieldCtx(p, k).fq
        for name, M in sparse_cases(np.random.default_rng(p * 10 + k), F).items():
            r1, p1 = _kernels.rref(M, F)
            r2, p2 = _rref_loops(np.array(M), F)
            assert r1.shape == M.shape and r1.dtype == np.int32 and p1.dtype == np.int64, name
            assert np.array_equal(r1, r2) and np.array_equal(p1, p2), name

    @pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 2)])
    def test_sparse_rank_agrees(self, p, k):
        # over F_3, F_9 and F_25, in descending column order and, with the columns reversed, ascending
        F = FieldCtx(p, k).fq
        for name, M in sparse_pivot_cases(np.random.default_rng(p * 100 + k), F).items():
            rank = len(_rref_loops(M, F)[1])
            rows, cols = np.nonzero(M)
            assert _kernels.sparse_rank(rows, cols, M[rows, cols], M.shape, F) == rank, name
            ascending = M.shape[1] - 1 - cols
            assert _kernels.sparse_rank(rows, ascending, M[rows, cols], M.shape, F) == rank, name

    def test_sparse_rank_entries(self, F9):
        # zero entries are dropped; a repeated or outside position is a ValueError
        assert _kernels.sparse_rank([0, 1, 1], [2, 0, 1], [1, 0, 0], (2, 3), F9) == 1
        assert _kernels.sparse_rank([], [], [], (3, 4), F9) == 0
        with pytest.raises(ValueError):
            _kernels.sparse_rank([0, 0], [1, 1], [1, 2], (2, 2), F9)
        with pytest.raises(ValueError):
            _kernels.sparse_rank([0], [2], [1], (2, 2), F9)

    @pytest.mark.parametrize("p,k", [(3, 1), (3, 2)])
    def test_pivot_rows_echelon_the_matrix(self, p, k):
        # over F_3 and F_9: as many rows as the rank, each 1 on its pivot and zero above it, spanning M's rows
        F = FieldCtx(p, k).fq
        for name, M in sparse_pivot_cases(np.random.default_rng(p * 10 + k + 7), F).items():
            m = M.shape[1]
            rows, cols = np.nonzero(M)
            pivot_rows = _kernels.sparse_pivot_rows(rows, cols, M[rows, cols], M.shape, F)
            assert len(pivot_rows) == len(_rref_loops(M, F)[1]), name
            for c, row in pivot_rows.items():
                assert max(row) == c and row[c] == 1 and all(row.values()), name
            assert echelon(dense_rows(pivot_rows, m), F, ambient=m) == echelon(M, F, ambient=m), name

    @pytest.mark.parametrize("p,k", [(3, 1), (3, 2)])
    def test_reduce_leaves_remainders_off_the_pivots(self, p, k):
        # the remainders V·rem, rem the remainder matrix of V's columns, are zero on every pivot
        # column, and V minus them lies in the span of M's rows
        F = FieldCtx(p, k).fq
        rng = np.random.default_rng(p * 10 + k + 8)
        for name, M in sparse_pivot_cases(rng, F).items():
            n, m = M.shape
            rows, cols = np.nonzero(M)
            pivot_rows = _kernels.sparse_pivot_rows(rows, cols, M[rows, cols], M.shape, F)
            V = np.vstack([rand_sparse_rows(rng, F, 20, m, 0, 4), rand_mat(rng, F, 4, m), M])
            v_rows, v_cols = np.nonzero(V)
            rem = _kernels.remainder_matrix(v_cols, pivot_rows, F)
            r_rows, r_cols, r_vals = _kernels.sparse_matmul((v_rows, v_cols, V[v_rows, v_cols]), rem, F)
            assert np.all(r_vals != 0), name
            R = np.zeros_like(V)
            R[r_rows, r_cols] = r_vals
            assert not R[:, list(pivot_rows)].any(), name
            span = echelon(M, F, ambient=m)
            assert all(member(d, span) for d in F.ADD[V, F.NEG[R]]), name
            assert not R[len(V) - n :].any(), name  # M's own rows reduce to zero

    @pytest.mark.parametrize("p,k", [(3, 1), (3, 2)])
    def test_sparse_matmul_agrees(self, p, k):
        # over F_3 and F_9, against the scalar loops: the product's nonzero entries, sorted by (row, column)
        F = FieldCtx(p, k).fq
        rng = np.random.default_rng(p * 10 + k + 9)
        for n, inner, m in [(1, 1, 1), (7, 12, 5), (30, 40, 20), (40, 16, 40), (5, 60, 1)]:
            for low, high in [(0, 1), (1, 3), (2, 8)]:
                A = rand_sparse_rows(rng, F, n, inner, min(low, inner), min(high, inner))
                B = rand_sparse_rows(rng, F, inner, m, min(low, m), min(high, m))
                a_rows, a_cols = np.nonzero(A)
                b_rows, b_cols = np.nonzero(B)
                shuffle = rng.permutation(a_rows.size)  # the entries need not come sorted
                a = (a_rows[shuffle], a_cols[shuffle], A[a_rows, a_cols][shuffle])
                rows, cols, vals = _kernels.sparse_matmul(a, (b_rows, b_cols, B[b_rows, b_cols]), F)
                C = _matmul_loops(A, B, F)
                c_rows, c_cols = np.nonzero(C)
                assert rows.tolist() == c_rows.tolist() and cols.tolist() == c_cols.tolist()
                assert vals.tolist() == C[c_rows, c_cols].tolist()

    def test_sparse_matmul_entries(self, F9):
        # a repeated or negative position on either side is a ValueError, and so is one whose
        # row·width + column key passes int64; zero entries and zero sums are dropped
        one = ([0], [0], [1])
        for bad in (([0, 0], [1, 1], [1, 2]), ([2, 2, 0], [0, 0, 0], [1, 1, 1]), ([-1], [0], [1]), ([0], [-1], [1]),
                    ([2**40], [2**30], [1])):
            with pytest.raises(ValueError):
                _kernels.sparse_matmul(bad, one, F9)
            with pytest.raises(ValueError):
                _kernels.sparse_matmul(one, bad, F9)
        # [1 1] @ [[1], [2]] over F_9: 1 + 2 = 0 in characteristic 3
        zero_sum = _kernels.sparse_matmul(([0, 0], [0, 1], [1, 1]), ([0, 1], [0, 0], [1, 2]), F9)
        assert all(a.size == 0 for a in zero_sum)
        assert all(a.size == 0 for a in _kernels.sparse_matmul(([0], [0], [0]), one, F9))
        assert all(a.size == 0 for a in _kernels.sparse_matmul(([], [], []), one, F9))

    def test_sparse_elimination_entries(self, F9):
        # a repeated or outside position is a ValueError; zero entries are dropped
        for bad in (([0, 0], [1, 1], [1, 2]), ([0], [2], [1]), ([-1], [0], [1]), ([0], [-1], [1])):
            with pytest.raises(ValueError):
                _kernels.sparse_pivot_rows(*bad, (2, 2), F9)
        pivot_rows = _kernels.sparse_pivot_rows([0, 1, 1], [1, 0, 1], [2, 0, 0], (2, 2), F9)
        assert pivot_rows == {1: {1: 1}}
        # the remainder matrix: e_0 off the pivot, and the zero remainder of e_1 listed as no entry;
        # repeated columns are one row, and a negative column is a ValueError
        R = _kernels.remainder_matrix([1, 0, 1], pivot_rows, F9)
        assert [a.tolist() for a in R] == [[0], [0], [1]]
        with pytest.raises(ValueError):
            _kernels.remainder_matrix([0, -1], pivot_rows, F9)
        assert all(a.size == 0 for a in _kernels.remainder_matrix([], pivot_rows, F9))
        # a repeated position in X is a ValueError of the product
        with pytest.raises(ValueError):
            _kernels.sparse_matmul(([0, 0], [1, 1], [1, 2]), R, F9)
        rest = _kernels.sparse_matmul(([0, 0, 1], [0, 1, 1], [3, 2, 0]), R, F9)
        assert [a.tolist() for a in rest] == [[0], [0], [3]]
        assert all(a.size == 0 for a in _kernels.sparse_matmul(([], [], []), R, F9))

    @pytest.mark.parametrize("transpose", [False, True])
    def test_rref_agrees_on_hecke_matrix(self, transpose):
        # T(I^o) -> I^e of ramified-r1 at N = 2: a few nonzeros per row, many zero columns
        ctx = build_ctx(3, 1, 2, (1,), N=5)
        T = hecke_matrix(ctx, LevelRange("odd", 1, 3), LevelRange("even", 0, 4))
        M = T.T if transpose else T
        F = ctx.weight.field.kk
        r1, p1 = _kernels.rref(M, F)
        r2, p2 = _rref_loops(np.array(M), F)
        assert np.array_equal(r1, r2) and np.array_equal(p1, p2)
        assert len(p1) == T.shape[0]  # T is injective on I^o

    def test_matmul_agrees(self, F9):
        rng = np.random.default_rng(9)
        for _ in range(10):
            A = rand_mat(rng, F9, 6, 7)
            B = rand_mat(rng, F9, 7, 5)
            c1 = _kernels.matmul(A, B, F9)
            c2 = _matmul_loops(A, B, F9)
            assert np.array_equal(c1, c2)

    @pytest.mark.parametrize("p,k", MATMUL_FIELDS)
    @pytest.mark.parametrize("inner", [255, 256, 301])
    def test_matmul_routes_agree(self, p, k, inner):
        F = FieldCtx(p, k).fq
        rng = np.random.default_rng(p * 100 + k * 10 + inner)
        A = rand_mat(rng, F, 4, inner)
        B = rand_mat(rng, F, inner, 5)
        A[2] = 0
        A[:, 7] = 0
        B[:, 1] = 0
        B[11] = 0
        # the largest code everywhere makes every sum of a run as large as it gets
        top = np.full((2, inner), F.order - 1, dtype=np.int32)
        for X, Y in ((A, B), (top, np.full((inner, 3), F.order - 1, dtype=np.int32))):
            want = _matmul_loops(X, Y, F)
            assert np.array_equal(_kernels.matmul(X, Y, F), want)
            assert np.array_equal(_kernels.matmul(np.asfortranarray(X), Y, F), want)  # a transposed view, as is

    @pytest.mark.parametrize("p,k", [(2, 1), (3, 2), (7, 2)])
    @pytest.mark.parametrize("shape", [(0, 256, 4), (3, 256, 0), (0, 256, 0), (3, 0, 4), (0, 0, 0), (3, 4, 0)])
    def test_matmul_empty_shapes(self, p, k, shape):
        F = FieldCtx(p, k).fq
        r, n, c = shape
        C = _kernels.matmul(np.zeros((r, n), dtype=np.int32), np.ones((n, c), dtype=np.int32), F)
        assert C.dtype == np.int32 and C.shape == (r, c) and not C.any()

    @pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (2, 3), (2, 6)])
    def test_matmul_route_rule(self, p, k, monkeypatch):
        # the entry lists exactly when B is sparse (at most an eighth nonzero), and the gather when not.  Each
        # operand sits on either side of the eighth, r around k² and the inner dimension around 256, and
        # neither A's fill, r nor the inner dimension moves the route
        F = FieldCtx(p, k).fq
        rng = np.random.default_rng(p * 10 + k)
        taken = _recording_routes(monkeypatch)
        c = 11
        cases = []
        for inner in (255, 256, 265):
            for r in sorted({1, k * k - 1, k * k, k * k + 1} - {0}):
                for a_dense, b_dense in itertools.product((False, True), repeat=2):
                    A = with_nonzeros(rng, F, (r, inner), r * inner // 8 + a_dense)
                    B = with_nonzeros(rng, F, (inner, c), inner * c // 8 + b_dense)
                    cases.append((A, B, b_dense))
        for A, B, b_dense in cases:
            taken.clear()
            assert np.array_equal(_kernels.matmul(A, B, F), _matmul_loops(A, B, F))
            assert taken == ["gather" if b_dense else "entries"]

    def test_matmul_gather_bounds(self, monkeypatch):
        # a dense row over F_25 against a dense B: one chunk at GATHER_MAX_PRODUCTS
        # products, two past it, and no chunk holds more
        F = FieldCtx(5, 2).fq
        rng = np.random.default_rng(25)
        chunks = []
        real_sum_runs = _kernels._sum_runs
        monkeypatch.setattr(
            _kernels, "_sum_runs", lambda vals, starts, F: chunks.append(vals.size) or real_sum_runs(vals, starts, F)
        )
        taken = _recording_routes(monkeypatch)
        c = 1024
        per_chunk = _kernels.GATHER_MAX_PRODUCTS // c
        for inner, count in ((per_chunk, 1), (per_chunk + 1, 2)):
            A, B = with_nonzeros(rng, F, (1, inner), inner), with_nonzeros(rng, F, (inner, c), inner * c)
            chunks.clear()
            taken.clear()
            assert np.array_equal(_kernels.matmul(A, B, F), _matmul_loops(A, B, F))
            assert taken == ["gather"]
            assert len(chunks) == count and max(chunks) <= _kernels.GATHER_MAX_PRODUCTS

    @pytest.mark.parametrize("p,k", MATMUL_FIELDS)
    def test_matmul_gather_largest_codes(self, p, k):
        # every code the largest one, on a dense A: each digit sum of a row is as large as it gets
        F = FieldCtx(p, k).fq
        for r, inner, c in [(1, 32, 3), (4, 200, 5), (3, 96, 11)]:
            A = np.full((r, inner), F.order - 1, dtype=np.int32)
            B = np.full((inner, c), F.order - 1, dtype=np.int32)
            assert np.array_equal(_kernels._matmul_gather(A, B, F), _matmul_loops(A, B, F))

    @pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (2, 6)])
    def test_matmul_gather_chunks(self, p, k, monkeypatch):
        # with room for 7 product rows a chunk, rows of 0 to 20 nonzeros straddle the chunk starts, some
        # across several chunks; the largest codes make every partial and carried sum as large as it gets
        F = FieldCtx(p, k).fq
        rng = np.random.default_rng(p * k + 26)
        c = 5
        monkeypatch.setattr(_kernels, "GATHER_MAX_PRODUCTS", 7 * c + 2)
        A = rand_sparse_rows(rng, F, 30, 40, 0, 20)
        B = rand_mat(rng, F, 40, c)
        cuts, rows = np.arange(7, np.count_nonzero(A), 7), np.nonzero(A)[0]
        assert np.any(rows[cuts] == rows[cuts - 1]) and np.bincount(rows).max() >= 15
        top = np.where(A != 0, F.order - 1, 0).astype(np.int32)
        for X, Y in ((A, B), (np.asfortranarray(A), B), (top, np.full_like(B, F.order - 1))):
            assert np.array_equal(_kernels._matmul_gather(X, Y, F), _matmul_loops(X, Y, F))

    def test_matmul_one_row_over_f64_takes_the_gather(self, monkeypatch):
        # a single row against a wide dense B over F_64, as a vector against a wide basis: it is gathered,
        # however long the row or wide the product
        F = FieldCtx(2, 6).fq
        rng = np.random.default_rng(64)
        taken = _recording_routes(monkeypatch)
        for inner in (256, 512):
            A, B = rand_mat(rng, F, 1, inner), rand_mat(rng, F, inner, 1025)
            A[rng.random(A.shape) < 0.9] = 0  # sparse, so the scalar oracle stays quick
            taken.clear()
            assert np.array_equal(_kernels.matmul(A, B, F), _matmul_loops(A, B, F))
            assert taken == ["gather"]

    @pytest.mark.parametrize("p,k", [(2, 6), (3, 5)])
    def test_matmul_entry_lists(self, p, k, monkeypatch):
        # over F_64 and F_243, both operands sparse: the product is taken on their entry lists, the rows
        # of A dense or empty alike, and a zero sum leaves no entry
        F = FieldCtx(p, k).fq
        rng = np.random.default_rng(p * k + 27)
        taken = _recording_routes(monkeypatch)
        for r, inner, c in [(1, 300, 40), (40, 300, 60), (300, 40, 300)]:
            A = rand_sparse_rows(rng, F, r, inner, 0, max(1, inner // 10))
            B = rand_sparse_rows(rng, F, inner, c, 0, max(1, c // 10))
            A[0, :] = 0
            A[-1, : inner // 8] = rng.integers(1, F.order, size=inner // 8)
            taken.clear()
            want = _matmul_loops(A, B, F)
            assert np.array_equal(_kernels.matmul(A, B, F), want)
            assert np.array_equal(_kernels.matmul(np.asfortranarray(A), B, F), want)  # a transposed view, as is
            assert taken == ["entries", "entries"]
        x = np.array([[1, 1]], dtype=np.int32)
        minus = np.array([[1], [F.NEG[1]]], dtype=np.int32)
        assert not _kernels.matmul(x, minus, F).any()

    @pytest.mark.parametrize("p,k,past_budget", [(2, 6, True), (3, 5, True), (7, 2, False), (3, 1, False)])
    def test_sum_runs_matches_table_sums(self, p, k, past_budget):
        # runs of one code pass through; longer ones are summed as integers over F_3 and folded in pairs
        # through ADD over the extension fields, up to a run of 2^11 + 1 codes (one fold past a power of
        # two; over F_64 and F_243, past_budget, its k digit sums would not fit one int64 word).  The
        # largest code everywhere makes every sum as large as it gets
        F = FieldCtx(p, k).fq
        rng = np.random.default_rng(p * k)
        longest = 2**11 + 1
        for lengths in ([1, 1, 1], [1, 3, 2, 4], [1, longest, 2]):
            starts = np.cumsum([0] + lengths[:-1])
            for width in (None, 1, 4, 9):
                shape = (sum(lengths),) if width is None else (sum(lengths), width)
                for vals in (rng.integers(0, F.order, size=shape), np.full(shape, F.order - 1)):
                    vals = vals.astype(np.int32)
                    runs = (vals[a : a + n] for a, n in zip(starts, lengths))
                    want = np.array([functools.reduce(lambda x, y: F.ADD[x, y], run) for run in runs])
                    got = _kernels._sum_runs(vals, starts, F)
                    assert got.dtype == vals.dtype and np.array_equal(got, want), (lengths, width)
        assert (k * (longest * (p - 1)).bit_length() > 63) == past_budget


class TestKernelAgainstAugmented:
    # linalg.kernel reads the kernel off rref(Mᵀ); the rref of [M | I] is the oracle
    @pytest.mark.parametrize("p,k", [(3, 2), (5, 2)])
    def test_random_and_low_rank(self, p, k):
        F = FieldCtx(p, k).fq
        rng = np.random.default_rng(p + k)
        for n, m, rank in [(12, 12, 12), (12, 9, 9), (9, 12, 9), (15, 15, 6), (20, 7, 3), (7, 20, 5)]:
            M = rand_low_rank(rng, F, n, m, rank)
            got = kernel(M, F)
            assert got == _kernel_augmented(M, F)
            assert got.dim == n - image(M, F).dim >= n - rank

    @pytest.mark.parametrize("p,k", [(3, 2), (5, 2)])
    @pytest.mark.parametrize("n,m", [(6, 6), (6, 4), (0, 5), (5, 0), (0, 0)])
    def test_zero_and_empty_maps(self, p, k, n, m):
        F = FieldCtx(p, k).fq
        M = np.zeros((n, m), dtype=np.int32)
        got = kernel(M, F)
        assert got == _kernel_augmented(M, F)
        assert got == Subspace(F, n, np.eye(n, dtype=np.int32), np.arange(n, dtype=np.int64), _canonical=True)

    @pytest.mark.parametrize("p,k", [(3, 2), (5, 2)])
    def test_reversed_columns_match_echelon_of_null_rows(self, p, k):
        # the null rows of rref(Mᵀ) with Mᵀ's columns in order, put through a second echelon: the basis the
        # reversed elimination must give as it is, on zero, full-rank, low-rank and empty maps
        F = FieldCtx(p, k).fq
        rng = np.random.default_rng(p * k + 31)
        cases = [np.zeros((6, 4), dtype=np.int32), rand_mat(rng, F, 5, 9), rand_mat(rng, F, 9, 5)]
        cases += [rand_low_rank(rng, F, n, m, rank) for n, m, rank in [(15, 15, 6), (12, 20, 1), (20, 7, 3)]]
        cases += [np.zeros(shape, dtype=np.int32) for shape in [(0, 5), (5, 0), (0, 0)]]
        for M in cases:
            got = kernel(M, F)
            assert got == _kernel_by_null_rows(M, F), M.shape
            assert got.rows.dtype == np.int32 and got.rows.flags.c_contiguous and got.pivots.dtype == np.int64
            assert np.array_equal(got.pivots, [int(np.flatnonzero(row)[0]) for row in got.rows])

    @pytest.mark.parametrize("p,k", [(3, 2), (5, 2)])
    def test_invertible_map(self, p, k):
        F = FieldCtx(p, k).fq
        M = np.triu(rand_mat(np.random.default_rng(k), F, 8, 8))
        np.fill_diagonal(M, 1)
        got = kernel(M, F)
        assert got.dim == 0 and got == _kernel_augmented(M, F)


@given(st.lists(st.integers(0, 8), min_size=12, max_size=12))
@settings(max_examples=40, deadline=None)
def test_member_after_echelon(codes):
    F = FieldCtx(3, 2).fq
    rows = np.array(codes, dtype=np.int32).reshape(3, 4)
    S = echelon(rows, F)
    for row in rows:
        assert member(row, S)
