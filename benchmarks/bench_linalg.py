"""Timings for the finite-field kernels and the translation tables.

Times matmul, rref and linalg.kernel at one square size.  The matmul
operands are dense and random, so the line times the gather, each nonzero
A[i, l] times row l of B in one MUL lookup: the cost of a dense product,
which no caller in src makes.  It also times Subspace.reduce of size rows
against a near-full subspace (dimension size − 4, so the product
runs over the few non-pivot columns), rref of a sparse
matrix, an end-to-end truncated_L(N=2) computation, and the level-2
translation tables of every u_generators(ctx, 2) at q = 25 and q = 243.
The kernel's matrix repeats its first size/30 columns at the end, so its
rank falls short of the size and the kernel is not zero.  induction.move_keys
is timed at the main-lemma shapes q = 25, D = 4 and q = 49, D = 16, on
the dim V₀ rows of R₂ that hold V₀'s rows on every first-digit block (the
rows analysis._minus_identity_on_blocks translates) and on 8 dense random
rows of R₂, with the (permutation, twist) table of the first level-2
generator; V₀ is built outside the timed part.  The sparse matrix
is T(I^o) -> I^e of ramified-r1 at N = 3 over F_3 (546 x 1640, 1820
nonzeros, 729 zero columns), the echelon the truncation suite builds.  Each
end-to-end repeat builds a fresh context (inside the timed call), so results
memoised on a context never shortcut a repeat.  Each repeat of the tables
also starts from a fresh context, built with its generators (and so with the
Teichmüller lifts) outside the timed part.  For ramified-r1 at N = 3 and
N = 4 it times the two sparse eliminations truncated_L makes for dim L_N^U:
_kernels.sparse_pivot_rows on the entries of T (dim I^o x dim I^e, in the
column order of analysis.fixed_space_system), and the rank of the
dim L_N x g·dim L_N quotient system that fixed_space_system builds.  Both
sets of entries are built outside the timed part.  Beside them it times the
reduction of that system: the remainder matrix of every column the
generators' translation rows meet (_kernels.remainder_matrix) and one
sparse_matmul per generator, with the rows gathered and T's pivot rows
built outside the timed part.  First of all, it times the certified lower
bound of dim L_2^U (analysis._certified_fixed_lower_bound: one sparse rank
of T from R₁ stacked with the witness pair) on (3,4,1,(1,1,0,0)), q = 81,
D = 4, with the main lemma built outside the timed part, and prints the
process's ru_maxrss before and after it.
Run from the repository root:

    python3 benchmarks/bench_linalg.py --size 400 --repeat 3
"""

import argparse
import resource
import time

import numpy as np


def best_of(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def best_tables(args, repeat: int) -> float:
    """Best time of translation_table(c, 2) for every u_generators(ctx, 2), each repeat on a fresh ctx."""
    from indgl2 import analysis
    from indgl2.localring import translation_table

    best = float("inf")
    for _ in range(repeat):
        gens = analysis.u_generators(analysis.build_ctx(*args, N=analysis.MAIN_LEMMA_PRECISION), 2)
        t0 = time.perf_counter()
        for c in gens:
            translation_table(c, 2)
        best = min(best, time.perf_counter() - t0)
    return best


def move_keys_times(args, repeat: int) -> str:
    """Best times of move_keys on V₀'s rows tiled over the q first-digit blocks of R₂ and on 8 dense random rows of R₂."""
    from indgl2 import analysis
    from indgl2.induction import move_keys
    from indgl2.localring import translation_table

    ctx = analysis.build_ctx(*args, N=analysis.MAIN_LEMMA_PRECISION)
    B0 = analysis._candidate_spaces(ctx).tplus_r1.block
    V0 = analysis._first_digit_block(ctx, [c * ctx.ring.uniformizer() for c in analysis.u_generators(ctx, 1)], B0)
    perm, twist = translation_table(analysis.u_generators(ctx, 2)[0], 2)
    rows = np.tile(V0.rows, ctx.q)
    dense = np.random.default_rng(1).integers(0, ctx.weight.field.kk.order, size=(8, rows.shape[1])).astype(np.int32)
    t_rows = best_of(lambda: move_keys(ctx, perm, twist, rows), repeat)
    t_dense = best_of(lambda: move_keys(ctx, perm, twist, dense), repeat)
    return (
        f"move_keys q={ctx.q} D={ctx.D} V0 rows {rows.shape[0]}x{rows.shape[1]}: {t_rows * 1e3:8.2f} ms   "
        f"dense 8x{rows.shape[1]}: {t_dense * 1e3:8.2f} ms   "
    )


def certified_bound_time(args, repeat: int) -> str:
    """Best time of _certified_fixed_lower_bound at N = 2, and ru_maxrss before and after its calls."""
    from indgl2 import analysis

    ctx = analysis.build_ctx(*args, N=analysis.truncation_precision(2))
    analysis.main_lemma_report(ctx)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t = best_of(lambda: analysis._certified_fixed_lower_bound(ctx, 2), repeat)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return (
        f"certified bound q={ctx.q} D={ctx.D} (N=2): {t * 1e3:8.1f} ms   "
        f"ru_maxrss {before:.1f} -> {after:.1f} MB   "
    )


def reduction_time(ctx, N: int, pivot_rows: dict, repeat: int) -> float:
    """Best time of the remainder matrix of one fixed_space_system and its product with each generator's rows."""
    from indgl2 import _kernels, analysis
    from indgl2.induction import LevelRange, range_dim, translation_entries

    kk = ctx.weight.field.kk
    lr_even = LevelRange("even", 0, 2 * N)
    dim_ie = range_dim(ctx, lr_even)
    free = np.ones(dim_ie, dtype=bool)
    free[np.fromiter(pivot_rows, dtype=np.int64, count=len(pivot_rows)) % dim_ie] = False
    blocks = []
    for c in analysis.u_generators(ctx, 2 * N):
        rows, cols, vals = translation_entries(ctx, c, lr_even)
        on_f = free[rows]
        blocks.append((rows[on_f], analysis._elimination_column(ctx, cols[on_f], dim_ie), vals[on_f]))
    cols = np.concatenate([block[1] for block in blocks])

    def reduce():
        R = _kernels.remainder_matrix(cols, pivot_rows, kk)
        for block in blocks:
            _kernels.sparse_matmul(block, R, kk)

    return best_of(reduce, repeat)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=400, help="square matrix size")
    ap.add_argument("--repeat", type=int, default=3, help="take the best of this many runs")
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--f", type=int, default=2)
    args = ap.parse_args()

    from indgl2 import _kernels, analysis, linalg
    from indgl2.gf import FieldCtx
    from indgl2.induction import LevelRange, hecke_entries, hecke_matrix, range_dim

    certified = certified_bound_time((3, 4, 1, (1, 1, 0, 0)), args.repeat)
    field = FieldCtx(args.p, args.f).fq
    rng = np.random.default_rng(0)
    n = args.size
    A = rng.integers(0, field.order, size=(n, n)).astype(np.int32)
    B = rng.integers(0, field.order, size=(n, n)).astype(np.int32)

    t_mm = best_of(lambda: _kernels.matmul(A, B, field), args.repeat)
    t_rr = best_of(lambda: _kernels.rref(A, field), args.repeat)
    K = A.copy()
    K[:, n - n // 30 :] = K[:, : n // 30]
    t_ker = best_of(lambda: linalg.kernel(K, field), args.repeat)
    near_full = linalg.echelon(A[: n - 4], field, ambient=n)
    t_red = best_of(lambda: near_full.reduce(B), args.repeat)
    ctx = analysis.build_ctx(3, 1, 2, (1,), N=7)
    T = hecke_matrix(ctx, LevelRange("odd", 1, 5), LevelRange("even", 0, 6))
    t_sp = best_of(lambda: _kernels.rref(T, ctx.weight.field.kk), args.repeat)
    t_e2e = best_of(lambda: analysis.truncated_L(analysis.build_ctx(3, 1, 2, (0,), N=8), 2), args.repeat)
    ranks = ""
    for N in (3, 4):
        ctx = analysis.build_ctx(3, 1, 2, (1,), N=analysis.truncation_precision(N))
        kk = ctx.weight.field.kk
        lr_odd, lr_even = LevelRange("odd", 1, 2 * N - 1), LevelRange("even", 0, 2 * N)
        t_rows, t_cols, t_vals = hecke_entries(ctx, lr_odd, lr_even)
        shape = (range_dim(ctx, lr_odd), range_dim(ctx, lr_even))
        t_cols = analysis._elimination_column(ctx, t_cols, shape[1])  # the column order fixed_space_system takes
        t_piv = best_of(
            lambda: _kernels.sparse_pivot_rows(t_rows, t_cols, t_vals, (shape[0], 2 * shape[1]), kk), args.repeat
        )
        pivot_rows = _kernels.sparse_pivot_rows(t_rows, t_cols, t_vals, (shape[0], 2 * shape[1]), kk)
        t_reduce = reduction_time(ctx, N, pivot_rows, args.repeat)
        rows, cols, vals, (r, c) = analysis.fixed_space_system(ctx, N)
        t_rank = best_of(lambda: _kernels.sparse_rank(rows, cols, vals, (r, c), kk), args.repeat)
        ranks += (
            f"pivot rows T {shape[0]}x{shape[1]} (N={N}): {t_piv * 1e3:8.1f} ms   "
            f"remainders + products (N={N}): {t_reduce * 1e3:8.1f} ms   "
            f"sparse_rank quotient {r}x{c} (N={N}): {t_rank * 1e3:8.1f} ms   "
        )
    moves = move_keys_times((5, 2, 1, (1, 1)), args.repeat) + move_keys_times((7, 2, 1, (3, 3)), args.repeat)
    t_q25 = best_tables((5, 2, 1, (1, 1)), args.repeat)
    t_q243 = best_tables((3, 5, 1, (0,) * 5), args.repeat)
    print(
        f"{certified}matmul {n}x{n}: {t_mm * 1e3:8.1f} ms   "
        f"rref {n}x{n}: {t_rr * 1e3:8.1f} ms   kernel {n}x{n}: {t_ker * 1e3:8.1f} ms   "
        f"reduce {n} rows mod dim {near_full.dim}: {t_red * 1e3:8.1f} ms   "
        f"sparse rref {T.shape[0]}x{T.shape[1]}: {t_sp * 1e3:8.1f} ms   "
        f"truncated_L(N=2): {t_e2e * 1e3:8.1f} ms   {ranks}{moves}"
        f"tables q=25: {t_q25 * 1e3:8.1f} ms   tables q=243: {t_q243 * 1e3:8.1f} ms"
    )


if __name__ == "__main__":
    main()
