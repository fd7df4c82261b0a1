"""Exact matrix kernels over a finite field F_{p^k}.

Matrices are int32 arrays of field codes (the code of Σ_j c_j x^j is
Σ_j c_j p^j).  `matmul` takes one of two routes, chosen by the shape of the
left operand alone:

- the table loop, for an inner dimension below PLANE_MIN_INNER: one
  vectorised lookup in the field's MUL and ADD tables per inner index;
- coefficient planes, from PLANE_MIN_INNER on: digit d of a·b is
  Σ_j a_j · digit_d(b·x^j), so A @ B is one float64 (BLAS) product of the
  r × n·k digit matrix of A with the n·k × c·k matrix of the digits of
  B·x^j, followed by one reduction mod p (of the sums, cast to int64) and the
  recombination Σ_d plane_d·p^d (delayed reduction, as in FFLAS-FFPACK:
  Dumas–Giorgi–Pernet, ACM TOMS 35(3), 2008).  Every partial sum is an
  integer at most n·k·(p−1)² < 2^53, so the product is exact whatever order
  or thread count BLAS sums in; a larger inner dimension is a ValueError.

`rref` is Gauss–Jordan elimination through the tables on one C-order working
copy, in proportion to the nonzeros (the first step of structured Gaussian
elimination: LaMacchia–Odlyzko, CRYPTO '90).  Row operations never make a
zero column nonzero, so pivots are searched for only in the column support,
found once.  A pivot row is zero left of the pivot, and a mostly-zero one
updates only the columns where it is nonzero; a mostly-nonzero pivot row
updates the whole slice from the pivot on.
"""

import numpy as np

# Inner dimension from which matmul multiplies coefficient planes.  Below it
# the table loop wins: the plane route converts all of B to a float64 matrix
# k² times its size, which on the few-row, very sparse translation products
# (inner dimension ≤ 100) costs more time and memory than the lookups it saves.
PLANE_MIN_INNER = 256

# Largest integer up to which float64 arithmetic is exact.
_EXACT_FLOAT = 2**53


def matmul(A: np.ndarray, B: np.ndarray, field) -> np.ndarray:
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"shape mismatch {A.shape} @ {B.shape}")
    A = np.ascontiguousarray(A, dtype=np.int32)
    B = np.ascontiguousarray(B, dtype=np.int32)
    if A.shape[1] >= PLANE_MIN_INNER:
        return _matmul_planes(A, B, field)
    ADD, MUL = field.ADD, field.MUL
    C = np.zeros((A.shape[0], B.shape[1]), dtype=np.int32)
    for k in range(A.shape[1]):
        col = A[:, k]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        prod = MUL[col[nz][:, None], B[k][None, :]]
        C[nz] = ADD[C[nz], prod]
    return C


def _matmul_planes(A: np.ndarray, B: np.ndarray, field) -> np.ndarray:
    """A @ B as one float64 product of coefficient planes, reduced mod p once."""
    p, k = field.p, field.deg
    (r, n), c = A.shape, B.shape[1]
    if n * k * (p - 1) ** 2 >= _EXACT_FLOAT:
        raise ValueError(f"inner dimension {n} over F_{p}^{k} exceeds exact float64 accumulation")
    if k == 1:
        C = A.astype(np.float64) @ B.astype(np.float64)
        return (C.astype(np.int64) % p).astype(np.int32)
    digits = field.AXJ_DIGITS
    left = digits[A, 0, :].reshape(r, n * k)  # digit j of A[i, l] at column l·k + j
    right = digits[B].transpose(0, 2, 1, 3).reshape(n * k, c * k)  # digit d of B[l, m]·x^j
    planes = (left @ right).astype(np.int64).reshape(r, c, k) % p
    return (planes @ p ** np.arange(k, dtype=np.int64)).astype(np.int32)


def rref(M: np.ndarray, field):
    """Reduced row echelon form with first-nonzero pivoting; returns (R, pivot columns).

    R is the one C-order working copy of M.  Row operations never make a zero
    column nonzero, so only the columns in M's support are searched for
    pivots, and each pivot updates only the columns where its row is nonzero
    (all of them from the pivot on when the row is mostly nonzero).
    """
    R = np.array(M, dtype=np.int32, order="C")
    n, m = R.shape
    ADD, MUL, NEG, INV = field.ADD, field.MUL, field.NEG, field.INV
    pivots = []
    row = 0
    for col in np.flatnonzero(R.any(axis=0)).tolist():
        if row >= n:
            break
        nz = R[:, col].nonzero()[0]
        below = nz[nz >= row]
        if below.size == 0:
            continue
        sel = int(below[0])
        if sel != row:
            R[[row, sel], col:] = R[[sel, row], col:]
        # the swap moved sel's entry to row, where column col was zero
        others = nz[nz != sel]
        cols = col + R[row, col:].nonzero()[0]
        if 2 * cols.size < m - col:
            rows, span = others[:, None], cols
        else:
            rows, span = others, slice(col, m)
        inv = int(INV[R[row, col]])
        if inv != 1:
            R[row, span] = MUL[inv, R[row, span]]
        if others.size:
            coef = NEG[R[others, col]][:, None]
            R[rows, span] = ADD[R[rows, span], MUL[coef, R[row, span]]]
        pivots.append(col)
        row += 1
    return R, np.array(pivots, dtype=np.int64)


def vec_mat(v: np.ndarray, M: np.ndarray, field) -> np.ndarray:
    return matmul(v.reshape(1, -1), M, field)[0]
