"""Table-driven matrix kernels over a finite field.

Matrices are int32 arrays of field codes; arithmetic goes through the dense
lookup tables of a PrimeExtField, vectorised over whole rows and columns.
"""

import numpy as np


def matmul(A: np.ndarray, B: np.ndarray, field) -> np.ndarray:
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"shape mismatch {A.shape} @ {B.shape}")
    A = np.ascontiguousarray(A, dtype=np.int32)
    B = np.ascontiguousarray(B, dtype=np.int32)
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


def rref(M: np.ndarray, field):
    """Reduced row echelon form with first-nonzero pivoting; returns (R, pivot columns)."""
    M = np.ascontiguousarray(M, dtype=np.int32)
    if M.size == 0:
        return M.copy(), np.empty(0, dtype=np.int64)
    ADD, MUL, NEG, INV = field.ADD, field.MUL, field.NEG, field.INV
    R = M.copy()
    n, m = R.shape
    pivots = []
    row = 0
    for col in range(m):
        if row >= n:
            break
        nz = np.nonzero(R[row:, col])[0]
        if nz.size == 0:
            continue
        sel = row + int(nz[0])
        if sel != row:
            R[[row, sel]] = R[[sel, row]]
        inv = int(INV[R[row, col]])
        if inv != 1:
            R[row] = MUL[inv, R[row]]
        others = np.nonzero(R[:, col])[0]
        others = others[others != row]
        if others.size:
            coef = NEG[R[others, col]]
            R[others] = ADD[R[others], MUL[coef[:, None], R[row][None, :]]]
        pivots.append(col)
        row += 1
    return R, np.array(pivots, dtype=np.int64)


def vec_mat(v: np.ndarray, M: np.ndarray, field) -> np.ndarray:
    return matmul(v.reshape(1, -1), M, field)[0]
