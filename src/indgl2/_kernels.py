"""Exact matrix kernels over a finite field F_{p^k}.

Matrices are int32 arrays of field codes (the code of Σ_j c_j x^j is
Σ_j c_j p^j).  `matmul` of an r × n matrix A by an n × c matrix B over
F_{p^k} takes one of two routes, chosen by the shapes of both operands:

- coefficient planes, when n ≥ PLANE_MIN_INNER and r ≥ k², that is when the
  k²·n·c entries of B's digit matrix are no more than the r·n·c table
  lookups they replace: digit d of a·b is Σ_j a_j · digit_d(b·x^j), so
  A @ B is a float64 (BLAS) product of the r × n·k digit matrix of A with
  the n·k × c·k matrix of the digits of B·x^j, followed by one reduction
  mod p (of the sums, cast to int64) and the recombination Σ_d plane_d·p^d
  (delayed reduction, as in FFLAS-FFPACK: Dumas–Giorgi–Pernet, ACM TOMS
  35(3), 2008).  B's digits are built a slice of c / k² columns at a time,
  so no slice has more entries than B itself, and a prime field (k = 1)
  takes one slice.  Every partial sum is an integer at most n·k·(p−1)² <
  2^53, so the product is exact whatever order or thread count BLAS sums
  in; a larger inner dimension is a ValueError;
- the table loop otherwise: one vectorised lookup in the field's MUL and ADD
  tables per inner index.

`rref` is Gauss–Jordan elimination through the tables on one C-order working
copy, in proportion to the nonzeros (the first step of structured Gaussian
elimination: LaMacchia–Odlyzko, CRYPTO '90).  Row operations never make a
zero column nonzero, so pivots are searched for only in the column support,
found once.  A pivot row is zero left of the pivot, and a mostly-zero one
updates only the columns where it is nonzero; a mostly-nonzero pivot row
updates the whole slice from the pivot on.

`sparse_rank` is the rank of a matrix given by its entry lists, by
elimination on one dict per row through the field's tables: columns are
taken from the highest down, each with the shortest live row holding it as
pivot, and the pivot row then leaves, so nothing dense is ever formed.
"""

import numpy as np

# Inner dimension from which matmul may multiply coefficient planes.  Below it
# the table loop wins: converting B to float64 digits costs more than the few
# lookups of the narrow, very sparse translation products (inner dimension
# ≤ 100).
PLANE_MIN_INNER = 256

# Largest integer up to which float64 arithmetic is exact.
_EXACT_FLOAT = 2**53


def matmul(A: np.ndarray, B: np.ndarray, field) -> np.ndarray:
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"shape mismatch {A.shape} @ {B.shape}")
    A = np.ascontiguousarray(A, dtype=np.int32)
    B = np.ascontiguousarray(B, dtype=np.int32)
    r, n = A.shape
    # B's digit matrix has k²·n·c entries, the table loop makes up to r·n·c lookups
    if n >= PLANE_MIN_INNER and r >= field.deg**2:
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
    """A @ B as float64 products of coefficient planes, reduced mod p once per slice of B's columns."""
    p, k = field.p, field.deg
    (r, n), c = A.shape, B.shape[1]
    if n * k * (p - 1) ** 2 >= _EXACT_FLOAT:
        raise ValueError(f"inner dimension {n} over F_{p}^{k} exceeds exact float64 accumulation")
    if k == 1:
        C = A.astype(np.float64) @ B.astype(np.float64)
        return (C.astype(np.int64) % p).astype(np.int32)
    digits = field.AXJ_DIGITS
    left = digits[A, 0, :].reshape(r, n * k)  # digit j of A[i, l] at column l·k + j
    weights = p ** np.arange(k, dtype=np.int64)
    width = max(1, c // (k * k))  # a slice's digit matrix has no more entries than B
    C = np.empty((r, c), dtype=np.int32)
    for lo in range(0, c, width):
        cols = B[:, lo : lo + width]
        w = cols.shape[1]
        right = digits[cols].transpose(0, 2, 1, 3).reshape(n * k, w * k)  # digit d of B[l, m]·x^j
        planes = (left @ right).astype(np.int64).reshape(r, w, k) % p
        C[:, lo : lo + w] = planes @ weights
    return C


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


class _TableRows(dict):
    """Rows of a field table as Python lists, each converted on first use."""

    def __init__(self, table: np.ndarray):
        super().__init__()
        self.table = table

    def __missing__(self, a: int) -> list:
        row = self[a] = self.table[a].tolist()
        return row


def _groups(keys: np.ndarray, values: np.ndarray) -> dict:
    """{key: list of its values}, for keys sorted ascending."""
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    bounds = starts.tolist() + [keys.size]
    vlist = values.tolist()
    return {k: vlist[a:b] for k, a, b in zip(keys[starts].tolist(), bounds, bounds[1:])}


def sparse_rank(rows, cols, vals, shape, field) -> int:
    """Rank of the shape[0] x shape[1] matrix with entry vals[k] at (rows[k], cols[k]).

    Positions must be distinct; zero entries are dropped.  Each row is a dict
    column -> code, and a column holds the list of rows that gained it.
    Columns are taken in descending order, and the pivot of a column is the
    shortest live row holding it (structured Gaussian elimination:
    LaMacchia–Odlyzko, CRYPTO '90).  The pivot row then leaves: the columns
    above c are gone from every live row, so the rows it updates gain only
    columns below c, and the rank is the number of pivots.
    """
    n, m = shape
    rows, cols, vals = (np.asarray(a, dtype=np.int64).ravel() for a in (rows, cols, vals))
    if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= m):
        raise ValueError(f"entry position outside the {n} x {m} matrix")
    nz = vals != 0
    rows, cols, vals = rows[nz], cols[nz], vals[nz]
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if np.any((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])):
        raise ValueError("repeated entry position")
    R = [{} for _ in range(n)]
    for r, entries in _groups(rows, np.stack([cols, vals], axis=1)).items():
        R[r] = dict(entries)
    by_col = np.argsort(cols, kind="stable")
    holders = _groups(cols[by_col], rows[by_col])
    del rows, cols, vals, by_col  # only R and holders are read from here on
    ADD, MUL = _TableRows(field.ADD), _TableRows(field.MUL)
    NEG, INV = field.NEG.tolist(), field.INV.tolist()
    rank = 0
    for c in sorted(holders, reverse=True):
        live = [r for r in holders.pop(c) if c in R[r]]
        if not live:
            continue
        rank += 1
        if len(live) == 1:
            R[live[0]] = {}
            continue
        live = set(live)  # a row that lost c and gained it again is listed twice
        pivot = min(live, key=lambda r: len(R[r]))
        live.discard(pivot)
        P, R[pivot] = R[pivot], {}
        inv = INV[P.pop(c)]
        items = list(P.items())
        for r in live:
            row = R[r]
            mul = MUL[MUL[NEG[row.pop(c)]][inv]]
            for k, v in items:
                w = mul[v]
                old = row.get(k)
                if old is None:
                    row[k] = w
                    holders[k].append(r)
                else:
                    s = ADD[old][w]
                    if s:
                        row[k] = s
                    else:
                        del row[k]
    return rank
