"""Exact matrix kernels over a finite field F_{p^k}.

Matrices are int32 arrays of field codes (the code of Σ_j c_j x^j is
Σ_j c_j p^j).  `matmul` of an r × n matrix A by an n × c matrix B over
F_{p^k} runs row by row over the nonzeros of A (Gustavson, ACM TOMS 4(3),
1978), by one of two routes chosen by the nonzeros of B alone:
`sparse_matmul` on the entry lists of both when at most SPARSE_FILL of B is
nonzero, and else the gather, every nonzero A[i, l] times row l of B in one
MUL lookup and the products of each row summed by `_sum_runs`, at most
GATHER_MAX_PRODUCTS products at a time.  Every product is a table lookup,
so the result is exact at any size.

`_sum_runs` sums runs of codes, or of rows of codes: over a prime field as
integers by one reduceat, over an extension field by folding each run in
pairs through the ADD table, ⌈log2 m⌉ steps for runs of up to m codes; a run
of one code is its own sum.

`rref` is Gauss–Jordan elimination through the tables on one C-order working
copy, in proportion to the nonzeros (the first step of structured Gaussian
elimination: LaMacchia–Odlyzko, CRYPTO '90).  Row operations never make a
zero column nonzero, so pivots are searched for only in the column support,
found once.  A pivot row is zero left of the pivot, and a mostly-zero one
updates only the columns where it is nonzero; a mostly-nonzero pivot row
updates the whole slice from the pivot on.

`sparse_pivot_rows` eliminates a matrix given by its entry lists, on one
dict per row through the field's tables: columns are taken from the highest
down, each with the shortest live row holding it as pivot, and the pivot row
then leaves, scaled to 1 on its pivot and with nothing above it, so nothing
dense is ever formed.  `sparse_rank` is the number of those rows.
`remainder_matrix` lists the entries of the matrix R whose row c is the
remainder of e_c modulo the pivot rows, zero on every pivot column: e_c
itself off the pivots, and on a pivot the remainder built once from the
pivot rows below it.  For an X whose columns are among those c, X·R holds
the remainder of each row of X.  `sparse_matmul` multiplies two matrices
given by their entry lists: it reads B's rows through a CSR row pointer,
expands the products into one entry list and sums it by position
(`_summed_entries`, through `_sum_runs`).  Entry lists are put in (row,
column) order by one stable argsort of row·width + column
(`_position_order`), which passes quickly over runs already in order.
"""

import numpy as np

# matmul multiplies entry lists when at most this fraction of B's entries is nonzero, and gathers B's rows otherwise.
SPARSE_FILL = 1 / 8

# Products the gather holds at once: 64 KB of codes, and their pairwise sums no more, beside the result.
GATHER_MAX_PRODUCTS = 2**14


def matmul(A: np.ndarray, B: np.ndarray, field) -> np.ndarray:
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"shape mismatch {A.shape} @ {B.shape}")
    A = np.asarray(A, dtype=np.int32)  # a transposed view is read in its own order, not copied
    B = np.ascontiguousarray(B, dtype=np.int32)
    if np.count_nonzero(B) <= SPARSE_FILL * B.size:
        rows, cols, vals = sparse_matmul(_entries(A), _entries(B), field)
        C = np.zeros((A.shape[0], B.shape[1]), dtype=np.int32)
        C[rows, cols] = vals
        return C
    return _matmul_gather(A, B, field)


def _matmul_gather(A: np.ndarray, B: np.ndarray, field) -> np.ndarray:
    """A @ B from A's nonzero entries: each A[i, l] times row l of B in one MUL lookup, summed per row of A.
    The entries go GATHER_MAX_PRODUCTS // c at a time (at least one); a row cut by a chunk's start adds its sums."""
    rows, inner, vals = _entries(A)  # row-major, so the entries of a row are one run
    C = np.zeros((A.shape[0], B.shape[1]), dtype=np.int32)
    step = max(1, GATHER_MAX_PRODUCTS // max(1, B.shape[1]))
    for lo in range(0, rows.size, step):
        part = slice(lo, lo + step)
        starts = np.flatnonzero(np.diff(rows[part], prepend=-1))
        first, head = rows[lo], C[rows[lo]].copy()  # head is nonzero only if the row began in an earlier chunk
        C[rows[part][starts]] = _sum_runs(field.MUL[vals[part, None], B[inner[part]]], starts, field)
        C[first] = field.ADD[head, C[first]]
    return C


def _entries(M: np.ndarray) -> tuple:
    """(rows, cols, vals) of the nonzeros of M in row-major order, from one flat scan of M != 0 in memory order: on
    2355 x 2352 at 0.04 % nonzero on 2 vCPUs, 3 ms against 34 ms by np.nonzero(M) and 31 ms to copy a transposed M."""
    if M.flags.f_contiguous and not M.flags.c_contiguous:
        cols, rows, vals = _entries(M.T)
        order = _position_order(rows, cols)
        return rows[order], cols[order], vals[order]
    rows, cols = np.divmod(np.flatnonzero(M != 0), max(1, M.shape[1]))
    return rows, cols, M[rows, cols]


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


def sparse_pivot_rows(rows, cols, vals, shape, field) -> dict:
    """{pivot column c: row dict column -> code} of one sparse elimination of the
    shape[0] x shape[1] matrix with entry vals[k] at (rows[k], cols[k]).

    Positions must be distinct; zero entries are dropped.  Each pivot row is
    1 on its pivot and zero above it (see _eliminate), and the rows span the
    row space.
    """
    return dict(_eliminate(*_sparse_rows(rows, cols, vals, shape), field))


def sparse_rank(rows, cols, vals, shape, field) -> int:
    """Rank of the shape[0] x shape[1] matrix with entry vals[k] at (rows[k], cols[k]): its number of pivot rows.

    Each pivot row is dropped as soon as it is made, so only the live rows are held.
    """
    return sum(1 for _ in _eliminate(*_sparse_rows(rows, cols, vals, shape), field))


def _sparse_rows(rows, cols, vals, shape) -> tuple:
    """(R, holders): R[r] the dict column -> code of row r, holders[c] the rows holding column c.

    Positions must be distinct and inside the shape; zero entries are dropped.
    """
    n, m = shape
    rows, cols, vals = (np.asarray(a, dtype=np.int64).ravel() for a in (rows, cols, vals))
    if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= m):
        raise ValueError(f"entry position outside the {n} x {m} matrix")
    nz = vals != 0
    rows, cols, vals = _sorted_entries(rows[nz], cols[nz], vals[nz])
    R = [{} for _ in range(n)]
    for r, entries in _groups(rows, np.stack([cols, vals], axis=1)).items():
        R[r] = dict(entries)
    by_col = np.argsort(cols, kind="stable")
    return R, _groups(cols[by_col], rows[by_col])


def _eliminate(R: list, holders: dict, field):
    """Yield (c, pivot row) for each pivot column c of the rows R, eliminating them in place.

    A column holds the list of rows that gained it.  Columns are taken in
    descending order, and the pivot of a column is the shortest live row
    holding it (structured Gaussian elimination: LaMacchia–Odlyzko, CRYPTO
    '90).  The pivot row then leaves, scaled to coefficient 1 on its pivot:
    the columns above c are gone from every live row, so it has nothing
    above c, and the rows it updates gain only columns below c.
    """
    ADD, MUL = _TableRows(field.ADD), _TableRows(field.MUL)
    NEG, INV = field.NEG.tolist(), field.INV.tolist()
    for c in sorted(holders, reverse=True):
        live = [r for r in holders.pop(c) if c in R[r]]
        if not live:
            continue
        if len(live) > 1:
            live = set(live)  # a row that lost c and gained it again is listed twice
            pivot = min(live, key=lambda r: len(R[r]))
            live.discard(pivot)
        else:
            pivot, live = live[0], ()
        P, R[pivot] = R[pivot], {}
        inv = INV[P[c]]
        if inv != 1:
            scale = MUL[inv]
            P = {k: scale[v] for k, v in P.items()}
        items = [(k, v) for k, v in P.items() if k != c] if live else ()
        yield c, P
        for r in live:
            row = R[r]
            mul = MUL[NEG[row.pop(c)]]
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


def _sorted_entries(rows, cols, vals) -> tuple:
    """The entries as int64 arrays sorted by (row, column); a repeated or negative position is a ValueError."""
    rows, cols, vals = (np.asarray(a, dtype=np.int64).ravel() for a in (rows, cols, vals))
    if rows.size and min(rows.min(), cols.min()) < 0:
        raise ValueError("negative entry position")
    order = _position_order(rows, cols)
    rows, cols, vals = rows[order], cols[order], vals[order]
    if np.any((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])):
        raise ValueError("repeated entry position")
    return rows, cols, vals


def _position_order(rows, cols) -> np.ndarray:
    """The stable order of non-negative positions by (row, column): one timsort of row·width + column, which passes
    over runs already in order (180k products of ramified-r1 at N = 5: 0.7 ms, against 7 ms by np.lexsort)."""
    width = int(cols.max(initial=0)) + 1
    if int(rows.max(initial=0)) >= np.iinfo(np.int64).max // width:
        raise ValueError("entry positions too large to order")
    return np.argsort(rows * width + cols, kind="stable")


def _summed_entries(rows, cols, vals, field) -> tuple:
    """(rows, cols, vals) of the matrix whose entry at each position is the field sum of the entries
    there: sorted by (row, column), zeros dropped."""
    order = _position_order(rows, cols)
    rows, cols, vals = rows[order], cols[order], vals[order]
    starts = np.flatnonzero(np.diff(rows, prepend=-1) | np.diff(cols, prepend=-1))
    rows, cols, vals = rows[starts], cols[starts], _sum_runs(vals, starts, field)
    nz = vals != 0
    return rows[nz], cols[nz], vals[nz]


def _sum_runs(vals: np.ndarray, starts: np.ndarray, field) -> np.ndarray:
    """The field sum of each run vals[starts[i] : starts[i + 1]] of codes, or of rows of
    codes when vals is 2-D, in vals' dtype.

    When every run is a single code or row, vals is its own answer and is
    returned as it is.  Over a prime field a code is its own digit, so the runs
    are summed as integers and reduced mod p once.  Over an extension field
    the runs are folded in pairs through the ADD table: at step d = 1, 2, 4, …
    each entry whose place in its run is a multiple of 2d takes in the entry d
    places on, so after ⌈log2 of the longest run⌉ steps each run's first entry
    holds its sum.
    """
    m = vals.shape[0]
    lengths = np.diff(starts, append=m)
    longest = int(lengths.max(initial=0))
    if longest <= 1:
        return vals
    if field.deg == 1:
        codes = vals if vals.ndim == 2 else vals[:, None]
        sums = np.add.reduceat(codes, starts, axis=0, dtype=np.int64) % field.p
        return sums.astype(vals.dtype).reshape((len(starts),) + vals.shape[1:])
    acc = vals.copy()
    place = np.arange(m) - np.repeat(starts, lengths)
    rest = np.repeat(lengths, lengths) - place  # entries from this one to the end of its run
    d = 1
    while d < longest:
        at = np.flatnonzero((place % (2 * d) == 0) & (rest > d))
        acc[at] = field.ADD[acc[at], acc[at + d]]
        d *= 2
    return acc[starts]


def sparse_matmul(a: tuple, b: tuple, field) -> tuple:
    """(rows, cols, vals) of A @ B, for A and B given by entry lists (rows, cols, vals): sorted by
    (row, column), zeros dropped.

    Positions must be distinct and non-negative in each.  Every entry (i, k, x)
    of A meets the entries (k, j, y) of B's row k, the run of count[k] entries
    from ptr[k] (B's row pointer, as in CSR), and the products x·y are summed
    by position.
    """
    a_rows, a_cols, a_vals = _sorted_entries(*a)
    b_rows, b_cols, b_vals = _sorted_entries(*b)
    count = np.bincount(b_rows, minlength=1 + int(a_cols.max(initial=-1)))
    ptr, n = (np.cumsum(count) - count)[a_cols], count[a_cols]
    at = np.arange(n.sum()) + np.repeat(ptr - (np.cumsum(n) - n), n)  # the runs A's entries meet, end to end
    return _summed_entries(np.repeat(a_rows, n), b_cols[at], field.MUL[np.repeat(a_vals, n), b_vals[at]], field)


def remainder_matrix(columns, pivot_rows: dict, field) -> tuple:
    """(rows, cols, vals) of the matrix R whose row c, for each c in columns, is the remainder of e_c modulo the
    pivot rows of sparse_pivot_rows: e_c itself off the pivots, and built once by _remainders on each pivot met.

    Every row of R is zero on the pivot columns, so X @ R (sparse_matmul) is the remainder of each row of an X
    whose columns are among these.  Repeated columns make one row; a negative column is a ValueError.
    """
    cols = np.sort(np.asarray(columns, dtype=np.int64).ravel())
    if cols.size and cols[0] < 0:
        raise ValueError("negative entry position")
    cols = cols[np.diff(cols, prepend=-1) != 0]
    is_pivot = np.zeros(1 + max(cols.max(initial=-1), max(pivot_rows, default=-1)), dtype=bool)
    is_pivot[list(pivot_rows)] = True
    free, met = cols[~is_pivot[cols]], cols[is_pivot[cols]].tolist()
    rem = _remainders(met, pivot_rows, field)
    sizes = np.fromiter((len(rem[c]) for c in met), dtype=np.int64, count=len(met))
    rem_cols = np.fromiter((k for c in met for k in rem[c]), dtype=np.int64, count=int(sizes.sum()))
    rem_vals = np.fromiter((v for c in met for v in rem[c].values()), dtype=np.int64, count=rem_cols.size)
    rows = np.concatenate([free, np.repeat(np.array(met, dtype=np.int64), sizes)])
    return rows, np.concatenate([free, rem_cols]), np.concatenate([np.ones_like(free), rem_vals])


def _remainders(columns: list, pivot_rows: dict, field) -> dict:
    """{pivot column c: the remainder of e_c modulo the pivot rows, a dict column -> code}, for c in columns and
    every lower pivot they reach; each is built once, after those of the pivots below it in its row."""
    ADD, MUL = _TableRows(field.ADD), _TableRows(field.MUL)
    NEG = field.NEG.tolist()
    rem = {}
    todo = list(columns)
    while todo:
        c = todo[-1]
        if c in rem:
            todo.pop()
            continue
        P = pivot_rows[c]
        below = [k for k in P if k != c and k in pivot_rows and k not in rem]
        if below:
            todo += below
            continue
        todo.pop()
        acc = {}
        for k, v in P.items():
            if k == c:
                continue
            mul = MUL[NEG[v]]
            for j, w in (rem[k] if k in pivot_rows else {k: 1}).items():
                old = acc.get(j)
                if old is None:
                    acc[j] = mul[w]
                else:
                    s = ADD[old][mul[w]]
                    if s:
                        acc[j] = s
                    else:
                        del acc[j]
        rem[c] = acc
    return rem
