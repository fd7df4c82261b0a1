"""Exact subspace algebra over a finite field K.

Vectors are rows of field codes, and a linear map is a plain matrix M in the
row convention: it sends the row vector v to v @ M (row i of M is the image
of the i-th domain basis vector), and the field is passed beside it.  A
Subspace is stored in reduced row echelon form, which is unique, so equality
of subspaces is equality of row arrays.  Everything here is exact, and a
Subspace is dense; a BlockSum, q copies of one subspace on disjoint
coordinates, is kept as that pair, so its ambient can be q times wider.
"""

import numpy as np

from . import _kernels
from .errors import DimensionMismatch
from .gf import PrimeExtField


class Subspace:
    """Row span in K^ambient, held in reduced echelon form."""

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(self, field: PrimeExtField, ambient: int, rows: np.ndarray, pivots: np.ndarray, _canonical: bool = False):
        self.field = field
        self.ambient = ambient
        if not _canonical:
            raise ValueError("use echelon() to build subspaces")
        self.rows = rows
        self.pivots = pivots

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field is other.field
            and self.ambient == other.ambient
            and self.rows.shape == other.rows.shape
            and np.array_equal(self.rows, other.rows)
        )

    def __hash__(self):
        return hash((id(self.field), self.ambient, self.rows.tobytes()))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Remainder of v (one vector or a stack of rows) after clearing all
        pivot coordinates; zero iff v is a member.

        The rows are in reduced echelon form, so the remainder is
        v - v[pivots] @ rows in a single product.  That is zero on every
        pivot (row i is 1 on its pivot and 0 on the others), so the product
        is taken only over the non-pivot columns where some row is nonzero,
        and the pivots are written as zero.
        """
        F = self.field
        out = np.asarray(v, dtype=np.int32)
        if out.ndim not in (1, 2) or out.shape[-1] != self.ambient:
            raise DimensionMismatch(f"vector length {out.shape} vs ambient {self.ambient}")
        cols = np.flatnonzero(self.rows.any(axis=0))
        cols = cols[~np.isin(cols, self.pivots)]
        stack = out if out.ndim == 2 else out[None]
        cleared = _kernels.matmul(stack[:, self.pivots], self.rows[:, cols], F)
        rem = stack.copy()
        rem[:, self.pivots] = 0
        rem[:, cols] = F.ADD[stack[:, cols], F.NEG[cleared]]
        return rem if out.ndim == 2 else rem[0]


def echelon(vectors, field: PrimeExtField, ambient: int | None = None) -> Subspace:
    rows = np.asarray(vectors, dtype=np.int32)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    if rows.size == 0:
        if ambient is None:
            raise DimensionMismatch("empty vector list needs an explicit ambient")
        return Subspace(field, ambient, np.zeros((0, ambient), dtype=np.int32), np.empty(0, dtype=np.int64), _canonical=True)
    amb = rows.shape[1]
    if ambient is not None and ambient != amb:
        raise DimensionMismatch(f"ambient {ambient} vs vector length {amb}")
    R, piv = _kernels.rref(rows, field)
    R = R[: len(piv)]
    return Subspace(field, amb, np.ascontiguousarray(R), piv, _canonical=True)


class BlockSum:
    """S ⊕ .. ⊕ S in K^(copies·S.ambient), copy k on coordinates k·S.ambient .. (k+1)·S.ambient - 1.

    Held as the pair (S, copies); the (copies·dim S) x (copies·S.ambient)
    array is never formed.  The copies have disjoint supports, so S's reduced
    rows placed copy by copy are the reduced echelon form of the sum: its
    pivots are S's pivots shifted to each copy, and the coordinates of a
    member v over those rows are v[pivots], as for a Subspace.
    """

    __slots__ = ("block", "copies")

    def __init__(self, block: Subspace, copies: int):
        self.block = block
        self.copies = copies

    @property
    def dim(self) -> int:
        return self.copies * self.block.dim

    @property
    def ambient(self) -> int:
        return self.copies * self.block.ambient

    @property
    def pivots(self) -> np.ndarray:
        S = self.block
        return (S.pivots[None, :] + S.ambient * np.arange(self.copies)[:, None]).reshape(-1)

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Remainder of v (one vector or a stack of rows): each copy's coordinates reduced mod S."""
        out = np.asarray(v, dtype=np.int32)
        if out.ndim not in (1, 2) or out.shape[-1] != self.ambient:
            raise DimensionMismatch(f"vector length {out.shape} vs ambient {self.ambient}")
        return self.block.reduce(out.reshape(-1, self.block.ambient)).reshape(out.shape)

    def vectors(self, coords: np.ndarray) -> np.ndarray:
        """The vectors whose coordinates over the rows of this sum are the rows of coords.

        Piece k of a coordinate row, its k-th run of block.dim entries, times
        the block's rows is copy k of the vector, so one product of the pieces
        with the block gives every copy.
        """
        B = self.block
        if coords.ndim != 2 or coords.shape[1] != self.dim:
            raise DimensionMismatch(f"coordinates of shape {coords.shape} vs a basis of {self.dim} rows")
        return _kernels.matmul(coords.reshape(-1, B.dim), B.rows, B.field).reshape(len(coords), self.ambient)


def non_pivots(pivots: np.ndarray, ambient: int) -> np.ndarray:
    """The columns 0 .. ambient - 1 that are not in pivots, in increasing order."""
    free = np.ones(ambient, dtype=bool)
    free[pivots] = False
    return np.flatnonzero(free)


def member(v, S: Subspace | BlockSum) -> bool:
    return not np.any(S.reduce(v))


def member_over(v, frame: Subspace | BlockSum, S: Subspace) -> bool:
    """v ∈ S (each row, for a stack), S in coordinates over frame's rows: v ∈ frame and v[frame.pivots] ∈ S."""
    return member(v, frame) and member(np.asarray(v)[..., frame.pivots], S)


def _matrix(M) -> np.ndarray:
    """M as an int32 matrix, with no copy when it already is one."""
    M = np.asarray(M, dtype=np.int32)
    if M.ndim != 2:
        raise DimensionMismatch(f"matrix must be 2-dimensional, got shape {M.shape}")
    return M


def kernel(M, field: PrimeExtField) -> Subspace:
    """{v : v @ M = 0}, read off R = rref(Mᵀ) with Mᵀ's columns in reverse order.

    v @ M = 0 says Mᵀ vᵀ = 0, so every free column j of R gives the kernel
    vector e_j − Σ_i R[i, j]·e_{piv_i}, whose other entries sit on pivots
    left of j (R[i, j] = 0 unless piv_i < j).  In the original order they lie
    right of the free column, so these vectors, by increasing original
    column, are already the reduced echelon basis with the free columns as
    pivots, and no second elimination is made.  The row reduction is only as
    wide as the domain, with no identity block beside M.
    """
    M = _matrix(M)
    n = M.shape[0]
    R, piv = _kernels.rref(M.T[:, ::-1], field)
    free = non_pivots(piv, n)[::-1]  # decreasing reversed position: increasing original column
    null_rows = np.zeros((free.size, n), dtype=np.int32)
    null_rows[np.arange(free.size), free] = 1
    null_rows[:, piv] = field.NEG[R[: len(piv)][:, free]].T
    return Subspace(field, n, np.ascontiguousarray(null_rows[:, ::-1]), n - 1 - free, _canonical=True)


def intersect(S: Subspace, T: Subspace) -> Subspace:
    """Zassenhaus: reduce [[S|S],[T|0]]; rows with zero left half span S ∩ T on the right."""
    if S.field is not T.field or S.ambient != T.ambient:
        raise DimensionMismatch("subspaces live in different ambients")
    F = S.field
    n = S.ambient
    if S.dim == 0 or T.dim == 0:
        return echelon(np.zeros((0, n), dtype=np.int32), F, ambient=n)
    top = np.hstack([S.rows, S.rows])
    bot = np.hstack([T.rows, np.zeros_like(T.rows)])
    R, piv = _kernels.rref(np.vstack([top, bot]), F)
    R = R[: len(piv)]
    inter_rows = R[piv >= n][:, n:]
    return echelon(inter_rows, F, ambient=n)


def preimage(M, S: Subspace) -> Subspace:
    """{v : v @ M ∈ S}; reduction of rows mod S is linear, then a kernel solve."""
    M = _matrix(M)
    if S.ambient != M.shape[1]:
        raise DimensionMismatch(f"subspace ambient {S.ambient} vs map codomain {M.shape[1]}")
    return kernel(S.reduce(M), S.field)


def _minus_identity(u, field: PrimeExtField, n: int) -> np.ndarray:
    """u - 1 for an n x n matrix u, as a new matrix."""
    u = _matrix(u)
    if u.shape != (n, n):
        raise DimensionMismatch(f"needs {n} x {n} matrices, got {u.shape}")
    d = np.arange(n)
    out = u.copy()
    out[d, d] = field.ADD[u[d, d], field.NEG[1]]
    return out


def fixed_space(mats, field: PrimeExtField, n: int) -> Subspace:
    """∩ ker(u - 1) over the n x n matrices u: the kernel of the u - 1 side by side."""
    deltas = [_minus_identity(u, field, n) for u in mats]
    return kernel(np.hstack([np.zeros((n, 0), dtype=np.int32)] + deltas), field)


def coinvariant_complement(mats, field: PrimeExtField, n: int) -> Subspace:
    """Σ image(u - 1) over the n x n matrices u; the coinvariants are the quotient by this subspace."""
    deltas = [_minus_identity(u, field, n) for u in mats]
    return echelon(np.vstack([np.zeros((0, n), dtype=np.int32)] + deltas), field, ambient=n)
