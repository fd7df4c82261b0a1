"""The irreducible KZ-weight σ = Sym^r⃗ ⊗ (χ∘det) on its monomial basis.

Basis vectors e_{i⃗} with 0 ≤ i⃗ ≤ r⃗ denote ⊗_j x_j^{r_j-i_j} y_j^{i_j},
enumerated in lexicographic order of i⃗ (frozen: every matrix downstream
depends on it).  A 2x2 matrix g over F_q acts factorwise through the j-th
Frobenius twist of its entries, then the whole thing is scaled by χ(det g);
the central ϖ acts by the scalar ν ∈ K.
"""

import itertools
import math

import numpy as np

from .errors import DimensionMismatch, SingularMatrix
from .gf import FieldCtx, FqElem


class WeightCtx:
    def __init__(self, field: FieldCtx, rvec, chi_c: int = 0, nu: FqElem | None = None):
        self.field = field
        self.rvec = tuple(int(r) for r in rvec)
        if len(self.rvec) != field.f:
            raise ValueError(f"r-vector length {len(self.rvec)} != f = {field.f}")
        if any(r < 0 or r > field.p - 1 for r in self.rvec):
            raise ValueError("each r_j must lie in 0..p-1")
        self.chi_c = int(chi_c) % max(field.q - 1, 1)
        self.nu = nu if nu is not None else field.kk.one
        if self.nu.field is not field.kk:
            raise ValueError("central value must live in the coefficient field K")
        if not self.nu:
            raise ValueError("central value must be nonzero")
        self.D = math.prod(r + 1 for r in self.rvec)
        # lex order on i⃗, first factor most significant
        self.basis = list(itertools.product(*[range(r + 1) for r in self.rvec]))
        self.index = {iv: n for n, iv in enumerate(self.basis)}

    def __repr__(self):
        return f"WeightCtx(r={self.rvec}, chi_c={self.chi_c}, nu={self.nu.code}, D={self.D})"


def _as_codes(g, field: FieldCtx) -> tuple:
    out = []
    for row in g:
        for entry in row:
            if isinstance(entry, FqElem):
                if entry.field is not field.fq:
                    raise DimensionMismatch("matrix entries must lie in the residue field")
                out.append(entry.code)
            else:
                # plain integers mean prime-field values
                out.append(int(entry) % field.p)
    return tuple(out)


def _factor_matrix(field: FieldCtx, r: int, a: int, b: int, c: int, d: int) -> np.ndarray:
    """Action on Sym^r of one factor: e_i = x^{r-i}y^i -> (ax+cy)^{r-i}(bx+dy)^i."""
    fq = field.fq
    p = field.p
    M = np.zeros((r + 1, r + 1), dtype=np.int32)
    for i in range(r + 1):
        for s in range(r - i + 1):
            c1 = (math.comb(r - i, s) % p) * 1
            if c1 == 0:
                continue
            w1 = fq.mul_code(fq.mul_code(c1 % p, fq.pow_code(a, r - i - s)), fq.pow_code(c, s))
            if w1 == 0:
                continue
            for t in range(i + 1):
                c2 = math.comb(i, t) % p
                if c2 == 0:
                    continue
                w2 = fq.mul_code(fq.mul_code(c2, fq.pow_code(b, i - t)), fq.pow_code(d, t))
                if w2 == 0:
                    continue
                k = s + t
                M[i, k] = fq.add_code(M[i, k], fq.mul_code(w1, w2))
    return M


def _field_kron(field: FieldCtx, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    fq = field.fq
    n1, n2 = A.shape[0], B.shape[0]
    left = np.repeat(np.repeat(A, n2, axis=0), n2, axis=1)
    right = np.tile(B, (n1, n1))
    return fq.MUL[left, right].astype(np.int32)


def action_matrix(ctx: WeightCtx, g) -> np.ndarray:
    """D x D matrix over K of the twisted Sym^r⃗ action; row i⃗ is the image of e_{i⃗}."""
    field = ctx.field
    fq = field.fq
    a, b, c, d = _as_codes(g, field)
    det = fq.sub_code(fq.mul_code(a, d), fq.mul_code(b, c))
    if det == 0:
        raise SingularMatrix("matrix is not invertible over F_q")
    M = None
    for j, r in enumerate(ctx.rvec):
        aj, bj, cj, dj = (fq.frob_code(x, j) for x in (a, b, c, d))
        Mj = _factor_matrix(field, r, aj, bj, cj, dj)
        M = Mj if M is None else _field_kron(field, M, Mj)
    kk = field.kk
    out = field._embed[M].astype(np.int32) if field.m > 1 else M
    twist = kk.pow_code(field.embed_code(det), ctx.chi_c)
    if twist != 1:
        out = kk.MUL[twist, out].astype(np.int32)
    return np.ascontiguousarray(out)
