"""The positive part ⊕_{n≥0} R_n(σ) of the compact induction, with the
upper-unipotent action and the Hecke operators T = T₊ + T₋.

An InducedElem is a finite sum Σ [(ϖⁿ, μ), w] keyed by (level, digit string);
μ ∈ I_n is the canonical representative of its class and w a weight vector.
Everything below realizes the [g, w] calculus: left translation permutes keys
and pushes a K-correction into the weight.

Level ranges export their operators over frozen bases: hecke_entries lists
the entries of T by index arithmetic from the two local q x D matrices
(hecke_matrix writes them into a dense matrix), and translation_entries
lists those of a translation minus the identity from the level tables.
These arrays are what the verifier reads.  translate_vectors moves flat
vectors of one level by a translation.  Dense operators are plain int32
matrices in the row convention (v ↦ v @ M), as in linalg.  The element
calculus (InducedElem, u_act, hecke_T_plus, operator_matrix) serves as
their oracle.

Only positive levels exist here.  The lower coset direction that T would need
on level 0 is not representable, so hecke_entries rejects level-0 support,
and T₊ does likewise for uniformity of the level bookkeeping.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    DimensionMismatch,
    LevelZeroInput,
    PrecisionExhausted,
)
from .gf import monomial_exp
from .localring import LocalRingCtx, RingElem, translate_digits, translation_table
from .weight import WeightCtx, action_matrix


class InductionCtx:
    """Weight and local ring contexts bound together over one field context."""

    def __init__(self, weight: WeightCtx, ring: LocalRingCtx):
        if weight.field is not ring.field:
            raise ValueError("weight and ring must share a single field context")
        self.weight = weight
        self.ring = ring
        self._tplus_local = None
        self._tminus_local = None
        self._unipotents = None
        self._memo: dict = {}  # analysis results, built on first use

    @property
    def q(self) -> int:
        return self.ring.q

    @property
    def D(self) -> int:
        return self.weight.D

    def max_level(self) -> int:
        return self.ring.N - 1

    def tplus_local(self) -> np.ndarray:
        """q x D matrix over K: entry [λ, i⃗] = (-λ)^{i⃗}; T₊'s weight contraction."""
        if self._tplus_local is None:
            field = self.weight.field
            M = np.zeros((self.q, self.D), dtype=np.int32)
            for lam in field.enumerate_field("Fq"):
                for idx, iv in enumerate(self.weight.basis):
                    M[lam.code, idx] = field.embed(monomial_exp(-lam, iv)).code
            self._tplus_local = M
        return self._tplus_local

    def tminus_local(self) -> np.ndarray:
        """q x D matrix over K: row t expands ⊗_j (t^{p^j} x_j + y_j)^{r_j}."""
        if self._tminus_local is None:
            field = self.weight.field
            fq = field.fq
            p = field.p
            rvec = self.weight.rvec
            M = np.zeros((self.q, self.D), dtype=np.int32)
            for t in range(self.q):
                for idx, iv in enumerate(self.weight.basis):
                    acc = 1
                    for j, (r, i) in enumerate(zip(rvec, iv)):
                        b = math.comb(r, i) % p
                        if b == 0:
                            acc = 0
                            break
                        tw = fq.pow_code(t, (p**j) * (r - i))
                        acc = fq.mul_code(acc, fq.mul_code(b, tw))
                    M[t, idx] = field.embed_code(acc) if field.m > 1 else acc
            self._tminus_local = M
        return self._tminus_local

    def unipotents(self) -> np.ndarray:
        """q x D x D stack over K: entry t is the action matrix of [[1, t], [0, 1]], t an F_q code."""
        if self._unipotents is None:
            fq = self.weight.field.fq
            self._unipotents = np.stack(
                [action_matrix(self.weight, [[fq.one, fq.elem(t)], [fq.zero, fq.one]]) for t in range(self.q)]
            )
        return self._unipotents

    def __repr__(self):
        return f"InductionCtx(q={self.q}, r={self.weight.rvec}, e={self.ring.e}, N={self.ring.N})"


class InducedElem:
    """Finite association (level, digits) -> weight vector; zero values dropped."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: InductionCtx, terms: dict):
        clean = {}
        for (n, mu), v in terms.items():
            arr = np.asarray(v, dtype=np.int32)
            if not np.any(arr):
                continue
            if len(mu) != n:
                raise ValueError(f"digit string length {len(mu)} != level {n}")
            if n > ctx.max_level():
                raise PrecisionExhausted(f"level {n} exceeds ring headroom N-1 = {ctx.max_level()}")
            clean[(n, tuple(int(c) for c in mu))] = arr
        self.ctx = ctx
        self.terms = clean

    @classmethod
    def _canonical(cls, ctx: InductionCtx, terms: dict) -> "InducedElem":
        """The element with terms already in the form __init__ makes: keys (n, digit tuple of
        length n) with n within the ring headroom, values nonzero int32 arrays; nothing is checked."""
        x = cls.__new__(cls)
        x.ctx = ctx
        x.terms = terms
        return x

    def support(self):
        return sorted(self.terms.keys())

    def __add__(self, other):
        self._check(other)
        kk = self.ctx.weight.field.kk
        out = {k: v.copy() for k, v in self.terms.items()}
        for k, v in other.terms.items():
            out[k] = kk.ADD[out[k], v] if k in out else v.copy()
        return InducedElem(self.ctx, out)

    def __sub__(self, other):
        return self + other.scale_code(int(other.ctx.weight.field.kk.NEG[1]))

    def __neg__(self):
        return self.scale_code(int(self.ctx.weight.field.kk.NEG[1]))

    def scale_code(self, code: int) -> "InducedElem":
        kk = self.ctx.weight.field.kk
        return InducedElem(self.ctx, {k: kk.MUL[code, v] for k, v in self.terms.items()})

    def _check(self, other):
        if not isinstance(other, InducedElem) or other.ctx is not self.ctx:
            raise DimensionMismatch("elements from different induction contexts")

    def __eq__(self, other):
        if not isinstance(other, InducedElem) or other.ctx is not self.ctx:
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(np.array_equal(self.terms[k], other.terms[k]) for k in self.terms)

    def __hash__(self):
        return hash((id(self.ctx), tuple(sorted((k, v.tobytes()) for k, v in self.terms.items()))))

    def __repr__(self):
        parts = [f"[(ϖ^{n},{mu}): {self.terms[(n, mu)].tolist()}]" for n, mu in self.support()]
        return "InducedElem(" + " + ".join(parts) + ")" if parts else "InducedElem(0)"


def singleton(ctx: InductionCtx, n: int, mu, weight) -> InducedElem:
    """[(ϖⁿ, μ), w]; weight may be a coefficient array or a basis index (an integer or an exponent tuple i⃗)."""
    if isinstance(weight, (int, np.integer)):
        v = np.zeros(ctx.D, dtype=np.int32)
        v[int(weight)] = 1
    elif isinstance(weight, tuple) and weight in ctx.weight.index:
        v = np.zeros(ctx.D, dtype=np.int32)
        v[ctx.weight.index[weight]] = 1
    else:
        v = np.asarray(weight, dtype=np.int32)
    return InducedElem(ctx, {(n, tuple(int(c) for c in mu)): v})


# -- group actions --


def u_act(c: RingElem, x: InducedElem) -> InducedElem:
    """Left translation by [[1, c], [0, 1]]: reindex μ ↦ μ″ where μ + c = μ″ + ϖⁿ t,
    and push the leftover unipotent [[1, t], [0, 1]] into the weight."""
    ctx = x.ctx
    if c.ctx is not ctx.ring:
        raise DimensionMismatch("translation amount lives in a different ring context")
    kk = ctx.weight.field.kk
    out: dict = {}
    for (n, mu), v in x.terms.items():
        mu2, t = translate_digits(c, mu)
        w = v if t == 0 else _kernels.vec_mat(v, ctx.unipotents()[t], kk)
        key = (n, mu2)
        out[key] = kk.ADD[out[key], w] if key in out else w.astype(np.int32)
    return InducedElem(ctx, out)


# -- Hecke operators --


def hecke_T_plus(x: InducedElem) -> InducedElem:
    """Σ_λ [(ϖ^{n+1}, μ + ϖⁿ[λ]), (Σ_{i⃗} u_{i⃗} (-λ)^{i⃗}) x^{r⃗}]."""
    ctx = x.ctx
    kk = ctx.weight.field.kk
    local = ctx.tplus_local()
    out: dict = {}
    for (n, mu), v in x.terms.items():
        if n == 0:
            raise LevelZeroInput("the lower coset needed at level 0 is not representable")
        if n + 1 > ctx.max_level():
            raise PrecisionExhausted("no precision headroom for the level raise")
        for lam in range(ctx.q):
            coeff = 0
            for i in range(ctx.D):
                a = int(v[i])
                if a:
                    coeff = int(kk.ADD[coeff, kk.MUL[a, local[lam, i]]])
            if coeff == 0:
                continue
            key = (n + 1, mu + (lam,))
            w = np.zeros(ctx.D, dtype=np.int32)
            w[0] = coeff  # multiple of e_{0⃗} = x^{r⃗}
            out[key] = kk.ADD[out[key], w] if key in out else w
    return InducedElem(ctx, out)


# -- level ranges and matrix exports --


@dataclass(frozen=True)
class LevelRange:
    """Levels lo..hi filtered by parity; denotes the I^e/I^o truncations."""

    parity: str
    lo: int
    hi: int

    def __post_init__(self):
        if self.parity not in ("even", "odd", "all"):
            raise ValueError("parity must be even|odd|all")
        if self.lo > self.hi:
            raise ValueError("lo must be <= hi")
        if self.lo < 0:
            raise ValueError("levels are nonnegative")

    def levels(self):
        for n in range(self.lo, self.hi + 1):
            if self.parity == "even" and n % 2:
                continue
            if self.parity == "odd" and n % 2 == 0:
                continue
            yield n

    def __contains__(self, n: int):
        if n < self.lo or n > self.hi:
            return False
        if self.parity == "even":
            return n % 2 == 0
        if self.parity == "odd":
            return n % 2 == 1
        return True


def range_dim(ctx: InductionCtx, lr: LevelRange) -> int:
    return sum(ctx.q**n * ctx.D for n in lr.levels())


def _offsets(ctx: InductionCtx, lr: LevelRange) -> dict:
    off = {}
    pos = 0
    for n in lr.levels():
        off[n] = pos
        pos += ctx.q**n * ctx.D
    return off


def flatten(x: InducedElem, lr: LevelRange) -> np.ndarray:
    """Coordinates of x in the frozen basis of the level range."""
    ctx = x.ctx
    out = np.zeros(range_dim(ctx, lr), dtype=np.int32)
    off = _offsets(ctx, lr)
    for (n, mu), v in x.terms.items():
        if n not in off:
            raise DimensionMismatch(f"support level {n} outside range {lr}")
        rank = 0
        for c in mu:
            rank = rank * ctx.q + int(c)
        base = off[n] + rank * ctx.D
        out[base : base + ctx.D] = v
    return out


def unflatten(ctx: InductionCtx, lr: LevelRange, coords: np.ndarray) -> InducedElem:
    """The InducedElem with coordinates coords in the frozen basis of the level range.

    The terms are made in canonical form here (nonzero blocks only, digit
    tuples of the level's length), so they are not validated again.
    """
    q, D = ctx.q, ctx.D
    coords = np.asarray(coords, dtype=np.int32)
    terms = {}
    for n, base in _offsets(ctx, lr).items():
        blocks = coords[base : base + q**n * D].reshape(q**n, D)
        keys = np.flatnonzero(blocks.any(axis=1))
        if keys.size and n > ctx.max_level():
            raise PrecisionExhausted(f"level {n} exceeds ring headroom N-1 = {ctx.max_level()}")
        digits = keys[:, None] // q ** np.arange(n - 1, -1, -1) % q  # big-endian, as flatten ranks them
        terms.update(((n, mu), v) for mu, v in zip(map(tuple, digits.tolist()), blocks[keys]))
    return InducedElem._canonical(ctx, terms)


def operator_matrix(ctx: InductionCtx, op, domain: LevelRange, codomain: LevelRange) -> np.ndarray:
    """Matrix of op over the frozen bases; row = image of a domain basis element."""
    rows = range_dim(ctx, domain)
    M = np.zeros((rows, range_dim(ctx, codomain)), dtype=np.int32)
    r = 0
    for n in domain.levels():
        for mu in itertools.product(range(ctx.q), repeat=n):
            for widx in range(ctx.D):
                M[r] = flatten(op(singleton(ctx, n, mu, widx)), codomain)
                r += 1
    return M


def hecke_entries(ctx: InductionCtx, domain: LevelRange, codomain: LevelRange) -> tuple:
    """(rows, cols, vals): the nonzero entries of T = T₊ + T₋ over the frozen
    bases, keeping the parts that land in codomain.

    Index arithmetic on the two local matrices: T₊ sends row (n, μ, i) to
    column (n+1, μλ, 0) with entry tplus_local[λ, i], and T₋ sends row
    (n, μ, r⃗) to the block of μ[:n-1] with entries ν·tminus_local[μ_{n-1}].
    The two land on different levels, so no position repeats.
    """
    kk = ctx.weight.field.kk
    q, D = ctx.q, ctx.D
    cols = _offsets(ctx, codomain)
    tplus = ctx.tplus_local().T  # D x q
    tminus = kk.MUL[ctx.weight.nu.code, ctx.tminus_local()]
    top = ctx.weight.index[ctx.weight.rvec]
    parts = []
    for n, base in _offsets(ctx, domain).items():
        if n == 0:
            raise LevelZeroInput("T is only defined on levels >= 1 here")
        keys = np.arange(q**n)
        rows = base + D * keys  # row of (n, μ, 0), μ ranked big-endian
        if n + 1 in codomain:
            children = cols[n + 1] + D * (q * keys[:, None] + np.arange(q))  # (n+1, μλ, 0)
            parts.append((rows[:, None, None] + np.arange(D)[:, None], children[:, None, :], tplus))
        if n - 1 in codomain:
            parent, last = np.divmod(keys, q)
            parts.append(((rows + top)[:, None], (cols[n - 1] + D * parent)[:, None] + np.arange(D), tminus[last]))
    return _nonzero_entries(parts)


def _nonzero_entries(parts) -> tuple:
    """(rows, cols, vals) joined over parts, each part three broadcastable arrays; zero values dropped."""
    parts = [np.broadcast_arrays(*part) for part in parts]
    rows, cols, vals = (np.concatenate([np.zeros(0, np.int64)] + [part[k].ravel() for part in parts]) for k in range(3))
    nz = vals != 0
    return rows[nz], cols[nz], vals[nz].astype(np.int32)


def hecke_matrix(ctx: InductionCtx, domain: LevelRange, codomain: LevelRange) -> np.ndarray:
    """Matrix of T = T₊ + T₋ over the frozen bases, keeping the parts that land
    in codomain: hecke_entries written into a dense matrix.  operator_matrix
    over the element calculus is its oracle.
    """
    rows, cols, vals = hecke_entries(ctx, domain, codomain)
    M = np.zeros((range_dim(ctx, domain), range_dim(ctx, codomain)), dtype=np.int32)
    M[rows, cols] = vals
    return M


def translation_entries(ctx: InductionCtx, c: RingElem, lr: LevelRange) -> tuple:
    """(rows, cols, vals): the nonzero entries of u_act(c, ·) − 1 over the frozen basis of lr.

    Row (n, μ, i) of u_act(c, ·) is row i of the twist [[1, t], [0, 1]] in the
    block of key (n, μ″), with (μ″, t) read from translation_table.  The −1
    is added inside that block when μ″ = μ and is an entry of its own
    otherwise, so no position repeats.
    """
    kk = ctx.weight.field.kk
    D = ctx.D
    minus_one = kk.NEG[1]
    unipotent = ctx.unipotents()
    i = np.arange(D)
    parts = []
    for n, base in _offsets(ctx, lr).items():
        perm, twist = translation_table(c, n)
        keys = np.arange(perm.size)
        coef = unipotent[twist]  # row i of key μ's twist, landing on block μ″
        fixed, moved = np.flatnonzero(perm == keys), np.flatnonzero(perm != keys)
        coef[fixed[:, None], i, i] = kk.ADD[coef[fixed[:, None], i, i], minus_one]
        src = base + D * keys
        parts.append((src[:, None, None] + i[:, None], (base + D * perm)[:, None, None] + i, coef))
        diag = src[moved, None] + i
        parts.append((diag, diag, minus_one))
    return _nonzero_entries(parts)


def translate_vectors(ctx: InductionCtx, c: RingElem, n: int, X: np.ndarray) -> np.ndarray:
    """u_act(c, ·) applied to each row of X, a stack of flat vectors on level n."""
    perm, twist = translation_table(c, n)
    return move_keys(ctx, perm, twist, X)


def move_keys(ctx: InductionCtx, perm: np.ndarray, twist: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Each row of X, flat over the keys 0 .. len(perm) - 1, with the weight block
    of key j multiplied by the twist [[1, twist[j]], [0, 1]] and moved to key perm[j].

    With (perm, twist) from translation_table this is the translation of a
    level.  The work follows X's nonzero entries: each entry (row, key, i)
    times row i of its key's twist matrix (ctx.unipotents) is one MUL
    lookup, the products of one (row, key) are summed
    (_kernels._sum_runs), and the sums land on (row, perm[key]).  perm is a
    permutation, so no two sums land on the same block.
    """
    kk = ctx.weight.field.kk
    D, keys = ctx.D, len(perm)
    X = np.asarray(X, dtype=np.int32)
    at = np.flatnonzero(X)  # row-major: the entries of one (row, key) block are one run
    block = at // D
    starts = np.flatnonzero(np.diff(block, prepend=-1))
    twist_rows = ctx.unipotents().reshape(-1, D)[twist[block % keys] * D + at % D]
    products = kk.MUL[X.ravel()[at][:, None], twist_rows]
    src = block[starts]  # row·keys + key of each run's block
    out = np.zeros((len(X) * keys, D), dtype=np.int32)
    out[src + (perm - np.arange(keys))[src % keys]] = _kernels._sum_runs(products, starts, kk)
    return out.reshape(len(X), keys * D)
