"""Finite-level verification pipelines: the U-invariant witness g in R₂,
the two-dimensional-fixed-space certificate, and truncated L_N diagnostics.

Central objects, all over one InductionCtx:

  R₁′        = ker(T₋|R₁)
  Q          = R₂ / T₊R₁′ with its residual U-action
  V          = preimage in R₂ of Q^U  (elements g with (u-1)g ∈ T₊R₁′ for all u)
  W          = V ∩ T₊R₁
  L_N        = I^e_{[0,2N]} / T(I^o_{[1,2N-1]})

V and W are counted, never built, and never on all of Q: T₊R₁ = B₀ ⊕ .. ⊕ B₀
over the q first digits of R₂, and the translations by ϖO act by one matrix
on every first-digit block, so V lies in V′ = V₀ ⊕ .. ⊕ V₀ with V₀ ⊂ K^{qD}
a single kernel.  T₊R₁ and V′ are kept as (block, multiplicity) pairs
(linalg.BlockSum) and T₊R₁′ as coordinates over T₊R₁'s rows, never as
q²D-wide dense arrays, and an R₂ row is tested against T₊R₁′ in that frame
(linalg.member_over).  V is the kernel, over the q·dim V₀ coordinates of V′,
of the entry lists of u - 1 on V′ reduced mod T₊R₁′, each from one
translation of dim V₀ rows, since each translation moves every first-digit
block onto a single block; dim V is their nullity, and dim W comes from
the rank of D rows beside it, both by _kernels.sparse_rank as for dim L_N^U
below.  The witness g is checked on its q²D entries in R₂, and those checks
alone back a pass.  So the only q²D-wide stacks are g's one row and the
dim V₀ rows each generator translates.

The Hecke matrix of R₁′ and the entries of T on I^o come from
induction.hecke_matrix and induction.hecke_entries, filled from the two local
q x D matrices.  T₊|R_n is qⁿ copies of one local block,
so T₊|R₁ is never built (its block is the local T₊ matrix on the e₀ columns),
its kernel is read off the block rank, and the maps T induces on
U-coinvariants are two scalars read off the local matrices, the same at every
level.  dim L_N^U is exact by sparse elimination on the entry lists of T and
of the translations u - 1 (induction.hecke_entries,
induction.translation_entries): T is eliminated once
(_kernels.sparse_pivot_rows), its non-pivot columns are a basis of L_N, each
u - 1 is reduced onto that basis by one product with the remainder matrix
of the system (_kernels.remainder_matrix, built once), and the rank of the
maps side by side (_kernels.sparse_rank) gives dim L_N^U.  No dense quotient
matrix, dense rref or fixed space is formed.  Beyond SPARSE_FIXED_CAP it is
a certified lower bound, whose witness pair is certified by one more sparse
rank: T from R₁ stacked with the pair.

A witness g of the main existence statement is any element of V outside W;
its classes together with x^{r⃗} at level 0 span a 2-dimensional piece of
L_N^U.  Large configurations replace dense computations by certificates
built from the block structure of T₊, and every certificate ingredient is
itself machine-checked.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import _kernels, linalg
from .errors import CaseMismatch, CheckFailed, PrecisionExhausted
from .gf import FieldCtx
from .induction import (
    InductionCtx,
    LevelRange,
    _nonzero_entries,
    _offsets,
    hecke_entries,
    hecke_matrix,
    move_keys,
    range_dim,
    translate_vectors,
    translation_entries,
)
from .localring import LocalRingCtx, RingElem, teichmuller, translation_table
from .weight import WeightCtx

# largest dim I^e whose L_N^U is computed exactly, by sparse elimination; beyond it
# a certified lower bound.  Every configuration measured under it took at most 12 s
# and 0.98 GB (q = 49, D = 49 at N = 1; ramified-r1 at N = 5 takes about 2 s), and
# unramified-generic at N = 3 (dim I^e = 538084), beyond it, 23 s and 0.82 GB
SPARSE_FIXED_CAP = 262144

# ring precision the main lemma needs: R₂ sits at level N - 1 = 2, and the
# generators of U act on it modulo ϖ³
MAIN_LEMMA_PRECISION = 3


def build_ctx(p: int, f: int, e: int, rvec, chi_c: int = 0, nu_code: int | None = None,
              E=None, N: int | None = None, m: int = 1) -> InductionCtx:
    """Assemble the field/ring/weight stack for one configuration."""
    if N is None:
        N = 8
    field = FieldCtx(p, f, m=m)
    ring = LocalRingCtx(p, f, e, E=E, N=N, field=field)
    nu = field.kk.elem(nu_code) if nu_code is not None else field.kk.one
    w = WeightCtx(field, rvec, chi_c=chi_c, nu=nu)
    return InductionCtx(w, ring)


# -- building blocks --


def _per_ctx(build):
    """Memoise build(ctx) on the ctx, so it runs once per configuration.

    Every caller gets the same object back and must not mutate it.
    """

    @functools.wraps(build)
    def once(ctx: InductionCtx):
        memo = ctx._memo
        if build.__name__ not in memo:
            memo[build.__name__] = build(ctx)
        return memo[build.__name__]

    return once


def u_generators(ctx: InductionCtx, n: int):
    """Additive generators {[λ_s]·ϖ^i : 0 ≤ i < min(e, n+1), λ_s an F_p-basis of F_q} of O/ϖ^{n+1}.

    These f·min(e, n+1) elements suffice: O is the direct sum of the W(F_q)·ϖ^i
    for i < e, and by Nakayama the Teichmüller lifts of an F_p-basis generate
    W(F_q) as a Z_p-module, so the deeper powers ϖ^i (i ≥ e) are Z_p-multiples
    already.  Invariance under them is invariance under all of U whenever the
    subspace it is tested against is U-stable, as every such subspace here is.
    """
    ring = ctx.ring
    if n + 1 > ring.N:
        raise PrecisionExhausted(f"generators need precision {n + 1}, ring has {ring.N}")
    fq = ring.field.fq
    out = []
    pi = ring.uniformizer()
    for i in range(min(ring.e, n + 1)):
        pi_i = ring.one() if i == 0 else pi**i
        for s in range(ring.f):
            lam = fq.elem(ring.p**s)  # 1, t, t^2, ...
            out.append(teichmuller(lam, ring) * pi_i)
    return out


def r1_prime(ctx: InductionCtx) -> linalg.Subspace:
    """Kernel of T₋ restricted to R₁, as a subspace of R₁."""
    return linalg.kernel(hecke_matrix(ctx, LevelRange("all", 1, 1), LevelRange("all", 0, 0)), ctx.weight.field.kk)


@_per_ctx
def tplus_block_rank(ctx: InductionCtx) -> int:
    """Rank of the D x q local matrix [i⃗, λ] ↦ (-λ)^{i⃗}.

    T₊ on R_n is block diagonal: the key (n, μ) feeds exactly the q distinct
    children (n+1, μ+(λ)) and every block is this same matrix, so T₊ is
    injective on every level iff the rank equals D.  The rank is always D:
    row i⃗ is the function λ ↦ (-λ)^k with k = Σ_j p^j i_j < q, distinct i⃗
    give distinct k, and the monomials of degree below q are independent as
    functions on F_q.  It is still computed, so the claim stays checked.
    """
    kk = ctx.weight.field.kk
    M = np.ascontiguousarray(ctx.tplus_local().T)  # D x q
    _, piv = _kernels.rref(M, kk)
    return len(piv)


@_per_ctx
def _tplus_r1(ctx: InductionCtx):
    """(block, T₊R₁) with T₊|R₁ = I_q ⊗ block and T₊R₁ = B₀ ⊕ .. ⊕ B₀ over the first digits.

    T₊ sends (1, μ₀, i) to (2, (μ₀, λ), 0) with entry tplus_local[λ, i], and
    T₋ from level 1 lands outside R₂; so T₊|R₁ acts on every first digit by
    the D x qD block holding tplus_local.T on its e₀ columns, and B₀ ⊂ K^{qD}
    is the image of that block.
    """
    kk = ctx.weight.field.kk
    q, D = ctx.q, ctx.D
    block = np.zeros((D, q * D), dtype=np.int32)
    block[:, ::D] = ctx.tplus_local().T
    return block, linalg.BlockSum(linalg.echelon(block, kk, ambient=q * D), q)


def tplus_kernel_dim(ctx: InductionCtx, n: int) -> int:
    """Kernel dimension of T₊|R_n.

    T₊|R_n is qⁿ copies of the local block with disjoint child supports, so
    its kernel dimension is exactly qⁿ·(D - block rank).
    """
    return ctx.q**n * (ctx.D - tplus_block_rank(ctx))


# -- weight-level coinvariant functional --


@_per_ctx
def weight_coinvariant_functional(ctx: InductionCtx):
    """(complement Cσ = Σ(u-1)σ, functional φ: K^D → K with ker φ ⊇ Cσ, φ ≠ 0)."""
    D = ctx.D
    C = linalg.coinvariant_complement(ctx.unipotents()[1:], ctx.weight.field.kk, D)  # every λ ≠ 0
    if C.dim != D - 1:
        raise CheckFailed("weight coinvariants are one-dimensional")
    free = int(linalg.non_pivots(C.pivots, D)[0])

    def phi(vec: np.ndarray) -> int:
        return int(C.reduce(np.asarray(vec, dtype=np.int32))[free])

    return C, phi, free


# -- quotient machinery --


def induced_quotient_maps(ctx: InductionCtx, ops, lr: LevelRange, S: linalg.Subspace) -> list:
    """Matrices of the translations by ops on ambient/S, in the coordinates of
    S's non-pivot columns: S.reduce(T[nonpiv])[:, nonpiv] for the matrix T of
    a translation, which translate_vectors builds level by level.  No
    production route calls it: it is the dense oracle of truncated_L in the
    tests, built apart from the entry lists that truncated_L eliminates."""
    nonpiv = linalg.non_pivots(S.pivots, S.ambient)
    maps = []
    for c in ops:
        T = np.zeros((S.ambient, S.ambient), dtype=np.int32)
        base = 0
        for n in lr.levels():
            size = ctx.q**n * ctx.D
            T[base : base + size, base : base + size] = translate_vectors(ctx, c, n, np.eye(size, dtype=np.int32))
            base += size
        maps.append(S.reduce(T[nonpiv])[:, nonpiv])
    return maps


# -- the main existence computation --


@dataclass
class CandidateSpaces:
    """R₁′, T₊R₁ and T₊R₁′, each in the frame it is built in (none is q²D wide), and dim V, dim W."""
    r1p: linalg.Subspace  # in R₁
    tplus_r1: linalg.BlockSum  # T₊R₁ = B₀ ⊕ .. ⊕ B₀ in R₂
    tplus_r1p: linalg.Subspace  # T₊R₁′ in coordinates over tplus_r1's rows
    v_dim: int
    w_dim: int  # dim V ∩ T₊R₁


def _first_digit_block(ctx: InductionCtx, deep, B0: linalg.Subspace) -> linalg.Subspace:
    """V₀ = {x ∈ K^{qD} : (u-1)x ∈ B₀ for every u in deep}, on one first-digit block of R₂.

    Each u in deep is ≡ 0 mod ϖ, so it keeps the first digit and acts by one
    qD x qD matrix on every block (checked); that matrix is read off block 0.
    """
    kk = ctx.weight.field.kk
    q, D = ctx.q, ctx.D
    heads = np.arange(q)[:, None] * q
    eye = np.eye(q * D, dtype=np.int32)
    deltas = []
    for c in deep:
        perm, twist = (a.reshape(q, q) for a in translation_table(c, 2))
        if not (np.array_equal(perm, heads + perm[0]) and np.array_equal(twist, np.broadcast_to(twist[0], (q, q)))):
            raise CheckFailed("a translation by ϖO must act by one matrix on every first digit")
        deltas.append(B0.reduce(kk.ADD[move_keys(ctx, perm[0], twist[0], eye), kk.NEG[eye]]))
    return linalg.kernel(np.hstack(deltas), kk)


def _minus_identity_on_blocks(ctx: InductionCtx, c: RingElem, V0: linalg.Subspace) -> tuple:
    """(rows, cols, vals): the nonzero entries of u - 1 on V′ = V₀ ⊕ .. ⊕ V₀ over V′'s rows, u the translation by c.

    Coordinate k·dim V₀ + i is row i of V₀ on first-digit block k.  u sends
    block k onto a single block dest[k], and V₀ there into V₀ (both
    checked): u commutes with the translations by ϖO that define V₀ and
    maps block k of T₊R₁ onto its block dest[k].  So one translation of
    dim V₀ rows, each holding V₀'s row on every block, gives every block's
    image, and the coordinates of an image over V₀ are its entries on V₀'s
    pivots.  The −1 is added inside the block when dest[k] = k and is an
    entry of its own otherwise, so no position repeats.
    """
    kk = ctx.weight.field.kk
    q, qD, d0 = ctx.q, ctx.q * ctx.D, V0.dim
    perm = translation_table(c, 2)[0].reshape(q, q)
    dest = perm[:, 0] // q
    if not np.array_equal(perm // q, np.broadcast_to(dest[:, None], (q, q))):
        raise CheckFailed("u must move each first-digit block as a whole")
    moved = translate_vectors(ctx, c, 2, np.tile(V0.rows, q)).reshape(d0, q, qD)  # block dest[k] is block k's image
    if np.any(V0.reduce(moved.reshape(d0 * q, qD))):
        raise CheckFailed("u must map V₀ on every block into V₀")
    coef = moved[:, dest][..., V0.pivots].transpose(1, 0, 2)  # row i of block k's image, over V₀'s rows
    blocks, i = np.arange(q), np.arange(d0)
    fixed, away = np.flatnonzero(dest == blocks), np.flatnonzero(dest != blocks)
    coef[fixed[:, None], i, i] = kk.ADD[coef[fixed[:, None], i, i], kk.NEG[1]]
    diag = d0 * away[:, None] + i
    moved_entries = (d0 * blocks[:, None, None] + i[:, None], d0 * dest[:, None, None] + i, coef)
    return _nonzero_entries([moved_entries, (diag, diag, kk.NEG[1])])


def _u_fixed_mod_tplus_r1p(ctx: InductionCtx, row: np.ndarray) -> bool:
    """Whether one row of R₂ is U-fixed modulo T₊R₁′ on all its q²D entries: the check the witness g passes.

    For every generator u, (u - 1)g is tested in T₊R₁′'s frame
    (linalg.member_over): in T₊R₁ block by block, and its entries on T₊R₁'s
    pivots in T₊R₁′'s coordinates.
    """
    kk = ctx.weight.field.kk
    spaces = _candidate_spaces(ctx)
    row = np.asarray(row, dtype=np.int32)[None]
    return all(
        linalg.member_over(kk.ADD[translate_vectors(ctx, c, 2, row), kk.NEG[row]], spaces.tplus_r1, spaces.tplus_r1p)
        for c in u_generators(ctx, 2)
    )


@_per_ctx
def _candidate_spaces(ctx: InductionCtx) -> CandidateSpaces:
    """R₁′, T₊R₁ and T₊R₁′, and the dimensions of V and W; the only place these are built or counted.

    T₊R₁ = ⊕ B₀ and V′ = ⊕ V₀ stay (block, copies) pairs.  T₊R₁′ ⊆ T₊R₁ is
    built in coordinates over T₊R₁'s rows.  The translations by ϖO act
    blockwise, so every g in V has each first-digit block in V₀ (see
    _first_digit_block), and V is the kernel, over the q·dim V₀ coordinates
    of V′, of the stack Δ of the maps Δ_u, u - 1 on V′ reduced mod T₊R₁′,
    side by side for the generators u.  Δ is entry lists, as in
    fixed_space_system: each Δ_u is one product with T₊R₁′'s remainder
    matrix, and the generators' columns are interleaved.  Neither V nor W is
    built, only counted: dim V = q·dim V₀ - rank Δ.  T₊R₁′ ⊆ W ⊆ T₊R₁, and
    the rows of T₊R₁ at T₊R₁′'s non-pivot coordinates span a complement C of
    T₊R₁′ in T₊R₁, so W = T₊R₁′ ⊕ (C ∩ V) and dim W = dim T₊R₁ - rank(C·Δ),
    where C has D rows when T₋ maps R₁ onto R₀.

    The checked facts that make the verdict sound.  Each generator moves whole
    first-digit blocks and maps V₀ on every block into V₀
    (_minus_identity_on_blocks), so Δ_u before its reduction is the matrix of
    u - 1 on V′.  B₀ lies in V₀ and over V₀ is reduced, so the rows the
    remainder matrix is read from are T₊R₁′ in V′'s coordinates, in reduced
    echelon form, and for v in V′, (u - 1)v ∈ T₊R₁′ iff v's coordinates times
    Δ_u are zero.  T₊R₁′'s rows times each Δ_u are checked to be zero, so
    every generator maps T₊R₁′ into itself: T₊R₁′ is U-stable, and whatever
    the generators fix modulo T₊R₁′ all of U fixes, as (uv - 1)g = u(v - 1)g +
    (u - 1)g.  The witness g is checked on its q²D entries in R₂
    (candidate_checks): (u - 1)g ∈ T₊R₁′ for every generator, so g ∈ V,
    and g ∉ T₊R₁, so g ∉ W.  A pass rests on those checks and the full block
    rank alone; the counts decide only whether a witness is sought, and a
    count that wrongly says "found" meets a candidate that fails its checks.
    The tests build V and W, certify V's rows against Δ and re-check them in
    R₂.
    """
    kk = ctx.weight.field.kk
    q, D = ctx.q, ctx.D
    r1p = r1_prime(ctx)
    block, tplus_r1 = _tplus_r1(ctx)
    B0 = tplus_r1.block
    # T₊|R₁ = I_q ⊗ block and block = block[:, pivots of B₀]·B₀, so the coordinates of
    # T₊R₁′ over T₊R₁'s rows map each first-digit piece of R₁′ through block[:, pivots]
    coords = _kernels.matmul(r1p.rows.reshape(-1, D), block[:, B0.pivots], kk).reshape(r1p.dim, tplus_r1.dim)
    tplus_r1p = linalg.echelon(coords, kk, ambient=tplus_r1.dim)

    pi = ctx.ring.uniformizer()
    V0 = _first_digit_block(ctx, [c * pi for c in u_generators(ctx, 1)], B0)  # generators of ϖO/ϖ³
    if np.any(V0.reduce(B0.rows)):
        raise CheckFailed("B₀ must lie in V₀")
    # over V′'s rows T₊R₁ is q copies of B₀'s entries on V₀'s pivots, reduced rows since B₀'s
    # pivots are among V₀'s, and T₊R₁′'s reduced rows are its coordinates over T₊R₁'s rows through them
    tplus_r1_coords = linalg.BlockSum(linalg.echelon(B0.rows[:, V0.pivots], kk, ambient=V0.dim), q)
    if not np.array_equal(tplus_r1_coords.block.rows, B0.rows[:, V0.pivots]):
        raise CheckFailed("B₀ over V₀ must be reduced")
    n = tplus_r1_coords.ambient
    rows, pivots = tplus_r1_coords.vectors(tplus_r1p.rows), tplus_r1_coords.pivots[tplus_r1p.pivots]
    t_rows, t_cols = np.nonzero(rows)
    t_vals = rows[t_rows, t_cols]
    # row c of the remainder matrix mod T₊R₁′ is e_c off its pivots, and minus the rest of the pivot row on pivot c
    free, off = linalg.non_pivots(pivots, n), t_cols != pivots[t_rows]
    R = tuple(np.concatenate(a) for a in ((free, pivots[t_rows[off]]), (free, t_cols[off]), (np.ones_like(free), kk.NEG[t_vals[off]])))
    # Δ_u reduced mod T₊R₁′ is Δ_u times the remainder matrix; column j of generator k is column j·g + k
    parts = [_kernels.sparse_matmul(_minus_identity_on_blocks(ctx, c, V0), R, kk) for c in u_generators(ctx, 2)]
    g = len(parts)
    d_rows, d_cols, d_vals = zip(*parts)
    delta = (np.concatenate(d_rows), np.concatenate([cols * g + k for k, cols in enumerate(d_cols)]), np.concatenate(d_vals))
    if _kernels.sparse_matmul((t_rows, t_cols, t_vals), delta, kk)[0].size:
        raise CheckFailed("T₊R₁′ must be U-stable")
    v_dim = n - _kernels.sparse_rank(*delta, (n, g * n), kk)
    C = tplus_r1_coords.vectors(np.eye(tplus_r1.dim, dtype=np.int32)[linalg.non_pivots(tplus_r1p.pivots, tplus_r1.dim)])
    c_rows, c_cols = np.nonzero(C)
    c_delta = _kernels.sparse_matmul((c_rows, c_cols, C[c_rows, c_cols]), delta, kk)
    return CandidateSpaces(r1p, tplus_r1, tplus_r1p, v_dim, tplus_r1.dim - _kernels.sparse_rank(*c_delta, (len(C), g * n), kk))


# -- explicit candidates from the four construction cases --

CASE_RAMIFIED_BIG = "ramified-dim>1"
CASE_RAMIFIED_DIM1 = "ramified-dim1"
CASE_UNRAMIFIED_GENERIC = "unramified-generic"
CASE_UNRAMIFIED_MAXIMAL = "unramified-maximal"
CASE_SEARCH_ONLY = "search-only"


def select_case(ctx: InductionCtx) -> str:
    p, f, e = ctx.ring.p, ctx.ring.f, ctx.ring.e
    rvec = ctx.weight.rvec
    if e >= 2:
        return CASE_RAMIFIED_BIG if ctx.D > 1 else CASE_RAMIFIED_DIM1
    if f == 1:
        return CASE_SEARCH_ONLY
    if all(r == p - 1 for r in rvec):
        return CASE_UNRAMIFIED_MAXIMAL
    return CASE_UNRAMIFIED_GENERIC


def _sum_over_keys(ctx: InductionCtx, weights: np.ndarray) -> np.ndarray:
    """Coordinates of Σ_{μ,λ} [(ϖ², (μ,λ)), weights[λ]] in R₂, weights a q x D array.

    Key (μ, λ) has rank μ·q + λ, so the coefficient blocks repeat with period q.
    """
    return np.tile(weights.reshape(-1), ctx.q)


def paper_candidate(ctx: InductionCtx):
    """The explicit g of the construction matching this configuration, checked to lie in V outside W.

    Returns (coordinates of g in R₂, case, j0) where j0 is the factor index
    used by the unramified cases (None otherwise).  Each case has one g but
    the unramified generic one, whose coefficient λ^{p^{j0}(r_{j0}+1)}·x^{r⃗}
    is tried for every factor with r_{j0} ≤ p-2, keeping the first g that
    passes, since no single fixed choice works for every weight.  Each g is
    tested once, by candidate_checks; CheckFailed when none passes.
    """
    case = select_case(ctx)
    w = ctx.weight
    field = w.field
    if case == CASE_SEARCH_ONLY:
        raise CaseMismatch("no construction case applies when e = f = 1")
    weights = np.zeros((ctx.q, w.D), dtype=np.int32)
    tries = [None]
    if case == CASE_RAMIFIED_BIG:
        j0 = next(j for j, r in enumerate(w.rvec) if r >= 1)
        weights[:, w.index[tuple(1 if j == j0 else 0 for j in range(field.f))]] = 1
        tries = [j0]
    elif case == CASE_RAMIFIED_DIM1:
        weights[:, 0] = [field.embed_code(lam) for lam in range(ctx.q)]
    elif case == CASE_UNRAMIFIED_MAXIMAL:
        weights[:, w.index[(1,) + (0,) * (field.f - 1)]] = 1
    else:
        tries = [j for j, r in enumerate(w.rvec) if r <= field.p - 2]  # not empty: some r_j < p - 1
    for j0 in tries:
        if case == CASE_UNRAMIFIED_GENERIC:
            k = (field.p**j0) * (w.rvec[j0] + 1)
            weights[:, 0] = [field.embed_code(field.fq.pow_code(lam, k)) for lam in range(ctx.q)]
        coords = _sum_over_keys(ctx, weights)
        if all(candidate_checks(ctx, coords).values()):
            return coords, case, j0
    raise CheckFailed(f"no candidate of case {case} lies in V outside W")


# -- checks on a candidate g --


def candidate_checks(ctx: InductionCtx, coords: np.ndarray) -> dict:
    """The two defining checks of a witness g ∈ R₂, given by its coordinates:
    g ∉ T₊R₁ and (u-1)g ∈ T₊R₁′, that is g ∈ V outside W.

    The second is _u_fixed_mod_tplus_r1p on g's row, on all its q²D
    entries.  It moves g with translate_vectors, which reads translation
    tables that are verified forward on every key before use
    (localring.translation_table), so it does not rest on the carry
    recursion that built them; tests/oracles.py keeps the per-key u_act form.
    """
    return {
        "g_not_in_TplusR1": not linalg.member(coords, _candidate_spaces(ctx).tplus_r1),
        "u_invariance_mod_TplusR1prime": _u_fixed_mod_tplus_r1p(ctx, coords),
    }


# -- reports --


@dataclass
class MainLemmaReport:
    case: str
    found: bool
    g: np.ndarray | None  # coordinates in R₂
    checks: dict
    dims: dict
    certificate: bool
    j0: int | None = None


@_per_ctx
def main_lemma_report(ctx: InductionCtx) -> MainLemmaReport:
    """dim V and dim W, and when dim V > dim W the paper's g, which passed both candidate_checks.

    The certificate dim L(σ)^U ≥ 2 is those checks with the full T₊ block
    rank, which makes T₊ injective on every level.  Over Q_p no construction
    applies, so counts that say "found" raise instead of starting a search.
    """
    spaces = _candidate_spaces(ctx)
    case = select_case(ctx)
    found = spaces.v_dim > spaces.w_dim
    dims = {
        "R1": ctx.q * ctx.D,
        "R1prime": spaces.r1p.dim,
        "TplusR1prime": spaces.tplus_r1p.dim,
        "Q": ctx.q * ctx.q * ctx.D - spaces.tplus_r1p.dim,
        "QU": spaces.v_dim - spaces.tplus_r1p.dim,
        "V": spaces.v_dim,
        "V_cap_TplusR1": spaces.w_dim,
    }
    g = j0 = None
    if found:
        if case == CASE_SEARCH_ONLY:
            raise CheckFailed("dim V > dim W where no construction case applies")
        g, _, j0 = paper_candidate(ctx)
    return MainLemmaReport(
        case=case,
        found=found,
        g=g,
        checks={"g_not_in_TplusR1": found, "u_invariance_mod_TplusR1prime": found},
        dims=dims,
        certificate=found and tplus_block_rank(ctx) == ctx.D,
        j0=j0,
    )


@dataclass
class TruncationReport:
    N: int
    dim_ie: int
    dim_t_io: int
    dim_ln: int
    dim_ln_u: int
    dim_coinv: int
    tminus_surjective: tuple
    tplus_vanishing: tuple
    ln_u_method: str  # "sparse" or "certified-lower-bound"


@_per_ctx
def _collapsed_scalars(ctx: InductionCtx):
    """(a, b, T₊ vanishes): the maps T induces on U-coinvariants, the same at every level.

    Every level's coinvariants collapse to one copy of K through the weight
    functional φ, read at the key (0, .., 0).  T₋ becomes multiplication by
    a = φ(ν·tminus_local[0]) when φ's free coordinate is y^{r⃗} (T₋ reads only
    that coordinate) and by 0 otherwise.  T₊ sends e_i to φ(e₀)·Σ_λ
    tplus_local[λ, i]; b is that value at the free coordinate, and T₊
    vanishes on coinvariants iff it is 0 for every i.
    """
    _, phi, free = weight_coinvariant_functional(ctx)
    w = ctx.weight
    kk = w.field.kk
    a = phi(kk.MUL[w.nu.code, ctx.tminus_local()[0]]) if free == w.index[w.rvec] else 0
    e0 = np.zeros(ctx.D, dtype=np.int32)
    e0[0] = 1
    sums = _kernels.matmul(np.ones((1, ctx.q), dtype=np.int32), ctx.tplus_local(), kk)[0]
    tplus = kk.MUL[phi(e0), sums]
    return a, int(tplus[free]), not tplus.any()


def truncation_precision(N: int) -> int:
    """Ring precision truncated_L(ctx, N) needs: T on level 2N-1 lands on level 2N."""
    return 2 * N + 1


def truncated_L(ctx: InductionCtx, N: int, prev: TruncationReport | None = None) -> TruncationReport:
    """The report on L_N = I^e_{[0,2N]} / T(I^o_{[1,2N-1]}).

    T is injective on I^o, so dim L_N = dim I^e − dim I^o.  Up to
    SPARSE_FIXED_CAP on dim I^e, dim L_N^U is exact: T is U-equivariant, so
    T(I^o) is U-stable and U acts on L_N; on the basis of L_N given by T's
    non-pivot columns, dim L_N^U = dim L_N − rank of the maps u − 1 side by
    side (fixed_space_system).  Beyond the cap it is the certified lower
    bound of _certified_fixed_lower_bound, raised to prev's value.
    """
    if truncation_precision(N) > ctx.ring.N:
        raise PrecisionExhausted(f"need ring precision {truncation_precision(N)}, have {ctx.ring.N}")
    if tplus_block_rank(ctx) != ctx.D:
        raise CheckFailed("T is injective on I^o only when the T₊ block rank is full")
    lr_even = LevelRange("even", 0, 2 * N)
    lr_odd = LevelRange("odd", 1, 2 * N - 1)
    dim_ie = range_dim(ctx, lr_even)
    # triangular filtration: the top even level of T x sees only the injective
    # T₊ on the top odd level of x, so T is injective on I^o
    dim_t_io = range_dim(ctx, lr_odd)
    dim_ln = dim_ie - dim_t_io

    if dim_ie <= SPARSE_FIXED_CAP:
        rows, cols, vals, shape = fixed_space_system(ctx, N)
        dim_ln_u = dim_ln - _kernels.sparse_rank(rows, cols, vals, shape, ctx.weight.field.kk)
        ln_u_method = "sparse"
    else:
        dim_ln_u = _certified_fixed_lower_bound(ctx, N)
        if prev is not None:
            # full block rank certifies W_N ∩ I^e_{≤2N-2} = W_{N-1}, hence a
            # U-equivariant embedding L_{N-1} ↪ L_N and monotone fixed spaces
            dim_ln_u = max(dim_ln_u, prev.dim_ln_u)
        ln_u_method = "certified-lower-bound"

    # I^e maps onto K^{N+1} by weight class per level, and T(I^o) onto the row
    # space of the N x (N+1) bidiagonal matrix with a on the diagonal, b above it
    a, b, tplus_vanishes = _collapsed_scalars(ctx)
    dim_coinv = 1 if a or b else N + 1

    return TruncationReport(
        N=N,
        dim_ie=dim_ie,
        dim_t_io=dim_t_io,
        dim_ln=dim_ln,
        dim_ln_u=dim_ln_u,
        dim_coinv=dim_coinv,
        tminus_surjective=(a != 0,) * N,
        tplus_vanishing=(tplus_vanishes,) * N,
        ln_u_method=ln_u_method,
    )


def fixed_space_system(ctx: InductionCtx, N: int) -> tuple:
    """(rows, cols, vals, shape): the entries of the dim L_N x g·dim L_N matrix
    whose rank gives L_N^U = {x ∈ L_N : x(u − 1) = 0 for every generator u}.

    One sparse elimination of T (hecke_entries) gives its pivot rows; T is
    injective on I^o (checked here: one pivot per row), and the non-pivot
    columns F of I^e are a basis of L_N = I^e / T(I^o).  T is U-equivariant,
    so T(I^o) is U-stable and each u − 1 induces a map on L_N: row f of it
    is row f of translation_entries reduced modulo the pivot rows, read on
    F.  The reduction is one product per generator with the remainder
    matrix of every column those rows meet (_kernels.remainder_matrix,
    built once for the system, then _kernels.sparse_matmul).

    T is eliminated with the columns of weight index ≠ 0 before those of
    weight 0, each group highest first (_elimination_column).  T₊ lands
    only on weight 0, so the rows with a T₋ part may pivot in their
    parent's block, which few translation rows meet, instead of on a child
    on the level above.  When D = q every child is a pivot, and highest
    first put a T₋ part into the remainder of each: on (7,2,1,(6,6)) at
    N = 1 that made 13.6M entries, 41 s and 3.4 GB, against 3.9M, 11.5 s
    and 0.98 GB in this order.  Where D < q it can cost more: unramified
    (1,0) (q = 9, D = 2) at N = 2 took 0.7 s against 0.4 s highest first.

    Column f of generator k is column f·g + k, so the columns rank
    level-ascending and the rank's elimination, which takes the highest
    first, starts on the top level; interleaving the g blocks rather than
    stacking them cut the rank's time by 20–25 % on ramified-r1 at N = 5
    and unramified-maximal at N = 3.  dim L_N^U = dim L_N − rank.
    """
    kk = ctx.weight.field.kk
    lr_even, lr_odd = LevelRange("even", 0, 2 * N), LevelRange("odd", 1, 2 * N - 1)
    dim_ie, dim_io = range_dim(ctx, lr_even), range_dim(ctx, lr_odd)
    t_rows, t_cols, t_vals = hecke_entries(ctx, lr_odd, lr_even)
    t_cols = _elimination_column(ctx, t_cols, dim_ie)
    pivot_rows = _kernels.sparse_pivot_rows(t_rows, t_cols, t_vals, (dim_io, 2 * dim_ie), kk)
    if len(pivot_rows) != dim_io:
        raise CheckFailed("T must be injective on odd levels when the block rank is full")
    free = np.ones(dim_ie, dtype=bool)
    free[np.fromiter(pivot_rows, dtype=np.int64, count=dim_io) % dim_ie] = False
    coord = np.cumsum(free) - 1  # position of each column of F in L_N
    gens = u_generators(ctx, 2 * N)
    g = len(gens)
    blocks = []
    for c in gens:
        rows, cols, vals = translation_entries(ctx, c, lr_even)
        on_f = free[rows]
        blocks.append((rows[on_f], _elimination_column(ctx, cols[on_f], dim_ie), vals[on_f]))
    R = _kernels.remainder_matrix(np.concatenate([block[1] for block in blocks]), pivot_rows, kk)
    parts = []
    for k, block in enumerate(blocks):
        rows, cols, vals = _kernels.sparse_matmul(block, R, kk)
        parts.append((coord[rows], coord[cols % dim_ie] * g + k, vals))
    rows, cols, vals = (np.concatenate(part) for part in zip(*parts))
    dim_ln = dim_ie - dim_io
    return rows, cols, vals, (dim_ln, g * dim_ln)


def _elimination_column(ctx: InductionCtx, j: np.ndarray, dim_ie: int) -> np.ndarray:
    """Column j of I^e in the elimination of T: j, or j + dim I^e when its weight index is not 0.

    Every level's block starts at a multiple of D, so j mod D is the weight index, and j is j's column mod dim I^e.
    """
    return j + dim_ie * (j % ctx.D != 0)


def _certified_fixed_lower_bound(ctx: InductionCtx, N: int) -> int:
    """Lower bound for dim L_N^U via the witness pair {x^{r⃗} at level 0, g}.

    Ingredients, each machine-checked here or upstream:
      - full block rank (checked by truncated_L) makes T₊ injective at every
        level, so an element of T(I^o) supported in levels ≤ 2 already lies
        in T(R₁);
      - the level-0 vector is exactly U-fixed; the pair's second row is zero
        on level 0, and its level-2 block (read through _offsets) is U-fixed
        modulo T₊R₁′ ⊆ T(R₁), which is the check g passed;
      - T is injective on R₁ and the pair independent modulo T(R₁): T from
        R₁ to R₀ ⊕ R₂ (hecke_entries) stacked with the pair has rank q·D + 2.

    Without a certified witness the pair is x^{r⃗} alone, and the bound is 1
    when that stack has rank q·D + 1, else 0.
    """
    kk = ctx.weight.field.kk
    gens = u_generators(ctx, 2 * N)
    e0 = np.zeros((1, ctx.D), dtype=np.int32)
    e0[0, 0] = 1
    for c in gens:
        if not np.array_equal(translate_vectors(ctx, c, 0, e0), e0):
            raise CheckFailed("level-0 top vector must be exactly U-fixed")
    lr02 = LevelRange("even", 0, 2)
    level2 = _offsets(ctx, lr02)[2]
    main = main_lemma_report(ctx)
    witness = main.found and main.certificate
    pair = np.zeros((1 + witness, range_dim(ctx, lr02)), dtype=np.int32)
    pair[0, 0] = 1  # x^{r⃗}: level 0's D entries come first
    if witness:
        pair[1, ctx.D :] = main.g
        if pair[1, :level2].any() or not _u_fixed_mod_tplus_r1p(ctx, pair[1, level2:]):
            raise CheckFailed("the pair's second row must be g on level 2, U-fixed modulo T₊R₁′ ⊆ T(R₁)")
    qD, k = ctx.q * ctx.D, len(pair)
    t_rows, t_cols, t_vals = hecke_entries(ctx, LevelRange("all", 1, 1), lr02)
    p_rows, p_cols = np.nonzero(pair)
    entries = (np.concatenate(a) for a in ((t_rows, qD + p_rows), (t_cols, p_cols), (t_vals, pair[p_rows, p_cols])))
    if _kernels.sparse_rank(*entries, (qD + k, pair.shape[1]), kk) == qD + k:
        return k
    if witness:
        raise CheckFailed("witness pair must be independent modulo T(R₁), with T injective on R₁")
    return 0


def negative_control(p: int, N: int = 6):
    """Exhaustive search over the base-field configurations: no witness exists."""
    out = []
    for r in range(p):
        ctx = build_ctx(p, 1, 1, (r,), N=N)
        spaces = _candidate_spaces(ctx)
        out.append({"p": p, "r": r, "dim_V": spaces.v_dim, "dim_W": spaces.w_dim, "found": spaces.v_dim > spaces.w_dim})
    return out
