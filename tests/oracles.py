"""Helpers shared by the dense oracles of the test suite, and the parts of
the element calculus that only the tests use: the α-shift, T₋ and T."""

import numpy as np

from indgl2 import _kernels, analysis, linalg
from indgl2.errors import DimensionMismatch, LevelZeroInput, PrecisionExhausted
from indgl2.gf import FqElem
from indgl2.induction import (
    InducedElem,
    LevelRange,
    flatten,
    hecke_entries,
    hecke_matrix,
    hecke_T_plus,
    operator_matrix,
    range_dim,
    translate_vectors,
    translation_entries,
    u_act,
)
from indgl2.linalg import Subspace
from indgl2.localring import DigitString, LocalRingCtx, RingElem, residue, teichmuller, translation_table
from indgl2.weight import action_matrix


def ring_int(ctx: LocalRingCtx, n: int) -> RingElem:
    """The integer n in O/ϖ^N: n mod p^M as the constant coefficient."""
    vec = np.zeros((ctx.e, ctx.f), dtype=np.int64)
    vec[0, 0] = n % ctx.pM
    return RingElem(ctx, vec, ctx.N)


def alpha_act(x: InducedElem) -> InducedElem:
    """[(ϖⁿ, μ), w] ↦ [(ϖ^{n+1}, ϖμ), w]; prepends a zero digit."""
    ctx = x.ctx
    out = {}
    for (n, mu), v in x.terms.items():
        if n + 1 > ctx.max_level():
            raise PrecisionExhausted("no precision headroom for the level shift")
        out[(n + 1, (0,) + mu)] = v.copy()
    return InducedElem(ctx, out)


def hecke_T_minus(x: InducedElem) -> InducedElem:
    """ν [(ϖ^{n-1}, [μ]_{n-1}), u_{r⃗} ⊗_j (μ_{n-1}^{p^j} x_j + y_j)^{r_j}]."""
    ctx = x.ctx
    kk = ctx.weight.field.kk
    local = ctx.tminus_local()
    top_index = ctx.weight.index[ctx.weight.rvec]  # e_{r⃗} = y^{r⃗}
    nu_code = ctx.weight.nu.code
    out: dict = {}
    for (n, mu), v in x.terms.items():
        if n == 0:
            raise LevelZeroInput("T₋ lowers the level; level 0 has nowhere to go")
        u_r = int(v[top_index])
        if u_r == 0:
            continue
        scalar = int(kk.MUL[nu_code, u_r])
        w = kk.MUL[scalar, local[mu[n - 1]]].astype(np.int32)
        key = (n - 1, mu[: n - 1])
        out[key] = kk.ADD[out[key], w] if key in out else w
    return InducedElem(ctx, out)


def hecke_T(x: InducedElem) -> InducedElem:
    if any(n == 0 for n, _ in x.terms):
        raise LevelZeroInput("T is only defined on levels >= 1 here")
    return hecke_T_plus(x) + hecke_T_minus(x)


def random_element(ctx, rng, levels) -> InducedElem:
    """A sum of one to three random terms on the given levels, drawn from the numpy generator rng."""
    terms = {}
    for _ in range(rng.integers(1, 4)):
        n = int(rng.choice(levels))
        mu = tuple(int(v) for v in rng.integers(0, ctx.q, size=n))
        vec = rng.integers(0, ctx.weight.field.kk.order, size=ctx.D).astype(np.int32)
        if vec.any():
            terms[(n, mu)] = vec
    return InducedElem(ctx, terms)


def all_translations(ctx, n):
    """Every [λ_s]·ϖ^i with 0 ≤ i ≤ n, λ_s running over an F_p-basis of F_q.

    These additively generate O/ϖ^{n+1} with no argument needed.  They list
    the depths ≥ e that analysis.u_generators leaves out, so an oracle built
    on them does not rest on the lemma that makes the shorter list suffice.
    """
    ring = ctx.ring
    pi = ring.uniformizer()
    return [teichmuller(ring.field.fq.elem(ring.p**s), ring) * pi**i for i in range(n + 1) for s in range(ring.f)]


def direct_sum(S, copies):
    """S ⊕ .. ⊕ S in K^(copies·ambient) as one dense Subspace, copy k on
    coordinates k·ambient .. (k+1)·ambient - 1: the oracle of linalg.BlockSum.

    The copies have disjoint supports, so S's reduced rows placed block by
    block are already the reduced echelon form of the sum.
    """
    n, d = S.ambient, S.dim
    rows = np.zeros((copies * d, copies * n), dtype=np.int32)
    for k in range(copies):
        rows[k * d : (k + 1) * d, k * n : (k + 1) * n] = S.rows
    pivots = (S.pivots[None, :] + n * np.arange(copies)[:, None]).reshape(-1)
    return Subspace(S.field, copies * n, rows, pivots.astype(np.int64), _canonical=True)


def embed(S, Z):
    """S, given in coordinates over the rows of the dense Z, as a subspace of
    Z's ambient: the reference for a linalg.BlockSum's vectors(S.rows) and
    pivots[S.pivots], with Z the sum made dense by direct_sum.

    Both are in reduced echelon form, so S.rows @ Z.rows is too, with pivots
    Z.pivots[S.pivots]; the coordinates of a member v of Z are v[Z.pivots].
    """
    if S.ambient != Z.dim or S.field is not Z.field:
        raise DimensionMismatch(f"coordinates of length {S.ambient} vs a basis of {Z.dim} rows")
    rows = _kernels.matmul(S.rows, Z.rows, Z.field) if S.dim else np.zeros((0, Z.ambient), dtype=np.int32)
    return Subspace(Z.field, Z.ambient, rows, Z.pivots[S.pivots], _canonical=True)


def image(M, field):
    """{v @ M}: the row span of the matrix M."""
    M = np.asarray(M, dtype=np.int32)
    return linalg.echelon(M, field, ambient=M.shape[1])


def dense_certified_lower_bound(ctx, N):
    """analysis._certified_fixed_lower_bound by the dense route it took before one sparse rank:
    the Hecke image of R₁ in R₀ ⊕ R₂ as a subspace, the pair's echelon form and its
    Zassenhaus intersection with that image.  Returns 2 when the witness pair is independent
    and meets the image in 0, 1 or 0 for the level-0 line alone when there is no certified
    witness, and None when the pair fails either test."""
    kk = ctx.weight.field.kk
    lr02 = LevelRange("even", 0, 2)
    img = image(hecke_matrix(ctx, LevelRange("all", 1, 1), lr02), kk)
    v0 = np.zeros(range_dim(ctx, lr02), dtype=np.int32)  # level 0's D entries come first
    v0[0] = 1
    main = analysis.main_lemma_report(ctx)
    if not (main.found and main.certificate):
        return 1 if not linalg.member(v0, img) else 0
    pair = linalg.echelon(np.vstack([v0, np.concatenate([np.zeros(ctx.D, dtype=np.int32), main.g])]), kk, ambient=v0.size)
    return 2 if pair.dim == 2 and linalg.intersect(pair, img).dim == 0 else None


def tplus_by_walk(ctx):
    """(R₁′, the dense T₊|R₁ matrix, T₊R₁, T₊R₁′), each from the per-basis-vector walk."""
    kk = ctx.weight.field.kk
    r1, r2 = LevelRange("all", 1, 1), LevelRange("all", 2, 2)
    r1p = linalg.kernel(operator_matrix(ctx, hecke_T_minus, r1, LevelRange("all", 0, 0)), kk)
    Mplus = operator_matrix(ctx, hecke_T_plus, r1, r2)
    tplus_r1p = linalg.echelon(_kernels.matmul(r1p.rows, Mplus, kk), kk, ambient=Mplus.shape[1])
    return r1p, Mplus, image(Mplus, kk), tplus_r1p


def dense_candidates(ctx):
    """(T₊R₁′, V, W) as dense subspaces of R₂, each from the walk: T₊R₁ and T₊R₁′ by
    tplus_by_walk, V the preimage of the fixed space of every translation of all_translations
    on Q = R₂/T₊R₁′ (analysis.induced_quotient_maps), and W = V ∩ T₊R₁.  Nothing here uses the
    first-digit blocks that analysis._candidate_spaces counts V and W in."""
    kk = ctx.weight.field.kk
    _, _, tplus_r1, tplus_r1p = tplus_by_walk(ctx)
    P = quotient_projection(tplus_r1p)
    maps = analysis.induced_quotient_maps(ctx, all_translations(ctx, 2), LevelRange("all", 2, 2), tplus_r1p)
    V = linalg.preimage(P, linalg.fixed_space(maps, kk, P.shape[1]))
    return tplus_r1p, V, linalg.intersect(V, tplus_r1)


def minus_identity_on_blocks(ctx, c, V0):
    """The dense (q·dim V₀)-square matrix of u − 1 on V′ = V₀ ⊕ .. ⊕ V₀ over V′'s rows, u the translation by
    c: the reference for the entry lists of analysis._minus_identity_on_blocks, built apart from them.  The
    tiled rows of V₀ are translated once, each block's image is scattered into a q x dim V₀ x q x dim V₀
    array on its destination block, and the identity is subtracted on the diagonal blocks."""
    kk = ctx.weight.field.kk
    q, qD, d0 = ctx.q, ctx.q * ctx.D, V0.dim
    dest = translation_table(c, 2)[0].reshape(q, q)[:, 0] // q
    moved = translate_vectors(ctx, c, 2, np.tile(V0.rows, q)).reshape(d0, q, qD)  # block dest[k] is block k's image
    blocks = np.arange(q)
    M = np.zeros((q, d0, q, d0), dtype=np.int32)
    M[blocks, :, dest] = moved[:, dest][..., V0.pivots].transpose(1, 0, 2)
    M[blocks, :, blocks] = kk.ADD[M[blocks, :, blocks], kk.NEG[np.eye(d0, dtype=np.int32)]]
    return M.reshape(q * d0, q * d0)


def block_candidates(ctx):
    """(V′, Δ, V, W): the block route that analysis._candidate_spaces counts V and W by, dense, with their bases.

    V′ = V₀ ⊕ .. ⊕ V₀ is a linalg.BlockSum, and Δ is the dense stack of the maps u − 1 on V′
    (minus_identity_on_blocks) reduced mod T₊R₁′ by Subspace.reduce, one block of q·dim V₀ columns per
    generator u of analysis.u_generators(ctx, 2), in their order, none dropped; T₊R₁ and T₊R₁′ over V′'s
    rows are dense too (direct_sum, embed).  V = ker Δ and W = V ∩ T₊R₁ are in coordinates over V′'s
    rows, so embed(S, direct_sum(V₀, q)) puts them in R₂.  It reaches configurations far past
    dense_candidates, as q = 81, D = 4.
    """
    kk = ctx.weight.field.kk
    spaces = analysis._candidate_spaces(ctx)
    B0 = spaces.tplus_r1.block
    V0 = analysis._first_digit_block(ctx, [c * ctx.ring.uniformizer() for c in analysis.u_generators(ctx, 1)], B0)
    tplus_r1 = direct_sum(linalg.echelon(B0.rows[:, V0.pivots], kk, ambient=V0.dim), ctx.q)  # over V′'s rows
    tplus_r1p = embed(spaces.tplus_r1p, tplus_r1)
    gens = analysis.u_generators(ctx, 2)
    delta = np.hstack([tplus_r1p.reduce(minus_identity_on_blocks(ctx, c, V0)) for c in gens])
    V = linalg.kernel(delta, kk)
    in_tplus_r1 = linalg.kernel(tplus_r1.reduce(V.rows), kk)
    W = linalg.echelon(_kernels.matmul(in_tplus_r1.rows, V.rows, kk), kk, ambient=V.ambient)
    return linalg.BlockSum(V0, ctx.q), delta, V, W


def candidate_checks_by_u_act(ctx, g):
    """analysis.candidate_checks with (u-1)g computed by u_act on g itself,
    key by key through localring.translate_digits and the scalar carry, with
    no translation table, and T₊R₁ and T₊R₁′ taken from the per-basis-vector
    walk: the oracle of the flat-coordinate route."""
    _, _, tplus_r1, tplus_r1p = tplus_by_walk(ctx)
    lr2 = LevelRange("all", 2, 2)
    return {
        "g_not_in_TplusR1": not linalg.member(flatten(g, lr2), tplus_r1),
        "u_invariance_mod_TplusR1prime": all(
            linalg.member(flatten(u_act(c, g) - g, lr2), tplus_r1p) for c in analysis.u_generators(ctx, 2)
        ),
    }


def u_fixed_mod_tplus_r1p(ctx, rows, chunk=32):
    """Whether every row of R₂ in rows is U-fixed modulo T₊R₁′ on all its q²D entries: the
    re-check of V's basis that analysis._candidate_spaces made in R₂ before it certified V in
    V′'s coordinates, and then only counted V.  Each row is translated by every generator of
    all_translations, so no lemma on which generators suffice is used, and (u − 1)v is tested
    in T₊R₁′'s frame, chunk rows at a time."""
    kk = ctx.weight.field.kk
    spaces = analysis._candidate_spaces(ctx)
    for start in range(0, len(rows), chunk):
        block = rows[start : start + chunk]
        for c in all_translations(ctx, 2):
            delta = kk.ADD[translate_vectors(ctx, c, 2, block), kk.NEG[block]]
            if not linalg.member_over(delta, spaces.tplus_r1, spaces.tplus_r1p):
                return False
    return True


def dense_fixed_dim(ctx, N):
    """dim L_N^U by the dense route that analysis.truncated_L took up to
    dim I^e = 2048: the translations by the generators as matrices on
    I^e/T(I^o) (analysis.induced_quotient_maps), then linalg.fixed_space."""
    kk = ctx.weight.field.kk
    lr_even, lr_odd = LevelRange("even", 0, 2 * N), LevelRange("odd", 1, 2 * N - 1)
    S = image(hecke_matrix(ctx, lr_odd, lr_even), kk)
    assert S.dim == range_dim(ctx, lr_odd), "T must be injective on odd levels"
    maps = analysis.induced_quotient_maps(ctx, analysis.u_generators(ctx, 2 * N), lr_even, S)
    return linalg.fixed_space(maps, kk, S.ambient - S.dim).dim


def stacked_fixed_dim(ctx, N):
    """dim L_N^U by the sparse route that analysis.truncated_L took before it
    worked on the quotient: no quotient basis, one elimination of a stacked
    system through _kernels.sparse_rank.

    V_N = {x ∈ I^e : x(u − 1) ∈ T(I^o) for every generator u} contains T(I^o),
    and L_N^U = V_N / T(I^o).  For the unknowns (x, y_1, .., y_g), V_N is the
    kernel of A = [[U_1−1, .., U_g−1], [−T, 0, ..], .., [0, .., −T]] in the row
    convention, so with T injective on I^o (checked by rank),
    dim L_N^U = #unknowns − rank A − dim I^o.  Column j of I^e in generator
    k's block is column j·g + k.
    """
    kk = ctx.weight.field.kk
    lr_even, lr_odd = LevelRange("even", 0, 2 * N), LevelRange("odd", 1, 2 * N - 1)
    dim_ie, dim_io = range_dim(ctx, lr_even), range_dim(ctx, lr_odd)
    t_rows, t_cols, t_vals = hecke_entries(ctx, lr_odd, lr_even)
    assert _kernels.sparse_rank(t_rows, t_cols, t_vals, (dim_io, dim_ie), kk) == dim_io, "T must be injective on odd levels"
    gens = analysis.u_generators(ctx, 2 * N)
    g = len(gens)
    parts = []
    for k, c in enumerate(gens):
        rows, cols, vals = translation_entries(ctx, c, lr_even)
        parts += [(rows, cols * g + k, vals), (t_rows + dim_ie + k * dim_io, t_cols * g + k, kk.NEG[t_vals])]
    rows, cols, vals = (np.concatenate(part) for part in zip(*parts))
    shape = (dim_ie + g * dim_io, g * dim_ie)
    return shape[0] - _kernels.sparse_rank(rows, cols, vals, shape, kk) - dim_io


def quotient_projection(S):
    """ambient x L matrix P with row j = coordinates of e_j in ambient/S: the
    dense projection that analysis.induced_quotient_maps reads off S.reduce.

    The complement coordinates are the non-pivot columns of S's reduced
    echelon form: row j of P is the unit vector of j for each non-pivot j,
    and row pivots[k] is −(row k of S) read on the non-pivot columns.
    """
    nonpiv = linalg.non_pivots(S.pivots, S.ambient)
    P = np.zeros((S.ambient, nonpiv.size), dtype=np.int32)
    P[nonpiv, np.arange(nonpiv.size)] = 1
    P[S.pivots] = S.field.NEG[S.rows[:, nonpiv]]
    return P


def subspace_sum(S, T):
    """S + T, the echelon form of the stacked rows of both."""
    if S.field is not T.field or S.ambient != T.ambient:
        raise DimensionMismatch("subspaces live in different ambients")
    return linalg.echelon(np.vstack([S.rows, T.rows]), S.field, ambient=S.ambient)


def scalar_digits(a: RingElem, n: int) -> tuple:
    """The first n digit codes of a by the greedy expansion λ_i = residue(a), a ← (a − [λ_i])/ϖ, in
    RingElem arithmetic alone: a/ϖ = (a₀/p)·W + Σ_{i≥1} a_i ϖ^{i−1} with the element W = p/ϖ, not the
    stack kernels of localring and their W and Π matrices."""
    ctx = a.ctx
    w = ctx._pi_w()
    out = []
    for _ in range(n):
        lam = residue(a)
        out.append(lam.code)
        r = (a - teichmuller(lam, ctx)).vec
        head, shifted = np.zeros_like(r), np.zeros_like(r)
        head[0], shifted[:-1] = r[0] // ctx.p, r[1:]
        a = RingElem(ctx, head, ctx.N) * w + RingElem(ctx, shifted, ctx.N)
    return tuple(out)


def scalar_value(ctx: LocalRingCtx, codes) -> RingElem:
    """Σ ϖ^i [λ_i] for the digit codes λ_i, by Horner in RingElem arithmetic."""
    acc, pi = ctx.zero(), ctx.uniformizer()
    for code in reversed(codes):
        acc = acc * pi + teichmuller(ctx.field.fq.elem(code), ctx)
    return acc


def make_digits(ctx, values):
    """The DigitString of residue codes, or of FqElem values, in ctx."""
    return DigitString(ctx, tuple(v.code if isinstance(v, FqElem) else int(v) % ctx.q for v in values))


def u_invariants(w):
    """Fixed space in the weight w of every upper unipotent [[1, λ], [0, 1]] over F_q."""
    kk = w.field.kk
    ops = [action_matrix(w, [[1, lam], [0, 1]]) for lam in w.field.enumerate_field("Fq") if lam]
    return linalg.fixed_space(ops, kk, w.D)
