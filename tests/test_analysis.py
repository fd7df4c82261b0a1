"""Witness search, certificates, and truncated quotients.

Frozen dimensions were computed once from the implementation and pinned;
structural facts (kernel dimensions, coinvariant counts, flag values) are
cross-checked against independent dense linear algebra built inline here.
"""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from indgl2 import _kernels, analysis, cli, linalg
from indgl2.errors import CaseMismatch, CheckFailed, DimensionMismatch, PrecisionExhausted
from indgl2.induction import (
    LevelRange,
    flatten,
    hecke_matrix,
    hecke_T_plus,
    operator_matrix,
    range_dim,
    singleton,
    translate_vectors,
    translation_entries,
    u_act,
    unflatten,
)
from indgl2.localring import translation_table
from oracles import (
    all_translations,
    block_candidates,
    candidate_checks_by_u_act,
    dense_candidates,
    dense_certified_lower_bound,
    dense_fixed_dim,
    direct_sum,
    embed,
    hecke_T,
    hecke_T_minus,
    image,
    quotient_projection,
    stacked_fixed_dim,
    subspace_sum,
    tplus_by_walk,
    u_fixed_mod_tplus_r1p,
)


@pytest.fixture(scope="module")
def q3_r0():
    return analysis.build_ctx(3, 1, 1, (0,), N=8)


@pytest.fixture(scope="module")
def q3_r1():
    return analysis.build_ctx(3, 1, 1, (1,), N=8)


@pytest.fixture(scope="module")
def ram_r0():
    return analysis.build_ctx(3, 1, 2, (0,), N=8)


@pytest.fixture(scope="module")
def ram_r1():
    return analysis.build_ctx(3, 1, 2, (1,), N=8)


@pytest.fixture(scope="module")
def unram_gen():
    return analysis.build_ctx(3, 2, 1, (1, 0), N=8)


@pytest.fixture(scope="module")
def unram_max():
    return analysis.build_ctx(2, 2, 1, (1, 1), N=8)


class TestR1Prime:
    def test_dim_r0(self, q3_r0):
        assert analysis.r1_prime(q3_r0).dim == 2

    def test_dim_r1(self, q3_r1):
        # T₋ is onto R₀, so the kernel has dimension q·D - D
        assert analysis.r1_prime(q3_r1).dim == 4

    def test_contains_low_basis_vectors(self, q3_r1):
        # T₋ reads only the y^{r⃗} coefficient; other basis lines die
        S = analysis.r1_prime(q3_r1)
        lr1 = LevelRange("all", 1, 1)
        top = q3_r1.weight.index[(1,)]
        for mu in range(3):
            for widx in range(q3_r1.D):
                x = singleton(q3_r1, 1, (mu,), widx)
                assert linalg.member(flatten(x, lr1), S) == (widx != top)

    def test_ramified_dim(self, ram_r1):
        assert analysis.r1_prime(ram_r1).dim == 4


class TestUGenerators:
    # f·min(e, n+1) generators: depths i ≥ e are Z_p-multiples of the shallower ones

    def test_count_prime_field(self, q3_r0):
        assert len(analysis.u_generators(q3_r0, 2)) == 1

    @pytest.mark.parametrize("p,f", [(2, 2), (3, 2)])
    def test_count_extensions(self, p, f):
        ctx = analysis.build_ctx(p, f, 1, (0,) * f, N=6)
        assert len(analysis.u_generators(ctx, 2)) == f
        assert len(analysis.u_generators(ctx, 4)) == f

    def test_count_ramified(self):
        ctx = analysis.build_ctx(2, 2, 3, (0, 0), N=6)
        assert [len(analysis.u_generators(ctx, n)) for n in range(5)] == [2, 4, 6, 6, 6]

    @pytest.mark.parametrize("e", [1, 2, 3])
    @pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (3, 2)])
    def test_additive_closure_is_all_classes(self, p, f, e):
        # the subgroup generated by u_generators(ctx, n) is all q^{n+1} classes of O/ϖ^{n+1}
        ctx = analysis.build_ctx(p, f, e, (0,) * f, N=4)
        ring = ctx.ring
        for n in range(4):
            gens = [ring.canon(c.vec, n + 1) for c in analysis.u_generators(ctx, n)]
            zero = ring.canon(ring.zero().vec, n + 1)
            seen, frontier = {zero.tobytes()}, [zero]
            while frontier:
                nxt = []
                for x in frontier:
                    for g in gens:
                        y = ring.canon((x + g) % ring.pM, n + 1)
                        if y.tobytes() not in seen:
                            seen.add(y.tobytes())
                            nxt.append(y)
                frontier = nxt
            assert len(seen) == ctx.q ** (n + 1), (n, len(seen))

    def test_values_are_teichmuller_shifts(self, ram_r0):
        from indgl2.localring import teichmuller

        ring = ram_r0.ring
        gens = analysis.u_generators(ram_r0, 1)
        one = teichmuller(ring.field.fq.one, ring)
        assert gens[0] == one
        assert gens[1] == one * ring.uniformizer()

    def test_precision_guard(self, q3_r0):
        with pytest.raises(PrecisionExhausted):
            analysis.u_generators(q3_r0, 99)


class TestBlockRank:
    @pytest.mark.parametrize(
        "args",
        [(3, 1, 1, (1,)), (3, 1, 2, (2,)), (2, 2, 1, (1, 1)), (3, 2, 1, (2, 2)), (5, 1, 1, (4,))],
    )
    def test_full_rank(self, args):
        ctx = analysis.build_ctx(*args, N=5)
        assert analysis.tplus_block_rank(ctx) == ctx.D

    def test_matches_dense_kernel(self, ram_r1):
        # blockwise kernel dimension against honest kernels of the per-basis-vector T₊ at levels 1 and 2
        for n in (1, 2):
            dim = analysis.tplus_kernel_dim(ram_r1, n)
            T = operator_matrix(ram_r1, hecke_T_plus, LevelRange("all", n, n), LevelRange("all", n + 1, n + 1))
            assert dim == linalg.kernel(T, ram_r1.weight.field.kk).dim == 0


class TestHeckeMatrixAgainstOracle:
    """hecke_matrix, the collapsed coinvariant scalars and the blockwise T₊ kernel
    against the per-basis-vector walk through singleton and hecke_T*."""

    GRID = [
        ((3, 1, 2, (1,)), {}),
        ((3, 1, 2, (1,)), {"chi_c": 1, "nu_code": 2}),
        ((2, 1, 3, (0,)), {}),
        ((2, 1, 3, (1,)), {}),
        ((5, 1, 2, (3,)), {"nu_code": 3}),
        ((3, 2, 1, (1, 0)), {"nu_code": 5}),
        ((2, 2, 1, (1, 1)), {}),
        ((2, 2, 2, (1, 1)), {"nu_code": 2}),
        ((3, 1, 1, (2,)), {"m": 2, "nu_code": 5}),
        ((2, 1, 2, (1,)), {"m": 2, "nu_code": 3}),
    ]

    @pytest.mark.parametrize("args,kw", GRID)
    def test_hecke_matrix_equals_walk(self, args, kw):
        ctx = analysis.build_ctx(*args, N=5, **kw)
        top = 3 if ctx.q <= 5 else 2  # highest domain level; q = 9 stops at R₂ to stay small
        R = [LevelRange("all", n, n) for n in range(top + 2)]
        cases = [(R[1], LevelRange("even", 0, 2), hecke_T)]
        cases.append((LevelRange("odd", 1, 2 * top - 3), LevelRange("even", 0, 2 * top - 2), hecke_T))
        for n in range(1, top + 1):
            cases += [(R[n], R[n + 1], hecke_T_plus), (R[n], R[n - 1], hecke_T_minus)]
        for dom, cod, op in cases:
            want = operator_matrix(ctx, op, dom, cod)
            assert np.array_equal(hecke_matrix(ctx, dom, cod), want), (dom, cod, op.__name__)
            if op is hecke_T_plus:
                assert analysis.tplus_kernel_dim(ctx, dom.lo) == linalg.kernel(want, ctx.weight.field.kk).dim
        # T₊|R₁ acts by one D x qD block on every first digit and keeps the first digit
        q, D = ctx.q, ctx.D
        blocks = operator_matrix(ctx, hecke_T_plus, R[1], R[2]).reshape(q, D, q, q * D)
        first = np.arange(q)
        assert np.array_equal(blocks[first, :, first], np.broadcast_to(blocks[0, :, 0], (q, D, q * D)))
        assert np.count_nonzero(blocks) == q * np.count_nonzero(blocks[0, :, 0])
        B0 = analysis._tplus_r1(ctx)[1].block
        assert B0 == linalg.echelon(blocks[0, :, 0], ctx.weight.field.kk, ambient=q * D)

    @staticmethod
    def _walk_collapse(ctx, n):
        """(T₋ scalar, T₊ vanishes, (level n-1, level n+1) classes of T e_free) at key (0, .., 0) of level n."""
        _, phi, free = analysis.weight_coinvariant_functional(ctx)
        kk = ctx.weight.field.kk
        key = (0,) * n

        def phi_sum(x, level=None):
            total = 0
            for (m, _mu), v in x.terms.items():
                if level is None or m == level:
                    total = int(kk.ADD[total, phi(v)])
            return total

        rep = singleton(ctx, n, key, free)
        vanish = all(phi_sum(hecke_T_plus(singleton(ctx, n, key, i))) == 0 for i in range(ctx.D))
        T = hecke_T(rep)
        return phi_sum(hecke_T_minus(rep)), vanish, (phi_sum(T, n - 1), phi_sum(T, n + 1))

    @pytest.mark.parametrize("args,kw", GRID)
    def test_collapsed_scalars_equal_walk(self, args, kw):
        # the walk at levels 1, 3, 5 covers the odd levels of L_N for N = 1..3
        ctx = analysis.build_ctx(*args, N=7, **kw)
        a, b, vanish = analysis._collapsed_scalars(ctx)
        for n in (1, 3, 5):
            assert self._walk_collapse(ctx, n) == (a, vanish, (a, b))


class TestInvariantCandidates:
    """dim V and dim W as analysis._candidate_spaces counts them, against the dense V and W of the walk."""

    @staticmethod
    def _dims(ctx):
        _, V, W = dense_candidates(ctx)
        spaces = analysis._candidate_spaces(ctx)
        assert (spaces.v_dim, spaces.w_dim) == (V.dim, W.dim)
        return V.dim, W.dim

    def test_ramified_r0_witness_exists(self, ram_r0):
        assert self._dims(ram_r0) == (4, 3)

    def test_ramified_r1_witness_exists(self, ram_r1):
        dim_v, dim_w = self._dims(ram_r1)
        assert dim_v > dim_w

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_base_field_no_witness(self, r):
        ctx = analysis.build_ctx(3, 1, 1, (r,), N=6)
        assert self._dims(ctx) == (2 * r + 3, 2 * r + 3)

    def test_v_contains_tplus_r1_prime(self, ram_r1):
        tplus_r1p, V, _ = dense_candidates(ram_r1)
        for row in tplus_r1p.rows:
            assert linalg.member(row, V)


class TestBlockRouteAgainstDense:
    """The first-digit block route against the dense route: V and W with their bases by the block
    oracle (block_candidates), and the dimensions analysis._candidate_spaces counts, against the
    induced maps on all of Q = R₂/T₊R₁′, their fixed space, its preimage in R₂ and the
    intersection with T₊R₁, each space rebuilt from the walk by row reduction (dense_candidates)."""

    CONFIGS = [
        (3, 1, 2, (0,)),
        (3, 1, 2, (1,)),
        (2, 1, 3, (0,)),
        (5, 1, 2, (3,)),
        (3, 2, 1, (0, 0)),
        (3, 2, 1, (1, 0)),
        (2, 2, 1, (1, 1)),
        (3, 2, 1, (2, 2)),
        (2, 2, 2, (1, 1)),
        (3, 2, 2, (1, 0)),
        (3, 1, 1, (1,)),
        (5, 1, 1, (2,)),
    ]

    @pytest.mark.parametrize("args", CONFIGS)
    def test_v_and_w_equal(self, args):
        ctx = analysis.build_ctx(*args, N=5)
        spaces = analysis._candidate_spaces(ctx)
        tplus_r1 = tplus_by_walk(ctx)[2]
        tplus_r1p, V, W = dense_candidates(ctx)
        vp, _, block_V, block_W = block_candidates(ctx)
        dense_vp = direct_sum(vp.block, vp.copies)
        for got, want in ((embed(block_V, dense_vp), V), (embed(block_W, dense_vp), W)):
            assert np.array_equal(got.rows, want.rows) and np.array_equal(got.pivots, want.pivots)
        assert (spaces.v_dim, spaces.w_dim) == (V.dim, W.dim)
        assert np.array_equal(direct_sum(spaces.tplus_r1.block, spaces.tplus_r1.copies).rows, tplus_r1.rows)
        dims = analysis.main_lemma_report(ctx).dims
        assert (dims["Q"], dims["QU"]) == (tplus_r1p.ambient - tplus_r1p.dim, V.dim - tplus_r1p.dim)

    @pytest.mark.parametrize("args", CONFIGS)
    def test_block_helpers_match_dense(self, args):
        ctx = analysis.build_ctx(*args, N=5)
        kk = ctx.weight.field.kk
        q, D = ctx.q, ctx.D
        rng = np.random.default_rng(sum(args[:3]) + len(args[3]))
        spaces = analysis._candidate_spaces(ctx)
        r1p, Mplus, tplus_r1, tplus_r1p = tplus_by_walk(ctx)
        _, dense_V, dense_W = dense_candidates(ctx)
        vp, _, V, W = block_candidates(ctx)
        # the walk's T₊|R₁ is I_q ⊗ the block that _tplus_r1 reads off the local matrix
        assert np.array_equal(Mplus, np.kron(np.eye(q, dtype=np.int32), analysis._tplus_r1(ctx)[0]))
        # the T₊R₁′ of the block image, built in coordinates over T₊R₁, against r1p.rows @ T₊|R₁
        assert np.array_equal(spaces.r1p.rows, r1p.rows)
        assert np.array_equal(spaces.tplus_r1.vectors(spaces.tplus_r1p.rows), tplus_r1p.rows)
        assert np.array_equal(spaces.tplus_r1.pivots[spaces.tplus_r1p.pivots], tplus_r1p.pivots)
        # blockwise T₊R₁ membership against the dense image of T₊|R₁
        block_sum = spaces.tplus_r1
        dense = direct_sum(block_sum.block, block_sum.copies)
        assert dense == tplus_r1 and np.array_equal(block_sum.pivots, tplus_r1.pivots)
        members = _kernels.matmul(rng.integers(0, kk.order, size=(4, q * D)).astype(np.int32), Mplus, kk)
        others = members.copy()
        others[:, rng.integers(0, q * q * D, size=4)] = rng.integers(1, kk.order, size=4)
        noise = rng.integers(0, kk.order, size=(4, q * q * D)).astype(np.int32)
        for v in np.vstack([members, others, noise]):
            assert np.array_equal(block_sum.reduce(v), dense.reduce(v))
            assert linalg.member(v, block_sum) == linalg.member(v, tplus_r1)
        assert all(linalg.member(v, block_sum) for v in members)
        # the block-coordinate vectors and pivots of V₀ ⊕ .. ⊕ V₀ against the dense product through the sum
        V0 = analysis._first_digit_block(ctx, [c * ctx.ring.uniformizer() for c in analysis.u_generators(ctx, 1)], block_sum.block)
        Vp = linalg.BlockSum(V0, q)
        assert vp.block == V0 and vp.copies == q
        coords = linalg.echelon(rng.integers(0, kk.order, size=(5, Vp.dim)).astype(np.int32), kk, ambient=Vp.dim)
        for S in (coords, V, W):
            want = embed(S, direct_sum(V0, q))
            assert np.array_equal(Vp.vectors(S.rows), want.rows) and np.array_equal(Vp.pivots[S.pivots], want.pivots)
        # the coordinates of V and W over V′'s rows are the entries of their dense rows on V′'s pivots
        for S, dense in ((V, dense_V), (W, dense_W)):
            assert np.array_equal(dense.rows[:, Vp.pivots], S.rows)
        # membership in a frame's coordinates against membership in the embedded dense space
        for frame, S, dense in (
            (block_sum, spaces.tplus_r1p, tplus_r1p),
            (vp, V, dense_V),
            (vp, W, dense_W),
        ):
            n = dense.ambient
            members = _kernels.matmul(rng.integers(0, kk.order, size=(4, dense.dim)).astype(np.int32), dense.rows, kk)
            changed = members.copy()
            cols = rng.integers(0, n, size=4)
            changed[np.arange(4), cols] = kk.ADD[changed[np.arange(4), cols], rng.integers(1, kk.order, size=4)]
            noise = rng.integers(0, kk.order, size=(4, n)).astype(np.int32)
            rows = np.vstack([members, changed, noise])
            verdicts = [linalg.member_over(v, frame, S) for v in rows]
            assert verdicts == [linalg.member(v, dense) for v in rows]
            assert all(verdicts[:4]) and not all(verdicts)
            assert linalg.member_over(members, frame, S) and not linalg.member_over(rows, frame, S)

    @staticmethod
    def _arrays(obj):
        """Every array stored in the witness spaces, through Subspaces and BlockSum blocks."""
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, linalg.Subspace):
            for item in (obj.rows, obj.pivots):
                yield from TestBlockRouteAgainstDense._arrays(item)
        elif isinstance(obj, linalg.BlockSum):
            yield from TestBlockRouteAgainstDense._arrays(obj.block)
        elif isinstance(obj, tuple):
            for item in obj:
                yield from TestBlockRouteAgainstDense._arrays(item)
        elif isinstance(obj, analysis.CandidateSpaces):
            for item in vars(obj).values():
                yield from TestBlockRouteAgainstDense._arrays(item)

    @pytest.mark.parametrize("args", [(5, 2, 1, (1, 1)), (3, 2, 2, (1, 0))])
    def test_candidate_spaces_hold_no_r2_wide_array(self, args):
        # frontier-q25's configuration and an e = 2 one, after the main lemma has run
        ctx = analysis.build_ctx(*args, N=3)
        assert analysis.main_lemma_report(ctx).found
        arrays = list(self._arrays(analysis._candidate_spaces(ctx)))
        assert len(arrays) == 6  # rows and pivots of R₁′, B₀ and T₊R₁′
        assert all(a.shape[-1] != ctx.q * ctx.q * ctx.D for a in arrays)


def _main_lemma_ctx(config):
    """A fresh context for a preset name or a (p, f, e, r) tuple at the main lemma's precision."""
    if isinstance(config, str):
        return cli.config_from_preset(config).build()
    return analysis.build_ctx(*config, N=analysis.MAIN_LEMMA_PRECISION)


class TestReverification:
    """V and W are only counted; the block oracle's V, certified against its stack Δ and re-checked
    on all q²D entries of R₂, is the oracle of the count."""

    @pytest.mark.parametrize(
        "config", sorted(cli.PRESETS) + [(5, 2, 1, (1, 1)), (3, 4, 1, (1, 1, 0, 0))], ids=str
    )
    def test_v_is_u_fixed_mod_tplus_r1p_in_r2(self, config):
        # the presets, frontier-q25's configuration and q = 81, D = 4 (dim V = 325): the oracle's V and
        # W have the counted dimensions, V's rows times Δ are zero and each is U-fixed modulo T₊R₁′ in
        # R₂; a row of R₂ outside V is refused by the same oracle
        ctx = _main_lemma_ctx(config)
        spaces = analysis._candidate_spaces(ctx)
        vp, delta, V, W = block_candidates(ctx)
        assert (V.dim, W.dim) == (spaces.v_dim, spaces.w_dim)
        assert not np.any(_kernels.matmul(V.rows, delta, ctx.weight.field.kk))
        assert u_fixed_mod_tplus_r1p(ctx, vp.vectors(V.rows))
        units = (np.eye(1, vp.ambient, j, dtype=np.int32) for j in range(vp.ambient))
        outside = next(e for e in units if not linalg.member_over(e, vp, V))
        assert not u_fixed_mod_tplus_r1p(ctx, outside)

    @pytest.mark.parametrize("args", [(5, 2, 1, (1, 1)), (3, 2, 2, (1, 0))])
    def test_r2_wide_stacks_hold_at_most_dim_v0_rows(self, args, monkeypatch):
        # frontier-q25's configuration and an e = 2 one: every q²D-wide array the main lemma
        # translates or reduces is g's one row or the dim V₀ rows _minus_identity_on_blocks tiles
        ctx = analysis.build_ctx(*args, N=analysis.MAIN_LEMMA_PRECISION)
        shapes = []
        real_translate, real_reduce = analysis.translate_vectors, linalg.BlockSum.reduce

        def translate(ctx, c, n, X):
            shapes.append(np.shape(X))
            return real_translate(ctx, c, n, X)

        def reduce(self, v):
            shapes.append(np.shape(v))
            return real_reduce(self, v)

        monkeypatch.setattr(analysis, "translate_vectors", translate)
        monkeypatch.setattr(linalg.BlockSum, "reduce", reduce)
        assert analysis.main_lemma_report(ctx).found
        rows = [shape[0] if len(shape) == 2 else 1 for shape in shapes if shape[-1] == ctx.q * ctx.q * ctx.D]
        d0 = block_candidates(ctx)[0].block.dim
        assert {1, d0} <= set(rows) and max(rows) <= d0

    @pytest.mark.parametrize(
        "config", sorted(cli.PRESETS) + [(5, 2, 1, (1, 1)), (3, 4, 1, (1, 1, 0, 0)), (7, 2, 1, (3, 3))], ids=str
    )
    def test_entry_list_delta_matches_dense_oracle(self, config, monkeypatch):
        # the entry lists whose rank gives dim V, column j of generator k at j·g + k, against the oracle's
        # dense Δ_u (the 4-D scatter reduced by Subspace.reduce mod T₊R₁′), generator by generator, entry for
        # entry, with no repeated position and no zero entry
        ctx = _main_lemma_ctx(config)
        ranked, real = [], _kernels.sparse_rank

        def spy(rows, cols, vals, shape, field):
            ranked.append((rows, cols, vals, shape))
            return real(rows, cols, vals, shape, field)

        monkeypatch.setattr(_kernels, "sparse_rank", spy)
        spaces = analysis._candidate_spaces(ctx)
        monkeypatch.undo()
        vp, delta, _, _ = block_candidates(ctx)
        n, g = vp.dim, len(analysis.u_generators(ctx, 2))
        rows, cols, vals, shape = ranked[0]
        assert shape == (n, g * n) and delta.shape == shape
        assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size and np.all(vals != 0)
        got = np.zeros(shape, dtype=np.int32)
        got[rows, (cols % g) * n + cols // g] = vals
        for k in range(g):
            assert np.array_equal(got[:, k * n : (k + 1) * n], delta[:, k * n : (k + 1) * n]), k
        assert spaces.v_dim == n - len(_kernels.rref(delta, ctx.weight.field.kk)[1])

    @pytest.mark.parametrize("args", [(5, 2, 1, (1, 1)), (3, 2, 2, (1, 0))])
    def test_no_dense_delta_operand(self, args, monkeypatch):
        # frontier-q25's configuration and an e = 2 one: no operand of a dense rref or product in the main
        # lemma is (q·dim V₀)-square or as wide as the stack Δ of the g maps u − 1 on V′
        ctx = _main_lemma_ctx(args)
        shapes = []
        real_rref, real_matmul = _kernels.rref, _kernels.matmul

        def rref(M, field):
            shapes.append(np.shape(M))
            return real_rref(M, field)

        def matmul(A, B, field):
            shapes.extend((np.shape(A), np.shape(B)))
            return real_matmul(A, B, field)

        monkeypatch.setattr(_kernels, "rref", rref)
        monkeypatch.setattr(_kernels, "matmul", matmul)
        assert analysis.main_lemma_report(ctx).found
        monkeypatch.undo()
        n = block_candidates(ctx)[0].dim
        g = len(analysis.u_generators(ctx, 2))
        assert shapes and g > 1
        assert all(shape != (n, n) and shape[-1] != g * n for shape in shapes), (n, g, sorted(set(shapes)))

    def test_corrupt_tplus_r1p_fails_under_python_O(self):
        # with assertions compiled out, a T₊R₁′ given one more row of T₊R₁ must still turn the run
        # into a CheckFailed record, not a pass
        script = textwrap.dedent(
            """
            import sys
            import numpy as np
            from indgl2 import analysis, cli, linalg

            if __debug__:
                sys.exit("run under python -O")
            real_echelon, corrupted = linalg.echelon, []

            def echelon(vectors, field, ambient=None):
                S = real_echelon(vectors, field, ambient=ambient)
                if corrupted or sys._getframe(1).f_code.co_name != "_candidate_spaces":
                    return S
                corrupted.append(True)  # T₊R₁′ is the first echelon form _candidate_spaces takes itself
                outside = np.eye(1, S.ambient, int(linalg.non_pivots(S.pivots, S.ambient)[0]), dtype=np.int32)
                return real_echelon(np.vstack([S.rows, outside]), field, ambient=S.ambient)

            linalg.echelon = echelon
            cfg = cli.config_from_mapping({"p": 5, "f": 2, "e": 1, "r": [1, 1], "suites": ["mainlemma"]})
            report = cli.emit(cli.run(cfg), "json").decode()
            if not corrupted:
                sys.exit("T₊R₁′ was never built")
            sys.stdout.write(report)
            """
        )
        src = Path(analysis.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["verdict"] == "fail"
        records = {r["name"]: r for r in report["records"]}
        assert records["mainlemma:error"]["detail"] == "CheckFailed: T₊R₁′ must be U-stable"


class TestNegativeControl:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_no_witness_over_base_field(self, p):
        for row in analysis.negative_control(p):
            assert row["dim_V"] == row["dim_W"]
            assert not row["found"]


class TestSelectCase:
    @pytest.mark.parametrize(
        "args,expected",
        [
            ((3, 1, 2, (1,)), "ramified-dim>1"),
            ((3, 1, 2, (0,)), "ramified-dim1"),
            ((2, 1, 3, (0,)), "ramified-dim1"),
            ((3, 2, 1, (1, 0)), "unramified-generic"),
            ((3, 2, 1, (2, 1)), "unramified-generic"),
            ((2, 2, 1, (1, 1)), "unramified-maximal"),
            ((3, 2, 1, (2, 2)), "unramified-maximal"),
            ((3, 1, 1, (1,)), "search-only"),
            ((5, 1, 1, (0,)), "search-only"),
        ],
    )
    def test_labels(self, args, expected):
        assert analysis.select_case(analysis.build_ctx(*args, N=5)) == expected


LR2 = LevelRange("all", 2, 2)


class TestPaperCandidate:
    """paper_candidate gives g as coordinates in R₂; each test reads them as an element itself."""

    def test_ramified_big_shape(self, ram_r1):
        coords, case, j0 = analysis.paper_candidate(ram_r1)
        assert case == "ramified-dim>1" and j0 == 0
        g = unflatten(ram_r1, LR2, coords)
        assert len(g.support()) == 9
        want = np.array([0, 1], dtype=np.int32)  # the pure y line
        for n, mu in g.support():
            assert n == 2
            assert np.array_equal(g.terms[(n, mu)], want)

    def test_ramified_dim1_coefficients(self, ram_r0):
        coords, case, _ = analysis.paper_candidate(ram_r0)
        assert case == "ramified-dim1"
        g = unflatten(ram_r0, LR2, coords)
        # weight coefficient is the embedded second digit; λ = 0 keys vanish
        assert len(g.support()) == 6
        for n, mu in g.support():
            assert mu[1] != 0
            assert g.terms[(n, mu)][0] == ram_r0.weight.field.embed_code(mu[1])

    def test_unramified_generic_exponent(self, unram_gen):
        coords, case, j0 = analysis.paper_candidate(unram_gen)
        assert case == "unramified-generic" and j0 == 0
        g = unflatten(unram_gen, LR2, coords)
        fq = unram_gen.weight.field.fq
        k = (unram_gen.weight.rvec[j0] + 1) * 3**j0
        for n, mu in g.support():
            lam = mu[1]
            assert g.terms[(n, mu)][0] == unram_gen.weight.field.embed_code(fq.pow_code(lam, k))

    def test_unramified_maximal_shape(self, unram_max):
        coords, case, _ = analysis.paper_candidate(unram_max)
        assert case == "unramified-maximal"
        g = unflatten(unram_max, LR2, coords)
        idx = unram_max.weight.index[(1, 0)]
        for n, mu in g.support():
            vec = g.terms[(n, mu)]
            assert vec[idx] == 1 and int(np.count_nonzero(vec)) == 1

    def test_case_mismatch(self, q3_r1):
        with pytest.raises(CaseMismatch):
            analysis.paper_candidate(q3_r1)

    @pytest.mark.parametrize(
        "args",
        [
            (3, 1, 2, (0,)),
            (3, 1, 2, (1,)),
            (3, 1, 2, (2,)),
            (2, 1, 2, (1,)),
            (3, 2, 1, (0, 0)),
            (3, 2, 1, (1, 0)),
            (3, 2, 1, (1, 2)),
            (2, 2, 1, (1, 1)),
            (3, 2, 1, (2, 2)),
        ],
    )
    def test_candidate_always_in_v_outside_w(self, args):
        ctx = analysis.build_ctx(*args, N=6)
        coords, _, _ = analysis.paper_candidate(ctx)
        _, V, W = dense_candidates(ctx)
        assert linalg.member(coords, V)
        assert not linalg.member(coords, W)


class TestCandidateChecks:
    def test_direct_arithmetic_invariance(self, ram_r1):
        # (u-1)g ∈ T₊R₁′ verified term by term on induced elements
        coords, _, _ = analysis.paper_candidate(ram_r1)
        checks = analysis.candidate_checks(ram_r1, coords)
        assert checks == {"g_not_in_TplusR1": True, "u_invariance_mod_TplusR1prime": True}
        g = unflatten(ram_r1, LR2, coords)
        kk = ram_r1.weight.field.kk
        r1p = analysis.r1_prime(ram_r1)
        Mp = operator_matrix(ram_r1, hecke_T_plus, LevelRange("all", 1, 1), LR2)
        tpr1p = linalg.echelon(_kernels.matmul(r1p.rows, Mp, kk), kk, ambient=Mp.shape[1])
        for c in all_translations(ram_r1, 2):
            delta = u_act(c, g) - g
            assert linalg.member(flatten(delta, LR2), tpr1p)

    def test_requires_level_2(self, ram_r1):
        # a level-1 vector's coordinates have the wrong length for R₂
        level1 = flatten(singleton(ram_r1, 1, (0,), 0), LevelRange("all", 1, 1))
        with pytest.raises(DimensionMismatch):
            analysis.candidate_checks(ram_r1, level1)

    @pytest.mark.parametrize("preset", sorted(cli.PRESETS))
    def test_flat_route_matches_u_act_oracle(self, preset):
        ctx = cli.config_from_preset(preset).build()
        coords = analysis.main_lemma_report(ctx).g
        g = unflatten(ctx, LR2, coords)
        passing = {"g_not_in_TplusR1": True, "u_invariance_mod_TplusR1prime": True}
        assert analysis.candidate_checks(ctx, coords) == candidate_checks_by_u_act(ctx, g) == passing
        # g plus a level-2 vector outside V is no longer U-fixed modulo T₊R₁′, on either route
        V = dense_candidates(ctx)[1]
        outside = next(x for x in np.eye(V.ambient, dtype=np.int32) if not linalg.member(x, V))
        bad = g + unflatten(ctx, LR2, outside)
        assert not analysis.candidate_checks(ctx, flatten(bad, LR2))["u_invariance_mod_TplusR1prime"]
        assert not candidate_checks_by_u_act(ctx, bad)["u_invariance_mod_TplusR1prime"]


class TestIndependenceCertificate:
    """The certificate dim L(σ)^U ≥ 2 is a g that passed both candidate_checks, with full T₊ block rank."""

    def test_true_for_witness(self, ram_r1):
        rep = analysis.main_lemma_report(ram_r1)
        assert rep.found and rep.certificate and all(rep.checks.values())
        assert analysis.tplus_block_rank(ram_r1) == ram_r1.D

    def test_false_for_image_member(self, ram_r1):
        g = hecke_T_plus(singleton(ram_r1, 1, (0,), 0))
        assert not analysis.candidate_checks(ram_r1, flatten(g, LR2))["g_not_in_TplusR1"]

    def test_false_for_zero(self, ram_r1):
        zero = np.zeros(range_dim(ram_r1, LR2), dtype=np.int32)
        assert not analysis.candidate_checks(ram_r1, zero)["g_not_in_TplusR1"]

    def test_false_without_full_block_rank(self, monkeypatch):
        # a checked g with a block rank below D certifies nothing
        ctx = analysis.build_ctx(3, 1, 2, (1,), N=6)
        monkeypatch.setattr(analysis, "tplus_block_rank", lambda ctx: ctx.D - 1)
        rep = analysis.main_lemma_report(ctx)
        assert rep.found and all(rep.checks.values()) and not rep.certificate


class TestMainLemmaReport:
    def test_ramified_dim1_frozen_dims(self, ram_r0):
        rep = analysis.main_lemma_report(ram_r0)
        assert rep.found and rep.certificate
        assert rep.dims == {
            "R1": 3,
            "R1prime": 2,
            "TplusR1prime": 2,
            "Q": 7,
            "QU": 2,
            "V": 4,
            "V_cap_TplusR1": 3,
        }

    @pytest.mark.parametrize(
        "args",
        [(3, 1, 2, (1,)), (3, 1, 2, (0,)), (3, 2, 1, (1, 0)), (2, 2, 1, (1, 1))],
    )
    def test_found_implies_checks(self, args):
        rep = analysis.main_lemma_report(analysis.build_ctx(*args, N=6))
        assert rep.found
        assert all(rep.checks.values())
        assert rep.certificate

    def test_search_only_counts_that_say_found_raise(self, monkeypatch):
        # over Q_p no construction applies, so counts that say "found" fail the run instead of searching
        real = analysis._candidate_spaces
        monkeypatch.setattr(analysis, "_candidate_spaces", lambda ctx: dataclasses.replace(real(ctx), v_dim=real(ctx).w_dim + 1))
        with pytest.raises(CheckFailed, match="no construction case"):
            analysis.main_lemma_report(analysis.build_ctx(3, 1, 1, (1,), N=6))
        report = cli.run(cli.config_from_mapping({"p": 3, "f": 1, "e": 1, "r": [1], "suites": ["mainlemma"]}))
        records = {r.name: r for r in report.records}
        assert report.verdict == "fail" and records["mainlemma:error"].status == "fail"

    def test_nontrivial_character_pair(self):
        rep = analysis.main_lemma_report(analysis.build_ctx(3, 1, 2, (1,), chi_c=1, nu_code=2, N=6))
        assert rep.found and rep.certificate

    def test_search_only_not_found(self, q3_r1):
        rep = analysis.main_lemma_report(q3_r1)
        assert rep.case == "search-only"
        assert not rep.found and rep.g is None


class TestQuotientProjection:
    def test_kernel_is_subspace(self, ram_r0):
        rng = np.random.default_rng(5)
        kk = ram_r0.weight.field.kk
        S = linalg.echelon(rng.integers(0, 3, size=(3, 8)).astype(np.int32), kk, ambient=8)
        P = quotient_projection(S)
        for _ in range(40):
            v = rng.integers(0, 3, size=8).astype(np.int32)
            proj = _kernels.vec_mat(v, P, kk)
            assert (not proj.any()) == linalg.member(v, S)
            nonpiv = [j for j in range(8) if j not in set(int(c) for c in S.pivots)]
            assert np.array_equal(proj, S.reduce(v)[nonpiv])


class TestTranslationMatrices:
    """The table-built translation matrices against the per-basis-vector u_act."""

    def _subspace(self, ctx, lr):
        if lr == LevelRange("all", 2, 2):
            return tplus_by_walk(ctx)[3]
        return image(operator_matrix(ctx, hecke_T, LevelRange("odd", 1, lr.hi - 1), lr), ctx.weight.field.kk)

    @pytest.mark.parametrize(
        "name,lr",
        [
            ("ram_r1", LevelRange("all", 2, 2)),
            ("ram_r1", LevelRange("even", 0, 4)),
            ("unram_gen", LevelRange("all", 2, 2)),
        ],
    )
    def test_quotient_maps_match_operator_matrix(self, name, lr, request):
        ctx = request.getfixturevalue(name)
        S = self._subspace(ctx, lr)
        gens = all_translations(ctx, lr.hi)
        nonpiv = [j for j in range(S.ambient) if j not in set(int(c) for c in S.pivots)]
        maps = analysis.induced_quotient_maps(ctx, gens, lr, S)
        for c, Q in zip(gens, maps):
            # the class of a vector in ambient/S is its remainder mod S, read on the non-pivot columns
            T = operator_matrix(ctx, lambda x, c=c: u_act(c, x), lr, lr)
            assert np.array_equal(Q, S.reduce(T[nonpiv])[:, nonpiv])

    @pytest.mark.parametrize(
        "name,lr",
        [("ram_r1", LevelRange("even", 0, 4)), ("unram_gen", LevelRange("all", 0, 2)), ("q3_r0", LevelRange("even", 0, 4))],
    )
    def test_translation_entries_match_operator_matrix(self, name, lr, request):
        # the entry lists of u - 1 of the sparse route, at distinct positions, against the walk
        ctx = request.getfixturevalue(name)
        kk = ctx.weight.field.kk
        eye = np.eye(range_dim(ctx, lr), dtype=np.int32)
        for c in all_translations(ctx, lr.hi):
            rows, cols, vals = translation_entries(ctx, c, lr)
            assert np.all(vals != 0) and len(set(zip(rows.tolist(), cols.tolist()))) == rows.size
            M = np.zeros_like(eye)
            M[rows, cols] = vals
            T = operator_matrix(ctx, lambda x, c=c: u_act(c, x), lr, lr)
            assert np.array_equal(M, kk.ADD[T, kk.NEG[eye]])

    @pytest.mark.parametrize("name", ["q3_r0", "ram_r1", "unram_gen"])
    def test_translate_vectors_identity_twists(self, name, request, monkeypatch):
        # keys with the identity twist beside the others, every key's twist the identity when D = 1
        # (q3_r0): move_keys follows the nonzero entries through the MUL table and makes no matmul call
        ctx = request.getfixturevalue(name)
        lr2 = LevelRange("all", 2, 2)
        rng = np.random.default_rng(23)
        X = rng.integers(0, ctx.weight.field.kk.order, size=(4, range_dim(ctx, lr2))).astype(np.int32)
        products = []
        real = _kernels.matmul
        monkeypatch.setattr(_kernels, "matmul", lambda A, B, F: products.append(B.shape) or real(A, B, F))
        gens = all_translations(ctx, 2)
        twists = [translation_table(c, 2)[1] for c in gens]
        assert any(np.any(t == 0) and np.any(t) for t in twists)
        for c in gens:
            want = np.array([flatten(u_act(c, unflatten(ctx, lr2, row)), lr2) for row in X])
            products.clear()
            assert np.array_equal(translate_vectors(ctx, c, 2, X), want)
            assert products == []

    @pytest.mark.parametrize("name", ["q3_r0", "unram_gen", "f64"])
    def test_translate_vectors_matches_u_act_on_sparse_and_zero_rows(self, name, request):
        # D = 1 (q3_r0), D > 1 (unram_gen) and F_64 (D = 4, where a block's digit sums take two packed
        # words): dense rows, rows with one nonzero key, an all-zero stack and an empty one
        ctx = request.getfixturevalue(name) if name != "f64" else analysis.build_ctx(2, 6, 1, (1, 1, 0, 0, 0, 0), N=3)
        kk = ctx.weight.field.kk
        rng = np.random.default_rng(29)
        for n in (1, 2):
            lr = LevelRange("all", n, n)
            dim = range_dim(ctx, lr)
            dense = rng.integers(0, kk.order, size=(3, dim)).astype(np.int32)
            if dim > 4096:  # the element calculus walks every nonzero key; keep the F_64 level-2 rows short
                dense[rng.random(dense.shape) < 0.99] = 0
            one_key = np.zeros((2, dim), dtype=np.int32)
            one_key[:, ctx.D : 2 * ctx.D] = rng.integers(1, kk.order, size=(2, ctx.D))
            for c in all_translations(ctx, n)[:3]:
                for X in (dense, one_key):
                    want = np.array([flatten(u_act(c, unflatten(ctx, lr, row)), lr) for row in X])
                    assert np.array_equal(translate_vectors(ctx, c, n, X), want)
                for X in (np.zeros((3, dim), dtype=np.int32), np.zeros((0, dim), dtype=np.int32)):
                    got = translate_vectors(ctx, c, n, X)
                    assert got.shape == X.shape and got.dtype == np.int32 and not got.any()

    def test_translate_vectors_matches_u_act(self, unram_gen):
        lr2 = LevelRange("all", 2, 2)
        rng = np.random.default_rng(17)
        X = rng.integers(0, 3, size=(5, range_dim(unram_gen, lr2))).astype(np.int32)
        for c in all_translations(unram_gen, 2):
            want = [flatten(u_act(c, unflatten(unram_gen, lr2, row)), lr2) for row in X]
            assert np.array_equal(translate_vectors(unram_gen, c, 2, X), np.array(want))


class TestTruncatedL:
    def test_dimension_formula_n1(self, q3_r1):
        rep = analysis.truncated_L(q3_r1, 1)
        assert (rep.dim_ie, rep.dim_t_io, rep.dim_ln) == (20, 6, 14)
        assert rep.dim_ln == rep.dim_ie - rep.dim_t_io

    def test_ramified_r0_sequence(self, ram_r0):
        prev = None
        dims = []
        for N in (1, 2, 3):
            prev = analysis.truncated_L(ram_r0, N, prev=prev)
            assert prev.dim_coinv == 1
            assert all(prev.tminus_surjective) and all(prev.tplus_vanishing)
            assert prev.ln_u_method == "sparse"
            dims.append(prev.dim_ln_u)
        assert dims == [2, 3, 4]

    def test_certified_route_large_config(self):
        # unramified-generic at N = 3: dim I^e = 538084, beyond the sparse cap
        ctx = analysis.build_ctx(3, 2, 1, (0, 0), N=8)
        prev = None
        dims = []
        for N in (1, 2, 3):
            prev = analysis.truncated_L(ctx, N, prev=prev)
            dims.append(prev.dim_ln_u)
        assert prev.dim_ie > analysis.SPARSE_FIXED_CAP
        assert prev.ln_u_method == "certified-lower-bound"
        assert prev.dim_t_io == range_dim(ctx, LevelRange("odd", 1, 5))
        assert all(a <= b for a, b in zip(dims, dims[1:]))
        assert dims[-1] >= 2

    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("preset", sorted(cli.PRESETS))
    def test_certified_lower_bound_with_witness(self, preset, N):
        # the bound's own value: truncated_L takes its maximum with the previous N, so the
        # sequence records do not pin it
        ctx = cli.config_from_preset(preset).build()
        assert analysis._certified_fixed_lower_bound(ctx, N) == dense_certified_lower_bound(ctx, N) == 2

    @pytest.mark.parametrize("preset", sorted(cli.PRESETS))
    def test_certified_pair_holds_g_on_level_2(self, preset, monkeypatch):
        # the U-check reads g itself off the pair's level-2 block (g placed before level 0's
        # D entries fails here on every preset), and a level-2 row that is not U-fixed
        # modulo T₊R₁′ is refused
        ctx = cli.config_from_preset(preset).build()
        main = analysis.main_lemma_report(ctx)
        checked = []
        u_check = analysis._u_fixed_mod_tplus_r1p

        def spy(ctx, row):
            checked.append(np.array(row))
            return u_check(ctx, row)

        monkeypatch.setattr(analysis, "_u_fixed_mod_tplus_r1p", spy)
        assert analysis._certified_fixed_lower_bound(ctx, 1) == 2
        assert np.array_equal(checked[-1], main.g)
        moved = main.g.copy()
        moved[ctx.D] = ctx.weight.field.kk.ADD[moved[ctx.D], 1]
        monkeypatch.setattr(analysis, "main_lemma_report", lambda ctx: dataclasses.replace(main, g=moved))
        with pytest.raises(CheckFailed, match="on level 2"):
            analysis._certified_fixed_lower_bound(ctx, 1)

    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("args", [(3, 1, 1, (1,)), (5, 1, 1, (0,)), (2, 1, 1, (1,))])
    def test_certified_lower_bound_without_witness(self, args, N):
        # e = f = 1 has no witness g, so only the level-0 line is certified
        ctx = analysis.build_ctx(*args, N=analysis.truncation_precision(N))
        assert analysis._certified_fixed_lower_bound(ctx, N) == dense_certified_lower_bound(ctx, N) == 1

    @pytest.mark.parametrize("preset", sorted(cli.PRESETS))
    def test_certified_pair_in_t_r1_is_refused(self, preset, monkeypatch):
        # a second row that passes the U-check but lies in T(R₁) + span(x^{r⃗}): zero, and a row of
        # T₊R₁′, which is T of a row of R₁′ (T₋ kills it); the dense oracle refuses both too
        ctx = cli.config_from_preset(preset).build()
        main = analysis.main_lemma_report(ctx)
        spaces = analysis._candidate_spaces(ctx)
        assert spaces.tplus_r1p.dim > 0
        for g in (np.zeros_like(main.g), spaces.tplus_r1.vectors(spaces.tplus_r1p.rows[:1])[0]):
            monkeypatch.setattr(analysis, "main_lemma_report", lambda ctx: dataclasses.replace(main, g=g))
            assert dense_certified_lower_bound(ctx, 1) is None
            with pytest.raises(CheckFailed, match="independent modulo T"):
                analysis._certified_fixed_lower_bound(ctx, 1)

    @pytest.mark.parametrize("args,N,dim", [((3, 1, 2, (1,)), 4, 9), ((2, 2, 1, (1, 1)), 3, 7)], ids=["ramified-r1", "unramified-maximal"])
    def test_exact_beyond_the_old_dense_cap(self, args, N, dim):
        # dim I^e is 14762 and 17476, both above the 2048 the dense route reached
        rep = analysis.truncated_L(analysis.build_ctx(*args, N=analysis.truncation_precision(N)), N)
        assert rep.dim_ie > 2048
        assert (rep.ln_u_method, rep.dim_ln_u) == ("sparse", dim)

    @pytest.mark.parametrize("args,N", [((3, 1, 2, (1,)), 2), ((2, 3, 1, (1, 1, 1)), 1)], ids=["ramified-r1", "q8-D8"])
    def test_remainders_built_once_per_system(self, args, N, monkeypatch):
        # one remainder matrix serves every generator's block, so its remainders are built in one call
        ctx = analysis.build_ctx(*args, N=analysis.truncation_precision(N))
        calls = []
        real = _kernels._remainders

        def spy(columns, pivot_rows, field):
            calls.append(len(columns))
            return real(columns, pivot_rows, field)

        monkeypatch.setattr(_kernels, "_remainders", spy)
        analysis.fixed_space_system(ctx, N)
        assert len(analysis.u_generators(ctx, 2 * N)) > 1
        assert len(calls) == 1 and calls[0] > 0

    def test_precision_guard(self):
        ctx = analysis.build_ctx(3, 1, 1, (1,), N=4)
        with pytest.raises(PrecisionExhausted):
            analysis.truncated_L(ctx, 2)

    def test_invariant_all_reports(self, ram_r1):
        for N in (1, 2):
            rep = analysis.truncated_L(ram_r1, N)
            assert rep.dim_ln == rep.dim_ie - rep.dim_t_io


class TestCollapseAgainstDense:
    """The collapsed coinvariant quantities recomputed with plain linear algebra."""

    def _dense(self, ctx, N):
        kk = ctx.weight.field.kk
        lr_even = LevelRange("even", 0, 2 * N)
        gens = all_translations(ctx, 2 * N)
        dim_ie = range_dim(ctx, lr_even)
        ops = [operator_matrix(ctx, lambda x, c=c: u_act(c, x), lr_even, lr_even) for c in gens]
        C = linalg.coinvariant_complement(ops, kk, dim_ie)
        rows = [
            flatten(hecke_T(singleton(ctx, n, mu, widx)), lr_even)
            for n in LevelRange("odd", 1, 2 * N - 1).levels()
            for mu in itertools.product(range(ctx.q), repeat=n)
            for widx in range(ctx.D)
        ]
        W = linalg.echelon(np.array(rows, dtype=np.int32), kk, ambient=dim_ie)
        coinv = dim_ie - subspace_sum(C, W).dim
        tm, tp = [], []
        for k in range(N):
            n = 2 * k + 1
            lr_dn = LevelRange("all", n - 1, n - 1)
            lr_up = LevelRange("all", n + 1, n + 1)
            Cdn = linalg.coinvariant_complement(
                [operator_matrix(ctx, lambda x, c=c: u_act(c, x), lr_dn, lr_dn) for c in gens], kk, range_dim(ctx, lr_dn)
            )
            img_dn = image(operator_matrix(ctx, hecke_T_minus, LevelRange("all", n, n), lr_dn), kk)
            tm.append(subspace_sum(img_dn, Cdn).dim == range_dim(ctx, lr_dn))
            Cup = linalg.coinvariant_complement(
                [operator_matrix(ctx, lambda x, c=c: u_act(c, x), lr_up, lr_up) for c in gens], kk, range_dim(ctx, lr_up)
            )
            img_up = image(operator_matrix(ctx, hecke_T_plus, LevelRange("all", n, n), lr_up), kk)
            tp.append(all(linalg.member(r, Cup) for r in img_up.rows))
        return coinv, tuple(tm), tuple(tp)

    @pytest.mark.parametrize("args,N", [((3, 1, 2, (0,)), 2), ((3, 1, 2, (1,)), 2), ((2, 2, 1, (1, 1)), 1)])
    def test_match(self, args, N):
        ctx = analysis.build_ctx(*args, N=8)
        rep = analysis.truncated_L(ctx, N)
        coinv, tm, tp = self._dense(ctx, N)
        assert rep.dim_coinv == coinv
        assert rep.tminus_surjective == tm
        assert rep.tplus_vanishing == tp

    def test_level_complement_dimensions(self, ram_r1):
        # Σ(u-1)R_n fills the full kernel of the class functional
        kk = ram_r1.weight.field.kk
        for n in (0, 1, 2):
            lr = LevelRange("all", n, n)
            ops = [
                operator_matrix(ram_r1, lambda x, c=c: u_act(c, x), lr, lr)
                for c in all_translations(ram_r1, max(n, 1))
            ]
            C = linalg.coinvariant_complement(ops, kk, range_dim(ram_r1, lr))
            assert C.dim == 3**n * ram_r1.D - 1


class TestTruncationAgainstDense:
    """dim T(I^o) and the dense dim L_N^U of truncated_L against the per-basis-vector operators."""

    GRID = [(3, 1, 2, (0,)), (3, 1, 2, (1,)), (2, 1, 3, (0,)), (2, 2, 1, (1, 1)), (3, 1, 1, (1,))]

    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("args", GRID)
    def test_fixed_dim_matches_operator_matrices(self, args, N):
        # L_N^U = {x in I^e : (u-1)x in T(I^o) for every u} / T(I^o), over all-depth translations
        ctx = analysis.build_ctx(*args, N=analysis.truncation_precision(N))
        kk = ctx.weight.field.kk
        lr_even, lr_odd = LevelRange("even", 0, 2 * N), LevelRange("odd", 1, 2 * N - 1)
        S = image(operator_matrix(ctx, hecke_T, lr_odd, lr_even), kk)
        eye = np.eye(S.ambient, dtype=np.int32)
        deltas = [
            S.reduce(kk.ADD[operator_matrix(ctx, lambda x, c=c: u_act(c, x), lr_even, lr_even), kk.NEG[eye]])
            for c in all_translations(ctx, 2 * N)
        ]
        fixed = linalg.kernel(np.hstack(deltas), kk)
        rep = analysis.truncated_L(ctx, N)
        assert rep.ln_u_method == "sparse"
        assert (rep.dim_t_io, rep.dim_ln_u) == (S.dim, fixed.dim - S.dim)

    PRESETS = [(c["p"], c["f"], c["e"], tuple(c["r"])) for c in cli.PRESETS.values()]
    # a coefficient field K larger than F_q, and a twisted ramified q = 4
    TWISTED = [((3, 1, 2, (1,)), {"m": 2, "nu_code": 5, "chi_c": 1}), ((2, 2, 2, (1, 1)), {"nu_code": 2})]

    @pytest.mark.parametrize("args,kw", [(args, {}) for args in sorted(set(GRID) | set(PRESETS))] + TWISTED)
    def test_sparse_route_matches_dense_route(self, args, kw):
        # at every N whose dim I^e the dense route reached (at most 2048), N ≤ 5 here
        ctx = analysis.build_ctx(*args, N=analysis.truncation_precision(5), **kw)
        reached = [N for N in range(1, 6) if range_dim(ctx, LevelRange("even", 0, 2 * N)) <= 2048]
        assert reached
        for N in reached:
            rep = analysis.truncated_L(ctx, N)
            assert rep.ln_u_method == "sparse"
            assert rep.dim_ln_u == dense_fixed_dim(ctx, N), N

    # ramified-r1, unramified-maximal, q = 5 with D = 3, unramified-stretch, then TWISTED; all but
    # (5,1,2,(2,)) and unramified-stretch beyond the dense route's dim I^e ≤ 2048
    BEYOND = [((3, 1, 2, (1,)), {}, 4), ((2, 2, 1, (1, 1)), {}, 3), ((5, 1, 2, (2,)), {}, 2), ((3, 2, 1, (2, 2)), {}, 1)]
    BEYOND += [(TWISTED[0][0], TWISTED[0][1], 4), (TWISTED[1][0], TWISTED[1][1], 3)]

    @pytest.mark.parametrize("args,kw,N", BEYOND, ids=["r1-N4", "maximal-N3", "q5-D3-N2", "stretch-N1", "twisted-K9-N4", "twisted-q4-N3"])
    def test_quotient_route_matches_stacked_system(self, args, kw, N):
        # the rank on L_N's basis F against the stacked system with g copies of −T
        ctx = analysis.build_ctx(*args, N=analysis.truncation_precision(N), **kw)
        rep = analysis.truncated_L(ctx, N)
        assert rep.ln_u_method == "sparse"
        assert rep.dim_ln_u == stacked_fixed_dim(ctx, N)

    @pytest.mark.parametrize("args,N", [(args, N) for args in GRID for N in (1, 2)] + [((3, 2, 1, (0, 0)), 2)])
    def test_t_injective_on_odd_levels(self, args, N):
        # dim T(I^o) = dim I^o, which truncated_L reads off the full block rank
        ctx = analysis.build_ctx(*args, N=analysis.truncation_precision(N))
        lr_odd = LevelRange("odd", 1, 2 * N - 1)
        T_io = image(hecke_matrix(ctx, lr_odd, LevelRange("even", 0, 2 * N)), ctx.weight.field.kk)
        assert T_io.dim == range_dim(ctx, lr_odd) == analysis.truncated_L(ctx, N).dim_t_io


class TestWeightFunctional:
    def test_kills_complement_and_normalizes(self, ram_r1):
        C, phi, free = analysis.weight_coinvariant_functional(ram_r1)
        assert C.dim == ram_r1.D - 1
        for row in C.rows:
            assert phi(row) == 0
        e_free = np.zeros(ram_r1.D, dtype=np.int32)
        e_free[free] = 1
        assert phi(e_free) == 1
