"""Witness search, certificates, and truncated quotients.

Frozen dimensions were computed once from the implementation and pinned;
structural facts (kernel dimensions, coinvariant counts, flag values) are
cross-checked against independent dense linear algebra built inline here.
"""

import itertools

import numpy as np
import pytest

from indgl2 import _kernels, analysis, linalg
from indgl2.errors import CaseMismatch, CheckFailed, PrecisionExhausted
from indgl2.induction import (
    InducedElem,
    LevelRange,
    flatten,
    hecke_matrix,
    hecke_T,
    hecke_T_minus,
    hecke_T_plus,
    operator_matrix,
    range_dim,
    singleton,
    translate_vectors,
    u_act,
    unflatten,
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
    def test_count_prime_field(self, q3_r0):
        assert len(analysis.u_generators(q3_r0, 2)) == 3

    @pytest.mark.parametrize("p,f", [(2, 2), (3, 2)])
    def test_count_extensions(self, p, f):
        ctx = analysis.build_ctx(p, f, 1, (0,) * f, N=6)
        assert len(analysis.u_generators(ctx, 2)) == 3 * f
        assert len(analysis.u_generators(ctx, 4)) == 5 * f

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
            dim, method = analysis.tplus_kernel_dim(ram_r1, n)
            T = operator_matrix(ram_r1, hecke_T_plus, LevelRange("all", n, n), LevelRange("all", n + 1, n + 1))
            assert dim == linalg.kernel(T).dim == 0
            assert method == "blockwise"


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
            assert np.array_equal(hecke_matrix(ctx, dom, cod).matrix, want.matrix), (dom, cod, op.__name__)
            if op is hecke_T_plus:
                assert analysis.tplus_kernel_dim(ctx, dom.lo) == (linalg.kernel(want).dim, "blockwise")
        # T₊|R₁ acts by one D x qD block on every first digit and keeps the first digit
        q, D = ctx.q, ctx.D
        blocks = operator_matrix(ctx, hecke_T_plus, R[1], R[2]).matrix.reshape(q, D, q, q * D)
        first = np.arange(q)
        assert np.array_equal(blocks[first, :, first], np.broadcast_to(blocks[0, :, 0], (q, D, q * D)))
        assert np.count_nonzero(blocks) == q * np.count_nonzero(blocks[0, :, 0])
        B0 = analysis._tplus_r1(ctx)[2]
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
    def test_ramified_r0_witness_exists(self, ram_r0):
        V, W = analysis.invariant_candidates(ram_r0)
        assert (V.dim, W.dim) == (4, 3)

    def test_ramified_r1_witness_exists(self, ram_r1):
        V, W = analysis.invariant_candidates(ram_r1)
        assert V.dim > W.dim

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_base_field_no_witness(self, r):
        ctx = analysis.build_ctx(3, 1, 1, (r,), N=6)
        V, W = analysis.invariant_candidates(ctx)
        assert V.dim == W.dim == 2 * r + 3

    def test_v_contains_tplus_r1_prime(self, ram_r1):
        spaces = analysis._candidate_spaces(ram_r1)
        for row in spaces.tplus_r1p.rows:
            assert linalg.member(row, spaces.V)


class TestBlockRouteAgainstDense:
    """V and W of the first-digit block route against the dense route: the
    induced maps on all of Q = R₂/T₊R₁′, their fixed space, its preimage in R₂
    and the intersection with T₊R₁, each space rebuilt here by row reduction."""

    @staticmethod
    def _dense(ctx):
        kk = ctx.weight.field.kk
        r1, r2 = LevelRange("all", 1, 1), LevelRange("all", 2, 2)
        r1p = linalg.kernel(operator_matrix(ctx, hecke_T_minus, r1, LevelRange("all", 0, 0)))
        Mplus = operator_matrix(ctx, hecke_T_plus, r1, r2)
        tplus_r1 = linalg.image(Mplus)
        tplus_r1p = linalg.echelon(_kernels.matmul(r1p.rows, Mplus.matrix, kk), kk, ambient=Mplus.codomain)
        P = analysis.quotient_projection(tplus_r1p)
        gens = analysis.u_generators(ctx, 2)
        maps = analysis.induced_quotient_maps(ctx, gens, r2, tplus_r1p, P)
        fixed = linalg.fixed_space(maps, field=kk, ambient=P.shape[1])
        V = linalg.preimage(linalg.LinMap(kk, P), fixed)
        return V, linalg.intersect(V, tplus_r1), tplus_r1, P.shape[1], fixed.dim

    @pytest.mark.parametrize(
        "args",
        [
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
        ],
    )
    def test_v_and_w_equal(self, args):
        ctx = analysis.build_ctx(*args, N=5)
        spaces = analysis._candidate_spaces(ctx)
        V, W, tplus_r1, q_dim, qu_dim = self._dense(ctx)
        assert np.array_equal(spaces.V.rows, V.rows)
        assert np.array_equal(spaces.W.rows, W.rows)
        assert np.array_equal(spaces.tplus_r1.rows, tplus_r1.rows)
        assert (spaces.q_dim, spaces.qu_dim) == (q_dim, qu_dim)


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


class TestPaperCandidate:
    def test_ramified_big_shape(self, ram_r1):
        g, case, j0 = analysis.paper_candidate(ram_r1)
        assert case == "ramified-dim>1" and j0 == 0
        assert len(g.support()) == 9
        want = np.array([0, 1], dtype=np.int32)  # the pure y line
        for n, mu in g.support():
            assert n == 2
            assert np.array_equal(g.coeff(n, mu).codes, want)

    def test_ramified_dim1_coefficients(self, ram_r0):
        g, case, _ = analysis.paper_candidate(ram_r0)
        assert case == "ramified-dim1"
        # weight coefficient is the embedded second digit; λ = 0 keys vanish
        assert len(g.support()) == 6
        for n, mu in g.support():
            assert mu[1] != 0
            assert g.coeff(n, mu).codes[0] == ram_r0.weight.field.embed_code(mu[1])

    def test_unramified_generic_exponent(self, unram_gen):
        g, case, j0 = analysis.paper_candidate(unram_gen)
        assert case == "unramified-generic" and j0 == 0
        fq = unram_gen.weight.field.fq
        k = (unram_gen.weight.rvec[j0] + 1) * 3**j0
        for n, mu in g.support():
            lam = mu[1]
            assert g.coeff(n, mu).codes[0] == unram_gen.weight.field.embed_code(fq.pow_code(lam, k))

    def test_unramified_maximal_shape(self, unram_max):
        g, case, _ = analysis.paper_candidate(unram_max)
        assert case == "unramified-maximal"
        idx = unram_max.weight.index[(1, 0)]
        for n, mu in g.support():
            vec = g.coeff(n, mu).codes
            assert vec[idx] == 1 and int(np.count_nonzero(vec)) == 1

    def test_case_mismatch(self, ram_r1, q3_r1):
        with pytest.raises(CaseMismatch):
            analysis.paper_candidate(ram_r1, "unramified-generic")
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
        g, _, _ = analysis.paper_candidate(ctx)
        V, W = analysis.invariant_candidates(ctx)
        lr2 = LevelRange("all", 2, 2)
        coords = flatten(g, lr2)
        assert linalg.member(coords, V)
        assert not linalg.member(coords, W)


class TestCandidateChecks:
    def test_direct_arithmetic_invariance(self, ram_r1):
        # (u-1)g ∈ T₊R₁′ verified term by term on induced elements
        g, _, _ = analysis.paper_candidate(ram_r1)
        checks = analysis.candidate_checks(ram_r1, g)
        assert checks == {"g_not_in_TplusR1": True, "u_invariance_mod_TplusR1prime": True}
        kk = ram_r1.weight.field.kk
        lr2 = LevelRange("all", 2, 2)
        r1p = analysis.r1_prime(ram_r1)
        Mp = operator_matrix(ram_r1, hecke_T_plus, LevelRange("all", 1, 1), lr2)
        tpr1p = linalg.echelon(_kernels.matmul(r1p.rows, Mp.matrix, kk), kk, ambient=Mp.codomain)
        for c in analysis.u_generators(ram_r1, 2):
            delta = u_act(c, g) - g
            assert linalg.member(flatten(delta, lr2), tpr1p)

    def test_requires_level_2(self, ram_r1):
        with pytest.raises(CheckFailed):
            analysis.candidate_checks(ram_r1, singleton(ram_r1, 1, (0,), 0))


class TestIndependenceCertificate:
    def test_true_for_witness(self, ram_r1):
        g, _, _ = analysis.paper_candidate(ram_r1)
        ok, detail = analysis.independence_certificate(ram_r1, g)
        assert ok
        assert detail["methods"] == {"R1": "blockwise", "R3": "blockwise"}

    def test_false_for_image_member(self, ram_r1):
        g = hecke_T_plus(singleton(ram_r1, 1, (0,), 0))
        ok, detail = analysis.independence_certificate(ram_r1, g)
        assert not ok and not detail["g-not-in-TplusR1"]

    def test_false_for_zero(self, ram_r1):
        ok, _ = analysis.independence_certificate(ram_r1, InducedElem(ram_r1, {}))
        assert not ok

    def test_raises_when_asked(self, ram_r1):
        g = hecke_T_plus(singleton(ram_r1, 1, (0,), 0))
        with pytest.raises(CheckFailed):
            analysis.independence_certificate(ram_r1, g, raise_on_fail=True)


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

    def test_nontrivial_character_pair(self):
        rep = analysis.main_lemma_report(analysis.build_ctx(3, 1, 2, (1,), chi_c=1, nu_code=2, N=6))
        assert rep.found and rep.certificate

    def test_search_only_not_found(self, q3_r1):
        rep = analysis.main_lemma_report(q3_r1)
        assert rep.case == "search-only"
        assert not rep.found and rep.g is None

    def test_to_dict_serializable(self, ram_r0):
        import json

        rep = analysis.main_lemma_report(ram_r0)
        text = json.dumps(rep.to_dict(), sort_keys=True)
        assert '"found": true' in text


class TestQuotientProjection:
    def test_kernel_is_subspace(self, ram_r0):
        rng = np.random.default_rng(5)
        kk = ram_r0.weight.field.kk
        S = linalg.echelon(rng.integers(0, 3, size=(3, 8)).astype(np.int32), kk, ambient=8)
        P = analysis.quotient_projection(S)
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
            return analysis._candidate_spaces(ctx).tplus_r1p
        return linalg.image(operator_matrix(ctx, hecke_T, LevelRange("odd", 1, lr.hi - 1), lr))

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
        kk = ctx.weight.field.kk
        S = self._subspace(ctx, lr)
        gens = analysis.u_generators(ctx, lr.hi)
        P = analysis.quotient_projection(S)
        nonpiv = [j for j in range(S.ambient) if j not in set(int(c) for c in S.pivots)]
        maps = analysis.induced_quotient_maps(ctx, gens, lr, S, P)
        for c, Q in zip(gens, maps):
            T = operator_matrix(ctx, lambda x, c=c: u_act(c, x), lr, lr).matrix
            assert np.array_equal(Q.matrix, _kernels.matmul(T[nonpiv], P, kk))

    def test_translate_vectors_matches_u_act(self, unram_gen):
        lr2 = LevelRange("all", 2, 2)
        rng = np.random.default_rng(17)
        X = rng.integers(0, 3, size=(5, range_dim(unram_gen, lr2))).astype(np.int32)
        for c in analysis.u_generators(unram_gen, 2):
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
            assert prev.methods["ln_u"] == "dense"
            dims.append(prev.dim_ln_u)
        assert dims == [2, 3, 4]

    def test_certified_route_large_config(self, unram_max):
        main = analysis.main_lemma_report(unram_max)
        prev = None
        dims = []
        for N in (1, 2, 3):
            prev = analysis.truncated_L(unram_max, N, main=main, prev=prev)
            dims.append(prev.dim_ln_u)
        assert prev.methods["t_io"] == "certified-injective"
        assert prev.methods["ln_u"] == "certified-lower-bound"
        assert prev.dim_t_io == range_dim(unram_max, LevelRange("odd", 1, 5))
        assert all(a <= b for a, b in zip(dims, dims[1:]))
        assert dims[-1] >= 2

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
        gens = analysis.u_generators(ctx, 2 * N)
        dim_ie = range_dim(ctx, lr_even)
        ops = [operator_matrix(ctx, lambda x, c=c: u_act(c, x), lr_even, lr_even) for c in gens]
        C = linalg.coinvariant_complement(ops)
        rows = [
            flatten(hecke_T(singleton(ctx, n, mu, widx)), lr_even)
            for n in LevelRange("odd", 1, 2 * N - 1).levels()
            for mu in itertools.product(range(ctx.q), repeat=n)
            for widx in range(ctx.D)
        ]
        W = linalg.echelon(np.array(rows, dtype=np.int32), kk, ambient=dim_ie)
        coinv = dim_ie - linalg.subspace_sum(C, W).dim
        tm, tp = [], []
        for k in range(N):
            n = 2 * k + 1
            lr_dn = LevelRange("all", n - 1, n - 1)
            lr_up = LevelRange("all", n + 1, n + 1)
            Cdn = linalg.coinvariant_complement(
                [operator_matrix(ctx, lambda x, c=c: u_act(c, x), lr_dn, lr_dn) for c in gens]
            )
            img_dn = linalg.image(operator_matrix(ctx, hecke_T_minus, LevelRange("all", n, n), lr_dn))
            tm.append(linalg.subspace_sum(img_dn, Cdn).dim == range_dim(ctx, lr_dn))
            Cup = linalg.coinvariant_complement(
                [operator_matrix(ctx, lambda x, c=c: u_act(c, x), lr_up, lr_up) for c in gens]
            )
            img_up = linalg.image(operator_matrix(ctx, hecke_T_plus, LevelRange("all", n, n), lr_up))
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
                for c in analysis.u_generators(ram_r1, max(n, 1))
            ]
            C = linalg.coinvariant_complement(ops, field=kk, ambient=range_dim(ram_r1, lr))
            assert C.dim == 3**n * ram_r1.D - 1


class TestWeightFunctional:
    def test_kills_complement_and_normalizes(self, ram_r1):
        C, phi, free = analysis.weight_coinvariant_functional(ram_r1)
        assert C.dim == ram_r1.D - 1
        for row in C.rows:
            assert phi(row) == 0
        e_free = np.zeros(ram_r1.D, dtype=np.int32)
        e_free[free] = 1
        assert phi(e_free) == 1
