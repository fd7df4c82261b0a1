import itertools
import random

import numpy as np
import pytest

from indgl2 import cli
from indgl2._kernels import vec_mat
from indgl2.errors import (
    DimensionMismatch,
    LevelZeroInput,
    PrecisionExhausted,
)
from indgl2.induction import (
    InducedElem,
    InductionCtx,
    LevelRange,
    flatten,
    hecke_T_plus,
    operator_matrix,
    range_dim,
    singleton,
    u_act,
    unflatten,
)
from indgl2.linalg import kernel
from indgl2.localring import LocalRingCtx, RingElem
from indgl2.weight import WeightCtx
from oracles import alpha_act, hecke_T, hecke_T_minus, random_element, ring_int


def make_ctx(p, f, e, rvec, chi_c=0, nu_code=1, N=6):
    ring = LocalRingCtx(p, f, e, N=N)
    w = WeightCtx(ring.field, rvec, chi_c=chi_c, nu=ring.field.kk.elem(nu_code))
    return InductionCtx(w, ring)


@pytest.fixture(scope="module")
def steinberg3():
    # q = 3, e = 1, r = 1
    return make_ctx(3, 1, 1, (1,))


@pytest.fixture(scope="module")
def ram3():
    # q = 3, e = 2, r = 1, nontrivial chi and nu
    return make_ctx(3, 1, 2, (1,), chi_c=1, nu_code=2)


@pytest.fixture(scope="module")
def unram4():
    # q = 4, e = 1, r = (1,1)
    return make_ctx(2, 2, 1, (1, 1))


def basis_R(ctx, n):
    """The q^n·D standard basis of R_n, μ lexicographic then i⃗ lexicographic."""
    return [singleton(ctx, n, mu, widx) for mu in itertools.product(range(ctx.q), repeat=n) for widx in range(ctx.D)]


def rand_elem(ctx, rng, levels=(0, 1, 2)):
    K = ctx.weight.field.kk.order
    terms = {}
    for _ in range(3):
        n = rng.choice(levels)
        mu = tuple(rng.randrange(ctx.q) for _ in range(n))
        v = np.array([rng.randrange(K) for _ in range(ctx.D)], dtype=np.int32)
        key = (n, mu)
        terms[key] = v if key not in terms else ctx.weight.field.kk.ADD[terms[key], v]
    return InducedElem(ctx, terms)


class TestBasis:
    def test_level0_count(self, steinberg3):
        assert len(basis_R(steinberg3, 0)) == 2

    def test_counts(self, steinberg3, unram4):
        assert len(basis_R(steinberg3, 2)) == 18
        assert len(basis_R(unram4, 1)) == 16  # q·D = 4·4

    def test_r0_level2(self):
        ctx = make_ctx(3, 1, 1, (0,))
        assert len(basis_R(ctx, 2)) == 9

    def test_headroom(self):
        ctx = make_ctx(3, 1, 1, (1,), N=3)
        with pytest.raises(PrecisionExhausted):
            basis_R(ctx, 3)


class TestUAct:
    def test_zero_translation(self, steinberg3):
        rng = random.Random(0)
        for _ in range(10):
            x = rand_elem(steinberg3, rng)
            assert u_act(steinberg3.ring.zero(), x) == x

    def test_shift_without_carry(self, steinberg3):
        x = singleton(steinberg3, 1, (0,), (1,))
        y = u_act(steinberg3.ring.one(), x)
        assert y.support() == [(1, (1,))]
        assert y.terms[(1, (1,))].tolist() == [0, 1]

    def test_exact_teichmuller_cancellation(self, steinberg3):
        # [2] = -1 exactly in Z_3, so [2]+[1] = 0: key wraps to (0) with NO twist
        x = singleton(steinberg3, 1, (2,), (1,))
        y = u_act(steinberg3.ring.one(), x)
        assert y.support() == [(1, (0,))]
        assert y.terms[(1, (0,))].tolist() == [0, 1]

    def test_carry_with_weight_twist(self, steinberg3):
        # [1]+1 = 2 = [2] + 3·1: carry digit 1, so y picks up [[1,1],[0,1]]: y ↦ x+y
        x = singleton(steinberg3, 1, (1,), (1,))
        y = u_act(steinberg3.ring.one(), x)
        assert y.support() == [(1, (2,))]
        assert y.terms[(1, (2,))].tolist() == [1, 1]

    @pytest.mark.parametrize("fixture", ["steinberg3", "ram3"])
    def test_group_law(self, fixture, request):
        ctx = request.getfixturevalue(fixture)
        ring = ctx.ring
        rng = random.Random(3)
        nprng = np.random.default_rng(3)
        for _ in range(60):
            x = rand_elem(ctx, rng)
            va = nprng.integers(0, ring.pM, size=(ring.e, ring.f)).astype(np.int64)
            vb = nprng.integers(0, ring.pM, size=(ring.e, ring.f)).astype(np.int64)
            ca, cb = RingElem(ring, va, ring.N), RingElem(ring, vb, ring.N)
            assert u_act(ca, u_act(cb, x)) == u_act(ca + cb, x)

    def test_exhaustive_action_small(self, steinberg3):
        # the full additive group O/27 acting on level <= 2 supports
        ring = steinberg3.ring
        rng = random.Random(4)
        xs = [rand_elem(steinberg3, rng) for _ in range(4)]
        for a in range(27):
            for b in range(0, 27, 4):
                ca, cb = ring_int(ring, a), ring_int(ring, b)
                for x in xs[:2]:
                    assert u_act(ca, u_act(cb, x)) == u_act(ca + cb, x)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_triviality_of_deep_translations(self, steinberg3, n):
        # c ∈ ϖ^{n+1}O acts trivially on level n
        ring = steinberg3.ring
        rng = random.Random(5)
        c = ring_int(ring, 3 ** (n + 1) * rng.randrange(1, 5))
        for mu_case in range(3):
            mu = tuple(rng.randrange(3) for _ in range(n))
            x = singleton(steinberg3, n, mu, rng.randrange(2))
            assert u_act(c, x) == x

    def test_triviality_ramified(self, ram3):
        # e=2: ϖ^{n+1} has valuation n+1; matrix-level check on R_2
        ring = ram3.ring
        pi3 = ring.uniformizer() ** 3
        lr = LevelRange("all", 2, 2)
        M = operator_matrix(ram3, lambda x: u_act(pi3, x), lr, lr)
        eye = np.zeros(M.shape, dtype=np.int32)
        np.fill_diagonal(eye, 1)
        assert np.array_equal(M, eye)

    def test_precision_guard(self, steinberg3):
        c = steinberg3.ring.one().at_precision(2)
        x = singleton(steinberg3, 2, (0, 1), (0,))
        with pytest.raises(PrecisionExhausted):
            u_act(c, x)


class TestAlpha:
    def test_level0(self, steinberg3):
        x = singleton(steinberg3, 0, (), (0,))
        assert alpha_act(x).support() == [(1, (0,))]

    def test_prepends_zero_digit(self, steinberg3):
        x = singleton(steinberg3, 1, (2,), (1,))
        assert alpha_act(x).support() == [(2, (0, 2))]
        assert alpha_act(alpha_act(x)).support() == [(3, (0, 0, 2))]

    def test_intertwines_u_act(self, steinberg3):
        ring = steinberg3.ring
        rng = random.Random(6)
        for _ in range(20):
            x = rand_elem(steinberg3, rng, levels=(0, 1))
            c = ring_int(ring, rng.randrange(81))
            assert u_act(c * ring.uniformizer(), alpha_act(x)) == alpha_act(u_act(c, x))

    def test_headroom(self):
        ctx = make_ctx(3, 1, 1, (1,), N=3)
        x = singleton(ctx, 2, (0, 0), (0,))
        with pytest.raises(PrecisionExhausted):
            alpha_act(x)

    @pytest.mark.parametrize("preset", sorted(cli.PRESETS))
    def test_intertwines_u_act_on_presets(self, preset):
        # u(ϖc)·α = α·u(c) on random elements of each preset: a property of the calculus alone, so a test
        ctx = cli.config_from_preset(preset).build()
        ring = ctx.ring
        rng = np.random.default_rng(1)
        levels = [n for n in (1, 2) if n + 2 <= ctx.max_level()] or [1]
        for _ in range(30):
            x = random_element(ctx, rng, levels)
            c = RingElem(ring, rng.integers(0, ring.pM, size=(ring.e, ring.f)).astype(np.int64), ring.N)
            assert u_act(ring.uniformizer() * c, alpha_act(x)) == alpha_act(u_act(c, x))


class TestHeckePlus:
    def test_scalar_weight_fanout(self):
        # r = 0: T₊([(ϖ,(μ)),1]) = Σ_λ [(ϖ²,(μ,λ)), 1]
        ctx = make_ctx(3, 1, 1, (0,))
        x = singleton(ctx, 1, (2,), (0,))
        tp = hecke_T_plus(x)
        assert tp.support() == [(2, (2, lam)) for lam in range(3)]
        for lam in range(3):
            assert tp.terms[(2, (2, lam))].tolist() == [1]

    def test_top_vector_fanout(self, steinberg3):
        # x^{r⃗} carries only the i⃗=0 term: all λ-children weight x^{r⃗}
        x = singleton(steinberg3, 1, (2,), (0,))
        tp = hecke_T_plus(x)
        for lam in range(3):
            assert tp.terms[(2, (2, lam))].tolist() == [1, 0]

    def test_y_vector_coefficients(self, steinberg3):
        # i=1 term: coefficient (-λ); the λ=0 child vanishes
        x = singleton(steinberg3, 1, (0,), (1,))
        tp = hecke_T_plus(x)
        assert (2, (0, 0)) not in tp.terms
        assert tp.terms[(2, (0, 1))].tolist() == [2, 0]
        assert tp.terms[(2, (0, 2))].tolist() == [1, 0]

    def test_output_is_multiple_of_top(self, ram3, unram4):
        rng = random.Random(7)
        for ctx in (ram3, unram4):
            for _ in range(20):
                x = rand_elem(ctx, rng, levels=(1, 2))
                for v in hecke_T_plus(x).terms.values():
                    assert not np.any(v[1:])

    def test_level_zero_rejected(self, steinberg3):
        with pytest.raises(LevelZeroInput):
            hecke_T_plus(singleton(steinberg3, 0, (), (0,)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_injective_on_levels(self, steinberg3, n):
        M = operator_matrix(
            steinberg3, hecke_T_plus, LevelRange("all", n, n), LevelRange("all", n + 1, n + 1)
        )
        assert kernel(M, steinberg3.weight.field.kk).dim == 0

    @pytest.mark.parametrize("fixture", ["ram3", "unram4"])
    def test_injective_other_contexts(self, fixture, request):
        ctx = request.getfixturevalue(fixture)
        for n in (1, 2):
            M = operator_matrix(ctx, hecke_T_plus, LevelRange("all", n, n), LevelRange("all", n + 1, n + 1))
            assert kernel(M, ctx.weight.field.kk).dim == 0


class TestHeckeMinus:
    def test_zero_top_digit(self, steinberg3):
        x = singleton(steinberg3, 1, (0,), (1,))
        tm = hecke_T_minus(x)
        assert tm.support() == [(0, ())]
        assert tm.terms[(0, ())].tolist() == [0, 1]

    def test_kills_lower_components(self, steinberg3):
        assert hecke_T_minus(singleton(steinberg3, 1, (1,), (0,))) == InducedElem(steinberg3, {})

    def test_expansion_with_top_digit(self, steinberg3):
        # μ = (0,2): output ν·(2x + y) at key (0)
        x = singleton(steinberg3, 2, (0, 2), (1,))
        tm = hecke_T_minus(x)
        assert tm.terms[(1, (0,))].tolist() == [2, 1]

    def test_nu_scaling(self, ram3):
        # ram3 has ν = 2
        x = singleton(ram3, 1, (0,), (1,))
        tm = hecke_T_minus(x)
        assert tm.terms[(0, ())].tolist() == [0, 2]

    def test_level_zero_rejected(self, steinberg3):
        with pytest.raises(LevelZeroInput):
            hecke_T_minus(singleton(steinberg3, 0, (), (0,)))

    def test_frobenius_exponent_f2(self, unram4):
        # factor j=1 sees μ_top^{p}: coefficient of x₀x₁-term distinguishes p^j weights
        fq = unram4.weight.field.fq
        t = fq.elem(2)  # the generator t = (0, 1)
        x = singleton(unram4, 1, (t.code,), (1, 1))
        tm = hecke_T_minus(x)
        v = tm.terms[(0, ())]
        # ⊗_j (t^{p^j}x_j + y_j): coeff of e_{(0,0)} = x₀x₁ is t^{1+p} = t·t² = t³ = 1
        assert v[unram4.weight.index[(0, 0)]] == 1
        # coeff of e_{(0,1)} = x₀y₁ is t (j=0 factor only)
        assert v[unram4.weight.index[(0, 1)]] == t.code
        # coeff of e_{(1,0)} = y₀x₁ is t^p = t²
        assert v[unram4.weight.index[(1, 0)]] == (t * t).code


class TestHeckeT:
    def test_decomposition(self, steinberg3):
        rng = random.Random(8)
        for _ in range(100):
            x = rand_elem(steinberg3, rng, levels=(1, 2))
            assert hecke_T(x) == hecke_T_plus(x) + hecke_T_minus(x)

    def test_level_structure(self, steinberg3):
        x = singleton(steinberg3, 1, (1,), (1,))
        assert {n for n, _ in hecke_T(x).terms} <= {0, 2}

    @pytest.mark.parametrize("fixture", ["steinberg3", "ram3", "unram4"])
    def test_u_equivariance(self, fixture, request):
        ctx = request.getfixturevalue(fixture)
        ring = ctx.ring
        rng = random.Random(9)
        nprng = np.random.default_rng(9)
        for _ in range(70):
            x = rand_elem(ctx, rng, levels=(1, 2))
            vec = nprng.integers(0, ring.pM, size=(ring.e, ring.f)).astype(np.int64)
            c = RingElem(ring, vec, ring.N)
            assert u_act(c, hecke_T(x)) == hecke_T(u_act(c, x))

    def test_level_zero_rejected(self, steinberg3):
        x = singleton(steinberg3, 0, (), (0,)) + singleton(steinberg3, 1, (1,), (0,))
        with pytest.raises(LevelZeroInput):
            hecke_T(x)


class TestLinearity:
    @pytest.mark.parametrize("op", [hecke_T_plus, hecke_T_minus, hecke_T, alpha_act])
    def test_additive(self, steinberg3, op):
        rng = random.Random(10)
        for _ in range(25):
            x = rand_elem(steinberg3, rng, levels=(1, 2))
            y = rand_elem(steinberg3, rng, levels=(1, 2))
            assert op(x + y) == op(x) + op(y)

    def test_u_act_additive(self, steinberg3):
        rng = random.Random(11)
        c = ring_int(steinberg3.ring, 7)
        for _ in range(25):
            x = rand_elem(steinberg3, rng)
            y = rand_elem(steinberg3, rng)
            assert u_act(c, x + y) == u_act(c, x) + u_act(c, y)


class TestLevelRange:
    def test_parity_iteration(self):
        assert list(LevelRange("even", 0, 6).levels()) == [0, 2, 4, 6]
        assert list(LevelRange("odd", 1, 5).levels()) == [1, 3, 5]
        assert list(LevelRange("all", 0, 2).levels()) == [0, 1, 2]

    def test_contains(self):
        lr = LevelRange("even", 0, 4)
        assert 2 in lr and 3 not in lr and 6 not in lr

    def test_validation(self):
        with pytest.raises(ValueError):
            LevelRange("evens", 0, 2)
        with pytest.raises(ValueError):
            LevelRange("all", 3, 1)

    def test_range_dim(self, steinberg3):
        assert range_dim(steinberg3, LevelRange("even", 0, 4)) == 2 * (1 + 9 + 81)
        assert range_dim(steinberg3, LevelRange("odd", 1, 3)) == 2 * (3 + 27)


class TestMatrixExports:
    def test_flatten_roundtrip(self, steinberg3):
        rng = random.Random(12)
        lr = LevelRange("all", 0, 2)
        for _ in range(20):
            x = rand_elem(steinberg3, rng)
            assert unflatten(steinberg3, lr, flatten(x, lr)) == x

    @pytest.mark.parametrize("fixture", ["steinberg3", "unram4"])
    def test_unflatten_matches_validated_constructor(self, fixture, request):
        # unflatten builds its terms without the constructor's checks; the result must be the same
        ctx = request.getfixturevalue(fixture)
        rng = np.random.default_rng(16)
        lr = LevelRange("all", 0, 2)
        for density in (0.0, 0.2, 1.0):
            coords = rng.integers(0, ctx.weight.field.kk.order, size=range_dim(ctx, lr)).astype(np.int32)
            coords[rng.random(coords.size) >= density] = 0  # all-zero weight blocks, and at 0.0 all zero
            x = unflatten(ctx, lr, coords)
            blocks = iter(coords.reshape(-1, ctx.D))  # every key of every level, zero blocks too
            y = InducedElem(ctx, {(n, mu): next(blocks) for n in lr.levels() for mu in itertools.product(range(ctx.q), repeat=n)})
            assert x.terms.keys() == y.terms.keys() and x == y
            assert all(v.dtype == np.int32 and v.any() for v in x.terms.values())
            assert all(type(c) is int for _, mu in x.terms for c in mu)
            assert np.array_equal(flatten(x, lr), coords)

    def test_unflatten_rejects_levels_beyond_headroom(self, steinberg3):
        lr = LevelRange("all", 0, steinberg3.max_level() + 1)
        coords = np.zeros(range_dim(steinberg3, lr), dtype=np.int32)
        assert unflatten(steinberg3, lr, coords) == InducedElem(steinberg3, {})
        coords[-1] = 1
        with pytest.raises(PrecisionExhausted):
            unflatten(steinberg3, lr, coords)

    def test_matrix_agrees_with_apply(self, steinberg3):
        rng = random.Random(13)
        dom, cod = LevelRange("all", 1, 1), LevelRange("all", 0, 2)
        M = operator_matrix(steinberg3, hecke_T, dom, cod)
        for _ in range(15):
            x = rand_elem(steinberg3, rng, levels=(1,))
            assert np.array_equal(vec_mat(flatten(x, dom), M, steinberg3.weight.field.kk), flatten(hecke_T(x), cod))

    def test_out_of_range_rejected(self, steinberg3):
        x = singleton(steinberg3, 1, (0,), (0,))
        with pytest.raises(DimensionMismatch):
            flatten(x, LevelRange("even", 0, 2))

