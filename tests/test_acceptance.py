"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Every check is exact; the stated runtime budgets are asserted per criterion.
"""

import hashlib
import time

import numpy as np

from indgl2 import analysis, cli, linalg
from indgl2.gf import FieldCtx, sum_over_field
from indgl2.induction import hecke_T_plus, singleton, u_act
from indgl2.localring import LocalRingCtx, RingElem, teichmuller, witt_carry, witt_carry_closed_form
from indgl2.weight import WeightCtx
from oracles import hecke_T, hecke_T_minus, random_element, u_invariants


def announce(n: int, ok: bool, detail: str, elapsed: float):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail} [{elapsed:.2f}s]")


def test_criterion_1_field_sum_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for p, f in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]:
        field = FieldCtx(p, f)
        fq = field.fq
        q = field.q
        for i in range(q):
            s = sum_over_field([fq.zero] * i + [fq.one], field)
            want = -fq.one if i == q - 1 else fq.zero
            ok = ok and s == want
        for _ in range(50):
            coeffs = [fq.elem(int(c)) for c in rng.integers(0, q, size=q)]
            ok = ok and sum_over_field(coeffs, field) == -coeffs[q - 1]
    elapsed = time.perf_counter() - t0
    announce(1, ok, "field-sum identity, q in {2,3,4,5,8,9}, monomials + 50 random polys each", elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_2_witt_carry_identity():
    t0 = time.perf_counter()
    ok = True
    for p, f in [(2, 2), (3, 2)]:
        ring = LocalRingCtx(p, f, 1, N=4)
        for a in ring.field.enumerate_field("Fq"):
            for b in ring.field.enumerate_field("Fq"):
                d = witt_carry(a, b, ring)
                ok = ok and d.codes[1] == witt_carry_closed_form(a, b, ring).code
    for p in (3, 2):
        ring = LocalRingCtx(p, 1, 2, N=4)  # E = x^2 - p
        for a in ring.field.enumerate_field("Fq"):
            for b in ring.field.enumerate_field("Fq"):
                d = witt_carry(a, b, ring)
                ok = ok and d.codes[0] == (a + b).code and d.codes[1] == 0
    elapsed = time.perf_counter() - t0
    announce(2, ok, "Witt carries: closed form on q in {4,9}; no carry mod pi^2 when e=2", elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_3_hecke_u_integration():
    t0 = time.perf_counter()
    ok = True
    configs = [(3, 1, 1, (1,)), (3, 2, 1, (0, 0)), (3, 1, 2, (0,)), (2, 2, 1, (1, 1))]
    rng = np.random.default_rng(303)
    for p, f, e, rvec in configs:
        ctx = analysis.build_ctx(p, f, e, rvec, N=6)
        ring = ctx.ring
        for _ in range(200):
            x = random_element(ctx, rng, (1, 2, 3))
            c = RingElem(ring, rng.integers(0, ring.pM, size=(ring.e, ring.f)).astype(np.int64), ring.N)
            ok = ok and u_act(c, hecke_T(x)) == hecke_T(u_act(c, x))
            ok = ok and hecke_T(x) == hecke_T_plus(x) + hecke_T_minus(x)
        for n in range(4):
            pi_pow = ring.uniformizer() ** (n + 1)
            for _ in range(5):
                c = pi_pow * RingElem(ring, rng.integers(0, ring.pM, size=(ring.e, ring.f)).astype(np.int64), ring.N)
                mu = tuple(int(v) for v in rng.integers(0, ctx.q, size=n))
                x = singleton(ctx, n, mu, int(rng.integers(0, ctx.D)))
                ok = ok and u_act(c, x) == x
        for n in (1, 2, 3):
            ok = ok and analysis.tplus_kernel_dim(ctx, n) == 0
    elapsed = time.perf_counter() - t0
    announce(3, ok, "Hecke/U: 200 random equivariance pairs per config, depth triviality, T+ kernels R1-R3", elapsed)
    assert ok
    assert elapsed < 60.0


def test_criterion_4_weight_invariants_one_dimensional():
    t0 = time.perf_counter()
    ok = True
    total = 0
    for p, f in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]:
        field = FieldCtx(p, f)
        import itertools

        for rvec in itertools.product(range(p), repeat=f):
            for c in range(max(field.q - 1, 1)):
                w = WeightCtx(field, rvec, chi_c=c)
                ok = ok and u_invariants(w).dim == 1
                total += 1
    elapsed = time.perf_counter() - t0
    announce(4, ok, f"weight U-invariants one-dimensional, {total} weights exhaustive over q in {{2,3,4,5,9}}", elapsed)
    assert ok
    assert elapsed < 5.0


CANONICAL = {
    "a": (3, 1, 2, (1,)),
    "b": (3, 1, 2, (0,)),
    "c": (3, 2, 1, (0, 0)),
    "d": (2, 2, 1, (1, 1)),
}
NONTRIVIAL = {
    "a": {"chi_c": 1, "nu_code": 2},
    "b": {"chi_c": 1, "nu_code": 2},
    "c": {"chi_c": 3, "nu_code": 2},
    "d": {"chi_c": 1, "nu_code": 2},
}


def test_criterion_5_main_lemma_witnesses():
    t0 = time.perf_counter()
    ok = True
    lines = []
    runs = []
    for key, (p, f, e, rvec) in CANONICAL.items():
        runs.append((key, analysis.build_ctx(p, f, e, rvec, N=6)))
        extra = NONTRIVIAL[key]
        runs.append((key + "'", analysis.build_ctx(p, f, e, rvec, N=6, **extra)))
    runs.append(("stretch", analysis.build_ctx(3, 2, 1, (2, 2), N=6)))
    for label, ctx in runs:
        rep = analysis.main_lemma_report(ctx)
        good = (
            rep.found
            and rep.dims["V"] > rep.dims["V_cap_TplusR1"]
            and all(rep.checks.values())
            and rep.certificate
        )
        ok = ok and good
        lines.append(f"{label}:{'ok' if good else 'FAIL'}")
    elapsed = time.perf_counter() - t0
    announce(5, ok, "main-lemma witnesses " + " ".join(lines), elapsed)
    assert ok
    assert elapsed < 120.0


def test_criterion_6_truncated_growth_evidence():
    t0 = time.perf_counter()
    ok = True
    lines = []
    for key, (p, f, e, rvec) in CANONICAL.items():
        ctx = analysis.build_ctx(p, f, e, rvec, N=8)
        prev = None
        seq = []
        for N in (1, 2, 3):
            prev = analysis.truncated_L(ctx, N, prev=prev)
            seq.append(prev.dim_ln_u)
            ok = ok and prev.dim_ln == prev.dim_ie - prev.dim_t_io
            ok = ok and all(prev.tminus_surjective) and all(prev.tplus_vanishing)
            ok = ok and prev.dim_coinv == 1
        ok = ok and seq[0] >= 2 and all(x <= y for x, y in zip(seq, seq[1:]))
        lines.append(f"{key}:{seq}")
    elapsed = time.perf_counter() - t0
    announce(6, ok, "truncated fixed dims >= 2 and non-decreasing; coinvariant flags pass " + " ".join(lines), elapsed)
    assert ok
    assert elapsed < 120.0


def test_criterion_7_negative_control():
    t0 = time.perf_counter()
    ok = True
    total = 0
    for p in (2, 3, 5):
        for row in analysis.negative_control(p):
            ok = ok and row["dim_V"] == row["dim_W"] and not row["found"]
            total += 1
    elapsed = time.perf_counter() - t0
    announce(7, ok, f"no witness over the base field: {total} weights, p in {{2,3,5}}", elapsed)
    assert ok
    assert elapsed < 30.0


# sha256 of each preset's `--format json` report.  Two records changed on
# purpose since the translation tables replaced the per-basis-vector u_act
# assembly: hecke:tplus-kernel-R1 reads "method=blockwise" (was "dense"), and
# mainlemma:tplus-injectivity-beyond-R3 is a checked "pass" with detail
# "method=blockwise" (was "assumed").  Since L_N^U is computed by sparse
# elimination, every truncation:N record of the presets reads "ln_u
# method=sparse" (was "dense"), and unramified-generic (N_max = 2) reaches
# dim L_2^U = 5 exactly (was the certified lower bound 3): its sequence is
# [3, 5] (was [3, 3]), truncation:fixed-dim-at-least-2 reads 5, and neither
# carries a lower-bound detail (was "certified lower bound at N=2").  Since the
# hecke suite checks the entry arrays exactly and draws nothing at random, three
# of its records carry new dims: hecke:u-equivariance {generators, top_level}
# (was {samples: 40}), hecke:depth-triviality {tables} (was {samples: 15}) and
# hecke:composite {T_plus, T_minus}, T's entry counts (was {samples: 40}); no
# detail changed, and hecke:alpha-intertwine is gone from the reports (it checked
# the element calculus alone and is a test now).  Since hecke:depth-triviality
# counts the translation tables it reads, one per level, its dims are {tables: 3}
# (was {tables: 6}, two generators per level reading the same memoised table).
# Since hecke:depth-triviality checks the identity table forward for ϖ^{n+1}·c,
# for every level n below the top and every U generator c, its dims are
# {tables: 6} again (top · generators); that is the only change in the last
# re-pin, and it restores the digests pinned before {tables: 3}.  A change that
# alters any report byte must update these on purpose
PRESET_REPORT_SHA256 = {
    "ramified-r0": "fc235a1bf97a288ddfcc3f3ea13913923a46681c71f1ce7c8f0bad708d2ea402",
    "ramified-r1": "4b7e2b914ed7d3f10bdbdfad1d481724dc6455345f3e78430af98ffb0900708c",
    "unramified-generic": "211716cf8e0517f7f4bee6401486fbe9a77c2768949b7d56e41009f26404624b",
    "unramified-maximal": "66218cd9cc65c557b069e1f4a8d125592d40c25e30a79cfcbf5ebbc32aa2808d",
    "unramified-stretch": "bc61f446163678f0673e5a1d712798a0a2e007e619780e2185ce6575acf56db8",
}


def test_criterion_8_deterministic_reports():
    t0 = time.perf_counter()
    ok = sorted(cli.PRESETS) == sorted(PRESET_REPORT_SHA256)
    for preset in sorted(cli.PRESETS):
        cfg = cli.config_from_preset(preset)
        a = cli.emit(cli.run(cfg), "json")
        b = cli.emit(cli.run(cli.config_from_preset(preset)), "json")
        ok = ok and a == b and b"\"verdict\": \"pass\"" in a
        ok = ok and hashlib.sha256(a).hexdigest() == PRESET_REPORT_SHA256.get(preset)
    elapsed = time.perf_counter() - t0
    announce(8, ok, "preset suites re-run byte-identical to each other and to the recorded digests, all verdicts pass", elapsed)
    assert ok
