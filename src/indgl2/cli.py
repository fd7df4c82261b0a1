"""Batch verification driver.

`indgl2 verify` loads one configuration (file or preset), runs the selected
check suites, and emits a deterministic report: text (one line per check) or
a single JSON document with stable key order.  Exit codes: 0 all checks pass,
1 at least one failure, 2 configuration or usage error.

Config files are flat `key = value` lines; values are JSON literals (bare
strings allowed) and a `#` after the value starts a comment; field elements
are coordinate lists over the prime field.
"""

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field as dc_field, fields
from time import perf_counter

import numpy as np

from . import __version__, analysis
from ._kernels import sparse_matmul
from .errors import CheckFailed, ConfigError, LevelZeroInput
from .gf import TABLE_CAP, is_prime, sum_over_field
from .induction import LevelRange, _offsets, hecke_entries, translation_entries
from .localring import (
    RingElem,
    check_translation_table,
    digits,
    from_digits,
    residue,
    teichmuller,
    witt_carry,
    witt_carry_closed_form,
    witt_carry_precision,
)

SUITES = ("arith", "hecke", "mainlemma", "negative", "truncation")
RANDOM_SUITES = ("arith",)  # the suites that draw random elements

PRESETS = {
    "ramified-r1": {"p": 3, "f": 1, "e": 2, "r": [1]},
    "ramified-r0": {"p": 3, "f": 1, "e": 2, "r": [0]},
    "unramified-generic": {"p": 3, "f": 2, "e": 1, "r": [0, 0]},
    "unramified-maximal": {"p": 2, "f": 2, "e": 1, "r": [1, 1]},
    "unramified-stretch": {"p": 3, "f": 2, "e": 1, "r": [2, 2], "N_max": 1},
}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_coords(x, length: int, p: int | None = None) -> bool:
    """x lists `length` integers, each in [0, p-1] when p is given."""
    ok = isinstance(x, (list, tuple)) and len(x) == length and all(_is_int(c) for c in x)
    return ok and (p is None or all(0 <= c < p for c in x))


@dataclass
class Config:
    p: int
    f: int
    e: int
    r: list
    m: int = 1
    chi: int = 0
    nu: list | None = None
    E: list | None = None
    N: int | None = None
    N_max: int = 2
    suites: list = dc_field(default_factory=lambda: list(SUITES))
    seed: int = 0
    out: str | None = None
    inject_failure: bool = False

    def validate(self, where: str = "<config>"):
        """Check every field, the suite rules on self.suites among them."""

        def bad(msg):
            raise ConfigError(msg, location=where)

        if _is_int(self.p) and self.p > TABLE_CAP:  # before the trial division, which would spin on a large p
            bad(f"p = {self.p} exceeds the field table cap {TABLE_CAP}")
        if not _is_int(self.p) or not is_prime(self.p):
            bad(f"p must be prime, got {self.p!r}")
        for key in ("f", "e", "m"):
            if not _is_int(getattr(self, key)) or getattr(self, key) < 1:
                bad(f"{key} must be a positive integer, got {getattr(self, key)!r}")
        if not isinstance(self.r, (list, tuple)) or len(self.r) != self.f:
            bad(f"r must list {self.f} weight exponents, got {self.r!r}")
        if any(not _is_int(x) or not 0 <= x <= self.p - 1 for x in self.r):
            bad(f"weight exponents must lie in [0, {self.p - 1}]")
        if not _is_int(self.chi):
            bad(f"chi must be an integer, got {self.chi!r}")
        if self.nu is not None and not _is_coords(self.nu, self.f * self.m, self.p):
            bad(f"nu must list {self.f * self.m} coordinates in [0, {self.p - 1}], got {self.nu!r}")
        if self.E is not None and (
            not isinstance(self.E, (list, tuple))
            or len(self.E) != self.e + 1
            or not all(_is_int(c) or _is_coords(c, self.f) for c in self.E)
        ):
            bad(f"E must list {self.e + 1} coefficients, each an integer or {self.f} integers")
        if not _is_int(self.N_max) or self.N_max < 0:
            bad(f"N_max must be a non-negative integer, got {self.N_max!r}")
        if self.N is not None and (not _is_int(self.N) or self.N < 2):
            bad(f"N must be an integer >= 2, got {self.N!r}")
        if not isinstance(self.suites, (list, tuple)):
            bad(f"suites must be a list, got {self.suites!r}")
        _check_suites(self.suites, self.N_max, where)
        if not _is_int(self.seed) or self.seed < 0:
            bad(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.out is not None and not isinstance(self.out, str):
            bad(f"out must be a path, got {self.out!r}")
        if not isinstance(self.inject_failure, bool):
            bad(f"inject_failure must be true or false, got {self.inject_failure!r}")
        return self

    def effective_precision(self) -> int:
        auto = max(2 * self.N_max + 2, 6, self.e + 1)
        return self.N if self.N is not None else auto

    def check_precision(self, suites):
        """Reject a ring precision N below what one of the selected suites needs."""
        main_lemma = analysis.MAIN_LEMMA_PRECISION
        search_only = self.e == 1 and self.f == 1  # analysis.select_case; no main lemma runs
        need = {
            "arith": witt_carry_precision(self.e),
            "hecke": 3,  # T on level-1 elements lands on level 2 = N - 1
            "mainlemma": main_lemma,
            "negative": 0,  # builds its own contexts
            "truncation": max(analysis.truncation_precision(self.N_max), 0 if search_only else main_lemma),
        }
        N = self.effective_precision()
        for suite in suites:
            if N < need[suite]:
                raise ConfigError(f"suite {suite!r} needs ring precision N >= {need[suite]}, got N = {N}", location="N")

    def build(self) -> analysis.InductionCtx:
        try:
            # nu lists coordinates over F_p, lowest first: its code in K
            nu_code = None if self.nu is None else sum(c * self.p**i for i, c in enumerate(self.nu))
            return analysis.build_ctx(
                self.p, self.f, self.e, tuple(self.r),
                chi_c=self.chi, nu_code=nu_code, E=self.E,
                N=self.effective_precision(), m=self.m,
            )
        except ConfigError:
            raise
        except (ValueError, ZeroDivisionError) as ex:
            raise ConfigError(str(ex), location="<config>") from ex


_CONFIG_KEYS = {f.name for f in fields(Config)}


def _check_suites(suites, N_max: int | None, where: str):
    """The rules on a suite selection: at least one suite, known names, no repeats, and N_max >= 1 for the
    truncation suite (not checked when N_max is None)."""
    if not suites:
        raise ConfigError(f"this run selects no suite; pick at least one suite of: {', '.join(SUITES)}", location=where)
    for s in suites:
        if s not in SUITES:
            raise ConfigError(f"unknown suite {s!r}; valid: {', '.join(SUITES)}", location=where)
    if len(set(suites)) != len(suites):
        raise ConfigError(f"suites must not repeat, got {list(suites)!r}", location=where)
    if "truncation" in suites and N_max is not None and N_max < 1:
        raise ConfigError(f"the truncation suite needs N_max >= 1, got {N_max}", location=where)


def _parse_value(text: str):
    """A JSON literal, or a bare word, followed by an optional `# comment`.

    The literal is read first, so a `#` inside a quoted string stays in it.
    """
    try:
        value, end = json.JSONDecoder().raw_decode(text)
        rest = text[end:].strip()
        if not rest or rest.startswith("#"):
            return value
    except json.JSONDecodeError:
        pass
    return text.split(" #", 1)[0].rstrip()


def parse_config_text(text: str, where: str = "<config>") -> dict:
    """Flat key = value lines; values are JSON literals, bare words pass as strings."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or "#" in key:
            raise ConfigError(f"expected 'key = value', got {raw!r}", location=f"{where}:{lineno}")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}", location=f"{where}:{lineno}")
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", location=f"{where}:{lineno}")
        out[key] = _parse_value(value.strip())
    return out


def config_from_mapping(mapping: dict, where: str = "<config>") -> Config:
    unknown = set(mapping) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}", location=where)
    missing = {"p", "f", "e", "r"} - set(mapping)
    if missing:
        raise ConfigError(f"missing required keys {sorted(missing)}", location=where)
    if "suites" in mapping and isinstance(mapping["suites"], str):
        parts = [s.strip() for s in mapping["suites"].split(",")]
        mapping = {**mapping, "suites": [s for s in parts if s]}
    return Config(**mapping).validate(where)


def config_from_file(path: str) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as ex:
        raise ConfigError(str(ex), location=path) from ex
    return config_from_mapping(parse_config_text(text, where=path), where=path)


def config_from_preset(name: str) -> Config:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; valid: {', '.join(sorted(PRESETS))}", location="--preset")
    return config_from_mapping(dict(PRESETS[name]), where=f"preset:{name}")


@dataclass
class CheckRecord:
    name: str
    status: str  # pass | fail | skipped
    dims: dict = dc_field(default_factory=dict)
    seconds: float = 0.0
    detail: str | None = None


@dataclass
class Report:
    version: str
    config: dict
    records: list
    verdict: str


# -- suites --


def _random_ring(ctx, rng) -> RingElem:
    ring = ctx.ring
    vec = rng.integers(0, ring.pM, size=(ring.e, ring.f)).astype(np.int64)
    return RingElem(ring, vec, ring.N)


def _suite_arith(ctx, cfg, rng):
    field = ctx.weight.field
    fq, kk = field.fq, field.kk
    ring = ctx.ring
    recs = []

    ok = True
    minus_one = int(kk.NEG[1])
    for k in range(field.q):
        s = sum_over_field([fq.zero] * k + [fq.one], field)
        want = minus_one if k == field.q - 1 else 0
        ok = ok and s.code == want
    recs.append(CheckRecord("arith:field-sum", "pass" if ok else "fail", {"monomials": field.q}))

    ok = True
    pairs = 0
    for a in field.enumerate_field("Fq"):
        for b in field.enumerate_field("Fq"):
            d = witt_carry(a, b, ring)
            ok = ok and d.codes[0] == (a + b).code
            if ring.e == 1:
                ok = ok and d.codes[1] == witt_carry_closed_form(a, b, ring).code
            else:
                ok = ok and all(c == 0 for c in d.codes[1:ring.e])
            pairs += 1
    recs.append(CheckRecord("arith:witt-carry", "pass" if ok else "fail", {"pairs": pairs}))

    ok = True
    for a in field.enumerate_field("Fq"):
        ta = teichmuller(a, ring)
        ok = ok and ta**field.q == ta and residue(ta) == a
        for b in field.enumerate_field("Fq"):
            ok = ok and ta * teichmuller(b, ring) == teichmuller(a * b, ring)
    recs.append(CheckRecord("arith:teichmuller", "pass" if ok else "fail", {"elements": field.q}))

    ok = True
    depth = min(3, ring.N)
    for _ in range(30):
        x = _random_ring(ctx, rng)
        d = digits(x, depth)
        ok = ok and from_digits(d).at_precision(depth) == x.at_precision(depth)
    recs.append(CheckRecord("arith:digit-roundtrip", "pass" if ok else "fail", {"samples": 30, "depth": depth}))
    return recs


def _suite_hecke(ctx, cfg, rng):
    """Exact checks on the entry arrays that the certificates read: T from hecke_entries and
    u - 1 from translation_entries, with T from R_1 + .. + R_{top-1} to R_0 + .. + R_top."""
    kk = ctx.weight.field.kk
    top = min(3, ctx.max_level())
    domain, codomain = LevelRange("all", 1, top - 1), LevelRange("all", 0, top)
    T = hecke_entries(ctx, domain, codomain)
    gens = analysis.u_generators(ctx, top)
    recs = []

    ok = True
    for c in gens:
        after = sparse_matmul(T, translation_entries(ctx, c, codomain), kk)  # x ↦ (u - 1)(Tx)
        before = sparse_matmul(translation_entries(ctx, c, domain), T, kk)  # x ↦ T((u - 1)x)
        ok = ok and all(np.array_equal(a, b) for a, b in zip(after, before))
    recs.append(CheckRecord("hecke:u-equivariance", "pass" if ok else "fail", {"generators": len(gens), "top_level": top}))

    # the identity with zero twist is the translation table of every ϖ^{n+1}·c on level n, checked
    # forward on every key; translation_table's memo key reduces c mod ϖ^{n+1} on this premise
    ok = True
    pi = ctx.ring.uniformizer()
    for n in range(top):
        keys = ctx.q**n
        for c in gens:
            try:
                check_translation_table(pi ** (n + 1) * c, n, np.arange(keys), np.zeros(keys, dtype=np.int64))
            except CheckFailed:
                ok = False
    recs.append(CheckRecord("hecke:depth-triviality", "pass" if ok else "fail", {"tables": top * len(gens)}))

    def positions(entries, row_at=0, col_at=0):
        rows, cols, vals = entries
        return dict(zip(zip((rows + row_at).tolist(), (cols + col_at).tolist()), vals.tolist()))

    whole = positions(T)
    row_at, col_at = _offsets(ctx, domain), _offsets(ctx, codomain)
    plus, minus = {}, {}
    for n in domain.levels():
        for part, m in ((plus, n + 1), (minus, n - 1)):
            part.update(positions(hecke_entries(ctx, LevelRange("all", n, n), LevelRange("all", m, m)), row_at[n], col_at[m]))
    ok = len(whole) == T[0].size and plus.keys().isdisjoint(minus) and whole == plus | minus
    recs.append(CheckRecord("hecke:composite", "pass" if ok else "fail", {"T_plus": len(plus), "T_minus": len(minus)}))

    k1 = analysis.tplus_kernel_dim(ctx, 1)
    recs.append(
        CheckRecord("hecke:tplus-kernel-R1", "pass" if k1 == 0 else "fail", {"kernel_dim": k1}, detail="method=blockwise")
    )

    try:
        hecke_entries(ctx, LevelRange("all", 0, 0), LevelRange("all", 0, 1))
        recs.append(CheckRecord("hecke:level-zero-guard", "fail", detail="level-0 input was accepted"))
    except LevelZeroInput:
        recs.append(CheckRecord("hecke:level-zero-guard", "pass"))
    return recs


def _suite_mainlemma(ctx, cfg, rng):
    rep = analysis.main_lemma_report(ctx)
    recs = []
    dims = dict(rep.dims)
    if rep.case == analysis.CASE_SEARCH_ONLY:
        recs.append(CheckRecord("mainlemma:witness", "skipped", dims, detail="no construction case; see the negative suite"))
        recs.append(CheckRecord("mainlemma:certificate", "skipped"))
    else:
        ok = rep.found and all(rep.checks.values())
        detail = f"case={rep.case}" + (f" j0={rep.j0}" if rep.j0 is not None else "")
        recs.append(CheckRecord("mainlemma:witness", "pass" if ok else "fail", dims, detail=detail))
        block_rank = analysis.tplus_block_rank(ctx)
        recs.append(
            CheckRecord(
                "mainlemma:certificate",
                "pass" if rep.certificate else "fail",
                {"block_rank": block_rank, "D": ctx.D},
            )
        )
        # T₊|R_n is qⁿ copies of one local block, so full block rank is injectivity at every level
        recs.append(
            CheckRecord(
                "mainlemma:tplus-injectivity-beyond-R3",
                "pass" if block_rank == ctx.D else "fail",
                detail="method=blockwise",
            )
        )
    return recs


def _suite_negative(ctx, cfg, rng):
    rows = analysis.negative_control(cfg.p)
    ok = all(not row["found"] for row in rows)
    return [CheckRecord("negative:exhaustive-base-field", "pass" if ok else "fail", {"weights": len(rows)})]


def _suite_truncation(ctx, cfg, rng):
    recs = []
    case = analysis.select_case(ctx)
    prev = None
    seq, bounded = [], []  # dim L_N^U per N reached, and the N where it is a lower bound
    for N in range(1, cfg.N_max + 1):
        try:
            rep = analysis.truncated_L(ctx, N, prev=prev)
        except Exception as ex:
            recs.append(CheckRecord(f"truncation:N={N}", "fail", detail=f"{type(ex).__name__}: {ex}"))
            continue
        ok = (
            rep.dim_ln == rep.dim_ie - rep.dim_t_io
            and all(rep.tminus_surjective)
            and all(rep.tplus_vanishing)
            and rep.dim_coinv == 1
        )
        dims = {
            "dim_Ie": rep.dim_ie,
            "dim_T_Io": rep.dim_t_io,
            "dim_LN": rep.dim_ln,
            "dim_LN_U": rep.dim_ln_u,
            "dim_coinvariants": rep.dim_coinv,
        }
        recs.append(
            CheckRecord(
                f"truncation:N={N}",
                "pass" if ok else "fail",
                dims,
                detail=f"ln_u method={rep.ln_u_method}",
            )
        )
        seq.append(rep.dim_ln_u)
        if rep.ln_u_method == "certified-lower-bound":
            bounded.append(N)
        prev = rep
    if len(seq) >= 2:
        mono = all(a <= b for a, b in zip(seq, seq[1:]))
        recs.append(
            CheckRecord(
                "truncation:monotone-fixed-dims", "pass" if mono else "fail", {"sequence": seq}, detail=_lower_bounds(bounded)
            )
        )
    if case != analysis.CASE_SEARCH_ONLY and seq:
        recs.append(
            CheckRecord(
                "truncation:fixed-dim-at-least-2",
                "pass" if seq[-1] >= 2 else "fail",
                {"dim_LN_U": seq[-1]},
                detail=_lower_bounds([prev.N] if prev.N in bounded else []),
            )
        )
    return recs


def _lower_bounds(ns) -> str | None:
    """Detail naming the N whose dim_LN_U is a certified lower bound, not an exact value."""
    return f"certified lower bound at N={', '.join(map(str, ns))}" if ns else None


_SUITE_FNS = {
    "arith": _suite_arith,
    "hecke": _suite_hecke,
    "mainlemma": _suite_mainlemma,
    "negative": _suite_negative,
    "truncation": _suite_truncation,
}


def run(cfg: Config, timings: bool = False) -> Report:
    """Execute cfg.suites; suite crashes become failed records."""
    _check_suites(cfg.suites, cfg.N_max, "--suites")
    cfg.check_precision(cfg.suites)
    ctx = cfg.build()

    records = []
    for name in cfg.suites:
        # numpy.random is imported on first use, so suites that draw nothing do not pay for it
        rng = np.random.default_rng(cfg.seed + SUITES.index(name)) if name in RANDOM_SUITES else None
        t0 = perf_counter()
        try:
            recs = _SUITE_FNS[name](ctx, cfg, rng)
        except Exception as ex:
            recs = [CheckRecord(f"{name}:error", "fail", detail=f"{type(ex).__name__}: {ex}")]
        dt = perf_counter() - t0
        if timings:
            # checks share their intermediate results, so only a whole suite is timed
            for r in recs:
                r.seconds = round(dt, 6)
        records.extend(recs)
    if cfg.inject_failure:
        records.append(CheckRecord("injected-failure", "fail", detail="forced by configuration"))
    records.sort(key=lambda r: r.name)
    verdict = "pass" if all(r.status != "fail" for r in records) else "fail"
    # the echo is the config that ran, with the effective ring precision and without the report path
    config = {k: v for k, v in asdict(cfg).items() if k != "out"} | {"N": cfg.effective_precision()}
    return Report(version=__version__, config=config, records=records, verdict=verdict)


def emit(report: Report, format: str = "text") -> bytes:
    if format == "json":
        return (json.dumps(asdict(report), sort_keys=True, indent=2) + "\n").encode()
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    lines = [f"indgl2 {report.version}"]
    for r in report.records:
        dims = " ".join(f"{k}={v}" for k, v in sorted(r.dims.items()))
        extra = f"  [{dims}]" if dims else ""
        note = f"  ({r.detail})" if r.detail else ""
        lines.append(f"{r.status.upper():8s}{r.name}{extra}{note}")
    lines.append(f"verdict: {report.verdict}")
    return ("\n".join(lines) + "\n").encode()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="indgl2", description="verification driver for the compact-induction calculus")
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run verification suites for one configuration")
    v.add_argument("--config", help="path to a key = value configuration file")
    v.add_argument("--preset", help=f"named configuration: {', '.join(sorted(PRESETS))}")
    v.add_argument("--suites", help=f"comma-separated subset of: {', '.join(SUITES)}")
    v.add_argument("--trunc", type=int, help="override the truncation depth N_max")
    v.add_argument("--out", help="write the report to this path instead of stdout")
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.add_argument(
        "--timings",
        action="store_true",
        help="give each record the wall-clock seconds of its whole suite (breaks byte-determinism)",
    )
    v.add_argument("--seed", type=int, help="override the configuration seed")
    args = parser.parse_args(argv)

    try:
        if args.config and args.preset:
            raise ConfigError("pass either --config or --preset, not both", location="command line")
        if args.config:
            cfg = config_from_file(args.config)
        elif args.preset:
            cfg = config_from_preset(args.preset)
        else:
            raise ConfigError("one of --config or --preset is required", location="command line")
        # the selection is written and checked first, so the overrides are checked against the suites that
        # run; a --trunc given with it answers for the truncation suite's depth
        if args.suites is not None:
            cfg.suites = [s for s in args.suites.split(",") if s]
            _check_suites(cfg.suites, cfg.N_max if args.trunc is None else None, "--suites")
        if args.trunc is not None:
            cfg.N_max = args.trunc
            cfg.validate("--trunc")
        if args.seed is not None:
            cfg.seed = args.seed
            cfg.validate("--seed")
        report = run(cfg, timings=args.timings)
    except ConfigError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2

    payload = emit(report, args.format)
    out_path = args.out or cfg.out
    if out_path:
        try:
            with open(out_path, "wb") as fh:
                fh.write(payload)
        except OSError as ex:
            print(f"cannot write report: {ex}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload.decode())
    return 0 if report.verdict == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
