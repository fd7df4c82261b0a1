"""Configuration parsing, suite driver, report emission, exit codes."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from indgl2 import analysis, cli
from indgl2.errors import ConfigError
from indgl2.induction import LevelRange, hecke_entries
from indgl2.localring import LocalRingCtx

README = Path(__file__).resolve().parent.parent / "README.md"


def make_cfg(**over):
    base = {"p": 3, "f": 1, "e": 2, "r": [0]}
    base.update(over)
    return cli.config_from_mapping(base)


class TestConfigParsing:
    def test_flat_format(self):
        text = """
        # comment line
        p = 3
        f = 1
        e = 2
        r = [1]        # trailing comment
        nu = [2]
        suites = ["arith", "negative"]
        inject_failure = false
        out = report.json
        """
        raw = cli.parse_config_text(text)
        assert raw["p"] == 3
        assert raw["r"] == [1]
        assert raw["suites"] == ["arith", "negative"]
        assert raw["inject_failure"] is False
        assert raw["out"] == "report.json"

    def test_bad_line_has_location(self):
        with pytest.raises(ConfigError) as ex:
            cli.parse_config_text("p = 3\nnonsense line\n", where="cfg")
        assert "cfg:2" in str(ex.value)

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            cli.parse_config_text("bogus = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            cli.parse_config_text("p = 3\np = 5\n")

    def test_hash_inside_quoted_value(self):
        raw = cli.parse_config_text('out = "rep #1.txt"\nseed = 2 # a # b\nr = [1]# tight\n')
        assert raw == {"out": "rep #1.txt", "seed": 2, "r": [1]}
        assert cli.parse_config_text('out = "rep #1.txt"   # where it goes\n') == {"out": "rep #1.txt"}

    def test_comment_cannot_hide_the_equals_sign(self):
        with pytest.raises(ConfigError) as ex:
            cli.parse_config_text("p # = 3\n", where="cfg")
        assert "expected 'key = value'" in str(ex.value)

    def test_missing_required(self):
        with pytest.raises(ConfigError) as ex:
            cli.config_from_mapping({"p": 3})
        assert "missing" in str(ex.value)

    def test_suites_comma_string(self):
        cfg = make_cfg(suites="arith,negative")
        assert cfg.suites == ["arith", "negative"]

    def test_suites_comma_string_with_spaces(self):
        cfg = make_cfg(suites="arith, negative , truncation,")
        assert cfg.suites == ["arith", "negative", "truncation"]

    @pytest.mark.parametrize(
        "over",
        [
            {"e": 0},
            {"p": 4},
            {"r": [0, 0]},
            {"r": [3]},
            {"suites": ["nope"]},
            {"N_max": -1},
            {"N_max": 0},  # the default suites include truncation
            {"N": 1},
            {"seed": -1},
            {"chi": 1.5},
            {"nu": [5, 7]},
            {"nu": [1, 0]},
            {"E": 5},
            {"suites": 3},
            {"suites": ["arith", "arith"]},
            {"suites": "arith,negative,arith"},
            {"out": 5},
            {"suites": []},
            {"suites": ""},
            {"suites": ","},
        ],
    )
    def test_validation_rejects(self, over):
        with pytest.raises(ConfigError):
            make_cfg(**over)

    def test_presets_all_valid(self):
        for name in cli.PRESETS:
            cfg = cli.config_from_preset(name)
            cfg.build()  # contexts must assemble

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            cli.config_from_preset("nope")

    def test_auto_precision_covers_truncation(self):
        cfg = make_cfg(N_max=3)
        assert cfg.effective_precision() >= 2 * 3 + 1


class TestRun:
    def test_empty_suites(self):
        # a run that selects no suite checks nothing, so it is a config error, not a pass
        with pytest.raises(ConfigError, match="selects no suite"):
            cli.run(dataclasses.replace(make_cfg(), suites=[]))

    def test_records_sorted_and_pass(self):
        rep = cli.run(dataclasses.replace(make_cfg(), suites=["negative", "arith"]))
        names = [r.name for r in rep.records]
        assert names == sorted(names)
        assert rep.verdict == "pass"
        assert all(r.seconds == 0.0 for r in rep.records)

    def test_mainlemma_dims_table(self):
        rep = cli.run(dataclasses.replace(make_cfg(), suites=["mainlemma"]))
        rec = next(r for r in rep.records if r.name == "mainlemma:witness")
        assert rec.status == "pass"
        for key in ("R1", "R1prime", "Q", "V", "V_cap_TplusR1"):
            assert key in rec.dims
        beyond = next(r for r in rep.records if "beyond" in r.name)
        assert (beyond.status, beyond.dims, beyond.detail) == ("pass", {}, "method=blockwise")

    def test_search_only_config_skips_mainlemma(self):
        rep = cli.run(dataclasses.replace(cli.config_from_mapping({"p": 3, "f": 1, "e": 1, "r": [1]}), suites=["mainlemma"]))
        statuses = {r.name: r.status for r in rep.records}
        assert statuses["mainlemma:witness"] == "skipped"
        assert rep.verdict == "pass"

    def test_injected_failure(self):
        rep = cli.run(dataclasses.replace(make_cfg(inject_failure=True), suites=["negative"]))
        assert rep.verdict == "fail"
        assert any(r.name == "injected-failure" and r.status == "fail" for r in rep.records)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            cli.run(dataclasses.replace(make_cfg(), suites=["nope"]))

    def test_repeated_suite_rejected(self):
        with pytest.raises(ConfigError):
            cli.run(dataclasses.replace(make_cfg(), suites=["arith", "arith"]))

    def test_candidate_spaces_built_once_per_ctx(self, monkeypatch):
        # V and W come from one first-digit block V₀ of R₂; the mainlemma and
        # truncation suites and the generic-case candidate must share one build
        real = analysis._first_digit_block
        builds = {}

        def counting(ctx, deep, B0):
            builds[id(ctx)] = builds.get(id(ctx), 0) + 1
            return real(ctx, deep, B0)

        monkeypatch.setattr(analysis, "_first_digit_block", counting)
        rep = cli.run(dataclasses.replace(cli.config_from_preset("unramified-generic"), suites=["mainlemma", "truncation"]))
        assert rep.verdict == "pass"
        assert list(builds.values()) == [1]

    def test_tplus_r1_matrix_built_once(self, monkeypatch):
        # the witness spaces read T₊|R₁'s block off the local matrix and never build
        # the matrix itself; the hecke kernel check reads the block rank
        real = analysis.hecke_matrix
        builds = []

        def counting(ctx, domain, codomain):
            builds.append((domain, codomain))
            return real(ctx, domain, codomain)

        monkeypatch.setattr(analysis, "hecke_matrix", counting)
        rep = cli.run(dataclasses.replace(cli.config_from_preset("ramified-r1"), suites=["hecke", "mainlemma", "truncation"]))
        assert rep.verdict == "pass"
        assert builds.count((LevelRange("all", 1, 1), LevelRange("all", 2, 2))) == 0

    def test_timings_give_each_record_its_suite_time(self, monkeypatch):
        clock = iter([10.0, 11.0])  # one suite, timed at 1.0 s
        monkeypatch.setattr(cli, "perf_counter", lambda: next(clock))
        rep = cli.run(dataclasses.replace(make_cfg(), suites=["arith"]), timings=True)
        assert len(rep.records) > 1
        assert all(r.seconds == 1.0 for r in rep.records)

    def test_truncation_suite_records(self):
        rep = cli.run(dataclasses.replace(make_cfg(N_max=2), suites=["truncation"]))
        names = [r.name for r in rep.records]
        assert "truncation:N=1" in names and "truncation:N=2" in names
        assert "truncation:monotone-fixed-dims" in names
        assert "truncation:fixed-dim-at-least-2" in names
        assert rep.verdict == "pass"


class TestHeckeSuite:
    """The hecke suite checks the entry arrays of induction, which the certificates read."""

    @staticmethod
    def ranges(preset):
        ctx = cli.config_from_preset(preset).build()
        top = min(3, ctx.max_level())
        return ctx, LevelRange("all", 1, top - 1), LevelRange("all", 0, top)

    @staticmethod
    def hecke_statuses(argv_preset, capsys):
        code = cli.main(["verify", "--preset", argv_preset, "--suites", "hecke", "--format", "json"])
        records = json.loads(capsys.readouterr().out)["records"]
        return code, {r["name"]: r["status"] for r in records}

    @pytest.mark.parametrize("preset", sorted(cli.PRESETS))
    def test_records(self, preset):
        rep = cli.run(dataclasses.replace(cli.config_from_preset(preset), suites=["hecke"]))
        names = ["composite", "depth-triviality", "level-zero-guard", "tplus-kernel-R1", "u-equivariance"]
        assert [r.name for r in rep.records] == [f"hecke:{n}" for n in names]
        assert rep.verdict == "pass"
        ctx, domain, codomain = self.ranges(preset)
        composite = rep.records[0].dims
        assert composite["T_plus"] + composite["T_minus"] == hecke_entries(ctx, domain, codomain)[0].size
        assert rep.records[-1].dims == {"generators": len(analysis.u_generators(ctx, 3)), "top_level": 3}
        # the identity table checked for ϖ^{n+1}·c, each level n below the top and each generator c
        assert rep.records[1].dims == {"tables": 3 * len(analysis.u_generators(ctx, 3))}

    @pytest.mark.parametrize("preset", sorted(cli.PRESETS))
    def test_corrupted_translation_entry_fails(self, preset, monkeypatch, capsys):
        # one value of u - 1 on the codomain, on a row that T's image reaches
        ctx, domain, codomain = self.ranges(preset)
        reached = np.unique(hecke_entries(ctx, domain, codomain)[1])
        real = cli.translation_entries

        def corrupted(ctx, c, lr):
            rows, cols, vals = real(ctx, c, lr)
            if lr == codomain:
                k = np.flatnonzero(np.isin(rows, reached))[0]
                vals = vals.copy()
                vals[k] = ctx.weight.field.kk.ADD[vals[k], 1]
            return rows, cols, vals

        monkeypatch.setattr(cli, "translation_entries", corrupted)
        code, statuses = self.hecke_statuses(preset, capsys)
        assert code == 1 and statuses["hecke:u-equivariance"] == "fail"

    @pytest.mark.parametrize("preset", sorted(cli.PRESETS))
    def test_corrupted_hecke_entry_fails(self, preset, monkeypatch, capsys):
        real = cli.hecke_entries

        def corrupted(ctx, domain, codomain):
            rows, cols, vals = real(ctx, domain, codomain)
            vals = vals.copy()
            vals[0] = ctx.weight.field.kk.ADD[vals[0], 1]
            return rows, cols, vals

        monkeypatch.setattr(cli, "hecke_entries", corrupted)
        code, statuses = self.hecke_statuses(preset, capsys)
        assert code == 1 and statuses["hecke:u-equivariance"] == "fail"

    def test_level_zero_guard_fails_when_level_0_is_accepted(self, monkeypatch, capsys):
        real = cli.hecke_entries
        monkeypatch.setattr(cli, "hecke_entries", lambda ctx, d, c: real(ctx, d, c) if d.lo > 0 else (np.zeros(0),) * 3)
        code, statuses = self.hecke_statuses("ramified-r1", capsys)
        assert code == 1 and statuses["hecke:level-zero-guard"] == "fail"


class TestArithSuite:
    """The arith suite runs the ring's digit arithmetic on the carry kernels that the translation tables use."""

    @pytest.mark.parametrize("preset", sorted(cli.PRESETS))
    @pytest.mark.parametrize(
        "which, failing",
        [(1, ["arith:digit-roundtrip", "arith:witt-carry"]), (2, ["arith:digit-roundtrip"])],
        ids=["W", "Pi"],
    )
    def test_corrupted_table_kernel_fails(self, preset, which, failing, monkeypatch, capsys):
        # one entry of W (the division by ϖ) or of Π (the multiplication by ϖ) held by the ring's _arrays
        real = LocalRingCtx._arrays

        def corrupted(ring):
            arrays = list(real(ring))
            M = arrays[which] = arrays[which].copy()
            M[0, 0] = (M[0, 0] + 1) % ring.pM
            return tuple(arrays)

        monkeypatch.setattr(LocalRingCtx, "_arrays", corrupted)
        code = cli.main(["verify", "--preset", preset, "--suites", "arith", "--format", "json"])
        records = json.loads(capsys.readouterr().out)["records"]
        assert code == 1 and [r["name"] for r in records if r["status"] == "fail"] == failing


class TestEmit:
    def test_json_deterministic(self):
        cfg = make_cfg(suites=["negative"])
        a = cli.emit(cli.run(cfg), "json")
        b = cli.emit(cli.run(cfg), "json")
        assert a == b
        doc = json.loads(a)
        assert doc["verdict"] == "pass"
        assert set(doc) == {"version", "config", "records", "verdict"}

    def test_text_one_line_per_check(self):
        rep = cli.run(dataclasses.replace(make_cfg(), suites=["negative"]))
        text = cli.emit(rep, "text").decode()
        lines = text.strip().splitlines()
        assert lines[-1] == "verdict: pass"
        assert len(lines) == 2 + len(rep.records)

    def test_unknown_format(self):
        rep = cli.run(dataclasses.replace(make_cfg(), suites=["arith"]))
        for format in ("yaml", "structured"):
            with pytest.raises(ValueError):
                cli.emit(rep, format)

    def test_frontier_q25_report_digest(self):
        # the q = 25, D = 4 main lemma, whose report the benchmark checks only by its dims
        cfg = cli.config_from_mapping({"p": 5, "f": 2, "e": 1, "r": [1, 1], "suites": ["mainlemma"], "seed": 0})
        digest = hashlib.sha256(cli.emit(cli.run(cfg), "json")).hexdigest()
        assert digest == "3cc7484f920ecc01138ed78708751585adabf2deed33a076be5c8a5fca6d2359"

    def test_certified_route_report_digest(self, capsys):
        # truncation at N = 3 is beyond the sparse cap here, so this report takes the certified lower bound
        argv = ["verify", "--preset", "unramified-generic", "--suites", "mainlemma,truncation", "--trunc", "3", "--format", "json"]
        assert cli.main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "0840f106ce40e7f5f7db3a09c399c0558892b54cbc7fa6b0f1c8be01660714ee"

    def test_suites_override_is_echoed(self, capsys):
        # the echo names the suites that ran, not the preset's own list
        assert cli.main(["verify", "--preset", "ramified-r0", "--suites", "arith", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["config"]["suites"] == ["arith"]
        assert hashlib.sha256(out.encode()).hexdigest() == "47166f14902eddf077d31589bbc80308ae3bb31337be43758bb5489f3026125e"


class TestMain:
    def test_preset_pass(self, capsys):
        code = cli.main(["verify", "--preset", "ramified-r0", "--suites", "negative"])
        assert code == 0
        assert "verdict: pass" in capsys.readouterr().out

    def test_config_file_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text('p = 3\nf = 1\ne = 2\nr = [0]\nsuites = ["negative"]\n')
        out = tmp_path / "rep.json"
        code = cli.main(["verify", "--config", str(cfg), "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "pass"

    def test_exit_1_on_failure(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("p = 3\nf = 1\ne = 2\nr = [0]\ninject_failure = true\n")
        assert cli.main(["verify", "--config", str(cfg), "--suites", "negative"]) == 1

    def test_exit_2_on_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("p = 3\nf = 1\ne = 0\nr = [0]\n")
        assert cli.main(["verify", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines, argv",
        [
            ("seed = -1", []),
            ("", ["--seed", "-1"]),
            ("chi = 1.5", []),
            ("nu = [5, 7]", []),
        ],
        ids=["seed-config", "seed-flag", "chi-float", "nu-out-of-range"],
    )
    def test_exit_2_on_contract_holes(self, tmp_path, capsys, lines, argv):
        cfg = tmp_path / "c.txt"
        cfg.write_text(f'p = 3\nf = 1\ne = 2\nr = [0]\nsuites = ["arith"]\n{lines}\n')
        assert cli.main(["verify", "--config", str(cfg), *argv]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines",
        ["f = 1\nr = [1]\nE = [-3, 0, [2]]", "f = 2\nr = [1, 0]\nE = [[-3, 0], [0, 0], [1, 1]]"],
        ids=["f1", "f2"],
    )
    def test_exit_2_on_non_monic_eisenstein_coordinates(self, tmp_path, capsys, lines):
        cfg = tmp_path / "c.txt"
        cfg.write_text(f'p = 3\ne = 2\n{lines}\nsuites = ["mainlemma"]\n')
        assert cli.main(["verify", "--config", str(cfg)]) == 2
        assert "must be monic" in capsys.readouterr().err

    def test_report_path_with_hash(self, tmp_path, monkeypatch, capsys):
        # the whole quoted value is the path; a "#" inside it does not start a comment
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.txt").write_text('p = 3\nf = 1\ne = 2\nr = [0]\nsuites = ["negative"]\nout = "rep #1.txt"\n')
        assert cli.main(["verify", "--config", "c.txt"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.txt", "rep #1.txt"]
        assert "verdict: pass" in (tmp_path / "rep #1.txt").read_text()

    def test_exit_2_on_repeated_suite(self, capsys):
        assert cli.main(["verify", "--preset", "ramified-r0", "--suites", "arith,arith"]) == 2
        assert "repeat" in capsys.readouterr().err

    @pytest.mark.parametrize("selection", [",", "", ",,"])
    def test_exit_2_on_empty_suite_selection(self, selection, capsys):
        # a run that selects no suite checks nothing, so it must not print a pass
        assert cli.main(["verify", "--preset", "ramified-r0", "--suites", selection]) == 2
        captured = capsys.readouterr()
        assert "selects no suite" in captured.err and "verdict" not in captured.out

    def test_exit_2_on_empty_suites_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("p = 3\nf = 1\ne = 1\nr = [0]\nsuites = []\n")
        assert cli.main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "at least one suite" in captured.err and "verdict" not in captured.out

    def test_exit_2_on_non_utf8_config(self, tmp_path, capsys):
        # one Latin-1 byte in a comment is a config error at the file, not a traceback
        cfg = tmp_path / "c.txt"
        cfg.write_bytes(b"p = 3\nf = 1\ne = 1\nr = [0]\n# caf\xe9\n")
        assert cli.main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and str(cfg) in captured.err and "verdict" not in captured.out

    def test_exit_2_promptly_on_huge_prime(self, tmp_path):
        # p = 2^61 - 1 is prime, so trial division before the table cap would
        # spin for minutes; a child process turns that into a timeout, not a hang
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"p = {2**61 - 1}\nf = 1\ne = 2\nr = [0]\n")
        src = Path(cli.__file__).resolve().parent.parent
        code = "import sys; from indgl2 import cli; sys.exit(cli.main(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-c", code, "verify", "--config", str(cfg)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=30,
        )
        assert done.returncode == 2
        assert "table cap" in done.stderr

    def test_truncation_lower_bounds_are_marked(self, capsys):
        # beyond the sparse cap dim L_N^U is a certified lower bound; the sequence records say where
        assert cli.main(["verify", "--preset", "unramified-generic", "--suites", "truncation", "--trunc", "3", "--format", "json"]) == 0
        records = {r["name"]: r for r in json.loads(capsys.readouterr().out)["records"]}
        assert records["truncation:N=3"]["dims"]["dim_Ie"] > analysis.SPARSE_FIXED_CAP
        assert records["truncation:N=3"]["detail"] == "ln_u method=certified-lower-bound"
        mono, last = records["truncation:monotone-fixed-dims"], records["truncation:fixed-dim-at-least-2"]
        assert mono["dims"] == {"sequence": [3, 5, 5]} and mono["detail"] == "certified lower bound at N=3"
        assert last["dims"] == {"dim_LN_U": 5} and last["detail"] == "certified lower bound at N=3"
        # every entry exact: no detail
        assert cli.main(["verify", "--preset", "ramified-r1", "--suites", "truncation", "--trunc", "4", "--format", "json"]) == 0
        records = {r["name"]: r for r in json.loads(capsys.readouterr().out)["records"]}
        assert records["truncation:N=4"]["detail"] == "ln_u method=sparse"
        assert records["truncation:monotone-fixed-dims"]["dims"] == {"sequence": [3, 5, 7, 9]}
        assert records["truncation:monotone-fixed-dims"]["detail"] is None
        assert records["truncation:fixed-dim-at-least-2"]["detail"] is None

    def test_exit_2_on_truncation_with_no_depth(self, capsys):
        # a truncation suite with N_max = 0 checks nothing, so it must not print a pass
        assert cli.main(["verify", "--preset", "ramified-r1", "--suites", "truncation", "--trunc", "0"]) == 2
        captured = capsys.readouterr()
        assert "--trunc" in captured.err and "N_max >= 1" in captured.err and "verdict" not in captured.out

    def test_trunc_0_follows_selected_suites(self, tmp_path, capsys):
        # the preset lists the truncation suite, but this run does not select it
        assert cli.main(["verify", "--preset", "ramified-r0", "--suites", "arith", "--trunc", "0"]) == 0
        assert "verdict: pass" in capsys.readouterr().out
        cfg = tmp_path / "c.txt"
        cfg.write_text('p = 3\nf = 1\ne = 2\nr = [0]\nN_max = 0\nsuites = ["arith"]\n')
        assert cli.main(["verify", "--config", str(cfg)]) == 0
        assert cli.main(["verify", "--preset", "ramified-r0", "--suites", "arith", "--trunc", "0", "--seed", "3"]) == 0
        capsys.readouterr()
        # an empty selection is blamed on --suites, not on the override validated first
        assert cli.main(["verify", "--preset", "ramified-r0", "--suites", ",", "--trunc", "2"]) == 2
        assert "--suites: this run selects no suite" in capsys.readouterr().err

    def test_trunc_answers_for_selected_truncation_depth(self, tmp_path, capsys):
        # the config's N_max = 0 does not reject --suites truncation when --trunc sets the depth
        cfg = tmp_path / "c.txt"
        cfg.write_text('p = 3\nf = 1\ne = 2\nr = [0]\nN_max = 0\nsuites = ["arith"]\n')
        assert cli.main(["verify", "--config", str(cfg), "--suites", "truncation", "--trunc", "1"]) == 0
        assert "truncation:N=1" in capsys.readouterr().out

    def test_exit_2_on_truncation_with_no_depth_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text('p = 3\nf = 1\ne = 2\nr = [1]\nN_max = 0\nsuites = ["truncation"]\n')
        assert cli.main(["verify", "--config", str(cfg)]) == 2
        assert "N_max >= 1" in capsys.readouterr().err
        # the rule follows the suites that run: --suites may select the truncation suite
        cfg.write_text('p = 3\nf = 1\ne = 2\nr = [1]\nN_max = 0\nsuites = ["arith"]\n')
        assert cli.main(["verify", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert cli.main(["verify", "--config", str(cfg), "--suites", "truncation"]) == 2
        captured = capsys.readouterr()
        assert "N_max >= 1" in captured.err and "verdict" not in captured.out

    def test_mainlemma_run_does_not_import_numpy_ma(self):
        # the first np.unique of a process imports numpy.ma, 14-15 ms of a short run; checked on the
        # main lemma, on the exact truncation route and on the certified one
        src = Path(cli.__file__).resolve().parent.parent
        runs = [
            ["--preset", "unramified-generic", "--suites", "mainlemma"],
            ["--preset", "ramified-r1", "--suites", "truncation", "--trunc", "3"],
            ["--preset", "unramified-generic", "--suites", "mainlemma,truncation", "--trunc", "3"],
        ]
        for args in runs:
            code = (
                "import sys; from indgl2 import cli; "
                f"code = cli.main(['verify', *{args!r}]); "
                "print('numpy.ma' in sys.modules); sys.exit(code)"
            )
            done = subprocess.run(
                [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120
            )
            assert done.returncode == 0, args
            assert done.stdout.splitlines()[-1] == "False", args

    def test_run_without_random_suites_does_not_import_numpy_random(self):
        # only arith draws random elements; importing numpy.random costs 10-16 ms and 6 MB
        src = Path(cli.__file__).resolve().parent.parent
        code = (
            "import dataclasses, sys; from indgl2 import cli; "
            "rep = cli.run(dataclasses.replace(cli.config_from_preset('ramified-r1'), suites=['hecke', 'mainlemma', 'truncation'])); "
            "print(rep.verdict, 'numpy.random' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "pass False"

    def test_benchmark_tracer_finds_every_traced_name(self):
        # perfbench's Tracer names src functions; install raises if a src change drops one
        root = Path(cli.__file__).resolve().parents[2]
        code = (
            'import sys; sys.path[:0] = ["src", "perfbench"]; '
            "from indgl2 import cli; from tracing import Tracer; Tracer().install()"
        )
        done = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_random_suites_draw_from_their_seeded_generator(self):
        # the generator of a suite is seeded by seed + its index in SUITES, whichever suites run with it
        for name in cli.RANDOM_SUITES:
            alone = cli.emit(cli.run(dataclasses.replace(make_cfg(), suites=[name])), "json")
            together = cli.emit(cli.run(dataclasses.replace(make_cfg(), suites=["mainlemma", name])), "json")
            records = [r for r in json.loads(together)["records"] if r["name"].startswith(name + ":")]
            assert json.loads(alone)["records"] == records

    def test_exit_2_when_no_source(self, capsys):
        assert cli.main(["verify"]) == 2

    def test_exit_2_when_both_sources(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("p = 3\nf = 1\ne = 2\nr = [0]\n")
        assert cli.main(["verify", "--config", str(cfg), "--preset", "ramified-r0"]) == 2

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as ex:
            cli.main(["verify", "--format", "xml"])
        assert ex.value.code == 2

    def test_trunc_and_seed_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text('p = 3\nf = 1\ne = 2\nr = [0]\nsuites = ["truncation"]\n')
        code = cli.main(["verify", "--config", str(cfg), "--trunc", "1", "--seed", "11"])
        assert code == 0
        out = capsys.readouterr().out
        assert "truncation:N=1" in out and "truncation:N=2" not in out

    @pytest.mark.parametrize(
        "lines, need",
        [
            ("N = 2", "N >= 3"),  # every suite but negative needs R₂
            ("N = 4\nN_max = 2", "N >= 5"),  # truncation to N_max = 2 needs 2·2+1
            ("N = 3\nN_max = 2", "N >= 5"),
        ],
        ids=["N=2", "N=4-trunc2", "N=3-trunc2"],
    )
    def test_exit_2_when_precision_too_small(self, tmp_path, capsys, lines, need):
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"p = 3\nf = 1\ne = 2\nr = [1]\n{lines}\n")
        assert cli.main(["verify", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and need in err

    def test_precision_check_follows_selected_suites(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("p = 3\nf = 1\ne = 2\nr = [1]\nN = 3\nN_max = 2\n")
        assert cli.main(["verify", "--config", str(cfg), "--suites", "arith,mainlemma"]) == 0
        assert cli.main(["verify", "--config", str(cfg), "--suites", "truncation", "--trunc", "1"]) == 0

    def test_readme_config_example(self, tmp_path, capsys):
        blocks = re.findall(r"```\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        example = next(b for b in blocks if "suites = " in b)
        cfg = tmp_path / "c.txt"
        cfg.write_text(example)
        assert cli.main(["verify", "--config", str(cfg)]) == 0
        assert "verdict: pass" in capsys.readouterr().out

    def test_readme_cli_lines(self, tmp_path, monkeypatch, capsys):
        # every `indgl2 verify` line of the README's CLI block, run from a
        # directory holding the README config example as myconfig.txt
        blocks = re.findall(r"```\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        example = next(b for b in blocks if "suites = " in b)
        commands = next(b for b in blocks if b.startswith("indgl2 verify")).splitlines()
        assert len(commands) == 3
        (tmp_path / "myconfig.txt").write_text(example)
        monkeypatch.chdir(tmp_path)
        for line in commands:
            argv = shlex.split(line)
            assert argv[0] == "indgl2"
            assert cli.main(argv[1:]) == 0, line
        assert json.loads((tmp_path / "report.json").read_text())["verdict"] == "pass"

    def test_q49_arith_beyond_cubed_int64(self, tmp_path, capsys):
        # p^{3M} > 2^63 here: Galois-ring products must be reduced before they wrap
        cfg = tmp_path / "c.txt"
        cfg.write_text('p = 7\nf = 2\ne = 1\nr = [1, 1]\nN = 7\nsuites = ["arith"]\n')
        assert cli.main(["verify", "--config", str(cfg)]) == 0
        assert "verdict: pass" in capsys.readouterr().out

    def test_exit_2_when_precision_beyond_int64(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text('p = 7\nf = 2\ne = 1\nr = [1, 1]\nN = 20\nsuites = ["arith"]\n')
        assert cli.main(["verify", "--config", str(cfg)]) == 2
        assert "int64" in capsys.readouterr().err

    def test_determinism_across_processes(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text('p = 3\nf = 1\ne = 2\nr = [1]\nsuites = ["arith", "hecke"]\nseed = 5\n')
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert cli.main(["verify", "--config", str(cfg), "--format", "json", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


FUZZ = settings(derandomize=True, database=None, deadline=None, suppress_health_check=[HealthCheck.too_slow])
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(), st.text(max_size=4))
_ANY = _SCALARS | st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def _valid_configs(draw):
    """A valid configuration, small enough for the arith suite to take well under a second."""
    p = draw(st.sampled_from([2, 3, 5]))
    f, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    cfg = {"p": p, "f": f, "e": draw(st.integers(1, 3)), "m": m}
    cfg["r"] = draw(st.lists(st.integers(0, p - 1), min_size=f, max_size=f))
    optional = {
        "chi": st.integers(-2, 5),
        "nu": st.lists(st.integers(0, p - 1), min_size=f * m, max_size=f * m),
        "N": st.integers(3, 8),
        "N_max": st.integers(0, 3),
        "seed": st.integers(0, 5),
    }
    for key in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        cfg[key] = draw(optional[key])
    return cfg


@st.composite
def _arbitrary_mappings(draw):
    """A valid configuration with one or two keys, known or not, set to arbitrary values."""
    cfg = draw(_valid_configs())
    for key in draw(st.lists(st.sampled_from(sorted(cli._CONFIG_KEYS) + ["bogus"]), min_size=1, max_size=2, unique=True)):
        cfg[key] = draw(_ANY)
    return cfg


@st.composite
def _grid_configs(draw):
    """A valid configuration with at most one key set to a typical bad value."""
    cfg = draw(_valid_configs())
    bad = {
        "p": st.sampled_from([0, 4, 1.5, "3"]),
        "f": st.sampled_from([0, -1, True]),
        "r": st.lists(st.integers(-1, 5), max_size=3),
        "chi": st.one_of(st.floats(-2, 5), st.text(max_size=2)),
        "nu": st.lists(st.integers(-1, 8), max_size=4),
        "E": st.one_of(st.lists(st.integers(-9, 9), max_size=4), st.just([[3, 0], [0, 0], 1]), st.text(max_size=2)),
        "N": st.integers(-1, 2),
        "seed": st.integers(-3, -1),
    }
    key = draw(st.none() | st.sampled_from(sorted(bad)))
    if key is not None:
        cfg[key] = draw(bad[key])
    return cfg


class TestContractFuzz:
    """Arbitrary configurations end in ConfigError, never in another exception;
    main() on a small grid exits 0, 1 or 2 and lets no exception escape."""

    @FUZZ
    @given(mapping=_arbitrary_mappings())
    def test_mapping_raises_only_config_error(self, mapping):
        try:
            cfg = cli.config_from_mapping(mapping)
            cfg.check_precision(cfg.suites)
        except ConfigError:
            pass

    @FUZZ
    @given(mapping=_grid_configs(), seed=st.one_of(st.none(), st.integers(-2, 5)), trunc=st.one_of(st.none(), st.integers(-1, 2)))
    def test_main_exit_codes(self, tmp_path_factory, mapping, seed, trunc):
        cfg = tmp_path_factory.getbasetemp() / "fuzz.txt"
        cfg.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in mapping.items()))
        argv = ["verify", "--config", str(cfg), "--suites", "arith", "--format", "json"]
        argv += ["--seed", str(seed)] if seed is not None else []
        argv += ["--trunc", str(trunc)] if trunc is not None else []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) in (0, 1, 2)
