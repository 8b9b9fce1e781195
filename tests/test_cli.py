import hashlib
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import wsections
from wsections import cli, poly

SRC = str(Path(wsections.__file__).parents[1])


def fresh_python(*args, cwd=None):
    """Run python with the package on its path, in a new process."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, check=True
    )


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_ascii_stage3_golden(self, capsys):
        code, out, _ = run(["construct", "-c", "2,1,1,2", "--stage", "3"], capsys)
        assert code == 0
        assert "2 -[1]-> 4" in out
        assert "3 -[0]-> 6" in out
        assert "3 -[0]-> 4  gated@2" in out
        assert "e = x[1,3] + x[2,4] + x[4,5]" in out
        assert "V = span{ x[3,4], x[3,6] }" in out

    def test_stage2_figure_labels(self, capsys):
        code, out, _ = run(
            ["construct", "-c", "3,2,1,1,2,3", "--stage", "2", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        labels = {(l["from"], l["to"]): l["label"] for l in doc["lines"]}
        assert labels[(6, 7)] == 0 and labels[(5, 9)] == 0 and labels[(3, 12)] == 0
        assert labels[(1, 4)] == 1 and labels[(9, 11)] == 1

    def test_single_column(self, capsys):
        code, out, _ = run(["construct", "-c", "5"], capsys)
        assert code == 0
        assert "lines: none" in out

    def test_json_deterministic(self, capsys):
        args = ["construct", "-c", "2,1,1,2", "--format", "json"]
        _, first, _ = run(args, capsys)
        _, second, _ = run(args, capsys)
        assert first == second

    def test_tikz_and_svg_emit(self, capsys, tmp_path):
        code, out, _ = run(
            ["construct", "-c", "2,1,1,2", "--format", "tikz", "-o", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert out.startswith("\\documentclass[tikz]{standalone}")
        assert "\\begin{tikzpicture}" in out and "\\end{tikzpicture}" in out
        written = tmp_path / "construct-2-1-1-2-stage3.tex"
        assert written.read_text() == out

        code, out, _ = run(["construct", "-c", "2,1,1,2", "--format", "svg"], capsys)
        assert code == 0
        assert out.startswith("<svg ") and out.rstrip().endswith("</svg>")

    @pytest.mark.parametrize(
        "fmt, ext", [("ascii", "txt"), ("json", "json"), ("tikz", "tex"), ("svg", "svg")]
    )
    def test_out_dir_file_holds_stdout(self, capsys, tmp_path, fmt, ext):
        argv = ["construct", "-c", "2,1,1,2", "--stage", "2", "--format", fmt]
        code, out, _ = run(argv + ["-o", str(tmp_path)], capsys)
        assert code == 0
        assert [f.name for f in tmp_path.iterdir()] == [f"construct-2-1-1-2-stage2.{ext}"]
        assert (tmp_path / f"construct-2-1-1-2-stage2.{ext}").read_bytes() == out.encode()

    def test_parse_error_exit_2(self, capsys, tmp_path):
        code, _, err = run(["construct", "-c", "2,x"], capsys)
        assert code == 2 and "error" in err
        code, _, err = run(["construct", "-c", "0,1"], capsys)
        assert code == 2
        for text in ("1_0", "+3", "2,\u0663", "\uff12"):
            for command in ("construct", "verify"):
                code, _, err = run([command, "-c", text, "-o", str(tmp_path)], capsys)
                assert code == 2 and "cannot parse" in err
        assert not list(tmp_path.iterdir())

    def test_oversized_composition_exit_1(self, capsys, tmp_path):
        for text in ("99999999999999999999", "10001", "9" * 5000):
            for command in ("construct", "verify"):
                code, _, err = run([command, "-c", text, "-o", str(tmp_path)], capsys)
                assert code == 1 and err.startswith("error: n = ") and "limit" in err
        assert not list(tmp_path.iterdir())

    def test_leftmost_stage3_rejected(self, capsys):
        code, _, err = run(
            ["construct", "-c", "2,3,2", "--mode", "leftmost", "--stage", "3"], capsys
        )
        assert code == 2 and "rightmost" in err

    # SHA-256 over `construct` in every format, stage and mode, on four small
    # compositions and the 17-column array of Figure 1: each call's exit
    # code, stdout and stderr in turn.  Stage 1 ignores the mode, and a
    # leftmost stage 3 is the exit-2 error.
    CONSTRUCT_DIGEST = "88a5477cf333041ab62679780a2ce834155a0af493288383e97b5fb886bd238a"

    def test_construct_golden_digest(self, capsys):
        digest = hashlib.sha256()
        figure_1 = "2,3,1,1,1,3,3,1,1,1,1,3,3,3,1,1,2"
        for comp, fmt, stage, mode in product(
            ("2,1,1,2", "3,2,1,1,2,3", "5", "1,2,1,3,2,1", figure_1),
            ("ascii", "json", "tikz", "svg"),
            ("1", "2", "3"),
            ("rightmost", "leftmost"),
        ):
            argv = ["construct", "-c", comp, "--format", fmt, "--stage", stage, "--mode", mode]
            code, out, err = run(argv, capsys)
            digest.update(f"{code}\n{out}{err}".encode())
        assert digest.hexdigest() == self.CONSTRUCT_DIGEST


class TestVerify:
    def test_golden_pass(self, capsys, tmp_path):
        code, out, _ = run(
            ["verify", "-c", "2,1,1,2", "-o", str(tmp_path)], capsys
        )
        assert code == 0
        assert "pass" in out
        report = json.loads((tmp_path / "verify-2-1-1-2.json").read_text())
        assert report["schema"] == "ws-report/2"
        assert report["pass"] is True
        assert report["g"] == 2 and report["dim_m"] == 13
        restrictions = {p["restriction"] for p in report["pairs"]}
        assert restrictions == {"x[3,4]", "x[3,6]"}

    def test_report_lists_invariants_1221(self, capsys, tmp_path):
        code, _, _ = run(["verify", "-c", "1,2,2,1", "-o", str(tmp_path)], capsys)
        assert code == 0
        report = json.loads((tmp_path / "verify-1-2-2-1.json").read_text())
        by_pair = {tuple(p["pair"]): p["invariant"] for p in report["pairs"]}
        quadratic = "x[2,4]*x[3,5] - x[2,5]*x[3,4]"
        cubic = (
            "x[1,2]*x[2,4]*x[4,6] + x[1,2]*x[2,5]*x[5,6]"
            " + x[1,3]*x[3,4]*x[4,6] + x[1,3]*x[3,5]*x[5,6]"
        )
        assert by_pair[(2, 3)] == quadratic
        assert by_pair[(1, 4)] == cubic

    def test_trivial_composition(self, capsys, tmp_path):
        code, out, _ = run(["verify", "-c", "1", "-o", str(tmp_path)], capsys)
        assert code == 0
        report = json.loads((tmp_path / "verify-1.json").read_text())
        assert report["g"] == 0 and report["pass"] is True

    def test_det_bound_skips_not_fails(self, capsys, tmp_path):
        code, out, _ = run(
            ["verify", "-c", "2,1,1,2", "--det-size-bound", "3", "-o", str(tmp_path)],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "verify-2-1-1-2.json").read_text())
        assert report["pass"] is True
        assert len(report["skipped"]) == 1
        outer = [p for p in report["pairs"] if p["pair"] == [1, 4]][0]
        assert outer["degree_observed"] is None

    def test_bound_flag_admits_minor_of_its_size(self, capsys, tmp_path):
        code, _, _ = run(
            ["verify", "-c", "2,1,1,2", "--det-size-bound", "4", "-o", str(tmp_path)],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "verify-2-1-1-2.json").read_text())
        assert report["skipped"] == []

    def test_bad_bound_flag_exit_2(self, capsys, tmp_path):
        for command in (["verify", "-c", "2,1,1,2"], ["sweep", "--n-max", "2"]):
            code, _, err = run(command + ["--det-size-bound", "0", "-o", str(tmp_path)], capsys)
            assert code == 2 and "at least 1" in err
            with pytest.raises(SystemExit) as exc:
                cli.main(command + ["--det-size-bound", "abc", "-o", str(tmp_path)])
            assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    def test_negative_bound_flag_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            ["verify", "-c", "2,1,1,2", "--det-size-bound", "-1", "-o", str(tmp_path)],
            capsys,
        )
        assert code == 2 and "at least 1" in err
        assert not list(tmp_path.iterdir())

    def test_unwritable_out_dir_exit_2(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run(["verify", "-c", "2,1,1,2", "-o", str(blocker / "x")], capsys)
        assert code == 2 and err.startswith("error: cannot write")
        code, _, err = run(["construct", "-c", "2,1,1,2", "-o", str(blocker / "x")], capsys)
        assert code == 2 and err.startswith("error: cannot write")

    def test_failure_exit_1(self, capsys, tmp_path, monkeypatch):
        broken = {
            "schema": "ws-report/2",
            "composition": [2],
            "g": 0,
            "dim_m": 0,
            "checks": {"density": False},
            "pairs": [],
            "skipped": [],
            "lines": {"step1": 0, "zeros": 0, "ones": 0},
            "separation": {},
            "density": {},
            "pass": False,
        }
        monkeypatch.setattr(cli, "verify_composition", lambda *a, **k: broken)
        code, out, _ = run(["verify", "-c", "2", "-o", str(tmp_path)], capsys)
        assert code == 1
        assert "FAIL" in out and "density" in out

    def test_restriction_over_memo_budget_exit_1(self, capsys, tmp_path, monkeypatch):
        # Pair (1,4) of 1,2,2,1 restricts through 12 table entries.
        monkeypatch.setattr(poly, "MEMO_BUDGET", 9)
        code, _, err = run(["verify", "-c", "1,2,2,1", "-o", str(tmp_path)], capsys)
        assert code == 1 and err.startswith("error: determinant of size 5")
        assert not list(tmp_path.iterdir())


class TestSweep:
    def test_n_max_4_all_pass(self, capsys, tmp_path):
        code, out, _ = run(["sweep", "--n-max", "4", "-o", str(tmp_path)], capsys)
        assert code == 0
        payload = json.loads((tmp_path / "sweep-n4.json").read_text())
        assert payload["summary"] == {
            "total": 15,
            "passed": 15,
            "failed": 0,
            "skipped_degree_checks": 0,
        }
        assert [r["composition"] for r in payload["rows"]][:3] == [[1], [1, 1], [2]]

    def test_summary_counts_skipped_checks(self, capsys, tmp_path):
        argv = ["sweep", "--n-max", "5", "--det-size-bound", "2", "-o", str(tmp_path)]
        code, out, _ = run(argv, capsys)
        assert code == 0
        payload = json.loads((tmp_path / "sweep-n5.json").read_text())
        assert payload["summary"] == {
            "total": 31,
            "passed": 31,
            "failed": 0,
            "skipped_degree_checks": 5,
        }
        assert sum(len(row["skipped"]) for row in payload["rows"]) == 5
        assert "31 compositions, 0 failures, 5 skipped degree checks" in out

    def test_summary_counts_failed_rows(self, capsys, tmp_path, monkeypatch):
        real = cli.verify_composition

        def failing_one(parts, det_bound=None):
            report = real(parts, det_bound)
            return {**report, "pass": False} if parts == (1, 2) else report

        monkeypatch.setattr(cli, "verify_composition", failing_one)
        code, out, _ = run(["sweep", "--n-max", "3", "-o", str(tmp_path)], capsys)
        assert code == 1
        payload = json.loads((tmp_path / "sweep-n3.json").read_text())
        assert payload["summary"] == {
            "total": 7,
            "passed": 6,
            "failed": 1,
            "skipped_degree_checks": 0,
        }
        assert [row["composition"] for row in payload["rows"] if not row["pass"]] == [[1, 2]]
        assert "7 compositions, 1 failures, 0 skipped degree checks" in out

    def test_deterministic_output(self, capsys, tmp_path):
        run(["sweep", "--n-max", "3", "-o", str(tmp_path / "a")], capsys)
        run(["sweep", "--n-max", "3", "-o", str(tmp_path / "b")], capsys)
        a = (tmp_path / "a" / "sweep-n3.json").read_bytes()
        b = (tmp_path / "b" / "sweep-n3.json").read_bytes()
        assert a == b

    def test_n_max_guard(self, capsys):
        code, _, err = run(["sweep", "--n-max", "13"], capsys)
        assert code == 2 and "capped" in err

    def test_n_max_below_1_exit_2(self, capsys, tmp_path):
        for n_max in ("0", "-3"):
            code, _, err = run(["sweep", "--n-max", n_max, "-o", str(tmp_path)], capsys)
            assert code == 2 and "at least 1" in err
        assert not list(tmp_path.iterdir())

    def test_n_max_1(self, capsys, tmp_path):
        code, _, _ = run(["sweep", "--n-max", "1", "-o", str(tmp_path)], capsys)
        assert code == 0
        payload = json.loads((tmp_path / "sweep-n1.json").read_text())
        assert payload["summary"]["total"] == 1


class TestParserContract:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_composition(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["construct"])
        assert err.value.code == 2


class TestParserReuse:
    """main builds its parser once per process; no call leaks into the next."""

    def test_bound_flag_does_not_stick(self, capsys, tmp_path, monkeypatch):
        bounds = []
        real = cli.verify_composition

        def recording(parts, det_bound=None):
            bounds.append(det_bound)
            return real(parts, det_bound)

        monkeypatch.setattr(cli, "verify_composition", recording)
        for extra in (["--det-size-bound", "4"], []):
            code, _, _ = run(["verify", "-c", "2,1,1,2", "-o", str(tmp_path), *extra], capsys)
            assert code == 0
        assert bounds == [4, None]

    def test_stage_flag_does_not_stick(self, capsys):
        _, stage1, _ = run(["construct", "-c", "2,1,1,2", "--stage", "1"], capsys)
        _, bare, _ = run(["construct", "-c", "2,1,1,2"], capsys)
        _, stage3, _ = run(["construct", "-c", "2,1,1,2", "--stage", "3"], capsys)
        assert "stage: step1" in stage1
        assert bare == stage3 != stage1

    def test_valid_call_after_argparse_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "-c", "2,1,1,2", "--det-size-bound", "abc"])
        assert err.value.code == 2
        code, out, _ = run(["verify", "-c", "2,1,1,2", "-o", str(tmp_path)], capsys)
        assert code == 0 and "pass" in out

    def test_patch_after_first_call_is_honoured(self, capsys, tmp_path, monkeypatch):
        assert run(["verify", "-c", "2", "-o", str(tmp_path)], capsys)[0] == 0
        report = json.loads((tmp_path / "verify-2.json").read_text())
        monkeypatch.setattr(cli, "verify_composition", lambda *a: {**report, "pass": False})
        code, out, _ = run(["verify", "-c", "2", "-o", str(tmp_path)], capsys)
        assert code == 1 and "FAIL" in out

    def test_parser_built_once_and_not_at_import(self, capsys, tmp_path):
        run(["construct", "-c", "2,1"], capsys)
        built = cli.build_parser.cache_info().misses
        commands = (["construct", "-c", "1,2"], ["verify", "-c", "1,1", "-o", str(tmp_path)])
        for command in commands * 5:
            run(command, capsys)
        assert cli.build_parser.cache_info().misses == built
        assert cli.build_parser() is cli.build_parser()
        probe = "import wsections.cli as c; print(c.build_parser.cache_info().misses)"
        assert fresh_python("-c", probe).stdout == "0\n"

    @pytest.mark.parametrize("composition", ["2,1,1,2", "2,1,3,1,2,3"])
    @pytest.mark.parametrize("bound", [[], ["--det-size-bound", "6"]])
    def test_in_process_reports_match_a_fresh_process(self, capsys, tmp_path, composition, bound):
        argv = ["verify", "-c", composition, *bound]
        for rerun in ("a", "b"):
            run(argv + ["-o", str(tmp_path / rerun)], capsys)
        fresh_python("-m", "wsections", *argv, "-o", str(tmp_path / "fresh"))
        name = f"verify-{composition.replace(',', '-')}.json"
        fresh = (tmp_path / "fresh" / name).read_bytes()
        assert (tmp_path / "a" / name).read_bytes() == fresh
        assert (tmp_path / "b" / name).read_bytes() == fresh
