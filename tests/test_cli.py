"""Command-line behavior: exit codes, profiles, suppression, formats."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from conftest import (
    SAMPLE_NAMES,
    elif_chain,
    parses_in_this_python,
    sample_path,
    sample_source,
)

import qlint
from qlint import Config, analyze_paths
from qlint.cli import run
from qlint.analyses import DEFAULT_PROFILE, RULE_IDS


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_default_profile_on_two_bug_demo(self, capsys):
        code, out, _ = _run(capsys, "check", sample_path("two_bugs"))
        assert code == 1
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert "op-after-meas" in lines[0]
        assert "oversized-circuit" not in out

    def test_all_profile_on_two_bug_demo(self, capsys):
        code, out, _ = _run(capsys, "check", sample_path("two_bugs"), "--profile", "all")
        assert code == 1
        assert len(out.strip().splitlines()) == 2
        assert "oversized-circuit" in out
        assert "op-after-meas" in out

    def test_clean_file_exits_zero_with_no_output(self, capsys, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("qc = QuantumCircuit(2, 2)\nqc.h(0)\nqc.h(1)\n", "utf-8")
        code, out, _ = _run(capsys, "check", str(clean))
        assert code == 0
        assert out == ""

    def test_unknown_rule_id_is_a_usage_error(self, capsys):
        code, _, err = _run(
            capsys, "check", sample_path("two_bugs"), "--select", "no-such-rule"
        )
        assert code == 2
        assert "no-such-rule" in err

    def test_select_disable_overlap_rejected(self, capsys):
        code, _, err = _run(
            capsys,
            "check",
            sample_path("two_bugs"),
            "--select",
            "double-meas",
            "--disable",
            "double-meas",
        )
        assert code == 2

    def test_unreadable_path_is_a_tool_error(self, capsys):
        code, _, err = _run(capsys, "check", "/no/such/path.py")
        assert code == 2
        assert "error" in err

    def test_syntax_error_file_skipped_not_fatal(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(:\n", "utf-8")
        code, out, err = _run(capsys, "check", str(bad))
        assert code == 0
        assert "skipped" in err
        assert out == ""

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        code, _, _ = _run(capsys)
        assert code == 2

    def test_bad_flag_value_is_a_usage_error(self, capsys):
        code, _, _ = _run(capsys, "check", sample_path("two_bugs"), "--format", "yaml")
        assert code == 2

    def test_removed_jobs_flag_is_a_usage_error(self, capsys):
        code, _, err = _run(capsys, "check", sample_path("two_bugs"), "--jobs", "2")
        assert code == 2
        assert "--jobs" in err

    def test_byte_order_mark_is_decoded(self, capsys, tmp_path):
        plain = sample_path("two_bugs")
        bom = tmp_path / "two_bugs.py"
        bom.write_text(sample_source("two_bugs"), "utf-8-sig")
        expected = _run(capsys, "check", plain, "--profile", "all")
        code, out, err = _run(capsys, "check", str(bom), "--profile", "all")
        assert (code, out.replace(str(bom), plain), err) == expected
        assert expected[0] == 1

    def test_nul_byte_file_is_skipped_and_does_not_hide_other_files(self, capsys, tmp_path):
        nul = tmp_path / "nul.py"
        nul.write_bytes(b"x = 1\n\0\n")
        bug = tmp_path / "two_bugs.py"
        bug.write_text(sample_source("two_bugs"), "utf-8")
        _, alone, _ = _run(capsys, "check", str(bug), "--profile", "all")
        code, out, err = _run(capsys, "check", str(tmp_path), "--profile", "all")
        assert (code, out) == (1, alone)
        assert [line.split()[1] for line in out.splitlines()] == [
            "oversized-circuit",
            "op-after-meas",
        ]
        assert len(err.splitlines()) == 1
        assert err.startswith(f"qlint: skipped {nul}: syntax error at line 1: ")

    def test_long_elif_chain_does_not_hide_other_files(self, capsys, tmp_path):
        chain = elif_chain(1000)
        if not parses_in_this_python(chain):
            pytest.skip("ast.parse itself runs out of stack on this chain")
        (tmp_path / "chain.py").write_text(chain, "utf-8")
        bug = tmp_path / "two_bugs.py"
        bug.write_text(sample_source("two_bugs"), "utf-8")
        _, alone, _ = _run(capsys, "check", str(bug), "--profile", "all")
        code, out, err = _run(capsys, "check", str(tmp_path), "--profile", "all")
        assert (code, out, err) == (1, alone, "")
        assert [line.split()[1] for line in out.splitlines()] == [
            "oversized-circuit",
            "op-after-meas",
        ]


class TestModuleEntryPoint:
    @pytest.mark.parametrize("module", ["qlint", "qlint.cli"])
    def test_python_m_checks_files(self, module):
        paths = [str(Path(qlint.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        done = subprocess.run(
            [sys.executable, "-m", module, "check", sample_path("two_bugs"), "--profile", "all"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 1
        assert [line.split()[1] for line in done.stdout.splitlines()] == [
            "oversized-circuit",
            "op-after-meas",
        ]


class TestSourceEncoding:
    """Files are decoded as Python decodes them (PEP 263)."""

    BODY = (
        'name = "caf\u00e9"\n'
        "qc = QuantumCircuit(1, 1)\n"
        "qc.measure(0, 0)\n"
        "qc.measure(0, 0)\n"
    )

    @pytest.mark.parametrize(
        "header",
        [
            "# -*- coding: latin-1 -*-\n",
            "#!/usr/bin/env python\n# vim: set fileencoding=iso-8859-1 :\n",
            "\n# coding=latin-1\n",
        ],
    )
    def test_coding_cookie_is_honoured(self, capsys, tmp_path, header):
        (tmp_path / "lat.py").write_bytes((header + self.BODY).encode("latin-1"))
        (tmp_path / "two_bugs.py").write_text(sample_source("two_bugs"), "utf-8")
        code, out, err = _run(capsys, "check", str(tmp_path))
        bug_line = header.count("\n") + 4
        assert (code, err) == (1, "")
        assert f"{tmp_path / 'lat.py'}:{bug_line}:1 double-meas " in out
        assert f"{tmp_path / 'two_bugs.py'}:10:1 op-after-meas " in out

    @pytest.mark.parametrize(
        "header, encoding",
        [
            # `coding` in a string on line 5 is no cookie: the file is UTF-8.
            ("\n\n", "utf-8"),
            ("#!/usr/bin/env python\n# coding: latin-1\n", "latin-1"),
        ],
    )
    def test_text_is_decoded_by_the_cookie_lines_only(self, capsys, tmp_path, header, encoding):
        # Columns count characters, so a wrong decoding moves the warning.
        path = tmp_path / "enc.py"
        body = "qc = QuantumCircuit(1, 1)\nqc.measure(0, 0)\n"
        body += 's = "coding: latin-1 \u00e9"; qc.measure(0, 0)\n'
        path.write_bytes((header + body).encode(encoding))
        code, out, err = _run(capsys, "check", str(path))
        assert (code, err) == (1, "")
        assert out.startswith(f"{path}:5:26 double-meas ")

    def test_cookie_after_a_code_line_is_ignored(self, capsys, tmp_path):
        # Python rejects the Latin-1 byte on line 3 with a SyntaxError, so
        # the file is skipped like any file that does not parse.
        lat = tmp_path / "lat.py"
        lat.write_bytes(("x = 1\n# coding: latin-1\n" + self.BODY).encode("latin-1"))
        code, out, err = _run(capsys, "check", str(lat))
        assert (code, out) == (0, "")
        assert err.startswith(
            f"qlint: skipped {lat}: syntax error at line 3: 'utf-8' codec can't decode byte 0xe9"
        )

    def test_unknown_encoding_is_skipped(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_bytes(b"#!/usr/bin/env python\r\n# coding: uft-8\r\nx = 1\r\n")
        code, out, err = _run(capsys, "check", str(bad), "--format", "json")
        assert code == 0
        assert json.loads(out)["files_skipped"] == [
            {"file": str(bad), "line": 2, "message": "unknown encoding: uft-8"}
        ]
        assert err == f"qlint: skipped {bad}: syntax error at line 2: unknown encoding: uft-8\n"

    def test_undecodable_file_after_a_bom_is_skipped_at_its_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_bytes(b"\xef\xbb\xbfa = 1\n\xe9\n")
        (tmp_path / "two_bugs.py").write_text(sample_source("two_bugs"), "utf-8")
        code, out, err = _run(capsys, "check", str(tmp_path))
        assert code == 1  # the warning in two_bugs.py
        assert f"{tmp_path / 'two_bugs.py'}:10:1 op-after-meas " in out
        assert err.startswith(f"qlint: skipped {bad}: syntax error at line 2: 'utf-8' codec")


class TestUnreadableFile:
    """A file that cannot be read is named on stderr; the others still report."""

    def _mixed(self, tmp_path):
        # A dangling link: reading it fails even as root, unlike `chmod 000`.
        (tmp_path / "broken.py").symlink_to(tmp_path / "missing.py")
        (tmp_path / "two_bugs.py").write_text(sample_source("two_bugs"), "utf-8")
        return tmp_path

    def test_check_reports_the_readable_file(self, capsys, tmp_path):
        mixed = self._mixed(tmp_path)
        bug = str(mixed / "two_bugs.py")
        _, alone, _ = _run(capsys, "check", bug, "--profile", "all")
        assert [line.split()[1] for line in alone.splitlines()] == [
            "oversized-circuit",
            "op-after-meas",
        ]
        code, out, err = _run(capsys, "check", str(mixed), "--profile", "all")
        assert code == 2
        assert out == alone
        assert err.startswith(f"qlint: error: cannot read {mixed / 'broken.py'}: [Errno 2]")

    def test_serial_and_parallel_agree(self, capsys, tmp_path):
        mixed = str(self._mixed(tmp_path))
        code, out, _ = _run(capsys, "check", mixed, "--format", "json")
        assert code == 2
        doc = json.loads(out)
        assert doc["files_analyzed"] == [str(tmp_path / "two_bugs.py")]
        assert doc["summary"]["op-after-meas"] == 1

    def test_corpus_reports_the_readable_file(self, capsys, tmp_path):
        code, out, err = _run(capsys, "corpus", str(self._mixed(tmp_path)))
        assert code == 2
        assert "op-after-meas,1,100.0" in out
        assert "broken.py" in err
        assert "analyzed 1 files" in err

    def test_directory_named_like_a_source_file_is_not_read(self, capsys, tmp_path):
        (tmp_path / "pkg.py").mkdir()
        (tmp_path / "pkg.py" / "two_bugs.py").write_text(sample_source("two_bugs"), "utf-8")
        code, out, err = _run(capsys, "check", str(tmp_path))
        assert (code, err) == (1, "")
        assert f"{tmp_path / 'pkg.py' / 'two_bugs.py'}:10:1 op-after-meas " in out


class TestInternalError:
    """A file on which qlint raises is named on stderr; the others still report."""

    # 1,000 terms: `ast.parse` accepts it, and the extractor's recursion does not.
    DEEP_SUM = "n = " + "+".join(["1"] * 1000) + "\n"

    def _mixed(self, tmp_path):
        (tmp_path / "deep.py").write_text(self.DEEP_SUM, "utf-8")
        (tmp_path / "two_bugs.py").write_text(sample_source("two_bugs"), "utf-8")
        return tmp_path

    def test_check_reports_the_other_file(self, capsys, tmp_path):
        mixed = self._mixed(tmp_path)
        _, alone, _ = _run(capsys, "check", str(mixed / "two_bugs.py"))
        assert alone.split()[1] == "op-after-meas"
        code, out, err = _run(capsys, "check", str(mixed))
        assert code == 2
        assert out == alone
        assert err.startswith(f"qlint: error: {mixed / 'deep.py'}: internal error: RecursionError: ")
        assert err.count("\n") == 1

    def test_corpus_reports_the_other_file(self, capsys, tmp_path):
        mixed = self._mixed(tmp_path)
        code, out, err = _run(capsys, "corpus", str(mixed))
        assert code == 2
        assert "op-after-meas,1,100.0" in out
        assert "analyzed 1 files, 1 warnings" in err
        assert f"{mixed / 'deep.py'}: internal error: RecursionError: " in err


class TestRuleSelection:
    def test_select_adds_to_default_profile(self, capsys):
        code, out, _ = _run(
            capsys, "check", sample_path("two_bugs"), "--select", "oversized-circuit"
        )
        assert code == 1
        assert "oversized-circuit" in out
        assert "op-after-meas" in out

    def test_disable_removes_from_profile(self, capsys):
        code, out, _ = _run(
            capsys, "check", sample_path("two_bugs"), "--disable", "op-after-meas"
        )
        assert code == 0
        assert out == ""

    def test_rules_listing_marks_defaults(self, capsys):
        code, out, _ = _run(capsys, "rules")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == len(RULE_IDS)
        marked = {line.split()[0] for line in lines if "[default]" in line}
        assert marked == set(DEFAULT_PROFILE)


class TestSuppression:
    def test_rule_specific_comment(self, capsys, tmp_path):
        source = sample_source("two_bugs").replace(
            "circ.ry(0.9, qreg[0])  # Bug 2: Operation after measurement",
            "circ.ry(0.9, qreg[0])  # qlint: ignore[op-after-meas]",
        )
        target = tmp_path / "two_bugs_suppressed.py"
        target.write_text(source, "utf-8")
        code, out, _ = _run(capsys, "check", str(target))
        assert code == 0
        assert out == ""

    def test_bare_comment_drops_all_rules(self, capsys, tmp_path):
        target = tmp_path / "s.py"
        target.write_text(
            "qc = QuantumCircuit(1, 1)\n"
            "qc.h(0)\n"
            "qc.measure(0, 0)\n"
            "qc.measure(0, 0)  # qlint: ignore\n",
            "utf-8",
        )
        code, out, _ = _run(capsys, "check", str(target))
        assert code == 0

    def test_mismatched_rule_id_keeps_warning(self, capsys, tmp_path):
        target = tmp_path / "s.py"
        target.write_text(
            "qc = QuantumCircuit(1, 1)\n"
            "qc.h(0)\n"
            "qc.measure(0, 0)\n"
            "qc.measure(0, 0)  # qlint: ignore[ghost-compose]\n",
            "utf-8",
        )
        code, out, _ = _run(capsys, "check", str(target))
        assert code == 1
        assert "double-meas" in out

    def test_form_feed_line_keeps_comments_on_their_lines(self, capsys, tmp_path):
        source = "# page\x0c\n" + sample_source("two_bugs").replace(
            "  # Bug 1: Oversized circuit", "  # qlint: ignore"
        ).replace("  # Bug 2: Operation after measurement", "  # qlint: ignore[op-after-meas]")
        target = tmp_path / "paged.py"
        target.write_text(source, "utf-8")
        code, out, _ = _run(capsys, "check", str(target), "--profile", "all")
        assert (code, out) == (0, "")


class TestFormats:
    def test_json_output_parses(self, capsys):
        code, out, _ = _run(
            capsys, "check", sample_path("two_bugs"), "--profile", "all", "--format", "json"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["summary"]["oversized-circuit"] == 1

    def test_sarif_output_parses(self, capsys):
        code, out, _ = _run(
            capsys, "check", sample_path("redundant_measure"), "--format", "sarif"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["runs"][0]["results"][0]["ruleId"] == "double-meas"

    def test_dump_timelines(self, capsys, tmp_path):
        target = tmp_path / "t.py"
        target.write_text("qc = QuantumCircuit(1, 1)\nqc.h(0)\nqc.measure(0, 0)\n", "utf-8")
        code, out, _ = _run(capsys, "check", str(target), "--dump-timelines")
        assert "h@2 -> measure@3" in out


class TestFlags:
    def test_max_unroll_controls_expansion(self, capsys, tmp_path):
        target = tmp_path / "loop.py"
        target.write_text(
            "qc = QuantumCircuit(1, 1)\n"
            "qc.h(0)\n"
            "for i in range(3):\n"
            "    qc.measure(0, 0)\n",
            "utf-8",
        )
        code, out, _ = _run(capsys, "check", str(target))
        assert code == 1  # unrolled: adjacent measurements
        code, out, _ = _run(capsys, "check", str(target), "--max-unroll", "2")
        assert code == 0  # loop kept; its single visible measurement is alone

    def test_gate_spec_override(self, capsys, tmp_path):
        table = tmp_path / "gates.txt"
        table.write_text(
            "zap reversible_gate 0 - -\nmeasure measurement 0 1 -\n", "utf-8"
        )
        target = tmp_path / "z.py"
        target.write_text(
            "qc = QuantumCircuit(1, 1)\n"
            "qc.measure(0, 0)\n"
            "qc.zap(0)\n",
            "utf-8",
        )
        code, out, _ = _run(
            capsys, "check", str(target), "--gate-spec", str(table), "--profile", "all"
        )
        assert code == 1
        assert "op-after-meas" in out

    def test_bad_gate_spec_is_usage_error(self, capsys, tmp_path):
        table = tmp_path / "gates.txt"
        table.write_text("oops not_a_category 0 - -\n", "utf-8")
        code, _, err = _run(
            capsys, "check", sample_path("two_bugs"), "--gate-spec", str(table)
        )
        assert code == 2


class TestCorpusMode:
    def test_stats_written_to_file(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.py").write_text(
            "qc = QuantumCircuit(1, 1)\nqc.h(0)\nqc.measure(0, 0)\nqc.measure(0, 0)\n",
            "utf-8",
        )
        (corpus / "b.py").write_text("qc = QuantumCircuit(1, 1)\n", "utf-8")
        stats = tmp_path / "stats.csv"
        code, _, _ = _run(capsys, "corpus", str(corpus), "--stats", str(stats))
        assert code == 1
        content = stats.read_text("utf-8")
        assert content.splitlines()[0] == "analysis,total_warnings,pct_files"
        assert "double-meas,1,50.0" in content

    def test_empty_corpus_is_an_error(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = _run(capsys, "corpus", str(empty))
        assert code == 2


class TestDeterminismAndOrdering:
    def test_file_order_independence(self, capsys):
        paths = [sample_path("redundant_measure"), sample_path("two_bugs")]
        _, first, _ = _run(capsys, "check", *paths, "--profile", "all")
        _, second, _ = _run(capsys, "check", *reversed(paths), "--profile", "all")
        assert first == second
        positions = [
            (line.split(":")[0], int(line.split(":")[1]))
            for line in first.strip().splitlines()
        ]
        assert positions == sorted(positions)

    def test_parallel_equals_sequential(self, capsys, tmp_path):
        for i in range(6):
            (tmp_path / f"f{i}.py").write_text(
                f"qc = QuantumCircuit({i % 3 + 1}, {i % 3 + 1})\n"
                "qc.measure(0, 0)\nqc.measure(0, 0)\n",
                "utf-8",
            )
        files = sorted(str(path) for path in tmp_path.iterdir())
        _, seq, _ = _run(capsys, "check", str(tmp_path), "--format", "json")
        _, par, _ = _run(capsys, "check", *reversed(files), "--format", "json")
        assert seq == par

    def test_jobs_starts_no_thread(self, monkeypatch):
        paths = [sample_path(name) for name in SAMPLE_NAMES]
        serial = analyze_paths(paths, Config(jobs=1))

        def refuse(*_args, **_kwargs):
            raise AssertionError("analysis started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert analyze_paths(paths, Config(jobs=4)) == serial
