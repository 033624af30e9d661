"""``repro lint`` CLI contract: exit codes (0 clean / 1 findings /
2 usage error), JSON schema, noqa semantics."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.cli import main

CLEAN = textwrap.dedent(
    """
    def add(a, b):
        return a + b
    """
)

SWALLOW = textwrap.dedent(
    """
    def f():
        try:
            work()
        except Exception:
            pass
    """
)

LEGACY_RNG = textwrap.dedent(
    """
    import random

    def g():
        return random.random()
    """
)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(CLEAN)
    return path


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(SWALLOW)
    return path


class TestExitCodes:
    def test_zero_on_clean_tree(self, clean_file, capsys):
        assert main(["lint", str(clean_file)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_one_on_findings(self, bad_file, capsys):
        assert main(["lint", str(bad_file)]) == 1
        out = capsys.readouterr().out
        assert "SILENT-EXCEPT" in out
        assert "bad.py:5:" in out

    def test_two_on_missing_path(self, capsys):
        assert main(["lint", "no/such/path"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_two_on_bad_flag_value(self, clean_file):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--format", "yaml", str(clean_file)])
        assert exc.value.code == 2


class TestJsonOutput:
    def test_schema(self, bad_file, capsys):
        assert main(["lint", "--format", "json", str(bad_file)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert set(payload["rules"]) == {
            "RACE-GLOBAL",
            "TRUTHY-SIZED",
            "SILENT-EXCEPT",
            "KERNEL-ORACLE",
            "NONDET",
            "SPAN-COVERAGE",
            "LOCK-ORDER",
            "LOCK-LEAK",
            "GUARD-CONSISTENCY",
        }
        (finding,) = payload["findings"]
        assert finding["rule"] == "SILENT-EXCEPT"
        assert finding["path"].endswith("bad.py")
        assert isinstance(finding["line"], int) and finding["line"] > 0
        assert isinstance(finding["col"], int)
        assert "message" in finding
        assert payload["summary"] == {
            "files_scanned": 1,
            "findings": 1,
            "suppressed": 0,
        }

    def test_json_clean(self, clean_file, capsys):
        assert main(["lint", "--format", "json", str(clean_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []


class TestNoqaSemantics:
    def test_rule_specific_suppression(self, tmp_path, capsys):
        path = tmp_path / "suppressed.py"
        path.write_text(
            SWALLOW.replace(
                "except Exception:",
                "except Exception:  # repro: noqa[SILENT-EXCEPT]",
            )
        )
        assert main(["lint", str(path)]) == 0
        assert "1 suppressed" in capsys.readouterr().out

    def test_wrong_rule_does_not_suppress(self, tmp_path):
        path = tmp_path / "wrong.py"
        path.write_text(
            SWALLOW.replace(
                "except Exception:", "except Exception:  # repro: noqa[NONDET]"
            )
        )
        assert main(["lint", str(path)]) == 1


class TestRulesListing:
    def test_catalogue(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "RACE-GLOBAL",
            "TRUTHY-SIZED",
            "SILENT-EXCEPT",
            "KERNEL-ORACLE",
            "NONDET",
            "SPAN-COVERAGE",
            "LOCK-ORDER",
            "LOCK-LEAK",
            "GUARD-CONSISTENCY",
        ):
            assert rule in out


class TestRuleSelection:
    def test_selected_rule_runs_alone(self, bad_file, capsys):
        assert main(["lint", "--rules", "SILENT-EXCEPT", str(bad_file)]) == 1
        payload_out = capsys.readouterr().out
        assert "SILENT-EXCEPT" in payload_out

    def test_selection_skips_other_rules(self, bad_file, capsys):
        # NONDET alone must not report the silent except.
        assert main(["lint", "--rules", "NONDET", str(bad_file)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_selection_is_case_insensitive(self, bad_file):
        assert main(["lint", "--rules", "silent-except", str(bad_file)]) == 1

    def test_unknown_rule_exits_2_with_valid_ids(self, bad_file, capsys):
        # The historical bug: an unknown id silently ran zero checkers
        # and exited 0, making a typo in CI look like a clean tree.
        assert main(["lint", "--rules", "SILENT-EXCEPTT", str(bad_file)]) == 2
        err = capsys.readouterr().err
        assert "unknown rule id(s): SILENT-EXCEPTT" in err
        assert "GUARD-CONSISTENCY" in err  # the valid-id list is printed

    def test_empty_selection_exits_2(self, bad_file, capsys):
        assert main(["lint", "--rules", ",,", str(bad_file)]) == 2
        assert "valid ids" in capsys.readouterr().err


class TestRuntimeReportFlag:
    def test_missing_report_exits_2(self, clean_file, capsys):
        assert (
            main(["lint", "--runtime-report", "no/such/report.json", str(clean_file)])
            == 2
        )
        assert "cannot read runtime report" in capsys.readouterr().err

    def test_malformed_report_exits_2(self, tmp_path, clean_file, capsys):
        report = tmp_path / "lock_order.json"
        report.write_text('{"not": "a report"}')
        assert (
            main(["lint", "--runtime-report", str(report), str(clean_file)]) == 2
        )
        assert "not a lock-order report" in capsys.readouterr().err

    def test_valid_report_accepted(self, tmp_path, clean_file, capsys):
        report = tmp_path / "lock_order.json"
        report.write_text(
            json.dumps({"version": 1, "locks": {}, "edges": [], "cycles": []})
        )
        assert main(["lint", "--runtime-report", str(report), str(clean_file)]) == 0
