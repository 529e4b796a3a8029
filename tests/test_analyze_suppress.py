"""Inline suppressions and the analyzer CLI surface.

One comment tag, ``# kdd-analyze: disable=...``, waives findings of
every analysis.  These tests pin its grammar, the unused-suppression
meta-findings, the scoping of ``--select``-filtered runs, and the CLI
exit discipline for ``--select`` and the report-export flags.
"""

import json

from repro.devtools.analyze.cli import analyze_project
from repro.devtools.analyze.cli import main as analyze_main
from repro.devtools.analyze.columnar import check_columnar
from repro.devtools.analyze.filerules import FILE_RULES
from repro.devtools.analyze.findings import CODES
from repro.devtools.analyze.suppress import apply_suppressions, parse_suppressions

from tests.analyze_fixtures import MINI_CONTRACTS, write_fixture_tree

COLUMNAR = frozenset({"RPR301", "RPR302", "RPR303", "RPR304", "RPR305"})
FILE_CODES = frozenset(rule.code for rule in FILE_RULES)


def codes(findings):
    return sorted(f.code for f in findings)


class TestSharedGrammar:
    def test_only_the_kdd_analyze_tag_is_read(self):
        source = (
            "a = 1  # kdd-lint: disable=RPR002\n"
            "b = 2  # kdd-analyze: disable=RPR302\n"
        )
        assert parse_suppressions(source) == {2: ["RPR302"]}

    def test_comma_lists_and_all_parse_identically(self):
        source = "x = 1  # kdd-analyze: disable=RPR301, RPR303\ny = 2  # kdd-analyze: disable=all\n"
        sup = parse_suppressions(source)
        assert sup == {1: ["RPR301", "RPR303"], 2: ["all"]}

    def test_marker_inside_string_literal_is_not_a_suppression(self):
        source = 's = "# kdd-analyze: disable=RPR301"\n'
        assert parse_suppressions(source) == {}

    def test_lint_ignores_analyzer_comments(self, project_from):
        # A run of the per-file rules alone must not call a columnar
        # suppression unused: it is out of that run's scope.
        project = project_from({
            "core/x.py": "x = 1  # kdd-analyze: disable=RPR301\n",
        })
        assert analyze_project(project, select=FILE_CODES) == []


class TestAnalyzerSuppressions:
    def test_suppressed_finding_is_dropped(self, project_from):
        project = project_from({
            "core/flow.py": """\
                import numpy as np

                def compact(lbas: np.ndarray):
                    return lbas.astype(np.int32)  # kdd-analyze: disable=RPR301
            """,
        })
        raw = check_columnar(project)
        assert codes(raw) == ["RPR301"]
        assert apply_suppressions(project, raw) == []

    def test_disable_all_waives_the_line(self, project_from):
        project = project_from({
            "core/flow.py": """\
                import numpy as np

                def compact(lbas: np.ndarray):
                    return lbas.astype(np.int32)  # kdd-analyze: disable=all
            """,
        })
        assert apply_suppressions(project, check_columnar(project)) == []

    def test_unused_suppression_is_reported(self, project_from):
        project = project_from({
            "core/flow.py": """\
                import numpy as np

                def widen(lbas: np.ndarray):
                    return lbas.astype(np.uint64)  # kdd-analyze: disable=RPR302
            """,
        })
        findings = apply_suppressions(project, check_columnar(project))
        assert codes(findings) == ["RPR000"]
        assert "unused suppression of RPR302" in findings[0].message

    def test_unknown_rule_is_reported(self, project_from):
        project = project_from({
            "core/flow.py": """\
                x = 1  # kdd-analyze: disable=RPR999
            """,
        })
        findings = apply_suppressions(project, [])
        assert codes(findings) == ["RPR000"]
        assert "unknown rule RPR999" in findings[0].message

    def test_family_scoping_of_unused_reporting(self, project_from):
        # A RPR104 (unit-flow) suppression is out of scope for a
        # --select run of the columnar codes: neither applied nor
        # called unused.
        project = project_from({
            "core/flow.py": """\
                x = 1  # kdd-analyze: disable=RPR104
            """,
        })
        assert apply_suppressions(project, [], COLUMNAR) == []
        full = apply_suppressions(project, [])
        assert codes(full) == ["RPR000"]
        assert "unused suppression of RPR104" in full[0].message

    def test_code_families_partition_the_rule_space(self):
        # One code table; its families are the per-file rules (RPR0xx),
        # the flow analyses (RPR1xx), effects (RPR2xx), columnar (RPR3xx).
        families = {}
        for code in CODES:
            families.setdefault(code[:4], set()).add(code)
        assert sorted(families) == ["RPR0", "RPR1", "RPR2", "RPR3"]
        assert families["RPR0"] == FILE_CODES | {"RPR000"}
        assert families["RPR3"] == COLUMNAR
        assert "RPR007" not in CODES  # retired: folded into RPR104

    def test_real_tree_has_no_unused_analyzer_suppressions(self, real_project):
        # Every inline analyzer exception in src/repro must still be
        # load-bearing; rot shows up here instead of in a baseline.
        findings = apply_suppressions(real_project,
                                      check_columnar(real_project))
        assert [f for f in findings if f.code == "RPR000"] == []


class TestColumnarCli:
    def _violating_tree(self, tmp_path):
        # One columnar violation plus one flow violation (an unused
        # import), to tell a --select run from a full one.
        return write_fixture_tree(tmp_path, {
            "core/flow.py": """\
                import json
                import numpy as np

                def compact(lbas: np.ndarray):
                    return lbas.astype(np.int32)
            """,
        })

    def _declared_tree(self, tmp_path):
        # A clean tree with one @columnar declaration.
        return write_fixture_tree(tmp_path, {
            "contracts.py": MINI_CONTRACTS,
            "core/flow.py": """\
                import numpy as np

                from ..contracts import columnar

                @columnar(dtypes={"lbas": "int64"})
                def widen(lbas: np.ndarray):
                    return lbas + 1
            """,
        })

    def test_columnar_flag_runs_only_the_columnar_family(
        self, tmp_path, capsys
    ):
        # --select with the RPR3xx codes replaced the --columnar flag.
        root = self._violating_tree(tmp_path)
        rc = analyze_main(["--select", ",".join(sorted(COLUMNAR)),
                           "--format", "json", str(root)])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["counts"]) == {"RPR301"}

    def test_default_run_includes_both_families(self, tmp_path, capsys):
        root = self._violating_tree(tmp_path)
        rc = analyze_main(["--format", "json", str(root)])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["counts"]) == {"RPR109", "RPR301"}

    def test_columnar_report_export(self, tmp_path, capsys):
        root = self._declared_tree(tmp_path)
        target = tmp_path / "columnar-report.json"
        rc = analyze_main(["--columnar-report", str(target), str(root)])
        assert rc == 0, capsys.readouterr().out
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert doc["version"] == 1
        assert sorted(doc["rules"]) == sorted(COLUMNAR)
        assert [d["function"] for d in doc["declarations"]] == \
            ["repro.core.flow:widen"]

    def test_unwritable_columnar_report_exits_2(self, tmp_path, capsys):
        # A path whose parent is a regular file cannot be created; the
        # CLI must fail with a ConfigError naming the path — exit 2,
        # no traceback.
        root = self._declared_tree(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        target = blocker / "columnar-report.json"
        rc = analyze_main(["--columnar-report", str(target), str(root)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"cannot write report {target}" in err
        assert "Traceback" not in err

    def test_unwritable_effects_report_exits_2(self, tmp_path, capsys):
        root = self._declared_tree(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        target = blocker / "effects-report.json"
        rc = analyze_main(["--effects-report", str(target), str(root)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"cannot write report {target}" in err
        assert "Traceback" not in err
