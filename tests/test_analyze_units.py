"""Flow-sensitive unit taint (RPR104), including the former RPR007 cases.

The dataflow analysis must catch taint laundered through blandly named
locals and across resolved call boundaries — the cases a lexical rule
structurally cannot see — while staying silent on rate names
(``*_per_*``) and explicit conversions.  It also covers every case the
retired lexical rule RPR007 caught: adding, subtracting, taking the
remainder of, or comparing a bytes-named operand with a pages-named one.
"""

import pytest

from repro.devtools.analyze.unitflow import check_units, unit_of_name

from tests.analyze_fixtures import FORMER_RPR007_CLEAN, FORMER_RPR007_TRIGGERS


def codes(findings):
    return sorted({f.code for f in findings})


class TestUnitOfName:
    def test_plain_units(self):
        assert unit_of_name("capacity_bytes") == "bytes"
        assert unit_of_name("dirty_pages") == "pages"
        assert unit_of_name("latency_ms") == "ms"
        assert unit_of_name("warmup_seconds") == "seconds"

    def test_rate_names_are_dimensionless(self):
        assert unit_of_name("ops_per_page") is None
        assert unit_of_name("bytes_per_ms") is None

    def test_ambiguous_and_unknown_names(self):
        assert unit_of_name("pages_bytes") is None
        assert unit_of_name("count") is None


class TestTaintThroughAssignment:
    def test_binop_conflict_direct(self, project_from):
        project = project_from({
            "sim/api.py": """\
                def f(size_bytes, latency_ms):
                    return size_bytes + latency_ms
            """,
        })
        findings = check_units(project)
        assert codes(findings) == ["RPR104"]
        assert "bytes" in findings[0].message
        assert "ms" in findings[0].message

    def test_taint_survives_bland_local(self, project_from):
        """The case the lexical rule cannot see: taint via a plain name."""
        project = project_from({
            "sim/api.py": """\
                def f(size_bytes, dirty_pages):
                    tmp = size_bytes
                    return tmp + dirty_pages
            """,
        })
        findings = check_units(project)
        assert codes(findings) == ["RPR104"]
        assert "pages_for_bytes" in findings[0].message

    def test_assignment_to_unit_named_target(self, project_from):
        project = project_from({
            "sim/api.py": """\
                def f(latency_ms):
                    total_seconds = latency_ms
                    return total_seconds
            """,
        })
        findings = check_units(project)
        assert codes(findings) == ["RPR104"]
        assert "total_seconds" in findings[0].message

    def test_division_clears_taint(self, project_from):
        project = project_from({
            "sim/api.py": """\
                def f(size_bytes, page_size):
                    n_pages = size_bytes // page_size
                    return n_pages
            """,
        })
        assert check_units(project) == []

    def test_branch_merge_requires_agreement(self, project_from):
        project = project_from({
            "sim/api.py": """\
                def f(cond, size_bytes, latency_ms, dirty_pages):
                    if cond:
                        tmp = size_bytes
                    else:
                        tmp = latency_ms
                    return tmp + dirty_pages
            """,
        })
        # tmp is bytes on one arm, ms on the other: merged to unknown,
        # so no conflict may be claimed at the use site.
        assert check_units(project) == []


class TestTaintThroughReturn:
    def test_return_unit_from_function_name(self, project_from):
        project = project_from({
            "sim/api.py": """\
                def total_bytes(latency_ms):
                    tmp = latency_ms
                    return tmp
            """,
        })
        findings = check_units(project)
        assert codes(findings) == ["RPR104"]
        assert "returns" in findings[0].message

    def test_known_converter_return_unit(self, project_from):
        project = project_from({
            "units.py": """\
                def pages_for_bytes(n_bytes, page_size):
                    return -(-n_bytes // page_size)
            """,
            "sim/api.py": """\
                from ..units import pages_for_bytes

                def dirty_pages(size_bytes):
                    return pages_for_bytes(size_bytes, 4096)
            """,
        })
        assert check_units(project) == []


class TestTaintAcrossCalls:
    def test_positional_arg_conflict(self, project_from):
        project = project_from({
            "sim/api.py": """\
                def schedule(delay_ms):
                    return delay_ms

                def f(size_bytes):
                    return schedule(size_bytes)
            """,
        })
        findings = check_units(project)
        assert codes(findings) == ["RPR104"]
        assert "'delay_ms'" in findings[0].message

    def test_keyword_arg_conflict_cross_module(self, project_from):
        project = project_from({
            "engine/core.py": """\
                def submit(op, delay_ms=0):
                    return (op, delay_ms)
            """,
            "sim/api.py": """\
                from ..engine.core import submit

                def f(op, size_bytes):
                    return submit(op, delay_ms=size_bytes)
            """,
        })
        findings = check_units(project)
        assert [f.code for f in findings] == ["RPR104"]
        assert findings[0].relpath == "sim/api.py"

    def test_matching_units_are_silent(self, project_from):
        project = project_from({
            "sim/api.py": """\
                def schedule(delay_ms):
                    return delay_ms

                def f(latency_ms):
                    return schedule(latency_ms)
            """,
        })
        assert check_units(project) == []


class TestLexicalFallback:
    """The lexical cases RPR007 used to flag, now caught by RPR104 inside
    function bodies (``test_lint_rules.py`` covers module scope)."""

    def run_rule(self, source, project_from):
        return check_units(project_from({"sim/api.py": source}))

    @pytest.mark.parametrize("snippet", FORMER_RPR007_TRIGGERS)
    def test_former_rpr007_trigger_is_rpr104(self, project_from, snippet):
        findings = self.run_rule("def f(obj):\n    " + snippet, project_from)
        assert [f.code for f in findings] == ["RPR104"]
        assert "bytes" in findings[0].message
        assert "pages" in findings[0].message

    @pytest.mark.parametrize("snippet", FORMER_RPR007_CLEAN)
    def test_former_rpr007_clean_is_clean(self, project_from, snippet):
        source = "def f(page_size, limit):\n    " + snippet
        assert self.run_rule(source, project_from) == []

    def test_rate_name_no_longer_flags(self, project_from):
        findings = self.run_rule(
            "def f(n_ops, elapsed_ms):\n"
            "    ops_per_ms = n_ops / elapsed_ms\n"
            "    return ops_per_ms + n_ops\n",
            project_from,
        )
        assert findings == []

    def test_real_mixing_still_flags(self, project_from):
        findings = self.run_rule(
            "def f(size_bytes, dirty_pages):\n"
            "    return size_bytes + dirty_pages\n",
            project_from,
        )
        assert codes(findings) == ["RPR104"]
