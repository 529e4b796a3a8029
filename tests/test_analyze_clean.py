"""Tier-1 gate: ``src/repro`` passes its own static analysis.

This is the executable form of the determinism invariants in DESIGN.md:
if a change reintroduces wall-clock reads, unseeded randomness, builtin
raises, hash-ordered iteration, layering breaks, unit or RNG taint,
etc. into ``src/repro``, these tests — and the CI analysis step — fail.
The analyzer's findings over the real tree must be empty (with no
baseline), including the opt-in dead-code report, and every rendered
output must be invariant under file-discovery order.
"""

import json

from repro.devtools.analyze.cli import analyze_project
from repro.devtools.analyze.columnar import columnar_report
from repro.devtools.analyze.effects import effects_report
from repro.devtools.analyze.graphio import architecture_md, graph_dot, graph_json

from tests.analyze_fixtures import SRC_REPRO


def test_src_repro_is_analyze_clean(real_project):
    findings = analyze_project(real_project)
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"kdd-repro analyze findings:\n{rendered}"


def test_src_repro_has_no_dead_public_symbols(real_project):
    findings = analyze_project(real_project, dead_code=True)
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"dead-code findings:\n{rendered}"


def test_output_is_byte_identical_across_runs(real_project, reversed_project):
    # The second run loads the files in reverse discovery order.
    def render(project):
        findings = analyze_project(project, dead_code=True)
        return {
            "findings": json.dumps([f.to_json() for f in findings],
                                   sort_keys=True),
            "effects_report": effects_report(project),
            "columnar_report": columnar_report(project),
            "graph_json": graph_json(project),
            "graph_dot": graph_dot(project),
            "architecture_md": architecture_md(project),
        }

    assert render(real_project) == render(reversed_project)


def test_architecture_doc_is_current(real_project):
    """docs/architecture.md is generated; regenerate it when the import
    graph changes: kdd-repro analyze --write-docs docs/architecture.md"""
    doc = SRC_REPRO.parent.parent / "docs" / "architecture.md"
    assert doc.read_text(encoding="utf-8") == architecture_md(real_project)
