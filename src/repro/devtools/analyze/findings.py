"""Finding record and the one table of rule codes every analysis emits."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

#: Code reserved for the analyzer's own meta-diagnostics (unused or
#: unknown suppressions).  RPR000 can be suppressed like any other code.
META_CODE = "RPR000"

#: Every code a run can emit, in code order, with a one-line summary.
#: ``kdd-repro analyze --list-rules`` prints this table; ``--select``
#: and inline suppressions are validated against it.  RPR007 is retired
#: (folded into RPR104) and stays unassigned.
CODES: dict[str, str] = {
    META_CODE: "unused or unknown inline suppression",
    "RPR001": "unseeded or global randomness in library code",
    "RPR002": "wall-clock read below the application layer",
    "RPR003": "builtin exception raised instead of the repro.errors taxonomy",
    "RPR004": "iteration over a set without sorted() (hash-order hazard)",
    "RPR005": "float == / != comparison in stats/, sim/ or engine/",
    "RPR006": "mutable default argument",
    "RPR008": "except Exception / bare except that swallows the error",
    "RPR009": "simulated-clock arithmetic outside repro/engine/",
    "RPR101": "module-level import cycle",
    "RPR102": "package layering violation (lower layer imports upward)",
    "RPR103": "ownership edge rule (engine.core is engine-internal)",
    "RPR104": "flow-sensitive unit taint (bytes/pages/ms/seconds mixing)",
    "RPR105": "RNG stream flows into more than one owner",
    "RPR106": "RNG stream constructed with module-global lifetime",
    "RPR107": "reachable taxonomy raise missing from a declared contract",
    "RPR108": "raising public sim/engine/faults entry point lacks a contract",
    "RPR109": "imported name never used",
    "RPR110": "dead public symbol (opt-in, --dead-code)",
    "RPR111": "serve-layer RNG stream seed is not sha256-derived",
    "RPR201": "membership state written outside a choke point",
    "RPR202": "@mutates_membership method never bumps the epoch",
    "RPR203": "batch reader may write membership state",
    "RPR204": "fast-path write-set exceeds scalar write-set + delta surface",
    "RPR205": "sweep-worker-reachable code mutates module-level state",
    "RPR206": "lru_cache on sweep-worker-reachable code (unallowlisted)",
    "RPR207": "power-failure recovery reads outside the crash-surviving surface",
    "RPR301": "index column leaves int64 (dtype-flow taint / @columnar breach)",
    "RPR302": "unsafe cast (float truncation / unit-carrying narrow)",
    "RPR303": "in-place write through a membership-mirror view",
    "RPR304": "boolean-mask misuse (and/or, chained fancy assignment)",
    "RPR305": "scalar loop over an ndarray in a hot module",
}


@dataclass(frozen=True)
class Finding:
    """One diagnostic at a specific source location.

    ``path`` is the path as given on the command line (for display);
    ``relpath`` is the module path relative to the ``repro`` package
    root (for rule scoping and baseline fingerprints, so baselines
    survive checking out the tree at a different prefix).
    """

    path: str
    relpath: str
    line: int
    col: int
    code: str
    message: str
    source: str = ""

    def sort_key(self) -> tuple[str, int, int, str, str]:
        return (self.relpath, self.line, self.col, self.code, self.message)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_json(self) -> dict[str, object]:
        return {
            "code": self.code,
            "col": self.col,
            "line": self.line,
            "message": self.message,
            "path": self.relpath,
        }


def fingerprint(finding: Finding, occurrence: int) -> str:
    """Stable identity of a finding for baseline files.

    Keyed on the rule code, module-relative path, and the *stripped
    source line* rather than the line number, so unrelated edits that
    shift code up or down do not invalidate a baseline.  ``occurrence``
    disambiguates identical lines within one file (0-based, in source
    order).
    """
    text = "\x1f".join(
        [finding.code, finding.relpath, finding.source.strip(), str(occurrence)]
    )
    return hashlib.sha1(text.encode()).hexdigest()
