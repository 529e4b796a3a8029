"""Baseline files: grandfather existing findings without suppressing new ones.

A baseline is a JSON document of finding fingerprints (see
:func:`repro.devtools.analyze.findings.fingerprint`).  Findings whose
fingerprint appears in the baseline are filtered out; everything else
— including a *new* occurrence of a grandfathered pattern — still
fails the run.  Stale fingerprints (fixed findings) are reported so
baselines shrink monotonically instead of rotting.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from ...errors import ConfigError
from .findings import Finding, fingerprint

_VERSION = 1


def _fingerprints(findings: list[Finding]) -> list[tuple[Finding, str]]:
    """Pair each finding with its occurrence-disambiguated fingerprint."""
    seen: Counter[tuple[str, str, str]] = Counter()
    out: list[tuple[Finding, str]] = []
    for finding in sorted(findings, key=Finding.sort_key):
        key = (finding.code, finding.relpath, finding.source.strip())
        out.append((finding, fingerprint(finding, seen[key])))
        seen[key] += 1
    return out


def write_baseline(path: Path, findings: list[Finding]) -> int:
    """Write a baseline covering ``findings``; returns the entry count."""
    prints = sorted(fp for _, fp in _fingerprints(findings))
    doc = {"version": _VERSION, "fingerprints": prints}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return len(prints)


def load_baseline(path: Path) -> set[str]:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read baseline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"baseline {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != _VERSION:
        raise ConfigError(
            f"baseline {path}: expected a v{_VERSION} kdd-repro analyze baseline"
        )
    prints = doc.get("fingerprints", [])
    if not isinstance(prints, list) or not all(isinstance(p, str) for p in prints):
        raise ConfigError(f"baseline {path}: 'fingerprints' must be strings")
    return set(prints)


def apply_baseline(
    findings: list[Finding], baseline: set[str]
) -> tuple[list[Finding], int]:
    """Filter grandfathered findings.

    Returns ``(kept_findings, stale_count)`` where ``stale_count`` is
    the number of baseline entries that matched nothing (candidates for
    removal from the baseline file).
    """
    kept: list[Finding] = []
    matched: set[str] = set()
    for finding, fp in _fingerprints(findings):
        if fp in baseline:
            matched.add(fp)
        else:
            kept.append(finding)
    return sorted(kept, key=Finding.sort_key), len(baseline - matched)
