"""Inline suppressions: ``# kdd-analyze: disable=RPRnnn``.

One comment tag waives findings of any analysis on its own line::

    lbas = pages.astype(np.int64)  # kdd-analyze: disable=RPR302
    y = {a} | {b}                  # kdd-analyze: disable=RPR004,RPR104
    z = random.random()            # kdd-analyze: disable=all

A suppression only applies on the finding's own line, ``all`` waives
every code, and a suppression that suppressed nothing is itself
reported as an RPR000 meta-finding — so exceptions live next to the
code they excuse and rot is visible, instead of accumulating in a
baseline file.

Unused-suppression reporting is scoped to the codes a run could emit:
a ``--select``-filtered run ignores suppressions for codes outside the
selection rather than calling them unused.
"""

from __future__ import annotations

import io
import re
import tokenize

from .findings import CODES, META_CODE, Finding
from .project import Project, finding_at

_SUPPRESS_RE = re.compile(r"#\s*kdd-analyze:\s*disable=([A-Za-z0-9,\s]+)")

_ALL = "all"


def parse_suppressions(source: str) -> dict[int, list[str]]:
    """Map line number -> suppressed codes, parsed from comment tokens.

    Comments are found with :mod:`tokenize` rather than substring
    matching, so a disable marker inside a string literal is not
    treated as a suppression.  Unparseable source yields no
    suppressions.
    """
    out: dict[int, list[str]] = {}
    reader = io.StringIO(source).readline
    try:
        tokens = list(tokenize.generate_tokens(reader))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match is None:
            continue
        codes = [c.strip() for c in match.group(1).split(",")]
        out.setdefault(tok.start[0], []).extend(
            c.lower() if c.lower() == _ALL else c.upper() for c in codes if c
        )
    return out


def apply_suppressions(
    project: Project,
    findings: list[Finding],
    active_codes: frozenset[str] = frozenset(CODES),
) -> list[Finding]:
    """Drop inline-suppressed findings; report unused suppressions.

    ``active_codes`` is the set of codes the run could have emitted;
    suppressions for other known codes are left alone (neither applied
    nor reported unused), so a ``--select RPR301``-only run does not
    flag a legitimate RPR104 suppression as stale.
    """
    by_relpath: dict[str, dict[int, list[str]]] = {}
    for mod in project.modules.values():
        sup = parse_suppressions(mod.source)
        if sup:
            by_relpath[mod.relpath] = sup

    used: set[tuple[str, int, str]] = set()
    kept: list[Finding] = []
    for finding in findings:
        codes = by_relpath.get(finding.relpath, {}).get(finding.line, [])
        if finding.code in codes:
            used.add((finding.relpath, finding.line, finding.code))
        elif _ALL in codes:
            used.add((finding.relpath, finding.line, _ALL))
        else:
            kept.append(finding)

    for mod in project.modules.values():
        suppressions = by_relpath.get(mod.relpath)
        if not suppressions:
            continue
        for line in sorted(suppressions):
            codes = suppressions[line]
            if META_CODE in codes:
                continue  # explicitly waived, e.g. shared fixture lines
            for code in codes:
                if (mod.relpath, line, code) in used:
                    continue
                if code != _ALL and code not in CODES:
                    message = f"suppression of unknown rule {code}"
                elif code != _ALL and code not in active_codes:
                    continue  # code not part of this run
                else:
                    message = (
                        f"unused suppression of {code}: no {code} finding "
                        f"on this line"
                    )
                kept.append(finding_at(mod, line, 0, META_CODE, message))

    return sorted(kept, key=Finding.sort_key)
