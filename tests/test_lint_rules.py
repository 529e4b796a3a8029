"""Per-rule fixture tests for the per-file rules (RPR001-RPR009).

Every rule gets at least one *trigger* snippet (must produce exactly
that rule's code) and one *clean* snippet (must produce nothing).  Each
snippet is placed at a ``relpath`` inside a fixture ``repro`` tree and
run through the analyzer, so scoping, inline suppressions,
unused-suppression reporting, ``--select``, baselines, and output
stability are those of ``kdd-repro analyze`` itself.  The retired
RPR007 snippets are checked here as RPR104 findings at module scope
and in ``test_analyze_units.py`` inside function bodies.
"""

import json
import textwrap

import pytest

from repro.devtools.analyze import CODES, META_CODE, Finding, parse_suppressions
from repro.devtools.analyze.baseline import (
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.devtools.analyze.cli import analyze_project
from repro.devtools.analyze.cli import main as analyze_main
from repro.devtools.analyze.filerules import FILE_RULES
from repro.errors import ConfigError

from tests.analyze_fixtures import (
    FORMER_RPR007_CLEAN,
    FORMER_RPR007_TRIGGERS,
    write_fixture_tree,
)

FILE_CODES = frozenset(rule.code for rule in FILE_RULES)


@pytest.fixture
def lint(project_from):
    """Findings for one snippet placed at ``relpath`` in a fixture tree."""

    def run(src, relpath="core/mod.py", select=FILE_CODES):
        project = project_from({relpath: textwrap.dedent(src)})
        return analyze_project(project, select=select)

    return run


@pytest.fixture
def codes(lint):
    def run(src, relpath="core/mod.py", select=FILE_CODES):
        return [f.code for f in lint(src, relpath, select)]

    return run


# ---------------------------------------------------------------- code table


def test_file_rules_cover_rpr001_to_rpr009():
    expected = [f"RPR00{i}" for i in range(1, 10) if i != 7]
    assert [rule.code for rule in FILE_RULES] == expected


def test_rule_metadata_is_complete():
    assert list(CODES) == sorted(CODES)
    for code, summary in CODES.items():
        assert code.startswith("RPR") and len(code) == 6
        assert summary
    assert FILE_CODES <= set(CODES)


# ---------------------------------------------------------------- RPR001


@pytest.mark.parametrize(
    "snippet",
    [
        "import random\nx = random.random()\n",
        "import random\nrandom.shuffle(items)\n",
        "from random import choice\ny = choice(items)\n",
        "import random\nr = random.Random()\n",
        "import numpy as np\nx = np.random.rand(4)\n",
        "import numpy as np\nnp.random.seed(0)\n",
        "import numpy as np\nrng = np.random.default_rng()\n",
        "from numpy.random import default_rng\nrng = default_rng()\n",
    ],
)
def test_rpr001_triggers(codes, snippet):
    assert codes(snippet) == ["RPR001"]


@pytest.mark.parametrize(
    "snippet",
    [
        "import numpy as np\nrng = np.random.default_rng(7)\n",
        "import numpy as np\nrng = np.random.default_rng(seed)\n",
        "import random\nr = random.Random(42)\n",
        "from numpy.random import default_rng\nrng = default_rng(3)\n",
        # methods on an explicit Generator are seeded by construction
        "def f(rng):\n    return rng.random()\n",
    ],
)
def test_rpr001_clean(codes, snippet):
    assert codes(snippet) == []


# ---------------------------------------------------------------- RPR002


@pytest.mark.parametrize(
    "snippet",
    [
        "import time\nt = time.time()\n",
        "import time\nt = time.perf_counter()\n",
        "from time import perf_counter\nt = perf_counter()\n",
        "import datetime\nnow = datetime.datetime.now()\n",
        "from datetime import datetime\nnow = datetime.now()\n",
    ],
)
@pytest.mark.parametrize("where", ["sim/x.py", "cache/x.py", "raid/x.py",
                                   "core/x.py", "flash/x.py", "delta/x.py",
                                   "nvram/x.py"])
def test_rpr002_triggers_in_sim_dirs(codes, snippet, where):
    assert codes(snippet, relpath=where) == ["RPR002"]


@pytest.mark.parametrize("where", ["disk/hdd.py", "stats/x.py", "traces/x.py",
                                   "reliability/x.py", "engine/x.py",
                                   "faults/x.py", "serve/x.py", "units.py"])
def test_rpr002_covers_every_package_below_the_application_layer(codes, where):
    # The scope is derived from the layering table: everything below
    # the application layer is simulation code.
    assert codes("import time\nt = time.time()\n", relpath=where) == ["RPR002"]


def test_rpr002_allowlists_harness_and_tools(codes):
    snippet = "import time\nt = time.time()\n"
    assert codes(snippet, relpath="harness/cli.py") == []
    assert codes(snippet, relpath="devtools/analyze/cli.py") == []
    assert codes(snippet, relpath="__init__.py") == []


def test_rpr002_ignores_simulated_time_attributes(codes):
    # attribute access and local variables named `time` are fine
    assert codes("t = req.time\n", relpath="sim/x.py") == []
    assert codes("def f(time):\n    return time + 1\n", relpath="sim/x.py") == []


# ---------------------------------------------------------------- RPR003


@pytest.mark.parametrize(
    "snippet",
    [
        "raise ValueError('bad')\n",
        "raise RuntimeError('bad')\n",
        "raise Exception('bad')\n",
        "def f():\n    raise OSError('bad')\n",
        "raise ValueError\n",
    ],
)
def test_rpr003_triggers(codes, snippet):
    assert codes(snippet) == ["RPR003"]


@pytest.mark.parametrize(
    "snippet",
    [
        "from repro.errors import ConfigError\nraise ConfigError('bad')\n",
        # programming errors propagate unchanged by design
        "raise TypeError('not a Trace')\n",
        "raise NotImplementedError\n",
        "raise AssertionError('unreachable')\n",
        # container/iterator protocol
        "def f(k):\n    raise KeyError(k)\n",
        # bare re-raise
        "try:\n    f()\nexcept ValueError:\n    raise\n",
    ],
)
def test_rpr003_clean(codes, snippet):
    assert codes(snippet) == []


# ---------------------------------------------------------------- RPR004


@pytest.mark.parametrize(
    "snippet",
    [
        "for x in {1, 2, 3}:\n    f(x)\n",
        "for x in set(items):\n    f(x)\n",
        "def g(items):\n    s = {i.key for i in items}\n    for x in s:\n        f(x)\n",
        "def g(a, b):\n    s = set(a) | set(b)\n    for x in s:\n        f(x)\n",
        "ys = [f(x) for x in set(items)]\n",
        "ys = list(set(items))\n",
        "def g(items):\n    s = frozenset(items)\n    return tuple(s)\n",
    ],
)
def test_rpr004_triggers(codes, snippet):
    assert codes(snippet) == ["RPR004"]


@pytest.mark.parametrize(
    "snippet",
    [
        "for x in sorted({1, 2, 3}):\n    f(x)\n",
        "for x in sorted(set(items)):\n    f(x)\n",
        "def g(items):\n    s = set(items)\n    for x in sorted(s):\n        f(x)\n",
        "for x in [1, 2, 3]:\n    f(x)\n",
        "for k in mapping:\n    f(k)\n",  # dicts keep insertion order
        "x = {1, 2} & {2, 3}\n",  # set algebra without iteration
        "ok = 3 in {1, 2, 3}\n",  # membership test, no ordering
    ],
)
def test_rpr004_clean(codes, snippet):
    assert codes(snippet) == []


def test_rpr004_set_binding_is_scoped_per_function(codes):
    src = """
    def f(items):
        s = set(items)
        return len(s)

    def g(s):
        for x in s:   # untracked name: no static set evidence
            yield x
    """
    assert codes(src) == []


# ---------------------------------------------------------------- RPR005


@pytest.mark.parametrize(
    "snippet",
    [
        "ok = x == 0.5\n",
        "ok = 1.0 != y\n",
        "ok = (a / b) == c\n",
        "ok = float(a) == b\n",
    ],
)
def test_rpr005_triggers_in_scoped_dirs(codes, snippet):
    assert codes(snippet, relpath="stats/latency.py") == ["RPR005"]
    assert codes(snippet, relpath="sim/system.py") == ["RPR005"]


def test_rpr005_scoped_out_elsewhere(codes):
    assert codes("ok = x == 0.5\n", relpath="cache/base.py") == []


@pytest.mark.parametrize(
    "snippet",
    [
        "ok = x == 5\n",
        "ok = x < 0.5\n",  # ordering comparisons are fine
        "import math\nok = math.isclose(x, 0.5)\n",
    ],
)
def test_rpr005_clean(codes, snippet):
    assert codes(snippet, relpath="stats/latency.py") == []


# ---------------------------------------------------------------- RPR006


@pytest.mark.parametrize(
    "snippet",
    [
        "def f(xs=[]):\n    return xs\n",
        "def f(xs={}):\n    return xs\n",
        "def f(xs=set()):\n    return xs\n",
        "def f(xs=list()):\n    return xs\n",
        "def f(*, xs=dict()):\n    return xs\n",
        "async def f(xs=[]):\n    return xs\n",
    ],
)
def test_rpr006_triggers(codes, snippet):
    assert codes(snippet) == ["RPR006"]


@pytest.mark.parametrize(
    "snippet",
    [
        "def f(xs=None):\n    return xs or []\n",
        "def f(xs=()):\n    return xs\n",
        "def f(n=4, name='x'):\n    return n\n",
    ],
)
def test_rpr006_clean(codes, snippet):
    assert codes(snippet) == []


# ---------------------------------------------------------------- RPR007
# Retired: the flow-sensitive RPR104 flags every former trigger.

UNIT_CODES = FILE_CODES | {"RPR104"}


@pytest.mark.parametrize("snippet", FORMER_RPR007_TRIGGERS)
def test_rpr007_triggers(codes, snippet):
    assert codes(snippet, select=UNIT_CODES) == ["RPR104"]


@pytest.mark.parametrize("snippet", FORMER_RPR007_CLEAN)
def test_rpr007_clean(codes, snippet):
    assert codes(snippet, select=UNIT_CODES) == []


# ---------------------------------------------------------------- RPR008


@pytest.mark.parametrize(
    "snippet",
    [
        "try:\n    f()\nexcept Exception:\n    pass\n",
        "try:\n    f()\nexcept Exception as exc:\n    log(exc)\n",
        "try:\n    f()\nexcept BaseException:\n    cleanup()\n",
        "try:\n    f()\nexcept:\n    pass\n",
        "try:\n    f()\nexcept (ValueError, Exception):\n    pass\n",
        # a raise inside a nested function does not execute in the handler
        "try:\n    f()\nexcept Exception:\n    def g():\n        raise\n",
    ],
)
def test_rpr008_triggers(codes, snippet):
    got = codes(snippet)
    assert "RPR008" in got
    assert [c for c in got if c != "RPR003"] == ["RPR008"]


@pytest.mark.parametrize(
    "snippet",
    [
        # the ResultCache.put idiom: catch everything, clean up, re-raise
        "try:\n    f()\nexcept BaseException:\n    cleanup()\n    raise\n",
        # conversion into the taxonomy counts as re-raising
        "from repro.errors import SimulationError\n"
        "try:\n    f()\nexcept Exception as exc:\n"
        "    raise SimulationError('boom') from exc\n",
        # conditional re-raise deeper in the handler body still counts
        "try:\n    f()\nexcept Exception as exc:\n"
        "    if fatal(exc):\n        raise\n",
        # specific builtins and taxonomy classes are fine without a raise
        "try:\n    f()\nexcept OSError:\n    pass\n",
        "from repro.errors import ReproError\n"
        "try:\n    f()\nexcept ReproError:\n    pass\n",
        "try:\n    f()\nexcept (ValueError, KeyError):\n    pass\n",
    ],
)
def test_rpr008_clean(codes, snippet):
    assert "RPR008" not in codes(snippet)


def test_rpr008_fires_everywhere_in_the_library(codes):
    snippet = "try:\n    f()\nexcept Exception:\n    pass\n"
    for where in ("harness/sweep.py", "devtools/analyze/cli.py",
                  "faults/timed.py", "traces/trace.py"):
        assert "RPR008" in codes(snippet, relpath=where), where


# ---------------------------------------------------------------- RPR009


@pytest.mark.parametrize(
    "snippet",
    [
        "disk.busy_until = finish\n",
        "self.ssd.busy_until += delta\n",
        "a, self.disk.busy_until = 1, finish\n",
        "start = max(earliest, busy)\n",
        "start = max(arrival, disk.busy_until)\n",
    ],
)
def test_rpr009_triggers(codes, snippet):
    assert "RPR009" in codes(snippet, relpath="sim/system.py")


@pytest.mark.parametrize(
    "snippet",
    [
        # reading the clock is fine; only mutation is scheduling
        "if disk.busy_until > t:\n    f()\n",
        # unrelated max() arithmetic (workload sources keep their clocks)
        "clock = max(clock, req.time)\n",
        "end_time = max(end_time, completion)\n",
        "busy_until = 3\n",  # plain local name, not device state
    ],
)
def test_rpr009_clean(codes, snippet):
    assert "RPR009" not in codes(snippet, relpath="sim/system.py")


def test_rpr009_exempts_the_engine_package(codes):
    snippet = "resource.busy_until = finish\nstart = max(earliest, b)\n"
    assert "RPR009" not in codes(snippet, relpath="engine/resources.py")
    assert "RPR009" in codes(snippet, relpath="faults/timed.py")


# ---------------------------------------------------------------- suppressions


def test_inline_suppression_silences_finding(codes):
    src = "raise ValueError('x')  # kdd-analyze: disable=RPR003\n"
    assert codes(src) == []


def test_suppression_of_other_code_does_not_apply(codes):
    src = "raise ValueError('x')  # kdd-analyze: disable=RPR001\n"
    got = codes(src)
    assert "RPR003" in got and META_CODE in got  # unused RPR001 + real RPR003


def test_suppress_all_on_line(codes):
    src = "raise ValueError('x')  # kdd-analyze: disable=all\n"
    assert codes(src) == []


def test_multi_code_suppression(codes):
    src = (
        "import time\n"
        "t = time.time() if a_bytes > b_pages else 0.0  "
        "# kdd-analyze: disable=RPR002,RPR104\n"
    )
    assert codes(src, relpath="sim/x.py", select=UNIT_CODES) == []


def test_unused_suppression_reported(lint):
    findings = lint("x = 1  # kdd-analyze: disable=RPR003\n")
    assert [f.code for f in findings] == [META_CODE]
    assert "unused suppression of RPR003" in findings[0].message


def test_unknown_code_suppression_reported(lint):
    findings = lint("x = 1  # kdd-analyze: disable=RPR999\n")
    assert [f.code for f in findings] == [META_CODE]
    assert "unknown rule" in findings[0].message


def test_suppression_inside_string_is_ignored(codes):
    src = 's = "# kdd-analyze: disable=RPR003"\nraise ValueError("x")\n'
    assert codes(src) == ["RPR003"]


def test_parse_suppressions_maps_lines():
    src = "x = 1\ny = 2  # kdd-analyze: disable=RPR001, RPR004\n"
    assert parse_suppressions(src) == {2: ["RPR001", "RPR004"]}


def test_syntax_error_is_reported_not_raised(tmp_path, capsys):
    # An unparseable module makes the whole-program run unreliable: the
    # CLI reports it as a usage/configuration error (exit 2), with no
    # traceback.
    tree = write_fixture_tree(tmp_path, {"core/mod.py": "def f(:\n"})
    assert analyze_main([str(tree)]) == 2
    err = capsys.readouterr().err
    assert "syntax error" in err and "Traceback" not in err


# ---------------------------------------------------------------- select


def test_select_limits_rules(codes):
    src = "raise ValueError('x')\nfor i in set(xs):\n    f(i)\n"
    assert codes(src, select={"RPR003"}) == ["RPR003"]
    assert codes(src, select={"RPR004"}) == ["RPR004"]


# ---------------------------------------------------------------- baseline


def test_baseline_roundtrip_filters_grandfathered(lint, tmp_path):
    findings = lint("raise ValueError('a')\n")
    base = tmp_path / "baseline.json"
    assert write_baseline(base, findings) == 1
    kept, stale = apply_baseline(findings, load_baseline(base))
    assert kept == [] and stale == 0


def test_baseline_does_not_mask_new_findings(lint, tmp_path):
    old = lint("raise ValueError('a')\n")
    base = tmp_path / "baseline.json"
    write_baseline(base, old)
    new = lint("raise ValueError('a')\nraise RuntimeError('b')\n")
    kept, stale = apply_baseline(new, load_baseline(base))
    assert [f.code for f in kept] == ["RPR003"]
    assert "RuntimeError" in kept[0].message
    assert stale == 0


def test_baseline_survives_line_shift(lint, tmp_path):
    old = lint("raise ValueError('a')\n")
    base = tmp_path / "baseline.json"
    write_baseline(base, old)
    shifted = lint("x = 1\n\n\nraise ValueError('a')\n")
    kept, stale = apply_baseline(shifted, load_baseline(base))
    assert kept == [] and stale == 0


def test_baseline_counts_duplicate_lines_separately(lint, tmp_path):
    two = lint("raise ValueError('a')\nraise ValueError('a')\n")
    base = tmp_path / "baseline.json"
    write_baseline(base, two[:1])  # grandfather only one occurrence
    kept, _ = apply_baseline(two, load_baseline(base))
    assert [f.code for f in kept] == ["RPR003"]


def test_stale_baseline_entries_counted(lint, tmp_path):
    old = lint("raise ValueError('a')\n")
    base = tmp_path / "baseline.json"
    write_baseline(base, old)
    kept, stale = apply_baseline([], load_baseline(base))
    assert kept == [] and stale == 1


def test_load_baseline_rejects_garbage(tmp_path):
    bad = tmp_path / "base.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_baseline(bad)
    bad.write_text("not json")
    with pytest.raises(ConfigError):
        load_baseline(bad)


# ---------------------------------------------------------------- CLI & output


def _write_tree(tmp_path):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("raise ValueError('x')\n")
    (pkg / "good.py").write_text("x = 1\n")
    return tmp_path / "repro"


def test_cli_exit_codes(tmp_path, capsys):
    tree = _write_tree(tmp_path)
    assert analyze_main([str(tree)]) == 1
    out = capsys.readouterr().out
    assert "RPR003" in out and "bad.py" in out
    assert analyze_main([str(tree / "core" / "good.py")]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    assert analyze_main([str(tmp_path / "nope")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_cli_unknown_select_code(tmp_path, capsys):
    tree = _write_tree(tmp_path)
    assert analyze_main([str(tree), "--select", "RPR9"]) == 2
    assert "unknown rule codes" in capsys.readouterr().err


def test_cli_json_output_is_stable(tmp_path, capsys):
    tree = _write_tree(tmp_path)
    assert analyze_main([str(tree), "--format", "json"]) == 1
    first = capsys.readouterr().out
    assert analyze_main([str(tree), "--format", "json"]) == 1
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["counts"] == {"RPR003": 1}
    assert doc["findings"][0]["path"] == "core/bad.py"


def test_cli_baseline_workflow(tmp_path, capsys):
    tree = _write_tree(tmp_path)
    base = tmp_path / "baseline.json"
    assert analyze_main([str(tree), "--baseline", str(base),
                      "--update-baseline"]) == 0
    capsys.readouterr()
    assert analyze_main([str(tree), "--baseline", str(base)]) == 0
    capsys.readouterr()
    # a new finding is not masked by the baseline
    (tree / "core" / "worse.py").write_text("raise RuntimeError('y')\n")
    assert analyze_main([str(tree), "--baseline", str(base)]) == 1
    assert "RuntimeError" in capsys.readouterr().out


def test_cli_update_baseline_requires_baseline(capsys):
    assert analyze_main(["--update-baseline"]) == 2
    assert "requires --baseline" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert analyze_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code, summary in CODES.items():
        assert f"{code}  {summary}" in out


def test_findings_sorted_deterministically(lint):
    src = "raise ValueError('b')\nraise ValueError('a')\nfor i in set(x):\n    f(i)\n"
    findings = lint(src)
    assert findings == sorted(findings, key=Finding.sort_key)
    assert [f.line for f in findings] == [1, 2, 3]
