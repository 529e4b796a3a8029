"""Tests of the benchmark itself: its spec file, its tracer, smoke runs.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.run import ONLY_ON, ranks_agree  # noqa: E402
from perfbench.tracer import BOUNDARIES, LAYERS, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(workload: str, trace: int, cwd: Path = ROOT,
         script: Path = ROOT / "perfbench" / "run.py",
         extra: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny",
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- the spec file -----------------------------------------------------------

def test_spec_has_exactly_the_contract_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200


def test_metric_names_follow_the_grammar_and_are_unique():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"]
                                            for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in metrics:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m


def test_metric_counts_within_caps():
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 2 <= len(SPEC["workloads"]) <= 8


def test_end_to_end_bounds():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_spec_workloads_are_the_benchmark_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]


def test_every_layer_reports_self_time_and_calls():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for layer in LAYERS:
        assert f"{layer}.self_s" in per_layer
        assert f"{layer}.calls" in per_layer
    assert "tracer.overhead_frac" in per_layer


# -- tracer ------------------------------------------------------------------

def test_boundaries_resolve_and_unwrap():
    tracer = Tracer()
    tracer.install()
    try:
        assert len(Tracer.leftover_wrappers()) >= len(BOUNDARIES)
    finally:
        tracer.uninstall()
    assert Tracer.leftover_wrappers() == []


def test_self_times_and_bookkeeping_add_up_to_the_wall():
    tracer = Tracer()
    inner = tracer._wrap("nvram", lambda: sum(range(50)), None)

    def outer_fn():
        for _ in range(200):
            inner()

    outer = tracer._wrap("core", outer_fn, None)
    with tracer.root():
        outer()
    assert tracer.calls["core"] == 1 and tracer.calls["nvram"] == 200
    assert tracer.bookkeeping_s > 0.0
    assert tracer.self_time_total() == pytest.approx(tracer.wall, rel=1e-9)


def test_ranks_agree_allows_ties_only():
    shares = {"a": 0.40, "b": 0.20, "c": 0.11, "d": 0.10}
    assert ranks_agree(["a", "b", "c", "d"], shares)
    assert ranks_agree(["a", "b", "d", "c"], shares)   # within the tie
    assert not ranks_agree(["b", "a", "c", "d"], shares)


# -- smoke runs at tiny size -------------------------------------------------

@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {name: _result(_run(name, 1)) for name in WORKLOADS}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_smoke_run(workload):
    res = _result(_run(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0, m["name"]


def test_traced_smoke_runs(traced):
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload, res in traced.items():
        assert res["correct"], workload
        assert {k: v["unit"] for k, v in res["metrics"].items()} == names


def test_layer_placement(traced):
    def value(workload, name):
        return traced[workload]["metrics"][name]["value"]

    for layer, owners in ONLY_ON.items():
        for workload in WORKLOADS:
            if workload not in owners:
                assert value(workload, f"{layer}.self_s") == 0.0
    for workload in ("kdd-write", "read-hot"):
        assert value(workload, "stats.self_s") == 0.0

    def commit_share(workload):
        own = sum(value(workload, f"{layer}.self_s")
                  for layer in ("core", "nvram", "cache.mlog", "delta"))
        wall = sum(value(workload, f"{layer}.self_s")
                   for layer in LAYERS + ("root",))
        return own / wall

    assert commit_share("kdd-write") > commit_share("read-hot")
    assert (value("read-hot", "cache.sets.bulk_hit_frac")
            > value("kdd-write", "cache.sets.bulk_hit_frac"))


def test_sim_metrics_repeat_exactly():
    first = _result(_run("fio-timed", 0))["metrics"]
    again = _result(_run("fio-timed", 0))["metrics"]
    for name in ("sim_hit_ratio", "sim_ssd_writes_per_access"):
        assert first[name] == again[name]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("kdd-write", 0, cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
