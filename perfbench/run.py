"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload kdd-write [--seed 0] \\
        [--seconds 20] [--trace 0|1] [--size full|tiny]

``--trace 0`` measures with no instrumentation: it repeats passes (fresh
set-up, then the timed cells) until ``--seconds`` of timed work are done
and prints every end-to-end metric.  ``--trace 1`` runs one untraced and
one traced pass, checks that both give the same simulated rows, and
prints every per-layer metric.  Human-readable lines go first; the last
line of standard output is the JSON result.

The program under test is imported from ``src/`` next to this directory;
without it the command fails before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any

ROOT_DIR = Path(__file__).resolve().parent.parent

#: Timed passes per ``--trace 0`` run, at least.
MIN_PASSES = 2
#: Set-ups per run, at least; extra ones are built and dropped.
MIN_SETUPS = 9
#: Traced self times must add up to the traced wall within this share.
SELF_TIME_TOLERANCE = 1e-6

#: Two layers whose cProfile shares differ by less than this are tied.
RANK_TIE = 0.15

SIM_UNITS = {"sim_hit_ratio": "fraction",
             "sim_ssd_writes_per_access": "pages/access"}

#: Per-layer counts read from the tracer or the program state, by unit.
STATE_COUNTS = {
    "core.cleanings": "count",
    "core.forced_cleanings": "count",
    "core.dez_pages": "pages",
    "cache.evictions": "count",
    "nvram.flushes": "count",
    "cache.mlog.commits": "count",
    "cache.mlog.gc_pages": "pages",
    "engine.events": "count",
    "disk.util": "fraction",
    "serve.metric_state_bytes": "bytes",
    "cache.partition.realloc_passes": "count",
    "cache.partition.migrated_lines": "count",
}

#: Layers whose self time must be exactly 0 on the other workloads.
ONLY_ON = {
    "engine": ("fio-timed",),
    "disk": ("fio-timed",),
    "serve": ("serve-mt",),
    "cache.partition": ("serve-mt",),
    # ServeMetrics feeds the streaming estimators, so stats also runs
    # under serve-mt's ServeDriver.run.
    "stats": ("fio-timed", "serve-mt"),
}


def _bootstrap() -> None:
    """Put the checkout's ``src/`` and this package on ``sys.path``."""
    src = ROOT_DIR / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}/repro")
    for path in (str(ROOT_DIR), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")


def digest(rows: list[dict[str, Any]]) -> str:
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Pass:
    """One set-up plus one run of every cell, with its checks.

    With ``scaled``, every timed region is bracketed by the reference
    loop (:mod:`perfbench.clock`); :attr:`setup_scaled_s` and
    :attr:`timed_scaled_s` hold reference-scaled seconds.
    """

    def __init__(self, wl: Any, span: Any = None,
                 scaled: bool = False) -> None:
        from perfbench.clock import timed
        from perfbench.workloads import CheckFailed, no_span

        span = span or no_span
        gc.collect()
        self.jobs, self.setup_s, self.setup_scaled_s = timed(wl.setup,
                                                             scaled)
        self.timed_s = 0.0
        self.timed_scaled_s = 0.0
        self.errors: list[str] = []
        ran = []
        for job in self.jobs:
            try:
                _, elapsed, norm = timed(lambda job=job: wl.run(job, span),
                                         scaled)
            except Exception:  # a cell that raises is counted, not fatal
                self.errors.append(f"{job.label}: "
                                   + traceback.format_exc(limit=3))
                continue
            self.timed_s += elapsed
            self.timed_scaled_s += norm
            ran.append(job)
        self.rows = []
        for job in ran:
            try:
                wl.check(job)
                self.rows.append(wl.row(job))
            except CheckFailed as exc:
                self.errors.append(str(exc))
            except Exception:
                self.errors.append(f"{job.label}: check raised "
                                   + traceback.format_exc(limit=3))
        self.ops = sum(job.ops for job in self.jobs)
        self.digest = digest(self.rows)

    def sim_metrics(self) -> dict[str, float]:
        jobs = [j for j in self.jobs if j.sim and j.stats is not None]
        accesses = sum(j.stats.accesses for j in jobs) or 1
        return {
            "sim_hit_ratio": sum(j.stats.hits for j in jobs) / accesses,
            "sim_ssd_writes_per_access":
                sum(j.stats.ssd_writes for j in jobs) / accesses,
        }


class Tally:
    """Cells and checks attempted, and the messages of those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.errors.append(message)

    def add_pass(self, p: Pass) -> None:
        self.attempted += len(p.jobs)
        self.errors.extend(p.errors)

    def prefix_checks(self, wl: Any) -> None:
        try:
            checks = wl.prefix_checks()
        except Exception:
            self.check(False, "prefix checks raised "
                       + traceback.format_exc(limit=3))
            return
        for _label, err in checks:
            self.check(err is None, err or "")


def measure(wl: Any, seconds: float) -> dict[str, Any]:
    """``--trace 0``: end-to-end metrics over repeated untraced passes.

    Passes repeat until ``seconds`` of measured cell time are done.  Only
    the first pass's objects are kept (for its rows and ``sim_*``
    metrics), so the memory high-water mark is one pass's.
    """
    from perfbench.clock import timed

    tally = Tally()
    tally.prefix_checks(wl)
    first = Pass(wl, scaled=True)
    tally.add_pass(first)
    sim = first.sim_metrics()
    resp = wl.resp_ms(first.jobs)
    first.jobs = []
    passes = [first]
    while (len(passes) < MIN_PASSES
           or sum(p.timed_s for p in passes) < seconds):
        p = Pass(wl, scaled=True)
        tally.add_pass(p)
        p.jobs = []
        tally.check(p.digest == first.digest,
                    f"pass rows {p.digest} differ from the first pass's "
                    f"{first.digest}")
        passes.append(p)
    setups = [(p.setup_s, p.setup_scaled_s) for p in passes]
    while len(setups) < MIN_SETUPS:
        gc.collect()
        setups.append(timed(wl.setup, scaled=True)[1:])
    ops = sum(p.ops for p in passes)
    metrics: dict[str, tuple[float, str]] = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "throughput_ops_per_s": (
            ops / sum(p.timed_scaled_s for p in passes), "ops/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    for name, value in sim.items():
        metrics[name] = (value, SIM_UNITS[name])
    info: dict[str, Any] = {
        "passes": len(passes),
        "ops_per_pass": first.ops,
        "digest": first.digest,
        "measured_ops_per_s": round(ops / sum(p.timed_s for p in passes), 1),
        "measured_setup_s": round(statistics.median(m for m, _ in setups), 6),
    }
    if resp is not None:
        info["sim_resp_p50_ms"] = _percentile(resp, 50)
        info["sim_resp_p99_ms"] = _percentile(resp, 99)
        info["sim_resp_samples"] = int(resp.size)
    return {"tally": tally, "metrics": metrics, "info": info}


def _percentile(values: Any, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _profile_shares(wl: Any) -> dict[str, float]:
    """Share of self time per layer under cProfile, over one pass."""
    import cProfile
    import pstats

    from perfbench.tracer import profile_self_by_package

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        Pass(wl)
    finally:
        profiler.disable()
    by_layer = profile_self_by_package(pstats.Stats(profiler))
    total = sum(by_layer.values())
    return {layer: t / total for layer, t in by_layer.items()}


def ranks_agree(ours: list[str], shares: dict[str, float]) -> bool:
    """``ours`` is ordered like ``shares``, up to ties within RANK_TIE."""
    for hi, lo in zip(ours, ours[1:]):
        a, b = shares.get(hi, 0.0), shares.get(lo, 0.0)
        if a < b * (1.0 - RANK_TIE):
            return False
    return True


def measure_traced(wl: Any, out_dir: Path) -> dict[str, Any]:
    """``--trace 1``: per-layer metrics from one traced pass."""
    from perfbench.tracer import LAYERS, ROOT, Tracer

    tally = Tally()
    tally.prefix_checks(wl)

    gc.collect()
    t0 = time.perf_counter()
    plain = Pass(wl)
    plain_wall = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root():
            traced = Pass(wl, span=tracer.span)
    finally:
        tracer.uninstall()
    tally.add_pass(plain)
    tally.add_pass(traced)
    leftover = Tracer.leftover_wrappers()
    tally.check(not leftover, f"wrappers left installed: {leftover}")
    tally.check(traced.digest == plain.digest,
                f"traced rows {traced.digest} differ from untraced rows "
                f"{plain.digest}")
    total = tracer.self_time_total()
    tally.check(abs(total - tracer.wall) <= SELF_TIME_TOLERANCE * tracer.wall,
                f"self times and bookkeeping sum to {total:.6f}s, traced "
                f"wall is "
                f"{tracer.wall:.6f}s")
    for layer, owners in ONLY_ON.items():
        if wl.name not in owners:
            tally.check(tracer.self_s[layer] == 0.0,
                        f"layer {layer} ran on {wl.name}")

    counts = dict(tracer.counts)
    counts.update(wl.state_counts(traced.jobs))
    stats = [j.stats for j in traced.jobs if j.stats is not None]
    accesses = sum(s.accesses for s in stats)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
        metrics[f"{layer}.calls"] = (tracer.calls[layer], "count")
    metrics[f"{ROOT}.self_s"] = (tracer.self_s[ROOT], "s")
    for name, unit in STATE_COUNTS.items():
        metrics[name] = (counts.get(name, 0), unit)
    metrics["cache.bypass_frac"] = (
        ratio(sum(s.bypasses for s in stats), accesses), "fraction")
    metrics["cache.sets.bulk_hit_frac"] = (
        ratio(counts.get("cache.sets.bulk_hits", 0), accesses), "fraction")
    metrics["nvram.deltas_per_flush"] = (
        ratio(counts.get("nvram.flushed_deltas", 0),
              counts.get("nvram.flushes", 0)), "deltas/flush")
    metrics["cache.mlog.entries_per_commit"] = (
        ratio(counts.get("cache.mlog.entries", 0),
              counts.get("cache.mlog.commits", 0)), "entries/commit")
    metrics["raid.member_ops_per_access"] = (
        ratio(counts.get("raid.member_ops", 0), accesses), "ops/access")
    metrics["engine.events_per_request"] = (
        ratio(counts.get("engine.events", 0), traced.ops), "events/request")
    resp = wl.resp_ms(traced.jobs)
    for q in (50, 99):
        metrics[f"sim_resp_p{q}_ms"] = (
            _percentile(resp, q) if resp is not None else 0.0, "ms")
    metrics["tracer.overhead_frac"] = (tracer.wall / plain_wall - 1.0,
                                       "fraction")

    top = sorted((layer for layer in LAYERS if tracer.self_s[layer] > 0),
                 key=tracer.self_s.get, reverse=True)[:4]
    info: dict[str, Any] = {
        "digest": traced.digest,
        "traced_wall_s": tracer.wall,
        "untraced_wall_s": plain_wall,
        "bookkeeping_s": tracer.bookkeeping_s,
        "top_layers": {layer: round(tracer.self_s[layer] / tracer.wall, 4)
                       for layer in top},
    }
    if wl.name == "kdd-write":
        shares = _profile_shares(wl)
        info["profile_shares"] = {
            layer: round(share, 4) for layer, share in
            sorted(shares.items(), key=lambda kv: -kv[1])[:6]}
        profiled = sorted((layer for layer in shares
                           if tracer.self_s.get(layer, 0.0) > 0),
                          key=shares.get, reverse=True)[:4]
        tally.check(set(profiled) == set(top) and ranks_agree(top, shares),
                    f"tracer ranks {top} but cProfile ranks {profiled}")
    tracer.dump(out_dir / f"trace-{wl.name}-seed{wl.seed}.json",
                {"workload": wl.name, "seed": wl.seed, "size": wl.size})
    return {"tally": tally, "metrics": metrics, "info": info}


def _pin_hash_seed() -> None:
    """Re-exec this process with ``PYTHONHASHSEED=0`` unless already set.

    String hashing decides dict and set layouts, and with a random seed
    per process the same pass ran up to 10 % apart between processes.
    ``execve`` replaces the process; no child is started.
    """
    if os.environ.get("PYTHONHASHSEED") == "0":
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]], env)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    args = parser.parse_args(argv)

    _bootstrap()
    from perfbench.workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if args.size not in SIZES:
        parser.error(f"--size must be one of {SIZES}")
    wl = WORKLOADS[args.workload](size=args.size, seed=args.seed)
    if args.trace:
        result = measure_traced(wl, ROOT_DIR / "perfbench" / "out")
    else:
        result = measure(wl, args.seconds)

    tally = result["tally"]
    print(f"workload {wl.name} seed {wl.seed} size {wl.size} "
          f"trace {args.trace}")
    for key, value in result["info"].items():
        print(f"  {key}: {value}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    failed = len(tally.errors)
    print(f"  error_rate = {failed / tally.attempted:.6g} fraction "
          f"({failed} of {tally.attempted} cells and checks)")
    for err in tally.errors:
        print(f"  ERROR {err}")
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main())
