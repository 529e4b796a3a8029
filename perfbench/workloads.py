"""The benchmark's four workloads: inputs from a seed, timed cells, checks.

Every workload goes through the program's public entry points only:

* ``kdd-write`` and ``read-hot`` — :func:`repro.harness.runner.build_policy`
  plus :meth:`repro.cache.base.CachePolicy.process_trace` (vectorized)
  over generated MSR-like traces;
* ``fio-timed`` — :func:`repro.sim.closedloop.run_closed_loop` on a
  :class:`repro.sim.system.TimedSystem` (the Fig 10/11 closed loop);
* ``serve-mt`` — :class:`repro.serve.driver.ServeDriver` over a
  :class:`repro.cache.partition.PartitionedCache`, built the way
  :func:`repro.harness.servesweep.run_serve_cell` builds it.

A workload's :meth:`Workload.setup` generates the inputs from the seed
and builds fresh policies, arrays and engines (modelled caches start
empty); :meth:`Workload.run` is the timed region of one cell;
:meth:`Workload.check` validates a cell's outputs afterwards.
"""

from __future__ import annotations

import dataclasses
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import repro.traces.workloads as trace_workloads
from repro.cache.base import CacheConfig, TrafficCounters
from repro.cache.partition import PartitionedCache, PartitionPlan
from repro.core.kdd import KDD
from repro.engine.hooks import EngineHook
from repro.harness.runner import build_policy, make_raid_for_trace
from repro.harness.servesweep import run_serve_cell, serve_cell
from repro.raid.array import RAIDArray
from repro.raid.layout import RaidLevel
from repro.serve.composer import WorkloadComposer
from repro.serve.driver import ServeDriver
from repro.serve.tenants import make_tenant_fleet
from repro.sim.closedloop import FioConfig, run_closed_loop
from repro.sim.system import TimedSystem

SIZES = ("full", "tiny")

#: Spans the benchmark opens itself: ``span(layer)`` -> context manager.
SpanFn = Callable[[str], AbstractContextManager]


def no_span(layer: str) -> AbstractContextManager:
    return nullcontext()


class CheckFailed(Exception):
    """A cell's outputs failed one of the benchmark's output checks."""


@dataclass
class Job:
    """One cell of one pass: the built objects and, after the run, results."""

    label: str
    #: Work units of this cell: page accesses or requests.
    ops: int
    #: Whether the cell counts towards the ``sim_*`` metrics.
    sim: bool
    objs: dict[str, Any] = field(default_factory=dict)
    stats: TrafficCounters | None = None
    result: Any = None


class Workload:
    """Base class: a named set of cells with inputs derived from a seed."""

    name = "abstract"
    why = ""

    def __init__(self, size: str = "full", seed: int = 0) -> None:
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}, got {size!r}")
        self.size = size
        self.seed = seed

    def setup(self) -> list[Job]:
        """Generate inputs and build every cell's objects."""
        raise NotImplementedError

    def run(self, job: Job, span: SpanFn = no_span) -> None:
        """The timed region of one cell."""
        raise NotImplementedError

    def check(self, job: Job) -> None:
        """Raise :class:`CheckFailed` if the cell's outputs are wrong."""
        raise NotImplementedError

    def row(self, job: Job) -> dict[str, Any]:
        """The cell's simulated (deterministic) result row."""
        raise NotImplementedError

    def prefix_checks(self) -> list[tuple[str, str | None]]:
        """Extra checks made once per run, outside any timed region.

        Returns ``(label, error or None)`` per checked cell.
        """
        return []

    def state_counts(self, jobs: list[Job]) -> dict[str, float]:
        """Per-layer counts read from the program's state after a pass."""
        return {}

    def resp_ms(self, jobs: list[Job]) -> np.ndarray | None:
        """Simulated response times of the ``sim`` cells, if any."""
        return None


# ---------------------------------------------------------------------------
# Trace-driven workloads (kdd-write, read-hot)
# ---------------------------------------------------------------------------

#: Per-trace offset that keeps the traces of one seed distinct.
_TRACE_INDEX = {"Fin1": 1, "Fin2": 2, "Hm0": 3, "Web0": 4}


def trace_seed(trace: str, seed: int) -> int | None:
    """Generator seed of ``trace``: seed 0 keeps the repository's pinned one."""
    return None if seed == 0 else 1000 * seed + _TRACE_INDEX[trace]


def cache_pages_for(trace: str, scale: float, fraction: float) -> int:
    """``fraction`` of the trace's footprint, floored at 64 pages."""
    unique = trace_workloads.workload_spec(trace, scale).unique_pages
    return min(max(64, int(unique * fraction)), max(unique, 1))


def _trace_row(job: Job) -> dict[str, Any]:
    policy = job.objs["policy"]
    row: dict[str, Any] = {"cell": job.label,
                           "cache_pages": policy.config.cache_pages}
    row.update(dataclasses.asdict(policy.stats))
    row["raid"] = dataclasses.asdict(policy.raid.counters)
    if isinstance(policy, KDD):
        row.update(cleanings=policy.cleanings,
                   forced_cleanings=policy.forced_cleanings,
                   dez_pages=len(policy.dez_pages),
                   mlog_gc_pages=policy.mlog.gc_pages_reclaimed)
    return row


class TraceWorkload(Workload):
    """Policies over generated traces through ``process_trace``."""

    #: ``(policy, trace)`` cells, run in this order.
    cells: tuple[tuple[str, str], ...] = ()
    scales = {"full": 1.0, "tiny": 0.05}
    cache_fraction = 1.0
    mean_compression = 0.25
    #: Requests of each trace replayed scalar *and* vectorized per run.
    prefix_requests = {"full": 4000, "tiny": 400}

    @property
    def scale(self) -> float:
        return self.scales[self.size]

    def traces(self) -> dict[str, Any]:
        names = dict.fromkeys(trace for _policy, trace in self.cells)
        return {
            name: trace_workloads.make_workload(
                name, self.scale, seed=trace_seed(name, self.seed))
            for name in names
        }

    def _build(self, policy: str, trace: Any) -> Any:
        config = CacheConfig(
            cache_pages=cache_pages_for(trace.name, self.scale,
                                        self.cache_fraction),
            seed=self.seed,
            mean_compression=self.mean_compression,
        )
        return build_policy(policy, config, make_raid_for_trace(trace))

    def setup(self) -> list[Job]:
        traces = self.traces()
        jobs = []
        for policy, name in self.cells:
            trace = traces[name]
            jobs.append(Job(
                label=f"{policy}/{name}",
                ops=int(trace.records["npages"].sum()),
                sim=True,
                objs={"policy": self._build(policy, trace), "trace": trace},
            ))
        return jobs

    def run(self, job: Job, span: SpanFn = no_span) -> None:
        policy = job.objs["policy"]
        with span("core" if isinstance(policy, KDD) else "cache"):
            job.stats = policy.process_trace(job.objs["trace"],
                                             vectorized=True)

    def check(self, job: Job) -> None:
        job.objs["policy"].check_invariants()
        stats = job.stats
        if stats is None or stats.accesses != job.ops:
            raise CheckFailed(
                f"{job.label}: read+write hits+misses "
                f"{None if stats is None else stats.accesses} != "
                f"{job.ops} page accesses in the input")

    def row(self, job: Job) -> dict[str, Any]:
        return _trace_row(job)

    def prefix_checks(self) -> list[tuple[str, str | None]]:
        traces = self.traces()
        n = self.prefix_requests[self.size]
        out = []
        for policy, name in self.cells:
            head = traces[name].head(n)
            rows = []
            for vectorized in (False, True):
                built = self._build(policy, head)
                built.process_trace(head, vectorized=vectorized)
                rows.append(_trace_row(Job("prefix", 0, True,
                                           objs={"policy": built})))
            label = f"{policy}/{name} prefix {n}"
            out.append((label, None if rows[0] == rows[1] else
                        f"{label}: scalar rows {rows[0]} != "
                        f"vectorized rows {rows[1]}"))
        return out

    def state_counts(self, jobs: list[Job]) -> dict[str, float]:
        kdd = [j.objs["policy"] for j in jobs
               if isinstance(j.objs["policy"], KDD)]
        return {
            "core.cleanings": sum(p.cleanings for p in kdd),
            "core.forced_cleanings": sum(p.forced_cleanings for p in kdd),
            "core.dez_pages": sum(len(p.dez_pages) for p in kdd),
            "cache.mlog.gc_pages": sum(p.mlog.gc_pages_reclaimed
                                       for p in kdd),
            "raid.member_ops": sum(j.objs["policy"].raid.counters.total
                                   for j in jobs),
        }


class KddWrite(TraceWorkload):
    name = "kdd-write"
    why = ("KDD at 25% compression on write-dominant Fin1+Hm0 (scale 0.01, "
           "158k page accesses, cache 10% of footprint): the KDD commit "
           "path core/nvram/cache.mlog/delta")
    cells = (("kdd", "Fin1"), ("kdd", "Hm0"))
    scales = {"full": 0.01, "tiny": 0.0005}
    cache_fraction = 0.10


class ReadHot(TraceWorkload):
    name = "read-hot"
    why = ("WT/WA/LeavO on read-dominant Fin2+Web0 and KDD on Fin2 (scale "
           "0.02, 0.82M accesses, cache 50% of footprint): columnar "
           "classify and read hits in cache and cache.sets")
    cells = tuple((p, t) for t in ("Fin2", "Web0")
                  for p in ("wt", "wa", "leavo")) + (("kdd", "Fin2"),)
    scales = {"full": 0.02, "tiny": 0.001}
    cache_fraction = 0.50


# ---------------------------------------------------------------------------
# fio-timed: the closed loop on the event engine
# ---------------------------------------------------------------------------

class ResponseTimes(EngineHook):
    """Collects every foreground response time (seconds)."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def on_request_done(self, engine: Any, record: Any) -> None:
        self.samples.append(record.response_time)


class FioTimed(Workload):
    name = "fio-timed"
    why = ("Fig 10/11 closed loop: nossd/WT/KDD at read rate 0 and 0.5, "
           "12k requests per cell from 16 simulated threads, Zipf 1.0001 "
           "over 80k pages, 50k-page cache: engine/disk/stats/raid")
    policies = ("nossd", "wt", "kdd")
    read_rates = (0.0, 0.5)
    shapes = {
        "full": dict(total_requests=12_000, working_set_pages=80_000,
                     cache_pages=50_000),
        "tiny": dict(total_requests=600, working_set_pages=4_000,
                     cache_pages=2_500),
    }
    nthreads = 16

    def setup(self) -> list[Job]:
        shape = self.shapes[self.size]
        jobs = []
        for read_rate in self.read_rates:
            for policy in self.policies:
                fio = FioConfig(
                    total_requests=shape["total_requests"],
                    working_set_pages=shape["working_set_pages"],
                    nthreads=self.nthreads,
                    read_rate=read_rate,
                    seed=self.seed,
                )
                raid = RAIDArray(
                    RaidLevel.RAID5, ndisks=5, chunk_pages=16,
                    pages_per_disk=max(1 << 14, 2 * fio.working_set_pages),
                )
                config = CacheConfig(cache_pages=shape["cache_pages"],
                                     seed=self.seed, mean_compression=0.25)
                hook = ResponseTimes()
                system = TimedSystem(build_policy(policy, config, raid),
                                     hooks=(hook,))
                jobs.append(Job(
                    label=f"{policy}/r{int(read_rate * 100)}",
                    ops=fio.total_requests,
                    sim=policy == "kdd",
                    objs={"fio": fio, "system": system, "hook": hook},
                ))
        return jobs

    def run(self, job: Job, span: SpanFn = no_span) -> None:
        job.result = run_closed_loop(job.objs["system"], job.objs["fio"])
        job.stats = job.objs["system"].policy.stats

    def check(self, job: Job) -> None:
        system = job.objs["system"]
        recorded = len(system.recorder)
        if recorded != job.ops:
            raise CheckFailed(f"{job.label}: recorded {recorded} responses "
                              f"for {job.ops} requests")
        samples = job.objs["hook"].samples
        if len(samples) != job.ops or min(samples) <= 0.0:
            raise CheckFailed(f"{job.label}: a response time is not > 0")

    def row(self, job: Job) -> dict[str, Any]:
        row: dict[str, Any] = {"cell": job.label, **job.result.row()}
        row.update(dataclasses.asdict(job.stats))
        row["events"] = job.objs["system"].engine.loop.processed
        return row

    def state_counts(self, jobs: list[Job]) -> dict[str, float]:
        utils = []
        for job in jobs:
            per_device = job.objs["system"].utilisation(job.result.duration)
            disks = [v for k, v in per_device.items() if k.startswith("disk")]
            utils.append(sum(disks) / len(disks))
        return {
            "engine.events": sum(j.objs["system"].engine.loop.processed
                                 for j in jobs),
            "disk.util": sum(utils) / len(utils),
            "raid.member_ops": sum(j.objs["system"].policy.raid.counters.total
                                   for j in jobs),
        }

    def resp_ms(self, jobs: list[Job]) -> np.ndarray | None:
        return 1e3 * np.concatenate(
            [np.asarray(j.objs["hook"].samples) for j in jobs if j.sim])


# ---------------------------------------------------------------------------
# serve-mt: multi-tenant partitioned cache
# ---------------------------------------------------------------------------

class ServeMt(Workload):
    name = "serve-mt"
    why = ("32 tenants under WT with a static and a dynamic partition plan, "
           "100k requests each over 32k pages into a 2048-page cache: the "
           "serve driver and cache.partition")
    #: Fleet, plan and cache shape of ``BENCH_serve.json``'s drive.
    fleet = dict(universe_pages=1024, base_iops=50.0,
                 diurnal_amplitude=0.9, diurnal_period_s=600.0)
    shapes = {
        "full": dict(n_tenants=32, cache_pages=2048, max_requests=100_000,
                     realloc_period=4000),
        "tiny": dict(n_tenants=8, cache_pages=512, max_requests=4_000,
                     realloc_period=500),
    }
    min_fraction = 0.01
    ways = 16
    #: Requests replayed through ``run_serve_cell`` as a parity check.
    parity_requests = {"full": 5_000, "tiny": 1_000}

    def _build(self, dynamic: bool, max_requests: int) -> Job:
        shape = self.shapes[self.size]
        n = shape["n_tenants"]
        composer = WorkloadComposer(make_tenant_fleet(n, **self.fleet),
                                    seed=self.seed, epoch_s=60.0)
        plan = PartitionPlan.equal(n, dynamic=dynamic,
                                   realloc_period=shape["realloc_period"],
                                   min_fraction=self.min_fraction)
        total = composer.total_pages
        pages_per_disk = max(64, -(-(total + 1) // 4) + 16)
        raid = RAIDArray(ndisks=5, chunk_pages=16,
                         pages_per_disk=-(-pages_per_disk // 16) * 16)
        policies = [
            build_policy("wt", CacheConfig(cache_pages=quota, seed=self.seed,
                                           ways=self.ways), raid)
            for quota in plan.quotas(shape["cache_pages"])
        ]
        cache = PartitionedCache(policies, plan,
                                 total_pages=shape["cache_pages"])
        label = "dynamic" if dynamic else "static"
        driver = ServeDriver(composer, cache, label=label)
        return Job(label=label, ops=max_requests, sim=True,
                   objs={"driver": driver, "cache": cache, "raid": raid,
                         "dynamic": dynamic})

    def setup(self) -> list[Job]:
        max_requests = self.shapes[self.size]["max_requests"]
        return [self._build(dynamic, max_requests)
                for dynamic in (False, True)]

    def run(self, job: Job, span: SpanFn = no_span) -> None:
        job.result = job.objs["driver"].run(max_requests=job.ops)
        job.stats = job.objs["cache"].combined_stats()

    def check(self, job: Job) -> None:
        job.objs["cache"].check_invariants()
        served = job.result.row()["requests"]
        if served != job.ops:
            raise CheckFailed(f"{job.label}: served {served} requests, "
                              f"max_requests is {job.ops}")

    def row(self, job: Job) -> dict[str, Any]:
        return {"plan": job.label, **job.result.row()}

    def prefix_checks(self) -> list[tuple[str, str | None]]:
        """The benchmark's build matches ``run_serve_cell`` row for row."""
        shape = self.shapes[self.size]
        n = self.parity_requests[self.size]
        out = []
        for dynamic in (False, True):
            job = self._build(dynamic, n)
            self.run(job)
            ours = {"plan": job.label, "policy": "wt", **job.result.row()}
            cell = serve_cell(
                policy="wt", cache_pages=shape["cache_pages"],
                n_tenants=shape["n_tenants"], dynamic=dynamic,
                seed=self.seed, label=job.label, max_requests=n,
                realloc_period=shape["realloc_period"],
                min_fraction=self.min_fraction, ways=self.ways,
                **self.fleet)
            theirs = run_serve_cell(cell)
            label = f"{job.label} vs run_serve_cell {n}"
            out.append((label, None if ours == theirs else
                        f"{label}: {ours} != {theirs}"))
        return out

    def state_counts(self, jobs: list[Job]) -> dict[str, float]:
        return {
            "serve.metric_state_bytes": max(
                j.objs["driver"].metrics.state_bytes() for j in jobs),
            "cache.partition.realloc_passes": sum(
                j.objs["cache"].realloc.passes for j in jobs),
            "cache.partition.migrated_lines": sum(
                j.objs["cache"].realloc.migrated_lines for j in jobs),
            "raid.member_ops": sum(j.objs["raid"].counters.total
                                   for j in jobs),
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (KddWrite, ReadHot, FioTimed, ServeMt)
}
