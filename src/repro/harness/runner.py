"""High-level simulation runner: one call = one (policy, trace) cell.

This is the function behind every hit-ratio / write-traffic figure:
build a RAID array sized for the trace, build the requested policy,
stream the trace through it, and return a :class:`SimulationResult`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, fields
from typing import Any

from ..cache.base import CacheConfig, CachePolicy, TrafficCounters
from ..cache.dedup import DedupWriteThrough
from ..cache.leavo import LeavO
from ..cache.nocache import Nossd
from ..cache.raidcache import MirroredWriteBack
from ..cache.wbpolicies import JournaledWriteBack, OrderedWriteBack
from ..cache.wec import WecWriteThrough
from ..cache.writearound import WriteAround
from ..cache.writeback import WriteBack
from ..cache.writethrough import WriteThrough
from ..core.kdd import KDD
from ..errors import ConfigError
from ..raid.array import RaidCounters, RAIDArray
from ..raid.layout import RaidLevel
from ..traces.trace import Trace

POLICIES: dict[str, type[CachePolicy]] = {
    "nossd": Nossd,
    "wt": WriteThrough,
    "wa": WriteAround,
    "wb": WriteBack,
    "leavo": LeavO,
    "kdd": KDD,
    "dedup-wt": DedupWriteThrough,
    "mwb": MirroredWriteBack,
    "owb": OrderedWriteBack,
    "jwb": JournaledWriteBack,
    "wec-wt": WecWriteThrough,
}


@dataclass(frozen=True)
class SimulationResult:
    """Everything a figure needs from one simulation run."""

    policy: str
    workload: str
    cache_pages: int
    stats: TrafficCounters
    raid: RaidCounters
    extras: dict[str, Any]

    @property
    def hit_ratio(self) -> float:
        return self.stats.hit_ratio

    @property
    def read_hit_ratio(self) -> float:
        return self.stats.read_hit_ratio

    @property
    def ssd_write_pages(self) -> int:
        return self.stats.ssd_writes

    @property
    def meta_fraction(self) -> float:
        return self.stats.meta_fraction

    def row(self) -> dict[str, Any]:
        return {
            "policy": self.policy,
            "workload": self.workload,
            "cache_pages": self.cache_pages,
            "hit_ratio": round(self.hit_ratio, 4),
            "ssd_write_pages": self.ssd_write_pages,
            "meta_fraction": round(self.meta_fraction, 4),
            "raid_reads": self.raid.reads,
            "raid_writes": self.raid.writes,
        }


def make_raid_for_trace(
    trace: Trace,
    level: RaidLevel = RaidLevel.RAID5,
    ndisks: int = 5,
    chunk_pages: int = 16,
    store_data: bool = False,
) -> RAIDArray:
    """A RAID array large enough to hold the trace's address space.

    An empty trace is valid input: ``Trace.max_page`` is 0 for it, and
    the minimum-size floor below yields a small but fully functional
    array (a few stripes), so policies can be exercised on degenerate
    traces without special-casing.
    """
    data_disks = max(1, ndisks - {RaidLevel.RAID5: 1, RaidLevel.RAID6: 2}.get(level, 0))
    if level is RaidLevel.RAID1:
        data_disks = 1
    max_page = trace.max_page if len(trace) else 0
    pages_per_disk = max(
        chunk_pages * 4, -(-(max_page + 1) // data_disks) + chunk_pages
    )
    # round up to whole stripes
    pages_per_disk = -(-pages_per_disk // chunk_pages) * chunk_pages
    return RAIDArray(
        level=level,
        ndisks=ndisks,
        chunk_pages=chunk_pages,
        pages_per_disk=pages_per_disk,
        page_size=trace.page_size,
        store_data=store_data,
    )


def build_policy(
    name: str,
    config: CacheConfig,
    raid: RAIDArray,
    **policy_kwargs: Any,
) -> CachePolicy:
    """Instantiate a policy by name ('wt', 'wa', 'wb', 'leavo', 'kdd', 'nossd')."""
    try:
        cls = POLICIES[name.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown policy {name!r}; choose from {sorted(POLICIES)}"
        ) from None
    if policy_kwargs:
        _check_policy_kwargs(name, cls, policy_kwargs)
    return cls(config, raid, **policy_kwargs)


def _check_policy_kwargs(
    name: str, cls: type[CachePolicy], policy_kwargs: dict[str, Any]
) -> None:
    """Reject unknown constructor kwargs with a ConfigError, not a TypeError.

    Mirrors the ``config_kwargs`` validation in :func:`simulate_policy`:
    a misspelt policy option is a configuration mistake and should name
    the policy and the offending keyword instead of leaking the raw
    ``TypeError`` from ``cls.__init__``.
    """
    try:
        params = inspect.signature(cls.__init__).parameters
    except (TypeError, ValueError):  # C-level or exotic __init__
        return
    if any(p.kind is p.VAR_KEYWORD for p in params.values()):
        return
    valid = {
        n for n, p in params.items()
        if n != "self" and p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
    }
    bad = set(policy_kwargs) - valid
    if bad:
        options = sorted(valid - {"config", "raid"})
        raise ConfigError(
            f"policy {name!r} ({cls.__name__}) got unknown keyword(s) "
            f"{sorted(bad)}; valid options: {options}"
        )


def simulate_policy(
    name: str,
    trace: Trace,
    cache_pages: int,
    raid: RAIDArray | None = None,
    policy_kwargs: dict[str, Any] | None = None,
    vectorized: bool = True,
    **config_kwargs: Any,
) -> SimulationResult:
    """Run ``trace`` through policy ``name`` with a ``cache_pages`` cache.

    Extra keyword arguments go to :class:`CacheConfig` (e.g.
    ``mean_compression=0.12``, ``meta_partition_frac=0.0039``, ``seed=7``).
    The trace takes the columnar fast path wherever the configuration
    allows it (identical results; see
    :meth:`repro.cache.base.CachePolicy.access_many`);
    ``vectorized=False`` forces the scalar per-access loop.
    """
    valid = {f.name for f in fields(CacheConfig)}
    bad = set(config_kwargs) - valid
    if bad:
        raise ConfigError(f"unknown CacheConfig fields: {sorted(bad)}")
    config = CacheConfig(cache_pages=cache_pages, **config_kwargs)
    if raid is None:
        raid = make_raid_for_trace(trace)
    policy = build_policy(name, config, raid, **(policy_kwargs or {}))
    stats = policy.process_trace(trace, vectorized=vectorized)
    extras: dict[str, Any] = {}
    if isinstance(policy, KDD):
        extras.update(
            cleanings=policy.cleanings,
            forced_cleanings=policy.forced_cleanings,
            dez_pages=len(policy.dez_pages),
            mlog_gc_pages=policy.mlog.gc_pages_reclaimed,
        )
    if policy.ssd is not None:
        extras.update(
            write_amplification=policy.ssd.write_amplification,
            nand_erases=policy.ssd.ftl.wear.total_erases,
        )
    return SimulationResult(
        policy=name.lower(),
        workload=trace.name,
        cache_pages=cache_pages,
        stats=stats,
        raid=raid.counters,
        extras=extras,
    )
