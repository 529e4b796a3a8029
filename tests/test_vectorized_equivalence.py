"""Property tests: the columnar fast path is result-identical.

``process_trace(vectorized=True)`` must produce exactly the counters,
RAID accounting, policy extras, each policy's own integer counters and
the *eviction sequence* of the scalar per-access loop, for every
registered policy and any trace.  Hypothesis drives random synthetic
traces through both paths and compares everything observable; a
deterministic test also pins that the columnar hook actually engages,
for ``process_trace`` and for the serve driver (a silent fallback to
the scalar loop would make the equivalence, and the serve driver's
speed-up, vacuous).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.base import CacheConfig
from repro.cache.common import SetAssocPolicy
from repro.cache.partition import PartitionedCache, PartitionPlan
from repro.core.kdd import KDD
from repro.errors import RaidError
from repro.harness.runner import POLICIES, make_raid_for_trace
from repro.harness.servesweep import _make_raid
from repro.raid.layout import RaidLevel
from repro.serve import ServeDriver, WorkloadComposer, make_tenant_fleet
from repro.traces import Trace, empty_records

POLICY_NAMES = tuple(POLICIES)
#: Bounds small enough that the write-back variants flush inside a
#: 250-request trace (their defaults would never trip).
POLICY_KWARGS = {"owb": dict(max_dirty_writes=8), "jwb": dict(epoch_writes=4)}
SET_ASSOC_NAMES = tuple(
    name for name, cls in POLICIES.items() if issubclass(cls, SetAssocPolicy)
)


def make_trace(rows):
    """rows: list of (lba, npages, is_read); arrival time = index."""
    rec = empty_records(len(rows))
    for i, (lba, n, r) in enumerate(rows):
        rec[i] = (float(i), lba, n, r)
    return Trace(rec, name="prop")


def run_policy(name, trace, cache_pages, vectorized, raid=None,
               **config_kwargs):
    """One full run; returns every externally observable outcome."""
    cls = POLICIES[name]
    evictions: list[int] = []

    class Recording(cls):
        def _drop_line(self, line):
            evictions.append(line.lba)
            super()._drop_line(line)

    config = CacheConfig(cache_pages=cache_pages, **config_kwargs)
    if raid is None:
        raid = make_raid_for_trace(trace)
    policy = Recording(config, raid, **POLICY_KWARGS.get(name, {}))
    stats = policy.process_trace(trace, vectorized=vectorized)
    # the policy's own integer counters (protections, ordered_flushes,
    # epochs_committed, mirror_writes, cleanings, ...)
    extras = {k: v for k, v in vars(policy).items() if type(v) is int}
    if isinstance(policy, KDD):
        extras.update(
            dez_pages=len(policy.dez_pages),
            mlog_gc_pages=policy.mlog.gc_pages_reclaimed,
        )
    policy.check_invariants()
    return stats, raid.counters, extras, evictions


# At least 20 requests: hypothesis' average list is ~5 long, too short
# for repeated write hits (WEC protection, OWB/JWB flushes) to occur.
requests = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=199),   # lba
        st.integers(min_value=1, max_value=4),     # npages
        st.booleans(),                             # is_read
    ),
    min_size=20,
    max_size=250,
)


@settings(max_examples=20, deadline=None)
@given(
    rows=requests,
    cache_pages=st.sampled_from((64, 96, 128)),
    compression=st.sampled_from((0.12, 0.25, 0.50)),
    seed=st.integers(min_value=0, max_value=3),
)
def test_vectorized_matches_scalar(rows, cache_pages, compression, seed):
    trace = make_trace(rows)
    kwargs = dict(mean_compression=compression, seed=seed)
    for policy in POLICY_NAMES:
        scalar = run_policy(policy, trace, cache_pages, vectorized=False,
                            **kwargs)
        vector = run_policy(policy, trace, cache_pages, vectorized=True,
                            **kwargs)
        assert scalar[0] == vector[0], f"{policy}: traffic counters diverged"
        assert scalar[1] == vector[1], f"{policy}: raid counters diverged"
        assert scalar[2] == vector[2], f"{policy}: policy counters diverged"
        assert scalar[3] == vector[3], f"{policy}: eviction sequences diverged"


@settings(max_examples=20, deadline=None)
@given(
    rows=requests,
    policy=st.sampled_from(("leavo", "kdd")),
    watermark=st.sampled_from(((0.3, 0.5), (0.1, 0.9))),
)
def test_vectorized_matches_scalar_under_cleaning_pressure(
    rows, policy, watermark
):
    """Delayed-parity policies with tight dirty thresholds clean often;
    the cleaning/staging machinery must stay equivalent too."""
    low, dirty = watermark
    trace = make_trace(rows)
    kwargs = dict(low_watermark=low, dirty_threshold=dirty,
                  mean_compression=0.25)
    scalar = run_policy(policy, trace, 64, vectorized=False, **kwargs)
    vector = run_policy(policy, trace, 64, vectorized=True, **kwargs)
    assert scalar == vector


def spy_columnar(monkeypatch):
    """Record ``(policy class, handled)`` for every columnar attempt."""
    engaged = []
    orig = SetAssocPolicy._process_columnar

    def spy(self, pages, is_read):
        handled = orig(self, pages, is_read)
        engaged.append((type(self).__name__, handled))
        return handled

    monkeypatch.setattr(SetAssocPolicy, "_process_columnar", spy)
    return engaged


def test_columnar_path_engages(monkeypatch):
    """Guard against a silent fallback making the equivalence vacuous."""
    engaged = spy_columnar(monkeypatch)
    rng = np.random.default_rng(0)
    rows = [
        (int(rng.integers(0, 200)), 1, bool(rng.integers(0, 2)))
        for _ in range(400)
    ]
    trace = make_trace(rows)
    for name in SET_ASSOC_NAMES:
        run_policy(name, trace, 64, vectorized=True)
    assert all(handled for _, handled in engaged), engaged
    assert len(engaged) == len(SET_ASSOC_NAMES) == 9


@pytest.mark.parametrize("level", [RaidLevel.RAID0, RaidLevel.RAID1])
@pytest.mark.parametrize("policy", ["leavo", "kdd"])
def test_delayed_parity_without_parity_raises_alike(policy, level):
    """Delayed-parity write hits need a parity level: on RAID-0/1 the
    columnar path's counter accounting raises the scalar RaidError at
    the same access, with the same RAID counters."""
    trace = make_trace([(5, 1, True), (9, 1, False), (5, 1, False)])
    counters = []
    for vectorized in (False, True):
        raid = make_raid_for_trace(trace, level=level, ndisks=2)
        with pytest.raises(RaidError, match="parity RAID level"):
            run_policy(policy, trace, 64, vectorized, raid=raid)
        counters.append(raid.counters)
    assert counters[0] == counters[1]


@pytest.mark.parametrize("dynamic", [False, True])
def test_serve_driver_engages_columnar_path(monkeypatch, dynamic):
    """A WT serve run hands every tenant segment to the columnar path."""
    engaged = spy_columnar(monkeypatch)
    fleet = make_tenant_fleet(4, universe_pages=256, base_iops=20.0)
    composer = WorkloadComposer(fleet, seed=1)
    plan = PartitionPlan.equal(4, dynamic=dynamic, realloc_period=500)
    raid = _make_raid(composer.total_pages)
    policies = [
        POLICIES["wt"](CacheConfig(cache_pages=quota, ways=16), raid)
        for quota in plan.quotas(256)
    ]
    cache = PartitionedCache(policies, plan, total_pages=256)
    report = ServeDriver(composer, cache).run(max_requests=3000)
    assert report.row()["requests"] == 3000
    assert engaged and all(handled for _, handled in engaged), engaged
    assert sum(p.stats.accesses for p in policies) == 3000
    # every tenant segment of every batch went columnar
    assert len(engaged) >= 4
