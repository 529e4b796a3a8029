"""Per-tenant cache partitioning: plans, routing, dynamic reallocation.

Partition quotas split one cache across tenant directories; dynamic
mode moves quota through the public ``alloc`` surface only, so the
mirror-coherence contracts and cache invariants must hold across every
resize, and the endurance cost of migration shows up in ``ssd_writes``.
Batched routing (``access_many``) must equal a one-request-at-a-time
reference loop row for row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, PartitionPlan, PartitionedCache
from repro.errors import ConfigError
from repro.harness.runner import build_policy
from repro.raid.array import RAIDArray


def make_raid(pages_per_disk=512):
    return RAIDArray(ndisks=5, chunk_pages=16,
                     pages_per_disk=pages_per_disk)


def make_partition(n_tenants=2, cache_pages=128, policy="wt",
                   dynamic=False, tenant_config=None, **plan_kwargs):
    """``tenant_config`` maps a tenant index to extra CacheConfig fields."""
    plan = PartitionPlan.equal(n_tenants, dynamic=dynamic, **plan_kwargs)
    raid = make_raid()
    tenant_config = tenant_config or {}
    policies = [
        build_policy(policy,
                     CacheConfig(cache_pages=quota, ways=16, seed=0,
                                 **tenant_config.get(i, {})),
                     raid)
        for i, quota in enumerate(plan.quotas(cache_pages))
    ]
    return PartitionedCache(policies, plan, total_pages=cache_pages)


def route(cache, requests):
    """Feed ``(tenant, lba, is_read)`` tuples as one batch."""
    tenant, lba, is_read = zip(*requests) if requests else ((), (), ())
    cache.access_many(np.array(tenant, dtype=np.int32),
                      np.array(lba, dtype=np.uint64),
                      np.array(is_read, dtype=bool))


class TestPartitionPlanValidation:
    def test_zero_tenant_plan_rejected(self):
        with pytest.raises(ConfigError, match="zero-tenant"):
            PartitionPlan(fractions=())

    def test_nonpositive_fraction_names_the_index(self):
        with pytest.raises(ConfigError, match=r"fractions\[1\]"):
            PartitionPlan(fractions=(0.5, 0.0))

    def test_fractions_over_one_rejected(self):
        with pytest.raises(ConfigError, match="sum to <= 1"):
            PartitionPlan(fractions=(0.7, 0.7))

    def test_bad_realloc_period(self):
        with pytest.raises(ConfigError, match="realloc_period"):
            PartitionPlan.equal(2, realloc_period=0)

    def test_bad_min_fraction(self):
        with pytest.raises(ConfigError, match="min_fraction"):
            PartitionPlan.equal(4, min_fraction=0.5)

    def test_bad_ewma_alpha(self):
        with pytest.raises(ConfigError, match="ewma_alpha"):
            PartitionPlan.equal(2, ewma_alpha=1.5)

    def test_equal_requires_a_tenant(self):
        with pytest.raises(ConfigError, match="n_tenants"):
            PartitionPlan.equal(0)

    def test_quotas_floor_at_one_page(self):
        plan = PartitionPlan.equal(3)
        assert plan.quotas(3) == (1, 1, 1)
        with pytest.raises(ConfigError, match="total_pages"):
            plan.quotas(2)


class TestPartitionedCacheConstruction:
    def test_policy_count_must_match_plan(self):
        plan = PartitionPlan.equal(3)
        raid = make_raid()
        policies = [
            build_policy("wt", CacheConfig(cache_pages=16, seed=0), raid)
            for _ in range(2)
        ]
        with pytest.raises(ConfigError, match="3 tenants"):
            PartitionedCache(policies, plan, total_pages=64)

    def test_directories_cannot_exceed_total(self):
        plan = PartitionPlan.equal(2)
        raid = make_raid()
        policies = [
            build_policy("wt", CacheConfig(cache_pages=64, seed=0), raid)
            for _ in range(2)
        ]
        with pytest.raises(ConfigError, match="exceeding total_pages"):
            PartitionedCache(policies, plan, total_pages=64 + 16)

    def test_dynamic_requires_clean_line_policy(self):
        plan = PartitionPlan.equal(2, dynamic=True)
        raid = make_raid()
        policies = [
            build_policy("wb", CacheConfig(cache_pages=32, seed=0), raid)
            for _ in range(2)
        ]
        with pytest.raises(ConfigError, match="clean-line"):
            PartitionedCache(policies, plan, total_pages=128)

    def test_non_set_assoc_policy_rejected(self):
        plan = PartitionPlan.equal(1)
        raid = make_raid()
        policies = [build_policy("nossd", CacheConfig(cache_pages=32, seed=0),
                                 raid)]
        with pytest.raises(ConfigError, match="set-associative"):
            PartitionedCache(policies, plan, total_pages=64)


class TestRoutingAndStats:
    def test_routing_isolates_tenants(self):
        cache = make_partition(n_tenants=2, cache_pages=128)
        route(cache, [(0, lba, True) for lba in range(16)])
        assert cache.policies[0].stats.accesses == 16
        assert cache.policies[1].stats.accesses == 0

    def test_combined_stats_sum_tenants(self):
        cache = make_partition(n_tenants=2, cache_pages=128)
        route(cache, [req for lba in range(8)
                      for req in ((0, lba, True), (1, 100 + lba, False))])
        cache.finish()
        combined = cache.combined_stats()
        per = [p.stats for p in cache.policies]
        assert combined.accesses == sum(s.accesses for s in per)
        assert combined.ssd_writes == sum(s.ssd_writes for s in per)
        cache.check_invariants()

    def test_negative_tenant_index_rejected(self):
        cache = make_partition(n_tenants=2, cache_pages=128)
        with pytest.raises(ConfigError, match="tenant index -1 "):
            route(cache, [(0, 1, True), (-1, 2, True)])
        assert cache.policies[1].stats.accesses == 0

    def test_tenant_index_past_the_last_rejected(self):
        cache = make_partition(n_tenants=2, cache_pages=128)
        with pytest.raises(ConfigError, match="tenant index 2 "):
            route(cache, [(0, 1, True), (2, 2, True)])
        assert cache.policies[0].stats.accesses == 0

    def test_single_access_routes_like_a_batch_of_one(self):
        cache = make_partition(n_tenants=2, cache_pages=128)
        cache.access(1, 100, False)
        assert cache.policies[1].stats.write_misses == 1
        with pytest.raises(ConfigError, match="tenant index -1 "):
            cache.access(-1, 100, False)


class TestDynamicReallocation:
    def _churn(self, cache, rounds=6):
        """Tenant 0 hot, reusing 8 pages spread across set groups;
        tenant 1 cold-scans fresh pages every round."""
        for r in range(rounds):
            route(cache, [req for i in range(48)
                          for req in ((0, (i % 8) * 64, True),
                                      (1, 1024 + r * 48 + i, True))])

    def test_quota_moves_toward_hit_density(self):
        cache = make_partition(n_tenants=2, cache_pages=128, dynamic=True,
                               realloc_period=64, min_fraction=0.1)
        before = cache.quotas
        self._churn(cache)
        cache.finish()
        assert cache.realloc.passes > 0
        assert cache.realloc.resizes > 0
        after = cache.quotas
        assert after[0] > before[0]  # the hot tenant gained quota
        assert sum(after) <= cache.total_pages
        assert cache.realloc.final_quotas == list(after)

    def test_invariants_hold_across_resizes(self):
        cache = make_partition(n_tenants=2, cache_pages=128, dynamic=True,
                               realloc_period=64, min_fraction=0.1)
        self._churn(cache)
        cache.check_invariants()
        for policy, quota in zip(cache.policies, cache.quotas):
            assert policy.sets.capacity_pages == quota

    def test_migration_charges_fill_writes(self):
        cache = make_partition(n_tenants=2, cache_pages=128, dynamic=True,
                               realloc_period=64, min_fraction=0.1)
        self._churn(cache)
        stats = cache.realloc
        assert stats.migrated_lines > 0
        # every migrated line cost one counted SSD fill write
        fills = sum(p.stats.fill_writes for p in cache.policies)
        assert fills >= stats.migrated_lines

    def test_static_plan_never_reallocates(self):
        cache = make_partition(n_tenants=2, cache_pages=128, dynamic=False)
        self._churn(cache)
        cache.finish()
        assert cache.realloc.passes == 0
        assert cache.quotas == tuple(
            PartitionPlan.equal(2).quotas(128))


#: Stripe-aligned tenant regions (the test array stripes 64 data pages).
REGION_PAGES = 256


def reference_loop(cache, batches):
    """One request at a time, reallocating every ``realloc_period``."""
    routed = 0
    for batch in batches:
        for tenant, offset, is_read in batch:
            cache.policies[tenant].access(tenant * REGION_PAGES + offset,
                                          is_read)
            routed += 1
            if cache.plan.dynamic and routed % cache.plan.realloc_period == 0:
                cache.reallocate()
    cache.finish()


def batched(cache, batches):
    for batch in batches:
        route(cache, [(t, t * REGION_PAGES + offset, r)
                      for t, offset, r in batch])
    cache.finish()


def observable(cache):
    raid = cache.policies[0].raid
    return (
        [p.stats for p in cache.policies],
        raid.counters,
        sorted(raid.stale_stripes),
        cache.realloc.row(),
        cache.quotas,
        cache.realloc.final_quotas,
    )


def batches_for(n_tenants):
    request = st.tuples(st.integers(0, n_tenants - 1),
                        st.integers(0, 47), st.booleans())
    return st.lists(st.lists(request, max_size=60), max_size=6)


#: Tenant 0 runs a flash model, tenant 1 a LARC admission filter: both
#: take the scalar fallback inside each segment.
MIXED = {0: {"flash_model": True}, 1: {"admission": "larc"}}


class TestBatchedRoutingEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           policy=st.sampled_from(("wt", "wa", "leavo", "kdd")),
           n_tenants=st.integers(3, 4),
           mixed=st.booleans())
    def test_static_plan_matches_reference_loop(self, data, policy,
                                                n_tenants, mixed):
        batches = data.draw(batches_for(n_tenants))
        kwargs = dict(n_tenants=n_tenants, cache_pages=96, policy=policy,
                      tenant_config=MIXED if mixed else None)
        reference = make_partition(**kwargs)
        reference_loop(reference, batches)
        cache = make_partition(**kwargs)
        batched(cache, batches)
        assert observable(cache) == observable(reference)
        cache.check_invariants()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           policy=st.sampled_from(("wt", "wa")),
           n_tenants=st.integers(3, 4),
           realloc_period=st.sampled_from((7, 11, 13, 29)),
           mixed=st.booleans())
    def test_dynamic_plan_matches_reference_loop(self, data, policy,
                                                 n_tenants, realloc_period,
                                                 mixed):
        batches = data.draw(batches_for(n_tenants))
        kwargs = dict(n_tenants=n_tenants, cache_pages=96, policy=policy,
                      dynamic=True, realloc_period=realloc_period,
                      min_fraction=0.1,
                      tenant_config=MIXED if mixed else None)
        reference = make_partition(**kwargs)
        reference_loop(reference, batches)
        cache = make_partition(**kwargs)
        batched(cache, batches)
        assert observable(cache) == observable(reference)
        cache.check_invariants()

    def test_batches_straddling_realloc_boundaries(self):
        """Batch lengths 50 and 23 against a period of 7: every batch
        crosses at least one reallocation point mid-batch."""
        rng = np.random.default_rng(3)
        batches = [
            [(int(rng.integers(0, 3)) if i % 3 else 0,
              int(rng.integers(0, 96)) if i % 3 else i % 8, bool(i % 2))
             for i in range(size)]
            for size in (50, 23, 50, 23)
        ]
        kwargs = dict(n_tenants=3, cache_pages=192, dynamic=True,
                      realloc_period=7, min_fraction=0.1)
        reference = make_partition(**kwargs)
        reference_loop(reference, batches)
        cache = make_partition(**kwargs)
        batched(cache, batches)
        assert cache.realloc.passes == 146 // 7
        assert cache.realloc.resizes > 0
        assert observable(cache) == observable(reference)
