"""Shared machinery for set-associative policies (fill path, eviction).

Besides the scalar fill/evict helpers this module hosts the **columnar
fast path** shared by every set-associative policy: the driver behind
``access_many`` (and so ``process_trace(vectorized=True)`` and the
partitioned serve path) classifies whole address batches
against the directory mirror (:meth:`CacheSets.classify`), handles
maximal runs of read hits in bulk, and dispatches the rest through slim
per-access handlers that update counters directly instead of building
:class:`Outcome`/:class:`DiskOp` objects.  The fast path is opt-in per
policy (``_fast_write_ok``) and only engages when the configuration
keeps every access on the fixed-cost path — no flash model, the
stateless default admission filter, and a healthy RAID array — so its
counters and eviction behaviour are identical to the scalar loop.
"""

from __future__ import annotations

from ..contracts import columnar
from ..nvram.metabuffer import PageState
from ..raid.array import FastAccounting, RAIDArray
from .admission import AlwaysAdmit, make_admission
from .base import CacheConfig, CachePolicy, Outcome
from .sets import CacheLine, CacheSets


class SetAssocPolicy(CachePolicy):
    """A cache policy backed by :class:`CacheSets`.

    Provides the common read-miss fill path: allocate a DAZ line,
    evicting the set's LRU *clean* page if needed; policies with
    unreclaimable states (old/dirty) override :meth:`_make_room` to
    trigger their cleaning machinery.  An optional admission filter
    (Section V-C: LARC / SieveStore are complementary to KDD) gates
    which misses are allowed to allocate at all.
    """

    def __init__(self, config: CacheConfig, raid: RAIDArray) -> None:
        super().__init__(config, raid)
        self.sets = CacheSets(
            config.cache_pages, ways=config.ways, group_pages=config.group_pages
        )
        self.admission = make_admission(config.admission, config.cache_pages)

    # -- allocation --------------------------------------------------------

    def _data_lpn(self, line: CacheLine) -> int:
        """SSD page backing a DAZ line (data partition starts after metadata)."""
        return self.meta_pages + self.sets.lpn_of(line.set_idx, line.slot)

    def _evict_one_clean(self, set_idx: int) -> bool:
        victim = self.sets.evict_candidate(set_idx, (PageState.CLEAN,))
        if victim is None:
            return False
        self._drop_line(victim)
        return True

    def _drop_line(self, line: CacheLine) -> None:
        """Remove a line from the cache (hook for metadata bookkeeping)."""
        self.sets.remove(line.lba)
        self._ssd_trim(self._data_lpn(line))

    def _make_room(self, set_idx: int) -> bool:
        """Try to free a slot in ``set_idx``; False means bypass the cache."""
        return self._evict_one_clean(set_idx)

    def _admit_and_alloc(self, lba: int, state: PageState) -> CacheLine | None:
        """Allocation gated by the admission filter (used on misses)."""
        if not self.admission.should_admit(lba):
            return None
        return self._alloc_line(lba, state)

    def _alloc_line(self, lba: int, state: PageState) -> CacheLine | None:
        """Allocate (evicting if necessary); None when the set is pinned full."""
        line = self.sets.alloc(lba, state)
        if line is not None:
            return line
        if not self._make_room(self.sets.set_of(lba)):
            self.stats.bypasses += 1
            return None
        line = self.sets.alloc(lba, state)
        if line is None:  # pragma: no cover - _make_room guarantees a slot
            self.stats.bypasses += 1
        return line

    def _on_line_allocated(self, line: CacheLine, kind: str) -> None:
        """Hook: account the SSD write that fills the new line."""
        self._ssd_write(self._data_lpn(line), kind)

    # -- the common read path ----------------------------------------------

    def read(self, lba: int) -> Outcome:
        line = self.sets.lookup(lba)
        if line is not None:
            self.stats.read_hits += 1
            self.sets.touch(lba)
            self.admission.on_cache_hit(lba)
            return self._read_hit(line)
        self.stats.read_misses += 1
        disk_ops = self.raid.read(lba)
        out = Outcome(hit=False, is_read=True, fg_disk_ops=disk_ops)
        line = self._admit_and_alloc(lba, PageState.CLEAN)
        if line is not None:
            self._on_line_allocated(line, "fill")
            out.bg_ssd_writes += 1
        return out

    def _read_hit(self, line: CacheLine) -> Outcome:
        """Serve a read hit (policies with delta state override this)."""
        self._ssd_read(1)
        return Outcome(hit=True, is_read=True, fg_ssd_reads=1)

    # -- the columnar fast path ---------------------------------------------
    #
    # Accesses are processed in address batches; classification against
    # the directory mirror finds runs of read hits that can be retired
    # in bulk, everything else goes through per-access handlers that
    # skip Outcome construction and per-page RAID geometry (the healthy
    # array's member-I/O pattern is fixed, see FastAccounting).

    _COLUMNAR_CHUNK = 4096
    #: Shortest read-hit run worth the bulk call.
    _MIN_BULK_RUN = 4
    #: FastAccounting helper, only set while the columnar driver runs.
    _fast: FastAccounting | None = None

    def _fast_write_ok(self, fast: FastAccounting) -> bool:
        """Whether this policy's write path is safe to run columnar.

        Policies opt in once their write logic is covered by the slim
        ``_write_fast`` handler; the base class stays scalar-only so an
        unaudited subclass can never take the fast path by accident.
        """
        return False

    @columnar(
        dtypes={"pages": "int64|uint64", "is_read": "bool"},
        shapes={"pages": "(n,)", "is_read": "(n,)"},
    )
    def _process_columnar(self, pages, is_read) -> bool:
        if self.ssd is not None or type(self.admission) is not AlwaysAdmit:
            return False
        fast = self.raid.fast_account()
        if fast is None or not self._fast_write_ok(fast):
            return False
        if len(pages):
            top = int(pages.max())
            # Out-of-range addresses must raise the scalar path's exact
            # ConfigError at the offending access; oversized addresses
            # would overflow the int64 batch hash.  Both go scalar.
            if (
                int(pages.min()) < 0
                or top >= self.raid.capacity_pages
                or top > CacheSets.MAX_VECTOR_LBA
            ):
                return False
        self._fast = fast
        try:
            step = self._COLUMNAR_CHUNK
            for start in range(0, len(pages), step):
                self._columnar_chunk(
                    pages[start : start + step], is_read[start : start + step]
                )
        finally:
            self._fast = None
        return True

    @columnar(
        dtypes={"chunk": "int64|uint64", "reads": "bool"},
        shapes={"chunk": "(n,)", "reads": "(n,)"},
    )
    def _columnar_chunk(self, chunk, reads) -> None:
        sets = self.sets
        mut0 = sets.mutations
        hit_run = (sets.classify(chunk) & reads).tolist()
        lbas = chunk.tolist()
        read_flags = reads.tolist()
        stats = self.stats
        n = len(lbas)
        i = 0
        while i < n:
            # The classification is a snapshot: runs are trusted only
            # while no alloc/remove happened since it was taken (read
            # hits themselves never mutate membership, so a run stays
            # valid for its whole length).
            if hit_run[i] and sets.mutations == mut0:
                j = i + 1
                while j < n and hit_run[j]:
                    j += 1
                if j - i >= self._MIN_BULK_RUN:
                    self._bulk_read_hits(lbas[i:j])
                    i = j
                    continue
            lba = lbas[i]
            if read_flags[i]:
                line = sets.lookup(lba)
                if line is not None:
                    stats.read_hits += 1
                    sets.touch(lba)
                    self._read_hit_fast(line)
                else:
                    stats.read_misses += 1
                    self._fast.read(1)
                    line = self._alloc_line(lba, PageState.CLEAN)
                    if line is not None:
                        self._on_line_allocated(line, "fill")
            else:
                self._write_fast(lba)
            i += 1

    def _read_hit_fast(self, line: CacheLine) -> None:
        """Counter-only mirror of :meth:`_read_hit`."""
        self.stats.ssd_reads += 1

    @columnar(dtypes={"lbas": "list[int]"})
    def _bulk_read_hits(self, lbas: list[int]) -> None:
        """Retire a run of read hits: bulk counters, ordered LRU touches.

        Membership-write-free like every batch reader it drives
        (``classify``/``touch_many``) — proven interprocedurally by
        RPR203, which is what entitles the runs to outlive their
        classification snapshot.
        """
        self.stats.read_hits += len(lbas)
        self.stats.ssd_reads += len(lbas)
        self.sets.touch_many(lbas)

    @columnar(dtypes={"lba": "int"})
    def _write_fast(self, lba: int) -> None:  # pragma: no cover - gated off
        # Contract (RPR204): an override's interprocedural write-set must
        # stay inside the scalar write() write-set plus the FastAccounting
        # delta surface (_fast) — checked statically by kdd-repro analyze,
        # sampled dynamically by tests/test_vectorized_equivalence.py.
        raise NotImplementedError(
            "_fast_write_ok() must stay False without a _write_fast handler"
        )

    def check_invariants(self) -> None:
        self.sets.check_invariants()
