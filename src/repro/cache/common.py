"""Shared machinery for set-associative policies (fill path, eviction).

Besides the scalar fill/evict helpers this module hosts the **columnar
fast path** shared by every set-associative policy: the driver behind
``access_many`` (and so ``process_trace(vectorized=True)`` and the
partitioned serve path) classifies whole address batches
against the directory mirror (:meth:`CacheSets.classify`), handles
maximal runs of read hits in bulk, and sends the rest through the
policy's one read handler and one write handler — the same ones
``read()``/``write()`` use — with foreground RAID I/O counted as
:class:`FastAccounting` deltas instead of :class:`DiskOp` lists.  It
engages when the configuration keeps every access on the fixed-cost
path — no flash model, the stateless default admission filter, and a
healthy RAID array — so its counters and eviction behaviour are
identical to the scalar loop.
"""

from __future__ import annotations

from abc import abstractmethod

from ..contracts import columnar
from ..nvram.metabuffer import PageState
from ..raid.array import DiskOp, FastAccounting, RAIDArray
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
        #: False for the stateless default filter: its hooks are no-ops,
        #: so the handlers skip the calls.
        self._filtered = type(self.admission) is not AlwaysAdmit

    # -- allocation --------------------------------------------------------

    def _data_lpn(self, line: CacheLine) -> int:
        """SSD page backing a DAZ line (data partition starts after metadata).

        Inlines :meth:`CacheSets.lpn_of`: every fill, eviction and data
        write-hit pays for this call.
        """
        return self.meta_pages + line.set_idx * self.sets.ways + line.slot

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
        if self._filtered and not self.admission.should_admit(lba):
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

    # -- the access handlers ------------------------------------------------
    #
    # Every policy has exactly one read handler and one write handler;
    # they fill a caller-supplied Outcome.  read()/write() (the scalar
    # and timed-engine entry) pass a fresh one; the columnar driver
    # passes one sink per chunk and ignores it.  The only difference
    # between the modes is where RAID I/O is counted — DiskOps, or
    # FastAccounting deltas while the columnar driver runs (_fast set) —
    # decided by the read miss below and by _raid_write for every write.

    def read(self, lba: int) -> Outcome:
        out = Outcome(hit=False, is_read=True)
        self._read(lba, out)
        return out

    def write(self, lba: int) -> Outcome:
        out = Outcome(hit=False, is_read=False)
        self._write(lba, out)
        return out

    def _read(self, lba: int, out: Outcome) -> None:
        """The read handler: a hit is served by :meth:`_read_hit`."""
        line = self.sets.lookup(lba)
        if line is not None:
            self.stats.read_hits += 1
            self.sets.touch(lba)
            if self._filtered:
                self.admission.on_cache_hit(lba)
            out.hit = True
            self._read_hit(line, out)
            return
        self.stats.read_misses += 1
        if self._fast is None:
            out.fg_disk_ops = self.raid.read(lba)
        else:
            self._fast.read(1)
        line = self._admit_and_alloc(lba, PageState.CLEAN)
        if line is not None:
            self._on_line_allocated(line, "fill")
            out.bg_ssd_writes = 1

    def _read_hit(self, line: CacheLine, out: Outcome) -> None:
        """Serve a read hit (policies with delta state override this)."""
        self.stats.ssd_reads += 1
        out.fg_ssd_reads = 1

    @abstractmethod
    def _write(self, lba: int, out: Outcome) -> None:
        """The write handler."""

    def _raid_write(self, lba: int, delayed: bool = False) -> list[DiskOp]:
        """RAID write of ``lba``: DiskOps, or counter deltas when columnar.

        ``delayed`` skips the parity update (LeavO/KDD write hits); both
        modes raise the same :class:`RaidError` without a parity level.
        """
        fast = self._fast
        if fast is None:
            if delayed:
                return self.raid.write_without_parity_update(lba)
            return self.raid.write(lba)
        if delayed:
            fast.write_delayed(lba)
        else:
            fast.write(1)
        return []

    # -- the columnar driver -------------------------------------------------
    #
    # Accesses are processed in address batches; classification against
    # the directory mirror finds runs of read hits that can be retired
    # in bulk, everything else goes through the same handlers as the
    # scalar path with RAID I/O counted by FastAccounting (the healthy
    # array's member-I/O pattern is fixed).

    _COLUMNAR_CHUNK = 4096
    #: Shortest read-hit run worth the bulk call.
    _MIN_BULK_RUN = 4
    #: FastAccounting helper, only set while the columnar driver runs.
    _fast: FastAccounting | None = None

    @columnar(
        dtypes={"pages": "int64|uint64", "is_read": "bool"},
        shapes={"pages": "(n,)", "is_read": "(n,)"},
    )
    def _process_columnar(self, pages, is_read) -> bool:
        if self.ssd is not None or self._filtered:
            return False
        fast = self.raid.fast_account()
        if fast is None:
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
        read, write = self._read, self._write
        sink = Outcome(hit=False, is_read=False)
        n = len(lbas)
        i = 0
        # The classification is a snapshot: runs are trusted only while
        # no alloc/remove happened since it was taken (read hits never
        # mutate membership, so a run stays valid for its whole length).
        while i < n and sets.mutations == mut0:
            if hit_run[i]:
                j = i + 1
                while j < n and hit_run[j]:
                    j += 1
                if j - i >= self._MIN_BULK_RUN:
                    self._bulk_read_hits(lbas[i:j])
                    i = j
                    continue
            if read_flags[i]:
                read(lbas[i], sink)
            else:
                write(lbas[i], sink)
            i += 1
        # The epoch only grows, so the snapshot is stale for the rest of
        # the chunk: plain in-order dispatch.
        for lba, is_read in zip(lbas[i:], read_flags[i:]):
            if is_read:
                read(lba, sink)
            else:
                write(lba, sink)

    @columnar(dtypes={"lbas": "list[int]"})
    def _bulk_read_hits(self, lbas: list[int]) -> None:
        """Retire a run of read hits: bulk counters, ordered LRU touches.

        Membership-write-free like every batch reader it drives
        (``classify``/``touch_many``) — proven interprocedurally by
        RPR203, which is what entitles the runs to outlive their
        classification snapshot.  Its write-set must stay inside the
        scalar ``read`` write-set (RPR204).
        """
        self.stats.read_hits += len(lbas)
        self.stats.ssd_reads += len(lbas)
        self.sets.touch_many(lbas)

    def check_invariants(self) -> None:
        self.sets.check_invariants()
