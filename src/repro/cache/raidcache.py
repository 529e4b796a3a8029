"""RAID-protected SSD cache (related work §V-B).

Arteaga & Zhao's cache-optimised RAID and Oh et al.'s SRC make
*write-back* caching safe by building redundancy into the cache layer
itself: dirty pages are mirrored across two SSDs (RAID-1) while clean
pages — recoverable from the array anyway — are striped (RAID-0) for
capacity.  One cache-SSD failure then loses no data, at the cost of a
second device and doubled writes for every dirty page.

KDD's pitch against this family is cost: it reaches the same RPO=0
with a *single* SSD because data always lands on the RAID array and
only recovery metadata (old versions + deltas) stays cache-side.  The
tests and the extension bench quantify the trade: MirroredWriteBack
gets write-back latency, pays 2x dirty-write wear and half the dirty
capacity; KDD pays a foreground member write instead.
"""

from __future__ import annotations

from ..errors import CacheError, ConfigError
from ..nvram.metabuffer import PageState
from ..raid.array import RAIDArray
from .base import CacheConfig, Outcome
from .common import SetAssocPolicy
from .sets import CacheLine


class MirroredWriteBack(SetAssocPolicy):
    """Write-back cache over two SSDs: dirty mirrored, clean striped.

    Capacity accounting: the config's ``cache_pages`` is the *total*
    flash across both devices; a clean page consumes one page of it, a
    dirty page two (its mirror).  ``mirrored_pages`` tracks the second
    copies; they live on the peer device, so a single SSD loss leaves
    every dirty page intact.
    """

    name = "mwb"

    def __init__(self, config: CacheConfig, raid: RAIDArray) -> None:
        if config.cache_pages < 2:
            raise ConfigError("mirrored cache needs at least 2 pages")
        # the set-associative index manages the *primary* copies: half the
        # flash budget is reserved for mirrors in the worst case, but we
        # account mirrors dynamically instead of halving up front.
        super().__init__(config, raid)
        self.mirrored_pages = 0
        self.mirror_writes = 0
        self.failed_ssd: int | None = None

    # -- capacity ------------------------------------------------------------

    @property
    def flash_used(self) -> int:
        return len(self.sets) + self.mirrored_pages

    def _over_budget(self) -> bool:
        return self.flash_used > self.config.cache_pages

    def _mirror(self, line: CacheLine) -> None:
        """Write the second copy of a dirty page to the peer SSD."""
        self.mirrored_pages += 1
        self.mirror_writes += 1
        self.stats.data_writes += 1  # the mirror is real flash traffic

    def _unmirror(self) -> None:
        if self.mirrored_pages <= 0:
            raise CacheError("unmirroring with no mirrors outstanding")
        self.mirrored_pages -= 1

    # -- policy ----------------------------------------------------------------

    def _read(self, lba: int, out: Outcome) -> None:
        super()._read(lba, out)
        # a read-miss fill can push total flash use past the two devices
        # when mirrors already occupy the slack: rebalance immediately
        if self._over_budget():
            self._evict_to_budget(out)

    def _write(self, lba: int, out: Outcome) -> None:
        line = self.sets.lookup(lba)
        if line is not None:
            self.stats.write_hits += 1
            self.sets.touch(lba)
            if self._filtered:
                self.admission.on_cache_hit(lba)
            if line.state is not PageState.DIRTY:
                self.sets.set_state(lba, PageState.DIRTY)
                self._mirror(line)
            else:
                self.mirror_writes += 1
                self.stats.data_writes += 1  # rewrite the mirror too
            self._ssd_write(self._data_lpn(line), "data")
            out.hit = True
            out.bg_ssd_writes = 2
            self._evict_to_budget(out)
            return
        self.stats.write_misses += 1
        line = self._admit_and_alloc(lba, PageState.DIRTY)
        if line is None:
            out.fg_disk_ops = self._raid_write(lba)
            return
        self._on_line_allocated(line, "data")
        self._mirror(line)
        out.bg_ssd_writes = 2
        self._evict_to_budget(out)

    def _make_room(self, set_idx: int) -> bool:
        if self._evict_one_clean(set_idx):
            return True
        victim = self.sets.evict_candidate(set_idx, (PageState.DIRTY,))
        if victim is None:
            return False
        self._flush_and_drop(victim)
        return True

    def _flush_and_drop(self, line: CacheLine) -> list:
        self._ssd_read(1)
        ops = self._raid_write(line.lba)
        if line.state is PageState.DIRTY:
            self._unmirror()
        self._drop_line(line)
        return ops

    def _evict_to_budget(self, out: Outcome) -> None:
        """Mirrors consume budget beyond the index: flush LRU dirty pages
        until total flash use fits the two devices again."""
        guard = self.config.cache_pages + 1
        while self._over_budget() and guard:
            guard -= 1
            victim = None
            for set_idx in range(self.sets.n_sets):
                victim = self.sets.evict_candidate(
                    set_idx, (PageState.CLEAN, PageState.DIRTY)
                )
                if victim is not None:
                    break
            if victim is None:
                raise CacheError("over budget with nothing evictable")
            if victim.state is PageState.DIRTY:
                out.bg_disk_ops.extend(self._flush_and_drop(victim))
            else:
                self._drop_line(victim)

    # -- failure handling ----------------------------------------------------------

    def fail_ssd(self, device: int = 0) -> dict[str, int]:
        """Lose one of the two cache SSDs.

        Dirty pages survive on their mirrors (that is the design's whole
        purpose); clean pages on the failed device are simply gone.  We
        model the loss as: all clean pages dropped (they straddle both
        devices via striping, and the survivors alone cannot serve
        reads), dirty pages retained and immediately flushed to restore
        single-copy safety.
        """
        if device not in (0, 1):
            raise ConfigError("device must be 0 or 1")
        if self.failed_ssd is not None:
            raise CacheError("an SSD is already failed")
        self.failed_ssd = device
        dropped = flushed = 0
        for line in list(self.sets.all_lines()):
            if line.state is PageState.DIRTY:
                self._flush_and_drop(line)
                flushed += 1
            else:
                self._drop_line(line)
                dropped += 1
        return {"clean_dropped": dropped, "dirty_flushed": flushed}

    def finish(self) -> None:
        for line in list(self.sets.all_lines()):
            if line.state is PageState.DIRTY:
                self._flush_and_drop(line)

    @property
    def dirty_pages(self) -> int:
        return self.sets.count(PageState.DIRTY)

    def check_invariants(self) -> None:
        super().check_invariants()
        if self.mirrored_pages != self.dirty_pages:
            raise CacheError(
                f"mirror count {self.mirrored_pages} != dirty pages {self.dirty_pages}"
            )
