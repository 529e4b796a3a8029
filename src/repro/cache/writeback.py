"""Write-back (WB) caching policy — the unsafe baseline.

The paper deliberately *excludes* write-back from its evaluation
because a cache-device failure loses the dirty pages (Section IV-A1);
we implement it anyway as an optional reference point: it shows the
latency ceiling a policy could reach if it were allowed to violate
RPO = 0.
"""

from __future__ import annotations

from ..nvram.metabuffer import PageState
from .base import Outcome
from .common import SetAssocPolicy
from .sets import CacheLine


class WriteBack(SetAssocPolicy):
    """Write-allocate, write-back with dirty-page flush on eviction."""

    name = "wb"

    def _write(self, lba: int, out: Outcome) -> None:
        line = self.sets.lookup(lba)
        if line is not None:
            self.stats.write_hits += 1
            self.sets.touch(lba)
            if line.state is not PageState.DIRTY:
                self.sets.set_state(lba, PageState.DIRTY)
            self._ssd_write(self._data_lpn(line), "data")
            out.hit = True
            out.bg_ssd_writes = 1
            return
        self.stats.write_misses += 1
        line = self._admit_and_alloc(lba, PageState.DIRTY)
        if line is None:
            # nothing evictable: fall back to a direct RAID write
            out.fg_disk_ops = self._raid_write(lba)
            return
        self._on_line_allocated(line, "data")
        out.bg_ssd_writes = 1

    def _make_room(self, set_idx: int) -> bool:
        if self._evict_one_clean(set_idx):
            return True
        victim = self.sets.evict_candidate(set_idx, (PageState.DIRTY,))
        if victim is None:
            return False
        self._flush_line(victim)
        self._drop_line(victim)
        return True

    def _flush_line(self, line: CacheLine) -> list:
        """Write a dirty page back to RAID (full parity update)."""
        self._ssd_read(1)
        return self._raid_write(line.lba)

    def finish(self) -> None:
        """Flush every remaining dirty page (orderly shutdown)."""
        for line in list(self.sets.all_lines()):
            if line.state is PageState.DIRTY:
                self._flush_line(line)
                self.sets.set_state(line.lba, PageState.CLEAN)

    @property
    def dirty_pages(self) -> int:
        return self.sets.count(PageState.DIRTY)
