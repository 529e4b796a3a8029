"""Write-through (WT) caching policy.

The production default the paper compares against: every write goes to
both the SSD cache and the RAID array (with a full parity update), so
an SSD failure loses nothing — but every small write still pays the
RAID-5 read-modify-write penalty, and the cache absorbs the full write
stream (bad for flash endurance).
"""

from __future__ import annotations

from ..nvram.metabuffer import PageState
from .base import Outcome
from .common import SetAssocPolicy


class WriteThrough(SetAssocPolicy):
    """Write-allocate, write-through; all pages are clean."""

    name = "wt"

    def _write(self, lba: int, out: Outcome) -> None:
        out.fg_disk_ops = self._raid_write(lba)
        line = self.sets.lookup(lba)
        if line is not None:
            self.stats.write_hits += 1
            self.sets.touch(lba)
            if self._filtered:
                self.admission.on_cache_hit(lba)
            # overwrite the cached copy in place (same SSD logical page)
            self._ssd_write(self._data_lpn(line), "data")
            out.hit = True
            out.bg_ssd_writes = 1
            return
        self.stats.write_misses += 1
        line = self._admit_and_alloc(lba, PageState.CLEAN)
        if line is not None:
            self._on_line_allocated(line, "data")
            out.bg_ssd_writes = 1
