"""Nossd: the RAID array without any SSD cache (prototype baseline)."""

from __future__ import annotations

import numpy as np

from ..raid.array import RAIDArray
from .base import CacheConfig, CachePolicy, Outcome


class Nossd(CachePolicy):
    """Every access goes straight to the RAID array."""

    name = "nossd"

    def __init__(self, config: CacheConfig, raid: RAIDArray) -> None:
        super().__init__(config, raid)

    def read(self, lba: int) -> Outcome:
        self.stats.read_misses += 1
        return Outcome(hit=False, is_read=True, fg_disk_ops=self.raid.read(lba))

    def write(self, lba: int) -> Outcome:
        self.stats.write_misses += 1
        return Outcome(hit=False, is_read=False, fg_disk_ops=self.raid.write(lba))

    def _process_columnar(self, pages: np.ndarray, is_read: np.ndarray) -> bool:
        # No cache state at all: on a healthy array the whole batch
        # reduces to four counter additions.
        if self.ssd is not None:
            return False
        fast = self.raid.fast_account()
        if fast is None:
            return False
        if len(pages) and (
            int(pages.min()) < 0 or int(pages.max()) >= self.raid.capacity_pages
        ):
            return False
        nreads = int(is_read.sum())
        nwrites = len(pages) - nreads
        self.stats.read_misses += nreads
        self.stats.write_misses += nwrites
        fast.read(nreads)
        fast.write(nwrites)
        return True
