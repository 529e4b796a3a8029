"""Write-around (WA) caching policy.

Writes bypass the SSD entirely (only read misses allocate), which makes
WA the gentlest policy on flash endurance — the paper's lower bound for
cache write traffic — at the cost of never accelerating writes and
invalidating cached pages that get overwritten.
"""

from __future__ import annotations

from .base import Outcome
from .common import SetAssocPolicy


class WriteAround(SetAssocPolicy):
    """Allocate on read miss only; writes go around the cache."""

    name = "wa"

    def _write(self, lba: int, out: Outcome) -> None:
        out.fg_disk_ops = self._raid_write(lba)
        line = self.sets.lookup(lba)
        if line is not None:
            # the cached copy is now stale: drop it
            self.stats.write_hits += 1
            self._drop_line(line)
            out.hit = True
        else:
            self.stats.write_misses += 1
