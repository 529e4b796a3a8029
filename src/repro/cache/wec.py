"""WEC — Write-Efficient Caching (Chai et al., related work §V-C).

WEC improves SSD cache durability by identifying *write-efficient*
data — blocks that produce many write hits for each block written into
the cache — and keeping it cached long enough (pull-mode caching) that
its hits keep amortising its admission cost.  The paper lists WEC with
LARC/SieveStore as complementary to KDD.

Reproduced here as a write-through variant: each line carries a write-
hit score; lines whose score reaches ``protect_threshold`` are pinned
against eviction.  Pins decay whenever eviction pressure finds nothing
unpinned (so the protected set adapts instead of ossifying).
"""

from __future__ import annotations

from ..errors import ConfigError
from ..nvram.metabuffer import PageState
from ..raid.array import RAIDArray
from .base import CacheConfig, Outcome
from .sets import CacheLine
from .writethrough import WriteThrough


class WecWriteThrough(WriteThrough):
    """Write-through with write-efficiency-based retention."""

    name = "wec-wt"

    def __init__(
        self,
        config: CacheConfig,
        raid: RAIDArray,
        protect_threshold: int = 3,
        max_protected_fraction: float = 0.5,
    ) -> None:
        if protect_threshold < 1:
            raise ConfigError("protect_threshold must be >= 1")
        if not 0.0 < max_protected_fraction <= 1.0:
            raise ConfigError("max_protected_fraction must be in (0, 1]")
        super().__init__(config, raid)
        self.protect_threshold = protect_threshold
        self.max_protected = int(max_protected_fraction * config.cache_pages)
        self._scores: dict[int, int] = {}
        self._protected: set[int] = set()
        self.protections = 0
        self.decays = 0

    # -- scoring -----------------------------------------------------------

    def _bump(self, lba: int) -> None:
        score = self._scores.get(lba, 0) + 1
        self._scores[lba] = score
        if (
            score >= self.protect_threshold
            and lba not in self._protected
            and len(self._protected) < self.max_protected
        ):
            self._protected.add(lba)
            self.protections += 1

    @property
    def protected_pages(self) -> int:
        return len(self._protected)

    def is_protected(self, lba: int) -> bool:
        return lba in self._protected

    # -- policy hooks --------------------------------------------------------

    def _write(self, lba: int, out: Outcome) -> None:
        hit = lba in self.sets
        super()._write(lba, out)
        if hit:
            self._bump(lba)

    def _drop_line(self, line: CacheLine) -> None:
        self._scores.pop(line.lba, None)
        self._protected.discard(line.lba)
        super()._drop_line(line)

    def _evict_one_clean(self, set_idx: int) -> bool:
        # LRU over *unprotected* clean lines first
        for line in self.sets.lines_in_set(set_idx):
            if line.state is PageState.CLEAN and line.lba not in self._protected:
                self._drop_line(line)
                return True
        # everything protected: decay the set's pins and retry once
        decayed = False
        for line in self.sets.lines_in_set(set_idx):
            if line.lba in self._protected:
                self._protected.discard(line.lba)
                self._scores[line.lba] = 0
                self.decays += 1
                decayed = True
        if decayed:
            return super()._evict_one_clean(set_idx)
        return super()._evict_one_clean(set_idx)
