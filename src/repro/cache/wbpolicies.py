"""Consistent write-back policies (related work §V-B).

Koller et al. (FAST'13) showed that plain write-back's data-loss
exposure can be traded against performance in measured steps.  We
implement the two classic points between write-through and unbounded
write-back:

* :class:`OrderedWriteBack` — dirty pages are flushed to the array in
  *write order* (so the RAID always holds a consistent prefix of the
  write history) and staleness is bounded: at most ``max_dirty_writes``
  acknowledged-but-unflushed writes exist at any time.  RPO equals the
  bound instead of zero.
* :class:`JournaledWriteBack` — writes are grouped into journal epochs;
  an epoch is flushed atomically (all-or-nothing ordering at epoch
  granularity), modelling barrier-based consistency: cheaper than
  per-write ordering, coarser recovery points.

Both inherit the write-back data path; they differ only in *when* and
*in what order* dirty pages reach the RAID.  KDD's contrast: it gets
RPO = 0 (strictly better than both) while still dodging the small-write
penalty on hits.
"""

from __future__ import annotations

from collections import OrderedDict

from ..errors import ConfigError
from ..nvram.metabuffer import PageState
from ..raid.array import RAIDArray
from .base import CacheConfig, Outcome
from .writeback import WriteBack


class OrderedWriteBack(WriteBack):
    """Write-back with in-order flushing and bounded staleness."""

    name = "owb"

    def __init__(
        self,
        config: CacheConfig,
        raid: RAIDArray,
        max_dirty_writes: int = 256,
    ) -> None:
        if max_dirty_writes < 1:
            raise ConfigError("max_dirty_writes must be >= 1")
        super().__init__(config, raid)
        self.max_dirty_writes = max_dirty_writes
        #: FIFO of acknowledged-but-unflushed writes, in write order.
        self._order: OrderedDict[int, None] = OrderedDict()
        self.ordered_flushes = 0

    @property
    def staleness(self) -> int:
        """Acknowledged writes the RAID has not seen yet (the RPO)."""
        return len(self._order)

    def _write(self, lba: int, out: Outcome) -> None:
        super()._write(lba, out)
        line = self.sets.lookup(lba)
        if line is not None and line.state is PageState.DIRTY:
            self._order.pop(lba, None)  # re-dirty moves to the tail
            self._order[lba] = None
        out.bg_disk_ops.extend(self._enforce_bound())

    def _enforce_bound(self) -> list:
        ops = []
        while len(self._order) > self.max_dirty_writes:
            lba, _ = self._order.popitem(last=False)  # oldest write first
            line = self.sets.lookup(lba)
            if line is None or line.state is not PageState.DIRTY:
                continue
            ops += self._flush_line(line)
            self.sets.set_state(lba, PageState.CLEAN)
            self.ordered_flushes += 1
        return ops

    def _flush_line(self, line):
        self._order.pop(line.lba, None)
        return super()._flush_line(line)

    def finish(self) -> None:
        # flush strictly in write order
        while self._order:
            lba, _ = self._order.popitem(last=False)
            line = self.sets.lookup(lba)
            if line is not None and line.state is PageState.DIRTY:
                self.raid.write(lba)
                self._ssd_read(1)
                self.sets.set_state(lba, PageState.CLEAN)
        super().finish()

    def check_invariants(self) -> None:
        super().check_invariants()
        dirty = {
            l.lba for l in self.sets.all_lines() if l.state is PageState.DIRTY
        }
        if not dirty.issubset(set(self._order)):
            raise ConfigError("dirty page missing from the write-order FIFO")


class JournaledWriteBack(WriteBack):
    """Write-back with epoch-granular (barrier) flushing."""

    name = "jwb"

    def __init__(
        self,
        config: CacheConfig,
        raid: RAIDArray,
        epoch_writes: int = 128,
    ) -> None:
        if epoch_writes < 1:
            raise ConfigError("epoch_writes must be >= 1")
        super().__init__(config, raid)
        self.epoch_writes = epoch_writes
        self._epoch: list[int] = []
        self.epochs_committed = 0

    def _write(self, lba: int, out: Outcome) -> None:
        super()._write(lba, out)
        self._epoch.append(lba)
        if len(self._epoch) >= self.epoch_writes:
            out.bg_disk_ops.extend(self.commit_epoch())

    def commit_epoch(self) -> list:
        """Flush the epoch's dirty pages as one atomic group."""
        ops = []
        flushed = set()
        for lba in self._epoch:
            if lba in flushed:
                continue  # one flush per page per epoch (write coalescing)
            line = self.sets.lookup(lba)
            if line is None or line.state is not PageState.DIRTY:
                continue
            ops += self._flush_line(line)
            self.sets.set_state(lba, PageState.CLEAN)
            flushed.add(lba)
        self._epoch = []
        self.epochs_committed += 1
        return ops

    def finish(self) -> None:
        self.commit_epoch()
        super().finish()
