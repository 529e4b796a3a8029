"""The RAID array: logical page I/O -> member-disk operations.

The array does two jobs:

* **Accounting / semantics** — every logical read/write is turned into a
  list of :class:`DiskOp` member operations (the small-write problem is
  visible right here: a one-page RAID-5 update is two reads plus two
  writes).  The timing simulator schedules these ops on HDD models; the
  counters feed the evaluation figures.
* **Payload (optional)** — with ``store_data=True`` the array keeps real
  page bytes and maintains parity, so tests can verify reconstruction
  and the delayed-parity protocol bit-for-bit.

Two extended interfaces from Section III-A connect the SSD cache to the
array: :meth:`write_without_parity_update` (used on write hits; leaves
the stripe's parity stale) and :meth:`parity_update` (used by the
background cleaner to repair it, in read-modify-write or
reconstruct-write mode).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..contracts import columnar
from ..errors import ConfigError, DegradedError, RaidError
from .layout import PageLocation, RaidLayout, RaidLevel
from .parity import compute_p, compute_q, xor_blocks


class OpKind(Enum):
    DATA = "data"
    PARITY = "parity"
    Q_PARITY = "q"


@dataclass(frozen=True)
class DiskOp:
    """One member-disk page operation."""

    disk: int
    disk_page: int
    npages: int
    is_read: bool
    kind: OpKind = OpKind.DATA


@dataclass
class RaidCounters:
    """Cumulative member-disk traffic, in pages."""

    data_reads: int = 0
    data_writes: int = 0
    parity_reads: int = 0
    parity_writes: int = 0

    @property
    def reads(self) -> int:
        return self.data_reads + self.parity_reads

    @property
    def writes(self) -> int:
        return self.data_writes + self.parity_writes

    @property
    def total(self) -> int:
        return self.reads + self.writes

    def account(self, ops: Iterable[DiskOp]) -> None:
        for op in ops:
            if op.kind is OpKind.DATA:
                if op.is_read:
                    self.data_reads += op.npages
                else:
                    self.data_writes += op.npages
            else:
                if op.is_read:
                    self.parity_reads += op.npages
                else:
                    self.parity_writes += op.npages


class FastAccounting:
    """O(1) bulk counter accounting for a healthy array.

    The trace-driven simulators only consume :class:`RaidCounters`; the
    :class:`DiskOp` lists matter solely to the timing engine.  On a
    non-degraded array with no latent sector errors and no stored
    payload, every single-page logical op maps to a *fixed* member-I/O
    pattern, so the counter deltas can be precomputed once and applied
    per access (or in bulk) without re-deriving the stripe geometry.
    The deltas mirror the small-write logic of
    :meth:`RAIDArray._write_group` exactly; equivalence is pinned by the
    scalar-vs-vectorized property suite.
    """

    __slots__ = (
        "counters",
        "stale_stripes",
        "stripe_data_pages",
        "write_data_reads",
        "write_parity_reads",
        "write_data_writes",
        "write_parity_writes",
        "delayed_ok",
    )

    def __init__(self, array: "RAIDArray") -> None:
        layout = array.layout
        self.counters = array.counters
        self.stale_stripes = array.stale_stripes
        self.stripe_data_pages = layout.stripe_data_pages
        self.delayed_ok = layout.level in (RaidLevel.RAID5, RaidLevel.RAID6)
        if layout.level is RaidLevel.RAID0:
            reads = (0, 0)
            writes = (1, 0)
        elif layout.level is RaidLevel.RAID1:
            reads = (0, 0)
            writes = (array.ndisks, 0)
        else:
            n_parity = layout.parity_disks
            untouched = layout.data_disks_per_stripe - 1
            rmw_ios = 2 + 2 * n_parity
            rcw_ios = untouched + 1 + n_parity
            if rcw_ios < rmw_ios or not untouched:
                reads = (untouched, 0)
            else:
                reads = (1, n_parity)
            writes = (1, n_parity)
        self.write_data_reads, self.write_parity_reads = reads
        self.write_data_writes, self.write_parity_writes = writes

    @columnar(dtypes={"npages": "int"})
    def read(self, npages: int = 1) -> None:
        """Account ``npages`` independent single-page logical reads."""
        self.counters.data_reads += npages

    @columnar(dtypes={"npages": "int"})
    def write(self, npages: int = 1) -> None:
        """Account ``npages`` independent single-page parity-updating writes."""
        c = self.counters
        c.data_reads += npages * self.write_data_reads
        c.parity_reads += npages * self.write_parity_reads
        c.data_writes += npages * self.write_data_writes
        c.parity_writes += npages * self.write_parity_writes

    @columnar(dtypes={"lpage": "int"})
    def write_delayed(self, lpage: int) -> None:
        """Account one ``write_without_parity_update``; marks parity stale.

        Raises the scalar call's :class:`RaidError` without a parity level.
        """
        if not self.delayed_ok:
            raise RaidError("delayed parity requires a parity RAID level")
        self.counters.data_writes += 1
        self.stale_stripes.add(lpage // self.stripe_data_pages)


class RAIDArray:
    """A parity-protected disk array with delayed-parity extensions."""

    def __init__(
        self,
        level: RaidLevel = RaidLevel.RAID5,
        ndisks: int = 5,
        chunk_pages: int = 16,
        pages_per_disk: int = 1 << 22,
        page_size: int = 4096,
        store_data: bool = False,
    ) -> None:
        self.layout = RaidLayout(
            level, ndisks, chunk_pages=chunk_pages, pages_per_disk=pages_per_disk
        )
        self.page_size = page_size
        self.counters = RaidCounters()
        self.failed_disks: set[int] = set()
        #: Stripes whose parity is stale because of write_without_parity_update.
        self.stale_stripes: set[int] = set()
        #: Member pages hit by a latent sector error: unreadable until a
        #: scrub/repair rewrites them.  Keyed ``(disk, disk_page)``.
        self.media_errors: set[tuple[int, int]] = set()
        self._store = store_data
        # disk -> disk_page -> page bytes (uint8 arrays); parity included.
        self._disk_data: list[dict[int, np.ndarray]] | None = (
            [dict() for _ in range(ndisks)] if store_data else None
        )

    # -- basic properties -----------------------------------------------------

    @property
    def level(self) -> RaidLevel:
        return self.layout.level

    @property
    def ndisks(self) -> int:
        return self.layout.ndisks

    @property
    def capacity_pages(self) -> int:
        cap = self.layout.capacity_pages
        assert cap is not None
        return cap

    def _check_lpage(self, lpage: int, npages: int = 1) -> None:
        if lpage < 0 or lpage + npages > self.capacity_pages:
            raise ConfigError(f"logical pages [{lpage}, {lpage + npages}) out of range")

    # -- payload helpers -------------------------------------------------------

    def _zeros(self) -> np.ndarray:
        return np.zeros(self.page_size, dtype=np.uint8)

    def _get_disk_page(self, disk: int, disk_page: int) -> np.ndarray:
        assert self._disk_data is not None
        return self._disk_data[disk].get(disk_page, self._zeros())

    def _put_disk_page(self, disk: int, disk_page: int, data: np.ndarray) -> None:
        assert self._disk_data is not None
        self._disk_data[disk][disk_page] = np.asarray(data, dtype=np.uint8).copy()

    def _coerce_page(self, data: bytes | np.ndarray) -> np.ndarray:
        arr = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else np.asarray(data, np.uint8)
        if len(arr) > self.page_size:
            raise RaidError(f"payload longer than a page ({len(arr)})")
        if len(arr) < self.page_size:
            arr = np.concatenate([arr, np.zeros(self.page_size - len(arr), np.uint8)])
        return arr

    # -- stripe geometry helpers ----------------------------------------------

    def _stripe_parity_locations(self, stripe: int, offset: int) -> list[tuple[int, int, OpKind]]:
        """(disk, disk_page, kind) for each parity unit at chunk ``offset``."""
        out: list[tuple[int, int, OpKind]] = []
        page = stripe * self.layout.chunk_pages + offset
        p = self.layout.parity_disk(stripe)
        if p is not None:
            out.append((p, page, OpKind.PARITY))
        q = self.layout.q_disk(stripe)
        if q is not None:
            out.append((q, page, OpKind.Q_PARITY))
        return out

    def _data_locations_at_offset(self, stripe: int, offset: int) -> list[tuple[int, PageLocation]]:
        """(logical page, location) of every data page at chunk ``offset``."""
        base = stripe * self.layout.stripe_data_pages
        out = []
        for chunk in range(self.layout.data_disks_per_stripe):
            lpage = base + chunk * self.layout.chunk_pages + offset
            out.append((lpage, self.layout.locate(lpage)))
        return out

    # -- failure management -----------------------------------------------------

    def fail_disk(self, disk: int) -> None:
        """Mark a member disk failed (its contents are lost)."""
        if not 0 <= disk < self.ndisks:
            raise ConfigError(f"no such disk {disk}")
        self.failed_disks.add(disk)
        if len(self.failed_disks) > self.layout.fault_tolerance:
            raise DegradedError(
                f"{len(self.failed_disks)} failures exceed "
                f"{self.level.name} tolerance of {self.layout.fault_tolerance}"
            )
        # Latent sector errors on a lost member are subsumed by the loss
        # (the rebuild rewrites every page of the replacement disk).
        self.media_errors = {k for k in self.media_errors if k[0] != disk}
        if self._disk_data is not None:
            self._disk_data[disk] = {}

    @property
    def degraded(self) -> bool:
        return bool(self.failed_disks)

    def fast_account(self) -> FastAccounting | None:
        """Counter-only accounting shortcut, or None when ineligible.

        Eligibility requires the fixed member-I/O patterns to hold: no
        failed member (degraded reads/writes reroute I/O), no latent
        sector errors (reads reconstruct through peers), and no stored
        payload (payload maintenance reads real pages).  Callers must
        re-request the helper if any of those change.
        """
        if self.failed_disks or self.media_errors or self._disk_data is not None:
            return None
        return FastAccounting(self)

    # -- media errors (latent sector faults, repro.faults) ----------------------

    def mark_media_error(self, disk: int, disk_page: int) -> None:
        """Record a latent sector error: this member page is unreadable.

        The payload bytes are deliberately *kept* in store_data mode: a
        media error gates the host read path only, while parity repair
        still works — under KDD the cleaner repairs parity from cached
        deltas (read-modify-write on the parity unit) without ever
        reading the failed sector, and the payload-mode parity recompute
        stands in for exactly that delta path (see DESIGN.md).
        """
        if not 0 <= disk < self.ndisks:
            raise ConfigError(f"no such disk {disk}")
        pages = self.layout.pages_per_disk
        if disk_page < 0 or (pages is not None and disk_page >= pages):
            raise ConfigError(f"disk page {disk_page} out of range")
        self.media_errors.add((disk, disk_page))

    def page_readable(self, disk: int, disk_page: int) -> bool:
        """Whether a direct read of one member page can succeed."""
        return (
            disk not in self.failed_disks
            and (disk, disk_page) not in self.media_errors
        )

    def member_page_role(self, disk: int, disk_page: int) -> tuple[int, OpKind]:
        """``(stripe, unit kind)`` of one member page."""
        stripe = disk_page // self.layout.chunk_pages
        if disk == self.layout.parity_disk(stripe):
            return stripe, OpKind.PARITY
        if disk == self.layout.q_disk(stripe):
            return stripe, OpKind.Q_PARITY
        return stripe, OpKind.DATA

    def reconstruct_read_ops(self, disk: int, disk_page: int) -> list[DiskOp]:
        """Member reads that reconstruct one unreadable member page.

        For a data unit this is the classic degraded read (surviving
        peers + parity) and **fails loudly** with :class:`DegradedError`
        while the stripe's parity is stale — the executable form of the
        paper's vulnerability-window argument.  For a parity unit it is
        the data chunks at the same offset.  Ops are *not* accounted;
        the caller decides (repair vs. timing-only reconstruction).
        """
        if self.level is RaidLevel.RAID0:
            raise DegradedError("RAID-0 cannot reconstruct a lost page")
        stripe, kind = self.member_page_role(disk, disk_page)
        offset = disk_page - stripe * self.layout.chunk_pages
        if self.level is RaidLevel.RAID1:
            for mirror in range(self.ndisks):
                if mirror != disk and self.page_readable(mirror, disk_page):
                    return [DiskOp(mirror, disk_page, 1, True)]
            raise DegradedError("no readable mirror left")
        if kind is not OpKind.DATA:
            # rebuild parity from the data chunks at this offset
            ops = []
            for _lpage, loc in self._data_locations_at_offset(stripe, offset):
                if not self.page_readable(loc.disk, loc.disk_page):
                    raise DegradedError(
                        f"data page ({loc.disk},{loc.disk_page}) also "
                        f"unreadable while rebuilding parity of stripe {stripe}"
                    )
                ops.append(DiskOp(loc.disk, loc.disk_page, 1, True))
            return ops
        if stripe in self.stale_stripes:
            raise DegradedError(
                f"stripe {stripe} has stale parity; page ({disk},{disk_page}) "
                "cannot be reconstructed until the cleaner repairs parity "
                "(the vulnerability window the paper closes)"
            )
        ops = []
        for _lpage, other in self._data_locations_at_offset(stripe, offset):
            if other.disk == disk:
                continue
            if not self.page_readable(other.disk, other.disk_page):
                if self.level is RaidLevel.RAID5:
                    raise DegradedError(
                        f"double failure in stripe {stripe}: peer "
                        f"({other.disk},{other.disk_page}) also unreadable"
                    )
                continue  # RAID-6: second loss handled via Q
            ops.append(DiskOp(other.disk, other.disk_page, 1, True))
        for pdisk, ppage, pkind in self._stripe_parity_locations(stripe, offset):
            if not self.page_readable(pdisk, ppage):
                if self.level is RaidLevel.RAID5:
                    raise DegradedError(
                        f"stripe {stripe}: parity ({pdisk},{ppage}) unreadable "
                        "alongside the data page — double failure"
                    )
                continue
            ops.append(DiskOp(pdisk, ppage, 1, True, pkind))
        return ops

    def repair_page(self, disk: int, disk_page: int) -> list[DiskOp]:
        """Reconstruct one media-errored member page and rewrite it.

        Returns the member ops performed (peer reads + one write),
        accounted in :attr:`counters`.  No-op for pages without a
        recorded media error.  Raises :class:`DegradedError` when the
        page is a data unit of a stale-parity stripe; repair the parity
        first (``parity_update`` / the cleaner), then retry.
        """
        key = (disk, disk_page)
        if disk in self.failed_disks:
            raise RaidError(
                "repair_page repairs latent sector errors; a failed member "
                "is rebuilt with rebuild_disk"
            )
        if key not in self.media_errors:
            return []
        stripe, kind = self.member_page_role(disk, disk_page)
        ops = self.reconstruct_read_ops(disk, disk_page)
        ops.append(DiskOp(disk, disk_page, 1, False, kind))
        if self._disk_data is not None:
            offset = disk_page - stripe * self.layout.chunk_pages
            if kind is OpKind.DATA:
                for lpage, loc in self._data_locations_at_offset(stripe, offset):
                    if loc.disk == disk:
                        payload = self._reconstruct_payload(lpage, loc)
                        self.media_errors.discard(key)
                        self._put_disk_page(disk, disk_page, payload)
                        break
            else:
                self.media_errors.discard(key)
                self._recompute_parity_at(stripe, offset)
        self.media_errors.discard(key)
        self.counters.account(ops)
        return ops

    # -- reads ---------------------------------------------------------------

    def read(self, lpage: int, npages: int = 1) -> list[DiskOp]:
        """Read logical pages, reconstructing through parity if degraded.

        A page is served degraded both when its member disk failed and
        when the page itself carries a latent sector error
        (:meth:`mark_media_error`).
        """
        self._check_lpage(lpage, npages)
        ops: list[DiskOp] = []
        for page in range(lpage, lpage + npages):
            loc = self.layout.locate(page)
            if self.page_readable(loc.disk, loc.disk_page):
                ops.append(DiskOp(loc.disk, loc.disk_page, 1, True))
                continue
            ops.extend(self.reconstruct_read_ops(loc.disk, loc.disk_page))
        self.counters.account(ops)
        return ops

    def read_data(self, lpage: int) -> np.ndarray:
        """Current payload of a logical page (store_data mode only)."""
        if self._disk_data is None:
            raise ConfigError("array was created with store_data=False")
        self._check_lpage(lpage)
        loc = self.layout.locate(lpage)
        if self.page_readable(loc.disk, loc.disk_page):
            return self._get_disk_page(loc.disk, loc.disk_page)
        return self._reconstruct_payload(lpage, loc)

    def _reconstruct_payload(self, lpage: int, loc: PageLocation) -> np.ndarray:
        if self.level is RaidLevel.RAID1:
            for mirror in range(self.ndisks):
                if mirror != loc.disk and self.page_readable(mirror, loc.disk_page):
                    return self._get_disk_page(mirror, loc.disk_page)
            raise DegradedError("no readable mirror left")
        if self.level is RaidLevel.RAID0:
            raise DegradedError("RAID-0 data is unrecoverable")
        if loc.stripe in self.stale_stripes:
            raise DegradedError(f"stale parity on stripe {loc.stripe}")
        offset = loc.disk_page - loc.stripe * self.layout.chunk_pages
        blocks = []
        for _lpage, other in self._data_locations_at_offset(loc.stripe, offset):
            if other.disk == loc.disk:
                continue
            if not self.page_readable(other.disk, other.disk_page):
                raise DegradedError("double data failure needs RAID-6 decode")
            blocks.append(self._get_disk_page(other.disk, other.disk_page))
        p_disk = self.layout.parity_disk(loc.stripe)
        assert p_disk is not None
        parity_page = self.layout.parity_page(loc.stripe, lpage)
        if not self.page_readable(p_disk, parity_page):
            raise DegradedError(
                f"parity ({p_disk},{parity_page}) unreadable alongside the "
                "data page — double failure"
            )
        blocks.append(self._get_disk_page(p_disk, parity_page))
        return xor_blocks(blocks)

    # -- writes with parity update (the small-write path) -----------------------

    def write(
        self,
        lpage: int,
        npages: int = 1,
        data: Sequence[bytes | np.ndarray] | None = None,
    ) -> list[DiskOp]:
        """Write logical pages with a full parity update.

        Pages are grouped per stripe and per chunk offset; each group is
        served by whichever of read-modify-write or reconstruct-write
        needs fewer member I/Os (classic RAID-5 small-write logic).
        """
        self._check_lpage(lpage, npages)
        if data is not None and len(data) != npages:
            raise ConfigError("data must contain one payload per page")
        ops: list[DiskOp] = []
        # group written pages by (stripe, offset-within-chunk)
        groups: dict[tuple[int, int], list[int]] = {}
        for i, page in enumerate(range(lpage, lpage + npages)):
            loc = self.layout.locate(page)
            offset = loc.disk_page - loc.stripe * self.layout.chunk_pages
            groups.setdefault((loc.stripe, offset), []).append(i)
        for (stripe, offset), idxs in groups.items():
            pages = [lpage + i for i in idxs]
            payloads = [data[i] for i in idxs] if data is not None else None
            ops.extend(self._write_group(stripe, offset, pages, payloads))
        self.counters.account(ops)
        return ops

    def _write_group(
        self,
        stripe: int,
        offset: int,
        pages: list[int],
        payloads: list[bytes | np.ndarray] | None,
    ) -> list[DiskOp]:
        layout = self.layout
        if self.level is RaidLevel.RAID0:
            return self._write_plain(pages, payloads)
        if self.level is RaidLevel.RAID1:
            ops = []
            for i, page in enumerate(pages):
                loc = layout.locate(page)
                for mirror in range(self.ndisks):
                    if mirror in self.failed_disks:
                        continue
                    ops.append(DiskOp(mirror, loc.disk_page, 1, False))
                    if self._disk_data is not None and payloads is not None:
                        self._put_disk_page(mirror, loc.disk_page, self._coerce_page(payloads[i]))
                    elif self._disk_data is not None:
                        self._put_disk_page(mirror, loc.disk_page, self._zeros())
            return ops

        all_at_offset = self._data_locations_at_offset(stripe, offset)
        written = set(pages)
        untouched = [t for t in all_at_offset if t[0] not in written]
        k = len(pages)  # chunks written at this offset
        n_parity = self.layout.parity_disks
        rmw_ios = 2 * k + 2 * n_parity  # read+write each written chunk & parity
        rcw_ios = len(untouched) + k + n_parity  # read others, write new + parity

        use_rcw = rcw_ios < rmw_ios or not untouched
        ops: list[DiskOp] = []
        if use_rcw:
            for _, loc in untouched:
                if loc.disk in self.failed_disks:
                    continue
                ops.append(DiskOp(loc.disk, loc.disk_page, 1, True))
        else:
            for page in pages:
                loc = layout.locate(page)
                if loc.disk in self.failed_disks:
                    continue
                ops.append(DiskOp(loc.disk, loc.disk_page, 1, True))
            for disk, dpage, kind in self._stripe_parity_locations(stripe, offset):
                if disk in self.failed_disks:
                    continue
                ops.append(DiskOp(disk, dpage, 1, True, kind))

        self._apply_payload_writes(stripe, offset, pages, payloads)

        for page in pages:
            loc = layout.locate(page)
            if loc.disk in self.failed_disks:
                continue
            ops.append(DiskOp(loc.disk, loc.disk_page, 1, False))
        for disk, dpage, kind in self._stripe_parity_locations(stripe, offset):
            if disk in self.failed_disks:
                continue
            ops.append(DiskOp(disk, dpage, 1, False, kind))
        return ops

    def _write_plain(
        self, pages: list[int], payloads: list[bytes | np.ndarray] | None
    ) -> list[DiskOp]:
        ops = []
        for i, page in enumerate(pages):
            loc = self.layout.locate(page)
            if loc.disk in self.failed_disks:
                raise DegradedError("RAID-0 write to failed disk")
            ops.append(DiskOp(loc.disk, loc.disk_page, 1, False))
            if self._disk_data is not None:
                payload = (
                    self._coerce_page(payloads[i]) if payloads is not None else self._zeros()
                )
                self._put_disk_page(loc.disk, loc.disk_page, payload)
        return ops

    def _apply_payload_writes(
        self,
        stripe: int,
        offset: int,
        pages: list[int],
        payloads: list[bytes | np.ndarray] | None,
    ) -> None:
        """Store new data bytes and recompute parity (store_data mode)."""
        if self._disk_data is None:
            return
        for i, page in enumerate(pages):
            loc = self.layout.locate(page)
            payload = (
                self._coerce_page(payloads[i]) if payloads is not None else self._zeros()
            )
            if loc.disk not in self.failed_disks:
                self._put_disk_page(loc.disk, loc.disk_page, payload)
        self._recompute_parity_at(stripe, offset)

    def _recompute_parity_at(self, stripe: int, offset: int) -> None:
        assert self._disk_data is not None
        blocks = []
        for _, loc in self._data_locations_at_offset(stripe, offset):
            if loc.disk in self.failed_disks:
                raise RaidError(
                    "payload-mode parity recompute needs all data disks; "
                    "repair parity before failing a data disk (in op-counting "
                    "mode rmw applies deltas and does not hit this limit)"
                )
            blocks.append(self._get_disk_page(loc.disk, loc.disk_page))
        for disk, dpage, kind in self._stripe_parity_locations(stripe, offset):
            if disk in self.failed_disks:
                continue
            parity = compute_p(blocks) if kind is OpKind.PARITY else compute_q(blocks)
            self._put_disk_page(disk, dpage, parity)

    # -- delayed-parity extended interfaces (Section III-A) ----------------------

    def write_without_parity_update(
        self, lpage: int, data: bytes | np.ndarray | None = None
    ) -> list[DiskOp]:
        """Write one data page only; parity of the stripe becomes stale.

        Used by LeavO/KDD on write hits: the old data needed to repair
        parity later lives in the SSD cache, so the array can skip the
        read-old/read-parity/write-parity I/Os now.
        """
        if self.level not in (RaidLevel.RAID5, RaidLevel.RAID6):
            raise RaidError("delayed parity requires a parity RAID level")
        self._check_lpage(lpage)
        loc = self.layout.locate(lpage)
        if loc.disk in self.failed_disks:
            raise DegradedError("cannot delay parity while writing to a failed disk")
        ops = [DiskOp(loc.disk, loc.disk_page, 1, False)]
        self.stale_stripes.add(loc.stripe)
        if self._disk_data is not None:
            payload = self._coerce_page(data) if data is not None else self._zeros()
            self._put_disk_page(loc.disk, loc.disk_page, payload)
        self.counters.account(ops)
        return ops

    def parity_update(
        self,
        stripe: int,
        deltas: Mapping[int, bytes | np.ndarray] | None = None,
        cached_pages: Sequence[int] = (),
        force_mode: str | None = None,
    ) -> list[DiskOp]:
        """Repair the stale parity of ``stripe`` (cleaner interface).

        *Reconstruct-write* is used when every data page of the stripe is
        available without disk reads (all cached, per Section III-D);
        otherwise *read-modify-write* reads the stale parity and XORs in
        the ``deltas`` (``old ^ new`` per changed logical page).

        ``deltas`` maps logical page -> XOR delta; required for payload
        correctness in rmw mode when data is stored.  ``cached_pages``
        lists the stripe's logical pages resident in the SSD cache.
        """
        if stripe not in self.stale_stripes:
            return []
        all_pages = set(self.layout.stripe_pages(stripe))
        use_rcw = force_mode == "rcw" or (
            force_mode is None and all_pages.issubset(set(cached_pages))
        )
        if force_mode == "rmw":
            use_rcw = False

        ops: list[DiskOp] = []
        chunk_pages = self.layout.chunk_pages
        if use_rcw:
            # All data known to the caller: write parity only.
            for offset in range(chunk_pages):
                for disk, dpage, kind in self._stripe_parity_locations(stripe, offset):
                    if disk in self.failed_disks:
                        continue
                    ops.append(DiskOp(disk, dpage, 1, False, kind))
                if self._disk_data is not None:
                    self._recompute_parity_at(stripe, offset)
        else:
            # Read stale parity pages, XOR deltas in, write back.
            touched_offsets = sorted(
                {
                    (lp - stripe * self.layout.stripe_data_pages) % chunk_pages
                    for lp in (deltas or all_pages)
                    if self.layout.stripe_of(lp) == stripe
                }
            ) or list(range(chunk_pages))
            for offset in touched_offsets:
                for disk, dpage, kind in self._stripe_parity_locations(stripe, offset):
                    if disk in self.failed_disks:
                        continue
                    ops.append(DiskOp(disk, dpage, 1, True, kind))
                    ops.append(DiskOp(disk, dpage, 1, False, kind))
                if self._disk_data is not None:
                    # With payload we recompute exactly; the delta-XOR path is
                    # verified equivalent by the test suite.
                    self._recompute_parity_at(stripe, offset)
        self.stale_stripes.discard(stripe)
        self.counters.account(ops)
        return ops

    # -- verification -----------------------------------------------------------

    def verify_stripe(self, stripe: int) -> bool:
        """Parity consistency of one stripe (store_data mode)."""
        if self._disk_data is None:
            raise ConfigError("verification requires store_data=True")
        for offset in range(self.layout.chunk_pages):
            blocks = [
                self._get_disk_page(loc.disk, loc.disk_page)
                for _, loc in self._data_locations_at_offset(stripe, offset)
            ]
            for disk, dpage, kind in self._stripe_parity_locations(stripe, offset):
                if disk in self.failed_disks:
                    continue
                expected = compute_p(blocks) if kind is OpKind.PARITY else compute_q(blocks)
                if not np.array_equal(self._get_disk_page(disk, dpage), expected):
                    return False
        return True
