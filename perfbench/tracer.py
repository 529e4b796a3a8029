"""Span tracer that wraps the program's public functions at layer boundaries.

The benchmark's traced run installs a wrapper around every function in
:data:`BOUNDARIES`, runs one pass of a workload, and removes the
wrappers again.  Each wrapped call is a span of its layer.  A layer's
*self time* is the duration of its spans minus the time their child
spans cover.  A child covers its whole wrapper, from entry to exit, and
the wrapper's own bookkeeping around the call is booked to
:attr:`Tracer.bookkeeping_s` instead of to the parent's layer, so the
tracer's cost does not inflate the layers that make many calls.  The
self times of all layers, the root's own self time and the bookkeeping
add up to the traced wall time.

Spans and counts stay in memory: per-layer aggregates for every span,
plus the raw ``(id, parent_id, layer, start, end)`` tuples of the first
:attr:`Tracer.SPAN_CAP` spans.  :meth:`Tracer.dump` writes them out at the end.

The wrappers live here, in the benchmark; the program itself carries no
instrumentation.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any

ROOT = "root"

#: A boundary's counter: ``(counts, args, result, parent_layer)``.
CountFn = Callable[[Counter, tuple, Any, "str | None"], None]


def _count_bulk_hits(counts: Counter, args: tuple, result: Any,
                     parent: str | None) -> None:
    counts["cache.sets.bulk_hits"] += len(args[1])


def _count_victims(counts: Counter, args: tuple, result: Any,
                   parent: str | None) -> None:
    # A call nested in another cache.sets span is a victim *search*
    # (KDD's least-DEZ set scan), not an eviction by a policy.
    if result is not None and parent != "cache.sets":
        counts["cache.evictions"] += 1


def _count_flush(counts: Counter, args: tuple, result: Any,
                 parent: str | None) -> None:
    counts["nvram.flushes"] += 1
    counts["nvram.flushed_deltas"] += len(result)


def _count_meta_drain(counts: Counter, args: tuple, result: Any,
                      parent: str | None) -> None:
    if result and parent == "cache.mlog":
        counts["cache.mlog.commits"] += 1
        counts["cache.mlog.entries"] += len(result)


@dataclass(frozen=True)
class Boundary:
    """One wrapped function: ``name`` is ``Class.method`` or ``function``."""

    layer: str
    module: str
    name: str
    count: CountFn | None = None
    generator: bool = False


def _methods(layer: str, module: str, cls: str, *names: str,
             **kw: Any) -> list[Boundary]:
    return [Boundary(layer, module, f"{cls}.{n}", **kw) for n in names]


#: Every layer boundary the traced run wraps, grouped by layer.
BOUNDARIES: tuple[Boundary, ...] = tuple(
    _methods("core", "repro.core.kdd", "KDD", "read", "write")
    + _methods("cache", "repro.cache.writethrough", "WriteThrough",
               "read", "write")
    + _methods("cache", "repro.cache.writearound", "WriteAround",
               "read", "write")
    + _methods("cache", "repro.cache.leavo", "LeavO", "read", "write")
    + _methods("cache", "repro.cache.nocache", "Nossd", "read", "write")
    + _methods("cache.sets", "repro.cache.sets", "CacheSets",
               "classify", "lookup", "touch", "alloc", "remove",
               "set_state", "resident_in_range", "alloc_dez", "free_dez",
               "set_of", "set_of_batch", "lpn_of", "count", "dez_count",
               "has_free_slot", "alloc_dez_at", "borrow_slot",
               "release_slot", "adopt_borrowed")
    + [Boundary("cache.sets", "repro.cache.sets", "CacheSets.touch_many",
                count=_count_bulk_hits),
       Boundary("cache.sets", "repro.cache.sets",
                "CacheSets.evict_candidate", count=_count_victims),
       Boundary("cache.sets", "repro.cache.sets",
                "CacheSets.min_dez_set_with_clean", count=_count_victims)]
    + _methods("nvram", "repro.nvram.staging", "StagingBuffer",
               "put", "flush_done", "would_fit_after_coalesce")
    + [Boundary("nvram", "repro.nvram.staging", "StagingBuffer.begin_flush",
                count=_count_flush),
       Boundary("nvram", "repro.nvram.metabuffer", "MetadataBuffer.put"),
       Boundary("nvram", "repro.nvram.metabuffer", "MetadataBuffer.drain",
                count=_count_meta_drain)]
    + _methods("cache.mlog", "repro.cache.mlog", "MetadataLog",
               "record", "reserve", "commit")
    + [Boundary("delta", "repro.delta.model",
                "GaussianDeltaModel.sample_size"),
       Boundary("delta", "repro.delta.packer", "pack_deltas")]
    + _methods("raid", "repro.raid.array", "RAIDArray", "read", "write",
               "write_without_parity_update", "parity_update")
    + _methods("raid", "repro.raid.array", "FastAccounting",
               "read", "write", "write_delayed")
    + [Boundary("engine", "repro.engine.system", "SimEngine.submit"),
       Boundary("engine", "repro.engine.core", "EventLoop.run")]
    + _methods("engine", "repro.engine.resources", "DiskResource", "serve")
    + _methods("engine", "repro.engine.resources", "SSDResource",
               "serve_read", "serve_write")
    + [Boundary("disk", "repro.disk.hdd", "HDD.service_time"),
       Boundary("stats", "repro.stats.latency", "LatencyRecorder.record"),
       Boundary("stats", "repro.stats.streaming",
                "StreamingQuantiles.add_many"),
       Boundary("stats", "repro.stats.streaming",
                "WindowedThroughput.observe_batch"),
       Boundary("serve", "repro.serve.driver", "ServeDriver.run"),
       Boundary("serve", "repro.serve.driver", "ServeMetrics.observe_batch"),
       Boundary("serve", "repro.serve.composer", "WorkloadComposer.compose",
                generator=True)]
    + _methods("cache.partition", "repro.cache.partition",
               "PartitionedCache", "access", "reallocate", "finish")
    + [Boundary("traces", "repro.traces.workloads", "make_workload"),
       Boundary("traces", "repro.traces.trace", "Trace.page_accesses")]
)

#: Layers in report order (the order they first appear above).
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(b.layer for b in BOUNDARIES))

_MARK = "__perfbench_wrapped__"


@dataclass
class _Patch:
    """One attribute replaced by a wrapper, and how to put it back."""

    owner: Any
    attr: str
    original: Any
    was_local: bool


class Tracer:
    """In-memory span recorder with per-layer self time and call counts."""

    #: Raw spans kept for the dump; aggregates cover every span.
    SPAN_CAP = 20_000

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.self_s[ROOT] = 0.0
        self.calls: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.counts: Counter = Counter()
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.wall = 0.0
        #: Wrapper time outside the wrapped calls, kept out of every layer.
        self.bookkeeping_s = 0.0
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._patches: list[_Patch] = []

    # -- spans -------------------------------------------------------------

    def _close(self, frame: list, t_in: float, t0: float,
               t1: float) -> None:
        """Book a finished span whose wrapper was entered at ``t_in``.

        ``t0``..``t1`` is the wrapped call.  The parent's cover runs from
        ``t_in`` to now, and the part of it outside the call is
        bookkeeping.
        """
        stack = self._stack
        stack.pop()
        self.self_s[frame[2]] += (t1 - t0) - frame[0]
        parent = stack[-1] if stack else None
        if len(self.spans) < self.SPAN_CAP:
            self.spans.append((frame[1], parent[1] if parent else 0,
                               frame[2], t0, t1))
        if parent is not None:
            t_out = time.perf_counter()
            parent[0] += t_out - t_in
            self.bookkeeping_s += (t_out - t_in) - (t1 - t0)

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """A span opened by the benchmark around a call into ``layer``."""
        frame = [0.0, next(self._ids), layer]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            if layer == ROOT:
                self.wall += t1 - t0
            else:
                self.calls[layer] += 1
            self._close(frame, t0, t0, t1)

    def root(self) -> Any:
        """The span every traced pass runs under; adds to :attr:`wall`."""
        return self.span(ROOT)

    def _wrap(self, layer: str, fn: Callable, count: CountFn | None) -> Callable:
        stack = self._stack
        calls = self.calls
        counts = self.counts
        ids = self._ids
        close = self._close
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t_in = clock()
            frame = [0.0, next(ids), layer]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                calls[layer] += 1
                close(frame, t_in, t0, t1)
                raise
            t1 = clock()
            calls[layer] += 1
            if count is not None:
                count(counts, args, result,
                      stack[-2][2] if len(stack) > 1 else None)
            close(frame, t_in, t0, t1)
            return result

        return wrapper

    def _wrap_generator(self, layer: str, fn: Callable) -> Callable:
        """Spans around each step of a generator, not around its consumer."""
        stack = self._stack
        calls = self.calls
        ids = self._ids
        close = self._close
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            it = fn(*args, **kwargs)
            calls[layer] += 1
            while True:
                t_in = clock()
                frame = [0.0, next(ids), layer]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    close(frame, t_in, t0, clock())
                    return
                except BaseException:
                    close(frame, t_in, t0, clock())
                    raise
                close(frame, t_in, t0, clock())
                yield item

        return wrapper

    # -- installing and removing wrappers ------------------------------------

    def install(self) -> None:
        for b in BOUNDARIES:
            module = importlib.import_module(b.module)
            cls_name, _, attr = b.name.rpartition(".")
            if cls_name:
                owner = getattr(module, cls_name)
                original = getattr(owner, attr)
                original = getattr(original, _MARK, original)
                wrapper = self._make(b, original)
                self._patches.append(
                    _Patch(owner, attr, owner.__dict__.get(attr),
                           attr in owner.__dict__))
                setattr(owner, attr, wrapper)
                continue
            original = getattr(module, attr)
            wrapper = self._make(b, original)
            # A function imported by name elsewhere is bound in that
            # module's globals too: wrap every binding of it.
            for mod in _program_modules():
                if mod.__dict__.get(attr) is original:
                    self._patches.append(_Patch(mod, attr, original, True))
                    setattr(mod, attr, wrapper)

    def _make(self, b: Boundary, original: Callable) -> Callable:
        if b.generator:
            wrapper = self._wrap_generator(b.layer, original)
        else:
            wrapper = self._wrap(b.layer, original, b.count)
        setattr(wrapper, _MARK, original)
        return wrapper

    def uninstall(self) -> None:
        while self._patches:
            p = self._patches.pop()
            if p.was_local:
                setattr(p.owner, p.attr, p.original)
            else:
                delattr(p.owner, p.attr)

    @staticmethod
    def leftover_wrappers() -> list[str]:
        """Boundaries still reaching a tracer wrapper (empty when clean)."""
        left = []
        for b in BOUNDARIES:
            module = importlib.import_module(b.module)
            cls_name, _, attr = b.name.rpartition(".")
            if cls_name:
                if hasattr(getattr(getattr(module, cls_name), attr), _MARK):
                    left.append(f"{b.module}.{b.name}")
                continue
            for mod in _program_modules():
                if hasattr(mod.__dict__.get(attr), _MARK):
                    left.append(f"{mod.__name__}.{attr}")
        return left

    # -- results -------------------------------------------------------------

    def self_time_total(self) -> float:
        """Self times of every layer and the root, plus bookkeeping."""
        return sum(self.self_s.values()) + self.bookkeeping_s

    def dump(self, path: Path, extra: dict[str, Any]) -> None:
        """Write aggregates and the sampled spans as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **extra,
            "wall_s": self.wall,
            "self_s": self.self_s,
            "bookkeeping_s": self.bookkeeping_s,
            "calls": self.calls,
            "counts": dict(self.counts),
            "span_fields": ["id", "parent_id", "layer", "start_s", "end_s"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload) + "\n")


def _program_modules() -> list[Any]:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "repro"
                                    or name.startswith("repro."))]


# ---------------------------------------------------------------------------
# cProfile cross-check: self time by package
# ---------------------------------------------------------------------------

#: Source file (relative to ``src/repro``) -> layer, most specific first.
_FILE_LAYERS: tuple[tuple[str, str], ...] = (
    ("cache/sets.py", "cache.sets"),
    ("cache/mlog.py", "cache.mlog"),
    ("cache/partition.py", "cache.partition"),
    ("cache/", "cache"),
    ("core/", "core"),
    ("nvram/", "nvram"),
    ("delta/", "delta"),
    ("raid/", "raid"),
    ("engine/", "engine"),
    ("disk/", "disk"),
    ("stats/", "stats"),
    ("serve/", "serve"),
    ("traces/", "traces"),
)


def package_of(filename: str) -> str | None:
    """The layer a ``repro`` source file belongs to, or None."""
    norm = filename.replace("\\", "/")
    marker = "/repro/"
    at = norm.rfind(marker)
    if at < 0:
        return None
    rel = norm[at + len(marker):]
    for prefix, layer in _FILE_LAYERS:
        if rel.startswith(prefix):
            return layer
    return None


def profile_self_by_package(stats: Any) -> dict[str, float]:
    """Self time per layer from a :class:`pstats.Stats`.

    Time spent in code outside ``repro`` (builtins, numpy) is charged to
    the ``repro`` caller, split by the time each caller spent in it, the
    same way a span would contain it.
    """
    table = stats.stats
    shares: dict[Any, dict[str, float]] = {}

    def share(func: Any, seen: frozenset) -> dict[str, float]:
        """How ``func``'s time splits over the layers that called it."""
        layer = package_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        callers = table[func][4] if func in table else {}
        total = sum(c[2] for c in callers.values())
        out: dict[str, float] = {}
        for caller, c in callers.items():
            if total <= 0 or caller in seen:
                continue
            for clayer, frac in share(caller, seen | {func}).items():
                out[clayer] = out.get(clayer, 0.0) + frac * c[2] / total
        shares[func] = out
        return out

    by_layer: dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, _callers) in table.items():
        for layer, frac in share(func, frozenset()).items():
            by_layer[layer] = by_layer.get(layer, 0.0) + tt * frac
    return by_layer
