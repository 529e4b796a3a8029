"""Effect/write-set analysis (RPR201-RPR207).

Infers, per project function, the set of object attributes it may
mutate — assignments, augmented assignments and ``del`` through
``self``, through locals aliased to ``self`` attributes, and through
resolved call boundaries, closed over the call graph — and enforces
three contract families on top of the write-sets:

* **Mirror coherence** (RPR201/RPR202/RPR203).  The membership
  directory pair of :class:`repro.cache.sets.CacheSets` (``_index``
  and its columnar mirror ``_lba_table``) plus the membership epoch
  may only be written by a method decorated
  :func:`repro.contracts.mutates_membership`; every choke point must
  bump the epoch; and the batch readers the columnar fast path
  snapshots through (``classify`` and friends) must be write-free
  with respect to membership state.
* **Fast-path effect subsumption** (RPR204).  The columnar-only hook
  ``_bulk_read_hits`` (every other access runs the same handlers in
  both modes) may only write what the scalar ``read`` writes plus the
  declared :class:`FastAccounting` delta surface — a fast path can
  never touch state the scalar path doesn't, the property the
  hypothesis equivalence suite only samples.
* **Sweep race detection** (RPR205/RPR206).  Module-level mutable
  state (``global`` writes, mutation of module constants, class
  attributes) and caching decorators reachable from the sweep
  process-pool worker entry points and from engine hooks are flagged
  unless allowlisted, statically pinning process-pool determinism.
* **Recovery read-surface** (RPR207).  The interprocedural *read*
  closure of the power-failure recovery entry point must stay inside
  the declared crash-surviving surface (NVRAM words and flash page
  images); a recovery path that consults live volatile state only
  looks correct until a real power loss.

Soundness note: like the exception-flow analysis, the resolver covers
module functions, ``self.m()`` through the concrete receiver class,
construction-tracked ``self.attr.m()``, plain local aliases
(``x = self.attr``) and derived locals (``x = self.attr[i]``,
``x = self.attr.get(...)``), and ``super().m()`` with a single project
base.  Mutating calls on receivers it cannot resolve fall back to a
method-name heuristic (:data:`MUTATING_METHODS`).  Objects passed as
call arguments are assumed not to be mutated by the callee.  The sets
are useful, not complete — the fixtures in the test suite pin exactly
what each rule proves.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field

from .findings import Finding
from .project import FuncInfo, ModuleInfo, Project, finding_at

# -- contract configuration --------------------------------------------------

CONTRACTS_MODULE = "repro.contracts"
MUTATES_DECORATOR = f"{CONTRACTS_MODULE}:mutates_membership"

SETS_CLASS = "repro.cache.sets:CacheSets"
#: The membership directory pair: the python-side index and its
#: columnar int64 mirror.  Writing either outside a choke point is
#: exactly the silent-divergence bug the mirror epoch exists to catch.
MEMBERSHIP_ATTRS = frozenset({"_index", "_lba_table"})
#: The membership epoch attribute; protected like the pair itself so
#: the epoch can only move when membership (or the mirror) does.
EPOCH_ATTR = "mutations"
#: CacheSets methods the columnar driver consumes on snapshots
#: (``cache/common.py::_process_columnar``); must not write membership.
BATCH_READERS = ("classify", "resident_in_range", "set_of_batch", "touch_many")

#: Columnar fast hook -> scalar counterpart whose write-set must
#: subsume it (plus the FastAccounting delta surface).
FAST_SCALAR_PAIRS = (("_bulk_read_hits", "read"),)
#: The declared FastAccounting delta surface: the only attribute a
#: fast path may write beyond its scalar counterpart (the O(1) RAID
#: counter accumulator installed by ``_process_columnar``).
FAST_DELTA_ATTRS = frozenset({"_fast"})

#: Sweep process-pool worker entry points: everything these reach runs
#: inside a forked/spawned worker and must not share module state.
SWEEP_ENTRY_POINTS = (
    ("repro.harness.sweep", (
        "_execute_cell", "_run_sim_cell", "_run_replay_cell",
        "_run_fio_cell", "_run_stats_cell", "_run_faults_cell",
        "_run_reliability_cell", "_run_serve_cell",
    )),
    ("repro.harness.faultsweep", ("run_faults_cell", "demo_op_trace")),
    ("repro.harness.relsweep", ("run_reliability_cell",)),
    ("repro.harness.servesweep", ("run_serve_cell",)),
)
#: Engine hooks run inside worker cells too (fault pipelines,
#: instrumentation); every method of every subclass is an entry point.
HOOK_BASE = "repro.engine.hooks:EngineHook"
#: Worker-reachable functions allowed to hold module-level state:
#: deliberate per-process memoisation whose cache key captures every
#: input (documented in DESIGN §12).
SWEEP_ALLOWLIST = frozenset({"repro.harness.sweep:_trace_for"})

#: Method names assumed to mutate an *unresolved* receiver (builtin
#: containers, external objects).  Resolved receivers use the callee's
#: computed write-set instead.
MUTATING_METHODS = frozenset({
    "add", "append", "clear", "discard", "drain", "extend", "insert",
    "move_to_end", "pop", "popitem", "push", "put", "record", "remove",
    "reverse", "setdefault", "sort", "trim", "update", "write",
})

#: functools caching decorators (per-process state by construction).
CACHE_DECORATORS = frozenset({"cache", "lru_cache"})

#: The power-failure recovery entry point (RPR207).  Its whole-program
#: *read* closure must stay inside the declared crash-surviving
#: surface below: recovery consulting any other state is exactly the
#: bug the crash matrix exists to catch — a recovery that "works" in
#: tests because it peeks at live in-memory state that would be gone
#: after a real power loss.
RECOVERY_ENTRY = "repro.core.recovery:recover_from_power_failure"
#: Attributes of the crashed object the recovery may consult, and the
#: class each resolves to (``repro.faults.crash._RecoveryStandin``
#: mirrors exactly this shape when recovering from a snapshot).
RECOVERY_ROOTS = {
    "mlog": "repro.cache.mlog:MetadataLog",
    "staging": "repro.nvram.staging:StagingBuffer",
}
#: Per class: the attributes that survive a power failure — NVRAM
#: words (head/tail counters, retention lists, buffered entries) and
#: committed flash page images.  Everything else on these classes is
#: volatile bookkeeping.
RECOVERY_SURFACE = {
    "repro.cache.mlog:MetadataLog": frozenset({
        "head", "tail", "_page_image", "buffer", "_committing",
        "_relocating",
    }),
    "repro.nvram.staging:StagingBuffer": frozenset({
        "_entries", "_flushing",
    }),
    "repro.nvram.metabuffer:MetadataBuffer": frozenset({"_entries"}),
}

_PROTECTED = MEMBERSHIP_ATTRS | {EPOCH_ATTR}
_INIT_METHODS = frozenset({"__init__", "__post_init__"})

#: Chain marker for a subscript step (``x[...]``).
_SUB = "[]"


# -- intraprocedural extraction ----------------------------------------------


def _shallow_walk(node: ast.AST) -> list[ast.AST]:
    """Walk a function body without entering nested defs/lambdas/classes."""
    out: list[ast.AST] = []
    stack = list(ast.iter_child_nodes(node))
    while stack:
        cur = stack.pop()
        out.append(cur)
        for child in ast.iter_child_nodes(cur):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda, ast.ClassDef)):
                continue
            stack.append(child)
    return out


def _chain(expr: ast.expr) -> tuple[ast.AST, list[str]]:
    """Decompose an Attribute/Subscript chain into (root, parts).

    ``self._lba_table[i]`` -> (Name self, ["_lba_table", "[]"]).
    """
    parts: list[str] = []
    node: ast.AST = expr
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            parts.append(_SUB)
            node = node.value
        else:
            return node, parts[::-1]


@dataclass
class FuncEffects:
    """Intraprocedural effect facts for one function."""

    #: attr root -> first write site: any mutation reached through a
    #: ``self`` attribute (direct, aliased, derived, or mutator call).
    self_writes: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: attr root -> first *identity-level* write site: ``self.X = ``,
    #: ``self.X[...] = ``, ``del self.X[...]``, or a mutator call
    #: directly on ``self.X``/a plain alias with an unresolved class.
    container_writes: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: (attr, member, line, col): ``self.A.B = `` / ``self.A.B[...] = ``
    #: style raw writes one object deep (checked against CacheSets).
    foreign_writes: list[tuple[str, str, int, int]] = field(default_factory=list)
    #: same-receiver calls: (method name, via_super).
    self_calls: list[tuple[str, bool]] = field(default_factory=list)
    #: sub-object calls: (attr, receiver class id or "", method, line, col).
    attr_calls: list[tuple[str, str, str, int, int]] = field(default_factory=list)
    #: resolved call targets (function ids) for reachability.
    callees: list[str] = field(default_factory=list)
    #: (description, line, col) module-state mutations (RPR205).
    global_mutations: list[tuple[str, int, int]] = field(default_factory=list)
    #: (decorator display name, line, col) caching decorators (RPR206).
    cache_decorators: list[tuple[str, int, int]] = field(default_factory=list)
    #: carries @mutates_membership.
    mutates_decorated: bool = False


class _FuncVisitor:
    """One pass over a function body collecting :class:`FuncEffects`."""

    def __init__(self, project: Project, func: FuncInfo) -> None:
        self.project = project
        self.func = func
        self.mod: ModuleInfo = project.modules[func.module]
        self.class_id = (
            f"{func.module}:{func.class_name}" if func.class_name else ""
        )
        self.eff = FuncEffects()
        self.nodes = _shallow_walk(func.node)
        self._collect_scopes()
        self._collect_aliases()
        self._collect_decorators()
        for node in self.nodes:
            self._visit(node)

    # -- scope and alias maps ------------------------------------------------

    def _collect_scopes(self) -> None:
        self.globals_decl: set[str] = set()
        self.locals: set[str] = set()
        args = self.func.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            self.locals.add(arg.arg)
        if args.vararg is not None:
            self.locals.add(args.vararg.arg)
        if args.kwarg is not None:
            self.locals.add(args.kwarg.arg)
        for node in self.nodes:
            if isinstance(node, ast.Global):
                self.globals_decl.update(node.names)
            elif isinstance(node, ast.Name) and \
                    isinstance(node.ctx, (ast.Store, ast.Del)):
                self.locals.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    self.locals.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ExceptHandler) and node.name:
                self.locals.add(node.name)
        self.locals -= self.globals_decl

    def _alias_of_value(self, value: ast.expr) -> tuple[str, bool] | None:
        """(root attr, is_direct) when a value is rooted at ``self``."""
        via_call = False
        if isinstance(value, ast.Call):
            value = value.func
            via_call = True
        node, parts = _chain(value)
        if not isinstance(node, ast.Name):
            return None
        if node.id == "self" and self.class_id and parts:
            if via_call and len(parts) == 1 and \
                    self.project.find_method(self.class_id, parts[0]):
                return None  # self.method(...): a call, not an attr root
            return parts[0], not via_call and parts == [parts[0]]
        if node.id in self.aliases:
            root, direct = self.aliases[node.id]
            return root, direct and not via_call and not parts
        return None

    def _collect_aliases(self) -> None:
        """Locals rooted at a ``self`` attribute (plain or derived)."""
        self.aliases: dict[str, tuple[str, bool]] = {}
        #: locals constructed from a project class (``v = Cls(); v.m()``).
        self.local_classes: dict[str, str] = {}
        for node in self.nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                if isinstance(node.value, ast.Call):
                    cls = self.project.resolve_class_expr(
                        self.mod, node.value.func)
                    if cls is not None:
                        self.local_classes.setdefault(name, cls.id)
                alias = self._alias_of_value(node.value)
                if alias is not None:
                    self.aliases.setdefault(name, alias)
            elif isinstance(node, ast.NamedExpr) and \
                    isinstance(node.target, ast.Name):
                alias = self._alias_of_value(node.value)
                if alias is not None:
                    self.aliases.setdefault(node.target.id, alias)
            elif isinstance(node, (ast.For, ast.AsyncFor)) and \
                    isinstance(node.target, ast.Name):
                alias = self._alias_of_value(node.iter)
                if alias is not None:  # loop vars are always derived
                    self.aliases.setdefault(node.target.id, (alias[0], False))

    def _collect_decorators(self) -> None:
        for dec in self.func.node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if self.project.resolve_func_expr(self.mod, target) == \
                    MUTATES_DECORATOR:
                self.eff.mutates_decorated = True
            name = self._cache_decorator_name(target)
            if name is not None:
                self.eff.cache_decorators.append(
                    (name, dec.lineno, dec.col_offset))

    def _cache_decorator_name(self, target: ast.expr) -> str | None:
        if isinstance(target, ast.Name):
            binding = self.mod.bindings.get(target.id)
            if binding is not None and binding.module == "functools" and \
                    binding.symbol in CACHE_DECORATORS:
                return binding.symbol
        if isinstance(target, ast.Attribute) and \
                isinstance(target.value, ast.Name) and \
                target.attr in CACHE_DECORATORS:
            binding = self.mod.bindings.get(target.value.id)
            if binding is not None and binding.module == "functools" and \
                    binding.symbol == "":
                return target.attr
        return None

    # -- node dispatch -------------------------------------------------------

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._write_target(target)
        elif isinstance(node, ast.AugAssign):
            self._write_target(node.target)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._write_target(node.target)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._write_target(target)
        elif isinstance(node, ast.Call):
            self._handle_call(node)

    # -- write targets -------------------------------------------------------

    def _attr_class_of(self, attr: str) -> str:
        """Construction-tracked class of ``self.<attr>`` ("" if unknown)."""
        if not self.class_id:
            return ""
        for cid in self.project.class_mro(self.class_id):
            found = self.project.classes[cid].attr_classes.get(attr)
            if found is not None:
                return found
        return ""

    def _module_state_desc(self, name: str, parts: list[str]) -> str | None:
        resolved = self.project._chase(self.mod.name, name)
        if resolved is not None and resolved in self.project.classes:
            if parts and parts[0] is not _SUB:
                return f"class attribute '{name}.{parts[0]}'"
            return f"class attribute table '{name}'"
        if self.mod.symbols.get(name) == "const":
            return f"module-level '{name}'"
        binding = self.mod.bindings.get(name)
        if binding is not None and binding.symbol and \
                binding.module in self.project.modules:
            site = self.project.resolve_symbol(binding.module, binding.symbol)
            if site is not None and site[1] == "const":
                return f"module-level '{name}' (from {site[0]})"
        return None

    def _write_target(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._write_target(element)
            return
        node, parts = _chain(target)
        line, col = target.lineno, target.col_offset
        if isinstance(node, ast.Call):
            func = node.func  # type(self).attr = ... / type(x).attr = ...
            if isinstance(func, ast.Name) and func.id == "type" and parts:
                self.eff.global_mutations.append(
                    (f"class attribute 'type(...).{parts[0]}'", line, col))
            return
        if not isinstance(node, ast.Name):
            return
        name = node.id
        if name == "self" and self.class_id and parts:
            root = parts[0]
            self.eff.self_writes.setdefault(root, (line, col))
            if len(parts) == 1 or (len(parts) == 2 and parts[1] == _SUB):
                self.eff.container_writes.setdefault(root, (line, col))
            elif parts[1] != _SUB and (
                    len(parts) == 2 or (len(parts) == 3 and parts[2] == _SUB)):
                self.eff.foreign_writes.append((root, parts[1], line, col))
            return
        if name in self.aliases:
            if not parts:
                return  # rebinding the local itself mutates nothing
            root, direct = self.aliases[name]
            self.eff.self_writes.setdefault(root, (line, col))
            if direct and len(parts) == 1 and parts[0] == _SUB:
                self.eff.container_writes.setdefault(root, (line, col))
            elif direct and parts[0] != _SUB and (
                    len(parts) == 1 or (len(parts) == 2 and parts[1] == _SUB)):
                self.eff.foreign_writes.append((root, parts[0], line, col))
            return
        if not parts:
            if name in self.globals_decl:
                self.eff.global_mutations.append(
                    (f"module global '{name}'", line, col))
            return
        if name in self.locals:
            return
        desc = self._module_state_desc(name, parts)
        if desc is not None:
            self.eff.global_mutations.append((desc, line, col))

    # -- calls ---------------------------------------------------------------

    def _handle_call(self, call: ast.Call) -> None:
        self.eff.callees.extend(self._static_callees(call))
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        method = func.attr
        line, col = call.lineno, call.col_offset
        node, parts = _chain(func.value)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "super" and not parts and self.class_id:
            self.eff.self_calls.append((method, True))
            return
        if not isinstance(node, ast.Name):
            return
        name = node.id
        if name == "self" and self.class_id:
            if not parts:
                self.eff.self_calls.append((method, False))
            elif len(parts) == 1:
                attr_cls = self._attr_class_of(parts[0])
                self.eff.attr_calls.append(
                    (parts[0], attr_cls, method, line, col))
                if not attr_cls and method in MUTATING_METHODS:
                    # Unresolved receiver mutated in place: an
                    # identity-level write on the attribute itself.
                    self.eff.self_writes.setdefault(parts[0], (line, col))
                    self.eff.container_writes.setdefault(
                        parts[0], (line, col))
            elif method in MUTATING_METHODS:
                self.eff.self_writes.setdefault(parts[0], (line, col))
                if parts[1] != _SUB and len(parts) == 2:
                    self.eff.foreign_writes.append(
                        (parts[0], parts[1], line, col))
            return
        if name in self.aliases:
            root, direct = self.aliases[name]
            if not parts and direct:
                attr_cls = self._attr_class_of(root)
                self.eff.attr_calls.append(
                    (root, attr_cls, method, line, col))
                if not attr_cls and method in MUTATING_METHODS:
                    self.eff.self_writes.setdefault(root, (line, col))
                    self.eff.container_writes.setdefault(root, (line, col))
            elif method in MUTATING_METHODS:
                self.eff.self_writes.setdefault(root, (line, col))
                if direct and parts and parts[0] != _SUB and len(parts) == 1:
                    self.eff.foreign_writes.append(
                        (root, parts[0], line, col))
            return
        if name not in self.locals and method in MUTATING_METHODS:
            desc = self._module_state_desc(name, parts or [_SUB])
            if desc is not None:
                self.eff.global_mutations.append((desc, line, col))

    def _static_callees(self, call: ast.Call) -> list[str]:
        """Resolved call targets, for the reachability graph."""
        project = self.project
        resolved = project.resolve_func_expr(self.mod, call.func)
        if resolved is not None:
            if resolved in project.functions:
                return [resolved]
            if resolved in project.classes:
                out = []
                for name in ("__init__", "__post_init__"):
                    method = project.find_method(resolved, name)
                    if method is not None:
                        out.append(method.id)
                return out
            return []
        func = call.func
        if not isinstance(func, ast.Attribute):
            return []
        node, parts = _chain(func.value)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "super" and not parts and self.class_id:
            bases = project.classes[self.class_id].bases
            if len(bases) == 1:
                method = project.find_method(bases[0], func.attr)
                if method is not None:
                    return [method.id]
            return []
        if not isinstance(node, ast.Name):
            return []
        receiver = ""
        if not parts:
            if node.id == "self" and self.class_id:
                receiver = self.class_id
            elif node.id in self.local_classes:
                receiver = self.local_classes[node.id]
        elif node.id == "self" and len(parts) == 1 and self.class_id:
            receiver = self._attr_class_of(parts[0])
        if receiver:
            method = project.find_method(receiver, func.attr)
            if method is not None:
                return [method.id]
        return []


# -- interprocedural analysis ------------------------------------------------


class EffectAnalysis:
    """Write-set closures and contract checks over one :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.effects: dict[str, FuncEffects] = {
            fid: _FuncVisitor(project, project.functions[fid]).eff
            for fid in sorted(project.functions)
        }
        self._closure_memo: dict[tuple[str, str], frozenset[str]] = {}
        self._in_progress: set[tuple[str, str]] = set()
        self.sets_family: frozenset[str] = (
            frozenset(project.subclasses_of(SETS_CLASS))
            if SETS_CLASS in project.classes else frozenset()
        )

    # -- write-set closure ---------------------------------------------------

    def write_closure(self, class_id: str, method: str) -> frozenset[str]:
        """Attribute roots ``method`` may write on a ``class_id`` receiver,
        closed over same-receiver calls (virtual dispatch resolved in the
        concrete class) and construction-tracked sub-object calls."""
        key = (class_id, method)
        cached = self._closure_memo.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress:
            return frozenset()  # cycle: least-fixpoint contribution is empty
        self._in_progress.add(key)
        try:
            out: set[str] = set()
            start = self.project.find_method(class_id, method)
            if start is None:
                result: frozenset[str] = frozenset()
                self._closure_memo[key] = result
                return result
            seen: set[str] = set()
            work = [start.id]
            while work:
                fid = work.pop()
                if fid in seen:
                    continue
                seen.add(fid)
                eff = self.effects.get(fid)
                func = self.project.functions.get(fid)
                if eff is None or func is None:
                    continue
                out.update(eff.self_writes)
                for name, via_super in eff.self_calls:
                    target = self._resolve_self_call(
                        class_id, func, name, via_super)
                    if target is not None:
                        work.append(target.id)
                for attr, attr_cls, meth, _line, _col in eff.attr_calls:
                    if self._attr_call_writes(attr_cls, meth):
                        out.add(attr)
            result = frozenset(out)
        finally:
            self._in_progress.discard(key)
        self._closure_memo[key] = result
        return result

    def _resolve_self_call(
        self, class_id: str, func: FuncInfo, name: str, via_super: bool
    ) -> FuncInfo | None:
        if via_super:
            defining = f"{func.module}:{func.class_name}"
            if defining in self.project.classes:
                bases = self.project.classes[defining].bases
                if len(bases) == 1:
                    return self.project.find_method(bases[0], name)
            return None
        return self.project.find_method(class_id, name)

    def _attr_call_writes(self, attr_cls: str, method: str) -> bool:
        """Whether calling ``method`` on a sub-object mutates it."""
        if attr_cls and attr_cls in self.project.classes:
            if self.project.find_method(attr_cls, method) is not None:
                return bool(self.write_closure(attr_cls, method))
        return method in MUTATING_METHODS

    # -- choke-point facts ---------------------------------------------------

    def choke_points(self) -> list[str]:
        """Function ids declared ``@mutates_membership``, sorted."""
        return sorted(fid for fid, eff in self.effects.items()
                      if eff.mutates_decorated)

    # -- sweep reachability --------------------------------------------------

    def sweep_entries(self) -> list[str]:
        entries: list[str] = []
        for module, names in SWEEP_ENTRY_POINTS:
            for name in names:
                fid = f"{module}:{name}"
                if fid in self.project.functions:
                    entries.append(fid)
        if HOOK_BASE in self.project.classes:
            for cid in sorted(self.project.subclasses_of(HOOK_BASE)):
                info = self.project.classes[cid]
                for name in sorted(info.methods):
                    fid = f"{info.module}:{info.name}.{name}"
                    if fid in self.project.functions:
                        entries.append(fid)
        return sorted(set(entries))

    def sweep_reachable(self) -> dict[str, str]:
        """func id -> first (sorted) worker entry point that reaches it."""
        graph: dict[str, list[str]] = {}
        for fid, eff in self.effects.items():
            func = self.project.functions[fid]
            targets = set(eff.callees)
            class_id = (
                f"{func.module}:{func.class_name}" if func.class_name else "")
            for name, via_super in eff.self_calls:
                target = self._resolve_self_call(
                    class_id, func, name, via_super) if class_id else None
                if target is not None:
                    targets.add(target.id)
            for _attr, attr_cls, meth, _line, _col in eff.attr_calls:
                if attr_cls:
                    method = self.project.find_method(attr_cls, meth)
                    if method is not None:
                        targets.add(method.id)
            graph[fid] = sorted(targets)
        reached: dict[str, str] = {}
        for entry in self.sweep_entries():
            if entry in reached:
                continue
            stack = [entry]
            while stack:
                fid = stack.pop()
                if fid in reached:
                    continue
                reached[fid] = entry
                stack.extend(t for t in reversed(graph.get(fid, ()))
                             if t not in reached)
        return reached

    # -- the contract checks -------------------------------------------------

    def check(self) -> list[Finding]:
        findings: list[Finding] = []
        findings.extend(self._check_mirror_coherence())
        findings.extend(self._check_fast_subsumption())
        findings.extend(self._check_sweep_purity())
        findings.extend(self.check_recovery_surface())
        return sorted(findings, key=Finding.sort_key)

    def _mod_of(self, func: FuncInfo) -> ModuleInfo:
        return self.project.modules[func.module]

    def _check_mirror_coherence(self) -> list[Finding]:
        findings: list[Finding] = []
        # RPR202: every declared choke point must bump the epoch.
        for fid in self.choke_points():
            func = self.project.functions[fid]
            eff = self.effects[fid]
            if EPOCH_ATTR not in eff.self_writes:
                findings.append(finding_at(
                    self._mod_of(func), func.node.lineno,
                    func.node.col_offset, "RPR202",
                    f"@mutates_membership method {func.qualname}() does not "
                    f"bump the membership epoch '{EPOCH_ATTR}'",
                ))
        if not self.sets_family:
            return findings
        # RPR201 (inside): membership state written by an undecorated
        # CacheSets method.
        for cid in sorted(self.sets_family):
            info = self.project.classes[cid]
            for name in sorted(info.methods):
                if name in _INIT_METHODS:
                    continue
                fid = f"{info.module}:{info.name}.{name}"
                eff = self.effects.get(fid)
                func = self.project.functions.get(fid)
                if eff is None or func is None or eff.mutates_decorated:
                    continue
                for attr in sorted(_PROTECTED & eff.container_writes.keys()):
                    line, col = eff.container_writes[attr]
                    findings.append(finding_at(
                        self._mod_of(func), line, col, "RPR201",
                        f"membership state '{attr}' is written by "
                        f"{func.qualname}() outside a @mutates_membership "
                        "choke point; route the mutation through the "
                        "declared membership API",
                    ))
        # RPR201 (outside): raw writes through a CacheSets-typed attribute.
        for fid in sorted(self.effects):
            eff = self.effects[fid]
            func = self.project.functions[fid]
            if not func.class_name:
                continue
            class_id = f"{func.module}:{func.class_name}"
            if class_id in self.sets_family:
                continue  # inside writes are covered above
            for attr, member, line, col in eff.foreign_writes:
                if member not in _PROTECTED:
                    continue
                attr_cls = self._attr_class_in(class_id, attr)
                if attr_cls in self.sets_family:
                    findings.append(finding_at(
                        self._mod_of(func), line, col, "RPR201",
                        f"membership state '{member}' of "
                        f"{attr_cls.rsplit(':', 1)[1]} is written by "
                        f"{func.qualname}() from outside the class; only a "
                        "@mutates_membership choke point may touch the "
                        "directory pair",
                    ))
        # RPR203: batch readers must be write-free w.r.t. membership.
        seen_readers: set[str] = set()
        for cid in sorted(self.sets_family):
            for reader in BATCH_READERS:
                func = self.project.find_method(cid, reader)
                if func is None or func.id in seen_readers:
                    continue
                seen_readers.add(func.id)
                written = sorted(self.write_closure(cid, reader) & _PROTECTED)
                if written:
                    findings.append(finding_at(
                        self._mod_of(func), func.node.lineno,
                        func.node.col_offset, "RPR203",
                        f"batch reader {func.qualname}() must be write-free "
                        "w.r.t. membership state but may write "
                        f"{', '.join(repr(w) for w in written)}",
                    ))
        return findings

    def _attr_class_in(self, class_id: str, attr: str) -> str:
        for cid in self.project.class_mro(class_id):
            found = self.project.classes[cid].attr_classes.get(attr)
            if found is not None:
                return found
        return ""

    def fast_pairs(self) -> list[tuple[str, str, str]]:
        """(class id, fast hook, scalar counterpart) for every class that
        defines a fast hook of its own, sorted."""
        out: list[tuple[str, str, str]] = []
        for cid in sorted(self.project.classes):
            info = self.project.classes[cid]
            for fast, scalar in FAST_SCALAR_PAIRS:
                if fast in info.methods:
                    out.append((cid, fast, scalar))
        return out

    def _check_fast_subsumption(self) -> list[Finding]:
        findings: list[Finding] = []
        for cid, fast, scalar in self.fast_pairs():
            fast_writes = self.write_closure(cid, fast)
            scalar_writes = self.write_closure(cid, scalar)
            extra = sorted(fast_writes - scalar_writes - FAST_DELTA_ATTRS)
            if not extra:
                continue
            func = self.project.find_method(cid, fast)
            if func is None:  # pragma: no cover - fast in methods implies it
                continue
            findings.append(finding_at(
                self._mod_of(func), func.node.lineno, func.node.col_offset,
                "RPR204",
                f"fast path {func.qualname}() may write "
                f"{', '.join(repr(e) for e in extra)} which the scalar "
                f"{scalar}() path never touches; fast-path write-sets must "
                "stay within the scalar write-set plus the FastAccounting "
                f"delta surface ({', '.join(sorted(FAST_DELTA_ATTRS))})",
            ))
        return findings

    # -- recovery read-surface (RPR207) --------------------------------------

    def _recovery_chains(
        self, func: FuncInfo, roots: frozenset[str]
    ) -> list[tuple[list[str], int, int, bool]]:
        """Attribute chains rooted at ``roots`` in ``func``'s body.

        Returns ``(parts, line, col, as_argument)`` per chain; a chain
        with ``as_argument`` is the bare root passed to a callable —
        the one shape that would let reads escape the closure, so the
        check flags it rather than guessing.  Plain aliases
        (``x = root.attr``) extend the root set with their one-level
        chain; values produced *through a call* are data, not state,
        and deeper reads on them are not tracked.
        """
        aliases: dict[str, list[str]] = {}
        out: list[tuple[list[str], int, int, bool]] = []
        nodes = _shallow_walk(func.node)
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name) and \
                    isinstance(node.value, ast.Attribute):
                root, parts = _chain(node.value)
                if isinstance(root, ast.Name) and root.id in roots and \
                        _SUB not in parts:
                    aliases[node.targets[0].id] = parts
        for node in nodes:
            if isinstance(node, ast.Attribute):
                root, parts = _chain(node)
                if not isinstance(root, ast.Name):
                    continue
                if root.id in roots:
                    out.append((parts, node.lineno, node.col_offset, False))
                elif root.id in aliases:
                    out.append((aliases[root.id] + parts,
                                node.lineno, node.col_offset, False))
            elif isinstance(node, ast.Call):
                for arg in (*node.args,
                            *(kw.value for kw in node.keywords)):
                    if isinstance(arg, ast.Name) and arg.id in roots:
                        out.append(([], arg.lineno, arg.col_offset, True))
        return out

    def _recovery_walk(
        self, class_id: str, parts: list[str], mod: ModuleInfo,
        line: int, col: int, findings: list[Finding],
        visited: set[tuple[str, str]], origin: str,
    ) -> None:
        """Check one attribute chain against ``class_id``'s surface."""
        if not parts or parts[0] is _SUB or parts[0] == _SUB:
            return
        name = parts[0]
        if self.project.find_method(class_id, name) is not None:
            # A method (or property) of the surface class: recurse into
            # its body — its reads are part of the closure.
            self._recovery_visit(class_id, name, findings, visited)
            return  # its return value is derived data, not state
        allowed = RECOVERY_SURFACE.get(class_id, frozenset())
        if name not in allowed:
            cls = class_id.rsplit(":", 1)[1]
            findings.append(finding_at(
                mod, line, col, "RPR207",
                f"recovery read-closure escapes the crash-surviving "
                f"surface: {origin} reads {cls}.{name}, which does not "
                f"survive a power failure (declared surface: "
                f"{', '.join(sorted(allowed)) or 'none'})",
            ))
            return
        attr_cls = self._attr_class_in(class_id, name)
        rest = parts[1:]
        if attr_cls and rest:
            self._recovery_walk(attr_cls, rest, mod, line, col,
                                findings, visited, origin)
        # Unresolved sub-objects (dicts, lists, tuples of entries) are
        # the declared attribute's *value*: reading through them is the
        # point of the surface.

    def _recovery_visit(
        self, class_id: str, method: str, findings: list[Finding],
        visited: set[tuple[str, str]],
    ) -> None:
        key = (class_id, method)
        if key in visited:
            return
        visited.add(key)
        func = self.project.find_method(class_id, method)
        if func is None:
            return
        mod = self._mod_of(func)
        origin = f"{func.qualname}()"
        for parts, line, col, as_arg in self._recovery_chains(
                func, frozenset({"self"})):
            if as_arg:
                findings.append(finding_at(
                    mod, line, col, "RPR207",
                    f"{origin} passes the receiver to another callable; "
                    "the recovery read-closure cannot follow it — keep "
                    "crash-surviving reads first-person",
                ))
                continue
            self._recovery_walk(class_id, parts, mod, line, col,
                                findings, visited, origin)

    def check_recovery_surface(self) -> list[Finding]:
        """RPR207: the interprocedural read-closure of the power-failure
        recovery entry point stays inside the declared crash-surviving
        surface (:data:`RECOVERY_ROOTS` / :data:`RECOVERY_SURFACE`)."""
        entry = self.project.functions.get(RECOVERY_ENTRY)
        if entry is None:
            return []
        findings: list[Finding] = []
        visited: set[tuple[str, str]] = set()
        mod = self._mod_of(entry)
        origin = f"{entry.qualname}()"
        param_names = [a.arg for a in entry.node.args.args]
        if not param_names:
            return []
        root = param_names[0]
        for parts, line, col, as_arg in self._recovery_chains(
                entry, frozenset({root})):
            if as_arg:
                findings.append(finding_at(
                    mod, line, col, "RPR207",
                    f"{origin} passes the crashed object to another "
                    "callable; the recovery read-closure cannot follow "
                    "it — consult the crash-surviving surface directly",
                ))
                continue
            if not parts:
                continue
            first = parts[0]
            if first not in RECOVERY_ROOTS:
                findings.append(finding_at(
                    mod, line, col, "RPR207",
                    f"recovery read-closure escapes the crash-surviving "
                    f"surface: {origin} reads the crashed object's "
                    f"'{first}', which does not survive a power failure "
                    f"(declared roots: "
                    f"{', '.join(sorted(RECOVERY_ROOTS))})",
                ))
                continue
            self._recovery_walk(RECOVERY_ROOTS[first], parts[1:], mod,
                                line, col, findings, visited, origin)
        # A chain and its prefixes share a site; keep one finding each.
        unique: dict[tuple, Finding] = {}
        for finding in findings:
            key = (finding.relpath, finding.line, finding.col,
                   finding.message)
            unique.setdefault(key, finding)
        return list(unique.values())

    def _check_sweep_purity(self) -> list[Finding]:
        findings: list[Finding] = []
        reached = self.sweep_reachable()
        for fid in sorted(reached):
            if fid in SWEEP_ALLOWLIST:
                continue
            eff = self.effects.get(fid)
            func = self.project.functions.get(fid)
            if eff is None or func is None:
                continue
            entry = reached[fid]
            for desc, line, col in eff.global_mutations:
                findings.append(finding_at(
                    self._mod_of(func), line, col, "RPR205",
                    f"{func.qualname}() mutates {desc} but is reachable "
                    f"from sweep worker entry {entry}; process-pool cells "
                    "must not share module state",
                ))
            for deco, line, col in eff.cache_decorators:
                findings.append(finding_at(
                    self._mod_of(func), line, col, "RPR206",
                    f"@{deco} on {func.qualname}() holds per-process state "
                    f"and is reachable from sweep worker entry {entry}; "
                    "allowlist deliberate memoisation in "
                    "repro.devtools.analyze.effects or drop the cache",
                ))
        return findings


def check_effects(project: Project) -> list[Finding]:
    """RPR201-RPR207: mirror coherence, fast-path effect subsumption,
    sweep-parallelism race detection, and the recovery read-surface."""
    return EffectAnalysis(project).check()


# -- machine-readable export -------------------------------------------------


def effects_report(project: Project) -> str:
    """Stable JSON export of the effect model behind RPR201-RPR206."""
    analysis = EffectAnalysis(project)
    reached = analysis.sweep_reachable()
    fast_paths = []
    for cid, fast, scalar in analysis.fast_pairs():
        fast_writes = analysis.write_closure(cid, fast)
        scalar_writes = analysis.write_closure(cid, scalar)
        fast_paths.append({
            "class": cid,
            "fast": fast,
            "scalar": scalar,
            "fast_writes": sorted(fast_writes),
            "scalar_writes": sorted(scalar_writes),
            "extra": sorted(fast_writes - scalar_writes - FAST_DELTA_ATTRS),
        })
    cached = [
        {
            "function": fid,
            "decorator": deco,
            "allowlisted": fid in SWEEP_ALLOWLIST,
        }
        for fid in sorted(reached)
        for deco, _line, _col in analysis.effects[fid].cache_decorators
    ]
    membership_writers = sorted(
        fid for fid, eff in analysis.effects.items()
        if analysis.project.functions[fid].class_name
        and f"{analysis.project.functions[fid].module}:"
            f"{analysis.project.functions[fid].class_name}"
            in analysis.sets_family
        and _PROTECTED & eff.container_writes.keys()
    )
    doc = {
        "version": 1,
        "membership": {
            "class": SETS_CLASS,
            "attrs": sorted(MEMBERSHIP_ATTRS),
            "epoch": EPOCH_ATTR,
            "choke_points": analysis.choke_points(),
            "writers": membership_writers,
            "batch_readers": list(BATCH_READERS),
        },
        "fast_paths": fast_paths,
        "sweep": {
            "entry_points": analysis.sweep_entries(),
            "reachable_functions": len(reached),
            "allowlist": sorted(SWEEP_ALLOWLIST),
            "cached_functions": cached,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)
