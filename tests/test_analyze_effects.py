"""Effect/write-set analysis (RPR201-RPR206).

Each contract family is proven on a fixture tree where the rule fires
on a seeded violation and stays silent on the conforming twin; the
real tree is then held to all of them at once (effects-clean, with a
mutation test showing the epoch-bump contract actually bites on the
production ``CacheSets``).
"""

from repro.devtools.analyze.effects import (
    EffectAnalysis,
    check_effects,
    effects_report,
)

from tests.analyze_fixtures import SRC_REPRO

#: Mini twin of repro.contracts: the analyzer resolves the decorator
#: by its project id, so the fixture tree needs a real definition.
MINI_CONTRACTS = """\
    def mutates_membership(func):
        func.__mutates_membership__ = True
        return func
"""


def codes(findings):
    return sorted(f.code for f in findings)


class TestMirrorCoherence:
    def test_undecorated_membership_write_is_rpr201(self, project_from):
        project = project_from({
            "contracts.py": MINI_CONTRACTS,
            "cache/sets.py": """\
                class CacheSets:
                    def __init__(self):
                        self._index = {}
                        self.mutations = 0

                    def alloc(self, lba):
                        self._index[lba] = lba
            """,
        })
        findings = check_effects(project)
        assert codes(findings) == ["RPR201"]
        assert "'_index'" in findings[0].message
        assert "alloc()" in findings[0].message

    def test_mutator_call_on_membership_attr_is_rpr201(self, project_from):
        project = project_from({
            "contracts.py": MINI_CONTRACTS,
            "cache/sets.py": """\
                class CacheSets:
                    def __init__(self):
                        self._index = {}
                        self.mutations = 0

                    def remove(self, lba):
                        self._index.pop(lba, None)
            """,
        })
        assert codes(check_effects(project)) == ["RPR201"]

    def test_epoch_write_outside_choke_point_is_rpr201(self, project_from):
        project = project_from({
            "contracts.py": MINI_CONTRACTS,
            "cache/sets.py": """\
                class CacheSets:
                    def __init__(self):
                        self.mutations = 0

                    def poke(self):
                        self.mutations += 1
            """,
        })
        findings = check_effects(project)
        assert codes(findings) == ["RPR201"]
        assert "'mutations'" in findings[0].message

    def test_foreign_write_through_sets_attr_is_rpr201(self, project_from):
        project = project_from({
            "contracts.py": MINI_CONTRACTS,
            "cache/sets.py": """\
                import numpy as np

                class CacheSets:
                    def __init__(self):
                        self._lba_table = np.full((1, 1), -1)
                        self.mutations = 0
            """,
            "cache/common.py": """\
                from .sets import CacheSets

                class Policy:
                    def __init__(self):
                        self.sets = CacheSets()

                    def shortcut(self, lba):
                        self.sets._lba_table[0, 0] = lba
            """,
        })
        findings = check_effects(project)
        assert codes(findings) == ["RPR201"]
        assert "outside the class" in findings[0].message
        assert "shortcut()" in findings[0].message

    def test_decorated_choke_point_without_bump_is_rpr202(self, project_from):
        project = project_from({
            "contracts.py": MINI_CONTRACTS,
            "cache/sets.py": """\
                from ..contracts import mutates_membership

                class CacheSets:
                    def __init__(self):
                        self._index = {}
                        self.mutations = 0

                    @mutates_membership
                    def _membership_update(self, lba):
                        self._index[lba] = lba
            """,
        })
        findings = check_effects(project)
        assert codes(findings) == ["RPR202"]
        assert "_membership_update()" in findings[0].message
        assert "'mutations'" in findings[0].message

    def test_batch_reader_that_writes_membership_is_rpr203(self, project_from):
        project = project_from({
            "contracts.py": MINI_CONTRACTS,
            "cache/sets.py": """\
                from ..contracts import mutates_membership

                class CacheSets:
                    def __init__(self):
                        self._index = {}
                        self.mutations = 0

                    @mutates_membership
                    def _membership_update(self, lba):
                        self._index[lba] = lba
                        self.mutations += 1

                    def classify(self, lbas):
                        for lba in lbas:
                            self._membership_update(lba)
                        return lbas
            """,
        })
        findings = check_effects(project)
        assert codes(findings) == ["RPR203"]
        assert "classify()" in findings[0].message

    def test_conforming_sets_class_is_clean(self, project_from):
        project = project_from({
            "contracts.py": MINI_CONTRACTS,
            "cache/sets.py": """\
                from ..contracts import mutates_membership

                class CacheSets:
                    def __init__(self):
                        self._index = {}
                        self._order = []
                        self.mutations = 0

                    @mutates_membership
                    def _membership_update(self, lba, add):
                        if add:
                            self._index[lba] = lba
                        else:
                            del self._index[lba]
                        self.mutations += 1

                    def alloc(self, lba):
                        self._order.append(lba)
                        self._membership_update(lba, True)

                    def classify(self, lbas):
                        return [lba in self._index for lba in lbas]

                    def touch_many(self, lbas):
                        order = self._order
                        for lba in lbas:
                            order.append(lba)
            """,
        })
        assert check_effects(project) == []


class TestFastPathSubsumption:
    def test_fast_write_beyond_scalar_set_is_rpr204(self, project_from):
        project = project_from({
            "cache/common.py": """\
                class Policy:
                    def __init__(self):
                        self.stats = {}
                        self.shadow = {}

                    def read(self, lba):
                        self.stats[lba] = 1

                    def _bulk_read_hits(self, lbas):
                        for lba in lbas:
                            self.stats[lba] = 1
                            self.shadow[lba] = 1
            """,
        })
        findings = check_effects(project)
        assert codes(findings) == ["RPR204"]
        assert "'shadow'" in findings[0].message
        assert "_bulk_read_hits()" in findings[0].message

    def test_subsumption_holds_through_helper_calls(self, project_from):
        # The write-set closure crosses call boundaries: the scalar
        # path writes via a helper, the bulk hook directly, and the
        # FastAccounting delta surface (_fast) is always admissible.
        project = project_from({
            "cache/common.py": """\
                class Policy:
                    def __init__(self):
                        self.stats = {}
                        self._fast = None

                    def _account(self, lba):
                        self.stats[lba] = 1

                    def read(self, lba):
                        self._account(lba)

                    def _bulk_read_hits(self, lbas):
                        for lba in lbas:
                            self.stats[lba] = 1
                        self._fast.read(len(lbas))
            """,
        })
        assert check_effects(project) == []

    def test_inherited_scalar_write_set_subsumes_override(self, project_from):
        project = project_from({
            "cache/common.py": """\
                class Base:
                    def __init__(self):
                        self.stats = {}

                    def read(self, lba):
                        self.stats[lba] = 1
            """,
            "cache/kdd.py": """\
                from .common import Base

                class KDD(Base):
                    def _bulk_read_hits(self, lbas):
                        for lba in lbas:
                            self.stats[lba] = 1
            """,
        })
        assert check_effects(project) == []


class TestSweepRaces:
    def test_module_dict_mutation_in_worker_is_rpr205(self, project_from):
        project = project_from({
            "harness/sweep.py": """\
                _CACHE = {}

                def _remember(key):
                    _CACHE[key] = 1

                def _execute_cell(cell):
                    _remember(cell)
            """,
        })
        findings = check_effects(project)
        assert codes(findings) == ["RPR205"]
        assert "_remember()" in findings[0].message
        assert "_execute_cell" in findings[0].message

    def test_global_statement_in_worker_is_rpr205(self, project_from):
        project = project_from({
            "harness/sweep.py": """\
                _COUNT = 0

                def _execute_cell(cell):
                    global _COUNT
                    _COUNT += 1
            """,
        })
        findings = check_effects(project)
        assert codes(findings) == ["RPR205"]
        assert "'_COUNT'" in findings[0].message

    def test_class_attribute_write_in_worker_is_rpr205(self, project_from):
        project = project_from({
            "harness/sweep.py": """\
                class Config:
                    limit = 3

                def _execute_cell(cell):
                    Config.limit = cell
            """,
        })
        findings = check_effects(project)
        assert codes(findings) == ["RPR205"]
        assert "Config.limit" in findings[0].message

    def test_engine_hook_methods_are_worker_entries(self, project_from):
        project = project_from({
            "engine/hooks.py": """\
                class EngineHook:
                    def on_request(self, op):
                        pass
            """,
            "faults/pipe.py": """\
                from ..engine.hooks import EngineHook

                TALLY = []

                class CountingHook(EngineHook):
                    def on_request(self, op):
                        TALLY.append(op)
            """,
        })
        findings = check_effects(project)
        assert codes(findings) == ["RPR205"]
        assert "CountingHook.on_request()" in findings[0].message

    def test_lru_cache_in_worker_is_rpr206(self, project_from):
        project = project_from({
            "harness/sweep.py": """\
                from functools import lru_cache

                @lru_cache(maxsize=4)
                def _double(key):
                    return key * 2

                def _execute_cell(cell):
                    return _double(cell)
            """,
        })
        findings = check_effects(project)
        assert codes(findings) == ["RPR206"]
        assert "@lru_cache" in findings[0].message
        assert "_double()" in findings[0].message

    def test_allowlisted_memo_is_accepted(self, project_from):
        # repro.harness.sweep:_trace_for is the documented per-process
        # trace memo; the allowlist admits it by project id.
        project = project_from({
            "harness/sweep.py": """\
                from functools import lru_cache

                @lru_cache(maxsize=16)
                def _trace_for(key):
                    return key * 2

                def _execute_cell(cell):
                    return _trace_for(cell)
            """,
        })
        assert check_effects(project) == []

    def test_unreachable_module_state_is_not_flagged(self, project_from):
        project = project_from({
            "harness/sweep.py": """\
                def _execute_cell(cell):
                    return cell
            """,
            "harness/report.py": """\
                _SEEN = {}

                def record(key):
                    _SEEN[key] = 1
            """,
        })
        assert check_effects(project) == []


class TestRealTree:
    def test_src_repro_is_effects_clean(self, real_project):
        assert check_effects(real_project) == []

    def test_findings_and_report_are_discovery_order_invariant(
        self, real_project, reversed_project
    ):
        assert [f.render() for f in check_effects(real_project)] == \
            [f.render() for f in check_effects(reversed_project)]
        assert effects_report(real_project) == effects_report(reversed_project)

    def test_effect_model_matches_the_production_contract(self, real_project):
        analysis = EffectAnalysis(real_project)
        # Exactly one choke point, and it is the CacheSets API.
        assert analysis.choke_points() == \
            ["repro.cache.sets:CacheSets._membership_update"]
        # Every class defining the bulk read-hit hook is covered by the
        # subsumption check.
        assert analysis.fast_pairs() == [
            ("repro.cache.common:SetAssocPolicy", "_bulk_read_hits", "read"),
            ("repro.core.kdd:KDD", "_bulk_read_hits", "read"),
        ]
        # The sweep worker surface includes both cell runners and hooks.
        entries = analysis.sweep_entries()
        assert "repro.harness.sweep:_execute_cell" in entries
        assert any(e.startswith("repro.engine.hooks:") for e in entries)

    def test_removing_the_epoch_bump_fails_the_contract(self, project_from):
        # Acceptance proof: strip the bump from the production choke
        # point and RPR202 must fire on the otherwise-identical tree.
        sets_src = (SRC_REPRO / "cache" / "sets.py").read_text()
        contracts_src = (SRC_REPRO / "contracts.py").read_text()
        broken = sets_src.replace("self.mutations += 1", "pass")
        assert broken != sets_src
        project = project_from({
            "contracts.py": contracts_src,
            "cache/sets.py": broken,
        })
        findings = check_effects(project)
        assert codes(findings) == ["RPR202"]
        assert "_membership_update()" in findings[0].message

    def test_effects_report_shape(self, real_project):
        import json

        doc = json.loads(effects_report(real_project))
        assert doc["version"] == 1
        assert doc["membership"]["epoch"] == "mutations"
        assert sorted(doc["membership"]["attrs"]) == \
            ["_index", "_lba_table"]
        assert all(fp["extra"] == [] for fp in doc["fast_paths"])
        cached = doc["sweep"]["cached_functions"]
        assert cached and all(entry["allowlisted"] for entry in cached)


# -- recovery read-surface (RPR207) ------------------------------------------

#: Mini twin of the persistence stack: module paths and class names
#: match the production RECOVERY_ROOTS / RECOVERY_SURFACE bindings, so
#: the rule runs on the fixture tree exactly as on the real one.
MINI_RECOVERY_STACK = {
    "nvram/metabuffer.py": """\
        class MetadataBuffer:
            def __init__(self):
                self._entries = {}
                self._hot_index = {}

            def snapshot(self):
                return list(self._entries.values())
    """,
    "nvram/staging.py": """\
        class StagingBuffer:
            def __init__(self):
                self._entries = {}
                self._flushing = {}

            def snapshot(self):
                return list(self._flushing.values()) + \\
                    list(self._entries.values())
    """,
    "cache/mlog.py": """\
        from ..nvram.metabuffer import MetadataBuffer

        class MetadataLog:
            def __init__(self):
                self.buffer = MetadataBuffer()
                self.head = 0
                self.tail = 0
                self._page_image = {}
                self._committing = []
                self._relocating = []
                self._shadow_map = {}

            def replay(self):
                out = {}
                for seq in range(self.head, self.tail):
                    for entry in self._page_image.get(seq, ()):
                        out[entry] = entry
                return out

            def nvram_entries(self):
                out = list(self._relocating)
                for batch in self._committing:
                    out.extend(batch)
                out.extend(self.buffer.snapshot())
                return out
    """,
    "core/recovery.py": """\
        def recover_from_power_failure(kdd):
            mapping = kdd.mlog.replay()
            for entry in kdd.mlog.nvram_entries():
                mapping[entry] = entry
            for staged in kdd.staging.snapshot():
                mapping[staged] = staged
            return mapping
    """,
}


def recovery_tree(**overrides):
    files = dict(MINI_RECOVERY_STACK)
    files.update(overrides)
    return files


class TestRecoverySurface:
    def test_conforming_recovery_stack_is_clean(self, project_from):
        project = project_from(recovery_tree())
        assert check_effects(project) == []

    def test_direct_read_outside_roots_is_rpr207(self, project_from):
        project = project_from(recovery_tree(**{
            "core/recovery.py": """\
                def recover_from_power_failure(kdd):
                    mapping = kdd.mlog.replay()
                    for line in kdd.sets.all_lines():
                        mapping[line] = line
                    return mapping
            """,
        }))
        findings = check_effects(project)
        assert codes(findings) == ["RPR207"]
        assert "'sets'" in findings[0].message
        assert "recover_from_power_failure()" in findings[0].message

    def test_interprocedural_volatile_read_is_rpr207(self, project_from):
        # The entry point itself is conforming; the escape is one call
        # deep, inside the surface class -- the closure must follow it.
        mlog = MINI_RECOVERY_STACK["cache/mlog.py"].replace(
            "out = {}", "out = dict(self._shadow_map)")
        assert mlog != MINI_RECOVERY_STACK["cache/mlog.py"]
        project = project_from(recovery_tree(**{"cache/mlog.py": mlog}))
        findings = check_effects(project)
        assert codes(findings) == ["RPR207"]
        assert "MetadataLog._shadow_map" in findings[0].message
        assert "MetadataLog.replay()" in findings[0].message

    def test_two_level_closure_through_sub_object_is_rpr207(self, project_from):
        # recovery -> mlog.nvram_entries -> buffer.snapshot: a volatile
        # read at the third hop must still surface.
        buf = MINI_RECOVERY_STACK["nvram/metabuffer.py"].replace(
            "return list(self._entries.values())",
            "return list(self._hot_index) + list(self._entries.values())")
        assert buf != MINI_RECOVERY_STACK["nvram/metabuffer.py"]
        project = project_from(recovery_tree(**{"nvram/metabuffer.py": buf}))
        findings = check_effects(project)
        assert codes(findings) == ["RPR207"]
        assert "MetadataBuffer._hot_index" in findings[0].message

    def test_passing_crashed_object_onward_is_rpr207(self, project_from):
        project = project_from(recovery_tree(**{
            "core/recovery.py": """\
                def _helper(kdd):
                    return kdd

                def recover_from_power_failure(kdd):
                    mapping = kdd.mlog.replay()
                    _helper(kdd)
                    return mapping
            """,
        }))
        findings = check_effects(project)
        assert codes(findings) == ["RPR207"]
        assert "passes the crashed object" in findings[0].message

    def test_real_tree_entry_is_present_and_clean(self, real_project):
        # Guard against the rule silently no-opping: the production
        # entry point must exist under the exact id the rule binds to,
        # and its read-closure must stay inside the declared surface.
        from repro.devtools.analyze.effects import RECOVERY_ENTRY

        assert RECOVERY_ENTRY in real_project.functions
        analysis = EffectAnalysis(real_project)
        assert analysis.check_recovery_surface() == []

    def test_shrunk_surface_fires_on_real_tree(self, monkeypatch,
                                               real_project):
        # Acceptance proof on the production tree: hide one genuinely
        # consulted attribute from the declared surface and the rule
        # must fire at the real read site.
        import repro.devtools.analyze.effects as effects_mod

        shrunk = {
            cls: attrs - {"buffer"}
            for cls, attrs in effects_mod.RECOVERY_SURFACE.items()
        }
        monkeypatch.setattr(effects_mod, "RECOVERY_SURFACE", shrunk)
        analysis = EffectAnalysis(real_project)
        findings = analysis.check_recovery_surface()
        assert [f.code for f in findings] == ["RPR207"]
        assert "MetadataLog.buffer" in findings[0].message
