"""Static analysis for the repro codebase: one parse, one framework.

:meth:`Project.load` parses all of ``src/repro`` once into a
:class:`Project` (module set + import graph + cross-module symbol
table) and every analysis runs over that model: the per-file
determinism/taxonomy rules (RPR001-RPR009), layering, unit and RNG
taint, exception flow and dead code (RPR101-RPR111), effect/write-set
contracts (RPR201-RPR207), and columnar dtype/shape contracts
(RPR301-RPR305).  :data:`CODES` is the one code table; findings share
one :class:`Finding` record, one baseline format, and one inline
suppression tag, ``# kdd-analyze: disable=RPRnnn``.  The command line
is ``kdd-repro analyze`` (:mod:`repro.devtools.analyze.cli`).

The analyzer is held to the determinism bar it enforces: findings and
every export (JSON, DOT, the generated architecture map) are invariant
under file-discovery order.
"""

from __future__ import annotations

from .columnar import ColumnarAnalysis, check_columnar, columnar_report
from .deadcode import check_dead_public, check_unused_imports
from .effects import EffectAnalysis, check_effects, effects_report
from .excflow import ExceptionFlow, check_contracts
from .filerules import check_file_rules
from .findings import CODES, META_CODE, Finding
from .graphio import architecture_md, graph_dot, graph_json
from .layers import DEFAULT_LAYERS, LayerSpec, check_layering
from .project import ImportEdge, ModuleInfo, Project
from .rngflow import check_rng_provenance
from .suppress import apply_suppressions, parse_suppressions
from .unitflow import check_units

__all__ = [
    "CODES",
    "ColumnarAnalysis",
    "DEFAULT_LAYERS",
    "EffectAnalysis",
    "ExceptionFlow",
    "Finding",
    "ImportEdge",
    "LayerSpec",
    "META_CODE",
    "ModuleInfo",
    "Project",
    "apply_suppressions",
    "architecture_md",
    "check_columnar",
    "check_contracts",
    "check_dead_public",
    "check_effects",
    "check_file_rules",
    "check_layering",
    "check_rng_provenance",
    "check_units",
    "check_unused_imports",
    "columnar_report",
    "effects_report",
    "graph_dot",
    "graph_json",
    "parse_suppressions",
]
