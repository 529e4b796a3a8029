"""Developer tooling for the repro codebase.

Nothing in this package is imported by the simulation library at run
time; it exists to keep the library honest.  Its one citizen is
:mod:`repro.devtools.analyze` (``kdd-repro analyze``), the static
analyzer that enforces the determinism, error-taxonomy, layering,
unit-discipline, effect and columnar invariants the reproduction's
byte-for-byte guarantees rest on.
"""

from __future__ import annotations
