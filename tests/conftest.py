"""Shared test configuration: hypothesis profiles and analyzer fixtures.

The ``ci`` profile derandomizes hypothesis so the failure-injection
property tests explore the same example sequence on every run — the
same discipline the simulator itself follows (seeded streams, no wall
clock).  Select it with ``HYPOTHESIS_PROFILE=ci`` (the CI workflow
does); the default profile keeps local runs exploratory.
"""

import itertools
import os

import pytest
from hypothesis import settings

from tests.analyze_fixtures import SRC_REPRO, write_fixture_tree

settings.register_profile("ci", derandomize=True, print_blob=True,
                          deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def project_from(tmp_path):
    """Factory: fixture files -> loaded analyzer ``Project``.

    Each call materialises its files in a fresh tree, so one test can
    place the same snippet at several ``relpath`` positions.
    """
    from repro.devtools.analyze import Project

    counter = itertools.count()

    def build(files):
        root = tmp_path / f"tree{next(counter)}"
        return Project.load([write_fixture_tree(root, files)])

    return build


@pytest.fixture(scope="session")
def real_project():
    """``src/repro`` parsed once per session; no analysis writes to it."""
    from repro.devtools.analyze import Project

    return Project.load([SRC_REPRO])


@pytest.fixture(scope="session")
def reversed_project():
    """``src/repro`` parsed once per session in reverse discovery order."""
    from repro.devtools.analyze import Project

    return Project.load(sorted(SRC_REPRO.rglob("*.py"), reverse=True))
