"""Fixture-tree builder shared by the analyzer tests."""

import textwrap
from pathlib import Path

#: The library sources every real-tree test analyzes.
SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Mini twin of repro.contracts: the analyzer resolves the decorators
#: by their project ids, so the fixture tree needs real definitions.
MINI_CONTRACTS = """\
    def columnar(dtypes=None, shapes=None):
        def mark(func):
            func.__columnar__ = {
                "dtypes": dict(dtypes or {}),
                "shapes": dict(shapes or {}),
            }
            return func
        return mark


    def mutates_membership(func):
        func.__mutates_membership__ = True
        return func
"""

#: Trigger and clean snippets of the retired lexical rule RPR007; RPR104
#: now flags every trigger and stays silent on every clean snippet.
FORMER_RPR007_TRIGGERS = [
    "total = cache_bytes + cache_pages\n",
    "left = size_bytes - used_pages\n",
    "ok = nbytes < npages\n",
    "ok = obj.nbytes == obj.npages\n",
    "rem = free_bytes % npages\n",
]
FORMER_RPR007_CLEAN = [
    # multiplication/division perform the conversion and are exempt
    "total_bytes = npages * page_size\n",
    "npages = total_bytes // page_size\n",
    "total = a_bytes + b_bytes\n",
    "total = a_pages + b_pages\n",
    "ok = nbytes < limit\n",  # untyped operand
]


def write_fixture_tree(root, files):
    """Materialise a ``repro`` package tree for the whole-program analyzer.

    ``files`` maps paths relative to the fixture ``repro`` root (e.g.
    ``"sim/api.py"``) to dedented source.  Every directory gets an
    ``__init__.py`` so the tree parses as a real package.  Returns the
    package root path.
    """
    pkg = root / "repro"
    pkg.mkdir(parents=True, exist_ok=True)
    for rel, source in files.items():
        path = pkg / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    for directory in [pkg, *[d for d in pkg.rglob("*") if d.is_dir()]]:
        init = directory / "__init__.py"
        if not init.exists():
            init.write_text("", encoding="utf-8")
    return pkg
