"""The public API holds only what the product uses.

Every name in ``ontolab.__all__`` must be read somewhere in the package's
own modules (``__init__.py``, which only re-exports, aside) or in the
demos; a name that only tests read belongs in ``tests/helpers.py``.
"""

import ast
from pathlib import Path

import ontolab

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [p for p in (ROOT / "src" / "ontolab").glob("*.py") if p.name != "__init__.py"] + sorted((ROOT / "demos").glob("*.py"))


def _loaded_names(path: Path) -> set[str]:
    """Names read in `path`: bare names in load context and attribute names, e.g. ``qubit.sequential_joint``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    loaded = set().union(*(_loaded_names(path) for path in SOURCES))
    assert sorted(set(ontolab.__all__) - loaded) == []
