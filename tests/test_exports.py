"""Every name the package exports has a use inside the package or the bench.

A name counts as used when the code of some module in ``src/adlab`` or
``bench`` reads it (an AST name or attribute) outside the definition that
binds it; ``__init__.py``, imports, docstrings and comments do not count.
"""

import ast
import pathlib

import adlab

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "adlab"


def _exported() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


class _Uses(ast.NodeVisitor):
    """Names read in code, leaving out reads inside a definition of the same name."""

    def __init__(self):
        self.used: set = set()
        self._defining: list = []

    def _definition(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Name(self, node):
        if node.id not in self._defining:
            self.used.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self._defining:
            self.used.add(node.attr)
        self.generic_visit(node)


def test_every_export_is_used_outside_its_definition():
    exported = _exported()
    assert exported and exported <= set(vars(adlab))
    uses = _Uses()
    sources = [p for p in PACKAGE.rglob("*.py") if p != PACKAGE / "__init__.py"]
    for path in sources + sorted((ROOT / "bench").rglob("*.py")):
        uses.visit(ast.parse(path.read_text()))
    assert sorted(exported - uses.used) == []
