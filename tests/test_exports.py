"""The package exports only what the program reaches.

Code whose only caller is a test lives in that test.  A name re-exported by
``surfns/__init__.py`` must be referred to by another module of the package
(as a Name or Attribute, outside its own definition), by the benchmark in
``perfbench/``, or by README.md.  A reference made inside the definition of
a name that fails the rule does not count, so a helper used only by another
test-only helper fails with it.
"""

import ast
import pathlib
import re

import surfns

SRC = pathlib.Path(surfns.__file__).parent
ROOT = SRC.parent.parent


def _exported():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for a in node.names}


def _references(tree):
    """(name, enclosing definition names, top-level definition name or None)
    of every Name and Attribute in a module."""
    out = []

    def visit(node, enclosing, top):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
            top = top or node.name
        if isinstance(node, ast.Name):
            out.append((node.id, enclosing, top))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, enclosing, top))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, top)
    visit(tree, frozenset(), None)
    return out


def unreached_exports():
    refs = [r for path in SRC.glob("*.py") if path.name != "__init__.py"
            for r in _references(ast.parse(path.read_text()))]
    outside = "\n".join([(ROOT / "README.md").read_text()]
                        + [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))])
    candidates = {n for n in _exported() if not re.search(rf"\b{n}\b", outside)}
    flagged = set()
    while True:
        used = {n for n, enclosing, top in refs if n not in enclosing and top not in flagged}
        now = candidates - used
        if now == flagged:
            return sorted(flagged)
        flagged = now


def test_every_export_is_reached():
    assert unreached_exports() == []
