"""The package exports only what the program reaches, and its analyses
return only what the program reads.

Code whose only caller is a test lives in that test.  A name re-exported by
``surfns/__init__.py`` must be referred to by another module of the package
(as a Name or Attribute, outside its own definition), by the benchmark in
``perfbench/``, or by README.md.  A reference made inside the definition of
a name that fails the rule does not count, so a helper used only by another
test-only helper fails with it.  Every field of a dataclass in
``diagnostics.py`` or ``killing.py`` must be read as an attribute by a
module of the package, outside its own class.  Every public method of the
engine, the transform and the Stokes form must be called by name from the
package outside its own definition, but for the allowlisted methods that
only the benchmark's tracer wraps: a route that only tests reach belongs in
the tests.
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
    """(node, name, enclosing definition names, top-level definition name or
    None) of every Name and Attribute in a module."""
    out = []

    def visit(node, enclosing, top):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
            top = top or node.name
        if isinstance(node, ast.Name):
            out.append((node, node.id, enclosing, top))
        elif isinstance(node, ast.Attribute):
            out.append((node, node.attr, enclosing, top))
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
        used = {n for _, n, enclosing, top in refs if n not in enclosing and top not in flagged}
        now = candidates - used
        if now == flagged:
            return sorted(flagged)
        flagged = now


def test_every_export_is_reached():
    assert unreached_exports() == []


def unread_fields():
    """``Class.field`` of every dataclass field in ``diagnostics.py`` and
    ``killing.py`` that no module of the package reads outside its class."""
    reads = [(name, enclosing) for path in SRC.glob("*.py")
             for node, name, enclosing, _ in _references(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    unread = []
    for module in ("diagnostics.py", "killing.py"):
        for cls in ast.parse((SRC / module).read_text()).body:
            if not (isinstance(cls, ast.ClassDef) and any(
                    ast.unparse(d).startswith("dataclass") for d in cls.decorator_list)):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and not any(
                        name == stmt.target.id and cls.name not in enclosing
                        for name, enclosing in reads):
                    unread.append(f"{cls.name}.{stmt.target.id}")
    return unread


def test_every_analysis_field_is_read():
    assert unread_fields() == []


# the classes whose public methods need a caller, by module
ROUTE_CLASSES = {"geometry.py": "SphereEngine", "harmonics.py": "SphereTransform",
                 "operators.py": "StokesForm"}

# public methods with no caller in the package, each wrapped by
# perfbench/tracing.py, whose spans time the layer (the match is by name, so
# the engine's synthesize calls also count for the transform's)
TRACED_ONLY = {
    "SphereTransform.synthesize": "the harmonics.synthesize span of the benchmark's tracer",
    "SphereTransform.analyze": "the harmonics.analyze span of the benchmark's tracer",
    "StokesForm.rho_explicit": "the operators.spectral_radius span of the benchmark's "
                               "set-up probes (ROADMAP item 7 retires it)",
}


def uncalled_methods():
    """``Class.method`` of every public method of ``ROUTE_CLASSES`` that no
    module of the package names as an attribute outside that method's own
    definition."""
    refs = [(name, enclosing) for path in SRC.glob("*.py")
            for node, name, enclosing, _ in _references(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)]
    uncalled = []
    for module, cls in ROUTE_CLASSES.items():
        body = next(node.body for node in ast.parse((SRC / module).read_text()).body
                    if isinstance(node, ast.ClassDef) and node.name == cls)
        for fn in body:
            if (isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                    and not any(name == fn.name and not {cls, fn.name} <= enclosing
                                for name, enclosing in refs)):
                uncalled.append(f"{cls}.{fn.name}")
    return uncalled


def test_every_public_method_has_a_caller():
    tracer = (ROOT / "perfbench" / "tracing.py").read_text()
    for name in TRACED_ONLY:
        cls, method = name.split(".")
        assert f'"{cls}", "{method}"' in tracer, name
    assert sorted(set(uncalled_methods()) - set(TRACED_ONLY)) == []
