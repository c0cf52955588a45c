"""No module imports a name it never reads: every module under src/transverse,
tests, perfbench and demos is parsed, and each name an import binds must be
read somewhere in that module, or listed in its __all__.  No private helper
is dead: each module-level private function or class in src/transverse is
named somewhere in src/transverse outside its own definition."""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src/transverse", "tests", "perfbench", "demos")


def unused_imports(source: str) -> list[str]:
    """'name (line k)' for each name bound by an import in source and never
    read; a string in an assignment to __all__ counts as a read."""
    imported = {}
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def _names(tree: ast.AST) -> Counter:
    """How often each name is named in tree: read or bound as a variable,
    taken as an attribute, or imported."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
    return names


def dead_private_helpers(sources: dict[str, str]) -> list[str]:
    """'module: name (line k)' for each module-level private function or
    class in sources (module name -> text) that no source names outside
    that definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")
                    and named[node.name] == _names(node)[node.name]):
                dead.append(f"{module}: {node.name} (line {node.lineno})")
    return dead


def scanned_files() -> list[pathlib.Path]:
    return sorted(
        path
        for top in SCANNED
        for path in (ROOT / top).rglob("*.py")
        if "_work" not in path.relative_to(ROOT).parts
    )


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os (line 1)"]
    assert unused_imports("from a.b import c as d\nimport e.f\ne.f.g(d)\n") == []
    assert unused_imports("from .m import x, y\n__all__ = ['x']\n") == ["y (line 1)"]
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_module_has_an_unused_import():
    files = scanned_files()
    assert {f.relative_to(ROOT).parts[0] for f in files} == {"src", "tests", "perfbench", "demos"}
    unused = {
        str(f.relative_to(ROOT)): names
        for f in files
        if (names := unused_imports(f.read_text()))
    }
    assert unused == {}


def test_scan_finds_a_dead_private_helper():
    assert dead_private_helpers({"a": "def _f():\n    return _f()\ndef _g():\n    pass\n",
                                 "b": "from a import _g\n"}) == ["a: _f (line 1)"]
    assert dead_private_helpers({"a": "class _C:\n    pass\nx = [_C]\n"}) == []
    assert dead_private_helpers({"a": "def _h():\n    pass\n", "b": "import m\nm._h()\n"}) == []
    assert dead_private_helpers({"a": "def __getattr__(name):\n    pass\n"}) == []
    # a nested or public definition is not a module-level private helper
    assert dead_private_helpers({"a": "def f():\n    def _inner():\n        pass\n"}) == []


def test_no_private_helper_in_src_is_dead():
    sources = {
        str(f.relative_to(ROOT)): f.read_text()
        for f in sorted((ROOT / "src/transverse").rglob("*.py"))
    }
    assert len(sources) > 5
    assert dead_private_helpers(sources) == []
