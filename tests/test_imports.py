"""No module imports a name it never reads: every module under src/transverse,
tests, perfbench and demos is parsed, and each name an import binds must be
read somewhere in that module, or listed in its __all__."""

import ast
import pathlib

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
