"""Every import in the package, the demos and the tests is used, and no
function in the package or the demos re-imports a module its file
already imports at top level: such an import only looks lazy."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src/zeroreg", "demos", "tests") for p in (ROOT / d).glob("*.py"))
PROGRAM = [p for p in SOURCES if p.parent.name != "tests"]


def _unused_imports(tree):
    """(line, name) for each name an import binds that the module never
    reads and does not list in `__all__`."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in used]


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import gcd, lcm\n__all__ = ['lcm']\nos.sep\n")
    assert _unused_imports(tree) == [(2, "gcd")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def _imported_modules(node, package):
    """The absolute name of each module an import statement names."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    return [importlib.util.resolve_name("." * node.level + (node.module or ""), package)]


def _redundant_local_imports(tree, package=None):
    """(line, module) for each import inside a function that names a
    module the file imports outside any function; relative names are
    resolved against `package`."""
    kinds = (ast.Import, ast.ImportFrom)
    local = {n for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
             for n in ast.walk(f) if isinstance(n, kinds)}
    top = {name for n in ast.walk(tree) if isinstance(n, kinds) and n not in local
           for name in _imported_modules(n, package)}
    return sorted({(n.lineno, name) for n in local
                   for name in _imported_modules(n, package) if name in top})


def test_the_check_sees_a_local_import_of_a_module_imported_at_top():
    tree = ast.parse(
        "import os\nfrom .scheme import a\n"
        "class C:\n    def f(self):\n        from zeroreg.scheme import b\n"
        "def g():\n    from .harness import c\n    import os.path\n    from os import sep\n")
    assert _redundant_local_imports(tree, "zeroreg") == [(5, "zeroreg.scheme"), (9, "os")]


@pytest.mark.parametrize("path", PROGRAM, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_local_import_of_a_module_imported_at_top(path):
    package = "zeroreg" if path.parent.name == "zeroreg" else None
    tree = ast.parse(path.read_text(), str(path))
    assert _redundant_local_imports(tree, package) == []
