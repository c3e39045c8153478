"""No public helper exists that nothing calls: every public function and
method in the package is named somewhere else in the package or the
demos, or stays on purpose and is listed below with the reason."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "zeroreg").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))

_PAPER_FORMULA = "a closed formula of the paper, library API read by the tests"
_SERIALIZATION = "the dual of a loader; perfbench writes its documents with it"
_TRACED = "perfbench/tracer.py wraps it"

# qualified name -> why it stays although nothing in src or demos names it
ALLOWED = {
    "bounds.complete_intersection_regularity": _PAPER_FORMULA,
    "bounds.hilbert_polynomial_regularity_bound": _PAPER_FORMULA,
    "bounds.pushforward_c1": _PAPER_FORMULA,
    "bounds.recipe_regularity_bound": _PAPER_FORMULA,
    "projection.schubert_codim": _PAPER_FORMULA,
    "projection.secant_locus_dim_bound": _PAPER_FORMULA,
    "projection.tangency_locus_codim": _PAPER_FORMULA,
    "jsonio.scheme_dumps": "the one-call dual of scheme_loads, for library users",
    "jsonio.curve_to_jsonable": _SERIALIZATION,
    "jsonio.subspace_to_jsonable": _SERIALIZATION,
    "exactalg.Matrix.kernel_basis": _TRACED,
    "scheme.contact_length": _TRACED,
    "scheme.enumerate_subschemes": _TRACED,
    "forms.rational_roots": _TRACED,
    "normality.SchemeEvaluator.column": _TRACED,
}


def _unnamed_public(modules, readers=()):
    """The qualified name of each public module-level function or method
    in `modules` ({module name: source}) that neither they nor the
    `readers` (sources) name outside the function's own body."""
    defined, named = [], set()

    def visit(node, module, scope, inside):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            name = None
        if name is not None and name not in inside:
            named.add(name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if module is not None and not node.name.startswith("_") and not inside:
                defined.append((".".join((module,) + scope + (node.name,)), node.name))
            inside = inside + (node.name,)
        if isinstance(node, ast.ClassDef):
            scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope, inside)

    for module, source in modules.items():
        visit(ast.parse(source), module, (), ())
    for source in readers:
        visit(ast.parse(source), None, (), ())
    return sorted(q for q, name in defined if name not in named)


def test_the_check_sees_a_planted_unused_def():
    modules = {
        "a": "def used():\n    return used()\n\ndef unused():\n    return 1\n",
        "b": "class C:\n    def m(self):\n        def helper():\n            pass\n"
             "        return helper()\n\n    def _private(self):\n        pass\n",
    }
    assert _unnamed_public(modules) == ["a.unused", "a.used", "b.C.m"]
    demo = "from a import used\n\ndef main():\n    return C().m()\n"
    assert _unnamed_public(modules, [demo]) == ["a.unused"]


def test_every_public_function_is_named_or_allowed():
    modules = {p.stem: p.read_text() for p in PACKAGE}
    assert _unnamed_public(modules, [p.read_text() for p in DEMOS]) == sorted(ALLOWED)
