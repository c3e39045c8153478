"""Each field owns its boundary in `exactalg` (`ints`, `cleared`,
`scalar`, `normal_form`), so code elsewhere does not branch on which
field it runs over.  Outside `exactalg`, an `is QQ` or `is not QQ` test
is allowed only where a result truly differs by field: curves are
rational by contract (`RationalCurve.__init__`) and a document names its
field (`jsonio.field_to_jsonable`)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = {("projection", "RationalCurve.__init__"), ("jsonio", "field_to_jsonable")}


def _is_qq(node):
    return (isinstance(node, ast.Name) and node.id == "QQ") or (
        isinstance(node, ast.Attribute) and node.attr == "QQ")


def _field_branches(tree):
    """The qualified name of the function around each `is QQ` or
    `is not QQ` comparison, in source order ("" at module level)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Is, ast.IsNot)) and (_is_qq(left) or _is_qq(right)):
                    found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_the_check_sees_a_new_field_branch():
    tree = ast.parse(
        "class C:\n    def f(self, field):\n        return 1 if field is QQ else 2\n"
        "def g(x):\n    return x.field is not exactalg.QQ\n"
        "def h(field):\n    return field == QQ or QQ is None\n")
    assert _field_branches(tree) == ["C.f", "g", "h"]


def test_field_branches_stay_where_the_result_differs_by_field():
    found = set()
    for path in sorted((ROOT / "src" / "zeroreg").glob("*.py")):
        if path.stem != "exactalg":
            tree = ast.parse(path.read_text(), str(path))
            found.update((path.stem, name) for name in _field_branches(tree))
    assert found == ALLOWED
