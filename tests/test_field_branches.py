"""Each field owns its boundary in `exactalg` (`ints`, `cleared`,
`scalar`, `normal_form`), so code elsewhere does not branch on which
field it runs over.  Outside `exactalg`, an `is QQ` or `is not QQ` test
is allowed only where a result truly differs by field: curves are
rational by contract (`RationalCurve.__init__`) and a document names its
field (`jsonio.field_to_jsonable`).  Nor does code outside `exactalg`
test whether a scalar is a `Fraction`.  Behind the boundary the library
computes on plain ints: F_p elements have no arithmetic, and every F_p
code path still runs."""

import ast
from pathlib import Path

import pytest

from zeroreg import cli, harness
from zeroreg.exactalg import QQ, Matrix, prime_field
from zeroreg.jsonio import canonical_json, scheme_dumps, subspace_to_jsonable
from zeroreg.projection import RationalCurve, project_scheme
from zeroreg.scheme import (
    FiniteScheme,
    LinearSubspace,
    ProjPoint,
    apply_matrix,
    contact_length,
    germ_on_line,
    make_germ,
    reduced_germ,
    subspace_from_rows,
)
from zeroreg.separation import SeparatorConfig

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = {("projection", "RationalCurve.__init__"), ("jsonio", "field_to_jsonable")}


def _is_qq(node):
    return (isinstance(node, ast.Name) and node.id == "QQ") or (
        isinstance(node, ast.Attribute) and node.attr == "QQ")


def _is_fraction(node):
    return (isinstance(node, ast.Name) and node.id == "Fraction") or (
        isinstance(node, ast.Attribute) and node.attr == "Fraction")


def _scopes(tree, count):
    """The qualified name of the function around each node, once per
    `count(node)`, in source order ("" at module level)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        found.extend([".".join(scope)] * count(node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def _field_branches(tree):
    """Where an `is QQ` or `is not QQ` comparison sits."""
    def count(node):
        if not isinstance(node, ast.Compare):
            return 0
        operands = [node.left, *node.comparators]
        return sum(isinstance(op, (ast.Is, ast.IsNot)) and (_is_qq(left) or _is_qq(right))
                   for op, left, right in zip(node.ops, operands, operands[1:]))
    return _scopes(tree, count)


def _fraction_tests(tree):
    """Where an `isinstance(_, Fraction)` call sits, Fraction alone or in
    a tuple of types."""
    def count(node):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            return 0
        types = node.args[1]
        return any(map(_is_fraction, types.elts if isinstance(types, ast.Tuple) else [types]))
    return _scopes(tree, count)


def _scalar_builds(tree):
    """Where a scalar is built: a call of a field tag (`QQ(..)`,
    `field(..)`, `x.field(..)`), of a `scalar` builder or of `Fraction`."""
    def count(node):
        if not isinstance(node, ast.Call):
            return 0
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in ("QQ", "field", "scalar", "Fraction")
    return _scopes(tree, count)


def test_the_check_sees_a_new_field_branch():
    tree = ast.parse(
        "class C:\n    def f(self, field):\n        return 1 if field is QQ else 2\n"
        "def g(x):\n    return x.field is not exactalg.QQ\n"
        "def h(field):\n    return field == QQ or QQ is None\n")
    assert _field_branches(tree) == ["C.f", "g", "h"]


def test_the_check_sees_a_fraction_test():
    tree = ast.parse(
        "def f(c):\n    return c if isinstance(c, Fraction) else c.value\n"
        "class C:\n    def g(self, x):\n        return isinstance(x, (int, fractions.Fraction))\n"
        "def h(x):\n    return isinstance(x, int) or type(x) is Fraction\n")
    assert _fraction_tests(tree) == ["f", "C.g"]


def test_the_check_sees_a_scalar_build():
    tree = ast.parse(
        "class C:\n    def f(self, c):\n        return self.field(c)\n"
        "    def g(self, v):\n        return self.field.scalar(v, 2), self.field.ints([v])\n"
        "def h(v, field):\n    return [fractions.Fraction(v), field(v), QQ(v)]\n"
        "def k(field):\n    scalar = field.scalar\n    return scalar(1, 2), field.cleared([1])\n")
    assert _scalar_builds(tree) == ["C.f", "C.g", "h", "h", "h", "k"]


def _outside_exactalg(find):
    found = set()
    for path in sorted((ROOT / "src" / "zeroreg").glob("*.py")):
        if path.stem != "exactalg":
            tree = ast.parse(path.read_text(), str(path))
            found.update((path.stem, name) for name in find(tree))
    return found


def test_field_branches_stay_where_the_result_differs_by_field():
    assert _outside_exactalg(_field_branches) == ALLOWED


def test_no_fraction_test_outside_exactalg():
    # a scalar's field is its tag's business: a Fraction test elsewhere
    # is a field branch the check above cannot see
    assert _outside_exactalg(_fraction_tests) == set()


# the output views: the only places a point, germ, subspace, curve or
# fiber builds a Fraction or an F_p element
_OUTPUT_VIEWS = {("scheme", "ProjPoint.coords"), ("scheme", "CurvilinearGerm.jets"),
                 ("scheme", "CurvilinearGerm.evaluate_form"), ("projection", "_coord_key"),
                 ("projection", "_fiber_over")}


def test_points_germs_subspaces_and_curves_build_scalars_only_for_output():
    found = set()
    for stem in ("scheme", "projection"):
        path = ROOT / "src" / "zeroreg" / (stem + ".py")
        found.update((stem, name) for name in _scalar_builds(ast.parse(path.read_text())))
    assert found == _OUTPUT_VIEWS


_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__", "__pow__")


@pytest.fixture
def no_fp_arithmetic():
    """F_7 and F_(2^31 - 1), whose elements define no arithmetic."""
    for p in (7, 2**31 - 1):
        assert [name for name in _ARITHMETIC if hasattr(prime_field(p), name)] == []


def _fp_scheme(F):
    """A length-2 germ at (1:2:3:4) with tangent direction (0:1:5:0),
    and four reduced points."""
    germs = [make_germ((1, 2, 3, 4), 0, [(2, 1), (3, 5), (4, 0)], F)]
    germs += [reduced_germ(c, F) for c in [(0, 1, 1, 2), (1, 0, 2, 3), (2, 1, 0, 5),
                                           (3, 3, 1, 0)]]
    return FiniteScheme(germs, F)


@pytest.mark.parametrize("p", [7, 2**31 - 1])
def test_fp_paths_do_no_element_arithmetic(p, no_fp_arithmetic, tmp_path, capsys):
    F = prime_field(p)
    with pytest.raises(TypeError):
        sum([F(3)])
    for suite in harness.SUITE_NAMES:
        if suite not in harness._CURVE_SUITES:
            # over F_7 some planted features cannot be drawn; no property fails
            report = harness.run_suite(suite, 8, 5, prime=p)
            assert all(f["message"].startswith("generator exhausted")
                       for f in report.failures), (suite, report.failures)
    x = _fp_scheme(F)
    center = LinearSubspace(3, [(1, 0, F("3/2"), 0), (0, 1, 0, 2)], F)
    assert contact_length(x, center) == 0
    fibers = project_scheme(x, center)
    assert sorted(x.truncated(s).degree for _, s in fibers) == ([1, 1, 1, 3] if p == 7
                                                                else [1, 1, 1, 1, 2])
    tangent = subspace_from_rows([(1, 2, 3, 4), (0, 1, 5, 0)], 3, F)
    assert [contact_length(g, tangent) for g in x.germs] == [2, 0, 0, 0, 0]
    scheme = tmp_path / "x.json"
    scheme.write_text(scheme_dumps(x))
    sub = tmp_path / "c.json"
    sub.write_text(canonical_json(subspace_to_jsonable(center)))
    for argv in (["lemma26", "--aligned", "1,2,3,4", "--a", "1", "--b", "1", "--off", "1:2:3",
                  "--off", "1:5:-1", "--field", "fp:%d" % p],
                 ["separate", "--scheme", str(scheme), "--degree", "2"],
                 ["project", "--scheme", str(scheme), "--center", str(sub)]):
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().err == ""


# Every entry point that takes a point, germ, scheme, subspace or matrix,
# called as read(a, b): its input lies over a and it works over b.  Over
# another field the int vectors would silently answer for the wrong one.
_LINE = [(5, 1, 0)]  # mod 7 the line 5 x0 + x1 = 0 holds (1:2:3), over Q not
_ENTRY_POINTS = {
    "reduced_germ": lambda a, b: reduced_germ(ProjPoint((1, 2, 3), a), b),
    "make_germ": lambda a, b: make_germ(ProjPoint((1, 2, 3), a), 0, [(2, 1), (3, 0)], b),
    "germ_on_line": lambda a, b: germ_on_line(ProjPoint((1, 2, 3), a), (0, 1, 0), 2, b),
    "FiniteScheme": lambda a, b: FiniteScheme([reduced_germ((1, 0, 0), b),
                                               reduced_germ((0, 1, 0), a)]),
    "FiniteScheme-field": lambda a, b: FiniteScheme([reduced_germ((1, 0, 0), a)], b),
    "SeparatorConfig": lambda a, b: SeparatorConfig(
        [1, 2, 3, -1], 2, 3, [ProjPoint((1, 1, 0), a), ProjPoint((0, 1, 0), a)], b),
    "apply_matrix": lambda a, b: apply_matrix(
        FiniteScheme([reduced_germ((1, 2, 3), b)]),
        Matrix([[a(c) for c in row] for row in ((1, 0, 0), (0, 1, 0), (1, 0, 1))], field=a)),
    "contains_point": lambda a, b: LinearSubspace(2, _LINE, b).contains_point(
        ProjPoint((1, 2, 3), a)),
    "contact_length-germ": lambda a, b: contact_length(
        reduced_germ((1, 2, 3), a), LinearSubspace(2, _LINE, b)),
    "contact_length-scheme": lambda a, b: contact_length(
        FiniteScheme([reduced_germ((1, 2, 3), a)]), LinearSubspace(2, _LINE, b)),
    "project_scheme": lambda a, b: project_scheme(
        FiniteScheme([reduced_germ((1, 2, 3), a)]),
        LinearSubspace(2, [(1, 0, 0), (0, 1, 0)], b)),
}


def test_subspace_reads_refuse_a_point_or_scheme_over_another_field():
    F = prime_field(7)
    for field, other in ((F, QQ), (QQ, F)):
        point = ProjPoint((1, 2, 3), field)
        own = LinearSubspace(2, _LINE, field)
        assert own.contains_point(point) == (field is F)
        assert contact_length(FiniteScheme([reduced_germ(point, field)], field), own) == (field is F)
        for name, read in _ENTRY_POINTS.items():
            read(field, field)
            with pytest.raises(ValueError, match="different fields"):
                read(field, other)
                pytest.fail(name)
    # curves are over Q only, so a curve meets another field one way
    curve = RationalCurve([(1, 0), (0, 1), (1, 1)])
    curve.composed_forms(LinearSubspace(2, _LINE))
    with pytest.raises(ValueError, match="different fields"):
        curve.composed_forms(LinearSubspace(2, _LINE, F))
