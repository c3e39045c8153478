"""End-to-end checks of the command-line interface: golden outputs,
exit codes, and determinism of the verification reports."""

import hashlib
import json
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest

from zeroreg import cli, harness, jsonio, normality
from zeroreg.cli import main
from zeroreg.forms import cleared_form, series_mul
from zeroreg.jsonio import (
    canonical_json,
    curve_to_jsonable,
    scheme_dumps,
    scheme_loads,
    subspace_to_jsonable,
)
from zeroreg.projection import RationalCurve
from zeroreg.scheme import FiniteScheme, LinearSubspace, ProjPoint, make_germ, reduced_germ
from zeroreg.separation import family_rank, recipe_space, standard_recipe


def _collinear5(path):
    pts = [reduced_germ(ProjPoint((1, i, 2 * i))) for i in range(5)]
    path.write_text(scheme_dumps(FiniteScheme(pts)))
    return str(path)


def _square4(path):
    pts = [reduced_germ(ProjPoint(c)) for c in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]]
    path.write_text(scheme_dumps(FiniteScheme(pts)))
    return str(path)


def _twisted_cubic(path):
    curve = RationalCurve([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    path.write_text(canonical_json(curve_to_jsonable(curve)))
    return str(path)


def _subspace(path, ambient, cutting_forms):
    sub = LinearSubspace(ambient, cutting_forms)
    path.write_text(canonical_json(subspace_to_jsonable(sub)))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hilbert_golden(tmp_path, capsys):
    scheme = _collinear5(tmp_path / "pts.json")
    code, out, _ = run_cli(["hilbert", "--scheme", scheme, "--max-degree", "5"], capsys)
    assert code == 0
    assert out == '{"phi":[1,2,3,4,5,5]}\n'


def _three_points_p5(path):
    germs = [reduced_germ(ProjPoint(tuple(int(i == j) for i in range(6)))) for j in (1, 5)]
    germs.append(reduced_germ(ProjPoint((1, 2, -1, 3, 1, -2))))
    path.write_text(scheme_dumps(FiniteScheme(germs)))
    return str(path)


def test_hilbert_stops_computing_once_phi_reaches_the_degree(tmp_path, capsys):
    # phi(1) = 3 = d already, so the 29 entries after it are filled in
    # without further rank computations
    scheme = _three_points_p5(tmp_path / "p5.json")
    started = time.perf_counter()
    code, out, _ = run_cli(["hilbert", "--scheme", scheme, "--max-degree", "30"], capsys)
    assert time.perf_counter() - started < 20
    assert code == 0
    assert json.loads(out)["phi"] == [1] + [3] * 30


def test_normality_past_the_degree_needs_no_rank(tmp_path, capsys):
    # the operator recurrence stops once phi = d (here at k = 1), so a
    # degree far past it costs no further rank
    scheme = _three_points_p5(tmp_path / "p5.json")
    started = time.perf_counter()
    code, out, _ = run_cli(["normality", "--scheme", scheme, "--degree", "100000"], capsys)
    assert time.perf_counter() - started < 20
    assert code == 0
    assert '"normal":true' in out


def test_bounds_golden(capsys):
    code, out, _ = run_cli(["bounds", "--dim", "5", "--degree", "12", "--codim", "4"], capsys)
    assert code == 0
    assert out == '{"bel":44,"best_known":19,"eisenbud_goto":9}\n'


def test_bounds_quadric_branch(capsys):
    # "unknown" takes the larger of the on- and off-quadric bounds
    for on_quadric, best in (("yes", 17), ("no", 9), ("unknown", 17)):
        code, out, _ = run_cli(["bounds", "--dim", "6", "--degree", "9", "--codim", "3",
                                "--on-quadric", on_quadric], capsys)
        assert code == 0
        assert out == '{"bel":22,"best_known":%d,"eisenbud_goto":7}\n' % best


def test_normality_exit_codes(tmp_path, capsys):
    scheme = _collinear5(tmp_path / "pts.json")
    code, out, _ = run_cli(["normality", "--scheme", scheme, "--degree", "4"], capsys)
    assert code == 0 and json.loads(out)["normal"] is True
    code, out, _ = run_cli(["normality", "--scheme", scheme, "--degree", "3"], capsys)
    assert code == 1 and json.loads(out)["normal"] is False


def test_regularity_output(tmp_path, capsys):
    scheme = _collinear5(tmp_path / "pts.json")
    code, out, _ = run_cli(["regularity", "--scheme", scheme], capsys)
    assert code == 0
    assert json.loads(out) == {"degree": 5, "min_normal_degree": 4, "regularity": 5}


def test_regularity_computes_the_minimal_normal_degree_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = normality.min_normal_degree

    def counted(scheme):
        calls.append(scheme)
        return real(scheme)

    monkeypatch.setattr(normality, "min_normal_degree", counted)
    monkeypatch.setattr(cli, "min_normal_degree", counted)
    scheme = _collinear5(tmp_path / "pts.json")
    code, out, _ = run_cli(["regularity", "--scheme", scheme], capsys)
    assert code == 0
    assert out == '{"degree":5,"min_normal_degree":4,"regularity":5}\n'
    assert len(calls) == 1


def test_regularity_of_twelve_collinear_points_in_p8_is_bounded(tmp_path, capsys):
    # twelve points on a line plus two off it: phi first reaches 14 at
    # k = 11, where the degree-11 monomials of P^8 number C(19, 8) = 75,582;
    # the operator recurrence ranks at most 9 * 14 vectors per degree
    germs = [reduced_germ(ProjPoint((1, i) + (0,) * 7)) for i in range(12)]
    germs.append(reduced_germ(ProjPoint((0, 0, 1) + (0,) * 6)))
    germs.append(reduced_germ(ProjPoint((1, 2, 3, 5, 7, 11, 13, 17, 19))))
    path = tmp_path / "p8.json"
    path.write_text(scheme_dumps(FiniteScheme(germs)))
    started = time.perf_counter()
    code, out, _ = run_cli(["regularity", "--scheme", str(path)], capsys)
    assert time.perf_counter() - started < 20
    assert code == 0
    assert out == '{"degree":14,"min_normal_degree":11,"regularity":12}\n'


def test_invariant_t_output(tmp_path, capsys):
    scheme = _square4(tmp_path / "sq.json")
    code, out, _ = run_cli(["invariant-t", "--scheme", scheme], capsys)
    assert code == 0
    assert json.loads(out) == {"degree": 4, "max_collinear": 2, "span": 2, "t": 2}


def test_invariant_t_over_the_enumeration_cap_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REGLAB_CAP", raising=False)
    path = tmp_path / "conic13.json"
    pts = [reduced_germ(ProjPoint((1, i, i * i))) for i in range(13)]
    path.write_text(scheme_dumps(FiniteScheme(pts)))
    code, out, err = run_cli(["invariant-t", "--scheme", str(path)], capsys)
    assert code == 2 and out == ""
    assert "scheme degree 13 exceeds the enumeration cap 12" in err


def test_secant_dichotomy_exits(tmp_path, capsys):
    collinear = _collinear5(tmp_path / "pts.json")
    code, out, _ = run_cli(["secant", "--scheme", collinear], capsys)
    assert code == 0 and json.loads(out)["equivalence_holds"] is True
    # four general plane points sit just below the degree range where the
    # dichotomy is a theorem, and genuinely violate it
    square = _square4(tmp_path / "sq.json")
    code, out, _ = run_cli(["secant", "--scheme", square], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["has_long_secant"] is False and doc["normal_at_d_minus_n_1"] is False


def test_separate_standard_and_recipe(tmp_path, capsys):
    scheme = _collinear5(tmp_path / "pts.json")
    # the standard family caps the line-coordinate exponent at 2, so five
    # aligned points are out of reach at every degree
    code, out, _ = run_cli(["separate", "--scheme", scheme, "--degree", "4"], capsys)
    assert code == 1 and json.loads(out)["family_rank"] == 3
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps({
        "t_count": 2,
        "standard": False,
        "levels": {str(j): [[[[j, 0], "1"]]] for j in range(5)},
    }))
    code, out, _ = run_cli(
        ["separate", "--scheme", scheme, "--degree", "4", "--recipe", str(recipe)], capsys)
    assert code == 0 and json.loads(out)["family_rank"] == 5
    code, out, _ = run_cli(
        ["separate", "--scheme", scheme, "--degree", "3", "--recipe", str(recipe)], capsys)
    assert code == 1 and json.loads(out)["family_rank"] == 4


def test_separate_at_a_high_degree_off_the_chart(tmp_path, capsys):
    # x0 vanishes at (0:1:2), so the standard family's U^(k-j) is expanded
    # in a non-chart coordinate, one factor of U at a time
    scheme = tmp_path / "pts.json"
    scheme.write_text('{"field":"Q","ambient":2,'
                      '"germs":[{"point":["0","1","2"]},{"point":["1","1","1"]}]}')
    started = time.perf_counter()
    code, out, _ = run_cli(["separate", "--scheme", str(scheme), "--degree", "3000"], capsys)
    assert time.perf_counter() - started < 20
    assert code == 1
    assert '"family_rank":1' in out and '"separates":false' in out


def test_degree_flags_over_the_limit_exit_two(tmp_path, capsys):
    scheme = _collinear5(tmp_path / "pts.json")
    limit = cli.MAX_DEGREE
    for argv in (["separate", "--scheme", scheme, "--degree"],
                 ["hilbert", "--scheme", scheme, "--max-degree"]):
        code, out, err = run_cli(argv + [str(limit + 1)], capsys)
        assert code == 2
        assert out == ""
        assert "<= %d" % limit in err and str(limit + 1) in err
    code, out, _ = run_cli(["hilbert", "--scheme", scheme, "--max-degree", str(limit)], capsys)
    assert code == 0 and len(json.loads(out)["phi"]) == limit + 1


def _long_germ(path, length):
    """A length-L germ at (1:1:2) in chart 1, so U = x_0 is expanded one
    factor at a time, and the point (1:0:0): sum of squared lengths
    L^2 + 1."""
    jets = [[1] + [1] * (length - 1), [2] + [-1] * (length - 1)]
    germs = [make_germ((1, 1, 2), 1, jets), reduced_germ(ProjPoint((1, 0, 0)))]
    path.write_text(scheme_dumps(FiniteScheme(germs)))
    return str(path)


def test_separate_work_budget_is_degree_times_squared_lengths(tmp_path, capsys, monkeypatch):
    scheme = _long_germ(tmp_path / "x.json", 3)
    monkeypatch.setattr(cli, "SEPARATE_BUDGET", 40)
    code, out, _ = run_cli(["separate", "--scheme", scheme, "--degree", "4"], capsys)
    assert code in (0, 1) and json.loads(out)["k"] == 4
    code, out, err = run_cli(["separate", "--scheme", scheme, "--degree", "5"], capsys)
    assert code == 2 and out == ""
    assert "must be <= 40, got 50" in err


def test_separate_at_the_degree_cap_takes_each_power_once(tmp_path, monkeypatch):
    # on the long germ U = x_0 is a series: its powers up to k are one
    # running product, kept only at the exponents the family uses, and
    # T2 = x_2 is raised no further than its own exponents, so there is
    # about one series product per degree and no table of every power
    x = scheme_loads(pathlib.Path(_long_germ(tmp_path / "x.json", 3)).read_text())
    forms = recipe_space(standard_recipe(), cli.MAX_DEGREE, x.ambient)
    calls = []
    original = series_mul

    def counted(*args):
        calls.append(1)
        return original(*args)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("zeroreg")
                and vars(module).get("series_mul") is original):
            monkeypatch.setattr(module, "series_mul", counted)
    tracemalloc.start()
    try:
        rank = family_rank(x, forms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rank == x.degree
    assert cli.MAX_DEGREE <= len(calls) <= cli.MAX_DEGREE + 20
    assert peak < 2**20
    # where U is the chart, den^(k - 2) is common to every value of the
    # germ and is taken out: the values stay small ints
    s, values = reduced_germ((7, 1, 2)).form_series([cleared_form(f) for f in forms])
    assert s == 2 and [v for (v,) in values] == [49, 7, 14, 1, 2, 4]


def test_curve_degree_cap_is_inclusive(tmp_path, capsys):
    # (s^d : t^d) meets the hyperplane x_0 = x_1 in the d-th roots of unity
    cap = jsonio.CURVE_MAX_DEGREE
    sub = _subspace(tmp_path / "h.json", 1, [(1, -1)])
    for d, code_want in ((cap, 0), (cap + 1, 2)):
        curve = _curve(tmp_path / "c.json", [(1,) + (0,) * d, (0,) * d + (1,)])
        code, out, err = run_cli(["curve-section", "--curve", curve, "--subspace", sub], capsys)
        assert code == code_want
        if code == 0:
            assert json.loads(out)["length"] == cap
        else:
            assert out == "" and "curve degree must be <= %d, got %d" % (cap, d) in err


def test_separate_maps_fractional_recipe_coefficients_into_fp(tmp_path, capsys):
    # (1/2) T1 is 4 T1 over F_7, not the zero form
    scheme = tmp_path / "pts.json"
    scheme.write_text('{"ambient":2,"field":{"Fp":7},'
                      '"germs":[{"point":["1","0","0"]},{"point":["1","2","0"]}]}')
    recipe = tmp_path / "recipe.json"
    recipe.write_text('{"levels":{"0":[[[[0,0],"1"]]],"1":[[[[1,0],"1/2"]]]},'
                      '"standard":false,"t_count":2}')
    code, out, _ = run_cli(
        ["separate", "--scheme", str(scheme), "--degree", "1", "--recipe", str(recipe)], capsys)
    assert code == 0
    assert json.loads(out)["family_rank"] == 2


def test_separate_rejects_a_recipe_coefficient_with_no_image_in_fp(tmp_path, capsys):
    # 1/7 has no image in F_7: an input error, not a traceback
    scheme = tmp_path / "pts.json"
    scheme.write_text('{"ambient":2,"field":{"Fp":7},'
                      '"germs":[{"point":["1","0","0"]},{"point":["1","2","0"]}]}')
    recipe = tmp_path / "recipe.json"
    recipe.write_text('{"levels":{"0":[[[[0,0],"1"]]],"1":[[[[1,0],"1/7"]]]},'
                      '"standard":false,"t_count":2}')
    code, out, err = run_cli(
        ["separate", "--scheme", str(scheme), "--degree", "1", "--recipe", str(recipe)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "1/7" in err


def test_lemma26_output_stays_in_family(capsys):
    code, out, _ = run_cli(
        ["lemma26", "--aligned", "1,2,3,4", "--a", "1", "--b", "1",
         "--off", "1:2:3", "--off", "1:5:-1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3 and doc["case"] == 1
    assert len(doc["forms"]) == 6
    allowed = {(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0), (2, 0, 1), (1, 1, 1), (1, 0, 2)}
    for form in doc["forms"]:
        assert {tuple(exps) for exps, _ in form} <= allowed


def test_lemma26_rejects_point_on_line(capsys):
    code, _, err = run_cli(
        ["lemma26", "--aligned", "1,2,3", "--a", "1", "--b", "1",
         "--off", "2:1:1", "--off", "1:5:-1"], capsys)
    assert code == 2
    assert "line" in err


def test_lemma26_rejects_n_over_the_limit(capsys):
    # 42 aligned points and two off the line: n = 41
    assert cli.LEMMA26_MAX_N == 40
    aligned = ",".join(str(u) for u in range(1, 43))
    code, out, err = run_cli(
        ["lemma26", "--aligned", aligned, "--a", "1", "--b", "2",
         "--off", "1:2:3", "--off", "1:5:-1"], capsys)
    assert code == 2
    assert out == ""
    assert "n <= 40" in err and "n = 41" in err


# stdout digests recorded with the earlier all-Fraction separator solver;
# the integer paths must reproduce them byte for byte
LEMMA26_PINNED = [
    (["--aligned", "1,2,3,4", "--a", "1", "--b", "1", "--off", "1:2:3", "--off", "1:5:-1"],
     0, "0038747188c609b3cd96d98d429e833405c5ab4dc05706e66f6e683a2aa53e90"),
    (["--aligned", "1,-2,3", "--a", "2", "--b", "-3", "--off", "1:2:3", "--off", "0:1:4",
      "--off", "1:-1:1"],
     0, "6bb0b185db2866d545faf891849986916ebc03d866c61db60496fa17816b4b9d"),
    (["--aligned", "1/2,3,-5/3,7,2", "--a", "3/4", "--b", "-2", "--off", "1:1/3:2",
      "--off", "2:-1:5"],
     0, "f8f1692af8af0bcd0a6345cda07fba6640ef742a89a059d9a2e436e238a798a1"),
    (["--aligned=-1,2,5,-7,9", "--a", "4", "--b", "1", "--off", "3:1:-2", "--off", "1:0:1",
      "--off=-2:5:1/2"],
     0, "bb01ec85d75598a0371c9f2bf273d3955b7c30960cd19b0875480df7a665fd8c"),
    (["--aligned", "1,2,3,4,5,6", "--a", "1", "--b", "2", "--off", "1:3:1", "--off", "2:-3:7"],
     0, "d374ec1d3943201684367c34ed9aff5c5334dcafea0c89d75ccb9eab32e6102f"),
    (["--aligned", "1,2,3,4", "--a", "1", "--b", "1", "--off", "1:2:3", "--off", "1:5:-1",
      "--field", "fp:7"],
     0, "e7708905317c8161289252a565e4c30d607ff1a18a7dddb3478643f3e53cba25"),
    (["--aligned", "2,3,5", "--a", "1", "--b", "3", "--off", "1:1:0", "--off", "0:1:1",
      "--off", "1:2:5", "--field", "fp:101"],
     0, "2d7fe005ed08676c19156015920797bc5545cd175b414235f4dd16b15bfeaf67"),
    (["--aligned", "1,4,9,16", "--a", "-1", "--b", "5", "--off", "1:1/2:1", "--off", "3:2:-1",
      "--field", "fp:2147483647"],
     0, "aedb72d6ca44cf99ae1943c5c87ec17532b277f0ae75ff5d53c769c284cb4505"),
    (["--aligned", "1,2,3", "--a", "1", "--b", "1", "--off", "1:0:1", "--off", "1:0:2",
      "--off", "1:0:3"],
     0, "416d5d0caf76ec0ee66534c978396aa6885c93e10d45ca8b59741972ce106a01"),
    (["--aligned", "1,2,3,4", "--a", "1", "--b", "1", "--off", "0:1:0", "--off", "0:0:1"],
     1, "81be41995a99bdcc99d3550905d4e387b94f5deab9bf7e67ac92763b6ea94481"),
]


@pytest.mark.parametrize("argv, want_code, want_digest", LEMMA26_PINNED)
def test_lemma26_stdout_pinned(argv, want_code, want_digest, capsys):
    code, out, _ = run_cli(["lemma26"] + argv, capsys)
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_digest


# `project` on hand-written documents, stdout pinned by its sha256: over
# F_7 a length-2 germ and a center with a 3/2 entry (5 in F_7), over Q a
# center whose two forms have different denominators; both merge points
PROJECT_PINNED = [
    ({"field": {"Fp": 7}, "ambient": 3, "germs": [
        {"point": ["1", "2", "3", "4"], "chart": 0,
         "jet": [None, ["2", "1"], ["3", "5"], ["4", "0"]]},
        {"point": ["0", "1", "1", "2"]}, {"point": ["1", "0", "2", "3"]},
        {"point": ["2", "1", "0", "5"]}, {"point": ["3", "3", "1", "0"]}]},
     {"field": {"Fp": 7}, "ambient": 3,
      "cutting_forms": [["1", "0", "3/2", "0"], ["0", "1", "0", "2"]]},
     "af6769827b7776626f7b3f90410413707b0d0670b4e86145e3bd743ca19f8a55"),
    ({"field": "Q", "ambient": 2, "germs": [
        {"point": ["1", "0", "0"]}, {"point": ["0", "1", "0"]}, {"point": ["0", "0", "1"]},
        {"point": ["1", "1", "1"], "jet": [None, ["1", "1/2"], ["1", "-2"]]},
        {"point": ["2", "-1", "3"]}, {"point": ["3", "6", "-2"]}, {"point": ["4", "10", "6"]}]},
     {"field": "Q", "ambient": 2,
      "cutting_forms": [["1/2", "0", "1/3"], ["0", "3/5", "1"]]},
     "6a9a368b7f81aa154aed74974fe7cafa25b40a89de0f2d02383e2e8854a129eb"),
]


@pytest.mark.parametrize("scheme, center, want_digest", PROJECT_PINNED,
                         ids=["fp7-length-2-germ", "q-two-denominators"])
def test_project_stdout_pinned(scheme, center, want_digest, tmp_path, capsys):
    (tmp_path / "x.json").write_text(json.dumps(scheme))
    (tmp_path / "c.json").write_text(json.dumps(center))
    code, out, _ = run_cli(["project", "--scheme", str(tmp_path / "x.json"),
                            "--center", str(tmp_path / "c.json")], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == want_digest


def test_project_fibers(tmp_path, capsys):
    pts = [reduced_germ(ProjPoint(c))
           for c in [(1, 0, 0, 1), (1, 0, 0, 2), (0, 1, 1, 0), (1, 1, 1, 1)]]
    scheme = tmp_path / "x.json"
    scheme.write_text(scheme_dumps(FiniteScheme(pts)))
    center = _subspace(tmp_path / "c.json", 3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    code, out, _ = run_cli(["project", "--scheme", str(scheme), "--center", center], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == {"1": 3, "2": 1}
    lengths = sorted(f["length"] for f in doc["fibers"])
    assert lengths == [1, 1, 2]
    for f in doc["fibers"]:
        piece = scheme_loads(json.dumps(f["fiber"]))
        assert piece.degree == f["length"]


def test_classify_fiber_golden(tmp_path, capsys):
    scheme = _collinear5(tmp_path / "pts.json")
    code, out, _ = run_cli(["classify-fiber", "--scheme", scheme, "--n", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] == "1.i"
    assert doc["predicted_normality"] == 4
    assert doc["recipe_degree"] == 4
    assert doc["recipe"]["standard"] is False


def test_curve_fiber_golden(tmp_path, capsys):
    curve = _twisted_cubic(tmp_path / "curve.json")
    center = _subspace(tmp_path / "pencil.json", 3, [(1, 0, 0, 0), (0, 0, 0, 1)])
    code, out, _ = run_cli(
        ["curve-fiber", "--curve", curve, "--center", center, "--y", "1:1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 3
    assert doc["germ_lengths"] == [1]
    assert doc["clusters"] == [[2, 1]]
    assert doc["parameters"] == [[["1", "1"], 1]]


def test_curve_fiber_over_a_44_digit_point(tmp_path, capsys):
    # the fiber of the conic (s^2 : t^2 : st) from (0:0:1) over (1 : N) is
    # N s^2 - t^2; N is a product of two 22-digit primes, which the root
    # search must not factor
    curve = tmp_path / "conic.json"
    curve.write_text('{"field":"Q","forms":[["1","0","0"],["0","0","1"],["0","1","0"]]}')
    center = _subspace(tmp_path / "center.json", 2, [(1, 0, 0), (0, 1, 0)])
    n = 10000000000000000001179000000000000000001053
    for y in ("1:6", "1:%d" % n):
        started = time.perf_counter()
        code, out, _ = run_cli(
            ["curve-fiber", "--curve", str(curve), "--center", center, "--y", y], capsys)
        assert time.perf_counter() - started < 5
        assert code == 0
        assert '"clusters":[[2,1]]' in out and '"total":2' in out


def test_curve_section_golden(tmp_path, capsys):
    curve = _twisted_cubic(tmp_path / "curve.json")
    hyp = _subspace(tmp_path / "hyp.json", 3, [(0, 0, 0, 1)])
    code, out, _ = run_cli(["curve-section", "--curve", curve, "--subspace", hyp], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"bound": 3, "length": 3, "nondegenerate": True,
                   "subspace_dim": 2, "within_bound": True}


def test_verify_smoke_and_failure_free(capsys):
    code, out, _ = run_cli(["verify", "--suite", "hilbert_shape", "--trials", "4",
                            "--seed", "11"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["trials"] == 4 and doc["failures"] == []


def test_verify_deterministic_across_jobs(capsys):
    argv = ["verify", "--suite", "prop1_2", "--trials", "6", "--seed", "5"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    _, parallel, _ = run_cli(argv + ["--jobs", "2"], capsys)
    assert first == second == parallel


def test_verify_prime_field(capsys):
    code, out, _ = run_cli(["verify", "--suite", "invariance", "--trials", "3",
                            "--seed", "2", "--field", "fp:10007"], capsys)
    assert code == 0 and json.loads(out)["passed"] is True


def test_verify_trials_over_the_cap_exit_two_before_the_harness_loads():
    # in a fresh process, so that the harness is not already imported;
    # exit 99 would mean the cap was checked after the import
    probe = ("import sys; from zeroreg.cli import main; code = main(sys.argv[1:]); "
             "sys.exit(99 if 'zeroreg.harness' in sys.modules else code)")
    argv = ["verify", "--suite", "prop1_2", "--trials", str(cli.MAX_TRIALS + 1)]
    proc = subprocess.run([sys.executable, "-c", probe] + argv,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: --trials must be <= %d, got %d\n" % (
        cli.MAX_TRIALS, cli.MAX_TRIALS + 1)


def test_usage_errors_exit_two(tmp_path, capsys):
    code, _, err = run_cli(["hilbert", "--scheme", str(tmp_path / "nope.json"),
                            "--max-degree", "3"], capsys)
    assert code == 2 and "cannot read" in err

    bad = tmp_path / "bad.json"
    bad.write_text('{"bad": 1}')
    code, _, err = run_cli(["hilbert", "--scheme", str(bad), "--max-degree", "3"], capsys)
    assert code == 2 and "scheme" in err

    code, _, err = run_cli(["bounds", "--dim", "0", "--degree", "3", "--codim", "1"], capsys)
    assert code == 2 and "positive" in err

    scheme = _collinear5(tmp_path / "pts.json")
    code, _, err = run_cli(["hilbert", "--scheme", scheme, "--max-degree", "-1"], capsys)
    assert code == 2 and "nonnegative" in err

    code, _, err = run_cli(["verify", "--suite", "flatness", "--trials", "2",
                            "--field", "fp:10007"], capsys)
    assert code == 2 and "prime" in err

    code, _, err = run_cli(["verify", "--suite", "prop1_2", "--trials", "0"], capsys)
    assert code == 2

    code, out, err = run_cli(["verify", "--suite", "prop1_2", "--trials", "2",
                              "--jobs", "0"], capsys)
    assert code == 2 and out == "" and "--jobs must be at least 1" in err


def test_argparse_rejections(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify-fiber", "--scheme", "x.json", "--n", "7"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope", "--trials", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "prop1_2", "--trials", "2", "--field", "fp:8"])
    assert exc.value.code == 2
    capsys.readouterr()
    # the commands that take a field share one parser for it
    for argv in (["verify", "--suite", "prop1_2", "--trials", "2"],
                 _LEMMA26_LINE + ["--off", "1:2:3", "--off", "1:5:-1"]):
        for field in ("fp:8", "fp:%d" % (10**4000 + 1), "fp:x", "F7", "fp:1_0_1"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--field", field])
            assert exc.value.code == 2
            assert "argument --field" in capsys.readouterr().err


GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "formats"


def _curve(path, forms):
    path.write_text(canonical_json(curve_to_jsonable(RationalCurve(forms))))
    return str(path)


def _subspace_over_f7(path):
    path.write_text('{"ambient":3,"cutting_forms":[["1","0","0","6"],["0","1","1","6"]],'
                    '"field":{"Fp":7}}')
    return str(path)


def _pencil_from_100(path):
    return _subspace(path, 2, [(0, 1, 0), (0, 0, 1)])


def _coordinate_points(path):
    pts = [reduced_germ(ProjPoint(c)) for c in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    path.write_text(scheme_dumps(FiniteScheme(pts)))
    return str(path)


def _conic_points(path, count):
    path.write_text(scheme_dumps(FiniteScheme(
        [reduced_germ(ProjPoint((1, i, i * i))) for i in range(count)])))
    return str(path)


def _three_variable_recipe(path):
    path.write_text('{"levels":{},"standard":true,"t_count":3}')
    return str(path)


def _plane_germs(path, field, first):
    """A P^2 scheme document: the germ `first` and the point (1:0:0)."""
    path.write_text(json.dumps({"field": field, "ambient": 2,
                                "germs": [first, {"point": ["1", "0", "0"]}]}))
    return ["hilbert", "--scheme", str(path), "--max-degree", "2"]


def _doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _section(d, curve=None, subspace=None):
    """curve-section on the golden curve and subspace, one of them replaced."""
    return ["curve-section",
            "--curve", _doc(d / "c.json", curve) if curve else str(GOLDEN_DIR / "curve.json"),
            "--subspace", _doc(d / "z.json", subspace) if subspace
            else str(GOLDEN_DIR / "subspace.json")]


def _text(path, text):
    path.write_text(text)
    return str(path)


def _separate_with_recipe(d, recipe):
    return ["separate", "--scheme", _coordinate_points(d / "x.json"), "--degree", "3",
            "--recipe", _doc(d / "r.json", recipe)]


_LEMMA26_LINE = ["lemma26", "--aligned", "1,2,3,4", "--a", "1", "--b", "2"]

# Non-generic or malformed input, each as (argv from a scratch directory,
# a fragment of the message): every one must exit 2 with one "error:"
# line on stderr and nothing on stdout
INPUT_ERRORS = {
    "center-meets-curve": (lambda d: [
        "curve-fiber", "--curve", _twisted_cubic(d / "c.json"),
        "--center", _subspace(d / "z.json", 3, [(1, 0, 0, 0), (0, 1, 0, 0)]),
        "--y", "1:1"], "center intersects the curve"),
    # the nodal cubic (s(t^2 - s^2), t(t^2 - s^2), s^3): t = s and t = -s
    # both map to (0:0:1)
    "duplicate-fiber-support": (lambda d: [
        "curve-fiber", "--curve", _curve(d / "c.json", [(-1, 0, 1, 0), (0, -1, 0, 1),
                                                        (1, 0, 0, 0)]),
        "--center", _pencil_from_100(d / "z.json"), "--y", "0:1"], "distinct parameters"),
    # the cuspidal cubic (s t^2, t^3, s^3): the fiber t^3 sits at the cusp
    "non-curvilinear-fiber": (lambda d: [
        "curve-fiber", "--curve", _curve(d / "c.json", [(0, 0, 1, 0), (0, 0, 0, 1),
                                                        (1, 0, 0, 0)]),
        "--center", _pencil_from_100(d / "z.json"), "--y", "0:1"], "not an immersion"),
    "center-meets-scheme": (lambda d: [
        "project", "--scheme", _coordinate_points(d / "x.json"),
        "--center", _pencil_from_100(d / "z.json")], "projection center"),
    "curve-in-subspace": (lambda d: [
        "curve-section", "--curve", str(GOLDEN_DIR / "curve.json"),
        "--subspace", _subspace(d / "z.json", 3, [])], "vanishes on the curve"),
    "lemma26-off-points-in-p1": (lambda d: _LEMMA26_LINE + [
        "--off", "1:2", "--off", "3:4"], "three coordinates"),
    "lemma26-off-points-in-p3": (lambda d: _LEMMA26_LINE + [
        "--off", "1:2:3:4", "--off", "3:4:5:6"], "three coordinates"),
    # the fuzz reaches this case but checks only its exit code
    "curve-over-a-prime-field": (lambda d: _section(d, curve={
        "field": {"Fp": 7}, "forms": [["1", "0"], ["0", "1"]]}),
        "rational curves are supported over Q only"),
    "curve-fiber-y-in-p2": (lambda d: [
        "curve-fiber", "--curve", str(GOLDEN_DIR / "curve.json"),
        "--center", str(GOLDEN_DIR / "subspace.json"), "--y", "1:2:3"],
        "two coordinates, got 3"),
    "invariant-t-over-the-cap": (lambda d: [
        "invariant-t", "--scheme", _conic_points(d / "x.json", 13)], "enumeration cap 12"),
    # a reduced germ whose explicit chart is a zero coordinate of its point
    "reduced-germ-chart-on-a-zero-coordinate": (lambda d: _plane_germs(
        d / "x.json", "Q", {"point": ["0", "1", "2"], "chart": 0}), "chart coordinate vanishes"),
    "reduced-germ-chart-on-a-zero-coordinate-fp": (lambda d: _plane_germs(
        d / "x.json", {"Fp": 7}, {"point": ["0", "1", "2"], "chart": 0}),
        "chart coordinate vanishes"),
    # a germ with a jet whose explicit chart is a zero coordinate of its point
    "germ-jet-chart-on-a-zero-coordinate": (lambda d: _plane_germs(
        d / "x.json", "Q", {"point": ["0", "1", "2"], "chart": 0,
                            "jet": [None, ["1", "1"], ["2", "0"]]}),
        "chart coordinate vanishes at the support point"),
    # a JSON boolean is not a coordinate index, though bool subclasses int
    "chart-true": (lambda d: _plane_germs(
        d / "x.json", "Q", {"point": ["0", "1", "2"], "chart": True}), "coordinate index"),
    "chart-true-with-a-jet": (lambda d: _plane_germs(
        d / "x.json", "Q", {"point": ["0", "1", "2"], "chart": True,
                            "jet": [["0", "1"], None, ["2", "0"]]}), "coordinate index"),
    # the center's forms would be read as ints of the scheme's field
    "project-center-over-another-field": (lambda d: [
        "project", "--scheme", _coordinate_points(d / "x.json"),
        "--center", _doc(d / "z.json", {"field": {"Fp": 7}, "ambient": 2,
                                        "cutting_forms": [["1", "1", "0"], ["0", "1", "1"]]})],
        "different fields"),
    "curve-fiber-center-over-fp": (lambda d: [
        "curve-fiber", "--curve", _twisted_cubic(d / "c.json"),
        "--center", _subspace_over_f7(d / "z.json"), "--y", "1:1"], "different fields"),
    "separate-over-the-work-budget": (lambda d: [
        "separate", "--scheme", _long_germ(d / "x.json", 16), "--degree", "10000"],
        "<= %d, got 2570000" % cli.SEPARATE_BUDGET),
    "curve-fiber-over-the-degree-cap": (lambda d: [
        "curve-fiber", "--curve", _curve(d / "c.json", [
            (1,) + (0,) * (jsonio.CURVE_MAX_DEGREE + 1), (0,) * (jsonio.CURVE_MAX_DEGREE + 1) + (1,)]),
        "--center", _subspace(d / "z.json", 1, [(1, 0), (0, 1)]), "--y", "1:1"],
        "curve degree must be <= %d" % jsonio.CURVE_MAX_DEGREE),
    "scheme-over-the-degree-cap": (lambda d: [
        "regularity", "--scheme", _conic_points(d / "x.json", jsonio.SCHEME_MAX_DEGREE + 1)],
        "scheme degree must be <= %d, got %d" % (jsonio.SCHEME_MAX_DEGREE,
                                                 jsonio.SCHEME_MAX_DEGREE + 1)),
    # a document must use JSON arrays for its lists: a number is no list,
    # and a string is not read as one ("100" is not (1:0:0)), while a
    # boolean is not a count or an exponent
    "scheme-germs-a-number": (lambda d: ["hilbert", "--scheme", _doc(
        d / "x.json", {"field": "Q", "ambient": 2, "germs": 5}), "--max-degree", "2"], "germs must be a JSON array"),
    "germ-point-a-number": (lambda d: _plane_germs(
        d / "x.json", "Q", {"point": 12}), "point must be a JSON array"),
    "germ-point-a-string": (lambda d: _plane_germs(
        d / "x.json", "Q", {"point": "012"}), "point must be a JSON array"),
    "germ-jet-a-number": (lambda d: _plane_germs(
        d / "x.json", "Q", {"point": ["0", "1", "2"], "jet": 5}), "jet must be a JSON array"),
    "scheme-ambient-true": (lambda d: ["hilbert", "--scheme", _doc(
        d / "x.json", {"field": "Q", "ambient": True, "germs": [{"point": ["1", "0"]}]}), "--max-degree", "2"],
        "ambient must be a positive integer"),
    "curve-forms-a-number": (lambda d: _section(d, curve={"forms": 5}),
                             "forms must be a JSON array"),
    "curve-form-a-number": (lambda d: _section(d, curve={"forms": [5, ["0", "1"]]}),
                            "a form must be a JSON array"),
    "curve-forms-strings": (lambda d: _section(
        d, curve={"forms": ["1000", "0100", "0010", "0001"]}), "a form must be a JSON array"),
    "center-cutting-forms-a-number": (lambda d: _section(
        d, subspace={"ambient": 3, "cutting_forms": 5}), "cutting_forms must be a JSON array"),
    "center-cutting-form-a-number": (lambda d: _section(
        d, subspace={"ambient": 3, "cutting_forms": [5, ["0", "1", "0", "0"]]}),
        "a form must be a JSON array"),
    "center-ambient-true": (lambda d: _section(
        d, subspace={"ambient": True, "cutting_forms": [["1", "1"]]}),
        "ambient must be a positive integer"),
    "recipe-level-a-number": (lambda d: _separate_with_recipe(
        d, {"levels": {"3": 5}, "standard": True, "t_count": 2}),
        "level 3 must be a JSON array"),
    "recipe-t-count-true": (lambda d: _separate_with_recipe(
        d, {"levels": {}, "standard": True, "t_count": True}),
        "t_count must be a positive integer"),
    "recipe-exponent-true": (lambda d: _separate_with_recipe(
        d, {"levels": {"3": [[[[True, 2], "1"]]]}, "standard": True, "t_count": 2}),
        "exponents must be nonnegative integers"),
    # one scalar grammar over every field: no exponent (which would
    # expand to 100,001 digits), no decimal, no sign after the "/"
    "lemma26-exponent-scalar": (lambda d: [
        "lemma26", "--aligned", "1,2,3,4", "--a", "1e100000", "--b", "1",
        "--off", "1:2:3", "--off", "1:5:-1"], "bad scalar '1e100000'"),
    "scheme-decimal-scalar": (lambda d: _plane_germs(
        d / "x.json", "Q", {"point": ["3.5", "1", "0"]}), "bad scalar '3.5'"),
    "lemma26-off-signed-denominator-fp": (lambda d: _LEMMA26_LINE + [
        "--off", "1:-3/-4:1", "--off", "1:5:-1", "--field", "fp:7"], "bad scalar '-3/-4'"),
    "recipe-level-key-with-a-leading-zero": (lambda d: _separate_with_recipe(
        d, {"levels": {"03": [[[[3, 0], "1"]]]}, "standard": True, "t_count": 2}),
        "level key '03' is not an integer"),
    "recipe-repeated-exponent": (lambda d: _separate_with_recipe(
        d, {"levels": {"3": [[[[3, 0], "1"], [[3, 0], "2"]]]}, "standard": True, "t_count": 2}),
        "exponents [3, 0] repeat in a form"),
    "lemma26-off-point-all-zero": (lambda d: _LEMMA26_LINE + [
        "--off", "0:0:0", "--off", "1:5:-1"], "bad point '0:0:0'"),
    "curve-fiber-y-zero": (lambda d: [
        "curve-fiber", "--curve", str(GOLDEN_DIR / "curve.json"),
        "--center", str(GOLDEN_DIR / "subspace.json"), "--y", "0:0"],
        "(0 : 0) is not a point of the target line"),
    # an object names each key once, and only keys its kind knows; a
    # field modulus is an integer in the scalar grammar
    "germ-repeated-key": (lambda d: ["hilbert", "--scheme", _text(
        d / "x.json", '{"field":"Q","ambient":2,"germs":[{"point":["1","0","0"],'
                      '"point":["0","1","0"]}]}'), "--max-degree", "2"],
        "key 'point' repeats in an object"),
    "scheme-modulus-with-underscores": (lambda d: _plane_germs(
        d / "x.json", {"Fp": "1_0_1"}, {"point": ["0", "1", "2"]}), "bad scalar '1_0_1'"),
    "scheme-modulus-true": (lambda d: _plane_germs(
        d / "x.json", {"Fp": True}, {"point": ["0", "1", "2"]}), "bad scalar True"),
    "center-unknown-key": (lambda d: _section(
        d, subspace={"ambient": 3, "cutting_forms": [["1", "1", "0", "0"]],
                     "feild": {"Fp": 7}}), "unknown subspace keys ['feild']"),
    "recipe-unknown-key": (lambda d: _separate_with_recipe(
        d, {"levels": {}, "standrad": False, "t_count": 2}), "unknown recipe keys ['standrad']"),
    "separate-recipe-wider-than-the-space": (lambda d: [
        "separate", "--scheme", _coordinate_points(d / "x.json"), "--degree", "2",
        "--recipe", _three_variable_recipe(d / "r.json")], "3 tangent variables"),
}


@pytest.mark.parametrize("name, via_module",
                         [(name, False) for name in sorted(INPUT_ERRORS)]
                         + [("non-curvilinear-fiber", True)])
def test_input_errors_exit_two(name, via_module, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REGLAB_CAP", raising=False)
    build, fragment = INPUT_ERRORS[name]
    argv = build(tmp_path)
    if via_module:
        proc = subprocess.run([sys.executable, "-m", "zeroreg"] + argv,
                              capture_output=True, text=True)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    lambda d: ["invariant-t", "--scheme", _square4(d / "sq.json")],
    lambda d: ["verify", "--suite", "cor1_3b", "--trials", "1"],
], ids=["invariant-t", "verify"])
def test_a_non_integer_enumeration_cap_is_named(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REGLAB_CAP", "abc")
    code, out, err = run_cli(argv(tmp_path), capsys)
    assert code == 2 and out == ""
    assert err == "error: REGLAB_CAP must be an integer, got 'abc'\n"


GOLDEN_COMMANDS = {
    "hilbert.json": ["hilbert", "--scheme", str(GOLDEN_DIR / "scheme.json"),
                     "--max-degree", "4"],
    "regularity.json": ["regularity", "--scheme", str(GOLDEN_DIR / "scheme.json")],
    "bounds.json": ["bounds", "--dim", "5", "--degree", "12", "--codim", "4"],
    "curve-fiber.json": ["curve-fiber", "--curve", str(GOLDEN_DIR / "curve.json"),
                         "--center", str(GOLDEN_DIR / "subspace.json"),
                         "--y", "1:1"],
    "verify.json": ["verify", "--suite", "prop1_2", "--trials", "8",
                    "--seed", "42"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_outputs_stay_current(name, capsys):
    code, out, _ = run_cli(GOLDEN_COMMANDS[name], capsys)
    assert code == 0
    assert out == (GOLDEN_DIR / "outputs" / name).read_text()


def test_golden_inputs_parse():
    scheme = scheme_loads((GOLDEN_DIR / "scheme.json").read_text())
    assert scheme.degree == 5 and scheme.ambient == 3
    from zeroreg.jsonio import curve_loads, recipe_loads, subspace_loads
    curve = curve_loads((GOLDEN_DIR / "curve.json").read_text())
    assert curve.degree == 3
    sub = subspace_loads((GOLDEN_DIR / "subspace.json").read_text())
    assert sub.dim == 1
    recipe = recipe_loads((GOLDEN_DIR / "recipe.json").read_text())
    assert recipe.levels() == [0, 1, 2, 3, 4]


def test_cli_suite_choices_are_the_harness_suites():
    assert cli.SUITE_NAMES == harness.SUITE_NAMES == tuple(sorted(harness._TRIALS))


# stdout digests recorded while `cli` still imported the harness at
# module level; argparse wraps help text to COLUMNS
HELP_PINNED = [
    (["--help"], "b781fa7797dbc697c638da47c805a9e4af7e6840e68a0d33de1a580d046219d3"),
    (["verify", "--help"], "6daa396bfc1ba4e4662d902bd3627148c34e30e53ba59ba782d9fefc79073dfb"),
]


@pytest.mark.parametrize("argv, want_digest", HELP_PINNED, ids=["main", "verify"])
def test_help_stdout_pinned(argv, want_digest, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == want_digest


@pytest.mark.parametrize("module, absent", [
    ("zeroreg.cli", ("zeroreg.harness", "concurrent.futures", "multiprocessing")),
    ("zeroreg.harness", ("concurrent.futures", "multiprocessing")),
], ids=["cli", "harness"])
def test_a_fresh_import_leaves_out_what_only_verify_needs(module, absent):
    probe = "import sys, %s; print([m for m in %r if m in sys.modules])" % (module, absent)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_module_invocation_subprocess(tmp_path):
    scheme = _collinear5(tmp_path / "pts.json")
    proc = subprocess.run(
        [sys.executable, "-m", "zeroreg", "hilbert", "--scheme", scheme,
         "--max-degree", "5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == '{"phi":[1,2,3,4,5,5]}\n'
    proc = subprocess.run(
        [sys.executable, "-m", "zeroreg", "bounds", "--dim", "5", "--degree", "12",
         "--codim", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == '{"bel":44,"best_known":19,"eisenbud_goto":9}\n'
