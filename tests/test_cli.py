"""End-to-end checks of the command-line interface: golden outputs,
exit codes, and determinism of the verification reports."""

import hashlib
import json
import pathlib
import subprocess
import sys
import time

import pytest

from zeroreg import cli, normality
from zeroreg.cli import main
from zeroreg.jsonio import (
    canonical_json,
    curve_to_jsonable,
    scheme_dumps,
    scheme_loads,
    subspace_to_jsonable,
)
from zeroreg.projection import RationalCurve
from zeroreg.scheme import FiniteScheme, LinearSubspace, ProjPoint, reduced_germ


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
    code, out, _ = run_cli(
        ["bounds", "--dim", "6", "--degree", "9", "--codim", "3", "--on-quadric", "no"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["best_known"] == 9


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
    # in a non-chart coordinate; its powers are cached without recursion
    scheme = tmp_path / "pts.json"
    scheme.write_text('{"field":"Q","ambient":2,'
                      '"germs":[{"point":["0","1","2"]},{"point":["1","1","1"]}]}')
    started = time.perf_counter()
    code, out, _ = run_cli(["separate", "--scheme", str(scheme), "--degree", "3000"], capsys)
    assert time.perf_counter() - started < 20
    assert code == 1
    assert '"family_rank":1' in out and '"separates":false' in out


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


GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "formats"

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
