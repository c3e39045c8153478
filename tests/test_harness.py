"""Tests for the seeded generators and verification suites."""

import ast
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroreg.exactalg import QQ, Matrix, prime_field
from zeroreg.forms import form_values
from zeroreg.harness import (
    GenerationExhausted,
    GeneratorSpec,
    SuiteReport,
    SUITE_NAMES,
    _CONIC_RECIPE,
    _FIBER_TYPES,
    _TRIALS,
    _build_scheme,
    _conic_scheme,
    _gen_fiber_instance,
    _redraw,
    _Redraws,
    _Retry,
    gen_scheme,
    run_suite,
    trial_seed,
    worker_count,
)
from zeroreg.jsonio import (
    canonical_json,
    recipe_to_jsonable,
    scheme_dumps,
    scheme_from_jsonable,
    scheme_to_jsonable,
)
from zeroreg.normality import min_normal_degree
from zeroreg.projection import classify_fiber, recipe_for_fiber
from zeroreg.scheme import (
    FiniteScheme,
    ProjPoint,
    invariant_t,
    max_collinear_length,
    reduced_germ,
)
from zeroreg.separation import recipe_separates


# ---------------------------------------------------------------------------
# seeding


def test_trial_seed_frozen_values():
    assert [trial_seed(42, i) for i in range(4)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
    ]
    assert trial_seed(0, 0) == 16294208416658607535


def test_trial_seed_wraps_at_64_bits():
    assert trial_seed(2**63, 0) == 5196802822362493915
    assert trial_seed(2**64, 0) == trial_seed(0, 0)


@given(st.integers(0, 2**64 - 1), st.integers(0, 10_000))
def test_trial_seed_in_range(master, index):
    assert 0 <= trial_seed(master, index) < 2**64


def test_trial_seeds_distinct_along_a_run():
    seeds = [trial_seed(42, i) for i in range(2000)]
    assert len(set(seeds)) == 2000


# ---------------------------------------------------------------------------
# generator spec validation


def test_spec_rejects_inconsistent_features():
    with pytest.raises(ValueError):
        GeneratorSpec(3, degree=6, collinear=1)
    with pytest.raises(ValueError):
        GeneratorSpec(3, degree=6, collinear=7)
    with pytest.raises(ValueError):
        GeneratorSpec(3, degree=6, collinear=4, general_position=True)
    with pytest.raises(ValueError):
        GeneratorSpec(3, degree=6, secant=True)
    with pytest.raises(ValueError):
        GeneratorSpec(3, degree=6, collinear=3, secant=True, max_germ_length=1)
    with pytest.raises(ValueError):
        GeneratorSpec(3, degree=0)
    with pytest.raises(ValueError):
        GeneratorSpec(3, degree=6, box=(4, 4))


def test_spec_rejects_general_position_above_enumeration_cap():
    with pytest.raises(ValueError):
        GeneratorSpec(3, degree=50, general_position=True)


# ---------------------------------------------------------------------------
# planted features


def test_planted_collinear_is_exact():
    x = gen_scheme(GeneratorSpec(3, degree=6, collinear=4, seed=11))
    assert x.degree == 6
    assert max_collinear_length(x) == 4


def test_general_position_reaches_the_top_level():
    x = gen_scheme(GeneratorSpec(3, degree=7, general_position=True, seed=3))
    assert invariant_t(x) == 3


def test_planted_secant_routes_a_germ_along_the_line():
    x = gen_scheme(
        GeneratorSpec(3, degree=7, collinear=4, secant=True, max_germ_length=2,
                      seed=23)
    )
    assert max_collinear_length(x) == 4
    assert any(g.length >= 2 for g in x.germs)


def test_gen_scheme_is_deterministic():
    spec = GeneratorSpec(4, degree=8, collinear=5, max_germ_length=2, seed=99)
    a = gen_scheme(spec)
    b = gen_scheme(spec)
    assert scheme_dumps(a) == scheme_dumps(b)


def test_gen_scheme_over_a_prime_field():
    x = gen_scheme(GeneratorSpec(2, degree=5, collinear=3, field=prime_field(10007),
                                 seed=8))
    assert x.degree == 5
    assert max_collinear_length(x) == 3


def test_gen_scheme_reports_exhaustion():
    # a projective line over F_3 has four points; five distinct collinear
    # supports can never be realized
    with pytest.raises(GenerationExhausted, match="misses: degenerate draw 200$"):
        gen_scheme(GeneratorSpec(2, degree=5, collinear=5,
                                 field=prime_field(3), seed=1))


def test_exhaustion_names_the_missed_feature():
    # the eight F_7-points of the rational normal curve in P^4 do reach
    # independence level 4, but none of the 200 random draws of this
    # trial does: the exhaustion comes from random sampling, not from
    # the field
    (failure,) = run_suite("cor1_3b", 1, 12345, prime=7).failures
    assert failure["message"] == (
        "generator exhausted: could not realize the planted features (ambient 4, "
        "degree 8, collinear None); misses: general position 200")


@given(st.integers(0, 2**32))
@settings(max_examples=20, deadline=None)
def test_random_plants_always_verify(seed):
    x = gen_scheme(GeneratorSpec(3, degree=6, collinear=3, max_germ_length=2,
                                 seed=seed))
    assert max_collinear_length(x) == 3


# ---------------------------------------------------------------------------
# the counted redraw loop


def _attempts(*outcomes):
    """An attempt that raises or returns the given outcomes in turn, and
    the list of the calls made."""
    calls = []

    def attempt():
        outcome = outcomes[len(calls)]
        calls.append(outcome)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    return attempt, calls


def test_redraw_counts_one_bump_per_retry():
    log = _Redraws()
    attempt, calls = _attempts(_Retry(), _Retry(), _Retry(), "drawn")
    assert _redraw(log, attempt, GenerationExhausted("never")) == "drawn"
    assert log.count == 3 and len(calls) == 4


def test_redraw_raises_the_given_exhaustion_after_its_tries():
    log = _Redraws()
    attempt, calls = _attempts(*[_Retry()] * 8)
    with pytest.raises(GenerationExhausted, match="^out of draws$"):
        _redraw(log, attempt, GenerationExhausted("out of draws"), tries=7)
    assert log.count == 7 and len(calls) == 7


def test_redraw_names_the_reasons_of_its_misses():
    # each retry counts; the named ones are tallied in first-seen order
    log = _Redraws()
    attempt, calls = _attempts(_Retry("a"), _Retry("b"), _Retry("a"), _Retry())
    with pytest.raises(GenerationExhausted) as exhausted:
        _redraw(log, attempt, GenerationExhausted("x"), tries=4)
    assert str(exhausted.value) == "x; misses: a 2, b 1"
    assert log.count == 4 and len(calls) == 4


def test_redraw_passes_an_inner_exhaustion_through_uncounted():
    # a curve generator exhausted inside a Mather attempt ends the trial
    log = _Redraws()
    attempt, calls = _attempts(_Retry(), GenerationExhausted("no curve"), "drawn")
    with pytest.raises(GenerationExhausted, match="^no curve$"):
        _redraw(log, attempt, GenerationExhausted("no center"), tries=20)
    assert log.count == 1 and len(calls) == 2


def test_an_exhausted_inner_redraw_is_one_outer_redraw():
    # the Mather shape: a curve on which every center fails is redrawn,
    # and each failed center and each redrawn curve counts once
    log = _Redraws()
    centers, calls = _attempts(*[_Retry()] * 10, "center")

    def curve_then_centers():
        return _redraw(log, centers, _Retry(), tries=5)

    assert _redraw(log, curve_then_centers, GenerationExhausted("x"), tries=20) == "center"
    assert log.count == 2 * (5 + 1) and len(calls) == 11


def _bump_sites(tree):
    """The qualified name of the function around each `.bump(` call, in
    source order."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "bump"):
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_the_bump_check_sees_a_new_counting_site():
    tree = ast.parse("def f(log):\n    def attempt():\n        log.bump()\n"
                     "    return attempt\nclass C:\n    def g(self):\n        self.log.bump()\n")
    assert _bump_sites(tree) == ["f.attempt", "C.g"]


def test_redraws_are_counted_in_one_place():
    # _redraw is the one counted loop; gen_scheme names its misses by
    # feature through the reasons its retries carry
    path = Path(__file__).resolve().parent.parent / "src" / "zeroreg" / "harness.py"
    assert _bump_sites(ast.parse(path.read_text(), str(path))) == ["_redraw"]


# ---------------------------------------------------------------------------
# the conic fiber family


def _conic_points(rows, taus):
    germs = []
    for t in taus:
        p = ProjPoint(tuple(r[0] + r[1] * t + r[2] * t * t for r in rows), QQ)
        germs.append(reduced_germ(p, QQ))
    return FiniteScheme(germs, QQ)


def test_conic_family_rejects_the_axis_frame():
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    x = _conic_points(rows, [-3, -1, 0, 1, 2, 4])
    assert not recipe_separates(x, _CONIC_RECIPE, 3)
    assert min_normal_degree(x) == 3


def test_conic_family_separates_a_generic_frame():
    rows = [(1, 1, 1), (0, 1, 1), (1, 0, 1)]
    for taus in ([-4, -2, 0, 1, 3, 5], [-9, -5, -1, 2, 6, 8], [0, 1, 2, 3, 4, 5]):
        assert recipe_separates(_conic_points(rows, taus), _CONIC_RECIPE, 3)


@pytest.mark.parametrize("with_germ", [False, True])
def test_conic_frames_are_kept_only_by_the_rank_oracle(with_germ, monkeypatch):
    # an oracle that refuses every frame leaves no instance; it is asked
    # only about built six-unit schemes on honestly quadratic frames
    from zeroreg import harness

    asked = []

    def refuse(x, recipe, k):
        asked.append((x, recipe, k))
        return False

    monkeypatch.setattr(harness, "recipe_separates", refuse)
    with pytest.raises(_Retry):
        _conic_scheme(random.Random(3), QQ, with_germ)
    assert 0 < len(asked) <= 80
    assert all(x.degree == 6 and recipe is _CONIC_RECIPE and k == 3 for x, recipe, k in asked)


# ---------------------------------------------------------------------------
# suite runs


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_smoke(name):
    report = run_suite(name, 8, seed=17)
    assert report.passed, report.failures[:1]
    assert report.suite == name
    assert report.trials == 8


def test_reports_are_deterministic_and_job_independent():
    a = run_suite("prop1_2", 24, seed=7)
    b = run_suite("prop1_2", 24, seed=7)
    c = run_suite("prop1_2", 24, seed=7, jobs=2)
    assert canonical_json(a.to_jsonable()) == canonical_json(b.to_jsonable())
    assert canonical_json(a.to_jsonable()) == canonical_json(c.to_jsonable())


def test_worker_count_is_clamped_to_trials_and_cpus(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert worker_count(1, 100) == 1
    assert worker_count(3, 100) == 3
    assert worker_count(64, 100) == 4
    assert worker_count(64, 2) == 2
    assert worker_count(10**9, 10**6) == 4
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert worker_count(8, 100) == 1
    for bad in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            worker_count(bad, 10)


def test_report_json_shape_omits_wall_time():
    report = run_suite("lemma3_1", 5, seed=3)
    doc = report.to_jsonable()
    assert sorted(doc) == ["failures", "passed", "redraws", "suite", "trials"]
    assert report.wall_seconds > 0


def test_prime_field_run_includes_the_rational_cross_check():
    report = run_suite("lemma2_6", 12, seed=5, prime=10007)
    assert report.passed


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError):
        run_suite("secant_dreams", 5, seed=1)
    with pytest.raises(ValueError):
        run_suite("prop1_2", 0, seed=1)


def test_curve_suites_are_rational_only():
    for name in ("flatness", "lemma3_1", "mather_consistency"):
        with pytest.raises(ValueError):
            run_suite(name, 5, seed=1, prime=10007)


def test_failed_report_shape():
    report = SuiteReport("prop1_2", 3, [{"trial": 1, "seed": 9, "message": "x"}], 0)
    assert not report.passed
    assert not report.to_jsonable()["passed"]


# one oracle per suite, replaced in the harness's namespace by one that
# contradicts the checked property on every trial; the start of the
# failure message, and whether the failure carries a scheme artifact
_BROKEN_ORACLES = {
    "prop1_2": ("hilbert_function", lambda x, k: -1,
                "not k-normal above the threshold", True),
    "lemma2_6": ("separator_monomial_basis", lambda n: (),
                 "separator solver postcondition failed", True),
    "fiber_cases": ("min_normal_degree", lambda x: -1,
                    "minimal normality degree -1 does not match", True),
    "flatness": ("curve_fiber", lambda curve, center, y: SimpleNamespace(total=0),
                 "fiber total [0, 0, 0, 0, 0] differs", False),
}


@pytest.mark.parametrize("name", sorted(_BROKEN_ORACLES))
def test_a_broken_oracle_fails_every_trial(name, monkeypatch, capsys):
    from zeroreg import harness
    from zeroreg.cli import main

    oracle, broken, message, has_artifact = _BROKEN_ORACLES[name]
    monkeypatch.setattr(harness, oracle, broken)
    report = run_suite(name, 3, seed=5)
    assert not report.passed and not report.to_jsonable()["passed"]
    assert [f["trial"] for f in report.failures] == [0, 1, 2]
    for failure in report.failures:
        assert failure["seed"] == trial_seed(5, failure["trial"])
        assert failure["message"].startswith(message)
        assert ("artifact" in failure) == has_artifact
        if has_artifact:
            scheme_from_jsonable(failure["artifact"])
    assert main(["verify", "--suite", name, "--trials", "3", "--seed", "5"]) == 1
    assert capsys.readouterr().out == canonical_json(report.to_jsonable())


def test_a_solver_value_error_is_not_a_redraw(monkeypatch):
    # only SeparatorConfig's ValueError and DegenerateConfiguration are
    # degenerate draws; any other error of the solver surfaces
    from zeroreg import harness

    def broken(config):
        raise ValueError("solver bug")

    monkeypatch.setattr(harness, "separator_forms", broken)
    with pytest.raises(ValueError, match="solver bug"):
        run_suite("lemma2_6", 3, seed=5)


# solvers that hand each point another point's separator: the next
# point's, or point 0's for every point
_MISPLACED_SEPARATORS = {
    "rotated": lambda vectors: vectors[1:] + vectors[:1],
    "first": lambda vectors: vectors[:1] * len(vectors),
}


@pytest.mark.parametrize("misplace", sorted(_MISPLACED_SEPARATORS))
@pytest.mark.parametrize("prime", [None, 11])
def test_misplaced_separators_are_ranked_like_their_scalar_rows(misplace, prime,
                                                                monkeypatch):
    # the zero pattern is not diagonal, and the rank the check takes of
    # its int rows must be that of the scalar values on the lead-1 coords
    from zeroreg import harness, separation

    field = QQ if prime is None else prime_field(prime)
    solved = []

    def misplaced(config):
        mons, vectors = separation.separator_forms(config)
        solved.append(config)
        return mons, _MISPLACED_SEPARATORS[misplace](vectors)

    monkeypatch.setattr(harness, "separator_forms", misplaced)
    report = run_suite("lemma2_6", 8, seed=5, prime=prime)
    assert [f["trial"] for f in report.failures] == list(range(8))
    for failure in report.failures:
        assert failure["message"] == "separator solver postcondition failed"
        assert failure["confined"] is True
    for index in range(8):
        solved.clear()
        sig, detail = _TRIALS["lemma2_6"](random.Random(trial_seed(5, index)), field,
                                          index, _Redraws())
        config = solved[-1]
        mons, vectors = separation.separator_forms(config)
        forms = [{m: field.scalar(v, den) for m, v in zip(mons, x) if v}
                 for x, den in _MISPLACED_SEPARATORS[misplace](vectors)]
        rows = form_values(forms, [p.coords for p in config.points], field)
        want = Matrix(rows, field=field).rank()
        assert want == (config.n + 3 if misplace == "rotated" else 1)
        assert sig[3] is False and detail["rank"] == sig[4] == want


def test_curve_suites_share_the_same_curves():
    # the three curve suites draw the curve first from identical streams,
    # so one master seed exercises one family of curves across all three
    import random

    from zeroreg.harness import _draw_curve, _Redraws

    seeds = [trial_seed(42, i) for i in range(5)]
    degrees = []
    for s in seeds:
        curves = [
            _draw_curve(random.Random(s), _Redraws()) for _ in range(3)
        ]
        forms = {c.int_forms for c in curves}
        assert len(forms) == 1
        degrees.append(curves[0].degree)
    assert len(set(degrees)) > 1


def test_mather_redraws_the_curve_when_no_center_is_generic():
    # the first curve of this trial admits no generic plane-projection
    # center within the draw budget; the trial must redraw the curve
    report = run_suite("mather_consistency", 1, 7679948960636915873)
    assert report.passed, report.failures
    assert report.redraws > 200


def test_mather_reports_unchanged_where_the_first_curve_suffices():
    report = run_suite("mather_consistency", 150, 99)
    digest = hashlib.sha256(canonical_json(report.to_jsonable()).encode()).hexdigest()
    assert digest == "d34263b5ea15a85442c4546a347b00a443e16e6537d25369af0b2f5cbb6cdde5"


# sha256 of the canonical report of run_suite(suite, 20, 11, prime=P):
# every suite over Q, the non-curve suites over F_7 and F_(2^31-1).  The
# F_7 runs end in 16 exhausted generators, so the pins cover redraw
# counts and exhaustion messages as well as verdicts.
_PINNED_REPORTS = {
    (None, "cor1_3a"): "27342359cff398014a3b732b60b4052f49bd637b3b634a1f2a5fc6959269ea26",
    (None, "cor1_3b"): "80ffaaf0ebdb2c07933e76efae51e51a7be2f40b005eecc4c9ccba3eaf7f15e1",
    (None, "fiber_cases"): "485b5447b0c365d0dcee806d82150175d69dde5afa6dce8b3079d9f93fa1d29e",
    (None, "flatness"): "56a13048ec0cace624070029e61ac83de1be8456bbc2939c6047bb8380d93047",
    (None, "hilbert_shape"): "f044f70b2ef10c2f5e7083b9fa66c8e0f41a975e883681d98f38b4bc7c0ad8f9",
    (None, "invariance"): "29d17805ae9baab079d8ca7039516f45448f300a384f9d09d74d7c5abc598d0a",
    (None, "lemma2_6"): "4b705ad0a3c27381fdd2923020b940870036285203cb9ee006682db8a67fcee4",
    (None, "lemma3_1"): "edb5c7061d38a91d79ac872ae1130e80cb1d5c637d9b03a1ee40f34750b48b93",
    (None, "mather_consistency"): "c5da9a08a14c5a2540e13421bc226a6c2ebd2a56d1644ef21788812e91510f90",
    (None, "prop1_2"): "63bf2c329b2fa86855109fe8a6c3a4ff7d7e52cf1bac55eef0b2ee0f1a984bef",
    (7, "cor1_3a"): "37b92d376d8247c7bffaa1603e82e07d746706707d227b0b186e64db7ea0a035",
    (7, "cor1_3b"): "fd344119e7e3270d295029aa71478bf602479cdb38a1311b090f4f3e36cd65f9",
    (7, "fiber_cases"): "6c9258c83688c965f8378ce0487460de9413befc515dde294b336988e2a3d986",
    (7, "hilbert_shape"): "c99e8c89e35681e0ea33b92e8acc5ed45041c7bab6f700f4b65282f170f04e02",
    (7, "invariance"): "a402087cfdf2ca1a541b3213a6f48af79dcf3d397440a00b2f972e79dbd0ff45",
    (7, "lemma2_6"): "3c0e6598c772041caa9ceeb718e2f56c97f6f95e993545dd2fbc632f808db609",
    (7, "prop1_2"): "b7d22fc154a0304597d3980e1be74b6285835a4fbf81666e798a274e5a09dd27",
    (2147483647, "cor1_3a"): "27342359cff398014a3b732b60b4052f49bd637b3b634a1f2a5fc6959269ea26",
    (2147483647, "cor1_3b"): "80ffaaf0ebdb2c07933e76efae51e51a7be2f40b005eecc4c9ccba3eaf7f15e1",
    (2147483647, "fiber_cases"): "485b5447b0c365d0dcee806d82150175d69dde5afa6dce8b3079d9f93fa1d29e",
    (2147483647, "hilbert_shape"): "f044f70b2ef10c2f5e7083b9fa66c8e0f41a975e883681d98f38b4bc7c0ad8f9",
    (2147483647, "invariance"): "29d17805ae9baab079d8ca7039516f45448f300a384f9d09d74d7c5abc598d0a",
    (2147483647, "lemma2_6"): "4b705ad0a3c27381fdd2923020b940870036285203cb9ee006682db8a67fcee4",
    (2147483647, "prop1_2"): "63bf2c329b2fa86855109fe8a6c3a4ff7d7e52cf1bac55eef0b2ee0f1a984bef",
}


def test_suite_reports_pinned():
    digests = {}
    for prime, name in _PINNED_REPORTS:
        report = run_suite(name, 20, 11, prime=prime)
        digests[prime, name] = hashlib.sha256(
            canonical_json(report.to_jsonable()).encode()).hexdigest()
    assert digests == _PINNED_REPORTS


# sha256 of (index, sig, detail) of every trial behind _PINNED_REPORTS,
# with an exhausted generator recorded by its message.  The reports pin
# failures and redraw counts only; these pin what each trial computed.
_PINNED_TRIALS = {
    (None, "cor1_3a"): "ceb1d2e9bb29340dd3447c331df38e13ca6f2115c599e3a87c9f7956f13c1730",
    (None, "cor1_3b"): "732d0e0d04ca5e7b9dfed46cc69bc3f6c9294d2ed3bb6fa747a2a9834b6be58d",
    (None, "fiber_cases"): "d0721ccfa3595427a36f23a441b807a24ece569bf1513b00ae5f5a9623d274c6",
    (None, "flatness"): "6e10540f603de8d475c512ed4d7af07b46d9287fecd1a7317dbee2f7b4f8b622",
    (None, "hilbert_shape"): "7598cb9712f1c1e546589700f88c615666ea090d13462a769234120c15b4bc34",
    (None, "invariance"): "7503bd14ecb1d4667020498a1744b73c15c6ef9f0604d9298f652b8ece0d5d63",
    (None, "lemma2_6"): "06dce39618b3c474f389cf83745862efb2873b812f55ec5224671b113a7d37b6",
    (None, "lemma3_1"): "21be847fd3c02e3250c73d4272d488b17dec6f99446780aa4a0967f34691e0f2",
    (None, "mather_consistency"): "ce533ef8f1e47a0daef051c7aee15d27a8e23da486e85c8688cf29816bdb2e90",
    (None, "prop1_2"): "789b3c11b34eb522dd372f563d311b703489e983a7ce57fa821450faa096ef44",
    (7, "cor1_3a"): "ceb1d2e9bb29340dd3447c331df38e13ca6f2115c599e3a87c9f7956f13c1730",
    (7, "cor1_3b"): "bea90a0ca0da383f77bd13a632e4faa504d30dab19d2b2e1f3174d54454d3191",
    (7, "fiber_cases"): "d0721ccfa3595427a36f23a441b807a24ece569bf1513b00ae5f5a9623d274c6",
    (7, "hilbert_shape"): "6949cd6f01c3bbd36383620c5b13c8fa75618afc093e947019543ad234b96e2e",
    (7, "invariance"): "0e6a4e010a5b53cccc35e3cf20daa46514c01a0e87f624ec2dd514307c509e12",
    (7, "lemma2_6"): "fffc3577afb31c26f2fc45f1e6afcd32e1cf0abf5af23ee81eb9b30a879e9246",
    (7, "prop1_2"): "a374ff2896b7b279709852a69677ff9c5dc02518670bb4d3db122f3f88fde5fd",
    (2147483647, "cor1_3a"): "ceb1d2e9bb29340dd3447c331df38e13ca6f2115c599e3a87c9f7956f13c1730",
    (2147483647, "cor1_3b"): "732d0e0d04ca5e7b9dfed46cc69bc3f6c9294d2ed3bb6fa747a2a9834b6be58d",
    (2147483647, "fiber_cases"): "d0721ccfa3595427a36f23a441b807a24ece569bf1513b00ae5f5a9623d274c6",
    (2147483647, "hilbert_shape"): "7598cb9712f1c1e546589700f88c615666ea090d13462a769234120c15b4bc34",
    (2147483647, "invariance"): "7503bd14ecb1d4667020498a1744b73c15c6ef9f0604d9298f652b8ece0d5d63",
    (2147483647, "lemma2_6"): "06dce39618b3c474f389cf83745862efb2873b812f55ec5224671b113a7d37b6",
    (2147483647, "prop1_2"): "789b3c11b34eb522dd372f563d311b703489e983a7ce57fa821450faa096ef44",
}


def test_suite_trials_pinned():
    digests = {}
    for prime, name in _PINNED_REPORTS:
        field = QQ if prime is None else prime_field(prime)
        rows = []
        for index in range(20):
            rng = random.Random(trial_seed(11, index))
            try:
                sig, detail = _TRIALS[name](rng, field, index, _Redraws())
            except GenerationExhausted as err:
                sig, detail = None, str(err)
            rows.append([index, sig, detail])
        text = json.dumps(rows, sort_keys=True, separators=(",", ":"), default=str)
        digests[prime, name] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == _PINNED_TRIALS


# sha256 of 20 planted instances of each fiber type, drawn as
# `fiber_cases` draws them at seed 11: redraws, scheme document,
# classify_fiber profile and prescribed recipe.
_PINNED_FIBER_INSTANCES = {
    None: "8ef6c03c56d3e146e3ac8968419a8e1d5f570819eb3846b7972e5da39633f446",
    7: "128031df43d3fb2c4ba7604ee3876a0c2cf2e90028bec77fa02f2d4d05af1c75",
    2147483647: "6c73cbcbdd914eb2dfdd2ac0a5349fe6812a4ff299e3401301b96490df60e773",
}


def test_an_unknown_fiber_type_is_refused():
    with pytest.raises(ValueError, match="unknown fiber type '7.i'"):
        _gen_fiber_instance(random.Random(0), QQ, "7.i")


def test_fiber_instances_pinned():
    digests = {}
    for prime in _PINNED_FIBER_INSTANCES:
        field = QQ if prime is None else prime_field(prime)
        rows = []
        for index in range(20 * len(_FIBER_TYPES)):
            label = _FIBER_TYPES[index % len(_FIBER_TYPES)]
            rng = random.Random(trial_seed(11, index))
            log = _Redraws()
            x, n = _redraw(log, lambda: _gen_fiber_instance(rng, field, label),
                           GenerationExhausted(label))
            profile = classify_fiber(x, n)
            recipe, k = recipe_for_fiber(profile)
            rows.append([label, log.count, scheme_to_jsonable(x), profile.to_jsonable(),
                         recipe_to_jsonable(recipe), k])
        digests[prime] = hashlib.sha256(canonical_json(rows).encode()).hexdigest()
    assert digests == _PINNED_FIBER_INSTANCES


def test_cor1_3a_asks_each_oracle_once_per_trial(monkeypatch):
    # a kept scheme gets its span and its collinear search from the
    # secant verdict alone; the generator's own feature checks (inside
    # gen_scheme) are not counted
    from zeroreg import harness, normality

    counts = {"span_dim": 0, "max_collinear_length": 0}
    generating = []

    def counted(name, original):
        def wrapper(x):
            if not generating:
                counts[name] += 1
            return original(x)

        return wrapper

    for module in (harness, normality):
        for name in counts:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    original_gen = harness.gen_scheme

    def gen(spec, log=None):
        generating.append(spec)
        try:
            return original_gen(spec, log)
        finally:
            generating.pop()

    monkeypatch.setattr(harness, "gen_scheme", gen)
    report = run_suite("cor1_3a", 8, 5)
    assert report.passed, report.failures
    assert counts == {"span_dim": 8, "max_collinear_length": 8}


@pytest.mark.parametrize("max_germ_length", [1, 3])
def test_build_scheme_off_a_line_constructs_no_fraction(max_germ_length, monkeypatch):
    # points and germs are drawn, normalised and checked as plain ints;
    # Fractions appear only when a caller asks for scalars
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    spec = GeneratorSpec(4, degree=9, max_germ_length=max_germ_length, field=QQ)
    built = 0
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for seed in range(30):
        try:
            x = _build_scheme(spec, random.Random(seed))
        except _Retry:
            continue
        built += 1
        assert x.degree == 9
    monkeypatch.undo()
    assert built >= 25 and made == []
