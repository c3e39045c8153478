import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zeroreg.exactalg import prime_field
from zeroreg.jsonio import (
    CURVE_MAX_DEGREE,
    SCHEME_MAX_DEGREE,
    DocumentFormatError,
    canonical_json,
    curve_from_jsonable,
    curve_loads,
    curve_to_jsonable,
    field_from_jsonable,
    form_from_jsonable,
    germ_to_jsonable,
    parse_document,
    recipe_from_jsonable,
    recipe_loads,
    recipe_to_jsonable,
    scheme_dumps,
    scheme_from_jsonable,
    scheme_loads,
    scheme_to_jsonable,
    subspace_from_jsonable,
    subspace_loads,
    subspace_to_jsonable,
)
from zeroreg.projection import RationalCurve
from zeroreg.scheme import (
    FiniteScheme,
    LinearSubspace,
    ProjPoint,
    germ_on_line,
    make_germ,
    reduced_germ,
)
from zeroreg.separation import standard_recipe, t_monomial


def fat_scheme():
    bent = make_germ((1, 0, 0, 0), 0, [(0, 1, 0), (0, 0, 1), (0, 0, 0)])
    return FiniteScheme([
        bent,
        germ_on_line((0, 1, 0, 0), (1, 0, 1, 0), 2),
        reduced_germ((1, 1, 1, 1)),
        reduced_germ((2, 3, Fraction(1, 2), 1)),
    ])


def test_scheme_round_trip_is_byte_identical():
    x = fat_scheme()
    text = scheme_dumps(x)
    again = scheme_loads(text)
    assert scheme_dumps(again) == text
    assert again.degree == x.degree
    assert [g.length for g in again.germs] == [g.length for g in x.germs]
    assert [g.support for g in again.germs] == [g.support for g in x.germs]


def test_scheme_document_shape():
    doc = scheme_to_jsonable(fat_scheme())
    assert doc["field"] == "Q"
    assert doc["ambient"] == 3
    assert len(doc["germs"]) == 4
    first = doc["germs"][0]
    assert first["point"] == ["1", "0", "0", "0"]
    assert first["chart"] == 0
    assert first["jet"][0] is None
    assert first["jet"][1] == ["0", "1", "0"]


def test_reduced_point_document_is_minimal():
    doc = germ_to_jsonable(reduced_germ((0, 2, 4)))
    assert doc == {"point": ["0", "1", "2"]}


def test_fraction_scalars_round_trip():
    text = scheme_dumps(FiniteScheme([reduced_germ((2, 3, Fraction(1, 2)))]))
    assert "\"3/2\"" in text and "\"1/4\"" in text
    back = scheme_loads(text)
    assert back.germs[0].support.coords == (Fraction(1), Fraction(3, 2), Fraction(1, 4))


def test_prime_field_round_trip():
    F = prime_field(101)
    x = FiniteScheme([reduced_germ((1, 5, 9), F), reduced_germ((0, 1, 77), F)])
    text = scheme_dumps(x)
    assert "{\"Fp\":101}" in text
    back = scheme_loads(text)
    assert back.field.modulus == 101
    assert scheme_dumps(back) == text


def test_canonical_json_is_sorted_and_tight():
    assert canonical_json({"b": 1, "a": [1, 2]}) == "{\"a\":[1,2],\"b\":1}\n"


def test_floats_are_rejected():
    with pytest.raises(DocumentFormatError):
        parse_document("{\"field\":\"Q\",\"ambient\":2,\"germs\":[{\"point\":[1.5,0,1]}]}")


def test_bad_documents_are_rejected():
    with pytest.raises(DocumentFormatError):
        scheme_loads("not json at all")
    with pytest.raises(DocumentFormatError):
        scheme_from_jsonable({"field": "Q", "germs": []})
    with pytest.raises(DocumentFormatError):
        scheme_from_jsonable({"field": "R", "ambient": 2, "germs": [{"point": [1, 0, 0]}]})
    with pytest.raises(DocumentFormatError):
        scheme_from_jsonable({"field": "Q", "ambient": 2,
                              "germs": [{"point": [1, 0, 0], "extra": 1}]})
    with pytest.raises(DocumentFormatError):
        scheme_from_jsonable({"field": "Q", "ambient": 3,
                              "germs": [{"point": [1, 0, 0]}]})


def test_jet_chart_slot_must_be_null():
    doc = {"field": "Q", "ambient": 2,
           "germs": [{"point": [1, 0, 0], "chart": 0,
                      "jet": [["1", "0"], ["0", "1"], ["0", "0"]]}]}
    with pytest.raises(DocumentFormatError):
        scheme_from_jsonable(doc)
    doc["germs"][0]["jet"][0] = None
    back = scheme_from_jsonable(doc)
    assert back.germs[0].length == 2


def test_duplicate_supports_are_rejected():
    doc = {"field": "Q", "ambient": 2,
           "germs": [{"point": [1, 0, 0]}, {"point": [2, 0, 0]}]}
    with pytest.raises(DocumentFormatError):
        scheme_from_jsonable(doc)


def test_curve_round_trip():
    # int forms dump as given; Fraction forms dump times their common
    # denominator, the same curve
    for forms, dumped in [
            ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], None),
            ([(Fraction(1, 2), 0), (0, Fraction(-1, 3)), (1, 1)], [[3, 0], [0, -2], [6, 6]])]:
        c = RationalCurve(forms)
        text = canonical_json(curve_to_jsonable(c))
        assert text == canonical_json(
            {"field": "Q", "forms": [[str(v) for v in f] for f in dumped or forms]})
        back = curve_loads(text)
        assert back.int_forms == c.int_forms
        assert canonical_json(curve_to_jsonable(back)) == text


def test_curve_document_rejects_base_points():
    with pytest.raises(DocumentFormatError):
        curve_from_jsonable({"field": "Q", "forms": [[1, 0, 0], [2, 0, 0]]})


def test_curve_document_over_the_degree_cap_is_rejected():
    cap = CURVE_MAX_DEGREE
    assert curve_from_jsonable({"forms": [[1] + [0] * cap, [0] * cap + [1]]}).degree == cap
    with pytest.raises(DocumentFormatError, match="must be <= %d, got %d" % (cap, cap + 1)):
        curve_loads(canonical_json({"forms": [["1"] + ["0"] * (cap + 1), ["0"] * (cap + 1) + ["1"]]}))


def test_scheme_document_over_the_degree_cap_is_rejected():
    # the degree is the sum of the germ lengths, not the number of germs
    cap = SCHEME_MAX_DEGREE
    conic = [{"point": ["1", str(i), str(i * i)]} for i in range(cap)]
    assert scheme_from_jsonable({"field": "Q", "ambient": 2, "germs": conic}).degree == cap
    tangent = {"point": ["0", "0", "1"], "jet": [["0", "1"], ["0", "0"], None]}
    with pytest.raises(DocumentFormatError, match="must be <= %d, got %d" % (cap, cap + 1)):
        scheme_loads(canonical_json({"field": "Q", "ambient": 2, "germs": conic[1:] + [tangent]}))
    with pytest.raises(DocumentFormatError, match="must be <= %d, got %d" % (cap, cap + 1)):
        scheme_loads(canonical_json({"field": "Q", "ambient": 2,
                                     "germs": conic + [{"point": ["0", "0", "1"]}]}))


def test_subspace_round_trip():
    # int forms dump as given, a common factor included; Fraction forms
    # dump cleared by their common denominator and load back equal
    for forms, dumped in [([(1, 0, 0, -1), (0, 2, 4, 0)], None),
                          ([(1, 0, 0, -1), (0, Fraction(1, 3), 1, 0)],
                           [[3, 0, 0, -3], [0, 1, 3, 0]])]:
        sub = LinearSubspace(3, forms)
        text = canonical_json(subspace_to_jsonable(sub))
        assert text == canonical_json({"ambient": 3, "field": "Q", "cutting_forms": [
            [str(v) for v in f] for f in dumped or forms]})
        back = subspace_loads(text)
        assert back.ambient == 3
        assert back.int_forms == sub.int_forms
        assert canonical_json(subspace_to_jsonable(back)) == text


def test_recipe_serialization_is_deterministic():
    r = standard_recipe(extra={3: [t_monomial(2, (3, 0))]})
    doc = recipe_to_jsonable(r)
    assert doc["t_count"] == 2
    assert doc["standard"] is True
    assert doc["levels"] == {"3": [[[[3, 0], "1"]]]}


def test_recipe_round_trip():
    r = standard_recipe(extra={3: [t_monomial(2, (3, 0))], 4: [t_monomial(2, (2, 2))]})
    text = canonical_json(recipe_to_jsonable(r))
    back = recipe_loads(text)
    assert back.t_count == r.t_count
    assert back.standard is True
    assert back.space(3) == r.space(3)
    assert back.space(4) == r.space(4)
    assert canonical_json(recipe_to_jsonable(back)) == text


def test_recipe_document_rejects_bad_shapes():
    with pytest.raises(DocumentFormatError):
        recipe_from_jsonable({"levels": {}})
    with pytest.raises(DocumentFormatError):
        recipe_from_jsonable({"t_count": 0, "levels": {}})
    with pytest.raises(DocumentFormatError):
        recipe_from_jsonable({"t_count": 2, "standard": "yes", "levels": {}})
    with pytest.raises(DocumentFormatError):
        # degree-2 form in the degree-3 slot
        recipe_from_jsonable({"t_count": 2, "levels": {"3": [[[[2, 0], "1"]]]}})


def test_recipe_level_keys_are_canonical_integers():
    form = [[[3, 0], "1"]]
    assert recipe_from_jsonable({"t_count": 2, "levels": {"3": [form]}}).space(3)
    for key in ("03", "3_0", " 3", "+3", "3.0", "three"):
        with pytest.raises(DocumentFormatError, match=re.escape("level key %r is not an integer" % key)):
            recipe_from_jsonable({"t_count": 2, "levels": {key: [form]}})
    # two spellings of one level no longer collapse into the last one
    with pytest.raises(DocumentFormatError, match="level key '03'"):
        recipe_loads('{"t_count":2,"levels":{"3":[[[[3,0],"1"]]],"03":[[[[0,3],"1"]]]}}')


def test_a_form_lists_each_exponent_once():
    assert form_from_jsonable([[[1, 0], "1"], [[0, 1], "2"]]) == {(1, 0): 1, (0, 1): 2}
    with pytest.raises(DocumentFormatError, match=r"exponents \[1, 0\] repeat in a form"):
        form_from_jsonable([[[1, 0], "1"], [[1, 0], "2"]])


def test_document_scalars_are_read_in_the_one_grammar():
    doc = {"field": {"Fp": 7}, "ambient": 2, "germs": [{"point": ["1", "-3/4", 2]}]}
    assert scheme_from_jsonable(doc).germs[0].support.vec == (1, 1, 2)
    for bad in ("3.5", "1e3", "-3/-4", " 3 / 4", True, None):
        for field in ("Q", {"Fp": 7}):
            doc = {"field": field, "ambient": 2, "germs": [{"point": ["1", bad, "0"]}]}
            with pytest.raises(ValueError, match="^bad scalar "):
                scheme_from_jsonable(doc)


def test_an_object_may_not_repeat_a_key():
    with pytest.raises(DocumentFormatError, match="key 'point' repeats in an object"):
        parse_document('{"point":["1","0","0"],"point":["0","1","0"]}')
    with pytest.raises(DocumentFormatError, match="key '3' repeats in an object"):
        recipe_loads('{"t_count":2,"levels":{"3":[[[[3,0],"1"]]],"3":[[[[0,3],"1"]]]}}')
    assert parse_document('{"a":{"b":1},"b":{"a":2}}') == {"a": {"b": 1}, "b": {"a": 2}}


def test_a_field_modulus_is_an_integer_in_the_scalar_grammar():
    for raw in (7, "7", " 7 ", "+7", "7/1"):
        assert field_from_jsonable({"Fp": raw}) is prime_field(7)
    for raw in ("1_0_1", True, "7/2", "7.0", "0x7", None, [7], 8, -7):
        with pytest.raises(DocumentFormatError):
            field_from_jsonable({"Fp": raw})


def test_every_document_kind_refuses_unknown_keys():
    scheme = {"field": "Q", "ambient": 2, "germs": [{"point": ["1", "0", "0"]}]}
    curve = {"forms": [["1", "0"], ["0", "1"]]}
    subspace = {"ambient": 2, "cutting_forms": [["1", "0", "0"]]}
    recipe = {"t_count": 2, "levels": {}}
    for read, doc, what in ((scheme_from_jsonable, scheme, "scheme"),
                            (curve_from_jsonable, curve, "curve"),
                            (subspace_from_jsonable, subspace, "subspace"),
                            (recipe_from_jsonable, recipe, "recipe")):
        read(doc)
        with pytest.raises(DocumentFormatError, match=re.escape("unknown %s keys ['feild']" % what)):
            read(dict(doc, feild={"Fp": 7}))
    germ = {"point": ["1", "0", "0"], "jte": [None, ["0", "1"], ["0", "0"]]}
    with pytest.raises(DocumentFormatError, match=re.escape("unknown germ keys ['jte']")):
        scheme_from_jsonable(dict(scheme, germs=[germ]))
    # a misspelt optional key no longer falls back to its default
    with pytest.raises(DocumentFormatError, match=re.escape("unknown recipe keys ['standrad']")):
        recipe_from_jsonable(dict(recipe, standrad=False))


points3 = st.tuples(*(st.integers(-4, 4) for _ in range(4)))


@given(st.lists(points3.filter(lambda c: any(c)), min_size=1, max_size=6, unique=True))
def test_random_reduced_schemes_round_trip(raw):
    seen, germs = set(), []
    for coords in raw:
        p = ProjPoint(coords)
        if p in seen:
            continue
        seen.add(p)
        germs.append(reduced_germ(p))
    x = FiniteScheme(germs)
    text = scheme_dumps(x)
    assert scheme_dumps(scheme_loads(text)) == text
