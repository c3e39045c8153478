"""Reading and writing scheme, curve and subspace documents as JSON.

Scalars travel as exact strings ("5", "-3/4") or integers, read by
`exactalg.parse_scalar` in its one grammar for both fields; floats are
rejected so a document can never smuggle in rounding.  Output is
canonical — sorted keys, no whitespace, one trailing newline — so byte
identity means semantic identity.

A scheme document looks like::

    {"field": "Q" | {"Fp": p},
     "ambient": N,
     "germs": [{"point": [...], "chart": c, "jet": [[...], null, ...]}]}

`chart` may be omitted for the first nonzero coordinate of the point,
and `jet` may be omitted for a reduced (length-1) point.  When present,
`jet` lists one coefficient series per coordinate, with null in the
chart slot (that coordinate is identically 1 on the arc).

Every list of the format is a JSON array (a string is not read as a
list of characters), and every count or index is a JSON integer that
is not a boolean; anything else raises `DocumentFormatError`.  So does
an object that repeats a key or has a key its kind does not know.  A
form lists each exponent tuple once, and a recipe's level keys are
canonical integers ("3", not "03").
"""

from __future__ import annotations

import json

from .exactalg import QQ, parse_prime_field, parse_scalar, scalar_str
from .projection import RationalCurve
from .scheme import CurvilinearGerm, FiniteScheme, LinearSubspace, ProjPoint, make_germ, reduced_germ
from .separation import FormSpaceRecipe


# The largest curve degree a curve document may have.  The gcds under
# `curve-fiber` and `curve-section` (the base-point test, the center
# test, and the squarefree part of the fiber) are primitive PRS in Z[t],
# whose coefficients grow with the degree: `curve-fiber` on a random
# curve in P^3 with coefficients in [-9, 9] takes about 0.1 s at degree
# 40, 0.13 s at 80, 0.65 s at 160, 1.4 s at 200 and 10 s at 320 in a
# fresh process on a 2-core Xeon VM (`curve-section` 0.18 s at 160), and
# longer for longer coefficients.
CURVE_MAX_DEGREE = 160

# The largest scheme degree (the sum of the germ lengths) a scheme
# document may have.  phi ranks vectors in K^d whose integer entries
# grow with the degree k of the forms: on d random points of P^2 with
# coordinates in [-50, 50], `regularity`, `hilbert` and `secant` each
# take about 0.1 s at d = 40, 1.0 s at 80, 2.7 s at 100 and 7 s at 120
# in a fresh process on a 2-core Xeon VM (`project` 0.1 s throughout);
# 20 germs of length 4 take 0.7 s at d = 80, one germ of length 80
# 0.7 s and of length 120 4.6 s.  Longer coordinates take longer.
SCHEME_MAX_DEGREE = 80


class DocumentFormatError(ValueError):
    """A JSON document does not follow the expected layout."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _reject_float(text):
    raise DocumentFormatError(
        "floating-point literal %r: use exact \"p/q\" strings" % text)


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DocumentFormatError("key %r repeats in an object" % key)
        obj[key] = value
    return obj


def parse_document(text: str):
    try:
        return json.loads(text, parse_float=_reject_float, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise DocumentFormatError("not valid JSON: %s" % err) from None


def field_to_jsonable(field):
    if field is QQ:
        return "Q"
    return {"Fp": field.modulus}


def field_from_jsonable(tag):
    if tag == "Q":
        return QQ
    if isinstance(tag, dict) and set(tag) == {"Fp"}:
        try:
            return parse_prime_field(tag["Fp"])
        except ValueError as err:
            raise DocumentFormatError(str(err)) from None
    raise DocumentFormatError("field must be \"Q\" or {\"Fp\": p}, got %r" % (tag,))


def _object(doc, what, required, optional=()):
    """doc, a JSON object with every key in `required` and no key outside
    `required` and `optional`."""
    if not isinstance(doc, dict):
        raise DocumentFormatError("%s must be a JSON object" % what)
    missing = set(required) - set(doc)
    if missing:
        raise DocumentFormatError("%s is missing keys %s" % (what, sorted(missing)))
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise DocumentFormatError("unknown %s keys %s" % (what, sorted(unknown)))
    return doc


def _array(raw, what):
    """raw, a JSON array; a string or a number is not one."""
    if not isinstance(raw, list):
        raise DocumentFormatError("%s must be a JSON array" % what)
    return raw


def _positive_int(raw, what):
    """raw, a positive JSON integer; a boolean is not one."""
    if type(raw) is not int or raw < 1:
        raise DocumentFormatError("%s must be a positive integer" % what)
    return raw


def germ_to_jsonable(germ: CurvilinearGerm):
    doc = {"point": [scalar_str(c) for c in germ.support.coords]}
    default_chart = next(i for i, c in enumerate(germ.support.coords) if c != 0)
    if germ.chart != default_chart:
        doc["chart"] = germ.chart
    if germ.length > 1:
        doc["chart"] = germ.chart
        doc["jet"] = [None if j is None else [scalar_str(c) for c in j]
                      for j in germ.jets]
    return doc


def germ_from_jsonable(doc, field) -> CurvilinearGerm:
    _object(doc, "germ", ("point",), ("chart", "jet"))
    coords = [parse_scalar(c, field) for c in _array(doc["point"], "point")]
    try:
        point = ProjPoint(coords, field)
    except ValueError as err:
        raise DocumentFormatError(str(err)) from None
    chart = doc.get("chart")
    if chart is not None and (isinstance(chart, bool) or not isinstance(chart, int)
                              or not 0 <= chart <= point.ambient):
        raise DocumentFormatError("chart must be a coordinate index")
    raw_jet = doc.get("jet")
    if raw_jet is not None:
        if chart is None:
            chart = next(i for i, c in enumerate(point.vec) if c)
        if len(_array(raw_jet, "jet")) != point.ambient + 1:
            raise DocumentFormatError("jet must list one series per coordinate")
        jets = []
        for i, series in enumerate(raw_jet):
            if i == chart:
                if series is not None:
                    raise DocumentFormatError("the chart slot of a jet must be null")
            elif not isinstance(series, list) or not series:
                raise DocumentFormatError("jet series must be nonempty lists")
            else:
                jets.append(tuple(parse_scalar(c, field) for c in series))
    try:
        if raw_jet is None:
            return reduced_germ(point, field, chart)
        return make_germ(point, chart, jets, field)
    except ValueError as err:
        raise DocumentFormatError(str(err)) from None


def scheme_to_jsonable(scheme: FiniteScheme):
    return {"field": field_to_jsonable(scheme.field),
            "ambient": scheme.ambient,
            "germs": [germ_to_jsonable(g) for g in scheme.germs]}


def scheme_from_jsonable(doc) -> FiniteScheme:
    """The scheme of a document; one of degree above `SCHEME_MAX_DEGREE`
    is rejected before any rank work."""
    _object(doc, "scheme", ("field", "ambient", "germs"))
    field = field_from_jsonable(doc["field"])
    ambient = _positive_int(doc["ambient"], "ambient")
    germs = [germ_from_jsonable(g, field) for g in _array(doc["germs"], "germs")]
    for g in germs:
        if g.ambient != ambient:
            raise DocumentFormatError(
                "germ lives in P^%d, document says P^%d" % (g.ambient, ambient))
    degree = sum(g.length for g in germs)
    if degree > SCHEME_MAX_DEGREE:
        raise DocumentFormatError(
            "scheme degree must be <= %d, got %d" % (SCHEME_MAX_DEGREE, degree))
    try:
        return FiniteScheme(germs, field)
    except ValueError as err:
        raise DocumentFormatError(str(err)) from None


def scheme_dumps(scheme: FiniteScheme) -> str:
    return canonical_json(scheme_to_jsonable(scheme))


def scheme_loads(text: str) -> FiniteScheme:
    return scheme_from_jsonable(parse_document(text))


def curve_to_jsonable(curve: RationalCurve):
    return {"field": field_to_jsonable(curve.field),
            "forms": [[scalar_str(c) for c in f] for f in curve.int_forms]}


def curve_from_jsonable(doc) -> RationalCurve:
    """The curve of a document; one of degree above `CURVE_MAX_DEGREE` is
    rejected before any polynomial work."""
    _object(doc, "curve", ("forms",), ("field",))
    field = field_from_jsonable(doc.get("field", "Q"))
    forms = [[parse_scalar(c, field) for c in _array(f, "a form")]
             for f in _array(doc["forms"], "forms")]
    degree = max((len(f) for f in forms), default=1) - 1
    if degree > CURVE_MAX_DEGREE:
        raise DocumentFormatError(
            "curve degree must be <= %d, got %d" % (CURVE_MAX_DEGREE, degree))
    try:
        return RationalCurve(forms, field)
    except ValueError as err:
        raise DocumentFormatError(str(err)) from None


def curve_loads(text: str) -> RationalCurve:
    return curve_from_jsonable(parse_document(text))


def subspace_to_jsonable(sub: LinearSubspace):
    return {"field": field_to_jsonable(sub.field),
            "ambient": sub.ambient,
            "cutting_forms": [[scalar_str(c) for c in f] for f in sub.int_forms]}


def subspace_from_jsonable(doc) -> LinearSubspace:
    _object(doc, "subspace", ("ambient", "cutting_forms"), ("field",))
    field = field_from_jsonable(doc.get("field", "Q"))
    ambient = _positive_int(doc["ambient"], "ambient")
    forms = [[parse_scalar(c, field) for c in _array(f, "a form")]
             for f in _array(doc["cutting_forms"], "cutting_forms")]
    try:
        return LinearSubspace(ambient, forms, field)
    except ValueError as err:
        raise DocumentFormatError(str(err)) from None


def subspace_loads(text: str) -> LinearSubspace:
    return subspace_from_jsonable(parse_document(text))


def form_to_jsonable(form):
    """A form dict {exponents: coefficient} as a sorted list of
    [exponent-list, coefficient-string] pairs."""
    return [[list(mon), scalar_str(c)]
            for mon, c in sorted(form.items(), key=lambda kv: kv[0])]


def recipe_to_jsonable(recipe):
    doc = {"t_count": recipe.t_count, "standard": recipe.standard,
           "levels": {}}
    for j in sorted(recipe.spaces):
        doc["levels"][str(j)] = [form_to_jsonable(f) for f in recipe.spaces[j]]
    return doc


def form_from_jsonable(doc):
    if not isinstance(doc, list):
        raise DocumentFormatError("a form must be a list of [exponents, scalar]")
    form = {}
    for pair in doc:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise DocumentFormatError("a form term must be [exponents, scalar]")
        exps, raw = pair
        if not (isinstance(exps, list)
                and all(type(e) is int and e >= 0 for e in exps)):
            raise DocumentFormatError("exponents must be nonnegative integers")
        if tuple(exps) in form:
            raise DocumentFormatError("exponents %s repeat in a form" % exps)
        form[tuple(exps)] = parse_scalar(raw, QQ)
    return form


def recipe_from_jsonable(doc):
    _object(doc, "recipe", ("t_count", "levels"), ("standard",))
    t_count = _positive_int(doc["t_count"], "t_count")
    levels = doc["levels"]
    if not isinstance(levels, dict):
        raise DocumentFormatError("levels must map degree strings to form lists")
    spaces = {}
    for key, forms in levels.items():
        try:
            j = int(key)
        except ValueError:
            j = None
        if str(j) != key:
            raise DocumentFormatError("level key %r is not an integer" % (key,))
        spaces[j] = [form_from_jsonable(f) for f in _array(forms, "level %s" % key)]
    standard = doc.get("standard", True)
    if not isinstance(standard, bool):
        raise DocumentFormatError("standard must be a boolean")
    try:
        return FormSpaceRecipe(t_count, spaces, standard)
    except ValueError as err:
        raise DocumentFormatError(str(err)) from None


def recipe_loads(text: str):
    return recipe_from_jsonable(parse_document(text))
