"""Command-line front end: JSON in, canonical JSON out.

Exit codes follow one convention everywhere: 0 when the computation
succeeds and any asserted property holds, 1 when a checked property is
violated (the offending evidence is still printed as JSON), 2 when a
`ValueError` reaches `main`: malformed or non-generic input, or a usage
error (message on standard error, nothing on standard output).

Each call is a fresh process, so a command imports only what it needs:
`verify` alone loads the harness, inside its handler, and the harness
loads its process pool only for `--jobs` above 1.
"""

from __future__ import annotations

import argparse
import sys

from .bounds import BoundQuery, known_regularity_bound, eisenbud_goto_bound
from .exactalg import QQ, parse_prime_field, parse_scalar, scalar_str
from .jsonio import (
    canonical_json,
    curve_loads,
    form_to_jsonable,
    recipe_loads,
    recipe_to_jsonable,
    scheme_loads,
    scheme_to_jsonable,
    subspace_loads,
)
from .normality import (
    hilbert_function_values,
    is_k_normal,
    min_normal_degree,
    secant_normality_verdict,
)
from .projection import (
    classify_fiber,
    curve_fiber,
    curve_linear_section_length,
    project_scheme,
    recipe_for_fiber,
    yk_counts,
)
from .scheme import ProjPoint, invariant_t, max_collinear_length, span_dim
from .separation import (
    DegenerateConfiguration,
    SeparatorConfig,
    family_rank,
    recipe_space,
    separator_forms,
    standard_recipe,
)


# The largest n that `lemma26` takes, so that every input does bounded
# work.  The solver multiplies the aligned points' linear factors and
# takes the minors of one system of 2 or 3 rows, on integers that grow
# with n: n = 20 takes about 0.11 s, n = 40 (41 aligned points and two
# off the line) 0.15 s and n = 80, past the cap, 0.18 s in a fresh
# process on a 2-core Xeon VM (medians of five runs).  The cap stays
# until the benchmark runs a `lemma26` input at it.
LEMMA26_MAX_N = 40

# The largest `separate --degree` and `hilbert --max-degree`.  `separate`
# raises each germ coordinate to the powers of U^(k-j) by one running
# product of int series, one factor at a time: k = 10,000 takes about
# 0.10 s for two points and 0.12 s for two length-3 germs in a fresh
# process on a 2-core Xeon VM (medians of seven runs); `hilbert` prints
# k + 1 entries.
MAX_DEGREE = 10000

# The largest `separate` work: --degree k times the sum of L^2 over the
# germs' lengths L, since each factor of U^(k-j) is one product of
# length-L series, taken once per germ.  At the budget, k = 10,000 on one
# length-15 germ takes about 0.30 s and k = 1,000 on a length-49 germ
# 0.28 s in a fresh process on a 2-core Xeon VM (medians of seven runs);
# a length-40 germ at k = 10,000 (six times the budget) takes 1.4 s.
# Reduced points stay below it: the 80 that `jsonio.SCHEME_MAX_DEGREE`
# allows take 0.10 s at k = 10,000.
SEPARATE_BUDGET = 2500000

# The largest `verify --trials`, checked before the harness is imported.
# `run_suite` builds its argument tuples, about 106 bytes a trial, before
# the first trial; `mather_consistency`, the slowest suite over Q, takes
# 1.4-1.8 ms a trial on a 2-core Xeon VM, so the cap is 2-3 minutes.
MAX_TRIALS = 100000

# The `verify --suite` choices.  `harness.SUITE_NAMES` is the authority
# and a test keeps the two equal; spelling them out here spares every
# other command the import of the harness.
SUITE_NAMES = (
    "cor1_3a", "cor1_3b", "fiber_cases", "flatness", "hilbert_shape",
    "invariance", "lemma2_6", "lemma3_1", "mather_consistency", "prop1_2",
)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise ValueError("cannot read %s: %s" % (path, err)) from None


def _load_scheme(path: str):
    return scheme_loads(_read(path))


def _load_curve(path: str):
    return curve_loads(_read(path))


def _emit(doc) -> None:
    sys.stdout.write(canonical_json(doc))


def _point_out(point):
    return [scalar_str(c) for c in point.coords]


# ---------------------------------------------------------------------------
# subcommand handlers, each returning the exit code


def _cmd_hilbert(args) -> int:
    if args.max_degree < 0:
        raise ValueError("--max-degree must be nonnegative")
    if args.max_degree > MAX_DEGREE:
        raise ValueError("--max-degree must be <= %d, got %d" % (MAX_DEGREE, args.max_degree))
    x = _load_scheme(args.scheme)
    _emit({"phi": hilbert_function_values(x, args.max_degree)})
    return 0


def _cmd_normality(args) -> int:
    if args.degree < 0:
        raise ValueError("--degree must be nonnegative")
    x = _load_scheme(args.scheme)
    normal = is_k_normal(x, args.degree)
    _emit({"degree": x.degree, "k": args.degree, "normal": normal})
    return 0 if normal else 1


def _cmd_regularity(args) -> int:
    x = _load_scheme(args.scheme)
    k = min_normal_degree(x)
    _emit({"degree": x.degree, "min_normal_degree": k, "regularity": k + 1})
    return 0


def _cmd_invariant_t(args) -> int:
    x = _load_scheme(args.scheme)
    t = invariant_t(x)
    _emit({"degree": x.degree, "span": span_dim(x), "t": t,
           "max_collinear": max_collinear_length(x)})
    return 0


def _cmd_secant(args) -> int:
    x = _load_scheme(args.scheme)
    verdict = secant_normality_verdict(x)
    _emit(verdict.to_jsonable())
    return 0 if verdict.equivalence_holds else 1


def _cmd_separate(args) -> int:
    if args.degree < 0:
        raise ValueError("--degree must be nonnegative")
    if args.degree > MAX_DEGREE:
        raise ValueError("--degree must be <= %d, got %d" % (MAX_DEGREE, args.degree))
    x = _load_scheme(args.scheme)
    work = args.degree * sum(g.length ** 2 for g in x.germs)
    if work > SEPARATE_BUDGET:
        raise ValueError("--degree times the sum of the squared germ lengths must be "
                         "<= %d, got %d" % (SEPARATE_BUDGET, work))
    recipe = recipe_loads(_read(args.recipe)) if args.recipe else standard_recipe()
    forms = [{m: parse_scalar(str(c), x.field) for m, c in f.items()}
             for f in recipe_space(recipe, args.degree, x.ambient)]
    rank = family_rank(x, forms)
    separates = rank == x.degree
    _emit({"degree": x.degree, "k": args.degree, "family_rank": rank,
           "separates": separates})
    return 0 if separates else 1


def _cmd_lemma26(args) -> int:
    field = args.field
    config = SeparatorConfig(
        [parse_scalar(u, field) for u in args.aligned.split(",")],
        parse_scalar(args.a, field),
        parse_scalar(args.b, field),
        [_parse_point_arg(p, field) for p in args.off],
        field,
    )
    if config.n > LEMMA26_MAX_N:
        raise ValueError("lemma26 takes n <= %d, got n = %d" % (LEMMA26_MAX_N, config.n))
    try:
        mons, vectors = separator_forms(config)
    except DegenerateConfiguration as err:
        _emit({"n": config.n, "case": config.case, "error": str(err)})
        return 1
    forms = [{m: field.scalar(v, den) for m, v in zip(mons, x) if v} for x, den in vectors]
    points = [_point_out(p) for p in config.points]
    _emit({"n": config.n, "case": config.case, "points": points,
           "forms": [form_to_jsonable(f) for f in forms]})
    return 0


def _cmd_project(args) -> int:
    x = _load_scheme(args.scheme)
    center = subspace_loads(_read(args.center))
    fibers = project_scheme(x, center)
    out = []
    for image, selector in fibers:
        piece = x.truncated(selector)
        out.append({"image": _point_out(image), "length": piece.degree,
                    "fiber": scheme_to_jsonable(piece)})
    counts = yk_counts(f["length"] for f in out)
    _emit({"fibers": out, "counts": {str(k): v for k, v in counts.items()}})
    return 0


def _cmd_classify_fiber(args) -> int:
    x = _load_scheme(args.scheme)
    profile = classify_fiber(x, args.n)
    doc = profile.to_jsonable()
    pair = recipe_for_fiber(profile)
    if pair is None:
        doc["recipe"] = None
    else:
        recipe, k = pair
        doc["recipe"] = recipe_to_jsonable(recipe)
        doc["recipe_degree"] = k
    _emit(doc)
    return 0


def _cmd_curve_fiber(args) -> int:
    curve = _load_curve(args.curve)
    center = subspace_loads(_read(args.center))
    y = tuple(parse_scalar(c, curve.field) for c in args.y.split(":"))
    fiber = curve_fiber(curve, center, y)
    _emit({
        "image": [scalar_str(c) for c in fiber.image],
        "total": fiber.total,
        "germ_lengths": [g.length for g in fiber.germs],
        "parameters": [[[scalar_str(s), scalar_str(t)], m]
                       for (s, t), m in fiber.parameters],
        "clusters": [[d, m] for d, m in fiber.clusters],
    })
    return 0


def _cmd_curve_section(args) -> int:
    curve = _load_curve(args.curve)
    sub = subspace_loads(_read(args.subspace))
    length = curve_linear_section_length(curve, sub)
    bound = curve.degree - (curve.ambient - 1 - sub.dim)
    nondeg = curve.is_nondegenerate()
    within = length <= bound
    _emit({"length": length, "bound": bound, "subspace_dim": sub.dim,
           "nondegenerate": nondeg, "within_bound": within})
    return 0 if within or not nondeg else 1


_QUADRIC = {"yes": True, "no": False, "unknown": None}


def _cmd_bounds(args) -> int:
    q = BoundQuery(args.dim, args.degree, args.codim,
                   smooth=not args.not_smooth,
                   contained_in_quadric=_QUADRIC[args.on_quadric],
                   integral=not args.not_integral)
    best = known_regularity_bound(q, quadric_generators=args.quadric_generators)
    _emit({
        "eisenbud_goto": eisenbud_goto_bound(args.degree, args.codim),
        "best_known": best.value,
        "bel": best.bel,
    })
    return 0


def _cmd_verify(args) -> int:
    if args.trials > MAX_TRIALS:
        raise ValueError("--trials must be <= %d, got %d" % (MAX_TRIALS, args.trials))
    from .harness import run_suite

    report = run_suite(args.suite, args.trials, args.seed,
                       prime=args.field.modulus, jobs=args.jobs)
    _emit(report.to_jsonable())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_field_arg(text: str):
    if text == "Q":
        return QQ
    if text.startswith("fp:"):
        try:
            return parse_prime_field(text[3:])
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    raise argparse.ArgumentTypeError("field must be Q or fp:PRIME")


def _parse_point_arg(text, field):
    coords = [parse_scalar(c, field) for c in text.split(":")]
    try:
        return ProjPoint(coords, field)
    except ValueError as err:
        raise ValueError("bad point %r: %s" % (text, err)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeroreg",
        description="Exact computations on finite subschemes of projective "
                    "space: Hilbert functions, normality, projections and "
                    "randomized verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilbert", help="Hilbert function values of a scheme")
    p.add_argument("--scheme", required=True, metavar="FILE")
    p.add_argument("--max-degree", type=int, required=True)
    p.set_defaults(fn=_cmd_hilbert)

    p = sub.add_parser("normality", help="check k-normality of a scheme")
    p.add_argument("--scheme", required=True, metavar="FILE")
    p.add_argument("--degree", type=int, required=True, help="the k to check")
    p.set_defaults(fn=_cmd_normality)

    p = sub.add_parser("regularity", help="minimal normal degree and regularity")
    p.add_argument("--scheme", required=True, metavar="FILE")
    p.set_defaults(fn=_cmd_regularity)

    p = sub.add_parser("invariant-t", help="general-position level of a scheme")
    p.add_argument("--scheme", required=True, metavar="FILE")
    p.set_defaults(fn=_cmd_invariant_t)

    p = sub.add_parser("secant", help="long-secant normality dichotomy")
    p.add_argument("--scheme", required=True, metavar="FILE")
    p.set_defaults(fn=_cmd_secant)

    p = sub.add_parser("separate", help="check a separating family on a scheme")
    p.add_argument("--scheme", required=True, metavar="FILE")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--recipe", metavar="FILE",
                   help="recipe JSON; default is the standard family")
    p.set_defaults(fn=_cmd_separate)

    p = sub.add_parser("lemma26", help="plane separators confined to a small "
                                       "monomial family")
    p.add_argument("--aligned", required=True,
                   help="comma-separated first coordinates of the aligned points")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--off", action="append", required=True, metavar="X:Y:Z",
                   help="off-line point (repeat two or three times)")
    p.add_argument("--field", type=_parse_field_arg, default=QQ)
    p.set_defaults(fn=_cmd_lemma26)

    p = sub.add_parser("project", help="fibers of a linear projection of a scheme")
    p.add_argument("--scheme", required=True, metavar="FILE")
    p.add_argument("--center", required=True, metavar="FILE",
                   help="subspace JSON for the projection center")
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("classify-fiber", help="case label and prediction for a "
                                              "plane fiber")
    p.add_argument("--scheme", required=True, metavar="FILE")
    p.add_argument("--n", type=int, required=True, choices=(5, 6))
    p.set_defaults(fn=_cmd_classify_fiber)

    p = sub.add_parser("curve-fiber", help="fiber of a pencil projection of a "
                                           "rational curve")
    p.add_argument("--curve", required=True, metavar="FILE")
    p.add_argument("--center", required=True, metavar="FILE")
    p.add_argument("--y", required=True, metavar="S:T",
                   help="target point of the pencil")
    p.set_defaults(fn=_cmd_curve_fiber)

    p = sub.add_parser("curve-section", help="length of a linear section of a "
                                             "rational curve")
    p.add_argument("--curve", required=True, metavar="FILE")
    p.add_argument("--subspace", required=True, metavar="FILE")
    p.set_defaults(fn=_cmd_curve_section)

    p = sub.add_parser("bounds", help="regularity bounds for a projective variety")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--codim", type=int, required=True)
    p.add_argument("--not-smooth", action="store_true")
    p.add_argument("--not-integral", action="store_true")
    p.add_argument("--on-quadric", choices=("yes", "no", "unknown"),
                   default="unknown", type=str)
    p.add_argument("--quadric-generators", action="store_true",
                   help="assume the ideal is generated by quadrics")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("verify", help="run a randomized verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", type=_parse_field_arg, default=QQ,
                   metavar="fp:PRIME",
                   help="run over a prime field, cross-checking 1%% against Q")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
