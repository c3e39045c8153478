"""Seeded random generators and high-volume verification suites.

Every suite draws its inputs from a splittable 64-bit seed stream, so a
run is reproducible from (suite, trials, seed) alone and parallel runs
agree byte-for-byte with serial ones.  Generators plant the features a
suite needs (collinear subsets, long secants, specific fiber shapes),
then verify them post hoc.  `_redraw`, the one counted loop, redraws
degenerate attempts and counts them, never silently, naming the misses
by reason on exhaustion; the coordinate helpers (`_draw_point`,
`_off_point`, ...) retry uncounted.

Verification and every check of what a generator planted go through the
library's exact oracles: `max_collinear_length` and `invariant_t` for
`gen_scheme`, `recipe_separates` for the conic fibers and `Matrix.rank`
for the separators.  A failing trial is reported with a replayable JSON
artifact.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from math import comb

from .exactalg import Matrix, QQ, prime_field
from .forms import (
    binary_degree,
    binary_gcd_many,
    cleared_form,
    cleared_form_values,
    poly_derivative,
    poly_mul,
    poly_sub,
)
from .jsonio import scheme_to_jsonable
from .normality import (
    hilbert_function,
    min_normal_degree,
    normality_threshold_bound,
    secant_normality_verdict,
)
from .projection import (
    CenterMeetsCurve,
    CenterMeetsScheme,
    DuplicateFiberSupport,
    NonCurvilinearFiber,
    RationalCurve,
    classify_fiber,
    curve_fiber,
    curve_linear_section_length,
    mather_inequality,
    plane_fiber,
    project_point,
    recipe_for_fiber,
)
from .scheme import (
    CurvilinearGerm,
    FiniteScheme,
    LinearSubspace,
    ProjPoint,
    apply_matrix,
    enumeration_cap,
    germ_on_line,
    invariant_t,
    max_collinear_length,
    reduced_germ,
    span_dim,
    subspace_from_rows,
)
from .separation import (DegenerateConfiguration, SeparatorConfig, recipe_separates,
                         separator_forms, separator_monomial_basis, standard_recipe,
                         t_monomial)

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def trial_seed(master: int, index: int) -> int:
    """Per-trial seed: a splitmix64 output, so trial i's randomness is
    independent of how many trials run before it or in parallel."""
    return _mix64((master + _GOLDEN * (index + 1)) & _MASK)


class GenerationExhausted(Exception):
    """A generator could not realize its planted features within the
    redraw budget."""


class _Retry(Exception):
    """Internal: the current attempt hit a degenerate draw.  An optional
    reason names the miss for `_redraw`'s exhaustion message."""


class _Redraws:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1


def _redraw(log, attempt, exhausted, tries=200):
    """The result of the first call of `attempt()` that does not raise
    _Retry, counting each _Retry in `log`; `exhausted` is raised after
    `tries` calls, its message followed by "; misses: " and the count of
    each reason the retries named, in first-seen order.  Other
    exceptions pass through uncounted."""
    misses = Counter()
    for _ in range(tries):
        try:
            return attempt()
        except _Retry as retry:
            log.bump()
            misses.update(retry.args)
    if misses:
        raise type(exhausted)("%s; misses: %s" % (
            exhausted, ", ".join("%s %d" % m for m in misses.items())))
    raise exhausted


class GeneratorSpec:
    """What to generate: ambient space, degree, planted features,
    coordinate box, field and seed.

    `collinear` plants a maximal line-subscheme of exactly that degree;
    `secant` additionally routes a nonreduced germ along the planted
    line; `general_position` requires the independence level to reach
    min(ambient, degree - 1).  Mutually inconsistent features are
    rejected here rather than failing mysteriously later.
    """

    __slots__ = ("ambient", "degree", "max_germ_length", "collinear",
                 "secant", "general_position", "box", "field", "seed")

    def __init__(self, ambient: int, degree: int, max_germ_length: int = 1,
                 collinear=None, secant: bool = False,
                 general_position: bool = False, box=(-10, 10), field=QQ,
                 seed: int = 0):
        if ambient < 1:
            raise ValueError("ambient must be at least 1")
        if degree < 1:
            raise ValueError("degree must be positive")
        if max_germ_length < 1:
            raise ValueError("max_germ_length must be at least 1")
        if collinear is not None:
            if not 2 <= collinear <= degree:
                raise ValueError("collinear size must lie in [2, degree]")
            if general_position and collinear >= 3 and ambient >= 2:
                raise ValueError("three collinear points contradict general position")
        if secant:
            if collinear is None:
                raise ValueError("a planted secant needs a collinear size")
            if max_germ_length < 2 or collinear < 2:
                raise ValueError("a secant through a germ needs germ length >= 2")
        if general_position and degree > enumeration_cap():
            raise ValueError("general position is verified by subscheme "
                             "enumeration; degree exceeds the cap")
        if box[0] >= box[1]:
            raise ValueError("empty coordinate box")
        self.ambient = ambient
        self.degree = degree
        self.max_germ_length = max_germ_length
        self.collinear = collinear
        self.secant = bool(secant)
        self.general_position = bool(general_position)
        self.box = (int(box[0]), int(box[1]))
        self.field = field
        self.seed = int(seed)


def _draw_coords(rng, width, box):
    while True:
        c = tuple(rng.randint(box[0], box[1]) for _ in range(width))
        if any(c):
            return c


def _draw_point(rng, ambient, box, field, avoid=()):
    for _ in range(80):
        try:
            p = ProjPoint(_draw_coords(rng, ambient + 1, box), field)
        except ValueError:
            continue
        if p not in avoid:
            return p
    raise _Retry


def _draw_direction(rng, point, box, field):
    """A direction, as ints, independent of the support, so the arc is
    immersed."""
    for _ in range(80):
        v = _draw_coords(rng, len(point.vec), box)
        if Matrix([list(point.vec), list(v)], field=field).rank() == 2:
            return v
    raise _Retry


def _draw_germ(rng, point, length, box, field):
    """A curvilinear germ at `point` with random jet coefficients, drawn
    as ints: with lead the chart coordinate of the point's int vector,
    the jet (vec_i / lead, v_i, ..) is the series (vec_i, lead * v_i, ..)
    over the chart series (lead, 0, ..)."""
    if length == 1:
        return reduced_germ(point, field)
    chart = next(i for i, c in enumerate(point.vec) if c)
    for _ in range(80):
        v = _draw_coords(rng, len(point.vec), box)
        if any(c for i, c in enumerate(field.ints(v)) if i != chart):
            break
    else:
        raise _Retry
    lead = point.vec[chart]
    series = []
    for i, c in enumerate(point.vec):
        if i == chart:
            series.append((lead,) + (0,) * (length - 1))
            continue
        tail = tuple(lead * rng.randint(box[0], box[1]) for _ in range(length - 2))
        series.append((c, lead * v[i]) + tail)
    return CurvilinearGerm(series, field)


def _random_invertible(rng, size, field):
    for _ in range(80):
        rows = [[rng.randint(-4, 4) for _ in range(size)]
                for _ in range(size)]
        m = Matrix(rows, field=field)
        if m.rank() == size:
            return m
    raise _Retry


def _random_partition(rng, total, max_part):
    parts = []
    while total:
        top = min(max_part, total)
        part = 1 if top == 1 else rng.choice((1, 1, 1, min(2, top), top))
        parts.append(part)
        total -= part
    rng.shuffle(parts)
    return parts


def _build_scheme(spec: GeneratorSpec, rng) -> FiniteScheme:
    field = spec.field
    germs = []
    used = set()
    if spec.collinear is not None:
        base = _draw_point(rng, spec.ambient, spec.box, field)
        direction = _draw_direction(rng, base, spec.box, field)
        line = subspace_from_rows([base.vec, direction], spec.ambient, field)
        on_line = _random_partition(rng, spec.collinear, spec.max_germ_length)
        if spec.secant and max(on_line) < 2:
            on_line[0] = 2
            rest = spec.collinear - 2
            on_line = [2] + _random_partition(rng, rest, 1) if rest else [2]
        choices = range(spec.box[0], spec.box[1] + 1)
        if len(choices) < len(on_line):
            raise _Retry
        params = rng.sample(choices, len(on_line))
        # base.coords + t * direction, scaled by the lead of base.vec
        lead = next(c for c in base.vec if c)
        for length, t in zip(on_line, params):
            try:
                p = ProjPoint([b + t * lead * v for b, v in zip(base.vec, direction)], field)
            except ValueError:
                raise _Retry from None
            if p in used:
                raise _Retry
            used.add(p)
            germs.append(germ_on_line(p, direction, length, field))
        off_lengths = _random_partition(rng, spec.degree - spec.collinear,
                                        spec.max_germ_length)
        for length in off_lengths:
            p = _draw_point(rng, spec.ambient, spec.box, field, avoid=used)
            if line.contains_point(p):
                raise _Retry
            used.add(p)
            germs.append(_draw_germ(rng, p, length, spec.box, field))
    else:
        for length in _random_partition(rng, spec.degree, spec.max_germ_length):
            p = _draw_point(rng, spec.ambient, spec.box, field, avoid=used)
            used.add(p)
            germs.append(_draw_germ(rng, p, length, spec.box, field))
    try:
        return FiniteScheme(germs, field)
    except ValueError:
        raise _Retry from None


def _missed_feature(spec: GeneratorSpec, x: FiniteScheme):
    """The name of the first planted feature that x misses, or None."""
    if spec.collinear is not None:
        if max_collinear_length(x) != spec.collinear:
            return "collinear length"
        if spec.secant and all(g.length == 1 for g in x.germs):
            return "secant"
    if spec.general_position:
        if invariant_t(x) != min(x.ambient, x.degree - 1):
            return "general position"
    return None


def gen_scheme(spec: GeneratorSpec, log: _Redraws = None) -> FiniteScheme:
    """Draw a scheme with the requested features.  Each attempt that is
    degenerate or misses a planted feature is a `_redraw` retry named by
    its miss (counted in `log`), and exhaustion raises instead of
    looping, naming how many draws missed each feature."""
    rng = random.Random(spec.seed)

    def attempt():
        try:
            x = _build_scheme(spec, rng)
        except _Retry:
            raise _Retry("degenerate draw") from None
        miss = _missed_feature(spec, x)
        if miss is not None:
            raise _Retry(miss)
        return x

    return _redraw(log or _Redraws(), attempt,
                   GenerationExhausted("could not realize the planted features "
                                       "(ambient %d, degree %d, collinear %r)"
                                       % (spec.ambient, spec.degree, spec.collinear)))


# ---------------------------------------------------------------------------
# plane fiber generators (all in P^2)

# The coordinate box of the plane draws: fibers and separator off points.
_PLANE_BOX = (-9, 9)


def _line_basis(rng, field):
    """Two independent int plane points whose line is in general position
    for the separator frame: it meets {x0 = 0} away from {x1 = 0}."""
    for _ in range(80):
        b0 = _draw_coords(rng, 3, _PLANE_BOX)
        b1 = _draw_coords(rng, 3, _PLANE_BOX)
        if any(field.ints([b0[0] * b1[1] - b0[1] * b1[0]])):
            return b0, b1
    raise _Retry


def _off_point(rng, field, avoid, on_lines=()):
    """A point with nonzero first coordinate (so the separator frame's
    distinguished coordinate does not vanish there), off the given lines."""
    for _ in range(80):
        try:
            p = ProjPoint(_draw_coords(rng, 3, _PLANE_BOX), field)
        except ValueError:
            continue
        if not p.vec[0] or p in avoid:
            continue
        if any(line.contains_point(p) for line in on_lines):
            continue
        return p
    raise _Retry


def _line_scheme(rng, field, line_lengths, off_lengths=()):
    """Contact `sum(line_lengths)` with a generic-frame line plus off
    points; raises _Retry on degenerate draws."""
    b0, b1 = _line_basis(rng, field)
    params = rng.sample(range(-7, 8), len(line_lengths))
    germs, used = [], set()
    for length, t in zip(line_lengths, params):
        coords = [x + t * y for x, y in zip(b0, b1)]
        if not any(field.ints(coords)):
            raise _Retry
        p = ProjPoint(coords, field)
        if p in used:
            raise _Retry
        used.add(p)
        germs.append(germ_on_line(p, b1, length, field))
    if off_lengths:
        lsub = subspace_from_rows([b0, b1], 2, field)
        for length in off_lengths:
            p = _off_point(rng, field, used, on_lines=(lsub,))
            used.add(p)
            germs.append(_draw_germ(rng, p, length, _PLANE_BOX, field))
    try:
        return FiniteScheme(germs, field)
    except ValueError:
        raise _Retry from None


# The degree-3 separator family of a six-unit fiber on a conic.
_CONIC_RECIPE = standard_recipe(extra={3: [t_monomial(2, (3, 0))]})


def _conic_scheme(rng, field, with_germ):
    """Six units of degree on the smooth conic tau -> rows . (1, tau,
    tau^2) of a random invertible frame whose first row is honestly
    quadratic (a nonzero tau^2 coefficient, tested before the build),
    kept only when `_CONIC_RECIPE` separates it at degree 3."""
    for _ in range(80):
        rows = [tuple(row) for row in _random_invertible(rng, 3, field).data]
        count = 5 if with_germ else 6
        taus = rng.sample(range(-9, 10), count)
        parameters = [(taus[0], 2)] + [(t, 1) for t in taus[1:]] if with_germ \
            else [(t, 1) for t in taus]
        if not field.ints(rows[0])[2]:
            continue
        germs, used = [], set()
        try:
            for tau, mult in parameters:
                p = ProjPoint(tuple(r[0] + r[1] * tau + r[2] * tau ** 2 for r in rows), field)
                if p in used:
                    raise _Retry
                used.add(p)
                if mult == 1:
                    germs.append(reduced_germ(p, field))
                else:
                    tangent = tuple(r[1] + 2 * r[2] * tau for r in rows)
                    germs.append(germ_on_line(p, tangent, 2, field))
            x = FiniteScheme(germs, field)
        except (ValueError, _Retry):
            continue
        if recipe_separates(x, _CONIC_RECIPE, 3):
            return x
    raise _Retry


def _spread_scheme(rng, field, lengths, want_phi2=None):
    """Span-2 scheme with no collinear subscheme of length above 3;
    `want_phi2` pins the quadric rank (6 keeps the scheme off every
    conic)."""
    for _ in range(80):
        germs, used = [], set()
        try:
            for length in lengths:
                p = _draw_point(rng, 2, _PLANE_BOX, field, avoid=used)
                used.add(p)
                germs.append(_draw_germ(rng, p, length, _PLANE_BOX, field))
            x = FiniteScheme(germs, field)
        except (_Retry, ValueError):
            continue
        if span_dim(x) != 2 or max_collinear_length(x) > 3:
            continue
        if want_phi2 is not None and hilbert_function(x, 2) != want_phi2:
            continue
        return x
    raise _Retry


# The planted fiber types, in the order `fiber_cases` cycles through
# them: label -> (n, variants).  A variant is (builder, *args), called
# as builder(rng, field, *args); a type with two variants draws the
# first when rng.random() < 0.5, one with more draws rng.randrange.
_FIBERS = {
    "1.i": (5, [(_line_scheme, [1] * 5)]),
    "1.ii": (5, [(_line_scheme, [1] * 4, [1])]),
    "1.iii": (5, [(_spread_scheme, [1] * 5)]),
    "2.i": (5, [(_line_scheme, [2, 1, 1, 1])]),
    "2.ii": (5, [(_line_scheme, [2, 1, 1], [1]), (_spread_scheme, [2, 1, 1, 1])]),
    "5.line": (6, [(_line_scheme, [2, 1, 1, 1]), (_line_scheme, [1] * 5)]),
    "5.span2": (6, [(_spread_scheme, [2, 1, 1, 1]), (_spread_scheme, [1] * 5)]),
    "5.span2.4sec": (6, [(_line_scheme, on, [1]) for on in ([1] * 4, [2, 1, 1], [2, 2], [3, 1])]),
    "6.line": (6, [(_line_scheme, [2, 1, 1, 1, 1]), (_line_scheme, [1] * 6)]),
    "6.span2": (6, [(_spread_scheme, [2, 1, 1, 1, 1], 6), (_spread_scheme, [1] * 6, 6)]),
    "6.span2.4sec": (6, [(_line_scheme, [1] * 4, [1, 1]), (_line_scheme, [2, 1, 1], [1, 1]),
                         (_line_scheme, [1] * 4, [2])]),
    "6.span2.5sec": (6, [(_line_scheme, [2, 1, 1, 1], [1]), (_line_scheme, [1] * 5, [1])]),
    "6.span2.conic": (6, [(_conic_scheme, True), (_conic_scheme, False)]),
}
_FIBER_TYPES = tuple(_FIBERS)


def _gen_fiber_instance(rng, field, label):
    if label not in _FIBERS:
        raise ValueError("unknown fiber type %r" % (label,))
    n, variants = _FIBERS[label]
    if len(variants) == 1:
        variant = variants[0]
    elif len(variants) == 2:
        variant = variants[0] if rng.random() < 0.5 else variants[1]
    else:
        variant = variants[rng.randrange(len(variants))]
    build, *args = variant
    return build(rng, field, *args), n


# ---------------------------------------------------------------------------
# curve drawing


def _draw_curve(rng, log):
    def attempt():
        ambient = rng.randint(3, 5)
        degree = rng.randint(ambient, 6)
        forms = [tuple(rng.randint(-6, 6) for _ in range(degree + 1))
                 for _ in range(ambient + 1)]
        try:
            curve = RationalCurve(forms)
        except ValueError:
            raise _Retry from None
        if not curve.is_nondegenerate():
            raise _Retry
        return curve

    return _redraw(log, attempt,
                   GenerationExhausted("no base-point-free nondegenerate curve found"))


def _center_meets_tangent_line(curve, center) -> bool:
    """Exact test for the genericity hypothesis of the plane projection:
    the center meets a tangent line of the curve iff the composed map to
    the plane has a critical parameter, i.e. the Wronskian minors of the
    composed coordinates share a root (checked at the finite parameters,
    which is all the sampled fibers use)."""
    composed = curve.composed_forms(center)
    minors = []
    for i in range(3):
        for j in range(i + 1, 3):
            a, b = composed[i], composed[j]
            m = poly_sub(poly_mul(a, poly_derivative(b)), poly_mul(b, poly_derivative(a)))
            if m:
                minors.append(m)
    return not minors or binary_degree(binary_gcd_many(minors)) >= 1


# ---------------------------------------------------------------------------
# the trial bodies; each returns (signature, failure detail or None)


def _fail(message, x=None, extra=None):
    detail = {"message": message}
    if x is not None:
        detail["artifact"] = scheme_to_jsonable(x)
    if extra:
        detail.update(extra)
    return detail


def _trial_prop12(rng, field, index, log):
    ambient = rng.randint(2, 5)
    d = rng.randint(2, 10)
    maxlen = rng.choice((1, 1, 1, 2, 2, 3))
    collinear = None
    secant = False
    if d >= 3 and rng.random() < 0.45:
        collinear = rng.randint(3, d)
        secant = maxlen >= 2 and collinear >= 2 and rng.random() < 0.5
    spec = GeneratorSpec(ambient, degree=d, max_germ_length=maxlen,
                         collinear=collinear, secant=secant, box=(-8, 8),
                         field=field, seed=rng.getrandbits(63))
    x = gen_scheme(spec, log)
    k0 = normality_threshold_bound(x)
    bad = [k for k in range(k0, d) if hilbert_function(x, k) != d]
    sig = (d, k0, tuple(bad))
    if bad:
        return sig, _fail("not k-normal above the threshold", x,
                          {"threshold": k0, "bad": bad})
    return sig, None


def _trial_cor13a(rng, field, index, log):
    planted = index % 2 == 0
    ambient = rng.choice((2, 3))
    d = rng.randint(ambient + 3, 10)
    maxlen = rng.choice((1, 1, 2, 3))

    def attempt():
        spec = GeneratorSpec(ambient, degree=d, max_germ_length=maxlen,
                             collinear=d - ambient + 1 if planted else None,
                             box=(-8, 8), field=field, seed=rng.getrandbits(63))
        x = gen_scheme(spec, log)
        # d >= ambient + 3 > span + 2, so the verdict always applies
        v = secant_normality_verdict(x)
        if v.span != ambient or (v.has_long_secant and not planted):
            raise _Retry
        return x, v

    x, v = _redraw(log, attempt,
                   GenerationExhausted("no nondegenerate scheme in the secant regime"))
    sig = (d, ambient, v.normal_at_d_minus_n, v.normal_at_d_minus_n_1,
           v.has_long_secant)
    if not (v.equivalence_holds and v.has_long_secant == planted):
        return sig, _fail("secant dichotomy violated", x, {"verdict": v.to_jsonable()})
    return sig, None


def _trial_cor13b(rng, field, index, log):
    ambient = rng.randint(2, 5)
    d = rng.randint(ambient + 1, 10)
    maxlen = rng.choice((1, 1, 1, 2))
    spec = GeneratorSpec(ambient, degree=d, max_germ_length=maxlen,
                         general_position=True, box=(-9, 9), field=field,
                         seed=rng.getrandbits(63))
    x = gen_scheme(spec, log)
    k_star = -((1 - d) // ambient)
    bad = [k for k in range(k_star, d) if hilbert_function(x, k) != d]
    sig = (d, ambient, k_star, tuple(bad))
    if bad:
        return sig, _fail("general-position scheme not normal from ceil((d-1)/N) on",
                          x, {"first_k": k_star, "bad": bad})
    return sig, None


def _trial_lemma26(rng, field, index, log):
    n = 3 + index % 4
    case = 1 + (index // 4) % 2
    aligned = n + 1 if case == 1 else n
    off_count = 2 if case == 1 else 3

    def attempt():
        us = rng.sample([u for u in range(-9, 10) if u], aligned)
        a = rng.choice([u for u in range(-5, 6) if u])
        b = rng.choice([u for u in range(-5, 6) if u])
        offs = []
        for _ in range(off_count):
            p = _off_point(rng, field, offs)
            if not any(field.ints([b * p.vec[1] - a * p.vec[2]])):
                raise _Retry
            offs.append(p)
        try:
            config = SeparatorConfig(us, a, b, offs, field)
        except ValueError:
            raise _Retry from None
        try:
            return config, separator_forms(config)
        except DegenerateConfiguration:
            raise _Retry from None

    config, (mons, vectors) = _redraw(
        log, attempt, GenerationExhausted("no admissible separator configuration"))
    # the family the solver returned is the n + 4 monomials of Lemma 2.6
    confined = mons == separator_monomial_basis(n)
    # the int forms {m: x_m} are den times the separators, with the same
    # zeros.  The family is cleared once, and each separator's cleared
    # form is its int kernel vector on the family's terms: E = 1, as the
    # vectors are ints over Q and residues over F_p, and gap 0, as every
    # family monomial has degree n.  The forms core evaluates them on
    # ProjPoint.vec, a nonzero multiple of each point, term by term; the
    # solver evaluates no family monomial, so the check stays independent.
    # The int rows are the scalar rows times nonzero scales: same rank
    _, deg, terms = cleared_form(dict.fromkeys(mons, 1), field)
    cleared = [(1, deg, [(v, gap, exps) for v, (_, gap, exps) in zip(x, terms) if v])
               for x, _ in vectors]
    rows = cleared_form_values(cleared, [(p.vec, 1) for p in config.points], field.modulus)
    diagonal = all((i == j) != (value == 0)
                   for i, row in enumerate(rows) for j, value in enumerate(row))
    rank = Matrix(rows, field=field).rank()
    sig = (n, case, confined, diagonal, rank)
    if not (confined and diagonal and rank == n + 3):
        return sig, _fail("separator solver postcondition failed", config.scheme(),
                          {"n": n, "case": case, "rank": rank, "confined": confined})
    return sig, None


def _trial_fiber(rng, field, index, log):
    label = _FIBER_TYPES[index % len(_FIBER_TYPES)]
    x, n = _redraw(log, lambda: _gen_fiber_instance(rng, field, label),
                   GenerationExhausted("no instance of fiber type %s" % label))
    profile = classify_fiber(x, n)
    if profile.case != label:
        return (label, profile.case), _fail(
            "planted fiber classified as %s" % profile.case, x)
    mnd = min_normal_degree(x)
    pair = recipe_for_fiber(profile)
    sig = (label, profile.predicted_normality, mnd)
    if mnd != profile.predicted_normality:
        return sig, _fail("minimal normality degree %d does not match prediction %d"
                          % (mnd, profile.predicted_normality), x)
    if pair is None:
        return sig, _fail("no separator recipe for %s" % label, x)
    recipe, k = pair
    if not recipe_separates(x, recipe, k):
        return sig, _fail("recipe fails to separate at degree %d" % k, x)
    return sig, None


def _trial_flatness(rng, field, index, log):
    curve = _draw_curve(rng, log)
    n = curve.ambient

    def attempt():
        forms = [_draw_coords(rng, n + 1, (-5, 5)) for _ in range(2)]
        try:
            center = LinearSubspace(n, forms)
        except ValueError:
            raise _Retry from None
        ys = [(1, 0), (0, 1), (1, 1)]
        ys += [(1, rng.randint(-9, 9)) for _ in range(2)]
        try:
            return [curve_fiber(curve, center, y) for y in ys]
        except (CenterMeetsCurve, DuplicateFiberSupport, NonCurvilinearFiber):
            raise _Retry from None

    fibers = _redraw(log, attempt, GenerationExhausted("no usable projection center"))
    totals = [f.total for f in fibers]
    sig = (curve.degree, tuple(totals))
    if any(t != curve.degree for t in totals):
        return sig, _fail("fiber total %r differs from the curve degree %d"
                          % (totals, curve.degree))
    return sig, None


def _trial_lemma31(rng, field, index, log):
    curve = _draw_curve(rng, log)
    n = curve.ambient
    d = curve.degree

    def attempt():
        r = rng.randint(0, n - 2)
        if rng.random() < 0.5:
            rows = [_draw_coords(rng, n + 1, (-5, 5)) for _ in range(r + 1)]
        else:
            through = rng.randint(1, r + 1)
            taus = rng.sample(range(-9, 10), through)
            rows = [curve.point(1, t).vec for t in taus]
            rows += [_draw_coords(rng, n + 1, (-5, 5)) for _ in range(r + 1 - through)]
        sub = subspace_from_rows(rows, n)
        if sub.dim != r:
            raise _Retry
        return r, sub

    r, sub = _redraw(log, attempt,
                     GenerationExhausted("no linear subspace of the requested dimension"))
    length = curve_linear_section_length(curve, sub)
    bound = d - (n - 1 - r)
    sig = (d, n, r, length, bound)
    if length > bound:
        return sig, _fail("linear section length %d exceeds the bound %d" % (length, bound))
    return sig, None


def _trial_mather(rng, field, index, log):
    # a curve with no generic center within its draw budget is redrawn
    return _redraw(log, lambda: _mather_on_curve(rng, _draw_curve(rng, log), log),
                   GenerationExhausted("no generic plane-projection center"), tries=20)


def _mather_on_curve(rng, curve, log):
    """The Mather check on plane projections of one curve, as (signature,
    detail); raises _Retry when no center in the draw budget is generic."""
    n = curve.ambient

    def attempt():
        t1, t2 = rng.sample(range(-9, 10), 2)
        p1 = curve.point(1, t1)
        p2 = curve.point(1, t2)
        lam = rng.choice([u for u in range(-5, 6) if u])
        # p1.coords + lam * p2.coords, scaled by the leads of the two vectors
        l1, l2 = (next(c for c in p.vec if c) for p in (p1, p2))
        chord_pt = tuple(l2 * a + lam * l1 * b for a, b in zip(p1.vec, p2.vec))
        if not any(chord_pt):
            raise _Retry
        rows = [chord_pt]
        rows += [_draw_coords(rng, n + 1, (-5, 5)) for _ in range(n - 3)]
        center = subspace_from_rows(rows, n)
        if center.dim != n - 3 or _center_meets_tangent_line(curve, center):
            raise _Retry
        try:
            y_star = project_point(curve.point(1, t1), center).vec
            planted = plane_fiber(curve, center, y_star)
            if planted.total != 2 or len(planted.germs) != 2 or any(
                    g.length != 1 for g in planted.germs):
                raise _Retry
            return [planted] + [
                plane_fiber(curve, center, project_point(curve.point(1, tau), center).vec)
                for tau in rng.sample(range(-9, 10), 3)]
        except (CenterMeetsScheme, CenterMeetsCurve, DuplicateFiberSupport,
                NonCurvilinearFiber):
            raise _Retry from None

    checks = [mather_inequality(f, 1) for f in _redraw(log, attempt, _Retry())]
    sig = (curve.degree, n, tuple(c.total for c in checks))
    if not all(c.holds for c in checks):
        return sig, _fail("curve fiber multiplicity exceeds the generic bound",
                          extra={"totals": [c.total for c in checks]})
    return sig, None


def _trial_invariance(rng, field, index, log):
    ambient = rng.randint(2, 5)
    d = rng.randint(2, 10)
    maxlen = rng.choice((1, 1, 2, 3))
    collinear = None
    if d >= 3 and rng.random() < 0.35:
        top = d if ambient <= 3 else min(d, 7)
        collinear = rng.randint(3, top)
    spec = GeneratorSpec(ambient, degree=d, max_germ_length=maxlen,
                         collinear=collinear, box=(-7, 7), field=field,
                         seed=rng.getrandbits(63))
    x = gen_scheme(spec, log)
    g = _random_invertible(rng, ambient + 1, field)
    y = apply_matrix(x, g)
    mx, my = min_normal_degree(x), min_normal_degree(y)
    tx, ty = invariant_t(x), invariant_t(y)
    cx, cy = max_collinear_length(x), max_collinear_length(y)
    phi_x = [hilbert_function(x, k) for k in range(1, mx + 1)]
    phi_y = [hilbert_function(y, k) for k in range(1, mx + 1)]
    sig = (d, mx, tx, cx)
    if not (mx == my and tx == ty and cx == cy and phi_x == phi_y):
        return sig, _fail("coordinate change altered an invariant", x,
                          {"normal": [mx, my], "t": [tx, ty], "collinear": [cx, cy],
                           "phi": [phi_x, phi_y]})
    return sig, None


def _trial_hilbert_shape(rng, field, index, log):
    ambient = rng.randint(2, 4)
    d = rng.randint(2, 10)
    maxlen = rng.choice((1, 1, 2, 3))
    collinear = rng.randint(3, d) if d >= 3 and rng.random() < 0.4 else None
    spec = GeneratorSpec(ambient, degree=d, max_germ_length=maxlen,
                         collinear=collinear, box=(-8, 8), field=field,
                         seed=rng.getrandbits(63))
    x = gen_scheme(spec, log)
    mnd = min_normal_degree(x)
    phi = [hilbert_function(x, k) for k in range(0, mnd + 1)]
    problems = []
    if phi[0] != 1:
        problems.append("phi(0) != 1")
    if len(phi) > 1 and phi[1] != span_dim(x) + 1:
        problems.append("phi(1) != span + 1")
    if any(phi[k] > phi[k + 1] for k in range(len(phi) - 1)):
        problems.append("phi decreases")
    if any(phi[k] > min(comb(ambient + k, k), d) for k in range(len(phi))):
        problems.append("phi exceeds its ceiling")
    if phi[-1] != d:
        problems.append("phi misses the degree at the normal degree")
    if any(hilbert_function(x, k) != d for k in range(mnd + 1, d)):
        problems.append("phi drops below the degree after reaching it")
    sig = (d, mnd, tuple(phi))
    if problems:
        return sig, _fail("; ".join(problems), x, {"phi": phi})
    return sig, None


_TRIALS = {
    "prop1_2": _trial_prop12,
    "cor1_3a": _trial_cor13a,
    "cor1_3b": _trial_cor13b,
    "lemma2_6": _trial_lemma26,
    "fiber_cases": _trial_fiber,
    "flatness": _trial_flatness,
    "lemma3_1": _trial_lemma31,
    "mather_consistency": _trial_mather,
    "invariance": _trial_invariance,
    "hilbert_shape": _trial_hilbert_shape,
}

SUITE_NAMES = tuple(sorted(_TRIALS))

_CURVE_SUITES = frozenset(("flatness", "lemma3_1", "mather_consistency"))


class SuiteReport:
    """Aggregated outcome of one suite run.  It holds no wall time, so
    reports are byte-identical across machines and worker counts."""

    __slots__ = ("suite", "trials", "failures", "redraws")

    def __init__(self, suite, trials, failures, redraws):
        self.suite = suite
        self.trials = trials
        self.failures = list(failures)
        self.redraws = redraws

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_jsonable(self):
        return {"suite": self.suite, "trials": self.trials,
                "redraws": self.redraws, "passed": self.passed,
                "failures": self.failures}


def _run_trial(args):
    """(redraw count, failure record or None) of one trial."""
    suite, master, index, prime = args
    field = QQ if prime is None else prime_field(prime)
    seed = trial_seed(master, index)
    fn = _TRIALS[suite]
    log = _Redraws()
    try:
        sig, detail = fn(random.Random(seed), field, index, log)
    except GenerationExhausted as err:
        return 0, {"trial": index, "seed": seed,
                   "message": "generator exhausted: %s" % err}
    if prime is not None and index % 100 == 0:
        sig_q, detail_q = fn(random.Random(seed), QQ, index, _Redraws())
        if (detail_q is None) != (detail is None) or sig_q != sig:
            detail = {"message": "prime-field result disagrees with the "
                                 "rational cross-check",
                      "fp": list(map(str, sig)), "q": list(map(str, sig_q))}
    return log.count, None if detail is None else {"trial": index, "seed": seed, **detail}


def worker_count(jobs: int, trials: int) -> int:
    """Worker processes for a run: the requested count, clamped to the
    number of trials and of CPUs; fewer than one is an error."""
    if jobs < 1:
        raise ValueError("--jobs must be at least 1, got %d" % jobs)
    return min(jobs, trials, os.cpu_count() or 1)


def run_suite(name: str, trials: int, seed: int, prime=None,
              jobs: int = 1) -> SuiteReport:
    """Run `trials` independent trials of the named suite.  Deterministic
    given (name, trials, seed, prime); `jobs` only changes the schedule,
    never the outcome.  Curve-based suites run over Q only."""
    if name not in _TRIALS:
        raise ValueError("unknown suite %r; known: %s" % (name, ", ".join(SUITE_NAMES)))
    if trials < 1:
        raise ValueError("need at least one trial")
    if prime is not None and name in _CURVE_SUITES:
        raise ValueError("suite %s uses rational curve arithmetic; "
                         "prime fields are not supported" % name)
    jobs = worker_count(jobs, trials)
    args = [(name, int(seed), i, prime) for i in range(trials)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, trials // (jobs * 4))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_trial, args, chunksize=chunk))
    else:
        results = [_run_trial(a) for a in args]
    failures = [failure for _, failure in results if failure is not None]
    redraws = sum(count for count, _ in results)
    return SuiteReport(name, trials, failures, redraws)
