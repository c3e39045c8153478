import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import event, example, given, reject, settings
from hypothesis import strategies as st
from sympy import GF

from zeroreg.exactalg import QQ, ColumnSpace, Matrix, prime_field
from zeroreg.forms import evaluate_form, form_values, monomials_of_degree, series_mul
from zeroreg.harness import (
    _FIBER_TYPES,
    GenerationExhausted,
    _gen_fiber_instance,
    _redraw,
    _Redraws,
    run_suite,
)
from zeroreg.normality import is_k_normal
from zeroreg.projection import classify_fiber, recipe_for_fiber
from zeroreg.scheme import (
    FiniteScheme,
    LinearSubspace,
    ProjPoint,
    germ_on_line,
    make_germ,
    reduced_germ,
)
from zeroreg.separation import (
    DegenerateConfiguration,
    FormSpaceRecipe,
    SeparatorConfig,
    family_rank,
    line_power_recipe,
    recipe_separates,
    recipe_space,
    separator_forms,
    separator_monomial_basis,
    standard_recipe,
    t_monomial,
)


def points(*pts):
    return FiniteScheme([reduced_germ(p) for p in pts])


def test_monomial_basis_counts():
    for n in (2, 3, 5):
        mons = separator_monomial_basis(n)
        assert len(mons) == n + 4
        assert all(sum(m) == n for m in mons)
        assert len(set(mons)) == len(mons)
    with pytest.raises(ValueError):
        separator_monomial_basis(1)


def test_recipe_space_standard():
    r = standard_recipe()
    conics = recipe_space(r, 2, ambient=2)
    # full standard part at degree 2 is the whole conic basis
    assert sorted(tuple(f)[0] for f in conics) == sorted(
        [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    )
    r2 = standard_recipe(extra={3: [t_monomial(2, (3, 0))]})
    cubics = recipe_space(r2, 3, ambient=2)
    assert len(cubics) == 7
    assert {(0, 3, 0): Fraction(1)} in [dict(f) for f in cubics]
    # levels above k are skipped
    assert len(recipe_space(r2, 2, ambient=2)) == 6


def test_recipe_validation():
    with pytest.raises(ValueError, match="standard part"):
        FormSpaceRecipe(2, {1: [t_monomial(2, (1, 0))]}, standard=True)
    with pytest.raises(ValueError, match="degree"):
        FormSpaceRecipe(2, {3: [t_monomial(2, (2, 0))]}, standard=False)
    with pytest.raises(ValueError, match="exponents"):
        t_monomial(2, (1, 0, 0))
    r = line_power_recipe(4)
    assert r.dims() == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    assert standard_recipe(extra={3: [t_monomial(2, (3, 0))]}).dims() == {0: 1, 1: 2, 2: 3, 3: 1}


def test_recipe_coordinate_bindings():
    # U is x0 and T_i is x_i; the coordinates after x_m are left out
    forms = [dict(f) for f in recipe_space(standard_recipe(), 2, ambient=3)]
    assert {(2, 0, 0, 0): Fraction(1)} in forms
    assert {(0, 1, 1, 0): Fraction(1)} in forms
    assert all(mon[3] == 0 for f in forms for mon in f)
    with pytest.raises(ValueError, match="3 tangent variables"):
        recipe_space(standard_recipe(t_count=3), 2, ambient=2)


def test_line_powers_separate_aligned_points():
    # six points on the line T2 = 0 need the full power family
    x = points(*[(1, i, 0) for i in range(5)], (0, 1, 0))
    assert recipe_separates(x, line_power_recipe(5), 5)
    assert not recipe_separates(x, line_power_recipe(4), 5)


def _full_recipe(max_level):
    """Every monomial space in T1, T2 up to max_level: at k = max_level the
    spawned family is the complete degree-k monomial basis."""
    spaces = {j: [t_monomial(2, mon) for mon in monomials_of_degree(2, j)]
              for j in range(3, max_level + 1)}
    return FormSpaceRecipe(2, spaces, standard=True)


def test_full_recipe_matches_k_normality():
    rng = random.Random(9)
    for _ in range(25):
        pts = set()
        while len(pts) < rng.randint(2, 6):
            cand = tuple(rng.randint(-3, 3) for _ in range(3))
            if any(cand):
                pts.add(ProjPoint(cand))
        x = FiniteScheme([reduced_germ(p) for p in pts])
        for k in (2, 3):
            assert recipe_separates(x, _full_recipe(k), k) == is_k_normal(x, k)


def test_family_rank_partial():
    x = points((1, 0, 0), (1, 1, 0), (1, 2, 0))
    # constants alone have rank 1
    assert family_rank(x, [{(0, 0, 0): Fraction(1)}]) == 1


def _arith(field):
    """Scalars with arithmetic for the references, and the way back to
    `field`: Fractions over Q, sympy's GF(p) over F_p."""
    if field is QQ:
        return Fraction, QQ
    K = GF(field.modulus, symmetric=False)

    def lift(x):
        x = Fraction(x.value if type(x) is field else x)
        return K(x.numerator) / K(x.denominator)
    return lift, lambda v: field(int(v))


def _composed(g, form):
    """Reference: the form composed with the arc on `_arith`'s scalars,
    from the jets with the chart coordinate 1, every power multiplied
    out."""
    lift, back = _arith(g.field)
    zero = lift(0)
    out = [zero] * g.length
    for mon, coeff in form.items():
        term = (lift(coeff),) + (zero,) * (g.length - 1)
        for i, e in enumerate(mon):
            for _ in range(0 if i == g.chart else e):
                term = series_mul(term, [lift(v) for v in g.jets[i]])
        out = [a + b for a, b in zip(out, term)]
    return [back(v) for v in out]


def _fiber_schemes(field):
    """One planted fiber per shape of `harness._FIBERS`, with the family
    its prescribed recipe spawns at the prescribed degree."""
    out = []
    for index, label in enumerate(_FIBER_TYPES):
        rng = random.Random(index)
        x, n = _redraw(_Redraws(), lambda: _gen_fiber_instance(rng, field, label),
                       GenerationExhausted(label))
        recipe, k = recipe_for_fiber(classify_fiber(x, n))
        out.append((x, recipe_space(recipe, k, x.ambient)))
    return out


@pytest.mark.parametrize("field", [QQ, prime_field(7), prime_field(2**31 - 1)])
def test_family_rank_of_mixed_degrees_is_the_rank_of_the_evaluations(field, monkeypatch):
    # the rank of the columns of the forms composed with the arcs on
    # scalars, and the rank is read off as soon as it is the degree
    adds = []
    original_add = ColumnSpace.add
    monkeypatch.setattr(ColumnSpace, "add",
                        lambda space, vec: adds.append(1) or original_add(space, vec))

    def check(x, forms):
        cols = []
        for f in forms:
            cols.append([v for g in x.germs for v in _composed(g, f)])
            assert cols[-1] == [v for g in x.germs for v in g.evaluate_form(f)]
        # the rank of each prefix, up to the first that spans
        for used in range(1, len(cols) + 1):
            want = Matrix([[c[i] for c in cols[:used]] for i in range(x.degree)],
                          field=field).rank()
            if want == x.degree:
                break
        adds.clear()
        assert family_rank(x, forms) == want
        assert len(adds) == used
        return want, used < len(forms)

    # forms of degrees 0 .. 4, some not homogeneous and with fractional
    # coefficients, on germs of lengths 1 .. 4: in chart 1 with x_0 a
    # series, in charts 2 and 0 over a denominator other than 1 over Q
    schemes = [
        FiniteScheme([make_germ((0, 1, 2), 1, [(0, 3, 1), (2, -1, 5)], field),
                      make_germ((2, 3, 1), 2, [(2, Fraction(1, 3), 4), (3, 2, -5)], field),
                      reduced_germ((1, 1, 1), field)], field),
        FiniteScheme([make_germ((1, 1, 2), 1, [(1, 1, -1, 2), (2, -1, 3, 1)], field),
                      make_germ((3, 1, 2), 0, [(Fraction(1, 3), 2, Fraction(-1, 2), 1),
                                               (Fraction(2, 3), 0, 1, Fraction(5, 4))], field),
                      reduced_germ((2, 3, 1), field)], field),
        FiniteScheme([make_germ((1, 2, 0, 1), 3, [(1, Fraction(1, 2), 0, 3), (2, 1, 1, 0),
                                                  (0, -1, Fraction(2, 5), 1)], field),
                      make_germ((2, 1, 1, 3), 0, [(Fraction(1, 2), 1, 2),
                                                  (Fraction(1, 2), 0, -1),
                                                  (Fraction(3, 2), 1, 1)], field)], field),
    ]
    rng = random.Random(26)
    ranks = set()
    for x in schemes:
        nvars = x.ambient + 1
        for _ in range(12):
            forms = []
            for _ in range(rng.randint(1, 6)):
                mons = [m for k in rng.sample(range(5), 2) for m in monomials_of_degree(nvars, k)]
                forms.append({m: Fraction(rng.randint(1, 4), rng.randint(1, 3))
                              for m in rng.sample(mons, 2)})
            ranks.add(check(x, forms)[0])
        # every degree-6 monomial, many more members than the degree: the
        # rank reaches the degree before the last member
        rank, stopped = check(x, [{m: 1} for m in monomials_of_degree(nvars, 6)])
        assert rank == x.degree and stopped
    assert len(ranks) > 2
    for x, forms in _fiber_schemes(field):
        assert check(x, forms)[0] == x.degree


def make_case2_config():
    return SeparatorConfig(
        aligned_u=[1, 2, 3], a=1, b=1,
        off_points=[(1, 1, 0), (1, 0, 1), (1, 2, 3)],
    )


def test_separator_config_structure():
    cfg = make_case2_config()
    assert (cfg.n, cfg.case) == (3, 2)
    assert len(cfg.points) == 6
    a = b = 1  # the line b*T1 = a*T2 of make_case2_config
    line = LinearSubspace(2, [(0, b, -a)])
    for p in cfg.aligned:
        assert line.contains_point(p)
    assert line.contains_point(ProjPoint((1, 0, 0)))
    for p in cfg.off:
        assert not line.contains_point(p)
    cfg1 = SeparatorConfig([1, 2, 3, -1], a=2, b=3, off_points=[(1, 1, 0), (0, 1, 0)])
    assert (cfg1.n, cfg1.case) == (3, 1)


def test_separator_config_validation():
    with pytest.raises(ValueError, match="nonzero"):
        SeparatorConfig([1, 2, 3], a=0, b=1, off_points=[(1, 1, 0), (1, 0, 1)])
    with pytest.raises(ValueError, match="distinct"):
        SeparatorConfig([1, 1, 3], a=1, b=1, off_points=[(1, 1, 0), (1, 0, 1)])
    with pytest.raises(ValueError, match="first coordinate"):
        SeparatorConfig([0, 1, 2], a=1, b=1, off_points=[(1, 1, 0), (1, 0, 1)])
    with pytest.raises(ValueError, match="lies on the line"):
        SeparatorConfig([1, 2, 3], a=1, b=1, off_points=[(5, 1, 1), (1, 0, 1)])
    with pytest.raises(ValueError, match="two or three"):
        SeparatorConfig([1, 2, 3, 4, 5], a=1, b=1, off_points=[(1, 1, 0)])


def _scalar_separators(config):
    """The separators of `separator_forms` as scalar forms, built from its
    int kernel vectors as `cli lemma26` builds them."""
    mons, vectors = separator_forms(config)
    scalar = config.field.scalar
    return [{m: scalar(v, den) for m, v in zip(mons, x) if v} for x, den in vectors]


def assert_valid_separators(cfg):
    forms = _scalar_separators(cfg)
    mons = set(separator_monomial_basis(cfg.n))
    pts = cfg.points
    assert len(forms) == len(pts)
    for j, f in enumerate(forms):
        # confined to the family, vanishing off the target, nonzero on it
        assert set(f) <= mons
        for i, p in enumerate(pts):
            v = evaluate_form(f, p.coords)
            assert (v != 0) == (i == j)
    # the family of separators has full rank on the configuration
    assert family_rank(cfg.scheme(), forms) == len(pts)


def test_separators_case2():
    assert_valid_separators(make_case2_config())


def test_separators_case1():
    cfg = SeparatorConfig(
        aligned_u=[1, 2, 3, -1], a=1, b=2, off_points=[(1, 1, 1), (1, 0, 1)]
    )
    assert_valid_separators(cfg)


def test_case1_off_point_at_infinity_is_degenerate():
    # with n + 1 aligned points, any family member vanishing on all of
    # them vanishes on the line, hence is divisible by U * (line form);
    # an off point with U = 0 therefore admits no separator
    cfg = SeparatorConfig(
        aligned_u=[1, 2, 3, -1], a=1, b=2, off_points=[(1, 1, 1), (0, 1, 0)]
    )
    with pytest.raises(DegenerateConfiguration):
        separator_forms(cfg)


def test_separators_larger_case1():
    cfg = SeparatorConfig(
        aligned_u=[1, 2, 3, 4, 5, 7], a=3, b=-2,
        off_points=[(1, 0, 1), (2, 1, 5)],
    )
    assert (cfg.n, cfg.case) == (5, 1)
    assert_valid_separators(cfg)


def test_degenerate_configuration():
    # every family monomial vanishes at (0:0:1) once n >= 3, so that
    # point can never be separated
    cfg = SeparatorConfig(
        aligned_u=[1, 2, 3], a=1, b=1, off_points=[(1, 1, 0), (1, 0, 1), (0, 0, 1)]
    )
    with pytest.raises(DegenerateConfiguration):
        separator_forms(cfg)


def test_five_collinear_plus_one_with_tail_powers():
    # the aligned line is T1 = T2 through (1:0:0); tail powers of T1
    # on top of the standard part separate at degree five
    pts = [(u, 1, 1) for u in (1, 2, 3, 4, 5)] + [(1, 2, 0)]
    x = points(*pts)
    recipe = standard_recipe(
        extra={j: [t_monomial(2, (j, 0))] for j in (3, 4, 5)}
    )
    assert recipe_separates(x, recipe, 5)


@settings(max_examples=25, deadline=None)
@given(st.integers())
def test_random_lemma_configurations_separate(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4])
    a = rng.choice([1, 2, 3, -1])
    b = rng.choice([1, 2, -2])
    us = rng.sample([u for u in range(-6, 7) if u], n + 2)
    n_off = rng.choice([2, 3])
    aligned = us[: n + 3 - n_off]
    off = []
    while len(off) < n_off:
        # keep off-line points affine in U: points at U = 0 are covered
        # by the dedicated degeneracy tests
        cand = (rng.randint(1, 4), rng.randint(-4, 4), rng.randint(-4, 4))
        if b * cand[1] - a * cand[2] == 0:
            continue
        p = ProjPoint(cand)
        if p not in off:
            off.append(p)
    cfg = SeparatorConfig(aligned, a, b, off)
    try:
        assert_valid_separators(cfg)
    except DegenerateConfiguration:
        # permitted outcome for special positions; must be reproducible
        with pytest.raises(DegenerateConfiguration):
            separator_forms(cfg)


F7 = prime_field(7)
F31 = prime_field(2**31 - 1)


FULL_RANK = (([1, 2, 3], 1, 1, [(1, 1, 0), (1, 0, 1), (1, 2, 3)]),
             ([1, 2, 3, -1], 1, 2, [(1, 1, 1), (1, 0, 1)]),
             ([1, 2, 3, -1, -2, -3], 3, -2, [(1, 0, 1), (2, 1, 5)]))


def _record_eliminations(monkeypatch):
    """The list that every ColumnSpace.add and exactalg._kernel call
    appends its name to from now on."""
    from zeroreg import exactalg

    calls = []
    original_add, original_kernel = ColumnSpace.add, exactalg._kernel
    monkeypatch.setattr(ColumnSpace, "add",
                        lambda space, vec: calls.append("add") or original_add(space, vec))
    monkeypatch.setattr(exactalg, "_kernel",
                        lambda *args: calls.append("kernel") or original_kernel(*args))
    return calls


@pytest.mark.parametrize("field", [QQ, F7, F31])
def test_separator_forms_adds_each_point_once(field, monkeypatch):
    # products on the line and the minors of one small off-line system
    # give each point of a full-rank configuration its one separator,
    # with no reducer and no back-substitution.  A degenerate one names
    # the point that the per-point solver names
    calls = _record_eliminations(monkeypatch)
    for args in FULL_RANK:
        cfg = SeparatorConfig(*args, field)
        calls.clear()
        mons, vectors = separator_forms(cfg)
        assert calls == [] and len(vectors) == cfg.n + 3
        assert _outcome(_scalar_separators, cfg) == _outcome(_separator_forms_reference, cfg)
    cfg = SeparatorConfig([1, 2, 3], 1, 1, [(1, 1, 0), (1, 0, 1), (0, 0, 1)], field)
    with pytest.raises(DegenerateConfiguration) as raised:
        separator_forms(cfg)
    assert _outcome(_separator_forms_reference, cfg) == ("degenerate", str(raised.value))


@pytest.mark.parametrize("field", [F7, F31])
def test_prime_field_separators_back_substitute_on_leads_one(field, monkeypatch):
    # over F_p each separator comes out in the field's normal form at its
    # last nonzero entry: residues with lead and den 1, taken without a
    # back-substitution, and the per-point solver's separators
    calls = _record_eliminations(monkeypatch)
    for args in FULL_RANK[1:]:
        cfg = SeparatorConfig(*args, field)
        calls.clear()
        mons, vectors = separator_forms(cfg)
        assert calls == []
        for nums, den in vectors:
            lead = max(i for i, v in enumerate(nums) if v)
            assert den == nums[lead] == 1 and all(0 <= v < field.modulus for v in nums)
        got = _outcome(_scalar_separators, cfg)
        assert got[0] == "forms" and got == _outcome(_separator_forms_reference, cfg)


def _separator_forms_reference(config):
    """The per-point solver that one elimination of [A | I] replaced:
    for each point j, the kernel basis of the other points' evaluation
    rows from scratch, and its first vector that does not vanish at j.
    Values are taken in the field (on `_arith`'s scalars), unscaled."""
    field = config.field
    lift, back = _arith(field)
    mons = separator_monomial_basis(config.n)
    values = []
    for p in config.points:
        row = []
        for mon in mons:
            v = lift(1)
            for x, e in zip(p.coords, mon):
                v = v * lift(x) ** e
            row.append(v)
        values.append(row)
    out = []
    for j in range(len(values)):
        candidates = Matrix([[back(v) for v in values[i]] for i in range(len(values)) if i != j],
                            field=field, ncols=len(mons)).kernel_basis()
        chosen = None
        for v in candidates:
            if sum((x * lift(y) for x, y in zip(values[j], v)), lift(0)) != 0:
                chosen = v
                break
        if chosen is None:
            raise DegenerateConfiguration(
                "no separator for point %d inside the monomial family" % j)
        out.append({m: c for m, c in zip(mons, chosen) if c != 0})
    return out


def _outcome(solver, config):
    try:
        forms = solver(config)
    except DegenerateConfiguration as err:
        return "degenerate", str(err)
    return "forms", forms, repr(forms)


@st.composite
def separator_inputs(draw):
    """A field, n = 2..6, a case, and the points of a configuration; over
    Q the line parameters, the aligned points and the off-line points may
    be fractional.  Off-line points at U = 0 (and (0:0:1)) are drawn
    often: they make configurations without a separator."""
    field = draw(st.sampled_from((QQ, F7, F31)))
    case = draw(st.sampled_from((1, 2)))
    # the n + 2 - case aligned points need distinct nonzero residues, and
    # F_7 has six of them
    n = draw(st.integers(2, 4 + case if field is F7 else 6))
    if field is QQ:
        scalar = st.fractions(min_value=-9, max_value=9, max_denominator=6)
        nonzero = scalar.filter(bool)
        us = draw(st.lists(nonzero, min_size=n + 2 - case, max_size=n + 2 - case,
                           unique=True))
    else:
        # representatives of distinct nonzero residues
        pool = [-3, -2, -1, 1, 2, 3] if field is F7 else [x for x in range(-9, 10) if x]
        scalar = st.integers(-9, 9)
        nonzero = st.sampled_from(pool)
        us = draw(st.permutations(pool))[:n + 2 - case]
    a, b = draw(nonzero), draw(nonzero)
    offs = draw(st.lists(st.tuples(st.one_of(st.just(0), scalar), scalar, scalar),
                         min_size=case + 1, max_size=case + 1))
    return field, us, a, b, offs


@settings(max_examples=200, deadline=None)
@given(separator_inputs())
# the two degenerate configurations of the tests above
@example((QQ, [1, 2, 3, -1], 1, 2, [(1, 1, 1), (0, 1, 0)]))
@example((QQ, [1, 2, 3], 1, 1, [(1, 1, 0), (1, 0, 1), (0, 0, 1)]))
@example((F7, [1, 2, 3, 4], 1, 1, [(0, 1, 0), (0, 0, 1)]))
@example((F31, [Fraction(1, 2), 3, 5], 2, 3, [(1, 0, 1), (1, 1, 0), (0, 0, 1)]))
# full rank, case 1, n = 6: the echelon form of the evaluation rows
# leaves out the family's second-to-last monomial, not its last
@example((QQ, [6, -9, 4, 9, 3, -7, -3], 8, -8, [(6, 3, -1), (4, 2, 8)]))
# rank n + 1, two short: the three off-line points at U = 0 are
# dependent, and point 5, the first of them, is the first without a
# separator
@example((QQ, [-8, -9, 3, -2, -4], 4, 5, [(0, 8, -4), (0, -9, -4), (0, -5, 7)]))
# the last nonzero entry c0 of the kernel vector k0 of the evaluation
# matrix, which the separators are zero at: c0 = n + 3, n + 2 and n + 1
# in case 1, n + 1 in case 2 over F_7, and c0 = n, k0 = c Z, in case 2
@example((QQ, [1, 2, 3, -1], 1, 2, [(1, 1, 1), (1, 0, 1)]))
@example((QQ, [2, -1, -3, 1, -2], -1, -1, [(-1, 2, -1), (-1, 2, 1)]))
@example((QQ, [2, 1, -2], 2, 2, [(0, 2, 0), (0, -1, 1)]))
@example((F7, [-2, -1, 1], -1, 2, [(-1, 2, -2), (-1, -3, 3), (-3, 1, 0)]))
@example((QQ, [1, 2, -2, -1], 2, 2, [(-1, 1, 0), (2, 2, 0), (-1, 1, 2)]))
@example((QQ, [2, -1], 2, -1, [(1, 1, 1), (-1, 2, 2), (1, 1, -1)]))
# an off point at U = 0: no separator at n = 3, where U^(n-2) L vanishes
# there, and separators at n = 2, where it is L
@example((QQ, [1, 2, 3, -1], 1, 2, [(1, 1, 1), (0, 1, 0)]))
@example((QQ, [1, 2, 3], 1, 2, [(1, 1, 1), (0, 1, 0)]))
# n = 2 over F_7 and F_(2^31 - 1)
@example((F7, [-2, -1, -3], 2, 2, [(-1, 2, -1), (2, 2, -1)]))
@example((F31, [-1, 2], 2, 1, [(1, 2, 2), (0, 0, 2), (1, 1, 2)]))
def test_separator_forms_match_the_per_point_solver(inputs):
    field, us, a, b, offs = inputs
    try:
        cfg = SeparatorConfig(us, a, b, offs, field)
    except ValueError:
        reject()
    got = _outcome(_scalar_separators, cfg)
    event("%s over %s" % (got[0], "Q" if field is QQ else "F_%d" % field.modulus))
    assert got == _outcome(_separator_forms_reference, cfg)


def _kernel_shape(config):
    """c0 - n for c0 the last nonzero entry of the one kernel vector of
    the evaluation matrix, or "degenerate" when that has rank below
    n + 3, read off `Matrix.kernel_basis` on scalar values."""
    mons = separator_monomial_basis(config.n)
    columns = form_values([{m: 1} for m in mons], [p.coords for p in config.points],
                          config.field)
    kernel = Matrix(list(zip(*columns)), field=config.field).kernel_basis()
    if len(kernel) > 1:
        return "degenerate"
    return max(i for i, v in enumerate(kernel[0]) if v) - config.n


def test_separator_forms_sweep_reaches_every_kernel_shape(monkeypatch):
    # every configuration the lemma2_6 suite draws over Q and F_7, the
    # degenerate ones it redraws included, and a small box where special
    # positions are common, against the per-point solver
    from zeroreg import harness

    drawn = []
    solver = harness.separator_forms
    monkeypatch.setattr(harness, "separator_forms",
                        lambda config: drawn.append(config) or solver(config))
    for prime in (None, 7):
        run_suite("lemma2_6", 32, seed=36, prime=prime)
    assert {cfg.field for cfg in drawn} == {QQ, F7}
    suite_draws = len(drawn)
    rng = random.Random(36)
    while len(drawn) < suite_draws + 500:
        field = rng.choice((QQ, F7, F31))
        n, case = rng.randint(2, 4), rng.choice((1, 2))
        us = rng.sample([-3, -2, -1, 1, 2, 3], n + 2 - case)
        a, b = rng.choice((-1, 1, 2)), rng.choice((-1, 1, 2))
        offs = [(rng.choice((0, 0, -1, 1, 2)), rng.randint(-1, 2), rng.randint(-1, 2))
                for _ in range(case + 1)]
        try:
            drawn.append(SeparatorConfig(us, a, b, offs, field))
        except ValueError:
            continue
    shapes = Counter()
    for cfg in drawn:
        got = _outcome(_scalar_separators, cfg)
        assert got == _outcome(_separator_forms_reference, cfg)
        shape = _kernel_shape(cfg)
        assert (got[0] == "degenerate") == (shape == "degenerate")
        shapes[shape, cfg.case] += 1
    assert set(shapes) == {(3, 1), (2, 1), (1, 1), ("degenerate", 1),
                           (3, 2), (2, 2), (1, 2), (0, 2), ("degenerate", 2)}


# ---------------------------------------------------------------------------
# field discipline: a Fraction maps into F_p as num * den^-1, wherever it
# enters


def _image(x, p):
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def _fractions_over(p):
    """Fractions whose denominators p does not divide."""
    den = st.integers(1, 12).filter(lambda d: d % p)
    return st.builds(Fraction, st.integers(-20, 20), den)


@st.composite
def fractional_recipe_cases(draw):
    F = draw(st.sampled_from((F7, F31)))
    p = F.modulus
    frac = _fractions_over(p)
    germs, supports = [], set()
    for _ in range(draw(st.integers(1, 4))):
        point = draw(st.tuples(*[st.integers(-5, 5)] * 3))
        direction = draw(st.tuples(*[st.integers(-5, 5)] * 3))
        length = draw(st.integers(1, 2))
        try:
            g = germ_on_line(point, direction, length, F)
        except (ValueError, StopIteration, ZeroDivisionError):
            continue
        if g.support not in supports:
            supports.add(g.support)
            germs.append(g)
    standard = draw(st.booleans())
    levels = range(3, 5) if standard else range(0, 5)
    spaces = {}
    for j in levels:
        forms = []
        for _ in range(draw(st.integers(0, 2))):
            mons = draw(st.lists(st.integers(0, j), min_size=1, max_size=3, unique=True))
            forms.append({(j - e, e): draw(frac) for e in mons})
        if forms:
            spaces[j] = forms
    k = draw(st.integers(0, 5))
    return F, germs, spaces, standard, k


@settings(max_examples=150, deadline=None)
@given(fractional_recipe_cases())
def test_fractional_recipe_coefficients_map_into_fp(case):
    F, germs, spaces, standard, k = case
    if not germs:
        reject()
    p = F.modulus
    scheme = FiniteScheme(germs, F)
    fractional = FormSpaceRecipe(2, spaces, standard=standard)
    mapped = FormSpaceRecipe(
        2, {j: [{m: _image(c, p) for m, c in f.items()} for f in forms]
            for j, forms in spaces.items()},
        standard=standard)
    want = family_rank(scheme, recipe_space(mapped, k, 2))
    assert family_rank(scheme, recipe_space(fractional, k, 2)) == want
    assert recipe_separates(scheme, fractional, k) == recipe_separates(scheme, mapped, k)
    assert recipe_separates(scheme, fractional, k) == (want == scheme.degree)


def _config_outcome(us, a, b, offs, field):
    try:
        cfg = SeparatorConfig(us, a, b, offs, field)
    except ValueError as err:
        return "invalid", str(err)
    return _outcome(_scalar_separators, cfg)


@st.composite
def fractional_config_inputs(draw):
    """A field F_p, n = 2..5, a case, and the parameters of a
    configuration as Fractions whose denominators p does not divide."""
    F = draw(st.sampled_from((F7, F31)))
    n, case = draw(st.integers(2, 5)), draw(st.sampled_from((1, 2)))
    frac = _fractions_over(F.modulus)
    us = draw(st.lists(frac, min_size=n + 2 - case, max_size=n + 2 - case))
    a, b = draw(frac), draw(frac)
    offs = draw(st.lists(st.tuples(frac, frac, frac), min_size=case + 1, max_size=case + 1))
    return F, us, a, b, offs


@settings(max_examples=150, deadline=None)
@given(fractional_config_inputs())
# u, a and b over one denominator, 3, which their common clearing removes
@example((F31, [Fraction(1, 3), Fraction(2, 3), Fraction(-4, 3)], Fraction(2, 3),
          Fraction(5, 3), [(1, 0, 1), (1, 1, 0)]))
def test_separator_config_from_fractions_matches_their_images(inputs):
    F, us, a, b, offs = inputs
    p = F.modulus
    images = ([_image(u, p) for u in us], _image(a, p), _image(b, p),
              [tuple(_image(c, p) for c in q) for q in offs])
    assert _config_outcome(us, a, b, offs, F) == _config_outcome(*images, F)
