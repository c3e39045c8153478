"""Separating families of forms built from a distinguished coordinate.

A recipe fixes, for each level j, a space V_j of degree-j forms in the
"tangent" variables T_1 .. T_m; at degree k it spawns the forms
U^(k-j) * v for v in V_j.  The standard recipe takes V_0, V_1, V_2 to
be the full monomial spaces; refinements add small spaces at higher
levels instead of the full ones, which is what makes the resulting
regularity bounds tight.

A family of forms separates a finite scheme when its evaluations span
all of the scheme's functionals, equivalently when for every functional
some member of the family takes a prescribed nonzero value after
killing the others.  `family_rank` ranks those evaluations on ints: the
forms are cleared once, each germ takes each coordinate's powers once
(`CurvilinearGerm.form_series`), and the int columns differ from the
scalar ones by nonzero row and column scales only.

For plane configurations of n + 3 points with n + 1 (or n) of them on
a line through (1:0:0) avoiding the two coordinate vertices, a family
of n + 4 monomials of degree n suffices; `separator_forms` produces one
certified separator per point inside that family, or reports the
configuration as degenerate.  The separators of point j are the kernel
of A_{-j}, the evaluation matrix A of all n + 3 points without row j.
All of them come from one elimination of [A | I]: a point has a
separator exactly when no dependency among the rows of A involves it,
and when A has full rank each separator is w_j, the solution of
A w_j = e_j that is zero at A's one non-lead column, scaled to 1 at its
last nonzero entry, which one back-substitution per point reads off.
The separators come back on ints, one normalized vector per point;
only `cli lemma26`, which prints them, builds scalars.
"""

from __future__ import annotations

from zeroreg.exactalg import ColumnSpace, QQ, _kernel
from zeroreg.forms import _power_tables, cleared_form, monomials_of_degree
from zeroreg.scheme import FiniteScheme, ProjPoint, reduced_germ


class DegenerateConfiguration(Exception):
    """The requested separators do not exist inside the monomial family."""


class FormSpaceRecipe:
    """Level-indexed spaces of forms in m tangent variables.  With
    `standard` set, levels 0..2 are the full monomial spaces and
    `spaces` may only add levels >= 3."""

    __slots__ = ("t_count", "spaces", "standard")

    def __init__(self, t_count: int, spaces=None, standard: bool = True):
        spaces = {int(j): tuple(forms) for j, forms in (spaces or {}).items()}
        for j, forms in spaces.items():
            if j < 0:
                raise ValueError("levels must be nonnegative")
            if standard and j <= 2:
                raise ValueError("levels 0..2 are implied by the standard part")
            for f in forms:
                for mon, _ in f.items():
                    if len(mon) != t_count or sum(mon) != j:
                        raise ValueError("form degree does not match its level")
        self.t_count = t_count
        self.spaces = spaces
        self.standard = standard

    def space(self, j: int):
        """Basis of V_j (tuples of form dicts over the tangent variables)."""
        out = []
        if self.standard and j <= 2:
            out.extend({mon: QQ(1)} for mon in monomials_of_degree(self.t_count, j))
        out.extend(self.spaces.get(j, ()))
        return out

    def levels(self):
        out = set(self.spaces)
        if self.standard:
            out.update((0, 1, 2))
        return sorted(out)

    def dims(self):
        return {j: len(self.space(j)) for j in self.levels() if self.space(j)}


def t_monomial(t_count: int, exponents):
    """Single tangent-variable monomial as a one-term form."""
    exponents = tuple(exponents)
    if len(exponents) != t_count:
        raise ValueError("wrong number of exponents")
    return {exponents: QQ(1)}


def line_power_recipe(max_level: int, t_count: int = 2) -> FormSpaceRecipe:
    """V_j = { T_1^j } for 0 <= j <= max_level: the family of powers of
    a single line, which separates aligned configurations."""
    spaces = {
        j: [t_monomial(t_count, (j,) + (0,) * (t_count - 1))]
        for j in range(max_level + 1)
    }
    return FormSpaceRecipe(t_count, spaces, standard=False)


def standard_recipe(t_count: int = 2, extra=None) -> FormSpaceRecipe:
    return FormSpaceRecipe(t_count, extra or {}, standard=True)


def recipe_space(recipe: FormSpaceRecipe, k: int, ambient: int):
    """The degree-k forms U^(k-j) * v, as form dicts over the ambient
    coordinates, with U = x_0 and T_i = x_i; levels above k are
    skipped."""
    if recipe.t_count > ambient:
        raise ValueError("the recipe has %d tangent variables, but only x_1 .. x_%d "
                         "follow U = x_0" % (recipe.t_count, ambient))
    pad = (0,) * (ambient - recipe.t_count)
    return [{(k - j,) + mon + pad: coeff for mon, coeff in v.items()}
            for j in recipe.levels() if j <= k for v in recipe.space(j)]


def family_rank(scheme: FiniteScheme, forms) -> int:
    """Rank of the family's evaluations on the scheme's functionals.

    Ranked on ints: each form is cleared once (`cleared_form`), and each
    germ gives its block of every column through its int core
    `CurvilinearGerm.form_series`, which takes each coordinate's powers
    once per germ.  The int block of f on germ g is E_f den_g^s times
    the scalar one, E_f being f's denominator and s <= top, the family's
    largest degree; a form of lower degree K_f is lifted by
    den_g^(top - K_f) to that scale.  So E_f scales a whole column and
    den_g^s a whole germ block, the same for every form: the int matrix
    is the scalar one with nonzero scales on its rows and columns, and
    has the same rank.  Over F_p every scale is 1.  The columns are
    taken one at a time, and the rank is read off as soon as it reaches
    the degree."""
    field = scheme.field
    cleared = [cleared_form(f, field) for f in forms]
    space = ColumnSpace(field)
    for blocks in zip(*(g.form_series(cleared)[1] for g in scheme.germs)):
        space.add([v for block in blocks for v in block])
        if space.rank == scheme.degree:
            break
    return space.rank


def recipe_separates(scheme: FiniteScheme, recipe: FormSpaceRecipe, k: int) -> bool:
    forms = recipe_space(recipe, k, scheme.ambient)
    return family_rank(scheme, forms) == scheme.degree


def separator_monomial_basis(n: int):
    """The n + 4 degree-n monomials in (U, T1, T2) used by the plane
    separator construction: U^(n-j) T1^j for 0 <= j <= n, plus
    U^(n-1) T2, U^(n-2) T1 T2 and U^(n-2) T2^2."""
    if n < 2:
        raise ValueError("the monomial family needs n >= 2")
    mons = [(n - j, j, 0) for j in range(n + 1)]
    mons += [(n - 1, 0, 1), (n - 2, 1, 1), (n - 2, 0, 2)]
    return mons


class SeparatorConfig:
    """n + 3 plane points, of which the aligned ones are (u_i : a : b)
    on the line b*T1 = a*T2 (so the line passes through (1:0:0) and
    misses (0:1:0) and (0:0:1)); two off-line points give the
    (n+1)-aligned case, three give the n-aligned case."""

    __slots__ = ("n", "case", "aligned", "off", "field")

    def __init__(self, aligned_u, a, b, off_points, field=QQ):
        # u, a and b (ints, Fractions or elements of `field`) go to ints
        # on one common scale, which moves no point (u : a : b)
        *us, a, b = field.ints([*aligned_u, a, b])
        if a == 0 or b == 0:
            raise ValueError("the line parameters a, b must be nonzero")
        if 0 in us:
            raise ValueError("aligned points must have nonzero first coordinate")
        if len(set(us)) != len(us):
            raise ValueError("aligned points must be distinct")
        off = [ProjPoint.of(p, field) for p in off_points]
        if any(len(p.vec) != 3 for p in off):
            raise ValueError("off-line points must be points of P^2 (three coordinates)")
        if len(off) == 2:
            case = 1
        elif len(off) == 3:
            case = 2
        else:
            raise ValueError("expected two or three off-line points")
        n = len(us) + len(off) - 3
        if n < 2:
            raise ValueError("too few points: need n >= 2")
        for p in off:
            if not any(field.ints([b * p.vec[1] - a * p.vec[2]])):
                raise ValueError("off-line point lies on the line")
        if len(set(off)) != len(off):
            raise ValueError("off-line points must be distinct")
        self.n = n
        self.case = case
        self.aligned = tuple(ProjPoint((u, a, b), field) for u in us)
        self.off = tuple(off)
        self.field = field

    @property
    def points(self):
        return self.aligned + self.off

    def scheme(self) -> FiniteScheme:
        return FiniteScheme([reduced_germ(p, self.field) for p in self.points], self.field)


def _monomial_values(vec, mons, degree, p):
    """Values of the monomials at a point's int vector (`ProjPoint.vec`)
    as plain ints, from one power table per coordinate: residues over
    F_p (p the modulus).  Over Q that is the primitive integer
    representative: it multiplies every value of the row by the same
    positive constant, which changes no kernel and no zero pattern of
    the separator systems."""
    powers = _power_tables(vec, degree, p)
    out = []
    for m in mons:
        v = powers[0][m[0]]
        for table, e in zip(powers[1:], m[1:]):
            v *= table[e]
        out.append(v if p is None else v % p)
    return out


def separator_forms(config: SeparatorConfig):
    """One degree-n separator per configuration point, each a linear
    combination of the n + 4 family monomials vanishing at every other
    point and not at its own; DegenerateConfiguration, naming the first
    such point, if some point admits none.

    Returned on ints, as (mons, vectors): the family monomials
    (`separator_monomial_basis`) and, per point, its separator's
    coefficients on them as a (numerators, den) pair of plain ints,
    `field.normal_form` of the separator at its last nonzero entry f:
    primitive integers with den = numerators[f] > 0 over Q, residues
    with den = numerators[f] = 1 over F_p.  The separator is
    {m: field.scalar(v, den)} over the nonzero v; the int form {m: v} is
    den times it, with the same zeros.

    The n + 3 rows [A_j | e_j] (point j's monomial values, then row j of
    the identity) go into one reducer; sorted by lead, its pivots are
    [R | L] with R = L A an echelon form of A.
    - Point j has a separator exactly when A_j is not in the span of the
      other rows, that is when no left-kernel vector of A is nonzero at
      j.  The pivots leading inside the identity block have R = 0, and
      their L parts are a basis of that left kernel: the first point
      without a separator is the least index in the union of their
      supports.
    - Otherwise A has rank n + 3, and R leaves out one column c0.  ker A
      is spanned by k0, whose last nonzero entry is at c0, and ker A_{-j}
      = span(k0, w_j), where A w_j = e_j and w_j[c0] = 0.  The kernel
      basis of `Matrix(other rows).kernel_basis()`, one vector per free
      column set to 1, is k0 and w_j scaled to 1 at its last nonzero
      entry, and the separator is its one vector that does not vanish at
      point j, the second.  R w_j = L e_j is triangular once c0 is
      dropped, so `_kernel` reads -w_j off those pivots with L's column
      j appended as their only free column."""
    field = config.field
    p = field.modulus
    mons = separator_monomial_basis(config.n)
    width, count = len(mons), len(config.points)
    space = ColumnSpace(field)
    for j, pt in enumerate(config.points):
        row = _monomial_values(pt.vec, mons, config.n, p) + [0] * count
        row[width + j] = 1
        space.add(row)
    pivots = sorted(space.pivots)
    dependencies = [row[width:] for c, row in pivots if c >= width]
    if dependencies:
        j = min(i for row in dependencies for i, v in enumerate(row) if v)
        raise DegenerateConfiguration(
            "no separator for point %d inside the monomial family" % j
        )
    # each pivot in its field's normal form at its lead, once: over F_p
    # the back-substitutions then step on leads 1 and rescale nothing
    pivots = [(c, list(field.normal_form(row, c))) for c, row in pivots]
    c0 = next((i for i, (c, _) in enumerate(pivots) if c != i), width - 1)
    triangular = [(c - (c > c0), row[:c0] + row[c0 + 1:width]) for c, row in pivots]
    out = []
    for col in range(width, width + count):
        system = [(c, r + [row[col]]) for (c, r), (_, row) in zip(triangular, pivots)]
        (y, _), = _kernel(system, width, p)
        y = y[:c0] + [0] + y[c0:-1]
        f = max(i for i, v in enumerate(y) if v)
        x = field.normal_form(y, f)
        out.append((x, x[f]))
    return mons, out
