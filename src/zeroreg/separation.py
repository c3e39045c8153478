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
configuration as degenerate.  It interpolates on the line, where a
member takes the values of its binary part in (U, T1), and leaves one
off-line system of 2 or 3 rows, whose signed minors k0 span the kernel
of A, the evaluation matrix; k0 = 0 marks a degenerate configuration,
named by its first point whose row lies in the span of the others.
The separators come back on ints, one normalized vector per point;
only `cli lemma26`, which prints them, builds scalars.
"""

from __future__ import annotations

from zeroreg.exactalg import ColumnSpace, Matrix, QQ
from zeroreg.forms import cleared_form, monomials_of_degree
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


def _reduced(values, p):
    """Plain ints as they are over Q (p None), their residues over F_p."""
    return values if p is None else [v % p for v in values]


def _minors(rows, p):
    """The signed maximal minors of 2 x 3 or 3 x 4 int rows, entry t
    (-1)^t times the minor without column t: a vector of their kernel,
    zero exactly when their rank is below the number of rows."""
    if len(rows) == 2:
        (a0, a1, a2), (b0, b1, b2) = rows
        out = [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]
    else:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = rows
        m01, m02, m03 = b0 * c1 - b1 * c0, b0 * c2 - b2 * c0, b0 * c3 - b3 * c0
        m12, m13, m23 = b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2
        out = [a1 * m23 - a2 * m13 + a3 * m12, a2 * m03 - a0 * m23 - a3 * m02,
               a0 * m13 - a1 * m03 + a3 * m01, a1 * m02 - a0 * m12 - a2 * m01]
    return _reduced(out, p)


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

    With L = b T1 - a T2 the family is the binary forms B of degree n
    in (U, T1) plus L U^(n-2) (g0 U + g1 T1 + g2 T2), as a != 0, and a
    member takes B's value at an aligned point.  With Z the product of
    the aligned points' factors T_k U - U_k T1 and Z_i that without
    point i's, members zero at every aligned point have B = 0 (case 1)
    or c Z (case 2), and those zero at all but point i add Z_i (case 1)
    or U Z_i (case 2).  Each off point o gives a row of H, in
    z = ((c), g0, g1, g2): (Z(o)), then L(o) U(o)^(n-2) (U, T1, T2)(o),
    with Z(o) and Z_i(o) from prefix and suffix products of the
    factors' values at o.
    - The signed maximal minors k0 of H, mapped to the family, span
      ker A (A the evaluation matrix of all n + 3 points) and vanish
      exactly when rank A < n + 3.  Then the first point j with
      rank A_{-j} = rank A is named: an aligned one when its form's
      values at the off points lie in the column span of H, an off one
      when its row of H lies in the span of the others.
    - Otherwise point j's separator is the one in ker A_{-j} that is
      zero at c0, k0's last nonzero entry in the family (the column an
      echelon form of A leaves out).  With phi that entry as a row in z,
      N = [H; phi] has det N = +-phi(k0) != 0, and minus its adjugate's
      columns M_o give them all: M_j at off point j, and at aligned
      point i det N Z_i (or U Z_i) + sum_o v_o M_o, v_o that form's
      values."""
    field = config.field
    p = field.modulus
    n = config.n
    _, a, b = config.aligned[0].vec
    aligned = [pt.vec[:2] for pt in config.aligned]
    offs = [pt.vec for pt in config.off]
    zeta = [1]
    for uk, tk in aligned:
        zeta = _reduced([tk * x - uk * y for x, y in zip(zeta + [0], [0] + zeta)], p)
    case1 = len(offs) == 2
    # per off point: every Z_i there (times U in case 2), its row of H
    cuts, rows = [], []
    for u, t, s in offs:
        values = [tk * u - uk * t for uk, tk in aligned]
        head, tail = [1], [1]
        for v, w in zip(values, reversed(values)):
            head.append(head[-1] * v)
            tail.append(tail[-1] * w)
        cut = [x * y for x, y in zip(head, reversed(tail[:-1]))]
        cuts.append(_reduced(cut if case1 else [v * u for v in cut], p))
        g = (b * t - a * s) * u ** (n - 2)
        rows.append(_reduced(([] if case1 else head[-1:]) + [g * u, g * t, g * s], p))

    def family(z):
        *c, g0, g1, g2 = z
        out = [0] * (n + 1) if case1 else [c[0] * v for v in zeta]
        out[1] += b * g0
        out[2] += b * g1
        return out + [-a * g0, b * g2 - a * g1, -a * g2]

    k0 = _minors(rows, p)
    if not any(k0):
        rank = Matrix(rows, field=field).rank()
        named = [Matrix([[c[i]] + r for c, r in zip(cuts, rows)], field=field).rank() > rank
                 for i in range(len(aligned))]
        named += [Matrix(rows[:j] + rows[j + 1:], field=field).rank() == rank
                  for j in range(len(offs))]
        raise DegenerateConfiguration(
            "no separator for point %d inside the monomial family" % named.index(True)
        )
    c0 = max(i for i, v in enumerate(_reduced(family(k0), p)) if v)
    phi = [family([int(s == t) for t in range(len(k0))])[c0] for s in range(len(k0))]
    det = (-1) ** len(rows) * sum(f * k for f, k in zip(phi, k0))
    # minus the adjugate's column at each off row
    adj = [_minors(rows[:o] + rows[o + 1:] + [phi], p) for o in range(len(offs))]
    adj = [col if o % 2 else [-v for v in col] for o, col in enumerate(adj)]
    out = []
    for i, (uk, tk) in enumerate(aligned):
        w = family([sum(col[t] * c[i] for col, c in zip(adj, cuts)) for t in range(len(k0))])
        # Z_i = Z / (tk U - uk T1), by synthetic division
        inv, v = None if p is None else pow(tk, -1, p), 0
        for j, x in enumerate(zeta[:-1]):
            v = (x + uk * v) // tk if p is None else (x + uk * v) * inv % p
            w[j] += det * v
        out.append(w)
    out += [family(col) for col in adj]
    for k, w in enumerate(out):
        w = _reduced(w, p)
        f = max(i for i, v in enumerate(w) if v)
        x = field.normal_form(w, f)
        out[k] = (x, x[f])
    return separator_monomial_basis(n), out
