"""Jacobian ring pieces: ranks, projectors, multiplication, socle, injectivity."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from ivhs import jacobian
from ivhs.errors import BudgetExceededError, PreconditionError, SingularInputError
from ivhs.fields import QQ, FieldSpec, default_prime_field
from ivhs.jacobian import (
    JacobianContext,
    action_matrix,
    graded_table,
    koszul_matrix,
    macaulay_injectivity_check,
    multiplication_map,
    smoothness_probe,
    socle_check,
)
from ivhs.linalg import Matrix
from ivhs.polyring import HomogeneousPoly, basis, graded_dimension, multiply, parse_poly
from ivhs.theorem import verify_theorem

from oracle import naive_poly_mul, naive_rank_mod, naive_rref_fraction

FP = default_prime_field()
P = FP.modulus


@pytest.fixture(scope="module")
def sextic():
    return JacobianContext.fermat(3, 6)


def _tuples(exponents):
    """Exponent rows as tuples."""
    return [tuple(e) for e in exponents.tolist()]


def _class_of(piece, g):
    """Coordinates of [g] in the standard-monomial basis of its piece."""
    cols = [[piece.ambient.index(e) for e, _ in g.terms()]]
    return piece.class_sums(cols, [c for _, c in g.terms()]).flatten()


def _ideal_terms(ctx, m):
    """Rows spanning the degree-m ideal piece (generator x monomial) as
    {ambient column: coefficient}, assembled independently."""
    amb = basis(ctx.num_vars, m)
    src = basis(ctx.num_vars, m - (ctx.d - 1))
    return [
        {amb.index(tuple(x + y for x, y in zip(a, t))): c for t, c in g.terms()}
        for g in ctx.generators
        for a in _tuples(src.exponents)
    ]


def _ideal_rows(ctx, m):
    """The rows of ``_ideal_terms`` as dense lists."""
    width = graded_dimension(ctx.num_vars, m)
    return [[row.get(j, 0) for j in range(width)] for row in _ideal_terms(ctx, m)]


def test_fermat_sextic_ideal_ranks(sextic):
    assert sextic.piece(1).ideal_rank == 0
    assert sextic.piece(6).ideal_rank == 25
    assert sextic.piece(7).ideal_rank == 75


def test_fermat_sextic_ideal_rank_against_oracle(sextic):
    # Independent assembly + textbook elimination mod p.
    assert naive_rank_mod(_ideal_rows(sextic, 6), P) == 25
    assert naive_rank_mod(_ideal_rows(sextic, 7), P) == 75


def test_regular_sequence_identity(sextic):
    # For d-1 <= m <= 2d-3 there are no syzygies in degree m, so
    # dim J^m = (n+2) * dim S^(m-d+1).
    for m in range(5, 10):
        expected = sextic.num_vars * graded_dimension(5, m - 5)
        assert sextic.piece(m).ideal_rank == expected


def test_monomial_and_dense_paths_agree(sextic):
    # The sextic's middle degrees, and every degree from d - 1 to sigma + 1
    # of two smaller Fermat rings (up to a 2475 x 1365 dense ideal piece).
    fixtures = [(sextic, range(5, 9))]
    for ctx in (JacobianContext.fermat(2, 5), JacobianContext.fermat(3, 4)):
        fixtures.append((ctx, range(ctx.d - 1, ctx.socle_degree + 2)))
    for ctx, degrees in fixtures:
        for m in degrees:
            pm = ctx.piece(m, method="monomial")
            pd = ctx.piece(m, method="dense")
            assert (pm.dim, pm.ideal_rank) == (pd.dim, pd.ideal_rank)
            assert pm.dim + pm.ideal_rank == pm.ambient.dim
            assert pm.standard_exponents.dtype == pd.standard_exponents.dtype == pm.ambient.exponents.dtype
            assert np.array_equal(pm.standard_exponents, pd.standard_exponents)
            every = range(pm.ambient.dim)
            assert pm.classes(every) == pd.classes(every)


def test_fermat_sextic_quotient_dimensions(sextic):
    assert sextic.piece(1).dim == 5
    assert sextic.piece(6).dim == 185
    assert sextic.piece(7).dim == 255
    assert sextic.piece(13).dim == 255
    assert sextic.piece(19).dim == 5


def test_piece_caching(sextic):
    assert sextic.piece(7) is sextic.piece(7)


def test_projector_fixes_standard_monomials(sextic):
    # Over every ambient column: standard monomials map to their unit
    # vectors, and on a monomial ideal every other monomial to zero.
    piece = sextic.piece(6)
    std_cols = [piece.ambient.index(e) for e in _tuples(piece.standard_exponents)]
    expected = np.zeros((piece.dim, piece.ambient.dim), dtype=np.int64)
    expected[range(piece.dim), std_cols] = 1
    assert np.array_equal(piece.classes(range(piece.ambient.dim)).array, expected)


NORMAL_FORM_FIXTURES = {
    "fermat(3,5)": lambda fld: JacobianContext.fermat(3, 5, field=fld),
    "cubic-surface": lambda fld: JacobianContext(parse_poly("x0^3+x1^3+x2^3+x3^3+x0*x1*x2", fld, num_vars=4)),
    "quartic-surface": lambda fld: JacobianContext(
        parse_poly("x0^4+x1^4+x2^4+x3^4+3*x0^2*x1*x3+x1*x2^3", fld, num_vars=4)
    ),
}


FIELD_PARAMS = [
    pytest.param(FieldSpec.prime(10007), id="p10007"),
    pytest.param(FieldSpec.prime(2147483629), id="p2147483629"),
    pytest.param(QQ, id="QQ"),
]
FIELDS = pytest.mark.parametrize("field", FIELD_PARAMS)


@FIELDS
@pytest.mark.parametrize(
    "text", ["x0^4+x1^4+x2^4+x3^4+3*x0^2*x1*x3+x1*x2^3", "x0^3+x1^3+x2^3+x3^3+x0*x1*x2", "x0^3+x1^3+x2^3"]
)
def test_ideal_matrix_against_oracle(text, field):
    # Row (i, s) is the naive product of generator i with monomial s.  In
    # four variables x0^3+x1^3+x2^3 has a zero generator: a block of zero rows.
    ctx = JacobianContext(parse_poly(text, field, num_vars=4))
    p = field.modulus if field.is_prime_field else None
    for m in range(ctx.d - 1, ctx.d + 3):
        amb = basis(4, m)
        rows = []
        for g in ctx.generators:
            for s in _tuples(basis(4, m - (ctx.d - 1)).exponents):
                row = [0] * amb.dim
                for e, c in naive_poly_mul(dict(g.terms()), {s: 1}, p).items():
                    row[amb.index(e)] = c
                rows.append(row)
        assert ctx._ideal_matrix(amb) == Matrix.from_rows(field, rows, cols=amb.dim), (text, m)


@FIELDS
@pytest.mark.parametrize("name", list(NORMAL_FORM_FIXTURES))
def test_normal_form_fixes_standard_and_kills_ideal(name, field):
    # Every degree with an ideal part up to one past the socle: the classes
    # of the standard columns form the identity, and every ideal row
    # (generator x monomial) has class zero.  Over Q the classes of all
    # ambient columns must match a Fraction elimination of the ideal rows,
    # which is slow beyond degree d + 2.
    ctx = NORMAL_FORM_FIXTURES[name](field)
    top = ctx.d + 2 if field == QQ else ctx.socle_degree + 1
    for m in range(ctx.d - 1, top + 1):
        piece = ctx.piece(m)
        amb = piece.ambient
        std_cols = [amb.index(e) for e in _tuples(piece.standard_exponents)]
        assert piece.classes(std_cols) == Matrix.identity(field, piece.dim)
        # Row j: the class of ambient monomial j.
        classes = np.array(piece.classes(range(amb.dim)).transpose().to_rows(), dtype=object)
        classes = classes.reshape(amb.dim, piece.dim)
        for row in _ideal_terms(ctx, m):
            image = sum(c * classes[j] for j, c in row.items())
            assert all(field.coerce(x) == 0 for x in image), m
        if field == QQ:
            ref, pivots = naive_rref_fraction(_ideal_rows(ctx, m))
            assert [j for j in range(amb.dim) if j not in pivots] == std_cols
            expected = np.zeros((amb.dim, piece.dim), dtype=object)
            expected[std_cols, range(piece.dim)] = 1
            for k, j in enumerate(pivots):
                expected[j] = [-ref[k][s] for s in std_cols]
            assert (classes == expected).all(), m


def _random_matrix(field, rows, cols, rng):
    if field == QQ:
        return Matrix.from_rows(
            field,
            [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in range(cols)] for _ in range(rows)],
            cols=cols,
        )
    return Matrix.from_array(field, rng.integers(0, field.modulus, size=(rows, cols)))


def _scatter_cases(piece, rng):
    """Column lists mixing standard and pivot monomials (class zero on a
    monomial ideal) with repeats, and the empty list."""
    amb = piece.ambient
    std = [amb.index(e) for e in _tuples(piece.standard_exponents)]
    others = sorted(set(range(amb.dim)) - set(std))
    picks = list(rng.choice(std, size=min(6, len(std)), replace=False)) if std else []
    picks += list(rng.choice(others, size=min(6, len(others)), replace=False)) if others else []
    picks = [int(j) for j in picks]
    return [picks + picks[:3] + picks[-2:], picks[::-1], []]


def _sums_by_gathers(piece, cols, coeffs):
    """class_sums as the sum over k of coeffs[k] times the class matrix of
    the column cols[:, k]."""
    out = Matrix.zeros(piece.field, piece.dim, cols.shape[0])
    for k, c in enumerate(coeffs):
        out = out + piece.classes(cols[:, k]).scale(c)
    return out


def _matmul_by_scatter(piece, cols, mat):
    """``classes(cols) @ mat`` as one triplet scatter of the quotient map:
    mat[r, v] times the class of cols[r] into column v."""
    r, v = np.indices(mat.shape).reshape(2, -1)
    vals = np.array(mat.flatten(), dtype=object if piece.field == QQ else np.int64)
    return piece.quotient.scatter(mat.cols, np.asarray(cols, dtype=np.intp)[r], v, vals)


def _classes_from_entries(piece, cols):
    """``classes(cols)`` filled in from its sparse reader, which must name
    each position at most once and no zero value."""
    rows, pos, vals = piece.quotient.entries(cols)
    assert len(set(zip(rows.tolist(), pos.tolist()))) == len(vals)
    assert all(x != 0 for x in vals.tolist())
    out = [[piece.field.zero()] * len(cols) for _ in range(piece.dim)]
    for i, j, x in zip(rows.tolist(), pos.tolist(), vals.tolist()):
        out[i][j] = x
    return Matrix.from_rows(piece.field, out, cols=len(cols))


def _mult_map_by_gathers(ctx, g, a):
    """The map [u] -> [g u] as the sum over the terms c x^t of g of c times
    the class matrix of the monomials u x^t."""
    src, tgt = ctx.piece(a), ctx.piece(a + g.degree)
    terms = list(g.terms())
    cols = tgt.ambient.sum_index(src.standard_exponents, [t for t, _ in terms])
    return _sums_by_gathers(tgt, cols, [c for _, c in terms])


@FIELDS
@pytest.mark.parametrize("name", list(NORMAL_FORM_FIXTURES))
def test_scatter_paths_match_class_matrices(name, field):
    # The quotient map's triplet scatter, sparse reader and zero test,
    # class_sums and multiplication_map against the class matrices they
    # avoid building.
    ctx = NORMAL_FORM_FIXTURES[name](field)
    rng = np.random.default_rng((7, ctx.num_vars, ctx.d))
    for m in range(ctx.d - 1, ctx.d + 3):
        piece = ctx.piece(m)
        for cols in _scatter_cases(piece, rng):
            for width in (0, 1, 3):
                mat = _random_matrix(field, len(cols), width, rng)
                assert _matmul_by_scatter(piece, cols, mat) == piece.classes(cols) @ mat, (m, cols, width)
            assert _classes_from_entries(piece, cols) == piece.classes(cols), (m, cols)
            nonzero = piece.quotient.nonzero(cols)
            assert nonzero.tolist() == [not piece.classes([j]).is_zero() for j in cols]
    texts = ("x0*x1", "x0^2+2*x1*x2", "x2^2-3*x0*x3+x1^2")
    for g in [parse_poly(text, field, num_vars=ctx.num_vars) for text in texts] + [ctx.generators[1]]:
        for a in (0, 1, ctx.d - 1, ctx.d):
            assert multiplication_map(ctx, g, a) == _mult_map_by_gathers(ctx, g, a), (g, a)
    # On a 2-d index table, as the canonical check tests q(g) != 0.
    b, top_deg = ctx.d - 1, 2 * ctx.d - 1
    q_cols = ctx.piece(top_deg).ambient.sum_index(ctx.piece(b).standard_exponents, ctx.piece(ctx.d).standard_exponents)
    got = ctx.piece(top_deg).quotient.nonzero(q_cols).any(axis=0).tolist()
    assert got == [not ctx.piece(top_deg).classes(q_cols[:, g]).is_zero() for g in range(q_cols.shape[1])]
    # One column summing many pivot-class terms: the pivot monomial whose
    # class has the largest entry, repeated, with coefficients near the
    # int64 prime and a zero one.  At p = 2147483629 three such terms,
    # unreduced, overflow int64.
    big = 2147483629
    coeffs = [big - 1, big - 2, 0, big - 3, big - 4, big - 5]
    overflows = False
    for m in range(ctx.d - 1, ctx.d + 3):
        piece = ctx.piece(m)
        std = [piece.ambient.index(e) for e in _tuples(piece.standard_exponents)]
        pivots = sorted(set(range(piece.ambient.dim)) - set(std))
        table = piece.classes(pivots).to_rows()
        size = lambda j: max((abs(row[j]) for row in table), default=0)
        heavy = pivots[max(range(len(pivots)), key=size)]
        mix = pivots + std
        cols = np.array(
            [[heavy] * 6, [heavy, mix[0], heavy, mix[-1], heavy, mix[0]], [mix[i % len(mix)] for i in range(6)]]
        )
        overflows |= size(pivots.index(heavy)) * sum(field.coerce(c) for c in coeffs) >= 2**63
        assert piece.class_sums(cols, coeffs) == _sums_by_gathers(piece, cols, coeffs), m
        mat = Matrix.from_rows(field, [[c, 0, coeffs[-1 - k % 6]] for k, c in enumerate(coeffs * 3)])
        assert _matmul_by_scatter(piece, cols.ravel(), mat) == piece.classes(cols.ravel()) @ mat, m
    if field == FieldSpec.prime(big) and not ctx.has_monomial_ideal:
        assert overflows


def _socle_two_pieces(ctx):
    sigma = ctx.socle_degree
    return ctx.piece(sigma).dim == 1 and ctx.piece(sigma + 1).dim == 0


SEED_913_QUARTIC = "x0^4+1613*x0^2*x1*x2+1736*x0^2*x2*x3+x1^4+x2^4-2*x2^2*x3^2+x3^4"
# One node each, at (0:0:0:1) or (0:0:0:0:1): dim R^sigma = 1 as on a smooth
# fixture, but dim R^(sigma+1) = 1, so only the Koszul rank rejects them.
NODAL = {
    "nodal-cubic-surface": ("x3*x0^2+x3*x1^2+x3*x2^2+x0^3+x1^3+x2^3", 4),
    "nodal-quartic-surface": ("x3^2*x0^2+x3^2*x1^2+x3^2*x2^2+x0^4+x1^4+x2^4", 4),
    "nodal-cubic-threefold": ("x4*x0^2+x4*x1^2+x4*x2^2+x4*x3^2+x0^3+x1^3+x2^3+x3^3", 5),
}


def _poly_fixture(text, num_vars=4):
    return lambda fld: JacobianContext(parse_poly(text, fld, num_vars=num_vars))


SOCLE_FIXTURES = {
    "fermat(2,4)": lambda fld: JacobianContext.fermat(2, 4, field=fld),
    "fermat(3,3)": lambda fld: JacobianContext.fermat(3, 3, field=fld),
    "fermat(3,5)": lambda fld: JacobianContext.fermat(3, 5, field=fld),
    "cubic-surface": NORMAL_FORM_FIXTURES["cubic-surface"],
    "quartic-surface": NORMAL_FORM_FIXTURES["quartic-surface"],
    "x0^6": _poly_fixture("x0^6", 5),
    **{name: _poly_fixture(*args) for name, args in NODAL.items()},
    # dim R^sigma = 2: refused before any rank.
    "dim-R-sigma-2": _poly_fixture("x3*x0*x1+x0^3+x1^3+x2^3"),
    "seed-913-quartic": _poly_fixture(SEED_913_QUARTIC),
    # d = 2: sigma = 0 < d - 1, decided by the piece R^1.
    "smooth-quadric": _poly_fixture("x0^2+x0*x1+x1^2+x2^2", 3),
    "singular-quadric": _poly_fixture("x0^2+2*x0*x1+x1^2+x2^2", 3),
}
SMOOTH = {"fermat(2,4)", "fermat(3,3)", "fermat(3,5)", "cubic-surface", "quartic-surface", "smooth-quadric"}


@pytest.mark.parametrize(
    "name, field",
    [
        pytest.param(name, f.values[0], id=f"{name}-{f.id}")
        for name in SOCLE_FIXTURES
        for f in FIELD_PARAMS
    ],
)
def test_socle_check_matches_two_piece_definition(name, field):
    ctx = SOCLE_FIXTURES[name](field)
    got = socle_check(ctx)
    # A monomial ideal builds no piece.  Any other ideal caches R^sigma
    # alone, which verify_theorem may read again, and builds no
    # degree-(sigma+1) matrix, except at d = 2, where it caches R^1.
    sigma = ctx.socle_degree
    if ctx.has_monomial_ideal:
        assert ctx._pieces == {}
    else:
        assert set(ctx._pieces) == {sigma + 1 if sigma < ctx.d - 1 else sigma}
    assert got == _socle_two_pieces(SOCLE_FIXTURES[name](field))
    assert got == (name in SMOOTH)


def _koszul_oracle(ctx, m):
    """K_m row by row from single classes: block i of row (i, j, v) is
    [x_j v], block j is -[x_i v]."""
    piece = ctx.piece(m)
    nv = ctx.num_vars

    def cls(k, v):
        return piece.classes([piece.ambient.index(tuple(e + (c == k) for c, e in enumerate(v)))]).transpose()

    rows = []
    for i in range(nv):
        for j in range(i + 1, nv):
            for v in _tuples(basis(nv, m - 1).exponents):
                blocks = [Matrix.zeros(ctx.field, 1, piece.dim)] * nv
                blocks[i], blocks[j] = cls(j, v), -cls(i, v)
                rows.append(Matrix.hstack(blocks))
    return Matrix.vstack(rows)


KOSZUL_FIXTURES = [
    "cubic-surface",
    "quartic-surface",
    "nodal-cubic-surface",
    "nodal-quartic-surface",
    "dim-R-sigma-2",
    "seed-913-quartic",
]


@pytest.mark.parametrize(
    "name, field",
    [
        pytest.param(name, f.values[0], id=f"{name}-{f.id}")
        for name in KOSZUL_FIXTURES
        for f in FIELD_PARAMS
    ],
)
def test_koszul_rank_gives_the_next_piece(name, field):
    # dim R^(m+1) = N dim R^m - rank K_m in every degree the isomorphism
    # covers, up to one past the socle, with R^m of any dimension.  A wrong
    # sign or a swapped pair still gives the gate's answer at sigma on
    # every socle fixture; the rank shows it in the lower degrees, where
    # dim R^m > 1.
    ctx = SOCLE_FIXTURES[name](field)
    nv = ctx.num_vars
    for m in range(ctx.d - 1, ctx.socle_degree + 2):
        k = koszul_matrix(ctx, m)
        assert k == _koszul_oracle(ctx, m), m
        assert k.shape == (comb(nv, 2) * graded_dimension(nv, m - 1), nv * ctx.piece(m).dim), m
        assert nv * ctx.piece(m).dim - k.rank() == ctx.piece(m + 1).dim, m


@pytest.mark.parametrize("field", [pytest.param(f.values[0], id=f.id) for f in FIELD_PARAMS[:2]])
@pytest.mark.parametrize("name", list(NODAL))
def test_socle_check_rank_decides_on_one_node(name, field):
    ctx = SOCLE_FIXTURES[name](field)
    sigma = ctx.socle_degree
    assert not socle_check(ctx)
    assert (ctx.piece(sigma).dim, ctx.piece(sigma + 1).dim) == (1, 1)
    with pytest.raises(SingularInputError):
        verify_theorem(SOCLE_FIXTURES[name](field), socle_mode="full")


def test_socle_check_false_when_every_partial_vanishes():
    # Over F_5 the partials 5 x_i^4 of fermat(2,5) are all zero.
    ctx = JacobianContext.fermat(2, 5, field=FieldSpec.prime(5))
    assert not socle_check(ctx)
    assert (ctx.piece(12).dim, ctx.piece(13).dim) == (455, 560)


def test_socle_check_rejects_singular_quartic_the_probe_passes():
    # f and its partials vanish at (0:0:1:1) over F_10007.
    ctx = JacobianContext(parse_poly(SEED_913_QUARTIC, FieldSpec.prime(10007), num_vars=4))
    assert smoothness_probe(ctx).consistent
    assert not socle_check(ctx)
    assert (ctx.piece(8).dim, ctx.piece(9).dim) == (6, 6)


def test_socle_check_monomial_beyond_the_dimension_guard():
    # R^43 of fermat(5, 8) has 13,983,816 ambient monomials: the set test
    # builds no piece.
    ctx = JacobianContext.fermat(5, 8)
    assert graded_dimension(ctx.num_vars, ctx.socle_degree + 1) == 13_983_816
    assert socle_check(ctx)
    assert ctx._pieces == {}


def test_socle_check_refuses_before_enumerating_monomials(monkeypatch):
    # A non-monomial octic in 7 variables: sigma = 42, where S_42 has
    # 12,271,512 monomials.  The dense ideal piece is refused from its
    # closed-form size, before basis(7, 42) is listed.
    def small_bases_only(num_vars, degree, _orig=jacobian.basis):
        if degree > 8:  # listing S_35 or S_42 would take gigabytes
            raise AssertionError(f"basis({num_vars}, {degree}) was listed")
        return _orig(num_vars, degree)

    monkeypatch.setattr(jacobian, "basis", small_bases_only)
    ctx = JacobianContext(parse_poly("x0^8+x1^8+x2^8+x3^8+x4^8+x5^8+x6^8+x0*x1*x2*x3*x4*x5*x6^2", FP))
    assert not ctx.has_monomial_ideal and ctx.socle_degree == 42
    assert graded_dimension(7, 42) == 12_271_512
    with pytest.raises(BudgetExceededError, match="ideal piece in degree 42"):
        socle_check(ctx)
    assert ctx._pieces == {}


def test_projector_kills_ideal_monomials(sextic):
    piece = sextic.piece(7)
    g = parse_poly("x0^6*x1", FP, num_vars=5)
    assert all(c == 0 for c in _class_of(piece, g))


def test_projector_is_ring_homomorphism_on_euler_relation(sextic):
    # x_i * df/dx_i lies in the ideal, so its class vanishes in every degree.
    f = sextic.f
    for i in range(5):
        xi = HomogeneousPoly.monomial(FP, tuple(1 if j == i else 0 for j in range(5)))
        gen_times_x = multiply(xi, sextic.generators[i])
        piece = sextic.piece(gen_times_x.degree)
        assert all(c == 0 for c in _class_of(piece, gen_times_x))


def test_multiplication_by_ideal_element_is_zero_map(sextic):
    g = parse_poly("x0^6", FP, num_vars=5)
    mm = multiplication_map(sextic, g, 1)
    assert mm.is_zero()
    assert mm.shape == (255, 5)


def test_multiplication_map_composes_like_the_ring(sextic):
    rng = np.random.default_rng(31)
    b1 = basis(5, 1)
    b2 = basis(5, 2)
    for _ in range(5):
        g = HomogeneousPoly(FP, 5, 1, [int(x) for x in rng.integers(0, P, size=b1.dim)])
        h = HomogeneousPoly(FP, 5, 2, [int(x) for x in rng.integers(0, P, size=b2.dim)])
        mg = multiplication_map(sextic, g, 1)
        mh = multiplication_map(sextic, h, 2)
        direct = multiplication_map(sextic, multiply(h, g), 1)
        assert mh @ mg == direct


def test_multiplication_map_well_defined_mod_ideal(sextic):
    rng = np.random.default_rng(77)
    b6 = basis(5, 6)
    g = HomogeneousPoly(FP, 5, 6, [int(x) for x in rng.integers(0, P, size=b6.dim)])
    # g + h * df/dx_0 has the same class, hence the same multiplication map
    b1 = basis(5, 1)
    h = HomogeneousPoly(FP, 5, 1, [int(x) for x in rng.integers(0, P, size=b1.dim)])
    g2 = g + multiply(h, sextic.generators[0])
    assert multiplication_map(sextic, g, 1) == multiplication_map(sextic, g2, 1)


def test_action_matrix_shape(sextic):
    m = action_matrix(sextic, 6, 1)
    assert m.shape == (5 * 255, 185)


def test_action_matrix_column_is_transposed_multiplication_map(sextic):
    # Column i stacks the map R^b -> R^{a+b} of the i-th standard monomial
    # column by column: row index u * dim R^{a+b} + r.
    a, b = 6, 1
    act = action_matrix(sextic, a, b)
    std = _tuples(sextic.piece(a).standard_exponents)
    for i in (0, 1, 57, len(std) - 1):
        mono = HomogeneousPoly.monomial(FP, std[i])
        mm = multiplication_map(sextic, mono, b)
        assert act.col_select([i]).flatten() == mm.transpose().flatten()


def test_macaulay_injectivity_low_level(sextic):
    assert macaulay_injectivity_check(sextic, 6, 1)


def test_macaulay_injectivity_constants_trivial(sextic):
    assert macaulay_injectivity_check(sextic, 0, 1)
    assert macaulay_injectivity_check(sextic, 0, 7)


INJECTIVITY_FIXTURES = {
    "fermat(3,3)": lambda: JacobianContext.fermat(3, 3),
    "fermat(3,5)": lambda: JacobianContext.fermat(3, 5),
    "cubic-surface-QQ": lambda: JacobianContext(
        parse_poly("x0^3+x1^3+x2^3+x3^3+x0*x1*x2", QQ, num_vars=4)
    ),
    "quartic-surface-Fp": lambda: JacobianContext(
        parse_poly("x0^4+x1^4+x2^4+x3^4+3*x0^2*x1*x3+x1*x2^3", FP, num_vars=4)
    ),
    # Singular at (0:1:0:0).  Their rings are not Gorenstein, so some
    # actions into a nonzero R^{a+b} are not injective, one rank short:
    # (1, 3) on the cubic, (2, 5) on the quartic.
    "singular-cubic-surface-QQ": lambda: JacobianContext(
        parse_poly("x0^2*x1+x2^3+x3^3+x2^2*x3", QQ, num_vars=4)
    ),
    "singular-quartic-surface-Fp": lambda: JacobianContext(
        parse_poly("x0^2*x1^2+x2^4+x3^4+3*x0*x1*x2*x3", FP, num_vars=4)
    ),
}


@pytest.mark.parametrize("name", list(INJECTIVITY_FIXTURES))
def test_injectivity_certificate_agrees_with_stacked_rank(name):
    # Every (a, b) up to one past the socle degree: the one-multiplier
    # certificate, or its fallback, must give the stacked action's answer
    # (the Fermat fixtures, monomial, take the support count instead).
    # On a smooth fixture a non-injective action has R^{a+b} = 0 and skips
    # the certificate; on a singular one the certificate is tried and fails
    # first, and only the fallback can answer False.
    ctx = INJECTIVITY_FIXTURES[name]()
    non_injective = tried_and_failed = 0
    for a in range(ctx.socle_degree + 2):
        for b in range(ctx.socle_degree + 2 - a):
            dim_a = ctx.piece(a).dim
            stacked = dim_a == 0 or action_matrix(ctx, a, b).rank() == dim_a
            assert macaulay_injectivity_check(ctx, a, b) == stacked, (a, b)
            non_injective += not stacked
            tried_and_failed += not stacked and 0 < ctx.piece(b).dim and dim_a <= ctx.piece(a + b).dim
    assert non_injective > 0
    assert (tried_and_failed > 0) == name.startswith("singular")


MONOMIAL_INJECTIVITY_FIXTURES = {
    "fermat(3,3)": lambda: JacobianContext.fermat(3, 3),
    "fermat(3,5)": lambda: JacobianContext.fermat(3, 5),
    "fermat(2,4)-QQ": lambda: JacobianContext.fermat(2, 4, field=QQ),
    # Singular at (1:0:0:0) and (0:1:0:0): R is not Artinian.
    "singular-monomial-quartic": lambda: JacobianContext(parse_poly("x0^2*x1^2+x2^4+x3^4", FP, num_vars=4)),
    # Every partial 5 x_i^4 vanishes over F_5: J = 0 and R is all of S.
    "fermat(2,5)-F5": lambda: JacobianContext.fermat(2, 5, field=FieldSpec.prime(5)),
}


def test_monomial_injectivity_agrees_with_stacked_rank(monkeypatch):
    # A monomial ideal is decided by supports alone: no rank, and the same
    # answer as the stacked action's rank for every (a, b) up to sigma + 1,
    # however many standard monomials of R^b are tried at a time.
    ranks = 0
    real_rank = Matrix.rank

    def counted_rank(self):
        nonlocal ranks
        ranks += 1
        return real_rank(self)

    answers = set()
    for name, make in MONOMIAL_INJECTIVITY_FIXTURES.items():
        ctx = make()
        assert ctx.has_monomial_ideal, name
        for a in range(ctx.socle_degree + 2):
            for b in range(ctx.socle_degree + 2 - a):
                dim_a = ctx.piece(a).dim
                stacked = dim_a == 0 or action_matrix(ctx, a, b).rank() == dim_a
                with monkeypatch.context() as m:
                    m.setattr(Matrix, "rank", counted_rank)
                    assert macaulay_injectivity_check(ctx, a, b) == stacked, (name, a, b)
                    m.setattr(jacobian, "_INJECTIVITY_BLOCK", 1)
                    assert macaulay_injectivity_check(ctx, a, b) == stacked, (name, a, b)
                answers.add(stacked)
    assert answers == {True, False}
    assert ranks == 0


def test_socle_check_fermat_sextic(sextic):
    assert sextic.socle_degree == 20
    assert sextic.piece(20).dim == 1
    assert sextic.piece(21).dim == 0
    assert socle_check(sextic)


def test_gorenstein_duality_dimensions(sextic):
    sigma = sextic.socle_degree
    dims = {m: sextic.piece(m).dim for m in range(sigma + 1)}
    for m in range(sigma + 1):
        assert dims[m] == dims[sigma - m]


def test_socle_check_fermat_cubic_threefold():
    cubic = JacobianContext.fermat(3, 3)
    assert cubic.socle_degree == 5
    table = graded_table(cubic, range(7))
    assert [row["dimR"] for row in table] == [1, 5, 10, 10, 5, 1, 0]
    assert socle_check(cubic)


def test_socle_check_singular_power():
    f = parse_poly("x0^6", FP, num_vars=5)
    ctx = JacobianContext(f)
    assert not socle_check(ctx)


def test_socle_check_fermat_quartic_surface():
    ctx = JacobianContext.fermat(2, 4)
    assert ctx.socle_degree == 8
    assert socle_check(ctx)


def test_rational_and_modular_dimensions_agree_on_cubic_surface():
    for make in (
        lambda fld: JacobianContext.fermat(2, 3, field=fld),
        lambda fld: JacobianContext(
            parse_poly("x0^3+x1^3+x2^3+x3^3+x0*x1*x2", fld, num_vars=4)
        ),
    ):
        ctx_q = make(QQ)
        ctx_p = make(FP)
        for m in range(ctx_q.socle_degree + 2):
            assert ctx_q.piece(m).dim == ctx_p.piece(m).dim
        assert socle_check(ctx_q) == socle_check(ctx_p)
        for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
            assert action_matrix(ctx_q, a, b).rank() == action_matrix(ctx_p, a, b).rank()
        for text, a in (("x0*x1", 1), ("x0^2+2*x1*x3", 1), ("x2", 2)):
            mm_q = multiplication_map(ctx_q, parse_poly(text, QQ, num_vars=4), a)
            mm_p = multiplication_map(ctx_p, parse_poly(text, FP, num_vars=4), a)
            assert mm_q.shape == mm_p.shape
            assert mm_q.rank() == mm_p.rank()


def test_dense_path_over_rationals_projector_exact():
    ctx = JacobianContext(parse_poly("x0^3+x1^3+x2^3+x3^3+x0*x1*x2", QQ, num_vars=4))
    piece = ctx.piece(2)
    g = parse_poly("x0*x1", QQ, num_vars=4)
    coords = _class_of(piece, g)
    assert any(c != 0 for c in coords)
    assert all(isinstance(c, Fraction) for c in coords)


def test_non_monomial_sextic_small_degrees():
    # Fermat plus a product term: dense path; low degrees have no syzygies,
    # so dims match the Fermat ones.
    f = parse_poly("x0^6+x1^6+x2^6+x3^6+x4^6+x0*x1*x2*x3*x4^2", FP)
    ctx = JacobianContext(f)
    assert not ctx.has_monomial_ideal
    assert ctx.piece(6).dim == 185
    assert ctx.piece(7).dim == 255


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("IVHS_BUDGET_ENTRIES", "1000")
    f = parse_poly("x0^6+x1^6+x2^6+x3^6+x4^6+x0*x1*x2*x3*x4^2", FP)
    ctx = JacobianContext(f)
    with pytest.raises(BudgetExceededError):
        ctx.piece(7)


def test_smoothness_probe_fermat(sextic):
    probe = smoothness_probe(sextic, trials=4, seed=5)
    assert probe.consistent


def test_smoothness_probe_detects_singular_power():
    ctx = JacobianContext(parse_poly("x0^6", FP, num_vars=5))
    probe = smoothness_probe(ctx, trials=8, seed=1)
    assert not probe.consistent


def test_graded_table_structure(sextic):
    table = graded_table(sextic, [1, 6, 7])
    assert table == [
        {"m": 1, "dimS": 5, "dimJ": 0, "dimR": 5},
        {"m": 6, "dimS": 210, "dimJ": 25, "dimR": 185},
        {"m": 7, "dimS": 330, "dimJ": 75, "dimR": 255},
    ]


def test_degree_below_two_rejected():
    with pytest.raises(PreconditionError):
        JacobianContext(parse_poly("x0+x1", FP, num_vars=2))
