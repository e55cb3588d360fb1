"""Jacobian ring pieces: ranks, projectors, multiplication, socle, injectivity."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from ivhs.errors import BudgetExceededError, PreconditionError
from ivhs.fields import QQ, default_prime_field
from ivhs.jacobian import (
    JacobianContext,
    action_matrix,
    graded_table,
    ideal_piece_rank,
    macaulay_injectivity_check,
    multiplication_map,
    quotient_piece,
    smoothness_probe,
    socle_check,
)
from ivhs.linalg import Matrix
from ivhs.polyring import HomogeneousPoly, basis, graded_dimension, multiply, parse_poly

from oracle import naive_rank_mod

FP = default_prime_field()
P = FP.modulus


@pytest.fixture(scope="module")
def sextic():
    return JacobianContext.fermat(3, 6)


def _ideal_rows(ctx, m):
    """Rows spanning the degree-m ideal piece, assembled independently."""
    amb = basis(ctx.num_vars, m)
    src = basis(ctx.num_vars, m - (ctx.d - 1))
    rows = []
    for g in ctx.generators:
        for a in src.monomials:
            row = [0] * amb.dim
            for t, c in g.terms():
                e = tuple(x + y for x, y in zip(a, t))
                row[amb.index(e)] = int(c) % P
            rows.append(row)
    return rows


def test_fermat_sextic_ideal_ranks(sextic):
    assert ideal_piece_rank(sextic, 1) == 0
    assert ideal_piece_rank(sextic, 6) == 25
    assert ideal_piece_rank(sextic, 7) == 75


def test_fermat_sextic_ideal_rank_against_oracle(sextic):
    # Independent assembly + textbook elimination mod p.
    assert naive_rank_mod(_ideal_rows(sextic, 6), P) == 25
    assert naive_rank_mod(_ideal_rows(sextic, 7), P) == 75


def test_regular_sequence_identity(sextic):
    # For d-1 <= m <= 2d-3 there are no syzygies in degree m, so
    # dim J^m = (n+2) * dim S^(m-d+1).
    for m in range(5, 10):
        expected = sextic.num_vars * graded_dimension(5, m - 5)
        assert ideal_piece_rank(sextic, m) == expected


def test_monomial_and_dense_paths_agree(sextic):
    for m in (5, 6, 7, 8):
        pm = quotient_piece(sextic, m, method="monomial")
        pd = quotient_piece(sextic, m, method="dense")
        assert pm.ideal_rank == pd.ideal_rank
        assert pm.standard_monomials == pd.standard_monomials
        assert pm.projector == pd.projector


def test_fermat_sextic_quotient_dimensions(sextic):
    assert quotient_piece(sextic, 1).dim == 5
    assert quotient_piece(sextic, 6).dim == 185
    assert quotient_piece(sextic, 7).dim == 255
    assert quotient_piece(sextic, 13).dim == 255
    assert quotient_piece(sextic, 19).dim == 5


def test_piece_caching(sextic):
    assert sextic.piece(7) is sextic.piece(7)


def test_projector_fixes_standard_monomials(sextic):
    piece = sextic.piece(6)
    std_cols = [piece.ambient.index(e) for e in piece.standard_monomials]
    sel = piece.projector.array[:, std_cols]
    assert np.array_equal(sel, np.eye(piece.dim, dtype=np.int64))


def test_projector_kills_ideal_monomials(sextic):
    piece = sextic.piece(7)
    g = parse_poly("x0^6*x1", FP, num_vars=5)
    assert all(c == 0 for c in piece.project_poly(g))


def test_projector_is_ring_homomorphism_on_euler_relation(sextic):
    # x_i * df/dx_i lies in the ideal, so its class vanishes in every degree.
    f = sextic.f
    for i in range(5):
        xi = HomogeneousPoly.monomial(FP, tuple(1 if j == i else 0 for j in range(5)))
        gen_times_x = multiply(xi, sextic.generators[i])
        piece = sextic.piece(gen_times_x.degree)
        assert all(c == 0 for c in piece.project_poly(gen_times_x))


def test_multiplication_by_ideal_element_is_zero_map(sextic):
    g = parse_poly("x0^6", FP, num_vars=5)
    mm = multiplication_map(sextic, g, 1)
    assert mm.matrix.is_zero()
    assert mm.matrix.shape == (255, 5)


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
        assert mh.compose(mg) == direct.matrix


def test_multiplication_map_well_defined_mod_ideal(sextic):
    rng = np.random.default_rng(77)
    b6 = basis(5, 6)
    g = HomogeneousPoly(FP, 5, 6, [int(x) for x in rng.integers(0, P, size=b6.dim)])
    # g + h * df/dx_0 has the same class, hence the same multiplication map
    b1 = basis(5, 1)
    h = HomogeneousPoly(FP, 5, 1, [int(x) for x in rng.integers(0, P, size=b1.dim)])
    g2 = g + multiply(h, sextic.generators[0])
    assert multiplication_map(sextic, g, 1).matrix == multiplication_map(sextic, g2, 1).matrix


def test_action_matrix_shape(sextic):
    m = action_matrix(sextic, 6, 1)
    assert m.shape == (5 * 255, 185)


def test_action_matrix_column_is_transposed_multiplication_map(sextic):
    # Column i stacks the map R^b -> R^{a+b} of the i-th standard monomial
    # column by column: row index u * dim R^{a+b} + r.
    a, b = 6, 1
    act = action_matrix(sextic, a, b)
    std = sextic.piece(a).standard_monomials
    for i in (0, 1, 57, len(std) - 1):
        mono = HomogeneousPoly.monomial(FP, std[i])
        mm = multiplication_map(sextic, mono, b).matrix
        assert act.col_select([i]).flatten() == mm.transpose().flatten()


def test_macaulay_injectivity_low_level(sextic):
    assert macaulay_injectivity_check(sextic, 6, 1)


def test_macaulay_injectivity_constants_trivial(sextic):
    assert macaulay_injectivity_check(sextic, 0, 1)
    assert macaulay_injectivity_check(sextic, 0, 7)


def test_socle_check_fermat_sextic(sextic):
    assert sextic.socle_degree == 20
    assert quotient_piece(sextic, 20).dim == 1
    assert quotient_piece(sextic, 21).dim == 0
    assert socle_check(sextic)


def test_gorenstein_duality_dimensions(sextic):
    sigma = sextic.socle_degree
    dims = {m: quotient_piece(sextic, m).dim for m in range(sigma + 1)}
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
            assert quotient_piece(ctx_q, m).dim == quotient_piece(ctx_p, m).dim
        assert socle_check(ctx_q) == socle_check(ctx_p)
        for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
            assert action_matrix(ctx_q, a, b).rank() == action_matrix(ctx_p, a, b).rank()
        for text, a in (("x0*x1", 1), ("x0^2+2*x1*x3", 1), ("x2", 2)):
            mm_q = multiplication_map(ctx_q, parse_poly(text, QQ, num_vars=4), a).matrix
            mm_p = multiplication_map(ctx_p, parse_poly(text, FP, num_vars=4), a).matrix
            assert mm_q.shape == mm_p.shape
            assert mm_q.rank() == mm_p.rank()


def test_dense_path_over_rationals_projector_exact():
    ctx = JacobianContext(parse_poly("x0^3+x1^3+x2^3+x3^3+x0*x1*x2", QQ, num_vars=4))
    piece = ctx.piece(2)
    g = parse_poly("x0*x1", QQ, num_vars=4)
    coords = piece.project_poly(g)
    assert any(c != 0 for c in coords)
    assert all(isinstance(c, Fraction) for c in coords)


def test_non_monomial_sextic_small_degrees():
    # Fermat plus a product term: dense path; low degrees have no syzygies,
    # so dims match the Fermat ones.
    f = parse_poly("x0^6+x1^6+x2^6+x3^6+x4^6+x0*x1*x2*x3*x4^2", FP)
    ctx = JacobianContext(f)
    assert not ctx.has_monomial_ideal
    assert quotient_piece(ctx, 6).dim == 185
    assert quotient_piece(ctx, 7).dim == 255


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("IVHS_BUDGET_ENTRIES", "1000")
    f = parse_poly("x0^6+x1^6+x2^6+x3^6+x4^6+x0*x1*x2*x3*x4^2", FP)
    ctx = JacobianContext(f)
    with pytest.raises(BudgetExceededError):
        quotient_piece(ctx, 7)


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
