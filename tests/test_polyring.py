"""Graded monomial bases, homogeneous polynomial arithmetic, parsing."""

from __future__ import annotations

import itertools
import tracemalloc
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivhs.errors import PreconditionError
from ivhs.fields import QQ, default_prime_field
from ivhs.polyring import (
    HomogeneousPoly,
    MonomialBasis,
    basis,
    graded_dimension,
    multiply,
    parse_poly,
    partial_derivative,
)

from oracle import naive_poly_mul

FP = default_prime_field()
P = FP.modulus


def _monomials(num_vars, degree):
    """Reference: every exponent tuple of the degree, in descending lex order,
    one per placement of num_vars - 1 bars among degree + num_vars - 1 slots."""
    slots = degree + num_vars - 1
    out = []
    for bars in itertools.combinations(range(slots), num_vars - 1):
        cuts = (-1, *bars, slots)
        out.append(tuple(b - a - 1 for a, b in zip(cuts, cuts[1:])))
    return sorted(out, reverse=True)


def _rows(b):
    return [tuple(e) for e in b.exponents.tolist()]


def _euler_sum(f):
    """sum_i x_i * df/dx_i, which must equal deg(f) * f."""
    total = HomogeneousPoly.zero(f.field, f.num_vars, f.degree)
    if f.degree == 0:
        return total
    for i in range(f.num_vars):
        xi = HomogeneousPoly.monomial(f.field, tuple(1 if j == i else 0 for j in range(f.num_vars)))
        total = total + multiply(xi, partial_derivative(f, i))
    return total


def test_basis_dimension_five_vars_degree_one():
    b = basis(5, 1)
    assert b.dim == 5
    assert _rows(b)[0] == (1, 0, 0, 0, 0)
    assert _rows(b)[-1] == (0, 0, 0, 0, 1)


def test_basis_dimension_five_vars_degree_seven():
    # C(11, 4) evaluated directly from factorials as an independent check.
    expected = factorial(11) // (factorial(4) * factorial(7))
    assert expected == 330
    assert basis(5, 7).dim == 330
    assert graded_dimension(5, 7) == 330


def test_basis_single_variable():
    for k in range(4):
        b = basis(1, k)
        assert b.dim == 1
        assert _rows(b) == [(k,)]
        assert b.index((k,)) == 0


def test_basis_dimension_formula_various():
    for nv in range(1, 7):
        for m in range(0, 9):
            assert basis(nv, m).dim == comb(m + nv - 1, m)


def test_basis_order_deterministic_and_strictly_descending():
    b = basis(4, 5)
    again = MonomialBasis(4, 5)
    assert np.array_equal(b.exponents, again.exponents)
    # descending lexicographic comparison of exponent tuples
    for a, c in zip(_rows(b), _rows(b)[1:]):
        assert a > c


@pytest.mark.parametrize("num_vars, degree", [(1, 0), (1, 5), (2, 0), (2, 7), (3, 6), (4, 5), (5, 4), (6, 3)])
def test_basis_exponents_are_every_monomial_in_order(num_vars, degree):
    b = MonomialBasis(num_vars, degree)
    assert _rows(b) == _monomials(num_vars, degree)
    assert b.exponents.dtype == np.min_scalar_type(degree)
    assert not b.exponents.flags.writeable


def test_basis_exponent_dtype_widens_with_the_degree():
    b = MonomialBasis(2, 300)
    assert b.exponents.dtype == np.uint16
    assert _rows(b)[:2] == [(300, 0), (299, 1)]


def test_basis_index_round_trip():
    b = basis(3, 6)
    for i, m in enumerate(_monomials(3, 6)):
        assert b.index(m) == i


def test_basis_index_refuses_non_members():
    b = basis(3, 2)
    # The digit key of (1, -2, 3) is 1, the key of (0, 1, 1): a lookup that
    # skipped the nonnegativity check would return a wrong index.
    with pytest.raises(KeyError):
        b.index((1, -2, 3))
    with pytest.raises(KeyError):
        b.index((1, 0, 0))  # wrong degree
    with pytest.raises(KeyError):
        b.index((1, 1))  # wrong arity


def test_basis_holds_only_its_exponent_array():
    tracemalloc.start()
    try:
        b = MonomialBasis(6, 20)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert b.dim == comb(25, 5)
    assert held <= 2**20


def _dict_sum_index(amb, left, right):
    """Reference: look every exponent sum up in a dict of the reference
    monomials of the ambient degree."""
    position = {e: i for i, e in enumerate(_monomials(amb.num_vars, amb.degree))}
    table = [[position[tuple(a + b for a, b in zip(u, v))] for v in right] for u in left]
    return np.array(table, dtype=np.int64).reshape(len(left), len(right))


def _spread(rows, most=256):
    """Every k-th row, k the least stride that keeps at most ``most``."""
    return rows[:: -(-len(rows) // most)]


@pytest.mark.parametrize(
    "num_vars, left_deg, right_deg",
    [
        (1, 0, 0), (1, 3, 4), (2, 0, 0), (3, 0, 2), (3, 2, 0), (4, 3, 3), (5, 1, 6), (5, 4, 4),
        # verify-fermat's ambient S_13, one digit table
        (5, 6, 7),
        # two digit tables each
        (6, 10, 10), (7, 4, 5), (6, 0, 20),
    ],
)
def test_sum_index_matches_dict_lookup(num_vars, left_deg, right_deg):
    amb = basis(num_vars, left_deg + right_deg)
    left = _spread(_monomials(num_vars, left_deg))
    right = _spread(_monomials(num_vars, right_deg))
    got = amb.sum_index(left, right)
    assert got.dtype == np.int64
    assert np.array_equal(got, _dict_sum_index(amb, left, right))
    # A subset in arbitrary order, as standard monomials are passed.
    sub = left[::-2]
    assert np.array_equal(amb.sum_index(sub, right), _dict_sum_index(amb, sub, right))
    # Exponent arrays, as bases and pieces keep them, on either side.
    exps = _spread(basis(num_vars, left_deg).exponents)
    assert exps.tolist() == [list(e) for e in left]
    assert np.array_equal(amb.sum_index(exps, right), got)
    assert np.array_equal(amb.sum_index(exps[::-2], _spread(basis(num_vars, right_deg).exponents)), _dict_sum_index(amb, sub, right))


def test_sum_index_never_searches(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sum_index must not search")

    monkeypatch.setattr(np, "searchsorted", refuse)
    amb = MonomialBasis(5, 13)
    left, right = _spread(_monomials(5, 6)), _spread(_monomials(5, 7))
    assert np.array_equal(amb.sum_index(left, right), _dict_sum_index(amb, left, right))


def test_sum_index_tables_stay_small():
    b = MonomialBasis(6, 20)
    assert b.index((20, 0, 0, 0, 0, 0)) == 0
    _, tables = b._tables
    assert len(tables) == 2
    assert max(t.size for t in tables) <= 2**16


def test_sum_index_empty_sides():
    amb = basis(3, 4)
    assert amb.sum_index([], _monomials(3, 2)).shape == (0, 6)
    assert amb.sum_index(_monomials(3, 2), ()).shape == (6, 0)
    assert amb.sum_index(basis(3, 2).exponents[:0], basis(3, 2).exponents).shape == (0, 6)


def test_sum_index_refuses_wrong_degrees():
    amb = basis(3, 4)
    two, three = _monomials(3, 2), _monomials(3, 3)
    with pytest.raises(KeyError):
        amb.sum_index(two, three)  # degree 5, whose keys can alias degree-4 ones
    with pytest.raises(KeyError):
        amb.sum_index(basis(3, 2).exponents, basis(3, 3).exponents)
    with pytest.raises(KeyError):
        amb.sum_index([(2, 0, 0), (1, 0, 0)], [(1, 1, 0)])  # left not homogeneous
    with pytest.raises(KeyError):
        amb.sum_index([(2, 0)], [(1, 1)])  # wrong arity
    with pytest.raises(KeyError):
        amb.sum_index([(3, -1, 0)], [(1, 1, 0)])  # negative exponent


def test_sum_index_in_64_variables():
    # A key with one digit per variable would need 2^64 values here.
    amb = basis(64, 1)
    one = _monomials(64, 1)
    assert np.array_equal(amb.sum_index(basis(64, 0).exponents, amb.exponents), [list(range(64))])
    assert np.array_equal(amb.sum_index([(0,) * 64], one), _dict_sum_index(amb, [(0,) * 64], one))
    two = basis(64, 2)
    assert np.array_equal(two.sum_index(one, one), _dict_sum_index(two, one, one))


def test_multiply_monomials():
    x0 = HomogeneousPoly.monomial(FP, (1, 0, 0, 0, 0))
    x05 = HomogeneousPoly.monomial(FP, (5, 0, 0, 0, 0))
    prod = multiply(x0, x05)
    assert prod == HomogeneousPoly.monomial(FP, (6, 0, 0, 0, 0))


def test_multiply_difference_of_squares():
    f = parse_poly("x0+x1", QQ, num_vars=2)
    g = parse_poly("x0-x1", QQ, num_vars=2)
    assert multiply(f, g) == parse_poly("x0^2-x1^2", QQ, num_vars=2)


def test_multiply_matches_dict_oracle():
    rng = np.random.default_rng(101)
    b3 = basis(4, 3)
    b2 = basis(4, 2)
    for _ in range(10):
        ca = rng.integers(0, P, size=b3.dim)
        cb = rng.integers(0, P, size=b2.dim)
        f = HomogeneousPoly(FP, 4, 3, [int(x) for x in ca])
        g = HomogeneousPoly(FP, 4, 2, [int(x) for x in cb])
        prod = multiply(f, g)
        oracle = naive_poly_mul(dict(f.terms()), dict(g.terms()), P)
        assert dict(prod.terms()) == oracle


def test_multiply_matches_point_evaluation():
    # Evaluation is a ring homomorphism: (f*g)(pt) == f(pt) * g(pt).
    rng = np.random.default_rng(55)
    f = HomogeneousPoly(FP, 3, 4, [int(x) for x in rng.integers(0, P, size=basis(3, 4).dim)])
    g = HomogeneousPoly(FP, 3, 3, [int(x) for x in rng.integers(0, P, size=basis(3, 3).dim)])
    prod = multiply(f, g)
    for _ in range(20):
        pt = [int(x) for x in rng.integers(0, P, size=3)]
        assert prod.evaluate(pt) == (f.evaluate(pt) * g.evaluate(pt)) % P


def test_multiply_commutative_and_associative():
    rng = np.random.default_rng(7)

    def rand(nv, deg):
        return HomogeneousPoly(FP, nv, deg, [int(x) for x in rng.integers(0, P, size=basis(nv, deg).dim)])

    for _ in range(5):
        f, g, h = rand(3, 2), rand(3, 3), rand(3, 1)
        assert multiply(f, g) == multiply(g, f)
        assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))


def test_partial_derivative_power():
    f = parse_poly("x0^6", FP, num_vars=2)
    assert partial_derivative(f, 0) == parse_poly("6*x0^5", FP, num_vars=2)
    assert partial_derivative(f, 1).is_zero()


def test_partial_derivative_product_rule_instance():
    f = parse_poly("x0^2*x1", QQ, num_vars=2)
    assert partial_derivative(f, 0) == parse_poly("2*x0*x1", QQ, num_vars=2)
    assert partial_derivative(f, 1) == parse_poly("x0^2", QQ, num_vars=2)


def test_euler_identity_random_sextic():
    rng = np.random.default_rng(2024)
    b = basis(5, 6)
    f = HomogeneousPoly(FP, 5, 6, [int(x) for x in rng.integers(0, P, size=b.dim)])
    assert _euler_sum(f) == f.scale(6)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(1, 5),
    st.data(),
)
def test_euler_identity_property(nv, deg, data):
    dim = basis(nv, deg).dim
    coeffs = data.draw(st.lists(st.integers(0, P - 1), min_size=dim, max_size=dim))
    f = HomogeneousPoly(FP, nv, deg, coeffs)
    assert _euler_sum(f) == f.scale(deg)


def test_degree_zero_polynomials():
    c = HomogeneousPoly(QQ, 3, 0, [Fraction(5)])
    assert c.evaluate([1, 2, 3]) == 5
    assert partial_derivative(c, 0).is_zero()
    assert _euler_sum(c).is_zero()


def test_mixed_degree_addition_rejected():
    f = parse_poly("x0", QQ, num_vars=1)
    g = parse_poly("x0^2", QQ, num_vars=1)
    with pytest.raises(PreconditionError):
        f + g


def test_parse_fermat_sextic():
    f = parse_poly("x0^6+x1^6+x2^6+x3^6+x4^6", FP)
    assert f.num_vars == 5
    assert f.degree == 6
    assert len(list(f.terms())) == 5


def test_parse_whitespace_and_signs():
    f = parse_poly(" 3*x0^2*x1 - x2^3 + 1/2 * x0 * x1 * x2 ", QQ)
    assert f.num_vars == 3
    assert f.degree == 3
    d = dict(f.terms())
    assert d[(2, 1, 0)] == 3
    assert d[(0, 0, 3)] == -1
    assert d[(1, 1, 1)] == Fraction(1, 2)


def test_parse_rejects_inhomogeneous():
    with pytest.raises(PreconditionError):
        parse_poly("x0^2+x1", QQ)


def test_parse_rejects_garbage():
    with pytest.raises(PreconditionError):
        parse_poly("x0^2 + spam", QQ)


def test_text_round_trip():
    texts = [
        "x0^6+x1^6+x2^6+x3^6+x4^6",
        "3*x0^2*x1-x2^3+1/2*x0*x1*x2",
        "x0*x1",
        "7",
    ]
    for t in texts:
        f = parse_poly(t, QQ)
        assert parse_poly(f.to_text(), QQ, num_vars=f.num_vars) == f


def test_text_round_trip_prime_field():
    f = parse_poly("x0^3-5*x1^3+2*x0*x1^2", FP)
    assert parse_poly(f.to_text(), FP, num_vars=2) == f


def test_coefficient_vector_alignment():
    # coefficient i multiplies monomial i of the basis
    b = basis(2, 2)
    f = HomogeneousPoly(QQ, 2, 2, [1, 2, 3])
    d = dict(f.terms())
    assert _rows(b) == [(2, 0), (1, 1), (0, 2)]
    assert d == {(2, 0): 1, (1, 1): 2, (0, 2): 3}


def test_from_terms_refuses_negative_exponents():
    with pytest.raises(PreconditionError):
        HomogeneousPoly.from_terms(FP, 3, {(1, -2, 3): 1})
    with pytest.raises(TypeError):
        HomogeneousPoly.from_terms(FP, 2, {(1.5, 0.5): 1})  # not truncated to (1, 0)
    # numpy integers are exponents too, held as ints.
    f = HomogeneousPoly.from_terms(FP, 2, {(np.uint8(200), np.uint8(100)): 1})
    assert multiply(f, f).terms() == (((400, 200), 1),)


def test_terms_are_canonical_whatever_the_input_order():
    f = HomogeneousPoly.from_terms(QQ, 3, {(0, 1, 1): 2, (2, 0, 0): Fraction(1, 2), (1, 0, 1): 0, (0, 0, 2): -1})
    g = HomogeneousPoly.from_terms(QQ, 3, {(0, 0, 2): -1, (0, 1, 1): 2, (2, 0, 0): Fraction(1, 2)})
    assert f == g
    # Descending lex order, zero coefficients dropped, as the dense vector reads.
    assert [e for e, _ in f.terms()] == [(2, 0, 0), (0, 1, 1), (0, 0, 2)]
    dense = HomogeneousPoly(QQ, 3, 2, [Fraction(1, 2), 0, 0, 0, 2, -1])
    assert dense == f and dense.terms() == f.terms()
    assert f.to_text() == "1/2*x0^2+2*x1*x2-x2^2"
    # A coefficient that is zero in the field leaves no term.
    assert HomogeneousPoly.from_terms(FP, 2, {(1, 1): P, (2, 0): 1}).terms() == (((2, 0), 1),)


def test_arithmetic_cancels_to_the_zero_of_its_degree():
    f = parse_poly("x0^3-5*x1^3+2*x0*x1^2", FP)
    zero = HomogeneousPoly.zero(FP, 2, 3)
    assert (f - f) == zero and (f - f).is_zero() and (f - f).degree == 3
    assert f.scale(0) == zero and f + zero == f
    assert (f + f) == f.scale(2)
    assert zero.to_text() == "0"


def test_ring_operations_enumerate_no_basis(monkeypatch):
    import sys

    from ivhs import polyring
    from ivhs.jacobian import JacobianContext

    calls = []
    original = polyring.basis

    def spy(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("ivhs") and getattr(module, "basis", None) is original:
            monkeypatch.setattr(module, "basis", spy)
    ctx = JacobianContext.fermat(3, 6)
    f = parse_poly("x0^4+3*x0^2*x1*x3+x1*x2^3+x3^4", FP)
    g = multiply(f, partial_derivative(f, 1))
    assert ctx.generators[0].terms() == (((5, 0, 0, 0, 0), 6),)
    assert g.degree == 7 and not g.is_zero()
    assert calls == []
    # The spy does see the one enumerating constructor.
    HomogeneousPoly(FP, 2, 1, [1, 2])
    assert calls == [(2, 1)]
