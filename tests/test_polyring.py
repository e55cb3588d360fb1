"""Graded monomial bases, homogeneous polynomial arithmetic, parsing."""

from __future__ import annotations

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
    basis,
    euler_sum,
    graded_dimension,
    multiply,
    parse_poly,
    partial_derivative,
)

from oracle import naive_poly_mul

FP = default_prime_field()
P = FP.modulus


def test_basis_dimension_five_vars_degree_one():
    b = basis(5, 1)
    assert b.dim == 5
    assert b.monomials[0] == (1, 0, 0, 0, 0)
    assert b.monomials[-1] == (0, 0, 0, 0, 1)


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
        assert b.monomials == ((k,),)


def test_basis_dimension_formula_various():
    for nv in range(1, 7):
        for m in range(0, 9):
            assert basis(nv, m).dim == comb(m + nv - 1, m)


def test_basis_order_deterministic_and_strictly_descending():
    b = basis(4, 5)
    again = basis(4, 5)
    assert b.monomials == again.monomials
    # descending lexicographic comparison of exponent tuples
    for a, c in zip(b.monomials, b.monomials[1:]):
        assert a > c


def test_basis_index_round_trip():
    b = basis(3, 6)
    for i, m in enumerate(b.monomials):
        assert b.index(m) == i


def _dict_sum_index(amb, left, right):
    """Reference: look every exponent sum up in the basis index."""
    table = [[amb.index(tuple(a + b for a, b in zip(u, v))) for v in right] for u in left]
    return np.array(table, dtype=np.int64).reshape(len(left), len(right))


@pytest.mark.parametrize(
    "num_vars, left_deg, right_deg",
    [(1, 0, 0), (1, 3, 4), (2, 0, 0), (3, 0, 2), (3, 2, 0), (4, 3, 3), (5, 1, 6), (5, 4, 4)],
)
def test_sum_index_matches_dict_lookup(num_vars, left_deg, right_deg):
    amb = basis(num_vars, left_deg + right_deg)
    left = basis(num_vars, left_deg).monomials
    right = basis(num_vars, right_deg).monomials
    got = amb.sum_index(left, right)
    assert got.dtype == np.int64
    assert np.array_equal(got, _dict_sum_index(amb, left, right))
    # A subset in arbitrary order, as standard monomials are passed.
    sub = left[::-2]
    assert np.array_equal(amb.sum_index(sub, right), _dict_sum_index(amb, sub, right))
    # Exponent arrays, as bases and pieces keep them, on either side.
    exps = basis(num_vars, left_deg).exponents
    assert exps.tolist() == [list(e) for e in left]
    assert np.array_equal(amb.sum_index(exps, right), got)
    assert np.array_equal(amb.sum_index(exps[::-2], basis(num_vars, right_deg).exponents), _dict_sum_index(amb, sub, right))


def test_sum_index_empty_sides():
    amb = basis(3, 4)
    assert amb.sum_index([], basis(3, 2).monomials).shape == (0, 6)
    assert amb.sum_index(basis(3, 2).monomials, ()).shape == (6, 0)
    assert amb.sum_index(basis(3, 2).exponents[:0], basis(3, 2).exponents).shape == (0, 6)


def test_sum_index_refuses_wrong_degrees():
    amb = basis(3, 4)
    two, three = basis(3, 2).monomials, basis(3, 3).monomials
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


def test_sum_index_refuses_keys_beyond_int64():
    amb = basis(64, 1)  # (1 + 1)^64 keys do not fit in int64
    with pytest.raises(PreconditionError):
        amb.sum_index(basis(64, 0).monomials, amb.monomials)


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
    assert euler_sum(f) == f.scale(6)


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
    assert euler_sum(f) == f.scale(deg)


def test_degree_zero_polynomials():
    c = HomogeneousPoly(QQ, 3, 0, [Fraction(5)])
    assert c.evaluate([1, 2, 3]) == 5
    assert partial_derivative(c, 0).is_zero()
    assert euler_sum(c).is_zero()


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
    assert d[b.monomials[0]] == 1
    assert d[b.monomials[1]] == 2
    assert d[b.monomials[2]] == 3
