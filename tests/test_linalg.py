"""Exact rank, kernel, rref, and random-matrix behaviour over Q and F_p."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivhs.errors import PreconditionError
from ivhs.fields import QQ, FieldSpec, default_prime_field
from ivhs.linalg import (
    Matrix,
    Subspace,
    coordinates_in_rowspace,
    random_matrix,
    standard_complement,
)

from oracle import naive_kernel_mod, naive_rank_fraction, naive_rank_mod, naive_rref_mod

FP = default_prime_field()
P = FP.modulus


def test_identity_rank():
    assert Matrix.identity(FP, 7).rank() == 7
    assert Matrix.identity(QQ, 7).rank() == 7


def test_zero_matrix_rank_and_kernel():
    z = Matrix.zeros(FP, 3, 5)
    assert z.rank() == 0
    k = z.kernel_basis()
    assert k.shape == (5, 5)
    z = Matrix.zeros(QQ, 3, 5)
    assert z.rank() == 0
    assert z.kernel_basis().shape == (5, 5)


def test_proportional_rows_rank_one():
    m = Matrix.from_rows(QQ, [[2, 4], [1, 2]])
    assert m.rank() == 1
    m = Matrix.from_rows(FP, [[2, 4], [1, 2]])
    assert m.rank() == 1


def test_rref_of_proportional_rows():
    m = Matrix.from_rows(QQ, [[2, 4], [1, 2]])
    r, pivots = m.rref()
    assert r.to_rows() == [[1, 2], [0, 0]]
    assert pivots == (0,)


def test_kernel_of_ones_row():
    m = Matrix.from_rows(QQ, [[1, 1]])
    k = m.kernel_basis()
    assert k.shape == (2, 1)
    # spans (1, -1)
    assert k.entry(0, 0) * Fraction(-1) == k.entry(1, 0)
    assert not k.is_zero()


def test_kernel_columns_annihilated():
    for field in (FP, QQ):
        m = Matrix.from_rows(field, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        k = m.kernel_basis()
        assert (m @ k).is_zero()
        assert k.cols == 3 - m.rank()


def test_rank_nullity_fixed_cases():
    m = Matrix.from_rows(FP, [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]])
    assert m.rank() + m.kernel_basis().cols == 4


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.lists(st.integers(-9, 9), min_size=36, max_size=36),
)
def test_rank_nullity_property(r, c, entries):
    rows = [entries[i * c : (i + 1) * c] for i in range(r)]
    for field in (FP, QQ):
        m = Matrix.from_rows(field, rows)
        assert m.rank() + m.kernel_basis().cols == c


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5),
    st.lists(st.integers(-20, 20), min_size=25, max_size=25),
)
def test_rational_and_modular_rank_agree_on_small_integer_matrices(n, entries):
    # p = 10007 divides no pivot determinant for entries this small, so the
    # two field computations must agree.
    rows = [entries[i * n : (i + 1) * n] for i in range(n)]
    mq = Matrix.from_rows(QQ, rows)
    mp = Matrix.from_rows(FP, rows)
    assert mq.rank() == mp.rank()


def test_rank_matches_oracles_on_fixed_fixtures():
    fixtures = [
        [[1, 2], [3, 4]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[0, 0, 1], [0, 0, 2], [1, 0, 0]],
        [[3, 1, 4, 1], [5, 9, 2, 6], [8, 10, 6, 7], [5, 9, 2, 6]],
    ]
    for rows in fixtures:
        assert Matrix.from_rows(FP, rows).rank() == naive_rank_mod(rows, P)
        assert Matrix.from_rows(QQ, rows).rank() == naive_rank_fraction(rows)


# One prime per elimination dtype and panel width: float64 with panel 128,
# the largest float64 prime (tightest exactness bound), then int64 with
# panels 128, 4 and 1.
@pytest.mark.parametrize("p", [10007, 8388593, 33554393, 1073741789, 2147483629])
def test_blocked_elimination_agrees_with_oracle_on_random_matrices(p):
    field = FieldSpec.prime(p)
    rng = np.random.default_rng(20240817)
    for trial in range(25):
        m = int(rng.integers(1, 40))
        n = int(rng.integers(1, 40))
        arr = rng.integers(0, p, size=(m, n))
        # Half the trials get forced rank deficiency via a low-rank product.
        if trial % 2 == 0:
            r = int(rng.integers(1, min(m, n) + 1))
            left = rng.integers(0, p, size=(m, r)).astype(object)
            arr = (left @ rng.integers(0, p, size=(r, n)).astype(object)) % p
        # Entries p-1..p-3 make every unreduced update as large as it can be.
        elif trial % 4 == 1:
            arr = rng.integers(p - 3, p, size=(m, n))
        rows = arr.tolist()
        mat = Matrix.from_rows(field, rows)
        assert mat.rank() == naive_rank_mod(rows, p)
        ref, pivots = mat.rref()
        oracle_ref, oracle_piv = naive_rref_mod(rows, p)
        assert list(pivots) == oracle_piv
        assert ref.to_rows() == oracle_ref
        ker = mat.kernel_basis()
        assert (mat @ ker).is_zero()
        assert ker.cols == n - len(pivots)


def test_blocked_elimination_crosses_panel_boundaries():
    # Width beyond one 128-column panel, with dependent columns straddling
    # the boundary, and rank beyond one 128-row back-substitution block.
    rng = np.random.default_rng(7)
    base = rng.integers(0, P, size=(140, 300))
    base[:, 200] = (3 * base[:, 10] + 5 * base[:, 140]) % P
    base[:, 299] = base[:, 0]
    rows = base.tolist()
    mat = Matrix.from_rows(FP, rows)
    assert mat.rank() == naive_rank_mod(rows, P)
    assert mat.rank() > 128
    ref, pivots = mat.rref()
    oracle_ref, oracle_piv = naive_rref_mod(rows, P)
    assert list(pivots) == oracle_piv
    assert ref.to_rows() == oracle_ref
    ker = mat.kernel_basis()
    assert (mat @ ker).is_zero()


def test_wide_matrix_transposed_rank_path():
    rng = np.random.default_rng(11)
    arr = rng.integers(0, P, size=(500, 20))
    m = Matrix.from_rows(FP, arr.tolist())
    assert m.rank() == naive_rank_mod(arr.tolist(), P)


def test_kernel_matches_oracle():
    rows = [[1, 2, 3, 4, 5], [2, 4, 6, 8, 10], [1, 1, 1, 1, 1]]
    k = Matrix.from_rows(FP, rows).kernel_basis()
    oracle_vs = naive_kernel_mod(rows, P)
    assert k.cols == len(oracle_vs)
    got = {tuple(k.col_select([j]).flatten()) for j in range(k.cols)}
    assert got == {tuple(v) for v in oracle_vs}


def test_matmul_exactness_large_inner_dimension():
    # Sums of ~2000 products of size ~p^2 must be exact on every path.
    rng = np.random.default_rng(3)
    a = rng.integers(0, P, size=(4, 2000))
    b = rng.integers(0, P, size=(2000, 3))
    ma = Matrix.from_rows(FP, a.tolist())
    mb = Matrix.from_rows(FP, b.tolist())
    prod = (ma @ mb).to_rows()
    expect = [[int(sum(int(x) * int(y) for x, y in zip(a[i], b[:, j])) % P) for j in range(3)] for i in range(4)]
    assert prod == expect


def test_matmul_large_prime_int64_path():
    big = FieldSpec.prime(2147483629)
    rng = np.random.default_rng(5)
    a = rng.integers(0, big.modulus, size=(3, 50))
    b = rng.integers(0, big.modulus, size=(50, 2))
    ma = Matrix.from_array(big, a)
    mb = Matrix.from_array(big, b)
    prod = (ma @ mb).to_rows()
    expect = [
        [int(sum(int(x) * int(y) for x, y in zip(a[i], b[:, j])) % big.modulus) for j in range(2)]
        for i in range(3)
    ]
    assert prod == expect


@pytest.mark.parametrize("inner", [127, 128, 129])
def test_matmul_at_largest_float64_prime_near_the_bound(inner):
    # 8388593 is the largest prime with 128 * (p-1)^2 + p < 2^53: inner 128
    # is the widest float64 product, 129 takes the int64 path.  Entries near
    # p push every sum close to the bound; 24x24 outputs take the floor-based
    # reduction.
    p = 8388593
    fld = FieldSpec.prime(p)
    rng = np.random.default_rng(inner)
    a = p - 1 - rng.integers(0, 3, size=(24, inner))
    b = p - 1 - rng.integers(0, 3, size=(inner, 24))
    a[0] = rng.integers(0, p, size=inner)
    prod = (Matrix.from_array(fld, a) @ Matrix.from_array(fld, b)).array
    expect = (a.astype(object) @ b.astype(object)) % p
    assert prod.dtype == np.int64
    assert (prod.astype(object) == expect).all()


def test_elimination_large_prime_int64_path():
    big = FieldSpec.prime(2147483629)
    rng = np.random.default_rng(9)
    arr = rng.integers(0, big.modulus, size=(12, 15))
    arr[5] = (2 * arr[1] + 3 * arr[2]) % big.modulus
    rows = arr.tolist()
    m = Matrix.from_rows(big, rows)
    assert m.rank() == naive_rank_mod(rows, big.modulus)
    assert (m @ m.kernel_basis()).is_zero()


def test_random_matrix_deterministic():
    a = random_matrix(FP, 6, 7, seed=42)
    b = random_matrix(FP, 6, 7, seed=42)
    c = random_matrix(FP, 6, 7, seed=43)
    assert a == b
    assert a != c


def test_random_matrix_rejects_rationals():
    with pytest.raises(PreconditionError):
        random_matrix(QQ, 2, 2, seed=0)


def test_random_square_matrices_usually_full_rank():
    full = 0
    trials = 200
    for t in range(trials):
        m = random_matrix(FP, 20, 20, seed=(100, t))
        if m.rank() == 20:
            full += 1
    assert full >= int(trials * 0.99)


def test_random_300_by_300_full_rank_statistically():
    # Flagged statistically, not per call: a tiny failure rate ~1/p is fine.
    full = sum(1 for t in range(5) if random_matrix(FP, 300, 300, seed=(7, t)).rank() == 300)
    assert full >= 4


def test_inverse_round_trip():
    for field in (FP, QQ):
        m = Matrix.from_rows(field, [[1, 2, 0], [0, 1, 4], [5, 6, 1]])
        inv = m.inverse()
        assert m @ inv == Matrix.identity(field, 3)
        assert inv @ m == Matrix.identity(field, 3)


def test_inverse_of_singular_raises():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    with pytest.raises(PreconditionError):
        m.inverse()


def test_coordinates_in_rowspace():
    basis = Matrix.from_rows(FP, [[1, 0, 2], [0, 1, 3]])
    coords = coordinates_in_rowspace(basis, [2, 5, (2 * 2 + 5 * 3) % P])
    assert coords == [2, 5]
    assert coordinates_in_rowspace(basis, [0, 0, 1]) is None


def test_subspace_canonical_equality():
    s1 = Subspace.from_rows(FP, [[1, 1, 0], [0, 2, 2]])
    s2 = Subspace.from_rows(FP, [[2, 2, 0], [1, 2, 1]])
    assert s1 == s2
    assert s1.dim == 2
    assert s1.contains([1, 2, 1])
    assert not s1.contains([0, 0, 1])


def test_subspace_trivial_intersection_and_complement():
    a = Subspace.from_rows(QQ, [[1, 0, 0]])
    b = Subspace.from_rows(QQ, [[0, 1, 0], [0, 0, 1]])
    assert a.intersects_trivially(b)
    assert a.is_complement_of(b)
    comp = standard_complement(a)
    assert comp == b


def test_fraction_entries_exact():
    m = Matrix.from_rows(QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
    assert m.rank() == 1
    m2 = Matrix.from_rows(QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]])
    assert m2.rank() == 2


def test_matrix_arithmetic_basics():
    a = Matrix.from_rows(FP, [[1, 2], [3, 4]])
    b = Matrix.from_rows(FP, [[5, 6], [7, 8]])
    assert (a + b).to_rows() == [[6, 8], [10, 12]]
    assert (b - a).to_rows() == [[4, 4], [4, 4]]
    assert (-a).to_rows() == [[P - 1, P - 2], [P - 3, P - 4]]
    assert a.scale(3).to_rows() == [[3, 6], [9, 12]]
    assert a.transpose().to_rows() == [[1, 3], [2, 4]]
    assert (a @ b).to_rows() == [[19, 22], [43, 50]]


def test_stacking():
    a = Matrix.from_rows(QQ, [[1, 2]])
    b = Matrix.from_rows(QQ, [[3, 4]])
    assert Matrix.vstack([a, b]).to_rows() == [[1, 2], [3, 4]]
    assert Matrix.hstack([a, b]).to_rows() == [[1, 2, 3, 4]]


@pytest.mark.parametrize("field", [FP, QQ], ids=["fp", "qq"])
def test_reshape_round_trips_and_agrees_with_flatten(field):
    m = Matrix.from_rows(field, [[1, 2, 3], [4, 5, 6]])
    for shape in ((3, 2), (1, 6), (6, 1), (2, 3)):
        r = m.reshape(*shape)
        assert r.shape == shape
        assert r.flatten() == m.flatten()
        assert r.reshape(2, 3) == m
    assert m.reshape(3, 2).to_rows() == [[1, 2], [3, 4], [5, 6]]
    assert Matrix.zeros(field, 0, 4).reshape(2, 0).shape == (2, 0)
    with pytest.raises(PreconditionError):
        m.reshape(4, 2)


@pytest.mark.parametrize("field", [FP, QQ], ids=["fp", "qq"])
def test_from_entries_sums_repeated_positions(field):
    m = Matrix.from_entries(field, 2, 3, [(0, 1, 2), (1, 2, Fraction(1, 2)), (0, 1, 5), (1, 0, -1)])
    want = Matrix.from_rows(field, [[0, 7, 0], [-1, 0, Fraction(1, 2)]])
    assert m == want
    assert Matrix.from_entries(field, 2, 2, []) == Matrix.zeros(field, 2, 2)
