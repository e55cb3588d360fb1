"""Exact rank, kernel, rref, and random-matrix behaviour over Q and F_p."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivhs import linalg
from ivhs.errors import PreconditionError
from ivhs.fields import QQ, FieldSpec, default_prime_field
from ivhs.linalg import (
    Matrix,
    Subspace,
    random_matrix,
    standard_complement,
)

from oracle import naive_kernel_mod, naive_rank_fraction, naive_rank_mod, naive_rref_mod

FP = default_prime_field()
P = FP.modulus


def _assert_rank_rows(ref, pivots, oracle_ref):
    """rref keeps the oracle's first rank rows; the oracle's rows below are zero."""
    r = len(pivots)
    assert ref.to_rows() == oracle_ref[:r]
    assert all(x == 0 for row in oracle_ref[r:] for x in row)


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
    assert r.to_rows() == [[1, 2]]
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
        _assert_rank_rows(ref, pivots, oracle_ref)
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
    _assert_rank_rows(ref, pivots, oracle_ref)
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


def test_subspace_canonical_equality():
    s1 = Subspace.from_rows(FP, [[1, 1, 0], [0, 2, 2]])
    s2 = Subspace.from_rows(FP, [[2, 2, 0], [1, 2, 1]])
    assert s1 == s2
    assert s1.dim == 2


def test_subspace_trivial_intersection_and_complement():
    a = Subspace.from_rows(QQ, [[1, 0, 0]])
    b = Subspace.from_rows(QQ, [[0, 1, 0], [0, 0, 1]])
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
def test_degenerate_shapes_keep_shape_and_entry_type(field):
    scalar = int if field.is_prime_field else Fraction
    m = Matrix.from_rows(field, [[1, 2, 3], [4, 5, 6]])
    empty = m.row_select([])
    assert empty.shape == (0, 3)
    assert empty.to_rows() == [] and empty.flatten() == []
    no_cols = Matrix.zeros(field, 2, 0)
    assert Matrix.vstack([empty, m, empty]) == m
    assert Matrix.vstack([empty, empty]).shape == (0, 3)
    assert Matrix.hstack([no_cols, m, no_cols]) == m
    assert Matrix.hstack([no_cols, no_cols]).shape == (2, 0)
    assert Matrix.hstack([empty, empty]).shape == (0, 6)
    assert empty.reshape(0, 5).shape == (0, 5)
    assert empty.transpose().shape == (3, 0)
    assert empty.transpose().to_rows() == [[], [], []]
    prod = no_cols @ Matrix.zeros(field, 0, 4)
    assert prod.shape == (2, 4) and prod.is_zero()
    assert all(type(x) is scalar for x in prod.flatten())
    assert (empty @ m.transpose()).shape == (0, 2)
    eye = Matrix.identity(field, 0)
    assert eye.shape == (0, 0) and eye.rank() == 0
    assert type(m.entry(1, 2)) is scalar and m.entry(1, 2) == 6
    assert [type(x) for x in m.row(0)] == [scalar] * 3
    assert all(type(x) is scalar for row in m.to_rows() for x in row)
    for derived in (-m, m + m, m.scale(2), m @ m.transpose(), m.rref()[0]):
        assert all(type(x) is scalar for x in derived.flatten())


@pytest.mark.parametrize("field", [FP, QQ], ids=["fp", "qq"])
def test_differing_columns(field):
    a = Matrix.from_rows(field, [[1, 2, 3], [4, 5, 6]])
    b = Matrix.from_rows(field, [[1, 0, 3], [4, 5, Fraction(1, 2)]])
    assert a.differing_columns(b).tolist() == [False, True, True]
    assert not a.differing_columns(a).any()
    assert Matrix.zeros(field, 0, 2).differing_columns(Matrix.zeros(field, 0, 2)).tolist() == [False, False]
    with pytest.raises(PreconditionError):
        a.differing_columns(Matrix.zeros(field, 2, 2))


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


# ---------------------------------------------------------------------------
# structural-pivot stage of the F_p core
# ---------------------------------------------------------------------------


def _scaled_permutation(rng, p):
    # Every row is structural and no row needs another: one level, B = 0.
    a = np.zeros((10, 14), dtype=np.int64)
    a[np.arange(10), rng.permutation(14)[:10]] = rng.integers(1, p, size=10)
    return a


def _macaulay(rng, p, gens=3, terms=3, width=6, cols=40, dependent=12):
    # Shifts of sparse generators, as in a Macaulay matrix: the shifts of one
    # generator lead distinct columns, other generators repeat those leads.
    # Like the syzygies of a Jacobian ideal, some rows are combinations of
    # two others, so the Schur complement is rank deficient.
    rows = []
    for _ in range(gens):
        g = np.zeros(width, dtype=np.int64)
        g[0] = rng.integers(1, p)
        g[rng.choice(np.arange(1, width), size=terms - 1, replace=False)] = rng.integers(1, p, size=terms - 1)
        for s in range(cols - width + 1):
            row = np.zeros(cols, dtype=np.int64)
            row[s : s + width] = g
            rows.append(row)
    for _ in range(dependent):
        i, j = rng.choice(len(rows), size=2, replace=False)
        c = rng.integers(1, p, size=2).astype(object)
        rows.append(((c[0] * rows[i].astype(object) + c[1] * rows[j].astype(object)) % p).astype(np.int64))
    return np.array(rows)[rng.permutation(len(rows))]


def _bidiagonal_chain(rng, p, k=9, extra=5):
    # Row i is nonzero at the lead of row i + 1: k dependency levels.  Dense
    # trailing columns make B nonzero, and combinations of the chain rows
    # (which repeat its leads) give a Schur complement of zero rows.
    a = np.zeros((k, k + extra), dtype=np.int64)
    a[np.arange(k), np.arange(k)] = rng.integers(1, p, size=k)
    a[np.arange(k - 1), np.arange(1, k)] = rng.integers(1, p, size=k - 1)
    a[:, k:] = rng.integers(0, p, size=(k, extra))
    mix = rng.integers(0, p, size=(3, k)).astype(object) @ a.astype(object) % p
    return np.vstack([a, mix.astype(np.int64)])


def _dense(rng, p):
    # Every row leads column 0: one structural pivot, the dense core alone.
    return rng.integers(1, p, size=(12, 9))


def _repeated_leads(rng, p):
    # Ten rows share five leads, and two rows are combinations of others.
    a = rng.integers(0, p, size=(12, 12)) * (rng.random((12, 12)) < 0.4)
    for i, lead in enumerate([1, 1, 3, 3, 4, 4, 8, 8, 10, 10]):
        a[i, :lead] = 0
        a[i, lead] = rng.integers(1, p)
    a[10] = a[0] * 5 % p
    a[11] = (a[2] + a[5]) % p
    return a[rng.permutation(12)]


def _zero_rows_and_cols(rng, p):
    a = _macaulay(rng, p, gens=2, width=5, cols=16)
    a = np.insert(a, [0, 3, 3, len(a)], 0, axis=0)
    return np.insert(a, [0, 7, 16], 0, axis=1)


_STRUCTURAL_INPUTS = {
    "scaled_permutation": _scaled_permutation,
    "macaulay": _macaulay,
    "bidiagonal_chain": _bidiagonal_chain,
    "dense": _dense,
    "repeated_leads": _repeated_leads,
    "zero_rows_and_cols": _zero_rows_and_cols,
}


def _structural_pivots(a):
    nz = a != 0
    return np.unique(nz.argmax(axis=1)[nz.any(axis=1)]).size


def _assert_agrees_with_oracle(field, arr):
    p = field.modulus
    mat = Matrix.from_array(field, arr)
    rows = arr.tolist()
    oracle_ref, oracle_piv = naive_rref_mod(rows, p) if rows else ([], [])
    assert mat.rank() == (naive_rank_mod(rows, p) if rows else 0) == len(oracle_piv)
    ref, pivots = mat.rref()
    assert list(pivots) == oracle_piv
    _assert_rank_rows(ref, pivots, oracle_ref)
    ker = mat.kernel_basis()
    assert ker.shape == (arr.shape[1], arr.shape[1] - len(oracle_piv))
    if rows:
        assert ker.transpose().to_rows() == naive_kernel_mod(rows, p)


# The float64 core with panel 128, the largest float64 prime, and the int64
# core with panel 1, where every product of the stage takes the int64 path.
@pytest.mark.parametrize("p", [10007, 8388593, 2147483629])
@pytest.mark.parametrize("kind", sorted(_STRUCTURAL_INPUTS))
def test_structural_stage_agrees_with_oracle(kind, p):
    field = FieldSpec.prime(p)
    for trial in range(3):
        arr = _STRUCTURAL_INPUTS[kind](np.random.default_rng((trial, p % 1000)), p)
        k = _structural_pivots(arr)
        assert (k == 1) if kind == "dense" else (k >= linalg._STRUCTURAL_MIN)
        _assert_agrees_with_oracle(field, arr)


@pytest.mark.parametrize("p", [10007, 8388593, 2147483629])
def test_structural_stage_on_empty_shapes(p):
    field = FieldSpec.prime(p)
    for shape in ((0, 0), (0, 5), (5, 0)):
        _assert_agrees_with_oracle(field, np.zeros(shape, dtype=np.int64))


@pytest.mark.parametrize("p", [10007, 2147483629])
@pytest.mark.parametrize("branch", ["entries", "block"])
def test_structural_stage_sparse_product_branches(branch, p, monkeypatch):
    # Shifts of a two-term generator plus combinations of two shifts: the
    # Schur complement is zero.  Every product of the stage takes one branch
    # of _sub_entries; the entry-by-entry one runs in chunks of 5 entries, so
    # every row's terms are split.  The result must match the dense core alone.
    field = FieldSpec.prime(p)
    arr = _macaulay(np.random.default_rng(p % 1000), p, gens=1, terms=2, width=8, cols=300, dependent=60)
    mat = Matrix.from_array(field, arr)
    stage_min = linalg._STRUCTURAL_MIN
    monkeypatch.setattr(linalg, "_STRUCTURAL_MIN", arr.shape[0] + 1)
    dense = (mat.rref(), mat.rank(), mat.kernel_basis())
    monkeypatch.setattr(linalg, "_STRUCTURAL_MIN", stage_min)
    monkeypatch.setattr(linalg, "_ENTRY_CHUNK", 5)
    monkeypatch.setattr(linalg, "_macs_per_entry", lambda p, inner: 0 if branch == "entries" else 1 << 62)
    assert (mat.rref(), mat.rank(), mat.kernel_basis()) == dense


@pytest.mark.parametrize("p", [10007, 2147483629])
def test_structural_stage_keeps_the_first_row_per_lead(p):
    a = np.array(
        [
            [0, 2, 4, 0, 6, 0, 0],  # leads column 1 first: structural
            [3, 0, 0, 5, 0, 1, 0],  # leads 0; needs the rows leading 3 and 5
            [0, 1, 0, 0, 0, 0, 0],  # leads 1 again: goes to the complement
            [0, 0, 0, 1, 2, 0, 0],
            [0, 0, 0, 0, 0, 7, 0],
            [0, 0, 0, 0, 0, 0, 3],
            [0, 0, 0, 0, 0, 0, 0],
        ],
        dtype=np.int64,
    )
    lcols, ncols, b, c = linalg._structural_stage(a, p)
    assert lcols.tolist() == [0, 1, 3, 5, 6] and ncols.tolist() == [2, 4]
    # [I | B] on (L, N).  Row 0 is halved; row 1 loses 5 * (row 3) and
    # 1 * (row 4), then is divided by 3.
    assert b.tolist() == [[0, -10 * pow(3, p - 2, p) % p], [2, 3], [0, 2], [0, 0], [0, 0]]
    # Row 2 minus 1 * (halved row 0), on N.
    assert c.tolist() == [[p - 2, p - 3]]
