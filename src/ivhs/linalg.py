"""Exact dense linear algebra over Q and F_p.

Everything here is exact: prime-field matrices live in numpy int64 arrays
with entries in [0, p) and are eliminated with a panel-blocked Gauss-Jordan
whose inner products provably fit the arithmetic type (float64 BLAS when
panel * (p-1)^2 < 2^53, int64 otherwise); rational matrices use Fraction
entries, with rank computed by fraction-free Bareiss elimination on
integer-cleared rows.  No floating-point rounding can occur on any path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .errors import PreconditionError
from .fields import FieldSpec, Scalar

_FLOAT_PANEL = 128
_FLOAT_SAFE = 2**53
_INT_SAFE = 2**62


def _elim_dtype_and_panel(p: int) -> tuple[np.dtype, int]:
    if (p - 1) ** 2 * _FLOAT_PANEL < _FLOAT_SAFE:
        return np.dtype(np.float64), _FLOAT_PANEL
    panel = max(1, min(_FLOAT_PANEL, _INT_SAFE // (p - 1) ** 2))
    return np.dtype(np.int64), panel


# ---------------------------------------------------------------------------
# prime-field kernels (numpy)
# ---------------------------------------------------------------------------


def _fp_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for int64 arrays already reduced into [0, p)."""
    inner = a.shape[1]
    if inner == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    bound = inner * (p - 1) ** 2
    if bound < _FLOAT_SAFE:
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return (prod % p).astype(np.int64)
    if bound < _INT_SAFE:
        return (a @ b) % p
    chunk = max(1, _INT_SAFE // (p - 1) ** 2)
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for lo in range(0, inner, chunk):
        hi = min(lo + chunk, inner)
        acc = (acc + a[:, lo:hi] @ b[lo:hi, :]) % p
    return acc


def _fp_forward_echelon(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """In-place panel-blocked forward elimination; returns (a, pivot columns).

    After the call, rows 0..r-1 of ``a`` are in echelon form with pivots at
    the returned columns and zeros below every pivot.  Works on the
    elimination dtype chosen for ``p``; entries stay reduced mod p.
    """
    m, n = a.shape
    _, panel = _elim_dtype_and_panel(p)
    pivots: list[int] = []
    r = 0
    c0 = 0
    while r < m and c0 < n:
        c1 = min(c0 + panel, n)
        width = c1 - c0
        F = np.zeros((m - r, width), dtype=a.dtype)
        k = 0
        for c in range(c0, c1):
            rr = r + k
            if rr >= m:
                break
            colvals = a[rr:, c]
            nz = np.nonzero(colvals)[0]
            if nz.size == 0:
                continue
            pr = rr + int(nz[0])
            if pr != rr:
                a[[rr, pr], :] = a[[pr, rr], :]
                F[[rr - r, pr - r], :] = F[[pr - r, rr - r], :]
            inv = pow(int(a[rr, c]), p - 2, p)
            if rr + 1 < m:
                f = (a[rr + 1 :, c] * inv) % p
                a[rr + 1 :, c0:c1] = (a[rr + 1 :, c0:c1] - np.outer(f, a[rr, c0:c1])) % p
                F[rr + 1 - r :, k] = f
            pivots.append(c)
            k += 1
        if k > 0 and c1 < n:
            # Pivot rows missed the updates from earlier pivots of this panel
            # on the trailing columns; forward-substitute, then update the
            # rows below with one product.
            for j in range(1, k):
                fj = F[j, :j]
                if np.any(fj):
                    a[r + j, c1:] = (a[r + j, c1:] - fj @ a[r : r + j, c1:]) % p
            if r + k < m:
                Fb = F[k:, :k]
                if np.any(Fb):
                    a[r + k :, c1:] = (a[r + k :, c1:] - Fb @ a[r : r + k, c1:]) % p
        r += k
        c0 = c1
    return a, pivots


def _fp_rank(arr: np.ndarray, p: int) -> int:
    dtype, _ = _elim_dtype_and_panel(p)
    if arr.size == 0:
        return 0
    # Eliminating the transpose is cheaper when the matrix is much taller
    # than wide; rank is unchanged.
    work = arr.T if arr.shape[0] > 4 * arr.shape[1] else arr
    a = np.array(work, dtype=dtype)
    _, pivots = _fp_forward_echelon(a, p)
    return len(pivots)


def _fp_rref(arr: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p: unit pivots, zeros above and below."""
    dtype, _ = _elim_dtype_and_panel(p)
    a = np.array(arr, dtype=dtype)
    if a.size == 0:
        return a.astype(np.int64), []
    a, pivots = _fp_forward_echelon(a, p)
    for idx in range(len(pivots) - 1, -1, -1):
        c = pivots[idx]
        inv = pow(int(a[idx, c]), p - 2, p)
        if inv != 1:
            a[idx, c:] = (a[idx, c:] * inv) % p
        if idx > 0:
            f = a[:idx, c].copy()
            if np.any(f):
                a[:idx, c:] = (a[:idx, c:] - np.outer(f, a[idx, c:])) % p
    return a.astype(np.int64), pivots


def _fp_kernel(arr: np.ndarray, p: int) -> np.ndarray:
    """Columns spanning {x : arr @ x = 0 mod p}; shape (n, n - rank)."""
    n = arr.shape[1]
    r, pivots = _fp_rref(arr, p)
    free = [c for c in range(n) if c not in set(pivots)]
    k = np.zeros((n, len(free)), dtype=np.int64)
    for j, c in enumerate(free):
        k[c, j] = 1
        for i, pc in enumerate(pivots):
            k[pc, j] = (-int(r[i, c])) % p
    return k


# ---------------------------------------------------------------------------
# rational kernels (Fraction / bigint)
# ---------------------------------------------------------------------------


def _q_rank_bareiss(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q by one-step Bareiss (fraction-free) elimination.

    Rows are scaled to integers first; all divisions are exact integer
    divisions by the previous pivot, so intermediate growth stays polynomial.
    """
    m = [
        [int(x * scale) for x in row]
        for row in rows
        for scale in [lcm(*(x.denominator for x in row)) if row else 1]
    ]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        for i in range(rank + 1, nrows):
            ri = m[i]
            if ri[c] == 0:
                # Still rescale so the division invariant holds uniformly.
                for j in range(c + 1, ncols):
                    ri[j] = ri[j] * pr[c] // prev
            else:
                fac = ri[c]
                for j in range(c + 1, ncols):
                    ri[j] = (ri[j] * pr[c] - fac * pr[j]) // prev
                ri[c] = 0
        prev = pr[c]
        rank += 1
        if rank == nrows:
            break
    return rank


def _q_rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    a = [list(row) for row in rows]
    if not a or not a[0]:
        return a, []
    nrows, ncols = len(a), len(a[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                fac = a[i][c]
                a[i] = [x - fac * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def _q_kernel(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    r, pivots = _q_rref(rows)
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = []
    for c in free:
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][c]
        basis.append(v)
    return basis  # one row per kernel vector


# ---------------------------------------------------------------------------
# Matrix
# ---------------------------------------------------------------------------


class Matrix:
    """Immutable exact matrix over a FieldSpec.

    Prime-field data is a read-only int64 array with entries in [0, p);
    rational data is a tuple of tuples of Fractions.  All arithmetic is
    exact; elimination is deterministic (first nonzero pivot), so rref,
    pivot columns, and kernel bases are canonical for given input.
    """

    __slots__ = ("field", "_fp", "_q", "_shape")

    def __init__(self, field: FieldSpec, fp: np.ndarray | None, q: tuple | None, shape: tuple[int, int]):
        self.field = field
        self._fp = fp
        self._q = q
        self._shape = shape
        if fp is not None:
            fp.flags.writeable = False

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(field: FieldSpec, rows: Sequence[Sequence[Scalar]], cols: int | None = None) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else (cols if cols is not None else 0)
        if any(len(r) != ncols for r in rows):
            raise PreconditionError("ragged rows")
        if field.is_prime_field:
            p = field.modulus
            arr = np.empty((nrows, ncols), dtype=np.int64)
            for i, row in enumerate(rows):
                arr[i] = [field.coerce(x) for x in row]
            return Matrix(field, arr % p, None, (nrows, ncols))
        data = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        return Matrix(field, None, data, (nrows, ncols))

    @staticmethod
    def from_entries(
        field: FieldSpec, rows: int, cols: int, entries: Iterable[tuple[int, int, Scalar]]
    ) -> "Matrix":
        """rows x cols matrix from (row, col, value) triplets; values at a
        repeated position add up, positions never named stay zero."""
        entries = list(entries)
        if field.is_prime_field:
            arr = np.zeros((rows, cols), dtype=np.int64)
            if entries:
                i, j, x = zip(*entries)
                vals = [field.coerce(v) for v in x]
                np.add.at(arr, (np.array(i, dtype=np.intp), np.array(j, dtype=np.intp)), vals)
            return Matrix(field, arr % field.modulus, None, (rows, cols))
        data = [[Fraction(0)] * cols for _ in range(rows)]
        for i, j, x in entries:
            data[i][j] += field.coerce(x)
        return Matrix(field, None, tuple(map(tuple, data)), (rows, cols))

    @staticmethod
    def from_array(field: FieldSpec, arr: np.ndarray) -> "Matrix":
        if not field.is_prime_field:
            raise PreconditionError("from_array requires a prime field")
        a = np.asarray(arr, dtype=np.int64) % field.modulus
        if a.ndim != 2:
            raise PreconditionError("expected a 2-d array")
        return Matrix(field, a, None, a.shape)

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        if field.is_prime_field:
            return Matrix(field, np.zeros((rows, cols), dtype=np.int64), None, (rows, cols))
        return Matrix(field, None, tuple(tuple(Fraction(0) for _ in range(cols)) for _ in range(rows)), (rows, cols))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        if field.is_prime_field:
            return Matrix(field, np.eye(n, dtype=np.int64), None, (n, n))
        return Matrix(
            field,
            None,
            tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)),
            (n, n),
        )

    # -- basic accessors ----------------------------------------------------

    @property
    def rows(self) -> int:
        return self._shape[0]

    @property
    def cols(self) -> int:
        return self._shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def array(self) -> np.ndarray:
        """Read-only int64 view (prime fields only)."""
        if self._fp is None:
            raise PreconditionError("no array form over the rationals")
        return self._fp

    def entry(self, i: int, j: int) -> Scalar:
        if self._fp is not None:
            return int(self._fp[i, j])
        return self._q[i][j]

    def row(self, i: int) -> list[Scalar]:
        if self._fp is not None:
            return [int(x) for x in self._fp[i]]
        return list(self._q[i])

    def to_rows(self) -> list[list[Scalar]]:
        return [self.row(i) for i in range(self.rows)]

    def flatten(self) -> list[Scalar]:
        """Entries in row-major order."""
        if self._fp is not None:
            return [int(x) for x in self._fp.ravel()]
        return [x for row in self._q for x in row]

    def row_select(self, indices: Sequence[int]) -> "Matrix":
        if self._fp is not None:
            # Fancy indexing already returns a fresh array.
            picked = self._fp[np.asarray(indices, dtype=np.intp)]
            return Matrix(self.field, picked, None, picked.shape)
        data = tuple(self._q[i] for i in indices)
        return Matrix(self.field, None, data, (len(indices), self.cols))

    def col_select(self, indices: Sequence[int]) -> "Matrix":
        if self._fp is not None:
            picked = self._fp[:, np.asarray(indices, dtype=np.intp)]
            return Matrix(self.field, picked, None, picked.shape)
        data = tuple(tuple(row[j] for j in indices) for row in self._q)
        return Matrix(self.field, None, data, (self.rows, len(indices)))

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The same entries, read in row-major order, regrouped into rows x cols."""
        if rows < 0 or cols < 0 or rows * cols != self.rows * self.cols:
            raise PreconditionError(f"cannot reshape {self.rows}x{self.cols} into {rows}x{cols}")
        if self._fp is not None:
            return Matrix(self.field, self._fp.reshape(rows, cols), None, (rows, cols))
        flat = self.flatten()
        data = tuple(tuple(flat[i * cols : (i + 1) * cols]) for i in range(rows))
        return Matrix(self.field, None, data, (rows, cols))

    # -- arithmetic ----------------------------------------------------------

    def _check_same_field(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise PreconditionError("field mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise PreconditionError("shape mismatch in addition")
        if self._fp is not None:
            return Matrix(self.field, (self._fp + other._fp) % self.field.modulus, None, self.shape)
        data = tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self._q, other._q))
        return Matrix(self.field, None, data, self.shape)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise PreconditionError("shape mismatch in subtraction")
        if self._fp is not None:
            return Matrix(self.field, (self._fp - other._fp) % self.field.modulus, None, self.shape)
        data = tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self._q, other._q))
        return Matrix(self.field, None, data, self.shape)

    def __neg__(self) -> "Matrix":
        if self._fp is not None:
            return Matrix(self.field, (-self._fp) % self.field.modulus, None, self.shape)
        data = tuple(tuple(-a for a in row) for row in self._q)
        return Matrix(self.field, None, data, self.shape)

    def scale(self, c: Scalar) -> "Matrix":
        c = self.field.coerce(c)
        if self._fp is not None:
            return Matrix(self.field, (self._fp * int(c)) % self.field.modulus, None, self.shape)
        data = tuple(tuple(c * a for a in row) for row in self._q)
        return Matrix(self.field, None, data, self.shape)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise PreconditionError(
                f"inner dimensions differ: {self.shape} @ {other.shape}"
            )
        if self._fp is not None:
            return Matrix(self.field, _fp_matmul(self._fp, other._fp, self.field.modulus), None, (self.rows, other.cols))
        data = tuple(
            tuple(sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*other._q)) if other._q else ()
            for row in self._q
        )
        # zip(*other._q) is empty when other has no rows; guard the shape.
        if other.cols == 0 or self.rows == 0 or self.cols == 0:
            return Matrix.zeros(self.field, self.rows, other.cols)
        return Matrix(self.field, None, data, (self.rows, other.cols))

    def transpose(self) -> "Matrix":
        if self._fp is not None:
            return Matrix(self.field, np.ascontiguousarray(self._fp.T), None, (self.cols, self.rows))
        data = tuple(tuple(row[j] for row in self._q) for j in range(self.cols))
        return Matrix(self.field, None, data, (self.cols, self.rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.shape != other.shape:
            return False
        if self._fp is not None:
            return bool(np.array_equal(self._fp, other._fp))
        return self._q == other._q

    __hash__ = None  # matrices are compared by value, not hashed

    def is_zero(self) -> bool:
        if self._fp is not None:
            return not np.any(self._fp)
        return all(x == 0 for row in self._q for x in row)

    def __repr__(self) -> str:
        return f"Matrix({self.field.kind}, {self.rows}x{self.cols})"

    # -- elimination ----------------------------------------------------------

    def rank(self) -> int:
        if self._fp is not None:
            return _fp_rank(self._fp, self.field.modulus)
        return _q_rank_bareiss(self._q)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        if self._fp is not None:
            r, pivots = _fp_rref(self._fp, self.field.modulus)
            return Matrix(self.field, r, None, self.shape), tuple(pivots)
        r, pivots = _q_rref(self._q)
        return Matrix(self.field, None, tuple(tuple(row) for row in r), self.shape), tuple(pivots)

    def kernel_basis(self) -> "Matrix":
        """Matrix whose columns span the right kernel; cols == cols - rank."""
        if self._fp is not None:
            k = _fp_kernel(self._fp, self.field.modulus)
            return Matrix(self.field, k, None, k.shape)
        basis = _q_kernel(self._q, self.cols)
        if not basis:
            return Matrix.zeros(self.field, self.cols, 0)
        cols = tuple(tuple(v[i] for v in basis) for i in range(self.cols))
        return Matrix(self.field, None, cols, (self.cols, len(basis)))

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise PreconditionError("inverse of a non-square matrix")
        n = self.rows
        aug = Matrix.hstack([self, Matrix.identity(self.field, n)])
        r, pivots = aug.rref()
        if tuple(pivots) != tuple(range(n)):
            raise PreconditionError("matrix is singular")
        return r.col_select(range(n, 2 * n))

    # -- stacking ----------------------------------------------------------

    @staticmethod
    def vstack(mats: Sequence["Matrix"]) -> "Matrix":
        if not mats:
            raise PreconditionError("vstack of nothing")
        field = mats[0].field
        cols = mats[0].cols
        if any(m.field != field or m.cols != cols for m in mats):
            raise PreconditionError("vstack requires equal fields and widths")
        if field.is_prime_field:
            arr = np.concatenate([m._fp for m in mats], axis=0) if mats else None
            return Matrix(field, arr, None, (arr.shape[0], cols))
        data = tuple(row for m in mats for row in m._q)
        return Matrix(field, None, data, (len(data), cols))

    @staticmethod
    def hstack(mats: Sequence["Matrix"]) -> "Matrix":
        if not mats:
            raise PreconditionError("hstack of nothing")
        field = mats[0].field
        rows = mats[0].rows
        if any(m.field != field or m.rows != rows for m in mats):
            raise PreconditionError("hstack requires equal fields and heights")
        if field.is_prime_field:
            arr = np.concatenate([m._fp for m in mats], axis=1)
            return Matrix(field, arr, None, (rows, arr.shape[1]))
        data = tuple(tuple(x for m in mats for x in m._q[i]) for i in range(rows))
        return Matrix(field, None, data, (rows, data and len(data[0]) or sum(m.cols for m in mats)))


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def rank(m: Matrix) -> int:
    """Exact rank of ``m`` over its field."""
    return m.rank()


def kernel_basis(m: Matrix) -> Matrix:
    """Basis of the right kernel of ``m``, one basis vector per column."""
    return m.kernel_basis()


def random_matrix(field: FieldSpec, rows: int, cols: int, seed) -> Matrix:
    """Uniform random matrix over a prime field; deterministic in ``seed``.

    ``seed`` may be an int, a tuple of ints, or a numpy Generator.  There is
    no uniform measure over Q, so rational fields are rejected.
    """
    if not field.is_prime_field:
        raise PreconditionError("random_matrix requires a field with a modulus")
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = np.random.default_rng(seed)
    arr = rng.integers(0, field.modulus, size=(rows, cols), dtype=np.int64)
    return Matrix(field, arr, None, (rows, cols))


def coordinates_in_rowspace(basis: Matrix, vector: Sequence[Scalar]) -> list[Scalar] | None:
    """Coefficients c with c @ basis == vector, or None if unsolvable.

    ``basis`` rows need not be independent; when they are, the coordinates
    are unique.
    """
    field = basis.field
    vec = Matrix.from_rows(field, [list(vector)], cols=basis.cols)
    aug = Matrix.hstack([basis.transpose(), vec.transpose()])
    r, pivots = aug.rref()
    k = basis.rows
    if any(c == k for c in pivots):
        return None
    coords = [field.zero()] * k
    for i, c in enumerate(pivots):
        coords[c] = r.entry(i, k)
    return coords


@dataclass(frozen=True)
class Subspace:
    """A subspace of row vectors in canonical (RREF-basis) form.

    Equality of subspaces is equality of the canonical bases, so two spans
    agree iff the objects compare equal.
    """

    field: FieldSpec
    ambient_dimension: int
    basis: Matrix  # dim x ambient, in RREF with no zero rows

    @staticmethod
    def from_rows(field: FieldSpec, rows, ambient_dimension: int | None = None) -> "Subspace":
        if isinstance(rows, Matrix):
            mat = rows
        else:
            mat = Matrix.from_rows(field, rows, cols=ambient_dimension)
        ambient = mat.cols if mat.rows else (ambient_dimension if ambient_dimension is not None else mat.cols)
        r, pivots = mat.rref()
        if not pivots:
            return Subspace(field, ambient, Matrix.zeros(field, 0, ambient))
        nz = r.row_select(range(len(pivots)))
        return Subspace(field, ambient, nz)

    @property
    def dim(self) -> int:
        return self.basis.rows

    def contains(self, vector: Sequence[Scalar]) -> bool:
        return coordinates_in_rowspace(self.basis, vector) is not None

    def contains_rowspace(self, other: "Subspace") -> bool:
        return all(self.contains(other.basis.row(i)) for i in range(other.dim))

    def intersects_trivially(self, other: "Subspace") -> bool:
        if self.ambient_dimension != other.ambient_dimension:
            raise PreconditionError("ambient dimensions differ")
        if self.dim == 0 or other.dim == 0:
            return True
        stacked = Matrix.vstack([self.basis, other.basis])
        return stacked.rank() == self.dim + other.dim

    def is_complement_of(self, other: "Subspace") -> bool:
        return (
            self.ambient_dimension == other.ambient_dimension
            and self.dim + other.dim == self.ambient_dimension
            and self.intersects_trivially(other)
        )


def standard_complement(space: Subspace) -> Subspace:
    """Coordinate complement spanned by the non-pivot unit vectors."""
    pivots = set()
    b = space.basis
    for i in range(b.rows):
        row = b.row(i)
        for j, x in enumerate(row):
            if not space.field.is_zero(x):
                pivots.add(j)
                break
    free = [j for j in range(space.ambient_dimension) if j not in pivots]
    # Unit rows in increasing column order are already in RREF.
    units = Matrix.from_entries(
        space.field, len(free), space.ambient_dimension, [(r, j, 1) for r, j in enumerate(free)]
    )
    return Subspace(space.field, space.ambient_dimension, units)
