"""Exact dense linear algebra over Q and F_p.

Everything here is exact.  Rational matrices are numpy object arrays of
Fractions.  Prime-field matrices are numpy int64 arrays with entries in
[0, p).

Small matrices, and every matrix over Q, are eliminated on Python scalars
by ``_scalar_echelon``: Gauss(-Jordan) in place on row lists of ints in
[0, p) or of Fractions.  A row update loops only over the pivot row's
nonzero entries at or right of the pivot, so a sparse row costs its
nonzeros.  Over F_p it takes every matrix of at most ``_SCALAR_ENTRIES``
entries, the small Schur complements of the structural stage included: a
pivot step of the numpy core below costs about 12 us of calls however small
the matrix, an entry that a Python row update touches about 0.1 us.  Rank
eliminates the shorter side and runs forward only; RREF runs Gauss-Jordan.

Larger F_p matrices go to one panel-blocked Gauss-Jordan core in float64
(BLAS) or int64, with a panel width chosen so that panel * (p-1)^2 < 2^53
or < 2^62.  The core holds its copy of the matrix transposed, so that a
column is contiguous: a pivot step reduces its column and its row within
the panel, keeps its multipliers below the pivot and makes one rank-1
update.  Between two reductions mod p an entry takes fewer than ``panel``
updates x -= f * y with f and y in [0, p), so |x| < p + panel * (p-1)^2
and every entry stays an exact integer: no floating-point rounding can
occur on any path.

A structural stage runs before the core (the structural-pivot step of
Faugere-Lachartre, PASCO 2010).  A row whose first nonzero column no
earlier row leads is a structural row; its lead column is a pivot column
of the RREF, because no column left of it can produce that entry.  The
structural rows reduce among themselves by a triangular solve, one product
per dependency level; the other nonzero rows are reduced against them into
a Schur complement on the remaining columns.  All-zero rows enter neither.
The split is taken only when its pivots number at least
``_PIVOTS_PER_LEVEL`` per dependency level, counting two more levels for
the stage's fixed cost; then the same stage runs again on the complement,
round after round, and the first complement whose split does not pay goes
to the core; a complement small enough for the scalar path goes there.
Since the RREF over F_p is unique, the result is bit-identical to
eliminating the whole matrix.  The stage's products are exact too: each
goes through ``_fp_matmul``, whose float64 path needs
inner * (p-1)^2 + p < 2^53 and whose int64 path splits the inner dimension
below 2^62, or applies the entries of a sparse factor one at a time,
reducing every product mod p before a row's terms are summed in int64,
whichever costs less by ``_macs_per_entry``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .errors import PreconditionError
from .fields import FieldSpec, Scalar

_FLOAT_PANEL = 128
_FLOAT_SAFE = 2**53
_INT_SAFE = 2**62
# A structural split is taken when it has at least this many pivots per
# dependency level, counting the stage's fixed cost as two more levels.  Each
# pivot saves one pivot step of the dense core; each level, and the stage
# itself, cost a few.  Timed against the dense core on the eliminations of
# the four benchmark workloads and on their Schur complements (162 splits):
# one level with 3 to 5 pivots lost in 41 of 41 cases, 21 pivots in 8 levels
# won by 27%, and of the 42 splits this rule takes 32 were faster, the other
# 10 (6 to 14 pivots in 1 or 2 levels) slower by at most 0.12 ms; of the 120
# it refuses, 119 were slower.  Summed, it came within 1.0% of always
# picking the faster path; 3 pivots per level with one extra level came
# within 2.5%, and the ratio alone within 4.8% (4) or 7.4% (3).
_PIVOTS_PER_LEVEL = 2
# F_p matrices of at most this many entries are eliminated on Python scalars
# (``_scalar_echelon``), larger ones by the structural stage and the numpy
# core.  A cost constant like ``_PIVOTS_PER_LEVEL``: the numpy core pays about
# 12 us of calls per pivot step, a Python row update about 0.1 us per entry it
# touches.  Timed on the eliminations of the symm-grid workload, 1024 was the
# fastest of the powers of two from 256 to 4096.
_SCALAR_ENTRIES = 1024
# Most entries a sparse product holds at once.
_ENTRY_CHUNK = 2**22


def _elim_dtype_and_panel(p: int) -> tuple[np.dtype, int]:
    if (p - 1) ** 2 * _FLOAT_PANEL < _FLOAT_SAFE:
        return np.dtype(np.float64), _FLOAT_PANEL
    panel = max(1, min(_FLOAT_PANEL, _INT_SAFE // (p - 1) ** 2))
    return np.dtype(np.int64), panel


# ---------------------------------------------------------------------------
# prime-field kernels (numpy)
# ---------------------------------------------------------------------------


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce the integer-valued array ``x`` into [0, p) in place.

    ``np.remainder`` is exact but slow on float64, so large float arrays
    subtract floor(x / p) * p.  With |x| + p < 2^53 that is exact too: x / p
    is at least 1/p away from any integer it is not, more than its rounding
    error, so the floor is the true one.
    """
    if x.dtype.kind == "i" or x.size < 256:
        return np.remainder(x, p, out=x)
    q = x / p
    x -= np.multiply(np.floor(q, out=q), p, out=q)
    return x


def _update(x: np.ndarray, f: np.ndarray, y: np.ndarray, p: int) -> None:
    """x = (x - f @ y) mod p in place, touching only the entries that change.

    Only rows where f and columns where y hold a nonzero can change; when
    they cover less than half of ``x``, only those are gathered.
    """
    rows = f.any(axis=1).nonzero()[0]
    if rows.size == 0:
        return
    cols = y.any(axis=0).nonzero()[0]
    if 2 * rows.size * cols.size > x.size:
        x -= f @ y
        _reduce(x, p)
    elif cols.size:
        ix = rows[:, None], cols
        x[ix] = _reduce(x[ix] - f[rows] @ y[:, cols], p)


def _fp_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for int64 arrays already reduced into [0, p)."""
    inner = a.shape[1]
    if inner == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    bound = inner * (p - 1) ** 2
    if bound + p < _FLOAT_SAFE:
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return _reduce(prod, p).astype(np.int64)
    if bound < _INT_SAFE:
        return (a @ b) % p
    chunk = max(1, _INT_SAFE // (p - 1) ** 2)
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for lo in range(0, inner, chunk):
        acc = (acc + a[:, lo : lo + chunk] @ b[lo : lo + chunk, :]) % p
    return acc


def _swap_rows(t: np.ndarray, i: int, j: int) -> None:
    """Swap rows i and j of the matrix whose transpose is ``t``."""
    x = t[:, i].copy()
    t[:, i] = t[:, j]
    t[:, j] = x


def _fp_forward_echelon(t: np.ndarray, p: int) -> list[int]:
    """In-place panel-blocked forward elimination of the matrix whose
    transpose is ``t``; returns the pivot columns.

    Holding the matrix transposed makes each of its columns a contiguous row
    of ``t``.  Afterwards rows 0..r-1 of the matrix are in echelon form with
    pivots at the returned columns, the rows below are zero, and entries
    lie in [0, p).  Each pivot reduces its column below itself and its row
    within the panel, keeps its multipliers in its column, below the pivot,
    and makes one unreduced rank-1 update of the panel, so every entry of
    the panel is reduced when its pivot step reads it.  A panel that leaves
    trailing columns brings them up to date with its multipliers by one
    product; the multipliers are then cleared.
    """
    n, m = t.shape
    _, panel = _elim_dtype_and_panel(p)
    pivots: list[int] = []
    r = 0
    for c0 in range(0, n, panel):
        if r == m:
            break
        c1 = min(c0 + panel, n)
        # A column that is zero in rows r.. stays zero there: skip it.
        cols = c0 + t[c0:c1, r:].any(axis=1).nonzero()[0]
        k = r
        for c in cols.tolist():
            if k == m:
                break
            col = _reduce(t[c, k:], p)
            nz = col.nonzero()[0]
            if nz.size == 0:
                continue
            if nz[0]:
                # Left of the panel, rows r.. are zero; in it, the multipliers
                # of earlier pivots move with their rows.
                _swap_rows(t[c0:], k, k + int(nz[0]))
            row = _reduce(t[c + 1 : c1, k], p)
            if nz.size > 1:
                f = col[1:]
                f *= pow(int(col[0]), p - 2, p)
                t[c + 1 : c1, k + 1 :] -= np.multiply.outer(row, _reduce(f, p))
            pivots.append(c)
            k += 1
        if k == r:
            continue
        piv = pivots[r - k :]
        if c1 < n:
            # The pivot rows missed the updates of earlier pivots of this
            # panel on the trailing columns: forward-substitute, then update
            # the rows below with one product.
            mult = t[piv, r:]  # row j: pivot j's multipliers, below row r + j
            top = t[c1:, r:k]
            for j in range(1, k - r):
                x = top[:, j]
                x -= top[:, :j] @ mult[:j, j]
                _reduce(x, p)
            _update(t[c1:, k:], top, mult[:, k - r :], p)
        for j, c in enumerate(piv):
            t[c, r + j + 1 :] = 0
        r = k
    return pivots


def _dense_rank(arr: np.ndarray, p: int) -> int:
    dtype, _ = _elim_dtype_and_panel(p)
    # The core eliminates the transpose of its copy.  Eliminating the
    # transpose of the matrix is cheaper when it is much taller than wide;
    # rank is unchanged.
    work = arr if arr.shape[0] > 4 * arr.shape[1] else arr.T
    return len(_fp_forward_echelon(np.array(work, dtype=dtype, order="C"), p))


def _dense_rref(arr: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Dense RREF: its rank rows (int64) and pivot columns.

    The elimination copy is built transposed, as ``_fp_forward_echelon``
    wants it, and its echelon rows are scaled to unit pivots at once.
    Back-substitution then runs bottom-up in blocks of at most ``panel``
    pivot rows: a sweep inside the block, in which each row is reduced when
    its turn comes and clears its pivot column from the block's rows above
    it by one unreduced rank-1 update, so a row takes fewer than ``panel``
    of them; then one product clears the block's pivot columns from every
    row above it.
    """
    dtype, panel = _elim_dtype_and_panel(p)
    t = np.array(arr.T, dtype=dtype, order="C")
    pivots = _fp_forward_echelon(t, p)
    r = len(pivots)
    if r:
        rows = t[:, :r]
        rows *= _inverses(t[pivots, np.arange(r)].astype(np.int64), p)
        _reduce(rows, p)
    for hi in range(r, 0, -panel):
        lo = max(0, hi - panel)
        c = pivots[lo]
        blk = t[c:, lo:hi]
        for i in range(hi - lo - 1, 0, -1):
            ci = pivots[lo + i] - c
            # Row i's pivot column is reduced: no later row of the block
            # reaches that far left.
            blk[ci:, :i] -= np.multiply.outer(_reduce(blk[ci:, i], p), blk[ci, :i])
        _reduce(blk[:, 0], p)
        _update(t[c:, :lo], blk, t[pivots[lo:hi], :lo], p)
    return np.ascontiguousarray(t[:, : len(pivots)].T, dtype=np.int64), pivots


def _macs_per_entry(p: int, inner: int) -> int:
    """Multiply-adds of ``_fp_matmul`` that cost as much as one entry applied alone.

    ``_sub_entries`` multiplies a dense block when the entries fill at least
    the inverse of this.  An entry applied on its own costs about 40 ns per
    column of y (a gather, a product, a reduction and a row sum); a
    multiply-add of ``_fp_matmul`` costs about 0.1 ns on its float64 (BLAS)
    path, 2 ns on its int64 path and 10 ns or more when that path splits the
    inner dimension (one BLAS thread, x86-64).  On sparse factors with 512
    rows and inner indices and on the sextic's Schur products the two
    branches cross near fill 1/256-1/400, 1/16 and 1/3; the values are
    rounded down to a power of two, leaning to the entry-by-entry branch,
    which holds less memory.
    """
    bound = inner * (p - 1) ** 2
    if bound + p < _FLOAT_SAFE:
        return 256
    return 16 if bound < _INT_SAFE else 2


def _sub_entries(x: np.ndarray, i: np.ndarray, j: np.ndarray, v: np.ndarray, y: np.ndarray, p: int) -> None:
    """x = (x - f @ y) mod p in place, for f given by its nonzero entries (i, j, v),
    sorted by i, and int64 x and y with entries in [0, p).

    Entries that fill at least 1/``_macs_per_entry`` of the block of rows and
    inner indices they touch are scattered into that block, which is
    multiplied densely: that costs no more than applying them one by one.
    Sparser ones are applied one by one, x[i] -= v * y[j], skipping those
    that meet a zero row of y: each product is reduced mod p before a row's
    terms are summed, so int64 holds every sum, and at most
    ``_ENTRY_CHUNK`` products exist at once.
    """
    rows = np.bincount(i, minlength=x.shape[0]).nonzero()[0]
    inner = np.bincount(j, minlength=y.shape[0]).nonzero()[0]
    if i.size * _macs_per_entry(p, inner.size) >= rows.size * inner.size:
        f = np.zeros((rows.size, inner.size), dtype=np.int64)
        f[np.searchsorted(rows, i), np.searchsorted(inner, j)] = v
        x[rows] = (x[rows] - _fp_matmul(f, y[inner], p)) % p
        return
    hit = y.any(axis=1)[j]
    i, j, v = i[hit], j[hit], v[hit]
    cols = y.any(axis=0).nonzero()[0]
    step = max(1, _ENTRY_CHUNK // max(1, cols.size))
    for lo in range(0, i.size, step):
        seg = i[lo : lo + step]
        t = y[np.ix_(j[lo : lo + step], cols)]  # a flat index would double the chunk
        t *= v[lo : lo + step, None]
        t %= p
        starts = np.r_[0, (seg[1:] != seg[:-1]).nonzero()[0] + 1]
        ix = np.ix_(seg[starts], cols)
        x[ix] = (x[ix] - np.add.reduceat(t, starts)) % p


def _block(x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """x[np.ix_(rows, cols)] by one flat take, several times faster than
    numpy's 2-d fancy indexing; its index is as large as the block."""
    return x.take(rows[:, None] * x.shape[1] + cols)


def _inverses(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p, the inverses of an int64 array with entries in [1, p),
    by repeated squaring on the whole array.  Every product is of two
    entries in [0, p), below (p-1)^2 < 2^62 for p < 2^31: exact in int64."""
    out = np.ones_like(x)
    base = x.copy()
    e = p - 2
    while e:
        if e & 1:
            out *= base
            out %= p
        e >>= 1
        if e:
            base *= base
            base %= p
    return out


def _levels(dep: np.ndarray):
    """Yield the rows of a dependency DAG level by level.

    ``dep[i, j]`` says row i needs row j first.  Level 0 needs nothing; a
    row comes one level after the last row it needs.
    """
    waiting = dep.sum(axis=1)
    level = (waiting == 0).nonzero()[0]
    while level.size:
        yield level
        waiting[level] = -1
        waiting -= dep[:, level].sum(axis=1)
        level = (waiting == 0).nonzero()[0]


def _structural_stage(a: np.ndarray, p: int) -> tuple[np.ndarray, ...]:
    """Split off the structural pivots of ``a`` (int64, entries in [0, p)).

    A row's lead is its first nonzero column; the first row to lead a column
    is that column's structural row.  Returns (L, N, B, C): the lead
    columns, the other columns, the structural rows reduced to [I | B] on
    (L, N), and the Schur complement C on N of the other nonzero rows,
    without its zero rows.  Unless the split pays (see
    ``_PIVOTS_PER_LEVEL``; the levels are counted only that far), it is the
    degenerate one: L and B are empty, N is every column and C is the
    nonzero rows of ``a``, for the dense core.
    """
    m, n = a.shape
    nz = a != 0
    lead = nz.argmax(axis=1)
    live = nz[np.arange(m), lead].nonzero()[0]
    first = np.full(n, m)  # first row to lead each column; m if none does
    np.minimum.at(first, lead[live], live)
    lcols = (first < m).nonzero()[0]
    srows = first[lcols]
    # Structural row i needs row j when it is nonzero at j's lead, which lies
    # right of its own: the block on L is triangular, solved level by level
    # with one product each.
    most = lcols.size // _PIVOTS_PER_LEVEL - 2  # levels of a split that pays
    levels = []
    if most > 0:
        dep = nz[srows][:, lcols]
        diag = np.arange(lcols.size)
        dep[diag, diag] = False
        for rows in _levels(dep):
            levels.append(rows)
            if len(levels) > most:
                break
    if not 0 < len(levels) <= most:
        c = a if live.size == m else a[live]
        return lcols[:0], np.arange(n), np.zeros((0, n), dtype=np.int64), c
    ncols = (first == m).nonzero()[0]
    rest = live[first[lead[live]] != live]
    # Not a row-then-column gather: the rows of a tall matrix's complement
    # can be most of it, and their full rows would be one more large block.
    ri, rj = np.nonzero(nz[np.ix_(rest, lcols)])
    del nz
    inv = _inverses(a[srows, lcols], p)
    b = _block(a, srows, ncols)
    for depth, rows in enumerate(levels):
        br = b[rows]
        if depth:
            ti, tj = np.nonzero(dep[rows])
            _sub_entries(br, ti, tj, a[srows[rows[ti]], lcols[tj]], b, p)
        b[rows] = br * inv[rows, None] % p
    c = a[np.ix_(rest, ncols)]  # as large as the complement: no flat index
    _sub_entries(c, ri, rj, a[rest[ri], lcols[rj]], b, p)
    return lcols, ncols, b, c[c.any(axis=1)]


def _fp_rank(arr: np.ndarray, p: int) -> int:
    if arr.size <= _SCALAR_ENTRIES:
        return _scalar_rank(arr, p)
    lcols, _, _, c = _structural_stage(arr, p)
    if lcols.size:
        return lcols.size + _fp_rank(c, p)
    return _dense_rank(c, p)


def _fp_rref(arr: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p, its rank rows only: unit pivots,
    zeros above and below."""
    # Recursion goes through _rref, so that a wrapper around this name sees
    # one call per elimination.
    return _rref(arr, p)


def _rref(arr: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """``_fp_rref``, splitting structural rounds off until one does not pay.

    Every lead column of the structural stage is a pivot column, and the
    RREF is unique, so reducing the Schur complement and then clearing the
    structural rows at its pivot columns gives the same rows as eliminating
    the whole matrix.
    """
    n = arr.shape[1]
    if arr.size <= _SCALAR_ENTRIES:
        return _scalar_rref(arr, p)
    lcols, ncols, b, c = _structural_stage(arr, p)
    if not lcols.size:
        return _dense_rref(c, p)
    red, cpiv = _rref(c, p)
    del c
    # Structural rows: [I | B] minus B's entries at the complement's pivot
    # columns times the complement's rows.
    free = np.delete(np.arange(ncols.size), cpiv)
    b_free = b[:, free]
    f = b[:, cpiv]
    fi, fj = np.nonzero(f)
    _sub_entries(b_free, fi, fj, f[fi, fj], red[:, free], p)
    # Rows go in pivot order: merge the two increasing pivot lists.
    ccols = ncols[cpiv]
    at_l = np.arange(lcols.size) + np.searchsorted(ccols, lcols)
    at_c = np.arange(ccols.size) + np.searchsorted(lcols, ccols)
    pivots = np.empty(lcols.size + ccols.size, dtype=np.intp)
    pivots[at_l], pivots[at_c] = lcols, ccols
    out = np.zeros((pivots.size, n), dtype=np.int64)
    out[at_l, lcols] = 1
    out[np.ix_(at_l, ncols[free])] = b_free
    out[np.ix_(at_c, ncols)] = red
    return out, pivots.tolist()


# ---------------------------------------------------------------------------
# scalar elimination (Python ints mod p, or Fractions)
# ---------------------------------------------------------------------------


def _scalar_echelon(rows: list[list], n: int, p: int | None, reduced: bool) -> list[int]:
    """Gauss(-Jordan) elimination in place on ``rows``, lists of n Python
    scalars: ints in [0, p), or Fractions when ``p`` is None.  Returns the
    pivot columns.

    Afterwards rows 0..r-1 have unit pivots at the returned columns and the
    rows below are zero.  Each pivot clears its column from the rows below
    it, and also from the rows above it when ``reduced``, which leaves the
    RREF.  A row update loops only over the pivot row's nonzero entries,
    which lie at or right of the pivot.
    """
    m = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        for k in range(r, m):
            if rows[k][c]:
                break
        else:
            continue
        row = rows[k]
        rows[k], rows[r] = rows[r], row
        if p:
            inv = pow(row[c], -1, p)
            terms = [(j, x * inv % p) for j, x in enumerate(row[c:], c) if x]
        else:
            inv = 1 / row[c]
            terms = [(j, x * inv) for j, x in enumerate(row[c:], c) if x]
        for j, x in terms:
            row[j] = x
        for i in range(0 if reduced else r + 1, m):
            other = rows[i]
            f = other[c]
            if f and i != r:
                if p:
                    for j, x in terms:
                        other[j] = (other[j] - f * x) % p
                else:
                    for j, x in terms:
                        other[j] -= f * x
        pivots.append(c)
        r += 1
    return pivots


def _scalar_rank(arr: np.ndarray, p: int | None) -> int:
    """Rank of an int64 array mod p, or of Fractions when ``p`` is None:
    forward elimination of its shorter side."""
    work = arr.T if arr.shape[0] > arr.shape[1] else arr
    return len(_scalar_echelon(work.tolist(), work.shape[1], p, False))


def _scalar_rref(arr: np.ndarray, p: int | None) -> tuple[np.ndarray, list[int]]:
    """``_fp_rref`` on Python scalars, or the RREF over Q when ``p`` is None;
    the rows keep the input's dtype."""
    rows = arr.tolist()
    pivots = _scalar_echelon(rows, arr.shape[1], p, True)
    r = len(pivots)
    return np.array(rows[:r], dtype=arr.dtype).reshape(r, arr.shape[1]), pivots


# ---------------------------------------------------------------------------
# rational products (Fraction / bigint)
# ---------------------------------------------------------------------------


def _q_integral(a: np.ndarray) -> tuple[np.ndarray, int]:
    """An object array of Fractions as integers times 1/den, den the lcm of
    its denominators."""
    den = lcm(*(x.denominator for x in a.flat))
    return np.array([x.numerator * (den // x.denominator) for x in a.flat], dtype=object).reshape(a.shape), den


def _q_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over Q through integers: the inner sums add Python ints, and
    each entry is divided once by the product of the two scales."""
    (x, dx), (y, dy) = _q_integral(a), _q_integral(b)
    den = dx * dy
    return np.array([Fraction(v, den) for v in (x @ y).flat], dtype=object).reshape(a.shape[0], b.shape[1])


# ---------------------------------------------------------------------------
# Matrix
# ---------------------------------------------------------------------------


def _zeros(field: FieldSpec, shape: tuple[int, int]) -> np.ndarray:
    """Zero array of ``field``: int64 over F_p, Fraction(0) objects over Q."""
    if field.is_prime_field:
        return np.zeros(shape, dtype=np.int64)
    return np.full(shape, Fraction(0), dtype=object)


class Matrix:
    """Immutable exact matrix over a FieldSpec.

    The data is one read-only 2-d numpy array: int64 with entries in [0, p)
    over F_p, ``dtype=object`` holding Fractions over Q.  Selection,
    stacking, reshaping and comparison are the same numpy operations over
    both fields.  Only these look at the field: ``_reduced`` (the
    mod-p reduction after +, -, negation and scaling),
    ``_zeros``, the product (``_fp_matmul`` or ``_q_matmul``) and
    elimination (the F_p kernels, or ``_scalar_echelon`` over Q);
    ``array`` and ``from_array`` exist over F_p only.  Elimination is
    deterministic (first nonzero pivot), so rref, pivot columns, and kernel
    bases are canonical for given input.  Classes modulo a row space, gathered or
    scattered, belong to ``QuotientMap``.
    """

    __slots__ = ("field", "_a")

    def __init__(self, field: FieldSpec, arr: np.ndarray):
        arr.flags.writeable = False
        self.field = field
        self._a = arr

    @staticmethod
    def _reduced(field: FieldSpec, arr: np.ndarray) -> "Matrix":
        """Wrap a fresh array, reducing it into [0, p) in place over F_p."""
        if field.is_prime_field:
            np.remainder(arr, field.modulus, out=arr)
        return Matrix(field, arr)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(field: FieldSpec, rows: Sequence[Sequence[Scalar]], cols: int | None = None) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else (cols if cols is not None else 0)
        if any(len(r) != ncols for r in rows):
            raise PreconditionError("ragged rows")
        arr = _zeros(field, (nrows, ncols))
        for i, row in enumerate(rows):
            arr[i] = [field.coerce(x) for x in row]
        return Matrix(field, arr)

    @staticmethod
    def from_array(field: FieldSpec, arr: np.ndarray) -> "Matrix":
        if not field.is_prime_field:
            raise PreconditionError("from_array requires a prime field")
        a = np.asarray(arr, dtype=np.int64) % field.modulus
        if a.ndim != 2:
            raise PreconditionError("expected a 2-d array")
        return Matrix(field, a)

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix(field, _zeros(field, (rows, cols)))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        arr = _zeros(field, (n, n))
        np.fill_diagonal(arr, field.one())
        return Matrix(field, arr)

    # -- basic accessors ----------------------------------------------------

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def array(self) -> np.ndarray:
        """Read-only int64 view (prime fields only)."""
        if not self.field.is_prime_field:
            raise PreconditionError("no array form over the rationals")
        return self._a

    # ``tolist`` and ``item`` give Python ints from int64 and the Fractions
    # themselves from an object array.
    def entry(self, i: int, j: int) -> Scalar:
        return self._a.item(i, j)

    def row(self, i: int) -> list[Scalar]:
        return self._a[i].tolist()

    def to_rows(self) -> list[list[Scalar]]:
        return self._a.tolist()

    def flatten(self) -> list[Scalar]:
        """Entries in row-major order."""
        return self._a.ravel().tolist()

    def row_select(self, indices: Sequence[int]) -> "Matrix":
        # Fancy indexing already returns a fresh array.
        return Matrix(self.field, self._a[np.asarray(indices, dtype=np.intp)])

    def col_select(self, indices: Sequence[int]) -> "Matrix":
        return Matrix(self.field, self._a[:, np.asarray(indices, dtype=np.intp)])

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The same entries, read in row-major order, regrouped into rows x cols."""
        if rows < 0 or cols < 0 or rows * cols != self.rows * self.cols:
            raise PreconditionError(f"cannot reshape {self.rows}x{self.cols} into {rows}x{cols}")
        return Matrix(self.field, self._a.reshape(rows, cols))

    # -- arithmetic ----------------------------------------------------------

    def _check_same_field(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise PreconditionError("field mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise PreconditionError("shape mismatch in addition")
        return Matrix._reduced(self.field, self._a + other._a)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise PreconditionError("shape mismatch in subtraction")
        return Matrix._reduced(self.field, self._a - other._a)

    def __neg__(self) -> "Matrix":
        return Matrix._reduced(self.field, -self._a)

    def scale(self, c: Scalar) -> "Matrix":
        c = self.field.coerce(c)
        if c == self.field.one():
            return self  # immutable, so sharing is safe
        return Matrix._reduced(self.field, self._a * c)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise PreconditionError(
                f"inner dimensions differ: {self.shape} @ {other.shape}"
            )
        if self.field.is_prime_field:
            return Matrix(self.field, _fp_matmul(self._a, other._a, self.field.modulus))
        if self.cols == 0:  # no products to sum
            return Matrix.zeros(self.field, self.rows, other.cols)
        return Matrix(self.field, _q_matmul(self._a, other._a))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, np.ascontiguousarray(self._a.T))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.shape == other.shape and bool(np.array_equal(self._a, other._a))

    __hash__ = None  # matrices are compared by value, not hashed

    def is_zero(self) -> bool:
        return not self._a.any()

    def differing_columns(self, other: "Matrix") -> np.ndarray:
        """Boolean array: whether each column differs from that of ``other``."""
        self._check_same_field(other)
        if self.shape != other.shape:
            raise PreconditionError("shape mismatch in comparison")
        return (self._a != other._a).any(axis=0)

    def __repr__(self) -> str:
        return f"Matrix({self.field.kind}, {self.rows}x{self.cols})"

    # -- elimination ----------------------------------------------------------

    def rank(self) -> int:
        if self.field.is_prime_field:
            return _fp_rank(self._a, self.field.modulus)
        return _scalar_rank(self._a, None)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form without its zero rows, and its pivot
        columns: row i has its leading 1 at pivots[i]."""
        if self.field.is_prime_field:
            r, pivots = _fp_rref(self._a, self.field.modulus)
        else:
            r, pivots = _scalar_rref(self._a, None)
        return Matrix(self.field, r), tuple(pivots)

    def kernel_basis(self) -> "Matrix":
        """Matrix whose columns span the right kernel; cols == cols - rank.

        Its transpose is the quotient map onto F^cols / rowspace in the
        coordinates of the non-pivot columns (``QuotientMap``).
        """
        r, pivots = self.rref()
        return QuotientMap.of_rref(self.field, self.cols, pivots, r).classes(range(self.cols)).transpose()

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
        return Matrix(field, np.concatenate([m._a for m in mats], axis=0))

    @staticmethod
    def hstack(mats: Sequence["Matrix"]) -> "Matrix":
        if not mats:
            raise PreconditionError("hstack of nothing")
        field = mats[0].field
        rows = mats[0].rows
        if any(m.field != field or m.rows != rows for m in mats):
            raise PreconditionError("hstack requires equal fields and heights")
        return Matrix(field, np.concatenate([m._a for m in mats], axis=1))


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


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
    return Matrix(field, arr)


@dataclass(frozen=True)
class Subspace:
    """A subspace of row vectors in canonical (RREF-basis) form.

    Equality of subspaces is equality of the canonical bases, so two spans
    agree iff the objects compare equal.
    """

    field: FieldSpec
    ambient_dimension: int
    basis: Matrix  # dim x ambient, in RREF with no zero rows
    pivots: tuple[int, ...]  # pivot column of each basis row, increasing

    @staticmethod
    def from_rows(field: FieldSpec, rows, ambient_dimension: int | None = None) -> "Subspace":
        """Span of ``rows``: a Matrix, or a list of rows of ``ambient_dimension``
        entries (needed only when the list is empty)."""
        mat = rows if isinstance(rows, Matrix) else Matrix.from_rows(field, rows, cols=ambient_dimension)
        r, pivots = mat.rref()
        return Subspace(field, mat.cols, r, pivots)

    @property
    def dim(self) -> int:
        return self.basis.rows


class QuotientMap:
    """F^n -> F^n / rowspace(R) for the rank rows R of an RREF, in the
    coordinates of the non-pivot columns ``free`` (increasing, read-only).

    The class of e_j is column ``_at[j]`` of [I | ``_reduced``], I the
    dim x dim identity, which is never built, and zero where ``_at[j]`` is
    -1: a free column's class is its unit vector, and the k-th pivot's is
    minus row k of R at the free columns, or zero when R is None (unit
    rows).  Only the four readers ``classes``, ``entries``, ``scatter`` and
    ``nonzero`` look at that encoding.
    """

    __slots__ = ("field", "dim", "free", "_at", "_reduced")

    def __init__(self, field: FieldSpec, free: np.ndarray, at: np.ndarray, reduced: np.ndarray):
        for arr in (free, at, reduced):
            arr.flags.writeable = False
        self.field = field
        self.dim = free.size
        self.free = free
        self._at = at
        self._reduced = reduced

    @staticmethod
    def of_rref(field: FieldSpec, n: int, pivots: Sequence[int], rref: Matrix | None) -> "QuotientMap":
        """The quotient by the rows ``rref`` with these pivot columns, or by
        the unit rows at ``pivots`` when ``rref`` is None."""
        pivots = np.asarray(pivots, dtype=np.intp)
        free = np.delete(np.arange(n), pivots)
        at = np.full(n, -1, dtype=np.intp)
        at[free] = np.arange(free.size)
        if rref is None:
            return QuotientMap(field, free, at, _zeros(field, (free.size, 0)))
        at[pivots] = free.size + np.arange(pivots.size)
        return QuotientMap(field, free, at, (-rref.col_select(free)).transpose()._a)

    def classes(self, cols) -> Matrix:
        """dim x len(cols): column c is the class of e_{cols[c]}."""
        at = self._at[np.asarray(cols, dtype=np.intp)]
        out = _zeros(self.field, (self.dim, at.size))
        right = (at >= self.dim).nonzero()[0]
        out[:, right] = self._reduced[:, at[right] - self.dim]
        unit = ((0 <= at) & (at < self.dim)).nonzero()[0]
        out[at[unit], unit] = self.field.one()
        return Matrix(self.field, out)

    def entries(self, cols) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero entries of ``classes(cols)`` as (row, column, value)
        arrays, without building it: unit classes first, then the pivot
        classes' entries in row-major order."""
        at = self._at[np.asarray(cols, dtype=np.intp)]
        unit = ((0 <= at) & (at < self.dim)).nonzero()[0]
        right = (at >= self.dim).nonzero()[0]
        block = self._reduced[:, at[right] - self.dim]
        r, c = (block != 0).nonzero()
        ones = np.full(unit.size, self.field.one(), dtype=self._reduced.dtype)
        return np.concatenate([at[unit], r]), np.concatenate([unit, right[c]]), np.concatenate([ones, block[r, c]])

    def scatter(self, width: int, cols, targets, coeffs: np.ndarray) -> Matrix:
        """dim x width: column u is the sum of coeffs[t] times the class of
        e_{cols[t]} over the triplets t with targets[t] == u.  ``coeffs``
        holds field elements: int64 in [0, p), or Fractions.

        Only the triplets with a nonzero coefficient and class are
        scattered: a unit class adds its coefficient to one entry, a pivot
        class a column of ``_reduced`` times its coefficient.  Every term is
        reduced mod p before the sums, so int64 holds any sum of fewer than
        2^62 / p terms, and afterwards only the entries hit are reduced.
        """
        at = self._at[np.asarray(cols, dtype=np.intp)]
        live = (at >= 0) & (coeffs != 0)
        at, u, c = at[live], np.asarray(targets, dtype=np.intp)[live], coeffs[live]
        hit, vals = at * width + u, c
        if self._reduced.shape[1]:  # pivot classes live in _reduced
            right = at >= self.dim
            terms = self._reduced[:, at[right] - self.dim] * c[right]
            if self.field.is_prime_field:
                terms %= self.field.modulus
            hit = np.concatenate([hit[~right], (np.arange(self.dim)[:, None] * width + u[right]).ravel()])
            vals = np.concatenate([c[~right], terms.ravel()])
        out = _zeros(self.field, (self.dim, width))
        flat = out.reshape(-1)
        np.add.at(flat, hit, vals)
        if self.field.is_prime_field:
            flat[hit] %= self.field.modulus
        return Matrix(self.field, out)

    def nonzero(self, cols) -> np.ndarray:
        """Boolean array shaped like ``cols``: whether e_j has a nonzero class."""
        # Unit classes, then the reduced columns, then False for index -1.
        hit = np.concatenate([np.ones(self.dim, dtype=bool), (self._reduced != 0).any(axis=0), [False]])
        return hit[self._at[np.asarray(cols, dtype=np.intp)]]


def standard_complement(space: Subspace) -> Subspace:
    """Coordinate complement spanned by the non-pivot unit vectors."""
    n = space.ambient_dimension
    free = np.delete(np.arange(n), np.asarray(space.pivots, dtype=np.intp))
    # Unit rows in increasing column order are already in RREF.
    units = _zeros(space.field, (free.size, n))
    units[np.arange(free.size), free] = space.field.one()
    return Subspace(space.field, n, Matrix(space.field, units), tuple(free.tolist()))
