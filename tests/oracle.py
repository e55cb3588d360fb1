"""Naive, independent reference implementations used to cross-check results.

Everything here is deliberately written in plain Python with no shared code
paths with the package under test: scalar Gaussian elimination, direct
polynomial arithmetic on dicts, and brute-force assembly of linear systems.
Slow, but trustworthy on small inputs.
"""

from __future__ import annotations

from fractions import Fraction


def naive_rank_mod(rows, p):
    """Rank of an integer matrix mod p by textbook Gaussian elimination."""
    m = [[x % p for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][c] % p != 0:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][c] % p != 0:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def naive_rref_mod(rows, p):
    """(rref, pivot columns) mod p, textbook version."""
    m = [[x % p for x in row] for row in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv = None
        for i in range(r, nrows):
            if m[i][c] % p != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] % p != 0:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def naive_kernel_mod(rows, p):
    """Right-kernel basis vectors (as lists) of a matrix mod p."""
    if not rows:
        return []
    ncols = len(rows[0])
    r, pivots = naive_rref_mod(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for c in free:
        v = [0] * ncols
        v[c] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-r[i][c]) % p
        basis.append(v)
    return basis


def naive_rref_fraction(rows):
    """(rref, pivot columns) over Q with Fraction arithmetic, textbook version."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def naive_rank_fraction(rows):
    """Rank over Q with Fraction arithmetic."""
    return len(naive_rref_fraction(rows)[1])


def naive_poly_mul(terms_a: dict, terms_b: dict, p: int | None) -> dict:
    """Product of exponent-dict polynomials; coefficients mod p when given."""
    out: dict = {}
    for ea, ca in terms_a.items():
        for eb, cb in terms_b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e, 0) + ca * cb
            if p is not None:
                c %= p
            if c:
                out[e] = c
            elif e in out:
                del out[e]
    return out


def naive_matmul_mod(a, b, p):
    """Plain triple-loop matrix product mod p on lists of lists."""
    n, k = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in range(n)]
    for i in range(n):
        for j in range(cols):
            s = 0
            for t in range(k):
                s += a[i][t] * b[t][j]
            out[i][j] = s % p
    return out
