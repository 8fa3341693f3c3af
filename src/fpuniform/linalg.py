"""Gaussian elimination and friends over GF(p).

Matrices are numpy integer arrays with entries reduced mod p.  Pivoting is
deterministic (first nonzero row in column order), so reduced forms, solution
vectors, and basis choices are reproducible — several callers freeze them as
witnesses.
"""

from __future__ import annotations

import numpy as np


def _as_mat(mat, p: int) -> np.ndarray:
    m = np.atleast_2d(np.asarray(mat, dtype=np.int64)) % p
    return m


def row_reduce(mat, p: int):
    """Return (rref, pivot_columns) of ``mat`` over F_p."""
    m = _as_mat(mat, p).copy()
    n_rows, n_cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = (m[r] * inv) % p
        col = m[:, c].copy()
        col[r] = 0
        m = (m - np.outer(col, m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(mat, p: int) -> int:
    return len(row_reduce(mat, p)[1])


def solve(a, b, p: int):
    """One solution x of a @ x = b over F_p, or None if inconsistent."""
    a = _as_mat(a, p)
    b = np.asarray(b, dtype=np.int64).reshape(-1) % p
    if a.shape[0] != b.shape[0]:
        raise ValueError("incompatible shapes")
    aug = np.hstack([a, b[:, None]])
    red, pivots = row_reduce(aug, p)
    if a.shape[1] in pivots:
        return None
    x = np.zeros(a.shape[1], dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = red[i, -1]
    return x


def nullspace(mat, p: int) -> np.ndarray:
    """Row basis of {x : mat @ x = 0}; shape (dim, n_cols)."""
    m = _as_mat(mat, p)
    red, pivots = row_reduce(m, p)
    n_cols = m.shape[1]
    free = [c for c in range(n_cols) if c not in pivots]
    basis = np.zeros((len(free), n_cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-red[i, fc]) % p
    return basis


def inverse(mat, p: int):
    """Matrix inverse over F_p, or None when singular."""
    m = _as_mat(mat, p)
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValueError("inverse needs a square matrix")
    aug = np.hstack([m, np.eye(n, dtype=np.int64)])
    red, pivots = row_reduce(aug, p)
    if pivots != list(range(n)):
        return None
    return red[:, n:]


def in_span(rows, v, p: int) -> bool:
    """Is v in the row span of ``rows``?"""
    rows = _as_mat(rows, p)
    if rows.size == 0:
        return not np.any(np.asarray(v, dtype=np.int64) % p)
    return solve(rows.T, v, p) is not None


def spans_intersect_trivially(rows_a, rows_b, p: int) -> bool:
    """True iff span(rows_a) ∩ span(rows_b) = {0}."""
    a = _as_mat(rows_a, p)
    b = _as_mat(rows_b, p)
    if a.size == 0 or b.size == 0:
        return True
    ra = rank(a, p)
    rb = rank(b, p)
    return rank(np.vstack([a, b]), p) == ra + rb


def span_coordinates(rows, p: int) -> tuple[list[int], np.ndarray]:
    """Greedy basis of the row span and every row's coordinates in it.

    Returns (basis_idx, C): basis_idx lists the first maximal independent
    subset of ``rows`` in order, and C (m x r) satisfies C @ rows[basis_idx]
    = rows.  One reduction of rows.T gives both: its pivot columns are the
    greedy basis and its reduced columns are the coordinates.
    """
    red, pivots = row_reduce(_as_mat(rows, p).T, p)
    return pivots, np.ascontiguousarray(red[: len(pivots)].T)


def extend_to_basis(rows, p: int, dim: int) -> np.ndarray:
    """Extend independent ``rows`` to a basis of F_p^dim with standard vectors.

    Rows must be independent already; the completion is greedy over e_1..e_dim,
    hence deterministic.
    """
    rows = _as_mat(rows, p) if np.size(rows) else np.zeros((0, dim), dtype=np.int64)
    out = rows.copy()
    r = rank(out, p) if out.size else 0
    if r != out.shape[0]:
        raise ValueError("extend_to_basis expects independent rows")
    for i in range(dim):
        if out.shape[0] == dim:
            break
        e = np.zeros((1, dim), dtype=np.int64)
        e[0, i] = 1
        cand = np.vstack([out, e])
        if rank(cand, p) == out.shape[0] + 1:
            out = cand
    return out
