import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fpuniform import linalg


def _random_matrix(draw, data, p, max_dim=3):
    rows = data.draw(st.integers(1, max_dim))
    cols = data.draw(st.integers(1, max_dim))
    entries = data.draw(
        st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols)
    )
    return np.array(entries, dtype=np.int64).reshape(rows, cols)


def _brute_rank(mat, p):
    """Oracle: dimension of the row span by enumerating all combinations."""
    rows = [tuple(r % p) for r in np.asarray(mat, dtype=np.int64)]
    span = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        v = np.zeros(len(rows[0]), dtype=np.int64)
        for c, r in zip(coeffs, rows):
            v = (v + c * np.array(r)) % p
        span.add(tuple(int(x) for x in v))
    size = len(span)
    d = 0
    while p**d < size:
        d += 1
    assert p**d == size, "span size must be a power of p"
    return d


@given(st.sampled_from([2, 3]), st.data())
@settings(max_examples=150, deadline=None)
def test_rank_matches_brute_force(p, data):
    m = _random_matrix(draw=None, data=data, p=p)
    assert linalg.rank(m, p) == _brute_rank(m, p)


@given(st.sampled_from([2, 3, 5]), st.data())
@settings(max_examples=150, deadline=None)
def test_solve_produces_valid_solution(p, data):
    a = _random_matrix(draw=None, data=data, p=p)
    x_true = np.array(
        data.draw(
            st.lists(st.integers(0, p - 1), min_size=a.shape[1], max_size=a.shape[1])
        ),
        dtype=np.int64,
    )
    b = (a @ x_true) % p
    x = linalg.solve(a, b, p)
    assert x is not None
    assert np.array_equal((a @ x) % p, b)


def test_solve_inconsistent_returns_none():
    a = [[1, 0], [1, 0]]
    assert linalg.solve(a, [0, 1], 2) is None


@given(st.sampled_from([2, 3]), st.data())
@settings(max_examples=100, deadline=None)
def test_nullspace_annihilates_and_has_right_dim(p, data):
    a = _random_matrix(draw=None, data=data, p=p)
    ns = linalg.nullspace(a, p)
    assert ns.shape[0] == a.shape[1] - linalg.rank(a, p)
    for row in ns:
        assert not np.any((a @ row) % p)
    if ns.shape[0]:
        assert linalg.rank(ns, p) == ns.shape[0]


@given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_inverse_round_trip(p, n, data):
    entries = data.draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
    m = np.array(entries, dtype=np.int64).reshape(n, n)
    inv = linalg.inverse(m, p)
    if linalg.rank(m, p) < n:
        assert inv is None
    else:
        assert np.array_equal((m @ inv) % p, np.eye(n, dtype=np.int64))


def test_row_reduce_deterministic_pivots():
    m = [[0, 2, 1], [1, 1, 0], [1, 0, 2]]
    red1, piv1 = linalg.row_reduce(m, 3)
    red2, piv2 = linalg.row_reduce(m, 3)
    assert piv1 == piv2
    assert np.array_equal(red1, red2)


def test_in_span_basic():
    rows = [[1, 0, 1], [0, 1, 1]]
    assert linalg.in_span(rows, [1, 1, 0], 2)
    assert not linalg.in_span(rows, [0, 0, 1], 2)
    assert linalg.in_span(np.zeros((0, 3)), [0, 0, 0], 2)
    assert not linalg.in_span(np.zeros((0, 3)), [1, 0, 0], 2)


def test_span_coordinates_prefers_earlier_rows():
    rows = [[1, 1], [2, 2], [0, 1]]
    basis_idx, C = linalg.span_coordinates(rows, 3)
    assert basis_idx == [0, 2]
    assert C.tolist() == [[1, 0], [2, 0], [0, 1]]


@given(st.sampled_from([2, 3]), st.data())
@settings(max_examples=100, deadline=None)
def test_span_coordinates_reconstruct(p, data):
    m = _random_matrix(draw=None, data=data, p=p)
    basis_idx, C = linalg.span_coordinates(m, p)
    basis = m[basis_idx]
    # greedy: a row joins the basis exactly when it raises the rank so far
    ranks = [0] + [_brute_rank(m[: i + 1], p) for i in range(len(m))]
    greedy = [i for i in range(len(m)) if ranks[i + 1] > ranks[i]]
    assert basis_idx == greedy
    assert C.shape == (len(m), len(basis_idx))
    assert np.array_equal((C @ basis) % p, m % p)


def test_extend_to_basis():
    rows = np.array([[1, 1, 0]], dtype=np.int64)
    full = linalg.extend_to_basis(rows, 2, 3)
    assert full.shape == (3, 3)
    assert linalg.rank(full, 2) == 3
    assert np.array_equal(full[0], rows[0])
