import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpuniform import field, linalg
from fpuniform.errors import BudgetExceededError, ValidationError
from fpuniform.tables import FunctionTable


@pytest.mark.parametrize("base, width", [(2, 0), (2, 5), (3, 3), (5, 2)])
def test_digits_match_product(base, width):
    # digit tuples in itertools.product order, most significant first along a
    # new last axis: for all indices, a block of them, an empty block, a
    # scalar (one coefficient vector) and a 2-D array of indices
    rows = [list(t) for t in itertools.product(range(base), repeat=width)]
    assert field.digits(np.arange(len(rows)), base, width).tolist() == rows
    lo, hi = len(rows) // 3, 2 * len(rows) // 3 + 1
    assert field.digits(np.arange(lo, hi), base, width).tolist() == rows[lo:hi]
    assert field.digits(np.arange(lo, lo), base, width).shape == (0, width)
    assert field.digits(hi - 1, base, width).tolist() == rows[hi - 1]
    grid = np.array([[0, len(rows) - 1, lo], [hi - 1, lo, 0]])
    assert field.digits(grid, base, width).tolist() == [[rows[i] for i in g] for g in grid]


def test_enumerate_order_f2_2():
    assert field.enumerate_vectors(2, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_order_f3_1():
    assert field.enumerate_vectors(3, 1) == [(0,), (1,), (2,)]


def test_enumerate_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        field.enumerate_vectors(2, 30)


def test_enumerate_no_duplicates_exact_count():
    vecs = field.enumerate_vectors(3, 3)
    assert len(vecs) == 27
    assert len(set(vecs)) == 27


def test_prime_validation():
    with pytest.raises(ValidationError):
        field.validate_prime(4)
    with pytest.raises(ValidationError):
        field.validate_prime(1)
    with pytest.raises(ValidationError):
        field.validate_prime(257)  # prime but above the cap
    with pytest.raises(ValidationError, match="cap"):
        field.validate_prime(2**61 - 1)  # the cap answers before minutes of trial division
    assert field.validate_prime(251) == 251


@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=200)
def test_index_vector_round_trip(p, n, raw):
    idx = raw % p**n
    vec = [idx // p ** (n - 1 - i) % p for i in range(n)]  # most significant first
    assert field.index_of(p, vec) == idx
    assert field.digit_table(p, n)[idx].tolist() == vec


@given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.data())
@settings(max_examples=100)
def test_index_add_matches_coordinate_add(p, n, data):
    size = p**n
    i = data.draw(st.integers(0, size - 1))
    j = data.draw(st.integers(0, size - 1))
    vi, vj = field.digit_table(p, n)[[i, j]]
    expect = field.index_of(p, (vi + vj) % p)
    got = field.index_add(p, n, np.array([i]), np.array([j]))[0]
    assert int(got) == expect


@given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.data())
@settings(max_examples=100)
def test_index_scale_matches_coordinate_scale(p, n, data):
    size = p**n
    i = data.draw(st.integers(0, size - 1))
    c = data.draw(st.integers(0, p - 1))
    vi = field.digit_table(p, n)[i]
    expect = field.index_of(p, (c * vi) % p)
    got = next(field.index_combination(p, n, [[c]], [np.array([i])]))[0]
    assert int(got) == expect


@given(st.sampled_from([(2, 3), (3, 2), (5, 2), (251, 1), (3, 5), (3, 6), (5, 3), (5, 4)]),
       st.data())
@settings(max_examples=100)
def test_index_combination_rows_match_coordinate_arithmetic(space, data):
    # at p = 251 a row's coefficients sum far past p; (3, 5) and (5, 3) fill
    # one digit group (5 digits at p = 3, 3 at p = 5), (3, 6) and (5, 4) start
    # a second
    p, n = space
    k = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 4))
    coeffs = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=k, max_size=k),
                                min_size=m, max_size=m))
    Z = np.array(data.draw(st.lists(st.lists(st.integers(0, p**n - 1), min_size=6, max_size=6),
                                    min_size=k, max_size=k)))
    pts = field.digit_table(p, n)
    want = [(np.asarray(row) @ pts[Z].transpose(1, 0, 2)) % p @ field.place_values(p, n)
            for row in coeffs]
    got = list(field.index_combination(p, n, coeffs, Z))
    assert len(got) == m and all(np.array_equal(g, w) for g, w in zip(got, want))


def coordinate_combination(p, n, row, zs):
    """sum_j row[j] * Z_j, digit by digit from the definition of the index:
    the point with index z has coordinates z // p^(n - i) % p, i = 1..n."""
    zs = np.broadcast_arrays(*(np.asarray(z, dtype=object) for z in zs))
    out = np.zeros(zs[0].shape, dtype=object)
    for i in range(1, n + 1):
        digit = sum(c * (z // p ** (n - i) % p) for c, z in zip(row, zs)) % p
        out += digit * p ** (n - i)
    return out.astype(np.int64)


# n = 1; n on and next to a group boundary (groups of 5, 3, 2, 2, 1 and 1
# digits); and the largest prime
@pytest.mark.parametrize("p,n", [
    (3, 1), (3, 4), (3, 5), (3, 6), (5, 1), (5, 2), (5, 3), (5, 4), (7, 1), (7, 2),
    (7, 3), (11, 2), (11, 3), (17, 1), (17, 2), (251, 1), (251, 2),
])
def test_index_combination_matches_digit_arithmetic(p, n):
    # every row of coefficients 0, 1 and p - 1 over three operands: the
    # all-(p - 1) row gives the widest sums.  The operands broadcast as
    # (B, 1) against (S,), and each holds index 0 and N - 1.
    N = p**n
    rng = np.random.default_rng(p * 10 + n)
    a = np.concatenate([[0, N - 1], rng.integers(0, N, size=3)])[:, None]
    b = np.concatenate([[N - 1, 0], rng.integers(0, N, size=6)])
    c = np.concatenate([[N - 1, N - 1], rng.integers(0, N, size=6)])
    rows = list(itertools.product((0, 1, p - 1), repeat=3))
    got = list(field.index_combination(p, n, rows, [a, b, c]))
    assert len(got) == len(rows)
    for row, g in zip(rows, got):
        assert g.shape == (5, 8) and g.dtype == np.int64
        assert np.array_equal(g, coordinate_combination(p, n, row, [a, b, c])), row


@pytest.mark.parametrize("p", [3, 7])
def test_index_combination_forms_each_row_when_asked(p, monkeypatch):
    formed = []
    row = field._group_row

    def counted(*args):
        formed.append(1)
        return row(*args)

    monkeypatch.setattr(field, "_group_row", counted)
    rows = field.index_combination(p, 4, [[1, 1], [1, 2], [2, 0]], [np.arange(5), np.arange(5)])
    assert not formed
    for i in range(3):
        next(rows)
        assert len(formed) == i + 1


def images(a):
    """The index of a(x) at every x: the table of point indices, precomposed
    with the map."""
    return FunctionTable(a.p, a.n, np.arange(a.p**a.n)).apply_affine(a).values.real.astype(int)


def test_apply_map_worked_example():
    a = field.AffineMap(3, 1, [[2]], [1])
    assert images(a).tolist() == [1, 0, 2]  # 2x+1 mod 3 at x = 0, 1, 2


def test_apply_map_identity():
    a = field.AffineMap(5, 3, np.eye(3, dtype=np.int64), [0, 0, 0])
    assert images(a).tolist() == list(range(125))


def test_singular_matrix_rejected():
    with pytest.raises(ValidationError):
        field.AffineMap(2, 2, [[1, 1], [1, 1]], [0, 0])


def test_random_affine_deterministic():
    a = field.random_affine(3, 2, 99)
    b = field.random_affine(3, 2, 99)
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.offset, b.offset)
    c = field.random_affine(3, 2, 100)
    assert not (
        np.array_equal(a.matrix, c.matrix) and np.array_equal(a.offset, c.offset)
    )


def test_random_affine_gl1_f2():
    for seed in range(5):
        a = field.random_affine(2, 1, seed)
        assert a.matrix[0, 0] == 1


def _brute_gl2_f2():
    # independent oracle: 2x2 invertibility over F_2 via the determinant
    mats = []
    for bits in range(16):
        a, b, c, d = (bits >> 3) & 1, (bits >> 2) & 1, (bits >> 1) & 1, bits & 1
        if (a * d - b * c) % 2 == 1:
            mats.append((a, b, c, d))
    return mats


def test_gl2_f2_has_six_elements():
    assert len(_brute_gl2_f2()) == 6


def test_random_affine_uniform_over_gl2_f2():
    # each of the 6 invertible matrices should appear with frequency 1/6 +- 0.02
    counts = {m: 0 for m in _brute_gl2_f2()}
    trials = 10_000
    for seed in range(trials):
        a = field.random_affine(2, 2, seed)
        key = tuple(int(v) for v in a.matrix.reshape(-1))
        counts[key] += 1
    for m, c in counts.items():
        freq = c / trials
        assert abs(freq - 1 / 6) < 0.02, f"matrix {m} frequency {freq}"


@given(st.sampled_from([2, 3]), st.integers(1, 3), st.integers(0, 500))
@settings(max_examples=60)
def test_affine_composition(p, n, seed):
    a = field.random_affine(p, n, seed)
    b = field.random_affine(p, n, seed + 1)
    # x -> a(b(x)) is x -> (Ma Mb) x + (Ma ob + oa), applied to every point
    ab = field.AffineMap(p, n, a.matrix @ b.matrix, a.matrix @ b.offset + a.offset)
    assert np.array_equal(images(ab), images(a)[images(b)])


@given(st.sampled_from([2, 3]), st.integers(1, 3), st.integers(0, 200))
@settings(max_examples=40)
def test_affine_map_is_bijection(p, n, seed):
    a = field.random_affine(p, n, seed)
    assert sorted(images(a).tolist()) == list(range(p**n))


def test_all_invertible_matrices_counts():
    # GL(n, F_p) is the set of independent n-tuples of F_p^n
    def count(p, n, block):
        return sum(V.shape[1] for V in field.independent_tuples(p, n, n, block))

    assert count(2, 2, 5) == 6
    # |GL(2, F_3)| = (9-1)(9-3) = 48
    assert count(3, 2, 7) == 48
    # |GL(3, F_2)| = 168
    assert count(2, 3, 4096) == 168


def test_field_inverses():
    for p in (2, 3, 5, 7, 251):
        for a in range(1, min(p, 40)):
            assert a * pow(a, -1, p) % p == 1


def test_batch_invertible_mask_matches_rank():
    for p in (2, 3, 5):
        rng = np.random.default_rng(100 + p)
        for r, n in ((4, 4), (1, 4), (2, 4), (3, 5), (0, 3)):
            mats = rng.integers(0, p, size=(200, r, n))
            if r > 1:
                mats[:20, -1] = mats[:20, 0]  # a repeated row: dependent
            mask = field._batch_independent_mask(mats, p)
            truth = np.array([linalg.rank(m, p) == r if r else True for m in mats])
            assert np.array_equal(mask, truth)


@pytest.mark.parametrize("p,n,r", [(2, 2, 2), (2, 3, 2), (3, 2, 1), (2, 3, 0)])
def test_random_independent_rows_are_uniform(p, n, r):
    draws = field.random_independent_rows(p, n, r, 5, 6000)
    assert draws.shape == (r, 6000)
    assert draws.dtype == np.int64 and (draws >= 0).all() and (draws < p**n).all()
    tuples = field.digit_table(p, n)[draws].transpose(1, 0, 2)  # (6000, r, n)
    assert all(linalg.rank(m, p) == r for m in tuples[:200] if r)
    keys = np.ravel_multi_index(tuple(draws), (p**n,) * r) if r else np.zeros(6000)
    _, counts = np.unique(keys, return_counts=True)
    # every independent r-tuple appears, each about 6000 / #tuples times
    total = int(np.prod([p**n - p**i for i in range(r)]))
    assert len(counts) == total
    expect = 6000 / total
    assert np.all(np.abs(counts - expect) <= 5 * np.sqrt(expect) + 1)
    with pytest.raises(ValidationError):
        field.random_independent_rows(p, n, n + 1, 5, 10)


def test_random_independent_rows_draw_invertible_matrices():
    idx = field.random_independent_rows(2, 5, 5, 7, 400)
    assert idx.shape == (5, 400)
    mats = field.digit_table(2, 5)[idx].transpose(1, 0, 2)
    assert all(linalg.rank(m, 2) == 5 for m in mats)
    assert np.array_equal(idx, field.random_independent_rows(2, 5, 5, 7, 400))
    with pytest.raises(ValidationError):
        field.random_independent_rows(2, 5, 5, 7, 0)


def test_independence_filter_runs_in_bounded_sub_blocks(monkeypatch):
    # a filter over more candidates than one sub-block keeps exactly the
    # independent columns, in order, eliminating at most one sub-block of
    # _CHUNK // (r n) candidates at once
    seen = []
    mask = field._batch_independent_mask

    def recorded(mats, p):
        seen.append(len(mats))
        return mask(mats, p)

    monkeypatch.setattr(field, "_batch_independent_mask", recorded)
    monkeypatch.setattr(field, "_CHUNK", 1 << 13)
    block = field._CHUNK // (2 * 2)  # r = 2 points of F_3^2
    Z = np.random.default_rng(3).integers(0, 9, size=(2, 3 * block + 5))
    kept = field._independent_columns(Z, 3, 2)
    assert max(seen) == block and sum(seen) == Z.shape[1]
    pts = field.digit_table(3, 2)
    want = [j for j in range(Z.shape[1]) if linalg.rank(pts[Z[:, j]], 3) == 2]
    assert np.array_equal(kept, Z[:, want])


def test_digit_table_cache_evicts_old_entries():
    # the cache keeps a bounded number of tables: the oldest one is rebuilt
    cache = field._digit_table
    cache.cache_clear()
    size = cache.cache_info().maxsize
    assert size is not None and size < 64
    for n in range(1, size + 2):
        field.digit_table(2, n)
    assert cache.cache_info().currsize == size
    misses = cache.cache_info().misses
    field.digit_table(2, size + 1)  # the newest is kept
    assert cache.cache_info().misses == misses
    field.digit_table(2, 1)  # the oldest was evicted
    assert cache.cache_info().misses == misses + 1
