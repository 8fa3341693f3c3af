"""Points of F_p^n, enumeration order, index arithmetic, affine maps.

A point is identified with its index in lexicographic coordinate order: the
point (x_1, ..., x_n) has index sum x_i * p^(n-i).  All exact expectations in
the package run over this order, so it is part of the file-format contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .config import MAX_PRIME, RETRY_CAP, check_budget
from .errors import RetryLimitError, ValidationError
from .rng import _CHUNK, as_rng

_SMALL_PRIMES = {2, 3, 5, 7}


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p in _SMALL_PRIMES:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def validate_prime(p: int) -> int:
    p = int(p)
    # the cap comes first: trial division of a huge p takes minutes
    if p > MAX_PRIME:
        raise ValidationError(f"p = {p} exceeds the supported cap {MAX_PRIME}")
    if not is_prime(p):
        raise ValidationError(f"p = {p} is not prime")
    return p


def validate_dims(p: int, n: int) -> tuple[int, int]:
    p = validate_prime(p)
    n = int(n)
    if n < 1:
        raise ValidationError(f"dimension {n} must be at least 1")
    return p, n


def int_tuple(values, what: str) -> tuple[int, ...]:
    """The integers of a list; a string is refused, not read digit by digit."""
    values = tuple(values)
    if any(isinstance(v, str) for v in values):
        raise ValidationError(f"{what} must be a list of integers")
    return tuple(int(v) for v in values)


def space_size(p: int, n: int) -> int:
    return p**n


def is_space_size(count: int, p: int, n: int) -> bool:
    """count == p^n, decided without building p^n for a huge n: p^n >= 2^n."""
    return n <= count.bit_length() and count == p**n


@lru_cache(maxsize=64)  # n int64 values each, and n is the dimension of one space
def place_values(p: int, n: int) -> np.ndarray:
    v = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    v.setflags(write=False)
    return v


def digits(idx, base: int, width: int) -> np.ndarray:
    """The `width` base-`base` digits of each index, most significant first,
    along a new last axis: index t of [0, base)^width is its t-th tuple in
    enumeration order (``itertools.product`` order, last digit fastest)."""
    out = np.asarray(idx, dtype=np.int64)[..., None] // place_values(base, width)
    out %= base
    return out


@lru_cache(maxsize=8)  # one (p^n, n) int64 table can take gigabytes
def _digit_table(p: int, n: int) -> np.ndarray:
    out = digits(np.arange(p**n), p, n)
    out.setflags(write=False)
    return out


def digit_table(p: int, n: int, budget: int | None = None) -> np.ndarray:
    """All points of F_p^n as an (p^n, n) array, lexicographic order."""
    p, n = validate_dims(p, n)
    check_budget(space_size(p, n), budget, f"enumeration of F_{p}^{n}")
    return _digit_table(p, n)


def enumerate_vectors(p: int, n: int, budget: int | None = None) -> list[tuple[int, ...]]:
    """Every vector of F_p^n, lexicographically, as tuples."""
    table = digit_table(p, n, budget)
    return [tuple(int(v) for v in row) for row in table]


def index_of(p: int, vec) -> int:
    v = np.asarray(vec, dtype=np.int64) % p
    return int(v @ place_values(p, len(v)))


def index_combination(p: int, n: int, coeffs, Z):
    """Indices of sum_j coeffs[i, j] * Z_j, one array per coefficient row i,
    as an iterator over the rows, each formed when it is asked for: a caller
    that takes the rows one at a time holds one row, not m.

    coeffs is an (m, k) matrix and Z a (k, ...) array, or a sequence of k
    arrays that broadcast together, of point indices of F_p^n; every row has
    their broadcast shape.  At p = 2 a row is the XOR of the Z_j with odd
    coefficient.  Otherwise each Z_j is split once, for all rows, into groups
    of g digits (_group_tables), and a row is formed group by group: each
    term's group is scaled by its coefficient and added to the running sum
    through two small tables, so no digit is extracted and no residue taken.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64) % p
    zs = [np.asarray(z, dtype=np.int64) for z in Z]
    shape = np.broadcast_shapes(*(z.shape for z in zs)) if zs else np.shape(Z)[1:]
    rows = [[(int(c), j) for j, c in enumerate(row) if c] for row in coeffs]
    if p == 2:
        return _xor_rows(rows, zs, shape)
    return _group_rows(p, n, rows, zs, shape)


def _xor_rows(rows, zs: list, shape):
    """The rows of index_combination at p = 2, each formed when asked for."""
    for terms in rows:
        o = np.zeros(shape, dtype=np.int64)
        for _, j in terms:
            o ^= zs[j]
        yield o


# one entry per prime, at most 128 KiB: a 251 x 256 addition table and a
# 251 x 251 scaling table, both uint8
@lru_cache(maxsize=8)
def _group_tables(p: int):
    """(g, add, scale) for groups of g digits of F_p^n, g the largest with
    p^(2g) <= 2^16, so that a group value (below q = p^g) fits a uint8 and a
    pair of them a uint16 key.  add[(a << 8) | b] is the group of the
    digitwise sum of groups a and b, and scale[c, a] the group of c times
    group a, both mod p."""
    g = 1
    while p ** (2 * g + 2) <= 1 << 16:
        g += 1
    q = p**g
    # in int64, narrowed as the last level is stored: 250 + 250 and 250 * 250
    # overflow uint8 and int16
    d = np.arange(p, dtype=np.int64)
    add1, scale1 = (d[:, None] + d) % p, d[:, None] * d % p
    flat = np.zeros((q, 256), dtype=np.uint8)
    add, scale = np.zeros((1, 1), dtype=np.int64), np.zeros((p, 1), dtype=np.int64)
    for h in range(g):  # h digits held, one more below: high * p + low < q
        w = p**h
        # the last level goes straight into flat, through a view
        out = flat.reshape(w, p, 256)[:, :, :q].reshape(w, p, w, p) if h == g - 1 else None
        add = np.add(add[:, None, :, None] * p, add1[None, :, None, :], out=out, casting="unsafe")
        add = add.reshape(w * p, -1)
        scale = (scale[:, :, None] * p + scale1[:, None, :]).reshape(p, -1)
    scale = scale.astype(np.uint8)
    flat = flat.reshape(-1)
    flat.setflags(write=False)
    scale.setflags(write=False)
    return g, flat, scale


def _group_rows(p: int, n: int, rows, zs: list, shape):
    """The rows of index_combination at p > 2, each formed when asked for;
    `rows` lists each row's nonzero (coefficient, variable) terms."""
    g, add, scale = _group_tables(p)
    q = p**g
    groups = [[] for _ in zs]  # groups[j][i]: group i of Z_j, least significant first
    for j, z in enumerate(zs):
        for _ in range(-(-n // g) - 1):
            z, rem = np.divmod(z, q)
            groups[j].append(rem.astype(np.uint8))
        groups[j].append(z.astype(np.uint8))  # the top group: what is left is below q
    for terms in rows:
        yield _group_row(terms, groups, q, add, scale, shape)


def _group_row(terms, groups: list, q: int, add, scale, shape) -> np.ndarray:
    """sum of c * Z_j over a row's terms (c, j): per group, each term's group
    scaled through scale[c] and added into the running sum through add; the
    groups go in from the most significant, as index = index * q + group."""
    o = np.zeros(shape, dtype=np.int64)
    if not terms:
        return o
    for i in reversed(range(len(groups[0]))):
        s = None
        for c, j in terms:
            t = groups[j][i] if c == 1 else scale[c].take(groups[j][i])
            s = t if s is None else add.take(np.left_shift(s, 8, dtype=np.uint16) | t)
        o *= q
        o += s
    return o


def index_add(p: int, n: int, a, b):
    """Indices of x + y given index arrays of x and y (broadcasting)."""
    return next(index_combination(p, n, [[1, 1]], [a, b]))


@dataclass(frozen=True, eq=False)
class AffineMap:
    """x ↦ matrix·x + offset over F_p, with an invertible matrix."""

    p: int
    n: int
    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        p, n = validate_dims(self.p, self.n)
        matrix = np.asarray(self.matrix, dtype=np.int64) % p
        offset = np.asarray(self.offset, dtype=np.int64).reshape(-1) % p
        if matrix.shape != (n, n) or offset.shape != (n,):
            raise ValidationError("affine map shape mismatch")
        if linalg.rank(matrix, p) != n:
            raise ValidationError("affine map matrix is singular")
        matrix.setflags(write=False)
        offset.setflags(write=False)
        for name, value in zip(("p", "n", "matrix", "offset"), (p, n, matrix, offset)):
            object.__setattr__(self, name, value)


def random_affine(p: int, n: int, seed) -> AffineMap:
    """Uniform member of Aff(n, F_p) by rejection on the linear part."""
    p, n = validate_dims(p, n)
    rng = as_rng(seed)
    for _ in range(RETRY_CAP):
        m = rng.integers(0, p, size=(n, n))
        if linalg.rank(m, p) == n:
            offset = rng.integers(0, p, size=n)
            return AffineMap(p, n, m, offset)
    raise RetryLimitError(
        f"no invertible {n}x{n} matrix over F_{p} in {RETRY_CAP} draws"
    )


def _batch_independent_mask(mats: np.ndarray, p: int) -> np.ndarray:
    """Which of the (count, r, n) matrices, r <= n, have independent rows
    over F_p (for r = n: which are invertible).

    Runs one Gaussian elimination on the transposes, column by column, across
    the whole batch at once; dead elements keep eliminating on garbage rows,
    which is harmless.
    """
    B = (np.asarray(mats, dtype=np.int64) % p).transpose(0, 2, 1).copy()
    count, n_rows, r = B.shape
    alive = np.ones(count, dtype=bool)
    inv_table = np.array([0] + [pow(i, p - 2, p) for i in range(1, p)], dtype=np.int64)
    batch = np.arange(count)
    for col in range(r):
        nz = B[:, col:, col] != 0
        found = nz.any(axis=1)
        alive &= found
        piv = np.where(found, nz.argmax(axis=1), 0) + col
        cur = B[batch, col].copy()
        B[batch, col] = B[batch, piv]
        B[batch, piv] = cur
        pv = B[:, col, col].copy()
        pv[pv == 0] = 1
        B[:, col, :] = (B[:, col, :] * inv_table[pv][:, None]) % p
        if col + 1 < n_rows:
            factor = B[:, col + 1 :, col]
            B[:, col + 1 :, :] = (
                B[:, col + 1 :, :] - factor[:, :, None] * B[:, col, :][:, None, :]
            ) % p
    return alive


def _independent_columns(Z: np.ndarray, p: int, n: int) -> np.ndarray:
    """The columns of the (r, count) index array Z whose r points of F_p^n are
    linearly independent, in order; the digits are expanded and eliminated
    one sub-block of _CHUNK // (r n) candidates at a time, so a sub-block's
    (r, size, n) digits hold about _CHUNK values."""
    step = max(1, _CHUNK // max(1, Z.shape[0] * n))
    keep = np.empty(Z.shape[1], dtype=bool)
    for lo in range(0, Z.shape[1], step):
        points = digits(Z[:, lo : lo + step], p, n)  # (r, size, n)
        keep[lo : lo + step] = _batch_independent_mask(points.transpose(1, 0, 2), p)
    return Z[:, keep]


def random_independent_rows(p: int, n: int, r: int, seed, count: int) -> np.ndarray:
    """`count` uniform linearly independent r-tuples of F_p^n as an (r, count)
    array of point indices, drawn by batched rejection: r uniform indices per
    candidate, of which the independent tuples are kept."""
    p, n = validate_dims(p, n)
    if not 0 <= r <= n:
        raise ValidationError(f"no independent {r}-tuple exists in F_{p}^{n}")
    if count < 1:
        raise ValidationError("need count >= 1")
    rng = as_rng(seed)
    # a uniform r-tuple is independent with probability prod_i (1 - p^(i-n)) > 0.288
    accept = float(np.prod([1.0 - float(p) ** (i - n) for i in range(r)]))
    out = np.empty((r, count), dtype=np.int64)
    filled = 0
    for _ in range(RETRY_CAP):
        if filled == count:
            break
        need = count - filled
        good = _independent_columns(
            rng.integers(0, space_size(p, n), size=(r, int(need / accept) + 8)), p, n
        )
        take = min(good.shape[1], need)
        out[:, filled : filled + take] = good[:, :take]
        filled += take
    if filled < count:
        raise RetryLimitError(f"could not draw {count} independent {r}-tuples in F_{p}^{n}")
    return out


def independent_tuples(p: int, n: int, r: int, block: int):
    """Every linearly independent r-tuple of F_p^n, in enumeration order of
    [0, p^n)^r, yielded as (r, count) index arrays: the independent members
    of each run of `block` candidate tuples, the first member fastest."""
    p, n = validate_dims(p, n)
    N = space_size(p, n)
    for lo in range(0, N**r, block):
        Z = digits(np.arange(lo, min(lo + block, N**r)), N, r).T[::-1]
        yield _independent_columns(Z, p, n)
