"""Systems of linear forms on F_p^k and their combinatorial invariants.

A system is a tuple of distinct nonzero forms (integer row vectors mod p).
A flagged system carries a distinguished form — the flag — used for
conditional averages, plus a multiplicity per form so that products of
flagged systems (where distinct forms can collide) stay well defined.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .config import budget, charge, check
from .errors import BudgetExceededError, FormatError, ValidationError, parse_at
from .field import int_tuple, validate_dims, validate_prime
from .linalg import (
    extend_to_basis,
    inverse,
    rank as mat_rank,
    nullspace,
    span_coordinates,
)

Form = tuple[int, ...]


def _normalize_form(form, p: int, k: int) -> Form:
    out = tuple(v % p for v in int_tuple(form, "a form"))
    if len(out) != k:
        raise ValidationError(f"form {form} has arity {len(out)}, expected {k}")
    return out


@dataclass(frozen=True)
class LinearSystem:
    """Distinct nonzero linear forms L_1, ..., L_m on F_p^k."""

    p: int
    k: int
    forms: tuple[Form, ...]

    def __post_init__(self):
        p, k = validate_dims(self.p, self.k)
        clean = tuple(_normalize_form(f, p, k) for f in self.forms)
        if not clean:
            raise ValidationError("need at least one form")
        for f in clean:
            if not any(f):
                raise ValidationError("zero form not allowed")
        if len(set(clean)) != len(clean):
            raise ValidationError("forms must be distinct")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "forms", clean)

    @property
    def m(self) -> int:
        return len(self.forms)

    def as_array(self) -> np.ndarray:
        return np.array(self.forms, dtype=np.int64)

    def span_rank(self) -> int:
        return mat_rank(self.as_array(), self.p)

    def subsystem(self, indices) -> "LinearSystem":
        return LinearSystem(self.p, self.k, [self.forms[i] for i in indices])

    def degrees(self) -> tuple[int, ...]:
        sums = _pair_sums(self)
        return tuple(sums[f] for f in self.forms)

    def to_json_dict(self) -> dict:
        return {
            "schema": "fpuniform/v1",
            "kind": "linear-system",
            "p": self.p,
            "k": self.k,
            "forms": [list(f) for f in self.forms],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LinearSystem":
        try:
            p, k, forms = obj["p"], obj["k"], obj["forms"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"linear system JSON missing field: {exc}") from exc
        p = parse_at("/p", validate_prime, p)
        k = parse_at("/k", validate_dims, p, k)[1]
        if "flag" in obj:
            flag, mult = obj["flag"], obj.get("multiplicities")
            return parse_at("/forms", FlaggedSystem, p, k, forms, flag, mult)
        return parse_at("/forms", cls, p, k, forms)


@dataclass(frozen=True)
class FlaggedSystem(LinearSystem):
    """Linear system with a distinguished flag form and per-form multiplicities.

    The flag need not be a member of the system, or even lie in its span —
    conditional averages degrade gracefully to constants in that case.
    """

    flag: Form
    multiplicities: tuple[int, ...] | None = None

    def __post_init__(self):
        super().__post_init__()
        flag = _normalize_form(self.flag, self.p, self.k)
        if not any(flag):
            raise ValidationError("flag must be nonzero")
        multiplicities = self.multiplicities
        if multiplicities is None:
            multiplicities = (1,) * self.m
        multiplicities = int_tuple(multiplicities, "multiplicities")
        if len(multiplicities) != len(self.forms):
            raise ValidationError("one multiplicity per form required")
        if any(v < 1 for v in multiplicities):
            raise ValidationError("multiplicities must be positive")
        object.__setattr__(self, "flag", flag)
        object.__setattr__(self, "multiplicities", multiplicities)

    def to_json_dict(self) -> dict:
        obj = super().to_json_dict()
        obj["kind"] = "flagged-system"
        obj["flag"] = list(self.flag)
        obj["multiplicities"] = list(self.multiplicities)
        return obj


def arithmetic_progression_system(p: int, length: int) -> LinearSystem:
    """x, x+y, ..., x+(length-1)y as forms on F_p^2."""
    if length < 1:
        raise ValidationError("length must be >= 1")
    return LinearSystem(p, 2, [(1, i % p) for i in range(length)])


def cube_system(p: int, k: int) -> LinearSystem:
    """The Gowers cube x + omega.y, omega in {0,1}^k, as the forms (1, omega)
    on F_p^(k+1); omega runs in bit order (bit i of the index is omega_i).
    Its 2^k forms are checked against the budget before any is built."""
    if k < 1:
        raise ValidationError("cube systems need k >= 1")
    check(2**k, f"cube system of dimension {k}")
    return LinearSystem(
        p, k + 1, [(1, *(mask >> i & 1 for i in range(k))) for mask in range(2**k)]
    )


def cube_signs(k: int) -> list[int]:
    """The sign (-1)^(k - |omega|) of each form (1, omega) of cube_system(p,
    k), in its order: the Gowers product conjugates the forms of sign -1, and
    the uniformity test weights the corners by these signs."""
    return [(-1) ** (k - bin(mask).count("1")) for mask in range(2**k)]


def _pair_sums(system: LinearSystem) -> Counter:
    """The weighted count of ordered pairs of forms by their sum: one pass
    over the m^2 pairs gives the degree of every form."""
    p = system.p
    mult = getattr(system, "multiplicities", (1,) * system.m)
    sums: Counter = Counter()
    for x, u in zip(system.forms, mult):
        for y, v in zip(system.forms, mult):
            sums[tuple((a + b) % p for a, b in zip(x, y))] += u * v
    return sums


@dataclass
class ComplexityReport:
    kind: str  # "cs" or "true"
    value: int | None
    bound_only: bool = False
    certificate: dict = field(default_factory=dict)
    witness: np.ndarray | None = None


def _min_partition(forms: list[list[int]], target: int, p: int) -> list[list[int]]:
    """The fewest classes partitioning the forms other than `target` so that
    no class spans it, by branch-and-bound, first fit first.  A class carries
    its members, the echelon rows of its span (pivot, row with a 1 there) and
    the target reduced by them, nonzero while the class misses the target.
    A form joins when its reduction leaves the reduced target off its line;
    each such check, opening a class included (a check against the empty
    one), calls `charge` with the k (r + 1) entries it reads for a class of
    rank r.  Assumes no form is proportional to the target."""
    others = [j for j in range(len(forms)) if j != target]

    def reduced(v, rows):
        for c, row in rows:
            if v[c]:
                v = [(a - v[c] * b) % p for a, b in zip(v, row)]
        return v

    def joined(cls, j):
        """The class with form j added, or None when it would span the target."""
        members, rows, t = cls
        charge(len(t) * (len(rows) + 1), "partition search")
        f = reduced(forms[j], rows)
        if not any(f):
            return members + [j], rows, t
        c = next(i for i, a in enumerate(f) if a)
        inv = pow(f[c], -1, p)
        f = [a * inv % p for a in f]
        t = [(a - t[c] * b) % p for a, b in zip(t, f)]
        return (members + [j], rows + [(c, f)], t) if any(t) else None

    empty = ([], [], forms[target])
    best = [[]] * len(forms)  # beaten by the first leaf, the greedy first fit
    assignment: list = []

    def descend(pos: int):
        nonlocal best
        if len(assignment) >= len(best):
            return
        if pos == len(others):
            best = [cls[0] for cls in assignment]
            return
        for i, cls in enumerate(assignment):
            grown = joined(cls, others[pos])
            if grown is not None:
                assignment[i] = grown
                descend(pos + 1)
                assignment[i] = cls
        # open one new class (canonical: only as the last)
        if len(assignment) + 1 < len(best):
            assignment.append(joined(empty, others[pos]))
            descend(pos + 1)
            assignment.pop()

    descend(0)
    return best


@budget()
def cs_complexity(system: LinearSystem) -> ComplexityReport:
    """Least s such that, for every form, the remaining forms split into s+1
    classes none of which spans it.  The partition searches of all forms are
    charged, k (r + 1) entries per check of a form against a class of rank r;
    a search the budget refuses gives the always-valid m-2 bound with
    singleton partitions, flagged bound-only.
    """
    p, m = system.p, system.m
    forms = system.as_array().tolist()
    if len({tuple(a * pow(next(filter(None, f)), -1, p) % p for a in f) for f in forms}) < m:
        raise ValidationError("complexity is undefined when two forms are proportional")
    try:
        certificate = {i: _min_partition(forms, i, p) for i in range(m)}
    except BudgetExceededError:
        singletons = {i: [[j] for j in range(m) if j != i] for i in range(m)}
        return ComplexityReport("cs", m - 2, bound_only=True, certificate=singletons)
    value = max(0, *(len(classes) - 1 for classes in certificate.values()))
    return ComplexityReport(kind="cs", value=value, certificate=certificate)


def true_complexity(system: LinearSystem) -> ComplexityReport:
    """Least d such that the (d+1)-fold tensor powers of the forms are
    linearly independent.  Valid as an invariant in the regime where the
    partition complexity does not exceed p, so that regime is enforced; when
    the budget refuses the partition search, the m - 2 bound proves it or the
    call raises, and the certificate then records the bound as "cs_bound".

    A tensor power's entries at the positions that hold one multiset of
    coordinates are equal, so the rank and the dependency witness come from
    one column per monomial of degree d + 1 in the k coordinates,
    C(d + k, k - 1) of them.  Each power's m such columns are an allocation
    checked against the limit, so a refused search leaves them payable.
    """
    cs = cs_complexity(system)
    if cs.value > system.p:
        bounded = "only bounded by " if cs.bound_only else ""
        raise ValidationError(
            f"partition complexity {bounded}{cs.value} exceeds p = {system.p}; "
            "the tensor criterion does not apply"
        )
    certificate = {"cs_bound" if cs.bound_only else "cs": cs.value}
    p, m, k = system.p, system.m, system.k
    forms = system.as_array()
    witness = None
    for d in range(m + 1):
        columns = math.comb(d + k, k - 1)
        check(m * columns, "tensor powers")
        powers = np.ones((m, columns), dtype=np.int64)
        for factor in np.array(list(combinations_with_replacement(range(k), d + 1))).T:
            powers = powers * forms[:, factor] % p
        if mat_rank(powers, p) == m:
            return ComplexityReport(kind="true", value=d, certificate=certificate, witness=witness)
        witness = nullspace(powers.T, p)
        witness = witness[0] if len(witness) else None
    raise ValidationError("tensor powers never became independent")


@dataclass
class IsomorphismReport:
    isomorphic: bool
    mapping: tuple[int, ...] | None = None  # index i of A -> mapping[i] of B


def are_isomorphic(a: LinearSystem, b: LinearSystem) -> IsomorphismReport:
    """Form bijection extending to an invertible map between the spans.

    Exhaustive over independent image tuples with degree-multiset pruning.
    Once the primes, form counts and span ranks agree, the search is charged
    before it starts: m!/(m - r)! injective images of the r basis forms, times
    the m forms mapped at each leaf.  So it decides or raises
    BudgetExceededError.
    """
    if a.p != b.p or a.m != b.m:
        return IsomorphismReport(isomorphic=False)
    r = a.span_rank()
    if r != b.span_rank():
        return IsomorphismReport(isomorphic=False)
    charge(math.perm(a.m, r) * a.m, f"isomorphism search over {a.m} forms of rank {r}")
    deg_a, deg_b = a.degrees(), b.degrees()
    if sorted(deg_a) != sorted(deg_b):
        return IsomorphismReport(isomorphic=False)
    p = a.p
    arr_a, arr_b = a.as_array(), b.as_array()
    basis_idx, coords = span_coordinates(arr_a, p)
    b_index = {f: i for i, f in enumerate(b.forms)}
    candidates = [
        [j for j in range(b.m) if deg_b[j] == deg_a[i]] for i in basis_idx
    ]

    def extend(pos: int, chosen: list[int]):
        if pos == len(basis_idx):
            # independent images make the map injective, so distinct forms
            # land on distinct forms of b
            rows = arr_b[chosen]
            mapping = []
            for c in coords:
                j = b_index.get(tuple((c @ rows) % p))
                if j is None:
                    return None
                mapping.append(j)
            return tuple(mapping)
        for j in candidates[pos]:
            if j in chosen:
                continue
            if mat_rank(arr_b[chosen + [j]], p) != pos + 1:
                continue
            result = extend(pos + 1, chosen + [j])
            if result is not None:
                return result
        return None

    mapping = extend(0, [])
    return IsomorphismReport(isomorphic=mapping is not None, mapping=mapping)


def connected_components(system: LinearSystem) -> list[list[int]]:
    """Partition of form indices into connected components, each sorted and
    listed by smallest index; see row_components."""
    return row_components(system.as_array(), system.p)


def row_components(rows: np.ndarray, p: int) -> list[list[int]]:
    """Connected components of the nonzero rows of a matrix over F_p, which
    may repeat, as sorted lists of row indices listed by smallest index.

    A split is a proper subset whose span meets the span of the rest only
    at zero; components are what survives recursive splitting.  These are
    the components of the rows' matroid, and the fundamental circuits of
    any one basis already connect them (Krogdahl, Discrete Math. 1977): a
    row outside the basis is joined to the basis rows its coordinates use.
    """
    basis_idx, C = span_coordinates(rows, p)
    parent = list(range(len(rows)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, coords in enumerate(C):
        for j in np.flatnonzero(coords):
            parent[find(basis_idx[j])] = find(i)
    groups: dict[int, list[int]] = {}
    for i in range(len(rows)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def flagged_product(f0: FlaggedSystem, f1: FlaggedSystem) -> FlaggedSystem:
    """Product of flagged systems: place the two systems on disjoint variable
    blocks, then quotient by identifying the two flags.

    The quotient map T kills the difference of the embedded flags and sends
    both to e_1; it is fixed deterministically by extending {flag, difference}
    to a basis.  Forms that collide under T (exactly the proportional pairs
    lambda*flag0 vs lambda*flag1) merge with added multiplicities.
    """
    if f0.p != f1.p:
        raise ValidationError("products need a common prime")
    p = f0.p
    k0, k1 = f0.k, f1.k
    K = k0 + k1
    if K < 2:
        raise ValidationError("product needs at least two combined variables")

    def embed0(form):
        return tuple(form) + (0,) * k1

    def embed1(form):
        return (0,) * k0 + tuple(form)

    m0 = np.array(embed0(f0.flag), dtype=np.int64)
    m1 = np.array(embed1(f1.flag), dtype=np.int64)
    diff = (m0 - m1) % p
    basis = extend_to_basis(np.array([m0, diff]) % p, p, K)
    # T(basis rows) = e_1, 0, e_2, e_3, ... in order
    images = np.zeros((K, K - 1), dtype=np.int64)
    images[0, 0] = 1
    for j in range(2, K):
        images[j, j - 1] = 1
    binv = inverse(basis.T % p, p)
    assert binv is not None, "extend_to_basis returned a basis"
    t_matrix = (images.T @ binv) % p

    def apply_t(vec) -> Form:
        return tuple((t_matrix @ (np.asarray(vec, dtype=np.int64) % p)) % p)

    merged: dict[Form, int] = {}
    for sysf, embed in ((f0, embed0), (f1, embed1)):
        for form, mult in zip(sysf.forms, sysf.multiplicities):
            img = apply_t(embed(form))
            if not any(img):
                raise ValidationError("a form collapsed to zero in the product")
            merged[img] = merged.get(img, 0) + mult
    flag = apply_t(m0)
    assert flag == tuple([1] + [0] * (K - 2)), "flag must map to e_1"
    forms = sorted(merged)
    return FlaggedSystem(
        p, K - 1, forms, flag, tuple(merged[f] for f in forms)
    )

