"""Systems of linear forms on F_p^k and their combinatorial invariants.

A system is a tuple of distinct nonzero forms (integer row vectors mod p).
A flagged system carries a distinguished form — the flag — used for
conditional averages, plus a multiplicity per form so that products of
flagged systems (where distinct forms can collide) stay well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .config import ISOMORPHISM_SEARCH_CAP, PARTITION_SEARCH_CAP, check_budget
from .errors import FormatError, ValidationError
from .field import validate_prime
from .linalg import (
    extend_to_basis,
    in_span,
    inverse,
    rank as mat_rank,
    nullspace,
    solve,
    span_coordinates,
)

Form = tuple[int, ...]


def _normalize_form(form, p: int, k: int) -> Form:
    out = tuple(int(v) % p for v in form)
    if len(out) != k:
        raise ValidationError(f"form {form} has arity {len(out)}, expected {k}")
    return out


class LinearSystem:
    """Distinct nonzero linear forms L_1, ..., L_m on F_p^k."""

    __slots__ = ("p", "k", "forms")

    def __init__(self, p: int, k: int, forms):
        validate_prime(p)
        k = int(k)
        if k < 1:
            raise ValidationError("need at least one variable")
        clean = tuple(_normalize_form(f, p, k) for f in forms)
        for f in clean:
            if not any(f):
                raise ValidationError("zero form not allowed")
        if len(set(clean)) != len(clean):
            raise ValidationError("forms must be distinct")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "forms", clean)

    def __setattr__(self, *_):
        raise AttributeError("LinearSystem is immutable")

    @property
    def m(self) -> int:
        return len(self.forms)

    def as_array(self) -> np.ndarray:
        return np.array(self.forms, dtype=np.int64)

    def span_rank(self) -> int:
        return mat_rank(self.as_array(), self.p)

    def subsystem(self, indices) -> "LinearSystem":
        return LinearSystem(self.p, self.k, [self.forms[i] for i in indices])

    def without(self, index: int) -> tuple["LinearSystem | None", Form]:
        rest = [f for i, f in enumerate(self.forms) if i != index]
        removed = self.forms[index]
        if not rest:
            return None, removed
        return LinearSystem(self.p, self.k, rest), removed

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearSystem)
            and not isinstance(other, FlaggedSystem)
            and not isinstance(self, FlaggedSystem)
            and (self.p, self.k, self.forms) == (other.p, other.k, other.forms)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.forms))

    def __repr__(self) -> str:
        return f"LinearSystem(p={self.p}, k={self.k}, forms={list(self.forms)})"

    def degrees(self) -> tuple[int, ...]:
        return tuple(form_degree(self, f) for f in self.forms)

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
        if "flag" in obj:
            return FlaggedSystem.from_json_dict(obj)
        try:
            return cls(p, k, forms)
        except ValidationError as exc:
            raise FormatError(str(exc), pointer="/forms") from exc


class FlaggedSystem(LinearSystem):
    """Linear system with a distinguished flag form and per-form multiplicities.

    The flag need not be a member of the system, or even lie in its span —
    conditional averages degrade gracefully to constants in that case.
    """

    __slots__ = ("flag", "multiplicities")

    def __init__(self, p: int, k: int, forms, flag, multiplicities=None):
        super().__init__(p, k, forms)
        flag = _normalize_form(flag, p, k)
        if not any(flag):
            raise ValidationError("flag must be nonzero")
        if multiplicities is None:
            multiplicities = (1,) * len(self.forms)
        multiplicities = tuple(int(v) for v in multiplicities)
        if len(multiplicities) != len(self.forms):
            raise ValidationError("one multiplicity per form required")
        if any(v < 1 for v in multiplicities):
            raise ValidationError("multiplicities must be positive")
        object.__setattr__(self, "flag", flag)
        object.__setattr__(self, "multiplicities", multiplicities)

    def base_system(self) -> LinearSystem:
        return LinearSystem(self.p, self.k, self.forms)

    def flag_in_span(self) -> bool:
        return in_span(self.as_array(), np.array(self.flag, dtype=np.int64), self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, FlaggedSystem) and (
            self.p,
            self.k,
            self.forms,
            self.flag,
            self.multiplicities,
        ) == (other.p, other.k, other.forms, other.flag, other.multiplicities)

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.forms, self.flag, self.multiplicities))

    def __repr__(self) -> str:
        return (
            f"FlaggedSystem(p={self.p}, k={self.k}, forms={list(self.forms)}, "
            f"flag={self.flag}, multiplicities={self.multiplicities})"
        )

    def to_json_dict(self) -> dict:
        obj = super().to_json_dict()
        obj["kind"] = "flagged-system"
        obj["flag"] = list(self.flag)
        obj["multiplicities"] = list(self.multiplicities)
        return obj

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FlaggedSystem":
        try:
            p, k, forms, flag = obj["p"], obj["k"], obj["forms"], obj["flag"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"flagged system JSON missing field: {exc}") from exc
        try:
            return cls(p, k, forms, flag, obj.get("multiplicities"))
        except ValidationError as exc:
            raise FormatError(str(exc), pointer="/forms") from exc


def arithmetic_progression_system(p: int, length: int) -> LinearSystem:
    """x, x+y, ..., x+(length-1)y as forms on F_p^2."""
    if length < 1:
        raise ValidationError("length must be >= 1")
    return LinearSystem(p, 2, [(1, i % p) for i in range(length)])


def cube_system(p: int, k: int) -> LinearSystem:
    """The Gowers cube x + omega.y, omega in {0,1}^k, as the forms (1, omega)
    on F_p^(k+1); omega runs in bit order (bit i of the index is omega_i)."""
    if k < 1:
        raise ValidationError("cube systems need k >= 1")
    return LinearSystem(
        p, k + 1, [(1, *(mask >> i & 1 for i in range(k))) for mask in range(2**k)]
    )


def form_degree(system: LinearSystem, target) -> int:
    """Number of ordered pairs of forms summing to the target, weighted by
    multiplicities (pairs are allowed to repeat a form)."""
    p = system.p
    target = _normalize_form(target, p, system.k)
    mult = getattr(system, "multiplicities", (1,) * system.m)
    total = 0
    for i, x in enumerate(system.forms):
        for j, y in enumerate(system.forms):
            if tuple((a + b) % p for a, b in zip(x, y)) == target:
                total += mult[i] * mult[j]
    return total


@dataclass
class ComplexityReport:
    kind: str  # "cs" or "true"
    value: int | None
    bound_only: bool = False
    certificate: dict = field(default_factory=dict)
    witness: np.ndarray | None = None


def _pairwise_independent(system: LinearSystem) -> bool:
    arr = system.as_array()
    for i in range(system.m):
        for j in range(i + 1, system.m):
            if mat_rank(arr[[i, j]], system.p) < 2:
                return False
    return True


def _min_partition(others: list[np.ndarray], target: np.ndarray, p: int):
    """Fewest classes partitioning `others` so no class spans `target`.
    Exact branch-and-bound; assumes no single form is proportional to target."""

    def violates(rows: list[np.ndarray], extra: np.ndarray) -> bool:
        return in_span(np.array(rows + [extra]), target, p)

    best_count = len(others) + 1
    best_classes: list[list[int]] | None = None

    # greedy first-fit upper bound
    classes: list[list[int]] = []
    for idx, form in enumerate(others):
        for cls in classes:
            if not violates([others[i] for i in cls], form):
                cls.append(idx)
                break
        else:
            classes.append([idx])
    best_count = len(classes)
    best_classes = [list(c) for c in classes]

    assignment: list[list[int]] = []

    def descend(idx: int):
        nonlocal best_count, best_classes
        if len(assignment) >= best_count:
            return
        if idx == len(others):
            best_count = len(assignment)
            best_classes = [list(c) for c in assignment]
            return
        form = others[idx]
        for cls in assignment:
            if not violates([others[i] for i in cls], form):
                cls.append(idx)
                descend(idx + 1)
                cls.pop()
        # open one new class (canonical: only as the last)
        if len(assignment) + 1 < best_count:
            assignment.append([idx])
            descend(idx + 1)
            assignment.pop()

    descend(0)
    return best_count, best_classes


def cs_complexity(system: LinearSystem) -> ComplexityReport:
    """Least s such that, for every form, the remaining forms split into s+1
    classes none of which spans it.  Exact up to the partition search cap;
    larger systems get the always-valid m-2 bound with singleton partitions.
    """
    if system.m == 1:
        return ComplexityReport(kind="cs", value=0, certificate={0: []})
    if not _pairwise_independent(system):
        raise ValidationError(
            "complexity is undefined when two forms are proportional"
        )
    arr = system.as_array()
    if system.m > PARTITION_SEARCH_CAP:
        certificate = {
            i: [[j] for j in range(system.m) if j != i] for i in range(system.m)
        }
        return ComplexityReport(
            kind="cs", value=system.m - 2, bound_only=True, certificate=certificate
        )
    worst = 0
    certificate: dict[int, list[list[int]]] = {}
    for i in range(system.m):
        others_idx = [j for j in range(system.m) if j != i]
        others = [arr[j] for j in others_idx]
        count, classes = _min_partition(others, arr[i], system.p)
        worst = max(worst, count - 1)
        certificate[i] = [[others_idx[j] for j in cls] for cls in classes]
    return ComplexityReport(kind="cs", value=worst, certificate=certificate)


def tensor_power(vector, d: int, p: int) -> np.ndarray:
    """d-fold tensor power of a vector, flattened; the 0-th power is (1,)."""
    v = np.asarray(vector, dtype=np.int64) % p
    out = np.array([1], dtype=np.int64)
    for _ in range(d):
        out = np.multiply.outer(out, v).reshape(-1) % p
    return out


def true_complexity(system: LinearSystem, budget: int | None = None) -> ComplexityReport:
    """Least d such that the (d+1)-fold tensor powers of the forms are
    linearly independent.  Valid as an invariant in the regime where the
    partition complexity does not exceed p, so that regime is enforced.
    """
    cs = cs_complexity(system)
    if cs.value is None or cs.value > system.p:
        raise ValidationError(
            f"partition complexity {cs.value} exceeds p = {system.p}; "
            "the tensor criterion does not apply"
        )
    if cs.bound_only:
        raise ValidationError("partition complexity only bounded, not verified")
    witness = None
    for d in range(system.m + 1):
        check_budget(system.m * system.k ** (d + 1), budget, "tensor powers")
        powers = np.array(
            [tensor_power(f, d + 1, system.p) for f in system.forms], dtype=np.int64
        )
        if mat_rank(powers, system.p) == system.m:
            return ComplexityReport(
                kind="true", value=d, certificate={"cs": cs.value}, witness=witness
            )
        witness = nullspace(powers.T, system.p)
        witness = witness[0] if len(witness) else None
    raise ValidationError("tensor powers never became independent")


def is_homogeneous_system(system: LinearSystem) -> bool:
    """True when some direction u has L_i(u) = 1 for every form."""
    return _homogeneity_witness(system) is not None


def _homogeneity_witness(system: LinearSystem):
    ones = np.ones(system.m, dtype=np.int64)
    return solve(system.as_array(), ones, system.p)


def canonicalize(system: LinearSystem) -> tuple[LinearSystem, np.ndarray]:
    """Change of variables making every form's first coefficient 1.

    Returns (new system, S) with L_i' = L_i S and S invertible, S e_1 = u
    the common direction.  Raises for non-homogeneous systems.
    """
    u = _homogeneity_witness(system)
    if u is None:
        raise ValidationError("system is not homogeneous")
    basis = extend_to_basis(u.reshape(1, -1), system.p, system.k)
    S = basis.T % system.p
    arr = (system.as_array() @ S) % system.p
    return LinearSystem(system.p, system.k, [tuple(r) for r in arr]), S


@dataclass
class IsomorphismReport:
    decided: bool
    isomorphic: bool | None
    mapping: tuple[int, ...] | None = None  # index i of A -> mapping[i] of B


def are_isomorphic(a: LinearSystem, b: LinearSystem) -> IsomorphismReport:
    """Form bijection extending to an invertible map between the spans.

    Exhaustive over independent image tuples with degree-multiset pruning;
    systems above the search cap come back undecided rather than wrong.
    """
    if a.p != b.p:
        return IsomorphismReport(decided=True, isomorphic=False)
    if a.m != b.m or a.span_rank() != b.span_rank():
        return IsomorphismReport(decided=True, isomorphic=False)
    if sorted(a.degrees()) != sorted(b.degrees()):
        return IsomorphismReport(decided=True, isomorphic=False)
    if a.m > ISOMORPHISM_SEARCH_CAP:
        return IsomorphismReport(decided=False, isomorphic=None)
    p = a.p
    arr_a, arr_b = a.as_array(), b.as_array()
    basis_idx, coords = span_coordinates(arr_a, p)
    deg_a, deg_b = a.degrees(), b.degrees()
    b_index = {f: i for i, f in enumerate(b.forms)}
    candidates = [
        [j for j in range(b.m) if deg_b[j] == deg_a[i]] for i in basis_idx
    ]

    def extend(pos: int, chosen: list[int]):
        if pos == len(basis_idx):
            rows = arr_b[chosen]
            mapping = []
            for c in coords:
                img = tuple((c @ rows) % p)
                j = b_index.get(img)
                if j is None:
                    return None
                mapping.append(j)
            if len(set(mapping)) != a.m:
                return None
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
    if mapping is None:
        return IsomorphismReport(decided=True, isomorphic=False)
    return IsomorphismReport(decided=True, isomorphic=True, mapping=mapping)


def connected_components(system: LinearSystem) -> list[list[int]]:
    """Partition of form indices into connected components, each sorted and
    listed by smallest index.

    A split is a proper subset whose span meets the span of the rest only
    at zero; components are what survives recursive splitting.  These are
    the components of the forms' matroid, and the fundamental circuits of
    any one basis already connect them (Krogdahl, Discrete Math. 1977): a
    form outside the basis is joined to the basis forms its coordinates use.
    """
    basis_idx, C = span_coordinates(system.as_array(), system.p)
    parent = list(range(system.m))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, coords in enumerate(C):
        for j in np.flatnonzero(coords):
            parent[find(basis_idx[j])] = find(i)
    groups: dict[int, list[int]] = {}
    for i in range(system.m):
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


def build_high_rank_flag(p: int, d: int) -> FlaggedSystem:
    """Connected flagged system on d variables whose flag e_1 has form degree
    2(2^(d-1) - 1) while every member keeps degree at least 2^(d-1).

    Members are {0} x F_p^(d-1) union {1} x {0,1}^(d-1), minus the origin and
    the flag itself, so m = p^(d-1) + 2^(d-1) - 2.  Degenerate dimensions (the
    system disconnects for d = 2 at these small primes) are rejected.
    """
    validate_prime(p)
    if p > 3:
        raise ValidationError("supported primes are 2 and 3")
    if not 2 <= d <= 4:
        raise ValidationError("supported dimensions are 2 <= d <= 4")
    m = p ** (d - 1) + 2 ** (d - 1) - 2
    flag = (1,) + (0,) * (d - 1)
    members: list[Form] = []
    from .field import enumerate_vectors

    for tail in enumerate_vectors(p, d - 1):
        cand = (0,) + tail
        if any(cand):
            members.append(cand)
    for tail in enumerate_vectors(2, d - 1):
        cand = (1,) + tail
        if cand != flag:
            members.append(cand)
    assert len(members) == m
    system = FlaggedSystem(p, d, sorted(members), flag)
    if len(connected_components(system)) != 1:
        raise ValidationError(
            f"construction is disconnected at p = {p}, d = {d}"
        )
    return system
