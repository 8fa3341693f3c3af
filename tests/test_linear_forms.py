import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpuniform.config import budget
from fpuniform.errors import BudgetExceededError, FormatError, ValidationError
from fpuniform.linalg import in_span, nullspace, rank as mat_rank
from fpuniform.linear_forms import (
    FlaggedSystem,
    LinearSystem,
    _pair_sums,
    are_isomorphic,
    arithmetic_progression_system,
    connected_components,
    cs_complexity,
    flagged_product,
    true_complexity,
)


def test_system_validation():
    with pytest.raises(ValidationError):
        LinearSystem(2, 2, [(1, 0), (1, 0)])
    with pytest.raises(ValidationError):
        LinearSystem(2, 2, [(0, 0)])
    with pytest.raises(ValidationError):
        LinearSystem(2, 0, [])
    with pytest.raises(ValidationError):
        LinearSystem(2, 2, [])
    with pytest.raises(ValidationError):
        LinearSystem(2, 2, [(1, 0, 1)])


def test_ap_system_golden():
    ap = arithmetic_progression_system(5, 4)
    assert ap.forms == ((1, 0), (1, 1), (1, 2), (1, 3))
    with pytest.raises(ValidationError):
        arithmetic_progression_system(3, 4)  # x+3y wraps onto x


def test_cs_complexity_goldens():
    assert cs_complexity(arithmetic_progression_system(3, 3)).value == 1
    assert cs_complexity(arithmetic_progression_system(5, 4)).value == 2
    assert cs_complexity(LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)])).value == 1
    assert cs_complexity(LinearSystem(3, 2, [(1, 0), (0, 1)])).value == 0
    assert cs_complexity(LinearSystem(3, 2, [(1, 0)])).value == 0


def _partition_certificate_valid(system, report):
    arr = system.as_array()
    for i, classes in report.certificate.items():
        covered = sorted(j for cls in classes for j in cls)
        assert covered == [j for j in range(system.m) if j != i]
        assert len(classes) <= (report.value or 0) + 1
        for cls in classes:
            assert not in_span(arr[cls], arr[i], system.p)


def test_cs_certificates_are_valid_partitions():
    for system in (
        arithmetic_progression_system(3, 3),
        arithmetic_progression_system(5, 4),
        LinearSystem(2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
    ):
        report = cs_complexity(system)
        assert not report.bound_only
        _partition_certificate_valid(system, report)


def test_cs_bound_only_above_cap():
    # the budget is the cap now: 100 points refuse the search over 15 forms
    forms = [f for f in __import__("itertools").product(range(2), repeat=4) if any(f)]
    system = LinearSystem(2, 4, forms)
    with budget(100):
        report = cs_complexity(system)
    assert report.bound_only
    assert report.value == system.m - 2
    _partition_certificate_valid(system, report)


def test_cs_rejects_proportional_forms():
    with pytest.raises(ValidationError):
        cs_complexity(LinearSystem(3, 1, [(1,), (2,)]))


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_cs_below_trivial_bound(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.choice([2, 3]))
    k = int(rng.integers(2, 4))
    from fpuniform.field import enumerate_vectors

    pool = [f for f in enumerate_vectors(p, k) if any(f)]
    m = int(rng.integers(2, min(7, len(pool) + 1)))
    picked = rng.choice(len(pool), size=m, replace=False)
    system = LinearSystem(p, k, sorted(pool[i] for i in picked))
    try:
        report = cs_complexity(system)
    except ValidationError:
        return  # proportional pair drawn
    assert 0 <= report.value <= system.m - 2 or system.m == 1
    _partition_certificate_valid(system, report)


def tensor_power(vector, d, p):
    """The d-fold tensor power of a vector mod p, flattened."""
    out = np.array([1])
    for _ in range(d):
        out = np.multiply.outer(out, np.asarray(vector)).reshape(-1) % p
    return out


def tensor_complexity(system):
    """(least d with independent (d+1)-fold tensor powers, the first nullspace
    vector of the powers at the d before it or None), from the full powers."""
    witness = None
    for d in range(system.m + 1):
        powers = np.array([tensor_power(f, d + 1, system.p) for f in system.forms])
        if mat_rank(powers, system.p) == system.m:
            return d, witness
        kernel = nullspace(powers.T, system.p)
        witness = kernel[0].tolist() if len(kernel) else None
    raise AssertionError("tensor powers never became independent")


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_true_complexity_matches_the_full_tensor_powers(p, k, data):
    # one column per monomial decides the rank and the witness of the k^(d+1)
    # columns of the tensor powers, which repeat each monomial's column
    pool = [f for f in itertools.product(range(p), repeat=k) if any(f)]
    picked = data.draw(st.sets(st.sampled_from(pool), min_size=1, max_size=6))
    system = LinearSystem(p, k, sorted(picked))
    try:
        report = true_complexity(system)
    except ValidationError:
        return  # a proportional pair, or cs above p
    got = None if report.witness is None else report.witness.tolist()
    assert (report.value, got) == tensor_complexity(system)


def test_true_complexity_charges_one_column_per_monomial():
    # the 8 forms of the conic at p = 7 on F_7^3: 100 points refuse the
    # partition search (the bound 6 proves the regime), and the powers of
    # degree d + 1 check 8 * C(d + 3, 2): 24, 48, 80, then 120 at d = 3
    with pytest.raises(BudgetExceededError) as exc, budget(100):
        true_complexity(_conic(7))
    assert exc.value.cost == 8 * math.comb(3 + 3, 2)
    with budget(120):
        assert true_complexity(_conic(7)).value == 3


def test_true_complexity_goldens():
    assert true_complexity(arithmetic_progression_system(3, 3)).value == 1
    assert true_complexity(arithmetic_progression_system(5, 4)).value == 2
    assert true_complexity(LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)])).value == 1
    assert true_complexity(LinearSystem(3, 2, [(1, 0), (0, 1)])).value == 0


def test_true_complexity_dependency_witness():
    system = arithmetic_progression_system(5, 4)
    report = true_complexity(system)
    assert report.value == 2
    w = report.witness  # dependency among the squares
    assert w is not None and w.any()
    powers = np.array([tensor_power(f, 2, 5) for f in system.forms])
    assert not ((w @ powers) % 5).any()


def test_true_complexity_full_system_witness():
    forms = [f for f in __import__("itertools").product(range(2), repeat=3) if any(f)]
    report = true_complexity(LinearSystem(2, 3, forms))
    assert report.value == 2
    assert report.witness.tolist() == [1] * 7


def test_true_complexity_rejects_unverified_regime():
    forms = [f for f in __import__("itertools").product(range(2), repeat=4) if any(f)]
    with pytest.raises(ValidationError):
        true_complexity(LinearSystem(2, 4, forms))  # cs is 3 > p = 2 at m = 15
    with pytest.raises(ValidationError, match="only bounded"):
        # the budget refuses the search; the bound 11 exceeds p = 2
        with budget(100):
            true_complexity(LinearSystem(2, 4, forms[:13]))


def _conic(p):
    """The p + 1 points of a conic in F_p^3: any three forms are independent."""
    return LinearSystem(p, 3, [(1, a, a * a % p) for a in range(p)] + [(0, 0, 1)])


def test_true_complexity_past_the_cap_when_the_bound_proves_the_regime():
    # 1,000 points refuse the 8,544-point search over the 8 forms of the conic
    # at p = 7 but cover its tensor powers (8 * C(6, 2) = 120 at most); the cs
    # bound 6 <= p = 7 then proves the regime
    with budget(1000):
        report = true_complexity(_conic(7))
    assert (report.value, report.certificate) == (3, {"cs_bound": 6})
    assert true_complexity(_conic(7)).certificate == {"cs": 3}


def test_cs_exact_past_twelve_forms():
    forms = [f for f in __import__("itertools").product(range(2), repeat=4) if any(f)]
    for system, value in ((LinearSystem(2, 4, forms[:13]), 2), (LinearSystem(2, 4, forms), 3)):
        report = cs_complexity(system)
        assert (report.value, report.bound_only) == (value, False)
        _partition_certificate_valid(system, report)
    report = true_complexity(arithmetic_progression_system(17, 13))
    assert (report.value, report.certificate) == (11, {"cs": 11})


def _brute_cs(system):
    """max over forms of the fewest classes, over every set partition of the
    other forms, none of which spans the form, less one."""
    arr = system.as_array()

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            yield [[first]] + part
            for j in range(len(part)):
                yield part[:j] + [[first] + part[j]] + part[j + 1:]

    worst = 0
    for i in range(system.m):
        others = [j for j in range(system.m) if j != i]
        least = min(
            len(part) for part in partitions(others)
            if not any(in_span(arr[cls], arr[i], system.p) for cls in part)
        )
        worst = max(worst, least - 1)
    return worst


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_cs_matches_brute_force_over_set_partitions(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.choice([2, 3, 5]))
    k = int(rng.integers(2, 5))
    from fpuniform.field import enumerate_vectors

    # one form per projective class: first nonzero coordinate 1
    pool = [f for f in enumerate_vectors(p, k) if next((a for a in f if a), 0) == 1]
    m = int(rng.integers(2, min(7, len(pool)) + 1))
    picked = rng.choice(len(pool), size=m, replace=False)
    system = LinearSystem(p, k, sorted(pool[i] for i in picked))
    report = cs_complexity(system)
    assert not report.bound_only
    assert report.value == _brute_cs(system)
    _partition_certificate_valid(system, report)


def test_cs_search_charge():
    # AP4 at p = 5, k = 2: any two forms span F_5^2, so every class holds one
    # form.  A check reads k (r + 1) entries against a class of rank r, and
    # opening a class is a check against the empty one (2 entries).  Per
    # target, the search's first leaf opens three classes after 1 + 2 refused
    # checks (2 * 3 + 4 * 3 = 18), and no branch is left that could do with
    # fewer: 72 over the four targets.
    ap4 = arithmetic_progression_system(5, 4)
    with budget(72):
        assert not cs_complexity(ap4).bound_only
    with budget(71):
        report = cs_complexity(ap4)
    assert (report.value, report.bound_only) == (2, True)
    # 13 nonzero forms of F_2^4, whose classes grow to rank 3
    forms = [f for f in __import__("itertools").product(range(2), repeat=4) if any(f)]
    system = LinearSystem(2, 4, forms[:13])
    with budget(32_688):
        assert cs_complexity(system).value == 2
    with budget(32_687):
        assert cs_complexity(system).bound_only


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_homogeneous_dependencies_have_zero_coefficient_sum(seed):
    # forms with first coefficient 1 are homogeneous via u = e_1; any linear
    # dependency among them must then have coefficients summing to zero
    rng = np.random.default_rng(seed)
    p = int(rng.choice([2, 3, 5]))
    k = int(rng.integers(2, 4))
    from fpuniform.field import enumerate_vectors

    pool = [(1,) + tail for tail in enumerate_vectors(p, k - 1)]
    m = int(rng.integers(2, min(6, len(pool) + 1)))
    picked = rng.choice(len(pool), size=m, replace=False)
    system = LinearSystem(p, k, sorted(pool[i] for i in picked))
    from fpuniform.linalg import nullspace

    for dep in nullspace(system.as_array().T, p):
        assert int(dep.sum()) % p == 0


def test_isomorphic_to_gl_image():
    system = arithmetic_progression_system(3, 3)
    S = np.array([[1, 1], [2, 1]], dtype=np.int64)  # invertible over F_3
    image = LinearSystem(3, 2, [tuple(r) for r in (system.as_array() @ S) % 3])
    report = are_isomorphic(system, image)
    assert report.isomorphic
    assert report.mapping == (0, 1, 2)


def test_isomorphism_is_reflexive():
    system = LinearSystem(2, 3, [(1, 0, 0), (0, 1, 0), (1, 1, 1)])
    report = are_isomorphic(system, system)
    assert report.isomorphic


def test_non_isomorphic_golden():
    # one system has a form equal to a sum of two others, the other does not
    report = are_isomorphic(
        arithmetic_progression_system(3, 3),
        LinearSystem(3, 2, [(1, 0), (0, 1), (1, 1)]),
    )
    assert not report.isomorphic


def test_non_isomorphic_different_span_rank():
    a = LinearSystem(2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    b = LinearSystem(2, 3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    report = are_isomorphic(a, b)
    assert not report.isomorphic


def _nonzero_forms(p, k):
    return [f for f in itertools.product(range(p), repeat=k) if any(f)]


def _permuted_image(system, S, order):
    """The forms L_i S of a system, listed in the given order."""
    image = (system.as_array() @ np.asarray(S, dtype=np.int64)) % system.p
    return LinearSystem(system.p, image.shape[1], [tuple(image[i]) for i in order])


def _is_isomorphism(a, b, sigma):
    """Form i of a -> form sigma[i] of b extends to an invertible linear map
    between the spans iff rank(A) = rank(B_sigma) = rank([A | B_sigma])."""
    A, B = a.as_array(), b.as_array()[list(sigma)]
    r = mat_rank(A, a.p)
    return mat_rank(B, a.p) == r == mat_rank(np.hstack([A, B]), a.p)


def test_isomorphism_decided_within_the_budget():
    # each search is charged m!/(m - r)! * m; all three have more than the
    # ten forms that used to come back undecided
    shear = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    cases = [
        (arithmetic_progression_system(13, 12), [[3, 1], [5, 2]], 1_584),  # 12 * 11 * 12
        (LinearSystem(2, 4, _nonzero_forms(2, 4)[:11]), shear, 87_120),  # 11 * 10 * 9 * 8 * 11
        (LinearSystem(2, 4, _nonzero_forms(2, 4)), shear, 491_400),  # 15 * 14 * 13 * 12 * 15
    ]
    for a, S, charge in cases:
        b = _permuted_image(a, S, np.random.default_rng(a.m).permutation(a.m))
        with pytest.raises(BudgetExceededError) as exc, budget(charge - 1):
            are_isomorphic(a, b)
        assert (exc.value.cost, exc.value.budget) == (charge, charge - 1)
        report = are_isomorphic(a, b)
        assert report.isomorphic and sorted(report.mapping) == list(range(a.m))
        assert _is_isomorphism(a, b, report.mapping)
        with budget(charge):
            assert are_isomorphic(a, b).mapping == report.mapping


def test_isomorphism_refused_above_the_budget():
    f25 = LinearSystem(2, 5, _nonzero_forms(2, 5))
    with pytest.raises(BudgetExceededError) as exc:
        are_isomorphic(f25, f25)
    assert exc.value.cost == 31 * 30 * 29 * 28 * 27 * 31 == 632_068_920
    # 10 independent forms: the old cap decided these, the charge 10! * 10
    # exceeds the default budget 2^24
    free = LinearSystem(2, 10, np.eye(10, dtype=np.int64))
    with pytest.raises(BudgetExceededError) as exc:
        are_isomorphic(free, free)
    assert exc.value.cost == math.factorial(10) * 10 == 36_288_000
    with budget(2**26):
        report = are_isomorphic(free, free)
    assert report.isomorphic and report.mapping == tuple(range(10))


def test_isomorphism_invariants_need_no_budget():
    # different primes, form counts or span ranks are decided without a search
    a = LinearSystem(2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    for b in (
        LinearSystem(3, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        LinearSystem(2, 3, [(1, 0, 0), (0, 1, 0)]),
        LinearSystem(2, 3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)]),
    ):
        with budget(1):
            assert not are_isomorphic(a, b).isomorphic


@st.composite
def isomorphism_pairs(draw):
    """A system of m <= 5 forms on F_p^k, k <= 3, and one of: a GL-image of
    it with its forms permuted, that image with one form swapped for another
    (mostly not isomorphic, but often with the same invariants), or another
    system of m forms."""
    p = draw(st.sampled_from([2, 3, 5]))
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, min(5, p**k - 1)))
    form = st.tuples(*[st.integers(0, p - 1)] * k).filter(any)
    a = LinearSystem(p, k, draw(st.lists(form, min_size=m, max_size=m, unique=True)))
    kind = draw(st.sampled_from(["image", "swapped", "other"]))
    if kind == "other":
        other = draw(st.sampled_from([j for j in (1, 2, 3) if p**j > a.m]))
        other_form = st.tuples(*[st.integers(0, p - 1)] * other).filter(any)
        forms = st.lists(other_form, min_size=a.m, max_size=a.m, unique=True)
        return a, LinearSystem(p, other, draw(forms))
    rows = st.lists(st.integers(0, p - 1), min_size=k, max_size=k)
    S = draw(st.lists(rows, min_size=k, max_size=k).filter(lambda S: mat_rank(S, p) == k))
    b = _permuted_image(a, S, draw(st.permutations(range(a.m))))
    if kind == "swapped" and a.m < p**k - 1:
        new = draw(form.filter(lambda f: f not in b.forms))
        b = LinearSystem(p, k, (new,) + b.forms[1:])
    return a, b


@given(isomorphism_pairs())
@settings(max_examples=400, deadline=None)
def test_isomorphism_matches_the_definition(pair):
    a, b = pair
    brute = any(_is_isomorphism(a, b, s) for s in itertools.permutations(range(a.m)))
    report = are_isomorphic(a, b)
    assert report.isomorphic == brute
    if report.isomorphic:
        assert sorted(report.mapping) == list(range(a.m))
        assert _is_isomorphism(a, b, report.mapping)
    else:
        assert report.mapping is None


def test_isomorphism_mapping_extends_linearly():
    a = LinearSystem(5, 2, [(1, 0), (0, 1), (1, 1), (1, 2)])
    S = np.array([[2, 3], [1, 1]], dtype=np.int64)
    b_forms = [tuple(r) for r in (a.as_array() @ S) % 5]
    order = [2, 0, 3, 1]
    b = LinearSystem(5, 2, [b_forms[i] for i in order])
    report = are_isomorphic(a, b)
    assert report.isomorphic
    # mapping must send form i of a to its S-image inside b
    for i, j in enumerate(report.mapping):
        assert b.forms[j] == b_forms[i]


def test_connected_components_pairwise_trap():
    # {x, y, x+y}: every pair of spans meets trivially, yet the triple is
    # connected through the joint span
    system = LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)])
    assert connected_components(system) == [[0, 1, 2]]


def test_connected_components_two_blocks():
    system = LinearSystem(
        2,
        4,
        [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)],
    )
    assert connected_components(system) == [[0, 1, 2], [3, 4, 5]]


def test_connected_components_singletons():
    system = LinearSystem(3, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert connected_components(system) == [[0], [1], [2]]


def test_connected_components_seventeen_forms():
    # the first 16 forms span {1} x F_2^4 and are connected; (1,1,0,0,0,0)
    # is the only form using the fifth coordinate, so it stands alone
    forms = [(1,) + tuple(int(b) for b in format(i, "05b")) for i in range(17)]
    system = LinearSystem(2, 6, forms)
    assert connected_components(system) == [list(range(16)), [16]]


def _exhaustive_components(system):
    """Recursive splitting over every subset: the definition of components."""
    arr = system.as_array()

    def split(indices):
        for bits in range(1, 1 << (len(indices) - 1)):
            left = [indices[i] for i in range(len(indices)) if bits >> i & 1]
            right = [i for i in indices if i not in left]
            # the two spans meet only at 0 iff their ranks add up
            joint = mat_rank(arr[left + right], system.p)
            if joint == mat_rank(arr[left], system.p) + mat_rank(arr[right], system.p):
                return split(left) + split(right)
        return [indices]

    return sorted(split(list(range(system.m))))


@given(st.sampled_from([2, 3, 5]), st.data())
@settings(max_examples=150, deadline=None)
def test_connected_components_match_exhaustive_split(p, data):
    k = data.draw(st.integers(1, 4))
    forms = data.draw(
        st.lists(
            st.tuples(*[st.integers(0, p - 1)] * k).filter(any),
            min_size=1,
            max_size=9,
            unique=True,
        )
    )
    system = LinearSystem(p, k, forms)
    assert connected_components(system) == _exhaustive_components(system)


def test_flagged_system_validation():
    with pytest.raises(ValidationError):
        FlaggedSystem(2, 2, [(1, 0)], (0, 0))
    with pytest.raises(ValidationError):
        FlaggedSystem(2, 2, [(1, 0)], (1, 0), (1, 2))
    with pytest.raises(ValidationError):
        FlaggedSystem(2, 2, [(1, 0)], (1, 0), (0,))
    fs = FlaggedSystem(2, 2, [(1, 0), (0, 1)], (1, 1))
    assert in_span(fs.as_array(), fs.flag, fs.p)
    out = FlaggedSystem(2, 3, [(1, 0, 0), (0, 1, 0)], (0, 0, 1))
    assert not in_span(out.as_array(), out.flag, out.p)


def test_flag_need_not_be_a_member():
    fs = FlaggedSystem(2, 2, [(1, 0), (0, 1)], (1, 1))
    assert fs.flag not in fs.forms


def test_form_degree_goldens():
    tri = LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)])
    assert _pair_sums(tri)[(1, 1)] == 2  # (x,y) and (y,x)
    assert _pair_sums(tri)[(1, 0)] == 2  # over F_2: y+(x+y), (x+y)+y
    assert tri.degrees() == (2, 2, 2)
    fs = FlaggedSystem(2, 1, [(1,)], (1,), (2,))
    assert _pair_sums(fs)[(0,)] == 4  # 2*2 with multiplicity


def test_self_product_of_point_evaluation():
    single = FlaggedSystem(5, 1, [(1,)], (1,))
    prod = flagged_product(single, single)
    assert prod.forms == ((1,),)
    assert prod.flag == (1,)
    assert prod.multiplicities == (2,)


def test_product_two_blocks_golden():
    f0 = FlaggedSystem(2, 2, [(1, 0), (0, 1)], (1, 0))
    f1 = FlaggedSystem(2, 1, [(1,)], (1,))
    prod = flagged_product(f0, f1)
    assert prod.k == 2
    assert prod.flag == (1, 0)
    assert prod.forms == ((0, 1), (1, 0))
    assert prod.multiplicities == (1, 2)


def test_product_preserves_total_multiplicity():
    # a connected system on 3 variables, 6 forms, flag e_1
    a = FlaggedSystem(
        2, 3, [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)], (1, 0, 0)
    )
    b = FlaggedSystem(2, 2, [(1, 0), (0, 1), (1, 1)], (1, 1))
    prod = flagged_product(a, b)
    assert prod.p == 2
    assert prod.k == a.k + b.k - 1
    assert sum(prod.multiplicities) == sum(a.multiplicities) + sum(b.multiplicities)
    assert prod.flag == (1,) + (0,) * (prod.k - 1)


def test_product_needs_common_prime():
    with pytest.raises(ValidationError):
        flagged_product(
            FlaggedSystem(2, 1, [(1,)], (1,)), FlaggedSystem(3, 1, [(1,)], (1,))
        )


def test_system_json_round_trip():
    system = arithmetic_progression_system(3, 3)
    obj = system.to_json_dict()
    assert obj["kind"] == "linear-system"
    assert LinearSystem.from_json_dict(obj) == system


def test_flagged_json_round_trip():
    fs = FlaggedSystem(2, 2, [(1, 0), (0, 1)], (1, 1), (2, 1))
    obj = fs.to_json_dict()
    assert obj["kind"] == "flagged-system"
    back = LinearSystem.from_json_dict(obj)
    assert isinstance(back, FlaggedSystem)
    assert back == fs


def test_json_missing_field():
    with pytest.raises(FormatError):
        LinearSystem.from_json_dict({"p": 2, "k": 2})
    with pytest.raises(FormatError) as exc:
        LinearSystem.from_json_dict({"p": 2, "k": 2, "forms": [[0, 0]]})
    assert "/forms" in str(exc.value)


def test_flagged_not_equal_to_plain():
    plain = LinearSystem(2, 2, [(1, 0), (0, 1)])
    flagged = FlaggedSystem(2, 2, [(1, 0), (0, 1)], (1, 0))
    assert plain != flagged
    assert flagged != plain
