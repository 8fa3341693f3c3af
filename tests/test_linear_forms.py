import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpuniform.errors import BudgetExceededError, FormatError, ValidationError
from fpuniform.linalg import in_span, rank as mat_rank
from fpuniform.linear_forms import (
    FlaggedSystem,
    LinearSystem,
    _pair_sums,
    are_isomorphic,
    arithmetic_progression_system,
    connected_components,
    cs_complexity,
    flagged_product,
    tensor_power,
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
    forms = [f for f in __import__("itertools").product(range(2), repeat=4) if any(f)]
    system = LinearSystem(2, 4, forms)  # m = 15 > 12
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


def test_tensor_power_shapes():
    v = (1, 2)
    assert tensor_power(v, 0, 3).tolist() == [1]
    assert tensor_power(v, 1, 3).tolist() == [1, 2]
    assert tensor_power(v, 2, 3).tolist() == [1, 2, 2, 4 % 3]


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
        true_complexity(LinearSystem(2, 4, forms))  # cs is bound-only at m = 15
    with pytest.raises(ValidationError, match="only bounded"):
        true_complexity(LinearSystem(2, 4, forms[:13]))  # its bound 11 exceeds p = 2


def test_true_complexity_past_the_cap_when_the_bound_proves_the_regime():
    # AP13 has m = 13 > PARTITION_SEARCH_CAP; its cs bound 11 <= p = 17
    report = true_complexity(arithmetic_progression_system(17, 13))
    assert (report.value, report.certificate) == (11, {"cs_bound": 11})


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
        with pytest.raises(BudgetExceededError) as exc:
            are_isomorphic(a, b, budget=charge - 1)
        assert (exc.value.cost, exc.value.budget) == (charge, charge - 1)
        report = are_isomorphic(a, b)
        assert report.isomorphic and sorted(report.mapping) == list(range(a.m))
        assert _is_isomorphism(a, b, report.mapping)
        assert are_isomorphic(a, b, budget=charge).mapping == report.mapping


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
    report = are_isomorphic(free, free, budget=2**26)
    assert report.isomorphic and report.mapping == tuple(range(10))


def test_isomorphism_invariants_need_no_budget():
    # different primes, form counts or span ranks are decided without a search
    a = LinearSystem(2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    for b in (
        LinearSystem(3, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        LinearSystem(2, 3, [(1, 0, 0), (0, 1, 0)]),
        LinearSystem(2, 3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)]),
    ):
        assert not are_isomorphic(a, b, budget=1).isomorphic


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
