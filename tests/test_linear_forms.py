import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpuniform.errors import FormatError, ValidationError
from fpuniform.linalg import in_span, rank as mat_rank, spans_intersect_trivially
from fpuniform.linear_forms import (
    FlaggedSystem,
    LinearSystem,
    are_isomorphic,
    arithmetic_progression_system,
    build_high_rank_flag,
    canonicalize,
    connected_components,
    cs_complexity,
    flagged_product,
    form_degree,
    is_homogeneous_system,
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


def test_homogeneity_goldens():
    assert is_homogeneous_system(arithmetic_progression_system(3, 3))
    assert is_homogeneous_system(arithmetic_progression_system(5, 4))
    assert not is_homogeneous_system(LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)]))
    assert not is_homogeneous_system(LinearSystem(3, 2, [(1, 0), (2, 0), (0, 1)]))


def test_canonicalize_first_coefficients():
    system = LinearSystem(3, 2, [(2, 1), (2, 0), (2, 2)])  # u = (2, 0) works
    assert is_homogeneous_system(system)
    canon, S = canonicalize(system)
    assert all(f[0] == 1 for f in canon.forms)
    assert mat_rank(S, 3) == 2
    assert np.array_equal((system.as_array() @ S) % 3, canon.as_array())


def test_canonicalize_rejects_inhomogeneous():
    with pytest.raises(ValidationError):
        canonicalize(LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)]))


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
    assert is_homogeneous_system(system)
    from fpuniform.linalg import nullspace

    for dep in nullspace(system.as_array().T, p):
        assert int(dep.sum()) % p == 0


def test_isomorphic_to_gl_image():
    system = arithmetic_progression_system(3, 3)
    S = np.array([[1, 1], [2, 1]], dtype=np.int64)  # invertible over F_3
    image = LinearSystem(3, 2, [tuple(r) for r in (system.as_array() @ S) % 3])
    report = are_isomorphic(system, image)
    assert report.decided and report.isomorphic
    assert report.mapping == (0, 1, 2)


def test_isomorphism_is_reflexive():
    system = LinearSystem(2, 3, [(1, 0, 0), (0, 1, 0), (1, 1, 1)])
    report = are_isomorphic(system, system)
    assert report.decided and report.isomorphic


def test_non_isomorphic_golden():
    # one system has a form equal to a sum of two others, the other does not
    report = are_isomorphic(
        arithmetic_progression_system(3, 3),
        LinearSystem(3, 2, [(1, 0), (0, 1), (1, 1)]),
    )
    assert report.decided and not report.isomorphic


def test_non_isomorphic_different_span_rank():
    a = LinearSystem(2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    b = LinearSystem(2, 3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    report = are_isomorphic(a, b)
    assert report.decided and not report.isomorphic


def test_isomorphism_undecided_above_cap():
    forms = [f for f in __import__("itertools").product(range(2), repeat=4) if any(f)][:11]
    a = LinearSystem(2, 4, forms)
    report = are_isomorphic(a, a)
    assert not report.decided and report.isomorphic is None


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
            if spans_intersect_trivially(arr[left], arr[right], system.p):
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
    assert fs.flag_in_span()
    out = FlaggedSystem(2, 3, [(1, 0, 0), (0, 1, 0)], (0, 0, 1))
    assert not out.flag_in_span()


def test_flag_need_not_be_a_member():
    fs = FlaggedSystem(2, 2, [(1, 0), (0, 1)], (1, 1))
    assert fs.flag not in fs.forms


def test_form_degree_goldens():
    tri = LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)])
    assert form_degree(tri, (1, 1)) == 2  # (x,y) and (y,x)
    assert form_degree(tri, (1, 0)) == 2  # over F_2: y+(x+y), (x+y)+y
    fs = FlaggedSystem(2, 1, [(1,)], (1,), (2,))
    assert form_degree(fs, (0,)) == 4  # 2*2 with multiplicity


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
    a = build_high_rank_flag(2, 3)
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


def test_high_rank_flag_2_3_golden():
    fs = build_high_rank_flag(2, 3)
    assert fs.m == 6
    assert fs.flag == (1, 0, 0)
    assert fs.forms == (
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
        (1, 0, 1),
        (1, 1, 0),
        (1, 1, 1),
    )
    assert form_degree(fs, fs.flag) == 6
    assert [form_degree(fs, f) for f in fs.forms] == [4] * 6
    assert connected_components(fs) == [list(range(6))]


@pytest.mark.parametrize(
    "p,d,m,flag_deg",
    [(2, 3, 6, 6), (2, 4, 14, 14), (3, 3, 11, 6), (3, 4, 33, 14)],
)
def test_high_rank_flag_degree_guarantees(p, d, m, flag_deg):
    fs = build_high_rank_flag(p, d)
    assert fs.m == m
    assert form_degree(fs, fs.flag) == flag_deg == 2 * (2 ** (d - 1) - 1)
    lo, hi = 2 ** (d - 1), 4 * p ** (d - 1)
    for f in fs.forms:
        assert lo <= form_degree(fs, f) <= hi
    assert len(connected_components(fs)) == 1
    assert fs.flag not in fs.forms
    assert fs.flag_in_span()


@pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (5, 3), (2, 5)])
def test_high_rank_flag_rejections(p, d):
    with pytest.raises(ValidationError):
        build_high_rank_flag(p, d)


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
    assert flagged.base_system() == plain


def test_without():
    system = arithmetic_progression_system(3, 3)
    rest, removed = system.without(1)
    assert removed == (1, 1)
    assert rest.forms == ((1, 0), (1, 2))
    only, removed = LinearSystem(2, 1, [(1,)]).without(0)
    assert only is None and removed == (1,)
