import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpuniform import tables
from fpuniform.errors import FormatError, ValidationError
from fpuniform.field import AffineMap, enumerate_vectors, index_of
from fpuniform.polynomials import Polynomial
from fpuniform.tables import (
    FunctionTable,
    parse_function_table,
    phase_table,
    random_real_table,
    random_unit_table,
)


def test_construction_validation():
    with pytest.raises(ValidationError):
        FunctionTable(2, 2, [1, 2, 3])  # wrong length
    with pytest.raises(ValidationError):
        FunctionTable(2, 10**10, [1, 2, 3, 4])  # refused without building 2^(10^10)
    with pytest.raises(ValidationError):
        FunctionTable(2, 2, [1, 2, 3, 4], codomain="integer")
    with pytest.raises(ValidationError):
        FunctionTable(2, 1, [1j, 0], codomain="real")


def test_immutability():
    f = FunctionTable.constant(2, 1, 1.0)
    with pytest.raises(AttributeError):
        f.p = 3
    with pytest.raises(ValueError):
        f.values[0] = 5


def test_constant_and_callable():
    f = FunctionTable.constant(3, 1, 0.5)
    assert f.codomain == "real"
    assert f.values.mean() == 0.5
    # values follow the enumeration order of the points
    g = FunctionTable(2, 2, [x[0] + 2 * x[1] for x in enumerate_vectors(2, 2)])
    assert g.values.tolist() == [0, 2, 1, 3]


def test_pointwise_algebra():
    f = FunctionTable(2, 1, [1, 2])
    g = FunctionTable(2, 1, [3, -1])
    assert (f * g).values.tolist() == [3, -2]
    assert (f + g).values.tolist() == [4, 1]
    assert (f - g).values.tolist() == [-2, 3]
    assert (2 * f).values.tolist() == [2, 4]


def test_pointwise_algebra_keeps_real_tables_real():
    # real with real, table or scalar, is real; a complex operand, or a table
    # whose codomain is complex although its values are real, makes it complex
    f, g = random_real_table(2, 2, seed=1), random_real_table(2, 2, seed=2)
    z = random_unit_table(2, 2, seed=3)
    for h in (f + g, f - g, f * g, f * 0.5, 0.5 * f, f + 1, f - 2.0, f * (3 + 0j)):
        assert h.codomain == "real"
    for h in (f + z, z - f, f * z, z * f, f * 1j, 1j * f, f - 1j):
        assert h.codomain == "complex"
    assert (FunctionTable(2, 1, [1, 2]) * 2).codomain == "complex"


def test_shift_golden():
    # x -> f(x + y) is the affine map with the identity matrix and offset y
    f = FunctionTable(3, 1, [10, 20, 30])
    assert f.apply_affine(AffineMap(3, 1, [[1]], [1])).values.tolist() == [20, 30, 10]
    assert f.apply_affine(AffineMap(3, 1, [[1]], [0])).values.tolist() == [10, 20, 30]


def test_apply_affine_matches_pointwise():
    f = random_unit_table(3, 2, seed=2)
    amap = AffineMap(3, 2, np.array([[1, 1], [0, 1]]), np.array([2, 0]))
    g = f.apply_affine(amap)
    for x in enumerate_vectors(3, 2):
        image = (amap.matrix @ np.array(x) + amap.offset) % 3
        assert g.values[index_of(3, x)] == f.values[index_of(3, image)]


def test_tensor_product_golden():
    f = FunctionTable(2, 1, [1, 2])
    g = FunctionTable(2, 1, [10, 100])
    t = f.tensor_product(g)
    assert t.n == 2
    # enumeration order (x, y): (0,0), (0,1), (1,0), (1,1)
    assert t.values.tolist() == [10, 100, 20, 200]


def test_tensor_product_pointwise():
    f = random_unit_table(2, 2, seed=3)
    g = random_unit_table(2, 1, seed=4)
    t = f.tensor_product(g)
    for x in enumerate_vectors(2, 2):
        for y in enumerate_vectors(2, 1):
            assert t.values[index_of(2, x + y)] == pytest.approx(
                f.values[index_of(2, x)] * g.values[index_of(2, y)]
            )


def test_phase_table_golden():
    f = phase_table(Polynomial(2, 2, {(1, 1): 1}))
    assert np.allclose(f.values, [1, 1, 1, -1])


def test_character_orthogonality():
    def character(alpha):
        return phase_table(Polynomial(3, 1, {(1,): alpha[0]})).values

    for a in enumerate_vectors(3, 1):
        for b in enumerate_vectors(3, 1):
            ip = np.vdot(character(b), character(a)) / 3
            assert ip == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)


def test_random_tables():
    u = random_unit_table(2, 3, seed=9)
    assert np.allclose(np.abs(u.values), 1.0)
    assert np.array_equal(u.values, random_unit_table(2, 3, seed=9).values)
    assert not np.array_equal(u.values, random_unit_table(2, 3, seed=10).values)
    r = random_real_table(2, 3, seed=9, low=0.2, high=0.8)
    assert r.codomain == "real"
    assert r.values.real.min() >= 0.2 and r.values.real.max() <= 0.8


def to_json(f):
    return json.dumps(f.to_json_dict(), sort_keys=True, separators=(",", ":"))


def test_json_round_trip_byte_identical():
    f = random_unit_table(2, 2, seed=7)
    text = to_json(f)
    g = parse_function_table(json.loads(text))
    assert to_json(g) == text
    assert np.array_equal(f.values, g.values)


def test_json_schema_required():
    obj = random_unit_table(2, 1, seed=1).to_json_dict()
    del obj["schema"]
    with pytest.raises(FormatError) as exc:
        parse_function_table(obj)
    assert "/schema" in str(exc.value)


def test_json_value_pointer():
    obj = FunctionTable.constant(2, 1, 1.0).to_json_dict()
    obj["values"][1] = "oops"
    with pytest.raises(FormatError) as exc:
        parse_function_table(obj)
    assert "/values/1" in str(exc.value)


def test_json_wrong_count():
    obj = FunctionTable.constant(2, 1, 1.0).to_json_dict()
    obj["values"].append([0.0, 0.0])
    with pytest.raises(FormatError) as exc:
        parse_function_table(obj)
    assert "/values" in str(exc.value)


def test_json_scalar_values_accepted():
    obj = {
        "schema": "fpuniform/v1",
        "p": 2,
        "n": 1,
        "codomain": "real",
        "values": [1, -0.5],
    }
    f = parse_function_table(obj)
    assert f.values.tolist() == [1, -0.5]


#: malformed `values` lists of a 4-point table, each first bad at entry 2
MALFORMED_VALUES = {
    "string": [1.0, 0.5, "0.5", 1.0],
    "string-in-pair": [[1.0, 0.0], [0.5, 0.0], [0.5, "0"], [1.0, 0.0]],
    "null": [1.0, 0.5, None, 1.0],
    "null-in-pair": [[1.0, 0.0], [0.5, 0.0], [None, 0.0], [1.0, 0.0]],
    "short-pair": [[1.0, 0.0], [0.5, 0.0], [0.5], [1.0, 0.0]],
    "long-pair": [[1.0, 0.0], [0.5, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0]],
    "nested": [[1.0, 0.0], [0.5, 0.0], [[0.5, 0.0]], [1.0, 0.0]],
    "ragged": [1.0, [0.5, 0.0], [0.5, [0.0]], 1.0],
    "object": [1.0, 0.5, {"re": 0.5}, 1.0],
    "two-bad": [1.0, [0.5, 0.0], "x", None],
}


@pytest.mark.parametrize("values", MALFORMED_VALUES.values(), ids=MALFORMED_VALUES.keys())
def test_json_malformed_values_point_at_the_first_bad_entry(values):
    obj = {"schema": "fpuniform/v1", "p": 2, "n": 2, "values": values}
    with pytest.raises(FormatError) as exc:
        parse_function_table(obj)
    assert exc.value.pointer == "/values/2"


@pytest.mark.parametrize(
    "values",
    [
        [1, -0.5, 2**63, 0.25],
        [[1, 0], [-0.5, 2], [0.0, -0.0], [2**63, 1e-300]],
        [1, [-0.5, 2], True, [False, True]],  # numbers and pairs mixed
        [True, False, True, True],
        [[True, False], [1, 2], [0.5, -1], [False, False]],
    ],
    ids=["numbers", "pairs", "mixed", "booleans", "boolean-pairs"],
)
def test_json_values_read_as_complex_numbers(values):
    # each entry reads as complex(entry) or complex(re, im), whichever way
    # the list is converted
    obj = {"schema": "fpuniform/v1", "p": 2, "n": 2, "values": values}
    expected = [complex(*v) if isinstance(v, list) else complex(v) for v in values]
    got = parse_function_table(obj).values
    assert got.tobytes() == np.array(expected, dtype=np.complex128).tobytes()


_NUMBER = st.one_of(
    st.booleans(), st.integers(-(2**70), 2**70), st.floats(), st.just(10**400)
)
_ENTRY = st.one_of(
    _NUMBER,
    st.lists(_NUMBER, min_size=2, max_size=2),
    st.lists(st.one_of(_NUMBER, st.none(), st.text(max_size=1), st.lists(_NUMBER)), max_size=3),
    st.none(),
    st.text(max_size=2),
)


def _outcome(read, entries):
    try:
        return np.asarray(read(entries), dtype=np.complex128).reshape(-1).tobytes()
    except FormatError as exc:
        return exc.pointer
    except OverflowError:  # an integer beyond float range, as complex() raises
        return "overflow"


@given(
    st.one_of(
        st.lists(_ENTRY, max_size=6),
        st.lists(_NUMBER, max_size=6),
        st.lists(st.lists(_NUMBER, min_size=2, max_size=2), max_size=6),
    )
)
@settings(max_examples=300, deadline=None)
def test_values_read_as_the_entry_by_entry_reference(entries):
    # one numpy conversion where it applies; the reference reads each entry
    def reference(entries):
        return [tables._parse_value(e, f"/values/{i}") for i, e in enumerate(entries)]

    assert _outcome(tables._parse_values, entries) == _outcome(reference, entries)


def test_json_rejects_garbage():
    with pytest.raises(FormatError):
        parse_function_table([1, 2, 3])
    with pytest.raises(FormatError) as exc:
        parse_function_table(
            {"schema": "fpuniform/v1", "p": 2, "n": 1, "codomain": "huge", "values": [1, 1]}
        )
    assert "/codomain" in str(exc.value)


@given(st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_json_round_trip_random(seed):
    f = random_real_table(2, 2, seed=seed)
    assert np.array_equal(parse_function_table(json.loads(to_json(f))).values, f.values)
