import json
import math
from typing import Any

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chansim.errors import DimensionMismatch, NotFinite
from chansim.jsonio import (
    _array,
    canonical_dumps,
    complex_matrices_from_json,
    digest,
    rational_from_json,
    real_matrix_from_json,
)

PROPERTY = settings(max_examples=200)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


# the canonical writer as it was before the single float pass: one recursive
# call and one format call per float; the oracle for byte identity
def _canonical_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("cannot serialize non-finite float")
    if x == 0.0:
        return "0.0"  # -0.0 too, so equal values share one text and digest
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def _write_canonical(obj: Any, out: list[str]) -> None:
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_canonical_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.append("{")
        for t, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError("canonical JSON requires string keys")
            if t:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _write_canonical(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for t, item in enumerate(seq):
            if t:
                out.append(",")
            _write_canonical(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot canonically serialize {type(obj).__name__}")


def _reference_dumps(obj: Any) -> str:
    pieces: list[str] = []
    _write_canonical(obj, pieces)
    return "".join(pieces)


def _outcome(dumps, value):
    """The text ``dumps`` writes for ``value``, or the type it raises."""
    try:
        return dumps(value)
    except Exception as exc:  # the type is what is compared
        return type(exc)


EDGE_FLOATS = [
    0.0, -0.0, 1.0, -7.0, 0.1, 1e15, 9999999999999998.0, -9999999999999998.0,
    1e16, -1e16, 2e16, 123456789012345680.0, 5e-324, -5e-324,
    1.7976931348623157e308, -1.7976931348623157e308,
]
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
# a leaf that keeps a nest of floats from being one block of floats
odd_leaves = st.sampled_from(
    [3, -1, True, False, None, np.float64(0.5), np.float64(-0.0),
     float("nan"), float("inf"), float("-inf")]
)
texts = st.text(alphabet=st.sampled_from("ab%s\x00\"\\\u00e9\n"), max_size=6) | st.sampled_from(
    ["%", "%s", "%%", "%(a)s", "\x00", "%.1f"]
)


def _nest(leaves: list, shape: list[int], sequence=list):
    if len(shape) == 1:
        return sequence(leaves)
    step = len(leaves) // shape[0] if shape[0] else 0
    return sequence(
        _nest(leaves[i * step:(i + 1) * step], shape[1:], sequence) for i in range(shape[0])
    )


@st.composite
def float_nests(draw):
    """A rectangular nest of floats up to 4-D, as lists, tuples or an
    ndarray, with at most one odd leaf in a list nest."""
    shape = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    size = math.prod(shape)
    leaves = draw(st.lists(finite_floats, min_size=size, max_size=size))
    form = draw(st.sampled_from(["list", "list", "odd", "tuple", "ndarray", "float32"]))
    if form == "ndarray":
        return np.array(leaves, dtype=float).reshape(shape)
    if form == "float32":
        with np.errstate(over="ignore"):  # the largest floats become inf
            return np.array(leaves, dtype=float).astype(np.float32).reshape(shape)
    if form == "odd" and size:
        leaves[draw(st.integers(0, size - 1))] = draw(odd_leaves)
    return _nest(leaves, shape, tuple if form == "tuple" else list)


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | finite_floats
    | odd_leaves
    | texts
    | st.sampled_from([np.int64(7), np.float32(0.1), np.float64(2.0), np.array(1.5), 1j])
    | st.sampled_from([np.arange(4).reshape(2, 2), np.array([True, False]), np.array([1j])])
)

documents = st.recursive(
    scalars | float_nests(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(texts, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=400)
@given(documents)
def test_canonical_dumps_matches_the_reference_writer(value):
    assert _outcome(canonical_dumps, value) == _outcome(_reference_dumps, value)


@PROPERTY
@given(json_values)
def test_canonical_round_trip(value):
    assert json.loads(canonical_dumps(value)) == value


def _negate_zeros(value):
    if isinstance(value, float) and value == 0.0:
        return -0.0
    if isinstance(value, list):
        return [_negate_zeros(v) for v in value]
    if isinstance(value, dict):
        return {k: _negate_zeros(v) for k, v in value.items()}
    return value


@PROPERTY
@given(json_values)
def test_negative_zero_has_the_digest_of_zero(value):
    assert digest(_negate_zeros([value, 0.0])) == digest([value, 0.0])


def test_negative_zero_is_written_as_zero():
    assert canonical_dumps([-0.0, 0.0]) == "[0.0,0.0]"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_real_matrix_rejects_non_finite(bad):
    with pytest.raises(NotFinite):
        real_matrix_from_json([[0.5, bad], [0.5, 0.5]])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_complex_matrix_rejects_non_finite(bad):
    with pytest.raises(NotFinite):
        complex_matrices_from_json([[[[1.0, 0.0], [0.0, bad]], [[0.0, 0.0], [1.0, 0.0]]]])
    assert np.all(np.isfinite(complex_matrices_from_json([[[[1.0, 0.0]]]])))


@pytest.mark.parametrize("bad", ["1/0", "x", None, [1, 2], {"a": 1}, True])
def test_rational_that_does_not_parse_raises_value_error(bad):
    with pytest.raises(ValueError):
        rational_from_json(bad)


# -- the array reader -----------------------------------------------------------

numbers = st.integers(-(2**60), 2**60) | st.floats(allow_nan=False)
# what JSON holds besides numbers and lists, numeric strings included
not_numbers = (
    st.booleans()
    | st.none()
    | st.text(max_size=3)
    | st.floats(allow_nan=False).map(repr)
    | st.dictionaries(st.text(max_size=3), numbers, max_size=2)
)


@st.composite
def rectangular_nests(draw) -> Any:
    """A number or a rectangular nest of lists of numbers, of any shape."""
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    size = math.prod(shape)
    leaves = draw(st.lists(numbers, min_size=size, max_size=size))
    return np.array(leaves, dtype=object).reshape(shape).tolist()


def _leaves(data) -> list:
    return [y for x in data for y in _leaves(x)] if isinstance(data, list) else [data]


@PROPERTY
@given(rectangular_nests())
def test_a_rectangular_nest_of_numbers_reads_as_numpy_reads_it(data):
    expected = np.array(data, dtype=float)
    result = _array(data)
    assert result.dtype == float and result.shape == expected.shape
    assert np.array_equal(result, expected)


@PROPERTY
@given(
    st.recursive(numbers | not_numbers, lambda inner: st.lists(inner, max_size=3), max_leaves=12)
)
def test_a_leaf_that_is_not_a_number_raises_type_error(data):
    # ragged or not: the type of a leaf is checked before the shape
    assume(any(type(x) not in (int, float) for x in _leaves(data)))
    with pytest.raises(TypeError, match="where a number belongs"):
        _array(data)
    with pytest.raises(TypeError, match="where a number belongs"):
        _array(data, int)


@PROPERTY
@given(rectangular_nests(), rectangular_nests(), st.booleans())
def test_a_ragged_nest_of_numbers_raises_dimension_mismatch(a, b, deeper):
    assume(np.shape(a) != np.shape(b))
    data = [[a, b]] if deeper else [a, b]
    with pytest.raises(DimensionMismatch):
        _array(data)


def test_a_decoder_array_takes_integers_only():
    assert _array([[0, 1], [1, 0]], int).dtype == int
    for bad in ([0, 1.0], [[0], [0.5]]):
        with pytest.raises(ValueError, match=r"^decoder entry is not an integer: "):
            _array(bad, int)
