import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansim.errors import NotFinite
from chansim.jsonio import (
    canonical_dumps,
    complex_matrix_from_json,
    digest,
    real_matrix_from_json,
)

# derandomized and without an example database, so every run draws the same
# examples and writes nothing to the working directory
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

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
        complex_matrix_from_json([[[1.0, 0.0], [0.0, bad]], [[0.0, 0.0], [1.0, 0.0]]])
    assert np.all(np.isfinite(complex_matrix_from_json([[[1.0, 0.0]]])))
