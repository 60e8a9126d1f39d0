import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projpair._jsontext import json_text


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


KEYS = st.one_of(
    st.text(),
    st.sampled_from(["%", "%s", "%%d", ", ", "a, b", '"', '", "', "\\", "\0", "é", "ключ",
                     "😀", "100%, 5%"]),
)
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -1e300]),
)
NON_STRING_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**60, 10**60), FLOATS,
)
SCALARS = st.one_of(NON_STRING_SCALARS, KEYS)


def rows(values):
    """Lists of dicts that all have the same keys."""
    return st.lists(KEYS, min_size=1, max_size=4, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({key: values for key in keys}),
                              max_size=6))


VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(KEYS, children, max_size=6),
        st.lists(NON_STRING_SCALARS, max_size=6),
        st.dictionaries(KEYS, NON_STRING_SCALARS, max_size=6),
        rows(NON_STRING_SCALARS),  # the table-row layout
        rows(children),
        st.lists(st.dictionaries(KEYS, NON_STRING_SCALARS, max_size=3), max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_json_text_matches_json_dumps(value):
    assert json_text(value) == dumps(value)


@pytest.mark.parametrize("value", [
    {"1%": 1, "a, b": [0.5, "x, y%s"], "é": {"ü": None}},
    [{"a": 1, "b": 2.5}, {"b": -0.0, "a": True}],  # equal keys, another order
    [{"a": 1}, {"b": 2}, {}],
    # the keys json.dumps writes for 0, 2.5, True and None, given here as str
    {"0": "int", "2.5": "float", "true": "bool"},
    {"null": "null"},
    {"NaN": math.nan, "Infinity": [math.inf, -math.inf]},  # non-finite values
    {"x": np.float64(0.1), "y": [np.float64(-0.0)]},  # float subclasses
    (1, (2, ()), {"t": (3.5,)}),
    [[], {}, [[]], [{}]],
    "plain %s, string",
    10**400,
])
def test_json_text_matches_json_dumps_on_edge_cases(value):
    assert json_text(value) == dumps(value)


@pytest.mark.parametrize("value", [
    np.int64(3),
    {"a": [1, np.int64(3)]},
    [{"a": 1}, {"a": np.bool_(True)}],
    {1, 2},
    {"a": {1, 2}},
    object(),
    {"a": b"bytes"},
    {(1, 2): "tuple key"},
    {1: "a", "b": 2},  # keys json.dumps cannot sort
    {None: 1, True: 2},
])
def test_json_text_raises_type_error_where_json_dumps_does(value):
    with pytest.raises(TypeError):
        dumps(value)
    with pytest.raises(TypeError):
        json_text(value)


@pytest.mark.parametrize("value", [
    {0: "int", 2.5: "float", True: "bool"},
    {None: "null"},
    {math.nan: 1, math.inf: [2]},
    {np.str_("a"): 1},
])
def test_json_text_raises_type_error_on_keys_that_are_not_str(value):
    # json.dumps writes these keys as strings; json_text writes keys of type str only
    dumps(value)
    with pytest.raises(TypeError, match="only dict keys of type str"):
        json_text(value)
