"""``cli._json_text`` writes what ``json.dumps(payload, indent=2)`` writes.

Every JSON output of the CLI goes through it, so it must agree with the
standard encoder byte for byte on every payload it accepts, and refuse
the rest with ``TypeError``.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempiric.cli import _json_text


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.text()
)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=5)
        | st.lists(st.lists(st.integers(), max_size=4), max_size=4)
        | st.lists(st.integers() | st.booleans(), max_size=6)
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_PAYLOADS)
def test_writer_matches_json_dumps(payload):
    assert _json_text(payload) == _dumps(payload)


@pytest.mark.parametrize(
    "payload",
    [
        [1, True],
        [[1], [True]],
        [[1, 2], [False, 3]],
        [True, False, None],
        [],
        {},
        [[]],
        [[1], []],
        ([1, 2], (3,)),
        {"kéy\x00\n": ["v al\x1f", "\U0001f600", "\"\\"]},
        {"a": {"b": [[1, 2], [3]], "c": {}}, "d": ""},
        [2**64, -(2**64) - 1, 10**100, [2**70, 0]],
        "text",
        7,
        None,
    ],
)
def test_writer_matches_json_dumps_on_edge_cases(payload):
    assert _json_text(payload) == _dumps(payload)


@pytest.mark.parametrize(
    "payload",
    [1.5, Fraction(1, 2), {1, 2}, [object()], {"a": [1, 2.0]}, [[1, 2], [3, 1.0]], {1: "a"}],
)
def test_writer_refuses_unsupported_types(payload):
    with pytest.raises(TypeError):
        _json_text(payload)
