"""``cli.PayloadEncoder`` writes exactly the bytes ``json`` writes.

The CLI writes every payload with ``json.dump(payload, handle, indent=2,
sort_keys=True, cls=PayloadEncoder)``.  The encoder renders the payload
types (dicts with ``str`` keys, lists, ``str``, ``int``, ``bool``,
``None``) itself, in one chunk, and leaves every other value to
``json``'s own encoder.
"""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charvar.cli import PayloadEncoder

# keys and strings that need escapes: quotes, backslashes, control
# characters, non-ASCII letters, astral characters and lone surrogates
TEXT = st.text(
    st.characters(codec=None, exclude_categories=()), max_size=12
) | st.sampled_from(
    ["", '"', "\\", "\n\t\x00\x1f", "é", "Möbius μ", "\U0001d6f9", "\ud800"]
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | TEXT
)
PAYLOADS = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(TEXT, children, max_size=5),
    max_leaves=40,
)


def fast_text(obj, **options) -> str:
    """The encoder's output, which must come as one chunk: no fallback to json."""
    chunks = PayloadEncoder(**options).iterencode(obj)
    assert isinstance(chunks, list) and len(chunks) == 1
    return chunks[0]


@settings(max_examples=300)
@given(PAYLOADS)
def test_payloads_match_json_byte_for_byte(obj):
    expected = json.dumps(obj, indent=2, sort_keys=True)
    assert fast_text(obj, indent=2, sort_keys=True) == expected
    handle = io.StringIO()
    json.dump(obj, handle, indent=2, sort_keys=True, cls=PayloadEncoder)
    assert handle.getvalue() == expected


@settings(max_examples=150)
@given(
    PAYLOADS,
    st.sampled_from([0, 1, 4, "", "\t", "--"]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([None, (",", ": "), (", ", ":"), (" ,", " = ")]),
)
def test_other_options_match_json(obj, indent, sort_keys, ensure_ascii, separators):
    options = dict(
        indent=indent, sort_keys=sort_keys, ensure_ascii=ensure_ascii,
        separators=separators,
    )
    assert fast_text(obj, **options) == json.dumps(obj, **options)


@pytest.mark.parametrize("obj", [
    {"x": 1.5, "y": float("nan"), "z": [float("-inf")]},
    {"pairs": (1, (2, "b")), "nested": {"k": [True, None]}},
    {"ints": {3: "c", 1: None, 2: False}},
    [1, {"a": 2**70}, {"b": {}}, []],
])
def test_other_types_are_left_to_json(obj):
    """Floats, tuples and non-str keys: ``json``'s bytes all the same."""
    expected = json.dumps(obj, indent=2, sort_keys=True)
    assert json.dumps(obj, indent=2, sort_keys=True, cls=PayloadEncoder) == expected


@pytest.mark.parametrize("obj", [
    {"a": {1, 2}},
    [object()],
    {"mixed": {1: "a", "b": 2}},
])
def test_unsupported_values_raise_typeerror_like_json(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        json.dumps(obj, indent=2, sort_keys=True, cls=PayloadEncoder)
    assert str(got.value) == str(expected.value)
