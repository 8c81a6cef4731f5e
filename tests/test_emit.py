"""Differential tests: the CLI's JSON writer against `json.dumps(v, indent=2, sort_keys=True)`.

`cli._dumps` quotes a list of strings as it stands when one pass over its
joined text finds only plain bytes, and escapes everything else with
json's own C escaper.  Its text must equal the standard encoder's on every
JSON value the CLI can print, whatever the strings hold.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from starshift.cli import _dumps

deterministic = settings(derandomize=True, database=None, max_examples=400)

# Every code point, lone surrogates included.
any_text = st.text(st.characters(exclude_categories=()))
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(1 << 200), max_value=1 << 200)
    | any_text
    | st.text(alphabet="01:")
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(any_text, inner, max_size=6),
    max_leaves=40,
)
# Lists of kernel-like texts, the bulk path, alone and inside a payload.
listings = st.lists(st.text(alphabet="01:", max_size=12), min_size=1, max_size=20)


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@deterministic
@given(json_values)
def test_any_json_value_is_written_as_json_dumps_writes_it(value):
    assert _dumps(value) == reference(value)


@deterministic
@given(listings, st.lists(any_text, min_size=1, max_size=5))
def test_string_lists_are_written_as_json_dumps_writes_them(listing, others):
    for value in (listing, others, listing + others, {"kind": "kernel", "elements": listing, "n": [listing]}):
        assert _dumps(value) == reference(value)


# Each must be escaped, so one of them anywhere in a list sends it down the escaping path.
UNPLAIN = ['"', "\\", "\x7f", "\xe9", "\u2028", "\ud800", "\U0001f600"] + [chr(c) for c in range(0x20)]


@pytest.mark.parametrize("char", UNPLAIN, ids=[hex(ord(c)) for c in UNPLAIN])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_one_unplain_character_in_a_string_list(char, where):
    items = ["01:10", ":0", "1:"]
    items[where] = items[where][:1] + char + items[where][1:]
    for value in (items, {"elements": items}, [items, [":1"]]):
        assert _dumps(value) == reference(value)


def test_plain_printable_ascii_is_written_as_it_stands():
    items = ["".join(chr(c) for c in range(0x20, 0x7F) if chr(c) not in '"\\'), ":"]
    assert _dumps(items) == reference(items) == '[\n  "%s",\n  ":"\n]' % items[0]


def test_empty_containers_and_constants():
    for value in ([], {}, [[]], {"a": {}}, [None, True, False, 0, -1], [""], ["", ""]):
        assert _dumps(value) == reference(value)


@pytest.mark.parametrize("value", [1.5, [0.0], {"a": -2.5}, ["01", 1.0], {"elements": [":0", float("nan")]}])
def test_floats_are_refused(value):
    with pytest.raises(TypeError):
        _dumps(value)


@pytest.mark.parametrize("value", [{1: "a"}, {None: 1}, object(), {"a": {1, 2}}, b"01", (":0", ":1")])
def test_other_values_are_refused(value):
    with pytest.raises(TypeError):
        _dumps(value)
