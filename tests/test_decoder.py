"""Differential test of the function-file decoder against the stdlib reader.

Function files used to be read by ``json.load`` on a UTF-8 text stream.
``cli._decode_json`` decodes them with orjson and falls back to the stdlib
decoder.  It must accept exactly the documents the old reader accepted and
return the same objects, floats bit for bit, with two listed differences:

* ``"big int"``: an integer outside [-2**63, 2**64) that a double can hold
  comes back as that double;
* ``"deeper"``: a document nested deeper than the stdlib decoder goes, but
  no deeper than ``cli._ORJSON_DEPTH``, is accepted.

Any other difference fails the test.
"""

import io
import json
import struct

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from bohrlab.cli import _ORJSON_DEPTH, _decode_json, _nesting_bound  # noqa: E402


def _old_reader(raw: bytes):
    return json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))


def _outcome(reader, raw: bytes):
    try:
        return True, reader(raw)
    except (ValueError, RecursionError) as exc:  # both exit 3 in the CLI
        return False, type(exc)


def _depth(obj) -> int:
    deepest, stack = 0, [(obj, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, (list, dict)):
            depth += 1
            stack.extend((child, depth) for child in
                         (node.values() if isinstance(node, dict) else node))
        deepest = max(deepest, depth)
    return deepest


def _differences(old, new) -> set:
    """The listed differences between two decoded documents; fails on any other."""
    found, stack = set(), [(old, new)]
    while stack:
        a, b = stack.pop()
        if type(a) is int and type(b) is float and not -(2**63) <= a < 2**64:
            assert b == float(a)
            found.add("big int")
            continue
        assert type(b) is type(a), (a, b)
        if isinstance(a, float):
            assert struct.pack("<d", b) == struct.pack("<d", a), (a, b)
        elif isinstance(a, list):
            assert len(b) == len(a)
            stack.extend(zip(a, b))
        elif isinstance(a, dict):
            assert list(b) == list(a)  # same keys, same order
            stack.extend((a[key], b[key]) for key in a)
        else:
            assert b == a, (a, b)
    return found


def _compare(raw: bytes) -> set:
    """Decode ``raw`` both ways; the listed differences found (empty if none)."""
    old_ok, old = _outcome(_old_reader, raw)
    new_ok, new = _outcome(_decode_json, raw)
    if not (old_ok or new_ok):
        return set()
    assert new_ok, f"the new reader refuses what the old one took: {new.__name__}"
    if not old_ok:
        assert old is RecursionError and _depth(new) <= _ORJSON_DEPTH
        return {"deeper"}
    return _differences(old, new)


def _nested(levels: int) -> bytes:
    return b"[" * levels + b"]" * levels


_TOKENS = {
    "NaN": (b"NaN", set()),
    "Infinity": (b"[Infinity, -Infinity]", set()),
    "1e400": (b"[1e400, -1e400]", set()),
    "-0.0": (b"-0.0", set()),
    "5e-324": (b"[5e-324, 2.4703282292062327e-324, 1e-400]", set()),
    "17-digit floats": (
        b"[0.10000000000000001, 0.30000000000000004, 2.2250738585072011e-308, "
        b"1.7976931348623157e308, -0.49999999999999994, 9007199254740993.0]",
        set(),
    ),
    "ints at 2**63": (
        b"[9223372036854775807, 9223372036854775808, -9223372036854775808]", set()
    ),
    "ints at 2**64": (
        b"[18446744073709551615, 18446744073709551616, -9223372036854775809]",
        {"big int"},
    ),
    "400-digit int": (b"1" + b"0" * 399, set()),
    "5000-digit int": (b"7" * 5000, set()),
    "lone surrogate": (b'["\\ud800", {"\\udfff": 1}]', set()),
    "surrogate pair": (b'"\\ud83d\\ude00"', set()),
    "BOM": (b'\xef\xbb\xbf{"m": 0}', set()),
    "UTF-16": ('{"m": 0}'.encode("utf-16"), set()),
    "UTF-16-LE": ('{"m": 0}'.encode("utf-16-le"), set()),
    "invalid UTF-8": (b'"\xff"', set()),
    "encoded surrogate": (b'"\xed\xa0\x80"', set()),
    "depth 1030": (_nested(1030), set()),
}


class TestTokenTable:
    @pytest.mark.parametrize("name", list(_TOKENS))
    def test_listed_differences_only(self, name):
        raw, expected = _TOKENS[name]
        assert _compare(raw) == expected

    @pytest.mark.parametrize("levels", [990, _ORJSON_DEPTH])
    def test_nesting_up_to_the_cap_is_accepted(self, levels):
        # The stdlib decoder takes 990 levels or not, depending on how deep
        # the caller's stack already is; the new reader always takes them.
        assert _compare(_nested(levels)) <= {"deeper"}
        assert _outcome(_decode_json, _nested(levels))[0]

    def test_brackets_in_strings_do_not_hide_depth(self):
        # Closing brackets in a string would cancel the opening ones after it
        # if strings were not skipped; an escape makes every opener count.
        deep = b"[" * 1100 + b"]" * 1100
        assert _nesting_bound(b'["' + b"]" * 2000 + b'", ' + deep + b"]") == 1101
        escaped = b'["\\"' + b"]" * 2000 + b'", ' + deep + b"]"
        assert _nesting_bound(escaped) == 1101
        assert _nesting_bound(b'{"a": "' + b"[" * 2000 + b'"}') == 1


_TEXT = st.text(max_size=6) | st.sampled_from(["[", "]", "{", "}", '"', "\\", "\ud800"])
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.sampled_from([2**63, 2**64, -(2**63) - 1, 10**308, 10**400])
    | st.floats()
    | _TEXT
)
_VALUES = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_TEXT, kids, max_size=4),
    max_leaves=20,
)


@st.composite
def _documents(draw):
    text = json.dumps(draw(_VALUES), ensure_ascii=draw(st.booleans()),
                      indent=draw(st.none() | st.integers(0, 2)))
    return text.encode("utf-8", "surrogatepass")


_DIGITS = st.text("0123456789", min_size=1, max_size=30)
_NUMBERS = st.builds(
    lambda sign, whole, frac, exp: f"{sign}{whole.lstrip('0') or '0'}{frac}{exp}".encode(),
    st.sampled_from(["", "-"]),
    _DIGITS,
    st.just("") | _DIGITS.map(lambda digits: "." + digits),
    st.just("") | st.builds(lambda e, sign, power: f"{e}{sign}{power}",
                            st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
                            st.integers(0, 999)),
)

_SOUP = st.lists(
    st.sampled_from([
        b"[", b"]", b"{", b"}", b",", b":", b'"', b'"a"', b"\\", b"1", b"-0", b"1e400",
        b"NaN", b"Infinity", b"-", b".5", b" ", b"\xff", b"\xef\xbb\xbf", b"true",
        b"nul", b'"\\ud800"', b"18446744073709551616",
    ]),
    max_size=12,
).map(b"".join)

_SETTINGS = hypothesis.settings(max_examples=300, deadline=None, database=None,
                                derandomize=True)


class TestDifferential:
    @_SETTINGS
    @hypothesis.given(_documents())
    def test_documents(self, raw):
        assert _compare(raw) <= {"big int"}
        ok, obj = _outcome(_decode_json, raw)  # a surrogate encoded raw is refused
        assert not ok or _nesting_bound(raw) >= _depth(obj)

    @_SETTINGS
    @hypothesis.given(_NUMBERS)
    def test_numbers_bit_identical(self, raw):
        assert _compare(raw) <= {"big int"}

    @_SETTINGS
    @hypothesis.given(_SOUP)
    def test_token_soup(self, raw):
        assert _compare(raw) <= {"big int"}
