"""The JSON codec must invert exactly on everything experiments produce."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.runtime.serialization import (
    CANONICAL_ENCODER,
    TAG,
    Members,
    canonical_json,
    content_digest,
    decode_value,
    encode_value,
)


def roundtrip(value):
    return decode_value(json.loads(json.dumps(encode_value(value))))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -3,
            1.5,
            "text",
            [1, 2, 3],
            {"a": 1, "b": [2.5, None]},
        ],
    )
    def test_plain_json_passthrough(self, value):
        assert roundtrip(value) == value
        assert encode_value(value) == value

    def test_tuple(self):
        value = (1, "two", 3.0)
        out = roundtrip(value)
        assert out == value
        assert isinstance(out, tuple)

    def test_nested_tuples_in_lists(self):
        value = {"profile": [(0.0, 1), (0.5, 2), (1.0, 0)]}
        out = roundtrip(value)
        assert out == value
        assert all(isinstance(p, tuple) for p in out["profile"])

    def test_int_keys(self):
        value = {1: 8, 2: 4, 3: 2, 4: 1}  # Figure 3's group_counts
        out = roundtrip(value)
        assert out == value
        assert all(isinstance(k, int) for k in out)

    def test_mixed_and_collision_prone_keys(self):
        value = {1: "int", "1": "str"}
        out = roundtrip(value)
        assert out == value
        assert set(map(type, out)) == {int, str}

    def test_tuple_keys(self):
        value = {(1, 2): "pair"}
        assert roundtrip(value) == value

    def test_numpy_scalars_become_python(self):
        out = roundtrip({"f": np.float64(1.5), "i": np.int64(7), "b": np.bool_(True)})
        assert out == {"f": 1.5, "i": 7, "b": True}
        assert type(out["i"]) is int
        assert type(out["b"]) is bool

    def test_numpy_array_becomes_tuple(self):
        out = roundtrip({"a": np.array([1.0, 2.0])})
        assert out == {"a": (1.0, 2.0)}

    def test_infinity_survives(self):
        assert roundtrip({"lim": float("inf")}) == {"lim": float("inf")}

    def test_unencodable_type_rejected(self):
        with pytest.raises(InvalidParameterError, match="cannot JSON-encode"):
            encode_value({"bad": object()})

    def test_unknown_tag_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown encoded kind"):
            decode_value({"__repro__": "mystery", "items": []})


class TestDigest:
    def test_key_order_insensitive(self):
        assert content_digest({"a": 1, "b": 2}) == content_digest({"b": 2, "a": 1})

    def test_value_sensitive(self):
        assert content_digest({"a": 1}) != content_digest({"a": 2})

    def test_type_sensitive(self):
        # A tuple is not a list, an int key is not a str key.
        assert content_digest((1, 2)) != content_digest([1, 2])
        assert content_digest({1: "x"}) != content_digest({"1": "x"})

    def test_canonical_json_is_compact_and_sorted(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text == '{"a":2,"b":1}'


def reference_digest(value):
    """The digest as the one-shot canonical text defines it."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


_texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8) | st.sampled_from(
    ["", "é", "日本", "\u2028", "a\"b\\c", "\n\t", "\x00", "😀"]
)
_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e308, 5e-324]
)
_numpy_scalars = st.one_of(
    _floats.map(np.float64),
    st.floats(width=32, allow_nan=True).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_),
)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), _floats, _texts, _numpy_scalars
)
_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_texts, children, max_size=5),
        st.dictionaries(st.integers(-5, 5), children, max_size=4),
        st.dictionaries(_texts, children, max_size=3).map(lambda d: {TAG: "x", **d}),
    ),
    max_leaves=25,
)


class TestStreamedDigest:
    """``content_digest`` hashes ``canonical_json`` without building it."""

    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_equals_digest_of_canonical_json(self, value):
        assert content_digest(value) == reference_digest(value)

    @pytest.mark.parametrize(
        "value",
        [
            {"a": [], "b": {}, "c": (), "d": [[]], "e": [{}]},
            {"x": np.array([[1.0, 2.0], [3.0, 4.0]])},
            {"n": np.array([], dtype=float)},
            {(1, "a"): {2.5: None}, None: True},
            {"__repro__": "tuple", "items": [1]},
            [float("nan"), -0.0, float("-inf"), np.float64("nan")],
            {"é": "ü", "k\u2028": "\U0001f600"},
            2**100,
            "plain",
        ],
    )
    def test_edge_cases(self, value):
        assert content_digest(value) == reference_digest(value)

    def test_subclassed_scalars_and_containers(self):
        from collections import OrderedDict, namedtuple
        from enum import IntEnum

        class Level(IntEnum):
            LOW = 1

        class Name(str):
            pass

        Pair = namedtuple("Pair", "a b")
        value = OrderedDict(
            [("z", Level.LOW), (Name("k"), Name("v")), ("p", Pair(1, 2.0)), ("y", np.str_("s"))]
        )
        assert content_digest(value) == reference_digest(value)

    def test_long_input_crosses_the_flush_boundary(self):
        value = {"rows": [[i, float(i) / 3, f"t{i}"] for i in range(5000)]}
        assert content_digest(value) == reference_digest(value)

    def test_unencodable_type_rejected(self):
        with pytest.raises(InvalidParameterError, match="cannot JSON-encode"):
            content_digest({"ok": [1, 2], "bad": object()})

    def test_memory_does_not_hold_the_text(self):
        value = {f"task{i}": {"state": "done", "start": i * 0.5, "deps": [str(i)]}
                 for i in range(20_000)}
        text_bytes = len(canonical_json(value))
        tracemalloc.start()
        try:
            content_digest(value)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text_bytes > 1_000_000
        assert peak < text_bytes / 4

    def test_encoder_matches_canonical_json(self):
        value = {"b": [1, 2.5, None], "a": {"é": float("inf")}}
        assert CANONICAL_ENCODER.encode(value) == canonical_json(value)


def streamed(value):
    """``value`` with every string-keyed, untagged dict read as :class:`Members`."""
    if isinstance(value, list):
        return [streamed(v) for v in value]
    if type(value) is dict and TAG not in value and all(type(k) is str for k in value):
        return Members((k, streamed(value[k])) for k in sorted(value))
    return value


class TestMembers:
    """A :class:`Members` object hashes as the dict its pairs build."""

    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_digest_equals_that_of_the_dict(self, value):
        assert content_digest(streamed(value)) == reference_digest(value)

    def test_members_are_produced_as_the_walk_reaches_them(self):
        produced = []

        def pairs():
            for key in ("a", "b", "c"):
                produced.append(key)
                yield key, {"row": len(produced)}

        assert content_digest({"rows": Members(pairs()), "z": 1}) == reference_digest(
            {"rows": {"a": {"row": 1}, "b": {"row": 2}, "c": {"row": 3}}, "z": 1}
        )
        assert produced == ["a", "b", "c"]

    def test_empty(self):
        assert content_digest(Members(iter(()))) == reference_digest({})

    @pytest.mark.parametrize(
        "pairs",
        [[("b", 1), ("a", 2)], [("a", 1), ("a", 2)], [(1, 2)], [(TAG, "tuple")]],
    )
    def test_keys_must_be_distinct_sorted_untagged_strings(self, pairs):
        with pytest.raises(InvalidParameterError, match="sorted order"):
            content_digest(Members(pairs))

    def test_only_digests_read_it(self):
        with pytest.raises(InvalidParameterError, match="cannot JSON-encode"):
            canonical_json({"rows": Members([("a", 1)])})
