"""Lossless JSON codec for experiment payloads, plus content digests.

Plain ``json.dumps`` silently mangles the structures our experiments put in
``ExperimentReport.data``: integer dict keys become strings (Figure 3's
``group_counts``, the sweep's per-``P`` series), tuples become lists
(Figure 2's utilization profiles), and NumPy scalars are rejected outright.
The campaign cache stores reports as JSON on disk, so the round trip must be
*exact* — a cache hit has to hand back a report equal to the one the
experiment computed.

:func:`encode_value` therefore rewrites the offending structures into tagged
JSON objects that :func:`decode_value` can invert:

* a dict with non-string keys  -> ``{"__repro__": "dict", "items": [[k, v]...]}``
* a tuple                      -> ``{"__repro__": "tuple", "items": [...]}``
* a NumPy scalar               -> its Python equivalent (``.item()``)
* a NumPy array                -> tagged tuple of (nested) tuples

Everything JSON already handles passes through untouched, so cache entries
stay greppable.  :func:`canonical_json` fixes key order and separators, which
makes :func:`content_digest` a stable content address: the same payload
always hashes to the same key, on every platform and in every process.
:func:`content_digest` hashes that text in pieces as it walks the value, so
digesting a large state holds neither an encoded copy nor the whole string,
and a :class:`Members` value lets the caller produce an object's members
only as the walk reaches them.
"""

from __future__ import annotations

import hashlib
import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable

import numpy as np

from repro.exceptions import InvalidParameterError

__all__ = [
    "CANONICAL_ENCODER",
    "encode_value",
    "decode_value",
    "canonical_json",
    "content_digest",
    "Members",
]

#: Tag key marking an encoded container that plain JSON cannot represent.
TAG = "__repro__"

_JSON_SCALARS = (str, int, float, bool, type(None))

#: The canonical JSON encoder: sorted keys, compact separators, ASCII text.
#: Service wire lines and journal records are its output; the digest below
#: hashes the same text.
CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode_value(value: Any) -> Any:
    """Rewrite ``value`` into a JSON-representable tree (losslessly)."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, np.generic):  # np.float64, np.int64, np.bool_, ...
        return encode_value(value.item())
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, np.ndarray):
        return encode_value(tuple(value.tolist()))
    if isinstance(value, tuple):
        return {TAG: "tuple", "items": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value) and TAG not in value:
            return {k: encode_value(v) for k, v in value.items()}
        return {
            TAG: "dict",
            "items": [[encode_value(k), encode_value(v)] for k, v in value.items()],
        }
    raise InvalidParameterError(_unencodable(value))


def _unencodable(value: Any) -> str:
    return (
        f"cannot JSON-encode {type(value).__name__!r} value {value!r}; "
        "experiment data must hold str/int/float/bool/None, lists, tuples, "
        "dicts, or NumPy scalars/arrays"
    )


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, _JSON_SCALARS):
        return value
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if isinstance(value, dict):
        kind = value.get(TAG)
        if kind is None:
            return {k: decode_value(v) for k, v in value.items()}
        if kind == "tuple":
            return tuple(decode_value(v) for v in value["items"])
        if kind == "dict":
            return {decode_value(k): decode_value(v) for k, v in value["items"]}
        raise InvalidParameterError(f"unknown encoded kind {kind!r}")
    raise InvalidParameterError(f"cannot decode {type(value).__name__!r}")


def canonical_json(value: Any) -> str:
    """Deterministic JSON text for ``value`` (sorted keys, fixed separators)."""
    return json.dumps(encode_value(value), sort_keys=True, separators=(",", ":"))


class Members:
    """A JSON object that :func:`content_digest` reads member by member.

    ``pairs`` yields ``(key, value)`` with distinct string keys in sorted
    order, which is the order canonical JSON writes a dict's keys in, so
    the digest equals that of ``dict(pairs)``; each value is produced
    only when the walk reaches it.  Out-of-order, repeated, non-string
    or tag keys raise :class:`~repro.exceptions.InvalidParameterError`.
    Single-use, and for digests only: :func:`encode_value` rejects it.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[tuple[str, Any]]) -> None:
        self.pairs = pairs


def content_digest(value: Any) -> str:
    """SHA-256 hex digest of ``value``'s canonical JSON — its content address.

    Equal to ``sha256(canonical_json(value))``, but the text is produced in
    pieces by walking ``value`` with :func:`encode_value`'s rules and fed to
    the hash as it grows, so memory does not scale with ``value``.
    """
    sink = hashlib.sha256()
    out: list[str] = []
    _emit(value, out, sink)
    sink.update("".join(out).encode("utf-8"))
    return sink.hexdigest()


#: Text pieces buffered before they are hashed.
_FLUSH = 1024


def _encode_float(value: float) -> str:
    """A float as the JSON encoder writes it (``allow_nan`` literals)."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _emit(value: Any, out: list[str], sink: Any) -> None:
    """Append ``canonical_json(value)`` to ``out`` piece by piece.

    The exact JSON types take the fast branches below; everything else
    follows :func:`encode_value` in :func:`_emit_other`.  Full buffers are
    flushed into ``sink`` after each container.
    """
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
        return
    if kind is int:
        out.append(int.__repr__(value))
        return
    if kind is float:
        out.append(_encode_float(value))
        return
    if kind is bool:
        out.append("true" if value else "false")
        return
    if value is None:
        out.append("null")
        return
    if kind is list:
        _emit_items(value, out, sink)
    elif kind is dict and TAG not in value and all(type(k) is str for k in value):
        _emit_object(value, out, sink)
    else:
        _emit_other(value, out, sink)
    if len(out) >= _FLUSH:
        sink.update("".join(out).encode("utf-8"))
        out.clear()


def _emit_items(items: Any, out: list[str], sink: Any) -> None:
    sep = "["
    for item in items:
        out.append(sep)
        _emit(item, out, sink)
        sep = ","
    out.append("]" if items else "[]")


def _emit_object(value: dict[str, Any], out: list[str], sink: Any) -> None:
    sep = "{"
    for key in sorted(value):
        out.append(f"{sep}{encode_basestring_ascii(key)}:")
        _emit(value[key], out, sink)
        sep = ","
    out.append("}" if value else "{}")


def _emit_members(members: Members, out: list[str], sink: Any) -> None:
    sep = "{"
    last: str | None = None
    for key, item in members.pairs:
        if type(key) is not str or key == TAG or (last is not None and key <= last):
            raise InvalidParameterError(
                f"Members key {key!r} after {last!r}: keys must be distinct "
                f"strings in sorted order, other than {TAG!r}"
            )
        out.append(f"{sep}{encode_basestring_ascii(key)}:")
        _emit(item, out, sink)
        sep = ","
        last = key
    out.append("}" if last is not None else "{}")


def _emit_other(value: Any, out: list[str], sink: Any) -> None:
    """:func:`encode_value`'s rules for everything but the exact JSON types."""
    if isinstance(value, np.generic):  # np.float64, np.int64, np.bool_, ...
        _emit(value.item(), out, sink)
    elif isinstance(value, (str, int, float)):  # subclasses, e.g. an IntEnum
        out.append(CANONICAL_ENCODER.encode(value))
    elif isinstance(value, np.ndarray):
        _emit(tuple(value.tolist()), out, sink)
    elif isinstance(value, tuple):
        out.append(f'{{"{TAG}":"tuple","items":')
        _emit_items(value, out, sink)
        out.append("}")
    elif isinstance(value, list):
        _emit_items(value, out, sink)
    elif isinstance(value, dict):
        if all(isinstance(k, str) for k in value) and TAG not in value:
            _emit_object(value, out, sink)
            return
        out.append(f'{{"{TAG}":"dict","items":[')
        for index, (key, item) in enumerate(value.items()):
            out.append(",[" if index else "[")
            _emit(key, out, sink)
            out.append(",")
            _emit(item, out, sink)
            out.append("]")
        out.append("]}")
    elif isinstance(value, Members):
        _emit_members(value, out, sink)
    else:
        raise InvalidParameterError(_unencodable(value))
