"""The durable log's record format: one checksummed line per committed event.

Every record is a self-verifying unit: a monotonically increasing
sequence number, a ``kind`` tag, a JSON payload and a CRC-32 over all of
it.  A payload's tuples are tagged ``{"$tuple": [...]}`` and the classes
of :func:`journal_types` ``{"$<Name>": [field, ...]}``; any other value
JSON cannot hold is refused at append, so a payload decodes to exactly
what was appended.  Decoding verifies the format version, the sequence
number's position and the checksum before the payload is decoded, so a
flipped bit or a line torn by a crash is caught *before* it can
masquerade as state.

The distinction the recovery path leans on lives here too:

* a record that fails to decode at the **end** of the log is a *torn
  tail* — the signature of a crash mid-append on an append-only file —
  and :class:`~repro.errors.StorageError` reports it with
  ``torn_tail=True`` so recovery may trim it on explicit request;
* a record that fails **anywhere earlier** is real corruption; the error
  carries the length of the verified prefix and recovery refuses to
  load anything rather than load part of the history silently.
"""

from __future__ import annotations

import functools
import json
import zlib
from dataclasses import dataclass, fields
from typing import Any

from repro.errors import StorageError

#: Version of the on-disk record + snapshot format.  Bumped on any
#: incompatible change, including a change to a field a snapshot pickles
#: and a change to what replaying a log builds (version 3: new items go
#: to the least-loaded host, and a planar unit with no anchor segment is
#: placed by a hash of its key); a record, store or snapshot of another
#: version is refused with a :class:`~repro.errors.StorageError` (version
#: skew) instead of guessed at.
FORMAT_VERSION = 3

#: Record kinds that mutate cluster state and are re-executed on replay.
ACTION_KINDS = frozenset({"create", "bulk_load", "batch", "churn", "repair", "configure_churn"})

#: Record kinds that are audit/metadata only: ``membership`` records are
#: verified (not applied) during replay, ``note`` records are skipped.
AUDIT_KINDS = frozenset({"membership", "note"})

#: Compact JSON text, as both backends write it (one encoder, built once).
dumps = json.JSONEncoder(separators=(",", ":")).encode

_TUPLE_TAG = "$tuple"
_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def journal_types() -> dict[str, tuple[type, tuple[str, ...]]]:
    """The only classes a payload may hold besides JSON's: tag -> (class, fields).

    Imported on first use: the structure packages register themselves
    with ``repro.api``, which imports this module.
    """
    from repro.core.ranges import Interval
    from repro.planar.segments import Segment
    from repro.planar.skip_trapezoid import Window
    from repro.spatial.geometry import Box, HyperCube
    from repro.strings.alphabet import Alphabet
    from repro.strings.skip_trie import PrefixRange

    return {
        f"${cls.__name__}": (cls, tuple(field.name for field in fields(cls)))
        for cls in (Interval, Box, HyperCube, Segment, Window, PrefixRange, Alphabet)
    }


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One committed event of a cluster's history."""

    seq: int
    """Zero-based position in the log; dense and strictly increasing."""

    kind: str
    """One of :data:`ACTION_KINDS` | :data:`AUDIT_KINDS`."""

    payload: dict[str, Any]
    """Kind-specific data (operation lists, churn requests, config)."""

    @property
    def is_action(self) -> bool:
        return self.kind in ACTION_KINDS


def encode_value(value: Any) -> Any:
    """The JSON form of a payload value; raises on anything not journalable."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is list:
        return [encode_value(item) for item in value]
    if kind is tuple:
        return {_TUPLE_TAG: [encode_value(item) for item in value]}
    if kind is dict:
        encoded = {}
        for key, item in value.items():
            if type(key) is not str or key.startswith("$"):
                raise StorageError(f"cannot journal a dict with key {key!r}")
            encoded[key] = encode_value(item)
        return encoded
    tag = f"${kind.__name__}"
    cls, names = journal_types().get(tag, (None, ()))
    if cls is not kind:
        raise StorageError(f"cannot journal a value of type {kind.__name__}: {value!r}")
    return {tag: [encode_value(getattr(value, name)) for name in names]}


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`; raises on an unknown or malformed tag."""
    kind = type(value)
    if kind is list:
        return [decode_value(item) for item in value]
    if kind is not dict:
        return value
    if not any(key.startswith("$") for key in value):
        return {key: decode_value(item) for key, item in value.items()}
    if len(value) != 1:
        raise StorageError(f"a tag shares its object with other keys: {list(value)!r}")
    ((tag, body),) = value.items()
    if type(body) is not list:
        raise StorageError(f"tagged value {tag!r} holds {body!r}, not a list")
    items = [decode_value(item) for item in body]
    if tag == _TUPLE_TAG:
        return tuple(items)
    cls, names = journal_types().get(tag, (None, ()))
    if cls is None:
        raise StorageError(f"unknown tag {tag!r}")
    if len(items) != len(names):
        raise StorageError(f"tagged {cls.__name__} has {len(items)} field(s), not {len(names)}")
    try:
        return cls(*items)
    except (TypeError, ValueError) as exc:
        raise StorageError(f"tagged {cls.__name__} is invalid: {exc}") from exc


def check_version(version: Any, what: str) -> None:
    """Refuse ``what`` (a record, store or snapshot) written by another format version."""
    if version != FORMAT_VERSION:
        raise StorageError(
            f"{what} has format version {version!r}; this build reads "
            f"version {FORMAT_VERSION} (version skew)"
        )


def _crc(seq: int, kind: str, text: str) -> int:
    return zlib.crc32(f"{FORMAT_VERSION}:{seq}:{kind}:{text}".encode("utf-8"))


def encode_record(record: LogRecord) -> dict[str, Any]:
    """Encode a record as a JSON-able dict with an embedded checksum."""
    if type(record.payload) is not dict:
        raise StorageError(f"a log record payload must be a dict, not {record.payload!r}")
    payload = encode_value(record.payload)
    return {
        "v": FORMAT_VERSION,
        "seq": record.seq,
        "kind": record.kind,
        "payload": payload,
        "crc": _crc(record.seq, record.kind, dumps(payload)),
    }


def decode_record(obj: Any, *, expected_seq: int) -> LogRecord:
    """Verify and decode one encoded record.

    Raises :class:`~repro.errors.StorageError` on version skew, a
    checksum mismatch, a sequence-number gap, or a malformed entry.  The
    caller (the backend's ``records()``) attaches torn-tail/prefix
    context; this function only says *what* is wrong with the record.
    """
    if not isinstance(obj, dict):
        raise StorageError(f"log record {expected_seq} is not an object: {obj!r}")
    check_version(obj.get("v"), f"log record {expected_seq}")
    try:
        seq = obj["seq"]
        kind = obj["kind"]
        payload = obj["payload"]
        crc = obj["crc"]
    except KeyError as exc:
        raise StorageError(
            f"log record {expected_seq} is missing field {exc.args[0]!r}"
        ) from None
    if seq != expected_seq:
        raise StorageError(
            f"log record at position {expected_seq} carries seq {seq!r} "
            "(reordered or dropped records)"
        )
    if type(kind) is not str:
        raise StorageError(f"log record {seq} has kind {kind!r}, not a string")
    if _crc(seq, kind, dumps(payload)) != crc:
        raise StorageError(f"log record {seq} failed its checksum")
    try:
        payload = decode_value(payload)
    except StorageError as exc:
        raise StorageError(f"log record {seq} payload is undecodable: {exc}") from exc
    if type(payload) is not dict:
        raise StorageError(f"log record {seq} payload is not an object")
    return LogRecord(seq=seq, kind=kind, payload=payload)
