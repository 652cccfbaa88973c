"""The durable log's record format: one checksummed line per committed event.

Every record is a self-verifying unit: a monotonically increasing
sequence number, a ``kind`` tag, a pickled-and-base64 payload (payloads
carry arbitrary structure items — ``HyperCube`` corners, ``LineSegment``
endpoints — which JSON cannot represent), and a CRC-32 over all of it.
Decoding verifies the format version, the sequence number's position and
the checksum before the payload is ever unpickled, so a flipped bit or a
line torn by a crash is caught *before* it can masquerade as state.

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

import base64
import pickle
import zlib
from dataclasses import dataclass
from typing import Any

from repro.errors import StorageError

#: Version of the on-disk record + snapshot format.  Bumped on any
#: incompatible change; decoding a record or snapshot written by a
#: different version raises :class:`~repro.errors.StorageError` (version
#: skew) instead of guessing.
FORMAT_VERSION = 1

#: Record kinds that mutate cluster state and are re-executed on replay.
#: Only stores written by the retired immediate mode hold ``single``.
ACTION_KINDS = frozenset(
    {"create", "bulk_load", "batch", "single", "churn", "repair", "configure_churn"}
)

#: Record kinds that are audit/metadata only: ``membership`` records are
#: verified (not applied) during replay, ``note`` records are skipped.
AUDIT_KINDS = frozenset({"membership", "note"})


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


def _payload_blob(payload: dict[str, Any]) -> str:
    return base64.b64encode(
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _crc(seq: int, kind: str, blob: str) -> int:
    return zlib.crc32(f"{FORMAT_VERSION}:{seq}:{kind}:{blob}".encode("ascii"))


def encode_record(record: LogRecord) -> dict[str, Any]:
    """Encode a record as a JSON-able dict with an embedded checksum."""
    blob = _payload_blob(record.payload)
    return {
        "v": FORMAT_VERSION,
        "seq": record.seq,
        "kind": record.kind,
        "payload": blob,
        "crc": _crc(record.seq, record.kind, blob),
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
    version = obj.get("v")
    if version != FORMAT_VERSION:
        raise StorageError(
            f"log record {expected_seq} has format version {version!r}; "
            f"this build reads version {FORMAT_VERSION} (version skew)"
        )
    try:
        seq = obj["seq"]
        kind = obj["kind"]
        blob = obj["payload"]
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
    if not isinstance(blob, str) or _crc(seq, kind, blob) != crc:
        raise StorageError(f"log record {seq} failed its checksum")
    try:
        payload = pickle.loads(base64.b64decode(blob.encode("ascii")))
    except Exception as exc:
        raise StorageError(f"log record {seq} payload is undecodable: {exc}") from exc
    return LogRecord(seq=seq, kind=kind, payload=payload)
