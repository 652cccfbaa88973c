"""Pluggable durability backends: where the log and snapshots live.

Two implementations of one small :class:`StorageBackend` contract:

* :class:`JsonlStorage` — a directory holding an append-only
  ``log.jsonl`` (one checksummed JSON line per committed event) plus
  ``snapshot-<upto>.json`` files written atomically via rename.  The
  log is human-greppable and its failure modes are the classic
  append-only ones (a torn final line after a crash).
* :class:`SqliteStorage` — a single ``.sqlite`` file with ``log`` /
  ``snapshots`` / ``meta`` tables; appends are transactions, so a crash
  leaves a committed prefix with no torn line at all.

**Crash consistency.**  Records are appended only *after* the event they
describe has committed in memory, and every append is flushed to the OS
before it returns — a SIGKILL can therefore lose at most the event that
was mid-append (the torn tail), never reorder or interleave.  ``fsync``
is deliberately *not* issued per record (that would put a disk round
trip on every batch); :meth:`StorageBackend.sync` flushes everything to
stable storage and is called by ``Cluster.save()`` and ``close()``.
Pass ``sync=True`` to a backend to force per-append fsync when the
threat model includes machine (not just process) crashes.

Reads verify everything: :meth:`StorageBackend.records` checks every
record's version, position and checksum and raises a typed
:class:`~repro.errors.StorageError` — with ``torn_tail=True`` and the
clean-prefix length when only the final record is damaged — rather than
ever returning a silently shortened history.
"""

from __future__ import annotations

import base64
import json
import os
import sqlite3
import zlib
from abc import ABC, abstractmethod
from typing import Any, Callable, Sequence

from repro.errors import StorageError
from repro.storage.record import (
    FORMAT_VERSION,
    LogRecord,
    check_version,
    decode_record,
    dumps,
    encode_record,
)
from repro.storage.snapshot import check_manifest

#: Path suffixes routed to :class:`SqliteStorage` by :func:`open_storage`.
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def _decode_all(entries: Sequence[Any], parse: Callable[[Any], Any], where: str) -> list[LogRecord]:
    """Parse, verify and decode every log entry, classifying the first failure.

    A failure on the *final* entry is reported as a torn tail (what a
    crash mid-append leaves behind); a failure anywhere earlier is
    corruption.  Either way the error carries how many leading records
    verified cleanly — never a partial silent load.  An entry written by
    another format version is neither: it is refused as version skew.
    """
    records: list[LogRecord] = []
    last = len(entries) - 1
    for index, raw in enumerate(entries):
        entry = None
        try:
            try:
                entry = parse(raw)
            except (TypeError, ValueError) as exc:
                raise StorageError(f"unparseable log entry: {exc}") from exc
            records.append(decode_record(entry, expected_seq=index))
        except StorageError as exc:
            if isinstance(entry, dict) and entry.get("v") != FORMAT_VERSION:
                # Another format version is not damage: never trimmable.
                raise StorageError(f"{where}: {exc}") from exc
            torn = index == last
            what = "torn tail" if torn else "corruption"
            raise StorageError(
                f"{what} in {where} at record {index} "
                f"({index} of {len(entries)} records verify cleanly): {exc}",
                recoverable_records=index,
                torn_tail=torn,
            ) from exc
    return records


def _check_blob(blob: bytes, crc: int, where: str) -> bytes:
    if zlib.crc32(blob) != crc:
        raise StorageError(f"snapshot blob in {where} failed its checksum")
    return blob


class StorageBackend(ABC):
    """The contract the durability layer programs against.

    A backend stores two things: a dense append-only sequence of
    :class:`~repro.storage.record.LogRecord` and zero or more snapshots,
    each tagged with ``upto`` — the number of log records the snapshot
    covers (recovery replays the records from ``upto`` onward).
    """

    #: Filesystem location (directory or file) backing this store.
    path: str

    def __init__(self, path: str, sync: bool = False) -> None:
        self.path = os.fspath(path)
        self.sync_every_append = sync
        self._count: int | None = None

    # -- the log ---------------------------------------------------------- #
    def append(self, kind: str, payload: dict[str, Any]) -> LogRecord:
        """Durably append one record; returns it with its sequence number."""
        if self._count is None:
            self._count = self._raw_count()
        record = LogRecord(seq=self._count, kind=kind, payload=payload)
        self._write(encode_record(record))
        self._count += 1
        return record

    @property
    def record_count(self) -> int:
        """Records currently in the log (without verifying them)."""
        if self._count is None:
            self._count = self._raw_count()
        return self._count

    @abstractmethod
    def records(self) -> list[LogRecord]:
        """Every log record, fully verified; raises on any damage."""

    @abstractmethod
    def truncate(self, count: int) -> None:
        """Drop every record with ``seq >= count`` (recovery housekeeping).

        Used to discard the *uncommitted* suffix of a crashed run: the
        torn final record and/or trailing audit records whose owning
        action never committed.  Never called on verified history.
        """

    def trim_torn_tail(self) -> int:
        """Drop the final record iff it alone is damaged; returns the count left.

        A no-op on an intact log.  Damage anywhere but the final record
        is corruption, not a torn tail, and raises instead of trimming.
        """
        try:
            return len(self.records())  # intact: nothing to trim
        except StorageError as exc:
            if not exc.torn_tail:
                raise
            keep = exc.recoverable_records or 0
        self.truncate(keep)
        return keep

    # -- snapshots -------------------------------------------------------- #
    @abstractmethod
    def write_snapshot(self, manifest: dict[str, Any], blob: bytes) -> None:
        """Atomically persist one snapshot (``manifest['upto']`` tags it)."""

    @abstractmethod
    def latest_snapshot(self) -> tuple[dict[str, Any], bytes] | None:
        """The newest snapshot's verified ``(manifest, blob)``, if any."""

    # -- lifecycle -------------------------------------------------------- #
    @abstractmethod
    def sync(self) -> None:
        """Flush everything written so far to stable storage (fsync)."""

    @abstractmethod
    def close(self) -> None:
        """Flush and release file handles; the backend stays reopenable."""

    # -- backend internals ------------------------------------------------ #
    @abstractmethod
    def _write(self, encoded: dict[str, Any]) -> None: ...

    @abstractmethod
    def _raw_count(self) -> int: ...

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.path!r}, records={self.record_count})"


class JsonlStorage(StorageBackend):
    """Directory backend: ``log.jsonl`` + atomically-renamed snapshot files."""

    LOG_NAME = "log.jsonl"
    SNAPSHOT_PREFIX = "snapshot-"

    def __init__(self, path: str, sync: bool = False) -> None:
        super().__init__(path, sync=sync)
        if os.path.exists(self.path) and not os.path.isdir(self.path):
            raise StorageError(
                f"jsonl storage path {self.path!r} exists and is not a directory"
            )
        os.makedirs(self.path, exist_ok=True)
        self._log_path = os.path.join(self.path, self.LOG_NAME)
        self._fh: Any = None

    # -- the log ---------------------------------------------------------- #
    def _handle(self) -> Any:
        if self._fh is None:
            self._fh = open(self._log_path, "a", encoding="ascii")
        return self._fh

    def _write(self, encoded: dict[str, Any]) -> None:
        handle = self._handle()
        handle.write(dumps(encoded) + "\n")
        # Flush to the OS on every append: a SIGKILL after this point
        # cannot lose the record (the kernel holds it), and we avoid a
        # per-record disk round trip.  sync=True adds the fsync for
        # machine-crash durability.
        handle.flush()
        if self.sync_every_append:
            os.fsync(handle.fileno())

    def _lines(self) -> list[str]:
        if not os.path.exists(self._log_path):
            return []
        with open(self._log_path, "r", encoding="ascii", errors="replace") as fh:
            return fh.read().splitlines()

    def _raw_count(self) -> int:
        return len(self._lines())

    def records(self) -> list[LogRecord]:
        return _decode_all(self._lines(), json.loads, self._log_path)

    def truncate(self, count: int) -> None:
        self.close()
        lines = self._lines()[:count]
        tmp = self._log_path + ".tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            for line in lines:
                fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._log_path)
        self._count = count

    # -- snapshots -------------------------------------------------------- #
    def _snapshot_name(self, upto: int) -> str:
        return f"{self.SNAPSHOT_PREFIX}{upto:010d}.json"

    def write_snapshot(self, manifest: dict[str, Any], blob: bytes) -> None:
        document = {
            "manifest": manifest,
            "blob": base64.b64encode(blob).decode("ascii"),
            "blob_crc": zlib.crc32(blob),
        }
        target = os.path.join(self.path, self._snapshot_name(manifest["upto"]))
        tmp = target + ".tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            json.dump(document, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)

    def latest_snapshot(self) -> tuple[dict[str, Any], bytes] | None:
        names = [
            name
            for name in os.listdir(self.path)
            if name.startswith(self.SNAPSHOT_PREFIX) and name.endswith(".json")
        ]
        if not names:
            return None
        target = os.path.join(self.path, max(names))
        try:
            with open(target, "r", encoding="ascii") as fh:
                document = json.load(fh)
            manifest = check_manifest(document["manifest"], target)
            blob = base64.b64decode(document["blob"].encode("ascii"))
        except StorageError:
            raise
        except Exception as exc:
            raise StorageError(f"snapshot {target!r} is unreadable: {exc}") from exc
        return manifest, _check_blob(blob, document.get("blob_crc", -1), target)

    # -- lifecycle -------------------------------------------------------- #
    def sync(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None


class SqliteStorage(StorageBackend):
    """Single-file backend: ``log`` / ``snapshots`` / ``meta`` tables."""

    def __init__(self, path: str, sync: bool = False) -> None:
        super().__init__(path, sync=sync)
        self._conn: sqlite3.Connection | None = None
        conn = self._connection()
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'format_version'"
        ).fetchone()
        if row is not None:
            check_version(int(row[0]), f"sqlite store {self.path!r}")

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            try:
                conn = sqlite3.connect(self.path)
            except sqlite3.Error as exc:
                raise StorageError(
                    f"cannot open sqlite store {self.path!r}: {exc}"
                ) from exc
            # Appends commit per record; OS-level durability (surviving
            # SIGKILL) needs no fsync, so synchronous stays off unless
            # the caller asked for machine-crash durability.
            conn.execute(
                f"PRAGMA synchronous = {'FULL' if self.sync_every_append else 'OFF'}"
            )
            with conn:
                conn.execute("CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)")
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS log ("
                    "seq INTEGER PRIMARY KEY, v INTEGER, kind TEXT, payload TEXT, crc INTEGER)"
                )
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS snapshots ("
                    "upto INTEGER PRIMARY KEY, manifest TEXT, blob BLOB, blob_crc INTEGER)"
                )
                conn.execute(
                    "INSERT OR IGNORE INTO meta VALUES ('format_version', ?)",
                    (str(FORMAT_VERSION),),
                )
            self._conn = conn
        return self._conn

    # -- the log ---------------------------------------------------------- #
    def _write(self, encoded: dict[str, Any]) -> None:
        conn = self._connection()
        with conn:
            conn.execute(
                "INSERT INTO log (seq, v, kind, payload, crc) VALUES (?, ?, ?, ?, ?)",
                (
                    encoded["seq"],
                    encoded["v"],
                    encoded["kind"],
                    dumps(encoded["payload"]),
                    encoded["crc"],
                ),
            )

    def _raw_count(self) -> int:
        row = self._connection().execute("SELECT COUNT(*) FROM log").fetchone()
        return int(row[0])

    def _rows(self) -> list[tuple[int, int, str, str, int]]:
        return list(
            self._connection().execute(
                "SELECT seq, v, kind, payload, crc FROM log ORDER BY seq"
            )
        )

    def records(self) -> list[LogRecord]:
        def parse(row: tuple[int, int, str, str, int]) -> dict[str, Any]:
            seq, version, kind, text, crc = row
            return {"seq": seq, "v": version, "kind": kind, "payload": json.loads(text), "crc": crc}

        return _decode_all(self._rows(), parse, self.path)

    def truncate(self, count: int) -> None:
        conn = self._connection()
        with conn:
            conn.execute("DELETE FROM log WHERE seq >= ?", (count,))
        self._count = count

    # -- snapshots -------------------------------------------------------- #
    def write_snapshot(self, manifest: dict[str, Any], blob: bytes) -> None:
        conn = self._connection()
        with conn:
            conn.execute(
                "INSERT OR REPLACE INTO snapshots (upto, manifest, blob, blob_crc) "
                "VALUES (?, ?, ?, ?)",
                (manifest["upto"], json.dumps(manifest), blob, zlib.crc32(blob)),
            )

    def latest_snapshot(self) -> tuple[dict[str, Any], bytes] | None:
        row = self._connection().execute(
            "SELECT manifest, blob, blob_crc FROM snapshots ORDER BY upto DESC LIMIT 1"
        ).fetchone()
        if row is None:
            return None
        where = f"{self.path} (snapshots table)"
        try:
            manifest = json.loads(row[0])
        except (TypeError, ValueError) as exc:
            raise StorageError(f"snapshot manifest in {where} is unreadable: {exc}") from exc
        return check_manifest(manifest, where), _check_blob(bytes(row[1]), row[2], where)

    # -- lifecycle -------------------------------------------------------- #
    def sync(self) -> None:
        if self._conn is not None:
            self._conn.commit()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.commit()
            self._conn.close()
            self._conn = None


def open_storage(
    target: "str | os.PathLike[str] | StorageBackend", sync: bool = False
) -> StorageBackend:
    """Resolve a ``Cluster(storage=...)`` argument to a backend instance.

    A :class:`StorageBackend` passes through unchanged; a path maps on
    its suffix — ``.sqlite`` / ``.sqlite3`` / ``.db`` to
    :class:`SqliteStorage`, anything else to a :class:`JsonlStorage`
    directory.
    """
    if isinstance(target, StorageBackend):
        return target
    path = os.fspath(target)
    if path.endswith(SQLITE_SUFFIXES):
        return SqliteStorage(path, sync=sync)
    return JsonlStorage(path, sync=sync)
