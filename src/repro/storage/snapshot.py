"""Snapshot encode/decode: the whole deployment in one verified blob.

A snapshot is the full in-memory state of a cluster — structure, churn
controller, repair engine and façade configuration — pickled as **one**
object graph so the shared :class:`~repro.net.network.Network` reference
(and every record/host it owns) is stored exactly once and restored
shared.  That is what makes restoration byte-identical: the skip
structures' internal layout (promotion coin flips, slot assignment,
bucket splits) is a function of their full construction history, so we
persist the layout itself rather than pretend ``build_from_sorted`` over
the current items would reproduce it.

Alongside the opaque blob travels a portable JSON **manifest**: format
version, log position (``upto``), a SHA-256 of the blob, and the
observable fingerprint of the state — message tallies by kind,
membership epoch, host counts, round-congestion aggregates and a
content digest over the structure's items.  :func:`restore_snapshot`
recomputes every fingerprint field from the unpickled state and refuses
the snapshot on any mismatch, so a stale or tampered blob cannot load
silently behind a plausible manifest.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any

from repro.errors import StorageError
from repro.net.congestion import round_congestion_report
from repro.storage.record import FORMAT_VERSION


def content_digest(structure: Any) -> str:
    """SHA-256 fingerprint of the structure's item set.

    Uses the same accessors the façade's stats path does: ``keys`` where
    the family exposes one (one-dimensional webs, graphs, DHTs), else
    the underlying web's ``items`` (spatial, string and planar
    families).  Reprs are hashed in sorted order so the digest is
    independent of internal iteration order.
    """
    items = getattr(structure, "keys", None)
    if items is None:
        web = getattr(structure, "web", structure)
        items = getattr(web, "items", None)
    if items is None:
        raise StorageError(
            f"{type(structure).__name__} exposes neither 'keys' nor "
            "'items'; cannot fingerprint its contents"
        )
    digest = hashlib.sha256()
    for text in sorted(repr(item) for item in items):
        digest.update(text.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _fingerprint(structure: Any) -> dict[str, Any]:
    """The manifest's portable view of the live state.

    On a network with an explicit topology the fingerprint additionally
    versions the layout (``topology`` = the portable ``describe()``
    dict), so a snapshot taken under one cost model is refused by a
    build expecting another; flat-default snapshots omit the key and
    stay byte-identical to pre-topology manifests.
    """
    network = structure.network
    congestion = round_congestion_report(network)
    fingerprint = {
        "content_digest": content_digest(structure),
        "messages_total": network.total_messages,
        "messages_by_kind": {
            kind.value: count
            for kind, count in sorted(
                network.message_log.counts_by_kind().items(),
                key=lambda entry: entry[0].value,
            )
            if count
        },
        "membership_epoch": network.membership_epoch,
        "hosts": network.host_count,
        "alive_hosts": len(network.alive_host_ids()),
        "round_congestion": {
            "rounds": congestion.rounds,
            "total_messages": congestion.total_messages,
            "max_host_round_load": congestion.max_host_round_load,
        },
    }
    if network.topology is not None:
        fingerprint["topology"] = network.topology.describe()
    return fingerprint


def capture_snapshot(
    structure: Any,
    churn: Any,
    repair_engine: Any,
    config: dict[str, Any],
    *,
    upto: int,
    actions: int,
    structure_name: str,
) -> tuple[dict[str, Any], bytes]:
    """Encode the deployment as ``(manifest, blob)``.

    ``upto`` is the log position the snapshot covers (recovery replays
    records from there); ``actions`` counts the action records applied,
    for progress reporting.  ``config`` is the façade configuration
    needed to resume operating the restored state (mode, churn
    settings, factory options); it rides inside the pickle since
    factory options may hold non-JSON values.
    """
    blob = pickle.dumps(
        {
            "structure": structure,
            "churn": churn,
            "repair_engine": repair_engine,
            "config": config,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    manifest = {
        "format_version": FORMAT_VERSION,
        "structure": structure_name,
        "upto": upto,
        "actions": actions,
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
        "fingerprint": _fingerprint(structure),
    }
    return manifest, blob


def restore_snapshot(manifest: dict[str, Any], blob: bytes) -> dict[str, Any]:
    """Decode and *verify* a snapshot; returns the unpickled state dict.

    Checks, in order: format version, blob hash against the manifest,
    then every fingerprint field recomputed from the restored state.
    Any mismatch raises :class:`~repro.errors.StorageError` — a snapshot
    either round-trips exactly or is refused whole.
    """
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise StorageError(
            f"snapshot has format version {version!r}; this build reads "
            f"version {FORMAT_VERSION} (version skew)"
        )
    digest = hashlib.sha256(blob).hexdigest()
    if digest != manifest.get("blob_sha256"):
        raise StorageError(
            "snapshot blob does not match its manifest hash "
            f"({digest[:12]}… != {str(manifest.get('blob_sha256'))[:12]}…)"
        )
    try:
        state = pickle.loads(blob)
    except Exception as exc:
        raise StorageError(f"snapshot blob is undecodable: {exc}") from exc
    if not isinstance(state, dict) or "structure" not in state:
        raise StorageError("snapshot blob holds no deployment state")
    restored = _fingerprint(state["structure"])
    expected = manifest.get("fingerprint")
    if restored != expected:
        diffs = sorted(
            key
            for key in set(restored) | set(dict(expected or {}))
            if restored.get(key) != (expected or {}).get(key)
        )
        raise StorageError(
            "restored snapshot diverges from its manifest fingerprint "
            f"(fields: {', '.join(diffs)})"
        )
    return state
