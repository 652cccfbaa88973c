"""The HTTP error taxonomy: operation statuses and typed errors on the wire.

Two mappings, both total by construction:

* :data:`STATUS_HTTP` maps the five :class:`~repro.api.results`
  operation statuses onto response codes — ``ok`` is 200,
  ``unsupported`` is 422 (the structure can *never* perform the
  operation, retrying is pointless), ``failed`` is 409 (this attempt
  conflicted: a dead host, a duplicate insert, an exhausted retry
  budget), and the graceful-degradation pair ``timed_out`` / ``gave_up``
  is 503 (the deployment, not the request, is unhealthy — retry later).
* :func:`http_status_for_error` maps every typed
  :mod:`repro.errors` exception (and plain client errors) onto a code,
  used for errors raised *outside* an operation handle — a malformed
  cluster spec, a churn verb on a dead deployment, storage trouble.

Either way the response body carries the typed error name, so the
client-side taxonomy (``handle.status`` plus ``repro.errors`` class
names) survives the wire byte-for-byte.
"""

from __future__ import annotations

from typing import Any

from repro.api.results import (
    STATUS_FAILED,
    STATUS_GAVE_UP,
    STATUS_OK,
    STATUS_TIMED_OUT,
    STATUS_UNSUPPORTED,
)
from repro.errors import (
    ChurnError,
    FaultInjectedError,
    HostFailedError,
    OperationTimedOutError,
    QueryError,
    ReproError,
    StorageError,
    StructureError,
    UnknownHostError,
    UnsupportedOperationError,
    UpdateError,
)

#: Operation status -> HTTP response code for single-operation endpoints.
#: (Batch endpoints always answer 200: a batch is a *report*, and its
#: per-operation statuses travel inside the handles.)
STATUS_HTTP: dict[str, int] = {
    STATUS_OK: 200,
    STATUS_UNSUPPORTED: 422,
    STATUS_FAILED: 409,
    STATUS_TIMED_OUT: 503,
    STATUS_GAVE_UP: 503,
}

#: Typed repro errors -> HTTP code, most specific class first (the lookup
#: walks this in order with isinstance, so subclasses can shadow bases).
ERROR_HTTP: tuple[tuple[type[Exception], int], ...] = (
    (UnsupportedOperationError, 422),
    (OperationTimedOutError, 503),
    (FaultInjectedError, 503),
    (HostFailedError, 503),
    (UnknownHostError, 404),
    (QueryError, 409),
    (UpdateError, 409),
    (ChurnError, 409),
    (StructureError, 409),
    (StorageError, 409),
    (ReproError, 409),
    (ValueError, 400),
    (KeyError, 400),
    (TypeError, 400),
)

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Content Too Large",
    414: "URI Too Long",
    422: "Unprocessable Entity",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}


def reason_phrase(code: int) -> str:
    """The HTTP reason phrase for ``code`` (e.g. ``409 -> "Conflict"``)."""
    return _REASONS.get(code, "Unknown")


def http_status_for(status: str) -> int:
    """HTTP response code for one operation-handle status."""
    try:
        return STATUS_HTTP[status]
    except KeyError:
        raise ValueError(f"unknown operation status {status!r}") from None


def http_status_for_error(error: BaseException) -> int:
    """HTTP response code for one typed exception (500 for the unknown)."""
    for cls, code in ERROR_HTTP:
        if isinstance(error, cls):
            return code
    return 500


def error_body(error: BaseException, status: int | None = None) -> dict[str, Any]:
    """The JSON body of an error response: typed name, message, code."""
    code = status if status is not None else http_status_for_error(error)
    return {
        "error": type(error).__name__,
        "message": str(error),
        "status": code,
    }
