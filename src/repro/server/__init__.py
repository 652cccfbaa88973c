"""repro.server — the HTTP/JSON service layer over the cluster façade.

Stdlib-only: :func:`create_app` builds the WSGI application,
:mod:`repro.server.runner` hosts it on persistent HTTP/1.1 connections served
from one asyncio event loop, and
:func:`run_hammer` is the seeded load generator the CI serve-gate runs
against it.  ``python -m repro.cli serve`` / ``hammer`` close the loop
from the command line.
"""

from repro.server.dashboard import DASHBOARD_HTML, collect_stats
from repro.server.hammer import HammerReport, JsonClient, run_hammer
from repro.server.manager import (
    ClusterManager,
    ServedCluster,
    ServedSession,
    UnknownResourceError,
)
from repro.server.runner import (
    HttpServer,
    make_http_server,
    serve_background,
    serve_forever,
)
from repro.server.taxonomy import (
    ERROR_HTTP,
    STATUS_HTTP,
    error_body,
    http_status_for,
    http_status_for_error,
)
from repro.server.wsgi import ReproApp, create_app

__all__ = [
    "DASHBOARD_HTML",
    "ERROR_HTTP",
    "STATUS_HTTP",
    "ClusterManager",
    "HammerReport",
    "HttpServer",
    "JsonClient",
    "ReproApp",
    "ServedCluster",
    "ServedSession",
    "UnknownResourceError",
    "collect_stats",
    "create_app",
    "error_body",
    "http_status_for",
    "http_status_for_error",
    "make_http_server",
    "run_hammer",
    "serve_background",
    "serve_forever",
]
