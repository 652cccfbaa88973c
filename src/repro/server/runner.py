"""Hosting: one asyncio event loop serving HTTP/1.1 for the service layer.

Every connection is an :class:`asyncio.Protocol` on one event loop; this
module frames HTTP/1.1 itself and calls the WSGI app one request at a
time, in arrival order.  A connection is **persistent**: it serves
requests until the client asks for ``Connection: close`` (or speaks
HTTP/1.0), a request cannot be framed, or the connection sits idle (or
stalls mid-request) longer than :data:`IDLE_TIMEOUT_S`.  There is no
thread per connection: requests never contend for the interpreter lock
or the per-cluster lock, and a long request (a big ``POST /clusters``)
delays every connection until it is answered.  Request logging is
silent; errors surface through the JSON error taxonomy, and a framing
error gets a status line, a typed JSON body and a closed connection.
"""

from __future__ import annotations

import asyncio
import io
import json
import signal
import sys
import threading
import traceback
from email.utils import formatdate
from typing import Callable
from urllib.parse import unquote

from repro.server.taxonomy import reason_phrase
from repro.server.wsgi import MAX_BODY_BYTES, declared_body_length

#: Seconds a connection may sit between requests (or stall inside one)
#: before it is dropped.  Read at every re-arm, so tests can patch it.
IDLE_TIMEOUT_S = 15.0

#: Longest request or header line, terminator included (the stdlib's limit).
MAX_LINE_BYTES = 65536

#: Most header lines one request may carry (the stdlib's limit).
MAX_HEADERS = 100

_ERROR_NAMES = {
    400: "BadRequest",
    414: "UriTooLong",
    431: "HeaderFieldsTooLarge",
    500: "InternalServerError",
    505: "HttpVersionNotSupported",
}


class _Refusal(Exception):
    """A request this server will not serve: answer ``code``, then hang up."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


class _Request:
    """One parsed request head: its WSGI environ, body length and fate."""

    __slots__ = ("environ", "length", "close", "head_only")

    def __init__(self, environ: dict, length: int, close: bool, head_only: bool) -> None:
        self.environ = environ
        self.length = length
        self.close = close
        self.head_only = head_only


def _parse_request_line(line: str) -> tuple[str, str, str]:
    """``(method, target, version)`` of ``METHOD SP target SP HTTP/x.y``."""
    parts = line.split(" ")
    if len(parts) != 3 or not all(parts):
        raise _Refusal(400, f"malformed request line {line[:80]!r}")
    method, target, version = parts
    numbers = version[5:].split(".") if version.startswith("HTTP/") else []
    if len(numbers) != 2 or not all(n.isascii() and n.isdigit() and len(n) <= 10 for n in numbers):
        raise _Refusal(400, f"malformed HTTP version {version[:80]!r}")
    if (int(numbers[0]), int(numbers[1])) not in ((1, 0), (1, 1)):
        raise _Refusal(505, f"{version} is not served; use HTTP/1.1 or HTTP/1.0")
    return method, target, version


class _Connection(asyncio.Protocol):
    """One client socket: buffer, frame, answer in order, time out."""

    def __init__(self, server: HttpServer) -> None:
        self._server = server
        self._transport: asyncio.Transport | None = None
        self._buffer = bytearray()
        #: The head being read: its request line, its header lines so far
        #: and where the next line starts in the buffer.
        self._start: tuple[str, str, str] | None = None
        self._lines: list[str] = []
        self._scanned = 0
        #: A request whose head is parsed and whose body is still arriving.
        self._pending: _Request | None = None
        self._closing = False
        self._writing_paused = False
        self._timer: asyncio.TimerHandle | None = None

    # -- asyncio.Protocol ------------------------------------------------- #
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport
        self._server.connections_accepted += 1
        self._server._open.add(transport)
        self._arm_timer()

    def connection_lost(self, exc: Exception | None) -> None:
        self._server._open.discard(self._transport)
        if self._timer is not None:
            self._timer.cancel()

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._serve()
        self._arm_timer()

    def pause_writing(self) -> None:
        self._writing_paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._writing_paused = False
        self._transport.resume_reading()
        self._serve()
        self._arm_timer()

    # -- framing ---------------------------------------------------------- #
    def _arm_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
        # abort(), not close(): a client that has not read its replies for
        # this long has gone, and close() would wait to flush them.
        self._timer = self._server._loop.call_later(IDLE_TIMEOUT_S, self._transport.abort)

    def _serve(self) -> None:
        """Answer every complete buffered request, in order."""
        while not (self._closing or self._writing_paused):
            if self._pending is None:
                try:
                    self._pending = self._read_head()
                except _Refusal as refusal:
                    self._refuse(refusal.code, str(refusal))
                    return
                if self._pending is None:
                    return
            request = self._pending
            if len(self._buffer) < request.length:
                return
            body = bytes(self._buffer[: request.length])
            del self._buffer[: request.length]
            self._pending = None
            self._respond(request, body)

    def _read_head(self) -> _Request | None:
        """Consume one complete head from the buffer, or ``None`` for not yet."""
        buffer = self._buffer
        while True:
            end = buffer.find(b"\n", self._scanned)
            if end < 0 or end + 1 - self._scanned > MAX_LINE_BYTES:
                if end < 0 and len(buffer) - self._scanned < MAX_LINE_BYTES:
                    return None
                if self._start is None:
                    raise _Refusal(414, f"request line over {MAX_LINE_BYTES} bytes")
                raise _Refusal(431, f"header line over {MAX_LINE_BYTES} bytes")
            line = buffer[self._scanned : end].rstrip(b"\r").decode("latin-1")
            self._scanned = end + 1
            if self._start is None:
                self._start = _parse_request_line(line)
            elif not line:
                break
            elif len(self._lines) == MAX_HEADERS:
                raise _Refusal(431, f"more than {MAX_HEADERS} header lines")
            else:
                self._lines.append(line)
        (method, target, version), header_lines = self._start, self._lines
        del buffer[: self._scanned]
        self._start, self._lines, self._scanned = None, [], 0
        path, _, query = target.partition("?")
        environ = dict(self._server.base_environ)
        environ.update(
            {
                "REQUEST_METHOD": method,
                "PATH_INFO": unquote(path, "iso-8859-1"),
                "QUERY_STRING": query,
                "SERVER_PROTOCOL": version,
            }
        )
        for header in header_lines:
            name, colon, value = header.partition(":")
            if not colon or not name or name != name.strip():
                raise _Refusal(400, f"malformed header line {header[:80]!r}")
            key = name.upper().replace("-", "_")
            if key not in ("CONTENT_TYPE", "CONTENT_LENGTH"):
                key = "HTTP_" + key
            value = value.strip()
            # Repeats join with commas, so two Content-Length lines do
            # not parse as one length: that body cannot be framed.
            environ[key] = f"{environ[key]},{value}" if key in environ else value
        connection = environ.get("HTTP_CONNECTION", "").lower()
        close = version == "HTTP/1.0" or "close" in connection.replace(" ", "").split(",")
        try:
            length = declared_body_length(environ.get("CONTENT_LENGTH"))
        except ValueError:
            length = None
        if length is None or length > MAX_BODY_BYTES or "HTTP_TRANSFER_ENCODING" in environ:
            # A body this server cannot frame stays unread: the app
            # answers (a typed 400 / 413 where the route wants the body)
            # and the connection closes behind the reply.
            length, close = 0, True
        if (
            length > len(buffer)
            and version == "HTTP/1.1"
            and environ.get("HTTP_EXPECT", "").lower() == "100-continue"
        ):
            self._transport.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return _Request(environ, length, close, method == "HEAD")

    # -- replies ---------------------------------------------------------- #
    def _respond(self, request: _Request, body: bytes) -> None:
        environ = request.environ
        environ["wsgi.input"] = io.BytesIO(body)
        answer: list = []

        def start_response(status: str, headers: list, exc_info=None) -> None:
            answer[:] = [status, headers]

        try:
            payload = b"".join(self._server.app(environ, start_response))
        except Exception:  # noqa: BLE001 - the connection must still be answered
            traceback.print_exc(file=sys.stderr)
            self._refuse(500, "the application raised; see the server log")
            return
        status, headers = answer
        self._write(status, headers, payload, request.close, request.head_only)

    def _refuse(self, code: int, message: str) -> None:
        """Answer a request this server will not serve, and hang up."""
        body = {"error": _ERROR_NAMES[code], "message": message, "status": code}
        payload = json.dumps(body).encode("utf-8")
        headers = [("Content-Type", "application/json; charset=utf-8")]
        self._write(f"{code} {reason_phrase(code)}", headers, payload, True)

    def _write(
        self, status: str, headers: list, payload: bytes, close: bool, head_only: bool = False
    ) -> None:
        """Status line, headers and body in **one** write; then maybe hang up."""
        head = [f"HTTP/1.1 {status}", f"Date: {formatdate(usegmt=True)}"]
        head += [f"{name}: {value}" for name, value in headers]
        if not any(name.lower() == "content-length" for name, _ in headers):
            head.append(f"Content-Length: {len(payload)}")
        if close:
            head.append("Connection: close")
        if head_only:
            payload = b""
        self._transport.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + payload)
        if close:
            # Nothing behind this request is answered; close() still
            # flushes the reply.
            self._closing = True
            self._buffer.clear()
            self._transport.close()


class HttpServer:
    """HTTP/1.1 for one WSGI app: one listener, one event loop, no threads.

    Build it on any thread, run :meth:`serve_forever` on one thread, stop
    it from any thread with :meth:`shutdown`, then :meth:`server_close`.
    Open connections are tracked from accept to close so
    :meth:`server_close` can hang up on the idle kept-alive ones.
    """

    def __init__(self, app: Callable, host: str, port: int) -> None:
        self.app = app
        #: Connections accepted so far.
        self.connections_accepted = 0
        self._open: set[asyncio.BaseTransport] = set()
        self._loop = asyncio.new_event_loop()
        self._finished = threading.Event()
        self._stopped = self._loop.create_future()
        # A backlog longer than the default so hammer bursts never see
        # connection-refused on platforms with small listen queues.
        self._listener = self._loop.run_until_complete(
            self._loop.create_server(lambda: _Connection(self), host, port, backlog=64)
        )
        self.server_address = self._listener.sockets[0].getsockname()[:2]
        self.base_environ = {
            "SERVER_NAME": host,
            "SERVER_PORT": str(self.server_address[1]),
            "SCRIPT_NAME": "",
            "wsgi.errors": sys.stderr,
            "wsgi.version": (1, 0),
            "wsgi.url_scheme": "http",
            "wsgi.multithread": False,
            "wsgi.multiprocess": False,
            "wsgi.run_once": False,
        }

    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` (or a signal) stops it."""
        self._finished.clear()
        try:
            self._loop.run_until_complete(self._stopped)
        finally:
            self._finished.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` from any thread; wait until it returned."""
        if not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._stop)
        self._finished.wait()

    def _stop(self) -> None:
        if not self._stopped.done():
            self._stopped.set_result(None)

    def server_close(self) -> None:
        """Close the listener and hang up on every open connection.

        Call once :meth:`serve_forever` has returned.
        """
        if self._loop.is_closed():
            return
        self._listener.close()
        for transport in list(self._open):
            transport.abort()
        # One pass of the loop runs the connection_lost callbacks.
        self._loop.run_until_complete(asyncio.sleep(0))
        self._loop.close()


def make_http_server(app: Callable, host: str = "127.0.0.1", port: int = 0) -> HttpServer:
    """Bind the app; ``port=0`` asks the OS for a free port (see
    ``server.server_address[1]`` for the one it picked)."""
    return HttpServer(app, host, port)


def serve_background(
    app: Callable, host: str = "127.0.0.1", port: int = 0
) -> tuple[HttpServer, threading.Thread]:
    """Start serving on a daemon thread; caller owns ``server.shutdown()``."""
    server = make_http_server(app, host, port)
    thread = threading.Thread(target=server.serve_forever, name="repro-serve", daemon=True)
    thread.start()
    return server, thread


def serve_forever(
    app: Callable,
    host: str = "127.0.0.1",
    port: int = 8642,
    ready_file: str | None = None,
) -> None:
    """Serve until interrupted or sent SIGTERM; optionally announce the address.

    ``ready_file`` (if given) receives one line, ``host:port``, *after*
    the socket is bound — the CI gate and scripts poll it instead of
    racing the listener, and it is how a ``--port 0`` caller learns the
    OS-assigned port.  On the main thread SIGTERM stops the loop, and
    the listener and open connections are closed before returning.
    """
    server = make_http_server(app, host, port)
    bound_port = server.server_address[1]
    if ready_file:
        with open(ready_file, "w", encoding="utf-8") as handle:
            handle.write(f"{host}:{bound_port}\n")
    if threading.current_thread() is threading.main_thread():
        server._loop.add_signal_handler(signal.SIGTERM, server._stop)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
