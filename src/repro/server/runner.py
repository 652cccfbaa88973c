"""Hosting: a threading HTTP/1.1 server for the service layer.

The socket, the accept loop and the CGI-style environ come from
``wsgiref.simple_server``; the request handler is this module's own,
because ``wsgiref``'s answers HTTP/1.0 and closes — a TCP connect plus a
fresh thread per request, an order of magnitude more than the query the
request carries.  Here a connection is **persistent**: one daemon thread
per *connection* serves requests in a loop until the client asks for
``Connection: close`` (or speaks HTTP/1.0), a request cannot be framed,
or the connection sits idle longer than :data:`IDLE_TIMEOUT_S`.
Concurrent sessions still contend on the per-cluster lock from separate
threads, exactly like the deployment the paper's congestion bounds
describe.  Request logging is silenced (the load generator would
otherwise drown stderr); errors still surface through the JSON error
taxonomy, not the socket.
"""

from __future__ import annotations

import io
import socket
import sys
import threading
from socketserver import ThreadingMixIn
from typing import Callable
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

from repro.server.wsgi import MAX_BODY_BYTES, declared_body_length

#: Seconds a connection may sit between requests (or stall inside one)
#: before its thread drops it.  Read per connection, so tests can patch it.
IDLE_TIMEOUT_S = 15.0


class ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
    """One daemon thread per connection; exits promptly with the process.

    Open connections are tracked so :meth:`server_close` can hang up on
    the idle kept-alive ones instead of waiting out their timeout (daemon
    threads are never joined, so closing cannot block on them either).
    """

    daemon_threads = True
    #: A backlog longer than the default 5 so hammer bursts never see
    #: connection-refused on platforms with small listen queues.
    request_queue_size = 64

    def __init__(self, *args, **kwargs) -> None:
        #: Connections accepted so far (only the accept loop writes it).
        self.connections_accepted = 0
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        self.connections_accepted += 1
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._open_lock:
            lingering = list(self._open)
        for connection in lingering:
            try:
                # Wakes the connection's thread out of its blocking read;
                # the thread then closes the socket itself.
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class KeepAliveRequestHandler(WSGIRequestHandler):
    """HTTP/1.1 with persistent connections in front of a WSGI app.

    Per request: parse the head, read exactly ``Content-Length`` bytes
    off the socket and hand the app that much as ``wsgi.input`` — a body
    the route never reads, or reads past, cannot desynchronise the next
    request — then write status line, headers and body in **one** send.
    ``wsgiref``'s header-then-body double write on a kept-alive socket
    meets Nagle + delayed ACK and stalls 40 ms per request; Nagle is
    switched off as well, for replies longer than one segment.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self) -> None:
        self.timeout = IDLE_TIMEOUT_S
        super().setup()

    def handle(self) -> None:
        self.close_connection = False
        try:
            while not self.close_connection:
                self.handle_one_request()
        except OSError:
            # Idle timeout, a reset, or server_close() hanging up on us:
            # the connection is over either way and nobody is listening.
            pass

    def handle_one_request(self) -> None:
        self.raw_requestline = self.rfile.readline(65537)
        if not self.raw_requestline:
            self.close_connection = True
            return
        if len(self.raw_requestline) > 65536:
            self.requestline = self.request_version = self.command = ""
            self.send_error(414)
            self.close_connection = True
            return
        # On a malformed request line or head this answers 4xx itself and
        # leaves close_connection set: the stream is in an unknown state.
        if not self.parse_request():
            return
        if self.request_version < "HTTP/1.1":
            self.close_connection = True
        environ = self.get_environ()
        try:
            length = declared_body_length(self.headers.get("Content-Length"))
        except ValueError:
            length = None
        if length is None or length > MAX_BODY_BYTES or "Transfer-Encoding" in self.headers:
            # A body this server cannot frame stays unread: the app
            # answers (a typed 400 / 413 where the route wants the body)
            # and the connection closes behind the reply.
            length = 0
            self.close_connection = True
        body = self.rfile.read(length) if length else b""
        if len(body) < length:
            self.close_connection = True  # client hung up mid-body
        environ.update(
            {
                "wsgi.input": io.BytesIO(body),
                "wsgi.errors": sys.stderr,
                "wsgi.version": (1, 0),
                "wsgi.url_scheme": "http",
                "wsgi.multithread": True,
                "wsgi.multiprocess": False,
                "wsgi.run_once": False,
            }
        )
        answer: list = []

        def start_response(status: str, headers: list, exc_info=None) -> None:
            answer[:] = [status, headers]

        try:
            chunks = self.server.get_app()(environ, start_response)
            payload = b"".join(chunks)
        except Exception:
            # Answer, hang up, and let socketserver print the traceback.
            self.close_connection = True
            self.send_error(500)
            raise
        status, headers = answer
        head = [f"{self.protocol_version} {status}", f"Date: {self.date_time_string()}"]
        head += [f"{name}: {value}" for name, value in headers]
        if not any(name.lower() == "content-length" for name, _ in headers):
            head.append(f"Content-Length: {len(payload)}")
        if self.close_connection:
            head.append("Connection: close")
        if self.command == "HEAD":
            payload = b""
        self.wfile.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + payload)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass


def make_http_server(app: Callable, host: str = "127.0.0.1", port: int = 0) -> ThreadingWSGIServer:
    """Bind the app; ``port=0`` asks the OS for a free port (see
    ``server.server_address[1]`` for the one it picked)."""
    return make_server(
        host,
        port,
        app,
        server_class=ThreadingWSGIServer,
        handler_class=KeepAliveRequestHandler,
    )


def serve_background(
    app: Callable, host: str = "127.0.0.1", port: int = 0
) -> tuple[ThreadingWSGIServer, threading.Thread]:
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
    """Serve until interrupted; optionally announce the bound address.

    ``ready_file`` (if given) receives one line, ``host:port``, *after*
    the socket is bound — the CI gate and scripts poll it instead of
    racing the listener, and it is how a ``--port 0`` caller learns the
    OS-assigned port.
    """
    server = make_http_server(app, host, port)
    bound_port = server.server_address[1]
    if ready_file:
        with open(ready_file, "w", encoding="utf-8") as handle:
            handle.write(f"{host}:{bound_port}\n")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
