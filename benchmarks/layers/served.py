"""The served side: one server subprocess, a keep-alive-ready client, VmHWM.

``python -m repro.cli serve --port 0 --ready-file ...`` runs in its own
process so its peak RSS and its GIL are its own.  The ready-file is polled
with a timeout and the process is terminated (then killed) on the way out
of the ``with`` block, whatever happened inside.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from inputs import Op

READY_TIMEOUT_S = 120.0
_JSON_HEADERS = {"Content-Type": "application/json"}


@dataclass(frozen=True)
class Server:
    host: str
    port: int
    pid: int


class ServerProcess:
    """``repro.cli serve`` over a seeded ``skipweb1d`` cluster, as a context manager.

    Entering only launches the process; :meth:`ready` waits for the
    ready-file, so a caller can do its own set-up while the server builds.
    """

    def __init__(self, items: int, seed: int, src: Path, workdir: Path) -> None:
        self._ready_file = workdir / f"ready-{uuid.uuid4().hex}"
        self._env = dict(os.environ, PYTHONPATH=str(src))
        self._command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        self._command += ["--ready-file", str(self._ready_file)]
        self._command += ["--items", str(items), "--seed", str(seed)]
        self._process: subprocess.Popen | None = None

    def __enter__(self) -> "ServerProcess":
        self._process = subprocess.Popen(
            self._command, env=self._env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        return self

    def ready(self) -> Server:
        """Block until the server has bound its socket (or fail after a timeout)."""
        process = self._process
        deadline = time.monotonic() + READY_TIMEOUT_S
        address = ""
        while not address.endswith("\n"):
            if process.poll() is not None:
                raise RuntimeError(f"server exited with code {process.returncode} before ready")
            if time.monotonic() > deadline:
                raise RuntimeError(f"server not ready after {READY_TIMEOUT_S:.0f} s")
            time.sleep(0.01)
            if self._ready_file.exists():
                address = self._ready_file.read_text(encoding="utf-8")
        host, _, port = address.strip().rpartition(":")
        return Server(host, int(port), process.pid)

    def __exit__(self, *exc_info: Any) -> None:
        process = self._process
        process.terminate()
        try:
            process.wait(timeout=5)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        self._ready_file.unlink(missing_ok=True)


class Client:
    """One HTTP connection, reused while the server keeps it open."""

    def __init__(self, server: Server) -> None:
        self._server = server
        self._connection: http.client.HTTPConnection | None = None
        self.connects = 0

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        """One request; a kept-alive connection the server dropped is reopened once."""
        while True:
            reused = self._connection is not None
            if not reused:
                self._connection = http.client.HTTPConnection(
                    self._server.host, self._server.port, timeout=60
                )
                self.connects += 1
            try:
                self._connection.request(method, path, body=body, headers=_JSON_HEADERS)
                response = self._connection.getresponse()
                payload = response.read()
            except (http.client.HTTPException, OSError):
                self.close()
                if reused:
                    continue
                raise
            if response.will_close:
                self.close()
            return response.status, payload

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


def encode_request(op: Op) -> tuple[str, bytes]:
    """Path and JSON body of one 1-d operation."""
    kind, payload = op
    path = "/ops/get" if kind == "search" else f"/ops/{kind}"
    return path, json.dumps({"payload": payload}).encode("ascii")


def decode_answer(kind: str, status: int, body: bytes) -> tuple[bool, Any, int]:
    """``(ok, oracle-ready answer, messages)`` of one ``/ops`` response body."""
    try:
        data = json.loads(body)
        ok = status == 200 and data["status"] == "ok"
        if not ok:
            return False, None, int(data.get("messages", 0))
        value = data["value"]
        if kind == "search":
            found = value["answer"]
            answer: Any = (found["predecessor"], found["successor"], found["exact"])
        else:
            answer = value["matches"]
        return True, answer, int(data["messages"])
    except (ValueError, KeyError, TypeError):
        return False, None, 0


def peak_rss_mb(pid: int | None = None) -> float:
    """``VmHWM`` of ``pid`` (default: this process) in MiB."""
    status = Path(f"/proc/{pid if pid is not None else os.getpid()}/status")
    for line in status.read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {status}")
