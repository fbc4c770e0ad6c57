"""Fixtures for the serving tests."""

import os
import socket
import subprocess
import sys
import time
import urllib.request

import pytest

import repro


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_healthy(base: str, server: subprocess.Popen, log) -> None:
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        assert server.poll() is None, log.read_text()
        try:
            urllib.request.urlopen(base + "/healthz", timeout=1).close()
            return
        except OSError:
            time.sleep(0.2)
    raise AssertionError(f"server never became healthy:\n{log.read_text()}")


class _ServeProcesses:
    """``self(*args)`` runs ``python -m repro.serve *args`` on a free
    port, waits for ``/healthz`` and returns the base URL.
    :meth:`stop` ends one server the way an operator does (SIGTERM:
    drain, write the trace and drift files, exit); :attr:`env` runs
    other ``python -m repro...`` commands against the same source."""

    def __init__(self, tmp_path):
        self.tmp_path = tmp_path
        self.env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p
        )
        self.servers: dict[str, subprocess.Popen] = {}

    def __call__(self, *args) -> str:
        port = _free_port()
        log = self.tmp_path / f"serve-{port}.log"
        with open(log, "wb") as out:
            server = subprocess.Popen(
                [sys.executable, "-m", "repro.serve", *map(str, args),
                 "--port", str(port)],
                env=self.env, stdout=out, stderr=subprocess.STDOUT,
            )
        base = f"http://127.0.0.1:{port}"
        self.servers[base] = server
        _wait_healthy(base, server, log)
        return base

    def stop(self, base: str) -> int:
        """SIGTERM the server at *base*; returns its exit code."""
        server = self.servers.pop(base)
        server.terminate()
        return server.wait(timeout=30)


@pytest.fixture()
def serve_subprocess(tmp_path):
    """A :class:`_ServeProcesses`; every server still running is
    terminated at teardown."""
    processes = _ServeProcesses(tmp_path)
    yield processes
    for base in list(processes.servers):
        processes.stop(base)
