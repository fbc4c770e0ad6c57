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


@pytest.fixture()
def serve_subprocess(tmp_path):
    """``start(*args)`` runs ``python -m repro.serve *args`` on a free
    port, waits for ``/healthz`` and returns the base URL; every server
    started is terminated at teardown."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    servers = []

    def start(*args) -> str:
        port = _free_port()
        log = tmp_path / f"serve-{port}.log"
        with open(log, "wb") as out:
            server = subprocess.Popen(
                [sys.executable, "-m", "repro.serve", *map(str, args),
                 "--port", str(port)],
                env=env, stdout=out, stderr=subprocess.STDOUT,
            )
        servers.append(server)
        base = f"http://127.0.0.1:{port}"
        _wait_healthy(base, server, log)
        return base

    yield start
    for server in servers:
        server.terminate()
        server.wait(timeout=30)
