"""Closed-loop HTTP load generation against a ``repro.serve`` server.

Everything here runs in the benchmark process: at most two client
threads, each holding at most one connection at a time (the server
speaks HTTP/1.0, so every request opens its own connection).  Request
bodies are encoded before a phase starts and responses are kept as raw
bytes, so neither JSON encoding nor output checking runs on the
clients' clock.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HOST = "127.0.0.1"
REQUEST_TIMEOUT_S = 60.0
HEALTHZ_TIMEOUT_S = 120.0
_HEADERS = {"Content-Type": "application/json"}


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------
@dataclass
class Exchange:
    """One client request: what was sent, when, and what came back.

    ``lines`` holds ``(perf_counter, raw_line)`` for each line of a
    streamed ``/generate`` body; ``body`` the raw ``/predict`` body.
    """

    index: int  # position in the workload's input pool
    start: float
    end: float = 0.0
    status: int | None = None
    body: bytes = b""
    lines: list = field(default_factory=list)
    error: str | None = None


def _post(port: int, path: str, body: bytes, record: Exchange) -> None:
    conn = http.client.HTTPConnection(HOST, port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("POST", path, body=body, headers=_HEADERS)
        resp = conn.getresponse()
        record.status = resp.status
        if path == "/generate" and resp.status == 200:
            while True:
                line = resp.readline()
                if not line:
                    break
                record.lines.append((time.perf_counter(), line))
        else:
            record.body = resp.read()
    finally:
        conn.close()


def run_clients(
    port: int,
    path: str,
    bodies: list[bytes],
    clients: int,
    seconds: float,
    segments: int = 1,
) -> list[Exchange]:
    """Drive *clients* closed-loop clients for *seconds*.

    Client ``c`` walks the body pool starting at offset
    ``c * len(bodies) // clients``; each sends its next request only
    after the previous one completed.  The time is split into
    *segments*, each with fresh client threads that carry on the walk
    where the last segment left it.  No request starts after a
    segment's deadline; the ones in flight then run to completion.
    """
    out: list[list[Exchange]] = [[] for _ in range(clients)]
    cursor = [c * len(bodies) // clients for c in range(clients)]

    def client(c: int, stop_at: float) -> None:
        while time.perf_counter() < stop_at:
            index = cursor[c] % len(bodies)
            cursor[c] += 1
            record = Exchange(index=index, start=time.perf_counter())
            try:
                _post(port, path, bodies[index], record)
            except (OSError, http.client.HTTPException) as exc:
                record.error = f"{type(exc).__name__}: {exc}"
            record.end = time.perf_counter()
            out[c].append(record)

    for _ in range(segments):
        stop_at = time.perf_counter() + seconds / segments
        threads = [
            threading.Thread(
                target=client, args=(c, stop_at), name=f"loadgen-{c}",
                daemon=True,
            )
            for c in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return sorted((r for rs in out for r in rs), key=lambda r: r.start)


# ----------------------------------------------------------------------
# the server under test, as a subprocess
# ----------------------------------------------------------------------
def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def healthz_ok(port: int) -> bool:
    conn = http.client.HTTPConnection(HOST, port, timeout=5.0)
    try:
        conn.request("GET", "/healthz")
        return conn.getresponse().status == 200
    except OSError:
        return False
    finally:
        conn.close()


def batching_counts(port: int) -> dict:
    """The server's own coalescing counters, from ``GET /metrics``:
    ``/predict`` batches by size and decode ticks and tokens."""
    conn = http.client.HTTPConnection(HOST, port, timeout=10.0)
    try:
        conn.request("GET", "/metrics")
        model = json.loads(conn.getresponse().read())["models"]["default"]
    finally:
        conn.close()
    counts = {
        f"batches_of_{size}": n
        for size, n in model["batch_size_counts"].items()
    }
    generation = model.get("generation")
    if generation is not None:
        counts["ticks"] = generation["ticks"]
        counts["tokens"] = generation["tokens"]
    return counts


class ServerProcess:
    """``python -m repro.serve <artifact> <args>`` in its own session.

    :meth:`launch` returns the set-up time: spawn to the first 200
    from ``/healthz``.  :meth:`stop` sends SIGTERM (the server's
    drain-then-close path), waits, and makes sure no process of its
    tree (cluster workers included) outlives it.
    """

    def __init__(self, src: Path, artifact: Path, args: list[str], log: Path):
        self.src = src
        self.artifact = artifact
        self.args = args
        self.log = log
        self.port = 0
        self.proc: subprocess.Popen | None = None

    def launch(self) -> float:
        self.port = free_port()
        cmd = [
            sys.executable, "-m", "repro.serve", str(self.artifact),
            "--host", HOST, "--port", str(self.port), *self.args,
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        with open(self.log, "ab") as log:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, start_new_session=True,
            )
        deadline = t0 + HEALTHZ_TIMEOUT_S
        while not healthz_ok(self.port):
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before "
                    f"/healthz answered; see {self.log}"
                )
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError(f"/healthz not ready; see {self.log}")
            time.sleep(0.002)
        return time.perf_counter() - t0

    def tree(self) -> list[int]:
        return process_tree(self.proc.pid) if self.proc else []

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server's process tree."""
        total_kb = 0
        for pid in self.tree():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def cpu_s(self) -> float:
        """User plus system CPU time used so far by the server's
        process tree.  Time the hypervisor gives to other tenants is
        not in it."""
        ticks = 0
        for pid in self.tree():
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                continue
            fields = stat.rpartition(")")[2].split()
            ticks += int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        pids = process_tree(proc.pid)
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                _kill_group(proc.pid)
                proc.wait(timeout=10.0)
        # Cluster workers are the server's children, not ours: wait
        # for them by pid, and kill whatever the drain left behind.
        if _gone(pids[1:], 10.0):
            return
        _kill_group(proc.pid)
        for pid in pids[1:]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if not _gone(pids[1:], 10.0):
            raise RuntimeError(f"server processes {pids[1:]} survive")


def _gone(pids: list[int], timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while any(_alive(pid) for pid in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def process_tree(root: int) -> list[int]:
    """*root* and all its live descendants, from ``/proc``."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rpartition(")")[2].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated *q*-th percentile (0-100)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median_block_percentile(samples, q: float, block: int) -> float:
    """*samples* are ``(time, value)``: the median over consecutive
    blocks of *block* samples (in time order) of each block's *q*-th
    percentile.  With ``block * (1 - q/100) >= 10`` every block has ten
    samples beyond its percentile, and one stall decides at most the
    blocks it falls in, not the run."""
    values = [v for _, v in sorted(samples)]
    blocks = [
        percentile(values[i:i + block], q)
        for i in range(0, len(values) - block + 1, block)
    ]
    if not blocks:
        raise ValueError(f"fewer than {block} samples")
    return statistics.median(blocks)


def median_block_rate(times, block: int) -> float:
    """Events per second: the median over consecutive blocks of
    *block* events of ``block / (last - first)`` time, so one stall
    decides at most one block, not the run."""
    times = sorted(times)
    rates = [
        block / (times[i + block] - times[i])
        for i in range(0, len(times) - block, block)
        if times[i + block] > times[i]
    ]
    if not rates:
        raise ValueError(f"fewer than {block + 1} events to rate")
    return statistics.median(rates)


# ----------------------------------------------------------------------
# host diagnostics (never used to rescale a metric)
# ----------------------------------------------------------------------
def cpu_jiffies() -> tuple[int, int]:
    """``(steal, total)`` CPU time over all cores, from ``/proc/stat``."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]
    ticks = [int(v) for v in fields]
    return ticks[7], sum(ticks)


def steal_pct(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU time the hypervisor gave to other tenants between
    two :func:`cpu_jiffies` readings."""
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total else 0.0


def host_probes() -> dict:
    """A fixed numpy GEMM workload and a fixed pure-Python loop, median
    ms.  The GEMMs are 64x64, below OpenBLAS's threading threshold, so
    the probe times the core rather than BLAS thread hand-off."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((64, 64))
    gemm, py = [], []
    for _ in range(9):
        t0 = time.perf_counter()
        for _ in range(200):
            a @ a
        gemm.append(time.perf_counter() - t0)
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i
        py.append(time.perf_counter() - t0)
    return {
        "host.gemm_probe_ms": statistics.median(gemm) * 1e3,
        "host.py_probe_ms": statistics.median(py) * 1e3,
    }
