"""Process-pool serving: one shared model copy, supervised workers.

Runs in under a minute::

    python examples/serve_cluster.py

The robustness story end to end: quantize + compile a zoo transformer,
serve it from a supervised **process** pool (``cluster=True``) -- the
compiled engine state is published once to shared memory and every
worker process maps it read-only, so N workers cost one model copy --
then SIGKILL a worker mid-load and watch the contract hold: zero
failed client requests (in-flight batches are redelivered to a
surviving worker), the supervisor detects the death by heartbeat,
respawns the slot with a new generation, and ``/metrics``-style
cluster counters record all of it.

The same pool runs from the command line::

    python -m repro.serve model.npz --cluster --workers 4 --port 8000

and the deterministic chaos harness drives it much harder::

    python -m repro.resilience chaos --seed 0 --requests 120
"""

import os
import signal
import threading
import time

import numpy as np

from repro.api import QuantConfig, quantize
from repro.nn import build_encoder
from repro.serve import ServeConfig, Server


def main() -> None:
    rng = np.random.default_rng(3)

    config = QuantConfig(bits=3, mu=8, overrides={"ffn.*": {"bits": 2}})
    encoder = build_encoder("transformer-base", scale=16, layers=2, seed=0)
    compiled = quantize(encoder, config).compile(batch_hint=1)
    dim = encoder.config.dim

    server = Server(
        config=ServeConfig(
            workers=2, max_batch=16, max_latency_ms=5.0, cluster=True
        )
    )
    server.add_model("encoder", compiled)
    with server:
        shared = server.metrics()["models"]["encoder"]["cluster"]
        print(
            f"serving from {shared['spawns']} worker processes, one "
            f"{shared['shared_bytes'] / 1024:.0f} KB shared model copy\n"
        )

        # Concurrent clients, with a worker murdered mid-load.
        inputs = [rng.standard_normal((4, dim)) for _ in range(40)]
        expected = [compiled(x[None])[0] for x in inputs]
        failures, mismatches = [], []

        def client(i: int) -> None:
            try:
                y = server.predict("encoder", inputs[i], timeout=60.0)
            except Exception as exc:  # noqa: BLE001
                failures.append((i, exc))
            else:
                if not np.array_equal(y, expected[i]):
                    mismatches.append(i)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(40)
        ]
        for thread in threads[:10]:
            thread.start()
        time.sleep(0.05)

        victim = server._runtimes["encoder"]._supervisor.handle(0)
        print(f"SIGKILL worker 0 (pid {victim.pid}) mid-load...")
        os.kill(victim.pid, signal.SIGKILL)

        for thread in threads[10:]:
            thread.start()
        for thread in threads:
            thread.join(120.0)

        print(f"clients: 40, failures: {len(failures)}, "
              f"mismatches: {len(mismatches)}")
        assert not failures and not mismatches

        # Give the supervisor a beat to account the death + respawn.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            stats = server.metrics()["models"]["encoder"]["cluster"]
            if stats["respawns"] >= 1 and all(
                w["alive"] for w in stats["workers"]
            ):
                break
            time.sleep(0.1)
        print(
            f"deaths: {stats['deaths']}, respawns: {stats['respawns']}, "
            f"redelivered: {stats['redelivered']}"
        )
        generations = [w["generation"] for w in stats["workers"]]
        print(f"worker generations now: {generations} "
              "(the respawned slot got a new one)")
        assert stats["deaths"] >= 1 and stats["respawns"] >= 1

    print("\nstopped cleanly: drained, workers joined, segment unlinked")


if __name__ == "__main__":
    main()
