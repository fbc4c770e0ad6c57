"""Serve a compiled model over HTTP with dynamic batching.

Runs in a few seconds::

    python examples/serve_http.py

The deployment story end to end: quantize + compile a zoo transformer,
save the v3 artifact ("offline"), load it into a
:class:`repro.serve.ModelStore` ("the server"), expose the JSON/HTTP
frontend, fire concurrent clients at ``/predict``, and read
``/metrics`` to see what the batcher bought -- requests coalesced into
micro-batches, one model call's dispatch and glue amortized across
them, and outputs still bit-identical to unbatched execution.

The same server runs from the command line::

    python -m repro.serve model.npz --port 8000
    curl -s localhost:8000/predict -d '{"input": [[...]]}'
"""

import json
import tempfile
import threading
import urllib.request
from pathlib import Path

import numpy as np

from repro.api import QuantConfig, quantize, save
from repro.nn import build_encoder
from repro.serve import ServeConfig, Server


def main() -> None:
    rng = np.random.default_rng(3)

    # Offline: quantize, compile, ship the artifact (never float weights).
    config = QuantConfig(bits=3, mu=8, overrides={"ffn.*": {"bits": 2}})
    encoder = build_encoder("transformer-base", scale=16, layers=2, seed=0)
    compiled = quantize(encoder, config).compile(batch_hint=1)
    dim = encoder.config.dim

    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "encoder.npz"
        save(compiled, artifact)
        print(f"saved artifact: {artifact.stat().st_size / 1024:.0f} KB\n")

        # Online: load by name, start workers, open the HTTP frontend.
        server = Server(
            config=ServeConfig(workers=2, max_batch=16, max_latency_ms=10.0)
        )
        server.add_model("encoder", artifact)
        httpd = server.serve_http(port=0)  # ephemeral port
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        print(f"serving on {base}")

        # 24 concurrent single-request clients -> coalesced micro-batches.
        inputs = [rng.standard_normal((4, dim)) for _ in range(24)]
        expected = [compiled(x[None])[0] for x in inputs]
        outputs: list = [None] * len(inputs)

        def client(i: int) -> None:
            body = json.dumps(
                {"model": "encoder", "input": inputs[i].tolist(),
                 "dtype": "float64"}
            ).encode()
            with urllib.request.urlopen(
                urllib.request.Request(base + "/predict", data=body),
                timeout=30,
            ) as response:
                outputs[i] = np.asarray(json.loads(response.read())["output"])

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(len(inputs))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        exact = sum(
            np.array_equal(out, exp)
            for out, exp in zip(outputs, expected)
        )
        print(f"\n{len(inputs)} concurrent requests served; "
              f"{exact}/{len(inputs)} bit-identical to unbatched execution")

        with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
            metrics = json.loads(resp.read())["models"]["encoder"]
        print(
            f"batches executed: {metrics['batches']} "
            f"(LUT amortization {metrics['lut_amortization_ratio']:.1f} "
            f"requests/execution)"
        )
        print(
            f"latency p50/p95: {metrics['latency_ms']['p50']:.1f} / "
            f"{metrics['latency_ms']['p95']:.1f} ms"
        )
        print(
            "batch sizes:",
            {int(k): v for k, v in metrics["batch_size_counts"].items()},
        )

        with urllib.request.urlopen(base + "/models", timeout=10) as resp:
            print("models:", json.loads(resp.read())["models"])

        server.stop()
        print("\nserver stopped cleanly")


if __name__ == "__main__":
    main()
