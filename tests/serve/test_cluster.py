"""repro.serve.cluster: shared-memory publication, the supervised
process pool, redelivery, failover from a hung worker, the crash-loop
breaker, and decode recovery.

These tests spawn real worker processes (the ``spawn`` context), so
they lean on one tiny encoder/decoder model and small pools.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.api import QuantConfig, quantize
from repro.api.artifact import export_parts
from repro.nn import build_encoder
from repro.resilience import faults
from repro.serve.batcher import Batcher, WorkerLost
from repro.serve.cluster import (
    ClusterConfig,
    ClusterPool,
    ModelUnroutableError,
    attach,
    publish,
)
from repro.serve.sequences import SequenceScheduler

CFG = ClusterConfig(
    heartbeat_interval_s=0.1,
    heartbeat_timeout_s=2.0,
    start_timeout_s=120.0,
    respawn_backoff_s=0.05,
    redelivery_wait_s=60.0,
)


@pytest.fixture(scope="module")
def compiled():
    enc = build_encoder("transformer-base", scale=16, layers=1, seed=0)
    return quantize(enc, QuantConfig(bits=2, mu=4)).compile(batch_hint=1)


@pytest.fixture(scope="module")
def decoder():
    from repro.gen.model import DecoderLM
    from repro.nn.transformer import TransformerConfig

    lm = DecoderLM(
        TransformerConfig(dim=32, heads=4, ff_dim=64, layers=2), 50, seed=3
    )
    return quantize(
        lm, QuantConfig(bits=2, mu=4, backend="biqgemm")
    ).compile(batch_hint=1)


def make_pool(compiled, *, workers=2, config=CFG, **kw):
    batcher = Batcher(max_batch=8, max_latency_ms=1.0, max_queue=256)
    return ClusterPool(
        compiled, batcher, workers=workers, name="m", config=config, **kw
    )


def wait_for(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestSharedModel:
    def test_publish_attach_round_trip(self, compiled):
        manifest, arrays = export_parts(compiled)
        with publish(manifest, arrays) as shared:
            other = attach(shared.name)
            got_manifest, got_arrays = other.load()
            assert got_manifest == manifest
            assert set(got_arrays) == set(arrays)
            for name, arr in arrays.items():
                got = got_arrays[name]
                # zero-copy read-only views, bit-identical, with 0-d
                # scalars (mu, n) keeping their shape
                assert not got.flags.writeable
                assert got.shape == np.asarray(arr).shape
                assert np.array_equal(got, arr)
            # drop the views before detaching, or the mapping can't
            # close and interpreter teardown complains
            del got, got_arrays
            other.close()

    def test_attach_unknown_name_raises(self):
        with pytest.raises(FileNotFoundError):
            attach("repro-no-such-segment")

    def test_closed_handle_refuses_load(self, compiled):
        manifest, arrays = export_parts(compiled)
        shared = publish(manifest, arrays)
        shared.unlink()
        with pytest.raises(ValueError, match="closed"):
            shared.load()


class TestClusterPool:
    def test_predict_parity_and_worker_naming(self, compiled):
        pool = make_pool(compiled).start()
        try:
            x = np.random.default_rng(0).standard_normal((4, 32))
            expect = compiled(x[None])[0]
            got = pool.batcher.submit(x, timeout=60.0)
            assert np.array_equal(got, expect)
            # satellite: processes (and dispatch threads) are named
            handles = pool._supervisor.live_handles()
            assert [h.proc.name for h in handles] == [
                "repro-worker-m-0", "repro-worker-m-1"
            ]
            assert any(
                t.name.startswith("repro-dispatch-m-")
                for t in threading.enumerate()
            )
        finally:
            pool.stop()

    def test_sigkill_mid_load_is_invisible_to_clients(self, compiled):
        pool = make_pool(compiled).start()
        try:
            rng = np.random.default_rng(1)
            xs = [rng.standard_normal((4, 32)) for _ in range(30)]
            expect = [compiled(x[None])[0] for x in xs]
            errors, bad = [], []

            def client(i):
                try:
                    y = pool.batcher.submit(xs[i], timeout=60.0)
                    if not np.array_equal(y, expect[i]):
                        bad.append(i)
                except BaseException as exc:  # noqa: BLE001
                    errors.append((i, repr(exc)))

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(30)
            ]
            for t in threads[:8]:
                t.start()
            time.sleep(0.05)
            victim = pool._supervisor.handle(0)
            os.kill(victim.pid, signal.SIGKILL)
            for t in threads[8:]:
                t.start()
            for t in threads:
                t.join(120)
            assert errors == []
            assert bad == []
            # the death is detected, accounted, and the slot respawned
            # with a new generation
            assert wait_for(
                lambda: pool.cluster_stats()["deaths"] >= 1
                and pool._supervisor.alive_count() == 2
            ), pool.cluster_stats()
            respawned = pool._supervisor.handle(0)
            assert respawned.generation != victim.generation
            assert not victim.alive
        finally:
            pool.stop()

    def test_crash_loop_breaker_quarantines_then_releases(
        self, compiled, caplog
    ):
        # Every worker process dies on its first job (the per-process
        # plan arms afresh in each spawn): three young deaths trip the
        # breaker; the idle probe survives and releases it.
        plan_json = faults.plan().kill("worker.job", times=1).to_json()
        cfg = ClusterConfig(
            heartbeat_interval_s=0.1,
            start_timeout_s=120.0,
            respawn_backoff_s=0.05,
            crash_loop_threshold=3,
            crash_loop_age_s=1.0,
            probe_interval_s=0.3,
            max_redelivery=8,
            redelivery_wait_s=60.0,
        )
        caplog.set_level(logging.WARNING, logger="repro.serve")
        pool = make_pool(
            compiled, config=cfg, fault_plan_json=plan_json
        ).start()
        try:
            x = np.random.default_rng(3).standard_normal((4, 32))
            with pytest.raises(ModelUnroutableError, match="quarantined"):
                pool.call_predict(x[None])
            assert "crash-loop" in pool.quarantined
            stats = pool.cluster_stats()
            assert stats["quarantines"] == 1
            assert stats["releases"] == 0
            assert stats["deaths"] >= 3
            # the half-open probe never gets a job, survives
            # crash_loop_age_s, and the breaker releases
            assert wait_for(
                lambda: pool.quarantined is None, timeout=60.0
            ), pool.cluster_stats()
            assert pool.cluster_stats()["releases"] == 1
            # the pool refills after the release (spawns take a beat)
            assert wait_for(
                lambda: pool._supervisor.alive_count() == 2, timeout=60.0
            )
        finally:
            pool.stop()
        # The supervisor logs each breaker edge itself, once.
        events = [
            json.loads(record.getMessage())
            for record in caplog.records
            if record.name == "repro.serve"
        ]
        assert [e["event"] for e in events] == [
            "model_quarantined", "model_released",
        ]
        assert events[0]["model"] == "m"
        assert "crash-loop" in events[0]["reason"]

    def test_stale_heartbeat_escalates_to_kill(self, compiled):
        # A hung worker (parked loop, no beat) must be SIGTERM/SIGKILLed
        # by the supervisor and replaced.
        plan_json = faults.plan().hang("worker.loop", after=5).to_json()
        cfg = ClusterConfig(
            heartbeat_interval_s=0.1,
            heartbeat_timeout_s=0.5,
            kill_grace_s=0.2,
            start_timeout_s=120.0,
            respawn_backoff_s=0.05,
            redelivery_wait_s=60.0,
        )
        pool = make_pool(
            compiled, workers=1, config=cfg, fault_plan_json=plan_json
        ).start()
        try:
            assert wait_for(
                lambda: pool.cluster_stats()["kills"] >= 1, timeout=60.0
            ), pool.cluster_stats()
            assert wait_for(
                lambda: pool._supervisor.alive_count() == 1, timeout=60.0
            )
        finally:
            pool.stop()


class TestClusterDecode:
    def test_stream_survives_killing_every_worker(self, decoder):
        prompt = np.array([1, 4, 9, 16, 2], dtype=np.int64)
        reference = decoder.generate(prompt, 12, temperature=0.8, seed=3)

        pool = make_pool(decoder).start()
        sched = SequenceScheduler(
            pool.decode_target(), max_sequences=4, max_latency_ms=1.0,
            name="lm",
        ).start()
        try:
            stream = sched.generate(prompt, 12, temperature=0.8, seed=3)
            got = []
            for i, token in enumerate(stream):
                got.append(int(token))
                if i == 4:  # nuke the KV caches mid-stream
                    for handle in pool._supervisor.live_handles():
                        os.kill(handle.pid, signal.SIGKILL)
            # bit-identical despite losing every worker: the facade
            # re-prefilled prompt + accepted tokens (prefill == step)
            assert got == reference
        finally:
            sched.stop()
            pool.stop()

    @pytest.mark.parametrize("hung_job", [0, 1], ids=["prefill", "step"])
    def test_hung_job_fails_over(self, decoder, hung_job):
        # A prefill, or a decode step, that outlives job_timeout_s gets
        # its worker killed, and the sequence moves to another worker.
        # Each worker process counts its own jobs, so the plan hangs
        # the stream's first (prefill) or second (first step) job after
        # ``primed`` pings on the only worker; its replacement starts
        # counting afresh, well short of that.
        primed = 20
        plan_json = faults.plan().hang(
            "worker.job", after=primed + hung_job, times=1
        ).to_json()
        cfg = ClusterConfig(
            heartbeat_interval_s=0.1,
            start_timeout_s=120.0,
            respawn_backoff_s=0.05,
            redelivery_wait_s=60.0,
            job_timeout_s=1.0,
        )
        prompt = np.array([1, 4, 9, 16, 2], dtype=np.int64)
        reference = decoder.generate(prompt, 6)
        pool = make_pool(
            decoder, workers=1, config=cfg, fault_plan_json=plan_json
        ).start()
        sched = SequenceScheduler(
            pool.decode_target(), max_sequences=2, max_latency_ms=1.0,
            name="lm",
        ).start()
        try:
            hung = pool._supervisor.handle(0)
            for _ in range(primed):
                assert hung.call("ping", None, 30.0) == "pong"
            assert list(sched.generate(prompt, 6)) == reference
            assert pool.cluster_stats()["kills"] >= 1
            assert not hung.alive
            assert pool._supervisor.handle(0) is not hung
        finally:
            sched.stop()
            pool.stop()

    def test_remote_decode_rejects_non_decoder(self, compiled):
        # an encoder-only model keeps the local compiled handle (the
        # server only wraps models with the full decode API), and the
        # worker-side guard explains the mismatch if one sneaks through
        pool = make_pool(compiled).start()
        try:
            handle = pool._supervisor.live_handles()[0]
            with pytest.raises(TypeError, match="decode API"):
                handle.call("prefill", ("s", np.array([1, 2]), 16), 30.0)
        finally:
            pool.stop()


class TestRedelivery:
    def test_worker_lost_when_everything_stays_dead(self, compiled):
        # all workers dead and no respawn within the budget -> the
        # request fails with WorkerLost after max_redelivery attempts
        cfg = ClusterConfig(
            heartbeat_interval_s=0.1,
            start_timeout_s=120.0,
            respawn_backoff_s=30.0,  # effectively: no respawn
            max_redelivery=1,
            redelivery_wait_s=0.3,
        )
        pool = make_pool(compiled, workers=1, config=cfg).start()
        try:
            victim = pool._supervisor.handle(0)
            os.kill(victim.pid, signal.SIGKILL)
            wait_for(lambda: pool._supervisor.alive_count() == 0)
            x = np.random.default_rng(4).standard_normal((4, 32))
            with pytest.raises(WorkerLost):
                pool.call_predict(x[None])
        finally:
            pool.stop()
