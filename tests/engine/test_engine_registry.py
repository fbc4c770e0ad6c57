"""Unit tests for the engine registry (repro.engine.registry)."""

import numpy as np
import pytest

from repro.engine import (
    EngineBuildRequest,
    EngineEntry,
    MatmulEngine,
    QuantSpec,
    build_engine,
    engine_entry,
    lossless_engines,
    register_engine,
    registered_engines,
)
from repro.engine import registry as registry_module


@pytest.fixture()
def request_2bit(rng):
    spec = QuantSpec(bits=2, mu=4)
    return EngineBuildRequest(spec=spec, weight=rng.standard_normal((10, 16)))


class TestRegistryContents:
    def test_exactly_the_serving_engines_registered(self):
        assert registered_engines() == ("biqgemm", "dense", "int8")

    def test_lossless_subset(self):
        # int8 quantizes activations: not an auto candidate.
        assert lossless_engines() == ("biqgemm", "dense")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            engine_entry("magic")

    def test_duplicate_registration_rejected(self):
        entry = engine_entry("dense")
        with pytest.raises(ValueError, match="already registered"):
            register_engine(entry)

    def test_register_rejects_non_entry(self):
        with pytest.raises(TypeError, match="EngineEntry"):
            register_engine("dense")

    def test_entries_have_cost_and_description(self):
        for name in registered_engines():
            entry = engine_entry(name)
            assert entry.cost is not None, name
            assert entry.description, name


class TestProtocolConformance:
    @pytest.mark.parametrize("backend", ["biqgemm", "dense", "int8"])
    def test_engine_satisfies_protocol(self, request_2bit, backend):
        engine = build_engine(backend, request_2bit)
        assert isinstance(engine, MatmulEngine)
        assert engine.shape == (10, 16)
        assert engine.weight_nbytes > 0
        counts = engine.op_counts(4)
        assert counts and all(v > 0 for v in counts.values())

    @pytest.mark.parametrize("backend", ["biqgemm", "dense", "int8"])
    def test_vector_input_gives_vector_output(self, rng, request_2bit, backend):
        engine = build_engine(backend, request_2bit)
        out = engine.matmul(rng.standard_normal(16))
        assert out.shape == (10,)

    @pytest.mark.parametrize("backend", ["biqgemm", "dense", "int8"])
    def test_rejects_wrong_inner_dim(self, rng, request_2bit, backend):
        engine = build_engine(backend, request_2bit)
        with pytest.raises(ValueError):
            engine.matmul(rng.standard_normal((17, 3)))

    def test_registered_extension_flows_through(self, rng):
        """A backend registered at runtime is immediately buildable."""

        class EchoDense:
            backend_name = "test-echo"

            def __init__(self, bcq):
                self._w = bcq.dequantize()

            @property
            def shape(self):
                return tuple(map(int, self._w.shape))

            @property
            def weight_nbytes(self):
                return self._w.nbytes

            def matmul(self, x):
                return self._w @ np.asarray(x, dtype=np.float64)

            def op_counts(self, batch):
                m, n = self._w.shape
                return {"flops": 2.0 * m * n * batch}

        entry = EngineEntry(
            name="test-echo",
            build=lambda req: EchoDense(req.get_bcq()),
            lossless=True,
            description="test-only",
        )
        register_engine(entry)
        try:
            spec = QuantSpec(bits=1, mu=2)
            req = EngineBuildRequest(
                spec=spec, weight=rng.standard_normal((4, 6))
            )
            engine = build_engine("test-echo", req)
            x = rng.standard_normal((6, 2))
            assert np.allclose(engine.matmul(x), req.get_bcq().matmul_dense(x))
        finally:
            registry_module._REGISTRY.pop("test-echo")


class TestBuildRequest:
    def test_bcq_solved_once_and_shared(self, rng):
        spec = QuantSpec(bits=2, mu=4)
        req = EngineBuildRequest(spec=spec, weight=rng.standard_normal((6, 8)))
        first = req.get_bcq()
        assert req.get_bcq() is first
        dense = build_engine("dense", req)
        build_engine("biqgemm", req)
        assert dense.bcq is first
        assert req.get_bcq() is first

    def test_needs_weight_or_bcq(self):
        with pytest.raises(ValueError, match="weight or a BCQTensor"):
            EngineBuildRequest(spec=QuantSpec())

    def test_int8_requires_float_weight(self, rng):
        from repro.quant.bcq import bcq_quantize

        bcq = bcq_quantize(rng.standard_normal((4, 6)), 2)
        req = EngineBuildRequest(spec=QuantSpec(bits=2), bcq=bcq)
        with pytest.raises(ValueError, match="original float weight"):
            build_engine("int8", req)

    def test_rejects_non_2d_weight(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            EngineBuildRequest(
                spec=QuantSpec(), weight=rng.standard_normal(5)
            )
