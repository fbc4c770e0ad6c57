"""The engine abstraction every matmul backend implements.

The paper's central observation (Section V, Table IV, Fig. 10) is that
*which* kernel wins depends on shape, batch size, bit width and
hardware: BiQGEMM dominates the small-batch GEMV-like regime while a
tuned BLAS overtakes it at large batch.  To let one system hold the
serving engines behind a single seam, this module defines:

:class:`MatmulEngine`
    The structural protocol: compile-once weight state, a ``matmul``
    over column-major activations, deployed ``weight_nbytes`` and
    analytic ``op_counts``.  The ``biqgemm`` engine
    (:mod:`repro.engine.compiled`), the adapters in
    :mod:`repro.engine.adapters` and the numpy
    :class:`~repro.core.kernel.BiQGemm` reference all satisfy it.
:class:`QuantSpec`
    The user-facing description of *how* a layer should quantize and
    compute, including ``backend="auto"`` which defers the choice to
    the cost-model planner in :mod:`repro.engine.dispatch`.
:class:`EngineBuildRequest`
    The compile-time context handed to engine factories: the float
    weight and/or its BCQ quantization, computed once and shared so
    that switching engines never re-runs the quantizer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Literal, Protocol, runtime_checkable

import numpy as np

from repro.quant.bcq import BCQTensor, bcq_quantize

__all__ = [
    "AUTO_BACKEND",
    "Backend",
    "EngineBuildRequest",
    "MatmulEngine",
    "QuantSpec",
]

AUTO_BACKEND = "auto"
"""Sentinel backend name resolved by the dispatch planner."""

Backend = Literal["auto", "biqgemm", "dense", "int8"]


@runtime_checkable
class MatmulEngine(Protocol):
    """Structural interface of a compiled matmul backend.

    An engine is compiled once from a weight matrix (offline, matching
    the paper's deployment model in which compiled keys -- not float
    weights -- ship with the inference system) and then multiplied any
    number of times.  All engines use the paper's column orientation:
    ``matmul`` consumes ``(n, b)`` activations (or ``(n,)`` vectors)
    and produces ``(m, b)`` outputs.

    Engines return results in the input's floating dtype whenever the
    accumulation allows it (integer inputs are promoted to float64);
    see the adapters for the per-engine dtype notes.

    ``matmul`` returns an array the caller owns: it stays valid across
    later calls.
    """

    @property
    def shape(self) -> tuple[int, int]:
        """Logical ``(m, n)`` of the represented weight matrix."""
        ...

    @property
    def weight_nbytes(self) -> int | float:
        """Bytes of deployed weight state (keys/planes/codes + scales)."""
        ...

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """Compute ``W_quantized @ x`` for ``(n, b)`` or ``(n,)`` input."""
        ...

    def op_counts(self, batch: int) -> dict[str, float]:
        """Analytic operation counts for one multiply at *batch* columns."""
        ...


@dataclass(frozen=True)
class QuantSpec:
    """How a quantized layer should quantize and compute.

    Attributes
    ----------
    bits:
        BCQ weight bits (paper: 1-3 for weights).
    mu:
        LUT-unit for the BiQGEMM backend.
    method:
        ``"greedy"``, ``"refined"`` or ``"alternating"`` BCQ solver.
    backend:
        Engine selection: any name registered in
        :mod:`repro.engine.registry` (``"biqgemm"``, ``"dense"``,
        ``"int8"``), or ``"auto"`` to let the cost-model planner choose
        from the shape, ``batch_hint`` and machine.
    machine:
        :data:`~repro.hw.machine.MACHINES` key the ``"auto"`` planner
        prices candidates on (ignored for concrete backends).
    batch_hint:
        Expected serving batch for ``"auto"`` planning.  ``"auto"``
        resolves once per layer, at this batch (1 when ``None``), and
        the layer serves every batch on that one engine.
    fuse:
        Name of the activation fused into the engine's epilogue
        (``"relu"``, ``"gelu"``, ``"sigmoid"`` or ``"tanh"``), or
        ``None`` for a plain matmul.  Only the ``biqgemm`` backend
        honours it; :meth:`repro.api.model.QuantModel.compile`
        discovers fusion sites from the model structure and sets it.
    """

    bits: int = 3
    mu: int = 8
    method: str = "greedy"
    backend: Backend = "biqgemm"
    machine: str = "pc"
    batch_hint: int | None = None
    fuse: str | None = None

    def __post_init__(self) -> None:
        from repro.engine.registry import check_not_legacy

        check_not_legacy(self.backend)


@dataclass
class EngineBuildRequest:
    """Compile-time context shared by every engine factory.

    Holds the float weight and/or its BCQ quantization.  The BCQ solve
    (the expensive offline step) runs at most once per request, no
    matter how many engines are built from it -- the property that lets
    a layer re-pinned onto another backend, and its serving replicas,
    rebuild engines without re-quantizing.

    Either *weight* or *bcq* must be provided; engines that need the
    original float weight (``int8``, which quantizes on a uniform grid
    rather than from the BCQ components) raise when only *bcq* exists.
    """

    spec: QuantSpec
    weight: np.ndarray | None = None
    bcq: BCQTensor | None = field(default=None)
    # Layer bias, folded into the epilogue of engines that have one
    # (``biqgemm``); the other engines ignore it and the layer adds the
    # bias itself.
    bias: np.ndarray | None = None
    # Serving replicas share one request across worker threads; the lock
    # keeps the lazy BCQ solve single-flight.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.weight is None and self.bcq is None:
            raise ValueError("EngineBuildRequest needs a weight or a BCQTensor")
        if self.weight is not None:
            arr = np.asarray(self.weight, dtype=np.float64)
            if arr.ndim != 2:
                raise ValueError(
                    f"weight must be 2-D, got shape {arr.shape}"
                )
            self.weight = arr

    @property
    def shape(self) -> tuple[int, int]:
        """Logical ``(m, n)`` of the weight being compiled."""
        if self.weight is not None:
            return (int(self.weight.shape[0]), int(self.weight.shape[1]))
        return self.bcq.shape  # type: ignore[union-attr]

    def get_bcq(self) -> BCQTensor:
        """The BCQ quantization, solving it (once, thread-safely) on
        first access."""
        if self.bcq is None:
            with self._lock:
                if self.bcq is None:
                    self.bcq = bcq_quantize(
                        self.weight, self.spec.bits, method=self.spec.method
                    )
        return self.bcq

    def get_weight(self) -> np.ndarray:
        """The original float weight; raises if only BCQ state exists."""
        if self.weight is None:
            raise ValueError(
                "this engine needs the original float weight, but the "
                "build request only carries a BCQTensor"
            )
        return self.weight

    def release_weight(self) -> None:
        """Drop the float weight, keeping only the quantized state.

        Matches the paper's deployment model (only compiled state
        ships); callers do this once the backend they serve does not
        need the original (``EngineEntry.needs_weight``).
        Quantizes first if that has not happened yet.
        """
        self.get_bcq()
        self.weight = None
