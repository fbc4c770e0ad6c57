"""Analytic roofline cost model for every engine in the paper.

Each ``estimate_*`` function prices one ``(m, n) @ (n, b)`` multiply on a
:class:`~repro.hw.machine.MachineConfig` as

    time = max(compute_seconds, memory_seconds) + overhead_seconds

with engine-specific compute/traffic terms.  The model is the substitute
instrument for the paper's physical testbeds (see DESIGN.md Section 2):
it regenerates the *shape* of Table IV and Fig. 10 -- who wins, by
roughly what factor, and where the batch-size crossovers fall.  The
calibration constants live in :class:`~repro.hw.machine.CostTuning`.

Modelled engines
----------------
``estimate_gemm``
    Dense float GEMM (MKL/Eigen/cuBLAS with ``engine='blas'``, the
    paper's kCpu/kGpu with ``engine='naive'``).  Efficiency saturates
    with batch: ``eff = eff_max * b / (b + b_half)`` -- skinny GEMMs are
    memory/latency-bound and reach a small fraction of peak.
``estimate_biqgemm``
    Paper Eq. 8: DP build adds, gather-based query (element throughput
    ``peak_FMA/2 * gather_eta * spill``), plus an explicit key
    address-generation term on CPUs; traffic is keys + activations +
    outputs -- a ``32/bits`` reduction on the weight side.
``estimate_xnor``
    Paper Section IV-E complexity ``O(bw * ba * m * n/32 * b)`` word ops
    (XOR + popcount + accumulate = 3 ops/word) plus the on-the-fly
    activation-quantization work GEMV-style kernels skip.
``estimate_packed_gemm``
    The three Fig. 9 scenarios: ``container`` (sGEMM; 32-bit containers,
    no savings), ``with_unpack`` (Algorithm 3 decode then GEMM) and
    ``without_unpack`` (packed words multiplied as-is; wrong values,
    bandwidth probe).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from repro._util import ceil_div, check_positive_int
from repro.hw.cache import spill_factor
from repro.hw.machine import MachineConfig

__all__ = [
    "CostEstimate",
    "estimate",
    "estimate_backend",
    "estimate_gemm",
    "estimate_biqgemm",
    "estimate_compiled",
    "estimate_xnor",
    "estimate_packed_gemm",
    "estimate_int8_gemm",
]


@dataclass(frozen=True)
class CostEstimate:
    """Predicted cost of one kernel invocation.

    ``seconds`` is the roofline total; ``bound`` says which side of the
    roofline dominated ("compute" or "memory").  ``detail`` carries
    engine-specific sub-terms for the benches to print.
    """

    seconds: float
    compute_seconds: float
    memory_seconds: float
    overhead_seconds: float
    ops: float
    bytes: float
    bound: str
    detail: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("seconds must be non-negative")


def _finish(
    compute: float, memory: float, overhead: float, ops: float, nbytes: float, **detail
) -> CostEstimate:
    return CostEstimate(
        seconds=max(compute, memory) + overhead,
        compute_seconds=compute,
        memory_seconds=memory,
        overhead_seconds=overhead,
        ops=ops,
        bytes=nbytes,
        bound="compute" if compute >= memory else "memory",
        detail=detail,
    )


def _bw(machine: MachineConfig, threads: int, fraction: float = 1.0) -> float:
    """Achievable bandwidth for *threads* engaged units."""
    units = machine.units_engaged(threads)
    per_unit = machine.tuning.single_unit_bw_fraction
    return machine.bandwidth * min(1.0, per_unit * units) * fraction


def _check_shape(m: int, n: int, b: int) -> None:
    check_positive_int(m, "m")
    check_positive_int(n, "n")
    check_positive_int(b, "b")


def estimate_gemm(
    machine: MachineConfig,
    m: int,
    n: int,
    b: int,
    *,
    weight_bits: int = 32,
    act_bits: int = 32,
    threads: int = 1,
    engine: Literal["blas", "naive"] = "blas",
) -> CostEstimate:
    """Dense GEMM cost: ``2*m*n*b`` FLOPs against streamed operands.

    ``weight_bits``/``act_bits`` set the *storage* width (traffic side
    only -- arithmetic stays float).  ``engine='naive'`` switches to the
    textbook-kernel efficiencies (paper kCpu/kGpu).
    """
    _check_shape(m, n, b)
    t = machine.tuning
    flops = 2.0 * m * n * b
    if engine == "blas":
        eff_max, bw_frac, overhead = t.gemm_eff_max, 1.0, t.overhead_blas_s
    elif engine == "naive":
        eff_max, bw_frac, overhead = (
            t.naive_eff_max,
            t.naive_bw_fraction,
            max(t.overhead_kernel_s, t.overhead_naive_s),
        )
    else:
        raise ValueError(f"engine must be 'blas' or 'naive', got {engine!r}")
    eff = eff_max * b / (b + t.gemm_b_half)
    units = machine.units_engaged(threads)
    compute = flops / (machine.flops_per_unit * units * eff)
    nbytes = m * n * weight_bits / 8 + n * b * act_bits / 8 + m * b * 4
    memory = nbytes / _bw(machine, threads, bw_frac)
    return _finish(compute, memory, overhead, flops, nbytes, eff=eff)


def estimate_biqgemm(
    machine: MachineConfig,
    m: int,
    n: int,
    b: int,
    *,
    bits: int = 1,
    mu: int = 8,
    threads: int = 1,
) -> CostEstimate:
    """BiQGEMM cost per paper Eq. 8 with hardware-aware throughputs.

    - build: ``(2^mu + mu - 1) * (n/mu) * b`` adds at half the FMA rate
      (adds, not FMAs) -- paper Eq. 6;
    - query: ``m * (n/mu) * b * bits`` gathered accumulations (Eq. 7
      scaled by the bit planes) at ``FMA_rate/2 * gather_eta * spill``;
      on CPUs an extra ``m * (n/mu) * bits`` key-decode term at
      ``keys_per_cycle`` per cycle;
    - traffic: the key matrix (``bits`` planes of ``ceil(mu/8)``-byte
      keys -- the ``32/bits`` weight-side bandwidth saving that motivates
      the paper), activations and outputs.
    """
    _check_shape(m, n, b)
    check_positive_int(bits, "bits", upper=8)
    check_positive_int(mu, "mu", upper=16)
    t = machine.tuning
    groups = ceil_div(n, mu)
    units = machine.units_engaged(threads)

    build_adds = ((1 << mu) + mu - 1) * groups * b
    build_s = build_adds / (machine.flops_per_unit * units * 0.5)

    lookups = float(m) * groups * b * bits
    gather_rate = (
        machine.flops_per_unit
        * units
        * 0.5
        * t.gather_eta
        * spill_factor(machine, mu, b)
    )
    query_s = lookups / gather_rate
    key_s = 0.0
    if t.keys_per_cycle > 0:
        keys = float(m) * groups * bits
        key_s = keys / (t.keys_per_cycle * machine.cycles_per_second * units)

    key_bytes = m * groups * bits * (1 if mu <= 8 else 2)
    nbytes = key_bytes + n * b * 4 + m * b * 4
    memory = nbytes / _bw(machine, threads)
    compute = build_s + query_s + key_s
    return _finish(
        compute,
        memory,
        t.overhead_kernel_s,
        build_adds + lookups,
        nbytes,
        build_s=build_s,
        query_s=query_s,
        key_s=key_s,
        lookups=lookups,
        key_bytes=float(key_bytes),
    )


def estimate_compiled(
    machine: MachineConfig,
    m: int,
    n: int,
    b: int,
    *,
    bits: int = 1,
    mu: int = 8,
    threads: int = 1,
    fuse: str | None = None,
) -> CostEstimate:
    """Cost of BiQGEMM on the native kernel (the ``compiled`` engine).

    Same arithmetic as :func:`estimate_biqgemm`, with the native
    kernel's wins priced in:

    - the key address-generation term vanishes -- gather indices are
      materialized once at build time, not decoded per call;
    - per-call overhead shrinks: the call makes no shape checks,
      reshape decisions, workspace negotiation or dtype promotion
      (everything is pre-resolved into the per-dtype native plan);
    - with a fused epilogue (*fuse*), the bias+activation run inside the
      query pass, so the output-sized memory round trip a separate
      activation pass would pay is credited back; the epilogue's own
      elementwise ops are charged at half the FMA rate.
    """
    base = estimate_biqgemm(
        machine, m, n, b, bits=bits, mu=mu, threads=threads
    )
    t = machine.tuning
    units = machine.units_engaged(threads)
    epilogue_ops = 0.0
    nbytes = base.bytes
    if fuse is not None:
        # ~4 elementwise ops per output element (bias add + activation).
        epilogue_ops = 4.0 * m * b
        # One output-sized write+read no longer hits memory separately.
        nbytes = max(0.0, nbytes - 4.0 * m * b)
    epilogue_s = epilogue_ops / (machine.flops_per_unit * units * 0.5)
    compute = (
        base.detail["build_s"] + base.detail["query_s"] + epilogue_s
    )
    memory = nbytes / _bw(machine, threads)
    overhead = t.overhead_kernel_s * 0.5
    return _finish(
        compute,
        memory,
        overhead,
        base.ops + epilogue_ops,
        nbytes,
        build_s=base.detail["build_s"],
        query_s=base.detail["query_s"],
        epilogue_s=epilogue_s,
        lookups=base.detail["lookups"],
        key_bytes=base.detail["key_bytes"],
        fused=0.0 if fuse is None else 1.0,
    )


def estimate_xnor(
    machine: MachineConfig,
    m: int,
    n: int,
    b: int,
    *,
    w_bits: int = 1,
    a_bits: int = 1,
    threads: int = 1,
    container_bits: int = 32,
) -> CostEstimate:
    """XNOR-popcount GEMM cost (paper Section IV-E).

    ``w_bits * a_bits * m * ceil(n/container) * b`` words, three ops each
    (XOR, popcount, accumulate), at ``int_op_eff`` of peak; plus the
    dynamic activation quantization (~4 ops per activation element per
    plane) the paper charges this scheme with.
    """
    _check_shape(m, n, b)
    check_positive_int(w_bits, "w_bits", upper=8)
    check_positive_int(a_bits, "a_bits", upper=8)
    t = machine.tuning
    units = machine.units_engaged(threads)
    words = float(w_bits) * a_bits * m * ceil_div(n, container_bits) * b
    word_ops = 3.0 * words
    quant_ops = 4.0 * a_bits * n * b
    compute = (word_ops + quant_ops) / (
        machine.flops_per_unit * units * t.int_op_eff
    )
    nbytes = m * n * w_bits / 8 + n * b * 4 + m * b * 4
    memory = nbytes / _bw(machine, threads)
    return _finish(
        compute,
        memory,
        t.overhead_xnor_s,
        word_ops + quant_ops,
        nbytes,
        words=words,
        quant_ops=quant_ops,
    )


def estimate_packed_gemm(
    machine: MachineConfig,
    m: int,
    n: int,
    b: int,
    *,
    scenario: Literal["container", "with_unpack", "without_unpack"] = "with_unpack",
    weight_bits: int = 1,
    threads: int = 1,
    engine: Literal["blas", "naive"] = "naive",
    container_bits: int = 32,
) -> CostEstimate:
    """The three packed-weight scenarios of the paper's Fig. 9.

    - ``container``: sGEMM -- one quantized weight per 32-bit container,
      plain dense GEMM traffic and FLOPs (no quantization benefit);
    - ``with_unpack``: bit-packed weights (``weight_bits/32`` of the
      traffic) plus Algorithm 3 decode at ``unpack_weights_per_cycle``,
      then the dense GEMM arithmetic;
    - ``without_unpack``: packed words multiplied as-is -- ``1/32`` of
      the arithmetic and weight traffic; numerically wrong by design,
      the pure bandwidth/footprint probe.

    Fig. 9 uses the textbook kernel, so ``engine`` defaults to
    ``'naive'``.
    """
    _check_shape(m, n, b)
    check_positive_int(weight_bits, "weight_bits", upper=32)
    t = machine.tuning
    units = machine.units_engaged(threads)
    if scenario == "container":
        return estimate_gemm(
            machine, m, n, b, weight_bits=32, threads=threads, engine=engine
        )
    base = estimate_gemm(
        machine, m, n, b, weight_bits=weight_bits, threads=threads, engine=engine
    )
    if scenario == "with_unpack":
        unpack_s = (m * n * weight_bits) / (
            t.unpack_weights_per_cycle * machine.cycles_per_second * units
        )
        compute = base.compute_seconds + unpack_s
        return _finish(
            compute,
            base.memory_seconds,
            base.overhead_seconds,
            base.ops + 4.0 * m * n * weight_bits,
            base.bytes,
            unpack_s=unpack_s,
        )
    if scenario == "without_unpack":
        words = ceil_div(n, container_bits)
        flops = 2.0 * m * words * b * weight_bits
        eff_max = t.gemm_eff_max if engine == "blas" else t.naive_eff_max
        bw_frac = 1.0 if engine == "blas" else t.naive_bw_fraction
        eff = eff_max * b / (b + t.gemm_b_half)
        compute = flops / (machine.flops_per_unit * units * eff)
        nbytes = m * n * weight_bits / 8 + words * b * 4 + m * b * 4
        memory = nbytes / _bw(machine, threads, bw_frac)
        overhead = t.overhead_blas_s if engine == "blas" else t.overhead_kernel_s
        return _finish(compute, memory, overhead, flops, nbytes, eff=eff)
    raise ValueError(
        "scenario must be 'container', 'with_unpack' or 'without_unpack', "
        f"got {scenario!r}"
    )


def estimate_int8_gemm(
    machine: MachineConfig,
    m: int,
    n: int,
    b: int,
    *,
    threads: int = 1,
    conversion_overhead: float = 0.2,
    int8_speedup: float = 2.0,
) -> CostEstimate:
    """Fixed-point INT8 GEMM with dynamic quantization (paper S.II-A).

    The integer inner kernel runs ``int8_speedup`` times faster than
    fp32 (8-bit dot products pack more lanes; ~2x without VNNI), weights
    move at 1 byte/element, but the pipeline pays (a) dynamic activation
    quantization + output dequantization ops and (b) the paper's quoted
    "15%~30% computational overhead" for the float<->fixed conversions
    around the non-GEMM operators -- exposed as *conversion_overhead*
    (default 20%).
    """
    _check_shape(m, n, b)
    if not 0.0 <= conversion_overhead <= 1.0:
        raise ValueError("conversion_overhead must be in [0, 1]")
    if int8_speedup <= 0:
        raise ValueError("int8_speedup must be positive")
    t = machine.tuning
    units = machine.units_engaged(threads)
    flops = 2.0 * m * n * b
    eff = t.gemm_eff_max * b / (b + t.gemm_b_half)
    kernel_s = flops / (machine.flops_per_unit * units * eff * int8_speedup)
    convert_ops = 4.0 * (n * b + m * b)  # quantize input, dequantize output
    convert_s = convert_ops / (machine.flops_per_unit * units * 0.5)
    compute = (kernel_s + convert_s) * (1.0 + conversion_overhead)
    nbytes = m * n + n * b + m * b * 4  # int8 weights + int8 acts + f32 out
    memory = nbytes / _bw(machine, threads)
    return _finish(
        compute,
        memory,
        t.overhead_blas_s,
        flops + convert_ops,
        nbytes,
        kernel_s=kernel_s,
        convert_s=convert_s,
    )


def estimate_backend(
    backend: str,
    machine: MachineConfig,
    m: int,
    n: int,
    b: int,
    *,
    bits: int = 3,
    mu: int = 8,
    threads: int = 1,
    fuse: str | None = None,
) -> CostEstimate:
    """Price one multiply of a *serving* backend (QuantSpec names).

    Unlike :func:`estimate`, whose keys are the raw kernel families,
    this maps the backend names a :class:`~repro.engine.base.QuantSpec`
    selects -- the names the engine registry and dispatch planner use --
    onto the cost functions above:

    - ``biqgemm``: Eq. 8 with *bits* key planes sharing tables;
    - ``compiled``: the native kernel (no key decode, reduced
      overhead, optional fused epilogue priced by *fuse*);
    - ``dense``: one dequantized-weight BLAS GEMM;
    - ``int8``: dynamic-quantization INT8 GEMM.

    The paper's sGEMM, unpack-then-GEMM and XNOR baselines are not
    serving backends; price them directly with :func:`estimate_gemm`,
    :func:`estimate_packed_gemm` and :func:`estimate_xnor`.
    """
    check_positive_int(bits, "bits", upper=8)
    if backend == "biqgemm":
        return estimate_biqgemm(machine, m, n, b, bits=bits, mu=mu, threads=threads)
    if backend == "compiled":
        return estimate_compiled(
            machine, m, n, b, bits=bits, mu=mu, threads=threads, fuse=fuse
        )
    if backend == "dense":
        return estimate_gemm(machine, m, n, b, threads=threads)
    if backend == "int8":
        return estimate_int8_gemm(machine, m, n, b, threads=threads)
    raise ValueError(
        f"unknown backend {backend!r}; expected one of "
        "['biqgemm', 'compiled', 'dense', 'int8']"
    )


_ENGINES = {
    "gemm": estimate_gemm,
    "biqgemm": estimate_biqgemm,
    "xnor": estimate_xnor,
    "packed": estimate_packed_gemm,
    "int8": estimate_int8_gemm,
}


def estimate(
    engine: str, machine: MachineConfig, m: int, n: int, b: int, **kwargs
) -> CostEstimate:
    """Dispatch to an ``estimate_*`` function by engine name.

    ``engine`` is one of ``'gemm'``, ``'biqgemm'``, ``'xnor'``,
    ``'packed'``; keyword arguments are forwarded.
    """
    try:
        fn = _ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {sorted(_ENGINES)}"
        ) from None
    return fn(machine, m, n, b, **kwargs)
