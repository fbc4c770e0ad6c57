"""Contract: a ``CompiledModel`` forward hands the caller its own array.

Every forward allocates its result, so over generated MLPs (widths not
divisible by the LUT unit ``mu`` included), batches 1-9, float32 and
float64, and vector requests:

1. a returned array is unchanged by later calls on the same handle;
2. a :meth:`~repro.api.CompiledModel.clone` replica returns the
   original's bits;
3. four threads calling one handle concurrently each get the serial
   result, bit for bit.

Whatever the planner picks per layer -- ``compiled`` traces (native
kernel or numpy fallback), ``biqgemm`` or ``dense`` -- must hold these.
"""

import sys
import threading

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import QuantConfig, quantize
from repro.api.model import QuantMLP
from repro.nn.linear import Linear

THREADS = 4


@st.composite
def models(draw):
    """A compiled BCQ MLP, its input width and a request dtype."""
    mu = draw(st.sampled_from((4, 8)))
    widths = draw(st.lists(st.integers(1, 40), min_size=2, max_size=4))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    layers = [
        Linear(
            rng.standard_normal((widths[i + 1], widths[i])) * 0.2,
            rng.standard_normal(widths[i + 1]) * 0.05,
        )
        for i in range(len(widths) - 1)
    ]
    bits = draw(st.integers(1, 3))
    compiled = quantize(
        QuantMLP(layers), QuantConfig(bits=bits, mu=mu)
    ).compile(batch_hint=1)
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    return compiled, widths[0], dtype, rng


def _request(rng, width, dtype, batch):
    """A ``(batch, width)`` request, or a vector when *batch* is 0."""
    shape = (width,) if batch == 0 else (batch, width)
    return rng.standard_normal(shape).astype(dtype)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    uint = np.dtype(f"u{want.dtype.itemsize}")
    assert np.array_equal(got.view(uint), want.view(uint))


SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(
    model=models(),
    batch=st.integers(0, 9),
    later=st.lists(st.integers(0, 9), min_size=1, max_size=4),
)
def test_returned_array_survives_later_calls(model, batch, later):
    compiled, width, dtype, rng = model
    x = _request(rng, width, dtype, batch)
    out = compiled(x)
    snapshot = np.array(out, copy=True)
    for b in later + [batch]:
        compiled(_request(rng, width, dtype, b))
    _same_bits(out, snapshot)


@SETTINGS
@given(model=models(), batches=st.lists(st.integers(0, 9), min_size=1,
                                        max_size=4))
def test_clone_matches_original(model, batches):
    compiled, width, dtype, rng = model
    replica = compiled.clone()
    for b in batches:
        x = _request(rng, width, dtype, b)
        _same_bits(replica(x), compiled(x))


@SETTINGS
@given(model=models(), batch=st.integers(0, 9))
def test_concurrent_calls_match_serial(model, batch):
    # One shape for every thread: any buffer shared across calls of
    # that shape would hand one thread's values to another.
    compiled, width, dtype, rng = model
    inputs = [_request(rng, width, dtype, batch) for _ in range(THREADS)]
    serial = [np.array(compiled(x), copy=True) for x in inputs]
    start = threading.Barrier(THREADS)
    results: list = [None] * THREADS
    errors: list = []

    def worker(i):
        try:
            start.wait(timeout=30)
            results[i] = [compiled(inputs[i]) for _ in range(5)]
        except Exception as exc:  # noqa: BLE001 -- reported below
            errors.append(repr(exc))

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    for i, outs in enumerate(results):
        for got in outs:
            _same_bits(got, serial[i])
