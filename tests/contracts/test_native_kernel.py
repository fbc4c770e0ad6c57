"""Contract: the ``compiled`` engine equals its batch-invariant reference.

Whatever serves a call -- the native LUT query kernel (``_lutq.c``) or,
on a host without it, the numpy fallback -- the output must equal the
inner batch-invariant :class:`~repro.core.kernel.BiQGemm` followed by
the plain bias + activation epilogue, bit for bit, over generated
shapes, bit widths, LUT units, batches, dtypes, memory layouts and
non-finite inputs -- and when threads share one engine.  Batches run
to 150, across the kernel's column-chunk edges (8 float and 4 double
columns) and past 64, the batch cap of the earlier per-batch traces.
A second build of the kernel without its x86-64-v3 clones (what a host
without AVX2 runs) gives the loaded build's bits.

"Bit for bit" compares the raw bits of every element, signed zeros
included, with one exception: where the reference holds a NaN, the
result must hold a NaN too, but its sign and payload may differ.
IEEE 754 leaves those unspecified for arithmetic results, and both
numpy's loops and a C compiler may commute the operands of an add.
"""

import ctypes
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel import BiQGemm
from repro.core.tiling import choose_tiles
from repro.core.keys import KeyMatrix
from repro.engine import native
from repro.engine.compiled import CompiledKernelEngine
from repro.nn.functional import FUSIBLE_ACTIVATIONS, activation_fn

LAYOUTS = ("contiguous", "row-strided", "col-strided", "fortran",
           "reversed", "unaligned")
SPECIALS = (np.nan, np.inf, -np.inf, -0.0)
BATCHES = st.one_of(
    st.integers(1, 150),
    st.sampled_from((1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 63, 64, 65, 96,
                     150)),
)


def _engine(rng, m, n, bits, mu, bias, activation):
    groups = -(-n // mu)
    keys = rng.integers(0, 1 << mu, size=(bits, m, groups))
    inner = BiQGemm(
        KeyMatrix(keys=keys, mu=mu, n=n),
        alphas=rng.uniform(0.05, 2.0, size=(bits, m)),
    )
    bias_vec = rng.standard_normal(m) if bias else None
    return CompiledKernelEngine(inner, bias=bias_vec, activation=activation)


def _expected(engine, x):
    """The unfused chain: invariant matmul, bias fold, activation."""
    y = engine.inner.matmul(np.ascontiguousarray(x))
    if engine.bias is not None:
        y = y + engine.bias.astype(y.dtype)[:, None]
    if engine.activation is not None:
        y = activation_fn(engine.activation)(y)
    return y


def _layout(x, layout):
    """*x*'s values in the requested memory layout."""
    n, b = x.shape
    if layout == "row-strided":
        big = np.zeros((2 * n, b), x.dtype)
        big[::2] = x
        return big[::2]
    if layout == "col-strided":
        big = np.zeros((n, 3 * b), x.dtype)
        big[:, ::3] = x
        return big[:, ::3]
    if layout == "fortran":
        return np.asfortranarray(x)
    if layout == "reversed":
        return np.ascontiguousarray(x[::-1])[::-1]
    if layout == "unaligned":
        raw = np.zeros(x.nbytes + 1, np.uint8)
        view = raw[1:].view(x.dtype).reshape(x.shape)
        view[...] = x
        assert not view.flags.aligned
        return view
    return x


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    uint = np.dtype(f"u{want.dtype.itemsize}")
    got_bits = np.where(nan, 0, got).view(uint)
    want_bits = np.where(nan, 0, want).view(uint)
    assert np.array_equal(got_bits, want_bits)


def _assert_native_served(engine, dtype):
    """On a host with the native kernel, calls in *dtype* used it."""
    if native.load() is not None and dtype in native.DTYPES:
        assert engine._plans.get(np.dtype(dtype)) is not None


@given(
    m=st.integers(1, 300),
    n=st.integers(1, 300),
    bits=st.integers(1, 4),
    mu=st.integers(4, 8),
    batch=BATCHES,
    dtype=st.sampled_from((np.float32, np.float64)),
    layout=st.sampled_from(LAYOUTS),
    bias=st.booleans(),
    activation=st.sampled_from((None, *sorted(FUSIBLE_ACTIVATIONS))),
    specials=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_compiled_equals_batch_invariant_reference(
    m, n, bits, mu, batch, dtype, layout, bias, activation, specials, seed
):
    rng = np.random.default_rng(seed)
    engine = _engine(rng, m, n, bits, mu, bias, activation)
    x = rng.standard_normal((n, batch)).astype(dtype)
    for _ in range(specials):
        x[rng.integers(n), rng.integers(batch)] = rng.choice(SPECIALS)
    x = _layout(x, layout)
    with np.errstate(all="ignore"):
        want = _expected(engine, x)
        for _ in range(2):  # the first call builds the native plan
            _assert_same_bits(engine.matmul(x), want)
    _assert_native_served(engine, x.dtype)


@given(
    n=st.integers(1, 40),
    mu=st.sampled_from((1, 2, 3, 9, 10)),
    batch=st.integers(1, 5),
    dtype=st.sampled_from((np.float32, np.float64)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_degenerate_and_wide_lut_units(n, mu, batch, dtype, seed):
    # mu <= 3 has near-empty doubling steps; mu > 8 stores uint16 keys.
    rng = np.random.default_rng(seed)
    engine = _engine(rng, 7, n, 2, mu, True, "relu")
    x = rng.standard_normal((n, batch)).astype(dtype)
    _assert_same_bits(engine.matmul(x), _expected(engine, x))
    _assert_native_served(engine, x.dtype)


@given(
    n=st.integers(4097, 6000),
    bits=st.integers(1, 3),
    batch=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=8, deadline=None)
def test_multi_tile_schedule(n, bits, batch, seed):
    # float64 at mu=8 tiles 512 groups at a time: every n here spans
    # two group tiles, whose partial sums fold into y separately.
    rng = np.random.default_rng(seed)
    engine = _engine(rng, 5, n, bits, 8, True, None)
    assert engine.inner.invariant_tiles(np.float64).tile_g < -(-n // 8)
    x = rng.standard_normal((n, batch))
    _assert_same_bits(engine.matmul(x), _expected(engine, x))
    _assert_native_served(engine, x.dtype)


@given(
    m=st.integers(1, 200),
    n=st.integers(1, 200),
    bits=st.integers(1, 4),
    mu=st.integers(4, 8),
    batches=st.lists(BATCHES, min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=15, deadline=None)
def test_threads_sharing_one_engine(m, n, bits, mu, batches, seed):
    # Four threads call one engine at once, each with its own batch and
    # dtype: they share its native plans and the table scratch pool.
    rng = np.random.default_rng(seed)
    engine = _engine(rng, m, n, bits, mu, True, "relu")
    dtypes = (np.float32, np.float64) * 2
    xs = [
        rng.standard_normal((n, b)).astype(dt)
        for b, dt in zip(batches, dtypes)
    ]
    wants = [_expected(engine, x) for x in xs]
    start = threading.Barrier(len(xs))
    results = [[] for _ in xs]

    def serve(i):
        start.wait(timeout=60)
        for _ in range(5):
            results[i].append(engine.matmul(xs[i]))

    threads = [
        threading.Thread(target=serve, args=(i,)) for i in range(len(xs))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the Python parts densely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, wants):
        assert len(got) == 5
        for y in got:
            _assert_same_bits(y, want)
    for dt in (np.float32, np.float64):
        _assert_native_served(engine, np.dtype(dt))


@pytest.fixture(scope="module")
def portable_run(tmp_path_factory):
    """``lutq_run`` of ``_lutq.c`` built with ``-DLUTQ_NO_CLONES``: the
    baseline-ISA code alone, which a host without AVX2 also runs."""
    if shutil.which("gcc") is None or native.load() is None:
        pytest.skip("needs gcc and the native library")
    lib_path = tmp_path_factory.mktemp("lutq") / "lutq_portable.so"
    subprocess.run(
        ["gcc", *native.CFLAGS, "-DLUTQ_NO_CLONES", "-o", str(lib_path),
         str(native.SOURCES[0])],
        check=True, capture_output=True, timeout=120,
    )
    lib = ctypes.CDLL(str(lib_path))
    lib.lutq_run.argtypes = native.load().run.argtypes
    lib.lutq_run.restype = ctypes.c_int
    lib.lutq_scratch_bytes.argtypes = [ctypes.POINTER(native.Plan)]
    lib.lutq_scratch_bytes.restype = ctypes.c_int64
    return lib


def _run(run, scratch_bytes, plan, x, dtype):
    ref = ctypes.byref(plan)
    scratch = np.empty(scratch_bytes(ref) // 8 + 1)
    y = np.full((plan.m, x.shape[1]), np.nan, dtype)
    rc = run(ref, x.shape[1], scratch.ctypes.data, x.ctypes.data,
             *x.strides, y.ctypes.data)
    assert rc == 0
    return y


@given(
    m=st.integers(1, 70),
    n=st.integers(1, 400),
    bits=st.integers(1, 4),
    mu=st.sampled_from((3, 5, 8, 9, 10)),
    batch=st.integers(1, 70),
    dtype=st.sampled_from((np.float32, np.float64)),
    split_tiles=st.booleans(),
    strided=st.booleans(),
    bias=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_portable_build_gives_the_same_bits(
    portable_run, m, n, bits, mu, batch, dtype, split_tiles, strided, bias,
    seed,
):
    # mu 9-10 store uint16 keys and sub-tile a float64 chunk two or four
    # groups at a time; split_tiles cuts the groups into several tiles.
    rng = np.random.default_rng(seed)
    groups = -(-n // mu)
    keys = rng.integers(0, 1 << mu, size=(bits, m, groups)).astype(
        np.uint8 if mu <= 8 else np.uint16
    )
    alphas = rng.uniform(0.05, 2.0, size=(bits, m)).astype(dtype)
    bias_vec = rng.standard_normal(m).astype(dtype) if bias else None
    tile_g = choose_tiles(m, groups, mu, 32,
                          itemsize=np.dtype(dtype).itemsize).tile_g
    if split_tiles:
        tile_g = int(rng.integers(1, groups + 1))
    plan = native.Plan(
        m=m, n=n, groups=groups, tile_g=tile_g, mu=mu, bits=bits,
        fp64=int(dtype == np.float64), key_bytes=keys.itemsize,
        keys=keys.ctypes.data, alphas=alphas.ctypes.data,
        bias=None if bias_vec is None else bias_vec.ctypes.data,
    )
    x = rng.standard_normal((n, batch)).astype(dtype)
    if strided:
        x = _layout(x, "col-strided")
    kernel = native.load()
    want = _run(kernel.run, kernel.scratch_bytes, plan, x, dtype)
    got = _run(portable_run.lutq_run, portable_run.lutq_scratch_bytes, plan,
               x, dtype)
    assert got.tobytes() == want.tobytes()
