"""Contract: the attention folds are bit-identical on every path.

``attn_scores`` (``QK^T`` over ``head_dim``), ``attn_context`` (``AV``
over the key axis) and the ``softmax`` denominator are strict
sequential left folds, seeded with their first term.  Float64 calls
run on the native library (``_lutq.c``); on a host without it, and for
other dtypes, they run the numpy fold (a running ``cumsum`` over the
materialized products, in memory-bounded chunks).  Over generated
shapes (query rows, key lengths and head dims from 1 to 70), memory
layouts (``_split`` transposes, KV-cache views whose capacity exceeds
their length, broadcast leading dims), non-finite and signed-zero
inputs, masked rows and ``out=`` destinations, both paths must give
the same bits.  On a host without the native library both sides run
the numpy fold, and the suite checks the fallback against itself and
the decode invariant below.

"Bit for bit" compares raw bits, signed zeros included, except that
where the reference holds a NaN the result must hold a NaN of any sign
and payload: IEEE 754 leaves those unspecified for arithmetic results.

The module also pins ROADMAP item 5(iii): KV-cached ``generate`` equals
the full causal recompute for prompt lengths that straddle the cache's
bucket growth (capacities 32, 64 and 128).
"""

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.attention as attention
from repro.engine import native
from repro.gen.cache import MIN_BUCKET
from repro.gen.model import DecoderLM
from repro.nn.functional import softmax
from repro.nn.transformer import TransformerConfig

SIZES = st.integers(1, 70)
SPECIALS = (np.nan, np.inf, -np.inf, -0.0, 0.0)
MASKED = -1e30  # the fill MultiHeadAttention gives masked scores


@contextmanager
def _numpy_fold(budget=None):
    """Run the numpy fold (optionally at a tiny chunk budget)."""
    saved_load, saved_budget = native.load, attention.FOLD_BUDGET_ELEMS
    native.load = lambda: None
    if budget is not None:
        attention.FOLD_BUDGET_ELEMS = budget
    try:
        yield
    finally:
        native.load = saved_load
        attention.FOLD_BUDGET_ELEMS = saved_budget


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    got_bits = np.where(nan, 0, got).view(np.uint64)
    want_bits = np.where(nan, 0, want).view(np.uint64)
    assert np.array_equal(got_bits, want_bits)


def _sprinkle(rng, arr, count):
    """Overwrite *count* random elements of *arr* (a view, possibly
    strided) with specials."""
    for _ in range(count):
        where = tuple(int(rng.integers(n)) for n in arr.shape)
        arr[where] = SPECIALS[rng.integers(len(SPECIALS))]
    return arr


def _split(rng, batch, heads, seq, d):
    """A ``(batch, heads, seq, d)`` operand as ``_split`` leaves it: a
    transposed view of ``(batch, seq, heads * d)``."""
    x = rng.standard_normal((batch, seq, heads * d))
    return x.reshape(batch, seq, heads, d).transpose(0, 2, 1, 3)


def _cached(rng, heads, length, d, spare):
    """A ``(heads, length, d)`` KV-cache view of a block with *spare*
    more positions of capacity (filled with garbage, never read)."""
    block = rng.standard_normal((heads, length + spare, d))
    block[:, length:] = np.nan
    return block[:, :length]


def _operand(rng, layout, batch, heads, seq, d):
    if layout == "split":
        return _split(rng, batch, heads, seq, d)
    if layout == "cache":  # broadcast over the batch dim
        return _cached(rng, heads, seq, d, int(rng.integers(1, 9)))
    if layout == "broadcast-batch":
        return rng.standard_normal((1, heads, seq, d))
    return rng.standard_normal((batch, heads, seq, d))


LAYOUTS = st.sampled_from(("split", "cache", "broadcast-batch", "contiguous"))


@given(
    sq=SIZES, t=SIZES, d=SIZES,
    batch=st.integers(1, 3), heads=st.integers(1, 4),
    q_layout=LAYOUTS, kv_layout=LAYOUTS,
    specials=st.integers(0, 4), masked=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
@np.errstate(invalid="ignore", over="ignore")
def test_native_folds_equal_numpy_folds(
    sq, t, d, batch, heads, q_layout, kv_layout, specials, masked, seed
):
    rng = np.random.default_rng(seed)
    q = _operand(rng, q_layout, batch, heads, sq, d)
    k = _operand(rng, kv_layout, batch, heads, t, d)
    v = _operand(rng, kv_layout, batch, heads, t, d)
    for arr in (q, k, v):
        _sprinkle(rng, arr, specials)

    scores = attention.attn_scores(q, k)
    if masked:  # a causal mask, plus one fully masked row
        scores = np.where(np.triu(np.ones((sq, t), bool), 1), MASKED, scores)
        scores[..., -1, :] = MASKED
    probs = softmax(scores)
    lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    out = np.full(lead + (sq, d), np.nan)
    ctx = attention.attn_context(probs, v, out=out)
    assert ctx is out

    with _numpy_fold(budget=int(rng.integers(1, 200))):
        want_scores = attention.attn_scores(q, k)
        if masked:
            want_scores = np.where(
                np.triu(np.ones((sq, t), bool), 1), MASKED, want_scores
            )
            want_scores[..., -1, :] = MASKED
        want_probs = softmax(want_scores)
        want_ctx = attention.attn_context(want_probs, v)
    _assert_same_bits(scores, want_scores)
    _assert_same_bits(probs, want_probs)
    _assert_same_bits(ctx, want_ctx)


@given(
    shape=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    n=SIZES,
    axis_pos=st.integers(0, 3),
    strided=st.booleans(),
    specials=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
@np.errstate(invalid="ignore", over="ignore")
def test_native_softmax_equals_numpy_softmax(
    shape, n, axis_pos, strided, specials, seed
):
    rng = np.random.default_rng(seed)
    axis = axis_pos % (len(shape) + 1)
    full = list(shape)
    full.insert(axis, n)
    x = rng.standard_normal(full) * 30
    x[(slice(None),) * axis + (slice(0, 1),)] = MASKED
    _sprinkle(rng, x, specials)
    if strided:
        x = np.repeat(x, 2, axis=axis)[
            (slice(None),) * axis + (slice(None, None, 2),)
        ]
    out = np.full(x.shape, np.nan)
    got = softmax(x, axis=axis, out=out)
    assert got is out
    with _numpy_fold():
        want = softmax(x, axis=axis)
        in_place = x.copy()
        softmax(in_place, axis=axis, out=in_place)
    _assert_same_bits(got, want)
    _assert_same_bits(in_place, want)
    _assert_same_bits(softmax(x, axis=axis), want)


def test_negative_zero_survives_the_folds():
    """Every product is ``-0.0``: a fold seeded with ``0.0`` would
    return ``+0.0``."""
    q = np.full((2, 3, 5), -0.0)
    k = np.abs(np.random.default_rng(1).standard_normal((2, 4, 5)))
    scores = attention.attn_scores(q, k)
    assert np.all(np.signbit(scores))
    probs = np.abs(k[..., :3]).transpose(0, 2, 1)  # (2, 3, 4)
    v = np.full((2, 4, 5), -0.0)
    ctx = attention.attn_context(probs, v)
    assert ctx.shape == (2, 3, 5) and np.all(np.signbit(ctx))
    with _numpy_fold():
        _assert_same_bits(attention.attn_scores(q, k), scores)
        _assert_same_bits(attention.attn_context(probs, v), ctx)


def test_other_dtypes_keep_the_numpy_fold():
    rng = np.random.default_rng(2)
    q = rng.standard_normal((2, 6, 8)).astype(np.float32)
    k = rng.standard_normal((2, 7, 8)).astype(np.float32)
    got = attention.attn_scores(q, k)
    assert got.dtype == np.float32
    with _numpy_fold():
        _assert_same_bits(
            attention.attn_scores(q, k).astype(np.float64),
            got.astype(np.float64),
        )


@pytest.mark.parametrize("path", ["native", "numpy"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_empty_contraction_gives_zeros(path, dtype):
    """A head_dim of 0 (scores) or a key length of 0 (context) is an
    empty sum: ``+0.0`` in the output shape and the operands' dtype.
    The native fold hands this case to the numpy fold."""
    empty_q, empty_v = np.zeros((2, 0), dtype), np.zeros((0, 4), dtype)
    out = np.full((2, 4), np.nan, dtype)
    with _numpy_fold() if path == "numpy" else nullcontext():
        scores = attention.attn_scores(empty_q, np.zeros((3, 0), dtype))
        ctx = attention.attn_context(empty_q, empty_v)
        assert attention.attn_context(empty_q, empty_v, out=out) is out
    for got, shape in ((scores, (2, 3)), (ctx, (2, 4)), (out, (2, 4))):
        assert got.dtype == dtype and got.shape == shape
        assert not np.any(got) and not np.any(np.signbit(got))


CONFIG = TransformerConfig(dim=32, heads=4, ff_dim=64, layers=2)
VOCAB = 50
NEW_TOKENS = 4


@pytest.fixture(scope="module")
def compiled_lm():
    from repro.api import QuantConfig, quantize

    model = DecoderLM(CONFIG, VOCAB, seed=3)
    return quantize(model, QuantConfig(bits=2, mu=4)).compile(batch_hint=1)


@pytest.mark.parametrize(
    "prompt_len", [MIN_BUCKET - 1, MIN_BUCKET, MIN_BUCKET + 1,
                   2 * MIN_BUCKET - 1, 2 * MIN_BUCKET, 2 * MIN_BUCKET + 1]
)
def test_kv_cached_generate_equals_recompute(compiled_lm, prompt_len):
    """Prompts that end just below, at and just past a cache bucket
    (32 and 64 positions): prefill lands on either side of a growth,
    and the decode steps grow the cache mid-sequence."""
    model = compiled_lm.model
    rng = np.random.default_rng(prompt_len)
    prompt = rng.integers(0, VOCAB, size=prompt_len)
    tokens = compiled_lm.generate(prompt, NEW_TOKENS)

    ids = prompt[None, :]
    recomputed = []
    for _ in range(NEW_TOKENS):
        logits = model(ids)[:, -1, :]
        recomputed.append(int(np.argmax(logits)))
        ids = np.concatenate([ids, [[recomputed[-1]]]], axis=1)
    assert tokens == recomputed

    full = model(ids)
    caches = model.init_cache()
    try:
        prefill = model.prefill(ids[:, :prompt_len], caches)
        np.testing.assert_array_equal(prefill, full[:, prompt_len - 1, :])
        for pos in range(prompt_len, ids.shape[1]):
            step = model.step(int(ids[0, pos]), caches)
            np.testing.assert_array_equal(step, full[:, pos, :])
    finally:
        for cache in caches:
            cache.close()
