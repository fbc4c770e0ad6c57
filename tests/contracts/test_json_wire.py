"""Contract: the native ``/predict`` JSON codec is exact.

:mod:`repro.serve.wire` reads a request's ``"input"`` array in C
(``_json.c``: ``strtod`` into float64, then a cast to the requested
dtype) and writes the reply's ``"output"`` in C with Ryu's shortest
round-trip digits.  Both must be indistinguishable from :mod:`json`:

- **Parse.**  For generated bodies -- ints short and long, ``-0``,
  exponents, 17-digit mantissas, whitespace variants, ragged and empty
  arrays, ``NaN``, invalid number tokens, escaped and duplicate keys,
  other dtypes, non-object bodies and truncations -- :func:`decode_predict`
  gives the same model name and an array of the same dtype, shape and
  bytes as the :mod:`json` path, or raises the same ``ValueError``
  message (the same 400 body).
- **Format.**  For float16/32/64 arrays of any shape up to three dims,
  with subnormals, powers of two, signed zeros, the values where
  ``repr`` switches notation (1e-4, 1e16) and non-finite values,
  :func:`encode_predict` gives the bytes of ``json.dumps`` of the whole
  reply.

Each property runs twice: with the native library and with
``native.load`` returning ``None`` (the ``json`` fallback, all a host
without a C compiler has).  The Ryu power table ``_pow5.h`` is checked
against a regeneration from Python integers.
"""

import ctypes
import json
import shutil
import subprocess
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays, from_dtype

from repro.engine import native, pow5_table
from repro.serve import wire

# Casting 1e400 or 1e39 to float16/float32 warns on both paths alike.
pytestmark = [
    pytest.mark.filterwarnings(f"ignore:{what} encountered:RuntimeWarning")
    for what in ("overflow", "invalid value")
]

MODES = ("native", "fallback")
FLOATS = tuple(np.dtype(t) for t in (np.float16, np.float32, np.float64))


@contextmanager
def _mode(name):
    if name == "fallback":
        saved, native.load = native.load, lambda: None
        try:
            yield
        finally:
            native.load = saved
    else:
        if native.load() is None:
            pytest.skip("native library unavailable")
        yield


def _reply(model, arr, rid):
    return json.dumps(
        {
            "model": model,
            "output": arr.tolist(),
            "shape": list(arr.shape),
            "request_id": rid,
        }
    ).encode()


def test_pow5_table_regenerates():
    assert pow5_table.HEADER.read_text() == pow5_table.render()


# ----------------------------------------------------------------------
# Parse
# ----------------------------------------------------------------------
WS = st.sampled_from(["", " ", "  ", "\n", "\t", "\r\n ", " \n\t "])
# Number tokens the C parser takes, then everything else json.loads
# reads differently, or not at all.
EDGE_NUMBERS = (
    "-0", "0", "-0.0", "0.0", "1e5", "1E+05", "-2.5e-3", "1e400", "-1e400",
    "1e-400", "4.9e-324", "2.4703282292062327e-324", "1.7976931348623157e308",
    "123456789012345678901234567890.5", "0.1", "1e16", "0e0", "-0E-0",
)
DECLINED = (
    "9007199254740993", "-1234567890123456", "9999999999999999999",
    "-18446744073709551617", "NaN", "Infinity", "-Infinity",
    "01", "-01", "1.", ".5", "+1", "1e", "-", "1e+", "true", "null", '"1"',
    "0x10", "[]", "{}",
)
FAST_NUMBERS = st.one_of(
    st.integers(-(10**15) + 1, 10**15 - 1).map(str),
    st.sampled_from(EDGE_NUMBERS),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(repr),
    st.builds(
        "{}e{}".format, st.integers(-(10**17), 10**17), st.integers(-400, 400)
    ),
    st.builds(
        "{}.{:0>3}".format,
        st.integers(-(10**9), 10**9),
        st.integers(0, 10**25),
    ),
)
NUMBERS = st.one_of(
    FAST_NUMBERS,
    st.integers(-(10**22), 10**22).map(str),
    st.sampled_from(DECLINED),
)
DTYPES = st.sampled_from(
    ["float16", "float32", "float64"] * 3
    + ["int64", "f4", "float", None, 3, "bogus", "complex64"]
)
OTHER_VALUES = st.one_of(
    st.text(max_size=6).map(json.dumps),
    st.sampled_from(
        ['"\\"input\\": [1]"', '{"input": [1, 2]}', '[{"input": 3}]',
         "[1, [2, {}]]", "null", "-0", '"a\\\\"']
    ),
)


@st.composite
def array_texts(draw):
    ndim = draw(st.sampled_from([0, 1, 1, 2, 2, 3]))
    sides = st.sampled_from([0, 1, 1, 2, 2, 3, 3, 4])
    shape = draw(st.lists(sides, min_size=ndim, max_size=ndim))
    # Mostly tokens the fast path takes, so that most arrays reach it.
    numbers = draw(st.sampled_from([FAST_NUMBERS] * 3 + [NUMBERS]))
    ragged = draw(st.integers(0, 3)) == 0

    def build(dims, top=True):
        if not dims:
            return draw(numbers)
        n = dims[0]
        if ragged and not top and draw(st.booleans()):
            n = max(0, n + draw(st.sampled_from((-1, 1))))
        items = [build(dims[1:], top=False) for _ in range(n)]
        if ragged and items and draw(st.integers(0, 3)) == 0:
            # one element one level too shallow or too deep
            i = draw(st.integers(0, len(items) - 1))
            items[i] = (
                draw(numbers) if len(dims) > 1 else f"[{draw(numbers)}]"
            )
        sep = draw(WS) + "," + draw(WS)
        return "[" + draw(WS) + sep.join(items) + draw(WS) + "]"

    return build(shape)


@st.composite
def predict_bodies(draw):
    members = [("input", draw(array_texts()))]
    if draw(st.booleans()):
        members.append(("dtype", json.dumps(draw(DTYPES))))
    if draw(st.booleans()):
        members.append(("model", json.dumps(draw(st.text(max_size=4)))))
    if draw(st.booleans()):
        members.append(("extra", draw(OTHER_VALUES)))
    if draw(st.integers(0, 7)) == 0:  # a duplicate key
        key = draw(st.sampled_from(["input", "dtype"]))
        members.append(
            (key, draw(array_texts()) if key == "input"
             else json.dumps(draw(DTYPES)))
        )
    if draw(st.integers(0, 9)) == 0:  # an escaped key
        members[0] = (draw(st.sampled_from(["\\u0069nput", "inpu\\t"])),
                      members[0][1])
    members = draw(st.permutations(members))
    text = "{" + ",".join(
        f'{draw(WS)}"{key}"{draw(WS)}:{draw(WS)}{value}{draw(WS)}'
        for key, value in members
    ) + "}" + draw(WS)
    if draw(st.integers(0, 19)) == 0:  # not an object
        text = members[0][1]
    body = text.encode()
    if draw(st.integers(0, 19)) == 0:  # truncated
        body = body[: draw(st.integers(0, len(body)))]
    return body


def _outcome(decode, body):
    try:
        request = decode(body)
    except ValueError as exc:
        return ("error", str(exc))
    x = request["x"]
    return ("ok", request["model"], x.dtype, x.shape, x.tobytes())


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=400, deadline=None)
@given(body=predict_bodies())
@example(body=b'{"input": [-0, -0.0, 0e0, 1e400, 123456789012345]}')
@example(body=b'{"input": [9999999999999999999, 1], "dtype": "float64"}')
@example(body=b'{"input": [[1, 2], [3]]}')
@example(body=b'{"input": [[1, 2], 3]}')
@example(body=b'{"input":\r\n[1,\t2\r]\n,"dtype":"float16"}')
def test_decode_matches_json(mode, body):
    with _mode(mode):
        got = _outcome(wire.decode_predict, body)
    assert got == _outcome(wire._decode_predict_json, body)


@pytest.mark.parametrize("dtype", ["float16", "float32", "float64"])
def test_typical_body_takes_the_fast_path(dtype, monkeypatch):
    with _mode("native"):
        x = np.random.default_rng(0).standard_normal((32, 128))
        x = x.astype(dtype)
        body = json.dumps({"input": x.tolist(), "dtype": dtype}).encode()

        def refuse(body):
            raise AssertionError("the body fell back to json")

        monkeypatch.setattr(wire, "_decode_predict_json", refuse)
        request = wire.decode_predict(body)
    assert request["model"] == "default"
    assert request["x"].dtype == x.dtype
    assert request["x"].tobytes() == x.tobytes()


def test_parser_declines_arrays_deeper_than_its_shape_slots():
    kernel = native.load()
    if kernel is None:
        pytest.skip("native library unavailable")

    def parse(body, slots):
        values = np.empty(8, dtype=np.float64)
        # Sentinels past the slots the parser was given must survive.
        geom = np.full(slots + 4, -7, dtype=np.int64)
        count = kernel.json_parse_input(
            body, len(body), values.ctypes.data, 8, geom.ctypes.data, slots
        )
        assert (geom[slots:] == -7).all()
        return count, geom

    flat, nested = b'{"input": [1, 2]}', b'{"input": [[1, 2]]}'
    assert parse(flat, 4)[0] == 2
    assert parse(nested, 4)[0] == -1
    count, geom = parse(nested, 5)
    assert (count, geom[0], geom[3], geom[4]) == (2, 2, 1, 2)
    assert parse(flat, 3)[0] == -1
    deep = b'{"input": ' + b"[" * 33 + b"1" + b"]" * 33 + b"}"
    assert parse(deep, 3 + 40)[0] == -1
    with _mode("native"):
        got = _outcome(wire.decode_predict, deep)
    assert got == _outcome(wire._decode_predict_json, deep)


# ----------------------------------------------------------------------
# Format
# ----------------------------------------------------------------------
SPECIALS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    2.225073858507201e-308, 1.7976931348623157e308, 1e-4, 1.0001e-4,
    9.999999999999999e-05, 1e-5, 1e16, 9999999999999998.0,
    1.0000000000000002e16, 1e15, 2.0**53, 2.0**53 + 2, 0.1, 1 / 3, 1e22, 1e23, 65504.0, 6e-08,
    np.nan, np.inf, -np.inf,
)


@st.composite
def float_arrays(draw):
    dtype = draw(st.sampled_from(FLOATS))
    info = np.finfo(dtype)
    powers = st.integers(info.minexp - info.nmant, info.maxexp - 1).map(
        lambda e: float(np.ldexp(dtype.type(1), e))
    )
    with np.errstate(over="ignore"):
        specials = np.array(SPECIALS).astype(dtype).tolist()
    elements = st.one_of(
        from_dtype(dtype), st.sampled_from(specials), powers,
        powers.map(lambda v: -v),
    )
    shape = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)
    return draw(arrays(dtype, shape, elements=elements))


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=400, deadline=None)
@given(arr=float_arrays(), model=st.text(max_size=4))
def test_encode_matches_json_dumps(mode, arr, model):
    with _mode(mode):
        got = wire.encode_predict(model, arr, "0123abcd")
    assert got == _reply(model, arr, "0123abcd")


@pytest.mark.parametrize("bits", [64, 32])
def test_encode_random_bit_patterns(bits):
    # Every exponent and significand pattern, uniformly: 2^17 doubles
    # (or floats) drawn from the whole bit space.
    rng = np.random.default_rng(bits)
    utype = np.uint64 if bits == 64 else np.uint32
    raw = rng.integers(0, np.iinfo(utype).max, size=1 << 17, dtype=utype,
                       endpoint=True)
    arr = raw.view(np.float64 if bits == 64 else np.float32)
    with _mode("native"):
        got = wire.encode_predict("m", arr, "r")
    assert got == _reply("m", arr, "r")


@pytest.mark.parametrize("mode", MODES)
def test_encode_any_layout_and_other_dtypes(mode):
    base = np.random.default_rng(5).standard_normal((4, 6))
    frozen = base.copy()
    frozen.flags.writeable = False
    cases = [base.T, base[::2, 1::3], frozen, np.float32(1.5),
             np.arange(6).reshape(2, 3), np.array([True, False])]
    with _mode(mode):
        for arr in cases:
            arr = np.asarray(arr)
            assert wire.encode_predict("m", arr, "r") == _reply("m", arr, "r")


@pytest.mark.skipif(shutil.which("gcc") is None, reason="needs gcc")
def test_portable_multiply_writes_the_same_bytes(tmp_path):
    # Hosts without a 128-bit integer type build Ryu's multiply from
    # 32x32-bit products; force that branch and compare with repr.
    lib_path = tmp_path / "json_portable.so"
    source = native.SOURCES[0].with_name("_json.c")
    subprocess.run(
        ["gcc", *native.CFLAGS, "-DJSON_PORTABLE_MUL", "-o", str(lib_path),
         str(source)],
        check=True, capture_output=True, timeout=120,
    )
    fmt = ctypes.CDLL(str(lib_path)).json_format
    fmt.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                    ctypes.c_void_p]
    fmt.restype = ctypes.c_int64
    raw = np.random.default_rng(3).integers(
        0, np.iinfo(np.uint64).max, size=1 << 14, dtype=np.uint64,
        endpoint=True,
    )
    arr = np.concatenate([raw.view(np.float64), np.array(SPECIALS)])
    shape = np.array([arr.size], dtype=np.int64)
    out = np.empty(arr.size * 32 + 2, dtype=np.uint8)
    size = fmt(arr.ctypes.data, 1, shape.ctypes.data, out.ctypes.data)
    assert out[:size].tobytes() == json.dumps(arr.tolist()).encode()
