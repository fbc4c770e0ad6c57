"""The native kernel's loader: cache, failure modes, and the fallback.

Without a native library the ``biqgemm`` engine must keep serving the
same bits through its numpy fallback, with one logged warning and no
exception -- whether the loader finds nothing, the cache directory
cannot be written, or the compiler fails.  A warm cache must load
without spawning the compiler, and processes that build into one empty
cache at once must all load.
"""

import logging
import os
import shutil
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from repro.engine import EngineBuildRequest, QuantSpec, build_engine, native

M, N = 24, 40

HAS_GCC = shutil.which("gcc") is not None


@pytest.fixture()
def fresh_loader(monkeypatch):
    """Forget this process's load result for the test's duration."""
    monkeypatch.setattr(native, "_kernel", native._UNSET)
    monkeypatch.setattr(native, "_path", None)


def _engines():
    w = np.random.default_rng(3).standard_normal((M, N))
    bias = np.random.default_rng(4).standard_normal(M)
    spec = QuantSpec(bits=2, mu=4, fuse="relu")
    compiled = build_engine(
        "biqgemm", EngineBuildRequest(spec=spec, weight=w, bias=bias)
    )
    return compiled, bias


def _assert_fallback_serves_reference(engine, bias):
    rng = np.random.default_rng(5)
    for batch in (1, 2, 7):
        for dtype in (np.float32, np.float64):
            x = rng.standard_normal((N, batch)).astype(dtype)
            pre = engine.inner.matmul(x) + bias.astype(dtype)[:, None]
            want = np.maximum(pre, 0)
            for _ in range(2):
                assert np.array_equal(engine.matmul(x), want)
    # Both dtypes were seen, and neither holds a native plan.
    assert engine._plans == {
        np.dtype(np.float32): None, np.dtype(np.float64): None
    }


def _native_warnings(caplog):
    return [
        r for r in caplog.records
        if r.name == "repro.engine.native" and r.levelno == logging.WARNING
    ]


def test_loader_returning_none_serves_fallback(monkeypatch):
    monkeypatch.setattr(native, "load", lambda: None)
    engine, bias = _engines()
    _assert_fallback_serves_reference(engine, bias)


def test_unwritable_cache_dir_warns_once_and_falls_back(
    fresh_loader, monkeypatch, tmp_path, caplog
):
    # A regular file where the cache's parent should be: no process,
    # root included, can create the directory.
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setattr(native, "cache_dir", lambda: blocker / "cache")
    with caplog.at_level(logging.WARNING, logger="repro.engine.native"):
        engine, bias = _engines()
        _assert_fallback_serves_reference(engine, bias)
        assert native.load() is None
    assert len(_native_warnings(caplog)) == 1
    assert native.status() == {"loaded": False, "path": None}


def test_failing_compiler_warns_once_and_falls_back(
    fresh_loader, monkeypatch, tmp_path, caplog
):
    bindir = tmp_path / "bin"
    bindir.mkdir()
    fake = bindir / "gcc"
    fake.write_text("#!/bin/sh\necho 'no compiler here' >&2\nexit 1\n")
    fake.chmod(0o755)
    cache = tmp_path / "cache"
    monkeypatch.setenv("PATH", str(bindir))
    monkeypatch.setattr(native, "cache_dir", lambda: cache)
    with caplog.at_level(logging.WARNING, logger="repro.engine.native"):
        engine, bias = _engines()
        _assert_fallback_serves_reference(engine, bias)
    warnings = _native_warnings(caplog)
    assert len(warnings) == 1
    assert "no compiler here" in warnings[0].getMessage()
    assert list(cache.iterdir()) == []  # the temp file was removed


def test_racing_first_loads_agree(fresh_loader, caplog):
    # More threads than cores race the first load: one build-or-bind,
    # one result (the kernel, or None with a single warning).
    results = []
    start = threading.Barrier(8)

    def first_load():
        start.wait(timeout=30)
        results.append(native.load())

    with caplog.at_level(logging.WARNING, logger="repro.engine.native"):
        threads = [threading.Thread(target=first_load) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    assert all(r is results[0] for r in results)
    assert len(_native_warnings(caplog)) == (results[0] is None)


@pytest.mark.skipif(not HAS_GCC, reason="needs gcc to build the kernel")
def test_cache_hit_spawns_no_subprocess(fresh_loader, monkeypatch, tmp_path):
    monkeypatch.setattr(native, "cache_dir", lambda: tmp_path)
    assert native.load() is not None  # cold: builds into tmp_path
    monkeypatch.setattr(native, "_kernel", native._UNSET)

    def no_subprocess(*args, **kwargs):
        raise AssertionError("a cache hit must not run the compiler")

    monkeypatch.setattr(subprocess, "run", no_subprocess)
    assert native.load() is not None
    assert native.status()["loaded"]
    assert native.status()["path"].startswith(str(tmp_path))


@pytest.mark.skipif(not HAS_GCC, reason="needs gcc to build the kernel")
def test_concurrent_builds_into_one_empty_cache_all_load(tmp_path):
    cache = tmp_path / "xdg"
    script = textwrap.dedent(
        """
        from repro.engine import native
        assert native.load() is not None
        print(native.status()["path"])
        """
    )
    env = dict(os.environ, XDG_CACHE_HOME=str(cache))
    src = os.path.join(os.path.dirname(native.__file__), "..", "..")
    env["PYTHONPATH"] = os.path.abspath(src)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    results = [p.communicate(timeout=300) for p in procs]
    for proc, (out, err) in zip(procs, results):
        assert proc.returncode == 0, err
    paths = {out.strip() for out, _ in results}
    assert len(paths) == 1
    assert [p.name for p in (cache / "repro").iterdir()] == [
        os.path.basename(paths.pop())
    ]


def test_cache_key_covers_every_source(monkeypatch, tmp_path):
    # The library is built from several files (the LUT kernel, the JSON
    # codec and its generated table); editing any one must change the
    # cached library's name, or a stale build would load.
    copies = []
    for source in native.SOURCES:
        copy = tmp_path / source.name
        copy.write_bytes(source.read_bytes())
        copies.append(copy)
    monkeypatch.setattr(native, "SOURCES", tuple(copies))
    monkeypatch.setattr(native, "cache_dir", lambda: tmp_path / "cache")
    names = {native._library_path()}
    for copy in copies:
        copy.write_bytes(copy.read_bytes() + b"\n")
        names.add(native._library_path())
    assert len(names) == 1 + len(copies)
