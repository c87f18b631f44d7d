"""Fault-injection and contract tests for the zero-copy trace tier.

Mirrors ``tests/util/test_artifacts.py`` for the binary bundle codec:
truncated, zeroed, or tampered bundles must quarantine and miss (the
caller resynthesizes — never a wrong number), eviction racing a mapped
reader is blocked by pinning, and racing writers converge on a
bit-identical entry.  The session-level tests cover the tier's headline
contract: a warm trace store makes a new engine or geometry over a known
workload skip synthesis entirely, cross-process, with zero pickled trace
bytes on the pool path.
"""

import os
import threading

import numpy as np
import pytest

from repro.hw.trace import PageTrace
from repro.perfmodel.tracestore import (
    TRACE_STORE_SCHEMA,
    TraceRef,
    TraceStore,
    resolve_trace_cache_bytes,
    resolve_trace_cache_dir,
    resolve_trace_thp,
    trace_cache_configured,
)
from repro.util import artifacts
from repro.util.artifacts import ArtifactError
from repro.util.errors import ConfigurationError

P = 65536


def _trace(rng, n):
    pages = rng.integers(0, 64, size=n) * P
    return PageTrace.from_accesses(
        pages, np.full(pages.shape, P, dtype=np.int64))


def _bundle(seed=0):
    rng = np.random.default_rng(seed)
    stream = [_trace(rng, 40), _trace(rng, 25)]
    fine = [(3, _trace(rng, 10), 1.5), (7, _trace(rng, 12), 2.0)]
    return stream, fine


def _assert_traces_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.page, w.page)
        np.testing.assert_array_equal(g.size, w.size)
        np.testing.assert_array_equal(g.weight, w.weight)


# --- corruption injectors (as in test_artifacts) -----------------------------

def truncate_at(path, offset):
    path.write_bytes(path.read_bytes()[:offset])


def zero_file(path):
    path.write_bytes(b"\x00" * path.stat().st_size)


# --- environment resolvers ---------------------------------------------------

class TestResolvers:
    def test_off_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        assert resolve_trace_cache_dir() is None
        assert trace_cache_configured()

    def test_auto_uses_xdg(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        assert resolve_trace_cache_dir() == tmp_path / "repro" / "traces"
        assert not trace_cache_configured()

    def test_explicit_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "t"))
        assert resolve_trace_cache_dir() == tmp_path / "t"
        assert trace_cache_configured()

    def test_bytes_resolver_shares_the_contract(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_BYTES", "64M")
        assert resolve_trace_cache_bytes() == 64 * 1024 * 1024

    def test_bad_bytes_name_the_trace_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_BYTES", "lots")
        with pytest.raises(ConfigurationError, match="REPRO_TRACE_CACHE_BYTES"):
            resolve_trace_cache_bytes()

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("on", True), ("true", True),
        ("", False), ("0", False), ("off", False),
    ])
    def test_thp_resolver(self, value, expected):
        assert resolve_trace_thp(value) is expected

    def test_thp_garbage_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_trace_thp("maybe")


# --- roundtrip and the zero-copy load path -----------------------------------

class TestRoundtrip:
    def test_bit_identical_and_mapped_readonly(self, tmp_path):
        store = TraceStore(tmp_path)
        stream, fine = _bundle()
        nbytes = store.save_bundle("k1", stream, fine)
        assert nbytes > 0
        bundle = store.load_bundle("k1")
        assert bundle is not None
        _assert_traces_equal(bundle.stream, stream)
        _assert_traces_equal([t for _, t, _ in bundle.fine],
                             [t for _, t, _ in fine])
        assert [(j, sc) for j, _, sc in bundle.fine] == [(3, 1.5), (7, 2.0)]
        # the loaded arrays are read-only views of one file mapping
        for t in bundle.traces:
            assert not t.page.flags.writeable
            assert t.page.base is not None
        assert bundle.key == "k1"
        assert bundle.root == store.root
        assert bundle.nbytes == nbytes
        assert store.stats.mapped_bytes == nbytes

    def test_payload_is_page_aligned(self, tmp_path):
        store = TraceStore(tmp_path)
        stream, fine = _bundle()
        store.save_bundle("k1", stream, fine)
        header, offset = TraceStore._encode(stream, fine)
        assert offset % 4096 == 0
        assert len(header) == offset

    def test_empty_bundle_roundtrips(self, tmp_path):
        store = TraceStore(tmp_path)
        store.save_bundle("empty", [PageTrace.empty()], [])
        bundle = store.load_bundle("empty")
        assert bundle is not None
        assert bundle.stream[0].n_events == 0
        assert bundle.fine == []

    def test_missing_key_is_a_quiet_miss(self, tmp_path):
        assert TraceStore(tmp_path).load_bundle("nope") is None

    def test_sidecar_written(self, tmp_path):
        store = TraceStore(tmp_path)
        stream, fine = _bundle()
        store.save_bundle("k1", stream, fine)
        path = store.path_for("syn-k1")
        assert artifacts.verify_checksum(path) is True


class TestTraceRef:
    """Pool dispatch turns a unit's (bundle, sections) into what crosses
    the process boundary: a ref for a stored bundle, traces otherwise."""

    def test_payloads_and_resolution(self, tmp_path):
        from repro.perfmodel.parallel import _for_pool

        store = TraceStore(tmp_path)
        stream, fine = _bundle()
        store.save_bundle("k1", stream, fine)
        bundle = store.load_bundle("k1")
        sections = tuple(range(len(stream)))
        ref = _for_pool(("stream", "fast", (), (bundle, sections)))[3]
        assert isinstance(ref, TraceRef)
        assert ref.nbytes == sum(t.nbytes for t in stream)
        _assert_traces_equal(ref.resolve(), stream)
        for pos, (_, want, _) in enumerate(fine):
            unit = ("fine", "fast", (), (bundle, (len(stream) + pos,)))
            fref = _for_pool(unit)[3]
            assert isinstance(fref, TraceRef)
            _assert_traces_equal(fref.resolve(), [want])

    def test_in_memory_bundle_travels_by_value(self):
        from repro.perfmodel.parallel import _for_pool
        from repro.perfmodel.tracestore import TraceBundle

        stream, fine = _bundle()
        bundle = TraceBundle(stream=stream, fine=fine)
        unit = ("stream", "fast", (), (bundle, tuple(range(len(stream)))))
        assert _for_pool(unit)[3] == stream
        unit = ("fine", "fast", (), (bundle, (len(stream),)))
        assert _for_pool(unit)[3] == [fine[0][1]]

    def test_missing_bundle_raises(self, tmp_path):
        ref = TraceRef(root=str(tmp_path), key="gone", sections=(0,),
                       nbytes=0)
        with pytest.raises(ArtifactError, match="gone"):
            ref.resolve()


# --- fault injection ---------------------------------------------------------

class TestFaultInjection:
    def _saved(self, tmp_path, key="k1"):
        store = TraceStore(tmp_path)
        stream, fine = _bundle()
        store.save_bundle(key, stream, fine)
        return store, store.path_for(f"syn-{key}")

    @pytest.mark.parametrize("frac", [0.05, 0.3, 0.6, 0.95])
    def test_truncation_quarantines(self, tmp_path, frac):
        store, path = self._saved(tmp_path)
        truncate_at(path, int(path.stat().st_size * frac))
        assert store.load_bundle("k1") is None
        assert store.stats.corrupt == 1
        assert path.with_name(path.name + ".corrupt").exists()
        assert not path.exists()

    def test_zeroed_file_quarantines(self, tmp_path):
        store, path = self._saved(tmp_path)
        zero_file(path)
        assert store.load_bundle("k1") is None
        assert store.stats.corrupt == 1

    def test_bad_magic_quarantines(self, tmp_path):
        store, path = self._saved(tmp_path)
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTTRACE"
        path.write_bytes(bytes(data))
        artifacts.write_checksum(path)  # valid sidecar, invalid payload
        assert store.load_bundle("k1") is None
        assert store.stats.corrupt == 1

    def test_schema_flip_quarantines(self, tmp_path):
        import struct

        store, path = self._saved(tmp_path)
        data = bytearray(path.read_bytes())
        data[8:16] = struct.pack("<q", TRACE_STORE_SCHEMA + 1)
        path.write_bytes(bytes(data))
        artifacts.write_checksum(path)
        assert store.load_bundle("k1") is None
        assert store.stats.corrupt == 1

    def test_checksum_tamper_quarantines(self, tmp_path):
        store, path = self._saved(tmp_path)
        data = bytearray(path.read_bytes())
        data[-8:] = b"\xff" * 8  # flip payload, keep the old sidecar
        path.write_bytes(bytes(data))
        assert store.load_bundle("k1") is None
        assert store.stats.corrupt == 1

    def test_payload_size_mismatch_quarantines(self, tmp_path):
        store, path = self._saved(tmp_path)
        with open(path, "ab") as f:
            f.write(b"\x00" * 8)  # one extra int64 the header knows nothing of
        artifacts.write_checksum(path)
        assert store.load_bundle("k1") is None
        assert store.stats.corrupt == 1

    def test_quarantine_then_resynthesize_overwrites(self, tmp_path):
        store, path = self._saved(tmp_path)
        truncate_at(path, 100)
        assert store.load_bundle("k1") is None
        # the caller's recovery: synthesize again and save over the miss
        stream, fine = _bundle()
        store.save_bundle("k1", stream, fine)
        bundle = store.load_bundle("k1")
        assert bundle is not None
        _assert_traces_equal(bundle.stream, stream)
        assert store.stats.corrupt == 1


# --- eviction, pinning, and racing writers -----------------------------------

class TestEvictionAndPinning:
    def test_pinned_entry_survives_eviction(self, tmp_path):
        store = TraceStore(tmp_path, max_bytes=None)
        stream, fine = _bundle()
        nbytes = store.save_bundle("hot", stream, fine)
        for i in range(4):
            store.save_bundle(f"cold{i}", *_bundle(seed=i + 1))
        os.utime(store.path_for("syn-hot"), (0, 0))  # oldest by far
        store.max_bytes = nbytes  # force the budget far under the total
        with store.pinned("syn-hot"):
            store.enforce_budget()
            assert store.path_for("syn-hot").exists()
        assert store.stats.evictions > 0
        bundle = store.load_bundle("hot")
        assert bundle is not None
        _assert_traces_equal(bundle.stream, stream)

    def test_mapped_reader_survives_unlink(self, tmp_path):
        # POSIX semantics behind the pinning story: even when eviction
        # does race a reader that already mapped, the open mapping stays
        # valid until dropped — eviction can never tear an in-flight
        # replay's arrays out from under it
        store = TraceStore(tmp_path)
        stream, fine = _bundle()
        store.save_bundle("k1", stream, fine)
        bundle = store.load_bundle("k1")
        store.path_for("syn-k1").unlink()
        _assert_traces_equal(bundle.stream, stream)

    def test_racing_writers_converge_bit_identically(self, tmp_path):
        # synthesis is deterministic, so racing writers write the same
        # content; atomic tmp+rename means the survivor is one complete
        # entry, never an interleaving
        stream, fine = _bundle()
        errors = []

        def writer():
            try:
                TraceStore(tmp_path).save_bundle("k1", stream, fine)
            except Exception as exc:  # noqa: BLE001 - test collects all
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        store = TraceStore(tmp_path)
        assert artifacts.verify_checksum(store.path_for("syn-k1")) is True
        bundle = store.load_bundle("k1")
        assert bundle is not None
        _assert_traces_equal(bundle.stream, stream)
        _assert_traces_equal([t for _, t, _ in bundle.fine],
                             [t for _, t, _ in fine])


class TestTHP:
    def test_advise_counter_and_describe(self, tmp_path):
        import mmap as mmap_mod

        store = TraceStore(tmp_path, thp=True)
        stream, fine = _bundle()
        store.save_bundle("k1", stream, fine)
        bundle = store.load_bundle("k1")
        assert bundle is not None
        assert bundle.thp is True
        doc = store.describe()
        assert doc["thp"] is True
        assert doc["mapped_bytes"] == bundle.nbytes
        if hasattr(mmap_mod, "MADV_HUGEPAGE"):
            assert doc["thp_advised"] == 1
        else:  # platform without madvise: best-effort means zero, not a crash
            assert doc["thp_advised"] == 0

    def test_thp_off_never_advises(self, tmp_path):
        store = TraceStore(tmp_path, thp=False)
        store.save_bundle("k1", *_bundle())
        store.load_bundle("k1")
        assert store.stats.thp_advised == 0
