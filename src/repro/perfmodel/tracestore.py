"""The zero-copy trace tier: persistent, mmap-backed PageTrace bundles.

The replay-result cache (:mod:`repro.perfmodel.store`) reuses *answers*:
a config-level hit skips everything.  But the paper's experiment matrix
— THP policies, toolchains, TLB geometries, machines — mostly varies
inputs that traces do **not** depend on: synthesis is a pure function of
the workload log, the address-space layout, and the sampling parameters
(:class:`~repro.perfmodel.pipeline.SynthesisTask`), never of the TLB
geometry or the replay engine.  A :class:`TraceStore` therefore persists
each synthesized bundle — the per-invocation stream traces plus the fine
(zone-resolution) traces with their indices and extrapolation scales —
under a content key of exactly those inputs, so a *new* geometry or
engine over a known workload skips synthesis entirely, cross-process.

Entries are page-aligned raw binaries, not pickles:

* header: magic + schema + payload offset + per-trace lengths + fine
  indices/scales, padded to a 4 KiB boundary;
* payload: each trace's ``page``/``size``/``weight`` int64 sections,
  contiguous, stream traces first then fine traces.

Loads go through one read-only :func:`numpy.memmap` sliced per section —
zero copies, zero deserialisation — and the resulting views are wrapped
back into :class:`~repro.hw.trace.PageTrace` (whose constructor is
copy-free for int64 input by contract).  ``thp=True`` additionally
advises ``MADV_HUGEPAGE`` on the mapping — the repro system dogfooding
the paper's subject — and counts whether the kernel accepted the advice.

Durability is the artifact store's: atomic tmp+rename writes, SHA-256
sidecars verified on load, quarantine to ``*.corrupt`` on any
validation failure (the caller resynthesizes — losing a trace costs a
rebuild, never a wrong number).  Sharding, LRU eviction, and pinning are
inherited from :class:`~repro.perfmodel.store.ReplayStore`.

``REPRO_TRACE_CACHE`` / ``REPRO_TRACE_CACHE_BYTES`` follow the same
``off|auto|<dir>`` resolver contract as the replay cache;
``REPRO_TRACE_THP`` opts the mappings into transparent huge pages.
"""

from __future__ import annotations

import mmap
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.hw.trace import PageTrace
from repro.perfmodel.store import (
    ReplayStore,
    StoreStats,
    resolve_cache_bytes,
    resolve_cache_dir,
)
from repro.util import artifacts
from repro.util.artifacts import ArtifactError
from repro.util.errors import ConfigurationError

#: first bytes of every trace-bundle artifact
_MAGIC = b"RTRACE01"
#: bump when the binary layout below changes (content changes invalidate
#: through the synthesis key, not here)
TRACE_STORE_SCHEMA = 1
#: payload alignment — one base page, so the mmap'd sections start on a
#: page boundary and ``MADV_HUGEPAGE`` has a chance to take
_ALIGN = 4096
#: fixed header fields after the magic: schema, payload offset,
#: n_stream, n_fine
_FIXED = struct.Struct("<4q")

_THP_TRUE = frozenset({"1", "on", "true", "yes", "thp", "hugepage"})
_THP_FALSE = frozenset({"", "0", "off", "false", "no", "none"})


# --- environment resolvers (the PR 7 ``off|auto|<dir>`` contract) ------------

def resolve_trace_cache_dir(value: str | os.PathLike | None = None,
                            ) -> Path | None:
    """``REPRO_TRACE_CACHE`` through the shared resolver: ``None`` for
    ``off``, ``$XDG_CACHE_HOME/repro/traces`` for ``auto``/unset, else
    the named directory."""
    return resolve_cache_dir(value, env="REPRO_TRACE_CACHE",
                             default_subdir="traces")


def resolve_trace_cache_bytes(value: str | int | None = None) -> int | None:
    """``REPRO_TRACE_CACHE_BYTES`` through the shared budget resolver."""
    return resolve_cache_bytes(value, env="REPRO_TRACE_CACHE_BYTES")


def trace_cache_configured() -> bool:
    """True when ``REPRO_TRACE_CACHE`` carries an *explicit* setting
    (``off`` or a directory) rather than the ``auto`` default — lets a
    session with an explicit replay ``store_dir`` nest its trace tier
    under it instead of writing to the global XDG location."""
    value = os.environ.get("REPRO_TRACE_CACHE", "").strip().lower()
    return value not in ("", "auto", "on", "default")


def resolve_trace_thp(value: str | bool | None = None) -> bool:
    """Resolve the opt-in ``MADV_HUGEPAGE`` flag (``REPRO_TRACE_THP``).

    Off by default — exactly like the kernels the paper measures, huge
    pages on the store's own mappings are a policy the operator chooses.
    """
    if value is None:
        value = os.environ.get("REPRO_TRACE_THP", "")
    if isinstance(value, bool):
        return value
    text = value.strip().lower()
    if text in _THP_TRUE:
        return True
    if text in _THP_FALSE:
        return False
    raise ConfigurationError(
        f"REPRO_TRACE_THP={value!r} is not a boolean "
        f"(expected on/off/1/0/true/false)")


# --- bundles and refs --------------------------------------------------------

@dataclass
class TraceBundle:
    """One synthesis result: stream traces + fine traces with metadata.

    ``key``/``root`` are set when the bundle is backed by a store entry
    (its arrays are then read-only memmap views); an in-memory bundle
    leaves them empty, and pool dispatch ships its traces by value.
    """

    stream: list[PageTrace]
    #: (invocation index, trace, extrapolation scale) per fine pass
    fine: list[tuple[int, PageTrace, float]]
    key: str = ""
    root: Path | None = None
    #: payload bytes on disk (0 for an in-memory bundle)
    nbytes: int = 0
    thp: bool = False

    @property
    def traces(self) -> list[PageTrace]:
        """Every trace in bundle order (stream first, then fine)."""
        return [*self.stream, *(t for _, t, _ in self.fine)]


@dataclass(frozen=True)
class TraceRef:
    """A picklable pointer to sections of a stored trace bundle.

    Pool dispatch puts these in work units instead of arrays: what
    crosses the pipe to a worker is ~100 bytes of path + digest, and the
    worker maps the payload read-only straight from the store (the page
    cache makes the second mapping free).
    """

    root: str
    key: str
    #: indices into the bundle's trace list (stream order, then fine)
    sections: tuple[int, ...]
    #: payload bytes the ref stands for (IPC accounting)
    nbytes: int
    thp: bool = False

    def resolve(self) -> list[PageTrace]:
        """Map the bundle and select this ref's sections (zero-copy)."""
        store = TraceStore(Path(self.root), thp=self.thp)
        bundle = store.load_bundle(self.key)
        if bundle is None:
            raise ArtifactError(
                f"trace bundle syn-{self.key} unavailable in {self.root}")
        traces = bundle.traces
        return [traces[i] for i in self.sections]


# --- the store ---------------------------------------------------------------

@dataclass
class TraceStoreStats(StoreStats):
    """Store counters plus the trace tier's mapping observability."""

    #: mappings that received ``madvise(MADV_HUGEPAGE)`` successfully
    thp_advised: int = 0
    #: payload bytes served as read-only memmap views
    mapped_bytes: int = 0


@dataclass
class TraceStore(ReplayStore):
    """Sharded, LRU-bounded store of page-aligned trace-bundle binaries.

    Inherits the replay store's sharding, pinning, eviction, and
    migration machinery (``suffix`` selects the payload kind); adds the
    binary bundle codec and the zero-copy mmap load path.
    """

    stats: TraceStoreStats = field(default_factory=TraceStoreStats)
    #: advise ``MADV_HUGEPAGE`` on every mapping (``REPRO_TRACE_THP``)
    thp: bool = False

    suffix = ".trace"

    # --- codec -----------------------------------------------------------
    @staticmethod
    def _encode(stream: list[PageTrace],
                fine: list[tuple[int, PageTrace, float]],
                ) -> tuple[bytes, int]:
        """Serialise one bundle; returns (header bytes, payload offset)."""
        traces = [*stream, *(t for _, t, _ in fine)]
        lengths = [t.n_events for t in traces]
        meta = struct.pack(f"<{len(lengths)}q", *lengths)
        meta += struct.pack(f"<{len(fine)}q", *(j for j, _, _ in fine))
        meta += struct.pack(f"<{len(fine)}d", *(sc for _, _, sc in fine))
        header_len = len(_MAGIC) + _FIXED.size + len(meta)
        offset = -(-header_len // _ALIGN) * _ALIGN
        header = (_MAGIC
                  + _FIXED.pack(TRACE_STORE_SCHEMA, offset,
                                len(stream), len(fine))
                  + meta)
        return header + b"\0" * (offset - header_len), offset

    def save_bundle(self, key: str,
                    stream: list[PageTrace],
                    fine: list[tuple[int, PageTrace, float]]) -> int:
        """Atomically persist one bundle under ``syn-<key>``; returns the
        payload byte count.  Propagates ``OSError`` (the session turns
        that into quiet degradation, like the replay store's save)."""
        self.ensure()
        header, _ = self._encode(stream, fine)
        path = self.path_for(f"syn-{key}")
        nbytes = 0
        with artifacts.atomic_write(path) as tmp:
            with open(tmp, "wb") as f:
                f.write(header)
                for t in [*stream, *(t for _, t, _ in fine)]:
                    for arr in (t.page, t.size, t.weight):
                        data = np.ascontiguousarray(arr, dtype=np.int64)
                        f.write(data.tobytes())
                        nbytes += data.nbytes
        artifacts.write_checksum(path)
        self.stats.saves += 1
        if self.max_bytes is not None:
            self.enforce_budget()
        return nbytes

    def load_bundle(self, key: str) -> TraceBundle | None:
        """Map one bundle read-only; corruption quarantines and misses.

        Every validation failure — bad magic, wrong schema, a length
        table that disagrees with the file size, a checksum mismatch —
        quarantines the entry to ``*.corrupt`` and returns ``None``; the
        caller resynthesizes and overwrites.
        """
        self.ensure()
        path = self.path_for(f"syn-{key}")
        if not path.exists():
            return None
        try:
            bundle = self._map_bundle(path)
        except ArtifactError:
            artifacts.quarantine(path)
            self.stats.corrupt += 1
            return None
        except OSError:
            return None
        self.stats.loads += 1
        self.stats.mapped_bytes += bundle.nbytes
        try:
            os.utime(path)  # the LRU recency signal, as in the pickle store
        except OSError:
            pass
        bundle.key = key
        bundle.root = self.root
        bundle.thp = self.thp
        return bundle

    def _map_bundle(self, path: Path) -> TraceBundle:
        if artifacts.verify_checksum(path) is False:
            raise ArtifactError(
                f"trace bundle {path} fails its SHA-256 sidecar check")
        with open(path, "rb") as f:
            head = f.read(len(_MAGIC) + _FIXED.size)
            if len(head) < len(_MAGIC) + _FIXED.size:
                raise ArtifactError(f"trace bundle {path} is truncated")
            if head[:len(_MAGIC)] != _MAGIC:
                raise ArtifactError(f"trace bundle {path} has a bad magic")
            schema, offset, n_stream, n_fine = _FIXED.unpack(
                head[len(_MAGIC):])
            if schema != TRACE_STORE_SCHEMA:
                raise ArtifactError(
                    f"trace bundle {path} has schema {schema}, "
                    f"expected {TRACE_STORE_SCHEMA}")
            if not (0 <= n_stream <= 1 << 20 and 0 <= n_fine <= 1 << 20
                    and offset % _ALIGN == 0 and offset > 0):
                raise ArtifactError(
                    f"trace bundle {path} has an implausible header")
            n = n_stream + n_fine
            meta = f.read(8 * (n + 2 * n_fine))
            if len(meta) < 8 * (n + 2 * n_fine):
                raise ArtifactError(f"trace bundle {path} is truncated")
        lengths = struct.unpack(f"<{n}q", meta[:8 * n])
        indices = struct.unpack(f"<{n_fine}q", meta[8 * n:8 * (n + n_fine)])
        scales = struct.unpack(f"<{n_fine}d", meta[8 * (n + n_fine):])
        if any(ln < 0 for ln in lengths):
            raise ArtifactError(
                f"trace bundle {path} has a negative trace length")
        total = 3 * sum(lengths)
        if path.stat().st_size != offset + 8 * total:
            raise ArtifactError(
                f"trace bundle {path} payload size disagrees with its header")
        if total:
            data = np.memmap(path, dtype=np.int64, mode="r", offset=offset)
            self._advise(data)
        else:
            data = np.empty(0, dtype=np.int64)
        traces: list[PageTrace] = []
        cursor = 0
        for ln in lengths:
            page = data[cursor:cursor + ln]
            size = data[cursor + ln:cursor + 2 * ln]
            weight = data[cursor + 2 * ln:cursor + 3 * ln]
            traces.append(PageTrace(page, size, weight))
            cursor += 3 * ln
        return TraceBundle(
            stream=traces[:n_stream],
            fine=[(int(j), t, float(sc))
                  for j, t, sc in zip(indices, traces[n_stream:], scales)],
            nbytes=8 * total)

    def _advise(self, data: np.memmap) -> None:
        """Opt-in ``madvise(MADV_HUGEPAGE)`` on a fresh mapping.

        Best-effort by design: a kernel without THP (or with it disabled
        for the process) refuses the advice and the load proceeds on
        base pages — the exact degradation story the paper documents.
        """
        if not self.thp:
            return
        advice = getattr(mmap, "MADV_HUGEPAGE", None)
        raw = getattr(data, "_mmap", None)
        if advice is None or raw is None:
            return
        try:
            raw.madvise(advice)
        except OSError:
            return
        self.stats.thp_advised += 1

    # --- observability ----------------------------------------------------
    def describe(self) -> dict:
        doc = super().describe()
        doc["thp"] = self.thp
        doc["thp_advised"] = self.stats.thp_advised
        doc["mapped_bytes"] = self.stats.mapped_bytes
        return doc


__all__ = ["TraceStore", "TraceStoreStats", "TraceBundle", "TraceRef",
           "TRACE_STORE_SCHEMA", "resolve_trace_cache_dir",
           "resolve_trace_cache_bytes", "resolve_trace_thp",
           "trace_cache_configured"]
