"""Multi-configuration replay: one synthesis, many translations, few replays.

The paper's experiment is *one* recording replayed under many
configurations — with/without huge pages, four toolchains, two machines.
A :class:`ReplaySession` amortises that matrix three ways:

1. **Content-addressed replay dedup.**  The TLB simulator's output is a
   pure function of (page trace, TLB geometry, engine).  Every replay is
   keyed by a SHA-256 digest of exactly those inputs, so configurations
   that share a trace — all base-page A64FX toolchains produce
   byte-identical address-space layouts, hence byte-identical traces —
   get one replay and N pricings.  Fine (zone-resolution) traces replay
   through *independent* TLB streams, so they deduplicate individually;
   stream traces share one TLB and deduplicate only as a whole sequence.

2. **Config-level result reuse.**  A full replay result (per-invocation
   :class:`~repro.hw.tlb.TLBStats` plus fine-trace scales) is keyed by
   ``WorkLog.digest()`` + the address-space layout signature + TLB
   geometry + engine + seed.  A hit skips trace synthesis entirely —
   this is what makes ``run_table``'s replication probe free on a warm
   cache, instead of a discarded full replay.

3. **Persistence.**  Both caches live in the corruption-safe artifact
   store (atomic writes, SHA-256 sidecars, versioned envelopes), so
   `repro.bench`, the tests, and CI hit warm cache across processes.  A
   corrupted entry is quarantined to ``*.corrupt`` and recomputed —
   never a crash, never a wrong number (keys are content hashes of the
   inputs; the payload is validated by the envelope + checksum).  The
   on-disk layout, sharding, and LRU size bounds live in
   :class:`~repro.perfmodel.store.ReplayStore`.

4. **The trace tier.**  Below the replay-result cache sits a
   content-addressed store of the synthesized traces themselves
   (:class:`~repro.perfmodel.tracestore.TraceStore`).  Synthesis is a
   pure function of the workload + address-space layout + sampling
   parameters — never of the TLB geometry or replay engine — so a warm
   trace store lets a *new* geometry/engine over a known workload skip
   synthesis entirely, cross-process, and the mapped bundles hand
   traces to pool workers by reference instead of pickling arrays.
   Distinct synthesis misses within a batch are themselves schedulable
   work units, run across the replay executor's pool.

Every entry point — one configuration (:meth:`ReplaySession.replay`),
a batch of pipelines (:meth:`~ReplaySession.replay_batch`), a TLB
geometry sweep (:meth:`~ReplaySession.replay_sweep`) — goes through one
planner, so each cache key is built in one place.

The hard contract, inherited from the fast-path work: counters are
**bit-identical** to per-config :class:`PerformancePipeline` runs on both
engines.  Dedup relies only on (a) SHA-256 collision resistance and (b)
the replay kernels being pure functions of a single stream's trace —
which is exactly what the fast-vs-scalar property suite already pins.

``REPRO_REPLAY_CACHE`` follows the ``off|auto|<dir>`` contract of
:func:`repro.perfmodel.store.resolve_cache_dir` — ``off`` keeps
sessions memory-only, ``auto`` (or unset) uses the XDG default.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

from repro.hw.a64fx import TLBGeometry
from repro.hw.tlb import (
    TLBSimulator,
    TLBStats,
    run_steady_segments,
    run_steady_segments_multi,
)
from repro.hw.trace import PageTrace
from repro.perfmodel.store import (
    ReplayStore,
    resolve_cache_bytes,
    resolve_cache_dir,
)
from repro.perfmodel.tracestore import (
    TraceBundle,
    TraceStore,
    resolve_trace_cache_bytes,
    resolve_trace_cache_dir,
    resolve_trace_thp,
    trace_cache_configured,
)
from repro.util.artifacts import ArtifactError
from repro.util.errors import ConfigurationError

#: bump when the persisted envelope layout changes (a schema guard only —
#: content changes invalidate through the digests in the keys, not here)
_STORE_VERSION = 1
#: bump when trace *synthesis* semantics change (builder emission order,
#: probe step, fine sampling); part of every config-level key so replay
#: results recorded by an older model can never be served for a new one
TRACE_SCHEMA = 1


# --- digest helpers ----------------------------------------------------------

def _hexdigest(h: "hashlib._Hash") -> str:
    return h.hexdigest()[:40]


def trace_digest(trace: PageTrace) -> str:
    """Content digest of one page trace (page/size/weight arrays)."""
    h = hashlib.sha256()
    h.update(struct.pack("<q", trace.n_events))
    h.update(trace.page.tobytes())
    h.update(trace.size.tobytes())
    h.update(trace.weight.tobytes())
    return _hexdigest(h)


def geometry_digest(geometry: TLBGeometry) -> str:
    """Digest of the TLB fields that determine miss counts.

    Miss penalties and walk cycles price misses but do not change them,
    so they are deliberately excluded: machines sharing a geometry share
    replays.
    """
    h = hashlib.sha256()
    h.update(struct.pack("<4q", geometry.l1.entries, geometry.l1.assoc,
                         geometry.l2.entries, geometry.l2.assoc))
    return _hexdigest(h)


# --- session -----------------------------------------------------------------

@dataclass
class SessionStats:
    """Observability counters for one session (tests and bench gate on
    these — ``replays`` is the "distinct TLB replays" number)."""

    #: replay requests priced through the session (one per pipeline run)
    configs: int = 0
    #: configs whose replay actually executed TLB simulation work
    replays: int = 0
    #: configs served entirely from the in-memory config cache
    memory_hits: int = 0
    #: configs served entirely from the persistent store
    disk_hits: int = 0
    #: trace-level (content-digest) reuses across or within configs
    trace_hits: int = 0
    #: duplicate fine traces within a config not replayed twice
    fine_deduped: int = 0
    #: persisted memo()isations served instead of recomputed
    memo_hits: int = 0
    #: trace syntheses that actually ran (anywhere — requester or pool)
    synthesis_count: int = 0
    #: syntheses skipped because the trace tier already held the bundle
    trace_store_hits: int = 0


@dataclass
class ReplayResult:
    """Everything a pipeline needs to price one configuration."""

    #: per-invocation stream-pass stats, in invocation order
    stream: list[TLBStats]
    #: (invocation index, raw unscaled stats, extrapolation scale) per
    #: fine-sampled invocation
    fine: list[tuple[int, TLBStats, float]] = field(default_factory=list)


@dataclass
class ReplayRequest:
    """One synthesis priced under one or more TLB geometries.

    ``synthesize`` is only called when some pair misses the config
    caches *and* the trace tier misses — a warm store never builds a
    trace — and at most once per request, however many pairs it has.
    """

    engine: str
    synthesize: Callable[[], tuple[list[PageTrace],
                                   list[tuple[int, PageTrace, float]]]]
    #: ``(config key, TLB geometry)`` per priced configuration
    pairs: list[tuple[str, TLBGeometry]]
    #: content key of the synthesis inputs (workload digest + layout
    #: signature + sampling parameters; geometry- and engine-free).
    #: ``None`` keeps the legacy behaviour: synthesis always runs in the
    #: requester and nothing is persisted below the replay cache.
    trace_key: str | None = None


class _Slot(NamedTuple):
    """Where a planned replay's stats land: row ``index`` of work unit
    ``job``, and entry ``pos`` of that row (``None``: the whole row)."""

    job: tuple
    index: int
    pos: int | None


class ReplaySession:
    """Shares and persists TLB replay results across configurations.

    ``share=False`` disables both cache levels (every config synthesises
    and replays — the seed-equivalent behaviour, used by the bench as the
    reference measurement); ``persist=False`` keeps results in memory
    only.  Sessions are cheap; the process-wide :func:`default_session`
    is what gives independent experiment entry points a common cache.
    """

    def __init__(self, store_dir: str | Path | None = None, *,
                 persist: bool = True, share: bool = True,
                 max_bytes: int | None = None,
                 trace_dir: str | Path | None = None,
                 trace_max_bytes: int | None = None,
                 trace_thp: bool | None = None) -> None:
        self.share = share
        self.persist = persist and share
        self._store_dir = Path(store_dir) if store_dir is not None else None
        self._explicit_store_dir = store_dir is not None
        self._max_bytes = max_bytes
        self._store_obj: ReplayStore | None = None
        #: the trace tier: explicit ``trace_dir``, else REPRO_TRACE_CACHE
        #: (off|auto|<dir>), else nested under an explicit ``store_dir``,
        #: else the XDG default — active only while the session persists
        self._trace_dir = Path(trace_dir) if trace_dir is not None else None
        self._trace_max_bytes = trace_max_bytes
        self._trace_thp = trace_thp
        self._trace_store_obj: TraceStore | None = None
        self._trace_off = False
        self._bundles: dict[str, TraceBundle] = {}
        self._configs: dict[str, ReplayResult] = {}
        self._traces: dict[str, list[TLBStats]] = {}
        self._memos: dict[str, Any] = {}
        self._executor = None
        self._lock = threading.RLock()
        self.stats = SessionStats()

    @classmethod
    def disabled(cls) -> "ReplaySession":
        """A no-sharing, no-persistence session (per-config behaviour)."""
        return cls(persist=False, share=False)

    # --- store -----------------------------------------------------------
    def _store(self) -> ReplayStore | None:
        """The session's sharded persistent store, or ``None``.

        Cache-dir resolution is centralized in
        :func:`repro.perfmodel.store.resolve_cache_dir` — the single
        reader of ``REPRO_REPLAY_CACHE`` (``off|auto|<dir>``).  An
        explicit ``store_dir`` argument bypasses the environment; an
        uncreatable directory degrades the session to memory-only.
        """
        if not self.persist:
            return None
        if self._store_obj is None:
            store_dir = self._store_dir
            if store_dir is None:
                store_dir = resolve_cache_dir()
                if store_dir is None:  # REPRO_REPLAY_CACHE=off
                    self.persist = False
                    return None
            max_bytes = self._max_bytes
            if max_bytes is None:
                max_bytes = resolve_cache_bytes()
            store = ReplayStore(store_dir, max_bytes=max_bytes)
            try:
                store.ensure()
            except OSError:
                self.persist = False
                return None
            self._store_dir = store.root
            self._store_obj = store
        return self._store_obj

    @property
    def store(self) -> ReplayStore | None:
        """The persistent store (for metrics/eviction), if any."""
        return self._store()

    def _load(self, name: str) -> Any | None:
        """Fetch one persisted payload; corruption quarantines and misses."""
        store = self._store()
        if store is None:
            return None
        return store.load(name, version=_STORE_VERSION)

    def _save(self, name: str, payload: Any) -> None:
        store = self._store()
        if store is None:
            return
        try:
            store.save(name, payload, version=_STORE_VERSION)
        except (OSError, ArtifactError):
            self.persist = False  # e.g. read-only cache dir: degrade quietly

    # --- the trace tier ---------------------------------------------------
    def _trace_store(self) -> TraceStore | None:
        """The session's persistent trace-bundle store, or ``None``.

        Active only for sharing, persisting sessions (the trace tier
        sits *below* the replay cache — a memory-only session keeps its
        bundles in memory).  Resolution precedence: an explicit
        ``trace_dir`` argument, then ``REPRO_TRACE_CACHE``
        (``off|auto|<dir>``), then — under the ``auto`` default — nested
        as ``<store_dir>/traces`` when the session was given an explicit
        replay store directory (so throwaway test stores stay
        self-contained), else the XDG default.  An uncreatable directory
        degrades the trace tier off, never the session.
        """
        if not self.share or self._trace_off:
            return None
        if self._store() is None:  # replay persistence off or degraded
            return None
        if self._trace_store_obj is None:
            trace_dir = self._trace_dir
            if trace_dir is None:
                if self._explicit_store_dir and not trace_cache_configured():
                    trace_dir = Path(self._store_dir) / "traces"
                else:
                    trace_dir = resolve_trace_cache_dir()
                    if trace_dir is None:  # REPRO_TRACE_CACHE=off
                        self._trace_off = True
                        return None
            max_bytes = self._trace_max_bytes
            if max_bytes is None:
                max_bytes = resolve_trace_cache_bytes()
            thp = self._trace_thp
            if thp is None:
                thp = resolve_trace_thp()
            store = TraceStore(trace_dir, max_bytes=max_bytes, thp=thp)
            try:
                store.ensure()
            except OSError:
                self._trace_off = True
                return None
            self._trace_store_obj = store
        return self._trace_store_obj

    @property
    def trace_store(self) -> TraceStore | None:
        """The trace tier's store (for metrics/eviction), if any."""
        return self._trace_store()

    def _synthesize(self, task: Callable, key: str | None) -> TraceBundle:
        """Run one synthesis in the requester.  With a ``key`` and an
        active trace tier the bundle is persisted and mapped back
        (zero-copy views); a failed save degrades the tier off."""
        stream, fine = task()
        bundle = TraceBundle(stream=list(stream), fine=list(fine))
        store = self._trace_store() if key is not None else None
        if store is None:
            return bundle
        try:
            store.save_bundle(key, bundle.stream, bundle.fine)
        except (OSError, ArtifactError):
            self._trace_off = True
            return bundle
        return store.load_bundle(key) or bundle

    def _resolve_syntheses(self, pending: list[tuple[int, "ReplayRequest",
                                                     list[int]]],
                           executor) -> dict[int, TraceBundle]:
        """Resolve every pending request's synthesis to a trace bundle.

        Answers what it can from the bundle caches, then schedules the
        *distinct* misses as ``"synth"`` work units — across the replay
        executor's pool when the trace tier is active and the tasks are
        picklable (workers persist the bundle; the requester maps it) —
        and synthesizes inline otherwise.  Accounting is as-if-
        sequential: one ``synthesis_count`` per distinct miss (per
        request when the session does not share), one
        ``trace_store_hits`` per request that would have found the store
        warm, independent of the job count and of how many geometries
        the request prices.
        """
        out: dict[int, TraceBundle] = {}
        store = self._trace_store()
        waiting: dict[str, list[int]] = {}
        tasks: dict[str, Callable] = {}
        for r, req, _ in pending:
            key = req.trace_key if self.share else None
            if key is None:
                self.stats.synthesis_count += 1
                out[r] = self._synthesize(req.synthesize, None)
                continue
            hit = self._bundles.get(key)
            if hit is None and store is not None:
                hit = store.load_bundle(key)
                if hit is not None:
                    self._bundles[key] = hit
            if hit is not None:
                self.stats.trace_store_hits += 1
                out[r] = hit
                continue
            if key in waiting:
                # an earlier batch entry synthesizes this bundle;
                # sequential execution would find the store warm here
                self.stats.trace_store_hits += 1
                waiting[key].append(r)
                continue
            waiting[key] = [r]
            tasks[key] = req.synthesize
        if not tasks:
            return out
        self.stats.synthesis_count += len(tasks)
        keys = list(tasks)
        done: dict[str, TraceBundle | None] = {}
        schedulable = (store is not None
                       and all(getattr(tasks[k], "picklable", False)
                               for k in keys))
        if schedulable:
            units = [("synth", k, tasks[k], str(store.root), store.thp)
                     for k in keys]
            with store.pinned(*(f"syn-{k}" for k in keys)):
                try:
                    executor.run_units(units)
                except Exception:  # noqa: BLE001 — synthesis must not be lost
                    self._trace_off = True
                else:
                    for k in keys:
                        done[k] = store.load_bundle(k)
        for k in keys:
            bundle = done.get(k)
            if bundle is None:
                bundle = self._synthesize(tasks[k], k)
            self._bundles[k] = bundle
            for r in waiting[k]:
                out[r] = bundle
        return out

    # --- replay ----------------------------------------------------------
    def replay(self, *, config_key: str, geometry: TLBGeometry, engine: str,
               synthesize: Callable[[], tuple[list[PageTrace],
                                              list[tuple[int, PageTrace,
                                                         float]]]],
               trace_key: str | None = None) -> ReplayResult:
        """Replay one configuration, reusing every cached piece.

        ``synthesize`` is only called on a config-level miss *and* a
        trace-tier miss — a warm store answers without building a single
        trace.  A one-request, one-pair :meth:`replay_batch`.
        """
        return self.replay_batch([ReplayRequest(
            engine=engine, synthesize=synthesize, trace_key=trace_key,
            pairs=[(config_key, geometry)])])[0][0]

    def replay_sweep(self, *, config_keys: list[str],
                     geometries: list[TLBGeometry], engine: str,
                     synthesize: Callable[[], tuple[list[PageTrace],
                                                    list[tuple[int, PageTrace,
                                                               float]]]],
                     trace_key: str | None = None) -> list[ReplayResult]:
        """Replay one trace set under many TLB geometries.

        A one-request :meth:`replay_batch` with one ``(config key,
        geometry)`` pair per sweep point: synthesis runs at most once,
        the fast engine replays every geometry that misses the caches in
        one multi-geometry kernel call, and results land under exactly
        the keys single :meth:`replay` calls use, so sweeps and single
        replays warm each other's caches.
        """
        if len(config_keys) != len(geometries):
            raise ConfigurationError(
                "replay_sweep needs one config key per geometry")
        return self.replay_batch([ReplayRequest(
            engine=engine, synthesize=synthesize, trace_key=trace_key,
            pairs=list(zip(config_keys, geometries)))])[0]

    def replay_batch(self, requests: list[ReplayRequest], *,
                     executor=None) -> list[list[ReplayResult]]:
        """Thread-safe entry point for :meth:`_replay_batch`.

        One re-entrant lock serialises the session's cache mutations
        (:meth:`replay_batch` and :meth:`memo`), so a multi-threaded
        server sharing one session keeps the exact sequential accounting
        the bench gates on — concurrency between *different* requests
        lives above this layer, in the serving singleflight, and below
        it, in the replay executor.
        """
        with self._lock:
            return self._replay_batch(requests, executor=executor)

    def _replay_batch(self, requests: list[ReplayRequest], *,
                      executor=None) -> list[list[ReplayResult]]:
        """The session's one replay planner.

        A request is one synthesis priced under one or more ``(config
        key, geometry)`` pairs.  The batch first answers every pair it
        can from the config caches, then resolves each request that
        still misses to one trace bundle (:meth:`_resolve_syntheses`)
        and runs the replay work that no cache answers
        (:meth:`_compute`).  With the default serial executor the whole
        method is step-for-step the sequence of :meth:`replay` calls it
        replaces — counters included.

        ``executor`` defaults to the session's own lazily-created
        :class:`~repro.perfmodel.parallel.ReplayExecutor`, whose job
        count honours ``REPRO_REPLAY_JOBS`` / the ``replay_jobs``
        runtime parameter (serial unless asked otherwise).

        Returns one list of results per request, in pair order.
        """
        results: list[list[ReplayResult | None]] = [
            [None] * len(req.pairs) for req in requests]
        pending: list[tuple[int, ReplayRequest, list[int]]] = []
        claimed: set[str] = set()
        hits: list[tuple[int, int]] = []  # pairs answered by self._configs
        for r, req in enumerate(requests):
            todo = []
            for p, (key, _) in enumerate(req.pairs):
                self.stats.configs += 1
                if self.share:
                    if key in self._configs or key in claimed:
                        # an earlier pair computing this config counts as
                        # the memory hit sequential replay would record
                        self.stats.memory_hits += 1
                        hits.append((r, p))
                        continue
                    stored = self._load(self._entry_key("cfg", key))
                    if self._valid_config(stored):
                        self._configs[key] = ReplayResult(
                            stream=list(stored["stream"]),
                            fine=[(int(j), s, float(sc))
                                  for j, s, sc in stored["fine"]])
                        self.stats.disk_hits += 1
                        hits.append((r, p))
                        continue
                    claimed.add(key)
                todo.append(p)
            if todo:
                pending.append((r, req, todo))
        if pending:
            self._compute(pending, results,
                          executor or self._executor_for_batch())
        for r, p in hits:
            results[r][p] = self._configs[requests[r].pairs[p][0]]
        return results  # type: ignore[return-value]

    def _compute(self, pending: list[tuple[int, ReplayRequest, list[int]]],
                 results: list[list[ReplayResult | None]], executor) -> None:
        """Synthesize, plan, run and persist the pairs no cache answered.

        Cache names are content digests (:meth:`_entry_key`), so the
        first pair that needs a stream sequence or fine trace claims it
        for a work unit and every later pair counts the trace hit that
        sequential execution would have found.  A unit is one bundle's
        stream sequence, or one set of its fine traces, under every
        geometry that misses it: the fast engine runs it as one
        multi-geometry kernel call, and the executor may run units in
        any order on any number of processes.
        """
        bundles = self._resolve_syntheses(pending, executor)

        # (kind, engine, id(bundle), sections) -> (bundle, geometries)
        jobs: dict[tuple, tuple[TraceBundle, list[TLBGeometry]]] = {}
        claims: dict[str, _Slot] = {}        # cache name -> its computation
        fresh: list[tuple[str, _Slot]] = []  # names to persist once run
        digests: dict[int, tuple[list[str], list[str]]] = {}
        plans = []

        def claim(kind, engine, bundle, sections, geometry) -> _Slot:
            job = (kind, engine, id(bundle), sections)
            geometries = jobs.setdefault(job, (bundle, []))[1]
            geometries.append(geometry)
            return _Slot(job, len(geometries) - 1, None)

        for r, req, todo in pending:
            bundle = bundles[r]
            if id(bundle) not in digests:
                digests[id(bundle)] = (
                    [trace_digest(t) for t in bundle.stream],
                    [trace_digest(t) for _, t, _ in bundle.fine])
            sd, fd = digests[id(bundle)]
            n_stream = len(sd)
            for p in todo:
                key, geometry = req.pairs[p]
                geo = geometry_digest(geometry)
                owned: list[tuple[str, _Slot]] = []

                # stream pass: one shared TLB for the whole sequence, so
                # the sequence deduplicates only as a whole
                name = self._entry_key("stream", req.engine, geo, *sd)
                stream = self._cached_traces(name, n_stream)
                if stream is None:
                    stream = claims.get(name)
                if stream is not None:
                    self.stats.trace_hits += 1
                else:
                    stream = claim("stream", req.engine, bundle,
                                   tuple(range(n_stream)), geometry)
                    owned.append((name, stream))

                # fine passes: a fresh TLB per trace, so each trace
                # deduplicates on its own, within and across pairs
                fine: dict[str, Any] = {}  # digest -> stats or slot
                missing: list[tuple[int, str, str]] = []
                for pos, d in enumerate(fd):
                    if d in fine:
                        self.stats.fine_deduped += 1
                        continue
                    fname = self._entry_key("fine", req.engine, geo, d)
                    cached = self._cached_traces(fname, 1)
                    fine[d] = cached[0] if cached else claims.get(fname)
                    if fine[d] is not None:
                        self.stats.trace_hits += 1
                    else:
                        missing.append((pos, d, fname))
                if missing:
                    slot = claim("fine", req.engine, bundle,
                                 tuple(n_stream + pos for pos, _, _ in missing),
                                 geometry)
                    for k, (_, d, fname) in enumerate(missing):
                        fine[d] = slot._replace(pos=k)
                        owned.append((fname, fine[d]))

                if owned:
                    self.stats.replays += 1
                    fresh.extend(owned)
                    if self.share:
                        claims.update(owned)
                plans.append((r, p, key, stream, fine, fd, bundle.fine))

        # --- run every unit.  Bundles referenced by units are pinned so a
        # concurrent save's budget enforcement cannot evict a file a pool
        # worker is about to map
        units = [(kind, engine, tuple(geometries), (bundle, sections))
                 for (kind, engine, _, sections), (bundle, geometries)
                 in jobs.items()]
        tstore = self._trace_store()
        used = (sorted({b.key for b in bundles.values() if b.key})
                if tstore is not None else [])
        with (tstore.pinned(*(f"syn-{k}" for k in used)) if used
              else nullcontext()):
            outputs = executor.run_units(units)
        rows = dict(zip(jobs, outputs))
        if tstore is not None and tstore.max_bytes is not None:
            tstore.enforce_budget()

        def value(src):
            if not isinstance(src, _Slot):
                return src  # answered by the trace cache
            row = rows[src.job][src.index]
            return row if src.pos is None else row[src.pos]

        # --- persist, then assemble in request order
        for name, slot in fresh:
            stats = value(slot)
            self._store_traces(name, stats if slot.pos is None else [stats])
        for r, p, key, stream, fine, fd, fine_traces in plans:
            result = ReplayResult(
                stream=value(stream),
                fine=[(j, value(fine[d]), scale)
                      for d, (j, _, scale) in zip(fd, fine_traces)])
            if self.share:
                self._configs[key] = result
                self._save(self._entry_key("cfg", key),
                           {"stream": result.stream, "fine": result.fine})
            results[r][p] = result

    def _executor_for_batch(self):
        """The session's lazily-created executor (jobs from the
        environment / registry); created serial stays serial forever,
        so the hot path never imports multiprocessing machinery."""
        if getattr(self, "_executor", None) is None:
            from repro.perfmodel.parallel import ReplayExecutor
            self._executor = ReplayExecutor()
        return self._executor

    def close(self) -> None:
        """Release the executor's worker pool, if one was ever forked.

        Idempotent and non-final: the next batch lazily re-creates the
        executor, so closing between legs (or in ``session_scope``
        teardown) never strands a session.
        """
        ex = getattr(self, "_executor", None)
        if ex is not None:
            ex.close()
            self._executor = None

    def __enter__(self) -> "ReplaySession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def _entry_key(kind: str, *parts: str) -> str:
        """The persisted name of one session entry — the one place the
        ``cfg-``, ``trace-`` and ``trace-fine-`` names are spelled.

        ``("cfg", config_key)`` names a config-level result;
        ``("stream", engine, geo, *trace_digests)`` a stream sequence
        (one shared TLB, so the sequence is keyed as a whole);
        ``("fine", engine, geo, trace_digest)`` one fine trace.
        """
        if kind == "cfg":
            return f"cfg-{parts[0]}"
        engine, geo, *digests = parts
        if kind == "fine":
            return f"trace-fine-{engine}-{geo}-{digests[0]}"
        h = hashlib.sha256()
        h.update(f"stream/{engine}/{geo}/{len(digests)}".encode())
        for d in digests:
            h.update(d.encode())
        return f"trace-{_hexdigest(h)}"

    def _cached_traces(self, name: str, n: int) -> list[TLBStats] | None:
        """The cached stats of ``n`` traces under ``name``, if any."""
        if not self.share:
            return None
        hit = self._traces.get(name)
        if hit is None:
            stored = self._load(name)
            if (isinstance(stored, list)
                    and all(isinstance(s, TLBStats) for s in stored)):
                self._traces[name] = hit = stored
        return hit if hit is not None and len(hit) == n else None

    def _store_traces(self, name: str, stats: list[TLBStats]) -> None:
        if not self.share:
            return
        self._traces[name] = stats
        self._save(name, stats)

    @staticmethod
    def _valid_config(stored: Any) -> bool:
        return (isinstance(stored, dict)
                and isinstance(stored.get("stream"), list)
                and all(isinstance(s, TLBStats) for s in stored["stream"])
                and isinstance(stored.get("fine"), list)
                and all(len(e) == 3 and isinstance(e[1], TLBStats)
                        for e in stored["fine"]))

    # --- the replay kernel (bit-identical to the per-config paths) ------
    @staticmethod
    def _replay_kernel(kind: str, engine: str,
                       geometries: tuple[TLBGeometry, ...],
                       traces: list[PageTrace]) -> list[list[TLBStats]]:
        """Steady-state stats of one work unit: one row per geometry,
        one entry per trace.

        ``"stream"`` traces replay through one shared TLB (a warm-up
        pass, then the measured pass); ``"fine"`` traces each through a
        fresh one.  The fast engine replays every geometry in one
        kernel call; the scalar oracle loops over them.
        """
        if engine == "fast":
            streams = ([0] * len(traces) if kind == "stream"
                       else list(range(len(traces))))
            if len(geometries) == 1:
                return [run_steady_segments(geometries[0], traces,
                                            streams=streams)]
            return run_steady_segments_multi(geometries, traces,
                                             streams=streams)
        rows = []
        for geometry in geometries:
            if kind == "stream":
                sim = TLBSimulator(geometry)
                for t in traces:
                    sim.run(t)  # warm pass
                rows.append([sim.run(t) for t in traces])
                continue
            row = []
            for t in traces:
                sim = TLBSimulator(geometry)
                sim.run(t)  # warm
                row.append(sim.run(t))
            rows.append(row)
        return rows

    # --- deterministic experiment memoisation ----------------------------
    def memo(self, kind: str, key_parts: tuple, builder: Callable[[], Any],
             validate: Callable[[Any], bool] | None = None) -> Any:
        """Persist a deterministic experiment result keyed by content.

        ``key_parts`` must capture every input the result depends on
        (model constants included — ``repr`` of the relevant dataclasses
        is the usual spelling).  Used by the allocation experiments,
        whose kernel/allocator simulations are pure functions of their
        configuration, and by the serving layer's rendered-report memo.
        Holds the session lock for the duration of ``builder()`` (see
        :meth:`replay_batch`).
        """
        key = self.memo_key(kind, key_parts)
        with self._lock:
            if self.share:
                if key in self._memos:
                    self.stats.memo_hits += 1
                    return self._memos[key]
                stored = self._load(f"memo-{key}")
                if stored is not None and (validate is None
                                           or validate(stored)):
                    self._memos[key] = stored
                    self.stats.memo_hits += 1
                    return stored
            value = builder()
            if self.share:
                self._memos[key] = value
                self._save(f"memo-{key}", value)
            return value

    @staticmethod
    def memo_key(kind: str, key_parts: tuple) -> str:
        """The content digest :meth:`memo` files ``(kind, key_parts)``
        under — exposed so callers (the serving singleflight) can name,
        pin, or probe the persisted ``memo-<key>`` entry."""
        h = hashlib.sha256()
        h.update(f"{kind}/{TRACE_SCHEMA}".encode())
        h.update(repr(key_parts).encode())
        return _hexdigest(h)

    # --- sugar ------------------------------------------------------------
    def pipeline(self, log, compiler, **kwargs):
        """A :class:`PerformancePipeline` bound to this session."""
        from repro.perfmodel.pipeline import PerformancePipeline
        return PerformancePipeline(log, compiler, session=self, **kwargs)

    def run(self, log, compiler, **kwargs):
        """Run one configuration through the session; returns PerfReport."""
        return self.pipeline(log, compiler, **kwargs).run()


# --- the process-wide default session ----------------------------------------

_DEFAULT: ReplaySession | None = None


def default_session() -> ReplaySession:
    """The shared session every un-parameterised consumer joins.

    ``REPRO_REPLAY_CACHE`` (``off|auto|<dir>``) is honoured lazily by
    the session's store, through the one resolver in
    :mod:`repro.perfmodel.store` — every session without an explicit
    ``store_dir`` obeys it, not just this default one.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ReplaySession()
    return _DEFAULT


def set_default_session(session: ReplaySession | None) -> None:
    global _DEFAULT
    _DEFAULT = session


@contextmanager
def session_scope(session: ReplaySession, *,
                  close: bool = False) -> Iterator[ReplaySession]:
    """Temporarily replace the default session (bench and tests).

    ``close=True`` additionally shuts the session's executor pool down
    in teardown — forked replay workers must not outlive the scope that
    forked them.  (Closing is non-final: a later batch re-creates the
    pool, so ``close=True`` is safe for sessions that are reused.)
    """
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = session
    try:
        yield session
    finally:
        _DEFAULT = previous
        if close:
            session.close()


__all__ = ["ReplaySession", "ReplayResult", "ReplayRequest", "SessionStats",
           "default_session", "set_default_session", "session_scope",
           "trace_digest", "geometry_digest", "TRACE_SCHEMA",
           "resolve_cache_dir", "resolve_cache_bytes"]
