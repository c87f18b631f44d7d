"""Process-pool execution of independent replay work units.

A :class:`~repro.perfmodel.session.ReplaySession` batch — a single
replay and a geometry sweep are one-request batches — decomposes into
*work units* that are pure functions of their inputs.  A unit is one
trace bundle's stream sequence (a whole invocation sequence sharing one
TLB), or one set of its fine traces (each replaying through an
independent TLB stream), under every TLB geometry that misses it.
Units never share simulator state, so they can run on any schedule —
including other processes — without changing a single counter.
:class:`ReplayExecutor` schedules them:

* ``jobs <= 1`` (the default) runs every unit inline, in order — the
  serial reference.  Parallel runs are bit-identical *by construction*:
  the same units run the same kernels, only elsewhere; results come
  back keyed by content digest and merge deterministically.
* ``jobs > 1`` lazily forks a :class:`~concurrent.futures.\
ProcessPoolExecutor` (fork start method where available: workers
  inherit the loaded model without re-importing).  Any pool-level
  failure — a worker OOM-killed, a broken pipe, an unpicklable trace —
  degrades to the inline path and is counted on ``fallbacks``; genuine
  replay errors re-raise from the inline retry exactly as serial
  execution would have raised them.

A replay unit names its traces as sections of one trace bundle.  In
the requester (``jobs <= 1``, a single unit, or the inline retry) the
unit replays the bundle's traces as already mapped — and checksum-
verified once — by the session.  Only pool dispatch chooses a
transport: a store-backed bundle travels by reference (a
:class:`~repro.perfmodel.tracestore.TraceRef` naming the sections, which
the worker maps read-only straight from the store), an in-memory one by
value (the traces pickled over the pipe).  The executor meters both on
``traces_mapped_bytes`` / ``traces_pickled_bytes`` so the bench can gate
that the zero-copy handoff engaged.  A third unit kind, ``"synth"``,
runs trace synthesis itself on a worker and persists the bundle — the
requester maps the result instead of building it.

Job-count selection mirrors the engine precedence
(:func:`repro.perfmodel.pipeline.resolve_engine`): explicit argument,
then ``REPRO_REPLAY_JOBS``, then the ``replay_jobs`` runtime parameter.
``0`` or ``auto`` means one worker per core.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Sequence

from repro.core import load_all, parameter_registry
from repro.perfmodel.tracestore import TraceRef
from repro.util.errors import ConfigurationError

#: a work unit — one of:
#:   ("stream" | "fine", engine, geometries, (bundle, sections))
#:       one bundle's traces under every geometry that misses them; pool
#:       dispatch swaps the (bundle, sections) pair for a TraceRef
#:       (store-backed bundle) or the list of traces (in-memory bundle)
#:   ("synth", trace_key, task, store_root, thp)
WorkUnit = tuple


def resolve_jobs(jobs: int | str | None = None, params=None) -> int:
    """Pick the replay worker count.  Precedence, highest first:

    1. an explicit ``jobs`` argument,
    2. the ``REPRO_REPLAY_JOBS`` environment variable,
    3. the ``replay_jobs`` runtime parameter (par file via ``params``,
       else the perfmodel unit's registered default of 1).

    ``0`` or ``"auto"`` at any level resolves to ``os.cpu_count()``.
    Anything else non-numeric or negative raises
    :class:`~repro.util.errors.ConfigurationError`.
    """
    load_all()
    spec = parameter_registry.spec("replay_jobs")
    value: Any = jobs
    if value is None:
        value = os.environ.get("REPRO_REPLAY_JOBS") or None
    if value is None and params is not None:
        value = params.get("replay_jobs")
    if value is None:
        value = spec.default
    if isinstance(value, str):
        text = value.strip().lower()
        if text == "auto":
            value = 0
        else:
            try:
                value = int(text)
            except ValueError:
                raise ConfigurationError(
                    f"invalid replay job count {value!r} "
                    "(expected an integer or 'auto')") from None
    if value < 0:
        raise ConfigurationError(
            f"invalid replay job count {value!r} (expected >= 0)")
    if value == 0:
        value = os.cpu_count() or 1
    return int(value)


def _run_unit(unit: WorkUnit) -> list:
    """Execute one work unit (also the process-pool entry point).

    Imports locally so a forked worker resolves the session lazily; the
    kernel itself is the session's static method, guaranteeing the
    parallel path cannot drift from the serial one.  A ``"synth"`` unit
    synthesizes and persists a trace bundle (returning nothing — the
    requester maps the store entry); a replay unit returns one row of
    per-trace stats per geometry.
    """
    from repro.perfmodel.session import ReplaySession
    kind = unit[0]
    if kind == "synth":
        from repro.perfmodel.tracestore import TraceStore
        _, key, task, root, thp = unit
        stream, fine = task()
        TraceStore(Path(root), thp=thp).save_bundle(key, stream, fine)
        return []
    if kind not in ("stream", "fine"):
        raise ConfigurationError(f"unknown replay work unit kind {kind!r}")
    _, engine, geometries, payload = unit
    if isinstance(payload, TraceRef):
        traces = payload.resolve()
    elif isinstance(payload, list):
        traces = payload
    else:
        bundle, sections = payload
        mapped = bundle.traces
        traces = [mapped[i] for i in sections]
    return ReplaySession._replay_kernel(kind, engine, geometries, traces)


def _for_pool(unit: WorkUnit) -> WorkUnit:
    """The form of ``unit`` that crosses the process boundary: a
    store-backed bundle by reference, an in-memory one by value."""
    if unit[0] not in ("stream", "fine"):
        return unit
    kind, engine, geometries, (bundle, sections) = unit
    mapped = bundle.traces
    traces = [mapped[i] for i in sections]
    if bundle.key and bundle.root is not None:
        return (kind, engine, geometries, TraceRef(
            root=str(bundle.root), key=bundle.key, sections=sections,
            nbytes=sum(t.nbytes for t in traces), thp=bundle.thp))
    return (kind, engine, geometries, traces)


class ReplayExecutor:
    """Runs replay work units, inline or across a process pool.

    The pool is created lazily (a warm cache run never pays the fork),
    kept for the executor's lifetime, and torn down by :meth:`close` /
    the context manager.  Thread-compatibility note: one executor per
    session; the session serialises access.
    """

    def __init__(self, jobs: int | str | None = None, *, params=None) -> None:
        self.jobs = resolve_jobs(jobs, params=params)
        #: pool-level failures degraded to inline execution
        self.fallbacks = 0
        #: trace payload bytes shipped to pool workers by pickling
        #: (by-value units) — the IPC tax the trace tier eliminates
        self.traces_pickled_bytes = 0
        #: trace payload bytes workers mapped from the trace store
        #: instead (by-reference units)
        self.traces_mapped_bytes = 0
        self._pool: ProcessPoolExecutor | None = None

    # --- lifecycle -------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            ctx = None
            if "fork" in multiprocessing.get_all_start_methods():
                ctx = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(max_workers=self.jobs,
                                             mp_context=ctx)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ReplayExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # --- execution -------------------------------------------------------
    def run_units(self, units: Sequence[WorkUnit]) -> list[list]:
        """Execute ``units``; returns their results in input order.

        Results are independent of the schedule because units share no
        state; order preservation makes the merge deterministic.
        """
        units = list(units)
        if self.jobs <= 1 or len(units) <= 1:
            return [_run_unit(u) for u in units]
        try:
            pool = self._ensure_pool()
            shipped = [_for_pool(u) for u in units]
            outputs = list(pool.map(_run_unit, shipped))
        except Exception:
            # pool-level damage (broken worker, pickling trouble) must
            # not lose the measurement: retry inline.  A genuine replay
            # error raises again here, exactly as serial execution would.
            self.fallbacks += 1
            self.close()
            return [_run_unit(u) for u in units]
        self._account_ipc(shipped)
        return outputs

    def _account_ipc(self, units: Sequence[WorkUnit]) -> None:
        """Meter what the pool dispatch actually shipped per unit:
        payload bytes pickled over the pipe, or bytes the worker mapped
        from the trace store instead."""
        for unit in units:
            if unit[0] not in ("stream", "fine"):
                continue
            payload = unit[3]
            if isinstance(payload, list):
                self.traces_pickled_bytes += sum(t.nbytes for t in payload)
            else:
                self.traces_mapped_bytes += payload.nbytes


__all__ = ["ReplayExecutor", "resolve_jobs"]
