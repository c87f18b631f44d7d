"""Determinism and concurrency of the multicore replay executor.

The executor's contract is bit-identity *by construction*: a parallel
run schedules the same pure work units as the serial reference, only on
other processes, so every counter, every report, and the session's
replay accounting must come out exactly equal — run to run, jobs to
jobs, and under racing writers sharing one persistent store.
"""

import multiprocessing
import os
from dataclasses import replace

import pytest

import repro.perfmodel.parallel as parallel_mod
import repro.perfmodel.session as session_mod
from repro.experiments.workloads import sod_problem_worklog
from repro.hw.a64fx import A64FX, XEON_E5_2683V3
from repro.perfmodel.parallel import ReplayExecutor, resolve_jobs
from repro.perfmodel.pipeline import PerformancePipeline, run_batch
from repro.perfmodel.session import ReplaySession, session_scope
from repro.toolchain.compiler import FUJITSU, GNU
from repro.util.errors import ConfigurationError


@pytest.fixture(scope="module")
def sod_log():
    return sod_problem_worklog(quick=True)


def _fingerprint(report):
    """Every number the experiment harness can observe, exactly."""
    units = {
        name: (tot.tlb.accesses, tot.tlb.l1_misses, tot.tlb.l2_misses,
               repr(tot.work))
        for name, tot in report.units.items()
    }
    bank = report.as_counterbank()
    counters = {event.value: total for event, total in bank.totals.items()}
    return (units, counters, report.seconds, report.flash_timer_s,
            report.uses_huge_pages)


#: three distinct L1 DTLB sizes for geometry sweeps
_SWEEP = [replace(A64FX.tlb, l1=replace(A64FX.tlb.l1, entries=e, assoc=e))
          for e in (8, 16, 64)]


def _batch_pipelines(log, session):
    """Four configurations with real sharing structure: two share page
    traces (base-page toolchains), one has its own allocation story
    (Fujitsu huge pages), one replays on a different TLB geometry."""
    return [
        PerformancePipeline(log, FUJITSU, session=session),
        PerformancePipeline(log, FUJITSU, flags=("-Knolargepage",),
                            session=session),
        PerformancePipeline(log, GNU, machine=A64FX, session=session),
        PerformancePipeline(log, GNU, machine=XEON_E5_2683V3,
                            session=session),
    ]


class TestResolveJobs:
    """Precedence: explicit argument > REPRO_REPLAY_JOBS > parameter."""

    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPLAY_JOBS", raising=False)

    def test_default_is_serial(self):
        assert resolve_jobs() == 1

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_JOBS", "3")
        assert resolve_jobs() == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_params_override_default(self):
        assert resolve_jobs(params={"replay_jobs": 5}) == 5

    def test_auto_and_zero_mean_one_per_core(self, monkeypatch):
        cores = os.cpu_count() or 1
        assert resolve_jobs(0) == cores
        assert resolve_jobs("auto") == cores
        monkeypatch.setenv("REPRO_REPLAY_JOBS", "auto")
        assert resolve_jobs() == cores

    @pytest.mark.parametrize("bad", ["-1", "two", "1.5"])
    def test_invalid_values_raise(self, bad):
        with pytest.raises(ConfigurationError):
            resolve_jobs(bad)


class TestBitIdentity:
    """jobs=N results and accounting == the jobs=1 reference, exactly."""

    def _run(self, log, jobs, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_JOBS", str(jobs))
        session = ReplaySession(persist=False)
        try:
            reports = run_batch(_batch_pipelines(log, session))
        finally:
            session.close()
        return [_fingerprint(r) for r in reports], session.stats

    def test_jobs2_matches_serial(self, sod_log, monkeypatch):
        ref_prints, ref_stats = self._run(sod_log, 1, monkeypatch)
        par_prints, par_stats = self._run(sod_log, 2, monkeypatch)
        assert par_prints == ref_prints
        # the *accounting* is as-if-sequential too: same replay count,
        # same hit classification, not merely the same totals
        assert par_stats == ref_stats

    def test_parallel_runs_are_repeatable(self, sod_log, monkeypatch):
        first, s1 = self._run(sod_log, 2, monkeypatch)
        second, s2 = self._run(sod_log, 2, monkeypatch)
        assert first == second
        assert s1 == s2

    def test_geometry_sweep_unaffected_by_jobs(self, sod_log, monkeypatch):
        prints, stats = [], []
        for jobs in (1, 2):
            monkeypatch.setenv("REPRO_REPLAY_JOBS", str(jobs))
            session = ReplaySession(persist=False)
            try:
                pipe = PerformancePipeline(sod_log, FUJITSU, session=session)
                prints.append([_fingerprint(r)
                               for r in pipe.run_geometries(_SWEEP)])
                assert session._executor.fallbacks == 0
            finally:
                session.close()
            stats.append(session.stats)
        assert prints[0] == prints[1]
        assert stats[0] == stats[1]

    def test_batch_shares_a_bundle_across_geometries(self, sod_log,
                                                     monkeypatch):
        """A64FX and Xeon requests over one trace key: one synthesis, one
        multi-geometry kernel call per pass, serial results exactly."""
        calls = []
        multi = session_mod.run_steady_segments_multi

        def spy(geometries, *args, **kwargs):
            calls.append(len(geometries))
            return multi(geometries, *args, **kwargs)

        monkeypatch.setattr(session_mod, "run_steady_segments_multi", spy)
        machines = (A64FX, XEON_E5_2683V3)
        session = ReplaySession(persist=False)
        batched = run_batch([PerformancePipeline(sod_log, GNU, machine=m,
                                                 session=session)
                             for m in machines])
        assert session.stats.synthesis_count == 1
        assert calls and all(n == 2 for n in calls)
        for machine, report in zip(machines, batched):
            serial = PerformancePipeline(sod_log, GNU, machine=machine,
                                         session=ReplaySession.disabled())
            assert _fingerprint(report) == _fingerprint(serial.run())


class TestExecutorFallback:
    """Pool-level damage degrades to inline execution, never to a loss."""

    def test_pool_failure_retries_inline(self, monkeypatch):
        monkeypatch.setattr(parallel_mod, "_run_unit", lambda u: [u])
        ex = ReplayExecutor(2)

        def broken_pool():
            raise RuntimeError("worker exploded")

        monkeypatch.setattr(ex, "_ensure_pool", broken_pool)
        units = [("stream", "fast", None, []), ("fine", "fast", None, [])]
        assert ex.run_units(units) == [[u] for u in units]
        assert ex.fallbacks == 1

    def test_genuine_errors_propagate_inline(self, monkeypatch):
        def boom(unit):
            raise ValueError("bad trace")

        monkeypatch.setattr(parallel_mod, "_run_unit", boom)
        with pytest.raises(ValueError, match="bad trace"):
            ReplayExecutor(1).run_units([("stream", "fast", None, [])])

    def test_unknown_unit_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            parallel_mod._run_unit(("granular", "fast", None, []))

    def test_serial_executor_never_forks(self):
        ex = ReplayExecutor(1)
        ex.run_units([])
        assert ex._pool is None


class TestTraceTier:
    """The zero-copy handoff end to end: cold runs synthesize across the
    pool and ship traces by reference; a warm trace store over a fresh
    replay store skips synthesis entirely."""

    def _run(self, log, tmp_path, name, traces, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_JOBS", "2")
        session = ReplaySession(store_dir=str(tmp_path / name),
                                trace_dir=traces)
        try:
            reports = run_batch(_batch_pipelines(log, session))
        finally:
            executor = session._executor
            session.close()
        return [_fingerprint(r) for r in reports], session.stats, executor

    def test_warm_trace_store_skips_synthesis(self, tmp_path, sod_log,
                                              monkeypatch):
        traces = tmp_path / "traces"
        cold_prints, cold_stats, cold_ex = self._run(
            sod_log, tmp_path, "replays-cold", traces, monkeypatch)
        assert cold_stats.synthesis_count > 0
        # the pool path ships references, never arrays
        assert cold_ex.traces_pickled_bytes == 0
        assert cold_ex.traces_mapped_bytes > 0
        assert cold_ex.fallbacks == 0

        # a *fresh* replay store over the warm trace store: every replay
        # runs again, but synthesis is gone — the bundles map from disk
        warm_prints, warm_stats, warm_ex = self._run(
            sod_log, tmp_path, "replays-warm", traces, monkeypatch)
        assert warm_stats.synthesis_count == 0
        assert warm_stats.trace_store_hits > 0
        assert warm_stats.replays == cold_stats.replays
        assert warm_ex.traces_pickled_bytes == 0
        assert warm_prints == cold_prints

        # and both are bit-identical to the serial, disabled reference
        ref = [_fingerprint(r) for r in run_batch(
            _batch_pipelines(sod_log, ReplaySession.disabled()))]
        assert cold_prints == ref

    def test_pool_sweep_ships_references(self, tmp_path, sod_log,
                                         monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_JOBS", "2")
        session = ReplaySession(store_dir=str(tmp_path / "replays"))
        try:
            pipe = PerformancePipeline(sod_log, FUJITSU, session=session)
            pipe.run_geometries(_SWEEP)
            executor = session._executor
        finally:
            session.close()
        assert executor.fallbacks == 0
        assert executor.traces_pickled_bytes == 0
        assert executor.traces_mapped_bytes > 0

    def test_trace_cache_off_disables_the_tier(self, tmp_path, sod_log,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        monkeypatch.setenv("REPRO_REPLAY_JOBS", "1")
        session = ReplaySession(store_dir=str(tmp_path / "replays"))
        try:
            run_batch(_batch_pipelines(sod_log, session))
        finally:
            session.close()
        # the persistent tier is off (nothing written anywhere), though
        # the in-session bundle memory cache still dedupes synthesis
        assert session.trace_store is None
        assert not (tmp_path / "replays" / "traces").exists()


class TestBatchErrors:
    """A batch replay error propagates the way ``run()``'s does: no
    pipeline reruns on its own, and every launched process has exited."""

    def test_replay_error_propagates(self, sod_log):
        session = ReplaySession(persist=False)
        calls = []

        def broken(requests, *, executor=None):
            calls.append(len(requests))
            raise RuntimeError("batch replay failed")

        session._replay_batch = broken
        pipes = _batch_pipelines(sod_log, session)
        try:
            with pytest.raises(RuntimeError, match="batch replay failed"):
                run_batch(pipes)
        finally:
            session.close()
        assert calls == [len(pipes)]
        for pipe in pipes:
            assert pipe.kernel.address_spaces == []
            assert pipe.kernel.pool().allocated == 0


class TestLifecycle:
    """Worker pools must not outlive the scope that forked them."""

    def _session_with_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_JOBS", "2")
        session = ReplaySession(persist=False)
        executor = session._executor_for_batch()
        executor._ensure_pool()
        assert executor._pool is not None
        return session, executor

    def test_session_scope_close_shuts_the_pool(self, monkeypatch):
        session, executor = self._session_with_pool(monkeypatch)
        with session_scope(session, close=True):
            pass
        assert executor._pool is None

    def test_session_scope_default_keeps_the_pool(self, monkeypatch):
        session, executor = self._session_with_pool(monkeypatch)
        try:
            with session_scope(session):
                pass
            assert executor._pool is not None
        finally:
            session.close()

    def test_session_context_manager_closes(self, monkeypatch):
        session, executor = self._session_with_pool(monkeypatch)
        with session:
            pass
        assert executor._pool is None

    def test_close_is_idempotent_and_nonfinal(self, sod_log):
        session = ReplaySession(persist=False)
        session.close()
        session.close()
        # non-final: the next batch lazily re-creates the executor
        report = PerformancePipeline(sod_log, FUJITSU, session=session).run()
        assert report.n_steps > 0
        session.close()


class TestRacingWriters:
    """Concurrent sessions over one store: atomic renames mean the last
    writer wins a whole entry, never a torn one."""

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork to inherit the worklog without pickling")
    def test_racing_writers_leave_store_consistent(self, tmp_path, sod_log):
        store = str(tmp_path / "store")
        ctx = multiprocessing.get_context("fork")

        def worker():
            session = ReplaySession(store_dir=store)
            PerformancePipeline(sod_log, FUJITSU, session=session).run()

        procs = [ctx.Process(target=worker) for _ in range(3)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=300)
        assert all(p.exitcode == 0 for p in procs)

        # a warm reader must find a fully consistent store: zero new
        # replays, and results bit-identical to the disabled reference
        ref = PerformancePipeline(
            sod_log, FUJITSU, session=ReplaySession.disabled()).run()
        warm = ReplaySession(store_dir=store)
        via = PerformancePipeline(sod_log, FUJITSU, session=warm).run()
        assert _fingerprint(via) == _fingerprint(ref)
        assert warm.stats.replays == 0
        assert warm.stats.disk_hits > 0
