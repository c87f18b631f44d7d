"""The shared-trace replay session.

The session is a pure accelerator: any pipeline run through a sharing
(and persisting) session must be bit-identical to the same run through a
disabled session — the per-config behaviour the seed shipped — on both
replay engines, under any configuration draw, cold store or warm.
"""

import pickle
from dataclasses import replace

import pytest

from repro.experiments.workloads import (
    eos_problem_worklog,
    hydro_problem_worklog,
    sod_problem_worklog,
)
from repro.hw.a64fx import A64FX, XEON_E5_2683V3
from repro.perfmodel.pipeline import PerformancePipeline
from repro.perfmodel.session import ReplaySession
from repro.toolchain.compiler import ARM, CRAY, FUJITSU, GNU
from repro.util import artifacts


@pytest.fixture(scope="module")
def sod_log():
    return sod_problem_worklog(quick=True)


@pytest.fixture(scope="module")
def eos_log():
    return eos_problem_worklog(quick=True)


@pytest.fixture(scope="module")
def hydro_log():
    return hydro_problem_worklog(quick=True)


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


def _run(log, compiler, session, **kwargs):
    return PerformancePipeline(log, compiler, session=session, **kwargs).run()


class TestSessionEquivalence:
    """Shared-session results == per-config results, bit for bit."""

    def test_randomised_draws(self, sod_log):
        """Property test: random (compiler, flags, machine, replication,
        engine) draws, each run both ways through ONE shared session —
        so later draws exercise reuse against earlier ones."""
        import random

        rng = random.Random(20260805)
        shared = ReplaySession(persist=False)
        compilers = (GNU, CRAY, ARM, FUJITSU)
        machines = (A64FX, XEON_E5_2683V3)
        for _ in range(8):
            compiler = rng.choice(compilers)
            flags = (("-Knolargepage",) if compiler is FUJITSU
                     and rng.random() < 0.5 else ())
            kwargs = dict(flags=flags,
                          machine=rng.choice(machines),
                          replication=rng.randint(1, 3),
                          engine=rng.choice(("fast", "scalar")))
            ref = _run(sod_log, compiler, ReplaySession.disabled(), **kwargs)
            via = _run(sod_log, compiler, shared, **kwargs)
            assert _fingerprint(via) == _fingerprint(ref), kwargs
        assert shared.stats.configs == 8
        # the glibc compilers share layouts: some draw must have reused a
        # config, a trace bundle, or a fine trace from an earlier one
        reused = (shared.stats.memory_hits + shared.stats.disk_hits
                  + shared.stats.trace_hits)
        assert shared.stats.replays < 8 or reused > 0

    @pytest.mark.parametrize("engine", ["fast", "scalar"])
    def test_paper_workloads(self, eos_log, hydro_log, engine):
        shared = ReplaySession(persist=False)
        for log in (eos_log, hydro_log):
            kwargs = dict(replication=2, engine=engine)
            ref = _run(log, FUJITSU, ReplaySession.disabled(), **kwargs)
            via = _run(log, FUJITSU, shared, **kwargs)
            assert _fingerprint(via) == _fingerprint(ref)

    def test_fine_dedup_within_config(self, hydro_log):
        """The 3-d hydro step repeats identical sweeps; their fine traces
        must deduplicate without changing a single counter."""
        shared = ReplaySession(persist=False)
        kwargs = dict(replication=2, engine="fast")
        ref = _run(hydro_log, FUJITSU, ReplaySession.disabled(), **kwargs)
        via = _run(hydro_log, FUJITSU, shared, **kwargs)
        assert shared.stats.fine_deduped > 0
        assert _fingerprint(via) == _fingerprint(ref)


#: three distinct L1 DTLB sizes: every sweep point misses every other's
#: cache entries
SWEEP = [replace(A64FX.tlb, l1=replace(A64FX.tlb.l1, entries=e, assoc=e))
         for e in (8, 16, 64)]


def _sweep(log, session, engine):
    return PerformancePipeline(log, FUJITSU, engine=engine,
                               session=session).run_geometries(SWEEP)


def _single(log, session, engine, geometry):
    return _run(log, FUJITSU, session, engine=engine,
                machine=replace(A64FX, tlb=geometry))


@pytest.mark.parametrize("engine", ["fast", "scalar"])
class TestSweepContract:
    """A geometry sweep is a one-request batch: per-geometry results,
    counters and cache keys are those of single-geometry runs."""

    def test_sweep_equals_single_runs(self, sod_log, engine):
        sweep = _sweep(sod_log, ReplaySession(persist=False), engine)
        for geometry, report in zip(SWEEP, sweep):
            single = _single(sod_log, ReplaySession.disabled(), engine,
                             geometry)
            assert _fingerprint(report) == _fingerprint(single)

    def test_counters_cold_repeat_and_disk(self, tmp_path, sod_log, engine):
        cold = ReplaySession(store_dir=tmp_path)
        _sweep(sod_log, cold, engine)
        stats = cold.stats
        assert (stats.configs, stats.replays, stats.synthesis_count,
                stats.trace_store_hits) == (3, 3, 1, 0)

        _sweep(sod_log, cold, engine)
        assert (stats.configs, stats.replays, stats.memory_hits,
                stats.synthesis_count) == (6, 3, 3, 1)

        fresh = ReplaySession(store_dir=tmp_path)
        _sweep(sod_log, fresh, engine)
        assert (fresh.stats.disk_hits, fresh.stats.replays,
                fresh.stats.synthesis_count) == (3, 0, 0)

    def test_sweep_warms_single_runs(self, tmp_path, sod_log, engine):
        sweep = _sweep(sod_log, ReplaySession(store_dir=tmp_path), engine)
        warm = ReplaySession(store_dir=tmp_path)
        for geometry, report in zip(SWEEP, sweep):
            single = _single(sod_log, warm, engine, geometry)
            assert _fingerprint(single) == _fingerprint(report)
        assert (warm.stats.disk_hits, warm.stats.replays) == (3, 0)

    def test_single_runs_warm_sweep(self, tmp_path, sod_log, engine):
        cold = ReplaySession(store_dir=tmp_path)
        singles = [_single(sod_log, cold, engine, g) for g in SWEEP]
        warm = ReplaySession(store_dir=tmp_path)
        sweep = _sweep(sod_log, warm, engine)
        assert ([_fingerprint(r) for r in sweep]
                == [_fingerprint(r) for r in singles])
        assert (warm.stats.disk_hits, warm.stats.replays,
                warm.stats.synthesis_count) == (3, 0, 0)

    def test_disabled_sweep_synthesizes_once(self, sod_log, engine):
        session = ReplaySession.disabled()
        _sweep(sod_log, session, engine)
        assert (session.stats.configs, session.stats.replays,
                session.stats.synthesis_count) == (3, 3, 1)


class TestPersistence:
    """Cold vs warm store invariance, and corruption recovery."""

    def test_cold_then_warm_identical(self, tmp_path, sod_log):
        kwargs = dict(replication=2, engine="fast")
        cold = ReplaySession(store_dir=tmp_path)
        first = _run(sod_log, FUJITSU, cold, **kwargs)
        assert cold.stats.replays == 1

        warm = ReplaySession(store_dir=tmp_path)
        second = _run(sod_log, FUJITSU, warm, **kwargs)
        assert warm.stats.replays == 0
        assert warm.stats.disk_hits == 1
        assert _fingerprint(second) == _fingerprint(first)

    def test_corrupted_store_quarantined_and_rebuilt(self, tmp_path, sod_log):
        kwargs = dict(replication=1, engine="fast")
        ref = _run(sod_log, FUJITSU, ReplaySession(store_dir=tmp_path),
                   **kwargs)
        stored = sorted(tmp_path.glob("**/*.pkl"))
        assert stored, "the session persisted nothing"
        for path in stored:
            path.write_bytes(b"\x00not a pickle at all")

        again = ReplaySession(store_dir=tmp_path)
        out = _run(sod_log, FUJITSU, again, **kwargs)
        assert _fingerprint(out) == _fingerprint(ref)
        assert again.stats.replays == 1 and again.stats.disk_hits == 0
        assert list(tmp_path.glob("**/*.corrupt")), "corruption not quarantined"

        # the rebuild re-populated the store: a third session is warm
        third = ReplaySession(store_dir=tmp_path)
        _run(sod_log, FUJITSU, third, **kwargs)
        assert third.stats.replays == 0

    def test_unusable_store_degrades_to_memory(self, tmp_path, sod_log):
        # a store path that cannot become a directory (works for root too,
        # unlike permission bits)
        store = tmp_path / "occupied"
        store.write_text("not a directory")
        session = ReplaySession(store_dir=store)
        report = _run(sod_log, FUJITSU, session, replication=1,
                      engine="fast")
        ref = _run(sod_log, FUJITSU, ReplaySession.disabled(),
                   replication=1, engine="fast")
        assert _fingerprint(report) == _fingerprint(ref)
        assert not session.persist  # degraded, not crashed


class TestMemo:
    def test_memo_roundtrip_and_validation(self, tmp_path):
        calls = []

        def build():
            calls.append(1)
            return {"answer": 42}

        s1 = ReplaySession(store_dir=tmp_path)
        assert s1.memo("demo", ("a", 1), build) == {"answer": 42}
        assert s1.memo("demo", ("a", 1), build) == {"answer": 42}
        assert len(calls) == 1 and s1.stats.memo_hits == 1

        s2 = ReplaySession(store_dir=tmp_path)
        assert s2.memo("demo", ("a", 1), build) == {"answer": 42}
        assert len(calls) == 1  # served from disk

        # a validator that rejects the stored value forces a rebuild
        s3 = ReplaySession(store_dir=tmp_path)
        assert s3.memo("demo", ("a", 1), build,
                       validate=lambda v: False) == {"answer": 42}
        assert len(calls) == 2

        # different key parts are different memos
        assert s1.memo("demo", ("a", 2), build) == {"answer": 42}
        assert len(calls) == 3

    def test_disabled_session_always_builds(self):
        calls = []
        s = ReplaySession.disabled()
        s.memo("demo", (), lambda: calls.append(1))
        s.memo("demo", (), lambda: calls.append(1))
        assert len(calls) == 2


class TestWorkLogDigest:
    def test_deterministic_and_pickle_stable(self, sod_log):
        clone = pickle.loads(pickle.dumps(sod_log))
        assert clone.digest() == sod_log.digest()
        assert len(sod_log.digest()) == 64

    def test_sensitive_to_recorded_work(self, sod_log):
        reference = sod_log.digest()

        clone = pickle.loads(pickle.dumps(sod_log))
        clone.steps[0].dt *= 2.0
        assert clone.digest() != reference

        clone = pickle.loads(pickle.dumps(sod_log))
        inv = clone.steps[0].invocations
        clone.steps[0].invocations = (
            replace(inv[0], zones=inv[0].zones + 1), *inv[1:])
        assert clone.digest() != reference

        clone = pickle.loads(pickle.dumps(sod_log))
        clone.steps[0].slots = clone.steps[0].slots[:-1]
        clone.steps[0].levels = clone.steps[0].levels[:-1]
        assert clone.digest() != reference

    def test_distinct_workloads_distinct_digests(self, sod_log, eos_log,
                                                 hydro_log):
        digests = {log.digest() for log in (sod_log, eos_log, hydro_log)}
        assert len(digests) == 3


class TestWorklogCacheValidation:
    def test_digest_mismatch_quarantines_and_rebuilds(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        log = sod_problem_worklog(quick=True)
        path = tmp_path / "repro" / "worklogs" / "sod_problem_5.pkl"
        assert path.exists()

        # a well-formed envelope whose digest no longer matches its log
        # (schema drift that survives unpickling) must not be served
        from repro.experiments.workloads import _CACHE_VERSION
        artifacts.save_pickle(path, {"log": log, "digest": "0" * 64},
                              version=_CACHE_VERSION)
        rebuilt = sod_problem_worklog(quick=True)
        assert rebuilt.digest() == log.digest()
        assert list(path.parent.glob("*.corrupt"))
