"""The fast replay engine against the scalar oracle.

Three layers of the equivalence contract:

* the batch TLB kernels (``lru_miss_mask``, ``run_segments``,
  ``run_steady_segments``) against the per-access ``TLBSimulator`` on
  randomized traces, across geometries and with every bucketing
  strategy forced;
* ``FastTraceBuilder`` against ``TraceBuilder``, element for element,
  for every unit kind;
* whole-pipeline replays under both engines, asserting bit-identical
  counter totals.
"""

import numpy as np
import pytest

import repro.hw.tlb as tlb_mod
from repro.driver.config import RuntimeParameters
from repro.driver.simulation import Simulation
from repro.hw.a64fx import A64FX, TLBGeometry, TLBLevelSpec
from repro.hw.tlb import (TLBSimulator, lru_miss_mask, run_segments,
                          run_steady_segments)
from repro.hw.trace import PageTrace
from repro.mesh.grid import Grid, MeshSpec
from repro.mesh.tree import AMRTree
from repro.perfmodel.fastpath import FastTraceBuilder
from repro.perfmodel.patterns import TraceBuilder
from repro.perfmodel.pipeline import PerformancePipeline, resolve_engine
from repro.perfmodel.session import ReplaySession
from repro.perfmodel.workrecord import UnitInvocation, WorkLog
from repro.physics.eos import GammaLawEOS
from repro.util.errors import ConfigurationError
from repro.physics.hydro.unit import HydroUnit
from repro.setups.sod import SodProblem
from repro.toolchain.compiler import FUJITSU, GNU

BASE = 65536
HUGE = 2 * 1024 * 1024

#: a spread of shapes: A64FX-like, low-assoc, direct-mapped L1,
#: fully-associative L2
GEOMETRIES = [
    TLBGeometry(l1=TLBLevelSpec(16, 16, 8.0),
                l2=TLBLevelSpec(1024, 4, 30.0), walk_cycles=300.0),
    TLBGeometry(l1=TLBLevelSpec(64, 4, 8.0),
                l2=TLBLevelSpec(1024, 8, 30.0), walk_cycles=300.0),
    TLBGeometry(l1=TLBLevelSpec(8, 1, 8.0),
                l2=TLBLevelSpec(64, 64, 30.0), walk_cycles=300.0),
    TLBGeometry(l1=TLBLevelSpec(32, 2, 8.0),
                l2=TLBLevelSpec(256, 4, 30.0), walk_cycles=300.0),
]


def random_trace(rng, n, n_pages, mixed_sizes):
    pages = rng.integers(0, n_pages, size=n)
    if rng.random() < 0.5:  # bias toward a hot working set sometimes
        hot = rng.integers(0, max(n_pages // 10, 1), size=n)
        pages = np.where(rng.random(n) < 0.7, hot, pages)
    pool = [BASE, HUGE] if mixed_sizes else [BASE]
    sizes = rng.choice(pool, size=n)
    return PageTrace.from_accesses(pages.astype(np.int64) * HUGE,
                                   sizes.astype(np.int64))


def stats_tuple(s):
    return (s.accesses, s.l1_misses, s.l2_misses)


class TestBatchKernelsVsOracle:
    @pytest.mark.parametrize("trial", range(24))
    def test_run_segments_matches_scalar(self, trial):
        rng = np.random.default_rng(100 + trial)
        geo = GEOMETRIES[trial % len(GEOMETRIES)]
        n_streams = int(rng.integers(1, 4))
        groups = [[random_trace(rng, int(rng.integers(1, 1200)),
                                int(rng.integers(2, 400)), trial % 3 != 0)
                   for _ in range(int(rng.integers(1, 4)))]
                  for _ in range(n_streams)]
        traces, streams = [], []
        for i, group in enumerate(groups):
            traces += group
            streams += [i] * len(group)
        got = run_segments(geo, traces, streams=streams)
        k = 0
        for group in groups:
            sim = TLBSimulator(geo)  # segments of one stream share state
            for trace in group:
                assert stats_tuple(got[k]) == stats_tuple(sim.run(trace))
                k += 1

    @pytest.mark.parametrize("trial", range(24))
    def test_steady_state_matches_warmed_scalar(self, trial):
        rng = np.random.default_rng(500 + trial)
        geo = GEOMETRIES[trial % len(GEOMETRIES)]
        n_streams = int(rng.integers(1, 4))
        groups = [[random_trace(rng, int(rng.integers(1, 1200)),
                                int(rng.integers(2, 400)), trial % 3 != 0)
                   for _ in range(int(rng.integers(1, 4)))]
                  for _ in range(n_streams)]
        traces, streams = [], []
        for i, group in enumerate(groups):
            traces += group
            streams += [i] * len(group)
        got = run_steady_segments(geo, traces, streams=streams)
        k = 0
        for group in groups:
            sim = TLBSimulator(geo)
            for trace in group:
                sim.run(trace)  # warm pass
            for trace in group:  # measured pass
                assert stats_tuple(got[k]) == stats_tuple(sim.run(trace))
                k += 1

    @pytest.mark.parametrize("strategy", ["matrix", "rounds", "descent"])
    def test_every_bucketing_strategy(self, strategy, monkeypatch):
        # steer _lru_core's adaptive bucketing so each strategy handles
        # the whole workload, then hold it to the oracle
        if strategy == "matrix":
            monkeypatch.setattr(tlb_mod, "_MATRIX_MAX_PAGES", 10 ** 9)
        elif strategy == "rounds":
            monkeypatch.setattr(tlb_mod, "_MATRIX_MAX_PAGES", 0)
            monkeypatch.setattr(tlb_mod, "_ROUNDS_PARALLELISM", 10 ** 9)
        else:
            monkeypatch.setattr(tlb_mod, "_MATRIX_MAX_PAGES", 0)
            monkeypatch.setattr(tlb_mod, "_ROUNDS_PARALLELISM", 0)
        rng = np.random.default_rng(42)
        for geo in GEOMETRIES:
            trace = random_trace(rng, 2500, 300, True)
            pages = np.repeat(trace.page, trace.weight)
            sizes = np.repeat(trace.size, trace.weight)
            miss = lru_miss_mask(pages, pages // sizes,
                                 geo.l1.n_sets, geo.l1.assoc)
            ref = TLBSimulator(geo).run(trace)
            assert int(miss.sum()) == ref.l1_misses
            # and through the generic two-level path
            got = run_segments(geo, [trace])[0]
            assert stats_tuple(got) == stats_tuple(ref)

    def test_single_access_and_empty(self):
        geo = GEOMETRIES[0]
        one = PageTrace.from_accesses(np.array([HUGE], dtype=np.int64),
                                      np.array([BASE], dtype=np.int64))
        got = run_segments(geo, [one])[0]
        assert stats_tuple(got) == (1, 1, 1)
        assert run_segments(geo, []) == []
        assert run_steady_segments(geo, []) == []


@pytest.fixture(scope="module")
def small_log():
    tree = AMRTree(ndim=2, nblockx=2, nblocky=2, max_level=1,
                   domain=((0, 1), (0, 1), (0, 1)))
    spec = MeshSpec(ndim=2, nxb=8, nyb=8, nzb=1, nguard=4, maxblocks=32)
    grid = Grid(tree, spec)
    eos = GammaLawEOS(gamma=1.4)
    SodProblem().initialize(grid, eos)
    sim = Simulation(grid, HydroUnit(eos, cfl=0.5), nrefs=0)
    log = WorkLog.attach(sim, helmholtz_eos=False)
    sim.evolve(nend=4)
    return log


def _builders(log, replication, cls_a, cls_b, seed=77):
    pipes = []
    for cls in (cls_a, cls_b):
        pipe = PerformancePipeline(log, FUJITSU, replication=replication,
                                   seed=seed)
        proc, layout, unk, scratch, eos_t, flame_t, flux = \
            pipe._launch_and_allocate()
        pipes.append(cls(space=proc.space, layout=layout, unk=unk,
                         scratch=scratch, eos_table=eos_t,
                         flame_table=flame_t, log=log, flux_scratch=flux,
                         replication=replication, fine_sample_blocks=4,
                         seed=seed))
    return pipes


class TestBuilderEquivalence:
    @pytest.mark.parametrize("replication", [1, 3])
    @pytest.mark.parametrize("unit", ["hydro_sweep", "eos", "eos_gamma",
                                      "guardcell", "flame", "gravity"])
    def test_stream_traces_identical(self, small_log, unit, replication):
        scalar, fast = _builders(small_log, replication,
                                 TraceBuilder, FastTraceBuilder)
        rep = small_log.representative_step()
        inv = UnitInvocation(unit=unit, zones=rep.zones_total,
                             newton_iterations=3 * rep.zones_total)
        # same invocation twice: the RNG stream must stay in lockstep too
        for _ in range(2):
            a = scalar.invocation_stream_trace(rep, inv)
            b = fast.invocation_stream_trace(rep, inv)
            assert np.array_equal(a.page, b.page)
            assert np.array_equal(a.size, b.size)
            assert np.array_equal(a.weight, b.weight)

    def test_full_step_trace_sequence_identical(self, small_log):
        scalar, fast = _builders(small_log, 2, TraceBuilder, FastTraceBuilder)
        rep = small_log.representative_step()
        for inv in rep.invocations:
            a = scalar.invocation_stream_trace(rep, inv)
            b = fast.invocation_stream_trace(rep, inv)
            assert np.array_equal(a.page, b.page)
            assert np.array_equal(a.size, b.size)
            assert np.array_equal(a.weight, b.weight)


class TestEngineEquivalence:
    @pytest.mark.parametrize("flags", [(), ("-Knolargepage",)])
    @pytest.mark.parametrize("replication", [1, 3])
    def test_counter_totals_bit_identical(self, small_log, flags,
                                          replication):
        reports = {
            engine: PerformancePipeline(small_log, FUJITSU, flags=flags,
                                        replication=replication,
                                        engine=engine).run()
            for engine in ("fast", "scalar")
        }
        banks = {k: r.as_counterbank() for k, r in reports.items()}
        assert banks["fast"].totals == banks["scalar"].totals
        assert banks["fast"].time_s == banks["scalar"].time_s
        for unit, tot in reports["scalar"].units.items():
            fast_tot = reports["fast"].units[unit]
            assert stats_tuple(fast_tot.tlb) == stats_tuple(tot.tlb)

    def test_gnu_compiler_also_identical(self, small_log):
        fast = PerformancePipeline(small_log, GNU, engine="fast").run()
        scalar = PerformancePipeline(small_log, GNU, engine="scalar").run()
        assert fast.as_counterbank().totals == scalar.as_counterbank().totals


class TestEngineSelection:
    def test_default_is_fast(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF_ENGINE", raising=False)
        assert resolve_engine() == "fast"

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_ENGINE", "scalar")
        assert resolve_engine() == "scalar"

    def test_argument_beats_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_ENGINE", "scalar")
        assert resolve_engine("fast") == "fast"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown perf engine"):
            resolve_engine("simd")

    def test_unknown_env_engine_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_ENGINE", "warp")
        with pytest.raises(ConfigurationError, match="unknown perf engine"):
            resolve_engine()

    def test_params_beat_registry_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF_ENGINE", raising=False)
        params = RuntimeParameters.from_par("perf_engine = scalar")
        assert resolve_engine(params=params) == "scalar"

    def test_env_var_beats_params(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_ENGINE", "fast")
        params = RuntimeParameters.from_par("perf_engine = scalar")
        assert resolve_engine(params=params) == "fast"

    def test_argument_beats_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_ENGINE", "scalar")
        params = RuntimeParameters.from_par("perf_engine = scalar")
        assert resolve_engine("fast", params=params) == "fast"

    def test_pipeline_accepts_engine(self, small_log):
        pipe = PerformancePipeline(small_log, GNU, engine="scalar")
        assert pipe.engine == "scalar"

    def test_clean_fast_run_records_its_engine(self, small_log):
        report = PerformancePipeline(small_log, FUJITSU, engine="fast").run()
        assert report.engine == "fast"
        assert report.degradations == {}

    def test_pipeline_accepts_params(self, small_log, monkeypatch):
        monkeypatch.delenv("REPRO_PERF_ENGINE", raising=False)
        params = RuntimeParameters.from_par("perf_engine = scalar")
        pipe = PerformancePipeline(small_log, GNU, params=params)
        assert pipe.engine == "scalar"


class TestReplayErrors:
    """Both engines are deterministic, so a replay error is a bug: it
    propagates (nothing reruns it on the scalar oracle), and the
    launched process is released either way."""

    @pytest.mark.parametrize("entry", ["run", "run_geometries"])
    @pytest.mark.parametrize("error", [
        RuntimeError("fast-path divergence"),
        ConfigurationError("bad flags"),
    ], ids=["runtime", "configuration"])
    def test_error_propagates(self, small_log, monkeypatch, entry, error):
        session = ReplaySession(persist=False)

        def broken(requests, *, executor=None):
            raise error

        monkeypatch.setattr(session, "_replay_batch", broken)
        pipe = PerformancePipeline(small_log, FUJITSU, engine="fast",
                                   session=session)
        with pytest.raises(type(error), match=str(error)):
            if entry == "run":
                pipe.run()
            else:
                pipe.run_geometries([A64FX.tlb, A64FX.tlb])
        assert pipe.kernel.pool().allocated == 0
        assert pipe.kernel.degradations.counts == {}
