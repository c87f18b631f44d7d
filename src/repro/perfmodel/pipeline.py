"""The performance pipeline: replay a WorkLog on a simulated Ookami node.

``PerformancePipeline.run()`` performs the full measurement the paper
describes: launch the (compiled) executable on the simulated kernel,
allocate FLASH's data structures through the toolchain's allocator (this
is where huge pages do or do not happen), first-touch them the way the
code does, synthesise the memory traces of a steady-state step, replay
them through the A64FX TLB model, price all recorded work with the cycle
model, and report the paper's measures per instrumented region plus the
whole-run FLASH timer.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from repro.core import load_all, parameter_registry, unit_registry
from repro.hw import calibration as cal
from repro.hw.a64fx import A64FX, MachineSpec
from repro.hw.cache import CacheModel
from repro.hw.cpu import CycleModel, WorkCounts
from repro.hw.tlb import TLBStats
from repro.kernel.meminfo import hugepages_in_use, meminfo
from repro.kernel.params import ookami_config
from repro.kernel.vmm import Kernel
from repro.mesh.layout import UnkLayout
from repro.papi.counters import CounterBank
from repro.papi.events import Event, derive_measures
from repro.perfmodel.fastpath import FastTraceBuilder
from repro.perfmodel.patterns import TraceBuilder
from repro.perfmodel.session import (
    TRACE_SCHEMA,
    ReplayRequest,
    ReplaySession,
    default_session,
    geometry_digest,
)
from repro.perfmodel.workrecord import UnitInvocation, WorkLog
from repro.toolchain.compiler import Compiler
from repro.util.errors import ConfigurationError


def _layout_signature(space, allocations) -> str:
    """Digest of everything ``translate`` can see for these allocations.

    Two processes whose allocations land at the same virtual addresses
    with the same backing (base pages, hugetlbfs size, THP extents)
    translate identically — so configurations sharing a signature share
    page traces.  All base-page toolchains (GNU, Cray, Arm, Fujitsu
    ``-Knolargepage``) produce one signature per (workload, replication).
    """
    geo = space.kernel.config.geometry
    h = hashlib.sha256()
    h.update(struct.pack("<2q", geo.base_page, geo.thp_page))
    for alloc in allocations:
        vma = alloc.vma
        h.update(struct.pack("<4q", vma.start, alloc.offset, alloc.nbytes,
                             vma.hugetlb_size or 0))
        if vma.hugetlb_size is None:
            # THP extents change page sizes mid-VMA; the bitmap is tiny
            # (one flag per 512 MiB extent) and captures it exactly
            h.update(vma._ext_thp.tobytes())
    return h.hexdigest()[:40]


@dataclass
class SynthesisTask:
    """Picklable trace synthesis for one launched configuration.

    Replaces the old nested closure so synthesis itself can travel to a
    pool worker as a ``"synth"`` work unit: every field is a plain
    simulated-process object (address space, allocations, workload log —
    no live handles).  Calling the task is deterministic — the builder
    seeds its RNG from ``seed`` — and geometry-independent: traces
    depend on the address-space layout and the sampling parameters,
    never on the TLB, which is what lets a geometry sweep (and the
    trace store) share one synthesis.
    """

    engine: str
    space: object
    layout: object
    unk: object
    scratch: list
    eos_table: object
    flame_table: object
    flux_scratch: object
    log: object
    replication: int
    fine_sample_blocks: int
    seed: int
    fine_kinds: tuple

    #: marks the task safe to ship to a pool worker (the session checks
    #: this duck-typed flag before scheduling synthesis work units)
    picklable = True

    def __call__(self):
        rep = self.log.representative_step()
        builder_cls = (FastTraceBuilder if self.engine == "fast"
                       else TraceBuilder)
        builder = builder_cls(
            space=self.space, layout=self.layout, unk=self.unk,
            scratch=self.scratch, eos_table=self.eos_table,
            flame_table=self.flame_table, log=self.log,
            flux_scratch=self.flux_scratch,
            replication=self.replication,
            fine_sample_blocks=self.fine_sample_blocks, seed=self.seed,
        )
        stream_traces = [builder.invocation_stream_trace(rep, inv)
                         for inv in rep.invocations]
        fine_traces = []
        for i, inv in enumerate(rep.invocations):
            if inv.unit in self.fine_kinds:
                trace, scale = builder.fine_unit_trace(rep, inv)
                fine_traces.append((i, trace, scale))
        return stream_traces, fine_traces


def resolve_engine(engine: str | None = None, params=None) -> str:
    """Pick the replay engine.  Precedence, highest first:

    1. an explicit ``PerformancePipeline(engine=...)`` argument,
    2. the ``REPRO_PERF_ENGINE`` environment variable,
    3. the ``perf_engine`` runtime parameter (a par file via ``params``,
       else the perfmodel unit's registered default).

    Both engines produce bit-identical counter totals (the fast engine is
    property-tested against the scalar oracle); ``scalar`` exists as the
    auditable reference.  An invalid name at any level raises
    :class:`~repro.util.errors.ConfigurationError`."""
    load_all()
    spec = parameter_registry.spec("perf_engine")
    value = (engine
             or os.environ.get("REPRO_PERF_ENGINE")
             or (params.get("perf_engine") if params is not None else None)
             or str(spec.default))
    if value not in spec.choices:
        expected = " or ".join(repr(c) for c in spec.choices)
        raise ConfigurationError(
            f"unknown perf engine {value!r} (expected {expected})")
    return value


@dataclass
class UnitTotals:
    """Accumulated work + misses for one unit across the whole run."""

    work: WorkCounts = field(default_factory=WorkCounts)
    tlb: TLBStats = field(default_factory=TLBStats)


@dataclass
class PerfReport:
    """Everything the experiment harness needs to print a paper table."""

    units: dict[str, UnitTotals]
    seconds: dict[str, float]
    flash_timer_s: float
    uses_huge_pages: bool
    meminfo: dict[str, int]
    machine: MachineSpec
    compiler: str
    n_steps: int
    #: replay engine that produced the totals ("" for reports built by
    #: legacy callers)
    engine: str = ""
    #: kernel degradation counts at report time (hugetlb base-page
    #: fallbacks, ...), kind -> count
    degradations: dict[str, int] = field(default_factory=dict)

    @cached_property
    def cycle_model(self) -> CycleModel:
        """The machine's cycle model, built once per report — ``region``
        and ``as_counterbank`` run once per table cell per measure."""
        return CycleModel(self.machine)

    def region(self, unit_names: tuple[str, ...] | str) -> dict[str, float]:
        """The paper's five measures for an instrumented region."""
        if isinstance(unit_names, str):
            unit_names = (unit_names,)
        work = WorkCounts()
        tlb = TLBStats()
        for name in unit_names:
            if name in self.units:
                work = work + self.units[name].work
                tlb = tlb + self.units[name].tlb
        return self.cycle_model.measures(work, tlb)

    def as_counterbank(self) -> CounterBank:
        """Mirror the totals into a PAPI counter bank (for EventSet use)."""
        bank = CounterBank()
        model = self.cycle_model
        for name, tot in self.units.items():
            breakdown = model.cycles(tot.work, tot.tlb)
            bank.advance(self.seconds[name], {
                Event.TOT_CYC: breakdown.total,
                Event.TLB_DM: tot.tlb.l1_misses,
                Event.SVE_INST: tot.work.simd_ops,
                Event.MEM_BYTES: tot.work.dram_bytes,
                Event.FP_OPS: tot.work.scalar_ops,
            })
        return bank


class PerformancePipeline:
    """Replay a WorkLog under one (compiler, kernel, machine) combination."""

    def __init__(
        self,
        log: WorkLog,
        compiler: Compiler,
        *,
        flags: tuple[str, ...] = (),
        env: dict[str, str] | None = None,
        kernel: Kernel | None = None,
        machine: MachineSpec = A64FX,
        replication: int = 1,
        fine_sample_blocks: int = 4,
        seed: int = 1234,
        engine: str | None = None,
        params=None,
        session: ReplaySession | None = None,
        rank_signature: str = "",
    ) -> None:
        load_all()
        #: invocation kind -> (work model, vectorisation key) and the set
        #: of kinds that get a fine (zone-resolution) TLB pass — both
        #: derived from the unit declarations, not hard-coded here
        self._models = unit_registry.work_models()
        self._fine_kinds = unit_registry.fine_work_kinds()
        self.log = log
        self.compiler = compiler
        self.flags = flags
        self.env = env
        self.kernel = kernel or Kernel(ookami_config())
        self.machine = machine
        self.replication = replication
        self.fine_sample_blocks = fine_sample_blocks
        self.seed = seed
        self.engine = resolve_engine(engine, params=params)
        #: replay sharing/caching layer; every unparameterised pipeline
        #: joins the process-wide default session
        self.session = session if session is not None else default_session()
        #: rank-decomposition tag (e.g. ``"rank2/4@rpn2"``): per-rank
        #: WorkLogs usually differ (and so do their digests), but a
        #: decomposed run must never be served a cached replay from a
        #: different rank layout even when shard contents coincide — the
        #: tag is folded into the replay config key when set
        self.rank_signature = rank_signature

    # --- setup: the allocation story -------------------------------------------------
    def _launch_and_allocate(self):
        exe = self.compiler.compile("flash4", flags=self.flags)
        proc = exe.launch(self.kernel, env=self.env)
        spec_virtual = replace(self.log.spec,
                               maxblocks=self.log.maxblocks * self.replication)
        layout = UnkLayout(nvar=self.log.nvar, spec=spec_virtual)

        unk = proc.allocate(layout.nbytes, "unk")
        scratch = [proc.allocate(cal.SCRATCH_ARRAY_BYTES, f"scratch{i:02d}")
                   for i in range(cal.N_SCRATCH_ARRAYS)]
        eos_table = proc.allocate(cal.FLASH_HELM_TABLE_BYTES, "helm_table")
        flame_table = proc.allocate(cal.FLASH_FLAME_TABLE_BYTES, "flame_table")
        # PARAMESH's block-sized flux arrays (~half of unk's variables)
        flux_scratch = proc.allocate(max(layout.block_bytes // 2, 1 << 16),
                                     "flux_scratch")

        # first touch the way the code does: PARAMESH initialises unk
        # variable by variable (strided); tables are read in sequentially
        proc.first_touch("unk", order="strided", stride=2 << 20)
        for i in range(cal.N_SCRATCH_ARRAYS):
            proc.first_touch(f"scratch{i:02d}")
        proc.first_touch("helm_table")
        proc.first_touch("flame_table")
        proc.first_touch("flux_scratch")
        return proc, layout, unk, scratch, eos_table, flame_table, flux_scratch

    # --- work pricing ------------------------------------------------------------------
    def _invocation_work(self, inv: UnitInvocation) -> WorkCounts:
        model, vf_key = self._models[inv.unit]
        zones = inv.zones * self.replication
        flops = model.flops_per_zone * zones
        if inv.unit == "eos":
            iters_per_zone = inv.newton_iterations / max(inv.zones, 1)
            flops += cal.EOS_FLOPS_PER_ITERATION * iters_per_zone * zones
        vf = self.compiler.perf.unit_vector_fraction(vf_key)
        scalar = flops * (1.0 - vf) * self.compiler.perf.scalar_multiplier
        simd = flops * vf / self.compiler.perf.sve_lane_efficiency

        cache = CacheModel(cache_bytes=self.machine.l2_bytes)
        dram = model.unk_bytes_per_zone * zones
        if inv.unit == "eos":
            iters = inv.newton_iterations / max(inv.zones, 1)
            dram += cal.EOS_BYTES_PER_ITERATION * iters * zones
            n_gathers = zones * (model.gathers_per_zone
                                 + cal.EOS_GATHERS_PER_ITERATION * iters)
            hot = int(cal.TABLE_HOT_FRACTION * cal.FLASH_HELM_TABLE_BYTES)
            dram += cache.gather_traffic(int(n_gathers), 8, hot)
        elif inv.unit == "flame":
            dram += cache.gather_traffic(int(zones * model.gathers_per_zone),
                                         8, cal.FLASH_FLAME_TABLE_BYTES)
        return WorkCounts(scalar_ops=scalar, simd_ops=simd, dram_bytes=dram)

    # --- the run ---------------------------------------------------------------------------
    def run(self) -> PerfReport:
        """Launch, replay through the session, and price the answer.

        The launched process exits whatever happens; a replay error
        propagates — both engines are deterministic, so an exception is
        a bug to see, not a run to repeat on the scalar oracle.
        """
        ctx = self._launch_and_allocate()
        try:
            request = self._request(ctx, [self.machine])
            (config_key, geometry), = request.pairs
            replay = self.session.replay(config_key=config_key,
                                         geometry=geometry,
                                         engine=self.engine,
                                         synthesize=request.synthesize,
                                         trace_key=request.trace_key)
            return self._finish(self.machine, ctx[0], replay)
        finally:
            ctx[0].exit()

    def _config_key(self, machine, proc, allocations) -> str:
        # the replay is a pure function of these inputs; anything else
        # (compiler pricing, machine frequency, THP statistics) is applied
        # after the session answers.  The rank signature joins only when
        # set so serial (n_ranks=1) keys are bit-stable across releases.
        parts = (
            str(TRACE_SCHEMA), self.log.digest(),
            _layout_signature(proc.space, allocations),
            geometry_digest(machine.tlb), self.engine,
            str(self.seed), str(self.replication),
            str(self.fine_sample_blocks),
            ",".join(sorted(self._fine_kinds)),
        )
        if self.rank_signature:
            parts = parts + (self.rank_signature,)
        return hashlib.sha256("/".join(parts).encode()).hexdigest()[:40]

    def _trace_key(self, proc, allocations) -> str:
        # the synthesis inputs only: geometry never shapes a trace, and
        # the two builders are property-tested RNG-lockstep identical,
        # so the engine is deliberately excluded — a warm trace store
        # serves a new geometry *and* a new engine without synthesis
        parts = (
            "trace", str(TRACE_SCHEMA), self.log.digest(),
            _layout_signature(proc.space, allocations),
            str(self.seed), str(self.replication),
            str(self.fine_sample_blocks),
            ",".join(sorted(self._fine_kinds)),
        )
        if self.rank_signature:
            parts = parts + (self.rank_signature,)
        return hashlib.sha256("/".join(parts).encode()).hexdigest()[:40]

    def _request(self, ctx, machines: list[MachineSpec]) -> ReplayRequest:
        """The replay request of one launched process, one ``(config
        key, geometry)`` pair per machine.  Its synthesis is a picklable
        :class:`SynthesisTask`, so the session may run it on a pool
        worker and persist the bundle in the trace store."""
        proc, layout, unk, scratch, eos_table, flame_table, flux_scratch = ctx
        allocations = [unk, *scratch, eos_table, flame_table, flux_scratch]
        return ReplayRequest(
            engine=self.engine,
            synthesize=SynthesisTask(
                engine=self.engine, space=proc.space, layout=layout,
                unk=unk, scratch=scratch, eos_table=eos_table,
                flame_table=flame_table, flux_scratch=flux_scratch,
                log=self.log, replication=self.replication,
                fine_sample_blocks=self.fine_sample_blocks, seed=self.seed,
                fine_kinds=tuple(sorted(self._fine_kinds))),
            pairs=[(self._config_key(m, proc, allocations), m.tlb)
                   for m in machines],
            trace_key=self._trace_key(proc, allocations),
        )

    def _finish(self, machine, proc, replay) -> PerfReport:
        """Price one session answer into a report (pure post-processing)."""
        rep = self.log.representative_step()
        stream_stats = replay.stream
        fine_stats = [TLBStats() for _ in rep.invocations]
        for i, raw, scale in replay.fine:
            fine_stats[i] = raw.scaled(scale)

        # --- accumulate per unit over the whole run, scaling the
        # representative step's misses by each unit's total zone count
        units: dict[str, UnitTotals] = {}
        rep_zone = {i: inv.zones for i, inv in enumerate(rep.invocations)}
        per_step_tlb: dict[str, TLBStats] = {}
        for i, inv in enumerate(rep.invocations):
            tot = per_step_tlb.setdefault(inv.unit, TLBStats())
            per_step_tlb[inv.unit] = tot + stream_stats[i] + fine_stats[i]
        rep_unit_zones: dict[str, int] = {}
        for inv in rep.invocations:
            rep_unit_zones[inv.unit] = rep_unit_zones.get(inv.unit, 0) + inv.zones

        for rec in self.log.steps:
            for inv in rec.invocations:
                totals = units.setdefault(inv.unit, UnitTotals())
                totals.work = totals.work + self._invocation_work(inv)
        for unit, totals in units.items():
            total_zones = self.log.total_zone_updates(unit)
            scale = total_zones / max(rep_unit_zones.get(unit, total_zones), 1)
            totals.tlb = per_step_tlb.get(unit, TLBStats()).scaled(scale)

        # --- price everything
        model = CycleModel(machine)
        seconds = {}
        for unit, totals in units.items():
            seconds[unit] = model.seconds(model.cycles(totals.work, totals.tlb))
        flash_timer = sum(seconds.values()) * (1.0 + cal.DRIVER_OVERHEAD_FRACTION)

        return PerfReport(
            units=units,
            seconds=seconds,
            flash_timer_s=flash_timer,
            uses_huge_pages=proc.uses_huge_pages(),
            meminfo=meminfo(self.kernel),
            machine=machine,
            compiler=self.compiler.name,
            n_steps=self.log.n_steps,
            engine=self.engine,
            degradations=dict(self.kernel.degradations.counts),
        )

    # --- geometry sweeps -------------------------------------------------
    def run_geometries(self, geometries) -> list[PerfReport]:
        """Replay this configuration under many TLB geometries at once.

        One launch and one request to :meth:`ReplaySession.replay_sweep`:
        one trace synthesis and one batched kernel pass for the whole
        sweep.  Each report is priced against ``self.machine`` with its
        TLB swapped for the sweep point — bit-identical to constructing
        one pipeline per geometry, at a fraction of the cost.
        """
        machines = [replace(self.machine, tlb=geo) for geo in geometries]
        ctx = self._launch_and_allocate()
        try:
            request = self._request(ctx, machines)
            replays = self.session.replay_sweep(
                config_keys=[key for key, _ in request.pairs],
                geometries=[geo for _, geo in request.pairs],
                engine=self.engine, synthesize=request.synthesize,
                trace_key=request.trace_key)
            return [self._finish(m, ctx[0], r)
                    for m, r in zip(machines, replays)]
        finally:
            ctx[0].exit()


def run_batch(pipelines) -> list[PerfReport]:
    """Run many pipelines, answering their replays as one session batch.

    Each pipeline launches and allocates exactly as :meth:`\
PerformancePipeline.run` would; the replay requests are then handed to
    :meth:`ReplaySession.replay_batch` per shared session, which dedupes
    the work units across the whole batch and may execute them on worker
    processes (``REPRO_REPLAY_JOBS``).  Results are bit-identical to
    running the pipelines one by one — the batch only reorders *where*
    the pure replay kernels run.  A replay error propagates, as it does
    from :meth:`~PerformancePipeline.run`, after every launched process
    has exited.
    """
    pipelines = list(pipelines)
    reports: list[PerfReport | None] = [None] * len(pipelines)
    by_session: dict[int, list[int]] = {}
    for i, pipe in enumerate(pipelines):
        by_session.setdefault(id(pipe.session), []).append(i)
    for idxs in by_session.values():
        session = pipelines[idxs[0]].session
        ctxs = []
        try:
            requests = []
            for i in idxs:
                pipe = pipelines[i]
                ctxs.append(pipe._launch_and_allocate())
                requests.append(pipe._request(ctxs[-1], [pipe.machine]))
            replays = session.replay_batch(requests)
            for i, ctx, (replay,) in zip(idxs, ctxs, replays):
                pipe = pipelines[i]
                reports[i] = pipe._finish(pipe.machine, ctx[0], replay)
        finally:
            for ctx in ctxs:
                ctx[0].exit()
    return reports  # type: ignore[return-value]


__all__ = ["PerformancePipeline", "PerfReport", "SynthesisTask",
           "UnitTotals", "resolve_engine", "run_batch"]
