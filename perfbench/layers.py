"""Wall-clock spans around the public entry points of every layer.

The traced iteration installs a wrapper on each entry point named in
``TARGETS`` before the workload runs.  A wrapper records its call, adds
any work count taken from its arguments, and -- when the target has a
time metric -- opens a span.  A span's self time (its duration minus the
spans opened inside it) is added to its time metric, so every second of
the workload's wall is charged to exactly one layer; what no layer
claims stays with the workload's root span and is reported as
``unattributed_s``.

Names bound with ``from module import name`` are separate references to
the same function object, so installing a wrapper also rebinds every
module attribute in ``sys.modules`` that holds the original.  Targets
that still record no call on the workload where they do most of their
work are reported by :meth:`Tracer.coverage_failures`.

Spans nest on one stack, so a child span ends inside its parent only
while every wrapped call runs on the thread that runs the pass.  The
replay is serial at program defaults; a wrapped call from any other
thread is left untimed and reported as a coverage failure, since its
time would be charged to whatever span the pass's thread has open.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _array_size(_self, dens, *args, **kwargs) -> int:
    import numpy as np
    return int(np.size(dens))


def _trace_events(_geometry, traces, *args, **kwargs) -> int:
    return sum(int(t.n_events) for t in traces)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point and the metrics it feeds."""

    #: ``module:qualname`` of the entry point
    where: str
    #: self-time metric (seconds); ``None`` counts calls without a span
    time: str | None = None
    #: metric counting calls
    calls: str | None = None
    #: metric summing ``count(*args, **kwargs)`` over calls
    count: str | None = None
    counter: Callable[..., int] | None = None
    #: workload on which the target must record at least one call: a
    #: declared workload that runs it, where there is one
    home: str | None = None


_EOS = "repro.physics.eos"
_PERF = "repro.perfmodel"
_EXP = "repro.experiments"

TARGETS: tuple[Target, ...] = (
    # physics units and the mesh
    Target("repro.physics.hydro.sweep:sweep_blocks",
           "physics.hydro.sweep_s", "physics.hydro.sweep_calls",
           home="supernova2d"),
    Target("repro.physics.hydro.unit:HydroUnit.timestep",
           "physics.hydro.timestep_s", home="supernova2d"),
    Target("repro.mesh.guardcell:fill_guardcells",
           "mesh.guardcell.fill_s", "mesh.guardcell.fill_calls",
           home="supernova2d"),
    Target("repro.mesh.refine:refine_pass", "mesh.refine.refine_s",
           home="supernova2d"),
    Target(f"{_EOS}.apply:apply_eos", "physics.eos.eos_s", home="supernova2d"),
    Target(f"{_EOS}.gamma:GammaLawEOS.eos_de", "physics.eos.eos_s",
           home="sedov3d"),
    Target(f"{_EOS}.gamma:GammaLawEOS.eos_dt", "physics.eos.eos_s"),
    Target(f"{_EOS}.gamma:GammaLawEOS.eos_dp", "physics.eos.eos_s"),
    Target(f"{_EOS}.helmholtz:HelmholtzEOS.eos_de", "physics.eos.eos_s",
           home="supernova2d"),
    Target(f"{_EOS}.helmholtz:HelmholtzEOS.eos_dt", "physics.eos.eos_s",
           home="supernova2d"),
    Target(f"{_EOS}.helmholtz:HelmholtzEOS.eos_dp", "physics.eos.eos_s"),
    Target(f"{_EOS}.invert:invert_dens_eint", "physics.eos.invert_s",
           count="physics.eos.zones_inverted", counter=_array_size,
           home="supernova2d"),
    Target(f"{_EOS}.invert:invert_dens_pres", "physics.eos.invert_s",
           count="physics.eos.zones_inverted", counter=_array_size),
    Target(f"{_EOS}.helmholtz:HelmholtzEOS.eint_cv", "physics.eos.residual_s",
           count="physics.eos.residual_zone_evals", counter=_array_size,
           home="supernova2d"),
    Target("repro.physics.flame.adr:ADRFlame.step", "physics.flame.step_s",
           home="supernova2d"),
    Target("repro.physics.flame.adr:ADRFlame.timestep",
           "physics.flame.timestep_s", home="supernova2d"),
    Target("repro.physics.gravity.monopole:MonopoleGravity.update_potential",
           "physics.gravity.potential_s", home="supernova2d"),
    Target("repro.physics.gravity.monopole:MonopoleGravity.accelerate",
           "physics.gravity.accelerate_s", home="supernova2d"),
    # the evolution loop of repro.driver
    Target("repro.driver.simulation:Simulation.evolve", "driver.step_s",
           home="supernova2d"),
    Target("repro.driver.simulation:Simulation.step", "driver.step_s",
           "driver.steps", home="supernova2d"),
    Target("repro.driver.simulation:Simulation.compute_dt",
           "driver.compute_dt_s", home="supernova2d"),
    Target(f"{_PERF}.workrecord:WorkLog.record_step",
           "perfmodel.workrecord.record_s", home="supernova2d"),
    # worklog I/O
    Target(f"{_EXP}.workloads:_load_verified",
           "experiments.workloads.load_s", home="report"),
    Target(f"{_EXP}.workloads:_cached", "experiments.workloads.build_s",
           home="supernova2d"),
    # the replay session and the layers below it
    Target(f"{_PERF}.session:ReplaySession.replay",
           "perfmodel.session.replay_s", home="report"),
    Target(f"{_PERF}.session:ReplaySession.replay_batch",
           "perfmodel.session.replay_s", home="report"),
    Target(f"{_PERF}.session:ReplaySession.replay_sweep",
           "perfmodel.session.replay_s", home="report"),
    Target(f"{_PERF}.pipeline:SynthesisTask.__call__",
           "perfmodel.synthesis_s", "perfmodel.synthesis_calls",
           home="report"),
    Target(f"{_PERF}.store:ReplayStore.load", "perfmodel.store.load_s",
           home="report"),
    Target(f"{_PERF}.store:ReplayStore.save", "perfmodel.store.save_s",
           home="report"),
    Target(f"{_PERF}.tracestore:TraceStore.save_bundle",
           "perfmodel.tracestore.save_s", home="report"),
    Target(f"{_PERF}.tracestore:TraceStore.load_bundle",
           "perfmodel.tracestore.load_s", home="report"),
    Target("repro.hw.tlb:run_steady_segments", "hw.tlb.replay_s",
           "hw.tlb.replay_calls", "hw.tlb.accesses", _trace_events,
           home="report"),
    Target("repro.hw.tlb:run_steady_segments_multi", "hw.tlb.replay_s",
           "hw.tlb.replay_calls", "hw.tlb.accesses", _trace_events,
           home="report"),
    Target("repro.hw.tlb:run_segments", "hw.tlb.replay_s",
           "hw.tlb.replay_calls", "hw.tlb.accesses", _trace_events),
    Target("repro.hw.cpu:CycleModel.cycles", "hw.cpu.cycle_model_s",
           home="report"),
    Target("repro.hw.cpu:CycleModel.measures", "hw.cpu.cycle_model_s"),
    Target("repro.hw.cpu:CycleModel.seconds", "hw.cpu.cycle_model_s"),
    Target("repro.kernel.vmm:AddressSpace.touch", "kernel.vmm.touch_s",
           home="report"),
    Target("repro.kernel.vmm:AddressSpace.touch_range", "kernel.vmm.touch_s",
           home="report"),
    Target("repro.toolchain.compiler:Compiler.compile", "toolchain.launch_s",
           home="report"),
    Target("repro.toolchain.executable:Executable.launch",
           "toolchain.launch_s", home="report"),
    Target("repro.toolchain.executable:Process.allocate",
           "toolchain.launch_s", home="report"),
    Target("repro.toolchain.executable:Process.first_touch",
           "toolchain.launch_s", home="report"),
    Target("repro.mpisim.comm:scaling_model", "mpisim.comm.scaling_model_s",
           home="report"),
    # counted only: the O(p^2) halo walk may legitimately disappear
    Target("repro.mpisim.comm:DomainDecomposition.halo_traffic",
           calls="mpisim.comm.halo_traffic_calls"),
    # the pricing pipeline and the experiment runners above it
    Target(f"{_PERF}.pipeline:PerformancePipeline.run",
           "perfmodel.pipeline.price_s", home="report"),
    Target(f"{_PERF}.pipeline:PerformancePipeline.run_geometries",
           "perfmodel.pipeline.price_s", home="report"),
    Target(f"{_PERF}.pipeline:run_batch", "perfmodel.pipeline.price_s",
           home="report"),
    Target(f"{_EXP}.tables:run_table", "experiments.table_s",
           home="supernova2d"),
    Target(f"{_EXP}.figure1:figure1_data", "experiments.table_s",
           home="report"),
    Target(f"{_EXP}.compilers:compiler_comparison", "experiments.table_s",
           home="report"),
    Target(f"{_EXP}.testprograms:static_vs_dynamic", "experiments.table_s",
           home="report"),
    Target(f"{_EXP}.testprograms:hugepage_usage_matrix",
           "experiments.table_s", home="report"),
    Target(f"{_EXP}.geometry:geometry_study", "experiments.table_s",
           home="report"),
    Target(f"{_EXP}.porting:porting_study", "experiments.table_s",
           home="report"),
    Target(f"{_EXP}.tables:render_table", "experiments.render_s",
           home="supernova2d"),
    Target(f"{_EXP}.figure1:render_figure1", "experiments.render_s",
           home="report"),
    Target(f"{_EXP}.testprograms:render_outcomes", "experiments.render_s",
           home="report"),
    Target(f"{_EXP}.compilers:CompilerComparison.render",
           "experiments.render_s", home="report"),
    Target(f"{_EXP}.geometry:GeometryStudy.render", "experiments.render_s",
           home="report"),
    Target(f"{_EXP}.porting:PortingResult.render", "experiments.render_s",
           home="report"),
)

#: the workload root's self time: wall no wrapped layer accounts for
UNATTRIBUTED = "unattributed_s"


def metric_names() -> list[str]:
    """Every metric the wrappers can produce, in catalogue order."""
    names: list[str] = []
    for t in TARGETS:
        for name in (t.time, t.calls, t.count):
            if name is not None and name not in names:
                names.append(name)
    return names


class Tracer:
    """Span bookkeeping for one traced process (single-threaded)."""

    def __init__(self) -> None:
        #: pass name -> metric -> value (self seconds or counts)
        self.passes: dict[str, dict[str, float]] = {}
        #: target -> calls over every pass
        self.calls: dict[str, int] = defaultdict(int)
        #: wrapped calls made on another thread than the pass's
        self.off_thread = 0
        self.missing: list[str] = []
        self._acc: dict[str, float] | None = None
        self._thread: int | None = None
        #: open spans, innermost last: [metric, seconds spent in children]
        self._stack: list[list] = []

    # --- installation -------------------------------------------------------
    def install(self) -> None:
        for target in TARGETS:
            module_name, qualname = target.where.split(":")
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target.where)
                continue
            wrapper = self._wrap(original, target)
            setattr(owner, attr, wrapper)
            if not path:
                self._rebind(original, wrapper)

    @staticmethod
    def _rebind(original, wrapper) -> None:
        """Point every ``from module import name`` copy at the wrapper."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    namespace[name] = wrapper

    def _wrap(self, fn, target: Target):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            acc = tracer._acc
            if acc is None:
                return fn(*args, **kwargs)
            if threading.get_ident() != tracer._thread:
                tracer.off_thread += 1
                return fn(*args, **kwargs)
            tracer.calls[target.where] += 1
            if target.calls is not None:
                acc[target.calls] += 1
            if target.counter is not None:
                acc[target.count] += target.counter(*args, **kwargs)
            if target.time is None:
                return fn(*args, **kwargs)
            return tracer._timed(target.time, fn, args, kwargs)

        return wrapper

    def _timed(self, metric: str, fn, args, kwargs):
        frame = [metric, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - t0
            self._stack.pop()
            self._acc[metric] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration

    # --- passes ---------------------------------------------------------------
    def run_pass(self, name: str, action):
        """Run ``action()`` as one root span; returns (result, wall)."""
        acc: dict[str, float] = defaultdict(float)
        self.passes[name] = acc
        self._acc = acc
        self._thread = threading.get_ident()
        t0 = time.perf_counter()
        try:
            result = self._timed(UNATTRIBUTED, action, (), {})
        finally:
            wall = time.perf_counter() - t0
            self._acc = None
        return result, wall

    def coverage_failures(self, workload: str) -> list[str]:
        """Targets missing or never called on their home workload, and
        wrapped calls off the pass's thread."""
        failures = [f"{where}: not found" for where in self.missing]
        failures += [f"{t.where}: no calls on {workload}" for t in TARGETS
                     if t.home == workload and t.where not in self.missing
                     and self.calls[t.where] == 0]
        if self.off_thread:
            failures.append(f"{self.off_thread} wrapped calls off the "
                            "pass's thread")
        return failures
