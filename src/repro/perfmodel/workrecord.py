"""Recording what the application did, step by step.

A :class:`WorkLog` attaches to a :class:`~repro.driver.simulation.Simulation`
and snapshots, per step, the unit invocations with everything the
performance replay needs: zone counts, the leaf blocks' slots in Morton
order (the iteration order of every unit — and hence the panel order of
the memory traces), and the EOS Newton iteration totals (the
data-dependent part of the EOS cost).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.core import RecordContext
from repro.driver.simulation import Simulation, StepInfo
from repro.mesh.grid import MeshSpec


@dataclass(frozen=True)
class UnitInvocation:
    """One unit doing one pass over the mesh."""

    unit: str  # hydro_sweep | eos | eos_gamma | guardcell | flame | gravity
    zones: int
    #: total Newton iterations across zones (eos only)
    newton_iterations: int = 0
    axis: int | None = None


@dataclass
class StepRecord:
    """Everything the replay needs about one step."""

    n: int
    dt: float
    #: leaf slots in Morton order at the time of the step
    slots: tuple[int, ...]
    #: refinement level per leaf (same order)
    levels: tuple[int, ...]
    invocations: tuple[UnitInvocation, ...]

    @property
    def zones_total(self) -> int:
        return sum(inv.zones for inv in self.invocations)


def _eos_counters(sim: Simulation) -> dict[str, int]:
    eos_work = sim.unit("hydro").work.eos
    return {"eos_iters": eos_work.newton_iterations,
            "eos_calls": eos_work.calls}


@dataclass
class WorkLog:
    """Per-step work records plus the mesh geometry they refer to."""

    spec: MeshSpec
    nvar: int
    steps: list[StepRecord] = field(default_factory=list)
    #: the step hook's delta baselines: cumulative EOS counters at the
    #: last recorded step
    _delta_state: dict = field(default_factory=dict, repr=False,
                               compare=False)
    _helmholtz: bool = field(default=True, repr=False, compare=False)

    @property
    def ndim(self) -> int:
        return self.spec.ndim

    @property
    def zones_per_block(self) -> int:
        return self.spec.zones_per_block()

    @property
    def maxblocks(self) -> int:
        return self.spec.maxblocks

    @classmethod
    def attach(cls, sim: Simulation, *, helmholtz_eos: bool = True) -> "WorkLog":
        """Create a log and hook it onto the simulation's step events.

        The log is its own step hook.  Its delta baselines start at the
        simulation's current cumulative counters, so a log attached to a
        restarted simulation (whose restored work counters are non-zero)
        does not fold the pre-restart work into its first step.
        """
        log = cls(spec=sim.grid.spec, nvar=len(sim.grid.variables),
                  _delta_state=_eos_counters(sim),
                  _helmholtz=bool(helmholtz_eos))
        sim.step_hooks.append(log)
        return log

    def __call__(self, sim: Simulation, info: StepInfo) -> None:
        """Step hook: record the step with the EOS work done since the
        last recorded one."""
        before, self._delta_state = self._delta_state, _eos_counters(sim)
        now = self._delta_state
        self.record_step(sim, info, now["eos_calls"] - before["eos_calls"],
                         now["eos_iters"] - before["eos_iters"],
                         helmholtz_eos=self._helmholtz)

    def save_state(self) -> tuple[int, dict]:
        """Rollback state, like a unit's ``save_state``: the number of
        recorded steps and the delta baselines."""
        return len(self.steps), dict(self._delta_state)

    def restore_state(self, state: tuple[int, dict]) -> None:
        """Rewind to a :meth:`save_state`: drop the steps recorded since
        and reset the baselines to the restored counters."""
        n_steps, baselines = state
        del self.steps[n_steps:]
        self._delta_state = dict(baselines)

    def record_step(self, sim: Simulation, info: StepInfo, eos_calls: int,
                    eos_iters: int, *, helmholtz_eos: bool) -> None:
        """Snapshot one step by asking every composed unit's registered
        recorder, in scheduler (phase) order — the iteration order of the
        replayed memory traces therefore follows the unit declarations."""
        grid = sim.grid
        blocks = grid.leaf_blocks()
        slots = tuple(b.slot for b in blocks)
        levels = tuple(b.level for b in blocks)
        ctx = RecordContext(
            zones=len(blocks) * self.zones_per_block,
            ndim=grid.spec.ndim,
            eos_calls=eos_calls,
            eos_iters=eos_iters,
            helmholtz_eos=helmholtz_eos,
        )
        inv: list[UnitInvocation] = []
        for spec, unit in sim.scheduled_units():
            if spec.record is not None:
                inv.extend(spec.record(sim, unit, ctx))

        self.steps.append(StepRecord(
            n=info.n, dt=info.dt, slots=slots, levels=levels,
            invocations=tuple(inv),
        ))

    # --- identity ------------------------------------------------------------
    def digest(self) -> str:
        """A stable content hash over everything the replay consumes.

        Two logs with the same mesh spec, variable count, and step records
        (slots, levels, invocations, dt) digest identically regardless of
        how or when they were built — so caches keyed on the digest survive
        process restarts and self-invalidate when the recording changes,
        without manual version bumps.  ``dt`` is hashed at full bit
        precision (it seeds no trace today, but a record is its content).
        """
        h = hashlib.sha256()
        spec = self.spec
        h.update(struct.pack("<7q", spec.ndim, spec.nxb, spec.nyb, spec.nzb,
                             spec.nguard, spec.maxblocks, self.nvar))
        h.update(struct.pack("<q", len(self.steps)))
        for rec in self.steps:
            h.update(struct.pack("<qdqq", rec.n, rec.dt,
                                 len(rec.slots), len(rec.invocations)))
            h.update(np.asarray(rec.slots, dtype=np.int64).tobytes())
            h.update(np.asarray(rec.levels, dtype=np.int64).tobytes())
            for inv in rec.invocations:
                name = inv.unit.encode()
                h.update(struct.pack("<q", len(name)))
                h.update(name)
                axis = -1 if inv.axis is None else inv.axis
                h.update(struct.pack("<3q", inv.zones,
                                     inv.newton_iterations, axis))
        return h.hexdigest()

    # --- summaries -----------------------------------------------------------
    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def total_zone_updates(self, unit: str) -> int:
        return sum(inv.zones for rec in self.steps
                   for inv in rec.invocations if inv.unit == unit)

    def representative_step(self) -> StepRecord:
        """A steady-state step for trace sampling (the median-work step)."""
        if not self.steps:
            raise ValueError("empty work log")
        ordered = sorted(self.steps, key=lambda r: r.zones_total)
        return ordered[len(ordered) // 2]


__all__ = ["WorkLog", "StepRecord", "UnitInvocation"]
