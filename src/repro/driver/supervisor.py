"""The resilient run supervisor — FLASH's production-run survival kit.

Long campaigns (the paper's 50-step EOS and 200-step Sedov runs, the
A64FX follow-up study's restartable sweeps) lose everything if the
driver aborts on the first unphysical zone or dies to node reclamation.
This module wraps a :class:`~repro.driver.simulation.Simulation` in the
protections real FLASH has:

* **step guards** — after every step the leaf interiors are checked for
  non-finite or non-positive density/pressure and non-finite energies,
  and the PAPI counter bank is checked for monotonic, finite totals;
* **bounded dt-retry** — a tripped guard (or any
  :class:`~repro.util.errors.PhysicsError` escaping a unit's hooks)
  rolls the step back from a :class:`StepSnapshot` (which rewinds an
  attached work log too) and retries at ``dr_dt_retry_factor`` times
  the timestep, down to the ``dr_dtmin`` floor, for at most
  ``dr_max_retries`` attempts, then raises a structured
  :class:`StepFailure` carrying every attempt;
* **auto-checkpointing** — every ``checkpoint_interval_step`` steps
  and/or ``wall_clock_checkpoint`` seconds a rotated checkpoint (depth
  ``checkpoint_keep``) is written through the corruption-safe artifact
  store, embedding the run state for bit-identical resume;
* **graceful shutdown** — SIGTERM/SIGINT finish the in-flight step,
  write a final checkpoint, and return cleanly with
  ``RunReport.interrupted`` set.

The :class:`~repro.mpisim.fabric.Fabric` takes the same
:class:`StepSnapshot` and runs the same guard set on every rank; only
its dt-retry policy is its own.  Everything observable about a
supervised run lands in the structured :class:`RunReport`
(JSON-serialisable; the chaos-soak CI job uploads it).  See
``docs/resilience.md``.
"""

from __future__ import annotations

import copy
import json
import signal
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.driver.io import write_checkpoint
from repro.driver.simulation import Simulation, StepInfo
from repro.mesh.grid import Grid
from repro.util import artifacts
from repro.util.errors import PhysicsError

#: (variable, must-be-positive) pairs the post-step state guard checks
GUARDED_VARIABLES = (("dens", True), ("pres", True),
                     ("ener", False), ("eint", False))


class GuardViolation(PhysicsError):
    """One step attempt tripped a guard (internal to the retry loop)."""

    def __init__(self, violations: list[str]) -> None:
        super().__init__("; ".join(violations))
        self.violations = tuple(violations)


class StepFailure(PhysicsError):
    """A step could not be completed within the retry budget.

    Carries the full context FLASH prints before aborting: the step
    number, the simulation time, and every attempted timestep with the
    guard trips (or unit errors) that rejected it.
    """

    def __init__(self, *, step: int, t: float,
                 attempts: tuple["StepAttempt", ...], dtmin: float) -> None:
        lines = [f"step {step} failed after {len(attempts)} attempt(s) "
                 f"at t={t:.6e} (dr_dtmin floor {dtmin:.3e}):"]
        for i, a in enumerate(attempts, 1):
            lines.append(f"  attempt {i}: dt={a.dt:.6e} -> "
                         + "; ".join(a.reasons))
        super().__init__("\n".join(lines))
        self.step = step
        self.t = t
        self.attempts = attempts
        self.dtmin = dtmin


@dataclass(frozen=True)
class StepAttempt:
    """One rejected attempt of a step: the dt tried and why it failed."""

    dt: float
    reasons: tuple[str, ...]


@dataclass
class RetryRecord:
    """A step that needed the retry schedule (and how it ended)."""

    step: int
    rejected: list[StepAttempt]
    final_dt: float  # dt of the attempt that succeeded (nan if none did)


@dataclass
class RunReport:
    """Structured outcome of one supervised run (JSON-serialisable)."""

    steps_completed: int = 0
    t_final: float = 0.0
    wall_seconds: float = 0.0
    guard_trips: int = 0
    retries: list[RetryRecord] = field(default_factory=list)
    checkpoints: list[str] = field(default_factory=list)
    final_checkpoint: str | None = None
    #: signal name when the run was interrupted and shut down cleanly
    interrupted: str | None = None
    #: rendered StepFailure when the retry budget was exhausted
    failure: str | None = None
    #: counted graceful degradations (hugetlb base-page fallbacks,
    #: ...), kind -> count
    degradations: dict[str, int] = field(default_factory=dict)
    #: rank threads killed and respawned by the fabric's recovery loop
    rank_restarts: int = 0
    #: wall seconds spent inside coordinated recoveries (restore +
    #: respawn), summed — the run's MTTR numerator
    recovery_wall_s: float = 0.0
    #: barrier/collective deadlines that tripped (FabricTimeout count)
    timeouts: int = 0
    #: per-rank stack dumps from the last barrier timeout, rank -> trace
    rank_stacks: dict[str, str] = field(default_factory=dict)
    #: rank-targeted chaos injections actually delivered
    #: (step/kind/rank/detail dicts, in delivery order)
    rank_faults: list[dict] = field(default_factory=list)

    @property
    def retried_steps(self) -> int:
        return len(self.retries)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        with artifacts.atomic_write(path) as tmp:
            tmp.write_text(self.to_json() + "\n")
        return path

    def finalise(self, sim: Simulation, start_wall: float,
                 kernel=None) -> None:
        """Close the report on ``sim``'s state (for the fabric, any rank:
        they run in lockstep), adding the kernel's degradation counts."""
        self.steps_completed = sim.n_step
        self.t_final = sim.t
        self.wall_seconds = time.monotonic() - start_wall
        if kernel is not None:
            for kind, count in kernel.degradations.counts.items():
                self.degradations[kind] = (
                    self.degradations.get(kind, 0) + count)


def step_guards(grid: Grid) -> list[str]:
    """Scan every leaf block's interior for unphysical state.

    Returns human-readable violation strings (empty when the state is
    sound): non-finite values anywhere, plus non-positive density or
    pressure — the conditions under which the next CFL estimate or EOS
    call would blow up far from the actual corruption.
    """
    out: list[str] = []
    for var, positive in GUARDED_VARIABLES:
        if var not in grid.variables:
            continue
        for block in grid.leaf_blocks():
            a = grid.interior(block, var)
            bad = ~np.isfinite(a)
            if positive:
                bad |= a <= 0.0
            n = int(np.count_nonzero(bad))
            if n:
                out.append(f"{var}: {n} unphysical zone(s) in "
                           f"block {block.bid}")
    return out


@dataclass
class StepSnapshot:
    """Everything a step rollback restores on one simulation.

    Taken before every guarded step attempt, by the serial supervisor
    and by each rank of the :class:`~repro.mpisim.fabric.Fabric`: the
    solution array, tree, blocks and free slots; time, step counter and
    step history; counter-bank totals and clock; every unit's
    ``save_state`` dict; the driver RNG; and the ``save_state`` of
    every step hook that has one (an attached
    :class:`~repro.perfmodel.workrecord.WorkLog` rewinds its records
    and delta baselines that way).  :meth:`restore` copies out of the
    snapshot, so one snapshot can be restored any number of times.
    """

    unk: np.ndarray
    tree: object
    blocks: dict
    free_slots: list[int]
    t: float
    n_step: int
    history: list
    bank_totals: dict
    bank_time: float
    unit_state: dict[str, dict[str, float]]
    rng_state: dict | None
    #: (hook, its saved state) for every step hook with a save_state
    hook_state: list[tuple[object, object]]

    @classmethod
    def take(cls, sim: Simulation) -> "StepSnapshot":
        return cls(
            unk=sim.grid.unk.copy(),
            tree=copy.deepcopy(sim.grid.tree),
            blocks=copy.deepcopy(sim.grid.blocks),
            free_slots=list(sim.grid._free_slots),
            t=sim.t,
            n_step=sim.n_step,
            history=list(sim.history),
            bank_totals=dict(sim.bank.totals),
            bank_time=sim.bank.time_s,
            unit_state={spec.name: dict(spec.save_state(sim, unit))
                        for spec, unit in sim.scheduled_units()
                        if spec.save_state is not None},
            rng_state=(copy.deepcopy(sim.rng.bit_generator.state)
                       if sim.rng is not None else None),
            hook_state=[(hook, hook.save_state())
                        for hook in sim.step_hooks
                        if hasattr(hook, "save_state")],
        )

    def restore(self, sim: Simulation) -> None:
        sim.grid.unk[...] = self.unk
        sim.grid.tree = copy.deepcopy(self.tree)
        sim.grid.blocks = copy.deepcopy(self.blocks)
        sim.grid._free_slots = list(self.free_slots)
        sim.t = self.t
        sim.n_step = self.n_step
        sim.history[:] = self.history
        sim.bank.totals = dict(self.bank_totals)
        sim.bank.time_s = self.bank_time
        for spec, unit in sim.scheduled_units():
            if spec.restore_state is not None and spec.name in self.unit_state:
                spec.restore_state(sim, unit, self.unit_state[spec.name])
        if sim.rng is not None and self.rng_state is not None:
            sim.rng.bit_generator.state = copy.deepcopy(self.rng_state)
        for hook, state in self.hook_state:
            hook.restore_state(state)

    def violations(self, sim: Simulation) -> list[str]:
        """The post-step guard set: :func:`step_guards` on the grid, and
        every counter finite and no lower than at the snapshot."""
        out = step_guards(sim.grid)
        for event, before in self.bank_totals.items():
            now = sim.bank.totals[event]
            if not np.isfinite(now):
                out.append(f"counter {event.name} went non-finite ({now})")
            elif now < before:
                out.append(f"counter {event.name} went backwards "
                           f"({before} -> {now})")
        return out


class RunSupervisor:
    """Run a simulation to completion through faults and signals."""

    #: signals that trigger the graceful-shutdown path
    SIGNALS = (signal.SIGTERM, signal.SIGINT)

    def __init__(
        self,
        sim: Simulation,
        *,
        checkpoint_dir: str | Path | None = None,
        basenm: str = "repro_",
        checkpoint_interval_step: int = 0,
        wall_clock_checkpoint: float = 0.0,
        checkpoint_keep: int = 3,
        dtmin: float = 1.0e-12,
        retry_factor: float = 0.5,
        max_retries: int = 4,
        handle_signals: bool = True,
        kernel=None,
    ) -> None:
        self.sim = sim
        self.checkpoint_dir = (Path(checkpoint_dir)
                               if checkpoint_dir is not None else None)
        self.basenm = basenm
        self.checkpoint_interval_step = checkpoint_interval_step
        self.wall_clock_checkpoint = wall_clock_checkpoint
        self.checkpoint_keep = checkpoint_keep
        self.dtmin = dtmin
        self.retry_factor = retry_factor
        self.max_retries = max_retries
        self.handle_signals = handle_signals
        #: optional simulated kernel whose degradation counters the
        #: report surfaces alongside the driver's own
        self.kernel = kernel
        self._last_dt: float | None = None
        self._stop_signal: str | None = None
        self._auto_checkpoints: list[Path] = []

    @classmethod
    def from_params(cls, sim: Simulation, params,
                    checkpoint_dir: str | Path | None = None,
                    **overrides) -> "RunSupervisor":
        """Build from flash.par runtime parameters (the dr_* namespace)."""
        kwargs = dict(
            checkpoint_dir=(checkpoint_dir
                            if checkpoint_dir is not None
                            else params.get("output_directory")),
            basenm=params.get("basenm"),
            checkpoint_interval_step=params.get("checkpoint_interval_step"),
            wall_clock_checkpoint=params.get("wall_clock_checkpoint"),
            checkpoint_keep=params.get("checkpoint_keep"),
            dtmin=params.get("dr_dtmin"),
            retry_factor=params.get("dr_dt_retry_factor"),
            max_retries=params.get("dr_max_retries"),
        )
        kwargs.update(overrides)
        return cls(sim, **kwargs)

    # --- checkpointing ----------------------------------------------------------
    def _checkpoint(self, name: str) -> Path | None:
        if self.checkpoint_dir is None:
            return None
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        path = self.checkpoint_dir / f"{self.basenm}{name}.npz"
        write_checkpoint(self.sim.grid, path, sim=self.sim)
        return path

    def _auto_checkpoint(self, report: RunReport) -> None:
        path = self._checkpoint(f"chk_{self.sim.n_step:04d}")
        if path is None:
            return
        report.checkpoints.append(str(path))
        self._auto_checkpoints.append(path)
        while len(self._auto_checkpoints) > self.checkpoint_keep:
            old = self._auto_checkpoints.pop(0)
            old.unlink(missing_ok=True)
            artifacts.checksum_path(old).unlink(missing_ok=True)

    # --- the guarded step -------------------------------------------------------
    def guarded_step(self, dt_cap: float | None = None,
                     report: RunReport | None = None) -> StepInfo:
        """One step under guards, retried at reduced dt on any trip."""
        sim = self.sim
        report = report if report is not None else RunReport()
        rejected: list[StepAttempt] = []
        dt: float | None = None
        for _attempt in range(self.max_retries + 1):
            snap = StepSnapshot.take(sim)
            try:
                if dt is None:
                    dt = sim.compute_dt()
                    if dt_cap is not None and np.isfinite(dt):
                        dt = min(dt, dt_cap)
                if not np.isfinite(dt) or dt <= 0.0:
                    raise GuardViolation([f"bad timestep {dt}"])
                if dt < self.dtmin:
                    raise GuardViolation(
                        [f"timestep {dt:.6e} below dr_dtmin {self.dtmin:.3e}"])
                info = sim.step(dt)
                violations = snap.violations(sim)
                if violations:
                    raise GuardViolation(violations)
                if rejected:
                    report.retries.append(RetryRecord(
                        step=info.n, rejected=rejected, final_dt=info.dt))
                self._last_dt = info.dt
                return info
            except (GuardViolation, PhysicsError) as exc:
                snap.restore(sim)
                reasons = (list(exc.violations)
                           if isinstance(exc, GuardViolation)
                           else [f"{type(exc).__name__}: {exc}"])
                attempted = float(dt) if dt is not None else float("nan")
                rejected.append(StepAttempt(dt=attempted,
                                            reasons=tuple(reasons)))
                report.guard_trips += 1
                # next attempt's dt: back off from the failed dt when it
                # was usable, else from the last good step (or dtinit)
                if dt is not None and np.isfinite(dt) and dt > 0.0:
                    base = dt
                else:
                    base = (self._last_dt or sim.dtinit
                            or self.dtmin / self.retry_factor)
                dt = base * self.retry_factor
                if dt < self.dtmin:
                    break
        failure = StepFailure(step=sim.n_step + 1, t=sim.t,
                              attempts=tuple(rejected), dtmin=self.dtmin)
        report.retries.append(RetryRecord(step=sim.n_step + 1,
                                          rejected=rejected,
                                          final_dt=float("nan")))
        raise failure

    # --- signals ---------------------------------------------------------------
    def _install_handlers(self):
        # signal.signal is only legal on the main thread; a supervisor
        # running inside a fabric rank thread must skip handler setup
        # (rank-level interruption goes through the fabric's stop flag)
        if threading.current_thread() is not threading.main_thread():
            return {}
        previous = {}
        for sig in self.SIGNALS:
            def handler(signum, frame):
                self._stop_signal = signal.Signals(signum).name
            previous[sig] = signal.signal(sig, handler)
        return previous

    # --- the supervised run -----------------------------------------------------
    def run(self, *, nend: int | None = None, tmax: float | None = None,
            quiet: bool = True) -> RunReport:
        """Evolve to ``nend``/``tmax`` under guards, retries, cadence
        checkpoints, and graceful signal shutdown.

        Returns the :class:`RunReport`.  A :class:`StepFailure` (retry
        budget exhausted) still writes a final checkpoint and attaches
        the report to the exception (``exc.report``) before raising.
        """
        if nend is None and tmax is None:
            raise PhysicsError("run needs nend and/or tmax")
        sim = self.sim
        report = RunReport()
        start_wall = time.monotonic()
        last_chk_wall = start_wall
        previous_handlers = (self._install_handlers()
                             if self.handle_signals else {})
        try:
            while True:
                if self._stop_signal is not None:
                    report.interrupted = self._stop_signal
                    path = self._checkpoint(f"chk_final_{sim.n_step:04d}")
                    report.final_checkpoint = (str(path) if path else None)
                    break
                if nend is not None and sim.n_step >= nend:
                    break
                if tmax is not None and sim.t >= tmax:
                    break
                dt_cap = tmax - sim.t if tmax is not None else None
                try:
                    info = self.guarded_step(dt_cap, report)
                except StepFailure as exc:
                    report.failure = str(exc)
                    path = self._checkpoint(f"chk_failed_{sim.n_step:04d}")
                    report.final_checkpoint = (str(path) if path else None)
                    report.finalise(sim, start_wall, self.kernel)
                    exc.report = report
                    raise
                if not quiet:
                    print(f"  step {info.n:5d}  t={info.t:.6e}  "
                          f"dt={info.dt:.3e}  blocks={info.n_blocks}")
                due_steps = (self.checkpoint_interval_step > 0
                             and sim.n_step % self.checkpoint_interval_step == 0)
                now = time.monotonic()
                due_wall = (self.wall_clock_checkpoint > 0.0
                            and now - last_chk_wall >= self.wall_clock_checkpoint)
                if due_steps or due_wall:
                    self._auto_checkpoint(report)
                    last_chk_wall = now
        finally:
            for sig, handler in previous_handlers.items():
                signal.signal(sig, handler)
        report.finalise(sim, start_wall, self.kernel)
        return report


__all__ = ["RunSupervisor", "RunReport", "RetryRecord", "StepAttempt",
           "StepFailure", "StepSnapshot", "GuardViolation", "step_guards",
           "GUARDED_VARIABLES"]
