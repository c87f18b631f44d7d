"""Rank-decomposed execution of a Simulation (PARAMESH across ranks).

FLASH distributes Morton-ordered blocks across MPI ranks; every rank
steps only its own blocks, refreshes off-rank *surrogate* copies before
each guard-cell pass, and joins the timestep reduction.  The
:class:`Fabric` reproduces that execution model inside one process:

* every rank owns a full :class:`~repro.driver.simulation.Simulation`
  (its own ``unk`` storage — a private address space, like a real MPI
  process) restricted to its :class:`~repro.mpisim.comm.\
DomainDecomposition` shard via ``Grid.owned``;
* ranks advance in lockstep on threads; the per-axis ``Grid.halo_hook``
  of every rank meets at a barrier whose action copies each off-rank
  source block from its owner's live grid — real data movement, with the
  bytes charged to :class:`~repro.mpisim.comm.SimComm`;
* the timestep is negotiated with ``allreduce_min`` over the per-rank
  CFL minima, exactly as ``Driver_computeDt`` does.

Bit-identity with the serial spine is by construction, not luck: within
one guard-fill axis pass the writes (guard strips along the fill axis)
never intersect the reads (source interiors plus transverse guards
filled by *earlier* passes), so refreshing surrogates once per axis
while every rank is paused at the same phase reproduces the serial
``fill_guardcells`` bit-for-bit — and therefore the whole run.
``n_ranks=1`` installs no hook and no filter at all: it *is* the serial
spine.

**Fault tolerance** (see ``docs/resilience.md``): the fabric takes
globally consistent snapshots at step boundaries (every rank thread
joined — a barrier point), both in memory (:meth:`Fabric.snapshot`) and
on disk through the artifact store (:meth:`Fabric.write_checkpoint`,
one per-rank checkpoint plus a manifest); :meth:`Fabric.restart`
resumes a multi-rank run bit-identically.  :meth:`Fabric.run_supervised`
is the distributed analogue of the serial
:class:`~repro.driver.supervisor.RunSupervisor`: the same per-rank
:class:`~repro.driver.supervisor.StepSnapshot` and guard set with
bounded dt-retry, plus *coordinated recovery* — on a rank kill, a
barrier deadlock (:class:`~repro.util.errors.FabricTimeout`, with
per-rank stack dumps), or an exhausted retry budget, every rank is
rolled back to the last coordinated snapshot and the failed rank's
thread is respawned from its checkpoint (with hugetlb-pool-aware
re-admission on an attached kernel), bounded by ``max_rank_restarts``.
Because rank-targeted chaos faults fire once, the replay is clean and
the recovered run finishes bit-identical to an unfaulted one.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.driver.io import restore_into, write_checkpoint
from repro.driver.simulation import Simulation, StepInfo
from repro.driver.supervisor import (
    GuardViolation,
    RetryRecord,
    RunReport,
    StepAttempt,
    StepFailure,
    StepSnapshot,
)
from repro.mpisim.comm import CommCostModel, DomainDecomposition, SimComm
from repro.perfmodel.workrecord import WorkLog
from repro.util import MiB, artifacts
from repro.util.errors import (
    ConfigurationError,
    FabricTimeout,
    PhysicsError,
    RankKilled,
)

#: schema tag of the on-disk fabric checkpoint manifest (/2: the rank
#: files carry the step history; a /1 checkpoint would respawn a rank
#: with an empty one, so it is refused)
MANIFEST_SCHEMA = "repro.fabric-checkpoint/2"
#: manifest file name inside a fabric checkpoint directory
MANIFEST_NAME = "fabric_manifest.json"


@dataclass
class RankContext:
    """One simulated rank: its simulation, shard, and traffic counters."""

    rank: int
    sim: Simulation
    owned: frozenset
    bytes_sent: int = 0
    bytes_received: int = 0
    #: attached per-rank work log (``Fabric.attach_worklogs``)
    log: WorkLog | None = None

    @property
    def grid(self):
        return self.sim.grid

    @property
    def n_blocks(self) -> int:
        return len(self.owned)


@dataclass(frozen=True)
class _Copy:
    """One surrogate-block refresh: ``bid`` from ``src`` rank to ``dst``."""

    src: int
    bid: object
    dst: int


@dataclass
class FabricSnapshot:
    """A globally consistent cut: every rank's
    :class:`~repro.driver.supervisor.StepSnapshot` at the same step
    boundary, plus the fabric-only state — per-rank traffic counters
    and the communicator totals the cut must agree with."""

    step: int
    comm_elapsed_s: float
    comm_bytes_moved: int
    ranks: list[StepSnapshot] = field(default_factory=list)
    #: per-rank (bytes_sent, bytes_received)
    traffic: list[tuple[int, int]] = field(default_factory=list)


class Fabric:
    """Lockstep rank-decomposed evolution over one shared-memory process.

    ``builder`` must return a *fresh, deterministic* Simulation each
    call (same initial state every time) — it is invoked once per rank,
    giving each rank its own storage.  Refinement must be disabled
    (``nrefs=0``): remeshing mid-run would move blocks between shards,
    which the decomposition is static over.
    """

    def __init__(self, builder, n_ranks: int, *,
                 ranks_per_node: int = 1,
                 cost: CommCostModel | None = None,
                 barrier_timeout_s: float | None = None,
                 rank_chaos=None) -> None:
        if n_ranks < 1:
            raise ConfigurationError("need at least one rank")
        if barrier_timeout_s is not None and barrier_timeout_s <= 0.0:
            raise ConfigurationError(
                "barrier_timeout_s must be positive (or None)")
        self._builder = builder
        sims = [builder() for _ in range(n_ranks)]
        for sim in sims:
            if sim.refinement is not None and sim.nrefs > 0:
                raise ConfigurationError(
                    "the fabric needs a static decomposition: build the "
                    "simulation with nrefs=0 (refinement would move blocks "
                    "between shards mid-run)")
        self.n_ranks = n_ranks
        self.decomposition = DomainDecomposition.split(sims[0].grid, n_ranks)
        self.comm = SimComm(n_ranks, cost or CommCostModel(),
                            ranks_per_node=min(ranks_per_node, n_ranks))
        self.ranks: list[RankContext] = [
            RankContext(rank=r, sim=sims[r],
                        owned=frozenset(self.decomposition.assignment[r]))
            for r in range(n_ranks)]
        self._validate_no_cross_rank_jumps(sims[0].grid)
        self._plan = self._build_exchange_plan(sims[0].grid)
        self._axis_requests = [None] * n_ranks
        self._barrier: threading.Barrier | None = None
        #: barrier deadline in wall seconds (None: wait forever); a
        #: straggler that misses it raises :class:`FabricTimeout`
        #: naming the missing ranks, with per-rank stack dumps
        self.barrier_timeout_s = barrier_timeout_s
        #: optional :class:`~repro.chaos.rankfaults.RankChaos` schedule
        self.rank_chaos = rank_chaos
        self._last_dt: float | None = None
        self._stop_requested = False
        self._arrived: set[int] = set()
        self._arrive_lock = threading.Lock()
        self._timeout_error: FabricTimeout | None = None
        self._aborted = False
        if n_ranks > 1:
            self._barrier = threading.Barrier(n_ranks, action=self._exchange)
            for ctx in self.ranks:
                ctx.grid.owned = ctx.owned
                ctx.grid.halo_hook = (
                    lambda axis, rank=ctx.rank: self._hook(rank, axis))
        # n_ranks == 1: leave owned/halo_hook untouched — the serial spine

    # --- construction helpers ------------------------------------------------
    def _validate_no_cross_rank_jumps(self, grid) -> None:
        """Flux matching at refinement jumps needs both sides on one rank
        (``_match_fluxes`` resolves children among the swept blocks), so a
        jump crossing shards is a configuration error, not a crash."""
        dd = self.decomposition
        for rank, blocks in dd.assignment.items():
            for bid in blocks:
                for axis in range(grid.tree.ndim):
                    for direction in (-1, 1):
                        kind, info = grid.tree.face_neighbor(bid, axis,
                                                             direction)
                        if kind not in ("finer", "coarser"):
                            continue
                        others = info if isinstance(info, list) else [info]
                        if any(dd.rank_of(nid) != rank for nid in others):
                            raise ConfigurationError(
                                f"refinement jump at {bid} crosses a rank "
                                f"boundary; choose a rank count whose "
                                f"Morton split keeps jumps on one shard")

    def _build_exchange_plan(self, grid) -> list[list[_Copy]]:
        """Per axis: every off-rank source block each rank reads during
        that axis pass, deduplicated, in deterministic (rank, Morton)
        order.  Sources are refreshed as whole padded blocks —
        PARAMESH's surrogate-block strategy — so the transverse guard
        slabs the corner trick reads arrive along with the interior."""
        dd = self.decomposition
        plan: list[list[_Copy]] = []
        for axis in range(grid.tree.ndim):
            copies: list[_Copy] = []
            seen: set[tuple[int, object, int]] = set()
            for rank in range(self.n_ranks):
                for bid in dd.assignment[rank]:
                    for direction in (-1, 1):
                        kind, info = grid.tree.face_neighbor(bid, axis,
                                                             direction)
                        if kind == "boundary":
                            continue
                        others = info if isinstance(info, list) else [info]
                        for nid in others:
                            src = dd.rank_of(nid)
                            if src == rank:
                                continue
                            key = (src, nid, rank)
                            if key not in seen:
                                seen.add(key)
                                copies.append(_Copy(src, nid, rank))
            plan.append(copies)
        return plan

    # --- the halo exchange ---------------------------------------------------
    def _hook(self, rank: int, axis: int) -> None:
        self._axis_requests[rank] = axis
        self._wait_barrier(rank)

    def _wait_barrier(self, rank: int) -> None:
        """One rank arriving at the lockstep barrier, under the deadline.

        ``Barrier.wait(timeout)`` breaks the barrier for everyone; the
        first waiter to observe the break (with no rank error recorded)
        identifies the ranks that never arrived and captures their live
        stacks — the deadlock/straggler forensics the ``RunReport``
        carries.
        """
        with self._arrive_lock:
            self._arrived.add(rank)
        try:
            self._barrier.wait(self.barrier_timeout_s)
        except threading.BrokenBarrierError:
            self._note_timeout()
            raise

    def _note_timeout(self) -> None:
        if self.barrier_timeout_s is None:
            return
        with self._arrive_lock:
            if self._timeout_error is not None or self._aborted:
                return
            missing = sorted(set(range(self.n_ranks)) - self._arrived)
            if not missing:
                return
            self._timeout_error = FabricTimeout(
                f"lockstep barrier timed out after "
                f"{self.barrier_timeout_s:.3f} s: rank(s) "
                f"{', '.join(str(r) for r in missing)} never arrived "
                f"({len(self._arrived)}/{self.n_ranks} present)",
                missing_ranks=tuple(missing),
                rank_stacks=self._rank_stacks())

    def _rank_stacks(self) -> dict[int, str]:
        """Formatted stack of every live rank thread (deadlock dumps)."""
        idents = {t.name: t.ident for t in threading.enumerate()
                  if t.name.startswith("fabric-rank")}
        frames = sys._current_frames()
        stacks: dict[int, str] = {}
        for rank in range(self.n_ranks):
            ident = idents.get(f"fabric-rank{rank}")
            if ident is not None and ident in frames:
                stacks[rank] = "".join(
                    traceback.format_stack(frames[ident]))
        return stacks

    def _exchange(self) -> None:
        """Barrier action: runs in exactly one thread while every rank is
        paused at the same guard-fill phase — cross-grid copies are
        race-free and their order is deterministic."""
        axes = set(self._axis_requests)
        if len(axes) != 1:
            raise ConfigurationError(
                f"ranks diverged: guard fills requested axes "
                f"{sorted(self._axis_requests)} at one barrier (the "
                f"fabric needs identical unit schedules on every rank)")
        axis = axes.pop()
        with self._arrive_lock:
            self._arrived.clear()  # next barrier cycle tracks fresh arrivals
        received = [0] * self.n_ranks
        for copy in self._plan[axis]:
            src = self.ranks[copy.src].grid.block_data(copy.bid)
            dst = self.ranks[copy.dst].grid.block_data(copy.bid)
            dst[...] = src
            nbytes = src.nbytes
            received[copy.dst] += nbytes
            self.ranks[copy.src].bytes_sent += nbytes
            self.ranks[copy.dst].bytes_received += nbytes
        self.comm.halo_exchange(received)

    # --- evolution -----------------------------------------------------------
    def negotiate_dt(self) -> float:
        """``Driver_computeDt``: per-rank CFL minima joined by an
        allreduce.  Exact: min over ranks of per-shard minima is the
        serial minimum, bit-for-bit."""
        dts = np.array([ctx.sim.compute_dt() for ctx in self.ranks])
        return self.comm.allreduce_min(dts)

    def step(self, dt: float | None = None) -> list[StepInfo]:
        """Advance every rank by one (negotiated) step in lockstep."""
        if dt is None:
            dt = self.negotiate_dt()
        if self.n_ranks == 1:
            ctx = self.ranks[0]
            if self.rank_chaos is not None:
                self.rank_chaos.deliver_rank(self, ctx, ctx.sim.n_step + 1)
            return [ctx.sim.step(dt)]

        self._barrier.reset()
        with self._arrive_lock:
            self._arrived.clear()
            self._timeout_error = None
            self._aborted = False
        errors: list[BaseException] = []
        infos: list[StepInfo | None] = [None] * self.n_ranks

        def run(ctx: RankContext) -> None:
            try:
                if self.rank_chaos is not None:
                    self.rank_chaos.deliver_rank(self, ctx,
                                                 ctx.sim.n_step + 1)
                infos[ctx.rank] = ctx.sim.step(dt)
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)
                if not isinstance(exc, threading.BrokenBarrierError):
                    with self._arrive_lock:
                        self._aborted = True
                self._barrier.abort()

        threads = [threading.Thread(target=run, args=(ctx,),
                                    name=f"fabric-rank{ctx.rank}")
                   for ctx in self.ranks]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        real = [e for e in errors
                if not isinstance(e, threading.BrokenBarrierError)]
        if real:
            raise real[0]
        if self._timeout_error is not None:
            raise self._timeout_error
        if errors:
            raise errors[0]
        return infos  # type: ignore[return-value]

    def evolve(self, *, nend: int) -> list[list[StepInfo]]:
        """Run ``nend`` lockstep steps; returns per-step rank summaries."""
        return [self.step() for _ in range(nend)]

    # --- reductions and instrumentation --------------------------------------
    def total(self, name: str, weight: str | None = "dens") -> float:
        """Domain integral across all shards (an ``allreduce_sum``)."""
        partials = np.array([ctx.grid.total(name, weight)
                             for ctx in self.ranks])
        return self.comm.allreduce_sum(partials)

    def attach_worklogs(self, *,
                        helmholtz_eos: bool = True) -> tuple[WorkLog, ...]:
        """Attach one WorkLog per rank (call before evolving).

        Each log records only its rank's shard — slots, levels, and zone
        counts are per-rank — so the perfmodel replays every rank's own
        memory behaviour, the way per-process PAPI counters would read.
        """
        for ctx in self.ranks:
            ctx.log = WorkLog.attach(ctx.sim, helmholtz_eos=helmholtz_eos)
        return tuple(ctx.log for ctx in self.ranks)

    # --- coordinated snapshots ------------------------------------------------
    @property
    def step_count(self) -> int:
        """Steps completed (identical on every rank — lockstep)."""
        return self.ranks[0].sim.n_step

    def request_stop(self) -> None:
        """Ask the supervised run to stop cleanly at the next step
        boundary (the lockstep barrier point).  Thread-safe: this is
        where the chaos ``signal`` fault lands when delivered from a
        rank thread, where ``signal.signal`` would be illegal."""
        self._stop_requested = True

    def snapshot(self) -> FabricSnapshot:
        """A globally consistent in-memory snapshot.

        Only valid at a step boundary (every rank thread joined), which
        is the only place the supervised loop calls it — the cut is
        consistent by construction, no marker messages needed.
        """
        return FabricSnapshot(
            step=self.step_count,
            comm_elapsed_s=self.comm.elapsed_s,
            comm_bytes_moved=self.comm.bytes_moved,
            ranks=[StepSnapshot.take(ctx.sim) for ctx in self.ranks],
            traffic=[(ctx.bytes_sent, ctx.bytes_received)
                     for ctx in self.ranks])

    def restore(self, snap: FabricSnapshot) -> None:
        """Roll every rank back to a coordinated snapshot (restorable
        any number of times: nothing is aliased out of it)."""
        for ctx, rsnap, traffic in zip(self.ranks, snap.ranks, snap.traffic):
            rsnap.restore(ctx.sim)
            ctx.bytes_sent, ctx.bytes_received = traffic
        self.comm.elapsed_s = snap.comm_elapsed_s
        self.comm.bytes_moved = snap.comm_bytes_moved

    # --- on-disk checkpoints --------------------------------------------------
    def write_checkpoint(self, directory: str | Path) -> Path:
        """Write a coordinated checkpoint: one per-rank checkpoint file
        (through the corruption-safe artifact store, like the serial
        supervisor's) plus a fabric manifest tying them to one step and
        to the communicator totals.  Returns the manifest path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        rank_files = []
        for ctx in self.ranks:
            path = directory / f"rank{ctx.rank:03d}.npz"
            write_checkpoint(ctx.grid, path, sim=ctx.sim)
            rank_files.append(path.name)
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "n_ranks": self.n_ranks,
            "ranks_per_node": self.comm.ranks_per_node,
            "step": self.step_count,
            "t": self.ranks[0].sim.t,
            "comm": {"elapsed_s": self.comm.elapsed_s,
                     "bytes_moved": self.comm.bytes_moved},
            "traffic": [{"rank": ctx.rank,
                         "bytes_sent": ctx.bytes_sent,
                         "bytes_received": ctx.bytes_received}
                        for ctx in self.ranks],
            "ranks": rank_files,
        }
        manifest_path = directory / MANIFEST_NAME
        with artifacts.atomic_write(manifest_path) as tmp:
            tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                           + "\n")
        return manifest_path

    @classmethod
    def restart(cls, directory: str | Path, builder, **kwargs) -> "Fabric":
        """Rebuild a fabric from a coordinated checkpoint directory,
        resuming the multi-rank run bit-identically: every rank's block
        data, step/time and step history, unit state (sweep parity, work
        counters), PAPI bank, and traffic counters, plus the communicator
        totals."""
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("schema") != MANIFEST_SCHEMA:
            raise ConfigurationError(
                f"{manifest_path} is not a fabric checkpoint manifest "
                f"(schema {manifest.get('schema')!r}, "
                f"expected {MANIFEST_SCHEMA!r})")
        fabric = cls(builder, int(manifest["n_ranks"]),
                     ranks_per_node=int(manifest.get("ranks_per_node", 1)),
                     **kwargs)
        for ctx, name in zip(fabric.ranks, manifest["ranks"]):
            restore_into(ctx.sim, directory / name)
        for entry in manifest["traffic"]:
            ctx = fabric.ranks[int(entry["rank"])]
            ctx.bytes_sent = int(entry["bytes_sent"])
            ctx.bytes_received = int(entry["bytes_received"])
        fabric.comm.elapsed_s = float(manifest["comm"]["elapsed_s"])
        fabric.comm.bytes_moved = int(manifest["comm"]["bytes_moved"])
        return fabric

    # --- rank respawn ---------------------------------------------------------
    def _respawn_rank(self, rank: int, snap: FabricSnapshot,
                      checkpoint_dir: Path | None, kernel) -> None:
        """Replace a failed rank's simulation with a fresh one restored
        from its last coordinated checkpoint.

        The survivors have already been rolled back (they were holding
        at the recovery barrier — the joined step boundary); the failed
        rank's new simulation restores from its on-disk checkpoint when
        one exists, else from the in-memory snapshot.  With a kernel
        attached, re-admission maps the rank's ``unk`` arena
        ``MAP_HUGETLB`` with fallback: a drained pool degrades the
        respawn to base pages on the :class:`~repro.kernel.vmm.\
DegradationLog` instead of failing it.
        """
        ctx = self.ranks[rank]
        sim = self._builder()
        if self.n_ranks > 1:
            sim.grid.owned = ctx.owned
            sim.grid.halo_hook = (
                lambda axis, r=rank: self._hook(r, axis))
        # restore(snap) has rewound the rank's traffic counters and step
        # hooks (its work log); the hooks move to the new simulation
        sim.step_hooks = ctx.sim.step_hooks
        ctx.sim = sim
        chk = (checkpoint_dir / f"rank{rank:03d}.npz"
               if checkpoint_dir is not None else None)
        if chk is not None and chk.exists():
            restore_into(sim, chk)
        else:
            snap.ranks[rank].restore(sim)
        if kernel is not None:
            hugetlb = 2 * MiB
            nbytes = -(-sim.grid.unk.nbytes // hugetlb) * hugetlb
            space = kernel.new_address_space(f"rank{rank}-respawn")
            space.mmap(nbytes, hugetlb_size=hugetlb,
                       hugetlb_fallback=True, name=f"rank{rank}-unk")
        chaos_unit = sim.unit("chaos")
        if chaos_unit is not None:
            chaos_unit.stop_flag = self.request_stop

    # --- the supervised run ---------------------------------------------------
    def _guarded_step(self, report: RunReport, *, dtmin: float,
                      retry_factor: float, max_retries: int) -> None:
        """One lockstep step under per-rank guards with bounded dt-retry.

        Mirrors the serial supervisor's ``guarded_step``, with its guard
        set (grid and counter guards) run on every rank: each attempt
        snapshots the whole fabric first, so a rollback can never tear
        partially exchanged guard cells — either every rank's step
        (including every surrogate refresh) happened, or none did.  A
        poisoned dt reduction (the ``bad_dt`` fault returns a negative
        contribution through ``allreduce_min``) is *renegotiated* on
        retry rather than backed off: the fault fires once, so the
        clean renegotiation reproduces the unfaulted run's dt exactly.
        """
        rejected: list[StepAttempt] = []
        dt: float | None = None
        for _attempt in range(max_retries + 1):
            snap = self.snapshot()
            try:
                if dt is None:
                    dt = self.negotiate_dt()
                if not np.isfinite(dt) or dt <= 0.0:
                    raise GuardViolation(
                        [f"bad negotiated timestep {dt}"])
                if dt < dtmin:
                    raise GuardViolation(
                        [f"timestep {dt:.6e} below floor {dtmin:.3e}"])
                self.step(dt)
                violations: list[str] = []
                for ctx, rsnap in zip(self.ranks, snap.ranks):
                    violations.extend(f"rank {ctx.rank}: {v}"
                                      for v in rsnap.violations(ctx.sim))
                if violations:
                    raise GuardViolation(violations)
                if rejected:
                    report.retries.append(RetryRecord(
                        step=self.step_count, rejected=rejected,
                        final_dt=dt))
                self._last_dt = dt
                return
            except (GuardViolation, PhysicsError) as exc:
                self.restore(snap)
                reasons = (list(exc.violations)
                           if isinstance(exc, GuardViolation)
                           else [f"{type(exc).__name__}: {exc}"])
                attempted = float(dt) if dt is not None else float("nan")
                rejected.append(StepAttempt(dt=attempted,
                                            reasons=tuple(reasons)))
                report.guard_trips += 1
                if dt is None or not np.isfinite(dt) or dt <= 0.0:
                    dt = None  # poisoned reduction: renegotiate clean
                else:
                    dt = dt * retry_factor
                    if dt < dtmin:
                        break
        raise StepFailure(step=self.step_count + 1, t=self.ranks[0].sim.t,
                          attempts=tuple(rejected), dtmin=dtmin)

    def run_supervised(self, *, nend: int,
                       checkpoint_interval: int = 1,
                       checkpoint_dir: str | Path | None = None,
                       max_rank_restarts: int = 2,
                       rank_chaos=None,
                       kernel=None,
                       dtmin: float = 1.0e-12,
                       retry_factor: float = 0.5,
                       max_retries: int = 4) -> RunReport:
        """Evolve to ``nend`` steps through rank faults.

        The distributed recovery state machine (``docs/resilience.md``):

        1. **Checkpoint** — every ``checkpoint_interval`` steps, at the
           joined step boundary, take a coordinated snapshot (and write
           it to ``checkpoint_dir`` when given).
        2. **Detect** — a step that raises :class:`RankKilled` (a rank
           thread died), :class:`FabricTimeout` (barrier deadline
           missed; the report gets the per-rank stacks), or
           ``StepFailure`` (dt-retry budget exhausted) enters recovery.
        3. **Recover** — survivors hold at the recovery barrier (the
           joined boundary), every rank rolls back to the last
           coordinated snapshot, and a killed rank's thread is
           respawned from its checkpoint with hugetlb-aware
           re-admission.  Bounded by ``max_rank_restarts``; beyond it
           the error re-raises with the report attached.
        4. **Replay** — faults fire once, so the replayed steps are
           clean and the run finishes bit-identical to an unfaulted
           one.

        The chaos ``signal`` fault (and anything else calling
        :meth:`request_stop`) stops the run cleanly at the next step
        boundary with a final checkpoint, ``report.interrupted`` set.
        """
        if rank_chaos is not None:
            self.rank_chaos = rank_chaos
        if kernel is None and self.rank_chaos is not None:
            kernel = self.rank_chaos.kernel
        chk_dir = (Path(checkpoint_dir)
                   if checkpoint_dir is not None else None)
        for ctx in self.ranks:
            chaos_unit = ctx.sim.unit("chaos")
            if chaos_unit is not None:
                chaos_unit.stop_flag = self.request_stop
        report = RunReport()
        start_wall = time.monotonic()
        snap = self.snapshot()
        if chk_dir is not None:
            report.checkpoints.append(str(self.write_checkpoint(chk_dir)))
        restarts = 0
        while self.step_count < nend:
            if self._stop_requested:
                report.interrupted = "stop_flag"
                if chk_dir is not None:
                    report.final_checkpoint = str(
                        self.write_checkpoint(chk_dir))
                break
            if self.rank_chaos is not None:
                self.rank_chaos.deliver_main(self, self.step_count + 1)
            try:
                self._guarded_step(report, dtmin=dtmin,
                                   retry_factor=retry_factor,
                                   max_retries=max_retries)
            except (FabricTimeout, RankKilled, StepFailure) as exc:
                if isinstance(exc, FabricTimeout):
                    report.timeouts += 1
                    report.rank_stacks = {
                        str(r): s for r, s in exc.rank_stacks.items()}
                if restarts >= max_rank_restarts:
                    report.failure = str(exc)
                    if chk_dir is not None:
                        report.final_checkpoint = str(
                            self.write_checkpoint(chk_dir))
                    report.finalise(self.ranks[0].sim, start_wall, kernel)
                    exc.report = report
                    raise
                t0 = time.monotonic()
                restarts += 1
                report.rank_restarts += 1
                failed = getattr(exc, "rank", None)
                self.restore(snap)
                if failed is not None:
                    self._respawn_rank(failed, snap, chk_dir, kernel)
                report.recovery_wall_s += time.monotonic() - t0
                continue
            if (checkpoint_interval > 0
                    and self.step_count % checkpoint_interval == 0):
                snap = self.snapshot()
                if chk_dir is not None:
                    report.checkpoints.append(
                        str(self.write_checkpoint(chk_dir)))
        if self.rank_chaos is not None:
            report.rank_faults = [inj.to_json()
                                  for inj in self.rank_chaos.injections]
        report.finalise(self.ranks[0].sim, start_wall, kernel)
        return report


__all__ = ["Fabric", "FabricSnapshot", "RankContext", "MANIFEST_SCHEMA"]
