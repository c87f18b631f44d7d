"""Fault-tolerance tests for the rank-decomposed fabric.

The load-bearing property mirrors the bit-identity tests next door:
a run that loses a rank mid-flight and recovers through the
coordinated checkpoint/restart machinery must finish *bit-identical*
to an unfaulted run — blocks, traffic counters, WorkLog digests, and
comm totals all exact.  Faults fire once (the injector's ``fired`` set
survives the rollback), so replayed steps are clean by construction.
"""

import json

import numpy as np
import pytest

from repro.chaos.injector import ChaosUnit
from repro.chaos.rankfaults import RankChaos
from repro.driver.simulation import Simulation
from repro.kernel.params import ookami_config
from repro.kernel.vmm import Kernel
from repro.mesh.grid import Grid, MeshSpec
from repro.mesh.tree import AMRTree
from repro.mpisim.fabric import MANIFEST_NAME, Fabric
from repro.physics.eos import GammaLawEOS
from repro.physics.hydro.unit import HydroUnit
from repro.setups.sedov import sedov_setup
from repro.util.errors import ConfigurationError, FabricTimeout, RankKilled


def sedov_builder(nblockx=4, nblocky=4, *, chaos_for_build=None):
    """A static-decomposition Sedov builder.

    ``chaos_for_build`` maps a build index to a ChaosUnit factory, so a
    single rank's simulation can carry an injector (the fabric builds
    rank sims in rank order).
    """
    count = {"n": 0}

    def build():
        idx = count["n"]
        count["n"] += 1
        tree = AMRTree(ndim=2, nblockx=nblockx, nblocky=nblocky,
                       max_level=0, domain=((0, 1), (0, 1), (0, 1)))
        spec = MeshSpec(ndim=2, nxb=8, nyb=8, nzb=1, nguard=2,
                        maxblocks=nblockx * nblocky + 4)
        grid = Grid(tree, spec)
        eos = GammaLawEOS(gamma=1.4)
        sedov_setup(grid, eos)
        units = [HydroUnit(eos, cfl=0.4)]
        if chaos_for_build and idx in chaos_for_build:
            units.append(chaos_for_build[idx]())
        return Simulation(grid, *units, nrefs=0, dtinit=1e-5)
    return build


def rank_state(sim) -> dict:
    """What a ``StepSnapshot`` of ``sim`` captures, in comparable form.

    Left out: the full ``unk`` (the owned shard is compared block by
    block; the other slots hold halo surrogates, which a respawned rank
    refreshes lazily) and the counter-bank clock (a standalone run
    advances it by measured wall time).
    """
    return {
        "t": sim.t,
        "n_step": sim.n_step,
        "history": list(sim.history),
        "leaves": sim.grid.tree.leaves(),
        "slots": {b: blk.slot for b, blk in sim.grid.blocks.items()},
        "free_slots": list(sim.grid._free_slots),
        "bank_totals": dict(sim.bank.totals),
        "unit_state": {spec.name: dict(spec.save_state(sim, unit))
                       for spec, unit in sim.scheduled_units()
                       if spec.save_state is not None},
        "rng": (sim.rng.bit_generator.state
                if sim.rng is not None else None),
        "hook_state": [hook.save_state() for hook in sim.step_hooks
                       if hasattr(hook, "save_state")],
    }


def assert_fabrics_identical(fab, ref):
    """Every rank exact against the reference: owned blocks, everything
    :func:`rank_state` holds, traffic counters and log digests.  Units
    only the faulted run composes (a chaos injector) are skipped; every
    unit of the reference must be there."""
    assert fab.ranks[0].sim.t == ref.ranks[0].sim.t
    assert len(fab.ranks) == len(ref.ranks)
    for ctx, rctx in zip(fab.ranks, ref.ranks):
        assert ctx.owned == rctx.owned
        for bid in ctx.owned:
            np.testing.assert_array_equal(
                ctx.grid.block_data(bid), rctx.grid.block_data(bid))
        state, ref_state = rank_state(ctx.sim), rank_state(rctx.sim)
        units, ref_units = state.pop("unit_state"), ref_state.pop("unit_state")
        for key, value in ref_state.items():
            assert state[key] == value, f"rank {ctx.rank}: {key} differs"
        for name, value in ref_units.items():
            assert units.get(name) == value, (
                f"rank {ctx.rank}: unit {name} state differs")
        assert ctx.bytes_sent == rctx.bytes_sent
        assert ctx.bytes_received == rctx.bytes_received
        if ctx.log is not None and rctx.log is not None:
            assert ctx.log.digest() == rctx.log.digest()
    assert fab.comm.bytes_moved == ref.comm.bytes_moved
    assert fab.comm.elapsed_s == ref.comm.elapsed_s


def reference_run(builder, n_ranks, nend):
    ref = Fabric(builder, n_ranks)
    ref.attach_worklogs(helmholtz_eos=False)
    ref.evolve(nend=nend)
    return ref


class TestRespawnHistory:
    """A respawned rank resumes with the whole step history, whether it
    restores from its on-disk checkpoint or from the in-memory
    snapshot."""

    @pytest.mark.parametrize("on_disk", [True, False],
                             ids=["checkpoint", "snapshot"])
    def test_killed_rank_keeps_history(self, tmp_path, on_disk):
        ref = reference_run(sedov_builder(), 2, 6)
        fab = Fabric(sedov_builder(), 2)
        fab.attach_worklogs(helmholtz_eos=False)
        chaos = RankChaos(faults=("kill_rank",), start=3, every=100,
                          target_rank=1)
        report = fab.run_supervised(
            nend=6, rank_chaos=chaos,
            checkpoint_dir=tmp_path / "ckpt" if on_disk else None)
        assert report.rank_restarts == 1
        assert [len(ctx.sim.history) for ctx in fab.ranks] == [6, 6]
        for ctx, rctx in zip(fab.ranks, ref.ranks):
            assert ctx.sim.history == rctx.sim.history


class TestCoordinatedRecovery:
    def test_faultfree_supervised_matches_evolve(self):
        """With no faults, the supervisor loop is a bit-identical
        wrapper around evolve() — checkpointing must not perturb."""
        ref = reference_run(sedov_builder(), 2, 4)
        fab = Fabric(sedov_builder(), 2)
        fab.attach_worklogs(helmholtz_eos=False)
        report = fab.run_supervised(nend=4, checkpoint_interval=1)
        assert report.steps_completed == 4
        assert report.rank_restarts == 0 and report.failure is None
        assert_fabrics_identical(fab, ref)

    def test_kill_recovery_bit_identical_four_ranks(self, tmp_path):
        """The acceptance run: a rank killed mid-step at 4 ranks is
        respawned from its checkpoint and the finished run is exact."""
        ref = reference_run(sedov_builder(), 4, 6)
        fab = Fabric(sedov_builder(), 4)
        fab.attach_worklogs(helmholtz_eos=False)
        chaos = RankChaos(faults=("kill_rank",), start=3, every=100,
                          target_rank=1)
        report = fab.run_supervised(nend=6, rank_chaos=chaos,
                                    checkpoint_dir=tmp_path / "ckpt")
        assert report.rank_restarts == 1
        assert report.steps_completed == 6
        assert report.recovery_wall_s > 0.0
        assert [f["kind"] for f in report.rank_faults] == ["kill_rank"]
        assert report.checkpoints  # cadence checkpoints were written
        assert_fabrics_identical(fab, ref)

    def test_stall_timeout_recovery_bit_identical(self):
        """A stalled rank trips the barrier deadline; the report names
        the missing rank with stacks, and recovery replays exactly."""
        ref = reference_run(sedov_builder(), 2, 5)
        fab = Fabric(sedov_builder(), 2, barrier_timeout_s=0.05)
        fab.attach_worklogs(helmholtz_eos=False)
        chaos = RankChaos(faults=("stall_rank",), start=2, every=100,
                          target_rank=1, stall_s=0.5)
        report = fab.run_supervised(nend=5, rank_chaos=chaos)
        assert report.timeouts >= 1
        assert report.rank_restarts >= 1
        assert set(report.rank_stacks) == {"0", "1"}
        assert all("File" in s for s in report.rank_stacks.values())
        assert report.steps_completed == 5
        assert_fabrics_identical(fab, ref)

    def test_stall_without_supervisor_raises_named_timeout(self):
        fab = Fabric(sedov_builder(), 2, barrier_timeout_s=0.05)
        chaos = RankChaos(faults=("stall_rank",), start=1, every=100,
                          target_rank=1, stall_s=0.5)
        fab.rank_chaos = chaos
        with pytest.raises(FabricTimeout) as exc_info:
            fab.step()
        assert exc_info.value.missing_ranks == (1,)
        assert set(exc_info.value.rank_stacks) == {0, 1}

    def test_corrupt_halo_recovers_via_dt_retry(self):
        """Halo corruption flows through the post-step guards and the
        dt-retry rollback; the run completes with clean final guards
        (the trajectory legitimately differs: dt was backed off)."""
        fab = Fabric(sedov_builder(), 2)
        chaos = RankChaos(faults=("corrupt_halo",), start=2, every=100,
                          target_rank=1)
        report = fab.run_supervised(nend=4, rank_chaos=chaos)
        assert report.guard_trips >= 1
        assert report.steps_completed == 4
        assert report.failure is None
        for ctx in fab.ranks:
            for bid in ctx.owned:
                assert np.all(np.isfinite(ctx.grid.block_data(bid)))

    def test_restart_budget_exhaustion_attaches_report(self):
        """Beyond max_rank_restarts the error re-raises, report
        attached — every-step kills exhaust a budget of 1."""
        fab = Fabric(sedov_builder(), 2)
        chaos = RankChaos(faults=("kill_rank",), start=2, every=1,
                          target_rank=0)
        with pytest.raises(RankKilled) as exc_info:
            fab.run_supervised(nend=6, rank_chaos=chaos,
                               max_rank_restarts=1)
        report = exc_info.value.report
        assert report.rank_restarts == 1
        assert report.failure is not None
        assert "rank 0" in report.failure

    def test_drain_pool_respawn_degrades_to_base_pages(self):
        """A drained hugetlb pool at the killed rank's node makes the
        respawn re-admission fall back to base pages — counted, never
        fatal."""
        kernel = Kernel(ookami_config())
        fab = Fabric(sedov_builder(), 2)
        chaos = RankChaos(
            faults=("drain_pool_at_rank", "kill_rank"), start=2, every=1,
            target_rank=1, kernel=kernel)
        report = fab.run_supervised(nend=5, rank_chaos=chaos,
                                    max_rank_restarts=4)
        assert report.rank_restarts >= 1
        assert report.steps_completed == 5
        assert report.degradations.get("hugetlb_base_page_fallback", 0) >= 1


class TestStopFlag:
    def test_chaos_signal_routes_to_stop_flag_under_fabric(self):
        """The chaos ``signal`` fault must not touch signal.signal off
        the main thread: under the fabric it trips the stop flag and
        the run stops cleanly at the next boundary."""
        def make_chaos():
            return ChaosUnit(faults=("signal",), start=2, every=100)

        builder = sedov_builder(
            chaos_for_build={0: make_chaos, 1: make_chaos})
        fab = Fabric(builder, 2)
        report = fab.run_supervised(nend=6)
        assert report.interrupted == "stop_flag"
        assert report.steps_completed == 2
        assert report.failure is None

    def test_request_stop_writes_final_checkpoint(self, tmp_path):
        fab = Fabric(sedov_builder(), 2)
        fab.request_stop()
        report = fab.run_supervised(nend=4,
                                    checkpoint_dir=tmp_path / "ckpt")
        assert report.interrupted == "stop_flag"
        assert report.steps_completed == 0
        assert report.final_checkpoint is not None


class TestCheckpointRestart:
    def test_write_then_restart_bit_identical(self, tmp_path):
        """restart() resumes from disk and the continuation equals an
        uninterrupted run, bit for bit."""
        ref = Fabric(sedov_builder(), 2)
        ref.evolve(nend=5)

        fab = Fabric(sedov_builder(), 2)
        fab.evolve(nend=3)
        ckpt = tmp_path / "ckpt"
        manifest = fab.write_checkpoint(ckpt)
        assert manifest == ckpt / MANIFEST_NAME and manifest.exists()

        fab2 = Fabric.restart(ckpt, sedov_builder())
        assert fab2.step_count == 3
        assert fab2.comm.bytes_moved == fab.comm.bytes_moved
        fab2.evolve(nend=2)  # evolve() is relative: 2 more steps
        assert fab2.ranks[0].sim.t == ref.ranks[0].sim.t
        for ctx, rctx in zip(fab2.ranks, ref.ranks):
            for bid in ctx.owned:
                np.testing.assert_array_equal(
                    ctx.grid.block_data(bid), rctx.grid.block_data(bid))

    def test_restart_rejects_wrong_schema(self, tmp_path):
        fab = Fabric(sedov_builder(), 2)
        fab.evolve(nend=1)
        ckpt = tmp_path / "ckpt"
        manifest_path = fab.write_checkpoint(ckpt)
        manifest = json.loads(manifest_path.read_text())
        manifest["schema"] = "repro.fabric-checkpoint/999"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError):
            Fabric.restart(ckpt, sedov_builder())

    def test_restart_rejects_historyless_schema_1(self, tmp_path):
        """A /1 checkpoint's rank files carry no step history: refused
        by name rather than respawning ranks with an empty one."""
        fab = Fabric(sedov_builder(), 2)
        fab.evolve(nend=1)
        ckpt = tmp_path / "ckpt"
        manifest_path = fab.write_checkpoint(ckpt)
        manifest = json.loads(manifest_path.read_text())
        manifest["schema"] = "repro.fabric-checkpoint/1"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="checkpoint/1"):
            Fabric.restart(ckpt, sedov_builder())

    def test_restart_restores_history(self, tmp_path):
        fab = Fabric(sedov_builder(), 2)
        fab.evolve(nend=3)
        fab.write_checkpoint(tmp_path / "ckpt")
        fab2 = Fabric.restart(tmp_path / "ckpt", sedov_builder())
        for ctx, ctx2 in zip(fab.ranks, fab2.ranks):
            assert ctx2.sim.history == ctx.sim.history
            assert len(ctx2.sim.history) == 3

    def test_snapshot_restore_roundtrip_is_exact(self):
        fab = Fabric(sedov_builder(), 2)
        fab.attach_worklogs(helmholtz_eos=False)
        fab.evolve(nend=2)
        snap = fab.snapshot()
        before = {i: [ctx.grid.block_data(b).copy() for b in ctx.owned]
                  for i, ctx in enumerate(fab.ranks)}
        t_before = fab.ranks[0].sim.t
        digests = [ctx.log.digest() for ctx in fab.ranks]
        fab.evolve(nend=2)
        fab.restore(snap)
        assert fab.step_count == 2
        assert fab.ranks[0].sim.t == t_before
        for i, ctx in enumerate(fab.ranks):
            for blk, bid in zip(before[i], ctx.owned):
                np.testing.assert_array_equal(
                    blk, ctx.grid.block_data(bid))
            assert ctx.log.digest() == digests[i]


class TestBadDtOneRank:
    """Satellite: a poisoned dt reduction from a single rank inside a
    RankContext — the renegotiation path must stay bit-identical with
    no guardcell tearing, at 2 and at 4 ranks."""

    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_bad_dt_on_one_rank_bit_identical(self, n_ranks):
        ref = reference_run(sedov_builder(), n_ranks, 5)

        def make_chaos():
            return ChaosUnit(faults=("bad_dt",), start=3, every=100)

        builder = sedov_builder(chaos_for_build={1: make_chaos})
        fab = Fabric(builder, n_ranks)
        fab.attach_worklogs(helmholtz_eos=False)
        report = fab.run_supervised(nend=5)
        assert report.guard_trips >= 1  # the poisoned reduction tripped
        assert report.steps_completed == 5
        # block_data is the full padded view, so this bit-identity
        # check covers guard cells too: no tearing anywhere
        assert_fabrics_identical(fab, ref)


class TestCounterGuards:
    """The fabric runs the serial supervisor's counter guards per rank:
    a NaN written into one rank's counter bank trips a guard and rolls
    back instead of finishing the run with NaN totals."""

    @pytest.mark.parametrize("n_ranks", [1, 2])
    def test_counter_flip_trips_and_recovers(self, n_ranks):
        def make_chaos():
            return ChaosUnit(faults=("counter_flip",), start=2, every=100)

        builder = sedov_builder(chaos_for_build={n_ranks - 1: make_chaos})
        fab = Fabric(builder, n_ranks)
        report = fab.run_supervised(nend=4)
        assert report.guard_trips >= 1
        assert report.steps_completed == 4
        for ctx in fab.ranks:
            assert all(np.isfinite(v) for v in ctx.sim.bank.totals.values())
