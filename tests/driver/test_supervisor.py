"""Tests for the resilient run supervisor: guards, dt-retry, rotation."""

import numpy as np
import pytest

from repro.chaos import ChaosUnit
from repro.chaos.soak import build_sim
from repro.driver.config import RuntimeParameters
from repro.driver.io import read_checkpoint
from repro.driver.simulation import Simulation
from repro.driver.supervisor import (GuardViolation, RunSupervisor,
                                     StepFailure, step_guards)
from repro.mesh.grid import Grid, MeshSpec
from repro.mesh.tree import AMRTree
from repro.perfmodel.workrecord import WorkLog
from repro.physics.eos import GammaLawEOS
from repro.physics.hydro.unit import HydroUnit
from repro.util import artifacts
from repro.util.errors import PhysicsError


def sod_sim(*extra_units, nrefs=0, rng_seed=None):
    tree = AMRTree(ndim=1, nblockx=4, max_level=1,
                   domain=((0, 1), (0, 1), (0, 1)))
    spec = MeshSpec(ndim=1, nxb=16, nyb=1, nzb=1, nguard=4, maxblocks=32)
    grid = Grid(tree, spec)
    eos = GammaLawEOS(gamma=1.4)
    from repro.setups.sod import SodProblem
    SodProblem().initialize(grid, eos)
    return Simulation(grid, HydroUnit(eos, cfl=0.6), *extra_units,
                      nrefs=nrefs, rng_seed=rng_seed)


class TestStepGuards:
    def test_clean_state_passes(self):
        sim = sod_sim()
        assert step_guards(sim.grid) == []

    def test_nan_density_detected(self):
        sim = sod_sim()
        block = sim.grid.leaf_blocks()[0]
        sim.grid.interior(block, "dens")[0, 0, 0] = np.nan
        violations = step_guards(sim.grid)
        assert len(violations) == 1
        assert "dens" in violations[0]

    def test_negative_pressure_detected(self):
        sim = sod_sim()
        block = sim.grid.leaf_blocks()[-1]
        sim.grid.interior(block, "pres")[2, 0, 0] = -1.0
        assert any("pres" in v for v in step_guards(sim.grid))

    def test_nonfinite_energy_detected(self):
        sim = sod_sim()
        block = sim.grid.leaf_blocks()[0]
        sim.grid.interior(block, "ener")[1, 0, 0] = np.inf
        assert any("ener" in v for v in step_guards(sim.grid))

    def test_guard_zones_ignored(self):
        """Corruption in guard layers must not trip the interior guards."""
        sim = sod_sim()
        block = sim.grid.leaf_blocks()[0]
        sim.grid.unk[sim.grid.var("dens"), 0, 0, 0, block.slot] = np.nan
        assert step_guards(sim.grid) == []


class TestSupervisedRun:
    def test_clean_run_bit_identical_to_plain_evolve(self):
        """With no faults the supervisor is a transparent wrapper."""
        ref = sod_sim()
        ref.evolve(nend=6)
        sim = sod_sim()
        report = RunSupervisor(sim, handle_signals=False).run(nend=6)
        assert report.steps_completed == 6
        assert report.guard_trips == 0
        assert report.retries == []
        assert sim.t == ref.t
        np.testing.assert_array_equal(sim.grid.unk, ref.grid.unk)
        assert [i.dt for i in sim.history] == [i.dt for i in ref.history]

    def test_tmax_respected(self):
        sim = sod_sim()
        report = RunSupervisor(sim, handle_signals=False).run(tmax=0.02)
        assert sim.t >= 0.02
        assert report.t_final == sim.t

    def test_run_requires_a_limit(self):
        with pytest.raises(PhysicsError):
            RunSupervisor(sod_sim(), handle_signals=False).run()


class TestRetry:
    def test_guard_trip_rolls_back_and_retries(self):
        """An injected NaN costs one retry, then the run completes."""
        chaos = ChaosUnit(faults=("nan",), start=3, every=1000, seed=1)
        sim = sod_sim(chaos)
        sup = RunSupervisor(sim, handle_signals=False)
        report = sup.run(nend=6)
        assert report.steps_completed == 6
        assert report.guard_trips == 1
        assert len(report.retries) == 1
        rec = report.retries[0]
        assert rec.step == 3
        assert len(rec.rejected) == 1
        assert any("dens" in r for r in rec.rejected[0].reasons)
        # the successful retry ran at the backed-off dt
        assert rec.final_dt == pytest.approx(rec.rejected[0].dt * 0.5)
        # the fault fired exactly once: no re-injection on the retry
        assert len(chaos.injections) == 1

    def test_rollback_restores_unit_counters(self):
        """A rolled-back attempt must not leak hydro work counters."""
        ref = sod_sim()
        ref.evolve(nend=2)
        chaos = ChaosUnit(faults=("raise",), start=2, every=1000, seed=1)
        sim = sod_sim(chaos)
        RunSupervisor(sim, handle_signals=False).run(nend=2)
        # step 2 ran twice (failed + retried) but counts once
        assert (sim.unit("hydro").work.zone_sweeps
                == ref.unit("hydro").work.zone_sweeps)
        assert len(sim.history) == 2

    def test_retry_budget_exhausted_raises_stepfailure(self, tmp_path):
        sim = sod_sim()

        def always_fail(dt=None):
            raise PhysicsError("persistent corruption")

        sim.step = always_fail
        sup = RunSupervisor(sim, checkpoint_dir=tmp_path, basenm="t_",
                            max_retries=2, handle_signals=False)
        with pytest.raises(StepFailure) as exc_info:
            sup.run(nend=3)
        failure = exc_info.value
        assert failure.step == 1
        assert len(failure.attempts) == 3  # initial + 2 retries
        assert "persistent corruption" in str(failure)
        # each retry halved dt
        dts = [a.dt for a in failure.attempts]
        assert dts[1] == pytest.approx(dts[0] * 0.5)
        assert dts[2] == pytest.approx(dts[0] * 0.25)
        # the report rode along on the exception, with a resumable
        # checkpoint of the last good state
        report = failure.report
        assert report.failure is not None
        assert report.final_checkpoint is not None
        grid, t, n_step = read_checkpoint(report.final_checkpoint)
        assert n_step == 0

    def test_dt_below_floor_stops_retrying(self):
        sim = sod_sim()

        def always_fail(dt=None):
            raise PhysicsError("bad")

        sim.step = always_fail
        sup = RunSupervisor(sim, dtmin=1.0, max_retries=50,
                            handle_signals=False)
        with pytest.raises(StepFailure) as exc_info:
            sup.run(nend=1)
        # the CFL dt is far below dtmin=1.0: rejected before 50 attempts
        assert len(exc_info.value.attempts) < 50


class TestWorkLogRollback:
    """A rolled-back attempt must leave no step record behind: the
    snapshot rewinds an attached WorkLog with the simulation."""

    @pytest.mark.parametrize("kind", ["nan", "counter_flip"])
    def test_log_matches_history_after_rollback(self, kind):
        sim = build_sim(ChaosUnit(faults=(kind,), start=3, every=1000))
        log = WorkLog.attach(sim, helmholtz_eos=False)
        report = RunSupervisor(sim, handle_signals=False).run(nend=6)
        assert report.guard_trips == 1
        assert len(log.steps) == sim.n_step == 6
        assert ([(rec.n, rec.dt) for rec in log.steps]
                == [(info.n, info.dt) for info in sim.history])


class TestCheckpointCadence:
    def test_rotation_keeps_the_newest(self, tmp_path):
        sim = sod_sim()
        sup = RunSupervisor(sim, checkpoint_dir=tmp_path, basenm="rot_",
                            checkpoint_interval_step=1, checkpoint_keep=2,
                            handle_signals=False)
        report = sup.run(nend=5)
        kept = sorted(p.name for p in tmp_path.glob("rot_chk_*.npz"))
        assert kept == ["rot_chk_0004.npz", "rot_chk_0005.npz"]
        assert len(report.checkpoints) == 5
        # rotated-away sidecars are cleaned up too
        sidecars = list(tmp_path.glob("*.sha256"))
        assert len(sidecars) == 2

    def test_cadence_checkpoints_are_resumable(self, tmp_path):
        sim = sod_sim()
        RunSupervisor(sim, checkpoint_dir=tmp_path, basenm="c_",
                      checkpoint_interval_step=2, checkpoint_keep=3,
                      handle_signals=False).run(nend=4)
        path = tmp_path / "c_chk_0004.npz"
        assert artifacts.verify_checksum(path)
        grid, t, n_step = read_checkpoint(path)
        assert n_step == 4
        assert t == sim.t

    def test_no_dir_means_no_files(self, tmp_path):
        sim = sod_sim()
        report = RunSupervisor(sim, checkpoint_interval_step=1,
                               handle_signals=False).run(nend=3)
        assert report.checkpoints == []
        assert list(tmp_path.iterdir()) == []


class TestFromParams:
    def test_registry_defaults_flow_through(self):
        params = RuntimeParameters()
        params.set("dr_dtmin", 1.0e-9)
        params.set("dr_max_retries", 7)
        params.set("checkpoint_interval_step", 10)
        sup = RunSupervisor.from_params(sod_sim(), params,
                                        handle_signals=False)
        assert sup.dtmin == 1.0e-9
        assert sup.max_retries == 7
        assert sup.checkpoint_interval_step == 10
        assert sup.retry_factor == 0.5  # registered default

    def test_bad_param_values_rejected(self):
        params = RuntimeParameters()
        from repro.util.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            params.set("dr_dt_retry_factor", 1.5)
        with pytest.raises(ConfigurationError):
            params.set("dr_dtmin", -1.0)
        with pytest.raises(ConfigurationError):
            params.set("checkpoint_keep", 0)


class TestGuardViolation:
    def test_violation_message_lists_all(self):
        exc = GuardViolation(["a bad", "b worse"])
        assert "a bad" in str(exc) and "b worse" in str(exc)
        assert isinstance(exc, PhysicsError)
