"""Tests for checkpoint-restart continuation and the analysis utilities."""

import numpy as np
import pytest

from repro.analysis.profiles import (
    line_profile,
    peak_location,
    radial_profile,
    scatter_variable,
)
from repro.driver.io import restart_simulation, write_checkpoint
from repro.driver.simulation import Simulation
from repro.mesh.grid import Grid, MeshSpec
from repro.mesh.refine import refine_pass
from repro.mesh.tree import AMRTree
from repro.physics.eos import GammaLawEOS
from repro.physics.hydro.unit import HydroUnit
from repro.setups.sedov import sedov_setup
from repro.setups.sod import SodProblem


def sod_sim(nrefs=0, max_level=1):
    tree = AMRTree(ndim=1, nblockx=4, max_level=max_level,
                   domain=((0, 1), (0, 1), (0, 1)))
    spec = MeshSpec(ndim=1, nxb=16, nyb=1, nzb=1, nguard=4, maxblocks=32)
    grid = Grid(tree, spec)
    eos = GammaLawEOS(gamma=1.4)
    SodProblem().initialize(grid, eos)
    return Simulation(grid, HydroUnit(eos, cfl=0.6), nrefs=nrefs), eos


class TestRestart:
    def test_bitwise_continuation(self, tmp_path):
        """run 8 steps straight == run 5, checkpoint, restart, run 3."""
        ref, _ = sod_sim()
        ref.evolve(nend=8)

        sim, eos = sod_sim()
        sim.evolve(nend=5)
        path = write_checkpoint(sim.grid, tmp_path / "chk.npz",
                                time=sim.t, n_step=sim.n_step)

        resumed = restart_simulation(path, HydroUnit(eos, cfl=0.6), nrefs=0)
        assert resumed.n_step == 5
        assert resumed.t == pytest.approx(sim.t)
        resumed.evolve(nend=8)

        assert resumed.t == pytest.approx(ref.t, rel=1e-14)
        for bid in ref.grid.tree.leaves():
            np.testing.assert_array_equal(
                resumed.grid.interior(bid, "dens"),
                ref.grid.interior(bid, "dens"))
            np.testing.assert_array_equal(
                resumed.grid.interior(bid, "velx"),
                ref.grid.interior(bid, "velx"))

    def test_history_continues(self, tmp_path):
        """A checkpoint written with ``sim=`` carries the step history:
        the resumed run's history equals the straight run's."""
        ref, _ = sod_sim()
        ref.evolve(nend=6)
        sim, eos = sod_sim()
        sim.evolve(nend=4)
        path = write_checkpoint(sim.grid, tmp_path / "chk.npz", sim=sim)
        resumed = restart_simulation(path, HydroUnit(eos, cfl=0.6), nrefs=0)
        assert resumed.history == sim.history
        resumed.evolve(nend=6)
        assert resumed.history == ref.history

    def test_restart_2d_with_amr_topology(self, tmp_path):
        """A refined 2-d mesh restarts with the same tree and data."""
        tree = AMRTree(ndim=2, nblockx=2, nblocky=2, max_level=2,
                       domain=((0, 1), (0, 1), (0, 1)))
        spec = MeshSpec(ndim=2, nxb=16, nyb=16, nzb=1, nguard=4,
                        maxblocks=128)
        grid = Grid(tree, spec)
        eos = GammaLawEOS(gamma=1.4)
        sedov_setup(grid, eos, center=(0.5, 0.5, 0.0))
        refine_pass(grid, "pres", refine_cutoff=0.6, derefine_cutoff=0.1)
        sedov_setup(grid, eos, center=(0.5, 0.5, 0.0))
        sim = Simulation(grid, HydroUnit(eos, cfl=0.4), nrefs=0, dtinit=1e-5)
        sim.evolve(nend=3)
        path = write_checkpoint(grid, tmp_path / "c.npz", time=sim.t,
                                n_step=sim.n_step)
        resumed = restart_simulation(path, HydroUnit(eos, cfl=0.4), nrefs=0)
        assert resumed.grid.tree.n_leaves == grid.tree.n_leaves
        resumed.step()
        assert resumed.n_step == 4


class TestAnalysis:
    @pytest.fixture(scope="class")
    def blast(self):
        tree = AMRTree(ndim=2, nblockx=2, nblocky=2, max_level=1,
                       domain=((0, 1), (0, 1), (0, 1)))
        spec = MeshSpec(ndim=2, nxb=16, nyb=16, nzb=1, nguard=4,
                        maxblocks=64)
        grid = Grid(tree, spec)
        eos = GammaLawEOS(gamma=1.4)
        sedov_setup(grid, eos, center=(0.5, 0.5, 0.0))
        sim = Simulation(grid, HydroUnit(eos, cfl=0.4), nrefs=0, dtinit=1e-5)
        sim.evolve(nend=15)
        return grid

    def test_scatter_covers_all_zones(self, blast):
        x, y, z, vals, vols = scatter_variable(blast, "dens")
        assert x.size == blast.tree.n_leaves * 256
        assert vols.sum() == pytest.approx(1.0)  # total domain area

    def test_radial_profile_monotone_bins(self, blast):
        r, d = radial_profile(blast, "dens", center=(0.5, 0.5, 0.0),
                              n_bins=16)
        assert r.shape == d.shape == (16,)
        assert (np.diff(r) > 0).all()
        assert np.nanmax(d) > 1.0  # the shock's compression shows up

    def test_peak_location_finds_shock(self, blast):
        r_peak, d_peak = peak_location(blast, "dens", center=(0.5, 0.5, 0.0))
        assert 0.0 < r_peak < 0.75
        assert d_peak > 1.0

    def test_line_profile_sorted(self, blast):
        x, d = line_profile(blast, "dens", axis=0)
        assert (np.diff(x) >= 0).all()
        assert d.size == x.size

    def test_mass_from_scatter_matches_grid_total(self, blast):
        x, y, z, dens, vols = scatter_variable(blast, "dens")
        assert (dens * vols).sum() == pytest.approx(
            blast.total("dens", weight=None), rel=1e-12)
