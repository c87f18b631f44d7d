"""Hydro solver tests: Riemann exactness, Sod vs analytic, conservation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh.block import BlockId
from repro.mesh.grid import Grid, MeshSpec
from repro.mesh.refine import refine_block
from repro.mesh.tree import AMRTree
from repro.physics.eos import GammaLawEOS
from repro.physics.eos.apply import apply_eos
from repro.physics.hydro import sweep
from repro.physics.hydro.reconstruct import inner_slopes
from repro.physics.hydro.riemann import hllc_flux, max_wave_speed
from repro.physics.hydro.unit import HydroUnit
from repro.setups.sod import SodProblem, sod_exact
from repro.util.errors import ConfigurationError, PhysicsError


def make_state(rho, u, p, gamma=1.4, n=8):
    return {
        "dens": np.full(n, rho), "velx": np.full(n, u),
        "vely": np.zeros(n), "velz": np.zeros(n),
        "pres": np.full(n, p), "game": np.full(n, gamma),
    }


def face_values(q, limiter="mc"):
    """Low/high face values of the cells of ``q`` with both neighbours,
    as the sweep builds them from :func:`inner_slopes`."""
    slope = 0.5 * inner_slopes(q, 0, limiter)
    return q[1:-1] - slope, q[1:-1] + slope


class TestReconstruct:
    def test_constant_has_zero_slope(self):
        q = np.full((10, 4, 1), 3.0)
        assert np.allclose(inner_slopes(q, 0), 0.0)

    def test_linear_slope_recovered(self):
        q = np.arange(10.0).reshape(10, 1, 1)
        s = inner_slopes(q, 0, "mc")
        assert s.shape == (8, 1, 1)
        assert np.allclose(s, 1.0)

    def test_limiter_flattens_extrema(self):
        q = np.array([0.0, 1.0, 0.0]).reshape(3, 1, 1)
        for lim in ("minmod", "mc", "vanleer"):
            s = inner_slopes(q, 0, lim)
            assert s[0, 0, 0] == 0.0

    def test_unknown_limiter(self):
        with pytest.raises(ConfigurationError):
            inner_slopes(np.zeros((4, 1, 1)), 0, "superbee9000")

    def test_face_states_bracket_cell(self):
        q = np.array([1.0, 2.0, 4.0, 8.0]).reshape(4, 1, 1)
        lo, hi = face_values(q)
        assert (lo <= q[1:-1] + 1e-14).all()
        assert (hi >= q[1:-1] - 1e-14).all()

    @settings(max_examples=40)
    @given(st.lists(st.floats(-100, 100), min_size=4, max_size=12))
    def test_tvd_property(self, values):
        """Limited face values never exceed neighbour cell ranges."""
        q = np.array(values).reshape(-1, 1, 1)
        lo, hi = face_values(q, "mc")
        for i in range(1, len(values) - 1):
            lo_n = min(values[i - 1], values[i], values[i + 1])
            hi_n = max(values[i - 1], values[i], values[i + 1])
            assert lo_n - 1e-9 <= lo[i - 1, 0, 0] <= hi_n + 1e-9
            assert lo_n - 1e-9 <= hi[i - 1, 0, 0] <= hi_n + 1e-9


class TestHLLC:
    def test_uniform_state_flux_exact(self):
        """For identical L/R states the HLLC flux equals the physical flux."""
        s = make_state(1.0, 2.0, 3.0)
        f = hllc_flux(s, s, axis=0)
        eint = 3.0 / (0.4 * 1.0)
        etot = 1.0 * (eint + 0.5 * 4.0)
        assert np.allclose(f["dens"], 1.0 * 2.0)
        assert np.allclose(f["momx"], 1.0 * 4.0 + 3.0)
        assert np.allclose(f["ener"], 2.0 * (etot + 3.0))

    def test_supersonic_upwinding(self):
        left = make_state(1.0, 10.0, 1.0)
        right = make_state(2.0, 10.0, 2.0)
        f = hllc_flux(left, right, axis=0)
        f_l = hllc_flux(left, left, axis=0)
        assert np.allclose(f["dens"], f_l["dens"])

    def test_symmetry(self):
        """Mirrored states give mirrored fluxes."""
        left = make_state(1.0, 1.0, 1.0)
        right = make_state(0.5, -1.0, 0.4)
        f = hllc_flux(left, right, axis=0)
        ml = {k: np.array(v) for k, v in right.items()}
        mr = {k: np.array(v) for k, v in left.items()}
        ml["velx"], mr["velx"] = -ml["velx"], -mr["velx"]
        fm = hllc_flux(ml, mr, axis=0)
        assert np.allclose(f["dens"], -fm["dens"])
        assert np.allclose(f["momx"], fm["momx"])
        assert np.allclose(f["ener"], -fm["ener"])

    def test_contact_preservation(self):
        """A stationary contact discontinuity produces zero mass flux."""
        left = make_state(1.0, 0.0, 1.0)
        right = make_state(10.0, 0.0, 1.0)
        f = hllc_flux(left, right, axis=0)
        assert np.allclose(f["dens"], 0.0, atol=1e-14)
        assert np.allclose(f["ener"], 0.0, atol=1e-14)

    def test_species_upwinded(self):
        left = make_state(1.0, 1.0, 1.0)
        right = make_state(1.0, 1.0, 1.0)
        left["fl01"] = np.ones(8)
        right["fl01"] = np.zeros(8)
        f = hllc_flux(left, right, axis=0, species=("fl01",))
        assert np.allclose(f["fl01"], 1.0)  # flow to the right carries left

    def test_max_wave_speed(self):
        prim = make_state(1.0, 3.0, 1.4)
        s = max_wave_speed(prim, np.full(8, 1.4), ndim=1)
        assert np.allclose(s, 3.0 + np.sqrt(1.4 * 1.4 / 1.0))


def run_sod(nxb=32, nblockx=4, t_end=0.2, cfl=0.6, max_level=0):
    tree = AMRTree(ndim=1, nblockx=nblockx, max_level=max_level,
                   domain=((0, 1), (0, 1), (0, 1)))
    spec = MeshSpec(ndim=1, nxb=nxb, nyb=1, nzb=1, nguard=4,
                    maxblocks=64)
    grid = Grid(tree, spec)
    eos = GammaLawEOS(gamma=1.4)
    problem = SodProblem()
    problem.initialize(grid, eos)
    hydro = HydroUnit(eos, cfl=cfl)
    t = 0.0
    while t < t_end:
        dt = min(hydro.timestep(grid), t_end - t)
        hydro.step(grid, dt)
        t += dt
    xs, ds, us, ps = [], [], [], []
    for b in grid.leaf_blocks():
        x, _, _ = grid.cell_centers(b)
        xs.append(np.broadcast_to(x, grid.interior(b, "dens").shape).ravel())
        ds.append(grid.interior(b, "dens").ravel())
        us.append(grid.interior(b, "velx").ravel())
        ps.append(grid.interior(b, "pres").ravel())
    xs = np.concatenate(xs)
    order = np.argsort(xs)
    return (xs[order], np.concatenate(ds)[order], np.concatenate(us)[order],
            np.concatenate(ps)[order], grid, problem)


class TestSod:
    def test_matches_exact_solution(self):
        x, d, u, p, grid, problem = run_sod()
        de, ue, pe = sod_exact(problem, x, 0.2)
        # L1 errors typical of a 128-zone second-order scheme
        assert np.abs(d - de).mean() < 0.01
        assert np.abs(p - pe).mean() < 0.01
        assert np.abs(u - ue).mean() < 0.02

    def test_conservation_exact(self):
        _, _, _, _, grid, _ = run_sod(t_end=0.1)
        # outflow BCs have not been reached by t=0.1: totals preserved
        assert grid.total("dens", weight=None) == pytest.approx(
            0.5 * 1.0 + 0.5 * 0.125, rel=1e-12)

    def test_convergence_with_resolution(self):
        """Halving dx must shrink the L1 density error."""
        x1, d1, _, _, _, prob = run_sod(nxb=16)
        x2, d2, _, _, _, _ = run_sod(nxb=32)
        e1 = np.abs(d1 - sod_exact(prob, x1, 0.2)[0]).mean()
        e2 = np.abs(d2 - sod_exact(prob, x2, 0.2)[0]).mean()
        assert e2 < 0.75 * e1

    def test_positivity(self):
        _, d, _, p, _, _ = run_sod(cfl=0.8)
        assert (d > 0).all() and (p > 0).all()


class TestAMRConservation:
    def test_mass_energy_conserved_across_jump(self):
        """Hydro over a refinement jump conserves mass and energy exactly
        (the in-sweep flux matching at work)."""
        tree = AMRTree(ndim=2, nblockx=2, nblocky=2, max_level=2,
                       periodic=(True, True, False),
                       domain=((0, 1), (0, 1), (0, 1)))
        spec = MeshSpec(ndim=2, nxb=8, nyb=8, nzb=1, nguard=4, maxblocks=64)
        grid = Grid(tree, spec)
        eos = GammaLawEOS(gamma=1.4)
        refine_block(grid, BlockId(0, 1, 0))
        rng = np.random.default_rng(5)
        for b in grid.leaf_blocks():
            shape = grid.interior(b, "dens").shape
            grid.interior(b, "dens")[:] = 1.0 + 0.3 * rng.random(shape)
            grid.interior(b, "pres")[:] = 1.0 + 0.3 * rng.random(shape)
            grid.interior(b, "velx")[:] = 0.2 * (rng.random(shape) - 0.5)
            grid.interior(b, "vely")[:] = 0.2 * (rng.random(shape) - 0.5)
            eint = grid.interior(b, "pres") / (0.4 * grid.interior(b, "dens"))
            ke = 0.5 * (grid.interior(b, "velx")**2 + grid.interior(b, "vely")**2)
            grid.interior(b, "eint")[:] = eint
            grid.interior(b, "ener")[:] = eint + ke
        apply_eos(grid, eos)
        from repro.mesh.guardcell import BoundaryConditions

        hydro = HydroUnit(eos, cfl=0.4)
        mass0 = grid.total("dens", weight=None)
        ener0 = grid.total("ener")
        for _ in range(5):
            hydro.step(grid, hydro.timestep(grid))
        assert grid.total("dens", weight=None) == pytest.approx(mass0, rel=1e-12)
        assert grid.total("ener") == pytest.approx(ener0, rel=1e-10)

    def test_without_flux_matching_not_conserved(self, monkeypatch):
        """Control: switching the flux matching off breaks conservation."""
        monkeypatch.setattr(sweep, "_match_fluxes", lambda *args: None)
        tree = AMRTree(ndim=2, nblockx=2, nblocky=2, max_level=2,
                       periodic=(True, True, False),
                       domain=((0, 1), (0, 1), (0, 1)))
        spec = MeshSpec(ndim=2, nxb=8, nyb=8, nzb=1, nguard=4, maxblocks=64)
        grid = Grid(tree, spec)
        eos = GammaLawEOS(gamma=1.4)
        refine_block(grid, BlockId(0, 1, 0))
        for b in grid.leaf_blocks():
            x, y, _ = grid.cell_centers(b)
            shape = grid.interior(b, "dens").shape
            # an asymmetric density bump straddling the refinement jump
            grid.interior(b, "dens")[:] = 1.0 + np.broadcast_to(
                np.exp(-(((x - 0.5) ** 2 + (y - 0.3) ** 2) / 0.02)), shape)
            grid.interior(b, "pres")[:] = 1.0
            grid.interior(b, "velx")[:] = 1.0
            eint = grid.interior(b, "pres") / (0.4 * grid.interior(b, "dens"))
            grid.interior(b, "eint")[:] = eint
            grid.interior(b, "ener")[:] = eint + 0.5
        apply_eos(grid, eos)
        hydro = HydroUnit(eos, cfl=0.4)
        mass0 = grid.total("dens", weight=None)
        for _ in range(5):
            hydro.step(grid, hydro.timestep(grid))
        assert abs(grid.total("dens", weight=None) - mass0) > 1e-13


class TestMatchFluxes:
    """The sweep's flux matching on a hand-made flux array: a coarse
    block's face at a refinement jump takes the area average of the
    touching fine faces, and nothing else changes."""

    def _setup(self):
        tree = AMRTree(ndim=2, nblockx=2, nblocky=2, max_level=2,
                       periodic=(False, False, False),
                       domain=((0, 1), (0, 1), (0, 1)))
        spec = MeshSpec(ndim=2, nxb=8, nyb=8, nzb=1, nguard=4, maxblocks=64)
        grid = Grid(tree, spec)
        refine_block(grid, BlockId(0, 1, 0))
        blocks = grid.leaf_blocks()
        # (nkeys, faces along x, interior y, z, blocks), as the x-sweep
        # fills it
        shape = (2, 9, 8, 1, len(blocks))
        return grid, blocks, shape

    def test_matching_fluxes_no_correction(self):
        """Where fine and coarse fluxes agree, matching changes nothing."""
        grid, blocks, shape = self._setup()
        flux = np.full(shape, 2.5)
        sweep._match_fluxes(grid, blocks, flux, 0)
        assert (flux == 2.5).all()

    def test_coarse_face_takes_fine_average(self):
        grid, blocks, shape = self._setup()
        flux = np.random.default_rng(7).random(shape)
        before = flux.copy()
        sweep._match_fluxes(grid, blocks, flux, 0)
        index_of = {b.bid: i for i, b in enumerate(blocks)}
        coarse = index_of[BlockId(0, 0, 0)]
        # the coarse block's high x face (face 8) abuts the two children
        # of block (0, 1, 0); each child's low face (face 0) covers half
        # of it, two fine zones per coarse zone
        expected = before[:, 8, :, 0, coarse].copy()
        for iy in (0, 1):
            fine = before[:, 0, :, 0, index_of[BlockId(1, 2, iy)]]
            expected[:, 4 * iy:4 * iy + 4] = fine.reshape(2, 4, 2).mean(-1)
        np.testing.assert_array_equal(flux[:, 8, :, 0, coarse], expected)
        # no other face moved
        changed = flux != before
        changed[:, 8, :, 0, coarse] = False
        assert not changed.any()


class TestHydroUnit:
    def test_bad_cfl_rejected(self):
        with pytest.raises(PhysicsError):
            HydroUnit(GammaLawEOS(), cfl=1.5)

    @pytest.mark.parametrize("nguard", [0, 1])
    def test_shallow_guards_rejected(self, nguard):
        """The MUSCL-Hancock stencil reads two guard zones past each
        block edge; a shallower mesh is refused before anything runs."""
        tree = AMRTree(ndim=1, nblockx=2, max_level=0,
                       domain=((0, 1), (0, 1), (0, 1)))
        grid = Grid(tree, MeshSpec(ndim=1, nxb=8, nyb=1, nzb=1,
                                   nguard=nguard, maxblocks=4))
        eos = GammaLawEOS(gamma=1.4)
        SodProblem().initialize(grid, eos)
        before = grid.unk.copy()
        hydro = HydroUnit(eos)
        with pytest.raises(ConfigurationError, match="nguard"):
            hydro.step(grid, 1e-4)
        np.testing.assert_array_equal(grid.unk, before)
        assert hydro.work.zone_sweeps == 0

    def test_timestep_scales_with_dx(self):
        _, _, _, _, grid, _ = run_sod(t_end=0.0, max_level=1)
        hydro = HydroUnit(GammaLawEOS(gamma=1.4))
        dt1 = hydro.timestep(grid)
        refine_block(grid, BlockId(0, 0, 0))
        dt2 = hydro.timestep(grid)
        assert dt2 == pytest.approx(dt1 / 2, rel=0.3)

    def test_work_counters_accumulate(self):
        _, _, _, _, grid, _ = run_sod(t_end=0.05)
        # run_sod used its own unit; make a fresh one and step twice
        hydro = HydroUnit(GammaLawEOS(gamma=1.4))
        w1 = hydro.step(grid, 1e-4)
        assert w1.zone_sweeps == grid.tree.n_leaves * 32
        assert hydro.work.eos.calls == 1
        hydro.step(grid, 1e-4)
        assert hydro.work.zone_sweeps == 2 * w1.zone_sweeps


class TestAMRConservation3D:
    def test_mass_energy_conserved_across_jump_3d(self):
        """The 3-d flux-matching path (face restriction over two transverse
        axes, four children per face) conserves exactly too."""
        tree = AMRTree(ndim=3, nblockx=2, nblocky=2, nblockz=2, max_level=2,
                       periodic=(True, True, True),
                       domain=((0, 1), (0, 1), (0, 1)))
        spec = MeshSpec(ndim=3, nxb=8, nyb=8, nzb=8, nguard=4, maxblocks=64)
        grid = Grid(tree, spec)
        eos = GammaLawEOS(gamma=1.4)
        refine_block(grid, BlockId(0, 1, 0, 1))
        rng = np.random.default_rng(11)
        for b in grid.leaf_blocks():
            shape = grid.interior(b, "dens").shape
            grid.interior(b, "dens")[:] = 1.0 + 0.3 * rng.random(shape)
            grid.interior(b, "pres")[:] = 1.0 + 0.3 * rng.random(shape)
            for v in ("velx", "vely", "velz"):
                grid.interior(b, v)[:] = 0.2 * (rng.random(shape) - 0.5)
            eint = grid.interior(b, "pres") / (0.4 * grid.interior(b, "dens"))
            ke = 0.5 * sum(grid.interior(b, v) ** 2
                           for v in ("velx", "vely", "velz"))
            grid.interior(b, "eint")[:] = eint
            grid.interior(b, "ener")[:] = eint + ke
        apply_eos(grid, eos)
        hydro = HydroUnit(eos, cfl=0.4)
        mass0 = grid.total("dens", weight=None)
        ener0 = grid.total("ener")
        for _ in range(3):
            hydro.step(grid, hydro.timestep(grid))
        assert grid.total("dens", weight=None) == pytest.approx(mass0,
                                                                rel=1e-12)
        assert grid.total("ener") == pytest.approx(ener0, rel=1e-10)

    def test_species_conserved_across_jump_3d(self):
        """Passive scalars ride the same fluxes: rho*X conserved too."""
        from repro.mesh.grid import VariableRegistry

        tree = AMRTree(ndim=3, nblockx=2, nblocky=2, nblockz=2, max_level=2,
                       periodic=(True, True, True),
                       domain=((0, 1), (0, 1), (0, 1)))
        spec = MeshSpec(ndim=3, nxb=8, nyb=8, nzb=8, nguard=4, maxblocks=64)
        grid = Grid(tree, spec, VariableRegistry().extended("fl01", "fl02"))
        eos = GammaLawEOS(gamma=1.4)
        refine_block(grid, BlockId(0, 0, 1, 0))
        rng = np.random.default_rng(12)
        for b in grid.leaf_blocks():
            shape = grid.interior(b, "dens").shape
            grid.interior(b, "dens")[:] = 1.0 + 0.3 * rng.random(shape)
            grid.interior(b, "pres")[:] = 1.0
            grid.interior(b, "velx")[:] = 0.5
            grid.interior(b, "fl01")[:] = rng.random(shape)
            eint = grid.interior(b, "pres") / (0.4 * grid.interior(b, "dens"))
            grid.interior(b, "eint")[:] = eint
            grid.interior(b, "ener")[:] = eint + 0.125
        apply_eos(grid, eos)
        hydro = HydroUnit(eos, cfl=0.4, species=("fl01", "fl02"))
        burned0 = grid.total("fl01")  # integral of rho * fl01
        for _ in range(3):
            hydro.step(grid, hydro.timestep(grid))
        assert grid.total("fl01") == pytest.approx(burned0, rel=1e-11)
