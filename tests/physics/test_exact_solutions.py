"""The hydro solver against exact solutions.

Toro's ch. 4 Riemann problems (E. F. Toro, *Riemann Solvers and
Numerical Methods for Fluid Dynamics*, 3rd ed., Table 4.3 for the star
states) run on 3-d blocks for every limiter and every sweep axis, and a
cylindrical Sedov blast against :class:`SedovSolution` at two times.
The published star states check the exact solver; the exact solver
then checks the simulation through a per-field L1 threshold table.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis import peak_location
from repro.driver.simulation import Simulation
from repro.mesh.grid import Grid, MeshSpec
from repro.mesh.guardcell import BC_REFLECT, BoundaryConditions
from repro.mesh.tree import AMRTree
from repro.physics.eos import GammaLawEOS
from repro.physics.eos.apply import apply_eos
from repro.physics.hydro.unit import HydroUnit
from repro.setups.sedov import SedovSolution, sedov_setup
from repro.setups.sod import SodProblem, sod_exact

GAMMA = 1.4
VELS = ("velx", "vely", "velz")


@dataclass(frozen=True)
class RiemannState:
    rho: float
    u: float
    p: float


@dataclass(frozen=True)
class RiemannSolution:
    """The published star region: pressure, velocity, and the density
    either side of the contact."""

    p_star: float
    u_star: float
    rho_star_l: float
    rho_star_r: float


@dataclass(frozen=True)
class RiemannProblem:
    name: str
    left: RiemannState
    right: RiemannState
    final_time: float
    solution: RiemannSolution

    def setup(self) -> SodProblem:
        return SodProblem(gamma=GAMMA, rho_l=self.left.rho, u_l=self.left.u,
                          p_l=self.left.p, rho_r=self.right.rho,
                          u_r=self.right.u, p_r=self.right.p, x0=0.5)


RIEMANN_PROBLEMS = [
    RiemannProblem(
        name="sod",
        left=RiemannState(rho=1.0, u=0.0, p=1.0),
        right=RiemannState(rho=0.125, u=0.0, p=0.1),
        final_time=0.25,
        solution=RiemannSolution(p_star=0.30313, u_star=0.92745,
                                 rho_star_l=0.42632, rho_star_r=0.26557),
    ),
    RiemannProblem(
        name="123",
        left=RiemannState(rho=1.0, u=-2.0, p=0.4),
        right=RiemannState(rho=1.0, u=2.0, p=0.4),
        final_time=0.15,
        solution=RiemannSolution(p_star=0.00189, u_star=0.0,
                                 rho_star_l=0.02185, rho_star_r=0.02185),
    ),
    RiemannProblem(
        name="left_blast",
        left=RiemannState(rho=1.0, u=0.0, p=1000.0),
        right=RiemannState(rho=1.0, u=0.0, p=0.01),
        final_time=0.012,
        solution=RiemannSolution(p_star=460.894, u_star=19.5975,
                                 rho_star_l=0.57506, rho_star_r=5.99924),
    ),
]

#: L1 error thresholds (dens, normal velocity, pres) at 64 zones, about
#: 1.25x what the scheme measures; a first-order or broken sweep
#: exceeds them
RESULTS_NORM = {
    "sod-minmod": (0.0125, 0.023, 0.010),
    "sod-mc": (0.0087, 0.017, 0.0064),
    "sod-vanleer": (0.0092, 0.018, 0.0069),
    "123-minmod": (0.0176, 0.059, 0.0115),
    "123-mc": (0.019, 0.060, 0.0074),
    "123-vanleer": (0.016, 0.049, 0.0073),
    "left_blast-minmod": (0.25, 0.79, 15.5),
    "left_blast-mc": (0.21, 0.62, 11.2),
    "left_blast-vanleer": (0.22, 0.66, 12.2),
}


@pytest.mark.parametrize("problem", RIEMANN_PROBLEMS, ids=lambda p: p.name)
def test_exact_solver_star_states(problem):
    """``sod_exact`` reproduces the published star region on both sides
    of the contact."""
    sol = problem.solution
    t = problem.final_time
    x = 0.5 + (sol.u_star + np.array([-1e-3, 1e-3])) * t
    dens, vel, pres = sod_exact(problem.setup(), x, t)
    assert dens[0] == pytest.approx(sol.rho_star_l, rel=2e-4)
    assert dens[1] == pytest.approx(sol.rho_star_r, rel=2e-4)
    np.testing.assert_allclose(pres, sol.p_star, rtol=3e-3)
    np.testing.assert_allclose(vel, sol.u_star, atol=1e-4, rtol=1e-4)


def run_riemann(problem: RiemannProblem, axis: int, limiter: str,
                nblocks: int = 4, nzones: int = 16):
    """Evolve ``problem`` along ``axis`` of a 3-d mesh (``nblocks``
    blocks of ``nzones`` zones along it, 4 zones across) and return the
    L1 errors of (dens, normal velocity, pres)."""
    nb = [1, 1, 1]
    nb[axis] = nblocks
    nz = [4, 4, 4]
    nz[axis] = nzones
    tree = AMRTree(ndim=3, nblockx=nb[0], nblocky=nb[1], nblockz=nb[2],
                   max_level=0, domain=((0, 1), (0, 1), (0, 1)))
    grid = Grid(tree, MeshSpec(ndim=3, nxb=nz[0], nyb=nz[1], nzb=nz[2],
                               nguard=2, maxblocks=nblocks))
    eos = GammaLawEOS(gamma=GAMMA)
    vn = VELS[axis]
    for b in grid.leaf_blocks():
        shape = grid.interior(b, "dens").shape
        left = np.broadcast_to(grid.cell_centers(b)[axis] < 0.5, shape)
        dens = np.where(left, problem.left.rho, problem.right.rho)
        pres = np.where(left, problem.left.p, problem.right.p)
        vel = np.where(left, problem.left.u, problem.right.u)
        eint = pres / ((GAMMA - 1.0) * dens)
        grid.interior(b, "dens")[:] = dens
        grid.interior(b, "pres")[:] = pres
        grid.interior(b, vn)[:] = vel
        grid.interior(b, "eint")[:] = eint
        grid.interior(b, "ener")[:] = eint + 0.5 * vel**2
    apply_eos(grid, eos)

    hydro = HydroUnit(eos, cfl=0.6, limiter=limiter)
    t = 0.0
    while t < problem.final_time:
        dt = min(hydro.timestep(grid), problem.final_time - t)
        hydro.step(grid, dt)
        t += dt

    x, got = [], {"dens": [], vn: [], "pres": []}
    for b in grid.leaf_blocks():
        shape = grid.interior(b, "dens").shape
        x.append(np.broadcast_to(grid.cell_centers(b)[axis], shape).ravel())
        for name in got:
            got[name].append(grid.interior(b, name).ravel())
    exact = sod_exact(problem.setup(), np.concatenate(x), t)
    return tuple(float(np.abs(np.concatenate(got[name]) - ref).mean())
                 for name, ref in zip(got, exact))


@pytest.mark.parametrize("limiter", ["minmod", "mc", "vanleer"])
@pytest.mark.parametrize("problem", RIEMANN_PROBLEMS, ids=lambda p: p.name)
def test_riemann_matrix(problem, limiter):
    """Every sweep axis meets the problem's L1 thresholds, and the three
    axes agree (the transverse sweeps of a planar problem are exact
    no-ops)."""
    norms = RESULTS_NORM[f"{problem.name}-{limiter}"]
    errors = [run_riemann(problem, axis, limiter) for axis in range(3)]
    for axis, err in enumerate(errors):
        for field, e, bound in zip(("dens", "vel", "pres"), err, norms):
            assert e < bound, (f"{problem.name}-{limiter} axis {axis}: "
                               f"L1({field}) = {e:.5g} >= {bound}")
    np.testing.assert_allclose(errors[1], errors[0], rtol=1e-12)
    np.testing.assert_allclose(errors[2], errors[0], rtol=1e-12)


class TestCylindricalSedov:
    """A 2-d quadrant blast (reflecting at x = 0 and y = 0) against the
    j = 2 similarity solution carrying the energy actually deposited
    (the zone-quantised deposit holds about 0.83 of the nominal)."""

    TIMES = (0.05, 0.1)

    @pytest.fixture(scope="class")
    def snapshots(self):
        tree = AMRTree(ndim=2, nblockx=4, nblocky=4, max_level=0,
                       domain=((0, 1), (0, 1), (0, 1)))
        grid = Grid(tree, MeshSpec(ndim=2, nxb=16, nyb=16, nzb=1,
                                   nguard=4, maxblocks=16))
        eos = GammaLawEOS(gamma=GAMMA)
        sedov_setup(grid, eos, energy=1.0, rho0=1.0, p_ambient=1e-6,
                    center=(0.0, 0.0, 0.0))
        # the quadrant holds a quarter of the symmetric blast
        energy = 4.0 * grid.total("ener")
        bc = BoundaryConditions(x=(BC_REFLECT, "outflow"),
                                y=(BC_REFLECT, "outflow"))
        sim = Simulation(grid, HydroUnit(eos, cfl=0.5, bc=bc), nrefs=0,
                         dtinit=1e-6)
        out = []
        for tmax in self.TIMES:
            sim.evolve(tmax=tmax, nend=10_000)
            radius, peak = peak_location(grid, "dens")
            out.append((sim.t, radius, peak))
        return SedovSolution(gamma=GAMMA, j=2, energy=energy, rho0=1.0), out

    def test_shock_radius(self, snapshots):
        exact, out = snapshots
        for t, radius, _ in out:
            assert radius == pytest.approx(float(exact.shock_radius(t)),
                                           rel=0.05)
        (t1, r1, _), (t2, r2, _) = out
        # R ~ t^(2/(j+2)) = t^(1/2)
        assert r2 / r1 == pytest.approx((t2 / t1) ** 0.5, rel=0.03)

    def test_post_shock_compression(self, snapshots):
        """The resolved peak climbs towards (g+1)/(g-1) = 6 as the shell
        spreads over more zones, and never overshoots it."""
        exact, out = snapshots
        limit = exact.shock_compression()
        (_, _, c1), (_, _, c2) = out
        assert 0.45 * limit < c1 < c2 < 1.02 * limit
        assert c2 > 0.5 * limit
