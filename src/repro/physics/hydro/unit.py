"""The Hydro unit: CFL timestep + one full (Strang-alternated) step.

Mirrors FLASH's ``hy_ppm`` driver structure: per directional sweep the
guard cells are filled, every leaf block is updated, fluxes are matched at
refinement jumps, and the EOS is re-applied to the interiors.  The unit
also keeps :class:`HydroWork` counters for the performance model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import (
    FINE,
    ParameterSpec,
    RecordContext,
    UnitSpec,
    WorkKind,
    unit_registry,
)
from repro.hw import calibration as cal
from repro.mesh.grid import Grid
from repro.mesh.guardcell import BoundaryConditions, fill_guardcells
from repro.perfmodel.workrecord import UnitInvocation
from repro.physics.eos.apply import EosWork, apply_eos
from repro.physics.hydro.riemann import max_wave_speed
from repro.physics.hydro.sweep import STENCIL_GUARDS, sweep_blocks
from repro.util.errors import ConfigurationError, PhysicsError


@dataclass
class HydroWork:
    """Work accounting for the hydro unit (performance model input)."""

    zone_sweeps: int = 0
    guardcell_fills: int = 0
    eos: EosWork = field(default_factory=EosWork)


class HydroUnit:
    """Directionally split compressible hydro on the AMR mesh."""

    def __init__(self, eos, *, cfl: float = 0.4, limiter: str = "mc",
                 bc: BoundaryConditions | None = None,
                 species: tuple[str, ...] = (),
                 composition=None,
                 instrumentation=None) -> None:
        if not 0.0 < cfl <= 1.0:
            raise PhysicsError("CFL number must be in (0, 1]")
        self.eos = eos
        self.cfl = cfl
        self.limiter = limiter
        self.bc = bc or BoundaryConditions()
        self.species = tuple(species)
        self.composition = composition
        #: optional PAPI-style region instrumentation
        #: (:class:`repro.papi.instrument.PapiInstrumentation`): brackets
        #: the hydro sweeps and EOS calls the way the paper's runs did
        self.instrumentation = instrumentation
        self.work = HydroWork()
        self._parity = 0

    # --- timestep ---------------------------------------------------------------
    def timestep(self, grid: Grid) -> float:
        """CFL-limited timestep over all leaf blocks."""
        dt = np.inf
        n = grid.spec.interior_zones
        for block in grid.leaf_blocks():
            prim = {v: grid.interior(block, v)
                    for v in ("dens", "velx", "vely", "velz", "pres")}
            gamc = grid.interior(block, "gamc")
            speed = max_wave_speed(prim, gamc, grid.spec.ndim)
            dx = min(block.deltas(n)[:grid.spec.ndim])
            local = dx / float(speed.max())
            dt = min(dt, local)
        if not np.isfinite(dt) or dt <= 0.0:
            raise PhysicsError("CFL timestep collapsed (bad state?)")
        return self.cfl * dt

    # --- step -------------------------------------------------------------------
    def step(self, grid: Grid, dt: float) -> HydroWork:
        """Advance all blocks by dt (one sweep per dimension)."""
        if grid.spec.nguard < STENCIL_GUARDS:
            raise ConfigurationError(
                f"hydro needs nguard >= {STENCIL_GUARDS} (the MUSCL-Hancock "
                f"stencil reads {STENCIL_GUARDS} guard zones past each "
                f"block edge); the mesh has nguard = {grid.spec.nguard}")
        ndim = grid.spec.ndim
        axes = tuple(range(ndim))
        if self._parity % 2:
            axes = axes[::-1]
        self._parity += 1

        step_work = HydroWork()
        inst = self.instrumentation
        for axis in axes:
            fill_guardcells(grid, self.bc)
            step_work.guardcell_fills += 1
            if inst is not None:
                inst.begin("hydro")
            sweep_blocks(grid, dt, axis, species=self.species,
                         limiter=self.limiter)
            if inst is not None:
                inst.end("hydro")
            step_work.zone_sweeps += (len(grid.leaf_blocks())
                                      * grid.spec.zones_per_block())
            if inst is not None:
                inst.begin("eos")
            ew = apply_eos(grid, self.eos, mode="dens_ei",
                           composition=self.composition, species=self.species)
            if inst is not None:
                inst.end("eos")
            step_work.eos += ew
        self.work.zone_sweeps += step_work.zone_sweeps
        self.work.guardcell_fills += step_work.guardcell_fills
        self.work.eos += step_work.eos
        return step_work


def _record(sim, unit: HydroUnit, ctx: RecordContext) -> list[UnitInvocation]:
    """Per directional sweep: a guard-cell fill, the sweep itself, and the
    mesh-wide EOS re-application (Helmholtz or gamma-law, per the hydro
    unit's attached EOS) with its recorded Newton iteration density."""
    out: list[UnitInvocation] = []
    for axis in range(ctx.ndim):
        out.append(UnitInvocation(unit="guardcell", zones=ctx.zones, axis=axis))
        out.append(UnitInvocation(unit="hydro_sweep", zones=ctx.zones,
                                  axis=axis))
        per_call_iters = ctx.eos_iters // max(ctx.eos_calls, 1)
        out.append(UnitInvocation(
            unit="eos" if ctx.helmholtz_eos else "eos_gamma",
            zones=ctx.zones,
            newton_iterations=per_call_iters if ctx.helmholtz_eos else 0,
        ))
    return out


def _save_state(sim, unit: HydroUnit) -> dict[str, float]:
    """Everything a checkpoint (or a step rollback) must capture to make
    a resumed run's recorded work continue bit-identically."""
    return {
        "parity": unit._parity,
        "zone_sweeps": unit.work.zone_sweeps,
        "guardcell_fills": unit.work.guardcell_fills,
        "eos_zones": unit.work.eos.zones,
        "eos_newton_iterations": unit.work.eos.newton_iterations,
        "eos_calls": unit.work.eos.calls,
    }


def _restore_state(sim, unit: HydroUnit, state: dict[str, float]) -> None:
    unit._parity = int(state["parity"])
    unit.work.zone_sweeps = int(state["zone_sweeps"])
    unit.work.guardcell_fills = int(state["guardcell_fills"])
    unit.work.eos.zones = int(state["eos_zones"])
    unit.work.eos.newton_iterations = int(state["eos_newton_iterations"])
    unit.work.eos.calls = int(state["eos_calls"])


HYDRO_UNIT = unit_registry.register(UnitSpec(
    name="hydro",
    description="directionally split compressible hydrodynamics (MUSCL "
                "reconstruction, HLLC fluxes, flux conservation at jumps)",
    phase=10,
    timer="hydro",
    implements=(HydroUnit,),
    step=lambda sim, unit, dt: unit.step(sim.grid, dt),
    timestep=lambda sim, unit: unit.timestep(sim.grid),
    record=_record,
    provides_bc=True,
    save_state=_save_state,
    restore_state=_restore_state,
    parameters=(
        ParameterSpec("cfl", 0.4, doc="CFL stability factor"),
        ParameterSpec("smlrho", 1.0e-12, doc="density floor"),
        ParameterSpec("smallp", 1.0e-12, doc="pressure floor"),
    ),
    work_kinds=(
        WorkKind("hydro_sweep", cal.HYDRO_SWEEP, "hydro", FINE,
                 region="hydro"),
    ),
))

__all__ = ["HydroUnit", "HydroWork", "HYDRO_UNIT"]
