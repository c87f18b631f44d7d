"""Compressible hydrodynamics: dimensionally split MUSCL-Hancock + HLLC.

FLASH's default hydro solver is the directionally split PPM of the
original FLASH paper; we substitute the standard MUSCL-Hancock scheme
(Toro ch. 14) with an HLLC Riemann solver — the same class of method
(finite-volume, dimensionally split, second order, guard-cell driven)
with the same memory access structure, which is what the reproduction
needs (DESIGN.md section 2).
"""

from repro.physics.hydro.riemann import hllc_flux
from repro.physics.hydro.sweep import sweep_blocks
from repro.physics.hydro.unit import HydroUnit

__all__ = [
    "hllc_flux",
    "sweep_blocks",
    "HydroUnit",
]
