"""Positivity floors of the hydro state, and which stage applies each.

The sweep (:mod:`repro.physics.hydro.sweep`) works on primitives
(``dens``, ``velx/vely/velz``, ``pres``, ``game``) and conserved
quantities (``dens``, momentum ``mom*``, total energy density ``ener``).

* the sweep floors density at :data:`SMALL_DENS` and pressure at
  :data:`SWEEP_SMALL_PRES` on the primitives it gathers, and density,
  internal energy (:data:`SMALL_EINT`) and pressure again when it turns
  updated conserved quantities back into primitives;
* the HLLC solver (:func:`repro.physics.hydro.riemann.hllc_flux`)
  floors the left and right states' density at :data:`SMALL_DENS` and
  pressure at :data:`SMALL_PRES` before it estimates wave speeds.
"""

from __future__ import annotations

#: default floors, in CGS — generous enough for both test problems
SMALL_DENS = 1.0e-12
SMALL_PRES = 1.0e-12
SMALL_EINT = 1.0e-12
#: the sweep's pressure floor, far below :data:`SMALL_PRES`: it only
#: keeps gathered and updated pressures positive
SWEEP_SMALL_PRES = 1.0e-30

VELS = ("velx", "vely", "velz")


__all__ = [
    "SMALL_DENS",
    "SMALL_PRES",
    "SMALL_EINT",
    "SWEEP_SMALL_PRES",
    "VELS",
]
