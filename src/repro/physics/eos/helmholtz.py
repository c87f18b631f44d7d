"""The assembled Helmholtz-type stellar EOS.

Total pressure and specific internal energy of white-dwarf matter:

``P = P_electron/positron + P_ion + P_radiation (+ P_coulomb)``

with the electron part interpolated from :class:`ElectronTable` and the
rest analytic.  Thermodynamic derivatives give :math:`c_v`,
:math:`\\chi_\\rho`, :math:`\\chi_T`, the adiabatic index
:math:`\\Gamma_1 = \\chi_\\rho + P\\chi_T^2/(\\rho T c_v)`, and the sound
speed — the quantities FLASH's ``gamc``/``game`` variables carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.constants import AVOGADRO, BOLTZMANN, RADIATION_A
from repro.util.errors import PhysicsError
from repro.physics.eos.coulomb import coulomb_corrections
from repro.physics.eos.ion import ion_energy, ion_entropy, ion_pressure
from repro.physics.eos.table import ElectronTable, default_table


@dataclass
class EosResult:
    """Thermodynamic state at (rho, T, composition)."""

    dens: np.ndarray
    temp: np.ndarray
    pres: np.ndarray  # [erg/cm^3]
    eint: np.ndarray  # specific internal energy [erg/g]
    entr: np.ndarray  # specific entropy [erg/g/K]
    cv: np.ndarray  # [erg/g/K]
    gamc: np.ndarray  # Gamma_1
    game: np.ndarray  # 1 + P/(rho*eint)
    cs: np.ndarray  # adiabatic sound speed [cm/s]
    eta: np.ndarray  # electron degeneracy parameter
    #: dP/dT at constant rho and dP/drho at constant T (None for EOSes
    #: that never need them)
    dpt: np.ndarray | None = None
    dpd: np.ndarray | None = None


@dataclass
class HelmholtzEOS:
    """Degenerate stellar EOS (electrons+positrons, ions, radiation)."""

    table: ElectronTable | None = None
    include_coulomb: bool = True
    #: temperature floors/ceilings for inversions
    temp_min: float = 1.0e4
    temp_max: float = 3.0e10

    def __post_init__(self) -> None:
        if self.table is None:
            self.table = default_table()

    def eos_dt(self, dens, temp, abar, zbar) -> EosResult:
        """Mode ``dens_temp``: everything from (rho, T, composition)."""
        dens = np.atleast_1d(np.asarray(dens, dtype=np.float64))
        temp = np.broadcast_to(np.asarray(temp, dtype=np.float64), dens.shape)
        abar = np.broadcast_to(np.asarray(abar, dtype=np.float64), dens.shape)
        zbar = np.broadcast_to(np.asarray(zbar, dtype=np.float64), dens.shape)
        if (dens <= 0).any():
            raise PhysicsError("non-positive density passed to EOS")

        ye = zbar / abar
        rho_ye = dens * ye
        ele = self.table.evaluate(rho_ye, temp)

        p_ele = ele["pres"]
        e_ele = ele["ener"] / dens  # specific
        p_ion = ion_pressure(dens, temp, abar)
        e_ion = ion_energy(dens, temp, abar)
        p_rad = RADIATION_A * temp**4 / 3.0
        e_rad = RADIATION_A * temp**4 / dens

        pres = p_ele + p_ion + p_rad
        eint = e_ele + e_ion + e_rad
        entr = (ele["entr"] / dens + ion_entropy(dens, temp, abar)
                + 4.0 / 3.0 * RADIATION_A * temp**3 / dens)

        dpc_dt = dpc_dr = dec_dt = 0.0
        if self.include_coulomb:
            p_c, e_c = coulomb_corrections(dens, temp, abar, zbar)
            # derivatives by small central differences (the fits are smooth)
            dt_ = 1.0e-4 * temp
            p_hi, e_hi = coulomb_corrections(dens, temp + dt_, abar, zbar)
            p_lo, e_lo = coulomb_corrections(dens, temp - dt_, abar, zbar)
            dpc_dt = (p_hi - p_lo) / (2.0 * dt_)
            dec_dt = (e_hi - e_lo) / (2.0 * dt_)
            dr_ = 1.0e-4 * dens
            p_hi, _ = coulomb_corrections(dens + dr_, temp, abar, zbar)
            p_lo, _ = coulomb_corrections(dens - dr_, temp, abar, zbar)
            dpc_dr = (p_hi - p_lo) / (2.0 * dr_)
            # never let the correction destabilise the total
            clamped = p_c < -0.5 * pres
            p_c = np.maximum(p_c, -0.5 * pres)
            dpc_dt = np.where(clamped, 0.0, dpc_dt)
            dpc_dr = np.where(clamped, 0.0, dpc_dr)
            pres = pres + p_c
            eint = eint + e_c

        dpe_dr = ele["dlnp_dlnr"] * p_ele / dens  # d p_ele / d rho |T
        dpe_dt = ele["dlnp_dlnt"] * p_ele / temp
        dp_dr = dpe_dr + p_ion / dens + dpc_dr
        dp_dt = dpe_dt + p_ion / temp + 4.0 * p_rad / temp + dpc_dt

        due_dt = ele["dlnu_dlnt"] * ele["ener"] / temp  # per volume
        cv = due_dt / dens + 1.5 * AVOGADRO * BOLTZMANN / abar \
            + 4.0 * RADIATION_A * temp**3 / dens + dec_dt
        chi_rho = dp_dr * dens / pres
        chi_t = dp_dt * temp / pres
        gamc = chi_rho + pres * chi_t**2 / (dens * temp * cv)
        gamc = np.clip(gamc, 1.01, 5.0 / 3.0 + 1.0)
        game = 1.0 + pres / (dens * np.maximum(eint, 1e-30))
        cs = np.sqrt(gamc * pres / dens)
        return EosResult(dens=dens, temp=np.array(temp), pres=pres, eint=eint,
                         entr=entr, cv=cv, gamc=gamc, game=game, cs=cs,
                         eta=ele["eta"], dpt=dp_dt, dpd=dp_dr)

    def eint_cv(self, dens, temp, abar, zbar):
        """Fast path for the Newton inversion: (eint, cv) only.

        Evaluates just the electron energy spline and its T-derivative
        (:meth:`ElectronTable.log_energy`) instead of the full
        thermodynamic set — the inner loop of the paper's hottest routine.
        """
        dens = np.atleast_1d(np.asarray(dens, dtype=np.float64))
        temp = np.broadcast_to(np.asarray(temp, dtype=np.float64), dens.shape)
        ye = zbar / abar
        rho_ye = dens * ye
        lg_u, dlnu_dlnt = self.table.log_energy(rho_ye, temp)
        u_ele = 10.0**lg_u
        e_ele = u_ele / dens
        e_ion = ion_energy(dens, temp, abar)
        e_rad = RADIATION_A * temp**4 / dens
        eint = e_ele + e_ion + e_rad
        dec_dt = 0.0
        if self.include_coulomb:
            _, e_c = coulomb_corrections(dens, temp, abar, zbar)
            dt_ = 1.0e-4 * temp
            _, e_hi = coulomb_corrections(dens, temp + dt_, abar, zbar)
            _, e_lo = coulomb_corrections(dens, temp - dt_, abar, zbar)
            dec_dt = (e_hi - e_lo) / (2.0 * dt_)
            eint = eint + e_c
        cv = (dlnu_dlnt * u_ele / temp / dens
              + 1.5 * AVOGADRO * BOLTZMANN / abar
              + 4.0 * RADIATION_A * temp**3 / dens + dec_dt)
        return eint, cv

    # inversion modes live in invert.py; convenience forwarding here
    def eos_de(self, dens, eint, abar, zbar, temp_guess=None):
        """Mode ``dens_ei``: invert for T, then evaluate (the hydro call)."""
        from repro.physics.eos.invert import invert_dens_eint

        temp, stats = invert_dens_eint(self, dens, eint, abar, zbar,
                                       temp_guess=temp_guess)
        result = self.eos_dt(dens, temp, abar, zbar)
        result.iterations = stats  # type: ignore[attr-defined]
        return result

    def eos_dp(self, dens, pres, abar, zbar, temp_guess=None):
        """Mode ``dens_pres``: invert for T from pressure."""
        from repro.physics.eos.invert import invert_dens_pres

        temp, _ = invert_dens_pres(self, dens, pres, abar, zbar,
                                   temp_guess=temp_guess)
        return self.eos_dt(dens, temp, abar, zbar)


__all__ = ["HelmholtzEOS", "EosResult"]
