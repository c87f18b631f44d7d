"""The tabulated electron/positron EOS (the "helm table" analogue).

Direct Fermi-Dirac evaluation is far too slow to sit inside a hydro loop,
so — exactly as the Helmholtz EOS used by FLASH ships a precomputed
``helm_table.dat`` — we tabulate the electron/positron quantities over a
``(log10 rho*Ye, log10 T)`` grid once and interpolate with bicubic
splines thereafter.  The table is built on first use and cached as an
``.npz`` (in the package ``data/`` directory when writable, else under
``~/.cache``).

This table is also a key *performance* object in the reproduction: the
paper's "EOS" test gathers from it zone-by-zone with data-dependent
indices, which is what drives its enormous DTLB miss rate (see
:mod:`repro.perfmodel.patterns`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.interpolate import RectBivariateSpline

from repro.physics.eos import electron
from repro.util import artifacts
from repro.util.errors import ArtifactError, PhysicsError

#: default table extents (log10)
LG_RHOYE_RANGE = (-4.0, 11.0)
LG_TEMP_RANGE = (4.0, 10.5)
DEFAULT_N_RHOYE = 181
DEFAULT_N_TEMP = 101

#: embedded artifact version (was a ``_v3`` filename suffix)
_TABLE_VERSION = 3
#: arrays every valid table artifact must carry
_TABLE_KEYS = ("lg_rhoye", "lg_temp", "lg_pres", "lg_ener", "entr", "eta")


def _cache_path() -> Path:
    pkg_data = Path(__file__).resolve().parent / "data"
    shipped = pkg_data / "electron_table.npz"
    if shipped.exists():
        return shipped
    try:
        pkg_data.mkdir(exist_ok=True)
        probe = pkg_data / ".writable"
        probe.touch()
        probe.unlink()
        return shipped
    except OSError:
        cache = Path(os.environ.get("XDG_CACHE_HOME",
                                    Path.home() / ".cache")) / "repro"
        cache.mkdir(parents=True, exist_ok=True)
        return cache / "electron_table.npz"


@dataclass
class ElectronTable:
    """Bicubic-spline interpolation of electron/positron thermodynamics."""

    lg_rhoye: np.ndarray
    lg_temp: np.ndarray
    lg_pres: np.ndarray  # log10 P_e [erg/cm^3]
    lg_ener: np.ndarray  # log10 u_e [erg/cm^3]
    entr: np.ndarray  # s_e [erg/cm^3/K]
    eta: np.ndarray

    def __post_init__(self) -> None:
        kx = min(3, len(self.lg_rhoye) - 1)
        ky = min(3, len(self.lg_temp) - 1)
        self._sp_p = RectBivariateSpline(self.lg_rhoye, self.lg_temp,
                                         self.lg_pres, kx=kx, ky=ky)
        self._sp_u = RectBivariateSpline(self.lg_rhoye, self.lg_temp,
                                         self.lg_ener, kx=kx, ky=ky)
        self._sp_s = RectBivariateSpline(self.lg_rhoye, self.lg_temp,
                                         self.entr, kx=kx, ky=ky)
        self._sp_eta = RectBivariateSpline(self.lg_rhoye, self.lg_temp,
                                           self.eta, kx=kx, ky=ky)

    # --- construction --------------------------------------------------------
    @classmethod
    def build(cls, n_rhoye: int = DEFAULT_N_RHOYE, n_temp: int = DEFAULT_N_TEMP,
              lg_rhoye_range=LG_RHOYE_RANGE,
              lg_temp_range=LG_TEMP_RANGE) -> "ElectronTable":
        """Evaluate the Fermi-Dirac thermodynamics on the full grid."""
        lg_r = np.linspace(*lg_rhoye_range, n_rhoye)
        lg_t = np.linspace(*lg_temp_range, n_temp)
        rr, tt = np.meshgrid(10.0**lg_r, 10.0**lg_t, indexing="ij")
        state = electron.electron_state(rr.ravel(), tt.ravel())
        shape = rr.shape
        return cls(
            lg_rhoye=lg_r,
            lg_temp=lg_t,
            lg_pres=np.log10(state.pressure).reshape(shape),
            lg_ener=np.log10(state.energy_density).reshape(shape),
            entr=state.entropy_density.reshape(shape),
            eta=state.eta.reshape(shape),
        )

    @classmethod
    def load(cls, path: Path | None = None, build_if_missing: bool = True,
             **build_kwargs) -> "ElectronTable":
        """Load the cached table, building (and caching) it if absent.

        A corrupt, truncated, stale-version, or schema-incomplete cache
        file is never fatal: it is quarantined as ``*.corrupt`` and the
        table is rebuilt from the Fermi-Dirac integrals and re-cached.
        """
        path = Path(path) if path is not None else _cache_path()

        def _load(p: Path) -> "ElectronTable":
            data = artifacts.load_npz(p, required_keys=_TABLE_KEYS,
                                      version=_TABLE_VERSION)
            return cls(**{k: data[k] for k in _TABLE_KEYS})

        builder = (lambda: cls.build(**build_kwargs)) if build_if_missing \
            else None
        try:
            return artifacts.load_or_rebuild(
                path, loader=_load, builder=builder,
                saver=lambda table, p: table.save(p),
                description="electron EOS table")
        except ArtifactError as exc:
            raise PhysicsError(f"electron table unusable at {path}: "
                               f"{exc}") from exc

    def save(self, path: Path | None = None) -> Path:
        path = Path(path) if path is not None else _cache_path()
        artifacts.save_npz(
            path, {k: getattr(self, k) for k in _TABLE_KEYS},
            version=_TABLE_VERSION)
        return path

    # --- evaluation ------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """In-memory size of the tabulated arrays (performance modelling)."""
        return sum(a.nbytes for a in (self.lg_pres, self.lg_ener, self.entr,
                                      self.eta)) + self.lg_rhoye.nbytes + \
            self.lg_temp.nbytes

    def evaluate(self, rho_ye, temp) -> dict[str, np.ndarray]:
        """Interpolate P_e, u_e (per volume), s_e, eta and the log-log
        derivatives of P (in rho*Ye and T) and of u (in T) at (rho*Ye, T)."""
        rho_ye = np.asarray(rho_ye, dtype=np.float64)
        temp = np.asarray(temp, dtype=np.float64)
        lr = np.clip(np.log10(rho_ye), self.lg_rhoye[0], self.lg_rhoye[-1])
        lt = np.clip(np.log10(temp), self.lg_temp[0], self.lg_temp[-1])
        lg_p = self._sp_p.ev(lr, lt)
        lg_u = self._sp_u.ev(lr, lt)
        pres = 10.0**lg_p
        ener = 10.0**lg_u
        return {
            "pres": pres,
            "ener": ener,
            "entr": self._sp_s.ev(lr, lt),
            "eta": self._sp_eta.ev(lr, lt),
            # chi's with respect to (rho*Ye) and T
            "dlnp_dlnr": self._sp_p.ev(lr, lt, dx=1),
            "dlnp_dlnt": self._sp_p.ev(lr, lt, dy=1),
            "dlnu_dlnt": self._sp_u.ev(lr, lt, dy=1),
        }


_DEFAULT_TABLE: ElectronTable | None = None


def default_table() -> ElectronTable:
    """The process-wide shared table (loaded/built on first call)."""
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        _DEFAULT_TABLE = ElectronTable.load()
    return _DEFAULT_TABLE


__all__ = ["ElectronTable", "default_table",
           "LG_RHOYE_RANGE", "LG_TEMP_RANGE"]
