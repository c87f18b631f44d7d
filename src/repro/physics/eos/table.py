"""The tabulated electron/positron EOS (the "helm table" analogue).

Direct Fermi-Dirac evaluation is far too slow to sit inside a hydro loop,
so — exactly as the Helmholtz EOS used by FLASH ships a precomputed
``helm_table.dat`` — we tabulate the electron/positron quantities over a
``(log10 rho*Ye, log10 T)`` grid once and interpolate with bicubic
splines thereafter.  The table is built on first use and cached as an
``.npz`` (in the package ``data/`` directory when writable, else under
``~/.cache``).

FITPACK fits the splines once, at load.  Evaluation is done here, in
NumPy, with FITPACK's arithmetic in FITPACK's order (``fpbisp``,
``fpbspl``, ``parder``), so every value is bit-identical to
``RectBivariateSpline.ev``.  Unlike ``ev``, which searches the knots and
builds a fresh basis per point and per quantity, one span search and one
de Boor recursion per axis serve every quantity.

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

#: points evaluated per pass, so that a pass's temporaries stay in cache
_BLOCK = 4096

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


class _Axis:
    """One axis of a FITPACK spline: knots ``t``, degree ``k``, and per
    knot span ``s`` (``t[s] <= x < t[s+1]``) what ``fpbspl`` reads there:
    the knots ``t[s+1-k:s+k+1]``, then the divisors ``t[s+i] - t[s+i-j]``
    of its stages ``j = 1..k``, ``i = 1..j``."""

    def __init__(self, t: np.ndarray, k: int) -> None:
        self.t, self.k = t, k
        spans = np.arange(k, t.size - k - 1)
        rows = [t[spans + d] for d in range(1 - k, k + 1)]
        rows += [t[spans + i] - t[spans + i - j]
                 for j in range(1, k + 1) for i in range(1, j + 1)]
        self._by_span = np.zeros((len(rows), t.size))
        self._by_span[:, spans] = rows

    def basis(self, x: np.ndarray):
        """Span and B-spline values at ``x``, as FITPACK computes them.

        ``x`` is clamped to ``[t[k], t[-k-1]]`` and its span found as
        ``fpbisp`` does (the last interval is closed); the values come from
        ``fpbspl``'s de Boor recursion, in its operation order.  Returns
        the index of the first coefficient each point touches and the
        values of degree ``k - 1`` and ``k`` there, shaped ``(k, n)`` and
        ``(k + 1, n)``.  The degree ``k - 1`` stage is the basis ``parder``
        evaluates a first derivative with.
        """
        t, k = self.t, self.k
        x = np.clip(x, t[k], t[-k - 1])
        # for a clamped x, this count is fpbisp's span index itself
        span = np.searchsorted(t[1:t.size - k - 1], x, "right")
        by_span = self._by_span.take(span, axis=1)
        right = by_span[k:2 * k] - x  # t[span+i] - x, i = 1..k
        left = x - by_span[:k]  # x - t[span+1-k+i], i = 0..k-1
        h = np.ones((1, x.size))
        lower = h
        row = 2 * k
        for j in range(1, k + 1):
            f = h / by_span[row:row + j]
            row += j
            h = np.empty((j + 1, x.size))
            np.multiply(f, right[:j], out=h[:j])
            f *= left[k - j:]
            # fpbspl adds to 0.0 where nothing is added here: every value
            # is non-negative, so the results agree
            h[1:j] += f[:j - 1]
            h[j] = f[j - 1]
            if j == k - 1:
                lower = h
        return span - k, lower, h


def _derivative_coefficients(c: np.ndarray, t: np.ndarray, k: int,
                             axis: int) -> np.ndarray:
    """``parder``'s B-spline coefficients of the first derivative of the
    splines ``c`` (stacked on axis 0) along ``axis``."""
    c = np.moveaxis(c, axis, 0)
    m = c.shape[0]
    fac = (t[k + 1:k + m] - t[1:m]).reshape((m - 1,) + (1,) * (c.ndim - 1))
    return np.moveaxis((c[1:] - c[:-1]) * float(k) / fac, 0, axis)


def _contract(coef: np.ndarray, ox, hx, oy, hy, out: np.ndarray) -> None:
    """``out[q] = sum_ij coef[q, ox+i, oy+j] * hx[i] * hy[j]`` as ``fpbisp``
    sums it: from 0.0, x term outer, y term inner, one term at a time (a
    NumPy reduction would sum pairwise and change the last bits)."""
    nq, _, ncol = coef.shape
    flat = coef.reshape(nq, -1)
    first = ox * ncol + oy
    cols = np.arange(len(hy))[:, None]
    out[...] = 0.0
    for i, hxi in enumerate(hx):
        terms = flat.take(first + (i * ncol + cols), axis=1)  # (q, y, n)
        terms *= hxi
        terms *= hy
        for term in terms.transpose(1, 0, 2):
            out += term


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
        coef = []
        for z in (self.lg_pres, self.lg_ener, self.entr, self.eta):
            # interpolating (s=0) fits: the knots depend on the grid only,
            # so all four share them
            tx, ty, c = RectBivariateSpline(self.lg_rhoye, self.lg_temp, z,
                                            kx=kx, ky=ky).tck
            coef.append(c.reshape(len(tx) - kx - 1, len(ty) - ky - 1))
        self._x, self._y = _Axis(tx, kx), _Axis(ty, ky)
        values = np.stack(coef)  # lg_pres, lg_ener, entr, eta
        d_dx = _derivative_coefficients(values[:1], tx, kx, axis=1)
        d_dy = _derivative_coefficients(values[:2], ty, ky, axis=2)
        # what evaluate and log_energy compute, as groups of splines that
        # share a basis: (coefficients, d/dx basis?, d/dy basis?)
        self._all = ((values, False, False), (d_dx, True, False),
                     (d_dy, False, True))
        self._energy = ((values[1:2], False, False), (d_dy[1:2], False, True))

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
        (lg_p, lg_u, entr, eta), (dlnp_dlnr,), (dlnp_dlnt, dlnu_dlnt) = \
            self._interpolate(rho_ye, temp, self._all)
        return {
            "pres": 10.0**lg_p,
            "ener": 10.0**lg_u,
            "entr": entr,
            "eta": eta,
            # chi's with respect to (rho*Ye) and T
            "dlnp_dlnr": dlnp_dlnr,
            "dlnp_dlnt": dlnp_dlnt,
            "dlnu_dlnt": dlnu_dlnt,
        }

    def log_energy(self, rho_ye, temp) -> tuple[np.ndarray, np.ndarray]:
        """``(log10 u_e, dln u_e/dln T)`` at (rho*Ye, T): the part of
        :meth:`evaluate` the Newton inversion's residual needs."""
        (lg_u,), (dlnu_dlnt,) = self._interpolate(rho_ye, temp, self._energy)
        return lg_u, dlnu_dlnt

    def _interpolate(self, rho_ye, temp, groups) -> list[list[np.ndarray]]:
        lr = np.clip(np.log10(np.asarray(rho_ye, dtype=np.float64)),
                     self.lg_rhoye[0], self.lg_rhoye[-1])
        lt = np.clip(np.log10(np.asarray(temp, dtype=np.float64)),
                     self.lg_temp[0], self.lg_temp[-1])
        return self._at(lr, lt, groups)

    def _at(self, x, y, groups) -> list[list[np.ndarray]]:
        """Each group's splines at the points ``(x, y)`` (broadcast), one
        array per spline in the broadcast shape."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape != y.shape:
            x, y = np.broadcast_arrays(x, y)
        shape = x.shape
        x, y = x.ravel(), y.ravel()
        outs = [np.empty((len(coef), x.size)) for coef, _, _ in groups]
        for start in range(0, x.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            ox, hx_d, hx = self._x.basis(x[block])
            oy, hy_d, hy = self._y.basis(y[block])
            for out, (coef, d_dx, d_dy) in zip(outs, groups):
                _contract(coef, ox, hx_d if d_dx else hx, oy,
                          hy_d if d_dy else hy, out[:, block])
        return [[o[i].reshape(shape) for i in range(len(o))] for o in outs]


_DEFAULT_TABLE: ElectronTable | None = None


def default_table() -> ElectronTable:
    """The process-wide shared table (loaded/built on first call)."""
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        _DEFAULT_TABLE = ElectronTable.load()
    return _DEFAULT_TABLE


__all__ = ["ElectronTable", "default_table",
           "LG_RHOYE_RANGE", "LG_TEMP_RANGE"]
