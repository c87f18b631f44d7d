"""EOS inversion: recover temperature from (rho, eint) or (rho, P).

This is the code whose "vast scope and branching" the paper blames for
defeating SVE vectorisation: a per-zone Newton-Raphson on temperature with
per-zone convergence masks, bracket safeguards, and a bisection fallback
for zones where Newton misbehaves.  The structure below mirrors FLASH's
``eos_helmholtz`` loop (vectorised over zones, but with exactly those
data-dependent branches).

Every residual evaluation gathers just the zones it needs: the Newton loop
carries the indices of the zones still moving, so a zone that has
converged costs nothing more.  The EOS acts on each zone independently, so
the gathered subsets give bit-identical results to whole-array passes.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ConvergenceError


def _zones(x, shape) -> np.ndarray:
    """``x`` broadcast to the zone ``shape`` and flattened."""
    return np.broadcast_to(np.asarray(x, dtype=np.float64), shape).ravel()


def _composition(x, shape):
    """Flattened per-zone composition; a scalar applies to every zone."""
    return x if np.ndim(x) == 0 else _zones(x, shape)


def _take(x, idx):
    """The zones ``idx`` of a flattened per-zone value (scalars pass)."""
    return x if np.ndim(x) == 0 else x[idx]


def _newton_bisect(f, lo: np.ndarray, hi: np.ndarray, max_iter: int,
                   rtol: float):
    """Vectorised safeguarded Newton: solve f(T) = 0 per element.

    ``f(T, idx) -> (residual, dresidual_dT)`` at the temperatures ``T`` of
    the zones ``idx``.  Keeps a live bracket [lo, hi] (f(lo) < 0 < f(hi)
    assumed monotone increasing) and falls back to bisection whenever the
    Newton step leaves it.  Only zones still moving are evaluated; a zone
    drops out of ``idx`` once its step is within ``rtol``.
    Returns (root, iterations_used_per_element).
    """
    t = np.sqrt(lo * hi)  # geometric-mean start
    iters = np.zeros(t.shape, dtype=np.int64)
    idx = np.arange(t.size)
    ta = t.copy()  # temperatures of the zones in idx
    for _ in range(max_iter):
        if idx.size == 0:
            break
        resid, dresid = f(ta, idx)
        # maintain bracket
        neg = resid < 0.0
        lo = np.where(neg, ta, lo)
        hi = np.where(neg, hi, ta)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(dresid != 0.0, -resid / dresid, 0.0)
        t_new = ta + step
        # zones whose Newton step escapes the bracket bisect instead
        escaped = (t_new <= lo) | (t_new >= hi) | ~np.isfinite(t_new)
        t_new = np.where(escaped, 0.5 * (lo + hi), t_new)
        moved = np.abs(t_new - ta) > rtol * ta
        t[idx] = t_new
        iters[idx] += 1
        idx, ta, lo, hi = idx[moved], t_new[moved], lo[moved], hi[moved]
    if idx.size:
        raise ConvergenceError(
            f"EOS inversion: {idx.size} zones failed to converge"
        )
    return t, iters


def invert_dens_eint(eos, dens, eint, abar, zbar, temp_guess=None,
                     max_iter: int = 60, rtol: float = 1.0e-8):
    """Solve eint(rho, T) = eint for T (mode ``dens_ei``).

    Returns ``(temp, stats)`` where stats carries per-zone iteration counts
    (the performance model uses their total).
    """
    shape = np.shape(np.atleast_1d(dens))
    dens, eint = _zones(dens, shape), _zones(eint, shape)
    abar, zbar = _composition(abar, shape), _composition(zbar, shape)
    lo = np.full(dens.shape, eos.temp_min)
    hi = np.full(dens.shape, eos.temp_max)
    if temp_guess is not None:
        guess = np.clip(_zones(temp_guess, shape), eos.temp_min,
                        eos.temp_max)
        # tighten the bracket around the guess; widened again on failure
        lo = np.maximum(lo, guess / 100.0)
        hi = np.minimum(hi, guess * 100.0)

    def f(t, idx):
        e, cv = eos.eint_cv(dens[idx], t, _take(abar, idx), _take(zbar, idx))
        return e - eint[idx], cv

    # energies outside the bracketed range clamp to the floor/ceiling; only
    # a bound that was widened needs its residual again
    r_lo = f(lo, slice(None))[0]
    r_hi = f(hi, slice(None))[0]
    reset = r_lo > 0.0
    lo[reset] = eos.temp_min
    r_lo[reset] = f(lo[reset], reset)[0]
    clamped_low = r_lo >= 0.0  # colder than the floor: clamp
    reset = r_hi < 0.0
    hi[reset] = eos.temp_max
    r_hi[reset] = f(hi[reset], reset)[0]
    clamped_high = r_hi <= 0.0

    temp, iters = _newton_bisect(f, lo, hi, max_iter, rtol)
    temp = np.where(clamped_low, eos.temp_min, temp)
    temp = np.where(clamped_high, eos.temp_max, temp)
    return temp.reshape(shape), iters.reshape(shape)


def invert_dens_pres(eos, dens, pres, abar, zbar, temp_guess=None,
                     max_iter: int = 60, rtol: float = 1.0e-8):
    """Solve P(rho, T) = pres for T (mode ``dens_pres``)."""
    shape = np.shape(np.atleast_1d(dens))
    dens, pres = _zones(dens, shape), _zones(pres, shape)
    abar, zbar = _composition(abar, shape), _composition(zbar, shape)
    lo = np.full(dens.shape, eos.temp_min)
    hi = np.full(dens.shape, eos.temp_max)

    def f(t, idx):
        r = eos.eos_dt(dens[idx], t, _take(abar, idx), _take(zbar, idx))
        dpdt = r.dpt if r.dpt is not None else r.pres / t
        return r.pres - pres[idx], dpdt

    # degeneracy pressure already exceeds the target: clamp
    clamped_low = f(lo, slice(None))[0] >= 0.0
    temp, iters = _newton_bisect(f, lo, hi, max_iter, rtol)
    temp = np.where(clamped_low, eos.temp_min, temp)
    return temp.reshape(shape), iters.reshape(shape)


__all__ = ["invert_dens_eint", "invert_dens_pres"]
