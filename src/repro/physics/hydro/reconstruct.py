"""Slope-limited piecewise-linear reconstruction (the "M" of MUSCL)."""

from __future__ import annotations

import numpy as np

from repro.util.errors import ConfigurationError


def along(ndim: int, axis: int, lo: int | None, hi: int | None) -> tuple:
    """Index taking ``lo:hi`` along ``axis`` and everything elsewhere."""
    sel = [slice(None)] * ndim
    sel[axis] = slice(lo, hi)
    return tuple(sel)


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    keep = a * b > 0.0
    return np.where(keep, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def inner_slopes(q: np.ndarray, axis: int, limiter: str = "mc") -> np.ndarray:
    """Limited slopes of the cells of ``q`` that have both neighbours
    along ``axis`` (all but the first and last): one cell shorter at
    each end than ``q``.

    Limiters: ``minmod`` (most dissipative), ``mc`` (monotonised central,
    FLASH's usual choice), ``vanleer``.
    """
    mid = q[along(q.ndim, axis, 1, -1)]
    dqf = q[along(q.ndim, axis, 2, None)] - mid  # q[i+1] - q[i]
    dqb = mid - q[along(q.ndim, axis, None, -2)]  # q[i] - q[i-1]
    if limiter == "minmod":
        return _minmod(dqf, dqb)
    if limiter == "mc":
        centred = 0.5 * (dqf + dqb)
        lim = _minmod(dqf, dqb)
        return _minmod(centred, 2.0 * lim)
    if limiter == "vanleer":
        denom = dqf + dqb
        with np.errstate(invalid="ignore", divide="ignore"):
            s = np.where(dqf * dqb > 0.0, 2.0 * dqf * dqb / denom, 0.0)
        return np.where(np.isfinite(s), s, 0.0)
    raise ConfigurationError(f"unknown limiter {limiter!r}")


__all__ = ["along", "inner_slopes"]
