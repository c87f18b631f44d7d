"""Byte-offset layout of the ``unk`` container.

The paper (section I-C): "PARAMESH is thus designed for loops using data
from blocks, and there is a stride in memory for addressing variables in
different zones or blocks.  This feature motivated our interest in
investigating the use of huge pages."

This module makes those strides explicit.  For the Fortran-ordered array
``unk(nvar, 1:NX, 1:NY, 1:NZ, maxblocks)`` of 8-byte reals the byte offset
of element ``(v, i, j, k, b)`` is::

    8 * (v + nvar*(i + NX*(j + NY*(k + NZ*b))))

so consecutive *variables of one zone* are contiguous, zones along x are
``nvar`` elements apart, and blocks are whole ``nvar*NX*NY*NZ`` panels
apart.  The performance model's access patterns
(:mod:`repro.perfmodel.patterns`) are generated from these formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.grid import MeshSpec


@dataclass(frozen=True)
class UnkLayout:
    """Stride calculator for a concrete unk allocation."""

    nvar: int
    spec: MeshSpec
    itemsize: int = 8

    @property
    def shape(self) -> tuple[int, int, int, int, int]:
        nx, ny, nz = self.spec.padded_shape
        return (self.nvar, nx, ny, nz, self.spec.maxblocks)

    @property
    def strides(self) -> tuple[int, int, int, int, int]:
        """Byte strides (var, i, j, k, block) — Fortran order."""
        nx, ny, nz = self.spec.padded_shape
        sv = self.itemsize
        si = sv * self.nvar
        sj = si * nx
        sk = sj * ny
        sb = sk * nz
        return (sv, si, sj, sk, sb)

    @property
    def block_bytes(self) -> int:
        """Bytes of one block's panel (all variables, padded zones)."""
        return self.strides[4]

    @property
    def nbytes(self) -> int:
        return self.block_bytes * self.spec.maxblocks

    def offset(self, v, i, j, k, b) -> np.ndarray:
        """Byte offset(s) of unk elements; arguments broadcast."""
        sv, si, sj, sk, sb = self.strides
        return (np.asarray(v, np.int64) * sv + np.asarray(i, np.int64) * si
                + np.asarray(j, np.int64) * sj + np.asarray(k, np.int64) * sk
                + np.asarray(b, np.int64) * sb)

    def block_panel_range(self, slot: int) -> tuple[int, int]:
        """(start, stop) byte range of one block's panel."""
        start = int(self.offset(0, 0, 0, 0, slot))
        return start, start + self.block_bytes


__all__ = ["UnkLayout"]
