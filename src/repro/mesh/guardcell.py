"""Guard-cell filling: same-level exchange, restriction, prolongation, BCs.

PARAMESH's ``amr_guardcell``: before a physics unit sweeps a block it needs
``nguard`` halo zones on every side, sourced from

* the same-level neighbour's interior (plain copy),
* a finer neighbour's interior (restriction),
* a coarser neighbour's interior (limited prolongation), or
* a physical boundary condition (outflow / reflect; periodic faces are
  handled by the tree's index wrapping).

Directions are filled in axis order (x, then y, then z) for *all* blocks
per axis, so edge/corner guard zones inherit values through the already
filled guards of the transverse pass — the standard trick that gives
correct corners for same-level neighbours without explicit diagonal
communication.  (At refinement jumps corners are first-order accurate;
the dimensionally split solvers never read them.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.block import Block, BlockId
from repro.mesh.grid import Grid
from repro.mesh.prolong import prolong, restrict
from repro.util.errors import MeshError

#: boundary condition names per (axis, side)
BC_OUTFLOW = "outflow"
BC_REFLECT = "reflect"
BC_PERIODIC = "periodic"

#: the velocity variable normal to each axis (flipped by a reflecting face)
_VELOCITY_VARS = ("velx", "vely", "velz")


@dataclass(frozen=True)
class BoundaryConditions:
    """Per-axis boundary conditions, e.g. ``BoundaryConditions(('outflow',)*2, ...)``."""

    x: tuple[str, str] = (BC_OUTFLOW, BC_OUTFLOW)
    y: tuple[str, str] = (BC_OUTFLOW, BC_OUTFLOW)
    z: tuple[str, str] = (BC_OUTFLOW, BC_OUTFLOW)

    def for_axis(self, axis: int) -> tuple[str, str]:
        return (self.x, self.y, self.z)[axis]


def _sl(ndim4: int, axis: int, rng: slice) -> tuple:
    """Slice tuple selecting ``rng`` on block-data axis ``axis`` (0-based
    spatial axis; +1 accounts for the leading variable axis)."""
    out: list = [slice(None)] * ndim4
    out[axis + 1] = rng
    return tuple(out)


def _active_dims(grid: Grid) -> tuple[int, ...]:
    return tuple(range(grid.spec.ndim))


def fill_guardcells(grid: Grid, bc: BoundaryConditions | None = None) -> None:
    """Fill all guard cells of all leaf blocks."""
    bc = bc or BoundaryConditions()
    g = grid.spec.nguard
    interior_n = grid.spec.interior_zones
    for axis in range(grid.spec.ndim):
        n_a = interior_n[axis]
        if 2 * g > n_a:
            raise MeshError("nguard may not exceed half the block width")
        if grid.halo_hook is not None:
            # rank decomposition: refresh off-rank source blocks before
            # this axis pass reads them (repro.mpisim.fabric); within one
            # pass the writes (guard strips along ``axis``) never overlap
            # the reads (source interiors + already-filled transverse
            # guards), so a per-axis exchange reproduces the serial fill
            # bit-for-bit
            grid.halo_hook(axis)
        for block in grid.leaf_blocks():
            for direction in (-1, 1):
                _fill_face(grid, block, axis, direction, bc)


def _fill_face(grid: Grid, block: Block, axis: int, direction: int,
               bc: BoundaryConditions) -> None:
    g = grid.spec.nguard
    n_a = grid.spec.interior_zones[axis]
    data = grid.block_data(block)
    nd = data.ndim

    if direction < 0:
        dest = _sl(nd, axis, slice(0, g))
    else:
        dest = _sl(nd, axis, slice(g + n_a, g + n_a + g))

    kind, info = grid.tree.face_neighbor(block.bid, axis, direction)

    if kind == "boundary":
        side = 0 if direction < 0 else 1
        _apply_physical_bc(grid, data, axis, direction, bc.for_axis(axis)[side])
        return

    if kind == "leaf":
        src_block = grid.blocks[info]
        src = grid.block_data(src_block)
        if direction < 0:
            src_rng = slice(n_a, n_a + g)  # neighbour's last g interior cells
        else:
            src_rng = slice(g, 2 * g)  # neighbour's first g interior cells
        data[dest] = src[_sl(nd, axis, src_rng)]
        return

    if kind == "coarser":
        _fill_from_coarser(grid, block, info, axis, direction, dest)
        return

    if kind == "finer":
        _fill_from_finer(grid, block, info, axis, direction)
        return

    raise MeshError(f"unknown neighbour kind {kind}")


def _apply_physical_bc(grid: Grid, data: np.ndarray, axis: int, direction: int,
                       kind: str) -> None:
    g = grid.spec.nguard
    n_a = grid.spec.interior_zones[axis]
    nd = data.ndim
    if kind == BC_PERIODIC:
        # consistency: periodic faces should have been wrapped by the tree
        raise MeshError("periodic BC must be configured on the AMRTree")
    if kind == BC_OUTFLOW:
        # zero gradient: replicate the edge interior zone
        edge = g if direction < 0 else g + n_a - 1
        edge_vals = data[_sl(nd, axis, slice(edge, edge + 1))]
        if direction < 0:
            data[_sl(nd, axis, slice(0, g))] = edge_vals
        else:
            data[_sl(nd, axis, slice(g + n_a, g + n_a + g))] = edge_vals
        return
    if kind == BC_REFLECT:
        if direction < 0:
            src = data[_sl(nd, axis, slice(g, 2 * g))]
            mirrored = np.flip(src, axis=axis + 1)
            data[_sl(nd, axis, slice(0, g))] = mirrored
        else:
            src = data[_sl(nd, axis, slice(n_a, n_a + g))]
            mirrored = np.flip(src, axis=axis + 1)
            data[_sl(nd, axis, slice(g + n_a, g + n_a + g))] = mirrored
        # flip the normal velocity component
        vname = _VELOCITY_VARS[axis]
        if vname in grid.variables:
            v = grid.variables.index(vname)
            if direction < 0:
                data[v][tuple(s for s in _sl(nd, axis, slice(0, g))[1:])] *= -1.0
            else:
                data[v][tuple(s for s in _sl(nd, axis, slice(g + n_a, g + n_a + g))[1:])] *= -1.0
        return
    raise MeshError(f"unknown boundary condition {kind!r}")


def _transverse_axes(grid: Grid, axis: int) -> list[int]:
    return [a for a in range(grid.spec.ndim) if a != axis]


def _fill_from_coarser(grid: Grid, block: Block, coarse_bid: BlockId,
                       axis: int, direction: int, dest: tuple) -> None:
    """Prolong the adjacent strip of the coarser neighbour into our guards."""
    g = grid.spec.nguard
    spec = grid.spec
    n = spec.interior_zones
    data = grid.block_data(block)
    src = grid.block_data(grid.blocks[coarse_bid])
    nd = data.ndim
    gc = g // 2  # coarse cells needed along the face-normal
    if g % 2:
        raise MeshError("nguard must be even for coarse-fine interpolation")

    # face-normal coarse range: the strip of the neighbour adjacent to us.
    # The source region is widened by one interior cell per active axis
    # (where available) so the slope limiter sees real gradients instead of
    # clamped zero slopes at the strip edges; the pad is trimmed after
    # prolongation.
    n_a = n[axis]
    if direction < 0:
        want = (g + n_a - gc, g + n_a)
    else:
        want = (g, g + gc)

    sel: list = [slice(None)] * nd
    trim: dict[int, tuple[int, int]] = {}
    lo = max(want[0] - 1, g)
    hi = min(want[1] + 1, g + n_a)
    sel[axis + 1] = slice(lo, hi)
    trim[axis] = (want[0] - lo, hi - want[1])

    # transverse: the half of the coarse block our fine block overlays
    for t in _transverse_axes(grid, axis):
        half = block.bid.coords()[t] % 2
        n_t = n[t]
        t_want = (g + half * (n_t // 2), g + (half + 1) * (n_t // 2))
        t_lo = max(t_want[0] - 1, g)
        t_hi = min(t_want[1] + 1, g + n_t)
        sel[t + 1] = slice(t_lo, t_hi)
        trim[t] = (t_want[0] - t_lo, t_hi - t_want[1])
    coarse_strip = src[tuple(sel)]

    fine = prolong(coarse_strip, _active_dims(grid), edge_slopes=True)
    crop: list = [slice(None)] * nd
    for a, (pad_lo, pad_hi) in trim.items():
        stop = fine.shape[a + 1] - 2 * pad_hi
        crop[a + 1] = slice(2 * pad_lo, stop)
    fine = fine[tuple(crop)]
    # write into our guard strip over the interior transverse extent
    out_sel: list = list(dest)
    for t in _transverse_axes(grid, axis):
        out_sel[t + 1] = slice(g, g + n[t])
    data[tuple(out_sel)] = fine


def _fill_from_finer(grid: Grid, block: Block, children: list[BlockId],
                     axis: int, direction: int) -> None:
    """Restrict the touching fine children's interiors into our guards."""
    g = grid.spec.nguard
    spec = grid.spec
    n = spec.interior_zones
    data = grid.block_data(block)
    nd = data.ndim
    n_a = n[axis]

    for child_bid in children:
        child = grid.blocks[child_bid]
        src = grid.block_data(child)
        sel: list = [slice(None)] * nd
        # face-normal: 2g fine interior cells nearest our face
        if direction < 0:
            sel[axis + 1] = slice(g + n_a - 2 * g, g + n_a)
        else:
            sel[axis + 1] = slice(g, g + 2 * g)
        for t in _transverse_axes(grid, axis):
            sel[t + 1] = slice(g, g + n[t])
        fine_strip = src[tuple(sel)]
        coarse = restrict(fine_strip, _active_dims(grid))

        out_sel: list = [slice(None)] * nd
        if direction < 0:
            out_sel[axis + 1] = slice(0, g)
        else:
            out_sel[axis + 1] = slice(g + n_a, g + n_a + g)
        for t in _transverse_axes(grid, axis):
            ct = child_bid.coords()[t] % 2
            n_t = n[t]
            out_sel[t + 1] = slice(g + ct * (n_t // 2), g + (ct + 1) * (n_t // 2))
        data[tuple(out_sel)] = coarse


__all__ = ["fill_guardcells", "BoundaryConditions",
           "BC_OUTFLOW", "BC_REFLECT", "BC_PERIODIC"]
