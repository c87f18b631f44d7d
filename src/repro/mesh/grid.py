"""The ``unk`` data container and block bookkeeping.

PARAMESH stores every block's solution in one Fortran-ordered array

``unk(nvar, il_bnd:iu_bnd, jl_bnd:ju_bnd, kl_bnd:ku_bnd, maxblocks)``

We keep exactly that layout (``order='F'`` NumPy array), because the
memory strides it induces — between variables of one zone, between zones,
and between blocks — are what the paper's huge-page study is about.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mesh.block import Block, BlockId
from repro.mesh.tree import AMRTree
from repro.util.errors import MeshError


@dataclass(frozen=True)
class MeshSpec:
    """Block geometry: zone counts, guard cells, capacity."""

    ndim: int = 2
    nxb: int = 16
    nyb: int = 16
    nzb: int = 1
    nguard: int = 4
    maxblocks: int = 2048

    def __post_init__(self) -> None:
        if self.ndim < 3 and self.nzb != 1:
            raise MeshError("nzb must be 1 for ndim < 3")
        if self.ndim < 2 and self.nyb != 1:
            raise MeshError("nyb must be 1 for ndim < 2")
        for n in (self.nxb, self.nyb, self.nzb):
            if n % 2 and n > 1:
                raise MeshError("zone counts must be even (refinement halves)")

    @property
    def interior_zones(self) -> tuple[int, int, int]:
        return (self.nxb, self.nyb, self.nzb)

    @property
    def padded_shape(self) -> tuple[int, int, int]:
        """Zone counts including guard cells (guards only along active dims)."""
        gx = self.nxb + 2 * self.nguard
        gy = self.nyb + (2 * self.nguard if self.ndim > 1 else 0)
        gz = self.nzb + (2 * self.nguard if self.ndim > 2 else 0)
        return (gx, gy, gz)

    def interior_slices(self) -> tuple[slice, slice, slice]:
        g = self.nguard
        sx = slice(g, g + self.nxb)
        sy = slice(g, g + self.nyb) if self.ndim > 1 else slice(0, 1)
        sz = slice(g, g + self.nzb) if self.ndim > 2 else slice(0, 1)
        return (sx, sy, sz)

    def zones_per_block(self) -> int:
        return self.nxb * self.nyb * self.nzb


class VariableRegistry:
    """Ordered named variables of ``unk`` (FLASH's four-letter names)."""

    #: the standard hydro + thermodynamics set
    HYDRO = ("dens", "velx", "vely", "velz", "pres", "ener", "eint",
             "temp", "gamc", "game")

    def __init__(self, names: tuple[str, ...] = HYDRO) -> None:
        if len(set(names)) != len(names):
            raise MeshError("duplicate variable names")
        self.names = tuple(names)
        self._index = {n: i for i, n in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise MeshError(f"unknown variable {name!r}") from None

    def extended(self, *extra: str) -> "VariableRegistry":
        return VariableRegistry(self.names + tuple(extra))


class Grid:
    """Solution storage + block table on top of an :class:`AMRTree`."""

    def __init__(self, tree: AMRTree, spec: MeshSpec,
                 variables: VariableRegistry | None = None) -> None:
        if tree.ndim != spec.ndim:
            raise MeshError("tree and spec dimensionality differ")
        self.tree = tree
        self.spec = spec
        self.variables = variables or VariableRegistry()
        nx, ny, nz = spec.padded_shape
        self.unk = np.zeros((len(self.variables), nx, ny, nz, spec.maxblocks),
                            order="F")
        self._free_slots = list(range(spec.maxblocks - 1, -1, -1))
        self.blocks: dict[BlockId, Block] = {}
        #: rank decomposition hooks (see repro.mpisim.fabric): when
        #: ``owned`` is set, iteration — and therefore every unit sweep
        #: and integral — is restricted to the owned shard; ``halo_hook``
        #: is invoked once per guard-fill axis pass so off-rank source
        #: blocks can be refreshed before they are read.  Both default to
        #: the serial behaviour (no filter, no hook).
        self.owned: frozenset | None = None
        self.halo_hook = None
        for bid in tree.leaves():
            self._add_block(bid)

    # --- block table -----------------------------------------------------------
    def _add_block(self, bid: BlockId) -> Block:
        if bid in self.blocks:
            raise MeshError(f"{bid} already has a slot")
        if not self._free_slots:
            raise MeshError("maxblocks exceeded; enlarge MeshSpec.maxblocks")
        slot = self._free_slots.pop()
        block = Block(bid=bid, slot=slot, bbox=self.tree.bbox(bid))
        self.blocks[bid] = block
        return block

    def _remove_block(self, bid: BlockId) -> None:
        block = self.blocks.pop(bid)
        self.unk[..., block.slot] = 0.0
        self._free_slots.append(block.slot)

    def leaf_blocks(self) -> list[Block]:
        """Leaf blocks in Morton order (the iteration order of every unit).

        Under a rank decomposition (``owned`` set) only the owned shard
        is returned, in the same Morton order — units then sweep, apply
        the EOS to, and integrate over this rank's blocks only.
        """
        leaves = self.tree.leaves()
        if self.owned is not None:
            leaves = [bid for bid in leaves if bid in self.owned]
        return [self.blocks[bid] for bid in leaves]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    # --- data access -------------------------------------------------------------
    def var(self, name: str) -> int:
        return self.variables.index(name)

    def block_data(self, block: Block | BlockId) -> np.ndarray:
        """Full padded view ``(nvar, NX, NY, NZ)`` of one block."""
        slot = block.slot if isinstance(block, Block) else self.blocks[block].slot
        return self.unk[..., slot]

    def interior(self, block: Block | BlockId, name: str | None = None) -> np.ndarray:
        """Interior (guard-free) view of one variable — or all of them."""
        data = self.block_data(block)
        sx, sy, sz = self.spec.interior_slices()
        if name is None:
            return data[:, sx, sy, sz]
        return data[self.variables.index(name), sx, sy, sz]

    def cell_centers(self, block: Block) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cell-centre coordinate arrays for the *interior* zones,
        shaped for broadcasting: (nxb,1,1), (1,nyb,1), (1,1,nzb)."""
        nx, ny, nz = self.spec.interior_zones
        out = []
        for axis, n in enumerate((nx, ny, nz)):
            lo, hi = block.bbox[axis]
            d = (hi - lo) / n
            centers = lo + d * (np.arange(n) + 0.5)
            shape = [1, 1, 1]
            shape[axis] = n
            out.append(centers.reshape(shape))
        return tuple(out)

    def cell_volume(self, block: Block) -> float:
        """Volume of one interior cell (Cartesian geometry)."""
        dx, dy, dz = block.deltas(self.spec.interior_zones)
        vol = dx
        if self.spec.ndim > 1:
            vol *= dy
        if self.spec.ndim > 2:
            vol *= dz
        return vol

    # --- integrals ------------------------------------------------------------------
    def total(self, name: str, weight: str | None = "dens") -> float:
        """Domain integral ``sum(q * w * V)`` of variable ``q = name``
        over the leaf interiors, weighted by ``w = weight`` (density by
        default, none if ``weight`` is None).

        ``total('dens', weight=None)`` is the total mass (sum rho*V), and
        ``total('ener')`` the total energy (sum rho*E*V).
        """
        acc = 0.0
        for block in self.leaf_blocks():
            q = self.interior(block, name)
            w = self.interior(block, weight) if weight else 1.0
            acc += float(np.sum(q * w)) * self.cell_volume(block)
        return acc

    @property
    def nbytes(self) -> int:
        """Size of the unk container (what FLASH dynamically allocates)."""
        return self.unk.nbytes


__all__ = ["Grid", "MeshSpec", "VariableRegistry"]
