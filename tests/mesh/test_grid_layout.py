"""Tests for the Grid/unk container and the UnkLayout stride model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh.block import BlockId
from repro.mesh.grid import Grid, MeshSpec, VariableRegistry
from repro.mesh.layout import UnkLayout
from repro.mesh.tree import AMRTree
from repro.util.errors import MeshError


def small_grid(ndim=2, maxblocks=64, nxb=8, max_level=3):
    tree = AMRTree(ndim=ndim, nblockx=2, nblocky=2 if ndim > 1 else 1,
                   nblockz=2 if ndim > 2 else 1, max_level=max_level)
    spec = MeshSpec(ndim=ndim, nxb=nxb, nyb=nxb if ndim > 1 else 1,
                    nzb=nxb if ndim > 2 else 1, nguard=2, maxblocks=maxblocks)
    return Grid(tree, spec)


class TestMeshSpec:
    def test_padded_shape_2d(self):
        spec = MeshSpec(ndim=2, nxb=16, nyb=16, nzb=1, nguard=4)
        assert spec.padded_shape == (24, 24, 1)

    def test_padded_shape_3d(self):
        spec = MeshSpec(ndim=3, nxb=16, nyb=16, nzb=16, nguard=4)
        assert spec.padded_shape == (24, 24, 24)

    def test_zones_per_block(self):
        assert MeshSpec(ndim=3, nxb=16, nyb=16, nzb=16).zones_per_block() == 4096

    def test_rejects_odd_zones(self):
        with pytest.raises(MeshError):
            MeshSpec(ndim=2, nxb=15, nyb=16)

    def test_rejects_nzb_in_2d(self):
        with pytest.raises(MeshError):
            MeshSpec(ndim=2, nxb=16, nyb=16, nzb=4)


class TestVariableRegistry:
    def test_standard_set(self):
        reg = VariableRegistry()
        assert reg.index("dens") == 0
        assert "pres" in reg
        assert len(reg) == 10

    def test_extended(self):
        reg = VariableRegistry().extended("fl01", "fl02")
        assert reg.index("fl02") == len(reg) - 1

    def test_unknown_raises(self):
        with pytest.raises(MeshError):
            VariableRegistry().index("nope")

    def test_duplicates_rejected(self):
        with pytest.raises(MeshError):
            VariableRegistry(("dens", "dens"))


class TestGrid:
    def test_unk_is_fortran_ordered(self):
        grid = small_grid()
        assert grid.unk.flags.f_contiguous
        assert grid.unk.shape[0] == len(grid.variables)

    def test_all_base_leaves_have_slots(self):
        grid = small_grid()
        assert grid.n_blocks == 4
        slots = {b.slot for b in grid.leaf_blocks()}
        assert len(slots) == 4

    def test_interior_view_writes_through(self):
        grid = small_grid()
        block = grid.leaf_blocks()[0]
        grid.interior(block, "dens")[:] = 7.0
        assert grid.block_data(block)[grid.var("dens"), 2, 2, 0] == 7.0
        assert grid.block_data(block)[grid.var("dens"), 0, 0, 0] == 0.0  # guard

    def test_cell_centers(self):
        grid = small_grid()
        block = grid.blocks[BlockId(0, 0, 0)]
        x, y, z = grid.cell_centers(block)
        assert x.shape == (8, 1, 1)
        assert x.flat[0] == pytest.approx(0.5 / 16)  # first centre of 8 zones in [0,0.5]
        assert y.flat[-1] == pytest.approx(0.5 - 0.5 / 16)

    def test_cell_volume_scales_with_level(self):
        grid = small_grid()
        from repro.mesh.refine import refine_block

        v0 = grid.cell_volume(grid.leaf_blocks()[0])
        refine_block(grid, BlockId(0, 0, 0))
        fine = [b for b in grid.leaf_blocks() if b.level == 1][0]
        assert grid.cell_volume(fine) == pytest.approx(v0 / 4)

    def test_total_mass(self):
        grid = small_grid()
        for block in grid.leaf_blocks():
            grid.interior(block, "dens")[:] = 2.0
        # domain [0,1]^2 (z direction collapses), rho=2 -> mass 2
        assert grid.total("dens", weight=None) == pytest.approx(2.0)

    def test_maxblocks_exceeded(self):
        tree = AMRTree(ndim=2, nblockx=2, nblocky=2)
        spec = MeshSpec(ndim=2, nxb=8, nyb=8, nguard=2, maxblocks=2)
        with pytest.raises(MeshError):
            Grid(tree, spec)

    def test_slot_reuse_after_remove(self):
        grid = small_grid()
        block = grid.leaf_blocks()[0]
        slot = block.slot
        grid._remove_block(block.bid)
        newb = grid._add_block(block.bid)
        assert newb.slot == slot


class TestUnkLayout:
    def test_strides_match_numpy(self):
        """The layout's documented formula must equal NumPy's own strides
        for the Fortran-ordered unk array."""
        grid = small_grid()
        layout = UnkLayout(nvar=len(grid.variables), spec=grid.spec)
        assert layout.strides == grid.unk.strides
        assert layout.shape == grid.unk.shape
        assert layout.nbytes == grid.unk.nbytes

    def test_offset_formula(self):
        spec = MeshSpec(ndim=2, nxb=8, nyb=8, nguard=2, maxblocks=4)
        layout = UnkLayout(nvar=5, spec=spec)
        # element (v=1, i=2, j=3, k=0, b=1)
        expected = 8 * (1 + 5 * (2 + 12 * (3 + 12 * (0 + 1 * 1))))
        assert int(layout.offset(1, 2, 3, 0, 1)) == expected

    def test_block_panel_disjoint(self):
        spec = MeshSpec(ndim=2, nxb=8, nyb=8, nguard=2, maxblocks=4)
        layout = UnkLayout(nvar=5, spec=spec)
        r0 = layout.block_panel_range(0)
        r1 = layout.block_panel_range(1)
        assert r0[1] == r1[0]

    @given(v=st.integers(0, 2), i=st.integers(0, 7), j=st.integers(0, 7),
           b=st.integers(0, 3))
    @settings(max_examples=40)
    def test_offset_within_allocation(self, v, i, j, b):
        spec = MeshSpec(ndim=2, nxb=4, nyb=4, nguard=2, maxblocks=4)
        layout = UnkLayout(nvar=3, spec=spec)
        off = int(layout.offset(v, i, j, 0, b))
        assert 0 <= off < layout.nbytes
