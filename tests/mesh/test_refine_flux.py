"""Tests for refinement data motion and Löhner marking."""

import numpy as np
import pytest

from repro.mesh.block import BlockId
from repro.mesh.grid import Grid, MeshSpec
from repro.mesh.refine import derefine_block, loehner_error, refine_block, refine_pass
from repro.mesh.tree import AMRTree


def make_grid(ndim=2, nxb=8, max_level=3, maxblocks=256):
    tree = AMRTree(ndim=ndim, nblockx=2, nblocky=2 if ndim > 1 else 1,
                   nblockz=2 if ndim > 2 else 1, max_level=max_level)
    spec = MeshSpec(ndim=ndim, nxb=nxb, nyb=nxb if ndim > 1 else 1,
                    nzb=nxb if ndim > 2 else 1, nguard=2, maxblocks=maxblocks)
    return Grid(tree, spec)


class TestRefineData:
    def test_refine_conserves_mass(self):
        grid = make_grid()
        rng = np.random.default_rng(0)
        for block in grid.leaf_blocks():
            grid.interior(block, "dens")[:] = 1.0 + rng.random(
                grid.interior(block, "dens").shape)
        mass0 = grid.total("dens", weight=None)
        refine_block(grid, BlockId(0, 0, 0))
        assert grid.total("dens", weight=None) == pytest.approx(mass0, rel=1e-13)

    def test_derefine_roundtrip_constant_exact(self):
        grid = make_grid()
        for block in grid.leaf_blocks():
            grid.interior(block, "dens")[:] = 4.2
        refine_block(grid, BlockId(0, 0, 0))
        derefine_block(grid, BlockId(0, 0, 0))
        block = grid.blocks[BlockId(0, 0, 0)]
        assert np.allclose(grid.interior(block, "dens"), 4.2)

    def test_derefine_conserves_mass(self):
        grid = make_grid()
        rng = np.random.default_rng(1)
        for block in grid.leaf_blocks():
            grid.interior(block, "dens")[:] = 1.0 + rng.random(
                grid.interior(block, "dens").shape)
        refine_block(grid, BlockId(0, 1, 0))
        mass0 = grid.total("dens", weight=None)
        assert derefine_block(grid, BlockId(0, 1, 0))
        assert grid.total("dens", weight=None) == pytest.approx(mass0, rel=1e-13)

    def test_refine_balance_cascade_moves_data(self):
        grid = make_grid(max_level=3)
        for block in grid.leaf_blocks():
            x, y, z = grid.cell_centers(block)
            grid.interior(block, "dens")[:] = 1.0 + x + y
        mass0 = grid.total("dens", weight=None)
        refine_block(grid, BlockId(0, 0, 0))
        # refining a fresh child forces the neighbours to refine too
        refine_block(grid, BlockId(1, 1, 1))
        refine_block(grid, BlockId(2, 3, 3))
        grid.tree.check_balance()
        assert grid.total("dens", weight=None) == pytest.approx(mass0, rel=1e-12)
        # every leaf has a slot and every slot is consistent
        assert len({b.slot for b in grid.leaf_blocks()}) == grid.tree.n_leaves


class TestLoehner:
    def test_zero_for_smooth_linear(self):
        grid = make_grid()
        for block in grid.leaf_blocks():
            x, y, z = grid.cell_centers(block)
            grid.interior(block, "dens")[:] = 1.0 + x  # no curvature
        errs = [loehner_error(grid, b, "dens") for b in grid.leaf_blocks()]
        assert max(errs) < 0.05

    def test_detects_discontinuity(self):
        grid = make_grid()
        for block in grid.leaf_blocks():
            x, y, z = grid.cell_centers(block)
            grid.interior(block, "dens")[:] = np.where(x + 0 * y + 0 * z < 0.4,
                                                       1.0, 10.0)
        target = grid.blocks[BlockId(0, 0, 0)]  # contains the jump
        assert loehner_error(grid, target, "dens") > 0.8

    def test_refine_pass_refines_at_jump(self):
        grid = make_grid(max_level=2)
        for block in grid.leaf_blocks():
            x, y, z = grid.cell_centers(block)
            grid.interior(block, "dens")[:] = np.where(x < 0.4, 1.0, 10.0)
        n_ref, n_deref = refine_pass(grid, "dens")
        assert n_ref >= 2  # the two blocks containing the jump
        grid.tree.check_balance()

    def test_refine_pass_derefines_smooth_bundles(self):
        grid = make_grid(max_level=2)
        refine_block(grid, BlockId(0, 0, 0))
        for block in grid.leaf_blocks():
            grid.interior(block, "dens")[:] = 1.0  # uniform: nothing to keep
        n_ref, n_deref = refine_pass(grid, "dens")
        assert n_deref == 1
        assert grid.tree.is_leaf(BlockId(0, 0, 0))

    def test_refine_pass_validates_cutoffs(self):
        grid = make_grid()
        with pytest.raises(Exception):
            refine_pass(grid, "dens", refine_cutoff=0.1, derefine_cutoff=0.5)
