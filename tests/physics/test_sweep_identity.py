"""Bit-identity of the hydro sweep.

The sweep is a pure function of ``unk``: any rewrite of it (chunking,
the read window, fused kernels) must leave the solution unchanged to
the last bit.  The golden hashes below were recorded from the
full-panel sweep the windowed one replaced.  Both problems are
gamma-law, so every operation on the way (guard fill, sweep, EOS) is
``+ - * /``, ``sqrt``, ``max`` or ``clip``: correctly rounded on every
IEEE-754 NumPy build, so the hashes hold across builds.
"""

import hashlib

import numpy as np
import pytest

import repro.physics.hydro.sweep as sweep
from repro.mesh.block import BlockId
from repro.mesh.grid import Grid, MeshSpec, VariableRegistry
from repro.mesh.refine import refine_block
from repro.mesh.tree import AMRTree
from repro.physics.eos import GammaLawEOS
from repro.physics.eos.apply import apply_eos
from repro.physics.hydro.unit import HydroUnit
from repro.setups.sedov import sedov_setup
from repro.setups.sod import SodProblem

#: sha256 of the leaf slots of ``unk`` after :func:`run_sod`
SOD_SHA256 = "5d17c35a65aa953a1ffc2b9bed7587d999edd7fc8c770e1b8d8a517be14a0a1b"
#: sha256 of the leaf slots of ``unk`` after :func:`run_sedov3d`
SEDOV3D_SHA256 = "3944c9c77f6ac3006ff4bc375a4a6ee0833061b7c51abd03f4709ba15e67fe9f"
#: the same with two advected species
SEDOV3D_SPECIES_SHA256 = (
    "9e084904096d490649134add7933a4dea64517930ccbb57e4604549d5cc83948")

SPECIES = ("fl01", "fl02")


def leaf_sha256(grid) -> str:
    """sha256 of every leaf slot of ``unk`` (guards included), Morton
    order."""
    slots = [b.slot for b in grid.leaf_blocks()]
    data = np.ascontiguousarray(grid.unk[..., slots])
    return hashlib.sha256(data.tobytes()).hexdigest()


def evolve(grid, hydro, steps):
    for _ in range(steps):
        hydro.step(grid, hydro.timestep(grid))


def run_sod(steps=12):
    """1-d Sod over a refinement jump (5 leaves, two levels)."""
    tree = AMRTree(ndim=1, nblockx=4, max_level=1,
                   domain=((0, 1), (0, 1), (0, 1)))
    grid = Grid(tree, MeshSpec(ndim=1, nxb=16, nyb=1, nzb=1, nguard=4,
                               maxblocks=16))
    refine_block(grid, BlockId(0, 2, 0, 0))
    eos = GammaLawEOS(gamma=1.4)
    SodProblem().initialize(grid, eos)
    evolve(grid, HydroUnit(eos, cfl=0.6), steps)
    return grid


def run_sedov3d(steps=2, species=()):
    """3-d Sedov on 8³-zone blocks, one root refined: 15 leaves with
    coarse/fine faces on all three axes."""
    tree = AMRTree(ndim=3, nblockx=2, nblocky=2, nblockz=2, max_level=1,
                   domain=((0, 1), (0, 1), (0, 1)))
    variables = VariableRegistry().extended(*species)
    grid = Grid(tree, MeshSpec(ndim=3, nxb=8, nyb=8, nzb=8, nguard=4,
                               maxblocks=32), variables)
    refine_block(grid, BlockId(0, 0, 1, 1))
    eos = GammaLawEOS(gamma=1.4)
    sedov_setup(grid, eos, center=(0.4, 0.55, 0.6))
    if species:
        for b in grid.leaf_blocks():
            x, y, _ = grid.cell_centers(b)
            shape = grid.interior(b, "dens").shape
            grid.interior(b, species[0])[:] = np.broadcast_to(
                0.5 + 0.4 * np.sin(6.0 * x) * np.cos(5.0 * y), shape)
        apply_eos(grid, eos)
    evolve(grid, HydroUnit(eos, cfl=0.4, species=species), steps)
    return grid


@pytest.fixture
def restrict_calls(monkeypatch):
    """Count the fine-to-coarse flux restrictions flux matching makes."""
    calls = []
    real = sweep.restrict_fluxes

    def counting(fine, dims):
        calls.append(fine.shape)
        return real(fine, dims)

    monkeypatch.setattr(sweep, "restrict_fluxes", counting)
    return calls


class TestGoldenHashes:
    def test_sod_1d(self, restrict_calls):
        grid = run_sod()
        assert restrict_calls, "flux matching never ran"
        assert leaf_sha256(grid) == SOD_SHA256

    def test_sedov_3d(self, restrict_calls):
        grid = run_sedov3d()
        assert grid.tree.n_leaves == 15
        assert restrict_calls, "flux matching never ran"
        assert leaf_sha256(grid) == SEDOV3D_SHA256

    def test_sedov_3d_species(self):
        grid = run_sedov3d(species=SPECIES)
        assert leaf_sha256(grid) == SEDOV3D_SPECIES_SHA256


class TestChunkInvariance:
    """The chunk size moves no bit: one block per chunk, a size that
    does not divide the leaf count, and one chunk for every leaf."""

    @pytest.mark.parametrize("chunk", [1, 4, 64])
    def test_sedov_3d(self, monkeypatch, chunk):
        monkeypatch.setattr(sweep, "_CHUNK", chunk)
        assert leaf_sha256(run_sedov3d()) == SEDOV3D_SHA256

    @pytest.mark.parametrize("chunk", [2, 1000])
    def test_sedov_3d_species(self, monkeypatch, chunk):
        monkeypatch.setattr(sweep, "_CHUNK", chunk)
        grid = run_sedov3d(species=SPECIES)
        assert leaf_sha256(grid) == SEDOV3D_SPECIES_SHA256
