"""PARAMESH-like block-structured adaptive mesh refinement.

The mesh follows the PARAMESH design the paper describes: the solution
lives in a single Fortran-ordered array

``unk(nvar, il_bnd:iu_bnd, jl_bnd:ju_bnd, kl_bnd:ku_bnd, maxblocks)``

holding fixed-size blocks (16x16 zones in 2-d, 16x16x16 in 3-d by
default, with ``nguard`` guard cells per side) that tile the leaves of a
fully threaded quad/octree.  The stride structure of ``unk`` is what
motivated the paper's huge-page investigation, so
:mod:`repro.mesh.layout` exposes the exact byte-offset mapping for the
performance model.
"""

from repro.mesh.block import Block, BlockId
from repro.mesh.tree import AMRTree
from repro.mesh.grid import Grid, MeshSpec, VariableRegistry
from repro.mesh.layout import UnkLayout
from repro.mesh.guardcell import fill_guardcells
from repro.mesh.refine import loehner_error, refine_pass

__all__ = [
    "Block",
    "BlockId",
    "AMRTree",
    "Grid",
    "MeshSpec",
    "VariableRegistry",
    "UnkLayout",
    "fill_guardcells",
    "loehner_error",
    "refine_pass",
]
