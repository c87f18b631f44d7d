"""The fine trace's per-zone walks over one block's unk panel.

``TraceBuilder._zone_walk_offsets`` decides which unk bytes a unit's
inner loop touches and in what order; the fine trace, and with it the
L1-DTLB miss rate, follows from those offsets.
"""

import numpy as np
import pytest

from repro.mesh.grid import MeshSpec
from repro.mesh.layout import UnkLayout
from repro.perfmodel.patterns import TraceBuilder
from repro.perfmodel.workrecord import WorkLog

NVAR = 3
SLOT = 1


def _builder(ndim):
    spec = MeshSpec(ndim=ndim, nxb=4, nyb=4, nzb=4 if ndim > 2 else 1,
                    nguard=2, maxblocks=2)
    layout = UnkLayout(nvar=NVAR, spec=spec)
    # the zone walks read only the layout and the log's mesh spec
    return TraceBuilder(space=None, layout=layout, unk=None, scratch=[],
                        eos_table=None, flame_table=None,
                        log=WorkLog(spec=spec, nvar=NVAR))


def _zones(layout, offsets):
    """(i, j, k) of each offset, which must address variable 0 of a
    zone in block ``SLOT``."""
    _, si, sj, sk, sb = layout.strides
    rel = offsets - SLOT * sb
    assert (rel >= 0).all() and (rel < sb).all()
    k, rem = np.divmod(rel, sk)
    j, rem = np.divmod(rem, sj)
    i, rem = np.divmod(rem, si)
    assert (rem == 0).all()
    return np.stack([i, j, k], axis=1)


class TestZoneWalkOffsets:
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_eos_walk_is_interior_in_fortran_order(self, ndim):
        builder = _builder(ndim)
        layout = builder.layout
        sx, sy, sz = layout.spec.interior_slices()
        offs = builder._zone_walk_offsets(SLOT, None)
        expected = [int(layout.offset(0, i, j, k, SLOT))
                    for k in range(sz.start, sz.stop)
                    for j in range(sy.start, sy.stop)
                    for i in range(sx.start, sx.stop)]
        assert offs.tolist() == expected
        # consecutive x-zones are one zone's variables apart
        nx = sx.stop - sx.start
        assert (np.diff(offs.reshape(-1, nx), axis=1)
                == layout.strides[1]).all()

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_sweep_walks_pencils_through_its_own_guards(self, axis):
        builder = _builder(3)
        layout = builder.layout
        spec = layout.spec
        padded = spec.padded_shape
        zones = _zones(layout, builder._zone_walk_offsets(SLOT, axis))
        # guard zones along the sweep axis, the interior across it
        for a, sl in enumerate(spec.interior_slices()):
            want = range(padded[a]) if a == axis else range(sl.start, sl.stop)
            assert sorted(set(zones[:, a].tolist())) == list(want)
        assert len(zones) == padded[axis] * np.prod(
            [spec.interior_zones[a] for a in range(3) if a != axis])
        # the sweep axis is innermost: each pencil runs 0 … padded-1
        # along it with the transverse zone fixed
        pencils = zones.reshape(-1, padded[axis], 3)
        assert (pencils[:, :, axis] == np.arange(padded[axis])).all()
        for t in range(3):
            if t != axis:
                assert (pencils[:, :, t] == pencils[:, :1, t]).all()

    def test_z_sweep_steps_one_padded_plane(self):
        builder = _builder(3)
        layout = builder.layout
        nz = layout.spec.padded_shape[2]
        pencils = builder._zone_walk_offsets(SLOT, 2).reshape(-1, nz)
        nx, ny, _ = layout.spec.padded_shape
        assert layout.strides[3] == NVAR * 8 * nx * ny
        assert (np.diff(pencils, axis=1) == layout.strides[3]).all()
