"""Tests for the simulated MPI layer."""

import numpy as np
import pytest

from repro.mesh.block import BlockId
from repro.mesh.grid import Grid, MeshSpec
from repro.mesh.refine import refine_block
from repro.mesh.tree import AMRTree
from repro.mpisim.comm import (
    CommCostModel,
    DomainDecomposition,
    SimComm,
    scaling_model,
)
from repro.util.errors import ConfigurationError


def make_grid(nblock=4, max_level=2):
    tree = AMRTree(ndim=2, nblockx=nblock, nblocky=nblock,
                   max_level=max_level, domain=((0, 1), (0, 1), (0, 1)))
    spec = MeshSpec(ndim=2, nxb=8, nyb=8, nzb=1, nguard=2, maxblocks=256)
    return Grid(tree, spec)


class TestCostModel:
    def test_p2p_latency_floor(self):
        cost = CommCostModel()
        assert cost.p2p_time(0) == pytest.approx(cost.latency_s)

    def test_p2p_bandwidth_limit(self):
        cost = CommCostModel()
        t = cost.p2p_time(12_500_000_000)
        assert t == pytest.approx(1.0 + cost.latency_s)

    def test_allreduce_log_rounds(self):
        cost = CommCostModel()
        t2 = cost.allreduce_time(8, 2)
        t16 = cost.allreduce_time(8, 16)
        assert t16 == pytest.approx(4 * t2)

    def test_allreduce_single_rank_free(self):
        assert CommCostModel().allreduce_time(8, 1) == 0.0

    def test_node_bandwidth_shared_by_residents(self):
        """Two resident ranks halve the effective per-rank bandwidth."""
        cost = CommCostModel()
        assert cost.effective_bandwidth_Bps(1) == cost.bandwidth_Bps
        assert cost.effective_bandwidth_Bps(2) == pytest.approx(
            cost.node_bandwidth_Bps / 2)
        t1 = cost.p2p_time(12_500_000_000, ranks_per_node=1)
        t2 = cost.p2p_time(12_500_000_000, ranks_per_node=2)
        assert t2 == pytest.approx(2.0 + cost.latency_s)
        assert t2 > t1

    def test_link_bandwidth_still_caps(self):
        """A fat node pipe cannot exceed the per-rank link rate."""
        cost = CommCostModel(node_bandwidth_Bps=100e9)
        assert cost.effective_bandwidth_Bps(2) == cost.bandwidth_Bps

    def test_allreduce_respects_residency(self):
        cost = CommCostModel()
        assert cost.allreduce_time(8 << 20, 4, ranks_per_node=4) > \
            cost.allreduce_time(8 << 20, 4, ranks_per_node=1)

    def test_residency_validated(self):
        with pytest.raises(ConfigurationError):
            CommCostModel().effective_bandwidth_Bps(0)

    def test_resident_ranks_packing(self):
        cost = CommCostModel(cores_per_node=48)
        assert cost.resident_ranks(1) == 1
        assert cost.resident_ranks(32) == 32
        assert cost.resident_ranks(96) == 48


class TestDecomposition:
    def test_all_blocks_assigned_once(self):
        grid = make_grid()
        dd = DomainDecomposition.split(grid, 4)
        assigned = [b for blocks in dd.assignment.values() for b in blocks]
        assert sorted(assigned) == sorted(grid.tree.leaves())

    def test_balanced(self):
        grid = make_grid()
        dd = DomainDecomposition.split(grid, 4)
        assert dd.load_imbalance() == pytest.approx(1.0)

    def test_imbalance_with_refinement(self):
        grid = make_grid()
        refine_block(grid, BlockId(0, 0, 0))
        dd = DomainDecomposition.split(grid, 4)
        assert dd.load_imbalance() >= 1.0

    def test_morton_contiguity_limits_halo(self):
        """Morton-contiguous ranks talk to few others: off-rank faces are
        a minority of all faces."""
        grid = make_grid(nblock=8, max_level=0)
        dd = DomainDecomposition.split(grid, 4)
        face_bytes = 100
        received, _ = dd.halo_traffic(grid, face_bytes)
        total_halo = sum(received)
        all_faces = grid.tree.n_leaves * 4 * face_bytes
        assert total_halo < 0.5 * all_faces

    def test_rank_of(self):
        grid = make_grid()
        dd = DomainDecomposition.split(grid, 2)
        bid = grid.tree.leaves()[0]
        assert dd.rank_of(bid) == 0

    def test_rank_of_consistent_for_every_block(self):
        """The reverse map agrees with the assignment for all blocks."""
        grid = make_grid()
        dd = DomainDecomposition.split(grid, 4)
        for rank, blocks in dd.assignment.items():
            for bid in blocks:
                assert dd.rank_of(bid) == rank

    def test_rank_of_unknown_block_raises(self):
        grid = make_grid()
        dd = DomainDecomposition.split(grid, 2)
        with pytest.raises(KeyError):
            dd.rank_of(BlockId(99, 99, 99))

    def test_rank_of_handmade_assignment(self):
        """Manually constructed decompositions lazily build the map."""
        grid = make_grid()
        leaves = grid.tree.leaves()
        dd = DomainDecomposition(n_ranks=2)
        dd.assignment[0] = leaves[: len(leaves) // 2]
        dd.assignment[1] = leaves[len(leaves) // 2:]
        assert dd.rank_of(leaves[-1]) == 1
        # growing the assignment invalidates the cached map via its size
        extra = BlockId(7, 7, 7)
        dd.assignment[0].append(extra)
        assert dd.rank_of(extra) == 0

    def test_needs_positive_ranks(self):
        with pytest.raises(ConfigurationError):
            DomainDecomposition.split(make_grid(), 0)


class TestSimComm:
    def test_allreduce_min_exact(self):
        comm = SimComm(4)
        assert comm.allreduce_min([4.0, 2.0, 8.0, 3.0]) == 2.0
        assert comm.elapsed_s > 0

    def test_allreduce_sum_exact(self):
        comm = SimComm(3)
        assert comm.allreduce_sum([1.0, 2.0, 3.0]) == 6.0

    def test_shape_checked(self):
        comm = SimComm(4)
        with pytest.raises(ConfigurationError):
            comm.allreduce_min([1.0, 2.0])

    def test_halo_exchange_accounts_bytes(self):
        comm = SimComm(2)
        comm.halo_exchange([1000, 2000])
        assert comm.bytes_moved == 3000
        assert comm.elapsed_s >= comm.cost.p2p_time(2000)


class TestSimCommResidency:
    def test_simcomm_threads_ranks_per_node(self):
        dense = SimComm(4, ranks_per_node=4)
        sparse = SimComm(4, ranks_per_node=1)
        for comm in (dense, sparse):
            comm.halo_exchange([10_000_000] * 4)
        assert dense.elapsed_s > sparse.elapsed_s

    def test_simcomm_residency_validated(self):
        with pytest.raises(ConfigurationError):
            SimComm(4, ranks_per_node=0)


class TestScalingModel:
    def test_scales_reasonably_well(self):
        """The porting narrative: time falls with rank count, with the
        usual surface/volume efficiency tail."""
        grid = make_grid(nblock=8, max_level=0)
        times = scaling_model(grid, [1, 2, 4, 8, 16],
                              seconds_per_block_step=1e-2,
                              bytes_per_face=8 * 10 * 8 * 2)
        ts = [times[p] for p in (1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(ts, ts[1:]))  # monotone speedup
        eff16 = times[1] / (16 * times[16])
        assert 0.5 < eff16 <= 1.02  # reasonable, not perfect

    def test_dense_packing_slower_than_sparse(self):
        """Node-injection sharing makes packed curves honestly slower."""
        grid = make_grid(nblock=8, max_level=0)
        kwargs = dict(seconds_per_block_step=1e-2,
                      bytes_per_face=8 * 10 * 8 * 2)
        sparse = scaling_model(grid, [16], **kwargs)
        dense = scaling_model(grid, [16], ranks_per_node=16, **kwargs)
        assert dense[16] > sparse[16]

    def test_residency_capped_at_rank_count(self):
        """ranks_per_node above p degrades no further than p residents."""
        grid = make_grid(nblock=8, max_level=0)
        kwargs = dict(seconds_per_block_step=1e-2,
                      bytes_per_face=8 * 10 * 8 * 2)
        a = scaling_model(grid, [4], ranks_per_node=4, **kwargs)
        b = scaling_model(grid, [4], ranks_per_node=48, **kwargs)
        assert a[4] == pytest.approx(b[4])

    def test_one_traffic_pass_per_rank_count(self, monkeypatch):
        """On a refined tree the model walks the halo once per
        decomposition and matches the per-rank formula exactly."""
        grid = make_grid(nblock=4, max_level=2)
        refine_block(grid, BlockId(0, 0, 0))
        refine_block(grid, BlockId(1, 2, 2))
        cost = CommCostModel()
        spb, face, steps, counts = 1e-2, 640, 3, [1, 2, 3, 4, 7]
        expected = {}
        for p in counts:
            dd = DomainDecomposition.split(grid, p)
            received, _ = dd.halo_traffic(grid, face)
            compute = max(len(b) for b in dd.assignment.values()) * spb
            halo = max(cost.p2p_time(received[r], 1) for r in range(p))
            expected[p] = steps * (compute + halo
                                   + cost.allreduce_time(8, p, 1))
        calls = []
        traffic = DomainDecomposition.halo_traffic

        def counted(self, *args, **kwargs):
            calls.append(self.n_ranks)
            return traffic(self, *args, **kwargs)

        monkeypatch.setattr(DomainDecomposition, "halo_traffic", counted)
        got = scaling_model(grid, counts, seconds_per_block_step=spb,
                            bytes_per_face=face, steps=steps, cost=cost)
        assert calls == counts
        assert got == expected


class TestEmptyShardContract:
    def test_more_ranks_than_leaves_rejected(self):
        grid = make_grid(nblock=2, max_level=0)  # 4 leaves
        with pytest.raises(ConfigurationError, match="empty shards"):
            DomainDecomposition.split(grid, 5)

    def test_allow_empty_opts_in(self):
        """The documented contract: every rank key exists, idle ranks
        exchange zero bytes, load_imbalance counts them."""
        grid = make_grid(nblock=2, max_level=0)
        dd = DomainDecomposition.split(grid, 6, allow_empty=True)
        assert sorted(dd.assignment) == list(range(6))
        empty = [r for r, blocks in dd.assignment.items() if not blocks]
        assert empty
        received, _ = dd.halo_traffic(grid, 100)
        for rank in empty:
            assert received[rank] == 0
        assert dd.load_imbalance() > 1.0

    def test_exact_fit_needs_no_opt_in(self):
        grid = make_grid(nblock=2, max_level=0)
        dd = DomainDecomposition.split(grid, 4)
        assert all(len(b) == 1 for b in dd.assignment.values())


class TestHaloTraffic:
    def test_sent_equals_received_uniform(self):
        grid = make_grid(nblock=4, max_level=0)
        dd = DomainDecomposition.split(grid, 4)
        received, sent = dd.halo_traffic(grid, 100)
        assert sum(received) == sum(sent) > 0

    def test_sent_equals_received_refined(self):
        """Symmetry holds across refinement jumps, where one coarse face
        reads several fine neighbours (and vice versa)."""
        grid = make_grid(nblock=4, max_level=2)
        refine_block(grid, BlockId(0, 0, 0))
        refine_block(grid, BlockId(1, 2, 2))
        for n_ranks in (2, 3, 4, 7):
            dd = DomainDecomposition.split(grid, n_ranks)
            received, sent = dd.halo_traffic(grid, 64)
            assert sum(received) == sum(sent) > 0
            assert len(received) == len(sent) == n_ranks


class TestChargedTimeMonotonicity:
    def test_halo_time_monotone_in_ranks_per_node(self):
        """Denser node packing shares the injection pipe: the charged
        time for the same exchange never decreases with residency."""
        elapsed = []
        for rpn in (1, 2, 4, 8):
            comm = SimComm(8, ranks_per_node=rpn)
            comm.halo_exchange([5_000_000] * 8)
            elapsed.append(comm.elapsed_s)
        assert all(a <= b for a, b in zip(elapsed, elapsed[1:]))
        assert elapsed[0] < elapsed[-1]

    def test_allreduce_time_monotone_in_ranks_per_node(self):
        elapsed = []
        for rpn in (1, 2, 4):
            comm = SimComm(4, ranks_per_node=rpn)
            comm.allreduce_min(np.zeros(4))
            elapsed.append(comm.elapsed_s)
        assert all(a <= b for a, b in zip(elapsed, elapsed[1:]))


class TestCollectiveDeadlines:
    """Optional modelled-time deadlines on collectives (default: off)."""

    def test_timeout_must_be_positive(self):
        from repro.util.errors import FabricTimeout  # noqa: F401
        with pytest.raises(ConfigurationError):
            SimComm(2, timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            SimComm(2, timeout_s=-1.0)

    def test_default_off_is_bit_identical(self):
        """No deadline configured: charges and results are untouched
        (the scaling bench baselines depend on this)."""
        plain = SimComm(4)
        timed = SimComm(4, timeout_s=1e9)  # generous: never trips
        for comm in (plain, timed):
            comm.allreduce_min(np.arange(4.0))
            comm.p2p(1_000_000)
            comm.halo_exchange([100, 200, 300, 400])
        assert plain.elapsed_s == timed.elapsed_s
        assert plain.bytes_moved == timed.bytes_moved

    def test_tripped_deadline_charges_nothing(self):
        """A timed-out collective raises FabricTimeout and leaves the
        accounting untouched — the caller restores a snapshot, so a
        partial charge would desynchronise the replay."""
        from repro.util.errors import FabricTimeout
        comm = SimComm(4, timeout_s=1e-12)
        before = (comm.elapsed_s, comm.bytes_moved)
        with pytest.raises(FabricTimeout):
            comm.allreduce_min(np.zeros(4))
        with pytest.raises(FabricTimeout):
            comm.p2p(5_000_000)
        with pytest.raises(FabricTimeout):
            comm.halo_exchange([5_000_000] * 4)
        assert (comm.elapsed_s, comm.bytes_moved) == before

    def test_per_call_deadline_overrides_constructor(self):
        from repro.util.errors import FabricTimeout
        comm = SimComm(4, timeout_s=1e-12)
        # a generous per-call deadline admits the op
        comm.allreduce_min(np.zeros(4), timeout_s=10.0)
        assert comm.elapsed_s > 0.0
        # and a tight per-call deadline trips an otherwise-open comm
        open_comm = SimComm(4)
        with pytest.raises(FabricTimeout):
            open_comm.p2p(5_000_000, timeout_s=1e-12)

    def test_p2p_returns_modelled_seconds_and_counts_bytes(self):
        comm = SimComm(2)
        seconds = comm.p2p(12_500)
        assert seconds == pytest.approx(comm.cost.p2p_time(12_500, 1))
        assert comm.bytes_moved == 12_500
        assert comm.elapsed_s == pytest.approx(seconds)
        with pytest.raises(ConfigurationError):
            comm.p2p(-1)
