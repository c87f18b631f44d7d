"""Simulated MPI for scaling studies.

FLASH parallelises by distributing Morton-ordered blocks across ranks;
guard-cell fills become halo exchanges and the timestep reduction an
allreduce.  This module provides:

* :class:`DomainDecomposition` — Morton-contiguous block partitioning
  with its surface/volume communication statistics;
* :class:`CommCostModel` — a latency/bandwidth (alpha-beta) cost model
  parameterised for Ookami's InfiniBand HDR100 fat tree;
* :class:`SimComm` — a deterministic single-process "communicator" whose
  collective operations compute real results over per-rank values while
  charging the modelled communication time.

This supports the porting-section narrative ("scaled reasonably well")
without real message passing — the paper's tables are single-node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mesh.grid import Grid
from repro.util.errors import ConfigurationError, FabricTimeout


@dataclass(frozen=True)
class CommCostModel:
    """alpha-beta model for Ookami's HDR100 InfiniBand fat tree.

    The node's injection bandwidth (``node_bandwidth_Bps``, one HDR100
    HCA per A64FX node) is *shared* by every rank resident on the node:
    with R ranks per node the per-rank beta term degrades to
    ``min(bandwidth_Bps, node_bandwidth_Bps / R)``.  Ookami runs up to
    48 ranks per node, so multicore scaling curves that ignored this
    overstated bandwidth by up to 48x.
    """

    latency_s: float = 1.3e-6
    bandwidth_Bps: float = 12.5e9  # HDR100 ~ 100 Gb/s
    #: per-node injection limit shared by resident ranks
    node_bandwidth_Bps: float = 12.5e9
    #: cores (max resident ranks) per node — Ookami's A64FX has 48
    cores_per_node: int = 48

    def effective_bandwidth_Bps(self, ranks_per_node: int = 1) -> float:
        """Per-rank bandwidth once residents share the node's injection."""
        if ranks_per_node < 1:
            raise ConfigurationError("need at least one resident rank")
        return min(self.bandwidth_Bps,
                   self.node_bandwidth_Bps / ranks_per_node)

    def p2p_time(self, nbytes: int, ranks_per_node: int = 1) -> float:
        return (self.latency_s
                + nbytes / self.effective_bandwidth_Bps(ranks_per_node))

    def allreduce_time(self, nbytes: int, n_ranks: int,
                       ranks_per_node: int = 1) -> float:
        """Recursive-doubling estimate: log2(P) rounds."""
        if n_ranks <= 1:
            return 0.0
        rounds = int(np.ceil(np.log2(n_ranks)))
        return rounds * self.p2p_time(nbytes, ranks_per_node)

    def resident_ranks(self, n_ranks: int) -> int:
        """Ranks sharing one node's injection when packing nodes densely."""
        return max(1, min(n_ranks, self.cores_per_node))


@dataclass
class DomainDecomposition:
    """Morton-contiguous partitioning of leaf blocks across ranks."""

    n_ranks: int
    #: rank -> list of BlockIds
    assignment: dict[int, list] = field(default_factory=dict)
    #: BlockId -> rank reverse map (lazily rebuilt if assignment is
    #: constructed by hand); makes rank_of O(1) instead of an
    #: O(ranks * blocks) scan per lookup
    _owner: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def split(cls, grid: Grid, n_ranks: int, *,
              allow_empty: bool = False) -> "DomainDecomposition":
        """Split the grid's Morton-ordered leaves into ``n_ranks`` shards.

        With more ranks than leaves, trailing ranks would get *empty*
        shards — a real FLASH run refuses such a launch, and every
        consumer here (``halo_traffic``, ``scaling_model``) would silently
        iterate idle ranks.  That is therefore an error unless the
        caller opts in with ``allow_empty=True``, in which case the
        empty-shard contract holds: every rank key exists in
        ``assignment``, empty ranks exchange zero halo bytes, and
        ``load_imbalance`` counts them in the mean.
        """
        if n_ranks < 1:
            raise ConfigurationError("need at least one rank")
        leaves = grid.tree.leaves()
        if n_ranks > len(leaves) and not allow_empty:
            raise ConfigurationError(
                f"cannot split {len(leaves)} leaf blocks across {n_ranks} "
                f"ranks without empty shards (pass allow_empty=True to "
                f"accept idle ranks)")
        out = cls(n_ranks=n_ranks)
        per = len(leaves) / n_ranks
        for rank in range(n_ranks):
            lo = int(round(rank * per))
            hi = int(round((rank + 1) * per))
            out.assignment[rank] = leaves[lo:hi]
        out._rebuild_owner()
        return out

    def _rebuild_owner(self) -> None:
        self._owner = {bid: rank
                       for rank, blocks in self.assignment.items()
                       for bid in blocks}

    def rank_of(self, bid) -> int:
        if len(self._owner) != sum(len(b) for b in self.assignment.values()):
            self._rebuild_owner()
        return self._owner[bid]

    def load_imbalance(self) -> float:
        """max/mean block count across ranks (1.0 = perfect)."""
        counts = np.array([len(b) for b in self.assignment.values()], float)
        mean = counts.mean()
        return float(counts.max() / mean) if mean > 0 else 1.0

    def halo_traffic(self, grid: Grid,
                     bytes_per_face: int) -> tuple[list[int], list[int]]:
        """Per-rank (received, sent) bytes for one guard-cell fill.

        Every off-rank source face a rank reads is a receive for that
        rank and a send for the source's owner, so the two lists always
        sum to the same total — the symmetry the fabric's accounting
        tests pin down on refined trees.
        """
        if len(self._owner) != sum(len(b) for b in self.assignment.values()):
            self._rebuild_owner()
        received = [0] * self.n_ranks
        sent = [0] * self.n_ranks
        for rank in range(self.n_ranks):
            for bid in self.assignment[rank]:
                for axis in range(grid.tree.ndim):
                    for direction in (-1, 1):
                        kind, info = grid.tree.face_neighbor(bid, axis,
                                                             direction)
                        if kind == "boundary":
                            continue
                        neighbors = info if isinstance(info, list) else [info]
                        for nid in neighbors:
                            owner = self._owner.get(nid)
                            if owner != rank:
                                received[rank] += bytes_per_face
                                if owner is not None:
                                    sent[owner] += bytes_per_face
        return received, sent


class SimComm:
    """A deterministic simulated communicator.

    Per-rank values live in arrays indexed by rank; collectives combine
    them exactly and charge modelled time to ``elapsed_s``.

    ``timeout_s`` is an optional per-operation deadline in *modelled*
    time: when a collective or p2p operation's charged time would exceed
    it, the operation raises :class:`~repro.util.errors.FabricTimeout`
    instead of completing — the simulated analogue of a hung partner
    that never answers.  Off (``None``) by default so every existing
    bench stays bit-identical; each operation also accepts a per-call
    override.
    """

    def __init__(self, n_ranks: int,
                 cost: CommCostModel | None = None,
                 ranks_per_node: int = 1,
                 timeout_s: float | None = None) -> None:
        if n_ranks < 1:
            raise ConfigurationError("need at least one rank")
        if ranks_per_node < 1:
            raise ConfigurationError("need at least one resident rank")
        if timeout_s is not None and timeout_s <= 0.0:
            raise ConfigurationError("timeout_s must be positive (or None)")
        self.n_ranks = n_ranks
        self.cost = cost or CommCostModel()
        self.ranks_per_node = ranks_per_node
        self.timeout_s = timeout_s
        self.elapsed_s = 0.0
        self.bytes_moved = 0

    def _charge(self, op: str, seconds: float,
                timeout_s: float | None) -> None:
        """Charge one operation's modelled time, enforcing the deadline.

        A timed-out operation charges nothing: the caller recovers from
        the snapshot taken before the step, so partial charges would
        only desynchronise the accounting from the retried step's."""
        deadline = timeout_s if timeout_s is not None else self.timeout_s
        if deadline is not None and seconds > deadline:
            raise FabricTimeout(
                f"{op} would take {seconds:.3e} s of modelled time, over "
                f"the {deadline:.3e} s deadline (hung partner?)")
        self.elapsed_s += seconds

    def allreduce_min(self, values, *, timeout_s: float | None = None) -> float:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n_ranks,):
            raise ConfigurationError("one value per rank expected")
        self._charge("allreduce_min",
                     self.cost.allreduce_time(8, self.n_ranks,
                                              self.ranks_per_node),
                     timeout_s)
        return float(values.min())

    def allreduce_sum(self, values, *, timeout_s: float | None = None) -> float:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n_ranks,):
            raise ConfigurationError("one value per rank expected")
        self._charge("allreduce_sum",
                     self.cost.allreduce_time(8, self.n_ranks,
                                              self.ranks_per_node),
                     timeout_s)
        return float(values.sum())

    def p2p(self, nbytes: int, *, timeout_s: float | None = None) -> float:
        """Charge one point-to-point message; returns the modelled time."""
        if nbytes < 0:
            raise ConfigurationError("message size cannot be negative")
        seconds = self.cost.p2p_time(int(nbytes), self.ranks_per_node)
        self._charge("p2p", seconds, timeout_s)
        self.bytes_moved += int(nbytes)
        return seconds

    def halo_exchange(self, per_rank_bytes, *,
                      timeout_s: float | None = None) -> None:
        """Charge a guard-cell fill's communication time (bulk model)."""
        per_rank_bytes = np.asarray(per_rank_bytes)
        worst = int(per_rank_bytes.max()) if per_rank_bytes.size else 0
        self._charge("halo_exchange",
                     self.cost.p2p_time(worst, self.ranks_per_node),
                     timeout_s)
        self.bytes_moved += int(per_rank_bytes.sum())


def scaling_model(grid: Grid, rank_counts: list[int], *,
                  seconds_per_block_step: float,
                  bytes_per_face: int,
                  steps: int = 1,
                  cost: CommCostModel | None = None,
                  ranks_per_node: int | None = None) -> dict[int, float]:
    """Predicted time per run vs rank count (compute + halo + allreduce).

    Returns {n_ranks: seconds}; the shape gives the porting study's
    "scaled reasonably well" curve with the usual surface/volume tail.

    ``ranks_per_node`` controls node-injection sharing: an explicit int
    pins residency for every rank count; ``"packed"`` semantics are had
    by passing ``None`` with a ``cost`` whose ``cores_per_node`` reflects
    the machine — ``None`` keeps the historical one-rank-per-node curve.
    """
    cost = cost or CommCostModel()
    out = {}
    for p in rank_counts:
        rpn = 1 if ranks_per_node is None else min(ranks_per_node, p)
        dd = DomainDecomposition.split(grid, p)
        per_rank_blocks = max(len(b) for b in dd.assignment.values())
        compute = per_rank_blocks * seconds_per_block_step
        received, _ = dd.halo_traffic(grid, bytes_per_face)
        halo = max(cost.p2p_time(nbytes, rpn) for nbytes in received)
        reduce_t = cost.allreduce_time(8, p, rpn)
        out[p] = steps * (compute + halo + reduce_t)
    return out


__all__ = ["SimComm", "DomainDecomposition", "CommCostModel", "scaling_model"]
