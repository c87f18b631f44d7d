"""Synthesising page traces from the recorded access structure.

Two complementary traces model what the paper's counters saw:

* the **stream trace** covers the whole mesh at panel granularity: every
  unit walks the leaf blocks in Morton order, touching each block's unk
  panel (whose pages are contiguous — a consequence of the
  variable-innermost Fortran layout the paper describes), the per-sweep
  scratch arrays, guard-cell traffic into neighbouring panels, and a few
  table pages per block.  It captures L2-TLB *capacity* behaviour: at
  FLASH scale the panels alone outnumber the 1024 L2 entries.

* the **fine trace** resolves the per-zone page-switching inside sampled
  blocks — the inner-loop rotation between the unk zone, scratch, and the
  data-dependent Helmholtz-table gathers.  With 64 KiB pages that rotation
  cycles far more than the 16 L1-DTLB entries, which is the paper's huge
  miss rate; with 2 MiB pages the whole rotation fits.  Fine-trace miss
  counts are scaled from the sampled zones to the full mesh.

Gather targets are drawn from a deterministic RNG, clustered per block
(thermodynamic states within a block are correlated) around block-specific
table locations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hw import calibration as cal
from repro.hw.trace import PageTrace
from repro.kernel.vmm import AddressSpace
from repro.mesh.layout import UnkLayout
from repro.perfmodel.workrecord import StepRecord, UnitInvocation, WorkLog
from repro.toolchain.allocator import Allocation

#: probe spacing: half the smallest page size guarantees no page is skipped
PROBE_STEP = 32 * 1024


@dataclass
class TraceBuilder:
    """Builds page traces for one process's allocations."""

    space: AddressSpace
    layout: UnkLayout
    unk: Allocation
    scratch: list[Allocation]
    eos_table: Allocation
    flame_table: Allocation
    log: WorkLog
    #: PARAMESH keeps block-sized flux arrays alongside unk; hydro sweeps
    #: stream through them in step with the solution panel
    flux_scratch: Allocation | None = None
    replication: int = 1
    fine_sample_blocks: int = 4
    seed: int = 1234
    #: a hydro pencil loop rotates through small per-pencil work buffers;
    #: they switch every few zones and live on base pages even under the
    #: Fujitsu runtime (too small for the large-page arena) — the main
    #: *residual* L1-DTLB pressure of the with-huge-pages hydro run
    aux_switch_zones: int = 4

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    # --- building blocks -----------------------------------------------------------
    def _virtual_slot(self, slot: int, copy: int) -> int:
        return slot + copy * self.log.maxblocks

    def _panel_offsets(self, slot: int) -> np.ndarray:
        start, stop = self.layout.block_panel_range(slot)
        return np.arange(start, stop, PROBE_STEP, dtype=np.int64)

    def _translate(self, alloc: Allocation, offsets: np.ndarray):
        return alloc.translate(self.space, offsets)

    #: the Helmholtz table is really ~21 separate coefficient arrays
    #: (9 free-energy + 3x4 derivative tables) laid out back to back, of
    #: which ~a dozen are hot in the dens_ei path; each stencil read hits
    #: a different one.  This count sets the with-huge-pages residual miss
    #: rate (the hot arrays' huge pages nearly fill the 16-entry L1 DTLB)
    #: and was pinned against Table I's with-HP column.
    N_TABLE_SUBARRAYS = 12

    def _gather_offsets(self, alloc: Allocation, n: int, center: float,
                        spread: float = 0.08,
                        sub_array: int | None = None) -> np.ndarray:
        """Clustered data-dependent gather targets inside a table.

        ``center`` is the thermodynamic locus of the block (0..1 within
        each coefficient array); ``sub_array`` selects which of the
        table's constituent arrays this gather column reads.
        """
        raw = self._rng.normal(center, spread, size=n)
        raw = np.abs(raw) % 1.0
        if sub_array is None:
            return (raw * (alloc.nbytes - 8)).astype(np.int64)
        width = alloc.nbytes // self.N_TABLE_SUBARRAYS
        base = (sub_array % self.N_TABLE_SUBARRAYS) * width
        return base + (raw * (width - 8)).astype(np.int64)

    # --- stream trace ----------------------------------------------------------------
    def invocation_stream_trace(self, rec: StepRecord,
                                inv: UnitInvocation) -> PageTrace:
        """Panel-granularity trace of one invocation over the whole
        (replicated) mesh."""
        pages: list[np.ndarray] = []
        sizes: list[np.ndarray] = []

        def emit(alloc: Allocation, offsets: np.ndarray) -> None:
            p, s = self._translate(alloc, offsets)
            pages.append(p)
            sizes.append(s)

        n_scratch = len(self.scratch)
        per_block_tables = 0
        table = None
        if inv.unit == "eos":
            per_block_tables, table = 8, self.eos_table
        elif inv.unit == "flame":
            per_block_tables, table = 4, self.flame_table
        for copy in range(self.replication):
            for i, slot in enumerate(rec.slots):
                vslot = self._virtual_slot(slot, copy)
                emit(self.unk, self._panel_offsets(vslot))
                if inv.unit == "guardcell":
                    # neighbour panels: Morton neighbours approximate
                    # the face neighbours' panels
                    for j in (i - 1, i + 1):
                        if 0 <= j < len(rec.slots):
                            nslot = self._virtual_slot(rec.slots[j], copy)
                            emit(self.unk, self._panel_offsets(nslot)[:2])
                if inv.unit in ("hydro_sweep", "eos", "eos_gamma"):
                    for k in range(n_scratch):
                        s = self.scratch[k]
                        emit(s, np.arange(0, s.nbytes, PROBE_STEP,
                                          dtype=np.int64)[:2])
                if table is not None:
                    center = self._rng.random()
                    emit(table, self._gather_offsets(
                        table, per_block_tables, center))
        if not pages:
            return PageTrace.empty()
        return PageTrace.from_accesses(np.concatenate(pages),
                                       np.concatenate(sizes))

    # --- fine trace -------------------------------------------------------------------
    def _zone_walk_offsets(self, slot: int, axis: int | None) -> np.ndarray:
        """Per-zone unk byte offsets in the order the unit visits zones.

        EOS (axis None) visits zones in natural Fortran order (variables
        innermost — consecutive zones are ``nvar`` doubles apart).  A hydro
        sweep works pencil-by-pencil with the *sweep axis* innermost: for a
        z-sweep consecutive zones are a whole xy-plane apart in memory
        (the "stride in memory for addressing variables in different
        zones" of the paper's section I-C), which is what drives the 3-d
        hydro DTLB rate.
        """
        spec = self.log.spec
        g = spec.nguard
        start, _ = self.layout.block_panel_range(slot)
        nx, ny, nz = spec.interior_zones
        sv, si, sj, sk, _ = self.layout.strides
        if axis is not None:
            # a sweep's pencils run through the guard zones of the sweep
            # axis (the stencil needs them)
            ext = [nx, ny, nz]
            ext[axis] = ext[axis] + 2 * g if ext[axis] > 1 else ext[axis]
            nx, ny, nz = ext
            base = [g, g if spec.ndim > 1 else 0, g if spec.ndim > 2 else 0]
            base[axis] = 0 if ext[axis] > 1 else base[axis]
        else:
            base = [g, g if spec.ndim > 1 else 0, g if spec.ndim > 2 else 0]
        ii = base[0] + np.arange(nx, dtype=np.int64)
        jj = base[1] + np.arange(ny, dtype=np.int64)
        kk = base[2] + np.arange(nz, dtype=np.int64)
        off = (start + si * ii[:, None, None] + sj * jj[None, :, None]
               + sk * kk[None, None, :])
        if axis is None or axis == 0:
            order = (2, 1, 0)  # x innermost
        elif axis == 1:
            order = (2, 0, 1)  # y innermost
        else:
            order = (1, 0, 2)  # z innermost
        return off.transpose(order).ravel()

    def fine_unit_trace(self, rec: StepRecord, inv: UnitInvocation) -> tuple[PageTrace, float]:
        """Zone-resolution trace for sampled blocks of one invocation.

        Returns ``(trace, scale)`` where ``scale`` maps sampled-zone miss
        counts to the full (replicated) invocation.
        """
        slots = rec.slots[: self.fine_sample_blocks]
        zones = self.log.zones_per_block
        iters = inv.newton_iterations / max(inv.zones, 1)

        if inv.unit == "eos":
            gathers = int(round(cal.EOS_CALL.gathers_per_zone
                                + cal.EOS_GATHERS_PER_ITERATION * iters))
            table = self.eos_table
        elif inv.unit == "flame":
            gathers = int(round(cal.FLAME_STEP.gathers_per_zone))
            table = self.flame_table
        else:
            gathers = 0
            table = None

        cols_pages = []
        cols_sizes = []
        hydro_like = inv.unit == "hydro_sweep"
        for slot in slots:
            zone_off = self._zone_walk_offsets(slot, inv.axis)
            n = zone_off.size  # sweeps visit guard zones too
            cols = [self._translate(self.unk, zone_off)]
            if hydro_like and self.flux_scratch is not None:
                # the flux panel walks in step with the solution panel
                start, _ = self.layout.block_panel_range(slot)
                flux_off = (zone_off - start) % (self.flux_scratch.nbytes - 8)
                cols.append(self._translate(self.flux_scratch, flux_off))
                # rotating per-pencil work buffers (base pages always)
                n_aux = len(self.scratch)
                aux_idx = (np.arange(n) // self.aux_switch_zones) % n_aux
                aux_pages = np.empty(n, dtype=np.int64)
                aux_sizes = np.empty(n, dtype=np.int64)
                for a in range(n_aux):
                    m = aux_idx == a
                    if m.any():
                        p, s = self._translate(self.scratch[a],
                                               np.zeros(int(m.sum()), np.int64))
                        aux_pages[m], aux_sizes[m] = p, s
                cols.append((aux_pages, aux_sizes))
            else:
                # one scratch access per zone, sequential within the array
                scr = self.scratch[slot % len(self.scratch)]
                scr_off = (np.arange(n, dtype=np.int64) * 64) % (scr.nbytes - 8)
                cols.append(self._translate(scr, scr_off))
            if table is not None:
                center = self._rng.random()
                for g in range(max(gathers, 0)):
                    g_off = self._gather_offsets(table, n, center,
                                                 sub_array=g)
                    cols.append(self._translate(table, g_off))
            pages = np.stack([c[0] for c in cols], axis=1).ravel()
            sizes = np.stack([c[1] for c in cols], axis=1).ravel()
            cols_pages.append(pages)
            cols_sizes.append(sizes)

        trace = PageTrace.from_accesses(np.concatenate(cols_pages),
                                        np.concatenate(cols_sizes))
        sampled = len(slots) * zones
        scale = inv.zones * self.replication / max(sampled, 1)
        return trace, scale


__all__ = ["TraceBuilder", "PROBE_STEP"]
