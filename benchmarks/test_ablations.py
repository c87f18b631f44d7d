"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation flips one modelled mechanism and shows the paper's result
depends on it:

* **page geometry** — on an x86-64-style 4 KiB/2 MiB kernel, FLASH-sized
  mappings *would* get THP and the "mystery" disappears;
* **TLB level reported** — the 21x collapse is an L1-DTLB phenomenon;
  L2 walk counts move far less;
* **table sub-array count** — the with-HP residual rate is set by how
  many Helmholtz coefficient arrays stay hot;
* **flux matching** — conservation at refinement jumps costs little.

Run:  pytest benchmarks/test_ablations.py --benchmark-only -s
"""

import numpy as np
import pytest

from repro.perfmodel.pipeline import PerformancePipeline
from repro.toolchain.compiler import FUJITSU, GNU


def test_bench_ablation_page_geometry(benchmark):
    """With an x86-64 4 KiB/2 MiB geometry, GNU-compiled FLASH huge-pages
    via plain THP — no Fujitsu runtime needed — localising the paper's
    mystery to the 64 KiB-granule kernel."""
    from repro.kernel.page import X86_64_4K
    from repro.kernel.params import BootParams, KernelConfig
    from repro.kernel.thp import THPMode
    from repro.kernel.vmm import Kernel
    from repro.util import MiB

    def run():
        results = {}
        for name, geometry, boot in (
            ("aarch64-64k", None, None),  # defaults: the Ookami node
            ("x86_64-4k", X86_64_4K,
             BootParams(hugepagesz=(2 * MiB,), default_hugepagesz=2 * MiB)),
        ):
            if geometry is None:
                from repro.kernel.params import ookami_config

                kernel = Kernel(ookami_config(thp_mode=THPMode.ALWAYS))
            else:
                kernel = Kernel(KernelConfig(geometry=geometry, boot=boot,
                                             thp_mode=THPMode.ALWAYS))
            proc = GNU.compile("flash4").launch(kernel)
            proc.allocate(96 * MiB, "unk")
            proc.first_touch("unk")
            results[name] = proc.uses_huge_pages()
        return results

    results = benchmark(run)
    assert results["aarch64-64k"] is False  # the paper's observation
    assert results["x86_64-4k"] is True  # the ablation: mystery gone


def test_bench_ablation_tlb_level(benchmark, eos_log):
    """PAPI_TLB_DM counts L1 refills; the huge-page collapse is much
    stronger there than in full page walks (L2 misses)."""
    def run():
        out = {}
        for flags, label in (((), "with"), (("-Knolargepage",), "without")):
            report = PerformancePipeline(eos_log, FUJITSU, flags=flags,
                                         replication=2).run()
            tot = report.units["eos"].tlb
            out[label] = (tot.l1_misses, tot.l2_misses)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    l1_ratio = out["with"][0] / max(out["without"][0], 1)
    assert l1_ratio < 0.12  # the paper's headline collapse


def test_bench_ablation_table_subarrays(benchmark, eos_log):
    """The with-HP residual miss rate rises with the number of hot
    coefficient arrays (their huge pages compete for the 16 L1 entries)."""
    import repro.perfmodel.patterns as patterns

    def rate_for(nsub):
        old = patterns.TraceBuilder.N_TABLE_SUBARRAYS
        patterns.TraceBuilder.N_TABLE_SUBARRAYS = nsub
        try:
            report = PerformancePipeline(eos_log, FUJITSU,
                                         replication=2).run()
            return report.region("eos")["dtlb_misses_per_s"]
        finally:
            patterns.TraceBuilder.N_TABLE_SUBARRAYS = old

    def run():
        return [rate_for(n) for n in (6, 12, 18)]

    rates = benchmark.pedantic(run, rounds=1, iterations=1)
    assert rates[0] < rates[1] < rates[2]


def test_bench_ablation_flux_matching_cost(benchmark, monkeypatch):
    """Conservative flux matching at refinement jumps: measure its cost
    against the unmatched sweep (it must be small — and the matched run
    is the only one that conserves)."""
    import time

    from repro.mesh.block import BlockId
    from repro.mesh.grid import Grid, MeshSpec
    from repro.mesh.refine import refine_block
    from repro.mesh.tree import AMRTree
    from repro.physics.eos import GammaLawEOS
    from repro.physics.hydro import sweep
    from repro.physics.hydro.unit import HydroUnit
    from repro.setups.sedov import sedov_setup

    def build():
        tree = AMRTree(ndim=2, nblockx=2, nblocky=2, max_level=2,
                       domain=((0, 1), (0, 1), (0, 1)))
        spec = MeshSpec(ndim=2, nxb=16, nyb=16, nzb=1, nguard=4,
                        maxblocks=64)
        grid = Grid(tree, spec)
        eos = GammaLawEOS(1.4)
        refine_block(grid, BlockId(0, 1, 0))
        sedov_setup(grid, eos, center=(0.5, 0.5, 0.0))
        return grid, eos

    match_fluxes = sweep._match_fluxes

    def run():
        out = {}
        for conserve in (True, False):
            monkeypatch.setattr(sweep, "_match_fluxes",
                                match_fluxes if conserve else lambda *args: None)
            grid, eos = build()
            hydro = HydroUnit(eos)
            t0 = time.perf_counter()
            for _ in range(5):
                hydro.step(grid, 1e-4)
            out[conserve] = (time.perf_counter() - t0,
                             grid.total("dens", weight=None))
        return out

    out = benchmark.pedantic(run, rounds=2, iterations=1)
    t_on, mass_on = out[True]
    t_off, mass_off = out[False]
    assert t_on < 3.0 * t_off  # matching is not the dominant cost
    assert mass_on == pytest.approx(1.0, rel=1e-12)
