"""Cache-aware DRAM traffic of data-dependent table gathers.

The cycle model needs *DRAM bytes moved*, not loads issued.  Rather than
simulate the caches line-by-line (the TLB is the paper's subject, not the
caches), :meth:`CacheModel.gather_traffic` prices the EOS and flame
table lookups analytically: every gather drags in a whole cache line,
and the share of the table that stays resident in cache is pulled from
DRAM only once.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheModel:
    """A single effective cache level (we use the A64FX per-CMG L2)."""

    cache_bytes: int
    line_bytes: int = 256  # A64FX cache line

    def gather_traffic(self, n_gathers: int, element_bytes: int,
                       table_bytes: int) -> int:
        """DRAM bytes for data-dependent gathers into a table.

        Each gather drags a whole cache line; once the hot part of the table
        is resident, repeat traffic falls with the cache/table ratio.
        """
        if n_gathers == 0:
            return 0
        hit_fraction = min(self.cache_bytes / max(table_bytes, 1), 1.0)
        line_pulls = n_gathers * (1.0 - hit_fraction) + min(
            table_bytes / self.line_bytes, n_gathers
        ) * hit_fraction
        return int(line_pulls * self.line_bytes)


__all__ = ["CacheModel"]
