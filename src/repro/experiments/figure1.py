"""Figure 1: the with/without-huge-pages ratio bar chart.

"Shown is a bar chart with the ratio of each performance measure using
huge pages to the measure without use of huge pages for the two test
simulations.  All measures but DTLB misses are close to one ... The low
ratios for DTLB misses (0.047 and 0.324 for the EOS and 3-d Hydro tests,
respectively) show that use of huge pages drastically reduces these
misses."

Rendered as an ASCII bar chart (and as plain data for plotting).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.measures import (
    MEASURE_LABELS,
    PAPER_TABLE1,
    PAPER_TABLE2,
    paper_ratios,
)
from repro.experiments.tables import TableResult

#: the measures Figure 1 plots, in its order
FIGURE1_MEASURES = (
    "hardware_cycles",
    "time_s",
    "sve_per_cycle",
    "mem_gbytes_per_s",
    "dtlb_misses_per_s",
    "flash_timer_s",
)


@dataclass
class Figure1Data:
    """Ratios (with HP / without HP) per measure for both problems."""

    eos: dict[str, float]
    hydro: dict[str, float]
    paper_eos: dict[str, float]
    paper_hydro: dict[str, float]


def figure1_data(eos_table: TableResult, hydro_table: TableResult) -> Figure1Data:
    return Figure1Data(
        eos={k: eos_table.ratio(k) for k in FIGURE1_MEASURES},
        hydro={k: hydro_table.ratio(k) for k in FIGURE1_MEASURES},
        paper_eos=paper_ratios(PAPER_TABLE1),
        paper_hydro=paper_ratios(PAPER_TABLE2),
    )


def render_figure1(data: Figure1Data, width: int = 48) -> str:
    """ASCII bar chart: EOS bars (#, blue in the paper) and 3-d Hydro
    bars (=, red in the paper), one pair per measure."""
    lines = [
        "FIGURE 1 — ratio of each measure with HPs to without HPs",
        "(#: EOS problem, =: 3-d Hydro problem; | marks the paper's value)",
        "",
    ]
    for key in FIGURE1_MEASURES:
        label = MEASURE_LABELS[key]
        for sym, ours, paper in (("#", data.eos[key], data.paper_eos[key]),
                                 ("=", data.hydro[key], data.paper_hydro[key])):
            bar_n = max(0, min(width, int(round(ours * width))))
            mark = max(0, min(width, int(round(paper * width))))
            bar = list(sym * bar_n + " " * (width - bar_n))
            if mark < len(bar):
                bar[mark] = "|"
            row_label = label if sym == "#" else ""
            lines.append(f"{row_label:<26}{sym} {''.join(bar)} {ours:6.3f} "
                         f"(paper {paper:.3f})")
        lines.append("")
    return "\n".join(lines)


__all__ = ["figure1_data", "render_figure1",
           "Figure1Data", "FIGURE1_MEASURES"]
