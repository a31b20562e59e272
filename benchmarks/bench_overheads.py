"""Section V-D — SafeDM area and power overheads.

Regenerates the paper's reported numbers from the calibrated analytical
model (4,000 LUTs = 3.4% of the MPSoC; +0.019 W on a >2 W baseline) and
extrapolates over the implementation-specific parameters the paper
leaves open (DS FIFO depth, monitored ports).
"""

import pytest

from repro.core.overheads import (
    BASELINE_MPSOC_LUTS,
    BASELINE_MPSOC_WATTS,
    PAPER_CONFIG,
    estimate,
    sweep_ds_depth,
)
from repro.core.signatures import SignatureConfig

from bench_common import save_and_print


def overhead_report():
    lines = ["SafeDM overheads (paper Section V-D)", ""]
    paper_point = estimate(PAPER_CONFIG)
    lines.append("paper design point (4 ports, n=7, 2-wide 7-stage IS):")
    lines.append("  LUTs : %5d (paper: 4,000)  -> %.1f%% of the %d-LUT "
                 "MPSoC (paper: 3.4%%)"
                 % (paper_point.luts, paper_point.area_percent,
                    BASELINE_MPSOC_LUTS))
    lines.append("  power: %.3f W (paper: 0.019 W) -> %.2f%% of the "
                 "%.1f W baseline (paper: <1%%)"
                 % (paper_point.watts, paper_point.power_percent,
                    BASELINE_MPSOC_WATTS))
    lines.append("")
    lines.append("DS depth sweep (n is 'implementation specific'):")
    lines.append("  %6s %8s %8s %9s" % ("n", "LUTs", "area%", "watts"))
    for report in sweep_ds_depth([3, 5, 7, 10, 14, 21, 28]):
        lines.append("  %6d %8d %7.1f%% %8.4f"
                     % (report.config.ds_depth, report.luts,
                        report.area_percent, report.watts))
    lines.append("")
    lines.append("monitored-port sweep:")
    lines.append("  %6s %8s %8s" % ("ports", "LUTs", "area%"))
    for ports in (2, 4, 6, 8):
        report = estimate(SignatureConfig(num_ports=ports))
        lines.append("  %6d %8d %7.1f%%"
                     % (ports, report.luts, report.area_percent))
    return "\n".join(lines), paper_point


def test_overheads_regeneration(benchmark):
    text, paper_point = benchmark.pedantic(overhead_report, rounds=1,
                                           iterations=1)
    save_and_print("overheads.txt", text)

    assert paper_point.luts == 4000
    assert abs(paper_point.area_percent - 3.4) < 0.05
    assert abs(paper_point.watts - 0.019) < 1e-9
    assert paper_point.power_percent < 1.0
