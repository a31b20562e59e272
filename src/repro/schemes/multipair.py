"""Multiple monitored pairs sharing one bus.

The paper's contribution list mentions a 4-core Gaisler platform with
one SafeDM per redundant pair; this scheme runs ``spec.pairs``
monitored pairs of the *same* kernel concurrently — exercising the
``monitor_pairs`` machinery, the shared AHB/L2 contention, and per-pair
APB monitors for real.  Detection is per-pair software output
comparison (plus each pair's own SafeDM flagging), folded into one
scheme verdict: an error in *any* pair raises.
"""

from __future__ import annotations

from typing import Tuple

from .base import RedundancyScheme, monitor_luts


class MultiPair(RedundancyScheme):
    """N monitored pairs, one bus, one kernel."""

    kind = "multipair"

    def num_cores(self) -> int:
        return max(idx for pair in self.spec.pairs for idx in pair) + 1

    def monitor_pairs(self) -> Tuple[Tuple[int, int], ...]:
        return self.spec.pairs

    def start(self, soc, program, stagger_nops: int = 0,
              late_core: int = 1, benchmark: str = "program"):
        """Start every pair on the program.

        ``late_core`` selects the within-pair index (0 or 1) of the
        staggered core, mirroring the single-pair convention.
        """
        for index, pair in enumerate(self.monitor_pairs()):
            soc.start_redundant(program, late_core=pair[late_core % 2],
                                stagger_nops=stagger_nops, pair=index)

    def pair_outputs(self, soc):
        outs = self.outputs(soc)
        order = self.watched()
        by_core = dict(zip(order, outs))
        return [tuple(by_core[idx] for idx in pair)
                for pair in self.monitor_pairs()]

    def error_detected(self, soc) -> bool:
        return any(a != b for a, b in self.pair_outputs(soc))

    def result(self, soc) -> dict:
        out = super().result(soc)
        out["pairs"] = [list(pair) for pair in self.monitor_pairs()]
        out["pair_outputs"] = [list(p) for p in self.pair_outputs(soc)]
        out["pair_detected"] = [a != b
                                for a, b in self.pair_outputs(soc)]
        out["pair_no_diversity_cycles"] = [
            monitor.stats.no_diversity_cycles
            for monitor in soc.monitors]
        return out

    def checker_luts(self) -> int:
        return monitor_luts(len(self.monitor_pairs()))

    def to_metrics(self, registry, soc):
        super().to_metrics(registry, soc)
        if not getattr(registry, "enabled", True):
            return
        for index, detected in enumerate(
                a != b for a, b in self.pair_outputs(soc)):
            if detected:
                registry.counter(
                    "repro_scheme_pair_detections_total",
                    (("scheme", self.kind),
                     ("pair", str(index)))).inc()
