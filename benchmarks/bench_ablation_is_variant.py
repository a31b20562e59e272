"""Ablation — per-stage IS vs the fetched-not-retired fallback.

Paper III-B.2: the per-stage signature distinguishes cores that hold
the same instructions in different stages; the fallback (a FIFO of
fetched-but-not-retired instructions) cannot, so it reports at least as
many instruction-signature matches — more false positives.
"""

import pytest

from repro.core.signatures import IsVariant, SignatureConfig
from repro.soc.config import SocConfig
from repro.soc.experiment import run_redundant
from repro.workloads import program

from bench_common import save_and_print

WORKLOADS = ("cubic", "md5", "countnegative")


def run_variant(name: str, variant: IsVariant):
    cfg = SocConfig(signature=SignatureConfig(is_variant=variant))
    return run_redundant(program(name), benchmark=name, config=cfg)


def sweep():
    out = {}
    for name in WORKLOADS:
        out[name] = {variant: run_variant(name, variant)
                     for variant in IsVariant}
    return out


def test_is_variant_ablation(benchmark):
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = ["IS variant ablation (no-instr-div / no-div cycles)", "",
             "  %-15s %22s %22s" % ("benchmark", "per-stage",
                                    "in-flight fallback")]
    for name, by_variant in results.items():
        per_stage = by_variant[IsVariant.PER_STAGE]
        inflight = by_variant[IsVariant.INFLIGHT]
        lines.append("  %-15s %12d /%8d %12d /%8d"
                     % (name,
                        per_stage.no_instruction_diversity_cycles,
                        per_stage.no_diversity_cycles,
                        inflight.no_instruction_diversity_cycles,
                        inflight.no_diversity_cycles))
    save_and_print("ablation_is_variant.txt", "\n".join(lines))

    for name, by_variant in results.items():
        per_stage = by_variant[IsVariant.PER_STAGE]
        inflight = by_variant[IsVariant.INFLIGHT]
        # The fallback can only be weaker (>= matches), never stronger.
        assert inflight.no_instruction_diversity_cycles >= \
            per_stage.no_instruction_diversity_cycles
        assert inflight.no_diversity_cycles >= \
            per_stage.no_diversity_cycles
