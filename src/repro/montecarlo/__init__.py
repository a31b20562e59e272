"""Batched Monte-Carlo fault campaigns (structure-of-arrays trials,
one shared golden run, analytic masked-fault classification, lazy
fork-on-divergence simulation for the live minority).

Quick start::

    from repro.montecarlo import BatchedCampaign
    campaign = BatchedCampaign(program, benchmark="countnegative")
    batch = campaign.sample_ccf(10_000, seed=7)
    print(campaign.run(batch, seed=7).summary())

See DESIGN.md "Monte-Carlo campaigns" for the soundness argument and
EXPERIMENTS.md for methodology.
"""

from ..fault.injector import AccessIndex
from .batch import (
    CLASS_NAMES,
    STATUS_ANALYTIC,
    STATUS_PENDING,
    STATUS_SIMULATED,
    TrialBatch,
)
from .campaign import BatchedCampaign, McCampaignResult
from .golden import (
    McGoldenArtifact,
    ccf_effects,
    classify_batch,
    mc_golden_run,
)
from .stats import (
    batch_statistics,
    coverage_by_cycle,
    divergence_latency_cdf,
    diversity_histogram,
    ecdf,
    masked_lifetime_cdf,
)

__all__ = [
    "AccessIndex",
    "BatchedCampaign",
    "CLASS_NAMES",
    "McCampaignResult",
    "McGoldenArtifact",
    "STATUS_ANALYTIC",
    "STATUS_PENDING",
    "STATUS_SIMULATED",
    "TrialBatch",
    "batch_statistics",
    "ccf_effects",
    "classify_batch",
    "coverage_by_cycle",
    "divergence_latency_cdf",
    "diversity_histogram",
    "ecdf",
    "masked_lifetime_cdf",
    "mc_golden_run",
]
