"""Fault injection: transient and common-cause fault campaigns."""

from .campaign import (
    CampaignResult,
    run_ccf_campaign,
    spread_cycles,
)
from .injector import (
    ForkEngine,
    GoldenArtifact,
    InjectionResult,
    golden_run,
    golden_run_with_checkpoints,
    inject_common_cause,
    inject_transient,
    shared_address_config,
)
from .models import CommonCauseFault, FaultEffect, TransientFault, state_digest

__all__ = [
    "CampaignResult",
    "CommonCauseFault",
    "FaultEffect",
    "ForkEngine",
    "GoldenArtifact",
    "InjectionResult",
    "TransientFault",
    "golden_run",
    "golden_run_with_checkpoints",
    "inject_common_cause",
    "inject_transient",
    "run_ccf_campaign",
    "shared_address_config",
    "spread_cycles",
    "state_digest",
]
