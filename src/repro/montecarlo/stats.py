"""Distribution-level statistics over Monte-Carlo trial batches.

SafeDM's evaluation reports point samples; the related work (Okech et
al., ResiLogic — see PAPERS.md) argues divergence and diversity are
*distributions*.  This layer turns a classified
:class:`~repro.montecarlo.batch.TrialBatch` into exactly those:

* :func:`divergence_latency_cdf` — cycles from injection to run end
  for trials that actually perturbed live state (the "how long does a
  fault linger" view),
* :func:`masked_lifetime_cdf` — cycles a provably-masked corruption
  survived before being overwritten (known analytically from the
  access log, no simulation involved),
* :func:`coverage_by_cycle` — detected-or-flagged fraction per
  fault-cycle bin (detection coverage across the run's timeline),
* :func:`diversity_histogram` — SafeDM's verdict at injection split
  by outcome class,
* :func:`batch_statistics` — the JSON-ready bundle of all of the
  above plus exact quantiles and bootstrap confidence intervals from
  :mod:`repro.analysis.stats`.

Everything here is pure-Python arithmetic over the batch's column
lists, and deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.stats import bootstrap_ci, exact_quantile
from .batch import (
    CLASS_DETECTED,
    CLASS_MASKED,
    CLASS_NAMES,
    CLASS_SILENT_CCF,
    CLASS_TRAP,
    STATUS_SIMULATED,
    TrialBatch,
)

#: Quantiles reported by the summary bundles.
QUANTILES = (0.5, 0.9, 0.99)


def ecdf(values: List[int]) -> List[Tuple[int, float]]:
    """Empirical CDF as ``(value, fraction <= value)`` step points."""
    if not values:
        return []
    ordered = sorted(values)
    total = len(ordered)
    points = []
    for index, value in enumerate(ordered, start=1):
        if index == total or ordered[index] != value:
            points.append((value, index / total))
    return points


def divergence_latency_cdf(batch: TrialBatch) -> List[Tuple[int, float]]:
    """ECDF of ``end_cycle - fault_cycle`` over simulated live trials.

    Masked-analytic trials are excluded: their "latency" is the golden
    tail, not a divergence duration.
    """
    return ecdf(_latencies(batch))


def _latencies(batch: TrialBatch) -> List[int]:
    cols = batch.columns
    return [cols["end_cycle"][i] - cols["cycle"][i]
            for i in range(batch.n)
            if cols["status"][i] == STATUS_SIMULATED]


def masked_lifetime_cdf(batch: TrialBatch) -> List[Tuple[int, float]]:
    """ECDF of ``death_cycle - fault_cycle`` over masked trials: how
    long a dead corruption sat in the register file before a write
    (or the run's end) erased it."""
    return ecdf(_lifetimes(batch))


def _lifetimes(batch: TrialBatch) -> List[int]:
    cols = batch.columns
    return [cols["death_cycle"][i] - cols["cycle"][i]
            for i in range(batch.n)
            if cols["classification"][i] == CLASS_MASKED]


def coverage_by_cycle(batch: TrialBatch, bins: int = 10,
                      end_cycle: Optional[int] = None
                      ) -> List[Dict[str, float]]:
    """Detection coverage per fault-cycle bin.

    Coverage counts a trial when it was detected by output comparison,
    trapped (a replica failing with an architectural exception is a
    loud detection), or was a silent escape in a cycle SafeDM already
    flagged as non-diverse (the detected-or-flagged union the scalar
    campaign reports).  Returns one row per non-empty bin.
    """
    cols = batch.columns
    if end_cycle is None:
        end_cycle = max(cols["cycle"], default=0) + 1
    width = max(1, -(-end_cycle // bins))
    totals = [0] * bins
    covered = [0] * bins
    for i in range(batch.n):
        code = cols["classification"][i]
        index = min(bins - 1, cols["cycle"][i] // width)
        totals[index] += 1
        if code in (CLASS_DETECTED, CLASS_TRAP) or (
                code == CLASS_SILENT_CCF and cols["diversity"][i] == 0):
            covered[index] += 1
    rows = []
    for index in range(bins):
        if totals[index] == 0:
            continue
        rows.append({
            "cycle_lo": index * width,
            "cycle_hi": min(end_cycle, (index + 1) * width),
            "trials": totals[index],
            "covered": covered[index],
            "coverage": covered[index] / totals[index],
        })
    return rows


def diversity_histogram(batch: TrialBatch) -> Dict[str, Dict[str, int]]:
    """Per outcome class: SafeDM's diversity verdict at injection
    (``diverse`` / ``not_diverse`` / ``no_report``)."""
    cols = batch.columns
    out = {name: {"diverse": 0, "not_diverse": 0, "no_report": 0}
           for name in CLASS_NAMES}
    keys = {1: "diverse", 0: "not_diverse", -1: "no_report"}
    for i in range(batch.n):
        code = cols["classification"][i]
        if code < 0:
            continue
        out[CLASS_NAMES[code]][keys[cols["diversity"][i]]] += 1
    return out


def _quantile_block(values: List[int], seed: int,
                    n_boot: int) -> Optional[dict]:
    if not values:
        return None
    block = {"n": len(values)}
    for q in QUANTILES:
        block["p%g" % (q * 100)] = exact_quantile(values, q)
    block["mean_ci"] = bootstrap_ci(values, n_boot=n_boot, seed=seed)
    return block


def batch_statistics(batch: TrialBatch, bins: int = 10,
                     end_cycle: Optional[int] = None,
                     n_boot: int = 200, seed: int = 0) -> dict:
    """The full JSON-ready statistics bundle for one batch.

    Deterministic for a given batch (bootstrap RNGs are seeded per
    block); safe to compare bit-for-bit across jobs counts.
    """
    counts = batch.counts()
    total = max(1, batch.n)
    coverage = [row for row in coverage_by_cycle(batch, bins=bins,
                                                 end_cycle=end_cycle)]
    covered = sum(row["covered"] for row in coverage)
    binned = sum(row["trials"] for row in coverage)
    coverage_ci = bootstrap_ci(
        [1.0 if (i < covered) else 0.0 for i in range(binned)],
        n_boot=n_boot, seed=seed + 1) if binned else None
    return {
        "trials": batch.n,
        "counts": counts,
        "rates": {name: counts[name] / total for name in CLASS_NAMES},
        "divergence_latency": _quantile_block(_latencies(batch),
                                              seed, n_boot),
        "masked_lifetime": _quantile_block(_lifetimes(batch),
                                           seed + 2, n_boot),
        "coverage_by_cycle": coverage,
        "coverage_ci": coverage_ci,
        "diversity_histogram": diversity_histogram(batch),
    }
