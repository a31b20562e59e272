"""Dual-Core LockStep (DCLS), the classical ASIL-D solution SafeDM
replaces (paper Fig. 1), as a running scheme (diversity ≡ 0 control).

A visible head core plus a hidden shadow core execute the same inputs
a fixed number of cycles apart, with output comparison; the shadow is
not usable for independent work — the cost SafeDM's non-lockstepped
pair avoids.  :class:`LockstepComparator` is the delay-line checker:
the shadow core starts behind a nop sled, every cycle both replicas'
per-commit records (instruction word + write-port sample) feed it, and
the delay line is drained at end of run so the final commits are
compared too.

DCLS guarantees temporal divergence by construction — the shadow is
always ``stagger`` cycles behind — which is why it needs no diversity
monitor.  The attached SafeDM instance still observes the pair (it is
part of the platform), but the scheme's verdict comes from the
comparator: any record mismatch, stream-length divergence, or final
output mismatch raises the error signal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Tuple

from .base import (
    COMPARATOR_LUTS,
    RedundancyScheme,
    commit_records,
    delta_equivalence,
)
from .spec import SchemeSpec


@dataclass
class LockstepStats:
    compared: int = 0
    mismatches: int = 0
    first_mismatch_cycle: int = -1


class LockstepComparator:
    """Delayed commit-stream comparator of a DCLS pair.

    Feed per-cycle commit words of head and shadow cores; the head
    stream is delayed by the configured staggering before comparison.
    By construction (fixed staggering), the two cores never hold the
    same state simultaneously — diversity is guaranteed, which is why
    DCLS needs no diversity monitor.
    """

    def __init__(self, stagger: int = 2, equivalent=None):
        if stagger < 1:
            raise ValueError("DCLS staggering must be >= 1 cycle")
        self.stagger = stagger
        #: Optional item-equivalence predicate.  Items that compare
        #: unequal but satisfy the predicate do not count as
        #: mismatches — :class:`LockstepPair` uses it to tolerate the
        #: replicas' data-region address delta.
        self.equivalent = equivalent
        self.stats = LockstepStats()
        self._head_delay: Deque[Tuple[int, ...]] = deque(
            [()] * stagger, maxlen=stagger)
        self._head_stream: List[int] = []
        self._shadow_stream: List[int] = []

    def sample(self, cycle: int, head_commits: Tuple[int, ...],
               shadow_commits: Tuple[int, ...]):
        """Clock one cycle of commit activity from both cores."""
        delayed = self._head_delay[0]
        self._head_delay.append(tuple(head_commits))
        self._head_stream.extend(delayed)
        self._shadow_stream.extend(shadow_commits)
        # Compare as far as both streams go.
        matched = min(len(self._head_stream), len(self._shadow_stream))
        equivalent = self.equivalent
        for i in range(matched):
            self.stats.compared += 1
            head = self._head_stream[i]
            shadow = self._shadow_stream[i]
            if head != shadow and not (equivalent is not None
                                       and equivalent(head, shadow)):
                self.stats.mismatches += 1
                if self.stats.first_mismatch_cycle < 0:
                    self.stats.first_mismatch_cycle = cycle
        del self._head_stream[:matched]
        del self._shadow_stream[:matched]

    def flush(self, cycle: int):
        """Drain the delay line at end of run.

        The last ``stagger`` cycles of head commits are still queued in
        the delay FIFO when the cores finish; deliver them so the final
        commits get compared.  Any leftover stream imbalance afterwards
        (the replicas committed different instruction *counts* — e.g. a
        corruption changed one replica's path length) is itself a
        detected divergence.
        """
        for _ in range(self.stagger):
            self.sample(cycle, (), ())
        residue = len(self._head_stream) + len(self._shadow_stream)
        if residue:
            self.stats.compared += residue
            self.stats.mismatches += residue
            if self.stats.first_mismatch_cycle < 0:
                self.stats.first_mismatch_cycle = cycle
            del self._head_stream[:]
            del self._shadow_stream[:]

    @property
    def error_detected(self) -> bool:
        return self.stats.mismatches > 0

    def describe(self) -> str:
        """Fig. 1-style schematic."""
        return "\n".join([
            "Lockstepped core (per Fig. 1):",
            "  inputs --+--------------> [ head core ] ----> outputs",
            "           |                                       |",
            "           +--[delay %d]--> [ shadow core ] --> [compare]"
            % self.stagger,
            "  shadow core is invisible at user level; a mismatch on",
            "  the compare raises the error signal",
        ])


class LockstepPair(RedundancyScheme):
    """Head core 0, shadow core 1, delayed commit-stream comparison."""

    kind = "lockstep"

    def __init__(self, spec: SchemeSpec):
        super().__init__(spec)
        self.comparator = None
        self._skip_shadow = 0

    def reset(self):
        self.comparator = None
        self._skip_shadow = 0

    def attach(self, soc):
        super().attach(soc)
        cfg = soc.config
        delta = cfg.data_base(1) - cfg.data_base(0)
        self.comparator = LockstepComparator(
            stagger=self.spec.stagger,
            equivalent=delta_equivalence(delta))
        head, shadow = soc.cores[0], soc.cores[1]

        def tap(cycle, head=head, shadow=shadow,
                sample=self.comparator.sample,
                records=commit_records):
            shadow_recs = records(shadow)
            if self._skip_shadow and shadow_recs:
                drop = min(self._skip_shadow, len(shadow_recs))
                self._skip_shadow -= drop
                shadow_recs = shadow_recs[drop:]
            sample(cycle, records(head), shadow_recs)

        soc.add_scheme_tap(tap)

    def start(self, soc, program, stagger_nops: int = 0,
              late_core: int = 1, benchmark: str = "program"):
        """Start head immediately and shadow behind a nop sled.

        ``stagger_nops`` (when given) overrides the sled length; the
        comparator delay stays ``spec.stagger`` either way.  The sled's
        own commits are skipped, not compared — they exist only on the
        shadow side.
        """
        sled = stagger_nops if stagger_nops else self.spec.stagger
        soc.load(program)
        soc.start_core(0, program.entry)
        self._skip_shadow = soc.start_core(1, program.entry,
                                           stagger_nops=sled)
        # Same text image: share one per-PC decode cache, exactly like
        # start_redundant does for the monitored pair.
        soc.cores[1]._fetch_cache = soc.cores[0]._fetch_cache
        soc._shared_fetch_pairs.add((0, 1))
        # The shadow's sled commits would read as staggering loss;
        # preload the diff counter like the SafeDM path does.
        soc.safedm.instruction_diff.diff = self._skip_shadow

    def finish(self, soc):
        self.comparator.flush(soc.cycle)

    def error_detected(self, soc) -> bool:
        return (self.comparator.error_detected
                or super().error_detected(soc))

    def checker_detected(self, soc) -> bool:
        return self.comparator.error_detected

    def detection_cycle(self, soc) -> int:
        first = self.comparator.stats.first_mismatch_cycle
        if first >= 0:
            return first
        return super().detection_cycle(soc)

    def result(self, soc) -> dict:
        out = super().result(soc)
        stats = self.comparator.stats
        out["compared"] = stats.compared
        out["mismatches"] = stats.mismatches
        out["first_mismatch_cycle"] = stats.first_mismatch_cycle
        out["stagger"] = self.comparator.stagger
        return out

    def state_dict(self) -> dict:
        cmp_ = self.comparator
        state = super().state_dict()
        if cmp_ is not None:
            state.update({
                "skip_shadow": self._skip_shadow,
                "stats": [cmp_.stats.compared, cmp_.stats.mismatches,
                          cmp_.stats.first_mismatch_cycle],
                "head_delay": [[list(rec) for rec in item]
                               for item in cmp_._head_delay],
                "head_stream": [list(rec) for rec in cmp_._head_stream],
                "shadow_stream": [list(rec)
                                  for rec in cmp_._shadow_stream],
            })
        return state

    def load_state_dict(self, state: dict):
        super().load_state_dict(state)
        cmp_ = self.comparator
        if cmp_ is None or "stats" not in state:
            return
        self._skip_shadow = int(state["skip_shadow"])
        (cmp_.stats.compared, cmp_.stats.mismatches,
         cmp_.stats.first_mismatch_cycle) = state["stats"]
        cmp_._head_delay.clear()
        cmp_._head_delay.extend(
            tuple(tuple(rec) for rec in item)
            for item in state["head_delay"])
        cmp_._head_stream[:] = [tuple(rec) for rec in
                                state["head_stream"]]
        cmp_._shadow_stream[:] = [tuple(rec) for rec in
                                  state["shadow_stream"]]

    def checker_luts(self) -> int:
        return COMPARATOR_LUTS

    def to_metrics(self, registry, soc):
        super().to_metrics(registry, soc)
        if not getattr(registry, "enabled", True):
            return
        labels = (("scheme", self.kind),)
        stats = self.comparator.stats
        registry.counter("repro_scheme_checks_total",
                         labels).inc(stats.compared)
        registry.counter("repro_scheme_mismatches_total",
                         labels).inc(stats.mismatches)
