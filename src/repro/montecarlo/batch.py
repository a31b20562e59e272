"""Structure-of-arrays trial storage for Monte-Carlo campaigns.

A :class:`TrialBatch` holds N fault trials as parallel columns of
plain Python ints instead of N :class:`~repro.fault.InjectionResult`
objects: the classification pass (:mod:`repro.montecarlo.golden`)
then runs column by column, and the statistics layer
(:mod:`repro.montecarlo.stats`) aggregates without materializing
per-trial objects.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..baselines.unaware import compare_outputs
from ..fault.injector import OUTCOME_CLASSES, InjectionResult, tally
from ..fault.models import FaultEffect

#: Trial kinds a batch can hold.
KINDS = ("ccf", "transient")

#: Classification codes (column ``classification``).
CLASS_PENDING = -1
CLASS_MASKED = 0
CLASS_DETECTED = 1
CLASS_SILENT_CCF = 2
CLASS_HANG = 3
CLASS_TRAP = 4
CLASS_NAMES = OUTCOME_CLASSES

#: Status codes (column ``status``).
STATUS_PENDING = 0
STATUS_ANALYTIC = 1   # classified from the golden run, no simulation
STATUS_SIMULATED = 2  # forked from a checkpoint and simulated
STATUS_STATIC = 3     # masked, and proven so by static analysis too

#: (name, fill value) per column.
_COLUMNS: Tuple[Tuple[str, int], ...] = (
    ("cycle", 0),                # fault cycle
    ("stimulus", 0),             # ccf stimulus (0 for transients)
    ("core", -1),                # transient target core (-1 for ccf)
    ("register", -1),            # transient target register (-1 for ccf)
    ("bit", -1),                 # transient target bit (-1 for ccf)
    ("status", 0),
    ("classification", -1),
    ("diversity", -1),           # -1 unknown/None, 0 False, 1 True
    ("no_diversity_cycles", 0),
    ("finished", 0),
    ("output0", 0),
    ("output1", 0),
    ("eff_reg0", -1),            # applied corruption, core 0 (-1 none)
    ("eff_bit0", -1),
    ("eff_reg1", -1),            # applied corruption, core 1 (-1 none)
    ("eff_bit1", -1),
    ("end_cycle", 0),
    ("death_cycle", -1),         # cycle the perturbation stopped
)                                # mattering (-1 while pending)


class TrialBatch:
    """N fault trials stored column-wise.

    Input columns (``cycle``, ``stimulus`` or ``core``/``register``/
    ``bit``) are filled by the sampler; the campaign engine fills the
    result columns either analytically (status ``STATUS_ANALYTIC``)
    or from a simulated :class:`InjectionResult`
    (``STATUS_SIMULATED``).
    """

    __slots__ = ("kind", "n", "golden_checksum", "columns")

    def __init__(self, kind: str, n: int, golden_checksum: int = 0,
                 backend: str = "python"):
        # ``backend`` predates the single column store; only its one
        # remaining value is accepted.
        if kind not in KINDS:
            raise ValueError("unknown trial kind %r" % (kind,))
        if n < 0:
            raise ValueError("trial count must be non-negative, got %d"
                             % (n,))
        if backend != "python":
            raise ValueError("unknown TrialBatch backend %r (columns "
                             "are plain lists: 'python')" % (backend,))
        self.kind = kind
        self.n = n
        self.golden_checksum = golden_checksum
        self.columns: Dict[str, List[int]] = {
            name: [fill] * n for name, fill in _COLUMNS}

    # -- column access -----------------------------------------------------

    def column(self, name: str) -> List[int]:
        """A copy of one column."""
        return list(self.columns[name])

    def as_dict(self) -> Dict[str, List[int]]:
        """Every column as plain lists — the batch's portable form."""
        return {name: self.column(name) for name, _ in _COLUMNS}

    # -- per-trial fill ----------------------------------------------------

    def set_ccf_trial(self, i: int, cycle: int, stimulus: int):
        self.columns["cycle"][i] = cycle
        self.columns["stimulus"][i] = stimulus

    def set_transient_trial(self, i: int, cycle: int, core: int,
                            register: int, bit: int):
        self.columns["cycle"][i] = cycle
        self.columns["core"][i] = core
        self.columns["register"][i] = register
        self.columns["bit"][i] = bit

    def fill_from_result(self, i: int, result: InjectionResult,
                         death_cycle: Optional[int] = None,
                         status: int = STATUS_SIMULATED):
        """Copy one scalar :class:`InjectionResult` into row ``i``."""
        cols = self.columns
        cols["status"][i] = status
        cols["diversity"][i] = (-1 if result.diversity_at_injection
                                is None
                                else int(result.diversity_at_injection))
        cols["no_diversity_cycles"][i] = result.no_diversity_cycles
        cols["finished"][i] = int(result.finished)
        cols["output0"][i] = result.outcome.output0
        cols["output1"][i] = result.outcome.output1
        cols["end_cycle"][i] = result.end_cycle
        effects = result.effects
        if len(effects) >= 1 and effects[0] is not None:
            cols["eff_reg0"][i] = effects[0].register
            cols["eff_bit0"][i] = effects[0].bit
        if len(effects) >= 2 and effects[1] is not None:
            cols["eff_reg1"][i] = effects[1].register
            cols["eff_bit1"][i] = effects[1].bit
        code = CLASS_NAMES.index(result.classification)
        cols["classification"][i] = code
        cols["death_cycle"][i] = (result.end_cycle
                                  if death_cycle is None
                                  else death_cycle)

    # -- per-trial views ---------------------------------------------------

    def effects(self, i: int) -> tuple:
        """Row ``i``'s applied corruptions as a scalar effects tuple."""
        cols = self.columns
        out = []
        if cols["eff_reg0"][i] >= 0:
            out.append(FaultEffect(register=cols["eff_reg0"][i],
                                   bit=cols["eff_bit0"][i]))
        if cols["eff_reg1"][i] >= 0:
            out.append(FaultEffect(register=cols["eff_reg1"][i],
                                   bit=cols["eff_bit1"][i]))
        return tuple(out)

    def result(self, i: int) -> InjectionResult:
        """Row ``i`` reconstituted as a scalar :class:`InjectionResult`.

        Field-for-field identical to what the per-trial fork path
        returns for the same fault (the batched/scalar equivalence the
        benchmark and tests assert).
        """
        cols = self.columns
        diversity = cols["diversity"][i]
        return InjectionResult(
            fault_cycle=cols["cycle"][i],
            outcome=compare_outputs(cols["output0"][i],
                                    cols["output1"][i],
                                    self.golden_checksum),
            diversity_at_injection=(None if diversity < 0
                                    else bool(diversity)),
            no_diversity_cycles=cols["no_diversity_cycles"][i],
            effects=self.effects(i),
            finished=bool(cols["finished"][i]),
            end_cycle=cols["end_cycle"][i],
            trapped=(cols["classification"][i] == CLASS_TRAP),
        )

    # -- aggregation -------------------------------------------------------

    def count_status(self, status: int) -> int:
        return self.columns["status"].count(status)

    def count(self, classification: str) -> int:
        return self.columns["classification"].count(
            CLASS_NAMES.index(classification))

    @property
    def masked(self) -> int:
        return self.count("masked")

    @property
    def detected(self) -> int:
        return self.count("detected")

    @property
    def silent_ccf(self) -> int:
        return self.count("silent_ccf")

    @property
    def hangs(self) -> int:
        return self.count("hang")

    @property
    def traps(self) -> int:
        return self.count("trap")

    @property
    def silent_despite_diversity(self) -> int:
        """Must be zero (see :data:`~repro.fault.injector.CROSS_CHECKS`)."""
        return self.counts()["silent_despite_diversity"]

    @property
    def silent_via_shared_state(self) -> int:
        return self.counts()["silent_via_shared_state"]

    @property
    def detected_or_flagged(self) -> int:
        return self.counts()["detected_or_flagged"]

    def counts(self) -> Dict[str, int]:
        """Classification counts plus the campaign cross-checks
        (:func:`~repro.fault.injector.tally`) over the classified
        trials, each in the class its ``classification`` column holds."""
        verdicts = []
        for i, code in enumerate(self.columns["classification"]):
            if code != CLASS_PENDING:
                verdicts.append((CLASS_NAMES[code],)
                                + self.result(i).verdict[1:])
        return tally(verdicts)

    def summary(self) -> str:
        return "trials=%d %s static=%d analytic=%d simulated=%d" % (
            self.n, " ".join("%s=%d" % item
                             for item in self.counts().items()),
            self.count_status(STATUS_STATIC),
            self.count_status(STATUS_ANALYTIC),
            self.count_status(STATUS_SIMULATED))
