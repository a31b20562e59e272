"""Structure-of-arrays trial storage for Monte-Carlo campaigns.

A :class:`TrialBatch` holds N fault trials as parallel columns instead
of N :class:`~repro.fault.InjectionResult` objects: the classification
pass (:mod:`repro.montecarlo.golden`) then runs vectorized over whole
columns, and the statistics layer (:mod:`repro.montecarlo.stats`)
aggregates without materializing per-trial objects.

Columns live in numpy arrays when numpy is importable and as plain
Python lists otherwise; every operation produces bit-identical values
on both backends (``tests/test_montecarlo.py`` asserts this), so the
``repro[mc]`` extra is a speedup, never a behaviour change.  The
backend is chosen per batch: ``"auto"`` (numpy when available),
``"numpy"``, or ``"python"``; the ``REPRO_MC_PURE_PYTHON=1``
environment variable forces the fallback globally.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from ..baselines.unaware import compare_outputs
from ..fault.injector import InjectionResult
from ..fault.models import FaultEffect

try:  # pragma: no cover - exercised via both backends in tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Trial kinds a batch can hold.
KINDS = ("ccf", "transient")

#: Classification codes (column ``classification``).
CLASS_PENDING = -1
CLASS_MASKED = 0
CLASS_DETECTED = 1
CLASS_SILENT_CCF = 2
CLASS_HANG = 3
CLASS_TRAP = 4
CLASS_NAMES = ("masked", "detected", "silent_ccf", "hang", "trap")

#: Status codes (column ``status``).
STATUS_PENDING = 0
STATUS_ANALYTIC = 1   # classified from the golden run, no simulation
STATUS_SIMULATED = 2  # forked from a checkpoint and simulated
STATUS_STATIC = 3     # proven masked by static analysis alone: no
                      # simulation AND no dynamic access-log lookup

#: (name, numpy dtype) per column; the fallback stores plain int lists.
_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("cycle", "int64"),          # fault cycle
    ("stimulus", "uint64"),      # ccf stimulus (0 for transients)
    ("core", "int16"),           # transient target core (-1 for ccf)
    ("register", "int16"),       # transient target register (-1 for ccf)
    ("bit", "int16"),            # transient target bit (-1 for ccf)
    ("status", "int16"),
    ("classification", "int16"),
    ("diversity", "int16"),      # -1 unknown/None, 0 False, 1 True
    ("no_diversity_cycles", "int64"),
    ("finished", "int16"),
    ("output0", "uint64"),
    ("output1", "uint64"),
    ("eff_reg0", "int16"),       # applied corruption, core 0 (-1 none)
    ("eff_bit0", "int16"),
    ("eff_reg1", "int16"),       # applied corruption, core 1 (-1 none)
    ("eff_bit1", "int16"),
    ("end_cycle", "int64"),
    ("death_cycle", "int64"),    # cycle the perturbation stopped
)                                # mattering (-1 while pending)


def numpy_available() -> bool:
    """True when the numpy backend can be used at all."""
    return _np is not None and os.environ.get(
        "REPRO_MC_PURE_PYTHON") != "1"


def resolve_backend(backend: str = "auto") -> str:
    """Normalize a backend request to ``"numpy"`` or ``"python"``."""
    if backend == "auto":
        return "numpy" if numpy_available() else "python"
    if backend == "numpy":
        if _np is None:
            raise RuntimeError(
                "numpy backend requested but numpy is not installed "
                "(pip install 'repro[mc]')")
        return "numpy"
    if backend == "python":
        return "python"
    raise ValueError("unknown TrialBatch backend %r "
                     "(expected auto|numpy|python)" % (backend,))


class TrialBatch:
    """N fault trials stored column-wise.

    Input columns (``cycle``, ``stimulus`` or ``core``/``register``/
    ``bit``) are filled by the sampler; the campaign engine fills the
    result columns either analytically (status ``STATUS_ANALYTIC``)
    or from a simulated :class:`InjectionResult`
    (``STATUS_SIMULATED``).
    """

    __slots__ = ("kind", "n", "backend", "golden_checksum", "columns")

    def __init__(self, kind: str, n: int, backend: str = "auto",
                 golden_checksum: int = 0):
        if kind not in KINDS:
            raise ValueError("unknown trial kind %r" % (kind,))
        self.kind = kind
        self.n = int(n)
        self.backend = resolve_backend(backend)
        self.golden_checksum = golden_checksum
        self.columns: Dict[str, object] = {}
        for name, dtype in _COLUMNS:
            fill = -1 if name in ("core", "register", "bit",
                                  "classification", "diversity",
                                  "eff_reg0", "eff_bit0", "eff_reg1",
                                  "eff_bit1", "death_cycle") else 0
            if self.backend == "numpy":
                self.columns[name] = _np.full(self.n, fill, dtype=dtype)
            else:
                self.columns[name] = [fill] * self.n

    # -- column access -----------------------------------------------------

    def column(self, name: str) -> List[int]:
        """One column as a plain list of Python ints (both backends)."""
        col = self.columns[name]
        if self.backend == "numpy":
            return [int(v) for v in col.tolist()]
        return list(col)

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
        if int(cols["eff_reg0"][i]) >= 0:
            out.append(FaultEffect(register=int(cols["eff_reg0"][i]),
                                   bit=int(cols["eff_bit0"][i])))
        if int(cols["eff_reg1"][i]) >= 0:
            out.append(FaultEffect(register=int(cols["eff_reg1"][i]),
                                   bit=int(cols["eff_bit1"][i])))
        return tuple(out)

    def result(self, i: int) -> InjectionResult:
        """Row ``i`` reconstituted as a scalar :class:`InjectionResult`.

        Field-for-field identical to what the per-trial fork path
        returns for the same fault (the batched/scalar equivalence the
        benchmark and tests assert).
        """
        cols = self.columns
        diversity = int(cols["diversity"][i])
        return InjectionResult(
            fault_cycle=int(cols["cycle"][i]),
            outcome=compare_outputs(int(cols["output0"][i]),
                                    int(cols["output1"][i]),
                                    self.golden_checksum),
            diversity_at_injection=(None if diversity < 0
                                    else bool(diversity)),
            no_diversity_cycles=int(cols["no_diversity_cycles"][i]),
            effects=self.effects(i),
            finished=bool(int(cols["finished"][i])),
            end_cycle=int(cols["end_cycle"][i]),
            trapped=(int(cols["classification"][i]) == CLASS_TRAP),
        )

    def effects_identical(self, i: int) -> bool:
        cols = self.columns
        return (int(cols["eff_reg0"][i]) >= 0
                and int(cols["eff_reg0"][i]) == int(cols["eff_reg1"][i])
                and int(cols["eff_bit0"][i]) == int(cols["eff_bit1"][i]))

    # -- aggregation -------------------------------------------------------

    def count_status(self, status: int) -> int:
        col = self.columns["status"]
        if self.backend == "numpy":
            return int(_np.count_nonzero(col == status))
        return sum(1 for s in col if s == status)

    def count(self, classification: str) -> int:
        code = CLASS_NAMES.index(classification)
        col = self.columns["classification"]
        if self.backend == "numpy":
            return int(_np.count_nonzero(col == code))
        return sum(1 for c in col if c == code)

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
        """Identical-effect silent escapes SafeDM called diverse — must
        be zero (the paper's no-false-negative property; see
        :class:`repro.fault.CampaignResult`)."""
        total = 0
        cls = self.columns["classification"]
        div = self.columns["diversity"]
        for i in range(self.n):
            if (int(cls[i]) == CLASS_SILENT_CCF and int(div[i]) == 1
                    and self.effects_identical(i)):
                total += 1
        return total

    @property
    def silent_via_shared_state(self) -> int:
        """Silent escapes with differing corruptions (only possible via
        shared writable state between the replicas)."""
        total = 0
        cls = self.columns["classification"]
        for i in range(self.n):
            if (int(cls[i]) == CLASS_SILENT_CCF
                    and not self.effects_identical(i)):
                total += 1
        return total

    @property
    def detected_or_flagged(self) -> int:
        """Caught by comparison or flagged by SafeDM at injection."""
        total = 0
        cls = self.columns["classification"]
        div = self.columns["diversity"]
        for i in range(self.n):
            code = int(cls[i])
            if code == CLASS_DETECTED or (code == CLASS_SILENT_CCF
                                          and int(div[i]) == 0):
                total += 1
        return total

    def counts(self) -> Dict[str, int]:
        """Classification counts plus the campaign cross-checks."""
        out = {name: self.count(name) for name in CLASS_NAMES}
        out["silent_despite_diversity"] = self.silent_despite_diversity
        out["silent_via_shared_state"] = self.silent_via_shared_state
        out["detected_or_flagged"] = self.detected_or_flagged
        return out

    def summary(self) -> str:
        counts = self.counts()
        return ("trials=%d masked=%d detected=%d silent_ccf=%d hang=%d "
                "trap=%d silent_despite_diversity=%d static=%d "
                "analytic=%d simulated=%d"
                % (self.n, counts["masked"], counts["detected"],
                   counts["silent_ccf"], counts["hang"], counts["trap"],
                   counts["silent_despite_diversity"],
                   self.count_status(STATUS_STATIC),
                   self.count_status(STATUS_ANALYTIC),
                   self.count_status(STATUS_SIMULATED)))
