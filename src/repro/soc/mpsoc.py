"""The MPSoC: cores + caches + AHB/L2 + APB + SafeDM (paper Section IV).

:class:`MPSoC` owns the functional memory, the shared bus (with the L2
inside it), the cores, the APB bridge, and the SafeDM instance wired to
cores 0 and 1.  Its :meth:`step` method advances the whole platform
one clock cycle (every engine tier follows its order, and :meth:`run`
repeats it to completion); SafeDM observes the cores *after* they
have been stepped each cycle, exactly like the hardware samples
pipeline registers on the clock edge.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.apb_regs import SafeDmApbSlave
from ..core.history import HistoryModule
from ..core.monitor import DiversityMonitor, ReportingMode
from ..cpu.core import Core
from ..isa.program import Program
from ..mem.apb import ApbBridge
from ..mem.bus import AhbBus
from ..mem.memory import Memory
from .config import SocConfig
from .loader import build_nop_sled, load_program


class MPSoC:
    """A NOEL-V-like multicore with SafeDM attached over APB.

    One SafeDM instance watches exactly one pair of cores; larger
    multicores (the paper's contribution list mentions a 4-core
    Gaisler platform) instantiate one monitor per redundant pair via
    ``monitor_pairs``.  ``soc.safedm`` is the first pair's monitor.
    """

    def __init__(self, config: Optional[SocConfig] = None,
                 mode: ReportingMode = ReportingMode.POLLING,
                 threshold: int = 1,
                 history_bin_size: int = 1,
                 history_bins: int = 32,
                 monitor_pairs=((0, 1),),
                 rr_start: int = 0):
        self.config = config or SocConfig()
        cfg = self.config
        for pair in monitor_pairs:
            if len(pair) != 2 or not all(0 <= c < cfg.num_cores
                                         for c in pair):
                raise ValueError("bad monitored pair %r" % (pair,))
        self.memory = Memory()
        self.bus = AhbBus(num_masters=cfg.num_cores,
                          timing=cfg.bus_timing, l2_config=cfg.l2,
                          rr_start=rr_start)
        self.cores: List[Core] = [
            Core(core_id, self.bus, self.memory, config=cfg.core)
            for core_id in range(cfg.num_cores)
        ]
        self.monitor_pairs = tuple(tuple(pair) for pair in monitor_pairs)
        self.monitors: List[DiversityMonitor] = []
        self.apb = ApbBridge(base=cfg.apb_base)
        self._slave_bases: List[int] = []
        self._apb_slaves: List[SafeDmApbSlave] = []
        for index, pair in enumerate(self.monitor_pairs):
            history = HistoryModule(bin_size=history_bin_size,
                                    num_bins=history_bins)
            monitor = DiversityMonitor(config=cfg.signature, mode=mode,
                                       threshold=threshold,
                                       history=history)
            self.monitors.append(monitor)
            slave = SafeDmApbSlave(monitor)
            self._apb_slaves.append(slave)
            base = self.apb.attach(slave, 0x100 * index,
                                   "safedm%d" % index)
            self._slave_bases.append(base)
        #: First pair's monitor (the common single-pair case).
        self.safedm = self.monitors[0]
        self.safedm_base = self._slave_bases[0]
        self.cycle = 0
        #: First monitored core pair (back-compat convenience).
        self.monitored = self.monitor_pairs[0]
        #: Set by :func:`repro.engine.run_soc` (None until a run).
        self.engine_stats = None
        #: Pairs whose cores share one per-PC decode cache (see
        #: :meth:`start_redundant`); serialized so restores re-link.
        self._shared_fetch_pairs = set()
        #: Scheme check hooks, fired every cycle after the monitor taps
        #: (see :meth:`add_scheme_tap`).  Unlike monitors, scheme taps
        #: are not gated on finish: checkers like the lockstep
        #: comparator must see the head core's final commits while the
        #: shadow is still draining.
        self._scheme_taps = []
        #: Override of which cores' completion ends :meth:`run` (set by
        #: a :class:`repro.schemes.base.RedundancyScheme`; ``None``
        #: keeps the monitored-pair default).
        self.watched_cores = None
        # Pre-bound (monitor, core, core) taps: the per-cycle loop must
        # not re-index cores or build generator expressions every cycle.
        self._taps = tuple(
            (monitor, self.cores[pair[0]], self.cores[pair[1]])
            for monitor, pair in zip(self.monitors, self.monitor_pairs))

    def add_scheme_tap(self, tap):
        """Register a per-cycle scheme check hook.

        ``tap(cycle)`` fires once per :meth:`step`, after the cores and
        bus have advanced and the monitors have sampled — the same
        clock edge the monitors observe, so a checker reads exactly the
        state a hardware comparator would latch.
        """
        self._scheme_taps.append(tap)

    def _watched_indices(self):
        """Core ids whose completion ends :meth:`run`."""
        if self.watched_cores is not None:
            return tuple(self.watched_cores)
        return tuple(dict.fromkeys(
            idx for pair in self.monitor_pairs for idx in pair))

    # -- program setup ------------------------------------------------------

    def load(self, program: Program):
        """Load a shared text image."""
        load_program(self.memory, program)

    def start_core(self, core_id: int, entry: int,
                   stagger_nops: int = 0) -> int:
        """Point a core at ``entry``, optionally behind a nop sled.

        Registers are initialised to the bare-metal convention the
        workload kernels rely on: ``gp`` = core-private data base,
        ``sp`` = top of the core-private stack, ``tp`` = core id.
        Returns the number of sled instructions the core will commit
        before reaching the program.
        """
        cfg = self.config
        start_pc = entry
        sled_count = 0
        if stagger_nops:
            sled_base = cfg.sled_base + core_id * 0x0008_0000
            start_pc, sled_count = build_nop_sled(self.memory, sled_base,
                                                  stagger_nops, entry)
        core = self.cores[core_id]
        core.reset(entry=start_pc)
        core.regfile.write(3, cfg.data_base(core_id))   # gp
        core.regfile.write(2, cfg.stack_top(core_id))   # sp
        core.regfile.write(4, core_id)                  # tp
        # The paper's cores enter the measured region straight out of a
        # synchronization loop, i.e. with the first instruction line hot;
        # warm it so cycle 0 starts with live pipelines, not a cold stall.
        core.icache.fill(start_pc)
        self.bus.l2.fill(self.bus.l2.line_address(start_pc))
        return sled_count

    def start_redundant(self, program: Program, late_core: int = 1,
                        stagger_nops: int = 0, pair: int = 0):
        """Start monitored pair ``pair`` on the same program.

        ``late_core`` executes ``stagger_nops`` no-ops before entering
        the program; SafeDM's staggering counter is preloaded so that it
        reads *program-level* staggering (the sled commits would
        otherwise offset the commit difference).
        """
        self.load(program)
        cores = self.monitor_pairs[pair]
        monitor = self.monitors[pair]
        extra = 0
        for core_id in cores:
            nops = stagger_nops if core_id == late_core else 0
            count = self.start_core(core_id, program.entry,
                                    stagger_nops=nops)
            if core_id == late_core:
                extra = count
        if extra:
            # The late core commits the sled instructions on top of the
            # program; preload so diff==0 means equal *program* progress.
            preload = extra if late_core == cores[1] else -extra
            monitor.instruction_diff.diff = preload
        # Redundant cores run the same text image, so their per-PC
        # decode caches would hold the same entries twice; share one
        # dict instead.  Entries stay page-version checked, so a write
        # by either core invalidates for both — exactly as two private
        # caches would behave, minus the duplicate decode work.
        a, b = cores
        self.cores[b]._fetch_cache = self.cores[a]._fetch_cache
        self._shared_fetch_pairs.add((a, b))

    # -- simulation loop ---------------------------------------------------------

    def step(self):
        """Advance the platform one clock cycle."""
        cycle = self.cycle
        for core in self.cores:
            if not core.finished:
                core.step(cycle)
            else:
                core.commits_this_cycle = 0
        self.bus.step(cycle)
        for monitor, core_a, core_b in self._taps:
            if not (core_a.finished or core_b.finished):
                monitor.observe(cycle, core_a, core_b)
        staps = self._scheme_taps
        if staps:
            for tap in staps:
                tap(cycle)
        self.cycle = cycle + 1

    def run(self, max_cycles: int = 2_000_000) -> int:
        """Run until every watched core finishes (or ``max_cycles``) on
        the reference tier: :func:`repro.engine.run_soc`.  Returns the
        number of cycles simulated."""
        from ..engine import run_soc
        return run_soc(self, "reference", max_cycles=max_cycles)[0]

    # -- snapshot protocol ------------------------------------------------

    def state_dict(self) -> dict:
        """Serialize the whole platform (children recurse; shared
        bus-request identity goes through one SnapshotContext)."""
        from ..checkpoint import SnapshotContext
        ctx = SnapshotContext()
        state = {
            "cycle": self.cycle,
            "shared_fetch_pairs": sorted(self._shared_fetch_pairs),
            "memory": self.memory.state_dict(),
            "cores": [core.state_dict(ctx) for core in self.cores],
            "bus": self.bus.state_dict(ctx),
            "monitors": [monitor.state_dict()
                         for monitor in self.monitors],
            "apb_slaves": [slave.state_dict()
                           for slave in self._apb_slaves],
        }
        # Emitted after the children so every holder has interned.
        state["requests"] = ctx.request_table()
        return state

    def load_state_dict(self, state):
        """Restore a :meth:`state_dict` into this (same-config) SoC."""
        from ..checkpoint import RestoreContext
        if len(state["cores"]) != len(self.cores):
            raise ValueError("snapshot has %d cores, this SoC has %d"
                             % (len(state["cores"]), len(self.cores)))
        if len(state["monitors"]) != len(self.monitors):
            raise ValueError("snapshot monitor count mismatch")
        ctx = RestoreContext(state["requests"])
        self.cycle = int(state["cycle"])
        # Memory first: core restore re-decodes fetch caches from it.
        self.memory.load_state_dict(state["memory"])
        for core, entry in zip(self.cores, state["cores"]):
            core.load_state_dict(entry, ctx)
        self.bus.load_state_dict(state["bus"], ctx)
        for monitor, entry in zip(self.monitors, state["monitors"]):
            monitor.load_state_dict(entry)
        for slave, entry in zip(self._apb_slaves, state["apb_slaves"]):
            slave.load_state_dict(entry)
        # Re-establish decode-cache sharing (per-core restore above
        # rebuilt private dicts).  Old snapshots lack the key.
        self._shared_fetch_pairs = {
            tuple(pair) for pair in state.get("shared_fetch_pairs", ())}
        for a, b in sorted(self._shared_fetch_pairs):
            merged = self.cores[a]._fetch_cache
            for pc, entry in self.cores[b]._fetch_cache.items():
                merged.setdefault(pc, entry)
            self.cores[b]._fetch_cache = merged

    def snapshot(self, benchmark: str = "program",
                 checkpoint_every: int = 0, sim_key: str = ""):
        """Convenience: the current state as a codec-ready Snapshot."""
        from ..checkpoint import CheckpointMeta, Snapshot
        return Snapshot(self.state_dict(),
                        CheckpointMeta(benchmark=benchmark,
                                       cycle=self.cycle,
                                       checkpoint_every=checkpoint_every,
                                       sim_key=sim_key))

    # -- telemetry -----------------------------------------------------------------

    def collect_metrics(self, registry):
        """Fold the whole platform's state into ``registry``
        (see :func:`repro.telemetry.collect_soc`)."""
        from ..telemetry import collect_soc
        collect_soc(self, registry)

    # -- host access (the paper's testbench role) ---------------------------------

    def apb_read(self, offset: int) -> int:
        """Read a SafeDM APB register by byte offset."""
        return self.apb.read(self.safedm_base + offset)

    def apb_write(self, offset: int, value: int):
        """Write a SafeDM APB register by byte offset."""
        self.apb.write(self.safedm_base + offset, value)

    def describe(self) -> str:
        """Fig. 3-style schematic."""
        return self.config.describe()
