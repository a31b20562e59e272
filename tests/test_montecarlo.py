"""Monte-Carlo subsystem tests: batched == scalar, determinism, stats.

The load-bearing property: a :class:`BatchedCampaign` is an
*optimization*, never a behaviour change.  Every trial it resolves —
analytically from the golden run's access log or by forked simulation
— must be field-for-field identical to what the scalar per-trial
injectors return for the same fault, and the whole campaign must be a
pure function of ``(program, config, seed, trials)``: independent of
the worker count and the execution tier.
"""

import dataclasses
import json
import os
import subprocess
import sys
from functools import lru_cache
from types import SimpleNamespace

import pytest

import repro
from repro.baselines.unaware import compare_outputs
from repro.cli import main
from repro.fault import (
    FaultEffect,
    ForkEngine,
    InjectionResult,
    golden_run_with_checkpoints,
    inject_common_cause,
    inject_transient,
    shared_address_config,
)
from repro.montecarlo import (
    AccessIndex,
    BatchedCampaign,
    TrialBatch,
    batch_statistics,
    ccf_effects,
    classify_batch,
    coverage_by_cycle,
    divergence_latency_cdf,
    diversity_histogram,
    ecdf,
    mc_golden_run,
)
from repro.montecarlo.batch import (
    CLASS_DETECTED,
    CLASS_MASKED,
    CLASS_SILENT_CCF,
    STATUS_ANALYTIC,
    STATUS_SIMULATED,
    STATUS_STATIC,
)
from repro.workloads import program

KERNEL = "countnegative"  # short, memory-touching, CCF-vulnerable
MAX_CYCLES = 200_000
TRIALS = 48
SEED = 7


@lru_cache(maxsize=8)
def ccf_run(jobs=1, engine="fast", trials=TRIALS, seed=SEED):
    """One finished CCF campaign, cached per configuration."""
    campaign = BatchedCampaign(program(KERNEL), benchmark=KERNEL,
                               config=shared_address_config(),
                               max_cycles=MAX_CYCLES, engine=engine)
    batch = campaign.sample_ccf(trials, seed=seed)
    result = campaign.run(batch, jobs=jobs, seed=seed)
    return campaign, batch, result


@lru_cache(maxsize=2)
def transient_run(trials=32, seed=SEED, jobs=1):
    campaign = BatchedCampaign(program(KERNEL), benchmark=KERNEL,
                               config=shared_address_config(),
                               max_cycles=MAX_CYCLES, engine="fast")
    batch = campaign.sample_transient(trials, seed=seed)
    result = campaign.run(batch, jobs=jobs, seed=seed)
    return campaign, batch, result


class TestBatchedEqualsScalar:
    """Every batched row reconstitutes to the scalar injector's result."""

    def test_ccf_matches_scalar_fork_path(self):
        campaign, batch, _ = ccf_run()
        base = campaign.artifact.base
        fork = ForkEngine(campaign.program, base,
                          config=campaign.config)
        for i in range(batch.n):
            scalar = inject_common_cause(
                campaign.program, int(batch.columns["cycle"][i]),
                int(batch.columns["stimulus"][i]), base.checksum,
                config=campaign.config, max_cycles=MAX_CYCLES,
                fork=fork, engine="fast")
            assert dataclasses.asdict(batch.result(i)) \
                == dataclasses.asdict(scalar), "trial %d" % i

    def test_transient_matches_scalar_fork_path(self):
        campaign, batch, _ = transient_run()
        base = campaign.artifact.base
        fork = ForkEngine(campaign.program, base,
                          config=campaign.config)
        cols = batch.columns
        for i in range(batch.n):
            scalar = inject_transient(
                campaign.program, int(cols["cycle"][i]),
                int(cols["core"][i]), int(cols["register"][i]),
                int(cols["bit"][i]), base.checksum,
                config=campaign.config, max_cycles=MAX_CYCLES,
                fork=fork, engine="fast")
            assert dataclasses.asdict(batch.result(i)) \
                == dataclasses.asdict(scalar), "trial %d" % i

    def test_both_resolution_paths_exercised(self):
        _, _, result = ccf_run()
        assert result.static > 0
        assert result.simulated > 0
        assert result.static + result.analytic + result.simulated \
            == TRIALS

    def test_static_prefilter_changes_status_not_classification(self):
        """Classified without the static filter, the same batch has
        the same live list and, on every other row, the same
        classification and death cycle: the static proofs (a subset
        of the dynamic masked set) only relabel a trial's status."""
        campaign, batch, _ = ccf_run()
        control = campaign.sample_ccf(TRIALS, seed=SEED)
        live = classify_batch(campaign.artifact, control)
        status = batch.column("status")
        assert live == [i for i in range(batch.n)
                        if status[i] == STATUS_SIMULATED]
        assert STATUS_STATIC not in control.column("status")
        resolved = [i for i in range(batch.n) if i not in live]
        for name in ("classification", "death_cycle"):
            got, want = control.column(name), batch.column(name)
            assert [got[i] for i in resolved] \
                == [want[i] for i in resolved], name

    def test_no_silent_escape_in_diverse_cycle(self):
        _, batch, _ = ccf_run()
        assert batch.silent_despite_diversity == 0


class TestDeterminism:
    """Same seed => bit-identical campaign, whatever the plumbing."""

    @pytest.mark.parametrize("kind", ["ccf", "transient"])
    def test_jobs_do_not_change_results(self, kind):
        run = ccf_run if kind == "ccf" else transient_run
        _, b1, r1 = run(jobs=1)
        _, b2, r2 = run(jobs=2)
        assert r1.summary_dict() == r2.summary_dict()
        assert b1.as_dict() == b2.as_dict()

    def test_ccf_batch_after_transient_batch(self):
        """A transient recording has no CCF digests: a CCF batch on the
        same campaign records again and matches a fresh campaign."""
        campaign = BatchedCampaign(program(KERNEL), benchmark=KERNEL,
                                   config=shared_address_config(),
                                   max_cycles=MAX_CYCLES, engine="fast")
        campaign.run(campaign.sample_transient(4, seed=SEED), seed=SEED)
        batch = campaign.sample_ccf(TRIALS, seed=SEED)
        campaign.run(batch, seed=SEED)
        assert batch.as_dict() == ccf_run()[1].as_dict()

    def test_engine_tiers_identical(self):
        _, bf, rf = ccf_run(engine="fast", trials=16, seed=3)
        _, br, rr = ccf_run(engine="reference", trials=16, seed=3)
        assert rf.summary_dict() == rr.summary_dict()
        assert bf.as_dict() == br.as_dict()

    def test_sampling_is_a_pure_function_of_the_seed(self):
        campaign, batch, _ = ccf_run()
        again = campaign.sample_ccf(TRIALS, seed=SEED)
        assert again.column("cycle") == batch.column("cycle")
        assert again.column("stimulus") == batch.column("stimulus")

    def test_statistics_deterministic(self):
        _, batch, result = ccf_run()
        one = batch_statistics(batch, end_cycle=result.golden_cycles)
        two = batch_statistics(batch, end_cycle=result.golden_cycles)
        assert one == two


def _result(finished=True, output0=1, output1=1, golden=1,
            trapped=False, cycle=10, end_cycle=100,
            effects=(FaultEffect(register=3, bit=7),
                     FaultEffect(register=3, bit=7))):
    return InjectionResult(
        fault_cycle=cycle,
        outcome=compare_outputs(output0, output1, golden),
        diversity_at_injection=True,
        no_diversity_cycles=4,
        effects=effects,
        finished=finished,
        end_cycle=end_cycle,
        trapped=trapped,
    )


class TestTrialBatch:
    def test_fill_result_round_trip(self):
        batch = TrialBatch("ccf", 1, golden_checksum=1)
        batch.set_ccf_trial(0, 10, 0xABC)
        original = _result(output0=5, output1=5)  # silent escape
        batch.fill_from_result(0, original, death_cycle=50)
        assert dataclasses.asdict(batch.result(0)) \
            == dataclasses.asdict(original)
        assert int(batch.columns["death_cycle"][0]) == 50
        assert batch.result(0).classification == "silent_ccf"

    def test_trap_round_trip(self):
        batch = TrialBatch("ccf", 1, golden_checksum=1)
        batch.set_ccf_trial(0, 10, 0xABC)
        original = _result(finished=False, trapped=True, end_cycle=42)
        assert original.classification == "trap"
        batch.fill_from_result(0, original)
        restored = batch.result(0)
        assert restored.trapped is True
        assert restored.classification == "trap"
        assert restored.end_cycle == 42
        assert batch.traps == 1

    def test_counts(self):
        batch = TrialBatch("ccf", 3, golden_checksum=1)
        batch.fill_from_result(0, _result(output0=1, output1=1))
        batch.fill_from_result(1, _result(output0=2, output1=3))
        batch.fill_from_result(2, _result(finished=False))
        counts = batch.counts()
        assert counts["masked"] == 1
        assert counts["detected"] == 1
        assert counts["hang"] == 1
        assert "trap" in counts
        assert batch.count_status(STATUS_SIMULATED) == 3
        assert "masked=1" in batch.summary()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TrialBatch("bogus", 1)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            TrialBatch("ccf", -1)

    def test_backend_keyword_accepts_only_python(self):
        assert TrialBatch("ccf", 1, backend="python").n == 1
        with pytest.raises(ValueError):
            TrialBatch("ccf", 1, backend="numpy")


def test_no_module_imports_numpy():
    """The library has no third-party dependency: importing every
    package leaves numpy unloaded even where it is installed."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = ("import sys\n"
            "import repro, repro.fault, repro.montecarlo, repro.replay, "
            "repro.runner, repro.schemes, repro.telemetry, repro.cli\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'numpy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("kernel,shared,every,max_cycles", [
    ("countnegative", True, 547, MAX_CYCLES),
    ("countnegative", False, 0, MAX_CYCLES),
    ("cosf", True, 0, MAX_CYCLES),
    ("bitcount", False, 547, MAX_CYCLES),
    ("md5", True, 500, 3_000),  # truncated mid-run
])
def test_checkpointed_golden_run_is_the_recording_base(kernel, shared,
                                                       every, max_cycles):
    """The fork substrate of a scalar campaign is exactly the base of
    the instrumented Monte-Carlo golden run, field for field."""
    config = shared_address_config() if shared else None
    plain = golden_run_with_checkpoints(
        program(kernel), config=config, max_cycles=max_cycles,
        checkpoint_every=every, benchmark=kernel)
    recorded = mc_golden_run(
        program(kernel), config=config, max_cycles=max_cycles,
        checkpoint_every=every, benchmark=kernel, record_ccf=False)
    assert dataclasses.asdict(plain) == dataclasses.asdict(recorded.base)
    assert plain.finished == (max_cycles == MAX_CYCLES)


class TestAccessIndex:
    #: r5: write@0, read@4; r7: write@9; r9: untouched.  The (2, idx)
    #: checkpoint marker must be ignored.
    LOG = [(3, 0), (1, 5), (2, 0), (3, 4), (0, 5), (3, 9), (1, 7)]

    def index(self):
        return AccessIndex(self.LOG, end_cycle=20)

    def test_first_access(self):
        index = self.index()
        assert index.first_access(5, 0) == (1, 0)
        assert index.first_access(5, 1) == (0, 4)
        assert index.first_access(5, 5) is None
        assert index.first_access(7, 0) == (1, 9)
        assert index.first_access(9, 0) is None

    def test_corruption_fate(self):
        index = self.index()
        # First access is a write: dead the moment it is overwritten.
        assert index.corruption_fate(5, 0) == (True, 0)
        # A read comes first: live, must be simulated.
        assert index.corruption_fate(5, 1) == (False, -1)
        # Never touched again: dead until the end of the run.
        assert index.corruption_fate(5, 5) == (True, 20)
        assert index.corruption_fate(7, 3) == (True, 9)
        assert index.corruption_fate(9, 0) == (True, 20)


class TestCcfEffects:
    #: Digests near 2^32-1 exercise the mod-2^32 wraparound.
    ARTIFACT = SimpleNamespace(
        state_digests=([0xFFFFFFFF, 0x12345678, 7],
                       [0x0BADF00D, 0xFFFFFFFF, 11]),
        activity_digests=([0xDEADBEEF, 0xFFFFFFFF, 13],
                          [0x12345678, 0x0BADF00D, 17]),
    )
    CYCLES = [0, 1, 2, 1]
    STIMULI = [0xFFFFFFFF, 0, 0x5EED, 0xFFFFFFFF]

    def test_matches_fault_model_arithmetic(self):
        # Pinned values, so any change to the mixing function that
        # the injector and the classifier share shows up here.
        assert ccf_effects(self.ARTIFACT, self.CYCLES, self.STIMULI) \
            == ([9, 14, 15, 13], [12, 5, 31, 5],
                [29, 14, 22, 13], [35, 40, 58, 40])


def _synthetic_batch():
    """Four hand-filled trials: detected, masked, flagged silent
    escape, unflagged silent escape."""
    batch = TrialBatch("ccf", 4, golden_checksum=1)
    cols = batch.columns
    for i, (cycle, cls, div, status) in enumerate((
            (0, CLASS_DETECTED, 1, STATUS_SIMULATED),
            (5, CLASS_MASKED, 1, STATUS_ANALYTIC),
            (10, CLASS_SILENT_CCF, 0, STATUS_SIMULATED),
            (15, CLASS_SILENT_CCF, 1, STATUS_SIMULATED))):
        cols["cycle"][i] = cycle
        cols["classification"][i] = cls
        cols["diversity"][i] = div
        cols["status"][i] = status
        cols["end_cycle"][i] = 20
        cols["death_cycle"][i] = 20 if cls == CLASS_MASKED else -1
    return batch


class TestStats:
    def test_ecdf(self):
        assert ecdf([]) == []
        assert ecdf([3, 1, 3]) == [(1, 1 / 3), (3, 1.0)]

    def test_divergence_latency_excludes_analytic(self):
        cdf = divergence_latency_cdf(_synthetic_batch())
        # Simulated latencies 20-0, 20-10, 20-15; the masked-analytic
        # trial at cycle 5 contributes nothing.
        assert cdf == [(5, 1 / 3), (10, 2 / 3), (20, 1.0)]

    def test_coverage_by_cycle(self):
        rows = coverage_by_cycle(_synthetic_batch(), bins=2,
                                 end_cycle=20)
        assert len(rows) == 2
        # Bin [0, 10): detected + masked -> 1/2 covered.
        assert rows[0]["trials"] == 2 and rows[0]["covered"] == 1
        # Bin [10, 20): flagged escape counts, unflagged does not.
        assert rows[1]["trials"] == 2 and rows[1]["covered"] == 1

    def test_diversity_histogram(self):
        hist = diversity_histogram(_synthetic_batch())
        assert hist["detected"]["diverse"] == 1
        assert hist["silent_ccf"]["not_diverse"] == 1
        assert hist["silent_ccf"]["diverse"] == 1

    def test_batch_statistics_bundle(self):
        stats = batch_statistics(_synthetic_batch(), bins=2,
                                 end_cycle=20, n_boot=20)
        assert stats["trials"] == 4
        assert stats["counts"]["detected"] == 1
        assert stats["rates"]["masked"] == 0.25
        assert stats["divergence_latency"]["n"] == 3
        assert stats["divergence_latency"]["p50"] == 10
        assert stats["masked_lifetime"]["n"] == 1
        assert {"point", "low", "high"} <= set(
            stats["divergence_latency"]["mean_ci"])


class TestCli:
    def test_montecarlo_json(self, capsys):
        assert main(["montecarlo", KERNEL, "--trials", "40",
                     "--seed", "5", "--shared", "--format",
                     "json", "--engine", "fast"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["trials"] == 40
        assert payload["summary"]["counts"]["silent_despite_diversity"] \
            == 0
        assert payload["statistics"]["coverage_by_cycle"]

    def test_montecarlo_text(self, capsys):
        assert main(["montecarlo", KERNEL, "--trials", "30",
                     "--kind", "transient", "--shared",
                     "--engine", "fast"]) == 0
        out = capsys.readouterr().out
        assert "transient trials" in out
        assert "coverage" in out
