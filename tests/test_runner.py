"""Sweep engine tests: determinism, caching, canonical merge order."""

import dataclasses
import os

import pytest

from repro.core.monitor import ReportingMode
from repro.core.signatures import SignatureConfig
from repro.runner import (
    ParallelSweep,
    RunCache,
    RunSpec,
    cell_specs,
    map_ordered,
    merge_cell,
    monitor_key,
    program_digest,
    resolve_jobs,
    signature_digest,
    sim_config_digest,
    simulation_key,
)
from repro.soc.config import SocConfig
from repro.soc.experiment import RunResult, run_row
from repro.workloads import program

# Fast kernels so the full protocol stays cheap in CI.
KERNELS = ("cosf", "countnegative")
STAGGERS = (0, 100)


def _cells_as_dicts(cells):
    return [dataclasses.asdict(cell) for cell in cells]


def _run_result(**overrides):
    base = dict(benchmark="x", stagger_nops=0, late_core=1, cycles=10,
                committed=5, zero_staggering_cycles=1,
                no_diversity_cycles=2, no_data_diversity_cycles=3,
                no_instruction_diversity_cycles=4, interrupts=0,
                finished=True, ipc=0.5)
    base.update(overrides)
    return RunResult(**base)


# --- canonical spec order / merge semantics ----------------------------------

def test_cell_specs_mirror_run_cell_protocol():
    # stagger 0: repeated runs vary the arbiter start, late core fixed.
    zero = cell_specs("cosf", 0, max_cycles=123)
    assert zero == (RunSpec("cosf", 0, 1, 0, 123),
                    RunSpec("cosf", 0, 1, 1, 123))
    # staggered: one run per late-core choice, arbiter start fixed.
    staggered = cell_specs("cosf", 100, max_cycles=123)
    assert staggered == (RunSpec("cosf", 100, 0, 0, 123),
                         RunSpec("cosf", 100, 1, 0, 123))


def test_merge_cell_takes_max_across_runs():
    runs = [_run_result(zero_staggering_cycles=7, no_diversity_cycles=1),
            _run_result(zero_staggering_cycles=3, no_diversity_cycles=9)]
    cell = merge_cell("x", 0, runs)
    assert cell.zero_staggering_cycles == 7
    assert cell.no_diversity_cycles == 9
    assert cell.runs == runs


# --- the ordered executor ----------------------------------------------------

def _scaled(context, task):
    return context * task, os.getpid()


@pytest.mark.parametrize("jobs", [1, 2])
def test_map_ordered_yields_in_task_order(jobs):
    tasks = list(range(12, 0, -1))
    out = list(map_ordered(_scaled, 3, tasks, jobs))
    assert [value for value, _ in out] == [3 * task for task in tasks]
    in_process = {pid for _, pid in out} == {os.getpid()}
    assert in_process == (jobs == 1)


def test_map_ordered_serial_is_lazy():
    calls = []
    results = map_ordered(lambda context, task: calls.append(task), None,
                          [1, 2, 3])
    assert calls == []
    next(results)
    assert calls == [1]


@pytest.mark.parametrize("jobs", [0, -2])
def test_resolve_jobs_rejects_counts_below_one(jobs):
    with pytest.raises(ValueError, match="got %d" % jobs):
        resolve_jobs(jobs)
    with pytest.raises(ValueError, match="got %d" % jobs):
        ParallelSweep(jobs=jobs)


def test_resolve_jobs_keeps_explicit_counts():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(5) == 5


# --- determinism: parallel == serial == direct run_row ----------------------

@pytest.mark.slow
def test_parallel_and_serial_sweeps_are_identical(tmp_path):
    reference = {name: run_row(program(name), name,
                               stagger_values=STAGGERS)
                 for name in KERNELS}
    serial = ParallelSweep(jobs=1, use_cache=False)
    parallel = ParallelSweep(jobs=2, use_cache=False)
    serial_rows = serial.run_table(KERNELS, stagger_values=STAGGERS)
    parallel_rows = parallel.run_table(KERNELS, stagger_values=STAGGERS)
    for name in KERNELS:
        ref = _cells_as_dicts(reference[name])
        assert _cells_as_dicts(serial_rows[name]) == ref
        assert _cells_as_dicts(parallel_rows[name]) == ref


# --- run cache ---------------------------------------------------------------

@pytest.mark.slow
def test_second_sweep_hits_cache(tmp_path):
    name = KERNELS[0]
    first = ParallelSweep(jobs=1, cache_dir=tmp_path)
    rows = first.run_table([name], stagger_values=STAGGERS)
    assert first.cache.hits == 0
    assert first.cache.stores == 4  # 2 cells x 2 runs each

    second = ParallelSweep(jobs=1, cache_dir=tmp_path)
    rows_again = second.run_table([name], stagger_values=STAGGERS)
    assert second.cache.hits == 4
    assert second.cache.misses == 0
    assert second.cache.stores == 0
    assert _cells_as_dicts(rows_again[name]) == _cells_as_dicts(rows[name])


@pytest.mark.slow
def test_changed_config_misses_cache(tmp_path):
    name = KERNELS[0]
    sweep = ParallelSweep(jobs=1, cache_dir=tmp_path)
    sweep.run_table([name], stagger_values=(0,))
    assert sweep.cache.stores == 2

    changed = SocConfig()
    changed.data_bases = (0x4000_0000, 0x6000_0000)
    redo = ParallelSweep(jobs=1, cache_dir=tmp_path)
    redo.run_table([name], stagger_values=(0,), config=changed)
    assert redo.cache.hits == 0
    assert redo.cache.misses == 2


def _full_key(prog_dig, config=None, *, mode_value, threshold, **sim):
    """A run's cache key: the monitor key over the simulation key."""
    resolved = config if config is not None else SocConfig()
    sim_key = simulation_key(prog_dig, sim_config_digest(resolved), **sim)
    return monitor_key(sim_key,
                       signature_dig=signature_digest(resolved.signature),
                       mode_value=mode_value, threshold=threshold)


def test_run_key_sensitivity():
    prog = program(KERNELS[0])
    prog_dig = program_digest(prog)
    base = dict(benchmark=KERNELS[0], stagger_nops=0, late_core=1,
                rr_start=0, max_cycles=100, mode_value="polling",
                threshold=1)
    key = _full_key(prog_dig, None, **base)
    assert key == _full_key(prog_dig, None, **base)  # stable
    assert key == _full_key(prog_dig, SocConfig(), **base)
    for field, value in [("stagger_nops", 100), ("late_core", 0),
                         ("rr_start", 1), ("max_cycles", 99),
                         ("mode_value", "interrupt_first"),
                         ("threshold", 2)]:
        assert key != _full_key(prog_dig, None, **{**base, field: value})
    other_dig = program_digest(program(KERNELS[1]))
    assert key != _full_key(other_dig, None, **base)
    assert sim_config_digest(None) == sim_config_digest(SocConfig())
    assert signature_digest(None) == signature_digest(
        SocConfig().signature)


def test_key_split_simulation_vs_monitor():
    """The signature section keys the monitor layer, not the simulation."""
    prog_dig = program_digest(program(KERNELS[0]))
    base = dict(benchmark=KERNELS[0], stagger_nops=0, late_core=1,
                rr_start=0, max_cycles=100)
    plain = SocConfig()
    fancy = SocConfig(signature=SignatureConfig(num_ports=2, ds_depth=3))
    # Different signature geometry: same simulation...
    assert sim_config_digest(plain) == sim_config_digest(fancy)
    sim = simulation_key(prog_dig, sim_config_digest(plain), **base)
    assert sim == simulation_key(prog_dig, sim_config_digest(fancy),
                                 **base)
    # ...but a different monitor key (so run results never collide).
    mk = monitor_key(sim, signature_dig=signature_digest(plain.signature),
                     mode_value="polling", threshold=1)
    assert mk != monitor_key(
        sim, signature_dig=signature_digest(fancy.signature),
        mode_value="polling", threshold=1)
    # A non-signature config change changes the simulation itself.
    moved = SocConfig()
    moved.data_bases = (0x4000_0000, 0x6000_0000)
    assert sim_config_digest(moved) != sim_config_digest(plain)
    # A run's key composes the two layers.
    full = _full_key(prog_dig, plain, mode_value="polling", threshold=1,
                     **base)
    assert full == mk


def test_cache_survives_corrupt_entry(tmp_path):
    cache = RunCache(tmp_path)
    result = _run_result()
    cache.put("goodkey", result)
    assert cache.get("goodkey") == result
    (tmp_path / "badkey.json").write_text("{not json")
    assert cache.get("badkey") is None
    # The corrupt entry is evicted from disk, not left to miss forever.
    assert cache.evictions == 1
    assert not (tmp_path / "badkey.json").exists()
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0


def test_cache_evicts_stale_schema_entry(tmp_path):
    cache = RunCache(tmp_path)
    (tmp_path / "oldkey.json").write_text(
        '{"schema": 1, "result": {}}')
    assert cache.get("oldkey") is None
    assert cache.evictions == 1
    assert not (tmp_path / "oldkey.json").exists()


@pytest.mark.parametrize("text", ["[]", "3", '"result"', "null"])
def test_cache_evicts_json_that_is_not_an_entry(tmp_path, text):
    """Valid JSON that is not an entry object is as dead as garbage."""
    cache = RunCache(tmp_path)
    (tmp_path / "oddkey.json").write_text(text)
    assert cache.get("oddkey") is None
    assert cache.evictions == 1
    assert not (tmp_path / "oddkey.json").exists()


@pytest.mark.slow
def test_sweep_capture_then_replay(tmp_path):
    """A captured sweep's traces answer a later sweep with a different
    monitor configuration — bit-identically to live simulation."""
    name = KERNELS[0]
    captured = ParallelSweep(jobs=1, cache_dir=tmp_path, capture=True)
    captured.run_table([name], stagger_values=STAGGERS,
                       max_cycles=20_000)
    assert len(captured._captured_specs) == 4
    assert len(captured.traces) == 4

    # Different monitor config: run-cache misses, trace-cache hits.
    replayer = ParallelSweep(jobs=1, cache_dir=tmp_path, replay=True,
                             mode=ReportingMode.INTERRUPT_THRESHOLD,
                             threshold=4)
    rows = replayer.run_table([name], stagger_values=STAGGERS,
                              max_cycles=20_000)
    assert len(replayer._replayed_specs) == 4

    live = ParallelSweep(jobs=1, use_cache=False,
                         mode=ReportingMode.INTERRUPT_THRESHOLD,
                         threshold=4)
    live_rows = live.run_table([name], stagger_values=STAGGERS,
                               max_cycles=20_000)
    assert _cells_as_dicts(rows[name]) == _cells_as_dicts(live_rows[name])

    # The replayed results were cached: a third sweep is pure hits.
    third = ParallelSweep(jobs=1, cache_dir=tmp_path, replay=True,
                          mode=ReportingMode.INTERRUPT_THRESHOLD,
                          threshold=4)
    third.run_table([name], stagger_values=STAGGERS, max_cycles=20_000)
    assert third.cache.hits == 4
    assert len(third._replayed_specs) == 0
