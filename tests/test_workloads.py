"""Workload kernel validation: all 29 TACLe-suite kernels.

Each kernel must (a) assemble, (b) run to completion redundantly,
(c) produce its Python-reference checksum on *both* cores, and
(d) behave deterministically.
"""

import pytest

from repro.workloads import TACLE_KERNELS, program, workload
from repro.workloads.dsl import lcg_reference

from sim_helpers import run_workload_cached


class TestRegistry:
    def test_paper_has_29_benchmarks(self):
        assert len(TACLE_KERNELS) == 29

    def test_all_workloads_assemble(self):
        for name in TACLE_KERNELS:
            prog = program(name)
            assert prog.size > 0
            assert prog.entry == prog.symbol("_start")

    def test_metadata_present(self):
        for name in TACLE_KERNELS:
            spec = workload(name)
            assert spec.name == name
            assert spec.description
            assert spec.category
            assert spec.expected_checksum is not None

    def test_unknown_name_rejected(self):
        from repro.workloads import REGISTRY
        with pytest.raises(KeyError):
            REGISTRY.get("nosuchbench")

    def test_program_caching(self):
        from repro.workloads import REGISTRY
        assert REGISTRY.program("fac") is REGISTRY.program("fac")


class TestLcgReference:
    def test_deterministic(self):
        assert lcg_reference(42, 5) == lcg_reference(42, 5)

    def test_seed_sensitivity(self):
        assert lcg_reference(1, 5) != lcg_reference(2, 5)

    def test_shift_bounds_values(self):
        for value in lcg_reference(7, 100, shift=48):
            assert 0 <= value < (1 << 16)


@pytest.mark.parametrize("name", TACLE_KERNELS)
class TestKernelCorrectness:
    def test_finishes_and_checksum_matches(self, name):
        run = run_workload_cached(name)
        assert run["finished"], "%s did not finish" % name
        assert run["checksum0"] == run["expected"], \
            "%s core0 checksum mismatch" % name
        assert run["checksum1"] == run["expected"], \
            "%s core1 checksum mismatch" % name

    def test_cores_commit_equal_instruction_counts(self, name):
        run = run_workload_cached(name)
        assert run["committed0"] == run["committed1"]

    def test_monitor_counters_sane(self, name):
        run = run_workload_cached(name)
        assert 0 <= run["no_diversity"] <= run["sampled"]
        assert run["no_diversity"] <= run["no_data_diversity"]
        assert run["no_diversity"] <= run["no_instruction_diversity"]
        assert 0 <= run["zero_staggering"] <= run["sampled"]


class TestSortKernelsProduceSortedMemory:
    @pytest.mark.parametrize("name,count", [
        ("bsort", 72), ("insertsort", 96), ("quicksort", 192),
        ("bitonic", 64),
    ])
    def test_array_sorted(self, name, count):
        from repro.soc.mpsoc import MPSoC
        soc = MPSoC()
        soc.start_redundant(program(name))
        soc.run(max_cycles=2_000_000)
        base = soc.config.data_bases[0] + 64
        values = [soc.memory.read(base + 8 * i, 8) for i in range(count)]
        assert values == sorted(values)
