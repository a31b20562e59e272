"""Trace subsystem tests: VCD writer, and the per-cycle views rendered
from a captured stream against the live reference-tier loops they
replace."""

from functools import lru_cache

import pytest

from repro.soc.experiment import run_redundant_captured
from repro.trace.pipeline_trace import PipelineTracer
from repro.trace.vcd import VcdWriter, monitor_vcd
from repro.workloads import program

from sim_helpers import live_observed_cycles

ENGINES = ("reference", "fast")

#: The monitor waveform's wires and widths, in declaration order.
VCD_WIRES = (("no_diversity", 1), ("no_data_diversity", 1),
             ("no_instruction_diversity", 1), ("zero_staggering", 1),
             ("staggering", 32), ("core0_hold", 1), ("core1_hold", 1),
             ("core0_commits", 2), ("core1_commits", 2), ("irq", 1))


@lru_cache(maxsize=None)
def live_vcd(name, stagger):
    """The monitor waveform dumped by the live loop over the observed
    cycles (the oracle for :func:`monitor_vcd`)."""
    vcd = VcdWriter()
    for wire, width in VCD_WIRES:
        vcd.add_signal(wire, width)
    for cycle, soc, core0, core1 in live_observed_cycles(program(name),
                                                         stagger):
        report = soc.safedm.last_report
        vcd.sample_all(cycle, {
            "no_diversity": 0 if report.diversity else 1,
            "no_data_diversity": 0 if report.data_diversity else 1,
            "no_instruction_diversity":
                0 if report.instruction_diversity else 1,
            "zero_staggering": 1 if report.zero_staggering else 0,
            "staggering": report.staggering,
            "core0_hold": 1 if core0.hold else 0,
            "core1_hold": 1 if core1.hold else 0,
            "core0_commits": core0.commits_this_cycle,
            "core1_commits": core1.commits_this_cycle,
            "irq": 1 if soc.safedm.irq.pending else 0,
        })
    return vcd.render()


def capture(name, stagger=0, engine="reference", max_cycles=2_000_000):
    return run_redundant_captured(program(name), benchmark=name,
                                  stagger_nops=stagger,
                                  max_cycles=max_cycles,
                                  engine=engine)[1]


class TestVcdWriter:
    def test_header_and_vars(self):
        vcd = VcdWriter(module="m")
        vcd.add_signal("clk", 1)
        vcd.add_signal("bus", 8)
        text = vcd.render()
        assert "$scope module m $end" in text
        assert "$var wire 1" in text
        assert "$var wire 8" in text
        assert "$enddefinitions $end" in text

    def test_changes_rendered_in_time_order(self):
        vcd = VcdWriter()
        vcd.add_signal("a", 1)
        vcd.change(5, "a", 1)
        vcd.change(2, "a", 0)  # recorded later but earlier time
        text = vcd.render()
        assert text.index("#2") < text.index("#5")

    def test_deduplicates_unchanged_values(self):
        vcd = VcdWriter()
        vcd.add_signal("a", 1)
        vcd.change(0, "a", 1)
        vcd.change(1, "a", 1)  # no change
        vcd.change(2, "a", 0)
        assert vcd.render().count("\n1") + vcd.render().count("\n0") >= 1
        assert len(vcd._changes) == 2

    def test_vector_rendering(self):
        vcd = VcdWriter()
        vcd.add_signal("bus", 8)
        vcd.change(0, "bus", 0xA5)
        assert "b10100101" in vcd.render()

    def test_duplicate_signal_rejected(self):
        vcd = VcdWriter()
        vcd.add_signal("a")
        with pytest.raises(ValueError):
            vcd.add_signal("a")

    def test_unknown_signal_rejected(self):
        vcd = VcdWriter()
        with pytest.raises(KeyError):
            vcd.change(0, "ghost", 1)

    def test_save(self, tmp_path):
        vcd = VcdWriter()
        vcd.add_signal("a")
        vcd.change(0, "a", 1)
        path = tmp_path / "out.vcd"
        vcd.save(str(path))
        assert path.read_text().startswith("$date")


class TestMonitorVcd:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_equals_the_live_monitor(self, engine):
        for name, stagger in (("cosf", 0), ("fft", 37)):
            trace = capture(name, stagger, engine)
            assert monitor_vcd(trace).render() == live_vcd(name, stagger)

    def test_full_run_capture(self):
        text = monitor_vcd(capture("countnegative")).render()
        assert "no_diversity" in text
        assert "staggering" in text
        assert "#0" in text or "#1" in text


class TestPipelineTracer:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_equals_the_live_pipeline(self, engine):
        live = [(cycle, index, core.hold, tuple(core.stage_words()))
                for cycle, _, core0, core1
                in live_observed_cycles(program("countnegative"), 100)
                for index, core in enumerate((core0, core1))]
        lines = PipelineTracer(capture("countnegative", 100,
                                       engine)).lines
        assert [(line.cycle, line.core, line.hold, line.stages)
                for line in lines] == live
        assert any(line.hold for line in lines)

    def test_trace_lines_have_all_stages(self):
        tracer = PipelineTracer(capture("countnegative", max_cycles=50))
        text = tracer.render(last=5)
        for stage in ("FE", "DE", "RA", "EX", "ME", "XC", "WB"):
            assert stage + ":" in text

    def test_render_last_counts_observed_cycles(self):
        tracer = PipelineTracer(capture("countnegative", max_cycles=20))
        lines = tracer.render().splitlines()
        assert len(lines) == len(tracer.lines) > 4
        assert tracer.render(last=2).splitlines() == lines[-4:]
        assert tracer.render(last=len(lines)).splitlines() == lines
        assert tracer.render(last=0) == ""
        with pytest.raises(ValueError):
            tracer.render(last=-1)

    def test_around_selects_radius(self):
        tracer = PipelineTracer(capture("countnegative", max_cycles=100))
        text = tracer.around(50, radius=2)
        assert "c48" in text and "c52" in text
        assert "c55" not in text

    def test_hold_flag_rendered(self):
        tracer = PipelineTracer(capture("countnegative", max_cycles=300))
        assert any(line.hold for line in tracer.lines)
