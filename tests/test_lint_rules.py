"""Seeded-bug regression: every diagnostic code fires, suppression works.

Each snippet plants exactly one instance of its target defect; the test
asserts the target code fires exactly once so a rule can neither go
silent nor start double-reporting without failing here.
"""

import pytest

from repro.lint import RULES, all_rules, lint_source

#: code -> deliberately broken snippet triggering that code exactly once.
SEEDED = {
    # a1 is read but never written on the path from _start.
    "L001": """
_start:
    add a0, a1, x0
    sd a0, 0(gp)
    ebreak
""",
    # The first li's value is overwritten before any read.
    "L002": """
_start:
    li t0, 5
    li t0, 7
    sd t0, 0(gp)
    ebreak
""",
    # A real computation discarded into x0 (not the canonical nop).
    "L003": """
_start:
    add x0, gp, gp
    ebreak
""",
    # The addi after the unconditional jump can never execute.
    "L004": """
_start:
    j done
    addi t0, x0, 1
done:
    ebreak
""",
    # Branch lands 0x200 bytes past the end of the image.
    "L005": """
_start:
    beq x0, x0, 0x200
    ebreak
""",
    # Branch offset -4 lands on the addiw half of the li expansion.
    "L006": """
_start:
    li t0, 0x12345
    bne t0, x0, -4
    ebreak
""",
    # 8-byte load at a 4-aligned-only offset from gp.
    "L007": """
_start:
    ld t0, 4(gp)
    sd t0, 8(gp)
    ebreak
""",
    # Kernel convention: gp (the data base) must never move.
    "L008": """
_start:
    addi gp, gp, 8
    ebreak
""",
    # The loop has no exit edge; the ebreak is past an infinite loop.
    "L009": """
_start:
loop:
    j loop
    ebreak
""",
    # t0 is the constant 3, so the branch direction is proven.
    "L010": """
_start:
    li t0, 3
    beq t0, x0, skip
    sd t0, 0(gp)
skip:
    ebreak
""",
    # t0 == gp + 4 (gp is 4096-aligned), so the ld address is
    # provably 6 mod 8.  rs1 is a computed base, out of L007's scope.
    "L011": """
_start:
    addi t0, gp, 4
    ld a0, 2(t0)
    sd a0, 0(gp)
    ebreak
""",
    # The only exit edge is the beq on constant-1 t0: never taken, so
    # the loop is proven infinite (also fires L010 on the branch).
    "L012": """
_start:
    li t0, 1
    li t1, 0
loop:
    addi t1, t1, 1
    beq t0, x0, done
    j loop
done:
    ebreak
""",
    # t0 is written once and dead at every point but the sd read; the
    # prover reports its dead windows (prove_masking runs only here).
    "L013": """
_start:
    li t0, 3
    sd t0, 0(gp)
    ebreak
""",
}

#: Codes whose rule only runs under ``prove_masking=True``.
PROVE_MASKING_CODES = frozenset({"L013"})


def lint_seeded(code, **kwargs):
    return lint_source(SEEDED[code], name="seeded-%s" % code,
                       prove_masking=code in PROVE_MASKING_CODES,
                       **kwargs)


class TestSeededBugs:
    @pytest.mark.parametrize("code", sorted(SEEDED))
    def test_code_fires_exactly_once(self, code):
        report = lint_seeded(code)
        fired = [d for d in report.diagnostics if d.code == code]
        assert len(fired) == 1, (
            "%s fired %d times: %r" % (code, len(fired),
                                       report.diagnostics))
        diag = fired[0]
        assert diag.severity == RULES[code].severity
        assert diag.pc is not None
        assert diag.lineno is not None

    def test_every_registered_code_is_seeded(self):
        assert {rule.code for rule in all_rules()} == set(SEEDED)

    def test_clean_program_has_no_findings(self):
        report = lint_source("""
_start:
    li t0, 3
    li t1, 4
    mul t0, t0, t1
    sd t0, 0(gp)
    ebreak
""")
        assert report.diagnostics == []
        assert report.ok

    def test_unknown_indirect_target_is_not_flagged(self):
        # `tgt` runs and reads t1, but only through a jalr whose target
        # the CFG cannot resolve: neither the write (L002) nor the
        # block (L004) may be reported.
        report = lint_source("""
_start:
    la t0, tgt
    addi t1, x0, 5
    jalr x0, 0(t0)
tgt:
    add s0, t1, t1
    ebreak
""")
        assert report.diagnostics == []

    def test_error_severity_fails_report(self):
        report = lint_source(SEEDED["L008"])
        assert not report.ok

    def test_warning_only_report_is_ok(self):
        report = lint_source(SEEDED["L002"])
        assert report.ok
        assert len(report.warnings) == 1


class TestSuppression:
    @pytest.mark.parametrize("code", sorted(SEEDED))
    def test_every_rule_honors_line_scoped_disable(self, code):
        """Property: for every registered code, adding the disable
        comment to exactly the line a finding is attributed to moves
        that finding (and only it) to the suppressed list."""
        baseline = lint_seeded(code)
        fired = [d for d in baseline.diagnostics if d.code == code]
        assert len(fired) == 1
        lineno = fired[0].lineno
        lines = SEEDED[code].splitlines()
        lines[lineno - 1] += "   # lint: disable=%s" % code
        report = lint_source(
            "\n".join(lines), name="suppressed-%s" % code,
            prove_masking=code in PROVE_MASKING_CODES)
        assert code not in [d.code for d in report.diagnostics]
        assert [d.code for d in report.suppressed] == [code]
        # Findings of other codes (if any) are untouched.
        assert sorted(d.code for d in report.diagnostics) == sorted(
            d.code for d in baseline.diagnostics if d.code != code)

    def test_disable_comment_suppresses(self):
        report = lint_source("""
_start:
    li t0, 5   # lint: disable=L002
    li t0, 7
    sd t0, 0(gp)
    ebreak
""")
        assert report.diagnostics == []
        assert [d.code for d in report.suppressed] == ["L002"]

    def test_disable_is_line_scoped(self):
        report = lint_source("""
_start:
    li t0, 5
    li t0, 7   # lint: disable=L002
    sd t0, 0(gp)
    ebreak
""")
        # The dead store is on the *first* li; the comment on the
        # second line suppresses nothing.
        assert [d.code for d in report.diagnostics] == ["L002"]
        assert report.suppressed == []
        assert report.diagnostics[0].lineno == 3

    def test_disable_list(self):
        report = lint_source("""
_start:
    ld t0, 4(gp)   # lint: disable=L007, L002
    sd t0, 8(gp)
    ebreak
""")
        assert report.diagnostics == []
        assert {d.code for d in report.suppressed} == {"L007"}

    def test_other_codes_not_suppressed(self):
        report = lint_source("""
_start:
    addi gp, gp, 8   # lint: disable=L001
    ebreak
""")
        # The gp clobber (and its dead store) survive: the comment
        # names a different code.
        assert [d.code for d in report.diagnostics] == ["L008", "L002"]
        assert report.suppressed == []


class TestReportShape:
    def test_to_dict_round_trips_through_json(self):
        import json
        report = lint_source(SEEDED["L007"], name="shape")
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["name"] == "shape"
        assert doc["ok"] is False
        assert doc["blocks"] >= 1
        codes = [d["code"] for d in doc["diagnostics"]]
        assert "L007" in codes

    def test_errors_sort_before_warnings(self):
        report = lint_source("""
_start:
    li t0, 5
    li t0, 7
    addi gp, gp, 8
    sd t0, 0(gp)
    ebreak
""")
        codes = [d.severity for d in report.diagnostics]
        assert codes == sorted(codes, key=lambda s: s != "error")

    def test_rule_registry_is_stable(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == sorted(codes)
        assert codes[0] == "L001"
        for rule in all_rules():
            assert rule.slug
            assert rule.description
