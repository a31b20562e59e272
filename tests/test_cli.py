"""Command-line interface tests."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_all_kernels(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "binarysearch" in out
        assert "cubic" in out
        assert out.count("\n") >= 30


class TestRun:
    def test_run_kernel(self, capsys):
        assert main(["run", "countnegative"]) == 0
        out = capsys.readouterr().out
        assert "zero_stag=" in out
        assert "finished=True" in out

    def test_run_with_stagger(self, capsys):
        assert main(["run", "countnegative", "--stagger", "100",
                     "--late-core", "0"]) == 0
        out = capsys.readouterr().out
        assert "nops=100" in out
        assert "late=0" in out


class TestRow:
    def test_row_prints_all_columns(self, capsys):
        assert main(["row", "bitonic"]) == 0
        out = capsys.readouterr().out
        assert "bitonic" in out
        assert "10000 nops" in out


class TestStaticCommands:
    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for figure in ("Fig. 1", "Fig. 2a", "Fig. 2b", "Fig. 3",
                       "Fig. 4"):
            assert figure in out

    def test_overheads(self, capsys):
        assert main(["overheads"]) == 0
        out = capsys.readouterr().out
        assert "4000 LUTs" in out
        assert "3.4%" in out

    def test_disasm(self, capsys):
        assert main(["disasm", "fac"]) == 0
        out = capsys.readouterr().out
        assert "_start:" in out
        assert "jalr" in out  # the ret


class TestVcd:
    def test_vcd_output(self, tmp_path, capsys):
        out_path = tmp_path / "run.vcd"
        assert main(["vcd", "bitonic", str(out_path)]) == 0
        content = out_path.read_text()
        assert content.startswith("$date")
        assert "no_diversity" in content


class TestLint:
    def test_lint_single_kernel(self, capsys):
        assert main(["lint", "cosf"]) == 0
        out = capsys.readouterr().out
        assert "cosf" in out
        assert "0 error(s)" in out

    def test_lint_all(self, capsys):
        assert main(["lint", "--all"]) == 0
        out = capsys.readouterr().out
        assert "29 kernel(s) linted" in out

    def test_lint_json(self, capsys):
        import json
        assert main(["lint", "fac", "recursion", "--format",
                     "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert [r["name"] for r in doc["reports"]] == ["fac",
                                                       "recursion"]
        assert all(r["diagnostics"] == [] for r in doc["reports"])

    def test_lint_metrics_snapshot(self, tmp_path, capsys):
        snapshot = tmp_path / "lint.json"
        assert main(["lint", "cosf", "--metrics", str(snapshot)]) == 0
        capsys.readouterr()
        assert main(["metrics", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "repro_lint_programs_total" in out
        assert 'repro_lint_blocks{kernel="cosf"}' in out


class TestErrors:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_kernel(self, capsys):
        assert main(["run", "nosuchkernel"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown workload 'nosuchkernel' "
                              "(known: binarysearch, ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["row", "x"], ["table1", "cosf", "x"], ["sweep-monitor", "x"],
        ["campaign", "x"], ["compare-schemes", "x"], ["montecarlo", "x"],
        ["lint", "x"], ["diversity-static", "cosf", "x"],
        ["vcd", "x", "out.vcd"], ["disasm", "x"],
    ], ids=lambda argv: argv[0])
    def test_unknown_kernel_every_subcommand(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown workload 'x' "
                                       "(known: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["table1", "cosf", "--jobs", "0"],
        ["campaign", "cosf", "--jobs", "-1"],
        ["montecarlo", "cosf", "--jobs", "-3"],
    ], ids=lambda argv: argv[0])
    def test_jobs_below_one_rejected(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: jobs must be at least 1, got %d\n" \
            % int(argv[-1])

    @pytest.mark.parametrize("argv", [
        ["run", "countnegative", "--checkpoint-every", "-5"],
        ["campaign", "countnegative", "--injections", "2",
         "--checkpoint-every", "-5"],
        ["montecarlo", "countnegative", "--trials", "10",
         "--checkpoint-every", "-7"],
    ], ids=lambda argv: argv[0])
    def test_negative_checkpoint_cadence_rejected(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: checkpoint-every must be at " \
            "least 0, got %d\n" % int(argv[-1])

    @pytest.mark.parametrize("flag,value,message", [
        ("--bins", "0", "bins must be at least 1, got 0"),
        ("--bins", "-2", "bins must be at least 1, got -2"),
        ("--trials", "-3", "trials must be at least 1, got -3"),
        ("--max-cycles", "1", "the golden run ended at cycle 1: no "
                              "fault cycle in [1, 1) to sample"),
    ], ids=["bins-0", "bins-negative", "trials-negative",
            "max-cycles-1"])
    def test_bad_montecarlo_input_rejected(self, flag, value, message,
                                           capsys):
        assert main(["montecarlo", "cosf", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message

    @pytest.mark.parametrize("argv,message", [
        (["campaign", "cosf", "--injections", "0"],
         "injections must be at least 1, got 0"),
        (["campaign", "cosf", "--scheme", "tmr", "--injections", "-2"],
         "injections must be at least 1, got -2"),
        (["compare-schemes", "cosf", "--faults", "0"],
         "faults must be at least 1, got 0"),
        (["compare-schemes", "cosf", "--max-cycles", "100"],
         "the golden safedm run of cosf did not finish within 100 "
         "cycles"),
        (["campaign", "cosf", "--scheme", "tmr", "--max-cycles", "100"],
         "the golden tmr run of cosf did not finish within 100 cycles"),
        (["campaign", "cosf", "--scheme", "tmr", "--no-cache"],
         "--scheme trials use per-scheme topologies; "
         "--shared/--checkpoint-every/--no-cache apply only to the "
         "SafeDM pair campaign"),
    ], ids=["injections-0", "scheme-injections-negative", "faults-0",
            "compare-max-cycles-100", "scheme-max-cycles-100",
            "scheme-no-cache"])
    def test_bad_campaign_input_rejected(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message


class TestSchemeCampaign:
    def test_engine_and_jobs_reach_the_trials(self, monkeypatch, capsys):
        """``campaign --scheme`` runs its trials on ``--engine``'s tier
        over ``--jobs`` workers, with the same table either way."""
        import repro.schemes.matrix as matrix
        seen = []
        real = matrix.scheme_matrix

        def spy(*args, **kwargs):
            seen.append((kwargs["engine"], kwargs["jobs"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(matrix, "scheme_matrix", spy)
        argv = ["campaign", "cosf", "--scheme", "lockstep",
                "--injections", "2", "--stimuli", "0x5eed"]
        assert main(argv) == 0
        reference = capsys.readouterr().out
        assert main(argv + ["--engine", "fast", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == reference
        assert seen == [("reference", 1), ("fast", 2)]

