"""Command-line interface tests."""

import zlib

import pytest

from repro.cli import main


def _trace_with_metadata(meta: bytes) -> bytes:
    """A stream trace of no cycles whose header carries ``meta`` as
    its metadata: magic, schema 1, the metadata's length, then an
    empty body."""
    return b"SDMT\x01" + bytes([len(meta)]) + meta + zlib.compress(b"\x00")


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

    def test_capture_encodes_the_trace_once(self, tmp_path, capsys,
                                            monkeypatch):
        from repro.trace.stream_trace import StreamTrace
        encode = StreamTrace.encode
        calls = []

        def counted(trace):
            calls.append(trace)
            return encode(trace)

        monkeypatch.setattr(StreamTrace, "encode", counted)
        path = tmp_path / "countnegative.trace"
        assert main(["run", "countnegative", "--capture", str(path)]) == 0
        assert len(calls) == 1
        assert "samples, %d bytes)\n" % path.stat().st_size \
            in capsys.readouterr().err


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
        (["campaign", "cosf", "--max-cycles", "100", "--injections", "2"],
         "the golden run of cosf did not finish within 100 cycles"),
    ], ids=["injections-0", "scheme-injections-negative", "faults-0",
            "compare-max-cycles-100", "scheme-max-cycles-100",
            "scheme-no-cache", "max-cycles-100"])
    def test_bad_campaign_input_rejected(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message

    @pytest.mark.parametrize("content,reason", [
        (None, "No such file or directory"),
        (b"hello\n", "not a stream trace (bad magic)"),
        ("cut capture", "corrupt stream (Error -5 while decompressing "
                        "data: incomplete or truncated stream)"),
        (_trace_with_metadata(b"[]"),
         "corrupt trace metadata (expected a JSON object)"),
        (_trace_with_metadata(b'{"benchmark":"cosf","bogus":1}'),
         "corrupt trace metadata (unknown field 'bogus')"),
    ], ids=["missing", "not-a-trace", "truncated", "metadata-list",
            "metadata-unknown-field"])
    def test_unreadable_replay_trace_rejected(self, content, reason,
                                              tmp_path, capsys):
        path = tmp_path / "cosf.trace"
        if content == "cut capture":
            from repro.soc.experiment import run_redundant_captured
            from repro.workloads import program
            _, trace = run_redundant_captured(program("cosf"),
                                              benchmark="cosf",
                                              max_cycles=2000)
            trace.save(str(path))
            path.write_bytes(path.read_bytes()[:200])
        elif content is not None:
            path.write_bytes(content)
        assert main(["run", "cosf", "--replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot read trace %s: %s\n" \
            % (path, reason)

    @pytest.mark.parametrize("content,reason", [
        (None, "No such file or directory"),
        ('{"meta": {"command": "li',
         "Unterminated string starting at: line 1 column 22 (char 21)"),
        ("[]", "not a telemetry snapshot (expected a JSON object)"),
    ], ids=["missing", "truncated", "array"])
    def test_unreadable_metrics_snapshot_rejected(self, content, reason,
                                                  tmp_path, capsys):
        path = tmp_path / "metrics.json"
        if content is not None:
            path.write_text(content)
        assert main(["metrics", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot read snapshot %s: %s\n" \
            % (path, reason)

    def test_unwritable_vcd_output_rejected_before_simulating(
            self, tmp_path, capsys, monkeypatch):
        from repro.soc.mpsoc import MPSoC

        def simulate(*args, **kwargs):
            raise AssertionError("simulated before opening the output")

        monkeypatch.setattr(MPSoC, "__init__", simulate)
        path = tmp_path / "missing" / "out.vcd"
        assert main(["vcd", "cosf", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot write %s: No such file or " \
            "directory\n" % path

    @pytest.mark.parametrize("argv,value", [
        (["run", "cosf", "--stagger", "-3"], -3),
        (["vcd", "cosf", "out.vcd", "--stagger", "-5"], -5),
        (["sweep-monitor", "cosf", "--stagger", "-2", "--no-cache"], -2),
        (["diversity-static", "cosf", "cosf", "--stagger", "-7",
          "--validate"], -7),
        (["diversity-static", "cosf", "cosf", "--stagger", "-7"], -7),
    ], ids=["run", "vcd", "sweep-monitor", "diversity-static-validate",
            "diversity-static"])
    def test_negative_stagger_rejected_before_simulating(
            self, argv, value, tmp_path, capsys, monkeypatch):
        from repro.soc.mpsoc import MPSoC

        def simulate(*args, **kwargs):
            raise AssertionError("simulated a negative stagger")

        monkeypatch.setattr(MPSoC, "__init__", simulate)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: stagger must be at least 0, got %d\n" % value
        assert not (tmp_path / "out.vcd").exists()

    @pytest.mark.parametrize("argv,name", [
        (["run", "cosf", "--engine", "fast", "--metrics"], "m.json"),
        (["run", "cosf", "--engine", "fast", "--trace"], "t.json"),
        (["run", "cosf", "--engine", "fast", "--capture"], "x.trace"),
        (["table1", "cosf", "--engine", "fast", "--no-cache", "--jobs",
          "1", "--csv"], "t.csv"),
        (["montecarlo", "countnegative", "--trials", "20", "--engine",
          "fast", "--metrics"], "m.json"),
    ], ids=["run-metrics", "run-trace", "run-capture", "table1-csv",
            "montecarlo-metrics"])
    def test_unwritable_output_rejected_before_simulating(
            self, argv, name, tmp_path, capsys, monkeypatch):
        from repro.soc.mpsoc import MPSoC

        def simulate(*args, **kwargs):
            raise AssertionError("simulated before checking the output")

        monkeypatch.setattr(MPSoC, "__init__", simulate)
        path = tmp_path / "missing" / name
        assert main(argv + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot write %s: No such file or " \
            "directory\n" % path

    def test_validate_of_two_kernels_rejected(self, capsys):
        assert main(["diversity-static", "cosf", "fac", "--validate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --validate simulates the " \
            "redundant configuration, which replicates one kernel " \
            "(kernel_a must equal kernel_b)\n"

    @pytest.mark.parametrize("flag,value,message", [
        ("--ds-depths", "0", "DS depth must be at least 1, got 0"),
        ("--num-ports", "9",
         "the DS unit monitors 1 to 6 register ports, got 9"),
    ], ids=["ds-depth-0", "num-ports-9"])
    def test_bad_monitor_geometry_rejected(self, flag, value, message,
                                           capsys):
        assert main(["sweep-monitor", "cosf", flag, value,
                     "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message


class TestSweepMonitor:
    def test_default_point_is_the_run_geometry(self, capsys):
        """With no geometry flags the sweep replays the signature
        geometry every other command simulates, so its row equals the
        live ``run`` at the same threshold."""
        import re

        from repro.core.signatures import SignatureConfig
        assert main(["sweep-monitor", "cosf", "--thresholds", "8",
                     "--no-cache"]) == 0
        header, _, row = capsys.readouterr().out.splitlines()
        point = dict(zip(header.split(), row.split()))
        config = SignatureConfig()
        assert (point["is"], int(point["ports"]), int(point["depth"])) \
            == (config.is_variant.value, config.num_ports,
                config.ds_depth)
        assert main(["run", "cosf", "--mode", "interrupt_threshold",
                     "--threshold", "8"]) == 0
        live = re.search(r"no_div=(\d+)", capsys.readouterr().out)
        assert point["no_div"] == live.group(1)


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


    def test_compare_schemes_engine_reaches_the_matrix(self, monkeypatch,
                                                       capsys):
        """``compare-schemes --engine fast`` runs the golden runs and
        trials on the fast tier and prints the reference tier's
        matrix."""
        import repro.schemes.matrix as matrix
        seen = []
        real = matrix.scheme_matrix

        def spy(*args, **kwargs):
            seen.append(kwargs["engine"])
            return real(*args, **kwargs)

        monkeypatch.setattr(matrix, "scheme_matrix", spy)
        argv = ["compare-schemes", "countnegative", "--schemes",
                "lockstep", "tmr", "--faults", "2"]
        assert main(argv) == 0
        reference = capsys.readouterr().out
        assert main(argv + ["--engine", "fast"]) == 0
        assert capsys.readouterr().out == reference
        assert seen == ["reference", "fast"]
