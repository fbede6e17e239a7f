"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestCLI:
    def test_table1(self, capsys):
        assert main(["table1", "--nodes", "1,4,32"]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out
        assert "6.6" in out                 # the single-node speedup

    def test_table2(self, capsys):
        assert main(["table2", "--nodes", "1,32"]) == 0
        out = capsys.readouterr().out
        assert "Mcells/s" in out
        assert "IBM" in out                 # supercomputer context

    @pytest.mark.parametrize("fig", ["fig8", "fig9", "fig10"])
    def test_figures(self, capsys, fig):
        assert main([fig, "--nodes", "2,16,32"]) == 0
        out = capsys.readouterr().out
        assert any(ch in out for ch in "#*=")

    def test_strong(self, capsys):
        assert main(["strong"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_whatif(self, capsys):
        assert main(["whatif"]) == 0
        out = capsys.readouterr().out
        assert "Myrinet" in out
        assert "PCI-Express x16 bus" in out
        assert "all three" in out

    def test_cost(self, capsys):
        assert main(["cost"]) == 0
        out = capsys.readouterr().out
        assert "512.0" in out
        assert "12,768" in out

    def test_dispersion(self, capsys):
        assert main(["dispersion"]) == 0
        out = capsys.readouterr().out
        assert "0.31" in out or "0.32" in out

    def test_report_stdout(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Strong scaling" in out
        assert "Cost accounting" in out

    def test_trace_analytics_describe_the_cluster_run_alone(self, tmp_path,
                                                            capsys):
        """The SimMPI replay that fills the network track stays out of
        the step, rank and overlap rows: on the serial backend each of
        the 2x2x1 ranks collides once per step, and nothing overlaps."""
        assert main(["trace", "--steps", "3", "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        collide = next(ln.split() for ln in lines
                       if ln.split()[:1] == ["cluster.collide"])
        assert float(collide[1]) == 4.0
        steps = [ln for ln in lines if ln.strip().startswith("step ")]
        assert len(steps) == 3
        for ln in steps:
            assert float(ln.split("hidden")[1].split()[0]) == 0.0, ln
        assert any(ln.startswith("simulated network: 8 messages")
                   for ln in lines)

    def test_trace_says_stacked_imbalance_is_apportioned(self, tmp_path,
                                                         capsys):
        """Stacked serial ranks record cell-share slices of one sweep,
        equal on equal blocks by construction: the report says so
        instead of printing a max/mean.  Worker processes time their
        own ranks, so the processes backend still prints one."""
        note = "imbalance: apportioned by cell share (stacked ranks)"
        for backend, apportioned in (("serial", True), ("processes", False)):
            assert main(["trace", "--steps", "3", "--backend", backend,
                         "--out", str(tmp_path)]) == 0
            lines = [ln.strip() for ln in capsys.readouterr().out.splitlines()]
            assert any(ln.startswith(note) for ln in lines) == apportioned
            assert any(ln.startswith("imbalance max/mean:")
                       for ln in lines) != apportioned

    def test_report_to_file(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        assert main(["report", "--out", str(path)]) == 0
        text = path.read_text()
        assert text.startswith("# Reproduction report")
        assert "| 32 |" in text

    def test_verify_parser_wiring(self):
        args = build_parser().parse_args(["verify"])
        assert args.command == "verify"
        assert set(vars(args)) == {"command"}

    @pytest.mark.parametrize("retired", [["--skip-bench"],
                                         ["--threshold", "0.5"]],
                             ids=["skip-bench", "threshold"])
    def test_retired_verify_options_rejected(self, retired):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", *retired])

    def test_check_parser_takes_slices(self):
        args = build_parser().parse_args(["check", "serial", "gpu"])
        assert args.command == "check"
        assert args.slices == ["serial", "gpu"]
        assert build_parser().parse_args(["check"]).slices == []

    @pytest.mark.parametrize("retired", ["check-aa", "check-exchange",
                                         "check-procs", "check-trace",
                                         "check-telemetry"])
    def test_retired_gate_commands_rejected(self, retired):
        with pytest.raises(SystemExit):
            build_parser().parse_args([retired])

    def test_check_rejects_unknown_slice(self, capsys):
        assert main(["check", "nonsense"]) == 2
        assert "unknown slice" in capsys.readouterr().out

    def test_verify_invokes_stages(self, monkeypatch, capsys):
        import subprocess
        calls = []
        monkeypatch.setattr(subprocess, "call",
                            lambda cmd, **kw: calls.append(cmd) or 0)
        assert main(["verify"]) == 0
        assert len(calls) == 2              # tier-1, then check: no more
        assert calls[0][-4:] == ["-m", "pytest", "-x", "-q"]
        assert calls[1][-3:] == ["-m", "repro", "check"]
        assert "verify OK" in capsys.readouterr().out

    def test_verify_stops_on_failure(self, monkeypatch, capsys):
        import subprocess
        calls = []
        monkeypatch.setattr(subprocess, "call",
                            lambda cmd, **kw: calls.append(cmd) or 1)
        assert main(["verify"]) == 1
        assert len(calls) == 1  # check never runs after a test failure
        out = capsys.readouterr().out
        assert "FAILED at tier-1 tests" in out and "verify OK" not in out

    def test_verify_fails_when_check_fails(self, monkeypatch, capsys):
        import subprocess
        calls = []
        monkeypatch.setattr(subprocess, "call",
                            lambda cmd, **kw: calls.append(cmd) or
                            (3 if len(calls) == 2 else 0))
        assert main(["verify"]) == 3
        assert len(calls) == 2
        out = capsys.readouterr().out
        assert "FAILED at equivalence gate" in out and "verify OK" not in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])
