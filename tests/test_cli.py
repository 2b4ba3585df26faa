"""Tests for the swgate command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for args in (
            ["list"],
            ["run", "fig3"],
            ["majority", "1", "2", "3"],
            ["circuit", "0x3", "0x2"],
            ["layout"],
            ["export-mif", "out.mif"],
        ):
            parsed = parser.parse_args(args)
            assert callable(parsed.func)


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "table-area" in out

    def test_run_distance_table(self, capsys):
        assert main(["run", "table-dist"]) == 0
        out = capsys.readouterr().out
        assert "lambda" in out

    def test_run_unknown_experiment(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            main(["run", "nope"])

    def test_majority_fast(self, capsys):
        assert main(["majority", "0xA5", "0x3C", "0x0F", "--fast"]) == 0
        out = capsys.readouterr().out
        # MAJ3(0xA5, 0x3C, 0x0F) = bitwise majority = 0x2D.
        assert "0x2D" in out
        assert "correct" in out

    def test_majority_trace_mode(self, capsys):
        assert main(["majority", "0xFF", "0x00", "0xFF"]) == 0
        assert "0xFF" in capsys.readouterr().out

    def test_layout(self, capsys):
        assert main(["layout"]) == 0
        assert "ch0" in capsys.readouterr().out

    def test_export_mif(self, tmp_path, capsys):
        target = tmp_path / "gate.mif"
        assert main(["export-mif", str(target)]) == 0
        text = target.read_text()
        assert "Specify Oxs_TimeDriver" in text
        assert "proc Excitation" in text

    def test_xor(self, capsys):
        assert main(["xor", "0xA5", "0x3C"]) == 0
        assert "0x99" in capsys.readouterr().out

    def test_adder(self, capsys):
        assert main(["adder", "0xA5", "0x3C"]) == 0
        out = capsys.readouterr().out
        assert "0xE1" in out
        assert "area saving" in out

    def test_adder_custom_width(self, capsys):
        assert main(["adder", "0x3", "0x4", "--width", "4"]) == 0
        assert "0x7" in capsys.readouterr().out

    def test_circuit_physical_adder(self, capsys):
        assert (
            main(["circuit", "0x3", "0x2", "--width", "2", "--bits", "2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "0x3 + 0x2 = 0x5" in out
        assert "physics matches logic" in out
        assert "level 1" in out
        assert "steady-state phasor backend" in out

    def test_circuit_physical_adder_trace_mode(self, capsys):
        assert (
            main(
                [
                    "circuit", "0x2", "0x1",
                    "--width", "2", "--bits", "2", "--mode", "trace",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "0x2 + 0x1 = 0x3" in out
        assert "time-domain waveform backend" in out
        assert "physics matches logic" in out
        assert "min margin" in out

    def test_circuit_save_netlist(self, tmp_path, capsys):
        from repro.circuits import Netlist, netlist_signature
        from repro.circuits import ripple_carry_adder

        target = tmp_path / "adder.json"
        assert (
            main(
                [
                    "circuit", "0x3", "0x2",
                    "--width", "2", "--bits", "2",
                    "--save-netlist", str(target),
                ]
            )
            == 0
        )
        assert "saved netlist" in capsys.readouterr().out
        saved = Netlist.from_dict(json.loads(target.read_text()))
        assert netlist_signature(saved) == netlist_signature(
            ripple_carry_adder(2)
        )

    def test_serve_send_round_trip(self, tmp_path, capsys):
        """`swgate circuit --save-netlist` -> `swgate serve --warm` ->
        `swgate serve --send`: the whole CLI serving workflow."""
        from repro.cli import _load_netlists
        from repro.serve import CircuitServer

        saved = tmp_path / "rca2.json"
        assert (
            main(
                [
                    "circuit", "0x1", "0x2",
                    "--width", "2", "--bits", "2", "--packed",
                    "--save-netlist", str(saved),
                ]
            )
            == 0
        )
        capsys.readouterr()
        with CircuitServer(
            port=0, n_bits=2, max_latency=0.002,
            warm=_load_netlists([saved]),
        ) as daemon:
            assert (
                main(
                    [
                        "serve", "--send", "0x1", "0x2",
                        "--width", "2", "--url", daemon.url,
                    ]
                )
                == 0
            )
            out = capsys.readouterr().out
            assert "0x1 + 0x2 = 0x3" in out
            assert "physics matches logic" in out
            assert "server:" in out
            # The warmed netlist served it: no compile miss.
            assert daemon.executor.cache.misses == 0
            assert daemon.executor.cache.hits == 1

    def test_top_renders_live_interval(self, capsys):
        """`swgate top --iterations 1` polls a running daemon and
        renders one interval report."""
        from repro.serve import CircuitServer

        with CircuitServer(port=0, n_bits=2, max_latency=0.002) as daemon:
            assert (
                main(
                    [
                        "top", "--url", daemon.url,
                        "--interval", "0.2", "--iterations", "1",
                        "--no-clear",
                    ]
                )
                == 0
            )
        out = capsys.readouterr().out
        assert "swgate top" in out
        assert "words/s" in out
        assert "queue p50" in out

    def test_top_unreachable_daemon_fails_cleanly(self, capsys):
        assert (
            main(
                [
                    "top", "--url", "http://127.0.0.1:9",
                    "--iterations", "1",
                ]
            )
            == 1
        )
        assert "cannot reach" in capsys.readouterr().out

    def test_synth_list(self, capsys):
        assert main(["synth", "--list"]) == 0
        out = capsys.readouterr().out
        assert "parity8" in out and "alu_slice" in out

    def test_synth_suite_circuit(self, capsys):
        assert main(["synth", "comparator4", "--bits", "2"]) == 0
        out = capsys.readouterr().out
        assert "optimization pipeline" in out
        assert "naive:" in out and "optimized:" in out
        assert "equivalent (exhaustive)" in out
        assert "physics matches logic" in out

    def test_synth_expression(self, capsys):
        assert (
            main(
                [
                    "synth", "--expr", "maj(a, b, c) ^ a",
                    "--output", "g", "--bits", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "synthesis of 'g'" in out
        assert "physics matches logic" in out

    def test_synth_no_run_skips_physics(self, capsys):
        assert main(["synth", "parity8", "--no-run"]) == 0
        out = capsys.readouterr().out
        assert "physical execution" not in out

    def test_synth_trace_mode(self, capsys):
        assert (
            main(
                ["synth", "--expr", "a ^ b", "--bits", "2",
                 "--mode", "trace"]
            )
            == 0
        )
        assert "trace mode" in capsys.readouterr().out

    def test_synth_without_circuit_errors(self, capsys):
        assert main(["synth"]) == 2
        assert "--list" in capsys.readouterr().out

    def test_synth_circuit_and_expr_conflict(self, capsys):
        assert main(["synth", "parity8", "--expr", "a & b"]) == 2
        assert "not both" in capsys.readouterr().out

    def test_synth_unknown_circuit_clean_error(self, capsys):
        assert main(["synth", "parity9"]) == 2
        assert "unknown suite circuit" in capsys.readouterr().out

    def test_synth_malformed_expression_clean_error(self, capsys):
        assert main(["synth", "--expr", "a &"]) == 2
        assert "synth:" in capsys.readouterr().out

    def test_synth_degenerate_spec_clean_error(self, capsys):
        """Parseable but inputless specs exit 2, not a traceback."""
        assert main(["synth", "--expr", "maj(0, 1, 1)"]) == 2
        assert "no inputs" in capsys.readouterr().out

    def test_run_synthesis_gain(self, capsys):
        assert main(["run", "synthesis-gain"]) == 0
        out = capsys.readouterr().out
        assert "Physical gain of logic optimization" in out
        assert "trace-mode confirmation" in out

    def test_list_includes_synthesis_gain(self, capsys):
        assert main(["list"]) == 0
        assert "synthesis-gain" in capsys.readouterr().out

    def test_design_default(self, capsys):
        assert main(["design", "--bits", "4"]) == 0
        out = capsys.readouterr().out
        assert "4-bit" in out and "verified" in out

    def test_design_wide_guide(self, capsys):
        assert main(["design", "--bits", "2", "--width", "200"]) == 0
        assert "2-bit" in capsys.readouterr().out

    def test_design_xor(self, capsys):
        assert (
            main(
                [
                    "design",
                    "--bits",
                    "2",
                    "--inputs",
                    "2",
                    "--kind",
                    "xor",
                    "--verify",
                    "exhaustive",
                ]
            )
            == 0
        )
        assert "XOR" in capsys.readouterr().out

    def test_save_and_check_design(self, tmp_path, capsys):
        path = tmp_path / "design.json"
        assert main(["save-design", str(path)]) == 0
        assert path.exists()
        assert main(["check-design", str(path)]) == 0
        out = capsys.readouterr().out
        assert "layout valid" in out and "correct" in out

    def test_export_mif_custom_words(self, tmp_path):
        target = tmp_path / "gate.mif"
        assert (
            main(
                [
                    "export-mif",
                    str(target),
                    "--words",
                    "0x01",
                    "0x02",
                    "0x04",
                ]
            )
            == 0
        )
        assert target.exists()
