"""CLI smoke tests (each subcommand renders its report)."""

import pytest

from repro.cli import build_parser, main
from repro.gc.ot import TEST_GROUP_512


class TestCLI:
    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "TanhCORDIC" in out and "ADD" in out

    def test_table4_paper(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "benchmark4" in out and "9.67" in out

    def test_table4_measured(self, capsys):
        assert main(["table4", "--measured"]) == 0
        assert "measured" in capsys.readouterr().out

    def test_table5(self, capsys):
        assert main(["table5"]) == 0
        out = capsys.readouterr().out
        assert "120" in out and "improve" in out

    def test_table6(self, capsys):
        assert main(["table6"]) == 0
        out = capsys.readouterr().out
        assert "CryptoNets" in out and "570.11" in out

    def test_fig6(self, capsys):
        assert main(["fig6"]) == 0
        assert "crossovers" in capsys.readouterr().out

    def test_throughput(self, capsys):
        assert main(["throughput", "--gates", "1000"]) == 0
        assert "gates/s" in capsys.readouterr().out

    def test_infer_simulate_backend(self, capsys):
        assert main(["infer", "--backend", "simulate"]) == 0
        out = capsys.readouterr().out
        assert "[simulate]" in out and "label" in out

    def test_infer_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            main(["infer", "--backend", "morse_code"])

    def test_serve_reports_pool_and_throughput(self, capsys):
        assert main(["serve", "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "pre-garbled" in out and "req/s" in out
        assert "cleartext agreement: OK" in out
        # the offline-phase line says where the symmetric and the
        # public-key work run on this host
        assert f", ot group test-25519[{TEST_GROUP_512.provider}])" in out

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_parser_lists_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("table3", "table4", "table5", "table6", "fig6",
                        "throughput", "demo", "infer", "serve"):
            assert command in text
