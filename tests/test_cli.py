"""CLI smoke tests (each subcommand runs and reports)."""

import pytest

from repro.cli import build_parser, main
from repro.gc.cipher import KDF_BACKENDS
from repro.gc.ot import TEST_GROUP_512


class TestCLI:
    def test_demo_label_matches_cleartext(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("private label"))
        private, cleartext = (int(part.split(":")[1].split("|")[0]) for part in
                              line.split("|")[:2])
        assert private == cleartext
        assert "ot group" in out and "comm" in line

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

    def test_serve_retries_through_a_fault_plan(self, capsys):
        # a pool hit runs no OT in the request: its last frame is the
        # one a fault can hit
        assert main(["serve", "-n", "2", "--max-retries", "2",
                     "--fault", "corrupt:output_labels:0"]) == 0
        out = capsys.readouterr().out
        assert "fault plan: 1/1 faults fired (corrupt:output_labels#" in out
        assert "failed 0/2" in out and "cleartext agreement: OK" in out

    def test_serve_sharded(self, capsys):
        assert main(["serve", "-n", "4", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "offline phase: 2 worker processes up, 2 circuits" in out
        assert "served 4 requests across 2 shards" in out
        assert "failed 0/4" in out and "cleartext agreement: OK" in out
        assert "drain: drained" in out

    @pytest.mark.parametrize("argv", [
        ["serve", "-n", "0"],
        ["serve", "-n", "401"],
        ["serve", "--pool", "-1"],
        ["serve", "--shards", "-1"],
        ["serve", "--max-inflight", "-1"],
        ["serve", "--kill-shard", "0:0.5"],
        ["serve", "--shards", "2", "--fault", "corrupt:ot:0"],
        ["serve", "--shards", "2", "--kill-shard", "2"],
        ["serve", "--shards", "2", "--kill-shard", "0:0.5"],  # no delay form
        ["infer", "--samples", "401"],
        ["infer", "--connect", "127.0.0.1:1", "--backend", "simulate"],
        ["infer", "--connect", "127.0.0.1:1"],
        ["serve", "--kdf-backend", "sha256_vec"],
        ["worker", "--pool", "2"],  # the evaluator process never garbles
    ])
    def test_bad_arguments_rejected(self, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code not in (0, None)

    @pytest.mark.parametrize(
        "fault", ["explode:x:0", "drop:tabels:0", "short_read:*:0:512"]
    )
    def test_a_bad_fault_is_an_argument_error(self, fault, capsys, monkeypatch):
        # refused while parsing, before any service is built: an unknown
        # kind, a tag no message carries, and a byte kind on the memory
        # transport
        monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
        with pytest.raises(SystemExit) as info:
            main(["serve", "-n", "1", "--fault", fault])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --fault" in err and "Traceback" not in err

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_parser_lists_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("demo", "infer", "serve", "worker"):
            assert command in text

    def test_serve_offers_every_registered_oracle(self):
        # the flag's choices are the oracle registry's names, no other list
        parser = build_parser()
        for name in sorted(KDF_BACKENDS):
            assert parser.parse_args(["serve", "--kdf-backend", name]).kdf_backend == name
        assert parser.parse_args(["serve"]).kdf_backend == "fixed_key_aes"
