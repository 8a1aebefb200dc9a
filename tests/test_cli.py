"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.streams import FileStream


@pytest.fixture
def stream_file(tmp_path):
    path = str(tmp_path / "data.bin")
    assert main(["generate", path, "--kind", "random", "--n", "20000",
                 "--seed", "3"]) == 0
    return path


class TestPlan:
    def test_prints_all_policies(self, capsys):
        assert main(["plan", "--epsilon", "0.01", "--n", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "new" in out
        assert "munro-paterson" in out
        assert "alsabti-ranka-singh" in out

    def test_sampling_recommendation(self, capsys):
        assert main(
            ["plan", "--epsilon", "0.01", "--n", "100000000",
             "--delta", "1e-4"]
        ) == 0
        out = capsys.readouterr().out
        assert "recommended for N=100000000: sampling" in out

    def test_direct_recommendation_below_threshold(self, capsys):
        assert main(
            ["plan", "--epsilon", "0.01", "--n", "100000",
             "--delta", "1e-4"]
        ) == 0
        out = capsys.readouterr().out
        assert "recommended for N=100000: direct" in out

    def test_invalid_epsilon_is_clean_error(self, capsys):
        assert main(["plan", "--epsilon", "7", "--n", "100"]) == 1
        assert "error" in capsys.readouterr().err


class TestGenerate:
    @pytest.mark.parametrize(
        "kind",
        ["sorted", "reverse", "random", "uniform", "normal", "zipf",
         "clustered", "alternating"],
    )
    def test_every_generator(self, tmp_path, kind):
        path = str(tmp_path / f"{kind}.bin")
        assert main(
            ["generate", path, "--kind", kind, "--n", "1000"]
        ) == 0
        assert FileStream(path).n == 1000

    def test_deterministic_given_seed(self, tmp_path):
        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        main(["generate", p1, "--kind", "random", "--n", "500", "--seed", "9"])
        main(["generate", p2, "--kind", "random", "--n", "500", "--seed", "9"])
        assert np.array_equal(
            FileStream(p1).materialize(), FileStream(p2).materialize()
        )


class TestQuantile:
    def test_answers_within_epsilon(self, stream_file, capsys):
        assert main(
            ["quantile", stream_file, "--epsilon", "0.01",
             "--phi", "0.5", "--phi", "0.9"]
        ) == 0
        out = capsys.readouterr().out
        assert "phi=0.5:" in out
        assert "certified rank bound" in out
        # the stream is a permutation of 0..19999: parse and check rank
        median_line = next(
            line for line in out.splitlines() if line.startswith("phi=0.5")
        )
        value = float(median_line.split(":")[1])
        assert abs((value + 1) - 10_000) / 20_000 <= 0.01

    def test_missing_file_is_clean_error(self, tmp_path, capsys):
        assert main(
            ["quantile", str(tmp_path / "nope.bin"), "--epsilon", "0.01",
             "--phi", "0.5"]
        ) == 1
        assert "error" in capsys.readouterr().err

    def test_corrupt_file_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage here" * 4)
        assert main(
            ["quantile", str(bad), "--epsilon", "0.01", "--phi", "0.5"]
        ) == 1
        assert "error" in capsys.readouterr().err


class TestHistogram:
    def test_boundaries_printed_sorted(self, stream_file, capsys):
        assert main(
            ["histogram", stream_file, "--epsilon", "0.01", "--buckets", "8"]
        ) == 0
        out = capsys.readouterr().out
        values = [
            float(line.split()[-1])
            for line in out.splitlines()
            if "-quantile" in line
        ]
        assert len(values) == 7
        assert values == sorted(values)


class TestDescribe:
    def test_report_printed(self, stream_file, capsys):
        assert main(["describe", stream_file, "--epsilon", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "min" in out and "max" in out and "p50" in out
        assert "certified rank error" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["describe", str(tmp_path / "none.bin")]) == 1
        assert "error" in capsys.readouterr().err


class TestStdinInput:
    """`quantile -` / `describe -` read whitespace-separated stdin values."""

    def _feed(self, monkeypatch, text):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(text))

    def test_quantile_from_stdin(self, monkeypatch, capsys):
        values = " ".join(str(v) for v in range(1, 1001))
        self._feed(monkeypatch, values)
        assert main(["quantile", "-", "--epsilon", "0.05",
                     "--phi", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "n=1000" in out
        median = float(
            next(l for l in out.splitlines() if l.startswith("phi=0.5"))
            .split(":")[1]
        )
        assert abs(median - 500) <= 0.05 * 1000

    def test_describe_from_stdin(self, monkeypatch, capsys):
        self._feed(monkeypatch, "\n".join(str(v) for v in range(500)))
        assert main(["describe", "-", "--epsilon", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "n " in out and "p50" in out

    def test_newlines_and_spaces_both_split(self, monkeypatch, capsys):
        self._feed(monkeypatch, "1 2\n3\t4\n5 6 7 8 9 10")
        assert main(["quantile", "-", "--epsilon", "0.2",
                     "--phi", "0.5"]) == 0
        assert "n=10" in capsys.readouterr().out

    def test_non_numeric_stdin_is_clean_error(self, monkeypatch, capsys):
        self._feed(monkeypatch, "1.5 oops 2.5")
        assert main(["quantile", "-", "--epsilon", "0.1",
                     "--phi", "0.5"]) == 1
        assert "not numbers" in capsys.readouterr().err

    def test_non_finite_stdin_is_clean_error(self, monkeypatch, capsys):
        self._feed(monkeypatch, "1 2 inf")
        assert main(["quantile", "-", "--epsilon", "0.1",
                     "--phi", "0.5"]) == 1
        assert "finite" in capsys.readouterr().err

    def test_empty_stdin_is_clean_error(self, monkeypatch, capsys):
        self._feed(monkeypatch, "")
        assert main(["quantile", "-", "--epsilon", "0.1",
                     "--phi", "0.5"]) == 1
        assert "empty" in capsys.readouterr().err


class TestExitCodeConsistency:
    """Every subcommand exits 1 on ConfigurationError and OS errors."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--epsilon", "0", "--n", "100"],
            ["plan", "--epsilon", "0.01", "--n", "0"],
            ["generate", "/tmp/x.bin", "--n", "0"],
            ["histogram", "IGNORED", "--epsilon", "0.01", "--buckets", "1"],
            ["quantile", "IGNORED", "--epsilon", "0.01", "--phi", "1.5"],
            ["quantile", "IGNORED", "--epsilon", "2.0", "--phi", "0.5"],
            ["describe", "IGNORED", "--epsilon", "0"],
        ],
    )
    def test_configuration_errors(self, argv, stream_file, capsys):
        argv = [stream_file if a == "IGNORED" else a for a in argv]
        assert main(argv) == 1
        assert "error" in capsys.readouterr().err

    def test_directory_input_is_clean_error(self, tmp_path, capsys):
        assert main(
            ["quantile", str(tmp_path), "--epsilon", "0.01", "--phi", "0.5"]
        ) == 1
        assert "error" in capsys.readouterr().err

    def test_client_connection_refused_is_clean_error(self, capsys):
        # typed exit code: 2 = ServiceConnectionError (vs 1 = ReproError,
        # 3 = ServiceTimeoutError), so scripts can tell "down" from "bad
        # arguments"; --retries 0 keeps the refused connect immediate
        assert main(
            ["client", "--port", "1", "--retries", "0", "list"]
        ) == 2
        assert "connection failed" in capsys.readouterr().err


class TestServeParser:
    """``repro serve`` parses with its own parser; the full parser keeps
    a ``serve`` subparser for ``repro --help``.  The two must not drift."""

    VERBS = (
        "plan", "generate", "quantile", "histogram", "describe", "serve",
        "client", "watch", "stats", "cluster",
    )

    @staticmethod
    def _run(parse, argv, capsys):
        """``(exit code, stdout, stderr)`` of ``parse(argv)``, which must
        exit: ``main`` or a parser's ``parse_args``."""
        with pytest.raises(SystemExit) as exit_info:
            parse(argv)
        out, err = capsys.readouterr()
        return exit_info.value.code, out, err

    def test_help_is_the_full_parsers_serve_help(self, capsys):
        from repro.cli import build_serve_parser
        from repro.commands import build_parser

        alone = build_serve_parser()
        full = self._run(
            build_parser().parse_args, ["serve", "--help"], capsys
        )
        assert full == (0, alone.format_help(), "")
        assert self._run(main, ["serve", "--help"], capsys) == full

    def test_same_usage_error(self, capsys):
        from repro.cli import build_serve_parser
        from repro.commands import build_parser

        full = self._run(
            build_parser().parse_args, ["serve", "--port", "x"], capsys
        )
        alone = self._run(
            build_serve_parser().parse_args, ["--port", "x"], capsys
        )
        assert full == alone
        assert self._run(main, ["serve", "--port", "x"], capsys) == full
        assert full[0] == 2 and "invalid int value: 'x'" in full[2]

    def test_unknown_serve_argument_is_the_full_parsers_error(self, capsys):
        from repro.commands import build_parser

        full = self._run(
            build_parser().parse_args, ["serve", "--bogus"], capsys
        )
        assert self._run(main, ["serve", "--bogus"], capsys) == full
        assert full[0] == 2
        assert full[2].endswith(
            "repro: error: unrecognized arguments: --bogus\n"
        )

    def test_top_level_help_lists_every_verb(self, capsys):
        out = self._run(main, ["--help"], capsys)[1]
        listed = out.split("{", 1)[1].split("}", 1)[0].split(",")
        assert listed == list(self.VERBS)

    def test_workers_past_the_last_port_are_refused(
        self, monkeypatch, capsys
    ):
        """Node i listens on --port + i; past 65535 it would wrap.  The
        refusal comes before any node is spawned."""
        from repro.cluster import ClusterCoordinator

        def spawn(self, *args, **kwargs):
            raise AssertionError("nodes spawned")

        monkeypatch.setattr(ClusterCoordinator, "start", spawn)
        assert main(["serve", "--port", "65535", "--workers", "2"]) == 1
        assert "0-65535" in capsys.readouterr().err


class TestServeAndClient:
    """The CLI client against an in-process server."""

    @pytest.fixture
    def server(self, tmp_path):
        from repro.service import ServerThread

        with ServerThread(
            data_dir=str(tmp_path / "srv"), snapshot_interval_s=None
        ) as srv:
            yield srv

    def _client(self, server, *argv):
        return main(["client", "--port", str(server.port), *argv])

    def test_full_session(self, server, capsys, monkeypatch):
        assert self._client(
            server, "create", "api/latency", "--kind", "adaptive",
            "--epsilon", "0.02",
        ) == 0
        assert "created" in capsys.readouterr().out

        assert self._client(
            server, "ingest", "api/latency",
            *[str(v) for v in range(1, 101)],
        ) == 0
        assert "ingested 100 values" in capsys.readouterr().out

        import io
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(" ".join(str(v) for v in range(200)))
        )
        assert self._client(server, "ingest", "api/latency", "-") == 0
        assert "ingested 200 values" in capsys.readouterr().out

        assert self._client(
            server, "query", "api/latency", "--phi", "0.5"
        ) == 0
        out = capsys.readouterr().out
        assert "phi=0.5" in out and "certified rank bound" in out

        assert self._client(server, "cdf", "api/latency", "50") == 0
        assert "rank" in capsys.readouterr().out

        assert self._client(server, "list") == 0
        assert "api/latency" in capsys.readouterr().out

        assert self._client(server, "stats") == 0
        import json
        stats = json.loads(capsys.readouterr().out)
        assert stats["ingest"]["elements"] == 300

        assert self._client(server, "snapshot") == 0
        assert "snapshot at seq" in capsys.readouterr().out

        assert self._client(server, "drain") == 0
        assert "drained" in capsys.readouterr().out

    def test_query_unknown_metric_exits_1(self, server, capsys):
        assert self._client(server, "query", "nope", "--phi", "0.5") == 1
        assert "unknown metric" in capsys.readouterr().err

    def test_designed_n_without_kind_creates_fixed(self, server, capsys):
        # --n is "designed N (fixed kind)": like repro.Sketch(n=...) and
        # `cluster client create`, it picks the fixed kind
        assert self._client(
            server, "create", "api/sized", "--n", "1000000"
        ) == 0
        assert self._client(server, "create", "api/open") == 0
        capsys.readouterr()
        assert self._client(server, "list") == 0
        kinds = {
            line.split()[0]: line.split()[1]
            for line in capsys.readouterr().out.splitlines()
        }
        assert kinds == {"api/sized": "fixed", "api/open": "adaptive"}


class TestClientEngines:
    """`client create --engine` selects the sketch engine end to end."""

    @pytest.fixture
    def server(self, tmp_path):
        from repro.service import ServerThread

        with ServerThread(
            data_dir=str(tmp_path / "srv"), snapshot_interval_s=None
        ) as srv:
            yield srv

    def _client(self, server, *argv):
        return main(["client", "--port", str(server.port), *argv])

    @pytest.mark.parametrize("engine", ["kll", "frugal"])
    def test_create_ingest_query(self, server, engine, capsys):
        # non-paper engines default --kind to "fixed" (they size
        # themselves; "adaptive" staging is a paper-engine concept)
        assert self._client(
            server, "create", f"cli/{engine}", "--engine", engine
        ) == 0
        assert "created" in capsys.readouterr().out
        assert self._client(
            server, "ingest", f"cli/{engine}",
            *[str(v) for v in range(500)],
        ) == 0
        capsys.readouterr()
        assert self._client(
            server, "query", f"cli/{engine}", "--phi", "0.5"
        ) == 0
        assert "phi=0.5" in capsys.readouterr().out

    def test_engine_rejects_explicit_adaptive_kind(self, server, capsys):
        assert self._client(
            server, "create", "cli/bad", "--engine", "kll",
            "--kind", "adaptive",
        ) == 1
        assert "fixed" in capsys.readouterr().err

    def test_stats_text_reports_engine_counts(self, server, capsys):
        assert self._client(
            server, "create", "cli/k", "--engine", "kll") == 0
        assert self._client(
            server, "create", "cli/p", "--kind", "adaptive") == 0
        capsys.readouterr()
        assert main(["stats", "--port", str(server.port)]) == 0
        out = capsys.readouterr().out
        assert "engines:" in out
        assert "kll=1" in out and "paper=1" in out


class TestWatchCLI:
    """The ``repro watch`` family: add/rm/ls and the exit-code contract."""

    @pytest.fixture
    def server(self, tmp_path):
        from repro.service import ServerThread

        with ServerThread(
            data_dir=str(tmp_path / "srv"), snapshot_interval_s=None,
            watch_interval_s=None,
        ) as srv:
            yield srv

    def _watch(self, server, *argv):
        return main(["watch", "--port", str(server.port), *argv])

    def _client(self, server, *argv):
        return main(["client", "--port", str(server.port), *argv])

    def test_add_ls_rm_round_trip(self, server, capsys):
        assert self._client(
            server, "create", "api/latency", "--kind", "adaptive"
        ) == 0
        assert self._client(
            server, "ingest", "api/latency",
            *[str(v) for v in range(500)],
        ) == 0
        capsys.readouterr()
        assert self._watch(
            server, "add", "hot", "api/latency",
            "--phi", "0.99", "--threshold", "10",
        ) == 0
        assert "added" in capsys.readouterr().out
        assert self._watch(server, "ls", "--evaluate") == 0
        out = capsys.readouterr().out
        assert "hot" in out and "state=definite" in out
        assert self._watch(server, "rm", "hot") == 0
        assert "removed" in capsys.readouterr().out
        assert self._watch(server, "rm", "hot") == 0
        assert "no such rule" in capsys.readouterr().out

    def test_shell_friendly_operator_spellings(self, server, capsys):
        self._client(server, "create", "m", "--kind", "adaptive")
        capsys.readouterr()
        assert self._watch(
            server, "add", "low", "m",
            "--phi", "0.5", "--threshold", "1", "--op", "lt",
        ) == 0
        assert self._watch(server, "ls", "--json") == 0
        out = capsys.readouterr().out
        assert '"op": "<"' in out

    def test_conflicting_rule_is_clean_error(self, server, capsys):
        self._client(server, "create", "m", "--kind", "adaptive")
        self._watch(server, "add", "r", "m",
                    "--phi", "0.5", "--threshold", "1")
        capsys.readouterr()
        # identical re-add: idempotent, exit 0
        assert self._watch(server, "add", "r", "m",
                           "--phi", "0.5", "--threshold", "1") == 0
        assert "exists" in capsys.readouterr().out
        # different config under the same id: ReproError, exit 1
        assert self._watch(server, "add", "r", "m",
                           "--phi", "0.9", "--threshold", "2") == 1
        assert "error" in capsys.readouterr().err

    def test_connection_refused_is_exit_2(self, capsys):
        assert main(
            ["watch", "--port", "1", "--retries", "0", "ls"]
        ) == 2
        assert "connection failed" in capsys.readouterr().err

    def test_windowed_create_flags(self, server, capsys):
        assert self._client(
            server, "create", "w", "--window", "5m", "--slide", "1m"
        ) == 0
        assert self._client(
            server, "create", "d", "--decay", "1h"
        ) == 0
        capsys.readouterr()
        assert self._client(server, "list") == 0
        out = capsys.readouterr().out
        assert "window=300s/60s" in out
        assert "decay=3600s" in out
        # window and decay together: rejected client-side, exit 1
        assert self._client(
            server, "create", "bad", "--window", "5m", "--decay", "1h"
        ) == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_unresponsive_server_is_exit_3(self, capsys):
        import socket
        import threading

        # a listener that accepts and then stays silent: the client's
        # read deadline trips -> ServiceTimeoutError -> exit 3
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        port = srv.getsockname()[1]
        conns = []
        t = threading.Thread(
            target=lambda: conns.append(srv.accept()), daemon=True
        )
        t.start()
        try:
            assert main(
                ["watch", "--port", str(port), "--timeout", "0.2",
                 "--retries", "0", "ls"]
            ) == 3
            assert "timed out" in capsys.readouterr().err
        finally:
            srv.close()
            for c, _ in conns:
                c.close()
