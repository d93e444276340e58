"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.generators import wheel_graph
from repro.io import write_edgelist


@pytest.fixture
def wheel_file(tmp_path):
    path = tmp_path / "wheel.txt"
    write_edgelist(wheel_graph(60), path)
    return str(path)


class TestStats:
    def test_stats_output(self, wheel_file, capsys):
        assert main(["stats", wheel_file]) == 0
        out = capsys.readouterr().out
        assert "kappa" in out
        assert "59" in out  # T = n - 1

    def test_missing_file(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro stats:")
        assert len(err.strip().splitlines()) == 1  # one line, no traceback


class TestExact:
    def test_exact_output(self, wheel_file, capsys):
        assert main(["exact", wheel_file]) == 0
        out = capsys.readouterr().out
        assert "triangles: 59" in out
        assert "passes:    1" in out


class TestEstimate:
    def test_estimate_runs(self, wheel_file, capsys):
        code = main(
            ["estimate", wheel_file, "--kappa", "3", "--seed", "1", "--repetitions", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "estimate:" in out
        assert "plan:" in out

    def test_pass_bound_is_the_per_round_budget(self, wheel_file, capsys):
        # All repetitions of a round share six passes (Theorem 5.1), so the
        # bound does not scale with --repetitions.
        code = main(
            ["estimate", wheel_file, "--kappa", "3", "--seed", "1", "--repetitions", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out

        def field(key):
            return next(line for line in out.splitlines() if line.startswith(key))

        assert field("passes:").endswith("(6 max per round)")
        assert int(field("passes:").split()[1]) <= 6 * int(field("rounds:").split()[1])

    def test_kappa_required(self, wheel_file):
        with pytest.raises(SystemExit):
            main(["estimate", wheel_file])

    @pytest.mark.parametrize("command", ["estimate", "resume"])
    def test_removed_python_engine_is_a_usage_error(self, wheel_file, command, capsys):
        args = [wheel_file, "--kappa", "3"] if command == "estimate" else ["ck", wheel_file]
        with pytest.raises(SystemExit) as exit_info:
            main([command, *args, "--engine", "python"])
        assert exit_info.value.code == 2
        assert "engine mode 'python' was removed" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["auto", "chunked", "sharded"])
    def test_engine_names_are_synonyms(self, wheel_file, mode, capsys):
        assert main(["estimate", wheel_file, "--kappa", "3", "--seed", "2",
                     "--repetitions", "3", "--engine", mode]) == 0
        out = capsys.readouterr().out
        assert main(["estimate", wheel_file, "--kappa", "3", "--seed", "2",
                     "--repetitions", "3"]) == 0
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("command", ["estimate", "resume"])
    @pytest.mark.parametrize(
        "option", [["--speculate", "1"], ["--fuse"], ["--no-fuse"]], ids=" ".join
    )
    def test_removed_options_exit_2_not_a_prefix_match(self, wheel_file, command, option, capsys):
        # ``--speculate 1`` would otherwise resolve to ``--speculate-depth 1``.
        args = [wheel_file, "--kappa", "3"] if command == "estimate" else ["ck", wheel_file]
        with pytest.raises(SystemExit) as exit_info:
            main([command, *args, *option])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "resume"])
    def test_unknown_option_reports_the_subcommand_usage(self, wheel_file, command, capsys):
        # The subcommand's usage lists the options it does take; the
        # top-level usage only lists the subcommands.
        args = [wheel_file, "--kappa", "3"] if command == "estimate" else ["ck", wheel_file]
        with pytest.raises(SystemExit) as exit_info:
            main([command, *args, "--fuse"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: repro {command} ")
        assert f"repro {command}: error: unrecognized arguments: --fuse" in err

    def test_speculate_depth_flag_same_estimate_fewer_sweeps(self, tmp_path, capsys):
        # A multi-round instance (no t_hint) is where deeper speculation
        # pays; the wheel accepts too early to show a depth-3-vs-2 gap.
        import random

        from repro.generators import barabasi_albert_graph

        path = tmp_path / "ba.txt"
        write_edgelist(barabasi_albert_graph(400, 5, random.Random(1)), path)
        base = ["estimate", str(path), "--kappa", "5", "--seed", "7",
                "--repetitions", "3"]
        assert main(base + ["--speculate-depth", "2"]) == 0
        pair = capsys.readouterr().out
        assert main(base + ["--speculate-depth", "3"]) == 0
        deep = capsys.readouterr().out

        def field(out, key):
            return next(line for line in out.splitlines() if line.startswith(key))

        assert field(deep, "estimate:") == field(pair, "estimate:")
        assert field(deep, "rounds:") == field(pair, "rounds:")
        assert field(deep, "passes:") == field(pair, "passes:")
        sweeps = lambda out: int(field(out, "sweeps:").split()[1])  # noqa: E731
        assert sweeps(deep) <= sweeps(pair)

    def test_depth_one_prints_the_sequential_lines(self, tmp_path, capsys):
        # Depth 1 is the sequential loop: these are the lines the removed
        # --no-speculate switch printed on this input, sweeps included.
        import random

        from repro.generators import barabasi_albert_graph

        path = tmp_path / "ba.txt"
        write_edgelist(barabasi_albert_graph(400, 5, random.Random(1)), path)
        base = ["estimate", str(path), "--kappa", "5", "--seed", "7",
                "--repetitions", "3"]
        assert main(base + ["--speculate-depth", "1"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "estimate:  633.0",
            "rounds:    6",
            "passes:    36 total (6 max per round)",
            "sweeps:    36 tape sweeps",
            "space:     941426 words peak per run",
            "plan:      r=768 s=768 t_guess=620",
        ]
        with pytest.raises(SystemExit):
            main(base + ["--no-speculate"])

    def test_degradation_reported(self, wheel_file, capsys, monkeypatch):
        # Persistent injected faults with a zero retry budget force the
        # recovery ladder to drop two tiers; the CLI must surface each as a
        # degraded: line while still printing a complete estimate.
        from repro.core import executor

        monkeypatch.setattr(executor, "TASK_ROWS_FLOOR", 16)
        base = ["estimate", wheel_file, "--kappa", "3", "--seed", "1",
                "--repetitions", "3", "--workers", "2", "--chunk-size", "16",
                "--speculate-depth", "3"]
        faults = ["--faults", "worker.crash@0;sweep.mid_stage@1", "--max-retries", "0"]
        assert main(base + faults) == 0
        out = capsys.readouterr().out
        assert "estimate:" in out
        degraded = [l for l in out.splitlines() if l.startswith("degraded:")]
        assert len(degraded) == 2
        assert "sharded->serial" in degraded[0] and "worker.crash" in degraded[0]
        assert "speculative->sequential" in degraded[1]

    def test_env_fault_plan_lands_in_the_estimate(self, wheel_file, tmp_path):
        """``REPRO_FAULTS`` is armed by the estimate's recovery scope; the
        text input's conversion to a tape must not consume the plan, so
        the fault degrades the estimate at the same chunk as on a tape."""
        import os
        import subprocess
        import sys

        tape = str(tmp_path / "wheel.etape")
        assert main(["convert", wheel_file, "--out", tape]) == 0
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src, REPRO_FAULTS="file.read@0")

        def estimate(path):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "estimate", path, "--kappa", "3",
                 "--seed", "1", "--repetitions", "3", "--max-retries", "0"],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            # The cause names the input file; everything else must agree.
            assert f"{path}: injected fault" in proc.stdout
            assert "repro-tape-" not in proc.stdout  # never the private tape
            return [l.split(": StreamReadError")[0] for l in proc.stdout.splitlines()]

        text_out = estimate(wheel_file)
        assert any(l.startswith("degraded:") for l in text_out)
        assert text_out == estimate(tape)

    def test_clean_run_reports_no_degradation(self, wheel_file, capsys):
        assert main(["estimate", wheel_file, "--kappa", "3", "--seed", "1",
                     "--repetitions", "3", "--max-retries", "2"]) == 0
        assert "degraded:" not in capsys.readouterr().out


class TestBounds:
    def test_bounds_table(self, wheel_file, capsys):
        assert main(["bounds", wheel_file]) == 0
        out = capsys.readouterr().out
        assert "m*kappa/T" in out
        assert "Thm 1.2" in out

    def test_triangle_free_message(self, tmp_path, capsys):
        path = tmp_path / "path.txt"
        path.write_text("0 1\n1 2\n")
        assert main(["bounds", str(path)]) == 0
        assert "triangle-free" in capsys.readouterr().out


class TestGenerate:
    def test_generate_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "ba.txt"
        code = main(
            ["generate", "ba", "--out", str(out_file), "--scale", "tiny", "--seed", "2"]
        )
        assert code == 0
        assert out_file.exists()
        assert "kappa <=" in capsys.readouterr().out
        # generated file is consumable by the other commands
        assert main(["exact", str(out_file)]) == 0

    def test_generate_unknown_family(self, tmp_path, capsys):
        code = main(["generate", "galaxy", "--out", str(tmp_path / "x.txt")])
        assert code == 2
        assert "available" in capsys.readouterr().err

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["generate", "wheel", "--out", str(a), "--scale", "tiny", "--seed", "5"])
        main(["generate", "wheel", "--out", str(b), "--scale", "tiny", "--seed", "5"])
        assert a.read_text() == b.read_text()


class TestConvertAndTapeInfo:
    def test_convert_writes_tape_and_fingerprint(self, wheel_file, tmp_path, capsys):
        out = str(tmp_path / "wheel.etape")
        assert main(["convert", wheel_file, "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "wrote 118 edges" in printed
        assert "fingerprint:" in printed
        from repro.streams import is_tape

        assert is_tape(out)

    def test_convert_default_output_path(self, wheel_file, capsys):
        assert main(["convert", wheel_file]) == 0
        from repro.streams import is_tape

        assert is_tape(wheel_file + ".etape")

    def test_convert_validate_round_trip(self, wheel_file, tmp_path, capsys):
        out = str(tmp_path / "wheel.etape")
        assert main(["convert", wheel_file, "--out", out, "--validate"]) == 0
        assert "round trip exact" in capsys.readouterr().out

    def test_convert_validate_reports_mismatch(self, wheel_file, tmp_path, capsys,
                                               monkeypatch):
        # A writer that reorders the stream yields a well-formed tape (its
        # checksum verifies) whose edge sequence differs from the text's.
        import repro.cli as cli
        from repro.streams import FileEdgeStream, InMemoryEdgeStream

        real_write_tape = cli.write_tape

        def reordering_write_tape(source, path, chunk_size):
            edges = list(FileEdgeStream(source))[::-1]
            return real_write_tape(InMemoryEdgeStream(edges), path, chunk_size)

        monkeypatch.setattr(cli, "write_tape", reordering_write_tape)
        out = str(tmp_path / "wheel.etape")
        assert main(["convert", wheel_file, "--out", out, "--validate"]) == 1
        assert "round-trip MISMATCH at edge 0" in capsys.readouterr().err

    def test_tape_info_dumps_header(self, wheel_file, tmp_path, capsys):
        out = str(tmp_path / "wheel.etape")
        main(["convert", wheel_file, "--out", out])
        capsys.readouterr()
        assert main(["tape-info", out]) == 0
        printed = capsys.readouterr().out
        assert "edges (m)" in printed
        assert "118" in printed
        assert "fingerprint" in printed

    def test_estimate_and_exact_accept_tape(self, wheel_file, tmp_path, capsys):
        """The headline invariant at the CLI surface: the same seed on the
        text file and its tape prints the identical estimate."""
        out = str(tmp_path / "wheel.etape")
        main(["convert", wheel_file, "--out", out])
        capsys.readouterr()
        base = ["--kappa", "3", "--seed", "1", "--repetitions", "3"]
        assert main(["estimate", wheel_file] + base) == 0
        text_out = capsys.readouterr().out
        assert main(["estimate", out] + base) == 0
        tape_out = capsys.readouterr().out
        text_line = [l for l in text_out.splitlines() if "estimate:" in l]
        tape_line = [l for l in tape_out.splitlines() if "estimate:" in l]
        assert text_line == tape_line
        assert main(["exact", out]) == 0
        assert "triangles: 59" in capsys.readouterr().out

    def test_tape_info_rejects_text_file(self, wheel_file, capsys):
        # A text file is not a tape: typed TapeFormatError, reported as a
        # one-line exit-2 failure rather than a traceback.
        assert main(["tape-info", wheel_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro tape-info:")
        assert len(err.strip().splitlines()) == 1


class TestSnapshotCommands:
    def _result_lines(self, out):
        return [
            line
            for line in out.splitlines()
            if line.startswith(("estimate:", "rounds:", "passes:"))
        ]

    def _checkpointed(self, wheel_file, tmp_path, capsys):
        """Run plain then checkpointed; return (result lines, dir, names)."""
        base = ["estimate", wheel_file, "--kappa", "3", "--seed", "1",
                "--repetitions", "3"]
        assert main(base) == 0
        plain = self._result_lines(capsys.readouterr().out)
        ckdir = tmp_path / "ck"
        assert main(base + ["--checkpoint-dir", str(ckdir), "--snapshot-keep", "64"]) == 0
        checkpointed = self._result_lines(capsys.readouterr().out)
        assert checkpointed == plain
        snaps = sorted(p.name for p in ckdir.glob("*.esnap"))
        assert snaps and snaps[0] == "snap-r000000.esnap"
        return plain, ckdir, snaps

    def test_checkpointed_estimate_writes_snapshots_identically(
        self, wheel_file, tmp_path, capsys
    ):
        self._checkpointed(wheel_file, tmp_path, capsys)

    def test_resume_reproduces_the_estimate(self, wheel_file, tmp_path, capsys):
        plain, ckdir, snaps = self._checkpointed(wheel_file, tmp_path, capsys)
        assert main(["resume", str(ckdir / snaps[0]), wheel_file]) == 0
        out = capsys.readouterr().out
        assert "resuming:  round 0" in out
        assert self._result_lines(out) == plain
        # A directory source resumes from the newest snapshot.
        assert main(["resume", str(ckdir), wheel_file]) == 0
        assert self._result_lines(capsys.readouterr().out) == plain

    def test_snapshot_info_summarizes_state(self, wheel_file, tmp_path, capsys):
        _plain, ckdir, _snaps = self._checkpointed(wheel_file, tmp_path, capsys)
        assert main(["snapshot-info", str(ckdir)]) == 0
        out = capsys.readouterr().out
        for field in ("next round", "rounds committed", "kappa", "seed",
                      "config hash", "fingerprint"):
            assert field in out

    def test_resume_refuses_a_different_input(self, wheel_file, tmp_path, capsys):
        from repro.generators import wheel_graph
        from repro.io import write_edgelist

        _plain, ckdir, _snaps = self._checkpointed(wheel_file, tmp_path, capsys)
        other = tmp_path / "other.txt"
        write_edgelist(wheel_graph(61), other)
        assert main(["resume", str(ckdir), str(other)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro resume:")
        assert "fingerprint mismatch" in err


class TestTypedErrors:
    """Expected input failures exit 2 with one stderr line, never a traceback."""

    def _assert_one_line_failure(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {argv[0]}:"), err
        assert len(err.strip().splitlines()) == 1, err
        assert "Traceback" not in err

    def test_stats_missing_input(self, tmp_path, capsys):
        self._assert_one_line_failure(["stats", str(tmp_path / "nope.txt")], capsys)

    def test_exact_missing_input(self, tmp_path, capsys):
        self._assert_one_line_failure(["exact", str(tmp_path / "nope.txt")], capsys)

    def test_estimate_missing_input(self, tmp_path, capsys):
        self._assert_one_line_failure(
            ["estimate", str(tmp_path / "nope.txt"), "--kappa", "3"], capsys
        )

    def test_bounds_missing_input(self, tmp_path, capsys):
        self._assert_one_line_failure(["bounds", str(tmp_path / "nope.txt")], capsys)

    def test_convert_missing_input(self, tmp_path, capsys):
        self._assert_one_line_failure(
            ["convert", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o.etape")],
            capsys,
        )

    def test_tape_info_missing_input(self, tmp_path, capsys):
        self._assert_one_line_failure(["tape-info", str(tmp_path / "nope.etape")], capsys)

    def test_resume_missing_snapshot(self, tmp_path, wheel_file, capsys):
        self._assert_one_line_failure(
            ["resume", str(tmp_path / "nope.esnap"), wheel_file], capsys
        )

    def test_snapshot_info_missing_input(self, tmp_path, capsys):
        self._assert_one_line_failure(
            ["snapshot-info", str(tmp_path / "nope.esnap")], capsys
        )

    def test_estimate_refuses_a_non_canonical_tape(self, tmp_path, capsys):
        """A tape of reversed rows exits 2 naming it (it would estimate 0);
        the same rows as text are canonicalised on parsing and estimate
        exactly like the canonical tape."""
        from repro.streams import InMemoryEdgeStream, write_tape

        edges = list(InMemoryEdgeStream.from_graph(wheel_graph(300)))
        reversed_rows = InMemoryEdgeStream([(v, u) for u, v in edges], validate=False)
        rev, fwd, text = tmp_path / "rev.etape", tmp_path / "fwd.etape", tmp_path / "rev.txt"
        write_tape(reversed_rows, rev)
        write_tape(InMemoryEdgeStream(edges), fwd)
        text.write_text("".join(f"{v} {u}\n" for u, v in edges))
        args = ["--kappa", "3", "--seed", "3"]
        self._assert_one_line_failure(["estimate", str(rev), *args], capsys)
        assert main(["estimate", str(rev), *args]) == 2
        assert f"{rev}: tape rows are not canonical" in capsys.readouterr().err
        assert main(["estimate", str(fwd), *args]) == 0
        canonical = capsys.readouterr().out
        assert main(["estimate", str(text), *args]) == 0
        assert capsys.readouterr().out == canonical
        assert main(["exact", str(rev)]) == 0
        assert "triangles: 299" in capsys.readouterr().out

    def test_serve_without_endpoint(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_SOCKET", raising=False)
        monkeypatch.delenv("REPRO_SERVE_PORT", raising=False)
        self._assert_one_line_failure(["serve"], capsys)

    @pytest.mark.parametrize(
        "flags,env,setting",
        [
            (["--cache-size", "0"], {}, "cache-size"),
            ([], {"REPRO_SERVE_CACHE_SIZE": "0"}, "cache-size"),
            (["--batch-window", "-1"], {}, "batch-window"),
            ([], {"REPRO_SERVE_BATCH_WINDOW": "-0.5"}, "batch-window"),
        ],
        ids=["cache-flag", "cache-env", "window-flag", "window-env"],
    )
    def test_serve_misconfiguration(self, flags, env, setting, capsys, monkeypatch):
        """Refused before any endpoint is needed (none is configured, so a
        daemon that accepted the setting could not start serving either)."""
        monkeypatch.delenv("REPRO_SERVE_SOCKET", raising=False)
        monkeypatch.delenv("REPRO_SERVE_PORT", raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main(["serve", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve:") and len(err.strip().splitlines()) == 1, err
        assert setting in err, err

    def test_malformed_text_is_a_one_line_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n1 2\n2 oops\n")
        assert main(["estimate", str(bad), "--kappa", "3"]) == 2
        err = capsys.readouterr().err
        # The text's conversion to a tape keeps the parser's line number.
        assert err.startswith("repro estimate:") and "bad.txt:3" in err, err
        assert len(err.strip().splitlines()) == 1, err

    def test_binary_input_is_a_one_line_failure(self, tmp_path, capsys):
        # Neither a tape (no magic) nor UTF-8 text: a lone continuation
        # byte after a valid first line.
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"0 1\n1 2\n\x80\xff\xfe binary\x00\n" * 3)
        self._assert_one_line_failure(["estimate", str(bad), "--kappa", "3"], capsys)
        bad.write_bytes(b"\xff" * 64)
        self._assert_one_line_failure(["estimate", str(bad), "--kappa", "3"], capsys)

    def test_corrupt_tape_is_a_one_line_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.etape"
        bad.write_bytes(b"ETAPE???" + b"\x00" * 8)  # bad magic/truncated header
        self._assert_one_line_failure(["tape-info", str(bad)], capsys)

    @pytest.mark.parametrize(
        "command,option",
        [
            ("estimate", ["--workers", "0"]),
            ("estimate", ["--chunk-size", "0"]),
            ("estimate", ["--speculate-depth", "0"]),
            ("estimate", ["--repetitions", "0"]),
            ("estimate", ["--epsilon", "2"]),
            ("estimate", ["--max-retries", "-1"]),
            ("estimate", ["--snapshot-every", "0"]),
            ("estimate", ["--snapshot-keep", "0"]),
            ("estimate", ["--faults", "bogus@1"]),
            ("estimate", ["--kappa", "0"]),
            ("resume", ["--workers", "0"]),
            ("resume", ["--speculate-depth", "0"]),
            ("resume", ["--snapshot-every", "0"]),
            ("convert", ["--chunk-size", "0"]),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else value,
    )
    def test_option_value_errors_exit_2(self, wheel_file, command, option, capsys):
        """A value the library would reject is a usage error naming the
        option, raised before the input is read."""
        args = {
            "estimate": [wheel_file, "--kappa", "2"],
            "resume": ["no-such-checkpoint", wheel_file],
            "convert": [wheel_file],
        }[command]
        with pytest.raises(SystemExit) as exit_info:
            main([command, *args, *option])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {command}: error: argument {option[0]}: " in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command,name,raw,message",
        [
            ("estimate", "REPRO_WORKERS", "0", "REPRO_WORKERS must be >= 1, got 0"),
            ("estimate", "REPRO_SPECULATE_DEPTH", "x", "REPRO_SPECULATE_DEPTH must be an integer"),
            ("estimate", "REPRO_MAX_RETRIES", "-1", "REPRO_MAX_RETRIES must be >= 0, got -1"),
            ("estimate", "REPRO_FAULTS", "bogus@1", "unknown fault site 'bogus'"),
            ("estimate", "REPRO_SNAPSHOT_KEEP", "x", "REPRO_SNAPSHOT_KEEP must be an integer"),
            ("resume", "REPRO_WORKERS", "0", "REPRO_WORKERS must be >= 1, got 0"),
            ("resume", "REPRO_SNAPSHOT_EVERY", "0", "REPRO_SNAPSHOT_EVERY must be >= 1, got 0"),
            ("serve", "REPRO_WORKERS", "0", "REPRO_WORKERS must be >= 1, got 0"),
            ("serve", "REPRO_MAX_RETRIES", "x", "REPRO_MAX_RETRIES must be an integer"),
        ],
        ids=lambda value: value if isinstance(value, str) and value.isupper() else None,
    )
    def test_variable_value_errors_exit_2(
        self, wheel_file, tmp_path, monkeypatch, command, name, raw, message, capsys
    ):
        """A malformed ``REPRO_*`` variable the command reads is a usage
        error too: one line naming it, before the input is read."""
        args = {
            "estimate": [wheel_file, "--kappa", "2", "--checkpoint-dir", str(tmp_path / "ck")],
            "resume": ["no-such-checkpoint", wheel_file],
            "serve": ["--port", "0"],
        }[command]
        monkeypatch.setenv(name, raw)
        with pytest.raises(SystemExit) as exit_info:
            main([command, *args])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {command}: {message}"), err
        assert "Traceback" not in err and err.count("\n") == 1


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_no_command(self):
        with pytest.raises(SystemExit):
            main([])
