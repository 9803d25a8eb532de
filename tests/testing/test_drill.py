"""The drill harness (``repro.testing.drill``) and the scripts built on it.

Fast: the children here are ``python -c`` one-liners and the HTTP peer
is a stdlib stub, so nothing boots ``repro-em``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import signal
import sys
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from repro.testing.drill import (
    BootError,
    Drill,
    Retry,
    fetch,
    run_bench,
    run_load,
    spawn,
    stop,
    wait_until,
)

REPO = Path(__file__).resolve().parents[2]


def python(code: str) -> list[str]:
    return [sys.executable, "-c", code]


class TestSpawn:
    def test_pump_keeps_draining_stderr_after_the_banner(self):
        # 128 KiB after the banner: far past a pipe buffer (64 KiB on
        # Linux), so the child only exits if someone keeps reading.
        child = spawn(
            python(
                "import sys\n"
                "print('ready on 127.0.0.1:1234 (pid 1)', file=sys.stderr,"
                " flush=True)\n"
                "sys.stderr.write(('x' * 127 + '\\n') * 1024)\n"
            ),
            "ready on ", "chatty child",
        )
        assert child.address == "127.0.0.1:1234"
        assert child.process.wait(timeout=30) == 0
        assert child.stop() == 0
        assert len(child.log_text()) > 128 * 1024

    def test_child_that_exits_without_banner_fails_with_its_stderr(self):
        with pytest.raises(BootError) as raised:
            spawn(
                python("import sys; sys.exit('boom: no model artifact')"),
                "ready on ", "doomed child",
            )
        assert "boom: no model artifact" in raised.value.stderr
        assert "doomed child did not come up" in str(raised.value)

    def test_banner_timeout_kills_the_child(self):
        with pytest.raises(BootError) as raised:
            spawn(
                python(
                    "import sys, time\n"
                    "print('warming up', file=sys.stderr, flush=True)\n"
                    "time.sleep(60)\n"
                ),
                "ready on ", "slow child", timeout=1.0,
            )
        assert "warming up" in raised.value.stderr


class TestStop:
    def test_sigterm_ignored_escalates_to_sigkill(self):
        child = spawn(
            python(
                "import signal, sys, time\n"
                "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
                "print('ready on now', file=sys.stderr, flush=True)\n"
                "time.sleep(60)\n"
            ),
            "ready on ", "stubborn child",
        )
        assert child.stop(timeout=0.5) is None
        assert child.process.returncode == -signal.SIGKILL

    def test_exit_code_of_a_cooperative_or_finished_process(self):
        child = spawn(
            python(
                "import sys, time\n"
                "print('ready on now', file=sys.stderr, flush=True)\n"
                "time.sleep(60)\n"
            ),
            "ready on ", "sleeper",
        )
        assert child.stop() == -signal.SIGTERM
        assert stop(child.process) == -signal.SIGTERM  # already reaped


@pytest.fixture()
def stub():
    """A ``/explain`` stub whose outcome depends on the record.

    0 and 4 succeed; 1 answers one retryable 503 first; 2 is a terminal
    400; 3 answers retryable 503s forever.
    """
    calls: Counter = Counter()
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers["Content-Length"])
            record = json.loads(self.rfile.read(length))["record"]
            with lock:
                calls[record] += 1
                seen = calls[record]
            if record == 3 or (record == 1 and seen == 1):
                status, body = 503, {"ok": False, "code": "shard_failed"}
            elif record == 2:
                status, body = 400, {"ok": False, "code": "bad_request"}
            else:
                status, body = 200, {"ok": True, "record": record}
            payload = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.send_header("X-Record", str(record))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield "http://127.0.0.1:%d" % server.server_address[1], calls
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


RETRY = Retry(codes=frozenset({"shard_failed"}), attempts=3, backoff=0.0)


class TestHttp:
    def test_fetch_returns_error_statuses_with_body_and_headers(self, stub):
        url, _ = stub
        reply = fetch(url + "/explain", {"record": 2})
        assert reply.status == 400
        assert reply.body["code"] == "bad_request"
        assert reply.headers["X-Record"] == "2"

    def test_run_load_retries_retryable_and_ledgers_the_rest(self, stub):
        url, calls = stub
        load = run_load(url, 5, RETRY, threads=2)
        load.join(timeout=30)
        assert not any(thread.is_alive() for thread in load.threads)
        assert load.completed == 3  # records 0, 1 (after a retry) and 4
        assert load.retried == 1
        assert sorted(load.lost) == [
            "record 2: terminal 400 bad_request",
            "record 3: retries exhausted",
        ]
        assert calls[1] == 2
        assert calls[2] == 1  # terminal codes are never retried
        assert calls[3] == RETRY.attempts

    def test_run_load_counts_a_dead_peer_as_transport_loss(self, stub):
        url, _ = stub
        dead = "http://127.0.0.1:1"
        load = run_load(dead, 2, RETRY, threads=1)
        load.join(timeout=30)
        assert load.completed == 0
        assert all("transport" in line for line in load.lost)
        assert len(load.lost) == 2


class TestDrill:
    def test_wait_until(self):
        assert wait_until(lambda: True, timeout=0)
        assert not wait_until(lambda: False, timeout=0.05, interval=0.01)

    def test_checks_transcript_artifacts_and_exit_code(self, tmp_path, capsys):
        drill = Drill("unit_drill", tmp_path / "artifacts")
        assert drill.check(True, "first holds")
        assert not drill.check(False, "second fails")
        drill.save({
            "transcript.txt": drill.transcript_text(), "raw.bin": b"\x00\x01",
        })
        assert drill.finish() == 1
        out = capsys.readouterr().out
        assert "  [ok] first holds\n  [FAIL] second fails\n" in out
        assert "unit_drill FAILED in" in out
        assert drill.failures == ["second fails"]
        assert (tmp_path / "artifacts" / "transcript.txt").read_text() == (
            "  [ok] first holds\n  [FAIL] second fails\n"
        )
        assert (tmp_path / "artifacts" / "raw.bin").read_bytes() == b"\x00\x01"
        assert Drill("clean").finish() == 0


class TestRunBench:
    @staticmethod
    def run(argv, passes=True):
        seen = {}

        def add_arguments(parser):
            parser.add_argument("--samples", type=int, default=96)
            parser.add_argument("--gate", type=float, default=1.5)

        def scenario(args, drill):
            seen.update(vars(args))
            drill.check(True, "bit-identical")
            drill.check(passes, "speedup >= gate")
            return {"speedup": 2.0}

        code = run_bench(
            "bench_unit", "a unit bench", add_arguments,
            {"samples": 48}, scenario, seed=7, argv=argv,
        )
        return code, seen

    def test_smoke_applies_the_preset_over_the_flags(self):
        _, seen = self.run([])
        assert (seen["samples"], seen["seed"], seen["smoke"]) == (96, 7, False)
        _, seen = self.run(["--smoke", "--samples", "10"])
        assert (seen["samples"], seen["gate"], seen["smoke"]) == (48, 1.5, True)

    def test_json_lands_in_artifacts_dir_with_workload_and_failures(
        self, tmp_path
    ):
        out = tmp_path / "out"
        code, _ = self.run(
            ["--artifacts-dir", str(out), "--gate", "3"],
            passes=False,
        )
        assert code == 1
        assert [path.name for path in out.iterdir()] == ["bench_unit.json"]
        artifact = json.loads((out / "bench_unit.json").read_text())
        assert artifact["workload"] == {
            "samples": 96, "gate": 3.0, "seed": 7, "smoke": False,
            "artifacts_dir": str(out),
        }
        assert artifact["measurements"] == {"speedup": 2.0}
        assert artifact["failures"] == ["speedup >= gate"]

    def test_passing_bench_exits_zero_and_writes_nothing_without_dir(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        code, _ = self.run([])
        assert code == 0
        assert list(tmp_path.iterdir()) == []
        assert "bench_unit passed in" in capsys.readouterr().out


BENCH_SCRIPTS = sorted(
    REPO / "benchmarks" / f"bench_{name}.py"
    for name in (
        "bulk", "obs_overhead", "prediction_engine", "remote_backend",
        "service_throughput", "shards", "shedding", "vectorized",
    )
)

DRILL_SCRIPTS = sorted(
    [
        *REPO.glob("scripts/*_drill.py"),
        REPO / "scripts" / "service_smoke.py",
        *BENCH_SCRIPTS,
    ]
)


def load_script(path):
    spec = importlib.util.spec_from_file_location(f"_drill_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", DRILL_SCRIPTS, ids=lambda path: path.name)
def test_drill_script_imports_and_exposes_main(path):
    # Each drill otherwise runs only in its own CI job, so a harness API
    # change that breaks a script's imports would go unseen here.
    assert callable(load_script(path).main)


@pytest.mark.parametrize("path", BENCH_SCRIPTS, ids=lambda path: path.name)
def test_bench_builds_its_parser_through_run_bench(path, capsys):
    # --help exits after the parser is built: the bench's flags, its
    # smoke preset and run_bench's shared flags, without running anything.
    module = load_script(path)
    with pytest.raises(SystemExit) as exited:
        module.main(["--help"])
    assert exited.value.code == 0
    out = capsys.readouterr().out
    assert "--smoke" in out and "--artifacts-dir" in out and "--seed" in out
    # A misspelt preset key would leave --smoke running at full scale.
    parser = argparse.ArgumentParser()
    module.add_arguments(parser)
    assert set(module.SMOKE) <= {action.dest for action in parser._actions}


def test_every_drill_script_is_covered():
    names = {path.name for path in DRILL_SCRIPTS}
    assert {
        "backend_drill.py", "bulk_drill.py", "chaos_drill.py",
        "fault_drill.py", "fleet_drill.py", "shard_drill.py",
        "service_smoke.py", "bench_bulk.py", "bench_obs_overhead.py",
        "bench_prediction_engine.py", "bench_remote_backend.py",
        "bench_service_throughput.py", "bench_shards.py",
        "bench_shedding.py", "bench_vectorized.py",
    } <= names
    assert all(path.exists() for path in DRILL_SCRIPTS)
