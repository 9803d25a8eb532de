"""Scaffolding for end-to-end drills and CI benches: run, check, report.

Every CI drill (``scripts/*_drill.py``, ``scripts/service_smoke.py``) and
every CI throughput bench (``benchmarks/bench_*.py`` run by
:func:`run_bench`) is a scenario plus its assertions written over this
module, which holds the one copy of the plumbing they share:

* :func:`spawn` — start a ``repro-em`` sub-command (:func:`cli`), wait
  for its startup banner on stderr and keep draining stderr afterwards
  into :attr:`Child.log`; :func:`spawn_shard_hosts` boots ``serve-shard``
  hosts and :func:`fleet_document` lays them out as a ``fleet.json``;
* :func:`stop` — signal a process, wait, SIGKILL it on timeout;
* :func:`jsonl_session` — one stdio ``serve`` session, requests in and
  responses out;
* :func:`fetch` — a JSON GET or POST whose :class:`Reply` carries status,
  body and headers for every status instead of raising on 4xx/5xx;
* :func:`post_retrying` / :func:`run_load` — explain calls that retry the
  drill's :class:`Retry` codes, alone or as threaded load with a
  :class:`Load` outcome ledger;
* :func:`wait_until` / :func:`wait_health` — bounded polling;
* :class:`Drill` — records checks and their transcript, writes artifacts
  and turns the outcome into the exit code;
* :func:`run_bench` — a bench's parser with the shared ``--seed``,
  ``--smoke`` and ``--artifacts-dir`` flags, its scenario run as a
  :class:`Drill`, and its ``<bench>.json`` artifact.

Drill-specific values (seeds, dataset flags, retryable codes, attempts,
backoff, pacing) stay constants in each script and are passed in.  The
module imports only the standard library.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from email.message import Message
from pathlib import Path
from typing import Callable, Sequence

#: Seconds a child gets to print its startup banner.
BOOT_TIMEOUT = 180.0


def cli(*args: str) -> list[str]:
    """The command line running ``repro-em *args`` in this interpreter."""
    return [sys.executable, "-m", "repro.cli", *args]


class BootError(SystemExit):
    """A child exited or timed out before printing its startup banner.

    A :class:`SystemExit`, so an unhandled boot failure ends the drill
    with exit code 1 and the child's captured stderr in the message.
    """

    def __init__(self, what: str, stderr: str) -> None:
        super().__init__(f"{what} did not come up\n{stderr}")
        self.stderr = stderr


class Child:
    """A spawned process whose stderr a pump thread drains into :attr:`log`.

    The pump runs for the child's whole life: a child whose stderr pipe
    fills up blocks mid-write, so stderr is never left unread.
    :attr:`banner` is the first line starting with the expected prefix.
    """

    def __init__(self, process: subprocess.Popen, prefix: str) -> None:
        self.process = process
        self.prefix = prefix
        self.log: list[str] = []
        self.banner: str | None = None
        self._settled = threading.Event()
        self._pump = threading.Thread(target=self._drain, daemon=True)
        self._pump.start()

    def _drain(self) -> None:
        for line in self.process.stderr:
            self.log.append(line)
            if self.banner is None and line.startswith(self.prefix):
                self.banner = line
                self._settled.set()
        self._settled.set()  # EOF: stderr closed, banner or not

    @property
    def address(self) -> str:
        """The banner's first token after the prefix (a URL or host:port)."""
        return self.banner[len(self.prefix):].split()[0]

    def log_text(self) -> str:
        return "".join(self.log)

    def stop(self, sig: int = signal.SIGTERM, timeout: float = 60.0) -> int | None:
        """:func:`stop` the process, then let the pump read stderr's tail."""
        code = stop(self.process, sig, timeout)
        self._pump.join(timeout=5)
        return code


def spawn(
    command: list[str], prefix: str, what: str, timeout: float = BOOT_TIMEOUT
) -> Child:
    """Start *command*; return once a stderr line starts with *prefix*.

    Raises :class:`BootError` when the child closes stderr (exits) or
    *timeout* seconds pass first; the child is killed before the raise.
    """
    process = subprocess.Popen(
        command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    child = Child(process, prefix)
    child._settled.wait(timeout)
    if child.banner is None:
        child.stop(signal.SIGKILL)
        raise BootError(what, child.log_text())
    return child


def stop(
    process: subprocess.Popen, sig: int = signal.SIGTERM, timeout: float = 60.0
) -> int | None:
    """Send *sig* to *process* and wait up to *timeout* seconds.

    Returns the exit code, also for a process that had already exited.
    One still running at the timeout is SIGKILLed and reaped, and the
    result is ``None``.
    """
    if process.poll() is None:
        process.send_signal(sig)
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        return None


def spawn_shard_hosts(count: int, store_root: Path | None = None) -> list[Child]:
    """*count* ``serve-shard`` host processes on ephemeral localhost ports.

    With *store_root*, host *i* keeps its store partition in
    ``store_root/host<i>-store``.  A host that fails to boot takes the
    ones already up down with it.
    """
    hosts: list[Child] = []
    try:
        for index in range(count):
            command = cli("serve-shard", "--port", "0")
            if store_root is not None:
                command += ["--store-dir", str(store_root / f"host{index}-store")]
            hosts.append(spawn(command, "serving shard on ", "serve-shard"))
    except BootError:
        for host in hosts:
            host.stop(signal.SIGKILL)
        raise
    return hosts


def fleet_document(shards: Sequence[str], standbys: Sequence[str] = ()) -> dict:
    """The ``fleet.json`` document placing shard *i* on ``shards[i]``.

    Addresses are ``host:port`` strings, as in :attr:`Child.address`.
    """

    def entry(address: str) -> dict:
        host, port = address.rsplit(":", 1)
        return {"host": host, "port": int(port)}

    return {
        "shards": [
            {"id": index, **entry(address)} for index, address in enumerate(shards)
        ],
        "standbys": [entry(address) for address in standbys],
    }


def jsonl_session(
    command: list[str], requests: list[dict], timeout: float = 300.0
) -> tuple[list[dict], str]:
    """One stdio session: *requests* as JSONL on stdin; (responses, stderr).

    A non-zero exit raises :class:`SystemExit` carrying the child's stderr.
    """
    completed = subprocess.run(
        command,
        input="".join(json.dumps(request) + "\n" for request in requests),
        capture_output=True, text=True, timeout=timeout,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"JSONL session exited with {completed.returncode}\n"
            f"{completed.stderr}"
        )
    responses = [json.loads(line) for line in completed.stdout.splitlines()]
    return responses, completed.stderr


@dataclass
class Reply:
    """One HTTP response: status, raw text and headers."""

    status: int
    text: str
    headers: Message

    @property
    def body(self):
        """The text parsed as JSON."""
        return json.loads(self.text)


def fetch(url: str, payload: dict | None = None, timeout: float = 120.0) -> Reply:
    """GET *url*, or POST *payload* to it as JSON.

    HTTP error statuses come back as a :class:`Reply` like any other;
    only connection-level failures raise.
    """
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=data)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return Reply(
                response.status, response.read().decode("utf-8"), response.headers
            )
    except urllib.error.HTTPError as error:
        return Reply(error.code, error.read().decode("utf-8"), error.headers)


@dataclass(frozen=True)
class Retry:
    """How a drill client retries one explain request.

    A non-200 reply whose wire ``code`` is in *codes* (any non-200 when
    *codes* is ``None``) is retried after ``backoff * n`` seconds, the
    *n*-th time, for at most *attempts* calls in all.
    """

    codes: frozenset[str] | None
    attempts: int
    backoff: float

    def retries(self, reply: Reply) -> bool:
        """Whether *reply* is a failure this policy retries."""
        return reply.status != 200 and (
            self.codes is None or reply.body.get("code") in self.codes
        )


def post_retrying(url: str, payload: dict, retry: Retry) -> tuple[Reply, int]:
    """POST *payload* to *url* under *retry*; (last reply, retries made)."""
    retried = 0
    while True:
        reply = fetch(url, payload)
        if not retry.retries(reply) or retried + 1 >= retry.attempts:
            return reply, retried
        retried += 1
        time.sleep(retry.backoff * retried)


class Load:
    """Outcome ledger of a :func:`run_load`.

    Every request ends as ``completed`` (counted in ``retried`` too when
    it needed a retry) or as one line in ``lost``.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.completed = 0
        self.retried = 0
        self.lost: list[str] = []
        self.threads: list[threading.Thread] = []

    def join(self, timeout: float = 300.0) -> None:
        """Wait up to *timeout* seconds per worker thread."""
        for thread in self.threads:
            thread.join(timeout=timeout)


def run_load(
    url: str, n_requests: int, retry: Retry, threads: int = 4, pace: float = 0.0
) -> Load:
    """Start *n_requests* ``/explain`` calls on *threads* threads.

    Returns at once; :meth:`Load.join` waits for the ledger to settle.
    Each worker sleeps *pace* seconds before each request so the load can
    be stretched over a fault window.
    """
    load = Load()
    pending = list(range(n_requests))

    def outcome(record: int) -> tuple[int, str | None]:
        payload = {"record": record % 100, "method": "single"}
        try:
            reply, retried = post_retrying(url + "/explain", payload, retry)
            if reply.status == 200:
                return retried, None
            if retry.retries(reply):
                return retried, f"record {record}: retries exhausted"
            code = reply.body.get("code")
            return retried, f"record {record}: terminal {reply.status} {code}"
        except Exception as error:  # noqa: BLE001 - connection-level loss
            return 0, f"record {record}: transport {error}"

    def worker() -> None:
        while True:
            with load.lock:
                if not pending:
                    return
                record = pending.pop()
            time.sleep(pace)
            retried, lost = outcome(record)
            with load.lock:
                if lost is None:
                    load.completed += 1
                    load.retried += bool(retried)
                else:
                    load.lost.append(lost)

    for _ in range(threads):
        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        load.threads.append(thread)
    return load


def wait_until(
    predicate: Callable[[], bool], timeout: float, interval: float = 0.1
) -> bool:
    """Poll *predicate* until it holds (True) or *timeout* passes (False).

    The predicate is always tried at least once.
    """
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(interval)
    return True


def wait_health(
    url: str,
    accept: Callable[[int, dict], bool],
    timeout: float = 30.0,
    interval: float = 0.1,
) -> tuple[bool, int, dict]:
    """Poll ``url/healthz`` until ``accept(status, health)`` holds.

    Returns ``(accepted, status, health)`` of the last reply read.
    """
    last: list[Reply] = []

    def accepted() -> bool:
        last[:] = [fetch(url + "/healthz", timeout=30.0)]
        return accept(last[0].status, last[0].body)

    ok = wait_until(accepted, timeout, interval)
    return ok, last[0].status, last[0].body


class Drill:
    """One drill run: its checks, their transcript, artifacts and verdict."""

    def __init__(self, name: str, artifacts_dir: Path | None = None) -> None:
        self.name = name
        self.artifacts_dir = artifacts_dir
        self.failures: list[str] = []
        self.transcript: list[str] = []
        self.started = time.monotonic()

    def check(self, condition: bool, what: str) -> bool:
        """Print and record ``[ok]``/``[FAIL] what``; returns *condition*."""
        line = f"  [{'ok' if condition else 'FAIL'}] {what}"
        print(line, flush=True)
        self.transcript.append(line)
        if not condition:
            self.failures.append(what)
        return bool(condition)

    def fail(self, what: str) -> None:
        """Record a failed check."""
        self.check(False, what)

    def transcript_text(self) -> str:
        return "\n".join(self.transcript) + "\n"

    def save(self, files: dict[str, str | bytes]) -> None:
        """Write *files* (name → content) into the artifacts directory.

        Does nothing when the drill was given no artifacts directory.
        """
        if self.artifacts_dir is None:
            return
        self.artifacts_dir.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            target = self.artifacts_dir / name
            if isinstance(content, bytes):
                target.write_bytes(content)
            else:
                target.write_text(content)
        print(f"artifacts kept in {self.artifacts_dir}")

    def finish(self) -> int:
        """Print the verdict line; returns the exit code (0 = passed)."""
        elapsed = time.monotonic() - self.started
        print(f"{self.name} {'FAILED' if self.failures else 'passed'} "
              f"in {elapsed:.0f}s")
        return 1 if self.failures else 0


def run_bench(
    name: str,
    description: str,
    add_arguments: Callable[[argparse.ArgumentParser], None],
    smoke: dict[str, object],
    scenario: Callable[[argparse.Namespace, Drill], dict],
    *,
    seed: int = 0,
    argv: Sequence[str] | None = None,
) -> int:
    """Run one CI bench: parse its flags, run *scenario*, report; exit code.

    The parser carries the bench's own flags (*add_arguments*) plus the
    three every bench shares: ``--seed`` (default *seed*), ``--smoke``,
    which sets each *smoke* attribute on the parsed arguments over
    whatever the flags said, and ``--artifacts-dir``.
    ``scenario(args, drill)`` gates through :meth:`Drill.check` and returns
    its measurements.  With ``--artifacts-dir``, ``<name>.json`` there
    holds the final arguments (``workload``), the measurements and the
    failures.
    """
    parser = argparse.ArgumentParser(description=description)
    add_arguments(parser)
    parser.add_argument("--seed", type=int, default=seed)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI scale: " + ", ".join(
            f"--{key.replace('_', '-')} {value}" for key, value in smoke.items()
        ),
    )
    parser.add_argument(
        "--artifacts-dir", type=Path, default=None,
        help=f"write {name}.json (workload, measurements, failures) here",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        for key, value in smoke.items():
            setattr(args, key, value)
    drill = Drill(name, args.artifacts_dir)
    measurements = scenario(args, drill)
    drill.save({
        f"{name}.json": json.dumps(
            {
                "workload": vars(args),
                "measurements": measurements,
                "failures": drill.failures,
            },
            indent=2, sort_keys=True, default=str,
        ),
    })
    return drill.finish()
