"""Run plumbing shared by the workloads: host facts, resource meters,
the matcher-server child process and repeated set-up."""

from __future__ import annotations

import gc
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

from perfbench.stats import median

#: How many times each run sets up; ``setup_s`` is the median.
SETUP_REPEATS = 3


def host_facts(root: Path, seed: int) -> dict:
    """Facts that decide whether two runs are comparable."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(root),
        "seed": seed,
    }


def git_sha(root: Path) -> str | None:
    """HEAD of *root*'s own git directory, read without running git."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        ref_file = root / ".git" / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of a live child, from ``/proc`` (0 if unreadable)."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class CpuMeter:
    """CPU seconds of this process plus the given live children."""

    def __init__(self, child_pids=()) -> None:
        self.child_pids = list(child_pids)
        self._start = self._now()

    def _now(self) -> float:
        return time.process_time() + sum(
            _proc_cpu_seconds(pid) for pid in self.child_pids
        )

    def elapsed(self) -> float:
        return self._now() - self._start


def peak_rss_mb(child_pids=()) -> float:
    """Peak resident set of this process plus the given live children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(_proc_peak_rss_mb(pid) for pid in child_pids)


def repeated_setup(setup, teardown, repeats: int = SETUP_REPEATS):
    """Run *setup* *repeats* times; returns ``(median seconds, last state)``.

    Every state but the last is torn down, so only one set of resources
    is live when measuring starts.
    """
    seconds = []
    state = None
    for _ in range(repeats):
        if state is not None:
            teardown(state)
            state = None
        gc.collect()
        started = time.perf_counter()
        state = setup()
        seconds.append(time.perf_counter() - started)
    return median(seconds), state


class MatcherServerProcess:
    """A ``serve-matcher`` child process on an ephemeral local port."""

    def __init__(self, root: Path, args: list[str], timeout: float = 60.0):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve-matcher",
             "--host", "127.0.0.1", "--port", "0", *args],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.address = self._await_banner(timeout)
        # Keep draining stderr so the child never blocks on a full pipe.
        self._drain = threading.Thread(
            target=self._drain_stderr, daemon=True
        )
        self._drain.start()

    @property
    def pid(self) -> int:
        return self.process.pid

    def _await_banner(self, timeout: float) -> str:
        found: list[str] = []
        lines: list[str] = []

        def read() -> None:
            for line in self.process.stderr:
                lines.append(line.rstrip())
                if line.startswith("serving matcher on "):
                    found.append(line.split()[3])
                    return

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout)
        if not found:
            self.stop()
            raise RuntimeError(
                "serve-matcher did not start: " + " | ".join(lines[-5:])
            )
        return found[0]

    def _drain_stderr(self) -> None:
        for _ in self.process.stderr:
            pass

    def stop(self, timeout: float = 10.0) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        drain = getattr(self, "_drain", None)
        if drain is not None:
            drain.join(timeout)
        self.process.stderr.close()
