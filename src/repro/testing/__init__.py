"""Test doubles and drill scaffolding for the fault-tolerance machinery.

Importable from the library (not just the test suite) so the CI drills
and downstream users can run chaos drills against their own
configurations.  :mod:`repro.testing.faults` injects matcher-side
faults; :mod:`repro.testing.chaos` supplies the infrastructure side
(damaged store files, mid-request kills, slow clients, overload bursts),
all seeded and reproducible; :mod:`repro.testing.drill` is the harness
every end-to-end drill script and CI bench is written over (process
boot and shutdown, JSONL and HTTP clients, retrying load, polling, the
check transcript and exit code, the shared bench flags and artifact).
"""

from repro.testing.chaos import (
    SlowClient,
    chaos_rng,
    flip_bytes,
    kill_after,
    overload_burst,
    overwrite_with_garbage,
    truncate_file,
)
from repro.testing.drill import (
    BootError,
    Child,
    Drill,
    Load,
    Reply,
    Retry,
    cli,
    fetch,
    fleet_document,
    jsonl_session,
    post_retrying,
    run_bench,
    run_load,
    spawn,
    spawn_shard_hosts,
    stop,
    wait_health,
    wait_until,
)
from repro.testing.faults import FaultSchedule, FlakyMatcher, SlowMatcher

__all__ = [
    "BootError",
    "Child",
    "Drill",
    "FaultSchedule",
    "FlakyMatcher",
    "Load",
    "Reply",
    "Retry",
    "SlowClient",
    "SlowMatcher",
    "chaos_rng",
    "cli",
    "fetch",
    "fleet_document",
    "flip_bytes",
    "jsonl_session",
    "kill_after",
    "overload_burst",
    "overwrite_with_garbage",
    "post_retrying",
    "run_bench",
    "run_load",
    "spawn",
    "spawn_shard_hosts",
    "stop",
    "truncate_file",
    "wait_health",
    "wait_until",
]
