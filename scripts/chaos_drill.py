#!/usr/bin/env python
"""Seeded chaos drill of the request-lifecycle machinery (CI chaos job).

Boots the real ``repro-em serve`` CLI and drives it through the failure
modes the lifecycle layer exists for:

1. **overload** — a simultaneous burst against a 1-worker server with a
   shed threshold of 1: some requests must be admitted (200), the rest
   shed with HTTP 429 + ``Retry-After`` + ``code: "overloaded"``, and
   the ``shed`` counter must account for them;
2. **deadlines** — a cold request carrying a 1 ms budget must fail with
   ``code: "deadline_exceeded"`` (HTTP 504 / JSONL alike), must leave no
   store entry behind, and the same request re-sent without a deadline
   must compute normally;
3. **graceful drain** — SIGTERM must stop the server within its drain
   budget with exit code 0 and a drain summary on stderr;
4. **store corruption** — a truncated SQLite file must be quarantined to
   ``*.corrupt-<ts>`` on the next boot, the store rebuilt empty, and the
   recomputed explanations must be bit-identical to the pre-corruption
   ones;
5. **mid-request kill** — SIGKILL while a computation is in flight must
   not poison the store: the next boot over the same directory serves
   correctly.

Everything is seeded; a failure reproduces.  Run locally with::

    PYTHONPATH=src python scripts/chaos_drill.py

Pass ``--artifacts-dir DIR`` to keep server logs for CI upload.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.testing.chaos import kill_after, overload_burst, truncate_file
from repro.testing.drill import (
    Drill, Reply, cli, fetch, jsonl_session, spawn, stop,
)

SEED = 7
DATASET_ARGS = [
    "--dataset", "S-BR", "--size-cap", "150", "--samples", "32",
    "--seed", str(SEED),
]
STORE_DB = "explanations.sqlite"


def serve(store_dir: Path, model_dir: Path, *extra: str) -> list[str]:
    return cli(
        "serve", *DATASET_ARGS,
        "--store-dir", str(store_dir), "--model-dir", str(model_dir), *extra,
    )


def serve_jsonl(store_dir: Path, model_dir: Path, requests: list[dict]) -> dict:
    """One stdio server session; responses keyed by request id."""
    responses, _ = jsonl_session(
        serve(store_dir, model_dir, "--workers", "2"), requests
    )
    return {r["id"]: r for r in responses}


def boot_http(store_dir: Path, model_dir: Path, *extra: str):
    """Boot ``serve --http`` on an ephemeral port."""
    return spawn(
        serve(store_dir, model_dir, "--http", "127.0.0.1:0", *extra),
        "serving on ", "serve --http",
    )


def drill_overload_and_deadline(root: Path, model_dir: Path, check) -> None:
    print("drill 1+2: overload shedding and deadlines over HTTP")
    server = boot_http(
        root / "store-overload", model_dir,
        "--workers", "1", "--shed-threshold", "1", "--drain-timeout", "20",
    )
    url = server.address
    try:
        outcomes = overload_burst(
            lambda slot: fetch(
                url + "/explain", {"record": slot, "method": "single"}
            ),
            n=8,
        )
        replies = [o for o in outcomes if isinstance(o, Reply)]
        check(len(replies) == 8, "burst: every request got an HTTP response")
        admitted = [r for r in replies if r.status == 200]
        shed = [r for r in replies if r.status == 429]
        check(bool(admitted), f"burst: some requests admitted ({len(admitted)})")
        check(bool(shed), f"burst: some requests shed with 429 ({len(shed)})")
        check(
            all(r.body.get("code") == "overloaded" for r in shed),
            "shed responses carry code=overloaded",
        )
        check(
            all(r.headers.get("Retry-After") is not None for r in shed),
            "shed responses carry a Retry-After header",
        )

        def service_stats() -> dict:
            return fetch(url + "/stats").body["stats"]["service"]

        check(
            service_stats()["shed"] == len(shed), "shed counter matches 429 count"
        )

        # Deadline: 1 ms budget on a cold record cannot be met.
        doomed = {"record": 20, "method": "single", "deadline_seconds": 0.001}
        outcome = fetch(url + "/explain", doomed)
        check(outcome.status == 504, "deadline miss maps to HTTP 504")
        check(
            outcome.body.get("code") == "deadline_exceeded",
            "deadline miss carries code=deadline_exceeded",
        )
        # No partial store entry: the same request minus the deadline
        # must actually compute (a poisoned store would answer instantly).
        before = service_stats()["computed"]
        retry = fetch(url + "/explain", {"record": 20, "method": "single"})
        check(retry.status == 200, "same request without deadline succeeds")
        check(
            service_stats()["computed"] == before + 1,
            "deadline-aborted request left no store entry (recomputed)",
        )
    finally:
        server.stop(signal.SIGINT)


def drill_sigterm_drain(root: Path, model_dir: Path, check) -> str:
    print("drill 3: SIGTERM drains within its budget")
    server = boot_http(root / "store-drain", model_dir, "--drain-timeout", "20")
    outcome = fetch(server.address + "/explain", {"record": 0, "method": "single"})
    check(outcome.status == 200, "pre-drain request succeeds")
    started = time.monotonic()
    code = server.stop(signal.SIGTERM, timeout=40)
    if code is None:
        check(False, "SIGTERM: server exited within the drain budget")
        return ""
    elapsed = time.monotonic() - started
    stderr = server.log_text()
    check(code == 0, f"SIGTERM: clean exit code (got {code})")
    check(elapsed < 30, f"SIGTERM: exited in {elapsed:.1f}s (< 30s)")
    check("drain:" in stderr, "SIGTERM: drain summary printed")
    return stderr


def drill_store_recovery(root: Path, model_dir: Path, check) -> None:
    print("drill 4: corrupt store is quarantined; results bit-identical")
    store_dir = root / "store-recovery"
    batch = [
        {"id": "a", "record": 0, "method": "single"},
        {"id": "b", "record": 1, "method": "single"},
        {"id": "stats", "op": "stats"},
        {"id": "bye", "op": "shutdown"},
    ]
    baseline = serve_jsonl(store_dir, model_dir, batch)
    check(
        all(r["ok"] for r in baseline.values()), "baseline session all ok"
    )

    truncate_file(store_dir / STORE_DB, keep_fraction=0.25)
    after = serve_jsonl(store_dir, model_dir, batch)
    check(
        all(r["ok"] for r in after.values()),
        "post-corruption session all ok (no crash, no garbage)",
    )
    quarantined = list(store_dir.glob(f"{STORE_DB}.corrupt-*"))
    check(bool(quarantined), "corrupt database quarantined to *.corrupt-<ts>")
    store_stats = after["stats"]["stats"]["store"]
    check(
        store_stats["recoveries"] >= 1, "recovery counted in store stats"
    )
    check(
        after["a"]["result"] == baseline["a"]["result"]
        and after["b"]["result"] == baseline["b"]["result"],
        "recomputed explanations bit-identical after recovery",
    )


def drill_midrequest_kill(root: Path, model_dir: Path, check) -> None:
    print("drill 5: SIGKILL mid-request does not poison the store")
    store_dir = root / "store-kill"
    lines = json.dumps({"id": "doomed", "record": 2, "method": "single"}) + "\n"
    process = subprocess.Popen(
        serve(store_dir, model_dir),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )
    # The kill lands while the server is somewhere between model load and
    # mid-computation — any point must leave a recoverable store.
    timer = kill_after(process, delay=2.0)
    try:
        process.communicate(input=lines, timeout=120)
    except subprocess.TimeoutExpired:
        stop(process, signal.SIGKILL)
    finally:
        timer.cancel()
    after = serve_jsonl(store_dir, model_dir, [
        {"id": "after", "record": 2, "method": "single"},
        {"id": "bye", "op": "shutdown"},
    ])
    check(
        after["after"]["ok"],
        "restart over the killed store serves correctly",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifacts-dir", type=Path, default=None,
        help="keep drill outputs here for CI artifact upload",
    )
    args = parser.parse_args(argv)
    drill = Drill("chaos_drill", args.artifacts_dir)

    with tempfile.TemporaryDirectory() as root_text:
        root = Path(root_text)
        model_dir = root / "models"
        drill_overload_and_deadline(root, model_dir, drill.check)
        drain_stderr = drill_sigterm_drain(root, model_dir, drill.check)
        drill_store_recovery(root, model_dir, drill.check)
        drill_midrequest_kill(root, model_dir, drill.check)
        drill.save({
            "chaos_transcript.txt": drill.transcript_text(),
            "drain_stderr.txt": drain_stderr,
        })

    return drill.finish()


if __name__ == "__main__":
    sys.exit(main())
