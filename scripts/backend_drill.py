#!/usr/bin/env python
"""Kill-the-matcher chaos drill of backend serving (CI backend-chaos job).

Boots the real ``repro-em serve-matcher`` reference server from a saved
``--model-dir`` artifact, a real ``repro-em serve --http --shards 2
--backend host:port`` fleet on top of it, puts the fleet under sustained
load, SIGKILLs the matcher *server* process, and asserts the backend
layer's contract:

1. **zero lost requests** — every admitted request gets a terminal
   response; requests caught in the outage receive the *retryable*
   ``backend_unavailable`` 503 (or ride a transparent client reconnect)
   and every retry succeeds once the matcher is back;
2. **degraded, not down** — while the matcher is dead, shard breakers
   open and ``/healthz`` stays 200 with shards listing
   ``backend_unavailable``; the fleet never reports itself down;
3. **recovery** — restarting ``serve-matcher`` on the same address with
   the same artifact heals the fleet automatically: clients reconnect,
   half-open probes close the breakers, ``/healthz`` returns to fully
   healthy with no supervisor restart needed (the shards never died);
4. **identity** — the restarted server must present the *same* model
   fingerprint (same artifact), exercising the reconnect pin;
5. **clean drain** — SIGTERM drains the fleet and stops the matcher
   server, both with exit code 0.

Everything is observable from the outside; a failure reproduces.  Run
locally with::

    PYTHONPATH=src python scripts/backend_drill.py

Pass ``--artifacts-dir DIR`` to keep the server logs and the final
health JSON for CI upload.
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

from repro.testing.drill import (
    Drill,
    Retry,
    cli,
    fetch,
    run_load,
    spawn,
    wait_health,
)

SEED = 11
N_SHARDS = 2
#: The first six select the dataset/artifact (shared with ``train`` and
#: ``serve-matcher``); ``--samples`` only exists on ``serve``.
DATASET_ARGS = [
    "--dataset", "S-BR", "--size-cap", "150", "--seed", str(SEED),
    "--samples", "32",
]
SHARD_ARGS = [
    "--shards", str(N_SHARDS),
    "--heartbeat-interval", "0.1",
    "--heartbeat-timeout", "5.0",
    "--restart-backoff", "0.2",
    "--drain-timeout", "30",
]
#: Retryable wire codes during the outage window: the drill retries
#: these, and the retries must succeed — anything else is a lost request.
RETRY = Retry(
    codes=frozenset({
        "backend_unavailable", "matcher_unavailable", "matcher_timeout",
        "shard_failed", "overloaded", "cancelled",
    }),
    attempts=10,
    backoff=0.3,
)
#: Seconds each load thread waits before a request, so the load spans
#: the whole outage window instead of draining before the kill lands.
PACE = 0.05


def boot_matcher(model_dir: Path, port: int):
    """Boot ``serve-matcher`` from the artifact on *port* (0: ephemeral)."""
    return spawn(
        cli(
            "serve-matcher",
            *DATASET_ARGS[:6],  # dataset/size-cap/seed select the artifact
            "--model-dir", str(model_dir),
            "--host", "127.0.0.1", "--port", str(port),
        ),
        "serving matcher on ", "serve-matcher",
    )


def _fingerprint_of(banner: str) -> str:
    """The fingerprint token of a ``serving matcher on ...`` banner."""
    return banner.split("fingerprint ")[1].split(",")[0]


def backend_degraded_shards(health: dict) -> list[str]:
    """Shard ids whose inner health reports the backend unavailable."""
    return [
        shard_id
        for shard_id, entry in health.get("shards", {}).items()
        if entry.get("degraded") == "backend_unavailable"
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifacts-dir", type=Path, default=None,
        help="keep server logs and the final health JSON here for CI upload",
    )
    parser.add_argument("--requests", type=int, default=40)
    args = parser.parse_args(argv)
    drill = Drill("backend_drill", args.artifacts_dir)
    check = drill.check

    final_health: dict = {}
    with tempfile.TemporaryDirectory() as root_text:
        root = Path(root_text)
        model_dir = root / "models"

        print("drill: training the artifact serve-matcher will load")
        trained = subprocess.run(
            cli("train", *DATASET_ARGS[:6], "--model-dir", str(model_dir)),
            capture_output=True, text=True, timeout=600,
        )
        check(trained.returncode == 0, "train --model-dir saves the artifact")

        matcher = boot_matcher(model_dir, 0)
        backend = matcher.address
        fleet = spawn(
            cli(
                "serve", *DATASET_ARGS,
                "--store-dir", str(root / "store"), "--backend", backend,
                "--http", "127.0.0.1:0", *SHARD_ARGS,
            ),
            "serving on ", "serve --http --backend",
        )
        url = fleet.address
        restarted = None
        try:
            print(f"drill: fleet up at {url} over matcher at {backend}")
            reply = fetch(url + "/explain", {"record": 0, "method": "single"})
            check(reply.status == 200, "priming request succeeds")
            reply = fetch(url + "/healthz")
            check(reply.status == 200, "healthz is 200 with the matcher up")
            check(
                not backend_degraded_shards(reply.body),
                "no shard reports backend_unavailable before the kill",
            )

            print("drill: sustained load, then SIGKILL the matcher server")
            load = run_load(url, args.requests, RETRY, pace=PACE)
            time.sleep(0.5)  # let the load reach both shards
            matcher.stop(signal.SIGKILL)

            # Shard breakers open as in-flight calls fail; /healthz must
            # show degradation while never reporting the fleet down.
            ok, _, health = wait_health(
                url,
                lambda s, h: s == 200 and bool(backend_degraded_shards(h)),
                timeout=30, interval=0.05,
            )
            degraded_seen = backend_degraded_shards(health) if ok else []
            check(
                bool(degraded_seen),
                f"healthz 200 with shards degraded backend_unavailable "
                f"(saw {degraded_seen})",
            )

            print("drill: restarting serve-matcher on the same address")
            restarted = boot_matcher(model_dir, int(backend.rsplit(":", 1)[1]))
            check(
                _fingerprint_of(restarted.banner)
                == _fingerprint_of(matcher.banner),
                "restarted server presents the same model fingerprint",
            )

            recovered, _, health = wait_health(
                url,
                lambda s, h: s == 200
                and not h.get("degraded")
                and not backend_degraded_shards(h),
                timeout=60,
            )
            check(recovered, "fleet healthz fully healthy after restart")
            restarts = [
                entry.get("restarts", 0)
                for entry in health.get("shards", {}).values()
            ]
            check(
                all(count == 0 for count in restarts),
                f"recovery needed no shard restarts (got {restarts}): the "
                f"clients reconnected",
            )

            load.join()
            check(
                load.completed == args.requests,
                f"zero lost requests: {load.completed}/{args.requests} "
                f"completed ({load.retried} retried, "
                f"{len(load.lost)} lost: {load.lost[:3]})",
            )
            reply = fetch(url + "/explain", {"record": 1, "method": "single"})
            check(reply.status == 200, "post-recovery request succeeds")

            check(
                "repro_backend_" in fetch(url + "/metrics").text,
                "metrics expose the per-backend series",
            )
            final_health = fetch(url + "/healthz").body

            print("drill: SIGTERM drains the fleet, then the matcher server")
            code = fleet.stop()
            check(code == 0, f"fleet SIGTERM: clean exit code (got {code})")
            code = restarted.stop(timeout=30)
            check(code == 0, f"matcher SIGTERM: clean exit code (got {code})")
        finally:
            for child in (fleet, matcher, restarted):
                if child is not None:
                    child.stop(signal.SIGKILL)

        drill.save({
            "backend_transcript.txt": drill.transcript_text(),
            "fleet_log.txt": fleet.log_text(),
            "matcher_log.txt": matcher.log_text() + "\n--- restart ---\n"
            + (restarted.log_text() if restarted is not None else ""),
            "backend_health.json": json.dumps(
                final_health, indent=2, sort_keys=True
            ),
        })

    return drill.finish()


if __name__ == "__main__":
    sys.exit(main())
