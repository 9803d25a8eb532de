#!/usr/bin/env python
"""Kill-a-shard chaos drill of multi-process serving (CI shard-chaos job).

Boots the real ``repro-em serve --http --shards 3`` CLI, puts it under
sustained load, SIGKILLs one shard *process* (pid taken from
``/healthz``, exactly what an OOM killer would do), and asserts the
supervisor's contract:

1. **zero lost requests** — every admitted request gets a terminal
   response; waiters stranded on the dead shard either fail over
   transparently or receive the *retryable* ``shard_failed`` 503, and
   every retry succeeds — no client is ever left hanging and no request
   silently vanishes;
2. **degraded, not down** — while the shard is dead, ``/healthz`` stays
   200 with the victim listed in ``degraded`` (the ring routes around
   it); it never reports the whole service down;
3. **recovery** — the supervisor restarts the shard (capped backoff) and
   ``/healthz`` returns to fully healthy with ``restarts`` incremented;
4. **observability** — ``/metrics`` rolls up per-shard series
   (``shard="N"`` labels) and counts the death and restart;
5. **clean drain** — SIGTERM still drains the whole fleet within its
   budget, exit code 0.

Everything is observable from the outside; a failure reproduces.  Run
locally with::

    PYTHONPATH=src python scripts/shard_drill.py

``--transport tcp`` runs the identical drill over the cross-host fleet
path instead of spawned pipe shards: real ``serve-shard`` host processes
on localhost, a ``--fleet`` supervisor dialing them over TCP, and a
standby host that must adopt the victim's shard id after the SIGKILL
(host loss, not crash-restart).  The two transports must behave
identically from the outside — same zero-lost-request contract, same
degraded-not-down reading, same clean drain.

Pass ``--artifacts-dir DIR`` to keep the supervisor log and the final
metrics JSON for CI upload.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
import time
from pathlib import Path

from repro.testing.drill import (
    Drill,
    Retry,
    cli,
    fetch,
    fleet_document,
    run_load,
    spawn,
    spawn_shard_hosts,
    wait_health,
    wait_until,
)

SEED = 11
N_SHARDS = 3
DATASET_ARGS = [
    "--dataset", "S-BR", "--size-cap", "150", "--samples", "32",
    "--seed", str(SEED),
]
SHARD_ARGS = [
    "--shards", str(N_SHARDS),
    "--heartbeat-interval", "0.1",
    "--heartbeat-timeout", "2.0",
    "--restart-backoff", "0.2",
    "--drain-timeout", "30",
]
FLEET_ARGS = [
    "--connect-timeout", "1.0",
    "--connect-budget", "2.0",
    "--host-loss-after", "2",
]
#: Retryable wire codes: the drill retries these, and the retries must
#: succeed — anything else is a lost request.
RETRY = Retry(
    codes=frozenset({"shard_failed", "host_lost", "overloaded", "cancelled"}),
    attempts=6,
    backoff=0.2,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifacts-dir", type=Path, default=None,
        help="keep the supervisor log and metrics JSON here for CI upload",
    )
    parser.add_argument("--requests", type=int, default=40)
    parser.add_argument(
        "--transport", choices=("pipe", "tcp"), default="pipe",
        help="pipe: spawned shard processes (default); tcp: serve-shard "
             "host processes behind --fleet, with a standby replacing "
             "the killed host",
    )
    args = parser.parse_args(argv)
    drill = Drill(f"shard_drill ({args.transport})", args.artifacts_dir)
    check = drill.check

    metrics_document: dict = {}
    with tempfile.TemporaryDirectory() as root_text:
        root = Path(root_text)
        hosts: list = []
        shard_args = list(SHARD_ARGS)
        if args.transport == "tcp":
            print(f"drill: spawning {N_SHARDS} serve-shard hosts + 1 standby")
            hosts = spawn_shard_hosts(N_SHARDS + 1, root)
            addresses = [host.address for host in hosts]
            fleet_path = root / "fleet.json"
            fleet_path.write_text(json.dumps(fleet_document(
                addresses[:N_SHARDS], addresses[N_SHARDS:]
            ), indent=2))
            shard_args += ["--fleet", str(fleet_path), *FLEET_ARGS]
        children = list(hosts)
        try:
            server = spawn(
                cli(
                    "serve", *DATASET_ARGS,
                    "--store-dir", str(root / "store"),
                    "--model-dir", str(root / "models"),
                    "--http", "127.0.0.1:0", *shard_args,
                ),
                "serving on ", "serve --http --shards",
            )
            url = server.address
            children.append(server)
            print("drill: sharded server up; priming and reading /healthz")
            reply = fetch(url + "/explain", {"record": 0, "method": "single"})
            check(reply.status == 200, "priming request succeeds")
            reply = fetch(url + "/healthz")
            health = reply.body
            check(reply.status == 200, "healthz is 200 with all shards live")
            check(
                len(health.get("shards", {})) == N_SHARDS,
                f"healthz reports {N_SHARDS} shards",
            )
            victim_id = "0"
            if args.transport == "tcp":
                # The victim is the whole host process, whose pid the
                # drill owns; health instead names its host address.
                victim_pid = hosts[0].process.pid
                check(
                    health["shards"][victim_id]["host"] == hosts[0].address,
                    "healthz maps the victim shard to its fleet host",
                )
            else:
                victim_pid = health["shards"][victim_id]["pid"]
                check(
                    bool(victim_pid), "healthz exposes the victim shard's pid"
                )

            print(f"drill: sustained load, then SIGKILL shard {victim_id} "
                  f"(pid {victim_pid})")
            load = run_load(url, args.requests, RETRY)
            time.sleep(1.0)  # let the load reach every shard
            os.kill(victim_pid, signal.SIGKILL)

            # While the victim is down (slow-ish restart backoff would
            # widen this window; with 0.2s it's tight), the service must
            # not report itself down.  A restart seen first means the
            # window was missed, which is not a failure.
            _, status, health = wait_health(
                url,
                lambda s, h: s == 200 and victim_id in h.get("degraded", [])
                or h.get("shards", {}).get(victim_id, {}).get("restarts"),
                timeout=10, interval=0.05,
            )
            degraded_seen = status == 200 and victim_id in health.get(
                "degraded", []
            )
            load.join()
            check(
                load.completed == args.requests,
                f"zero lost requests: {load.completed}/{args.requests} "
                f"completed ({load.retried} retried, "
                f"{len(load.lost)} lost: {load.lost[:3]})",
            )
            if degraded_seen:
                check(True, "healthz reported degraded (not down) while dead")

            print("drill: waiting for supervisor restart")
            recovered, _, health = wait_health(
                url,
                lambda s, h: s == 200
                and h.get("shards", {}).get(victim_id, {}).get("state") == "live"
                and h["shards"][victim_id].get("restarts", 0) >= 1
                and not h.get("degraded"),
            )
            check(recovered, "killed shard restarted and healthz fully healthy")
            if args.transport == "tcp":
                health = fetch(url + "/healthz").body
                check(
                    hosts[0].address in health.get("lost_hosts", []),
                    "healthz lists the killed host as lost",
                )
                check(
                    health["shards"][victim_id]["host"] == hosts[-1].address,
                    "victim shard id was replaced onto the standby host",
                )
                check(
                    health.get("standbys_available") == 0,
                    "the standby pool is spent",
                )
            reply = fetch(url + "/explain", {"record": 0, "method": "single"})
            check(reply.status == 200, "post-recovery request succeeds")

            metrics_text = fetch(url + "/metrics").text
            check(
                all(f'shard="{i}"' in metrics_text for i in range(N_SHARDS)),
                "metrics roll up every shard with shard labels",
            )
            check(
                "repro_shard_restarts" in metrics_text,
                "metrics count the supervisor restart",
            )
            if args.transport == "tcp":
                check(
                    'host="' in metrics_text,
                    "remote shard series carry host labels",
                )
            reply = fetch(url + "/explain", {"op": "metrics"})
            check(
                reply.status == 200,
                "metrics op returns the fleet JSON document",
            )
            metrics_document = reply.body.get("metrics", {})

            print("drill: SIGTERM drains the fleet")
            code = server.stop()
            check(code == 0, f"SIGTERM: clean exit code (got {code})")
            check("drain:" in server.log_text(), "drain summary printed")
            if args.transport == "tcp":
                # The supervisor's drain decommissions every adopted
                # host: their processes must exit on their own.
                drained_hosts = sum(
                    wait_until(lambda: host.process.poll() is not None, 30)
                    for host in hosts[1:]
                )
                check(
                    drained_hosts == len(hosts) - 1,
                    f"drain shut down {drained_hosts}/{len(hosts) - 1} "
                    f"surviving shard hosts",
                )
        finally:
            for child in children:
                child.stop(signal.SIGKILL)

        drill.save({
            "shard_transcript.txt": drill.transcript_text(),
            "supervisor_log.txt": server.log_text(),
            "shard_metrics.json": json.dumps(
                metrics_document, indent=2, sort_keys=True
            ),
        })

    return drill.finish()


if __name__ == "__main__":
    sys.exit(main())
