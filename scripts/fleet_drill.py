#!/usr/bin/env python
"""Cross-host fleet chaos drill: kill a host AND partition another (CI).

The full partition-tolerance scenario on one machine, with nothing
mocked: three real ``serve-shard`` host processes plus one standby, a
``serve --fleet --http`` supervisor dialing them over TCP (shard 1
through an in-drill :class:`~repro.testing.chaos.ChaosProxy`), and an
unharmed ``--shards 3`` pipe run as the control.  Asserted contract:

1. **zero lost admitted requests** — through a SIGKILLed host *and* a
   network partition, every admitted request gets a terminal response;
   retryable 503s (``shard_failed`` / ``host_lost``) retried by the
   client all succeed;
2. **host loss ≠ crash** — the killed host is declared lost (reconnects
   refused, not just dropped) and its shard id is replaced onto the
   standby, which rebuilds its store partition cold;
3. **partition ≠ death** — the partitioned shard is detected by
   heartbeat silence (its sockets never reset), reads degraded-not-down
   while one host is out, and *reconnects warm* after the partition
   heals;
4. **quorum honesty** — with the partition and a second host kill in
   flight simultaneously, ``/healthz`` flips to 503 ``quorum_lost``;
   after the heal it returns to degraded-200 with the dead host listed
   in ``lost_hosts``;
5. **byte identity** — explanation weights served by the mangled TCP
   fleet equal the unharmed pipe run's byte for byte;
6. **clean drain** — SIGTERM drains the supervisor (exit 0) and every
   surviving shard host process exits on its own.

Run locally with::

    PYTHONPATH=src python scripts/fleet_drill.py

Pass ``--artifacts-dir DIR`` to keep the supervisor log, health
snapshots and the weight comparison for CI upload.
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

from repro.testing.chaos import ChaosProxy
from repro.testing.drill import (
    Drill,
    Retry,
    cli,
    fetch,
    fleet_document,
    post_retrying,
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
#: Retryable wire codes of the load: the drill retries these, and the
#: retries must succeed — anything else is a lost request.
LOAD_RETRY = Retry(
    codes=frozenset({"shard_failed", "host_lost", "overloaded", "cancelled"}),
    attempts=6,
    backoff=0.2,
)
#: Weight fetches retry any non-200 reply.
WEIGHTS_RETRY = Retry(codes=None, attempts=6, backoff=0.3)
CONTROL_RECORDS = list(range(10))


def boot_http(root: Path, store: str, *fleet_args: str):
    """The sharded ``serve --http`` supervisor on an ephemeral port."""
    return spawn(
        cli(
            "serve", *DATASET_ARGS,
            "--store-dir", str(root / store), "--model-dir", str(root / "models"),
            "--http", "127.0.0.1:0", *SHARD_ARGS, *fleet_args,
        ),
        "serving on ", "serve --http --shards",
    )


def weights_for(url: str, records: list[int]) -> dict[int, dict]:
    """The full explanation result for *records*, keyed by record.

    The whole ``result`` payload — landmark dual weights included — must
    be byte-identical across transports, so the comparison is wholesale.
    """
    weights = {}
    for record in records:
        reply, _ = post_retrying(
            url + "/explain", {"record": record, "method": "single"},
            WEIGHTS_RETRY,
        )
        if reply.status != 200:
            raise SystemExit(
                f"record {record} never served: {reply.status} {reply.text}"
            )
        weights[record] = reply.body["result"]
    return weights


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifacts-dir", type=Path, default=None,
        help="keep logs, health snapshots and weight comparisons here",
    )
    parser.add_argument("--requests", type=int, default=30)
    args = parser.parse_args(argv)
    drill = Drill("fleet_drill", args.artifacts_dir)
    check = drill.check
    health_snapshots: dict[str, dict] = {}

    with tempfile.TemporaryDirectory() as root_text:
        root = Path(root_text)

        print("drill: control run — unharmed pipe fleet")
        control = boot_http(root, "control-store")
        try:
            control_weights = weights_for(control.address, CONTROL_RECORDS)
        finally:
            control.stop()

        print(f"drill: spawning {N_SHARDS} serve-shard hosts + 1 standby, "
              f"shard 1 behind a chaos proxy")
        hosts = spawn_shard_hosts(N_SHARDS + 1, root)
        addresses = [host.address for host in hosts]
        shard1_host, shard1_port = addresses[1].rsplit(":", 1)
        proxy = ChaosProxy(shard1_host, int(shard1_port))
        proxy.start()
        addresses[1] = f"{proxy.host}:{proxy.port}"
        fleet_path = root / "fleet.json"
        fleet_path.write_text(json.dumps(fleet_document(
            addresses[:N_SHARDS], addresses[N_SHARDS:]
        ), indent=2))

        children = list(hosts)
        try:
            server = boot_http(
                root, "store", "--fleet", str(fleet_path), *FLEET_ARGS
            )
            url = server.address
            children.append(server)
            reply = fetch(url + "/healthz")
            health = reply.body
            check(
                reply.status == 200
                and len(health.get("shards", {})) == N_SHARDS,
                "fleet up: healthz 200 with every shard adopted over TCP",
            )
            health_snapshots["healthy"] = health

            # ---- phase A: kill a whole host under load ---------------
            print(f"drill: sustained load, SIGKILL host 0 "
                  f"(pid {hosts[0].process.pid})")
            load = run_load(url, args.requests, LOAD_RETRY)
            time.sleep(0.5)
            os.kill(hosts[0].process.pid, signal.SIGKILL)

            ok, status, health = wait_health(
                url,
                lambda s, h: s == 200 and "0" in h.get("degraded", [])
                or h.get("shards", {}).get("0", {}).get("restarts", 0) >= 1,
            )
            degraded_seen = "0" in health.get("degraded", [])
            health_snapshots["host0_killed"] = health
            load.join()
            check(
                load.completed == args.requests,
                f"zero lost requests through the host kill: "
                f"{load.completed}/{args.requests} completed "
                f"({load.retried} retried, {len(load.lost)} lost: "
                f"{load.lost[:3]})",
            )
            if degraded_seen:
                check(True, "one killed host read degraded, not down")

            ok, status, health = wait_health(
                url,
                lambda s, h: s == 200
                and h.get("shards", {}).get("0", {}).get("state") == "live"
                and hosts[0].address in h.get("lost_hosts", []),
            )
            check(ok, "killed host declared lost; shard 0 replaced onto "
                      "the standby")
            check(
                health.get("shards", {}).get("0", {}).get("host")
                == hosts[-1].address,
                "healthz maps shard 0 to the standby host",
            )
            health_snapshots["standby_replaced"] = health

            # ---- phase B: partition + second kill = quorum loss ------
            print("drill: partitioning shard 1, then SIGKILL host 2")
            proxy.partition()
            ok, status, health = wait_health(
                url,
                lambda s, h: h.get("shards", {}).get("1", {}).get("state")
                != "live",
            )
            check(ok, "partition detected by heartbeat silence alone")
            check(
                proxy.dropped_chunks > 0,
                f"the partition really dropped bytes "
                f"({proxy.dropped_chunks} chunks)",
            )
            health_snapshots["partitioned"] = health

            os.kill(hosts[2].process.pid, signal.SIGKILL)
            ok, status, health = wait_health(
                url, lambda s, h: s == 503 and h.get("reason") == "quorum_lost"
            )
            check(ok, "partition + second host kill reads 503 quorum_lost")
            health_snapshots["quorum_lost"] = health

            print("drill: healing the partition")
            proxy.heal()
            ok, status, health = wait_health(
                url,
                lambda s, h: s == 200
                and h.get("shards", {}).get("1", {}).get("state") == "live",
                timeout=60.0,
            )
            check(ok, "healed partition: shard 1 reconnected and quorum "
                      "restored")
            check(
                health.get("shards", {}).get("1", {}).get("restarts", 0) >= 1,
                "the reconnect is counted as a restart",
            )
            # Declaring host 2 lost takes host_loss_after failed connect
            # cycles; give the supervisor time to finish knocking.
            ok, status, health = wait_health(
                url,
                lambda s, h: s == 200
                and hosts[2].address in h.get("lost_hosts", []),
            )
            check(
                ok,
                "the second dead host stays listed as lost (no standby "
                "left) while the fleet reads degraded-not-down",
            )
            health_snapshots["healed"] = health

            # The partitioned host kept its service warm: re-adoption
            # must not have rebuilt it.
            load_b = run_load(url, args.requests, LOAD_RETRY)
            load_b.join()
            check(
                load_b.completed == args.requests,
                f"zero lost requests after the heal: "
                f"{load_b.completed}/{args.requests} "
                f"({load_b.retried} retried, {len(load_b.lost)} lost)",
            )

            # ---- byte identity vs the unharmed control ---------------
            print("drill: comparing explanation weights with the control")
            try:
                fleet_weights = weights_for(url, CONTROL_RECORDS)
            except SystemExit as refused:
                check(False, f"fleet refused to serve weights: {refused}")
                fleet_weights = {}
            mismatched = [
                record for record in CONTROL_RECORDS
                if fleet_weights.get(record) != control_weights[record]
            ]
            check(
                not mismatched,
                f"weights byte-identical to the unharmed pipe run "
                f"({len(CONTROL_RECORDS)} records"
                + (f"; mismatched: {mismatched}" if mismatched else "")
                + ")",
            )

            # ---- drain -----------------------------------------------
            print("drill: SIGTERM drains the fleet")
            code = server.stop()
            check(code == 0, f"SIGTERM: clean exit code (got {code})")
            survivors = [hosts[1], hosts[3]]  # hosts 0 and 2 were killed
            drained = sum(
                wait_until(lambda: host.process.poll() is not None, 30)
                for host in survivors
            )
            check(
                drained == len(survivors),
                f"drain shut down {drained}/{len(survivors)} surviving "
                f"shard hosts",
            )
        finally:
            proxy.close()
            for child in children:
                child.stop(signal.SIGKILL)

        drill.save({
            "fleet_transcript.txt": drill.transcript_text(),
            "fleet_supervisor_log.txt": server.log_text(),
            "fleet_health_snapshots.json": json.dumps(
                health_snapshots, indent=2, sort_keys=True
            ),
            "fleet_weights.json": json.dumps(
                {"control": control_weights, "fleet": fleet_weights},
                indent=2, sort_keys=True, default=str,
            ),
        })

    return drill.finish()


if __name__ == "__main__":
    sys.exit(main())
