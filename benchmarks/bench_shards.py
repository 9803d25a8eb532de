"""Benchmark: multi-process shard scaling of the explanation service.

Pushes one CPU-bound workload — distinct records, no store, no repeats,
so neither caching nor coalescing can flatter the numbers — through
:class:`~repro.service.supervisor.ShardedService` at 1 shard and at
``--shards`` (default 4) shards, and compares sustained throughput.

Python threads share one GIL, so the single-process service cannot use a
second core for the numpy-light parts of the pipeline; shard *processes*
can.  Two assertions gate the exit code:

* every N-shard result is **bit-identical** to the 1-shard result for
  the same record (process placement never changes a bit);
* with at least ``--shards`` CPU cores available, N shards keep the
  parallel efficiency (speed-up ÷ shards) that ``--min-speedup``
  (default 2.5×) sets at 4 shards: at least 0.625, so 2.5× at 4 shards
  and 1.25× at 2.

On machines with fewer cores than shards (e.g. a 1-CPU container) the
speedup is *reported* but not gated — there is nothing to scale onto —
so the benchmark still exercises the full sharded path everywhere.

``--transport tcp`` additionally runs the same N-shard workload through
the cross-host fleet path — real ``serve-shard`` host processes on
localhost, dialed over TCP — asserts its results are bit-identical to
both pipe runs, and reports the TCP transport overhead (fleet seconds
vs pipe seconds) in ``bench_shards.json`` under ``--artifacts-dir DIR``.

Usage::

    PYTHONPATH=src python benchmarks/bench_shards.py --smoke

``--smoke`` is the CI configuration (~2 min): 24 requests, 48 samples.
"""

from __future__ import annotations

import os
import sys
import time

from repro.config import ServiceConfig, ShardConfig
from repro.data.synthetic.magellan import load_dataset
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.service import ExplainRequest, ShardedService
from repro.service.transport import parse_fleet_config
from repro.testing.drill import fleet_document, run_bench, spawn_shard_hosts

#: Shard count ``--min-speedup`` is stated at.  Any other ``--shards``
#: must reach the same parallel efficiency (speed-up / shards), so two
#: shards are never asked for more than linear scaling.
GATE_SHARDS = 4


def run_fleet(matcher, requests, n_shards: int, workers: int,
              transport: str = "pipe"):
    """The workload through *n_shards* shards; returns (results, seconds)."""
    hosts = []
    fleet = None
    if transport == "tcp":
        hosts = spawn_shard_hosts(n_shards)
        fleet = parse_fleet_config(
            fleet_document([host.address for host in hosts])
        )
    service = ShardedService(
        matcher,
        config=ServiceConfig(n_workers=workers, queue_size=4096),
        shard_config=ShardConfig(n_shards=n_shards),
        fleet=fleet,
    )
    try:
        started = time.perf_counter()
        futures = [service.submit(request) for request in requests]
        payloads = [future.result() for future in futures]
        seconds = time.perf_counter() - started
        stats = service.stats_payload()
    finally:
        service.close()
        for host in hosts:  # drained on close; reap stragglers
            host.stop(timeout=30)
    return payloads, seconds, stats


def add_arguments(parser):
    parser.add_argument("--dataset", default="S-BR")
    parser.add_argument("--requests", type=int, default=48,
                        help="distinct records to explain")
    parser.add_argument("--samples", type=int, default=96)
    parser.add_argument("--size-cap", type=int, default=500)
    parser.add_argument("--method", default="single",
                        choices=("single", "double", "both"))
    parser.add_argument("--shards", type=int, default=GATE_SHARDS,
                        help="shard count to compare against 1 shard")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker threads inside every shard")
    parser.add_argument(
        "--min-speedup", type=float, default=2.5,
        help=f"required {GATE_SHARDS}-shard/1-shard throughput ratio; other "
             f"--shards need the same parallel efficiency (speed-up / "
             f"shards >= min-speedup / {GATE_SHARDS}); exit 1 below it, "
             f"only gated when the machine has >= --shards cores",
    )
    parser.add_argument(
        "--transport", choices=("pipe", "tcp"), default="pipe",
        help="tcp: also run the N-shard workload through serve-shard "
             "hosts over TCP, assert bit-identity and report the "
             "transport overhead",
    )


SMOKE = {"requests": 24, "samples": 48, "size_cap": 300}


def scenario(args, drill):
    cores = os.cpu_count() or 1
    gated = cores >= args.shards
    dataset = load_dataset(args.dataset, seed=args.seed, size_cap=args.size_cap)
    matcher = LogisticRegressionMatcher().fit(dataset)
    requests = [
        ExplainRequest(
            pair=dataset[i], method=args.method,
            samples=args.samples, seed=args.seed,
        )
        for i in range(min(args.requests, len(dataset)))
    ]
    print(
        f"workload: {args.dataset}, {len(requests)} distinct requests, "
        f"method={args.method}, {args.samples} samples; "
        f"{cores} CPU core(s), speedup gate "
        f"{'ON' if gated else 'OFF (needs >= %d cores)' % args.shards}"
    )

    single, single_seconds, _ = run_fleet(matcher, requests, 1, args.workers)
    print(
        f"1 shard:  {single_seconds:.2f}s "
        f"({len(requests) / single_seconds:.2f} req/s)"
    )
    fleet, fleet_seconds, fleet_stats = run_fleet(
        matcher, requests, args.shards, args.workers
    )
    speedup = single_seconds / fleet_seconds
    print(
        f"{args.shards} shards: {fleet_seconds:.2f}s "
        f"({len(requests) / fleet_seconds:.2f} req/s)"
    )
    per_shard = {
        shard_id: stats["service"]["requests"]
        for shard_id, stats in sorted(fleet_stats["shards"].items())
    }
    print(f"distribution across shards: {per_shard}")

    mismatched = sum(a != b for a, b in zip(single, fleet))
    drill.check(
        not mismatched,
        f"all {len(fleet)} results bit-identical across shard counts "
        f"({mismatched} differ)",
    )
    drill.check(
        min(per_shard.values() or [0]) > 0,
        f"every shard served requests: {per_shard}",
    )
    efficiency = speedup / args.shards
    min_efficiency = args.min_speedup / GATE_SHARDS
    verdict = (
        f"parallel efficiency {efficiency:.3f} (speedup {speedup:.2f}x over "
        f"{args.shards} shards), required {min_efficiency:.3f} "
        f"({args.min_speedup}x at {GATE_SHARDS} shards)"
    )
    if gated:
        drill.check(efficiency >= min_efficiency, verdict)
    else:
        print(f"  [report-only on {cores} core(s)] {verdict}")

    tcp_seconds = None
    tcp_overhead = None
    if args.transport == "tcp":
        tcp_fleet, tcp_seconds, _ = run_fleet(
            matcher, requests, args.shards, args.workers, transport="tcp"
        )
        tcp_overhead = tcp_seconds / fleet_seconds - 1.0
        print(
            f"{args.shards} shards over TCP: {tcp_seconds:.2f}s "
            f"({len(requests) / tcp_seconds:.2f} req/s, "
            f"{tcp_overhead:+.1%} vs pipe)"
        )
        tcp_mismatched = sum(a != b for a, b in zip(fleet, tcp_fleet))
        drill.check(
            not tcp_mismatched,
            f"all {len(tcp_fleet)} TCP-fleet results bit-identical to pipe "
            f"({tcp_mismatched} differ)",
        )
    return {
        "cpu_cores": cores,
        "speedup_gated": gated,
        "single_shard_seconds": round(single_seconds, 4),
        "fleet_seconds": round(fleet_seconds, 4),
        "speedup": round(speedup, 3),
        "parallel_efficiency": round(efficiency, 4),
        "per_shard_requests": per_shard,
        "fleet_stats": fleet_stats,
        "tcp_fleet_seconds": (
            None if tcp_seconds is None else round(tcp_seconds, 4)
        ),
        "tcp_transport_overhead": (
            None if tcp_overhead is None else round(tcp_overhead, 4)
        ),
    }


def main(argv=None):
    return run_bench(
        "bench_shards", __doc__.splitlines()[0], add_arguments, SMOKE,
        scenario, argv=argv,
    )


if __name__ == "__main__":
    sys.exit(main())
