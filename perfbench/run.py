"""The repository benchmark: one command, three seeded workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload explain-short --seed 1 \
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures an
untraced phase, sets up afresh and measures the same inputs again with
every layer's public functions wrapped, and reports the per-layer metrics
(spans are written to ``.perfbench-out/traces/``).  Either way the
outputs go through the correctness gate outside the timed window, and
the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only for a correct run.  ``--latency-limit-ms`` is
the goodput limit: a request counts toward ``goodput_rps`` only when it
succeeded within it.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metric units, in report order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_eps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "goodput_rps": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("explain-short", "bulk-long", "serve-skewed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--latency-limit-ms", type=float, default=1000.0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # Unwind through the finally blocks that stop child processes.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    signal.signal(signal.SIGTERM, _terminate)

    from perfbench import layers, workloads
    from perfbench.harness import host_facts, repeated_setup
    from perfbench.tracer import Tracer

    out_dir = ROOT / ".perfbench-out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}"
    workloads.cleanup(workdir)
    workdir.mkdir(parents=True)
    limit_s = args.latency_limit_ms / 1000.0
    workload = workloads.make(args.workload, ROOT, args.seed, workdir)
    tracer = Tracer() if args.trace else None
    try:
        setup_s, state = repeated_setup(workload.setup, workload.teardown)
        try:
            phase = untraced = workload.phase(state, args.seconds, None)
            if tracer is not None:
                # Same seed, same inputs, nothing warm from the first phase.
                workload.teardown(state)
                state = workload.setup()
                phase = workload.phase(state, args.seconds, tracer)
            problems = workload.gate(state, phase)
        finally:
            workload.teardown(state)
    finally:
        workloads.cleanup(workdir)

    if tracer is not None:
        trace_dir = out_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = layers.layer_metrics(
            tracer,
            phase.engine_delta,
            phase.store_delta,
            phase.service_delta,
            phase.queue_waits,
            phase.chunk_seconds,
            phase.capacity / untraced.capacity if untraced.capacity else 0.0,
        )
        units = layers.PER_LAYER_UNITS
    else:
        metrics = workloads.end_to_end(phase, setup_s, limit_s)
        units = END_TO_END_UNITS

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host " + json.dumps(host_facts(ROOT, args.seed), sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    failed_ratio = phase.failed / phase.attempted if phase.attempted else 0.0
    print(f"  {'failed_ratio':<28} {failed_ratio:>14.6g} "
          f"({phase.failed}/{phase.attempted})")
    print("validity " + json.dumps(phase.validity, sort_keys=True))
    for problem in problems:
        print(f"CORRECTNESS: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
