"""Benchmark: serving throughput of the explanation service.

Replays a realistic request mix — a handful of hot records, each asked
for repeatedly, interleaved — through two paths:

* **baseline**: the sequential explain loop (one fresh explainer per
  request, the shape of running ``repro-em explain`` per request);
* **service**: the same mix through :class:`~repro.service.
  ExplanationService` with its persistent store, request coalescing and
  worker pool over one shared prediction engine.

Two assertions gate the exit code:

* every service result is **bit-identical** to the baseline explanation
  of the same record (scheduling and caching never change a bit);
* the service sustains at least ``--min-speedup`` (default 3×) the
  baseline throughput.

The service/store/engine counters (hits, coalesced, latency) are printed
and, with ``--artifacts-dir DIR``, kept in ``bench_service_throughput.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py --smoke

``--smoke`` is the CI configuration (~30 s on one CPU).
"""

from __future__ import annotations

import random
import sys
import tempfile
import time

from repro.config import ServiceConfig
from repro.core.engine import EngineConfig, PredictionEngine
from repro.core.landmark import LandmarkExplainer
from repro.core.serialize import dual_to_dict
from repro.data.splits import sample_per_label
from repro.data.synthetic.magellan import load_dataset
from repro.explainers.lime_text import LimeConfig
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.service.request import ExplainRequest
from repro.service.service import ExplanationService
from repro.service.store import ExplanationStore
from repro.testing.drill import run_bench


def build_mix(pairs, repeats: int, seed: int):
    """The request mix: every hot pair *repeats* times, interleaved."""
    mix = [pair for pair in pairs for _ in range(repeats)]
    random.Random(seed).shuffle(mix)
    return mix


def run_baseline(matcher, mix, method: str, samples: int, seed: int):
    """The sequential explain loop: a fresh pipeline per request."""
    generations = ("single", "double") if method == "both" else (method,)
    results = {}
    started = time.perf_counter()
    for pair in mix:
        explainer = LandmarkExplainer(
            matcher,
            lime_config=LimeConfig(n_samples=samples, seed=seed),
            seed=seed,
            engine=PredictionEngine(matcher, EngineConfig()),
        )
        duals = {
            generation: dual_to_dict(explainer.explain(pair, generation))
            for generation in generations
        }
        results[pair.pair_id] = duals
    return results, time.perf_counter() - started


def run_service(matcher, mix, method, samples, seed, store_dir, workers):
    """The same mix through the service; returns results + wall time."""
    store = ExplanationStore(store_dir)
    service = ExplanationService(
        matcher,
        store=store,
        config=ServiceConfig(n_workers=workers),
    )
    started = time.perf_counter()
    futures = [
        service.submit(
            ExplainRequest(pair=pair, method=method, samples=samples, seed=seed)
        )
        for pair in mix
    ]
    payloads = [future.result() for future in futures]
    seconds = time.perf_counter() - started
    service.close()
    stats = service.stats_payload()
    store.close()
    return payloads, seconds, stats


def add_arguments(parser):
    parser.add_argument("--dataset", default="S-BR")
    parser.add_argument("--per-label", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=6,
                        help="times each hot record is requested")
    parser.add_argument("--samples", type=int, default=96)
    parser.add_argument("--size-cap", type=int, default=500)
    parser.add_argument("--method", default="both",
                        choices=("single", "double", "both"))
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--min-speedup", type=float, default=3.0,
        help="required service/baseline throughput ratio (exit 1 below it)",
    )


SMOKE = {"per_label": 3, "samples": 48, "size_cap": 300}


def scenario(args, drill):
    dataset = load_dataset(args.dataset, seed=args.seed, size_cap=args.size_cap)
    matcher = LogisticRegressionMatcher().fit(dataset)
    hot = sample_per_label(dataset, args.per_label, seed=args.seed).pairs
    mix = build_mix(hot, args.repeats, args.seed)
    print(
        f"workload: {args.dataset} ({len(dataset)} pairs), "
        f"{len(hot)} hot records x {args.repeats} repeats = "
        f"{len(mix)} requests, method={args.method}, "
        f"{args.samples} perturbation samples"
    )

    baseline, baseline_seconds = run_baseline(
        matcher, mix, args.method, args.samples, args.seed
    )
    with tempfile.TemporaryDirectory() as store_dir:
        payloads, service_seconds, stats = run_service(
            matcher, mix, args.method, args.samples, args.seed,
            store_dir, args.workers,
        )

    baseline_rps = len(mix) / baseline_seconds
    service_rps = len(mix) / service_seconds
    speedup = service_rps / baseline_rps
    service_stats = stats["service"]
    print(f"baseline: {baseline_seconds:.2f}s ({baseline_rps:.1f} req/s)")
    print(f"service:  {service_seconds:.2f}s ({service_rps:.1f} req/s) "
          f"with {args.workers} workers")
    print(
        f"service:  {service_stats['computed']} computed, "
        f"{service_stats['store_hits']} store hits, "
        f"{service_stats['coalesced']} coalesced, "
        f"latency mean {service_stats['latency_mean']:.3f}s "
        f"max {service_stats['latency_max']:.3f}s"
    )

    mismatched = sum(
        payload["duals"] != baseline[payload["pair_id"]]
        for payload in payloads
    )
    drill.check(
        not mismatched,
        f"all {len(payloads)} service results bit-identical to the baseline "
        f"({mismatched} differ)",
    )
    computed = service_stats["computed"]
    drill.check(
        computed == len(hot),
        f"one computation per hot record: {computed} of {len(hot)} expected",
    )
    served_cheap = service_stats["store_hits"] + service_stats["coalesced"]
    drill.check(
        served_cheap == len(mix) - len(hot),
        f"the rest served by store hits + coalesces: {served_cheap} of "
        f"{len(mix) - len(hot)} expected",
    )
    drill.check(
        speedup >= args.min_speedup,
        f"speedup {speedup:.2f}x >= {args.min_speedup}x",
    )
    return {
        "hot_records": len(hot),
        "requests": len(mix),
        "baseline_seconds": round(baseline_seconds, 4),
        "service_seconds": round(service_seconds, 4),
        "speedup": round(speedup, 3),
        "stats": stats,
    }


def main(argv=None):
    return run_bench(
        "bench_service_throughput", __doc__.splitlines()[0], add_arguments,
        SMOKE, scenario, argv=argv,
    )


if __name__ == "__main__":
    sys.exit(main())
