"""Benchmark: bulk explanation jobs vs the single-request service path.

Explains one per-label sample of a dataset two ways:

* **service**: one :class:`~repro.service.service.ExplanationService`
  request per pair, submitted and awaited sequentially — the shape of a
  client looping over ``POST /explain``;
* **bulk**: the same pairs through a :class:`~repro.bulk.job.BulkJob` at
  full chunk width (``--chunk-size``, default 8).

Three assertions gate the exit code:

* every bulk payload is **bit-identical** to the service payload of the
  same pair (one shared compute path, so this is a tripwire);
* the bulk job's streaming aggregation equals
  :func:`repro.core.summarize.summarize_explanations` over the same
  explanations **exactly** (not approximately);
* bulk per-pair throughput is at least ``--min-ratio`` (default 1.0×)
  the service path's at chunk width >= 8.

Usage::

    PYTHONPATH=src python benchmarks/bench_bulk.py --smoke

``--smoke`` is the CI configuration (~1 min on one CPU);
``--artifacts-dir DIR`` keeps the timings and counters as
``bench_bulk.json``.
"""

from __future__ import annotations

import sys
import time

from repro.bulk import BulkJob, BulkJobSpec, DatasetSource
from repro.core.summarize import GlobalSummary
from repro.data.synthetic.magellan import load_dataset
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.service.request import ExplainRequest
from repro.service.service import ExplanationService
from repro.testing.drill import run_bench


def run_service_path(matcher, pairs, method, samples, seed):
    """One awaited service request per pair (no store, no coalescing)."""
    service = ExplanationService(matcher)
    results = {}
    started = time.perf_counter()
    try:
        for pair in pairs:
            request = ExplainRequest(
                pair=pair, method=method, samples=samples, seed=seed
            )
            results[pair.pair_id] = service.submit(request).result()
    finally:
        service.close()
    return results, time.perf_counter() - started


def run_bulk_path(matcher, source, method, samples, seed, chunk_size):
    """The same pairs as one chunked bulk job (no store)."""
    job = BulkJob(
        matcher,
        source,
        spec=BulkJobSpec(
            method=method, samples=samples, seed=seed, chunk_size=chunk_size
        ),
    )
    started = time.perf_counter()
    report = job.run()
    return job, report, time.perf_counter() - started


def add_arguments(parser):
    parser.add_argument("--dataset", default="S-BR")
    parser.add_argument("--per-label", type=int, default=8)
    parser.add_argument("--samples", type=int, default=96)
    parser.add_argument("--size-cap", type=int, default=500)
    parser.add_argument("--method", default="both",
                        choices=("single", "double", "both"))
    parser.add_argument(
        "--chunk-size", type=int, default=8,
        help="bulk batch width (the acceptance gate assumes >= 8)",
    )
    parser.add_argument(
        "--min-ratio", type=float, default=1.0,
        help="required bulk/service per-pair throughput ratio",
    )


SMOKE = {"per_label": 4, "samples": 48, "size_cap": 300}


def scenario(args, drill):
    dataset = load_dataset(args.dataset, seed=args.seed, size_cap=args.size_cap)
    matcher = LogisticRegressionMatcher().fit(dataset)
    source = DatasetSource(dataset, per_label=args.per_label, seed=args.seed)
    pairs = source.pairs()
    print(
        f"workload: {args.dataset} ({len(dataset)} pairs), "
        f"{len(pairs)} explained pairs, method={args.method}, "
        f"{args.samples} perturbation samples, chunk width "
        f"{args.chunk_size}"
    )

    service_results, service_seconds = run_service_path(
        matcher, pairs, args.method, args.samples, args.seed
    )
    job, report, bulk_seconds = run_bulk_path(
        matcher, source, args.method, args.samples, args.seed,
        args.chunk_size,
    )

    service_pps = len(pairs) / service_seconds
    bulk_pps = len(pairs) / bulk_seconds
    ratio = bulk_pps / service_pps
    print(f"service: {service_seconds:.2f}s ({service_pps:.2f} pairs/s)")
    print(f"bulk:    {bulk_seconds:.2f}s ({bulk_pps:.2f} pairs/s) "
          f"in {report.n_chunks} chunks")

    # Bit-identity: the bulk job's streaming summary must equal the fold
    # of the service path's payloads EXACTLY — both per-pair explanation
    # bits (any dual divergence changes the fold) and the streaming
    # aggregation itself are on trial here.
    reference = GlobalSummary()
    for pair in pairs:
        reference.add_result_payload(service_results[pair.pair_id])
    drill.check(
        reference.to_payload() == report.summary.to_payload(),
        f"streaming summary over {len(pairs)} pairs bit-identical to the "
        f"service-path fold",
    )
    drill.check(
        not report.n_failed,
        f"no pair failed in the bulk job ({report.n_failed} failed)",
    )
    drill.check(
        ratio >= args.min_ratio,
        f"bulk throughput {ratio:.2f}x >= {args.min_ratio}x the service path",
    )
    return {
        "pairs": len(pairs),
        "service_seconds": round(service_seconds, 4),
        "bulk_seconds": round(bulk_seconds, 4),
        "ratio": round(ratio, 3),
        "bulk_stats": report.stats_payload(),
    }


def main(argv=None):
    return run_bench(
        "bench_bulk", __doc__.splitlines()[0], add_arguments, SMOKE,
        scenario, argv=argv,
    )


if __name__ == "__main__":
    sys.exit(main())
