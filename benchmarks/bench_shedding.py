"""Benchmark: admission control keeps admitted latency flat under overload.

Measures the service in two phases:

* **unloaded** — distinct cold requests one at a time through a service
  with no admission control; their median latency is the baseline an
  interactive caller experiences;
* **overload burst** — a simultaneous burst of distinct cold requests at
  4× the worker capacity, against a second service whose
  ``max_queue_wait`` is calibrated to half the unloaded median (its
  latency EMA pre-warmed with a few sequential requests).

Two assertions gate the exit code:

* the median latency of **admitted** burst requests stays within
  ``--max-p50-ratio`` (default 1.5×) of the unloaded median — shedding
  converts overload into fast rejections instead of queue bloat;
* every non-admitted request is shed with
  :class:`~repro.exceptions.ServiceOverloadedError` (``code:
  "overloaded"``, the HTTP 429 of the in-process API) carrying a
  positive ``retry_after``, and the service ``shed`` counter agrees.

Usage::

    PYTHONPATH=src python benchmarks/bench_shedding.py --smoke

``--smoke`` is the CI configuration (~20 s on one CPU);
``--artifacts-dir DIR`` keeps the timings and counters as
``bench_shedding.json``.
"""

from __future__ import annotations

import statistics
import sys
import time

from repro.config import ServiceConfig
from repro.data.synthetic.magellan import load_dataset
from repro.exceptions import ServiceOverloadedError
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.service.request import ExplainRequest
from repro.service.service import ExplanationService
from repro.testing.chaos import overload_burst
from repro.testing.drill import run_bench

#: Burst size as a multiple of the worker capacity.
OVERLOAD_FACTOR = 4

#: Sequential requests run through the burst service before the burst,
#: so its latency EMA (the shed policy's service-time estimate) is warm.
WARMUP_REQUESTS = 2


def timed_explain(service, pair, samples, seed):
    """``(elapsed_seconds, payload)`` of one synchronous request."""
    request = ExplainRequest(
        pair=pair, method="both", samples=samples, seed=seed
    )
    started = time.perf_counter()
    payload = service.explain(request)
    return time.perf_counter() - started, payload


def add_arguments(parser):
    parser.add_argument("--dataset", default="S-BR")
    parser.add_argument("--size-cap", type=int, default=500)
    parser.add_argument("--samples", type=int, default=512)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker threads (default 1: meaningful on a 1-core runner)",
    )
    parser.add_argument(
        "--burst", type=int, default=None,
        help=f"burst size (default: {OVERLOAD_FACTOR}x workers, min 8)",
    )
    parser.add_argument(
        "--unloaded-requests", type=int, default=8,
        help="sequential requests measured for the baseline median",
    )
    parser.add_argument(
        "--max-p50-ratio", type=float, default=1.5,
        help="required admitted-p50 / unloaded-p50 bound (exit 1 above it)",
    )


SMOKE = {"size_cap": 300, "unloaded_requests": 6}


def scenario(args, drill):
    dataset = load_dataset(args.dataset, seed=args.seed, size_cap=args.size_cap)
    matcher = LogisticRegressionMatcher().fit(dataset)
    args.burst = args.burst or max(8, OVERLOAD_FACTOR * args.workers)
    needed = args.unloaded_requests + WARMUP_REQUESTS + args.burst
    if len(dataset) < needed:
        raise SystemExit(
            f"dataset too small: {len(dataset)} pairs < {needed} needed"
        )
    print(
        f"workload: {args.dataset} ({len(dataset)} pairs), "
        f"{args.workers} worker(s), burst {args.burst} requests, "
        f"{args.samples} perturbation samples"
    )

    # Phase 1: unloaded median — distinct cold records, one at a time,
    # no admission control.
    with ExplanationService(
        matcher, config=ServiceConfig(n_workers=args.workers)
    ) as unloaded_service:
        unloaded = [
            timed_explain(
                unloaded_service, dataset[index], args.samples, args.seed
            )[0]
            for index in range(args.unloaded_requests)
        ]
    unloaded_p50 = statistics.median(unloaded)
    max_queue_wait = unloaded_p50 / 2
    print(
        f"unloaded: p50 {unloaded_p50:.3f}s over {len(unloaded)} requests "
        f"-> max_queue_wait {max_queue_wait:.3f}s"
    )

    # Phase 2: simultaneous burst against a shedding service whose wait
    # bound admits only work it can start promptly.
    service = ExplanationService(
        matcher,
        config=ServiceConfig(
            n_workers=args.workers, max_queue_wait=max_queue_wait
        ),
    )
    offset = args.unloaded_requests
    for index in range(WARMUP_REQUESTS):  # warm the latency EMA
        timed_explain(service, dataset[offset + index], args.samples, args.seed)
    offset += WARMUP_REQUESTS

    def burst_call(slot):
        return timed_explain(
            service, dataset[offset + slot], args.samples, args.seed
        )

    outcomes = overload_burst(burst_call, args.burst)
    stats = service.stats
    service.close()

    admitted = [o for o in outcomes if isinstance(o, tuple)]
    shed = [o for o in outcomes if isinstance(o, ServiceOverloadedError)]
    other = [
        o for o in outcomes
        if not isinstance(o, (tuple, ServiceOverloadedError))
    ]
    admitted_p50 = (
        statistics.median(latency for latency, _ in admitted)
        if admitted else float("inf")
    )
    ratio = admitted_p50 / unloaded_p50 if unloaded_p50 else float("inf")
    print(
        f"burst: {len(admitted)} admitted (p50 {admitted_p50:.3f}s), "
        f"{len(shed)} shed, {len(other)} other"
    )

    drill.check(bool(admitted), "some burst requests were admitted")
    drill.check(bool(shed), "the overload burst shed requests")
    drill.check(
        not other,
        f"no burst request failed otherwise: "
        f"{[type(o).__name__ for o in other]}",
    )
    bad_codes = sum(e.code != "overloaded" for e in shed)
    drill.check(
        not bad_codes, f"every shed carries code=overloaded ({bad_codes} not)"
    )
    bad_retry = sum(not e.retry_after > 0 for e in shed)
    drill.check(
        not bad_retry,
        f"every shed carries a retry_after hint ({bad_retry} not)",
    )
    drill.check(
        stats.shed == len(shed),
        f"shed counter {stats.shed} == observed sheds {len(shed)}",
    )
    drill.check(
        ratio <= args.max_p50_ratio,
        f"admitted p50 {ratio:.2f}x unloaded <= {args.max_p50_ratio}x",
    )
    return {
        "max_queue_wait": round(max_queue_wait, 4),
        "unloaded_p50_seconds": round(unloaded_p50, 4),
        "admitted_p50_seconds": round(admitted_p50, 4),
        "p50_ratio": round(ratio, 3),
        "admitted": len(admitted),
        "shed": len(shed),
        "stats": stats.as_dict(),
    }


def main(argv=None):
    return run_bench(
        "bench_shedding", __doc__.splitlines()[0], add_arguments, SMOKE,
        scenario, argv=argv,
    )


if __name__ == "__main__":
    sys.exit(main())
