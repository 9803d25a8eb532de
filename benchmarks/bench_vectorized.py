"""Benchmark: the vectorized perturbation → reconstruction → predict path.

Explains the same records twice — once through the per-row oracle (an
engine-less :class:`~repro.core.reconstruction.DatasetReconstructor`:
one pair rebuild per mask row, one ``predict_proba`` on the rebuilt
pairs) and once through the engine's columnar path — and gates the exit
code on three assertions:

* every explanation weight is **identical** between the two runs (the
  vectorization correctness bar: not "close", equal);
* the columnar path explains a single record at least ``--min-speedup``
  times faster (default 5×);
* a service answering N concurrent requests through the cross-request
  batch scheduler (``batch_window_ms > 0``) returns exactly the payloads
  of N sequential un-batched requests.

The workload is a synthetic wide textual schema (10 attributes × 8-word
values by default) — the shape the paper's long-attribute datasets put on
the hot path.

Usage::

    PYTHONPATH=src python benchmarks/bench_vectorized.py --smoke

``--smoke`` is the CI configuration (~30 s on one CPU); its speedup floor
is relaxed to 2× because shared CI runners time noisily.
``--artifacts-dir DIR`` keeps the measurements as ``bench_vectorized.json``.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.config import ServiceConfig
from repro.core.generation import GENERATION_DOUBLE, GENERATION_SINGLE
from repro.core.landmark import LandmarkExplainer
from repro.core.reconstruction import DatasetReconstructor
from repro.data.records import EMDataset, MATCH, NON_MATCH, RecordPair
from repro.data.schema import PairSchema
from repro.explainers.lime_text import LimeConfig
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.service.request import ExplainRequest
from repro.service.service import ExplanationService, duals_from_result
from repro.testing.drill import run_bench


def build_workload(
    n_attrs: int, n_tokens: int, n_pairs: int, seed: int
) -> EMDataset:
    """A deterministic wide textual dataset (long, many-token values)."""
    rng = np.random.default_rng(seed)
    attributes = tuple(f"attr{i}" for i in range(n_attrs))
    schema = PairSchema(attributes)
    vocabulary = [f"word{i:04d}" for i in range(500)]

    def record() -> dict[str, str]:
        return {
            attribute: " ".join(rng.choice(vocabulary, size=n_tokens))
            for attribute in attributes
        }

    pairs = []
    for index in range(n_pairs):
        left = record()
        if index % 2 == 0:
            right = {
                attribute: value
                if rng.random() < 0.7
                else " ".join(rng.choice(vocabulary, size=n_tokens))
                for attribute, value in left.items()
            }
            label = MATCH
        else:
            right = record()
            label = NON_MATCH
        pairs.append(
            RecordPair(schema=schema, left=left, right=right, label=label)
        )
    return EMDataset(name="bench-wide", schema=schema, pairs=tuple(pairs))


def weight_cells(dual) -> tuple:
    """The exact (key, weight) entries of one dual explanation."""
    return tuple(
        (entry.key, entry.weight) for entry in dual.combined().entries
    )


def run_explanations(dataset, columnar, n_records, samples, seed):
    """Explain ``n_records`` pairs; returns (per-record seconds, weights).

    ``columnar=False`` is the per-row oracle: the explainer's masks go
    through an engine-less dataset reconstructor, and the generation is
    resolved by the matcher directly.  A fresh matcher per arm: the timed
    runs must not inherit each other's memo caches.
    """
    matcher = LogisticRegressionMatcher().fit(dataset)
    explainer = LandmarkExplainer(
        matcher,
        lime_config=LimeConfig(n_samples=samples, seed=seed),
        seed=seed,
    )
    if not columnar:
        explainer.dataset_reconstructor = DatasetReconstructor(
            matcher, explainer.reconstructor
        )

    def explain(pair):
        if columnar:
            return explainer.explain(pair)
        probability = matcher.predict_one(pair)
        return explainer.explain(
            pair,
            GENERATION_SINGLE
            if probability >= explainer.threshold
            else GENERATION_DOUBLE,
        )

    # Warm both arms identically (numpy/cache first-touch effects) on a
    # record outside the timed set.
    explain(dataset[n_records])
    seconds = []
    weights = []
    for index in range(n_records):
        started = time.perf_counter()
        dual = explain(dataset[index])
        seconds.append(time.perf_counter() - started)
        weights.append(weight_cells(dual))
    return seconds, weights


def payload_weights(payload: dict) -> tuple:
    """The exact weight cells of every dual inside a service payload."""
    return tuple(
        (generation, weight_cells(dual))
        for generation, dual in sorted(duals_from_result(payload).items())
    )


def run_service_check(dataset, n_requests, samples, seed):
    """1-vs-N: sequential un-batched service vs concurrent batched one.

    Returns ``(n_mismatched_payloads, merged_batches)``.
    """
    matcher = LogisticRegressionMatcher().fit(dataset)
    requests = [
        ExplainRequest(pair=dataset[index], samples=samples, seed=seed)
        for index in range(n_requests)
    ]

    with ExplanationService(
        matcher, config=ServiceConfig(n_workers=1, coalesce=False)
    ) as sequential:
        baseline = [
            payload_weights(sequential.explain(request))
            for request in requests
        ]

    with ExplanationService(
        matcher,
        config=ServiceConfig(
            n_workers=4,
            coalesce=False,
            batch_window_ms=5.0,
            batch_max_size=4096,
        ),
    ) as batched:
        futures = [batched.submit(request) for request in requests]
        merged = [payload_weights(future.result(120)) for future in futures]
        merges = sum(
            value
            for metric in batched.metrics.collect()
            if metric["name"] == "repro_engine_batch_merges_total"
            for _labels, value in metric["samples"]
        )

    mismatched = sum(
        1 for before, after in zip(baseline, merged) if before != after
    )
    return mismatched, merges


def add_arguments(parser):
    parser.add_argument("--n-attrs", type=int, default=10)
    parser.add_argument("--n-tokens", type=int, default=8)
    parser.add_argument("--n-pairs", type=int, default=80)
    parser.add_argument("--n-records", type=int, default=4)
    parser.add_argument("--samples", type=int, default=256)
    parser.add_argument("--service-requests", type=int, default=6)
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="required per-record speedup (default 5.0, smoke 2.0)",
    )


SMOKE = {"n_pairs": 60, "n_records": 2, "samples": 128, "service_requests": 4}


def scenario(args, drill):
    if args.min_speedup is None:
        args.min_speedup = 2.0 if args.smoke else 5.0
    dataset = build_workload(
        args.n_attrs, args.n_tokens, args.n_pairs, args.seed
    )
    print(
        f"workload: {args.n_attrs} attrs x {args.n_tokens} tokens, "
        f"{len(dataset)} pairs, {args.n_records} records explained, "
        f"{args.samples} perturbation samples"
    )

    off_seconds, off_weights = run_explanations(
        dataset, False, args.n_records, args.samples, args.seed
    )
    on_seconds, on_weights = run_explanations(
        dataset, True, args.n_records, args.samples, args.seed
    )
    off_mean = sum(off_seconds) / len(off_seconds)
    on_mean = sum(on_seconds) / len(on_seconds)
    speedup = off_mean / on_mean
    print(f"per-row oracle:  {off_mean * 1000:.1f} ms per record")
    print(f"columnar path:   {on_mean * 1000:.1f} ms per record")

    mismatched = sum(
        1 for before, after in zip(off_weights, on_weights) if before != after
    )
    drill.check(
        not mismatched,
        f"weights exactly equal between the per-row oracle and the columnar "
        f"path ({mismatched}/{args.n_records} records differ)",
    )
    drill.check(
        speedup >= args.min_speedup,
        f"speedup {speedup:.2f}x >= the {args.min_speedup}x floor",
    )

    service_mismatched, merges = run_service_check(
        dataset, args.service_requests, min(args.samples, 128), args.seed
    )
    drill.check(
        not service_mismatched,
        f"{args.service_requests} cross-request-batched service payloads "
        f"exactly equal sequential ones ({service_mismatched} differ, "
        f"{merges} cross-request merges)",
    )
    return {
        "per_pair_seconds": off_seconds,
        "columnar_seconds": on_seconds,
        "per_pair_mean_seconds": off_mean,
        "columnar_mean_seconds": on_mean,
        "speedup": speedup,
        "cross_request_merges": merges,
    }


def main(argv=None):
    return run_bench(
        "bench_vectorized", __doc__.splitlines()[0], add_arguments, SMOKE,
        scenario, seed=7, argv=argv,
    )


if __name__ == "__main__":
    sys.exit(main())
