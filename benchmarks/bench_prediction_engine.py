"""Benchmark: matcher calls saved by the prediction engine.

Runs the same explanation + evaluation workload twice — once with the
engine's dedup/cache enabled, once fully transparent (``ENGINE_OFF``) —
and reports the matcher-call counts side by side.  Two assertions gate the
exit code:

* every explanation weight is **identical** between the two runs (the
  engine's correctness bar: not "close", equal);
* the engine issues at least ``--min-savings`` (default 1.5×) fewer
  matcher calls than the transparent run.

Usage::

    PYTHONPATH=src python benchmarks/bench_prediction_engine.py --smoke

``--smoke`` is the CI configuration (~30 s on one CPU);
``--artifacts-dir DIR`` keeps ``bench_prediction_engine.json``.
"""

from __future__ import annotations

import sys
import time

from repro.config import ALL_METHODS, METHOD_MOJITO_COPY
from repro.core.engine import ENGINE_OFF, EngineConfig, PredictionEngine
from repro.data.records import MATCH, NON_MATCH
from repro.data.splits import sample_per_label
from repro.data.synthetic.magellan import load_dataset
from repro.evaluation.interest_eval import interest_eval
from repro.evaluation.methods import MethodExplainers
from repro.evaluation.token_eval import token_removal_eval
from repro.exceptions import ExplanationError
from repro.explainers.lime_text import LimeConfig
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.testing.drill import run_bench


class CountingMatcher:
    """Counts the pair rows a matcher is asked to score."""

    def __init__(self, matcher):
        self.matcher = matcher
        self.rows_scored = 0

    def fit(self, dataset):
        self.matcher.fit(dataset)
        return self

    def predict_proba(self, pairs):
        self.rows_scored += len(pairs)
        return self.matcher.predict_proba(pairs)

    def predict_one(self, pair):
        return float(self.predict_proba([pair])[0])


def run_workload(matcher, sample, samples, seed, engine_config, threshold=0.5):
    """The evaluation-grid workload once, under one engine configuration.

    Returns ``(weights, engine, seconds)`` where *weights* maps every
    (pair, method) cell to its exact token-weight entries.
    """
    engine = PredictionEngine(matcher, engine_config)
    explainers = MethodExplainers(
        matcher,
        lime_config=LimeConfig(n_samples=samples, seed=seed),
        seed=seed,
        engine=engine,
    )
    eval_matcher = engine.as_matcher()
    weights = {}
    started = time.perf_counter()
    for label in (MATCH, NON_MATCH):
        methods = [
            m for m in ALL_METHODS
            if not (m == METHOD_MOJITO_COPY and label == MATCH)
        ]
        for method in methods:
            explained = []
            for pair in sample.by_label(label).pairs:
                try:
                    record = explainers.explain(method, pair)
                except ExplanationError:
                    continue
                explained.append(record)
                weights[(pair.pair_id, method)] = tuple(
                    (entry.key, entry.weight)
                    for entry in record.token_weights.entries
                )
            token_removal_eval(
                explained, eval_matcher, threshold=threshold, seed=seed
            )
            interest_eval(explained, eval_matcher, threshold=threshold)
        # The paper's recommended ("auto") dual rides the same records; its
        # perturbations coincide with the forced single/double columns.
        for pair in sample.by_label(label).pairs:
            try:
                dual = explainers.landmark.explain(pair)
            except ExplanationError:
                continue
            weights[(pair.pair_id, "auto")] = tuple(
                (entry.key, entry.weight) for entry in dual.combined().entries
            )
    return weights, engine, time.perf_counter() - started


def add_arguments(parser):
    parser.add_argument("--dataset", default="S-BR")
    parser.add_argument("--per-label", type=int, default=6)
    parser.add_argument("--samples", type=int, default=96)
    parser.add_argument("--size-cap", type=int, default=500)
    parser.add_argument("--n-jobs", type=int, default=1)
    parser.add_argument(
        "--min-savings", type=float, default=1.5,
        help="required requested/issued ratio (exit 1 below it)",
    )


SMOKE = {"per_label": 3, "samples": 48, "size_cap": 300}


def scenario(args, drill):
    dataset = load_dataset(args.dataset, seed=args.seed, size_cap=args.size_cap)
    matcher = LogisticRegressionMatcher().fit(dataset)
    sample = sample_per_label(dataset, args.per_label, seed=args.seed)
    print(
        f"workload: {args.dataset} ({len(dataset)} pairs), "
        f"{args.per_label}/label, {args.samples} perturbation samples"
    )

    off_matcher = CountingMatcher(matcher)
    off_weights, off_engine, off_seconds = run_workload(
        off_matcher, sample, args.samples, args.seed, ENGINE_OFF
    )
    on_matcher = CountingMatcher(matcher)
    on_weights, on_engine, on_seconds = run_workload(
        on_matcher, sample, args.samples, args.seed,
        EngineConfig(n_jobs=args.n_jobs),
    )

    stats = on_engine.stats
    print(f"engine off: {off_matcher.rows_scored} matcher calls, {off_seconds:.1f}s")
    print(f"engine on:  {on_matcher.rows_scored} matcher calls, {on_seconds:.1f}s")
    print(f"engine on:  {stats.summary()}")

    if drill.check(
        on_weights.keys() == off_weights.keys(),
        f"both runs explain the same {len(off_weights)} cells",
    ):
        mismatched = sum(off_weights[k] != on_weights[k] for k in off_weights)
        drill.check(
            not mismatched,
            f"weights exactly equal in all cells ({mismatched} differ)",
        )
    drill.check(
        stats.requested == off_matcher.rows_scored,
        f"request accounting: engine saw {stats.requested}, "
        f"transparent run issued {off_matcher.rows_scored}",
    )
    drill.check(
        stats.calls_issued + stats.calls_saved == stats.requested,
        "counter identity: issued + saved == requested",
    )
    ratio = stats.savings_factor
    drill.check(
        ratio >= args.min_savings,
        f"savings {ratio:.2f}x fewer matcher calls >= {args.min_savings}x",
    )
    return {
        "cells": len(off_weights),
        "engine_off_calls": off_matcher.rows_scored,
        "engine_on_calls": on_matcher.rows_scored,
        "engine_off_seconds": round(off_seconds, 4),
        "engine_on_seconds": round(on_seconds, 4),
        "savings_factor": round(ratio, 3),
    }


def main(argv=None):
    return run_bench(
        "bench_prediction_engine", __doc__.splitlines()[0], add_arguments,
        SMOKE, scenario, argv=argv,
    )


if __name__ == "__main__":
    sys.exit(main())
