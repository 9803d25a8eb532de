"""Benchmark: the observability subsystem must cost (almost) nothing.

Runs the same explanation workload under three configurations —

* ``off``   — disabled registry, tracing off (the zero-cost baseline);
* ``metrics`` — live registry, tracing off (the default-on production path);
* ``full``  — live registry **and** span tracing enabled;

— and compares median wall-clock over ``--repeats`` rounds.  Two
assertions gate the exit code:

* every surrogate weight is **bit-identical** across all three
  configurations (observability must never perturb results);
* the ``metrics`` configuration stays within ``--max-overhead``
  (default 3%) of the ``off`` baseline.  The ``full`` overhead is
  reported but not gated: tracing is opt-in via ``--trace``.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke

``--smoke`` is the CI configuration (~30 s on one CPU);
``--artifacts-dir DIR`` keeps ``bench_obs_overhead.json``.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

from repro.core.engine import EngineConfig, PredictionEngine
from repro.core.landmark import LandmarkExplainer
from repro.data.splits import sample_per_label
from repro.data.synthetic.magellan import load_dataset
from repro.exceptions import ExplanationError
from repro.explainers.lime_text import LimeConfig
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import trace
from repro.testing.drill import run_bench


def run_workload(matcher, sample, samples, seed, *, metrics_on, tracing_on):
    """One pass over the sample; returns ``(weights, seconds, n_spans)``."""
    registry = MetricsRegistry(enabled=metrics_on)
    engine = PredictionEngine(matcher, EngineConfig(), metrics=registry)
    explainer = LandmarkExplainer(
        matcher,
        lime_config=LimeConfig(n_samples=samples, seed=seed),
        seed=seed,
        engine=engine,
    )
    if tracing_on:
        trace.enable()
        trace.clear()
    weights = []
    started = time.perf_counter()
    try:
        for pair in sample.pairs:
            try:
                dual = explainer.explain(pair)
            except ExplanationError:
                continue
            weights.append(dual.left_landmark.explanation.weights)
            weights.append(dual.right_landmark.explanation.weights)
        seconds = time.perf_counter() - started
        n_spans = len(trace.roots()) if tracing_on else 0
    finally:
        if tracing_on:
            trace.disable()
            trace.clear()
    return np.concatenate(weights), seconds, n_spans


def add_arguments(parser):
    parser.add_argument("--dataset", default="S-BR")
    parser.add_argument("--per-label", type=int, default=4)
    parser.add_argument("--samples", type=int, default=96)
    parser.add_argument("--size-cap", type=int, default=500)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--max-overhead", type=float, default=0.03,
        help="allowed metrics-on slowdown vs off, as a fraction (exit 1 above)",
    )


SMOKE = {"per_label": 2, "samples": 48, "repeats": 3}


def scenario(args, drill):
    dataset = load_dataset(args.dataset, seed=args.seed, size_cap=args.size_cap)
    matcher = LogisticRegressionMatcher().fit(dataset)
    sample = sample_per_label(dataset, args.per_label, seed=args.seed)
    print(
        f"workload: {args.dataset} ({len(dataset)} pairs), "
        f"{args.per_label}/label, {args.samples} perturbation samples, "
        f"median of {args.repeats} repeats"
    )

    configs = {
        "off": dict(metrics_on=False, tracing_on=False),
        "metrics": dict(metrics_on=True, tracing_on=False),
        "full": dict(metrics_on=True, tracing_on=True),
    }
    timings = {name: [] for name in configs}
    reference = {}
    drifted = set()
    for round_index in range(args.repeats):
        # Interleave configurations each round so drift (thermal, cache
        # warm-up) hits all three evenly instead of biasing one.
        for name, flags in configs.items():
            weights, seconds, n_spans = run_workload(
                matcher, sample, args.samples, args.seed, **flags
            )
            timings[name].append(seconds)
            if name not in reference:
                reference[name] = weights
            elif not np.array_equal(reference[name], weights):
                drifted.add(name)
            if name == "full" and round_index == 0:
                print(f"tracing captured {n_spans} root spans per pass")

    baseline = reference["off"]
    drill.check(
        not drifted,
        f"weights stable across repeats (drifted: {sorted(drifted)})",
    )
    for name in ("metrics", "full"):
        drill.check(
            np.array_equal(baseline, reference[name]),
            f"{name}: {baseline.size} weights bit-identical to the off "
            f"baseline",
        )

    medians = {n: statistics.median(t) for n, t in timings.items()}
    for name in configs:
        overhead = medians[name] / medians["off"] - 1.0
        print(
            f"{name:<8} median {medians[name]:.3f}s"
            + ("" if name == "off" else f"  ({overhead:+.1%} vs off)")
        )
    gated = medians["metrics"] / medians["off"] - 1.0
    delta = medians["metrics"] - medians["off"]
    # On sub-second workloads the ratio is dominated by timer noise; only
    # fail when the absolute cost is measurable too.
    drill.check(
        gated <= args.max_overhead or delta <= 0.010,
        f"metrics overhead {gated:+.1%} ({delta * 1000:+.1f} ms) within "
        f"+{args.max_overhead:.0%} or 10 ms",
    )
    return {
        "median_seconds": medians,
        "metrics_overhead": gated,
        "metrics_overhead_seconds": delta,
    }


def main(argv=None):
    return run_bench(
        "bench_obs_overhead", __doc__.splitlines()[0], add_arguments, SMOKE,
        scenario, argv=argv,
    )


if __name__ == "__main__":
    sys.exit(main())
