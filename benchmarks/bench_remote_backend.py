"""Benchmark: remote matcher backend vs in-process, parity and throughput.

Two questions about the backend layer, answered per matcher type:

* **parity** — explanation weights computed through a
  :class:`~repro.backends.client.RemoteBackend` (a real socket to a
  :class:`~repro.backends.server.MatcherServer` in the same host) must be
  **bit-identical** to the in-process explanation for every request;
* **throughput** — with the pipelined client keeping at least two
  batches in flight, remote prediction throughput must stay within
  ``--min-ratio`` (default 0.7×) of in-process throughput.  Pipelining
  is what makes this possible: round-trips overlap with server compute
  instead of serializing behind each other.

The parity check runs for *every* matcher type.  The throughput gate
runs on the embedding matcher — the heaviest model here, standing in
for the heavy matchers the shared-server deployment exists for — with
concurrent callers, the shape service workers actually produce.  On a
single-core machine the ratio is *reported* but not gated (the server
process has no core of its own, so transport overhead cannot overlap
with compute), mirroring ``bench_shards.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_remote_backend.py --smoke

``--smoke`` is the CI configuration (~1-2 min): 6 records per matcher,
32 samples, 300-pair dataset.  ``--artifacts-dir DIR`` keeps the parity
and timings as ``bench_remote_backend.json``.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np

from repro.backends.client import RemoteBackend, RemoteBackendConfig
from repro.backends.server import MatcherServer
from repro.core.landmark import LandmarkExplainer
from repro.core.serialize import dual_digest
from repro.data.synthetic.magellan import load_dataset
from repro.explainers.lime_text import LimeConfig
from repro.matchers.boosting import GradientBoostedStumpsMatcher
from repro.matchers.embedding import EmbeddingMatcher
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.matchers.neural import MLPMatcher
from repro.matchers.rules import RuleBasedMatcher
from repro.testing.drill import run_bench

MATCHERS = {
    "logistic": LogisticRegressionMatcher,
    "mlp": MLPMatcher,
    "rules": RuleBasedMatcher,
    "boosted": GradientBoostedStumpsMatcher,
    "embedding": EmbeddingMatcher,
}


def _explain_all(matcher_like, pairs, samples: int, seed: int) -> list[str]:
    explainer = LandmarkExplainer(
        matcher_like,
        lime_config=LimeConfig(n_samples=samples, seed=seed),
        seed=seed,
    )
    return [dual_digest(explainer.explain(pair)) for pair in pairs]


def check_parity(name, matcher, pairs, samples, seed, config):
    """Digest-compare remote vs local explanations; returns mismatches."""
    local = _explain_all(matcher, pairs, samples, seed)
    with MatcherServer(matcher, workers=2) as server:
        backend = RemoteBackend(server.address, config=config)
        try:
            remote = _explain_all(backend.as_matcher(), pairs, samples, seed)
        finally:
            backend.close()
    return sum(a != b for a, b in zip(local, remote))


def _drive(predict, batch, rounds: int, callers: int) -> float:
    """Seconds for *callers* threads to each predict *batch* x *rounds*."""
    errors: list[BaseException] = []

    def work() -> None:
        try:
            for _ in range(rounds):
                predict(batch)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=work) for _ in range(callers)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return time.perf_counter() - started


def measure_throughput(matcher, pairs, rounds, chunk, callers, config):
    """Rows/second predicting *pairs*, in-process vs pipelined remote.

    Concurrent callers mimic the service's worker threads; the server-max
    *chunk* forces every call to split into pipelined in-flight batches.
    """
    batch = list(pairs)
    matcher.predict_proba(batch)  # warm caches outside the timed region
    local_seconds = _drive(matcher.predict_proba, batch, rounds, callers)

    with MatcherServer(matcher, max_batch_size=chunk, workers=4) as server:
        backend = RemoteBackend(server.address, config=config)
        try:
            # Connect and verify parity outside the timed region.
            identical = np.array_equal(
                backend.predict_proba(batch), matcher.predict_proba(batch)
            )
            remote_seconds = _drive(
                backend.predict_proba, batch, rounds, callers
            )
        finally:
            backend.close()
    in_flight = max(1, -(-len(batch) // chunk))  # ceil: chunks per call
    rows = len(batch) * rounds * callers
    return {
        "rows": rows,
        "callers": callers,
        "batches_identical": identical,
        "in_flight_batches": min(in_flight, config.max_in_flight),
        "local_rows_per_s": rows / local_seconds,
        "remote_rows_per_s": rows / remote_seconds,
        "ratio": local_seconds / remote_seconds,
    }


def add_arguments(parser):
    parser.add_argument("--dataset", default="S-BR")
    parser.add_argument("--records", type=int, default=12,
                        help="records explained per matcher type")
    parser.add_argument("--samples", type=int, default=64)
    parser.add_argument("--size-cap", type=int, default=500)
    parser.add_argument("--rounds", type=int, default=40,
                        help="prediction rounds per caller thread")
    parser.add_argument("--chunk", type=int, default=64,
                        help="server max batch (forces pipelined chunks)")
    parser.add_argument("--callers", type=int, default=4,
                        help="concurrent caller threads (service workers)")
    parser.add_argument(
        "--min-ratio", type=float, default=0.7,
        help="required remote/in-process throughput ratio (exit 1 below "
             "it; only gated on machines with >= 2 CPU cores)",
    )


SMOKE = {"records": 6, "samples": 32, "size_cap": 300, "rounds": 20}


def scenario(args, drill):
    config = RemoteBackendConfig(
        connect_timeout=10.0, call_timeout=120.0, max_retries=1,
        backoff=0.01, backoff_max=0.1,
    )
    dataset = load_dataset(args.dataset, seed=args.seed, size_cap=args.size_cap)
    pairs = list(dataset)[: args.records]
    parity = {}
    print(
        f"workload: {args.dataset}, {len(pairs)} records x "
        f"{len(MATCHERS)} matcher types, {args.samples} samples"
    )
    for name, cls in sorted(MATCHERS.items()):
        matcher = cls().fit(dataset)
        mismatched = check_parity(
            name, matcher, pairs, args.samples, args.seed, config
        )
        parity[name] = {"records": len(pairs), "mismatched": mismatched}
        drill.check(
            not mismatched,
            f"parity[{name}]: {len(pairs)} remote explanations bit-identical "
            f"({mismatched} differ)",
        )

    cores = os.cpu_count() or 1
    gated = cores >= 2
    throughput_pairs = (list(dataset) * 4)[: max(args.chunk * 4, 128)]
    matcher = EmbeddingMatcher().fit(dataset)
    throughput = measure_throughput(
        matcher, throughput_pairs, args.rounds, args.chunk,
        args.callers, config,
    )
    print(
        f"throughput: in-process {throughput['local_rows_per_s']:.0f} rows/s, "
        f"remote {throughput['remote_rows_per_s']:.0f} rows/s "
        f"({throughput['in_flight_batches']} batches in flight, "
        f"{args.callers} callers)"
    )
    drill.check(
        throughput["batches_identical"],
        "throughput batch scores equal in-process and remote",
    )
    drill.check(
        throughput["in_flight_batches"] >= 2,
        f"throughput workload kept {throughput['in_flight_batches']} "
        f"(>= 2) batches in flight",
    )
    verdict = (
        f"remote throughput {throughput['ratio']:.2f}x of in-process, "
        f"required {args.min_ratio}x"
    )
    if gated:
        drill.check(throughput["ratio"] >= args.min_ratio,
                    f"{verdict} on a {cores}-core machine")
    else:
        print(f"  [report-only on {cores} core(s)] {verdict}")
    return {
        "cpu_cores": cores,
        "ratio_gated": gated,
        "parity": parity,
        "throughput": {
            key: round(value, 3) if isinstance(value, float) else value
            for key, value in throughput.items()
        },
    }


def main(argv=None):
    return run_bench(
        "bench_remote_backend", __doc__.splitlines()[0], add_arguments,
        SMOKE, scenario, argv=argv,
    )


if __name__ == "__main__":
    sys.exit(main())
