"""The ``repro-em`` command line.

Sub-commands:

* ``datasets`` — print Table 1 (nominal, or measured with ``--materialize``)
  and optionally export the synthetic CSVs.
* ``train`` — train a matcher on one dataset and print its quality report.
* ``explain`` — explain one record of a dataset with Landmark Explanation
  (and optionally the baselines) and print the rendered explanations.
* ``experiment`` — run the full evaluation protocol and print Tables 2-4
  (``--preset fast`` by default; ``--preset paper`` reproduces the paper's
  sample sizes).
* ``summarize`` — aggregate explanations over many records into a global
  model summary (the paper's future-work direction).
* ``serve`` — run the long-lived explanation service (JSONL over
  stdin/stdout, or a localhost HTTP endpoint with ``--http``), backed by
  the persistent explanation store.  With ``--backend HOST:PORT`` the
  service computes no predictions locally: every matcher call goes to a
  shared ``serve-matcher`` process.
* ``serve-matcher`` — run the standalone matcher server one or many
  service shards dial with ``--backend``.
* ``serve-shard`` — run one standing shard host of a cross-host fleet;
  a ``serve --fleet fleet.json`` supervisor adopts it over TCP and it
  keeps its engines and store partition warm across supervisor
  disconnects (partitions).
* ``precompute`` — warm the explanation store for a dataset split,
  resumable with ``--resume`` (the store-only bulk job in
  :mod:`repro.bulk.warm`).
* ``bulk`` — dataset-scale bulk explanation job: stream a pair source
  (dataset rows, blocker candidates, an explicit pair list, or an
  external CSV via ``--input``) through the prediction engine in chunks,
  deduplicate against the explanation store, fold every explanation into
  a streaming global aggregation report, and journal completed chunks so
  ``--resume`` reproduces an uninterrupted run byte-for-byte.

``train``, ``explain``, ``serve`` and ``precompute`` accept
``--model-dir``: trained matchers are persisted there as fingerprinted
artifacts and reused instead of retraining on every invocation.  On the
serving paths (``serve-matcher``) artifact loading is *strict*: a
fingerprint mismatch is :class:`~repro.exceptions.ArtifactMismatchError`,
never a silent retrain.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

from repro.backends import DEFAULT_MAX_BATCH_SIZE
from repro.backends.protocol import DEFAULT_HOST
from repro.backends.server import DEFAULT_WORKERS
from repro.blocking import InvertedIndexBlocker
from repro.bulk import BulkJobSpec
from repro.config import (
    PRESETS,
    ExperimentConfig,
    ServiceConfig,
    ShardConfig,
    StoreConfig,
    get_preset,
)
from repro.core.engine import EngineConfig, PredictionEngine
from repro.data.io import write_csv
from repro.data.splits import sample_per_label
from repro.data.synthetic.magellan import (
    DATASET_CODES,
    load_benchmark,
    load_dataset,
    table1_rows,
)
from repro.core.counterfactual import DEFAULT_MAX_EDITS
from repro.core.generation import GENERATION_DOUBLE, GENERATION_SINGLE
from repro.core.landmark import GENERATION_AUTO, LandmarkExplainer
from repro.core.summarize import summarize_explanations
from repro.baselines.mojito import MojitoCopyExplainer, MojitoDropExplainer
from repro.evaluation.runner import ExperimentRunner
from repro.evaluation.tables import format_all_tables, format_table1
from repro.exceptions import ExplanationError, ReproError
from repro.explainers.lime_text import LimeConfig
from repro.matchers.base import DEFAULT_THRESHOLD
from repro.matchers.evaluate import evaluate_matcher
from repro.matchers.boosting import GradientBoostedStumpsMatcher
from repro.matchers.embedding import EmbeddingMatcher
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.matchers.neural import MLPMatcher
from repro.matchers.rules import RuleBasedMatcher
from repro.service.request import (
    REQUEST_EXPLAINERS,
    REQUEST_METHODS,
    ExplainRequest,
)

_MATCHERS = {
    "logistic": LogisticRegressionMatcher,
    "mlp": MLPMatcher,
    "rules": RuleBasedMatcher,
    "boosted": GradientBoostedStumpsMatcher,
    "embedding": EmbeddingMatcher,
}


# ---------------------------------------------------------------------------
# Flag groups.  Each group is registered by one function, reads its defaults
# from the dataclass it configures, and is turned back into that dataclass
# by one builder below.
# ---------------------------------------------------------------------------


def _add_dataset_arguments(
    parser: argparse.ArgumentParser, dataset: bool = True
) -> None:
    if dataset:
        parser.add_argument(
            "--dataset", default="S-BR", choices=DATASET_CODES,
            help="benchmark code",
        )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--size-cap", type=int, default=None, help="cap the generated dataset size"
    )


def _add_matcher_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--matcher", default="logistic", choices=sorted(_MATCHERS)
    )
    parser.add_argument(
        "--model-dir", type=Path, default=None,
        help="persist/load trained matchers as fingerprinted artifacts "
             "here instead of retraining on every invocation",
    )


def _add_engine_arguments(
    parser: argparse.ArgumentParser, guard: bool = True
) -> None:
    """The :class:`EngineConfig` flags, plus the observability flags every
    engine-running command takes."""
    parser.add_argument(
        "--n-jobs", type=int, default=EngineConfig.n_jobs,
        help="threads per prediction batch (model calls run in parallel)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the prediction cache (results are identical either way)",
    )
    if guard:
        parser.add_argument(
            "--max-retries", type=int, default=EngineConfig.max_retries,
            help="retry failing matcher calls up to N times (guard)",
        )
        parser.add_argument(
            "--call-timeout", type=float, default=EngineConfig.call_timeout,
            help="abandon a matcher call after this many seconds (guard)",
        )
    parser.add_argument(
        "--trace", nargs="?", const="trace.json", default=None, metavar="PATH",
        help="record pipeline trace spans and write them as JSON on exit "
             "(default path: trace.json); results are identical either way",
    )
    parser.add_argument(
        "--no-metrics", action="store_true",
        help="disable the metrics registry (every counter becomes a no-op)",
    )


def _add_store_arguments(
    parser: argparse.ArgumentParser, store_help: str
) -> None:
    parser.add_argument("--store-dir", type=Path, default=None, help=store_help)
    parser.add_argument(
        "--store-max-entries", type=int, default=StoreConfig.max_entries,
        help="LRU capacity of the explanation store",
    )
    parser.add_argument(
        "--store-ttl", type=float, default=StoreConfig.ttl_seconds,
        help="expire stored explanations older than this many seconds",
    )


def _add_samples_argument(
    parser: argparse.ArgumentParser, default: int = ExplainRequest.samples
) -> None:
    parser.add_argument(
        "--samples", type=int, default=default,
        help="perturbation budget per explanation",
    )


def _add_request_arguments(
    parser: argparse.ArgumentParser,
    method: bool = False,
    samples: int = ExplainRequest.samples,
) -> None:
    """The :class:`ExplainRequest` flags (``--method`` only where asked)."""
    if method:
        parser.add_argument(
            "--method", default=ExplainRequest.method, choices=REQUEST_METHODS
        )
    _add_samples_argument(parser, samples)
    parser.add_argument(
        "--explainer", default=ExplainRequest.explainer,
        choices=REQUEST_EXPLAINERS,
        help="generic explainer to couple with the landmark pipeline",
    )


def _add_bind_arguments(parser: argparse.ArgumentParser, port: int) -> None:
    parser.add_argument("--host", default=DEFAULT_HOST, help="bind address")
    parser.add_argument(
        "--port", type=int, default=port,
        help="bind port (0 picks an ephemeral one)",
    )


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """Everything ``serve`` and ``precompute`` share: matcher, store,
    :class:`ServiceConfig`, :class:`ShardConfig`, request and engine flags."""
    _add_dataset_arguments(parser)
    _add_matcher_arguments(parser)
    _add_store_arguments(
        parser, "directory of the persistent explanation store"
    )
    parser.add_argument(
        "--workers", type=int, default=ServiceConfig.n_workers,
        help="explanation worker threads",
    )
    parser.add_argument(
        "--queue-size", type=int, default=ServiceConfig.queue_size,
        help="bound of the pending-request priority queue",
    )
    parser.add_argument(
        "--shed-threshold", type=int, default=ServiceConfig.shed_threshold,
        help="shed new requests (HTTP 429) once this many are queued",
    )
    parser.add_argument(
        "--max-queue-wait", type=float, default=ServiceConfig.max_queue_wait,
        help="shed new requests once the estimated queue wait exceeds "
             "this many seconds",
    )
    parser.add_argument(
        "--deadline", type=float, default=ServiceConfig.default_deadline,
        help="default per-request latency budget in seconds; a request "
             "past its deadline aborts between matcher chunks",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=ServiceConfig.drain_timeout,
        help="seconds a graceful shutdown (SIGTERM / close) may spend "
             "finishing queued work before cancelling it",
    )
    parser.add_argument(
        "--batch-window-ms", type=float, default=ServiceConfig.batch_window_ms,
        help="coalesce concurrent requests' matcher batches within this "
             "window (0 disables cross-request batching; results are "
             "bit-identical either way)",
    )
    parser.add_argument(
        "--batch-max-size", type=int, default=ServiceConfig.batch_max_size,
        help="flush a coalesced matcher batch once this many rows are "
             "pending (only with --batch-window-ms > 0)",
    )
    parser.add_argument(
        "--shards", type=int, default=ShardConfig.n_shards,
        help="worker processes, each owning a matcher, a prediction "
             "engine and its own store partition, fronted by a "
             "consistent-hash router and a supervising shard manager; "
             "1 (the default) keeps the single-process service, "
             "bit-identical to previous releases",
    )
    parser.add_argument(
        "--virtual-nodes", type=int, default=ShardConfig.virtual_nodes,
        help="ring positions per shard on the consistent-hash router "
             "(only with --shards > 1)",
    )
    parser.add_argument(
        "--heartbeat-interval", type=float,
        default=ShardConfig.heartbeat_interval,
        help="seconds between shard liveness heartbeats",
    )
    parser.add_argument(
        "--heartbeat-timeout", type=float,
        default=ShardConfig.heartbeat_timeout,
        help="a shard silent this long is declared hung and restarted",
    )
    parser.add_argument(
        "--restart-backoff", type=float,
        default=ShardConfig.restart_backoff_base,
        help="base seconds of the capped exponential backoff between "
             "shard restarts",
    )
    parser.add_argument(
        "--max-failovers", type=int, default=ShardConfig.max_failovers,
        help="times an in-flight request may fail over to another shard "
             "after a crash before returning a retryable 503",
    )
    parser.add_argument(
        "--connect-timeout", type=float, default=ShardConfig.connect_timeout,
        help="per-attempt TCP dial timeout to a fleet shard host "
             "(only with --fleet)",
    )
    parser.add_argument(
        "--connect-budget", type=float, default=ShardConfig.connect_budget,
        help="total seconds of dial-with-retry per launch cycle before "
             "it counts as a failed connect (only with --fleet)",
    )
    parser.add_argument(
        "--host-loss-after", type=int, default=ShardConfig.host_loss_after,
        help="consecutive failed connect cycles before a fleet host is "
             "declared lost and replaced by a standby (only with --fleet)",
    )
    parser.add_argument(
        "--backend", default=None, metavar="HOST:PORT",
        help="serve predictions from a remote serve-matcher process at "
             "this address instead of training/loading a matcher locally "
             "(all shards share the one model; the routing fingerprint "
             "is taken from its handshake)",
    )
    parser.add_argument(
        "--fleet", type=Path, default=None, metavar="FLEET.JSON",
        help="run the shards on standing serve-shard hosts described by "
             "this fleet file ({\"shards\": [{\"id\", \"host\", \"port\"}], "
             "\"standbys\": [...], \"quorum\": N}) instead of spawning "
             "local processes; the file's shard count overrides --shards",
    )
    _add_engine_arguments(parser)


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    guard = {}
    if hasattr(args, "max_retries"):
        guard = {"max_retries": args.max_retries,
                 "call_timeout": args.call_timeout}
    return EngineConfig(cache=not args.no_cache, n_jobs=args.n_jobs, **guard)


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    engine = _engine_config(args)
    return dataclasses.replace(
        get_preset(args.preset),
        engine_n_jobs=engine.n_jobs,
        engine_cache=engine.cache,
        guard_max_retries=engine.max_retries,
        guard_call_timeout=engine.call_timeout,
    )


def _store_config(args: argparse.Namespace) -> StoreConfig:
    return StoreConfig(
        max_entries=args.store_max_entries, ttl_seconds=args.store_ttl
    )


def _service_config(args: argparse.Namespace) -> ServiceConfig:
    return ServiceConfig(
        n_workers=args.workers,
        queue_size=args.queue_size,
        shed_threshold=args.shed_threshold,
        max_queue_wait=args.max_queue_wait,
        default_deadline=args.deadline,
        drain_timeout=args.drain_timeout,
        batch_window_ms=args.batch_window_ms,
        batch_max_size=args.batch_max_size,
    )


def _shard_config(args: argparse.Namespace) -> ShardConfig:
    return ShardConfig(
        n_shards=args.shards,
        virtual_nodes=args.virtual_nodes,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_timeout=args.heartbeat_timeout,
        restart_backoff_base=args.restart_backoff,
        max_failovers=args.max_failovers,
        connect_timeout=args.connect_timeout,
        connect_budget=args.connect_budget,
        host_loss_after=args.host_loss_after,
    )


def _bulk_spec(args: argparse.Namespace) -> BulkJobSpec:
    return BulkJobSpec(
        method=args.method,
        samples=args.samples,
        explainer=args.explainer,
        seed=args.seed,
        chunk_size=args.chunk_size,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-em",
        description="Landmark Explanation (EDBT 2021) reproduction toolkit",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress")
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets = subparsers.add_parser("datasets", help="print/export Table 1")
    datasets.add_argument("--materialize", action="store_true")
    datasets.add_argument("--export-dir", type=Path, default=None)
    _add_dataset_arguments(datasets, dataset=False)

    train = subparsers.add_parser("train", help="train and evaluate a matcher")
    _add_dataset_arguments(train)
    _add_matcher_arguments(train)
    train.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)

    explain = subparsers.add_parser("explain", help="explain one record")
    _add_dataset_arguments(explain)
    _add_matcher_arguments(explain)
    explain.add_argument("--record", type=int, default=0, help="record index")
    explain.add_argument(
        "--generation", default=GENERATION_AUTO,
        choices=(GENERATION_AUTO, GENERATION_SINGLE, GENERATION_DOUBLE),
    )
    _add_request_arguments(explain, samples=LimeConfig.n_samples)
    explain.add_argument("--top", type=int, default=5)
    explain.add_argument(
        "--baselines", action="store_true", help="also run LIME drop / Mojito copy"
    )
    _add_engine_arguments(explain, guard=False)

    experiment = subparsers.add_parser("experiment", help="run Tables 2-4")
    experiment.add_argument(
        "--preset", default="fast", choices=tuple(PRESETS)
    )
    experiment.add_argument(
        "--datasets", nargs="*", default=None, choices=DATASET_CODES, metavar="CODE"
    )
    experiment.add_argument("--output", type=Path, default=None)
    experiment.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (datasets run in parallel)",
    )
    experiment.add_argument(
        "--run-dir", type=Path, default=None,
        help="checkpoint each completed grid cell into this directory",
    )
    experiment.add_argument(
        "--resume", action="store_true",
        help="resume the run checkpointed in --run-dir (config is read "
             "from the checkpoint; completed cells are skipped)",
    )
    _add_engine_arguments(experiment)

    serve = subparsers.add_parser(
        "serve", help="long-running explanation service (JSONL stdio / HTTP)"
    )
    _add_service_arguments(serve)
    _add_request_arguments(serve)
    serve.add_argument(
        "--http", default=None, metavar="HOST:PORT",
        help="serve over HTTP on this address instead of stdin/stdout",
    )

    serve_matcher = subparsers.add_parser(
        "serve-matcher",
        help="standalone matcher server shared by service shards",
    )
    _add_dataset_arguments(serve_matcher)
    _add_matcher_arguments(serve_matcher)
    _add_bind_arguments(serve_matcher, port=7654)
    serve_matcher.add_argument(
        "--server-workers", type=int, default=DEFAULT_WORKERS,
        help="prediction threads serving concurrent in-flight batches",
    )
    serve_matcher.add_argument(
        "--max-batch-size", type=int, default=DEFAULT_MAX_BATCH_SIZE,
        help="largest row count one predict call may carry "
             "(default: %(default)s)",
    )

    serve_shard = subparsers.add_parser(
        "serve-shard",
        help="standing shard host adopted by a --fleet supervisor",
    )
    _add_bind_arguments(serve_shard, port=9301)
    _add_store_arguments(
        serve_shard,
        "host-local directory for this shard's store partition "
        "(default: serve without a persistent store)",
    )

    precompute = subparsers.add_parser(
        "precompute", help="warm the explanation store for a dataset split"
    )
    _add_service_arguments(precompute)
    _add_request_arguments(precompute, method=True)
    precompute.add_argument(
        "--per-label", type=int, default=None,
        help="records per label to warm (default: every record)",
    )
    precompute.add_argument(
        "--resume", action="store_true",
        help="skip keys journaled by a previous precompute that are still "
             "servable from the store",
    )

    bulk = subparsers.add_parser(
        "bulk",
        help="dataset-scale bulk explanation job with streaming "
             "aggregation and resumable chunk journaling",
    )
    _add_dataset_arguments(bulk)
    _add_matcher_arguments(bulk)
    _add_request_arguments(bulk, method=True)
    _add_store_arguments(
        bulk, "deduplicate against (and warm) this explanation store"
    )
    _add_engine_arguments(bulk)
    bulk.add_argument(
        "--input", type=Path, default=None, metavar="CSV",
        help="explain pairs from this CSV instead of a synthetic "
             "benchmark; ill-formed rows are ledgered per record and "
             "skipped, never fatal",
    )
    bulk.add_argument(
        "--source", default="rows", choices=("rows", "block"),
        help="'rows' explains the dataset's own pairs; 'block' re-blocks "
             "the two entity tables with the inverted-index blocker and "
             "explains every candidate",
    )
    bulk.add_argument(
        "--pairs-file", type=Path, default=None,
        help="explicit pair list (one row index or 'left,right' per "
             "line); overrides --source",
    )
    bulk.add_argument(
        "--per-label", type=int, default=None,
        help="with --source rows: records per label (default: all rows)",
    )
    bulk.add_argument(
        "--min-shared-tokens", type=int,
        default=InvertedIndexBlocker.min_shared_tokens,
        help="blocker threshold for --source block",
    )
    bulk.add_argument(
        "--max-token-frequency", type=float,
        default=InvertedIndexBlocker.max_token_frequency,
        help="blocker stop-token cutoff for --source block",
    )
    bulk.add_argument(
        "--chunk-size", type=int, default=BulkJobSpec.chunk_size,
        help="pairs per chunk (one store transaction and one journal "
             "event per chunk; results are identical for any size)",
    )
    bulk.add_argument(
        "--run-dir", type=Path, default=None,
        help="journal completed chunks here so --resume can continue",
    )
    bulk.add_argument(
        "--resume", action="store_true",
        help="resume the job journaled in --run-dir; the finished report "
             "is byte-identical to an uninterrupted run's",
    )
    bulk.add_argument(
        "--report", type=Path, default=None,
        help="write the JSON aggregation report here",
    )
    bulk.add_argument("--top", type=int, default=15)

    selftest = subparsers.add_parser(
        "selftest", help="end-to-end installation check (~10 s)"
    )
    selftest.add_argument("--seed", type=int, default=0)

    summarize = subparsers.add_parser(
        "summarize", help="global explanation summary over many records"
    )
    _add_dataset_arguments(summarize)
    summarize.add_argument("--per-label", type=int, default=10)
    _add_samples_argument(summarize)
    summarize.add_argument("--top", type=int, default=15)

    counterfactual = subparsers.add_parser(
        "counterfactual", help="minimal token edits that flip a prediction"
    )
    _add_dataset_arguments(counterfactual)
    counterfactual.add_argument("--record", type=int, default=0)
    counterfactual.add_argument(
        "--landmark", default="left", choices=("left", "right")
    )
    _add_samples_argument(counterfactual)
    counterfactual.add_argument(
        "--max-edits", type=int, default=DEFAULT_MAX_EDITS
    )

    report = subparsers.add_parser(
        "report", help="write an HTML / markdown explanation report"
    )
    _add_dataset_arguments(report)
    report.add_argument("--record", type=int, default=0)
    _add_samples_argument(report)
    report.add_argument(
        "--format", default="html", choices=("html", "markdown")
    )
    report.add_argument("--output", type=Path, required=True)

    profile = subparsers.add_parser(
        "profile", help="token-overlap profile of a benchmark dataset"
    )
    _add_dataset_arguments(profile)

    compare = subparsers.add_parser(
        "compare", help="diff two saved experiment runs (JSON)"
    )
    compare.add_argument("baseline", type=Path)
    compare.add_argument("candidate", type=Path)
    return parser


# ---------------------------------------------------------------------------
# Matcher resolution (train-or-load behind --model-dir)
# ---------------------------------------------------------------------------


def _artifact_path(model_dir: Path, args: argparse.Namespace) -> Path:
    cap = args.size_cap if args.size_cap is not None else "full"
    name = f"{args.matcher}-{args.dataset}-seed{args.seed}-cap{cap}.pkl"
    return model_dir / name


def _resolve_matcher(args: argparse.Namespace, dataset):
    """Train the requested matcher, or reuse a persisted artifact.

    Without ``--model-dir`` this trains from scratch (the historical
    behaviour).  With it, the trained matcher is saved once as a
    fingerprinted artifact and loaded on every later invocation with the
    same (matcher, dataset, seed, size-cap) coordinates; an artifact that
    fails its integrity check is retrained and rewritten.
    """
    if args.model_dir is None:
        return _MATCHERS[args.matcher]().fit(dataset)
    from repro.core.serialize import load_matcher, save_matcher
    from repro.exceptions import ArtifactError

    path = _artifact_path(args.model_dir, args)
    if path.exists():
        try:
            matcher = load_matcher(path)
            logging.getLogger("repro.cli").info("loaded matcher %s", path)
            return matcher
        except ArtifactError as error:
            print(f"warning: {error}; retraining", file=sys.stderr)
    matcher = _MATCHERS[args.matcher]().fit(dataset)
    fingerprint = save_matcher(matcher, path)
    # stderr: in `serve` stdio mode, stdout is the JSONL channel.
    print(
        f"saved matcher artifact {path} ({fingerprint[:12]})",
        file=sys.stderr,
    )
    return matcher


def _load_dataset(args: argparse.Namespace):
    return load_dataset(args.dataset, seed=args.seed, size_cap=args.size_cap)


def _load_record(args: argparse.Namespace):
    """``(dataset, pair)`` for ``--record``, or ``None`` when out of range."""
    dataset = _load_dataset(args)
    if not 0 <= args.record < len(dataset):
        print(f"record index {args.record} out of range 0..{len(dataset) - 1}")
        return None
    return dataset, dataset[args.record]


def _lime_config(args: argparse.Namespace) -> LimeConfig:
    return LimeConfig(n_samples=args.samples, seed=args.seed)


def _landmark_explainer(args: argparse.Namespace, matcher, engine=None):
    """The landmark explainer ``--samples`` / ``--seed`` (and, where the
    command has it, ``--explainer``) ask for."""
    if getattr(args, "explainer", None) == "shap":
        from repro.explainers.kernel_shap import KernelShapExplainer

        return LandmarkExplainer(
            matcher,
            explainer=KernelShapExplainer(n_samples=args.samples, seed=args.seed),
            seed=args.seed,
            engine=engine,
        )
    return LandmarkExplainer(
        matcher, lime_config=_lime_config(args), seed=args.seed, engine=engine
    )


def _open_store(args: argparse.Namespace, registry):
    """The explanation store under ``--store-dir`` (``None`` without one)."""
    if args.store_dir is None:
        return None
    from repro.service import ExplanationStore

    return ExplanationStore(args.store_dir, _store_config(args), metrics=registry)


def _obs_registry(args: argparse.Namespace):
    """The run's metrics registry, honouring --trace / --no-metrics."""
    from repro.obs import MetricsRegistry, trace

    if args.trace is not None:
        trace.enable()
    return MetricsRegistry(enabled=not args.no_metrics)


def _obs_finish(args: argparse.Namespace, registry,
                metrics_path: Path | None = None) -> None:
    """Write the trace / metrics artifacts the flags asked for."""
    from repro.evaluation.persistence import save_metrics
    from repro.obs import trace

    if args.trace is not None:
        path = trace.save(args.trace)
        trace.disable()
        print(f"wrote {path}", file=sys.stderr)
    if metrics_path is not None and registry.enabled:
        save_metrics(registry, metrics_path)
        print(f"wrote {metrics_path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Sub-command implementations
# ---------------------------------------------------------------------------


def _cmd_datasets(args: argparse.Namespace) -> int:
    materialized = None
    if args.materialize or args.export_dir:
        materialized = load_benchmark(seed=args.seed, size_cap=args.size_cap)
    print(format_table1(table1_rows(materialized)))
    if args.export_dir:
        args.export_dir.mkdir(parents=True, exist_ok=True)
        assert materialized is not None
        for code, dataset in materialized.items():
            path = args.export_dir / f"{code}.csv"
            write_csv(dataset, path)
            print(f"wrote {path} ({len(dataset)} pairs)")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    matcher = _resolve_matcher(args, dataset)
    quality = evaluate_matcher(matcher, dataset, threshold=args.threshold)
    print(f"{args.matcher} matcher on {args.dataset} ({len(dataset)} pairs)")
    print(quality.report())
    ranking = getattr(matcher, "attribute_ranking", None)
    if callable(ranking):
        print("attribute ranking:", " > ".join(ranking()))
    describe = getattr(matcher, "describe", None)
    if callable(describe):
        print(describe())
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    loaded = _load_record(args)
    if loaded is None:
        return 2
    dataset, pair = loaded
    matcher = _resolve_matcher(args, dataset)
    registry = _obs_registry(args)
    engine = PredictionEngine(matcher, _engine_config(args), metrics=registry)
    print(pair.describe())
    print(f"model match probability: {matcher.predict_one(pair):.3f}")
    dual = _landmark_explainer(args, matcher, engine).explain(
        pair, generation=args.generation
    )
    print(dual.render(args.top))
    if args.baselines:
        for baseline in (MojitoDropExplainer, MojitoCopyExplainer):
            explainer = baseline(
                matcher, lime_config=_lime_config(args), seed=args.seed,
                engine=engine,
            )
            print(explainer.explain(pair).render(args.top))
    print(engine.stats.summary())
    _obs_finish(args, registry)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.resume:
        # The checkpoint, not the command line, is the source of truth for
        # a resumed run's configuration: mixing presets would corrupt it.
        from repro.evaluation.persistence import load_checkpoint

        if args.run_dir is None:
            print("error: --resume requires --run-dir", file=sys.stderr)
            return 2
        config = load_checkpoint(args.run_dir).config
    else:
        config = _experiment_config(args)
    registry = _obs_registry(args)
    runner = ExperimentRunner(config, metrics=registry)
    result = runner.run(
        args.datasets,
        n_jobs=args.jobs,
        run_dir=str(args.run_dir) if args.run_dir else None,
        resume=args.resume,
    )
    report = format_all_tables(result)
    print(report)
    totals = result.engine_totals()
    if totals is not None:
        print(totals.summary())
    ledger = result.ledger()
    if len(ledger):
        print(ledger.summary())
    if args.output:
        args.output.write_text(report + "\n", encoding="utf-8")
        print(f"wrote {args.output}")
    # metrics.json lands next to the run's checkpoint journal (or the
    # report, when only --output was given).  With --jobs > 1 the worker
    # processes accumulate into their own registry copies, so only the
    # serial path yields a complete snapshot — same rule as checkpoints.
    metrics_path = None
    if args.run_dir is not None:
        metrics_path = Path(args.run_dir) / "metrics.json"
    elif args.output is not None:
        metrics_path = args.output.parent / "metrics.json"
    _obs_finish(args, registry, metrics_path)
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    matcher = LogisticRegressionMatcher().fit(dataset)
    explainer = _landmark_explainer(args, matcher)
    sample = sample_per_label(dataset, args.per_label, seed=args.seed)
    explanations = []
    for pair in sample:
        try:
            explanations.append(explainer.explain(pair))
        except ExplanationError:
            continue
    summary = summarize_explanations(explanations)
    print(summary.render(args.top))
    return 0


def _cmd_counterfactual(args: argparse.Namespace) -> int:
    from repro.core.counterfactual import greedy_counterfactual

    loaded = _load_record(args)
    if loaded is None:
        return 2
    dataset, pair = loaded
    matcher = LogisticRegressionMatcher().fit(dataset)
    print(pair.describe())
    landmark = _landmark_explainer(args, matcher).explain_landmark(
        pair, args.landmark
    )
    counterfactual = greedy_counterfactual(
        landmark, matcher, max_edits=args.max_edits
    )
    print(counterfactual.render())
    return 0 if counterfactual.flipped else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.report import save_html, to_markdown

    loaded = _load_record(args)
    if loaded is None:
        return 2
    dataset, pair = loaded
    matcher = LogisticRegressionMatcher().fit(dataset)
    dual = _landmark_explainer(args, matcher).explain(pair)
    if args.format == "html":
        save_html(dual, args.output)
    else:
        args.output.write_text(to_markdown(dual) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.data.profiling import profile_dataset

    profile = profile_dataset(_load_dataset(args))
    print(profile.render())
    print("attributes by class separation:",
          " > ".join(profile.ranking_by_separation()))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.evaluation.persistence import compare_results, load_result

    baseline = load_result(args.baseline)
    candidate = load_result(args.candidate)
    print(compare_results(baseline, candidate))
    return 0


def _build_service(args: argparse.Namespace, dataset):
    """Assemble (service, store, defaults) from the shared service flags.

    More than one shard (``--shards N``) or a ``--fleet`` file builds the
    multi-process :class:`~repro.service.supervisor.ShardedService`; each
    shard then owns its own store partition, so the returned ``store`` is
    ``None`` (shutdown is entirely ``service.close()``'s job).
    """
    from repro.service import ExplanationService

    # Every config is built (and validated) before any matcher is trained.
    service_config = _service_config(args)
    engine_config = _engine_config(args)
    store_config = _store_config(args)
    shard_config = _shard_config(args)
    fleet = None
    if args.fleet is not None:
        from repro.service import load_fleet_config

        fleet = load_fleet_config(args.fleet)
    # Backend mode trains nothing: the model lives in the serve-matcher
    # process and its handshake fingerprint keys every request.
    matcher = None if args.backend else _resolve_matcher(args, dataset)
    registry = _obs_registry(args)
    defaults = {
        "samples": args.samples,
        "explainer": args.explainer,
        "seed": args.seed,
    }
    if fleet is not None or shard_config.n_shards > 1:
        from repro.service import ShardedService

        service = ShardedService(
            matcher,
            store_dir=args.store_dir,
            config=service_config,
            engine_config=engine_config,
            store_config=store_config,
            shard_config=shard_config,
            metrics=registry,
            backend_address=args.backend,
            fleet=fleet,
        )
        return service, None, defaults
    store = _open_store(args, registry)
    source = matcher
    if args.backend is not None:
        from repro.backends import RemoteBackend

        source = RemoteBackend(args.backend, metrics=registry)
    service = ExplanationService(
        source,
        store=store,
        config=service_config,
        engine_config=engine_config,
        metrics=registry,
    )
    return service, store, defaults


def _write_service_stats(service, store_dir: Path | None) -> None:
    """``service_stats.json`` and ``metrics.json`` into *store_dir*."""
    if store_dir is None:
        return
    import json

    from repro.evaluation.persistence import save_service_stats

    # In fleet mode the store partitions live on the shard hosts, so
    # nothing has created the local store_dir yet.
    Path(store_dir).mkdir(parents=True, exist_ok=True)
    path = Path(store_dir) / "service_stats.json"
    save_service_stats(service.stats_payload(), path)
    print(f"wrote {path}", file=sys.stderr)
    if service.metrics.enabled:
        # service.metrics_json() is fleet-aware: sharded, it merges
        # every shard's final families next to the router's own.
        path = Path(store_dir) / "metrics.json"
        path.write_text(
            json.dumps(service.metrics_json(), indent=2, sort_keys=True),
            encoding="utf-8",
        )
        print(f"wrote {path}", file=sys.stderr)


def _install_drain_handler() -> None:
    """Turn SIGTERM into a graceful drain (via the serve cleanup path).

    Raising ``SystemExit`` in the main thread unwinds ``serve_forever`` /
    the stdio loop into ``_cmd_serve``'s ``finally`` block, which closes
    the service with its drain budget and prints the drain summary.
    """
    import signal

    def _on_sigterm(signum, frame):
        print("received SIGTERM: draining...", file=sys.stderr)
        raise SystemExit(0)

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # pragma: no cover - not in the main thread
        pass


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve_http, serve_stdio

    dataset = _load_dataset(args)
    service, store, defaults = _build_service(args, dataset)
    _install_drain_handler()
    try:
        if args.http:
            host, _, port = args.http.rpartition(":")
            server = serve_http(
                service, dataset, defaults,
                host=host or "127.0.0.1", port=int(port),
            )
            address = "http://%s:%d" % server.server_address[:2]
            print(f"serving on {address} (Ctrl-C to stop)", file=sys.stderr)
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                pass
            finally:
                server.shutdown()
                server.server_close()
        else:
            serve_stdio(service, dataset, defaults)
    finally:
        drain = service.close()
        if "shards" in drain:
            print(
                f"drain: {len(drain['shards'])} shard(s) drained, "
                f"{drain.get('abandoned', 0)} request(s) abandoned",
                file=sys.stderr,
            )
        else:
            print(
                f"drain: {drain.get('pending_at_close', 0)} pending at close, "
                f"{drain.get('cancelled', 0)} cancelled, "
                f"{drain.get('seconds', 0.0)}s",
                file=sys.stderr,
            )
        print(service.stats.summary(), file=sys.stderr)
        _write_service_stats(service, args.store_dir)
        _obs_finish(args, service.metrics)
        if store is not None:
            store.close()
    return 0


def _cmd_serve_matcher(args: argparse.Namespace) -> int:
    """Run the standalone matcher server behind ``--backend``."""
    from repro.backends import MatcherServer

    if args.model_dir is not None:
        # Strict on serving paths: a bad or stale artifact is a startup
        # failure (ArtifactError / ArtifactMismatchError), never a
        # silent retrain — shards already minted keys for a fingerprint.
        from repro.core.serialize import load_matcher

        path = _artifact_path(args.model_dir, args)
        matcher = load_matcher(path)
        print(f"loaded matcher artifact {path}", file=sys.stderr)
    else:
        matcher = _MATCHERS[args.matcher]().fit(_load_dataset(args))
    server = MatcherServer(
        matcher,
        host=args.host,
        port=args.port,
        max_batch_size=args.max_batch_size,
        workers=args.server_workers,
    )
    host, port = server.start()
    capabilities = server.capabilities
    print(
        f"serving matcher on {host}:{port} "
        f"({capabilities.matcher_class}, fingerprint "
        f"{capabilities.fingerprint[:12]}, pid {os.getpid()})",
        file=sys.stderr,
    )
    _install_drain_handler()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        print("matcher server stopped", file=sys.stderr)
    return 0


def _cmd_serve_shard(args: argparse.Namespace) -> int:
    """Run one standing shard host for a ``--fleet`` supervisor."""
    from repro.service import ShardServer

    server = ShardServer(
        host=args.host,
        port=args.port,
        store_dir=args.store_dir,
        store_config=_store_config(args),
    )
    print(
        f"serving shard on {server.host}:{server.port} (pid {os.getpid()})",
        file=sys.stderr,
    )
    _install_drain_handler()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        print("shard host stopped", file=sys.stderr)
    return 0


def _cmd_precompute(args: argparse.Namespace) -> int:
    from repro.service.server import precompute

    dataset = _load_dataset(args)
    service, store, _ = _build_service(args, dataset)
    try:
        report = precompute(
            service,
            dataset,
            per_label=args.per_label,
            method=args.method,
            samples=args.samples,
            explainer=args.explainer,
            seed=args.seed,
            resume=args.resume,
            journal_dir=args.store_dir,
        )
    finally:
        service.close()
    print(report.summary())
    print(service.stats.summary())
    _write_service_stats(service, args.store_dir)
    _obs_finish(args, service.metrics)
    if store is not None:
        store.close()
    return 0 if report.n_failed == 0 else 1


def _cmd_bulk(args: argparse.Namespace) -> int:
    import json

    from repro.bulk import BlockedSource, BulkJob, DatasetSource, PairListSource
    from repro.data.io import read_csv
    from repro.evaluation.ledger import (
        KIND_SKIPPED,
        FailureEntry,
        FailureLedger,
    )

    if args.resume and args.run_dir is None:
        print("error: --resume requires --run-dir", file=sys.stderr)
        return 2

    input_ledger = FailureLedger()
    if args.input is not None:
        dataset = read_csv(
            args.input,
            name=args.input.stem,
            on_row_error=lambda row, error: input_ledger.add(
                FailureEntry.from_exception(
                    dataset=args.input.stem,
                    label=-1,
                    method="read_csv",
                    record_id=row,
                    error=error,
                    kind=KIND_SKIPPED,
                )
            ),
        )
        if len(input_ledger):
            print(
                f"input: skipped {len(input_ledger)} ill-formed row(s) of "
                f"{args.input}",
                file=sys.stderr,
            )
    else:
        dataset = _load_dataset(args)
    matcher = _resolve_matcher(args, dataset)
    registry = _obs_registry(args)

    if args.pairs_file is not None:
        source = PairListSource(dataset, args.pairs_file)
    elif args.source == "block":
        source = BlockedSource(
            dataset,
            min_shared_tokens=args.min_shared_tokens,
            max_token_frequency=args.max_token_frequency,
        )
    else:
        source = DatasetSource(dataset, per_label=args.per_label,
                               seed=args.seed)

    store = _open_store(args, registry)
    job = BulkJob(
        matcher,
        source,
        spec=_bulk_spec(args),
        store=store,
        run_dir=args.run_dir,
        engine_config=_engine_config(args),
        metrics=registry,
    )
    try:
        report = job.run(resume=args.resume)
    finally:
        if store is not None:
            store.close()
    report.ledger.extend(input_ledger)
    print(report.render(args.top))
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(
            json.dumps(
                report.report_payload(
                    job.spec, source.describe(), job.fingerprint
                ),
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.report}", file=sys.stderr)
    metrics_path = None
    if args.run_dir is not None:
        stats_path = Path(args.run_dir) / "stats.json"
        stats_path.write_text(
            json.dumps(report.stats_payload(), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        print(f"wrote {stats_path}", file=sys.stderr)
        metrics_path = Path(args.run_dir) / "metrics.json"
    _obs_finish(args, registry, metrics_path)
    return 0 if report.n_failed == 0 else 1


def _cmd_selftest(args: argparse.Namespace) -> int:
    """A fast end-to-end exercise of every major subsystem."""
    from repro.core.counterfactual import greedy_counterfactual
    from repro.core.serialize import dual_from_dict, dual_to_dict
    from repro.data.records import NON_MATCH

    checks: list[tuple[str, bool]] = []

    dataset = load_dataset("S-BR", seed=args.seed, size_cap=200)
    checks.append(("dataset generation", len(dataset) == 200))

    matcher = LogisticRegressionMatcher().fit(dataset)
    quality = evaluate_matcher(matcher, dataset)
    checks.append(("matcher training (f1 > 0.7)", quality.f1 > 0.7))

    explainer = LandmarkExplainer(
        matcher, lime_config=LimeConfig(n_samples=48, seed=args.seed),
        seed=args.seed,
    )
    non_match = next(p for p in dataset if p.label == NON_MATCH)
    dual = explainer.explain(non_match)
    checks.append(("dual explanation", len(dual.combined()) > 0))
    checks.append(
        ("double generation on non-match", dual.generation == "double")
    )

    restored = dual_from_dict(dual_to_dict(dual))
    checks.append(
        ("explanation serialization", restored.generation == dual.generation)
    )

    counterfactual = greedy_counterfactual(
        dual.left_landmark, matcher, max_edits=10
    )
    checks.append(("counterfactual search ran", counterfactual.n_edits >= 1))

    ok = True
    for name, passed in checks:
        print(f"  [{'ok' if passed else 'FAIL'}] {name}")
        ok = ok and passed
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


_COMMANDS = {
    "datasets": _cmd_datasets,
    "train": _cmd_train,
    "explain": _cmd_explain,
    "experiment": _cmd_experiment,
    "summarize": _cmd_summarize,
    "counterfactual": _cmd_counterfactual,
    "report": _cmd_report,
    "profile": _cmd_profile,
    "compare": _cmd_compare,
    "serve": _cmd_serve,
    "serve-matcher": _cmd_serve_matcher,
    "serve-shard": _cmd_serve_shard,
    "precompute": _cmd_precompute,
    "bulk": _cmd_bulk,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-em`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(
            level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
        )
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
