"""The benchmark's three workloads.

* ``explain-short`` — closed loop, one caller: ``LandmarkExplainer.explain``
  (default ``auto`` generation, default 256-sample budget) on distinct S-BR
  rows through one shared ``PredictionEngine``.
* ``bulk-long`` — closed loop of ``BulkJob`` runs (default spec) over
  distinct T-AB rows, 128 rows (two chunks) per job, into one fresh
  ``ExplanationStore`` with a run directory per job.
* ``serve-skewed`` — closed loop, three callers: ``ExplanationService``
  (2 workers, SQLite store) whose matcher is a ``RemoteBackend`` talking
  to a ``serve-matcher`` child process.  Keys are Zipf-distributed over
  S-WA pairs and crossed with a method from {auto, both, single, double}.

A run sets up, measures one untraced phase and, for a traced run, sets
up again from the same seed and measures the same inputs with every
layer wrapped.  Outputs of the reported phase go through the correctness
gate afterwards.
"""

from __future__ import annotations

import itertools
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro.bulk.job as bulk_job
from repro.backends.client import RemoteBackend
from repro.bulk.job import BulkJob, BulkJobSpec
from repro.bulk.source import DatasetSource
from repro.config import ServiceConfig
from repro.core.engine import PredictionEngine
from repro.core.landmark import LandmarkExplainer
from repro.core.serialize import matcher_fingerprint, save_matcher
from repro.data.records import EMDataset
from repro.data.synthetic.magellan import load_dataset
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.service.request import ExplainRequest, request_key
from repro.service.service import ExplanationService
from repro.service.store import ExplanationStore

from perfbench import gate, layers
from perfbench.harness import CpuMeter, MatcherServerProcess, peak_rss_mb
from perfbench.schedule import row_order, serve_mix
from perfbench.stats import median, percentile, windowed_percentile
from perfbench.tracer import Tracer

#: explain-short: S-BR has 450 rows; extra seeded S-BR datasets keep the
#: rows distinct for a whole phase on a fast host.
SHORT_DATASETS = 3
#: Closed-loop rates are medians over slices of this many operations:
#: about a second of explain-short, one default chunk of bulk-long.
SHORT_SLICE_OPS = 40
BULK_SLICE_OPS = 64
#: bulk-long: T-AB rows generated, and rows per job (two default chunks).
BULK_ROWS = 1000
BULK_JOB_ROWS = 128
#: serve-skewed: S-WA rows generated, the Zipf exponent and epoch of the
#: request mix, samples per request, warm-up requests, callers, the
#: length of the seeded request sequence and the per-request timeout.
#: Zipf(0.7) over a fresh 200-pair block per 200-request epoch keeps
#: store hits near a quarter of requests however far a run gets, so the
#: median request is a computed one.  Three callers on two workers keep
#: one request queued, so queue wait is exercised without the queue
#: growing.
SERVE_ROWS = 2500
SERVE_ZIPF = 0.7
SERVE_EPOCH = 200
SERVE_SAMPLES = 128
SERVE_WARMUP = 20
SERVE_CALLERS = 3
SERVE_REQUESTS = 10_000
SERVE_TIMEOUT_S = 60.0
SERVE_SLICE_OPS = 40
#: Gate sample sizes.
GATE_SHORT = 16
GATE_BULK = 8
GATE_SERVE = {"computed": 6, "hit": 4, "coalesced": 2}


@dataclass
class Phase:
    """What one measured phase produced."""

    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    #: Per completed operation, in completion order: its latency and
    #: when it finished (closed loops only).
    latencies: list[float] = field(default_factory=list)
    finished: list[float] = field(default_factory=list)
    #: Closed loops report rates as a median over slices of this many
    #: consecutive operations (0: one rate over the whole phase).
    slice_ops: int = 0
    started: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    #: Operations per busy second, for the tracing-overhead ratio.
    capacity: float = 0.0
    outputs: list = field(default_factory=list)
    validity: dict = field(default_factory=dict)
    engine_delta: dict = field(default_factory=dict)
    store_delta: dict | None = None
    service_delta: dict | None = None
    queue_waits: list[float] = field(default_factory=list)
    chunk_seconds: list[float] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.latencies)

    def rate(self, counted=None) -> float:
        """Operations (those *counted* selects) completed per second.

        With ``slice_ops`` this is the median over consecutive slices of
        that many completions, so a burst of co-tenant load in part of
        the phase moves it less than a whole-phase average.
        """
        flags = [counted is None or counted(x) for x in self.latencies]
        k = self.slice_ops
        if not k or len(flags) < 3 * k:
            return sum(flags) / self.elapsed
        rates = []
        begin = self.started
        for first in range(0, len(flags) - k + 1, k):
            end = self.finished[first + k - 1]
            rates.append(sum(flags[first:first + k]) / (end - begin))
            begin = end
        return median(rates)


def _delta(before, after) -> dict:
    """Field-wise change between two stats dataclass snapshots."""
    old = before.as_dict()
    return {k: v - old.get(k, 0) for k, v in after.as_dict().items()}


def end_to_end(phase: Phase, setup_s: float, limit_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "throughput_eps": phase.rate(),
        "latency_p50_ms": 1000.0 * windowed_percentile(phase.latencies, 50),
        "latency_p95_ms": 1000.0 * windowed_percentile(phase.latencies, 95),
        "goodput_rps": phase.rate(lambda latency: latency <= limit_s),
        "cpu_ms_per_op": 1000.0 * phase.cpu_s / phase.completed,
        "peak_rss_mb": phase.rss_mb,
    }


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.root = root
        self.seed = seed
        self.workdir = workdir

    def child_pids(self, state) -> list[int]:
        return []

    def fresh_dir(self) -> Path:
        """A new directory for one set-up's files."""
        self._dirs = getattr(self, "_dirs", 0) + 1
        path = self.workdir / f"setup-{self._dirs}"
        path.mkdir(parents=True)
        return path


# ---------------------------------------------------------------------------
# explain-short
# ---------------------------------------------------------------------------


@dataclass
class _ShortState:
    matcher: object
    pairs: list
    explainer: LandmarkExplainer


class ExplainShort(Workload):
    name = "explain-short"

    def setup(self) -> _ShortState:
        datasets = [
            load_dataset("S-BR", seed=self.seed + 100_003 * k)
            for k in range(SHORT_DATASETS)
        ]
        matcher = LogisticRegressionMatcher().fit(datasets[0])
        pool = [pair for dataset in datasets for pair in dataset.pairs]
        warmup = pool.pop()
        pairs = [pool[i] for i in row_order(self.seed, len(pool), self.name)]
        explainer = LandmarkExplainer(matcher, engine=PredictionEngine(matcher))
        explainer.explain(warmup)
        return _ShortState(matcher, pairs, explainer)

    def teardown(self, state) -> None:
        pass

    def phase(self, state: _ShortState, seconds: float,
              tracer: Tracer | None) -> Phase:
        explainer = state.explainer
        if tracer is not None:
            layers.install(tracer, type(state.matcher))
        engine = explainer.engine
        stats_before = engine.stats
        result = Phase(slice_ops=SHORT_SLICE_OPS)
        pairs = state.pairs
        cpu = CpuMeter()
        clock = time.perf_counter
        started = result.started = clock()
        try:
            while clock() - started < seconds:
                pair = pairs[result.attempted % len(pairs)]
                op = result.attempted
                result.attempted += 1
                t0 = clock()
                try:
                    if tracer is not None:
                        with tracer.span("op.explain", op=op):
                            dual = explainer.explain(pair)
                    else:
                        dual = explainer.explain(pair)
                except Exception:  # noqa: BLE001 - counted as a failed op
                    result.failed += 1
                    continue
                now = clock()
                result.latencies.append(now - t0)
                result.finished.append(now)
                result.outputs.append((pair, dual))
        finally:
            if tracer is not None:
                tracer.unwrap_all()
        result.elapsed = clock() - started
        result.cpu_s = cpu.elapsed()
        result.rss_mb = peak_rss_mb()
        result.capacity = result.completed / result.elapsed
        result.engine_delta = _delta(stats_before, engine.stats)
        result.validity = {
            "distinct_rows": min(result.attempted, len(pairs)),
            "rows_reused": result.attempted > len(pairs),
        }
        return result

    def gate(self, state: _ShortState, phase: Phase) -> list[str]:
        problems = [
            f"pair {pair.pair_id}: non-finite weight"
            for pair, dual in phase.outputs
            if not gate.dual_is_finite(dual)
        ]
        for index in gate.pick(self.seed, self.name, len(phase.outputs),
                               GATE_SHORT):
            pair, dual = phase.outputs[index]
            problems += gate.check_dual(state.matcher, pair, dual)
        return problems


# ---------------------------------------------------------------------------
# bulk-long
# ---------------------------------------------------------------------------


@dataclass
class _BulkState:
    dataset: EMDataset
    matcher: object
    order: list[int]
    fingerprint: str
    run_dir: Path
    store: ExplanationStore


class BulkLong(Workload):
    name = "bulk-long"
    spec = BulkJobSpec()

    def setup(self) -> _BulkState:
        dataset = load_dataset("T-AB", seed=self.seed, size_cap=BULK_ROWS)
        matcher = LogisticRegressionMatcher().fit(dataset)
        warmup = EMDataset(dataset.name, dataset.schema, dataset.pairs[-1:])
        BulkJob(matcher, DatasetSource(warmup), spec=self.spec).run()
        order = row_order(self.seed, len(dataset) - 1, self.name)
        run_dir = self.fresh_dir()
        return _BulkState(dataset, matcher, order, matcher_fingerprint(matcher),
                          run_dir, ExplanationStore(run_dir / "store"))

    def teardown(self, state: _BulkState) -> None:
        state.store.close()

    def phase(self, state: _BulkState, seconds: float,
              tracer: Tracer | None) -> Phase:
        result = Phase(slice_ops=BULK_SLICE_OPS)
        latencies = result.latencies
        clock = time.perf_counter
        original = bulk_job.compute_explanation_payload
        if tracer is not None:
            layers.install(tracer, type(state.matcher))
        else:
            # Per-pair latency: the job's own explanation computations.
            def timed(*args, **kwargs):
                t0 = clock()
                payload = original(*args, **kwargs)
                now = clock()
                latencies.append(now - t0)
                result.finished.append(now)
                return payload

            bulk_job.compute_explanation_payload = timed

        marks: list[float] = []

        def on_chunk(index, job) -> None:
            now = clock()
            result.chunk_seconds.append(now - marks[-1])
            marks.append(now)
            if tracer is not None:
                tracer.close()
                tracer.open("bulk.chunk")

        store = state.store
        store_before = store.stats
        engine_delta: dict = {}
        dataset = state.dataset
        cpu = CpuMeter()
        started = result.started = clock()
        offset = 0
        try:
            while clock() - started < seconds and offset < len(state.order):
                rows = state.order[offset:offset + BULK_JOB_ROWS]
                offset += len(rows)
                source = DatasetSource(EMDataset(
                    dataset.name, dataset.schema,
                    [dataset.pairs[i] for i in rows],
                ))
                job = BulkJob(
                    state.matcher, source, spec=self.spec, store=store,
                    run_dir=state.run_dir / f"job-{len(result.outputs)}",
                    on_chunk=on_chunk,
                )
                engine_before = job.engine.stats
                if tracer is not None:
                    tracer.open("op.bulk_job", op=len(result.outputs))
                    tracer.open("bulk.chunk")
                marks.append(clock())
                try:
                    report = job.run()
                finally:
                    if tracer is not None:
                        tracer.close(record=False)  # tail after last chunk
                        tracer.close()
                result.attempted += report.n_pairs
                result.failed += report.n_failed
                result.outputs.append(source.pairs())
                for key, value in _delta(engine_before, job.engine.stats).items():
                    engine_delta[key] = engine_delta.get(key, 0) + value
        finally:
            bulk_job.compute_explanation_payload = original
            if tracer is not None:
                tracer.unwrap_all()
        result.elapsed = clock() - started
        result.cpu_s = cpu.elapsed()
        result.rss_mb = peak_rss_mb()
        result.capacity = (result.attempted - result.failed) / result.elapsed
        result.engine_delta = engine_delta
        result.store_delta = _delta(store_before, store.stats)
        result.validity = {
            "jobs": len(result.outputs),
            "rows_exhausted": offset >= len(state.order),
        }
        return result

    def gate(self, state: _BulkState, phase: Phase) -> list[str]:
        pairs = [pair for job_pairs in phase.outputs for pair in job_pairs]
        requests = [self.spec.request_for(pair) for pair in pairs]
        keys = [request_key(state.fingerprint, r) for r in requests]
        stored = state.store.get_many(keys)
        problems = [
            f"pair {r.pair.pair_id}: missing from the store"
            for r, key in zip(requests, keys) if key not in stored
        ]
        problems += [
            f"pair {r.pair.pair_id}: non-finite weight"
            for r, key in zip(requests, keys)
            if key in stored and not gate.payload_is_finite(stored[key])
        ]
        for index in gate.pick(self.seed, self.name, len(pairs), GATE_BULK):
            if keys[index] in stored:
                problems += gate.check_payload(
                    state.matcher, state.fingerprint, requests[index],
                    stored[keys[index]],
                )
        return problems


# ---------------------------------------------------------------------------
# serve-skewed
# ---------------------------------------------------------------------------


@dataclass
class _ServeState:
    matcher: object
    fingerprint: str
    keyspace: list
    server: MatcherServerProcess
    service: ExplanationService | None = None
    store: ExplanationStore | None = None


class ServeSkewed(Workload):
    name = "serve-skewed"

    def child_pids(self, state) -> list[int]:
        return [state.server.pid]

    def setup(self) -> _ServeState:
        dataset = load_dataset("S-WA", seed=self.seed, size_cap=SERVE_ROWS)
        matcher = LogisticRegressionMatcher().fit(dataset)
        run_dir = self.fresh_dir()
        fingerprint = save_matcher(
            matcher,
            run_dir / f"logistic-S-WA-seed{self.seed}-cap{SERVE_ROWS}.pkl",
        )
        server = MatcherServerProcess(self.root, [
            "--model-dir", str(run_dir), "--matcher", "logistic",
            "--dataset", "S-WA", "--seed", str(self.seed),
            "--size-cap", str(SERVE_ROWS),
        ])
        order = row_order(self.seed, len(dataset), self.name)
        state = _ServeState(
            matcher, fingerprint,
            [dataset.pairs[i] for i in order[SERVE_WARMUP:]],
            server,
        )
        try:
            state.store = ExplanationStore(run_dir / "store")
            state.service = ExplanationService(
                RemoteBackend(server.address),
                store=state.store,
                config=ServiceConfig(n_workers=2),
            )
            if state.service.fingerprint != fingerprint:
                raise RuntimeError("matcher server serves a different matcher")
            # Warm-up on pairs outside the key space, so the phase starts
            # with the matcher's value caches warm.
            for index in order[:SERVE_WARMUP]:
                state.service.explain(ExplainRequest(
                    pair=dataset.pairs[index], samples=SERVE_SAMPLES
                ))
        except BaseException:
            self.teardown(state)
            raise
        return state

    def teardown(self, state: _ServeState) -> None:
        try:
            if state.service is not None:
                state.service.close()
            if state.store is not None:
                state.store.close()
        finally:
            state.server.stop()

    def phase(self, state: _ServeState, seconds: float,
              tracer: Tracer | None) -> Phase:
        service = state.service
        requests = [
            ExplainRequest(pair=state.keyspace[k.pair], method=k.method,
                           samples=SERVE_SAMPLES)
            for k in serve_mix(self.seed, len(state.keyspace), SERVE_REQUESTS,
                               SERVE_ZIPF, SERVE_EPOCH)
        ]
        result = Phase(slice_ops=SERVE_SLICE_OPS)
        lock = threading.Lock()
        issued = itertools.count()
        futures: dict[int, object] = {}
        submitted_at: dict[str, tuple[int, float]] = {}
        clock = time.perf_counter

        def compute_op_of(args, kwargs):
            key = args[3] if len(args) > 3 else kwargs["key"]
            op, at = submitted_at.get(key, (None, None))
            if at is not None:
                result.queue_waits.append(clock() - at)
            return op

        def caller() -> None:
            while True:
                i = next(issued)
                if i >= len(requests) or clock() - started >= seconds:
                    return
                request = requests[i]
                t0 = clock()
                try:
                    if tracer is not None:
                        submitted_at.setdefault(service.key_for(request), (i, t0))
                        with tracer.span("op.submit", op=i):
                            future = service.submit(request)
                    else:
                        future = service.submit(request)
                    with lock:
                        if future.done():
                            path = "hit"
                        elif id(future) in futures:
                            path = "coalesced"
                        else:
                            path = "computed"
                            futures[id(future)] = future
                    payload = future.result(SERVE_TIMEOUT_S)
                except Exception:  # noqa: BLE001 - counted as a failed op
                    with lock:
                        result.attempted += 1
                        result.failed += 1
                    continue
                now = clock()
                with lock:
                    result.attempted += 1
                    result.latencies.append(now - t0)
                    result.finished.append(now)
                    result.outputs.append((request, payload, path))

        if tracer is not None:
            layers.install(tracer, type(state.matcher), compute_op_of)
        stats_before = service.stats
        engine_before = service.engine.stats
        store_before = state.store.stats
        callers = [threading.Thread(target=caller) for _ in range(SERVE_CALLERS)]
        cpu = CpuMeter(self.child_pids(state))
        started = result.started = clock()
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join()
        finally:
            if tracer is not None:
                tracer.unwrap_all()
        result.elapsed = clock() - started
        result.cpu_s = cpu.elapsed()
        result.rss_mb = peak_rss_mb(self.child_pids(state))
        service_delta = _delta(stats_before, service.stats)
        result.service_delta = service_delta
        result.engine_delta = _delta(engine_before, service.engine.stats)
        result.store_delta = _delta(store_before, state.store.stats)
        busy = service_delta["latency_seconds"]
        result.capacity = service_delta["computed"] / busy if busy else 0.0
        paths = [path for _, _, path in result.outputs]
        result.validity = {
            "callers": SERVE_CALLERS,
            "requests_exhausted": result.attempted >= len(requests),
            "paths": {p: paths.count(p) for p in sorted(set(paths))},
        }
        return result

    def gate(self, state: _ServeState, phase: Phase) -> list[str]:
        problems = [
            f"pair {request.pair.pair_id}: non-finite weight"
            for request, payload, _ in phase.outputs
            if not gate.payload_is_finite(payload)
        ]
        for path, k in GATE_SERVE.items():
            subset = [o for o in phase.outputs if o[2] == path]
            for index in gate.pick(self.seed, f"{self.name}-{path}",
                                   len(subset), k):
                request, payload, _ = subset[index]
                problems += gate.check_payload(
                    state.matcher, state.fingerprint, request, payload
                )
        return problems


def make(name: str, root: Path, seed: int, workdir: Path) -> Workload:
    for workload in (ExplainShort, BulkLong, ServeSkewed):
        if workload.name == name:
            return workload(root, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


def cleanup(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
