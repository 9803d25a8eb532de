"""Which public functions the traced run wraps, and the per-layer metrics.

Each layer of the program is measured at its public boundary from here;
nothing inside ``src/`` records spans for the benchmark.  Every
``<layer>.<name>_s`` metric is *self time*: the layer's spans minus the
time their child spans cover, so the layer metrics plus ``other_s`` add
up to all traced time.  ``other_s`` is the self time of the benchmark's
own operation spans (``op.*``) — pipeline glue no layer accounts for.
"""

from __future__ import annotations

import repro.backends.client as backend_client
import repro.bulk.job as bulk_job
import repro.core.engine as engine_module
import repro.explainers.lime_text as lime_text
import repro.service.service as service_module
from repro.backends.client import RemoteBackend
from repro.core.generation import LandmarkGenerator
from repro.core.engine import PredictionEngine
from repro.matchers.features import PairFeatureExtractor
from repro.service.store import ExplanationStore
from repro.surrogate.linear_model import WeightedRidge

from perfbench.stats import percentile
from perfbench.tracer import Tracer, self_times

#: Per-layer seconds metric -> the span names whose self time it sums.
LAYER_SECONDS = {
    "perturbation.sample_s": ("perturbation.sample_masks",),
    "generation.generate_s": ("generation.generate",),
    "columnar.rebuild_s": ("columnar.landmark_batch",),
    "engine.self_s": ("engine.predict_instance",),
    "matchers.features_s": ("matchers.transform",),
    "matchers.predict_s": ("matchers.predict",),
    "surrogate.fit_s": ("surrogate.fit",),
    "serialize.payload_s": ("serialize.dual_to_dict", "serialize.dual_digest"),
    "store.get_s": ("store.get",),
    "store.put_s": ("store.put",),
    "store.batch_s": ("store.get_many", "store.put_many"),
    "service.compute_s": ("service.compute",),
    "backends.roundtrip_s": ("backends.roundtrip", "backends.send_frame"),
    "bulk.self_s": ("bulk.chunk",),
}

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = {
    "perturbation.sample_s": "s",
    "perturbation.rows": "count",
    "generation.generate_s": "s",
    "columnar.rebuild_s": "s",
    "engine.self_s": "s",
    "engine.rows_requested": "count",
    "engine.rows_issued": "count",
    "engine.saved_ratio": "ratio",
    "engine.cache_hit_ratio": "ratio",
    "matchers.features_s": "s",
    "matchers.predict_s": "s",
    "matchers.calls": "count",
    "matchers.rows_per_call": "count",
    "surrogate.fit_s": "s",
    "serialize.payload_s": "s",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.batch_s": "s",
    "store.hit_ratio": "ratio",
    "service.queue_wait_p95_ms": "ms",
    "service.compute_s": "s",
    "service.coalesced_ratio": "ratio",
    "backends.roundtrip_s": "s",
    "backends.frames": "count",
    "backends.frame_bytes": "bytes",
    "bulk.chunk_p50_ms": "ms",
    "bulk.self_s": "s",
    "other_s": "s",
    "obs.trace_overhead_ratio": "ratio",
}


def _rows_of(batch_or_pairs) -> int:
    n_rows = getattr(batch_or_pairs, "n_rows", None)
    return int(n_rows) if n_rows is not None else len(batch_or_pairs)


def install(tracer: Tracer, matcher_cls, compute_op_of=None) -> None:
    """Wrap every layer boundary; ``tracer.unwrap_all()`` undoes it.

    *matcher_cls* is the in-process matcher's class (its predict entry
    points are timed); *compute_op_of* maps a
    ``compute_explanation_payload`` call to its operation id.
    """

    def count_rows(metric):
        def counter(args, kwargs, result):
            tracer.count(metric, len(result))
        return counter

    def count_matcher_call(args, kwargs, result):
        tracer.count("matchers.calls")
        tracer.count("matchers.rows", _rows_of(args[1]))

    tracer.wrap(lime_text, "sample_masks", "perturbation.sample_masks",
                counter=count_rows("perturbation.rows"))
    tracer.wrap(LandmarkGenerator, "generate", "generation.generate")
    tracer.wrap(engine_module, "landmark_batch", "columnar.landmark_batch")
    tracer.wrap(PredictionEngine, "predict_instance", "engine.predict_instance")
    for attr in ("transform", "transform_columnar"):
        tracer.wrap(PairFeatureExtractor, attr, "matchers.transform")
    for attr in ("predict_proba", "predict_proba_columnar"):
        if attr in matcher_cls.__dict__:
            tracer.wrap(matcher_cls, attr, "matchers.predict",
                        counter=count_matcher_call)
    tracer.wrap(WeightedRidge, "fit", "surrogate.fit")
    tracer.wrap(service_module, "dual_to_dict", "serialize.dual_to_dict")
    tracer.wrap(service_module, "dual_digest", "serialize.dual_digest")
    for attr in ("get", "put", "get_many", "put_many"):
        tracer.wrap(ExplanationStore, attr, f"store.{attr}")
    for owner in (service_module, bulk_job):
        tracer.wrap(owner, "compute_explanation_payload", "service.compute",
                    op_of=compute_op_of)
    for attr in ("predict_proba", "predict_proba_columnar"):
        tracer.wrap(RemoteBackend, attr, "backends.roundtrip")
    tracer.wrap_send_frame(backend_client, "backends.send_frame")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    engine_delta: dict,
    store_delta: dict | None,
    service_delta: dict | None,
    queue_waits_s: list[float],
    chunk_seconds: list[float],
    overhead_ratio: float,
) -> dict[str, float]:
    """Fold spans, counts and program counters into the per-layer metrics.

    A layer that did not run on the workload reports 0.  *engine_delta*
    etc. are the changes of the program's own counters over the traced
    phase (``EngineStats``/``StoreStats``/``ServiceStats`` fields).
    """
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, float] = {}
    other = 0.0
    for span in spans:
        by_name[span.name] = by_name.get(span.name, 0.0) + own[span.sid]
        if span.name.startswith("op."):
            other += own[span.sid]
    metrics = {
        metric: sum(by_name.get(name, 0.0) for name in names)
        for metric, names in LAYER_SECONDS.items()
    }
    counts = tracer.counts
    requested = engine_delta.get("requested", 0)
    issued = engine_delta.get("calls_issued", 0)
    lookups = engine_delta.get("cache_hits", 0) + engine_delta.get(
        "cache_misses", 0
    )
    store_delta = store_delta or {}
    service_delta = service_delta or {}
    frames = counts.get("backends.frames", 0.0)
    metrics.update(
        {
            "perturbation.rows": counts.get("perturbation.rows", 0.0),
            "engine.rows_requested": float(requested),
            "engine.rows_issued": float(issued),
            "engine.saved_ratio": _ratio(requested - issued, requested),
            "engine.cache_hit_ratio": _ratio(
                engine_delta.get("cache_hits", 0), lookups
            ),
            "matchers.calls": counts.get("matchers.calls", 0.0),
            "matchers.rows_per_call": _ratio(
                counts.get("matchers.rows", 0.0),
                counts.get("matchers.calls", 0.0),
            ),
            "store.hit_ratio": _ratio(
                store_delta.get("hits", 0),
                store_delta.get("hits", 0) + store_delta.get("misses", 0),
            ),
            "service.queue_wait_p95_ms": (
                1000.0 * percentile(queue_waits_s, 95) if queue_waits_s else 0.0
            ),
            "service.coalesced_ratio": _ratio(
                service_delta.get("coalesced", 0),
                service_delta.get("requests", 0),
            ),
            "backends.frames": frames,
            "backends.frame_bytes": _ratio(
                counts.get("backends.frame_bytes", 0.0), frames
            ),
            # A median of chunk wall times: a job has few chunks, so this
            # one asks only that the median be a real middle sample.
            "bulk.chunk_p50_ms": (
                1000.0 * percentile(chunk_seconds, 50, min_beyond=1)
                if len(chunk_seconds) >= 3 else 0.0
            ),
            "other_s": other,
            "obs.trace_overhead_ratio": overhead_ratio,
        }
    )
    return {name: metrics[name] for name in PER_LAYER_UNITS}

