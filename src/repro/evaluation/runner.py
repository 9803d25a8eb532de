"""The experiment runner: one call regenerates the paper's result grid.

For every requested benchmark dataset the runner

1. materializes the dataset (synthetic Magellan stand-in),
2. trains the EM model (Logistic Regression by default),
3. samples up to ``per_label`` records of each class (the paper's setup),
4. explains every sampled record with every method under evaluation, and
5. scores the three evaluations: token-removal reliability (Table 2),
   attribute-ranking agreement (Table 3) and interest (Table 4).

Results come back as plain dataclasses; :mod:`repro.evaluation.tables`
renders them in the paper's layouts.

Fault tolerance
---------------
Explanation runs are expensive and matchers can be flaky, so the runner
degrades instead of dying: every record and every (label, method) cell is
isolated, failures land in a structured :class:`~repro.evaluation.ledger.
FailureLedger` (feeding ``MethodMetrics.n_skipped`` / ``n_degraded``), and
— when a run directory is given — each completed cell is journaled so a
killed run can be resumed with ``run(..., run_dir=..., resume=True)``
skipping everything already done.  The matcher guard configured through
``ExperimentConfig.guard_*`` adds per-call retry/timeout/circuit-breaker
protection underneath (see :mod:`repro.core.guard`).
"""

from __future__ import annotations

import logging
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.config import (
    METHOD_MOJITO_COPY,
    ExperimentConfig,
    FAST,
)
from repro.core.engine import EngineStats, PredictionEngine
from repro.data.records import EMDataset, MATCH, NON_MATCH, RecordPair
from repro.data.splits import sample_per_label
from repro.data.synthetic.magellan import DATASET_CODES, load_dataset
from repro.evaluation.attribute_eval import attribute_eval
from repro.evaluation.interest_eval import interest_eval
from repro.evaluation.ledger import (
    CELL_RECORD_ID,
    FailureEntry,
    FailureLedger,
    KIND_CELL,
    KIND_DEGRADED,
    KIND_SKIPPED,
)
from repro.evaluation.methods import ExplainedRecord, MethodExplainers
from repro.evaluation.token_eval import token_removal_eval
from repro.exceptions import CheckpointError, ConfigurationError, ExplanationError
from repro.explainers.lime_text import LimeConfig
from repro.matchers.base import EntityMatcher
from repro.matchers.evaluate import MatchQuality, evaluate_matcher
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import trace

logger = logging.getLogger("repro.evaluation")

#: Human-readable label keys used in results and tables.
LABEL_KEYS = {MATCH: "match", NON_MATCH: "non_match"}


@dataclass(frozen=True)
class MethodMetrics:
    """All per-(dataset, label, method) numbers of Tables 2-4."""

    method: str
    label: int
    token_accuracy: float
    token_mae: float
    kendall: float
    interest: float
    n_records: int
    n_skipped: int = 0
    #: Records explained with a weaker generation mode (see the failure
    #: ledger's ``degraded`` entries); they still count in ``n_records``.
    n_degraded: int = 0
    seconds: float = 0.0
    #: Deletion-curve faithfulness gain; NaN unless the config enables it.
    faithfulness: float = float("nan")


@dataclass
class DatasetResult:
    """Everything measured on one benchmark dataset."""

    code: str
    n_pairs: int
    matcher_quality: MatchQuality
    metrics: dict[tuple[int, str], MethodMetrics] = field(default_factory=dict)
    #: Prediction-engine counters for the whole dataset run (see
    #: :meth:`repro.core.engine.EngineStats.as_dict`); ``None`` on runs
    #: loaded from old result files.
    engine_stats: dict[str, float] | None = None
    #: Isolated failures collected while running this dataset.
    failures: list[FailureEntry] = field(default_factory=list)

    def get(self, label: int, method: str) -> MethodMetrics | None:
        return self.metrics.get((label, method))


@dataclass
class BenchmarkResult:
    """Results for a whole run, keyed by dataset code."""

    config: ExperimentConfig
    datasets: dict[str, DatasetResult] = field(default_factory=dict)

    @property
    def codes(self) -> list[str]:
        ordered = [code for code in DATASET_CODES if code in self.datasets]
        extras = [code for code in self.datasets if code not in DATASET_CODES]
        return ordered + sorted(extras)

    def engine_totals(self) -> EngineStats | None:
        """Prediction-engine counters summed over all datasets."""
        per_dataset = [
            EngineStats.from_counters(dataset.engine_stats)
            for dataset in self.datasets.values()
            if dataset.engine_stats
        ]
        if not per_dataset:
            return None
        totals = EngineStats()
        for stats in per_dataset:
            totals.add(stats)
        return totals

    def ledger(self) -> FailureLedger:
        """All isolated failures of the run, across datasets."""
        ledger = FailureLedger()
        for code in self.codes:
            ledger.extend(self.datasets[code].failures)
        return ledger


class ExperimentRunner:
    """Drives the full evaluation protocol for one configuration."""

    def __init__(
        self,
        config: ExperimentConfig = FAST,
        matcher_factory: Callable[[], EntityMatcher] | None = None,
        on_cell: Callable[[str, int, str], None] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        """*on_cell*, when given, is called as ``on_cell(code, label,
        method)`` after every attempted grid cell (after its checkpoint is
        written).  The fault-tolerance tests use it to kill a run at cell K
        and resume it; exceptions it raises propagate.

        *metrics* is the registry the run records into (cell counters and
        durations here, plus every per-dataset prediction engine); the
        ``experiment`` CLI writes it out as ``metrics.json`` next to the
        run JSON.  Both the registry and the runner stay picklable, so
        ``n_jobs > 1`` still works — each worker process accumulates
        into its own copy.
        """
        self.config = config
        self.matcher_factory = matcher_factory or LogisticRegressionMatcher
        self.on_cell = on_cell
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        labels = {"component": "runner"}
        self._cells_total = self.metrics.counter(
            "repro_runner_cells_total",
            "Grid cells attempted (checkpointed cells excluded)",
            **labels,
        )
        self._cells_failed = self.metrics.counter(
            "repro_runner_cells_failed_total",
            "Grid cells whose evaluation stage failed entirely",
            **labels,
        )
        self._records_total = self.metrics.counter(
            "repro_runner_records_total",
            "Records successfully explained across all grid cells",
            **labels,
        )
        self._cell_seconds = self.metrics.histogram(
            "repro_stage_seconds",
            "Wall time per pipeline stage",
            stage="cell", **labels,
        )

    # ------------------------------------------------------------------

    def _lime_config(self) -> LimeConfig:
        return LimeConfig(n_samples=self.config.lime_samples, seed=self.config.seed)

    def _methods_for_label(self, label: int) -> list[str]:
        methods = list(self.config.methods)
        if label == MATCH and not self.config.copy_on_match:
            methods = [m for m in methods if m != METHOD_MOJITO_COPY]
        return methods

    def _explain_records(
        self,
        explainers: MethodExplainers,
        method: str,
        pairs: Sequence[RecordPair],
        code: str,
        label: int,
        failures: list[FailureEntry],
    ) -> list[ExplainedRecord]:
        """Explain *pairs*, isolating per-record failures into *failures*.

        Any exception except :class:`ConfigurationError` (a caller bug that
        would poison every record identically) skips just the one record;
        records the method explained in a degraded mode are kept but logged.
        """
        explained: list[ExplainedRecord] = []
        for pair in pairs:
            try:
                record = explainers.explain(method, pair)
            except ConfigurationError:
                raise
            except Exception as error:
                entry = FailureEntry.from_exception(
                    code, label, method, pair.pair_id, error, kind=KIND_SKIPPED
                )
                failures.append(entry)
                logger.warning("  skipped record: %s", entry.describe())
                continue
            if record.degraded:
                failures.append(
                    FailureEntry.from_exception(
                        code,
                        label,
                        method,
                        pair.pair_id,
                        record.degraded_error
                        or ExplanationError("degraded without cause"),
                        kind=KIND_DEGRADED,
                    )
                )
            explained.append(record)
        return explained

    def _record_cell(self, metrics: MethodMetrics | None) -> None:
        """Account one attempted grid cell in the run registry."""
        updates = [(self._cells_total, 1)]
        if metrics is None:
            updates.append((self._cells_failed, 1))
        else:
            updates.append((self._records_total, metrics.n_records))
            updates.append((self._cell_seconds, metrics.seconds))
        self.metrics.bulk(updates)

    # ------------------------------------------------------------------

    def _run_cell(
        self,
        code: str,
        label: int,
        method: str,
        pairs: Sequence[RecordPair],
        explainers: MethodExplainers,
        eval_matcher: EntityMatcher,
        model_importance: dict[str, float] | None,
    ) -> tuple[MethodMetrics | None, list[FailureEntry]]:
        """One (label, method) grid cell, with the whole evaluation stage
        isolated: a failure yields ``(None, failures)`` instead of killing
        the dataset run."""
        config = self.config
        started = time.perf_counter()
        failures: list[FailureEntry] = []
        explained = self._explain_records(
            explainers, method, pairs, code=code, label=label, failures=failures
        )
        try:
            token = token_removal_eval(
                explained,
                eval_matcher,
                fraction=config.removal_fraction,
                threshold=config.threshold,
                seed=config.seed,
            )
            kendall = float("nan")
            if model_importance is not None:
                kendall = attribute_eval(explained, model_importance).kendall
            interest = interest_eval(
                explained, eval_matcher, threshold=config.threshold
            ).interest
            faithfulness = float("nan")
            if config.faithfulness:
                from repro.evaluation.faithfulness import faithfulness_eval

                faithfulness = faithfulness_eval(
                    explained,
                    eval_matcher,
                    threshold=config.threshold,
                    seed=config.seed,
                ).gain
        except ConfigurationError:
            raise
        except Exception as error:
            entry = FailureEntry.from_exception(
                code, label, method, CELL_RECORD_ID, error, kind=KIND_CELL
            )
            failures.append(entry)
            logger.error("  cell failed: %s", entry.describe())
            return None, failures
        elapsed = time.perf_counter() - started
        metrics = MethodMetrics(
            method=method,
            label=label,
            token_accuracy=token.accuracy,
            token_mae=token.mae,
            kendall=kendall,
            interest=interest,
            n_records=len(explained),
            n_skipped=sum(1 for f in failures if f.kind == KIND_SKIPPED),
            n_degraded=sum(1 for f in failures if f.kind == KIND_DEGRADED),
            seconds=elapsed,
            faithfulness=faithfulness,
        )
        return metrics, failures

    def run_dataset(
        self,
        code: str,
        dataset: EMDataset | None = None,
        matcher: EntityMatcher | None = None,
        *,
        checkpoint=None,
        resumed=None,
    ) -> DatasetResult:
        """Run the full protocol on one dataset.

        *checkpoint* is a :class:`repro.evaluation.persistence.
        CheckpointWriter` to journal completed cells into; *resumed* is the
        :class:`~repro.evaluation.persistence.ResumedDataset` replayed from
        a previous journal, whose cells are not re-run.  A dataset whose
        grid is fully covered by *resumed* is restored without even loading
        the data or training the matcher.
        """
        config = self.config
        done: dict[tuple[int, str], MethodMetrics] = (
            dict(resumed.metrics) if resumed is not None else {}
        )
        needed = [
            (label, method)
            for label in (MATCH, NON_MATCH)
            for method in self._methods_for_label(label)
        ]
        missing = [cell for cell in needed if cell not in done]
        if resumed is not None and not missing and resumed.n_pairs is not None:
            result = DatasetResult(
                code=code,
                n_pairs=resumed.n_pairs,
                matcher_quality=resumed.quality,
                engine_stats=resumed.engine_stats,
            )
            result.metrics.update(done)
            result.failures.extend(resumed.failures)
            logger.info("dataset %s: restored from checkpoint", code)
            return result

        if dataset is None:
            dataset = load_dataset(code, seed=config.seed, size_cap=config.size_cap)
        if matcher is None:
            matcher = self.matcher_factory()
            matcher.fit(dataset)
        sample = sample_per_label(dataset, config.per_label, seed=config.seed)
        # One prediction engine per dataset: its cache persists across
        # landmark sides, methods AND the evaluation stages below, which
        # all re-predict overlapping records.
        engine = PredictionEngine(
            matcher, config.engine_config(), metrics=self.metrics
        )
        eval_matcher = engine.as_matcher()
        # Matcher quality is measured through the engine too, so the guard
        # covers the scoring pass and its predictions pre-warm the cache.
        quality = evaluate_matcher(eval_matcher, dataset, threshold=config.threshold)
        logger.info(
            "dataset %s: %d pairs, matcher f1=%.3f", code, len(dataset), quality.f1
        )
        if checkpoint is not None:
            checkpoint.record_dataset(code, len(dataset), quality)
        explainers = MethodExplainers(
            matcher, lime_config=self._lime_config(), seed=config.seed,
            engine=engine,
        )
        model_importance = None
        importance_fn = getattr(matcher, "attribute_weights", None)
        if callable(importance_fn):
            model_importance = importance_fn()

        result = DatasetResult(
            code=code, n_pairs=len(dataset), matcher_quality=quality
        )
        result.metrics.update(done)
        if resumed is not None:
            result.failures.extend(resumed.failures)
        with trace.span("dataset", code=code):
            for label in (MATCH, NON_MATCH):
                pairs = sample.by_label(label).pairs
                for method in self._methods_for_label(label):
                    if (label, method) in done:
                        logger.info(
                            "  %s/%s/%s: checkpointed, skipping",
                            code, LABEL_KEYS[label], method,
                        )
                        continue
                    with trace.span(
                        "cell", code=code, label=LABEL_KEYS[label],
                        method=method,
                    ):
                        metrics, failures = self._run_cell(
                            code, label, method, pairs, explainers,
                            eval_matcher, model_importance,
                        )
                    self._record_cell(metrics)
                    result.failures.extend(failures)
                    if metrics is not None:
                        result.metrics[(label, method)] = metrics
                        if checkpoint is not None:
                            checkpoint.record_cell(
                                code, label, method, metrics, failures
                            )
                        logger.info(
                            "  %s/%s/%s: acc=%.3f mae=%.3f tau=%.3f "
                            "interest=%.3f (%d records, %.1fs)",
                            code,
                            LABEL_KEYS[label],
                            method,
                            metrics.token_accuracy,
                            metrics.token_mae,
                            metrics.kendall,
                            metrics.interest,
                            metrics.n_records,
                            metrics.seconds,
                        )
                    if self.on_cell is not None:
                        self.on_cell(code, label, method)
        result.engine_stats = engine.stats.as_dict()
        if checkpoint is not None:
            checkpoint.record_engine(code, result.engine_stats)
        logger.info("  %s: %s", code, engine.stats.summary())
        return result

    def run(
        self,
        codes: Sequence[str] | None = None,
        n_jobs: int = 1,
        run_dir: str | None = None,
        resume: bool = False,
    ) -> BenchmarkResult:
        """Run the protocol on several datasets (all twelve by default).

        ``n_jobs > 1`` distributes *datasets* over worker processes — the
        protocol is embarrassingly parallel across datasets since every
        dataset trains its own matcher.  Requires the default matcher
        factory or a picklable one.

        *run_dir* turns on checkpointing: after every completed grid cell a
        journal line is appended under that directory, and ``resume=True``
        replays the journal (validating it against this runner's config)
        and re-runs only what is missing.  Checkpointing forces serial
        dataset execution — worker processes cannot share the journal.
        """
        from repro.evaluation.persistence import CheckpointWriter, load_checkpoint

        selected = tuple(codes) if codes else None
        result = BenchmarkResult(config=self.config)
        state = None
        checkpoint = None
        if resume:
            if run_dir is None:
                raise CheckpointError("resume=True requires run_dir")
            state = load_checkpoint(run_dir, expected_config=self.config)
            if selected is None:
                # Resume what the original run was asked for, not the
                # full benchmark.
                selected = state.codes
        if selected is None:
            selected = DATASET_CODES
        if run_dir is not None:
            if n_jobs > 1:
                logger.warning(
                    "checkpointing forces serial execution; ignoring n_jobs=%d",
                    n_jobs,
                )
                n_jobs = 1
            checkpoint = CheckpointWriter(
                run_dir, self.config, fresh=not resume, codes=selected
            )
        if n_jobs <= 1 or len(selected) <= 1:
            for code in selected:
                resumed = state.for_dataset(code) if state is not None else None
                result.datasets[code] = self.run_dataset(
                    code, checkpoint=checkpoint, resumed=resumed
                )
            return result

        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(n_jobs, len(selected))) as pool:
            for code, dataset_result in zip(
                selected, pool.map(self.run_dataset, selected)
            ):
                result.datasets[code] = dataset_result
        return result
