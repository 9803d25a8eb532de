"""Saving, loading and diffing benchmark runs — and checkpointing them.

Reproduction work is iterative: you tweak the generator or a matcher
hyper-parameter and want to know what moved.  This module serializes a
:class:`~repro.evaluation.runner.BenchmarkResult` to JSON and renders the
per-cell deltas between two runs.

It also implements the crash-safe checkpoint journal behind
``ExperimentRunner.run(run_dir=..., resume=...)``: an append-only JSONL
file (``checkpoint.jsonl``) with one event per line — the run's config,
each dataset's metadata, each completed (label, method) cell with its
metrics and failure-ledger entries, and each dataset's final engine
counters.  Appending one line per completed cell (fsync'd) means a kill at
any point loses at most the cell in flight; on resume the journal is
replayed into :class:`ResumeState` and only missing cells are re-run.  A
partial trailing line (the signature of a mid-write kill) is tolerated;
corruption anywhere else raises :class:`~repro.exceptions.CheckpointError`.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from repro.config import ExperimentConfig
from repro.evaluation.ledger import FailureEntry
from repro.evaluation.runner import BenchmarkResult, DatasetResult, MethodMetrics
from repro.evaluation.tables import render_table
from repro.exceptions import CheckpointError, DatasetError
from repro.matchers.evaluate import MatchQuality

logger = logging.getLogger("repro.evaluation")

FORMAT_VERSION = 1

#: File name of the checkpoint journal inside a run directory.
CHECKPOINT_NAME = "checkpoint.jsonl"


def _nan_to_none(payload: dict) -> dict:
    """NaN floats → None, for portable JSON."""
    return {
        key: (None if isinstance(value, float) and value != value else value)
        for key, value in payload.items()
    }


def _none_to_nan(payload: dict) -> dict:
    """Inverse of :func:`_nan_to_none` for metric payloads."""
    return {
        key: (float("nan") if value is None else value)
        for key, value in payload.items()
    }


def result_to_dict(result: BenchmarkResult) -> dict:
    """A JSON-serializable view of a benchmark run."""
    payload: dict = {
        "format_version": FORMAT_VERSION,
        "config": asdict(result.config),
        "datasets": {},
    }
    for code, dataset_result in result.datasets.items():
        payload["datasets"][code] = {
            "n_pairs": dataset_result.n_pairs,
            "matcher_quality": (
                asdict(dataset_result.matcher_quality)
                if dataset_result.matcher_quality is not None
                else None
            ),
            "metrics": [
                _nan_to_none(asdict(metrics))
                for metrics in dataset_result.metrics.values()
            ],
            "engine_stats": dataset_result.engine_stats,
            "failures": [
                entry.to_dict() for entry in dataset_result.failures
            ],
        }
    return payload


def save_result(result: BenchmarkResult, path: str | Path) -> None:
    """Write a run to *path* as JSON."""
    Path(path).write_text(
        json.dumps(result_to_dict(result), indent=2, sort_keys=True),
        encoding="utf-8",
    )


def result_from_dict(payload: dict) -> BenchmarkResult:
    """Rebuild a :class:`BenchmarkResult` from :func:`result_to_dict` output."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise DatasetError(
            f"unsupported result format version {version!r}; "
            f"expected {FORMAT_VERSION}"
        )
    result = BenchmarkResult(config=_config_from_payload(payload["config"]))
    for code, dataset_payload in payload["datasets"].items():
        quality_payload = dataset_payload.get("matcher_quality")
        quality = MatchQuality(**quality_payload) if quality_payload else None
        dataset_result = DatasetResult(
            code=code,
            n_pairs=dataset_payload["n_pairs"],
            matcher_quality=quality,  # type: ignore[arg-type]
            engine_stats=dataset_payload.get("engine_stats"),
        )
        for metric_payload in dataset_payload["metrics"]:
            metrics = MethodMetrics(**_none_to_nan(metric_payload))
            dataset_result.metrics[(metrics.label, metrics.method)] = metrics
        dataset_result.failures = [
            FailureEntry.from_dict(item)
            for item in dataset_payload.get("failures") or []
        ]
        result.datasets[code] = dataset_result
    return result


def load_result(path: str | Path) -> BenchmarkResult:
    """Read a run previously written by :func:`save_result`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return result_from_dict(payload)


def compare_results(
    baseline: BenchmarkResult,
    candidate: BenchmarkResult,
    fields: tuple[str, ...] = ("token_accuracy", "token_mae", "kendall", "interest"),
) -> str:
    """Render per-cell metric deltas (candidate − baseline).

    Cells present in only one run are skipped; the header names the
    configs so a diff is self-describing.
    """
    rows = []
    for code in baseline.codes:
        if code not in candidate.datasets:
            continue
        baseline_metrics = baseline.datasets[code].metrics
        candidate_metrics = candidate.datasets[code].metrics
        for key in sorted(set(baseline_metrics) & set(candidate_metrics)):
            label, method = key
            row: list[object] = [code, "match" if label == 1 else "non-match", method]
            for field in fields:
                before = getattr(baseline_metrics[key], field)
                after = getattr(candidate_metrics[key], field)
                row.append(after - before)
            rows.append(row)
    headers = ["Dataset", "Label", "Method"] + [f"Δ{field}" for field in fields]
    title = (
        f"run comparison: {candidate.config.name!r} minus {baseline.config.name!r}"
    )
    return title + "\n" + render_table(headers, rows)


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------


def _config_payload(config: ExperimentConfig) -> dict:
    payload = asdict(config)
    payload["methods"] = list(payload["methods"])
    return payload


def _config_from_payload(payload: dict) -> ExperimentConfig:
    """The config of a run file; keys of retired fields are dropped.

    Run files written before a field was retired (the per-pair/columnar
    engine switch, for one) still load and resume.
    """
    known = {item.name for item in fields(ExperimentConfig)}
    payload = {key: value for key, value in payload.items() if key in known}
    payload["methods"] = tuple(payload["methods"])
    return ExperimentConfig(**payload)


class JournalWriter:
    """Append-only, fsync'd JSONL journal — the crash-safety primitive.

    One JSON object per line, each flushed and fsync'd before the append
    returns, so a kill -9 at any point loses at most one partially written
    trailing line (which :func:`read_journal` tolerates).  The experiment
    checkpoint (:class:`CheckpointWriter`) and the service's precompute
    journal both build on this.
    """

    def __init__(self, path: str | Path, fresh: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fresh or not self.path.exists():
            self.path.write_text("", encoding="utf-8")

    def append(self, payload: dict) -> None:
        line = json.dumps(payload, sort_keys=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())


class CheckpointWriter:
    """Appends run progress to the ``checkpoint.jsonl`` journal.

    ``fresh=True`` starts a new journal (overwriting any previous one in
    the directory); ``fresh=False`` appends to an existing journal, which
    is what a resumed run does.  Every record is flushed and fsync'd so a
    kill -9 can lose at most one partially written trailing line.
    """

    def __init__(
        self,
        run_dir: str | Path,
        config: ExperimentConfig,
        fresh: bool = True,
        codes: tuple[str, ...] | None = None,
    ) -> None:
        """*codes* is the dataset selection of the run, journaled so a
        resume can re-run exactly what was originally asked for."""
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.run_dir / CHECKPOINT_NAME
        needs_header = fresh or not self.path.exists()
        self._journal = JournalWriter(self.path, fresh=needs_header)
        if needs_header:
            self._append(
                {
                    "event": "config",
                    "format_version": FORMAT_VERSION,
                    "config": _config_payload(config),
                    "codes": list(codes) if codes else None,
                }
            )

    def _append(self, payload: dict) -> None:
        self._journal.append(payload)

    def record_dataset(
        self, code: str, n_pairs: int, quality: MatchQuality
    ) -> None:
        self._append(
            {
                "event": "dataset",
                "code": code,
                "n_pairs": n_pairs,
                "quality": _nan_to_none(asdict(quality)),
            }
        )

    def record_cell(
        self,
        code: str,
        label: int,
        method: str,
        metrics: MethodMetrics,
        failures: list[FailureEntry],
    ) -> None:
        self._append(
            {
                "event": "cell",
                "code": code,
                "label": label,
                "method": method,
                "metrics": _nan_to_none(asdict(metrics)),
                "failures": [entry.to_dict() for entry in failures],
            }
        )

    def record_engine(self, code: str, stats: dict) -> None:
        self._append({"event": "engine", "code": code, "stats": stats})


@dataclass
class ResumedDataset:
    """Everything the journal knows about one dataset."""

    code: str
    n_pairs: int | None = None
    quality: MatchQuality | None = None
    metrics: dict[tuple[int, str], MethodMetrics] = field(default_factory=dict)
    failures: list[FailureEntry] = field(default_factory=list)
    engine_stats: dict | None = None


@dataclass
class ResumeState:
    """A replayed checkpoint journal: the config plus per-dataset progress."""

    config: ExperimentConfig
    datasets: dict[str, ResumedDataset] = field(default_factory=dict)
    #: Dataset selection of the original run (``None`` = full benchmark).
    codes: tuple[str, ...] | None = None

    def for_dataset(self, code: str) -> ResumedDataset | None:
        return self.datasets.get(code)

    def n_cells(self) -> int:
        return sum(len(dataset.metrics) for dataset in self.datasets.values())


def read_journal(path: str | Path) -> list[dict]:
    """Parse a JSONL journal written by :class:`JournalWriter`.

    A partial trailing line (the signature of a mid-write kill) is
    discarded with a warning; corruption anywhere else raises
    :class:`~repro.exceptions.CheckpointError`.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    events: list[dict] = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as error:
            if index == len(lines) - 1:
                # A kill mid-write leaves exactly one partial trailing
                # line; that cell simply re-runs on resume.
                logger.warning(
                    "checkpoint %s: discarding partial trailing line", path
                )
                break
            raise CheckpointError(
                f"checkpoint {path} is corrupt at line {index + 1}: {error}"
            ) from error
    return events


#: Backwards-compatible alias (pre-service releases used the private name).
_read_journal = read_journal


def load_checkpoint(
    run_dir: str | Path,
    expected_config: ExperimentConfig | None = None,
) -> ResumeState:
    """Replay a checkpoint journal into a :class:`ResumeState`.

    *expected_config*, when given, must match the config the journal was
    written with — resuming under a different configuration would silently
    mix incompatible cells into one result.
    """
    path = Path(run_dir) / CHECKPOINT_NAME
    if not path.exists():
        raise CheckpointError(f"no checkpoint journal at {path}")
    events = read_journal(path)
    if not events or events[0].get("event") != "config":
        raise CheckpointError(
            f"checkpoint {path} does not start with a config event"
        )
    header = events[0]
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version "
            f"{header.get('format_version')!r}; expected {FORMAT_VERSION}"
        )
    config = _config_from_payload(header["config"])
    if expected_config is not None and _config_payload(
        expected_config
    ) != _config_payload(config):
        raise CheckpointError(
            f"checkpoint {path} was written with config "
            f"{config.name!r}; refusing to resume with a different "
            f"configuration (pass the same preset and guard settings)"
        )
    journaled_codes = header.get("codes")
    state = ResumeState(
        config=config,
        codes=tuple(journaled_codes) if journaled_codes else None,
    )
    for event in events[1:]:
        kind = event.get("event")
        code = event.get("code")
        if not code:
            continue
        dataset = state.datasets.setdefault(code, ResumedDataset(code=code))
        if kind == "dataset":
            dataset.n_pairs = event["n_pairs"]
            dataset.quality = MatchQuality(
                **_none_to_nan(event["quality"])
            )
        elif kind == "cell":
            metrics = MethodMetrics(**_none_to_nan(event["metrics"]))
            dataset.metrics[(metrics.label, metrics.method)] = metrics
            dataset.failures.extend(
                FailureEntry.from_dict(item)
                for item in event.get("failures") or []
            )
        elif kind == "engine":
            dataset.engine_stats = event.get("stats")
    return state


# ---------------------------------------------------------------------------
# Service run JSON
# ---------------------------------------------------------------------------

#: Format version of the serving-layer stats JSON.
SERVICE_STATS_FORMAT_VERSION = 1


def save_service_stats(payload: dict, path: str | Path) -> None:
    """Write a serving-layer stats payload (``service`` / ``store`` /
    ``engine`` counter sections, see
    :meth:`repro.service.ExplanationService.stats_payload`) as run JSON."""
    body = {"format_version": SERVICE_STATS_FORMAT_VERSION, **payload}
    Path(path).write_text(
        json.dumps(body, indent=2, sort_keys=True), encoding="utf-8"
    )


def save_metrics(registry, path: str | Path) -> Path:
    """Write a :class:`~repro.obs.metrics.MetricsRegistry` snapshot as
    ``metrics.json`` (the run-level observability artifact the
    ``experiment`` and ``serve`` CLI commands drop next to their run
    JSON)."""
    from repro.obs.export import save_json

    return save_json(registry, path)
