"""The store-warming job: ``precompute`` as a thin bulk-shaped runner.

Warming is the degenerate bulk workload — enumerate pairs (the same
:func:`~repro.bulk.source.select_pairs` the full :class:`~repro.bulk.job.
BulkJob` uses, so the two paths can never drift apart), push each through
a live :class:`~repro.service.service.ExplanationService` so the result
lands in its store, and keep a per-key resume journal.  No aggregation:
the store *is* the output.

This module owns the journal format and report shape the serving layer
has always exposed; :mod:`repro.service.server` re-exports everything
here so existing imports keep working.  The dependency points this way —
server → bulk — never back.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

from repro.bulk.source import select_pairs
from repro.data.records import EMDataset
from repro.evaluation.persistence import JournalWriter, read_journal
from repro.exceptions import CheckpointError
from repro.service.request import ExplainRequest
from repro.service.service import ExplanationService

logger = logging.getLogger("repro.service")

#: Journal file name used by :func:`precompute` inside a store directory.
PRECOMPUTE_JOURNAL = "precompute.jsonl"


@dataclass
class PrecomputeReport:
    """Outcome of one store-warming run."""

    n_pairs: int = 0
    n_submitted: int = 0
    n_skipped: int = 0
    n_failed: int = 0
    failed_pair_ids: list[int] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"precompute: {self.n_pairs} pairs, "
            f"{self.n_submitted} submitted, {self.n_skipped} skipped "
            f"(already warm), {self.n_failed} failed"
        )


def _journal_header(dataset: EMDataset, method: str, samples: int,
                    explainer: str, seed: int, per_label: int | None) -> dict:
    return {
        "event": "config",
        "dataset": dataset.name,
        "method": method,
        "samples": samples,
        "explainer": explainer,
        "seed": seed,
        "per_label": per_label,
    }


def precompute(
    service: ExplanationService,
    dataset: EMDataset,
    per_label: int | None = None,
    method: str = ExplainRequest.method,
    samples: int = ExplainRequest.samples,
    explainer: str = ExplainRequest.explainer,
    seed: int = ExplainRequest.seed,
    resume: bool = False,
    journal_dir: str | Path | None = None,
) -> PrecomputeReport:
    """Warm the service's store for a dataset split, resumably.

    *per_label* samples that many records per label (the experiment
    protocol's split); ``None`` warms every record.  With *journal_dir*
    (typically the store directory) each completed key is journaled; a
    ``resume=True`` rerun skips journaled keys that are still servable
    from the store and recomputes the rest.  Failed records are isolated
    and reported, not fatal.
    """
    pairs = select_pairs(dataset, per_label, seed=seed)
    header = _journal_header(dataset, method, samples, explainer, seed, per_label)
    journal: JournalWriter | None = None
    done_keys: set[str] = set()
    if journal_dir is not None:
        path = Path(journal_dir) / PRECOMPUTE_JOURNAL
        if resume and path.exists():
            events = read_journal(path)
            if not events or events[0].get("event") != "config":
                raise CheckpointError(
                    f"precompute journal {path} does not start with a "
                    f"config event"
                )
            stored_header = {k: events[0].get(k) for k in header}
            if stored_header != header:
                raise CheckpointError(
                    f"precompute journal {path} was written for a different "
                    f"workload; refusing to resume (pass the same dataset, "
                    f"method, samples, explainer and seed)"
                )
            done_keys = {
                event["key"]
                for event in events[1:]
                if event.get("event") == "request" and "key" in event
            }
            journal = JournalWriter(path, fresh=False)
        else:
            journal = JournalWriter(path, fresh=True)
            journal.append(header)

    report = PrecomputeReport(n_pairs=len(pairs))
    pending: list[tuple[str, int, "object"]] = []
    for pair in pairs:
        request = ExplainRequest(
            pair=pair,
            method=method,
            samples=samples,
            explainer=explainer,
            seed=seed,
            # Warming yields to interactive traffic on the shared queue.
            priority=100,
        )
        key = service.key_for(request)
        if key in done_keys and service.store is not None and service.store.contains(key):
            report.n_skipped += 1
            continue
        future = service.submit(request, block=True)
        report.n_submitted += 1
        pending.append((key, pair.pair_id, future))
    for key, pair_id, future in pending:
        try:
            future.result()
        except Exception:  # noqa: BLE001 - warming isolates any failure
            report.n_failed += 1
            report.failed_pair_ids.append(pair_id)
            logger.warning("precompute: pair %s failed", pair_id)
            continue
        if journal is not None:
            journal.append({"event": "request", "key": key, "pair_id": pair_id})
    return report
