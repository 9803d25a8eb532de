#!/usr/bin/env python
"""Kill-and-resume drill for bulk explanation jobs (the CI smoke job).

Exercises the whole ``repro.bulk`` resume contract against a real
(synthetic) dataset in about a minute:

1. an uninterrupted bulk run — the reference report;
2. the same job killed at chunk K (after its journal event is durable),
   then resumed — the finished report must be **byte-identical** to the
   reference, and the explanation payloads in its store bit-identical to
   the reference store's;
3. a rerun of the job over the warm store — at least 90 % of pairs must
   be served as dedup hits without recomputation.

Exit code 0 = all three hold.  Run locally with::

    PYTHONPATH=src python scripts/bulk_drill.py
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.bulk import BulkJob, BulkJobSpec, DatasetSource
from repro.data.synthetic.magellan import load_dataset
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.service.request import request_key
from repro.service.store import ExplanationStore
from repro.testing.drill import Drill


class _Killed(Exception):
    pass


def report_bytes(job, report) -> bytes:
    return json.dumps(
        report.report_payload(job.spec, job.source.describe(),
                              job.fingerprint),
        indent=2,
        sort_keys=True,
    ).encode("utf-8")


def store_payloads(job) -> dict:
    keys = [
        request_key(job.fingerprint, job.spec.request_for(pair))
        for pair in job.source.pairs()
    ]
    return job.store.get_many(keys)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per-label", type=int, default=4)
    parser.add_argument("--samples", type=int, default=32)
    parser.add_argument("--size-cap", type=int, default=300)
    parser.add_argument("--chunk-size", type=int, default=2)
    parser.add_argument("--kill-at-chunk", type=int, default=1,
                        help="crash after this chunk's journal event")
    parser.add_argument("--report-dir", type=Path, default=None,
                        help="keep the reference and resumed reports here")
    args = parser.parse_args(argv)

    drill = Drill("bulk_drill", args.report_dir)
    dataset = load_dataset("S-BR", seed=0, size_cap=args.size_cap)
    matcher = LogisticRegressionMatcher().fit(dataset)
    source = DatasetSource(dataset, per_label=args.per_label, seed=0)
    spec = BulkJobSpec(method="both", samples=args.samples,
                       chunk_size=args.chunk_size)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        print("[1/3] uninterrupted reference run")
        reference = BulkJob(
            matcher, source, spec=spec,
            store=ExplanationStore(tmp / "ref-store"),
            run_dir=tmp / "ref-run",
        )
        reference_report = reference.run()
        reference_bytes = report_bytes(reference, reference_report)
        print(
            f"  {reference_report.n_pairs} pairs, "
            f"{reference_report.n_chunks} chunks, "
            f"{reference_report.n_computed} computed"
        )
        if reference_report.n_failed:
            drill.fail(
                f"reference run failed {reference_report.n_failed} pairs"
            )

        print(f"[2/3] kill at chunk {args.kill_at_chunk}, then resume")

        def kill(index, job):
            if index == args.kill_at_chunk:
                raise _Killed(f"simulated crash after chunk {index}")

        victim_store = ExplanationStore(tmp / "victim-store")
        victim = BulkJob(
            matcher, source, spec=spec, store=victim_store,
            run_dir=tmp / "victim-run", on_chunk=kill,
        )
        try:
            victim.run()
            drill.fail("kill callback never fired (job too small?)")
        except _Killed as crash:
            print(f"  {crash}")
        resumed = BulkJob(
            matcher, source, spec=spec, store=victim_store,
            run_dir=tmp / "victim-run",
        )
        resumed_report = resumed.run(resume=True)
        resumed_bytes = report_bytes(resumed, resumed_report)
        print(
            f"  resumed {resumed_report.resumed_chunks} chunks from the "
            f"journal, {resumed_report.n_computed} computed in total"
        )
        if resumed_bytes != reference_bytes:
            drill.fail(
                "resumed report differs from the uninterrupted reference"
            )
        else:
            print(
                f"  report byte-identical to the reference "
                f"({len(reference_bytes)} bytes)"
            )
        reference_payloads = store_payloads(reference)
        resumed_payloads = store_payloads(resumed)
        if reference_payloads != resumed_payloads:
            drill.fail(
                "resumed store payloads differ from the reference store"
            )
        else:
            print(
                f"  all {len(resumed_payloads)} stored payloads "
                f"bit-identical to the reference store"
            )
        drill.save({
            "reference.json": reference_bytes, "resumed.json": resumed_bytes,
        })

        print("[3/3] warm-store rerun must dedup")
        warm = BulkJob(
            matcher, source, spec=spec, store=victim_store,
            run_dir=tmp / "warm-run",
        )
        warm_report = warm.run()
        print(
            f"  {warm_report.n_dedup_hits}/{warm_report.n_pairs} dedup "
            f"hits ({100 * warm_report.dedup_rate:.0f}%)"
        )
        if warm_report.dedup_rate < 0.9:
            drill.fail(
                f"warm dedup rate {warm_report.dedup_rate:.2f} below 0.90"
            )
        if report_bytes(warm, warm_report) != reference_bytes:
            drill.fail("warm-store report differs from the reference")

        reference.store.close()
        victim_store.close()

    return drill.finish()


if __name__ == "__main__":
    sys.exit(main())
