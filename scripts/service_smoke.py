#!/usr/bin/env python
"""End-to-end smoke test of the explanation service (the CI smoke job).

Boots the real ``repro-em serve`` CLI as a subprocess (JSONL over
stdin/stdout, persistent store and model artifact on disk) and drives a
mixed request batch through it:

1. **cold** requests that must be computed;
2. a **duplicate** in the same session that must be answered by the
   store (or coalesced) without recomputing;
3. a **restart**: a second server process over the same store directory
   must answer the same request bit-identically with zero computations;
4. an **HTTP session** (``--http`` + ``--trace``) whose ``GET /metrics``
   endpoint is scraped twice: every line must parse as Prometheus text
   and every counter must be monotone between scrapes.

Exit code 0 = every response ok, nonzero store hits, restart answers
from disk, metrics scrape well-formed.  Run locally with::

    PYTHONPATH=src python scripts/service_smoke.py

Pass ``--artifacts-dir DIR`` to keep the observability outputs (trace
JSON, metrics snapshots, the raw Prometheus scrape) for CI upload.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys
import tempfile
from pathlib import Path

from repro.testing.drill import Drill, cli, fetch, jsonl_session, spawn

DATASET_ARGS = ["--dataset", "S-BR", "--size-cap", "150", "--samples", "32"]

PROMETHEUS_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$"
)


def serve(store_dir: Path, model_dir: Path, *extra: str) -> list[str]:
    return cli(
        "serve", *DATASET_ARGS,
        "--store-dir", str(store_dir), "--model-dir", str(model_dir),
        "--workers", "2", *extra,
    )


def run_serve(store_dir: Path, model_dir: Path, requests: list[dict]) -> list[dict]:
    """One server process: feed *requests* as JSONL, return the responses."""
    return jsonl_session(serve(store_dir, model_dir), requests)[0]


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse exposition text into ``{series-with-labels: value}``.

    Raises ``ValueError`` on any line that is not a comment and does not
    match the ``name{labels} value`` shape — the scrape-validity check.
    """
    series: dict[str, float] = {}
    for line in text.strip().splitlines():
        if line.startswith("#"):
            continue
        if not PROMETHEUS_LINE.match(line):
            raise ValueError(f"unparseable exposition line: {line!r}")
        key, raw = line.rsplit(" ", 1)
        series[key] = float(raw)
    return series


def http_session(
    store_dir: Path, model_dir: Path, trace_path: Path, drill: Drill
) -> tuple[str, str]:
    """Boot ``serve --http``, drive it, scrape /metrics twice.

    Returns the two raw scrapes so the caller can archive them.
    """
    server = spawn(
        serve(store_dir, model_dir, "--http", "127.0.0.1:0",
              "--trace", str(trace_path)),
        "serving on ", "serve --http",
    )
    drill.check(True, "HTTP server announced its address")
    url = server.address
    try:
        reply = fetch(url + "/healthz")
        drill.check(
            reply.status == 200 and reply.body["ok"] is True,
            "healthz reports ok",
        )

        explain = {"record": 2, "method": "single"}
        drill.check(
            fetch(url + "/explain", explain).body["ok"], "HTTP explain request ok"
        )
        scrape1 = fetch(url + "/metrics").text
        fetch(url + "/explain", explain)
        scrape2 = fetch(url + "/metrics").text

        try:
            first, second = parse_prometheus(scrape1), parse_prometheus(scrape2)
            drill.check(True, "both /metrics scrapes parse as Prometheus text")
        except ValueError as exc:
            drill.fail(str(exc))
            return scrape1, scrape2
        counters = [k for k in first if "_total{" in k or k.endswith("_total")]
        drill.check(bool(counters), "scrape exposes counters")
        regressed = [
            k for k in counters if second.get(k, 0.0) < first[k]
        ]
        drill.check(
            not regressed, f"counters monotone between scrapes {regressed}"
        )
        requests_key = next(
            k for k in counters if k.startswith("repro_service_requests_total")
        )
        drill.check(
            second[requests_key] > first[requests_key],
            "service request counter advanced",
        )
        return scrape1, scrape2
    finally:
        server.stop(signal.SIGINT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifacts-dir", type=Path, default=None,
        help="keep trace/metrics outputs here for CI artifact upload",
    )
    args = parser.parse_args(argv)
    drill = Drill("service_smoke", args.artifacts_dir)
    check = drill.check

    with tempfile.TemporaryDirectory() as root:
        store_dir = Path(root) / "store"
        model_dir = Path(root) / "models"

        batch = [
            {"id": "cold-0", "record": 0, "method": "single"},
            {"id": "cold-1", "record": 1, "method": "single"},
            {"id": "dup-0", "record": 0, "method": "single"},
            {"id": "stats", "op": "stats"},
            {"id": "bye", "op": "shutdown"},
        ]
        print("session 1: cold + duplicate batch")
        responses = {r["id"]: r for r in run_serve(store_dir, model_dir, batch)}
        check(len(responses) == len(batch), "every request answered")
        check(
            all(r["ok"] for r in responses.values()), "every response ok"
        )
        stats = responses["stats"]["stats"]["service"]
        check(stats["computed"] == 2, "two cold requests computed")
        check(
            stats["store_hits"] + stats["coalesced"] == 1,
            "duplicate served without recomputing",
        )
        check(
            responses["dup-0"]["result"] == responses["cold-0"]["result"],
            "duplicate response bit-identical",
        )
        check(
            (store_dir / "service_stats.json").exists(),
            "run JSON written on shutdown",
        )

        print("session 2: restart answers from the persistent store")
        rerun = [
            {"id": "cached-0", "record": 0, "method": "single"},
            {"id": "stats", "op": "stats"},
            {"id": "bye", "op": "shutdown"},
        ]
        responses2 = {r["id"]: r for r in run_serve(store_dir, model_dir, rerun)}
        stats2 = responses2["stats"]["stats"]
        check(
            all(r["ok"] for r in responses2.values()), "every response ok"
        )
        check(stats2["service"]["computed"] == 0, "nothing recomputed")
        check(stats2["service"]["store_hits"] == 1, "nonzero store hits")
        check(stats2["store"]["hits"] >= 1, "store counters agree")
        check(
            responses2["cached-0"]["result"] == responses["cold-0"]["result"],
            "restart result bit-identical to the cold computation",
        )

        print("session 3: HTTP endpoint, /metrics scrape, trace export")
        trace_path = Path(root) / "trace.json"
        scrape1, scrape2 = http_session(
            store_dir, model_dir, trace_path, drill
        )
        check(trace_path.exists(), "trace JSON written on shutdown")
        metrics_path = store_dir / "metrics.json"
        check(metrics_path.exists(), "metrics snapshot written on shutdown")
        if metrics_path.exists():
            snapshot = json.loads(metrics_path.read_text())
            check(
                any(
                    f["name"] == "repro_service_requests_total"
                    for f in snapshot["metrics"]
                ),
                "metrics snapshot carries the service counters",
            )

        drill.save({
            **{
                source.name: source.read_text()
                for source in (trace_path, metrics_path) if source.exists()
            },
            "metrics_scrape_1.prom": scrape1,
            "metrics_scrape_2.prom": scrape2,
        })

    return drill.finish()


if __name__ == "__main__":
    sys.exit(main())
