"""Correctness gate, run outside every timed window.

Each check recomputes an explanation with a fresh in-process
:class:`~repro.core.landmark.LandmarkExplainer` (its own engine, no
store, no wire) and compares ``dual_digest``s with what the workload
produced.  Any mismatch or non-finite weight is a problem; a run with
problems reports ``"correct": false`` and exits non-zero.
"""

from __future__ import annotations

import math

from repro.core.landmark import LandmarkExplainer
from repro.core.serialize import dual_digest, dual_from_dict
from repro.explainers.lime_text import LimeConfig

from perfbench.schedule import rng_for


def pick(seed: int, tag: str, n_items: int, k: int) -> list[int]:
    """A seeded subset of ``range(n_items)``, at most *k* long, sorted."""
    if n_items <= k:
        return list(range(n_items))
    chosen = rng_for(seed, f"gate-{tag}").choice(n_items, size=k, replace=False)
    return sorted(int(i) for i in chosen)


def dual_is_finite(dual) -> bool:
    return all(
        math.isfinite(float(w))
        for side in (dual.left_landmark, dual.right_landmark)
        for w in side.explanation.weights
    )


def payload_is_finite(payload: dict) -> bool:
    return all(
        math.isfinite(w)
        for dual in payload["duals"].values()
        for side in ("left_landmark", "right_landmark")
        for w in dual[side]["explanation"]["weights"]
    )


def reference_explainer(matcher, samples: int | None = None, seed: int = 0):
    if samples is None:
        return LandmarkExplainer(matcher)
    return LandmarkExplainer(
        matcher, lime_config=LimeConfig(n_samples=samples, seed=seed), seed=seed
    )


def check_dual(matcher, pair, dual) -> list[str]:
    """A library ``explain()`` result against a fresh default explainer."""
    problems = []
    if not dual_is_finite(dual):
        problems.append(f"pair {pair.pair_id}: non-finite weight")
    expected = dual_digest(reference_explainer(matcher).explain(pair))
    if dual_digest(dual) != expected:
        problems.append(f"pair {pair.pair_id}: explain() digest mismatch")
    return problems


def check_payload(matcher, fingerprint: str, request, payload: dict) -> list[str]:
    """A stored or served result payload against fresh recomputation.

    Checks the payload's recorded digests *and* its serialized duals, so
    a payload whose content drifted from its digest field is caught.
    """
    where = f"pair {request.pair.pair_id} ({request.method})"
    problems = []
    if payload.get("matcher_fingerprint") != fingerprint:
        problems.append(f"{where}: matcher fingerprint mismatch")
    if not payload_is_finite(payload):
        problems.append(f"{where}: non-finite weight")
    explainer = reference_explainer(matcher, request.samples, request.seed)
    for generation in request.generations():
        expected = dual_digest(
            explainer.explain(request.pair, generation=generation)
        )
        recorded = payload["digests"].get(generation)
        carried = dual_digest(dual_from_dict(payload["duals"][generation]))
        if recorded != expected or carried != expected:
            problems.append(f"{where}: {generation} digest mismatch")
    return problems
