"""Bit-identity of the columnar hot path against a per-row oracle.

The vectorized perturbation → reconstruction → predict pipeline promises
*identical* explanation weights — same float64 bits — no matter how the
work is batched: columnar or rebuilt pair by pair, any engine chunk size,
one request at a time or N coalesced through the service's cross-request
batch scheduler.  These tests pin that contract.

The oracle never touches the engine: landmark masks go through an
engine-less :class:`~repro.core.reconstruction.DatasetReconstructor`
(one :meth:`~repro.core.reconstruction.PairReconstructor.rebuild` per
mask row, one ``predict_proba`` call on the rebuilt pairs), and Mojito
batches reach a matcher double that only exposes ``predict_proba``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ServiceConfig
from repro.core.engine import EngineConfig, PredictionEngine
from repro.core.generation import GENERATION_DOUBLE, GENERATION_SINGLE
from repro.core.landmark import LandmarkExplainer
from repro.core.reconstruction import DatasetReconstructor
from repro.baselines.mojito import (
    MojitoAttributeDropExplainer,
    MojitoCopyExplainer,
    MojitoDropExplainer,
)
from repro.data.records import NON_MATCH, RecordPair
from repro.data.schema import PairSchema
from repro.explainers.lime_text import LimeConfig
from repro.service.request import ExplainRequest
from repro.service.service import ExplanationService, duals_from_result


def landmark_weights(matcher, pair, engine_config, samples=48):
    engine = PredictionEngine(matcher, engine_config)
    explainer = LandmarkExplainer(
        matcher,
        engine=engine,
        lime_config=LimeConfig(n_samples=samples, seed=0),
        seed=0,
    )
    dual = explainer.explain(pair)
    return tuple(
        (entry.key, entry.weight) for entry in dual.combined().entries
    )


def oracle_landmark_weights(matcher, pair, samples=48):
    """Landmark weights computed row by row, without any engine."""
    explainer = LandmarkExplainer(
        matcher, lime_config=LimeConfig(n_samples=samples, seed=0), seed=0
    )
    explainer.dataset_reconstructor = DatasetReconstructor(
        matcher, explainer.reconstructor
    )
    generation = (
        GENERATION_SINGLE
        if matcher.predict_one(pair) >= explainer.threshold
        else GENERATION_DOUBLE
    )
    dual = explainer.explain(pair, generation)
    return tuple(
        (entry.key, entry.weight) for entry in dual.combined().entries
    )


class PairsOnlyMatcher:
    """A matcher double exposing only ``predict_proba``: every batch
    reaches it as materialized pairs."""

    def __init__(self, matcher):
        self.matcher = matcher

    def predict_proba(self, pairs):
        return self.matcher.predict_proba(pairs)


def dual_cells(payload):
    return tuple(
        (
            generation,
            tuple(
                (entry.key, entry.weight)
                for entry in dual.combined().entries
            ),
        )
        for generation, dual in sorted(duals_from_result(payload).items())
    )


class TestEngineParity:
    def test_vectorized_weights_equal_per_pair_weights(
        self, beer_matcher, non_match_pair
    ):
        off = oracle_landmark_weights(beer_matcher, non_match_pair)
        on = landmark_weights(beer_matcher, non_match_pair, EngineConfig())
        assert off == on

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 4096])
    def test_weights_invariant_to_chunk_size(
        self, beer_matcher, non_match_pair, batch_size
    ):
        reference = landmark_weights(
            beer_matcher, non_match_pair, EngineConfig()
        )
        chunked = landmark_weights(
            beer_matcher,
            non_match_pair,
            EngineConfig(batch_size=batch_size),
        )
        assert reference == chunked

    @pytest.mark.parametrize("dedup,cache", [(False, False), (True, False), (False, True)])
    def test_weights_invariant_to_dedup_and_cache(
        self, beer_matcher, non_match_pair, dedup, cache
    ):
        reference = landmark_weights(
            beer_matcher, non_match_pair, EngineConfig()
        )
        other = landmark_weights(
            beer_matcher,
            non_match_pair,
            EngineConfig(dedup=dedup, cache=cache),
        )
        assert reference == other

    @pytest.mark.parametrize(
        "factory",
        [MojitoDropExplainer, MojitoAttributeDropExplainer, MojitoCopyExplainer],
    )
    def test_mojito_weights_equal_across_paths(
        self, beer_matcher, beer_dataset, factory, non_match_pair
    ):
        config = LimeConfig(n_samples=32, seed=0)

        def weights(explainer):
            record = explainer.explain(non_match_pair)
            return tuple(
                (entry.key, entry.weight)
                for entry in record.token_weights.entries
            )

        oracle = factory(PairsOnlyMatcher(beer_matcher), config, seed=0)
        engine = PredictionEngine(beer_matcher, EngineConfig())
        columnar = factory(beer_matcher, config, seed=0, engine=engine)
        assert weights(oracle) == weights(columnar)

    def test_capacity_branch_beyond_62_tokens(self, beer_matcher):
        # n_features > 62 drops sample_masks into the unbounded-capacity
        # branch; the columnar path must still agree bit for bit.
        schema = PairSchema(beer_matcher.extractor.schema.attributes)
        wide = {
            attribute: " ".join(f"tok{i}{attribute}" for i in range(17))
            for attribute in schema.attributes
        }
        narrow = {attribute: "tok0" for attribute in schema.attributes}
        pair = RecordPair(
            schema=schema, left=wide, right=narrow, label=NON_MATCH
        )
        off = oracle_landmark_weights(beer_matcher, pair, samples=24)
        on = landmark_weights(beer_matcher, pair, EngineConfig(), samples=24)
        assert off == on


class TestServiceParity:
    def test_coalesced_batches_equal_sequential(self, beer_matcher, beer_dataset):
        requests = [
            ExplainRequest(pair=beer_dataset[index], samples=32, seed=0)
            for index in range(4)
        ]
        with ExplanationService(
            beer_matcher, config=ServiceConfig(n_workers=1, coalesce=False)
        ) as sequential:
            baseline = [
                dual_cells(sequential.explain(request)) for request in requests
            ]
        with ExplanationService(
            beer_matcher,
            config=ServiceConfig(
                n_workers=4,
                coalesce=False,
                batch_window_ms=5.0,
                batch_max_size=4096,
            ),
        ) as batched:
            futures = [batched.submit(request) for request in requests]
            merged = [dual_cells(future.result(60)) for future in futures]
        assert baseline == merged
