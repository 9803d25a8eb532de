"""The columnar matcher contract: one batch type, byte-equal scores.

Every prediction reaches a matcher as a :class:`~repro.core.columnar.
ColumnarPairBatch`, dispatched by :func:`~repro.matchers.base.score_batch`.
For every matcher type, scoring ``ColumnarPairBatch.from_pairs(pairs)``
must give the same float64 bytes as ``predict_proba(pairs)``, and
``from_pairs`` must be a lossless re-encoding of the pairs' content.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import ColumnarPairBatch
from repro.core.engine import pair_fingerprint
from repro.data.records import RecordPair
from repro.data.schema import PairSchema
from repro.matchers.base import score_batch
from repro.matchers.boosting import GradientBoostedStumpsMatcher
from repro.matchers.calibration import PlattCalibrator
from repro.matchers.embedding import EmbeddingMatcher
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.matchers.neural import MLPMatcher
from repro.matchers.rules import RuleBasedMatcher
from repro.testing.faults import FlakyMatcher, MatcherFault

MATCHERS = {
    "logistic": LogisticRegressionMatcher,
    "boosting": GradientBoostedStumpsMatcher,
    "mlp": MLPMatcher,
    "embedding": EmbeddingMatcher,
    "rules": RuleBasedMatcher,
}


@pytest.fixture(scope="module", params=sorted(MATCHERS) + ["calibrated"])
def fitted(request, beer_dataset):
    if request.param == "calibrated":
        base = LogisticRegressionMatcher().fit(beer_dataset)
        return PlattCalibrator(base).fit(beer_dataset)
    return MATCHERS[request.param]().fit(beer_dataset)


class TestScoreBatchParity:
    @pytest.mark.parametrize("width", [1, 64, None])
    def test_from_pairs_scores_byte_equal_predict_proba(
        self, fitted, beer_dataset, width
    ):
        pairs = list(beer_dataset)[:width]
        batch = ColumnarPairBatch.from_pairs(pairs)
        expected = np.asarray(fitted.predict_proba(pairs), dtype=np.float64)
        got = np.asarray(score_batch(fitted, batch), dtype=np.float64)
        assert got.tobytes() == expected.tobytes()

    def test_delegating_wrapper_answers_through_its_own_predict_proba(
        self, beer_matcher, beer_dataset
    ):
        # FlakyMatcher forwards unknown attributes to the wrapped matcher;
        # the columnar entry point of that matcher must not bypass it.
        flaky = FlakyMatcher(beer_matcher, fail_rate=0.0, fail_first=1)
        batch = ColumnarPairBatch.from_pairs(list(beer_dataset)[:4])
        with pytest.raises(MatcherFault):
            score_batch(flaky, batch)
        assert flaky.calls == 1

    def test_duck_typed_double_sees_materialized_pairs(self, beer_dataset):
        seen = []

        class PairsOnly:
            def predict_proba(self, pairs):
                seen.extend(pairs)
                return np.zeros(len(pairs))

        pairs = list(beer_dataset)[:5]
        score_batch(PairsOnly(), ColumnarPairBatch.from_pairs(pairs))
        assert [pair_fingerprint(p) for p in seen] == [
            pair_fingerprint(p) for p in pairs
        ]


words = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
    min_size=1,
    max_size=6,
)
values = st.lists(words, min_size=0, max_size=4).map(" ".join)


@st.composite
def pair_lists(draw):
    attribute_names = draw(
        st.sampled_from([("name",), ("name", "brand", "price")])
    )
    schema = PairSchema(attribute_names)
    pool = draw(st.lists(values, min_size=1, max_size=4))
    cell = st.sampled_from(pool)
    return [
        RecordPair(
            schema,
            {attribute: draw(cell) for attribute in attribute_names},
            {attribute: draw(cell) for attribute in attribute_names},
        )
        for _ in range(draw(st.integers(min_value=1, max_value=12)))
    ]


class TestFromPairsRoundTrip:
    @given(pair_lists())
    @settings(max_examples=80, deadline=None)
    def test_rows_keep_the_pairs_content(self, pairs):
        batch = ColumnarPairBatch.from_pairs(pairs)
        assert batch.n_rows == len(pairs)
        rebuilt = batch.pairs()
        assert [pair_fingerprint(p) for p in rebuilt] == [
            pair_fingerprint(p) for p in pairs
        ]
        attributes = pairs[0].schema.attributes
        keys = [
            (attributes, left, right)
            for left, right in zip(
                batch.value_rows("left"), batch.value_rows("right")
            )
        ]
        assert keys == [pair_fingerprint(p) for p in pairs]

    def test_mixed_schemas_are_refused(self, toy_pair, match_pair):
        with pytest.raises(ValueError, match="different schemas"):
            ColumnarPairBatch.from_pairs([toy_pair, match_pair])

    def test_empty_list_is_refused(self):
        with pytest.raises(ValueError, match="at least one pair"):
            ColumnarPairBatch.from_pairs([])
