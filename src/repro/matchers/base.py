"""The matcher interface every EM model in this library implements.

Landmark Explanation treats the EM model as a black box exposing exactly one
capability: *score a batch of record pairs with a match probability*.  That
is the :meth:`EntityMatcher.predict_proba` contract.  Everything else
(training, thresholds, reports) is convenience built on top of it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.data.records import EMDataset, RecordPair

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.columnar import ColumnarPairBatch

#: The decision threshold the paper uses (it also discusses 0.4).
DEFAULT_THRESHOLD = 0.5


class EntityMatcher(ABC):
    """Abstract base class of every EM model.

    Matchers that can score a columnar perturbation batch without
    materializing pairs (logistic regression, boosted stumps, the MLP)
    also define ``predict_proba_columnar(batch)``: shape
    ``(batch.n_rows,)``, and row *i*'s probability **bit-identical** to
    what :meth:`predict_proba` returns for the materialized pair of row
    *i*, whatever batch it rides in.  Callers never probe for it
    themselves — :func:`score_batch` is the one place that picks the
    entry point.
    """

    @abstractmethod
    def fit(self, dataset: EMDataset) -> "EntityMatcher":
        """Train on a labelled dataset and return self."""

    @abstractmethod
    def predict_proba(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        """Match probabilities, shape ``(len(pairs),)``, values in [0, 1]."""

    def predict(
        self,
        pairs: Sequence[RecordPair],
        threshold: float = DEFAULT_THRESHOLD,
    ) -> np.ndarray:
        """Hard labels derived from :meth:`predict_proba` at *threshold*."""
        return (self.predict_proba(pairs) >= threshold).astype(np.int64)

    def predict_one(self, pair: RecordPair) -> float:
        """Match probability of a single pair."""
        return float(self.predict_proba([pair])[0])


def score_batch(matcher, batch: "ColumnarPairBatch") -> np.ndarray:
    """Match probabilities for a columnar batch through *matcher*.

    Matchers whose class defines ``predict_proba_columnar`` score the
    batch directly; every other matcher — embedding, rules, calibration
    wrappers, duck-typed doubles exposing only ``predict_proba`` — sees
    the materialized :meth:`~repro.core.columnar.ColumnarPairBatch.pairs`.
    The lookup is on the class, so a wrapper that delegates unknown
    attributes to an inner matcher (``__getattr__``) still answers
    through its own ``predict_proba``.  Both routes give bit-identical
    probabilities.
    """
    columnar = getattr(type(matcher), "predict_proba_columnar", None)
    if columnar is None:
        return matcher.predict_proba(batch.pairs())
    return columnar(matcher, batch)
