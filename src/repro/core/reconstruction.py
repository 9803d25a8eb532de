"""Pair reconstruction and dataset reconstruction.

*Pair reconstruction* turns a perturbation mask back into a well-formed
record pair: the surviving tokens of the varying entity are regrouped into
attribute values (the tokenizer's prefixes say where every token belongs)
and re-joined with the untouched landmark entity.

*Dataset reconstruction* labels every rebuilt pair with the black-box EM
model, producing the (mask, probability) training set of the surrogate.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import PredictionEngine

from repro.core.generation import GeneratedInstance
from repro.data.records import RecordPair
from repro.matchers.base import EntityMatcher
from repro.text.tokenize import Tokenizer


class PairReconstructor:
    """Rebuilds record pairs from perturbation masks."""

    def __init__(self, tokenizer: Tokenizer | None = None) -> None:
        self.tokenizer = tokenizer or Tokenizer()

    def rebuild(
        self, instance: GeneratedInstance, mask: Sequence[int] | np.ndarray
    ) -> RecordPair:
        """The record pair corresponding to one perturbation mask.

        Mask bit *i* keeps token *i* of the varying entity; the landmark
        entity is copied through unchanged.  Attributes whose tokens were
        all dropped become empty strings (the schema is always complete).

        Delegates to :meth:`varying_values` so the pair-building and
        fingerprinting paths can never silently diverge.
        """
        values = self.varying_values(instance, mask)
        varying_entity = dict(zip(instance.pair.schema.attributes, values))
        return instance.pair.with_side(instance.varying_side, varying_entity)

    def varying_values(
        self, instance: GeneratedInstance, mask: Sequence[int] | np.ndarray
    ) -> tuple[str, ...]:
        """The rebuilt varying entity's values, in schema attribute order.

        This is :meth:`rebuild` without materializing a
        :class:`~repro.data.records.RecordPair`.  Through :meth:`rebuild`
        it is the per-row oracle the columnar batches of
        :mod:`repro.core.columnar` are tested against.
        """
        if len(mask) != len(instance.tokens):
            raise ValueError(
                f"mask length {len(mask)} != token count {len(instance.tokens)}"
            )
        kept = [
            token
            for token, bit in zip(instance.tokens, mask)
            if bit
        ]
        entity = instance.pair.schema.conform(self.tokenizer.detokenize(kept))
        return tuple(
            entity[attribute] for attribute in instance.pair.schema.attributes
        )

    def rebuild_many(
        self, instance: GeneratedInstance, masks: np.ndarray
    ) -> list[RecordPair]:
        """Rebuild one pair per mask row."""
        return [self.rebuild(instance, row) for row in masks]


class DatasetReconstructor:
    """Adapts (matcher, reconstructor) into the explainer's mask-predict fn.

    When an *engine* (:class:`~repro.core.engine.PredictionEngine`) is
    attached, mask batches route through its dedup + cache + batching layer;
    otherwise every mask is rebuilt and predicted directly.  Both paths
    return bit-identical probabilities.
    """

    def __init__(
        self,
        matcher: EntityMatcher,
        reconstructor: PairReconstructor | None = None,
        engine: "PredictionEngine | None" = None,
    ) -> None:
        self.matcher = matcher
        self.reconstructor = reconstructor or PairReconstructor()
        self.engine = engine

    @property
    def stats(self):
        """Engine counters, or ``None`` on the direct path."""
        return self.engine.stats if self.engine is not None else None

    def predict_masks_fn(self, instance: GeneratedInstance):
        """A ``masks → probabilities`` closure for one generated instance."""
        if self.engine is not None:
            engine = self.engine

            def predict_masks(masks: np.ndarray) -> np.ndarray:
                return engine.predict_instance(instance, masks)

            return predict_masks

        def predict_masks(masks: np.ndarray) -> np.ndarray:
            pairs = self.reconstructor.rebuild_many(instance, masks)
            return self.matcher.predict_proba(pairs)

        return predict_masks
