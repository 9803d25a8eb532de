"""Counterfactual edits derived from landmark explanations.

The paper's "interest" metric asks whether an explanation names the tokens
that *would change the model's decision*.  This module turns that idea
into an artifact: given a landmark explanation, greedily apply the
smallest set of token edits that flips the model's class on the record.

Edits come straight from the explanation's working representation:

* **removing** one of the varying entity's own tokens (weight tells the
  expected probability drop), and — under double-entity generation —
* **adding** one of the injected landmark tokens (weight tells the
  expected probability gain).

For a record predicted *matching* the goal is to push the probability
below the threshold (remove positive evidence); for a predicted
*non-match* the goal is to cross above it (add injected match evidence,
drop clashing tokens).  Each greedy step picks the edit with the best
expected movement and re-queries the black box, so the result is grounded
in the model, not in the surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.explanation import LandmarkExplanation
from repro.core.reconstruction import PairReconstructor
from repro.data.records import RecordPair
from repro.exceptions import ConfigurationError
from repro.matchers.base import DEFAULT_THRESHOLD, EntityMatcher

#: Edits :func:`greedy_counterfactual` tries before giving up on a flip.
DEFAULT_MAX_EDITS = 10


@dataclass(frozen=True)
class TokenEdit:
    """One applied edit: a token added to or removed from the varying entity."""

    action: str  # "add" | "remove"
    attribute: str
    word: str
    injected: bool
    expected_effect: float
    probability_after: float

    def describe(self) -> str:
        origin = "landmark" if self.injected else "own"
        return (
            f"{self.action} {self.word!r} [{self.attribute}, {origin}] "
            f"→ p={self.probability_after:.3f}"
        )


@dataclass(frozen=True)
class Counterfactual:
    """The outcome of a greedy counterfactual search."""

    original: RecordPair
    modified: RecordPair
    edits: tuple[TokenEdit, ...]
    original_probability: float
    final_probability: float
    threshold: float
    flipped: bool

    @property
    def n_edits(self) -> int:
        return len(self.edits)

    def render(self) -> str:
        original_class = "match" if self.original_probability >= self.threshold else "non-match"
        final_class = "match" if self.final_probability >= self.threshold else "non-match"
        lines = [
            f"counterfactual: {original_class} (p={self.original_probability:.3f}) "
            f"→ {final_class} (p={self.final_probability:.3f}) "
            f"in {self.n_edits} edits"
            + ("" if self.flipped else " [DID NOT FLIP]")
        ]
        lines.extend(f"  {index + 1}. {edit.describe()}"
                     for index, edit in enumerate(self.edits))
        return "\n".join(lines)


def greedy_counterfactual(
    landmark_explanation: LandmarkExplanation,
    matcher: EntityMatcher,
    threshold: float = DEFAULT_THRESHOLD,
    max_edits: int = DEFAULT_MAX_EDITS,
    reconstructor: PairReconstructor | None = None,
) -> Counterfactual:
    """Flip the model's decision with the fewest explanation-guided edits.

    The search state is a mask over the explanation's token list,
    initialized to the *original record*: own tokens present, injected
    tokens absent.  At every step the edit with the largest expected
    movement toward the target class is applied and the black box is
    re-queried; the search stops at the first flip or after *max_edits*.
    """
    if max_edits < 1:
        raise ConfigurationError(f"max_edits must be >= 1, got {max_edits}")
    reconstructor = reconstructor or PairReconstructor()
    instance = landmark_explanation.instance
    weights = landmark_explanation.explanation.weights

    mask = np.array(
        [0 if injected else 1 for injected in instance.injected], dtype=np.int8
    )
    original_pair = reconstructor.rebuild(instance, mask)
    original_probability = matcher.predict_one(original_pair)
    toward_match = original_probability < threshold

    edits: list[TokenEdit] = []
    current_probability = original_probability
    current_pair = original_pair
    flipped = False
    for _ in range(max_edits):
        # Expected effect of toggling each token, toward the target class.
        best_index = -1
        best_effect = 0.0
        for index, weight in enumerate(weights):
            if mask[index] == 1:
                effect = -float(weight)  # removing the token
            else:
                effect = float(weight)  # adding the (injected) token
            if not toward_match:
                effect = -effect
            if effect > best_effect:
                best_effect = effect
                best_index = index
        if best_index < 0:
            break  # no edit is expected to help
        mask[best_index] ^= 1
        token = instance.tokens[best_index]
        current_pair = reconstructor.rebuild(instance, mask)
        current_probability = matcher.predict_one(current_pair)
        edits.append(
            TokenEdit(
                action="add" if mask[best_index] == 1 else "remove",
                attribute=token.attribute,
                word=token.word,
                injected=instance.injected[best_index],
                expected_effect=best_effect if toward_match else -best_effect,
                probability_after=current_probability,
            )
        )
        flipped = (current_probability >= threshold) == toward_match
        if flipped:
            break
    return Counterfactual(
        original=original_pair,
        modified=current_pair,
        edits=tuple(edits),
        original_probability=original_probability,
        final_probability=current_probability,
        threshold=threshold,
        flipped=flipped,
    )
