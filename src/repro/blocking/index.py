"""Token-based blocking via an inverted index.

Blocking trades recall for a massive reduction of the candidate space: two
records become a candidate pair when they share at least
``min_shared_tokens`` tokens on the blocking attributes.  The inverted
index makes that a union of posting-list intersections instead of a
quadratic scan.

Quality is summarized the standard way:

* **reduction ratio** — 1 − |candidates| / |cross product|;
* **pair completeness** — the fraction of gold matches that survive
  blocking (recall of the candidate set).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.text.normalize import tokens_of

Entity = Mapping[str, object]
CandidatePair = tuple[int, int]


@dataclass(frozen=True)
class BlockingReport:
    """Candidate-set quality against an optional gold matching."""

    n_left: int
    n_right: int
    n_candidates: int
    n_gold: int = 0
    n_gold_covered: int = 0

    @property
    def cross_product(self) -> int:
        return self.n_left * self.n_right

    @property
    def reduction_ratio(self) -> float:
        if self.cross_product == 0:
            return 0.0
        return 1.0 - self.n_candidates / self.cross_product

    @property
    def pair_completeness(self) -> float:
        if self.n_gold == 0:
            return 1.0
        return self.n_gold_covered / self.n_gold

    def render(self) -> str:
        return (
            f"blocking: {self.n_candidates} candidates out of "
            f"{self.cross_product} possible pairs "
            f"(reduction ratio {self.reduction_ratio:.4f}, "
            f"pair completeness {self.pair_completeness:.3f} "
            f"over {self.n_gold} gold matches)"
        )


@dataclass(frozen=True)
class InvertedIndexBlocker:
    """Candidate generation: pairs sharing ≥ *min_shared_tokens* tokens.

    ``attributes`` restricts which attributes feed the index (``None`` uses
    every attribute).  ``max_token_frequency`` drops tokens whose posting
    list would exceed that fraction of the right table — stop-word-like
    tokens ("the", a ubiquitous brand) otherwise reconnect everything with
    everything.
    """

    attributes: Sequence[str] | None = None
    min_shared_tokens: int = 1
    max_token_frequency: float = 0.25

    def __post_init__(self) -> None:
        if self.min_shared_tokens < 1:
            raise ConfigurationError(
                f"min_shared_tokens must be >= 1, got {self.min_shared_tokens}"
            )
        if not 0.0 < self.max_token_frequency <= 1.0:
            raise ConfigurationError(
                "max_token_frequency must be in (0, 1], "
                f"got {self.max_token_frequency}"
            )
        object.__setattr__(
            self, "attributes", tuple(self.attributes) if self.attributes else None
        )

    def _entity_tokens(self, entity: Entity) -> set[str]:
        attributes = self.attributes or tuple(entity.keys())
        tokens: set[str] = set()
        for attribute in attributes:
            tokens.update(tokens_of(entity.get(attribute)))
        return tokens

    def candidates(
        self,
        left_table: Sequence[Entity],
        right_table: Sequence[Entity],
    ) -> list[CandidatePair]:
        """All (left index, right index) pairs passing the predicate."""
        index: dict[str, list[int]] = {}
        for right_id, entity in enumerate(right_table):
            for token in self._entity_tokens(entity):
                index.setdefault(token, []).append(right_id)
        if right_table:
            cutoff = max(1, int(self.max_token_frequency * len(right_table)))
            index = {
                token: postings
                for token, postings in index.items()
                if len(postings) <= cutoff
            }

        pairs: list[CandidatePair] = []
        for left_id, entity in enumerate(left_table):
            shared: Counter[int] = Counter()
            for token in self._entity_tokens(entity):
                for right_id in index.get(token, ()):
                    shared[right_id] += 1
            pairs.extend(
                (left_id, right_id)
                for right_id, count in shared.items()
                if count >= self.min_shared_tokens
            )
        pairs.sort()
        return pairs

    def report(
        self,
        left_table: Sequence[Entity],
        right_table: Sequence[Entity],
        gold: Iterable[CandidatePair] | None = None,
    ) -> tuple[list[CandidatePair], BlockingReport]:
        """Candidates plus a :class:`BlockingReport` (optionally vs *gold*)."""
        pairs = self.candidates(left_table, right_table)
        gold_set = set(gold) if gold is not None else set()
        covered = len(gold_set & set(pairs)) if gold_set else 0
        report = BlockingReport(
            n_left=len(left_table),
            n_right=len(right_table),
            n_candidates=len(pairs),
            n_gold=len(gold_set),
            n_gold_covered=covered,
        )
        return pairs, report
