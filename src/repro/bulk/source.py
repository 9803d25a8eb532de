"""Pair sources: what a bulk job iterates over.

A :class:`PairSource` names a finite, *deterministically ordered* stream
of :class:`~repro.data.records.RecordPair` rows plus a ``describe()``
payload that identifies the stream for the resume journal — two runs may
only resume into each other when their sources describe identically.

Three shapes cover the workloads LEMON / xEM frame:

* :class:`DatasetSource` — the labelled rows of an EM dataset (optionally
  the experiment protocol's per-label sample).  This is also what the
  ``precompute`` store-warmer enumerates: both paths go through
  :func:`select_pairs`, so they cannot drift.
* :class:`BlockedSource` — candidate generation: the dataset's left and
  right entities are re-blocked with the
  :class:`~repro.blocking.index.InvertedIndexBlocker` and every surviving
  candidate pair is explained, labelled or not.  This is the Customer-360
  shape — explain what the blocker surfaces, not just the gold pairs.
* :class:`PairListSource` — an explicit pair-list file, one pair per
  line: either a dataset row index (``17``) or a cross pair of row
  entities (``3,42`` = left entity of row 3 against right entity of row
  42).  Blank lines and ``#`` comments are skipped; malformed lines
  raise :class:`~repro.exceptions.DatasetError`.
"""

from __future__ import annotations

from pathlib import Path

from repro.blocking.index import InvertedIndexBlocker
from repro.data.records import EMDataset, RecordPair
from repro.data.splits import sample_per_label
from repro.exceptions import DatasetError


def select_pairs(
    dataset: EMDataset, per_label: int | None = None, seed: int = 0
) -> list[RecordPair]:
    """The pair enumeration shared by ``precompute`` and the bulk runner.

    ``per_label=None`` selects every row in dataset order;  otherwise the
    paper's per-label sample (seeded, deterministic).  One definition for
    both paths — a warming run and a bulk job over the same arguments
    always name the same pairs.
    """
    if per_label is not None:
        return list(sample_per_label(dataset, per_label, seed=seed).pairs)
    return list(dataset.pairs)


def _cross_pair(
    dataset: EMDataset, left_row: int, right_row: int
) -> RecordPair:
    """Left entity of *left_row* against right entity of *right_row*.

    The synthetic ``pair_id`` encodes the (left, right) coordinates so it
    is stable across runs — it seeds the per-pair perturbation streams
    and enters the request key, so stability here is what makes cross
    pairs dedup across jobs.
    """
    n = len(dataset)
    for name, row in (("left", left_row), ("right", right_row)):
        if not 0 <= row < n:
            raise DatasetError(
                f"{name} row index {row} out of range 0..{n - 1}"
            )
    return RecordPair(
        schema=dataset.schema,
        left=dict(dataset.pairs[left_row].left),
        right=dict(dataset.pairs[right_row].right),
        label=0,
        pair_id=left_row * n + right_row,
    )


class DatasetSource:
    """The rows of *dataset*, optionally per-label sampled."""

    kind = "rows"

    def __init__(
        self,
        dataset: EMDataset,
        per_label: int | None = None,
        seed: int = 0,
    ) -> None:
        self.dataset = dataset
        self.per_label = per_label
        self.seed = seed

    def pairs(self) -> list[RecordPair]:
        return select_pairs(self.dataset, self.per_label, seed=self.seed)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "dataset": self.dataset.name,
            "n_rows": len(self.dataset),
            "per_label": self.per_label,
            "seed": self.seed,
        }


class BlockedSource:
    """Candidate pairs from re-blocking the dataset's two entity tables.

    Every dataset row contributes its left entity to the left table and
    its right entity to the right table; the inverted-index blocker then
    proposes (left row, right row) candidates, each materialized as an
    unlabelled cross pair.  The candidate list is sorted, so the stream
    order — and therefore the resume journal — is deterministic.
    *blocker_options* are :class:`~repro.blocking.InvertedIndexBlocker`'s
    (``attributes``, ``min_shared_tokens``, ``max_token_frequency``).
    """

    kind = "block"

    def __init__(self, dataset: EMDataset, **blocker_options) -> None:
        self.dataset = dataset
        self.blocker = InvertedIndexBlocker(**blocker_options)

    def pairs(self) -> list[RecordPair]:
        left_table = [dict(pair.left) for pair in self.dataset.pairs]
        right_table = [dict(pair.right) for pair in self.dataset.pairs]
        candidates = self.blocker.candidates(left_table, right_table)
        return [
            _cross_pair(self.dataset, left_row, right_row)
            for left_row, right_row in candidates
        ]

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "dataset": self.dataset.name,
            "n_rows": len(self.dataset),
            "attributes": (
                list(self.blocker.attributes)
                if self.blocker.attributes
                else None
            ),
            "min_shared_tokens": self.blocker.min_shared_tokens,
            "max_token_frequency": self.blocker.max_token_frequency,
        }


class PairListSource:
    """Pairs named explicitly in a text file, one per line.

    ``17`` selects dataset row 17; ``3,42`` builds the cross pair of row
    3's left entity and row 42's right entity.
    """

    kind = "pair-list"

    def __init__(self, dataset: EMDataset, path: str | Path) -> None:
        self.dataset = dataset
        self.path = Path(path)

    def _parse_line(self, number: int, line: str) -> RecordPair:
        try:
            if "," in line:
                left_text, right_text = line.split(",", 1)
                return _cross_pair(
                    self.dataset, int(left_text.strip()), int(right_text.strip())
                )
            row = int(line)
        except ValueError as error:
            raise DatasetError(
                f"{self.path}: line {number}: expected a row index or "
                f"'left,right', got {line!r}"
            ) from error
        if not 0 <= row < len(self.dataset):
            raise DatasetError(
                f"{self.path}: line {number}: row index {row} out of "
                f"range 0..{len(self.dataset) - 1}"
            )
        return self.dataset.pairs[row]

    def pairs(self) -> list[RecordPair]:
        if not self.path.exists():
            raise DatasetError(f"pair-list file {self.path} does not exist")
        selected: list[RecordPair] = []
        for number, raw in enumerate(
            self.path.read_text(encoding="utf-8-sig").splitlines()
        ):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            selected.append(self._parse_line(number, line))
        return selected

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "dataset": self.dataset.name,
            "n_rows": len(self.dataset),
            "path": self.path.name,
        }
