"""Seeded inputs of the workloads: row orders and the serving request mix.

Everything here is a pure function of the workload seed, so the same
seed always gives the same rows and the same request mix.  The program
under test only ever sees the results.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

#: Generation methods a serving request draws from, uniformly.
SERVE_METHODS = ("auto", "both", "single", "double")


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """An independent random stream per (workload seed, purpose)."""
    return np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFF, zlib.crc32(tag.encode())])
    )


def row_order(seed: int, n_rows: int, tag: str) -> list[int]:
    """A seeded permutation of ``range(n_rows)``."""
    return [int(i) for i in rng_for(seed, tag).permutation(n_rows)]


@dataclass(frozen=True)
class Key:
    """One serving request: key-space index and generation method."""

    pair: int
    method: str


def serve_mix(
    seed: int, n_pairs: int, count: int, zipf_exponent: float, epoch: int
) -> list[Key]:
    """*count* requests with Zipf-distributed keys, in epochs.

    Each epoch of *epoch* requests draws its keys from its own block of
    *epoch* pairs (a seeded permutation of the *n_pairs*, taken in turn),
    ranked by a Zipf law of the given exponent.  A fresh block per epoch
    keeps the share of repeated keys the same whether a run gets through
    few epochs or many.  Each request's method is drawn uniformly from
    :data:`SERVE_METHODS`, so a pair recurs under different methods.
    """
    if n_pairs < 1 or count < 1 or epoch < 1:
        raise ValueError("serve_mix needs n_pairs, count and epoch >= 1")
    rng = rng_for(seed, "serve-mix")
    order = rng.permutation(n_pairs)
    weights = np.arange(1, epoch + 1, dtype=np.float64) ** -zipf_exponent
    weights /= weights.sum()
    ranks = rng.choice(epoch, size=count, p=weights)
    epochs = np.arange(count) // epoch
    pairs = order[(epochs * epoch + ranks) % n_pairs]
    methods = rng.integers(0, len(SERVE_METHODS), size=count)
    return [
        Key(int(p), SERVE_METHODS[int(m)]) for p, m in zip(pairs, methods)
    ]
