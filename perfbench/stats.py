"""Order statistics for the benchmark's timing metrics.

A timing is reported as a median plus the highest percentile the sample
supports: a percentile counts as supported only when at least
``min_beyond`` samples lie strictly beyond its rank.  Asking for more is
refused, never silently answered from too few samples.
"""

from __future__ import annotations

import math
import statistics


class InsufficientSamples(ValueError):
    """The sample count cannot support the requested percentile."""


def percentile(values, q: float, min_beyond: int = 10) -> float:
    """Nearest-rank *q*-th percentile (``0 < q < 100``) of *values*.

    Raises :class:`InsufficientSamples` unless at least *min_beyond*
    samples rank strictly above the returned one.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    if min_beyond < 0:
        raise ValueError(f"min_beyond must be >= 0, got {min_beyond}")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))  # 1-based nearest rank
    if n == 0 or n - rank < min_beyond:
        raise InsufficientSamples(
            f"p{q:g} needs {min_beyond} samples beyond its rank; "
            f"{n} samples leave {max(0, n - rank)}"
        )
    return float(ordered[rank - 1])


#: Operations per window of :func:`windowed_percentile`, by percentile:
#: the median needs far fewer samples than the tail.
WINDOW_OPS = {50: 50, 95: 200}


def windowed_percentile(values, q: float) -> float:
    """Median over consecutive windows of *values* of each window's *q*-th
    percentile.

    *values* are split, in the order given, into near-equal consecutive
    windows of at least ``WINDOW_OPS[q]`` samples each, so a burst of
    outside load during part of a run moves a few windows, not the
    reported figure.  Each window must support *q* on its own (see
    :func:`percentile`).
    """
    values = list(values)
    window = WINDOW_OPS[q]
    count = len(values) // window
    if count == 0:
        raise InsufficientSamples(
            f"{len(values)} samples do not fill one {window}-sample window"
        )
    bounds = [round(i * len(values) / count) for i in range(count + 1)]
    return median(
        percentile(values[bounds[i]:bounds[i + 1]], q)
        for i in range(count)
    )


def median(values) -> float:
    return float(statistics.median(list(values)))
