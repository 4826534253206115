"""Order statistics used by the benchmark.

A timing is reported as a median and, at most, the highest percentile
that still has at least ten samples beyond it: a p90 read from fewer
than a hundred samples is one or two outliers, not a percentile.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank ``pct``-th percentile of ``samples``.

    Raises:
        ValueError: if ``pct`` is outside (0, 100), or fewer than
            :data:`MIN_BEYOND` samples lie beyond the percentile's rank.
    """
    if not 0.0 < pct < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {pct}")
    ordered = sorted(samples)
    rank = math.ceil(pct / 100.0 * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < MIN_BEYOND:
        raise ValueError(
            f"p{pct:g} of {len(ordered)} samples leaves {max(beyond, 0)} "
            f"beyond it; at least {MIN_BEYOND} are needed"
        )
    return ordered[rank - 1]


def quartiles(samples: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(samples, n=4)`` gives
    them.

    Raises:
        ValueError: if fewer than two samples are given.
    """
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def relative_spread(samples: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 when the median is 0).

    Raises:
        ValueError: if fewer than two samples are given.
    """
    q1, q2, q3 = quartiles(samples)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def quiet_samples(
    loops: Sequence[Sequence[float]], window: int, keep: int
) -> list[float]:
    """The samples of the quietest windows that together hold ``keep``.

    Each loop's samples, in the order they were taken, are cut into
    consecutive windows of ``window`` samples (a loop's short tail joins
    its last window).  Windows are ranked by their median, and the
    lowest are kept until they hold at least ``keep`` samples (or none
    is left).  On a host whose speed drifts from second to second, this
    keeps the stretch of a run that other tenants disturbed least.

    Raises:
        ValueError: if ``window`` < 1 or no loop holds a sample.
    """
    if window < 1:
        raise ValueError(f"window must be positive, got {window}")
    windows: list[Sequence[float]] = []
    for loop in loops:
        cuts = list(range(0, len(loop), window))
        if len(cuts) > 1 and len(loop) - cuts[-1] < window:
            cuts.pop()
        windows += [loop[a:b] for a, b in zip(cuts, cuts[1:] + [len(loop)])]
    if not windows:
        raise ValueError("no samples")
    windows.sort(key=statistics.median)
    kept: list[float] = []
    for w in windows:
        if len(kept) >= keep:
            break
        kept.extend(w)
    return kept
