"""The percentile rule every workload reports with, and the rule that
leaves out ops taken under steal.  Nothing here touches the program
under test, so ``perfbench/tests`` can pin both rules exactly."""

from __future__ import annotations

import math
from collections.abc import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it (rank ``ceil(q/100 * n)``).

    Always returns an observed sample, never an interpolation, so a
    p99 over 100 samples is the largest one and over 1,000 samples
    the 990th.  ``q`` must lie in (0, 100]; ``values`` must be
    non-empty.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile q={q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


#: Ops during which the hypervisor gave more than this share of the
#: host's CPU time to other guests (steal, from ``/proc/stat``) are left
#: out of the metrics: their CPU time is inflated too, by the caches the
#: other guests left cold.
STEAL_LIMIT = 0.05


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Steal over all CPU time between two ``(steal, total)`` readings
    of ``/proc/stat`` (0 when no tick passed)."""
    return (after[0] - before[0]) / max(1, after[1] - before[1])


def calm(values: Sequence[float], steals: Sequence[float]) -> list[float]:
    """The ``values`` of the ops whose steal share is at most
    :data:`STEAL_LIMIT`, or, when those are fewer than half, of the half
    with the least steal, so a run always keeps half its ops."""
    if len(values) != len(steals):
        raise ValueError("one steal share per value")
    kept = [v for v, s in zip(values, steals) if s <= STEAL_LIMIT]
    if 2 * len(kept) >= len(values):
        return kept
    ranked = sorted(range(len(values)), key=lambda i: steals[i])
    return [values[i] for i in sorted(ranked[: (len(values) + 1) // 2])]
