"""The CPU count every default worker count in this package derives from.

:func:`effective_cpu_count` is the affinity-aware replacement for
``os.cpu_count()``: it honours ``taskset`` and cgroup restrictions, so a
restricted process sizes its pools for the cores it may actually use.
The module is a ``util`` leaf: it imports nothing from :mod:`repro`.
"""

from __future__ import annotations

import os

__all__ = ["effective_cpu_count"]


def effective_cpu_count() -> int:
    """CPUs this process may actually run on.

    ``len(os.sched_getaffinity(0))`` — which reflects ``taskset``/cgroup
    restrictions — with an ``os.cpu_count()`` fallback on platforms
    without affinity support.  Never less than 1.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)
