"""Tests for :mod:`repro.util.cpus`."""

import os

from repro.util.cpus import effective_cpu_count


def test_effective_count_matches_affinity():
    if hasattr(os, "sched_getaffinity"):
        assert effective_cpu_count() == len(os.sched_getaffinity(0))
    else:  # pragma: no cover - non-Linux
        assert effective_cpu_count() >= 1
