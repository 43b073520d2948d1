"""Engine pool sizing follows the effective CPU count.

``ExperimentEngine(jobs=0/None)`` and the load generator's default
concurrency derive from :func:`~repro.util.cpus.effective_cpu_count`
(the affinity mask, not ``os.cpu_count()``), and a parallel engine
records the ``engine.pool.workers`` gauge.
"""

import pytest

import repro.telemetry as telemetry
from repro.exec import ExperimentEngine
from repro.util.cpus import effective_cpu_count


@pytest.fixture
def fresh_telemetry():
    telemetry.enable()
    yield
    telemetry.disable()


class TestEnginePool:
    def test_pool_records_worker_gauge(self, fresh_telemetry):
        engine = ExperimentEngine(jobs=2)
        engine.map(abs, [-1, 2, -3, 4])
        snap = telemetry.snapshot()
        assert snap["engine.pool.workers"] == 2


class TestAffinityDerivedDefaults:
    def test_jobs_zero_resolves_to_effective_cpus(self):
        assert ExperimentEngine(jobs=0).jobs == effective_cpu_count()
        assert ExperimentEngine(jobs=None).jobs == effective_cpu_count()

    def test_explicit_jobs_preserved(self):
        assert ExperimentEngine(jobs=3).jobs == 3
        assert ExperimentEngine(jobs=-2).jobs == 1

    def test_loadgen_default_concurrency_is_affinity_derived(self):
        from repro.service.loadgen import _default_concurrency

        expected = max(1, min(4, 2 * effective_cpu_count()))
        assert _default_concurrency() == expected
