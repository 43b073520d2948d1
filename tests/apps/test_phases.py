"""Tests for phase-structured applications."""

import numpy as np
import pytest

from repro.apps.base import CommSpec
from repro.apps.phases import GMRES_LIKE, AppPhase, PhasedApp
from repro.errors import ConfigurationError, SimulationError
from repro.hardware.power_model import PowerSignature

FMAX = 2.7


def phase(name="p", secs=1.0, kappa=0.8, cpu=0.7, dram=0.3):
    return AppPhase(name, secs, kappa, PowerSignature(cpu, dram))


class TestValidation:
    def test_phase_validation(self):
        with pytest.raises(ConfigurationError):
            AppPhase("x", 0.0, 0.5, PowerSignature(0.5, 0.5))
        with pytest.raises(ConfigurationError):
            AppPhase("x", 1.0, 1.5, PowerSignature(0.5, 0.5))

    def test_app_needs_phases(self):
        with pytest.raises(ConfigurationError):
            PhasedApp("x", (), default_iters=5)

    def test_duplicate_phase_names(self):
        with pytest.raises(ConfigurationError):
            PhasedApp("x", (phase("a"), phase("a")), default_iters=5)

    def test_positive_iters(self):
        with pytest.raises(ConfigurationError):
            PhasedApp("x", (phase(),), default_iters=0)


class TestAggregation:
    def test_iter_seconds_sum(self):
        app = PhasedApp("x", (phase(secs=1.0), phase("b", secs=3.0)), default_iters=5)
        assert app.iter_seconds_fmax == pytest.approx(4.0)

    def test_phase_weights(self):
        app = PhasedApp("x", (phase(secs=1.0), phase("b", secs=3.0)), default_iters=5)
        assert np.allclose(app.phase_weights(), [0.25, 0.75])

    def test_aggregate_signature_time_weighted(self):
        app = PhasedApp(
            "x",
            (
                AppPhase("a", 1.0, 0.5, PowerSignature(1.0, 0.0)),
                AppPhase("b", 1.0, 0.5, PowerSignature(0.0, 1.0)),
            ),
            default_iters=5,
        )
        sig = app.aggregate_signature()
        assert sig.cpu_activity == pytest.approx(0.5)
        assert sig.dram_activity == pytest.approx(0.5)

    def test_as_static_app_consistent(self):
        static = GMRES_LIKE.as_static_app()
        assert static.iter_seconds_fmax == pytest.approx(
            GMRES_LIKE.iter_seconds_fmax
        )
        assert static.comm == GMRES_LIKE.comm

    def test_phase_model(self):
        m = GMRES_LIKE.phase_model(GMRES_LIKE.phases[0])
        assert m.name == "gmres-like/spmv"
        assert m.signature == GMRES_LIKE.phases[0].signature


class TestRun:
    def test_uniform_rates_match_static_time(self):
        app = PhasedApp("x", (phase(kappa=1.0),), default_iters=5, comm=CommSpec())
        rates = np.full((1, 4), FMAX)
        trace = app.run(rates, FMAX, n_iters=5)
        assert np.allclose(trace.total_s, 5 * 1.0)

    def test_per_phase_rates_change_time(self):
        app = PhasedApp(
            "x",
            (phase("a", secs=1.0, kappa=1.0), phase("b", secs=1.0, kappa=1.0)),
            default_iters=2,
        )
        both_full = app.run(np.full((2, 2), FMAX), FMAX, n_iters=2).makespan_s
        slow_b = app.run(
            np.stack([np.full(2, FMAX), np.full(2, FMAX / 2)]), FMAX, n_iters=2
        ).makespan_s
        assert slow_b == pytest.approx(both_full * 1.5)

    def test_rate_shape_checked(self):
        with pytest.raises(ConfigurationError):
            GMRES_LIKE.run(np.full((1, 4), 2.0), FMAX, n_iters=2)

    def test_every_phase_rate_validated(self):
        rates = np.full((3, 4), 2.0)
        rates[2, 1] = 0.0  # only the last phase's rates are bad
        with pytest.raises(SimulationError):
            GMRES_LIKE.run(rates, FMAX, n_iters=2)

    def test_allreduce_synchronises(self):
        rates = np.tile(np.array([[1.5, 2.5]]), (3, 1))
        trace = GMRES_LIKE.run(rates, FMAX, n_iters=5)
        assert trace.vt == pytest.approx(1.0, abs=1e-6)

    def test_gmres_like_spectrum(self):
        # The example app spans memory-bound to compute-bound phases.
        kappas = [p.cpu_bound_fraction for p in GMRES_LIKE.phases]
        assert min(kappas) < 0.5 < max(kappas)
