"""One PMT per kind inside :func:`run_budgeted_batched`.

A PMT depends on its kind and on the (fleet, app, PVT, test module,
noise) inputs, never on the scheme's actuation, so a batch of all six
schemes builds four tables: VaPcOr/VaFsOr share the oracle table and
VaPc/VaFs the calibrated one.  The shared table must be read-only in
practice: every array of every built table is frozen here, so an
in-place write anywhere downstream raises instead of passing silently,
and the results must match per-config :func:`run_budgeted` calls bit
for bit.
"""

from collections import Counter

import numpy as np
import pytest

from repro.apps import get_app
from repro.core.runner import run_budgeted, run_budgeted_batched
from repro.core.schemes import ALL_SCHEMES, Scheme

N_ITERS = 5
PMT_ARRAYS = ("p_cpu_max", "p_cpu_min", "p_dram_max", "p_dram_min")
RESULT_ARRAYS = ("effective_freq_ghz", "cpu_power_w", "dram_power_w", "cap_met")
TRACE_ARRAYS = ("total_s", "compute_s", "wait_s", "comm_s")


@pytest.fixture
def builds(monkeypatch):
    """Record every ``Scheme.build_pmt`` call; freeze what it returns."""
    calls: list = []
    original = Scheme.build_pmt

    def build_pmt(self, *args, **kwargs):
        pmt = original(self, *args, **kwargs)
        for name in PMT_ARRAYS:
            getattr(pmt.model, name).setflags(write=False)
        calls.append((self.pmt_kind, pmt))
        return pmt

    monkeypatch.setattr(Scheme, "build_pmt", build_pmt)
    return calls


def configs(system):
    n = system.n_modules
    return [(name, cm * n) for name in ALL_SCHEMES for cm in (60.0, 75.0)]


def test_each_kind_built_once(builds, ha8k_small, pvt_small):
    run_budgeted_batched(
        ha8k_small, get_app("bt"), configs(ha8k_small),
        pvt=pvt_small, n_iters=N_ITERS,
    )
    assert Counter(kind for kind, _ in builds) == {
        "naive": 1, "uniform": 1, "calibrated": 1, "oracle": 1,
    }


@pytest.mark.parametrize("noisy", [True, False])
def test_bit_identical_to_per_config_runs(builds, ha8k_small, pvt_small, noisy):
    app = get_app("mhd")
    cfgs = configs(ha8k_small)
    outs = run_budgeted_batched(
        ha8k_small, app, cfgs, pvt=pvt_small, n_iters=N_ITERS, noisy=noisy
    )
    shared = [pmt for _kind, pmt in builds]
    for out, (scheme, budget_w) in zip(outs, cfgs):
        ref = run_budgeted(
            ha8k_small, app, scheme, budget_w,
            pvt=pvt_small, n_iters=N_ITERS, noisy=noisy,
        )
        assert out.solution.alpha == ref.solution.alpha
        assert np.array_equal(out.solution.pcpu_w, ref.solution.pcpu_w)
        for name in RESULT_ARRAYS:
            assert np.array_equal(getattr(out, name), getattr(ref, name)), name
        for name in TRACE_ARRAYS:
            assert np.array_equal(
                getattr(out.trace, name), getattr(ref.trace, name)
            ), name
        for pmt in shared:
            for name in PMT_ARRAYS:
                assert not np.shares_memory(
                    out.solution.pcpu_w, getattr(pmt.model, name)
                )


def test_shared_tables_unchanged(builds, ha8k_small, pvt_small):
    """The batch's tables still equal fresh builds after the run."""
    app = get_app("bt")
    run_budgeted_batched(
        ha8k_small, app, configs(ha8k_small), pvt=pvt_small, n_iters=N_ITERS
    )
    batch = list(builds)
    for kind, pmt in batch:
        scheme = next(s for s in ALL_SCHEMES.values() if s.pmt_kind == kind)
        fresh = scheme.build_pmt(ha8k_small, app, pvt=pvt_small)
        for name in PMT_ARRAYS:
            got = getattr(pmt.model, name)
            assert not got.flags.writeable
            assert np.array_equal(got, getattr(fresh.model, name)), (kind, name)
