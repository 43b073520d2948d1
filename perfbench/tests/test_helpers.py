"""Tests of the benchmark's own helpers.

    python -m pytest perfbench/tests -q
"""

import os
import time

import pytest

from common import Stopwatch, proc_cpu_s
from hostspeed import REFERENCE_S, HostSpeed
from metrics import STEAL_LIMIT, calm, percentile, steal_share
from openloop import MIX, RequestMaker, make_schedule
from spans import BATCH_SITES, CLIENT_SITES, DAEMON_SITES, Tracer, layer_totals, resolve


# -- percentile rule -----------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile(values, 0.5) == 1


def test_percentile_returns_an_observed_sample():
    values = [3.0, 1.0, 2.0, 10.0]
    assert percentile(values, 50) == 2.0
    assert percentile(values, 75) == 3.0
    assert percentile(values, 76) == 10.0
    assert percentile([7.5], 99) == 7.5


@pytest.mark.parametrize("q", [0, -1, 100.5])
def test_percentile_rejects_bad_q(q):
    with pytest.raises(ValueError):
        percentile([1.0], q)


def test_percentile_rejects_empty_sample():
    with pytest.raises(ValueError):
        percentile([], 50)


# -- schedule and mix determinism ------------------------------------------------


def test_schedule_is_deterministic_per_seed():
    a = make_schedule(5, 500.0, 4.0)
    assert a == make_schedule(5, 500.0, 4.0)
    assert a != make_schedule(6, 500.0, 4.0)


def test_schedule_rate_window_and_mix():
    schedule = make_schedule(1, 1000.0, 20.0)
    offsets = [t for t, _k in schedule]
    assert offsets == sorted(offsets)
    assert 0.0 < offsets[0] and offsets[-1] < 20.0
    assert abs(len(schedule) / 20_000 - 1.0) < 0.03
    for name, share in MIX:
        got = sum(1 for _t, k in schedule if k == name) / len(schedule)
        assert abs(got - share) < 0.01, name


def test_requests_are_deterministic_per_seed():
    kinds = [k for _t, k in make_schedule(3, 500.0, 2.0)]
    one = [RequestMaker(3, "f", 100_000).make(k) for k in kinds]
    two = [RequestMaker(3, "f", 100_000).make(k) for k in kinds]
    assert one == two
    other = RequestMaker(4, "f", 100_000)
    assert [other.make(k) for k in kinds] != one


def test_writes_cycle_admit_set_budget_depart():
    maker = RequestMaker(0, "f", 100_000)
    ops = [maker.make("write") for _ in range(6)]
    assert [op for op, _p in ops] == ["admit", "set-budget", "depart"] * 2
    assert ops[2][1].job_id == ops[0][1].job_id
    assert ops[5][1].job_id == ops[3][1].job_id
    plan = maker.make("plan")[1]
    assert len(plan.budgets_w) == 256 and list(plan.budgets_w) == sorted(plan.budgets_w)
    assert len(maker.make("read")[1].budgets_w) == 1


# -- steal rule ----------------------------------------------------------------------


def test_calm_leaves_out_ops_under_steal():
    values = [1.0, 2.0, 3.0, 4.0]
    assert calm(values, [0.0, 0.5, STEAL_LIMIT, 0.0]) == [1.0, 3.0, 4.0]
    # Fewer than half are calm: the least-stolen half is kept, in order.
    assert calm(values, [0.3, 0.2, 0.9, 0.1]) == [2.0, 4.0]
    assert calm([5.0], [0.7]) == [5.0]
    with pytest.raises(ValueError):
        calm(values, [0.0])


def test_steal_share_of_two_readings():
    assert steal_share((10, 1000), (30, 1200)) == pytest.approx(0.1)
    assert steal_share((10, 1000), (10, 1000)) == 0.0


# -- CPU clocks ----------------------------------------------------------------------


def _spin(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_proc_cpu_s_reads_a_process_cpu_clock():
    c0, p0 = proc_cpu_s(os.getpid()), time.process_time()
    _spin(0.05)
    c1, p1 = proc_cpu_s(os.getpid()), time.process_time()
    assert c1 - c0 == pytest.approx(p1 - p0, abs=0.005)


def test_stopwatch_counts_cpu_not_sleep():
    watch = Stopwatch(HostSpeed())
    assert watch.time(lambda: time.sleep(0.05) or 7) == 7
    watch.time(lambda: _spin(0.05))
    assert watch.wall_s[0] >= 0.05 and watch.cpu_s[0] < 0.02
    assert watch.cpu_s[1] >= 0.05
    # One kernel run before the first op; the second came within EVERY_S.
    assert len(watch.host.samples) == 1
    scale = watch.host.scale()
    assert len(watch.steal) == 2
    assert watch.ref_s() == [c * scale for c in calm(watch.cpu_s, watch.steal)]


def test_host_scale_is_the_median_kernel_run():
    host = HostSpeed()
    with pytest.raises(RuntimeError):
        host.scale()
    host.samples = [0.010, 0.500, 0.020, 0.030, 0.025]
    # One slow kernel run does not move the scale.
    assert host.scale() == pytest.approx(REFERENCE_S / 0.025)


# -- wrappers ------------------------------------------------------------------------


@pytest.mark.parametrize("sites", [BATCH_SITES, DAEMON_SITES, CLIENT_SITES])
def test_install_and_remove_leave_every_site_identical(sites):
    before = {}
    for path, _layer, _hook in sites:
        owner, attr = resolve(path)
        before[path] = vars(owner)[attr]
    tracer = Tracer()
    tracer.install(sites)
    try:
        for path, _layer, _hook in sites:
            owner, attr = resolve(path)
            assert vars(owner)[attr] is not before[path]
            assert vars(owner)[attr].__wrapped__ is before[path]
    finally:
        tracer.remove()
    assert not tracer.installed
    for path, _layer, _hook in sites:
        owner, attr = resolve(path)
        assert vars(owner)[attr] is before[path]


def test_self_times_reconcile_with_op_wall():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    wrapped_leaf = tracer.timed("leaf", leaf)

    def middle():
        time.sleep(0.005)
        wrapped_leaf()
        wrapped_leaf()

    wrapped_middle = tracer.timed("middle", middle)

    def op():
        wrapped_middle()
        time.sleep(0.002)

    tracer.op(op)
    totals = layer_totals(tracer.spans)
    (op_span,) = [s for s in tracer.spans if s[0] == "op"]
    wall = op_span[3] - op_span[2]
    covered = sum(acc[0] for acc in totals.values())
    assert covered == pytest.approx(wall, abs=1e-9)
    assert totals[("leaf", "")][1] == 2
    assert totals[("leaf", "")][0] >= 0.02
    assert 0.005 <= totals[("middle", "")][0] < 0.02
    assert totals[("op", "")][0] >= 0.002


def test_traced_op_counts_redundant_pmt_builds():
    from repro.cluster.configs import build_system
    from repro.core.schemes import get_scheme
    from repro.apps import get_app

    system = build_system("ha8k", n_modules=64, seed=1)
    app = get_app("bt")
    tracer = Tracer()

    def two_oracle_builds():
        get_scheme("vapcor").build_pmt(system, app)
        get_scheme("vafsor").build_pmt(system, app)
        get_scheme("naive").build_pmt(system, app)

    tracer.traced_op(BATCH_SITES, two_oracle_builds)
    assert tracer.counts["core.pmt.builds"] == 3
    assert tracer.counts["core.pmt.redundant"] == 1
    assert not tracer.installed


# -- BENCHMARK.json ----------------------------------------------------------------


def test_benchmark_json_names_every_metric_run_py_prints():
    import json

    from common import END_TO_END, PER_LAYER, ROOT

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER)
    names = [w["name"] for w in doc["workloads"]]
    assert names == ["fleet-point", "budget-sweep", "serve-mixed"]
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
