"""``fleet-point``: the paper's headline comparison at fleet scale.

``run_fleet_point(100_000)`` with default settings (bt, Cm = 80 W, 20
iterations, naive/vapcor/vafsor, batched, auto tiling), back to back.
Each cycle of ops is ``POINTS_PER_CYCLE`` batched points,
``BUILDS_PER_CYCLE`` fleet builds (the variation draw every fleet
command starts with) and one unbatched point (``batch=False``), which
doubles as the reference the batched points must match bit for bit.
Each op is timed in CPU time of the process (both tile threads) and in
wall time; the metrics are the CPU times scaled to the reference host's
speed (see ``hostspeed``).
"""

from __future__ import annotations

import time

import numpy as np

from common import Outcome, Stopwatch, batch_layers, peak_rss_mb, slot
from hostspeed import HostSpeed
from spans import BATCH_SITES, Tracer

N_MODULES = 100_000
#: Each cycle: this many batched points, BUILDS_PER_CYCLE fleet builds
#: (cheap, so several steady their median) and one unbatched point.
POINTS_PER_CYCLE = 6
BUILDS_PER_CYCLE = 4


def setup(seed: int) -> None:
    """Imports plus one warm-up point, so first-call costs stay out of
    the timed points."""
    from repro.experiments.fleet import run_fleet_point

    run_fleet_point(N_MODULES, seed=seed)


def _same(a, b) -> bool:
    return a.vf == b.vf and a.vt == b.vt and a.speedup == b.speedup


def _fleet_digest(system) -> bytes:
    v = system.modules.variation
    return b"".join(
        np.ascontiguousarray(a).tobytes() for a in (v.leak, v.dyn, v.dram, v.perf)
    )


def run(seed: int, seconds: float, trace: bool, host: HostSpeed) -> Outcome:
    from repro.cluster.configs import build_system
    from repro.experiments.fleet import run_fleet_point

    out = Outcome()
    points, refs, builds = [], [], []
    point_t, ref_t, build_t = Stopwatch(host), Stopwatch(host), Stopwatch(host)
    tracer = Tracer()
    traced_s: list[float] = []

    def point():
        return run_fleet_point(N_MODULES, seed=seed)

    deadline = time.perf_counter() + seconds
    i = 0
    # Run on past the deadline until every op class has a sample.
    while time.perf_counter() < deadline or (not ref_t.cpu_s if not trace else i < 2):
        kind = i % (POINTS_PER_CYCLE + BUILDS_PER_CYCLE + 1)
        i += 1
        if trace:
            # Alternate untraced and traced points; fleet builds and
            # reference points are left to the untraced runs.
            if i % 2 == 0:
                t0 = time.perf_counter()
                points.append(tracer.traced_op(BATCH_SITES, point))
                traced_s.append(time.perf_counter() - t0)
            else:
                points.append(point_t.time(point))
            continue
        if kind < POINTS_PER_CYCLE:
            points.append(point_t.time(point))
        elif kind < POINTS_PER_CYCLE + BUILDS_PER_CYCLE:
            system = build_t.time(
                lambda: build_system("ha8k", n_modules=N_MODULES, seed=seed)
            )
            builds.append(_fleet_digest(system))
        else:
            refs.append(
                ref_t.time(lambda: run_fleet_point(N_MODULES, seed=seed, batch=False))
            )

    if not refs:
        refs.append(run_fleet_point(N_MODULES, seed=seed, batch=False))
    ref = refs[0]
    for r in refs:
        out.check(
            _same(r, ref) and all(r.within_budget.values()),
            "unbatched point repeats",
        )
    for p in points:
        out.check(
            _same(p, ref) and all(p.within_budget.values()),
            "batched point equals run_fleet_point(batch=False)",
        )
    for b in builds:
        out.check(b == builds[0], "fleet build repeats")

    if trace:
        out.metrics, err = batch_layers(
            tracer.spans,
            tracer.counts,
            traced_s=traced_s,
            untraced_s=point_t.wall_s,
            configs=3,
            extra={},
        )
        out.notes.append(f"reconciliation error {err:.6f} ms over {len(traced_s)} ops")
        return out

    op50, op90 = slot(point_t.ref_s())
    ref50, ref90 = slot(ref_t.ref_s())
    b50, b90 = slot(build_t.ref_s())
    out.metrics = {
        "peak_rss_mb": peak_rss_mb(),
        "op_ref_ms": op50,
        "op_ref_p90_ms": op90,
        "op2_ref_ms": ref50,
        "op2_ref_p90_ms": ref90,
        "op3_ref_ms": b50,
        "op3_ref_p90_ms": b90,
        # Modules x schemes simulated per scaled CPU second at the p50
        # point.
        "throughput_ref_per_s": 3 * N_MODULES / (op50 / 1e3),
    }
    out.notes += [
        point_t.note("batched points"),
        ref_t.note("unbatched points"),
        build_t.note("fleet builds"),
    ]
    return out
