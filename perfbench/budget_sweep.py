"""``budget-sweep``: one engine sweep over every scheme and 16 budgets.

All six registered schemes x 16 module budgets (Cm 60-110 W) of mhd, a
3-D neighbour pattern, on a 32,768-module fleet, through
``ExperimentEngine(jobs=1).submit_batched_sweep``.  One pass is cold
into a fresh cache directory, with the engine's per-process fleet and
PVT memos cleared as a fresh process would have them, then
``WARM_PASSES`` times warm from that directory with a new engine, then
``LOOKUPS`` single-key ``ExperimentEngine.run`` lookups on the warm
cache.  The warm steps run no simulation, so they isolate the engine's
cache I/O.  Each step is timed in CPU and wall time; the metrics are
the CPU times scaled to the reference host's speed (see ``hostspeed``).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from common import (
    Outcome,
    Stopwatch,
    batch_layers,
    peak_rss_mb,
    slot,
    work_dir,
)
from hostspeed import HostSpeed
from spans import BATCH_SITES, Tracer

N_MODULES = 32_768
APP = "mhd"
N_ITERS = 20
CM_W = tuple(float(c) for c in np.linspace(60.0, 110.0, 16))
#: Warm passes and single-key lookups per cold pass: both are cheap,
#: and more samples of them steady their medians.
WARM_PASSES = 2
LOOKUPS = 32


def _keys(seed: int, n_modules: int = N_MODULES, cm_w=CM_W, schemes=None):
    from repro.core.schemes import list_schemes
    from repro.exec import RunKey

    return [
        RunKey(
            system="ha8k",
            n_modules=n_modules,
            seed=seed,
            app=APP,
            scheme=scheme,
            budget_w=n_modules * cm,
            n_iters=N_ITERS,
        )
        for scheme in (schemes or list_schemes())
        for cm in cm_w
    ]


def _cold_engine(cache_dir):
    from repro.exec import ExperimentEngine
    from repro.exec import engine as engine_mod

    engine_mod._system_for.cache_clear()
    engine_mod._pvt_for.cache_clear()
    return ExperimentEngine(jobs=1, cache_dir=cache_dir)


def setup(seed: int) -> None:
    """Imports plus a small warm-up sweep through the same code paths."""
    from repro.exec import ExperimentEngine

    with tempfile.TemporaryDirectory(dir=work_dir()) as d:
        keys = _keys(
            seed, n_modules=512, cm_w=(70.0, 100.0), schemes=("naive", "vafs")
        )
        ExperimentEngine(jobs=1, cache_dir=d).submit_batched_sweep(
            keys, skip_infeasible=True
        )


def _digest(result) -> str:
    """Content hash of a run result (its cache payload), None-safe."""
    from repro.exec.cache import result_to_payload

    if result is None:
        return "infeasible"
    meta, arrays = result_to_payload(result)
    h = hashlib.sha256(json.dumps(meta, sort_keys=True).encode())
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in path.iterdir())


def run(seed: int, seconds: float, trace: bool, host: HostSpeed) -> Outcome:
    from repro.exec import ExperimentEngine

    out = Outcome()
    keys = _keys(seed)
    rng = np.random.default_rng(seed)
    tracer = Tracer()
    cold_t, warm_t, lookup_t = Stopwatch(host), Stopwatch(host), Stopwatch(host)
    pass_s, traced_s, bytes_written = [], [], []
    reference: list[str] | None = None
    deadline = time.perf_counter() + seconds
    n_pass = 0
    while n_pass < 2 or time.perf_counter() < deadline:
        n_pass += 1
        traced = trace and n_pass % 2 == 0
        picks = rng.choice(len(keys), size=LOOKUPS, replace=False)
        cache_dir = Path(tempfile.mkdtemp(dir=work_dir()))

        def timed(fn, watch=None):
            # One step of the pass; results are digested between steps,
            # outside the timed region, so at most one step's results
            # are held in memory.
            t0 = time.perf_counter()
            if traced:
                result = tracer.traced_op(BATCH_SITES, fn)
            elif watch is not None:
                result = watch.time(fn)
            else:
                result = fn()
            return result, time.perf_counter() - t0

        def lookups():
            engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
            if traced:
                return [engine.run(keys[k]) for k in picks]
            return [lookup_t.time(lambda: engine.run(keys[k])) for k in picks]

        try:
            cold, c_s = timed(
                lambda: _cold_engine(cache_dir).submit_batched_sweep(
                    keys, skip_infeasible=True
                ),
                cold_t,
            )
            cold_d = [_digest(r) for r in cold]
            del cold
            warm_d, w_s = [], []
            for _ in range(WARM_PASSES):
                warm, w = timed(
                    lambda: ExperimentEngine(jobs=1, cache_dir=cache_dir)
                    .submit_batched_sweep(keys, skip_infeasible=True),
                    warm_t,
                )
                warm_d.append([_digest(r) for r in warm])
                w_s.append(w)
                del warm
            looked, l_s = timed(lookups)
            looked = [_digest(r) for r in looked]
            if traced:
                traced_s.append(c_s + sum(w_s) + l_s)
                bytes_written.append(_dir_bytes(cache_dir))
            else:
                pass_s.append(c_s + sum(w_s) + l_s)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

        if reference is None:
            reference = cold_d
        out.check(cold_d == reference, "cold pass repeats the first cold pass")
        for digests in warm_d:
            for key, c, w in zip(keys, cold_d, digests):
                out.check(w == c, f"warm equals cold for {key.describe()}")
        for k, d in zip(picks, looked):
            out.check(d == cold_d[k], "single-key lookup equals cold")
        out.check("infeasible" not in cold_d, "every budget is feasible")

    if trace:
        out.metrics, err = batch_layers(
            tracer.spans,
            tracer.counts,
            traced_s=traced_s,
            untraced_s=pass_s,
            configs=len(keys),
            extra={"exec.cache.bytes_written": float(np.mean(bytes_written))},
        )
        out.notes.append(
            f"reconciliation error {err:.6f} ms over {len(traced_s)} ops "
            "(op = cold pass + warm passes + lookups)"
        )
        return out

    c50, c90 = slot(cold_t.ref_s())
    w50, w90 = slot(warm_t.ref_s())
    l50, l90 = slot(lookup_t.ref_s())
    out.metrics = {
        "peak_rss_mb": peak_rss_mb(),
        "op_ref_ms": c50,
        "op_ref_p90_ms": c90,
        "op2_ref_ms": w50,
        "op2_ref_p90_ms": w90,
        "op3_ref_ms": l50,
        "op3_ref_p90_ms": l90,
        # Runs computed per scaled CPU second at the p50 cold pass.
        "throughput_ref_per_s": len(keys) / (c50 / 1e3),
    }
    out.notes += [
        cold_t.note("cold passes"),
        warm_t.note("warm passes"),
        lookup_t.note("single-key lookups"),
        f"{len(keys)} runs per pass",
    ]
    return out
