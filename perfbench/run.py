"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload fleet-point --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload with spans recorded around each layer's entry points and
prints the per-layer table instead.  Every output is checked; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this
directory for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from common import (
    END_TO_END,
    PER_LAYER,
    SETUP_PROBES,
    SRC,
    cpu_ticks,
    metric_table,
    provenance,
    setup_times,
)
from hostspeed import HostSpeed

WORKLOADS = ("fleet-point", "budget-sweep", "serve-mixed")


def _workload(name: str):
    if name == "fleet-point":
        import fleet_point as mod
    elif name == "budget-sweep":
        import budget_sweep as mod
    else:
        import serve_mixed as mod
    return mod


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="run the workload's set-up, print 'ready' and the CPU seconds "
        "it took, and exit (set-up probes)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    mod = _workload(args.workload)

    if args.setup_only:
        mod.setup(args.seed)
        print(f"ready {time.process_time()!r}", flush=True)
        return 0

    trace = bool(args.trace)
    steal0, total0 = cpu_ticks()
    host = HostSpeed()
    # serve-mixed times its daemon's set-up itself.
    setup_s = []
    if not trace and args.workload != "serve-mixed":
        setup_s = setup_times(args.workload, args.seed, SETUP_PROBES, host)
    mod.setup(args.seed)
    outcome = mod.run(args.seed, args.seconds, trace, host)

    steal1, total1 = cpu_ticks()
    # CPU time the hypervisor gave to other guests during the run: the
    # main cause of run-to-run spread in wall times on a shared host.
    steal = (steal1 - steal0) / max(1, total1 - total0)
    record = provenance(args.seed, trace) | {"steal_frac": steal}
    print("provenance: " + json.dumps(record))
    if trace:
        names = PER_LAYER
    else:
        names = END_TO_END
        if setup_s:
            outcome.metrics["setup_s"] = statistics.median(setup_s) * host.scale()
            outcome.notes.append(
                f"set-up: p50 {statistics.median(setup_s):.3f} CPU s over "
                f"{len(setup_s)} fresh processes"
            )
        outcome.metrics["ok_frac"] = 1.0 - outcome.failed / max(1, outcome.attempted)
        outcome.notes.append(
            f"host speed: kernel CPU p50 {1e3 * statistics.median(host.samples):.2f}"
            f" ms over {len(host.samples)} runs; CPU times scaled by "
            f"{host.scale():.4f}"
        )
    for note in outcome.notes:
        print(note)
    units = dict(names)
    metrics = {name: float(outcome.metrics[name]) for name, _unit in names}
    print(f"{args.workload} ({'per-layer, traced' if trace else 'end-to-end'}):")
    print(metric_table(metrics, units))
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
