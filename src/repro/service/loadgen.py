"""Closed-loop load generator for the allocation service.

:func:`run_load` drives ``concurrency`` worker threads, each with its
own :class:`~repro.service.client.ServiceClient` connection, issuing
``allocate`` requests as fast as replies come back for ``duration_s``
seconds, and reports throughput plus a latency distribution.  Typed
retryable rejects (``overloaded``/``draining``) are counted separately
from hard errors — under deliberate overload the healthy signature is
*rejects without errors and p99 still bounded*, which is exactly what
the graceful-degradation benchmark records.

``python -m repro.service.loadgen`` is the self-contained CI smoke: it
starts a :class:`~repro.service.daemon.BackgroundServer`, opens a fleet,
runs the load, drains, and exits non-zero if the qps floor, the p99
bound, or the ``/dev/shm`` leak check fails.  Point it at an external
daemon with ``--address`` to smoke a real ``repro serve`` process.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

from repro.service.api import AllocationRequest, FleetSpec, ServiceError
from repro.service.client import ServiceClient
from repro.util.cpus import effective_cpu_count

__all__ = ["LoadReport", "run_load", "main"]


@dataclass(frozen=True)
class LoadReport:
    """One load run's outcome."""

    duration_s: float
    concurrency: int
    n_ok: int
    n_rejected: int
    n_error: int
    p50_ms: float
    p99_ms: float
    max_ms: float

    @property
    def qps(self) -> float:
        """Successful allocation queries per second."""
        return self.n_ok / self.duration_s if self.duration_s > 0 else 0.0

    def summary(self) -> str:
        return (
            f"{self.qps:,.0f} qps over {self.duration_s:.1f}s "
            f"x{self.concurrency} ({self.n_ok:,} ok, "
            f"{self.n_rejected:,} rejected, {self.n_error:,} errors; "
            f"p50 {self.p50_ms:.2f} ms, p99 {self.p99_ms:.2f} ms, "
            f"max {self.max_ms:.2f} ms)"
        )


def _percentile(sorted_ms: list[float], q: float) -> float:
    if not sorted_ms:
        return 0.0
    idx = min(len(sorted_ms) - 1, int(q * (len(sorted_ms) - 1) + 0.5))
    return sorted_ms[idx]


def _default_concurrency() -> int:
    """Affinity-derived worker-thread default: two closed loops per
    effective CPU, capped at the historical default of 4 so small
    ``taskset``/cgroup-restricted environments are not oversubscribed."""
    return max(1, min(4, 2 * effective_cpu_count()))


def run_load(
    address,
    *,
    fleet_id: str,
    duration_s: float = 5.0,
    concurrency: int | None = None,
    app: str = "bt",
    scheme: str = "vafsor",
    budgets_w=(800_000.0,),
    timeout: float = 30.0,
) -> LoadReport:
    """Closed-loop ``allocate`` load against a running service.

    ``concurrency=None`` (the default) resolves via
    :func:`_default_concurrency`.
    """
    if concurrency is None:
        concurrency = _default_concurrency()
    request = AllocationRequest.build(
        fleet_id=fleet_id, app=app, scheme=scheme, budgets_w=budgets_w
    )
    stop = threading.Event()
    lock = threading.Lock()
    ok: list[float] = []  # per-request latencies, ms
    rejected = [0]
    errors = [0]

    def _worker():
        local: list[float] = []
        local_rejected = 0
        local_errors = 0
        try:
            with ServiceClient(address, timeout=timeout) as client:
                while not stop.is_set():
                    t0 = perf_counter()
                    try:
                        client.allocate(request)
                        local.append((perf_counter() - t0) * 1e3)
                    except ServiceError as exc:
                        if exc.retryable:
                            local_rejected += 1
                        else:
                            local_errors += 1
                            break
        except ServiceError:
            local_errors += 1
        with lock:
            ok.extend(local)
            rejected[0] += local_rejected
            errors[0] += local_errors

    threads = [
        threading.Thread(target=_worker, name=f"loadgen-{i}", daemon=True)
        for i in range(max(1, int(concurrency)))
    ]
    t0 = perf_counter()
    for t in threads:
        t.start()
    stop.wait(duration_s)
    stop.set()
    for t in threads:
        t.join(timeout=timeout)
    wall = perf_counter() - t0

    lat = sorted(ok)
    return LoadReport(
        duration_s=wall,
        concurrency=len(threads),
        n_ok=len(ok),
        n_rejected=rejected[0],
        n_error=errors[0],
        p50_ms=_percentile(lat, 0.50),
        p99_ms=_percentile(lat, 0.99),
        max_ms=lat[-1] if lat else 0.0,
    )


def _shm_names() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # non-Linux: no check possible
        return set()


def main(argv: list[str] | None = None) -> int:
    """The CI smoke (see module docstring).  Returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadgen",
        description="Load-generate against the allocation service.",
    )
    parser.add_argument(
        "--address",
        default=None,
        help="unix-socket path of a running daemon (default: self-hosted)",
    )
    parser.add_argument(
        "--fleet",
        default="ha8k:10000",
        help="fleet spec system:n_modules[:seed] (default %(default)s)",
    )
    parser.add_argument(
        "--fleet-id",
        default=None,
        help="use an already-open fleet id instead of opening --fleet",
    )
    parser.add_argument("--duration", type=float, default=5.0, help="seconds")
    parser.add_argument(
        "--concurrency",
        type=int,
        default=None,
        help="worker threads (default: affinity-derived, at most 4)",
    )
    parser.add_argument("--app", default="bt")
    parser.add_argument("--scheme", default="vafsor")
    parser.add_argument(
        "--budget-w",
        type=float,
        default=None,
        help="allocation budget in W (default: 80 W/module)",
    )
    parser.add_argument(
        "--qps-floor", type=float, default=0.0, help="fail below this qps"
    )
    parser.add_argument(
        "--p99-ms", type=float, default=0.0, help="fail above this p99 latency"
    )
    args = parser.parse_args(argv)

    spec = FleetSpec.parse(args.fleet)
    budget = (
        args.budget_w if args.budget_w is not None else 80.0 * spec.n_modules
    )

    shm_before = _shm_names()
    if args.address is None:
        # Self-hosted: bring up a background daemon, run, drain, leak-check.
        from repro.service.daemon import BackgroundServer

        with BackgroundServer() as server:
            handle = server.service.open_fleet(spec)
            report = run_load(
                server.address,
                fleet_id=handle.fleet_id,
                duration_s=args.duration,
                concurrency=args.concurrency,
                app=args.app,
                scheme=args.scheme,
                budgets_w=(budget,),
            )
    else:
        with ServiceClient(args.address) as client:
            fleet_id = args.fleet_id
            if fleet_id is None:
                fleet_id = client.open_fleet(spec).fleet_id
            report = run_load(
                args.address,
                fleet_id=fleet_id,
                duration_s=args.duration,
                concurrency=args.concurrency,
                app=args.app,
                scheme=args.scheme,
                budgets_w=(budget,),
            )

    print(report.summary())
    failures = []
    if args.qps_floor and report.qps < args.qps_floor:
        failures.append(f"qps {report.qps:,.0f} < floor {args.qps_floor:,.0f}")
    if args.p99_ms and report.p99_ms > args.p99_ms:
        failures.append(f"p99 {report.p99_ms:.2f} ms > bound {args.p99_ms:.2f} ms")
    if report.n_error:
        failures.append(f"{report.n_error} hard errors")
    if args.address is None:
        leaked = _shm_names() - shm_before
        if leaked:
            failures.append(f"leaked shm blocks: {sorted(leaked)}")
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
