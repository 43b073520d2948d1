"""``serve-mixed``: the allocation daemon under an open-loop request mix.

The daemon runs in its own process (``launcher.py``) with
``ha8k:100000`` hot.  One asyncio client process sends the
:data:`openloop.MIX` over ``min(2, nproc)`` pipelined connections: 90 %
1-budget ``vafs`` allocates (read), 5 % 256-budget allocates (plan),
5 % admit/set-budget/depart (write).  All requests share the daemon's
single worker thread, so reads wait behind plans and writes.

The run has three parts:

- set-up: ``SETUP_PROBES`` daemon spawns, each until it listens and has
  answered one read, one plan and one write cycle; ``setup_s`` is the
  median of the CPU seconds the daemon used to get there;
- the nominal phase, open loop at :data:`NOMINAL_RATE`: its latencies,
  timed from each request's due time, are printed per op class;
- the cost phase: bursts of one op class at a time (:data:`BURSTS`),
  each sent at once and timed by the CPU seconds the daemon spent on
  it, per request.

The bounded metrics are these CPU times, scaled to the reference host's
speed by kernel runs in the client process (see ``hostspeed``).  The
latencies of the nominal phase are wall times and swing with the host's
load, so they are printed, not bounded.

Afterwards every reply is compared with an in-process
``AllocationService(export_shm=False)`` answer to the same request, and
``/dev/shm`` is checked for blocks the daemon left behind.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from common import (
    HERE,
    PER_LAYER,
    SETUP_PROBES,
    Outcome,
    cpu_ticks,
    ms,
    proc_cpu_s,
    proc_peak_rss_mb,
    slot,
    work_dir,
)
from hostspeed import HostSpeed
from metrics import calm, percentile, steal_share
from openloop import (
    LATENESS_BOUND_MS,
    MIX,
    Connections,
    Phase,
    RequestMaker,
    make_schedule,
    run_phase,
)
from spans import CLIENT_SITES, Tracer, layer_totals

N_MODULES = 100_000
FLEET_ID = "fleet-0"
#: About a third of the rate the daemon sustained with this mix on a
#: 2-CPU host in calm periods (its knee lay between 700 and 1,800
#: req/s there, and fell to 430 req/s while other tenants loaded the
#: machine).
NOMINAL_RATE = 300.0
#: Share of the run spent at the nominal rate; the rest is the cost
#: phase.
NOMINAL_SHARE = 0.4
#: Requests per burst of the cost phase, per op class: each burst takes
#: some tens of ms of daemon CPU, so a run holds dozens of bursts of
#: each class.  Write bursts are whole admit/set-budget/depart cycles.
BURSTS = {"read": 64, "plan": 4, "write": 12}
CLASSES = ("read", "plan", "write")


def setup(seed: int) -> None:
    """The client's own imports; the daemon's set-up is timed in run()."""
    import repro.service.api  # noqa: F401
    import repro.service.engine  # noqa: F401


def _psm_blocks() -> set[str]:
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


def _call(client, op: str, payload):
    """Send one request through the blocking ``ServiceClient``."""
    method = {
        "allocate": client.allocate,
        "admit": client.admit,
        "depart": client.depart,
        "set-budget": client.set_budget,
    }[op]
    return method(payload)


class Daemon:
    """One daemon process driven through ``launcher.py``."""

    def __init__(self, seed: int, tag: str, spans_path: str | None):
        self.spec = f"ha8k:{N_MODULES}:{seed}"
        # Relative to the working directory: unix socket paths are
        # limited to about 100 bytes.
        self.socket = os.path.relpath(
            work_dir() / f"serve-{os.getpid()}-{tag}.sock"
        )
        self.spans_path = spans_path
        self.proc: subprocess.Popen | None = None
        #: (op, request, reply) of the warm-up, in the order sent
        self.warmup: list[tuple[str, object, object]] = []

    def start(self, maker: RequestMaker) -> tuple[float, float]:
        """Spawn, then return the (CPU, wall) seconds until the daemon
        listened and answered one read, one plan and one write cycle
        made by ``maker``."""
        from repro.service import api
        from repro.service.client import ServiceClient

        cmd = [
            sys.executable,
            str(HERE / "launcher.py"),
            "--socket",
            self.socket,
            "--fleet",
            self.spec,
        ]
        if self.spans_path:
            cmd += ["--spans", self.spans_path]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd)
        while not os.path.exists(self.socket):
            if self.proc.poll() is not None or time.perf_counter() - t0 > 60:
                raise RuntimeError("the daemon did not start listening")
            time.sleep(0.001)
        requests = [maker.make(k) for k in ("read", "plan", "write", "write", "write")]
        with ServiceClient(self.socket) as client:
            while True:
                try:
                    client.ping()
                    break
                except api.ServiceError:
                    if time.perf_counter() - t0 > 60:
                        raise
                    time.sleep(0.001)
            self.warmup = [(op, p, _call(client, op, p)) for op, p in requests]
        return proc_cpu_s(self.proc.pid), time.perf_counter() - t0

    def call(self, op: str, payload):
        from repro.service.client import ServiceClient

        with ServiceClient(self.socket) as client:
            return _call(client, op, payload)

    def stop(self) -> int:
        """SIGTERM drains the daemon; returns its exit code."""
        assert self.proc is not None
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return -9


def _maker(seed: int) -> RequestMaker:
    return RequestMaker(seed, FLEET_ID, N_MODULES)


def _phase(socket: str, n_conns: int, schedule, maker) -> Phase:
    async def go() -> Phase:
        conns = Connections(socket, n_conns)
        await conns.open()
        try:
            return await run_phase(conns, schedule, maker)
        finally:
            await conns.close()

    return asyncio.run(go())


def _bursts(daemon: Daemon, n_conns: int, maker, seconds: float, host: HostSpeed):
    """The cost phase: bursts of one op class after another until
    ``seconds`` have passed, with host-speed kernel runs between them.
    Returns the phases and, per class, the daemon's CPU seconds per
    request of each burst and the host's steal share during it."""
    pid = daemon.proc.pid
    phases: list[Phase] = []
    cpu_s: dict[str, list[float]] = {k: [] for k in CLASSES}
    steal: dict[str, list[float]] = {k: [] for k in CLASSES}

    async def go() -> None:
        conns = Connections(daemon.socket, n_conns)
        await conns.open()
        try:
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline or not cpu_s["write"]:
                host.tick()
                for kind in CLASSES:
                    n = BURSTS[kind]
                    ticks, c0 = cpu_ticks(), proc_cpu_s(pid)
                    phases.append(await run_phase(conns, [(0.0, kind)] * n, maker))
                    cpu_s[kind].append((proc_cpu_s(pid) - c0) / n)
                    steal[kind].append(steal_share(ticks, cpu_ticks()))
        finally:
            await conns.close()

    asyncio.run(go())
    return phases, {k: calm(cpu_s[k], steal[k]) for k in CLASSES}


def _verify(out: Outcome, seed: int, writes_before, phases: list[Phase]) -> None:
    """Replay every request against an in-process service, in the
    order the daemon applied them, and compare the answers."""
    from repro.service.api import FleetSpec
    from repro.service.engine import AllocationService

    svc = AllocationService(export_shm=False)
    try:
        svc.open_fleet(FleetSpec.parse(f"ha8k:{N_MODULES}:{seed}"))
        handlers = {
            "allocate": svc.allocate,
            "admit": svc.admit,
            "depart": svc.depart,
            "set-budget": svc.set_budget,
        }
        for op, payload, reply in writes_before:
            out.check(handlers[op](payload) == reply, f"set-up {op} reply")
        for phase in phases:
            for req in phase.requests:
                ok = not req.error and handlers[req.op](req.payload) == req.reply
                out.check(ok, f"{req.kind} reply {req.error or 'differs'}")
    finally:
        svc.close_all()


def run(seed: int, seconds: float, trace: bool, host: HostSpeed) -> Outcome:
    out = Outcome()
    n_conns = min(2, len(os.sched_getaffinity(0)))
    shm_before = _psm_blocks()
    spans_path = None
    if trace:
        spans_path = os.path.relpath(work_dir() / f"serve-{os.getpid()}-spans.json")
    setup_cpu, setup_wall = [], []
    probes = 1 if trace else SETUP_PROBES
    for k in range(probes):
        daemon = Daemon(seed, str(k), spans_path if k == probes - 1 else None)
        # Every daemon gets the same warm-up requests; the last one's
        # maker goes on to make the timed requests.
        maker = _maker(seed)
        try:
            cpu, wall = daemon.start(maker)
        except BaseException:
            if daemon.proc is not None:
                daemon.stop()
            raise
        host.sample()
        setup_cpu.append(cpu)
        setup_wall.append(wall)
        if k < probes - 1:
            out.check(daemon.stop() == 0, "set-up probe daemon drains cleanly")

    writes_before = list(daemon.warmup)
    phases: list[Phase] = []
    tracer = Tracer()
    try:
        for op, payload in maker.resident():
            writes_before.append((op, payload, daemon.call(op, payload)))

        def phase(schedule_seed: int, duration_s: float) -> Phase:
            schedule = make_schedule(schedule_seed, NOMINAL_RATE, duration_s)
            phases.append(_phase(daemon.socket, n_conns, schedule, maker))
            return phases[-1]

        def nominal_phase(duration_s: float) -> Phase:
            # A phase the generator could not keep to its schedule (a
            # stall of the shared host) is measured once more; only a
            # second invalid phase makes the run invalid.  Every reply
            # of both is still checked.
            first = phase(seed, duration_s)
            if first.lateness_ms(99) <= LATENESS_BOUND_MS:
                return first
            out.notes.append(
                f"nominal phase invalid (generator p99 late "
                f"{first.lateness_ms(99):.2f} ms); measured again"
            )
            return phase(seed + 1000, duration_s)

        if trace:
            # Untraced first half, then SIGUSR1 makes the launcher wrap
            # the daemon's layers and the client wraps its codec.
            nominal = nominal_phase(seconds / 2)
            daemon.proc.send_signal(signal.SIGUSR1)
            time.sleep(0.2)
            tracer.install(CLIENT_SITES)
            try:
                traced = phase(seed + 1, seconds / 2)
            finally:
                tracer.remove()
        else:
            nominal = nominal_phase(seconds * NOMINAL_SHARE)
            bursts, cost_s = _bursts(
                daemon, n_conns, maker, seconds * (1 - NOMINAL_SHARE), host
            )
            phases += bursts
            rss = proc_peak_rss_mb(daemon.proc.pid)
    finally:
        code = daemon.stop()
    out.check(code == 0, "daemon drains cleanly on SIGTERM")
    leaked = _psm_blocks() - shm_before
    out.check(not leaked, f"/dev/shm blocks left after drain: {sorted(leaked)}")

    late50, late99 = nominal.lateness_ms(50), nominal.lateness_ms(99)
    out.check(
        late99 <= LATENESS_BOUND_MS,
        f"generator ran {late99:.2f} ms late at p99 "
        f"(bound {LATENESS_BOUND_MS} ms): run invalid",
    )
    out.notes.append(
        f"generator lateness at {NOMINAL_RATE:.0f} req/s: p50 {late50:.3f} ms, "
        f"p99 {late99:.3f} ms (bound {LATENESS_BOUND_MS} ms)"
    )
    _verify(out, seed, writes_before, phases)

    if trace:
        out.metrics = _layers(nominal, traced, tracer, spans_path)
        os.unlink(spans_path)
        return out

    scale = host.scale()
    out.notes.append(
        f"set-up: p50 {statistics.median(setup_cpu):.3f} CPU s, "
        f"{statistics.median(setup_wall):.3f} wall s over {len(setup_cpu)} spawns"
    )
    for kind in CLASSES:
        lat = [r.latency_s for r in nominal.of(kind)]
        out.notes.append(
            f"{kind} at {NOMINAL_RATE:.0f} req/s over {n_conns} connections, "
            f"wall from due time: {len(lat)} samples, p50 "
            f"{ms(percentile(lat, 50)):.3f} ms, p90 {ms(percentile(lat, 90)):.3f} "
            f"ms, p99 {ms(percentile(lat, 99)):.3f} ms; daemon CPU per request "
            f"p50 {ms(percentile(cost_s[kind], 50)):.3f} ms over "
            f"{len(cost_s[kind])} bursts of {BURSTS[kind]} under little steal"
        )
    out.metrics = {
        "setup_s": statistics.median(setup_cpu) * scale,
        "peak_rss_mb": rss,
    }
    for name, kind in zip(("op", "op2", "op3"), CLASSES):
        p50, p90 = slot([c * scale for c in cost_s[kind]])
        out.metrics[f"{name}_ref_ms"] = p50
        out.metrics[f"{name}_ref_p90_ms"] = p90
    # Requests of the mix one fully available daemon CPU of the
    # reference host would answer per second, from each class's p50.
    out.metrics["throughput_ref_per_s"] = 1.0 / sum(
        share * statistics.median(cost_s[kind]) * scale for kind, share in MIX
    )
    return out


def _layers(
    untraced: Phase, traced: Phase, tracer: Tracer, spans_path: str
) -> dict[str, float]:
    """Per-request layer self times of the traced phase, per op class.

    Daemon spans are matched to the traced phase by time (both
    processes stamp spans with the same monotonic clock).  The residual
    is each class's mean round trip minus the server codec, the
    dispatch and engine time under it, and the client's request
    encoding: socket, event loop, executor hop and queue wait.  (Reply
    decoding runs after the phase, outside the round trip.)
    """
    with open(spans_path) as fh:
        daemon_spans = [tuple(s) for s in json.load(fh)]
    window = (traced.start - 0.001, max(r.done for r in traced.requests) + 0.001)
    server = layer_totals(daemon_spans, window)
    client = layer_totals(tracer.spans)
    metrics = {name: 0.0 for name, _unit in PER_LAYER}

    def total(table, layer, klass, i=0) -> float:
        return table.get((layer, klass), (0.0, 0, 0))[i]

    all_reqs = traced.requests
    for klass in CLASSES:
        reqs = traced.of(klass)
        n = len(reqs)
        decode = total(server, "service.api.decode", klass)
        encode = total(server, "service.api.encode", klass)
        handle = total(server, "service.daemon.handle", klass)
        engine = total(server, "service.engine.allocate", klass) + total(
            server, "service.engine.membership", klass
        )
        solve = total(server, "core.budget.solve", klass)
        sent_codec = total(client, "service.client.encode", klass)
        codec = sent_codec + total(client, "service.client.decode", klass)
        rt = sum(r.round_trip_s for r in reqs)
        metrics[f"service.api.decode_ms.{klass}"] = ms(decode) / n
        metrics[f"service.api.encode_ms.{klass}"] = ms(encode) / n
        metrics[f"service.api.reply_bytes.{klass}"] = (
            total(server, "service.api.encode", klass, 2) / n
        )
        if klass == "write":
            metrics["service.engine.membership_ms.write"] = ms(engine) / n
        else:
            metrics[f"service.engine.allocate_ms.{klass}"] = ms(engine) / n
        metrics[f"service.client.codec_ms.{klass}"] = ms(codec) / n
        metrics[f"service.daemon.residual_ms.{klass}"] = (
            ms(rt - decode - encode - handle - engine - solve - sent_codec) / n
        )
    n_all = len(all_reqs)

    def layer_sum(layer: str, i: int) -> float:
        return sum(acc[i] for (lay, _k), acc in server.items() if lay == layer)

    for layer in (
        "cluster.build",
        "core.pvt.generate",
        "core.pmt.build",
        "core.budget.solve",
    ):
        metrics[f"{layer}_ms"] = ms(layer_sum(layer, 0)) / n_all
        metrics[f"{layer}.calls"] = layer_sum(layer, 1) / n_all
    metrics["op_wall_ms"] = ms(sum(r.round_trip_s for r in all_reqs)) / n_all
    metrics["unattributed_ms"] = ms(layer_sum("service.daemon.handle", 0)) / n_all
    metrics["telemetry.trace_overhead_frac"] = (
        percentile([r.latency_s for r in traced.requests], 50)
        / percentile([r.latency_s for r in untraced.requests], 50)
        - 1.0
    )
    return metrics
