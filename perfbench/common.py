"""Plumbing shared by the workloads: the outcome record, host
provenance, peak memory, CPU clocks, set-up probes and the metric
tables.

Every bounded timing is CPU time scaled to the reference host's speed
(see ``hostspeed``), not wall time: on a shared virtual host wall time
swings by up to 3x from one minute to the next.  The raw CPU and wall
times are printed next to the scaled ones."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import HostSpeed
from metrics import calm, percentile, steal_share

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh processes (or daemon spawns) whose set-up is timed per run;
#: the run reports the median of their scaled CPU times.
SETUP_PROBES = 5

#: End-to-end metrics: (name, unit).  Every workload reports all of
#: them; README.md maps each op slot to the workload's own operations.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "1"),
    ("op_ref_ms", "ms"),
    ("op_ref_p90_ms", "ms"),
    ("op2_ref_ms", "ms"),
    ("op2_ref_p90_ms", "ms"),
    ("op3_ref_ms", "ms"),
    ("op3_ref_p90_ms", "ms"),
    ("throughput_ref_per_s", "1/s"),
)

_LAYER_TIMES = (
    "cluster.build",
    "core.pvt.generate",
    "core.pmt.build",
    "core.budget.solve",
    "control.enforce",
    "hardware.fleet_power",
    "simmpi.simulate",
    "exec.engine.group",
    "exec.cache.get",
    "exec.cache.put",
)
_SERVICE_LAYERS = (
    ("service.api.decode", ("read", "plan", "write")),
    ("service.api.encode", ("read", "plan", "write")),
    ("service.engine.allocate", ("read", "plan")),
    ("service.engine.membership", ("write",)),
    ("service.client.codec", ("read", "plan", "write")),
    ("service.daemon.residual", ("read", "plan", "write")),
)

#: Per-layer metrics: (name, unit).  Times are self times per op (per
#: request for the service layers), counts are per op.
PER_LAYER: tuple[tuple[str, str], ...] = (
    *((f"{layer}_ms", "ms") for layer in _LAYER_TIMES),
    *((f"{layer}.calls", "count") for layer in _LAYER_TIMES),
    ("core.pmt.builds", "count"),
    ("core.pmt.redundant_builds", "count"),
    ("simmpi.rows", "count"),
    ("simmpi.rows_per_config", "count"),
    ("simmpi.rank_iters_per_s", "1/s"),
    ("exec.cache.hits", "count"),
    ("exec.cache.bytes_written", "B"),
    ("exec.engine.groups", "count"),
    *(
        (f"{layer}_ms.{klass}", "ms")
        for layer, classes in _SERVICE_LAYERS
        for klass in classes
    ),
    *((f"service.api.reply_bytes.{k}", "B") for k in ("read", "plan", "write")),
    ("op_wall_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("telemetry.trace_overhead_frac", "1"),
)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one output check; a mismatch is a failed op."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {what}")


def ms(seconds: float) -> float:
    return seconds * 1e3


def slot(values_s: list[float]) -> tuple[float, float]:
    """(p50, p90) in ms of one op class's times in seconds."""
    return ms(percentile(values_s, 50)), ms(percentile(values_s, 90))


def proc_cpu_s(pid: int) -> float:
    """CPU seconds another live process has used so far, all its
    threads included (its POSIX process CPU-time clock)."""
    return time.clock_gettime((~pid << 3) | 2)  # CPUCLOCK_SCHED of pid


class Stopwatch:
    """Wall and CPU time of this process (all threads) for each op of
    one class, and the host's steal share during it; the host-speed
    kernel runs between ops when it is due."""

    def __init__(self, host: HostSpeed):
        self.host = host
        self.wall_s: list[float] = []
        self.cpu_s: list[float] = []
        self.steal: list[float] = []

    def time(self, fn):
        self.host.tick()
        ticks = cpu_ticks()
        w0, c0 = time.perf_counter(), time.process_time()
        result = fn()
        self.cpu_s.append(time.process_time() - c0)
        self.wall_s.append(time.perf_counter() - w0)
        self.steal.append(steal_share(ticks, cpu_ticks()))
        return result

    def ref_s(self) -> list[float]:
        """CPU seconds at the reference host's speed of the ops taken
        under little steal (``metrics.calm``)."""
        scale = self.host.scale()
        return [c * scale for c in calm(self.cpu_s, self.steal)]

    def note(self, name: str) -> str:
        return (
            f"{name}: {len(self.cpu_s)} samples ({len(self.ref_s())} under "
            f"little steal), p50 "
            f"{ms(percentile(self.ref_s(), 50)):.2f} ms scaled, CPU "
            f"{ms(percentile(self.cpu_s, 50)):.2f} ms, wall "
            f"{ms(percentile(self.wall_s, 50)):.2f} ms"
        )


def peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Another live process's peak resident set, from ``VmHWM``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def work_dir() -> Path:
    """Scratch space inside the checkout (ignored by git)."""
    path = ROOT / ".perfbench_work"
    path.mkdir(exist_ok=True)
    return path


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the host's CPUs, from ``/proc/stat``."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return fields[7], sum(fields[:8])


def provenance(seed: int, trace: bool) -> dict:
    """Host fingerprint and code identity recorded with every result."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "cpu_model": cpu,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "trace": trace,
    }


def setup_times(workload: str, seed: int, probes: int, host: HostSpeed) -> list[float]:
    """Set-up CPU time of ``probes`` fresh processes: each runs
    ``run.py --setup-only`` and reports, once its first timed op could
    start, the CPU seconds it has used since it started.  The host-speed
    kernel runs before each probe."""
    times = []
    for _ in range(probes):
        host.sample()
        proc = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--workload",
                workload,
                "--seed",
                str(seed),
                "--setup-only",
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            word, _, cpu_s = proc.stdout.readline().partition(" ")
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if word != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed ({code})")
        times.append(float(cpu_s))
    return times


def metric_table(metrics: dict[str, float], units: dict[str, str]) -> str:
    """Metrics as an aligned text table, one per line with its unit."""
    width = max(len(name) for name in metrics)
    return "\n".join(
        f"  {name:<{width}}  {value:>14.6g} {units.get(name, '')}"
        for name, value in metrics.items()
    )


def batch_layers(
    spans,
    counts: dict[str, float],
    *,
    traced_s: list[float],
    untraced_s: list[float],
    configs: int,
    extra: dict[str, float],
) -> tuple[dict[str, float], float]:
    """Per-layer metrics of a batch workload, per traced op.

    ``spans`` hold only traced ops and what ran inside them, so every
    span's self time belongs to exactly one op.  Returns the metrics
    and the reconciliation error: |sum of all self times - sum of op
    walls| in ms, which is float rounding when attribution is complete.
    """
    from spans import layer_totals

    n = len(traced_s)
    totals = {layer: acc for (layer, _k), acc in layer_totals(spans).items()}
    out = {name: 0.0 for name, _unit in PER_LAYER}
    for layer in _LAYER_TIMES:
        self_s, calls, _amount = totals.get(layer, (0.0, 0, 0))
        out[f"{layer}_ms"] = ms(self_s) / n
        out[f"{layer}.calls"] = calls / n
    out["core.pmt.builds"] = counts.get("core.pmt.builds", 0.0) / n
    out["core.pmt.redundant_builds"] = counts.get("core.pmt.redundant", 0.0) / n
    rows = counts.get("simmpi.rows", 0.0)
    out["simmpi.rows"] = rows / n
    out["simmpi.rows_per_config"] = rows / (configs * n)
    sim_s = totals.get("simmpi.simulate", (0.0,))[0]
    out["simmpi.rank_iters_per_s"] = (
        counts.get("simmpi.rank_iters", 0.0) / sim_s if sim_s else 0.0
    )
    out["exec.cache.hits"] = counts.get("exec.cache.hits", 0.0) / n
    out["exec.engine.groups"] = out["exec.engine.group.calls"]
    out.update(extra)
    out["op_wall_ms"] = ms(sum(traced_s)) / n
    out["unattributed_ms"] = ms(totals.get("op", (0.0,))[0]) / n
    out["telemetry.trace_overhead_frac"] = (
        percentile(traced_s, 50) / percentile(untraced_s, 50) - 1.0
    )
    covered = sum(acc[0] for acc in totals.values())
    op_walls = sum(t1 - t0 for layer, _k, t0, t1, _s, _a in spans if layer == "op")
    return out, abs(ms(covered) - ms(op_walls))
