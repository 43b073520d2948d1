"""Cross-process sharded execution of the batched ``(n_configs, n_ranks)`` plane.

The thread-sharded executor (:func:`~repro.simmpi.fastpath.run_fast_sharded`)
runs one row block at a time and parallelises only the column tiles
inside it — per-tile Python dispatch and the GIL cap how much of a
multi-socket box one process can use.  This module is the next scale
step (ROADMAP "cross-process sharding"): the plane itself is exported as
a named POSIX shared-memory segment and a persistent pool of worker
*processes* executes :class:`~repro.simmpi.sharding.ShardPlan` row
blocks in-place on attached views.

Why row blocks are the right unit: config rows never interact
(ARCHITECTURE.md invariant 7), so the invariant-8 superstep reduction —
partial row maxima combined by ``np.max`` and ANDed detector verdicts —
closes *within* a row block.  A worker therefore runs the exact same
fused tile passes the thread-sharded executor runs for that block, with
zero per-superstep IPC, and the only cross-process protocol is the
shared plane itself: the parent owns the segment (creates, unlinks),
writes the rates plane once, and each worker writes the four trace
accumulators for its disjoint row range.  Traces assembled from the
plane are bit-identical to the unsharded and thread-sharded paths —
ARCHITECTURE.md invariant 9, proven adversarially by
``tests/simmpi/test_procshard_differential.py``.

Lifecycle robustness: the pool is created lazily and reused across
runs; a worker death (:class:`BrokenProcessPool`), a stuck worker
(``REPRO_PROCSHARD_TIMEOUT_S``, default 900 s), or any other dispatch
failure tears the pool down, destroys the segment, and falls back to
in-process thread sharding — the caller sees correct results either
way, and the segment is unlinked on every path so ``/dev/shm`` never
leaks (leak-checked by ``tests/simmpi/conftest.py``).  Per-block wall
times measured inside the workers are recorded into the *parent's*
telemetry collector as backdated spans (``sim.procshard.block``).
"""

from __future__ import annotations

import atexit
import gc
import os
import pickle
import signal
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass, replace
from multiprocessing import get_context, parent_process, shared_memory
from time import perf_counter

import numpy as np

import repro.telemetry as telemetry
from repro.errors import ConfigurationError
from repro.simmpi.sharding import ShardPlan, plan_shards
from repro.simmpi.tracing import RankTrace
from repro.util.shm import attach_block
from repro.util.topology import NumaTopology, cpu_budget

__all__ = [
    "SharedPlane",
    "export_plane",
    "export_plane_split",
    "attach_plane",
    "destroy_plane",
    "run_fast_procshard",
    "reset_pool",
]

#: Segment layout, in plane order: the read-only input plane, then the
#: four trace accumulators workers fill (the
#: :class:`~repro.simmpi.machine.BatchedBspMachine` state fields), then
#: the pickled :class:`~repro.simmpi.fastpath.BspProgram` bytes.
_PLANE_FIELDS = ("rates", "clock", "compute", "wait", "comm")

#: Wall-clock budget for one pooled run before falling back in-process.
_TIMEOUT_ENV = "REPRO_PROCSHARD_TIMEOUT_S"
_DEFAULT_TIMEOUT_S = 900.0

#: Test-only fault hook, read inside the worker: ``"kill"`` SIGKILLs the
#: worker mid-block (exercises the BrokenProcessPool fallback), ``"hang"``
#: sleeps past any timeout (exercises the timeout fallback).
_FAULT_ENV = "REPRO_PROCSHARD_FAULT"

#: Worker pinning override: ``"1"`` forces :func:`os.sched_setaffinity`
#: pinning in the pool initializer, ``"0"`` disables it.  Default: pin
#: whenever the platform supports it.  Placement only — results are
#: bit-identical either way (ARCHITECTURE.md invariant 11).
_PIN_ENV = "REPRO_PROCSHARD_PIN"


def _timeout_s() -> float:
    raw = os.environ.get(_TIMEOUT_ENV)
    if raw is None:
        return _DEFAULT_TIMEOUT_S
    try:
        timeout = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{_TIMEOUT_ENV} must be a positive number of seconds; got {raw!r}"
        ) from None
    if timeout <= 0:
        raise ConfigurationError(
            f"{_TIMEOUT_ENV} must be a positive number of seconds; got {raw!r}"
        )
    return timeout


def _pin_default() -> bool:
    raw = os.environ.get(_PIN_ENV)
    if raw is None:
        return hasattr(os, "sched_setaffinity")
    if raw not in ("0", "1"):
        raise ConfigurationError(f"{_PIN_ENV} must be '0' or '1'; got {raw!r}")
    return raw == "1"


@dataclass(frozen=True)
class SharedPlane:
    """Picklable handle for one exported ``(n_configs, n_ranks)`` plane.

    Ownership contract (invariant 9): the exporting process owns the
    segment — it creates it, is the only writer of the ``rates`` plane
    and the program bytes, and must eventually call
    :func:`destroy_plane`.  Workers attach read-only to ``rates``, and
    each writes only its assigned row range of the four output planes.

    A handle may describe a *segment* of a larger plane
    (:func:`export_plane_split`): ``row0`` is the segment's global
    config-row offset and ``n_configs`` the rows it holds, so workers
    translate the plan's global row ranges to segment-local ones.
    ``group`` ties the segments of one run together — the worker-side
    attach cache evicts by group, not by name, so a worker serving two
    node-local segments of the same run keeps both mapped.
    """

    shm_name: str
    n_configs: int
    n_ranks: int
    prog_len: int
    row0: int = 0
    group: str = ""

    @property
    def plane_bytes(self) -> int:
        """Bytes of one ``(n_configs, n_ranks)`` float64 plane."""
        return self.n_configs * self.n_ranks * np.dtype(np.float64).itemsize


def _plane_view(
    shm: shared_memory.SharedMemory, handle: SharedPlane, index: int
) -> np.ndarray:
    return np.ndarray(
        (handle.n_configs, handle.n_ranks),
        dtype=np.float64,
        buffer=shm.buf,
        offset=index * handle.plane_bytes,
    )


#: Exporter-side open segments: name -> (mapping, creator pid).  The pid
#: keeps a fork-inherited copy of this registry from unlinking segments
#: the child never owned.
_OWNED: dict[str, tuple[shared_memory.SharedMemory, int]] = {}

#: Worker-side attachments: one (mapping, rates, outputs, program,
#: group) per segment name.  Every run exports a fresh segment group, so
#: stale entries are evicted as soon as a segment of a newer group
#: attaches — same-group siblings (node-local segments of one run) stay
#: mapped together.
_ATTACHED: dict[
    str,
    tuple[
        shared_memory.SharedMemory, np.ndarray, dict[str, np.ndarray], object, str
    ],
] = {}

#: Monotonic per-process sequence for segment-group ids.
_GROUP_SEQ = 0


def _next_group() -> str:
    global _GROUP_SEQ
    _GROUP_SEQ += 1
    return f"{os.getpid()}.{_GROUP_SEQ}"


def _export_segment(
    rows: np.ndarray, blob: bytes, row0: int, group: str
) -> SharedPlane:
    plane = rows.shape[0] * rows.shape[1] * np.dtype(np.float64).itemsize
    shm = shared_memory.SharedMemory(
        create=True, size=len(_PLANE_FIELDS) * plane + len(blob)
    )
    try:
        handle = SharedPlane(
            shm_name=shm.name,
            n_configs=int(rows.shape[0]),
            n_ranks=int(rows.shape[1]),
            prog_len=len(blob),
            row0=int(row0),
            group=group,
        )
        np.copyto(_plane_view(shm, handle, 0), rows)
        shm.buf[len(_PLANE_FIELDS) * plane:len(_PLANE_FIELDS) * plane + len(blob)] = blob
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    _OWNED[handle.shm_name] = (shm, os.getpid())
    return handle


def _validated_rates(rates: np.ndarray) -> np.ndarray:
    r = np.ascontiguousarray(rates, dtype=np.float64)
    if r.ndim != 2 or r.size == 0:
        raise ConfigurationError(
            f"rates must be a non-empty (n_configs, n_ranks) array; got {r.shape}"
        )
    return r


def export_plane(rates: np.ndarray, program) -> SharedPlane:
    """Export a rates plane plus its program as one shared segment.

    The four output planes start zero-filled (fresh POSIX segments are
    zero pages) and are populated by the workers; the parent reads them
    back through :func:`plane_views` once the pool has drained.
    """
    r = _validated_rates(rates)
    blob = pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
    return _export_segment(r, blob, 0, _next_group())


def export_plane_split(
    rates: np.ndarray, program, row_bounds: tuple[int, ...] | None = None
) -> tuple[SharedPlane, ...]:
    """Export one plane as per-node row segments sharing a group.

    ``row_bounds`` are global config-row edges ``(0, …, n_configs)``;
    each ``[row_bounds[i], row_bounds[i+1])`` range becomes its own
    self-contained segment (rates rows + zeroed outputs + program blob),
    so workers bound to a NUMA node fault node-local pages only.  With
    ``None`` (or two bounds) this is exactly :func:`export_plane` in a
    one-element tuple.  Splitting is placement only: traces assembled
    from the segments are bit-identical to the single-segment path
    (invariant 11).
    """
    r = _validated_rates(rates)
    if row_bounds is None:
        row_bounds = (0, r.shape[0])
    b = tuple(int(x) for x in row_bounds)
    if (
        len(b) < 2
        or b[0] != 0
        or b[-1] != r.shape[0]
        or any(b[i] >= b[i + 1] for i in range(len(b) - 1))
    ):
        raise ConfigurationError(
            f"row_bounds must run 0..{r.shape[0]} strictly increasing; got {b}"
        )
    blob = pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
    group = _next_group()
    handles: list[SharedPlane] = []
    try:
        for b0, b1 in zip(b, b[1:]):
            handles.append(_export_segment(r[b0:b1], blob, b0, group))
    except BaseException:
        for h in handles:
            destroy_plane(h)
        raise
    return tuple(handles)


def plane_views(handle: SharedPlane) -> dict[str, np.ndarray]:
    """The exporter's views of every plane (rates + the four outputs)."""
    owned = _OWNED.get(handle.shm_name)
    if owned is None:
        raise ConfigurationError(
            f"plane {handle.shm_name!r} is not owned by this process"
        )
    shm = owned[0]
    return {
        field: _plane_view(shm, handle, i)
        for i, field in enumerate(_PLANE_FIELDS)
    }


def attach_plane(
    handle: SharedPlane,
) -> tuple[np.ndarray, dict[str, np.ndarray], object]:
    """Worker-side attach: (read-only rates, writable outputs, program).

    Cached per segment name — a worker executing several row blocks of
    one segment maps and unpickles once.  Eviction is by *group*:
    segments of older runs go on the first attach of a newer group,
    while same-group siblings (the node-local segments of one split
    plane) coexist in the cache.
    """
    cached = _ATTACHED.get(handle.shm_name)
    if cached is not None:
        return cached[1], cached[2], cached[3]
    shm = attach_block(handle.shm_name)
    rates = _plane_view(shm, handle, 0)
    rates.flags.writeable = False
    outs = {
        field: _plane_view(shm, handle, i)
        for i, field in enumerate(_PLANE_FIELDS)
        if field != "rates"
    }
    base = len(_PLANE_FIELDS) * handle.plane_bytes
    program = pickle.loads(bytes(shm.buf[base:base + handle.prog_len]))
    stale = [
        name for name, entry in _ATTACHED.items() if entry[4] != handle.group
    ]
    while stale:
        old_shm, old_rates, old_outs, old_prog, _old_group = _ATTACHED.pop(
            stale.pop()
        )
        del old_rates, old_outs, old_prog
        gc.collect()
        try:
            old_shm.close()
        except BufferError:  # a view escaped; GC will finish the close
            pass
    _ATTACHED[handle.shm_name] = (shm, rates, outs, program, handle.group)
    return rates, outs, program


def destroy_plane(handle: SharedPlane) -> None:
    """Release the exporter's mapping and unlink the segment.

    Safe while workers still hold mappings (POSIX keeps them valid);
    new attaches fail afterwards, which is the point.  Idempotent.
    """
    owned = _OWNED.pop(handle.shm_name, None)
    if owned is None:
        return
    shm = owned[0]
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # already unlinked (double destroy)
        pass


# -- the worker side -----------------------------------------------------------

#: Worker-process-local thread pool for column tiles, sized on demand.
_W_POOL: ThreadPoolExecutor | None = None
_W_POOL_WIDTH = 0


def _worker_thread_pool(threads: int) -> ThreadPoolExecutor | None:
    global _W_POOL, _W_POOL_WIDTH
    if threads <= 1:
        return None
    if _W_POOL is None or _W_POOL_WIDTH < threads:
        if _W_POOL is not None:
            _W_POOL.shutdown(wait=True)
        _W_POOL = ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="repro-procshard"
        )
        _W_POOL_WIDTH = threads
    return _W_POOL


def _worker_init(pin_q=None) -> None:
    """Pool-process initializer.

    A forked worker inherits the parent's telemetry collector and
    shared-memory registries; recording into the former would be lost
    (and could contend on inherited locks), and the latter describe
    segments this process does not own.  Drop both.

    With ``pin_q`` (a queue holding one :class:`~repro.util.topology`
    CPU slice per worker) the worker pins itself to its slice — but only
    to CPUs inside its *inherited* affinity mask, so a worker forked
    from an engine pool that was itself pinned stays within the parent's
    grant rather than escaping it.  An empty intersection (or a platform
    without affinity support) skips pinning entirely: placement may
    never fail a run.
    """
    telemetry.disable()
    _OWNED.clear()
    _ATTACHED.clear()
    if pin_q is None:
        return
    try:
        cpus = tuple(pin_q.get(timeout=10.0))
        allowed = set(os.sched_getaffinity(0))
    except Exception:  # queue drained / no affinity support
        return
    target = set(cpus) & allowed
    if target:
        try:
            os.sched_setaffinity(0, target)
        except OSError:  # pragma: no cover - mask raced with a cgroup change
            pass


def _current_cpu() -> int:
    """The CPU this process is executing on (``-1`` when unknowable).

    Field 39 of ``/proc/self/stat`` — split after the last ``)`` so a
    process name containing spaces or parentheses cannot shift fields.
    """
    try:
        with open("/proc/self/stat", "rb") as f:
            stat = f.read().decode("ascii", "replace")
        return int(stat.rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):  # pragma: no cover - non-Linux
        return -1


def _run_block(
    handle: SharedPlane,
    latency_s: float,
    bandwidth_gbps: float,
    col_bounds: tuple[int, ...],
    r0: int,
    r1: int,
    threads: int,
) -> tuple[int, int, float, int, int]:
    """Execute global rows ``[r0, r1)`` in-place on the attached segment.

    This is byte-for-byte the per-row-block body of
    ``run_fast_sharded``: a machine over the block's rates rows, the
    fused tile passes over the plan's column tiles, then the four
    accumulators written into the output planes.  The handle may be a
    node-local segment of a split plane, so global rows are translated
    by ``handle.row0`` before indexing.  Returns ``(r0, r1, wall_s, pid,
    cpu)`` for the parent's backdated telemetry spans and placement
    gauges.
    """
    fault = os.environ.get(_FAULT_ENV)
    if fault == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif fault == "hang":
        time.sleep(3600.0)
    t0 = perf_counter()
    from repro.simmpi import fastpath

    rates, outs, program = attach_plane(handle)
    lr0, lr1 = r0 - handle.row0, r1 - handle.row0
    machine = fastpath.BatchedBspMachine(
        rates[lr0:lr1], latency_s=latency_s, bandwidth_gbps=bandwidth_gbps
    )
    tiles = tuple(
        (col_bounds[i], col_bounds[i + 1]) for i in range(len(col_bounds) - 1)
    )
    fastpath._exec_ops_sharded(
        fastpath._ShardedExec(machine, tiles, _worker_thread_pool(threads)),
        program.ops,
    )
    outs["clock"][lr0:lr1] = machine.clock_s
    outs["compute"][lr0:lr1] = machine._compute_s
    outs["wait"][lr0:lr1] = machine._wait_s
    outs["comm"][lr0:lr1] = machine._comm_s
    return r0, r1, perf_counter() - t0, os.getpid(), _current_cpu()


# -- the parent side -----------------------------------------------------------

#: The persistent worker-process pool, grown (never shrunk) on demand.
_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0
_POOL_PINNED = False
#: The pool's outstanding :class:`~repro.util.topology.CpuLease`, held
#: for the pool's lifetime so composed engine pools see these cores as
#: claimed in the process-wide budget.
_POOL_LEASE = None
#: Last CPU each worker pid was observed on (parent side), for the
#: ``sim.procshard.migrations`` counter.
_LAST_CPU: dict[int, int] = {}


def _get_pool(n_workers: int, pin: bool = False) -> ProcessPoolExecutor:
    global _POOL, _POOL_WORKERS, _POOL_PINNED, _POOL_LEASE
    if (
        _POOL is not None
        and _POOL_WORKERS >= n_workers
        and _POOL_PINNED == pin
    ):
        return _POOL
    reset_pool()
    try:
        ctx = get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        ctx = get_context()
    initargs: tuple = ()
    if pin:
        # Claim node-aware CPU slices from the process-wide ledger and
        # ship one to each worker through a queue consumed exactly once
        # per initializer run.
        _POOL_LEASE = cpu_budget().claim(n_workers, label="procshard")
        pin_q = ctx.Queue()
        for s in _POOL_LEASE.slices:
            pin_q.put(tuple(s))
        initargs = (pin_q,)
    _POOL = ProcessPoolExecutor(
        max_workers=n_workers,
        mp_context=ctx,
        initializer=_worker_init,
        initargs=initargs,
    )
    _POOL_WORKERS = n_workers
    _POOL_PINNED = pin
    return _POOL


def reset_pool() -> None:
    """Tear the worker pool down (it is rebuilt lazily on next use).

    Called on every fallback so a broken or wedged pool cannot poison
    later runs; hung workers are terminated best-effort rather than
    waited on.  Releases the pool's CPU lease back to the budget.
    """
    global _POOL, _POOL_WORKERS, _POOL_PINNED, _POOL_LEASE
    if _POOL_LEASE is not None:
        cpu_budget().release(_POOL_LEASE)
        _POOL_LEASE = None
    _POOL_PINNED = False
    _LAST_CPU.clear()
    if _POOL is None:
        return
    pool, _POOL, _POOL_WORKERS = _POOL, None, 0
    # Snapshot before shutdown(): the executor drops its _processes
    # reference there, and a wedged worker must still be terminated so
    # neither it nor the executor's management thread outlives us.
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.terminate()
        except Exception:  # already dead / already reaped
            pass


@atexit.register
def _cleanup() -> None:
    reset_pool()
    pid = os.getpid()
    for name in [n for n, (_shm, owner) in _OWNED.items() if owner == pid]:
        shm, _owner = _OWNED.pop(name)
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


def _process_layout(plan: ShardPlan) -> tuple[ShardPlan, int, int]:
    """(refined plan, worker processes, threads per worker).

    Row blocks are the distribution unit, so a plan whose config axis
    was never split (the thread executor prefers whole-column tiling) is
    refined to one that gives every worker a block — bit-identical by
    row independence.  Leftover worker budget becomes each worker's
    column-tile thread width.
    """
    workers = max(1, plan.n_workers)
    if plan.n_row_blocks < workers and plan.n_configs > plan.n_row_blocks:
        plan = replace(plan, row_block=max(1, -(-plan.n_configs // workers)))
    n_procs = min(workers, plan.n_row_blocks)
    inner = max(1, workers // n_procs) if plan.n_col_shards > 1 else 1
    return plan, n_procs, inner


def _node_row_bounds(
    plan: ShardPlan, topology: NumaTopology | None
) -> tuple[int, ...]:
    """Global row edges splitting the plane into per-node segments.

    Bounds land only on the plan's row-block edges (a block never
    straddles two segments) and blocks are apportioned to nodes in
    proportion to their CPU counts.  Single-node topologies — and plans
    with a single row block — collapse to ``(0, n_configs)``, i.e. the
    unsplit plane.
    """
    blocks = plan.row_blocks()
    if topology is None or topology.n_nodes <= 1 or len(blocks) < 2:
        return (0, plan.n_configs)
    weights = [node.n_cpus for node in topology.nodes]
    total = sum(weights)
    bounds = [0]
    assigned = 0
    acc = 0
    for i, w in enumerate(weights):
        acc += w
        k = len(blocks) if i == len(weights) - 1 else round(
            len(blocks) * acc / total
        )
        k = max(assigned, min(int(k), len(blocks)))
        if k > assigned:
            bounds.append(blocks[k - 1][1])
            assigned = k
    return tuple(bounds)


def _pooled_traces(
    program,
    r: np.ndarray,
    latency_s: float,
    bandwidth_gbps: float,
    plan: ShardPlan,
    n_procs: int,
    inner_threads: int,
    timeout_s: float,
    topology: NumaTopology | None,
    pin: bool,
) -> list[RankTrace]:
    handles = export_plane_split(r, program, _node_row_bounds(plan, topology))
    try:
        pool = _get_pool(n_procs, pin)

        def _segment_for(row: int) -> SharedPlane:
            for h in handles:
                if h.row0 <= row < h.row0 + h.n_configs:
                    return h
            raise ConfigurationError(  # pragma: no cover - bounds align
                f"row {row} outside every exported segment"
            )

        futures = [
            pool.submit(
                _run_block,
                _segment_for(r0),
                latency_s,
                bandwidth_gbps,
                plan.col_bounds,
                r0,
                r1,
                inner_threads,
            )
            for r0, r1 in plan.row_blocks()
        ]
        deadline = perf_counter() + timeout_s
        results = [
            f.result(timeout=max(0.001, deadline - perf_counter()))
            for f in futures
        ]
        if telemetry.enabled():
            for r0, r1, wall, pid, cpu in results:
                telemetry.record_span(
                    "sim.procshard.block", wall, rows=f"{r0}:{r1}", pid=pid
                )
                if cpu >= 0:
                    telemetry.gauge(f"sim.procshard.worker.cpu[{pid}]", cpu)
                    if topology is not None:
                        telemetry.gauge(
                            f"sim.procshard.worker.node[{pid}]",
                            topology.node_of(cpu),
                        )
                    prev = _LAST_CPU.get(pid)
                    if prev is not None and prev != cpu:
                        telemetry.count("sim.procshard.migrations")
                    _LAST_CPU[pid] = cpu
        traces: list[RankTrace] = []
        for h in sorted(handles, key=lambda h: h.row0):
            views = plane_views(h)
            traces.extend(
                RankTrace(
                    total_s=views["clock"][c].copy(),
                    compute_s=views["compute"][c].copy(),
                    wait_s=views["wait"][c].copy(),
                    comm_s=views["comm"][c].copy(),
                )
                for c in range(h.n_configs)
            )
        return traces
    finally:
        for h in handles:
            destroy_plane(h)


def run_fast_procshard(
    program,
    rates: np.ndarray,
    *,
    latency_s: float = 5e-6,
    bandwidth_gbps: float = 5.0,
    plan: ShardPlan | None = None,
    pin: bool | None = None,
    topology: NumaTopology | None = None,
) -> list[RankTrace]:
    """Execute ``run_fast_batched``'s contract across worker processes.

    Row blocks of ``plan`` (auto-tuned when ``None``) are dispatched to
    the persistent pool; each worker runs the invariant-8 fused tile
    passes for its block in-place on the shared plane, and the parent
    assembles one :class:`RankTrace` per config row — bit-identical to
    the unsharded and thread-sharded paths (invariant 9).

    Placement: on multi-node topologies the plane is exported as
    node-local segments (:func:`export_plane_split`) and, when ``pin``
    resolves true (default: whenever the platform supports affinity;
    override per-call or via ``REPRO_PROCSHARD_PIN``), workers pin to
    CPU slices claimed from the process-wide
    :func:`~repro.util.topology.cpu_budget`.  ``topology`` defaults to
    the probed machine — a test seam, like ``plan``.  All of it is
    execution layout only (invariant 11).

    Any dispatch failure — a killed worker, a timeout, a pool that
    cannot be built — falls back to in-process thread sharding on the
    same plan, after tearing the pool down and unlinking the segments;
    genuine program errors re-raise from the fallback unchanged.  Calls
    made from inside a multiprocessing child never fork a nested pool at
    all: they degrade to the same in-process path up front (counted as
    ``sim.procshard.nested_fallback``).
    """
    r = np.ascontiguousarray(rates, dtype=float)
    if r.ndim != 2 or r.shape[1] != program.n_ranks:
        raise ConfigurationError(
            f"rates shape {r.shape} != (n_configs, {program.n_ranks})"
        )
    if topology is None:
        topology = cpu_budget().topology
    if plan is None:
        plan = plan_shards(r.shape[0], r.shape[1], topology=topology)
    elif (plan.n_configs, plan.n_ranks) != r.shape:
        raise ConfigurationError(
            f"plan is for a {(plan.n_configs, plan.n_ranks)} plane; "
            f"rates have shape {r.shape}"
        )
    plan, n_procs, inner_threads = _process_layout(plan)
    # Resolved before the fallback guard: a malformed timeout or pin env
    # is a configuration error and must surface, not trigger a silent
    # fallback.
    timeout_s = _timeout_s()
    if pin is None:
        pin = _pin_default()
    if parent_process() is not None:
        # Already inside a multiprocessing child (e.g. an
        # ``ExperimentEngine(jobs>1)`` worker).  Forking a nested pool
        # from here inherits the outer pool's queue-feeder threads and
        # any lock they hold mid-operation — the grandchildren can wedge
        # on a dead futex forever — and would double-book CPUs the outer
        # pool's lease already claimed.  Degrade to in-process thread
        # sharding on the same plan: bit-identical (invariant 9), and
        # the composition stays inside the CPU budget.
        telemetry.count("sim.procshard.nested_fallback")
        from repro.simmpi import fastpath

        return fastpath.run_fast_sharded(
            program, r,
            latency_s=latency_s, bandwidth_gbps=bandwidth_gbps,
            plan=plan, mode="threads",
        )
    with telemetry.span(
        "sim.run_fast_procshard",
        configs=int(r.shape[0]),
        ranks=program.n_ranks,
        row_blocks=plan.n_row_blocks,
        workers=n_procs,
        nodes=topology.n_nodes,
        pinned=int(bool(pin)),
    ):
        try:
            return _pooled_traces(
                program, r, latency_s, bandwidth_gbps,
                plan, n_procs, inner_threads, timeout_s,
                topology, bool(pin),
            )
        except (Exception, _FuturesTimeout) as exc:
            telemetry.count("sim.procshard.fallback")
            telemetry.count(f"sim.procshard.fallback[{type(exc).__name__}]")
            reset_pool()
            from repro.simmpi import fastpath

            return fastpath.run_fast_sharded(
                program, r,
                latency_s=latency_s, bandwidth_gbps=bandwidth_gbps,
                plan=plan, mode="threads",
            )
