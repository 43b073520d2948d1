"""The vectorised bulk-synchronous machine.

:class:`BatchedBspMachine` keeps one virtual clock per MPI rank, for
one or more independent rate configurations at once (a
``(n_configs, n_ranks)`` plane; a single run is a one-row plane).
Compute advances each clock by that rank's own compute time (work
divided by the rank's work rate); communication operations synchronise
clocks (globally or with topological neighbours) and charge the idle gap
to the rank's MPI wait time.  This is exact for bulk-synchronous codes —
which every benchmark in the paper is — and costs O(ranks) per
superstep, so 1,920-rank × hundreds-of-iterations runs are milliseconds.

Semantics of a halo exchange (``sendrecv``): rank *r* may leave the
exchange of superstep *k* once it **and all its neighbours** have
reached it.  Iterating supersteps propagates a slow module's delay
outward one hop per iteration — the wavefront behaviour that makes a
synchronised code's completion time track the globally slowest module
even though each rank only talks to its neighbours.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.simmpi.tracing import RankTrace

__all__ = ["BatchedBspMachine"]


class BatchedBspMachine:
    """Per-rank virtual clocks for many independent configurations.

    State arrays have shape ``(n_configs, n_ranks)``.  Every operation is
    row-independent — config rows never interact — and elementwise (or,
    for the maxima, exact operand selection), so row *c*'s results are
    bit-identical to a one-row machine built from ``rates[c:c+1]``.
    Sweeps exploit this: one batched pass over all budgets replaces
    ``n_configs`` Python-level fleet traversals.

    The whole-width operations (:meth:`advance_local`, :meth:`barrier`,
    :meth:`allreduce`, :meth:`sendrecv`) drive the machine superstep by
    superstep; the column-range operations below them are the tiled
    executor's primitives (:mod:`repro.simmpi.fastpath`), and the
    whole-width syncs are those primitives applied to ``[0, n_ranks)``.

    Parameters
    ----------
    rates:
        ``(n_configs, n_ranks)`` work rates in GHz-equivalents
        (effective frequency × performance bin factor of the module
        hosting the rank).
    latency_s:
        Base cost of one communication operation (software + network
        latency), paid by every participant.
    bandwidth_gbps:
        Link bandwidth used to convert message bytes into transfer time.
    """

    def __init__(
        self,
        rates: np.ndarray,
        *,
        latency_s: float = 5e-6,
        bandwidth_gbps: float = 5.0,
    ):
        r = np.asarray(rates, dtype=float)
        if r.ndim != 2 or r.size == 0:
            raise SimulationError(
                "rates must be a non-empty (n_configs, n_ranks) array"
            )
        if np.any(~np.isfinite(r)) or np.any(r <= 0):
            raise SimulationError("rates must be finite and positive")
        if latency_s < 0 or bandwidth_gbps <= 0:
            raise SimulationError("latency must be >= 0 and bandwidth > 0")
        self.rates = r
        self.latency_s = float(latency_s)
        self.bandwidth_gbps = float(bandwidth_gbps)
        shape = r.shape
        self.clock_s = np.zeros(shape)
        self._compute_s = np.zeros(shape)
        self._wait_s = np.zeros(shape)
        self._comm_s = np.zeros(shape)
        # Whole-width sync scratch (ready, take, wait), reused across
        # supersteps and allocated on the first sync: the tiled executor
        # brings its own per-tile scratch and never needs these.
        self._scratch: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        #: Optional sync observer (duck-typed: ``on_sync(op, clock_s,
        #: wait_s)``), e.g. a telemetry PhaseTimeline, notified after
        #: every whole-width sync with the flattened clock and wait
        #: planes — for a one-row machine, the per-rank vectors.
        #: ``None`` keeps the sync path free of any telemetry cost.
        self.observer = None

    @property
    def n_configs(self) -> int:
        """Number of stacked configurations (rows)."""
        return int(self.rates.shape[0])

    @property
    def n_ranks(self) -> int:
        """Number of ranks per configuration (columns)."""
        return int(self.rates.shape[1])

    def extract_rows(self, keep: np.ndarray) -> "BatchedBspMachine":
        """A new machine holding only the selected config rows (copies;
        the fast path uses this to drop fast-forwarded configs from the
        active set mid-loop)."""
        m = BatchedBspMachine(
            self.rates[keep],
            latency_s=self.latency_s,
            bandwidth_gbps=self.bandwidth_gbps,
        )
        m.write_rows(slice(None), self, keep)
        return m

    def write_rows(
        self,
        rows: np.ndarray,
        sub: "BatchedBspMachine",
        sub_rows: np.ndarray | None = None,
    ) -> None:
        """Copy a sub-machine's state (or a row subset of it) back into
        the given parent rows."""
        sel = slice(None) if sub_rows is None else sub_rows
        self.clock_s[rows] = sub.clock_s[sel]
        self._compute_s[rows] = sub._compute_s[sel]
        self._wait_s[rows] = sub._wait_s[sel]
        self._comm_s[rows] = sub._comm_s[sel]

    # -- whole-width operations -------------------------------------------------

    def advance_local(self, dt_seconds: np.ndarray | float) -> None:
        """Advance every config's ranks by precomputed local time.

        ``dt_seconds`` is the per-rank time of one or more
        communication-free phases, already divided by the rank rates
        (broadcast against the ``(n_configs, n_ranks)`` plane).
        Accounted as compute time.
        """
        dt = np.broadcast_to(
            np.asarray(dt_seconds, dtype=float), self.rates.shape
        )
        if np.any(dt < 0):
            raise SimulationError("local time must be non-negative")
        self.clock_s += dt
        self._compute_s += dt

    def _sync_scratch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._scratch is None:
            self._scratch = tuple(np.empty(self.rates.shape) for _ in range(3))
        return self._scratch

    def barrier(self) -> None:
        """Per-config global synchronisation: every rank waits for the
        slowest rank of its row."""
        self._sync_rows(0.0, "barrier")

    def allreduce(self, message_bytes: float = 8.0) -> None:
        """Per-config synchronising reduction: barrier semantics plus
        :meth:`allreduce_cost`."""
        self._sync_rows(self.allreduce_cost(message_bytes), "allreduce")

    def _sync_rows(self, cost: float, op: str) -> None:
        ready = np.max(self.clock_s, axis=1, keepdims=True)
        self.sync_cols(0, self.n_ranks, ready, cost, self._sync_scratch()[2], op)

    def sendrecv(self, neighbors: np.ndarray, message_bytes: float = 0.0) -> None:
        """Per-config halo exchange on a shared neighbour table.

        ``neighbors`` has shape ``(n_ranks, k)``; entry ``[r, j]`` is the
        j-th partner of rank r.  The exchange completes for rank r when r
        and all partners have entered it.  ``message_bytes`` is the halo
        size *per neighbour*; each rank pays one latency plus k
        transfers.
        """
        nb = self.check_neighbors(neighbors)
        ready, take, wait = self._sync_scratch()
        n = self.n_ranks
        self.gather_ready_cols(0, n, nb, ready, (ready, take))
        self.sync_cols(
            0, n, ready, self.sendrecv_cost(nb.shape[1], message_bytes), wait,
            "sendrecv",
        )

    # -- communication costs and validation --------------------------------------

    def allreduce_cost(self, message_bytes: float) -> float:
        """A reduce-then-broadcast binary tree: ⌈log₂ P⌉ latency hops
        each way plus two payload traversals."""
        hops = max(1, int(np.ceil(np.log2(max(self.n_ranks, 2)))))
        return 2 * (
            hops * self.latency_s + message_bytes / (self.bandwidth_gbps * 1e9)
        )

    def sendrecv_cost(self, k: int, message_bytes: float) -> float:
        """One latency plus ``k`` per-neighbour payload transfers."""
        return self.latency_s + message_bytes * k / (self.bandwidth_gbps * 1e9)

    def check_neighbors(self, neighbors: np.ndarray) -> np.ndarray:
        """``neighbors`` as an array, validated as an ``(n_ranks, k)``
        table of in-range rank indices."""
        nb = np.asarray(neighbors)
        if nb.ndim != 2 or nb.shape[0] != self.n_ranks:
            raise SimulationError(
                f"neighbors must have shape (n_ranks, k); got {nb.shape}"
            )
        if nb.size and (nb.min() < 0 or nb.max() >= self.n_ranks):
            raise SimulationError("neighbor indices out of range")
        return nb

    # -- column-range operations (the tiled executor's primitives) ---------------
    #
    # Each method below acts on the column range [a, b) only.  Every
    # update is elementwise (or, for the maxima, exact operand
    # selection), so applying an operation on each tile of any column
    # partition is bit-identical to applying it once on [0, n_ranks) —
    # the invariant the tiled executor in :mod:`repro.simmpi.fastpath` is
    # built on.  Tiles never overlap, so concurrent calls on disjoint
    # ranges are race-free.

    def advance_cols(self, a: int, b: int, dt: np.ndarray) -> None:
        """:meth:`advance_local` on columns ``[a, b)``.

        ``dt`` is the caller's cached ``(n_configs, b - a)`` local-time
        tile, validated non-negative when the cache was built.
        """
        self.clock_s[:, a:b] += dt
        self._compute_s[:, a:b] += dt

    def rowmax_cols(self, a: int, b: int, out: np.ndarray) -> None:
        """Per-row clock maximum over columns ``[a, b)`` — one tile's
        contribution to the barrier/allreduce ready value.  Max is exact
        operand selection, so the max of these partials equals the
        full-row max bit for bit."""
        np.max(self.clock_s[:, a:b], axis=1, out=out)

    def gather_ready_cols(
        self,
        a: int,
        b: int,
        nb: np.ndarray,
        out: np.ndarray,
        scratch: tuple[np.ndarray, np.ndarray],
    ) -> None:
        """:meth:`sendrecv`'s ready-value gather for columns ``[a, b)``.

        Reads the *whole* clock plane (neighbours live in other tiles),
        writes only ``out`` (which may alias ``scratch[0]``) — callers
        must not mutate clocks anywhere while a gather pass is in
        flight.  Partner-at-a-time maxima into ``(n_configs, b - a)``
        scratch instead of one ``(n_configs, b - a, k)`` fancy-indexed
        temporary: max is exact operand selection, so the accumulation
        order cannot change the result.
        """
        g, h = scratch
        np.take(self.clock_s, nb[a:b, 0], axis=1, out=g)
        for j in range(1, nb.shape[1]):
            np.take(self.clock_s, nb[a:b, j], axis=1, out=h)
            np.maximum(g, h, out=g)
        np.maximum(self.clock_s[:, a:b], g, out=out)

    def sync_cols(
        self,
        a: int,
        b: int,
        ready_s: np.ndarray,
        transfer_cost_s: float,
        wait_scratch: np.ndarray,
        op: str,
    ) -> None:
        """Finish a sync on columns ``[a, b)``: charge the gap to
        ``ready_s`` as wait time, pay the transfer cost, and move the
        clocks.  ``ready_s`` is either the ``(n_configs, 1)`` row-ready
        vector (barrier/allreduce) or the tile's slice of a full gathered
        ready plane (sendrecv).  A whole-width call notifies the
        :attr:`observer`."""
        cl = self.clock_s[:, a:b]
        np.subtract(ready_s, cl, out=wait_scratch)
        self._wait_s[:, a:b] += wait_scratch
        self._comm_s[:, a:b] += transfer_cost_s
        np.add(ready_s, transfer_cost_s, out=cl)
        if self.observer is not None and b - a == self.n_ranks:
            self.observer.on_sync(op, self.clock_s.ravel(), wait_scratch.ravel())

    def snapshot_cols(
        self, a: int, b: int, out: tuple[np.ndarray, ...]
    ) -> None:
        """Copy the four accumulators' columns ``[a, b)`` into
        machine-shaped snapshot buffers."""
        np.copyto(out[0][:, a:b], self.clock_s[:, a:b])
        np.copyto(out[1][:, a:b], self._compute_s[:, a:b])
        np.copyto(out[2][:, a:b], self._wait_s[:, a:b])
        np.copyto(out[3][:, a:b], self._comm_s[:, a:b])

    def delta_cols(
        self,
        a: int,
        b: int,
        earlier: tuple[np.ndarray, ...],
        out: tuple[np.ndarray, ...],
    ) -> None:
        """Per-element increments since the ``earlier`` snapshot, on
        columns ``[a, b)`` of machine-shaped buffers."""
        np.subtract(self.clock_s[:, a:b], earlier[0][:, a:b], out=out[0][:, a:b])
        np.subtract(
            self._compute_s[:, a:b], earlier[1][:, a:b], out=out[1][:, a:b]
        )
        np.subtract(self._wait_s[:, a:b], earlier[2][:, a:b], out=out[2][:, a:b])
        np.subtract(self._comm_s[:, a:b], earlier[3][:, a:b], out=out[3][:, a:b])

    def fast_forward_rows_cols(
        self,
        a: int,
        b: int,
        rows: np.ndarray,
        delta: tuple[np.ndarray, ...],
        repeats: int,
        scratch: np.ndarray,
        whole: bool,
    ) -> None:
        """Apply ``repeats`` per-iteration increments to the selected
        config rows on columns ``[a, b)``: per element the multiply-add
        ``a + repeats * d``.  ``delta`` arrays are machine-shaped;
        ``whole`` precomputes ``rows.all()`` once for all tiles (the
        whole batch retires: same multiply-add, without the masked
        copies), ``scratch`` is a tile-shaped multiply buffer."""
        if repeats <= 0:
            return
        arrays = (self.clock_s, self._compute_s, self._wait_s, self._comm_s)
        if whole:
            for arr, d in zip(arrays, delta):
                arr[:, a:b] += np.multiply(d[:, a:b], repeats, out=scratch)
            return
        for arr, d in zip(arrays, delta):
            arr[rows, a:b] += repeats * d[rows, a:b]

    # -- results ---------------------------------------------------------------

    def traces(self) -> list[RankTrace]:
        """One :class:`RankTrace` per configuration row (copies)."""
        return [
            RankTrace(
                total_s=self.clock_s[c].copy(),
                compute_s=self._compute_s[c].copy(),
                wait_s=self._wait_s[c].copy(),
                comm_s=self._comm_s[c].copy(),
            )
            for c in range(self.n_configs)
        ]
