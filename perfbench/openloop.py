"""Open-loop load for the allocation daemon, from one asyncio process.

Requests arrive on a seeded Poisson schedule with a fixed mix of op
classes, whether or not earlier replies are back: each is written to
its connection when due (the NDJSON protocol answers in request order
per connection, so requests pipeline) and timed from its due time to
the arrival of its reply line, so a stall also counts against every
request queued behind it.  The generator records how late it sent each
request; a phase in which it ran late by more than
:data:`LATENESS_BOUND_MS` at p99 is invalid.

Reply lines are decoded (``repro.service.api.decode_reply``, the client
codec) after the phase: the generator stands in for many independent
clients, and decoding a 256-budget plan reply inside its single event
loop would hold back the timestamps of every other reply.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass

import numpy as np

from metrics import percentile
from spans import clock

# The traffic below is a synthetic assumption: no request log or trace
# of a resource manager calling the daemon backs it.  The 90/5/5 mix is
# the benchmark's design choice; budgets are drawn uniformly over the
# per-module range Cm = 60-110 W the paper's experiments span; the job
# counts and sizes are invented to keep a handful of jobs resident on
# the 100,000-module fleet.  Until measured traffic exists, read the
# serve-mixed numbers as the cost of this mix, not of a real one.

#: Op-class shares of the mix: 1-budget allocate, 256-budget allocate,
#: membership change.
MIX = (("read", 0.90), ("plan", 0.05), ("write", 0.05))

#: p99 of (send time - due time) above which a phase is invalid: then
#: the generator, not the daemon, set the pace.  Latency is timed from
#: the due time, so lateness below the bound still counts against the
#: daemon's numbers rather than hiding from them.
LATENESS_BOUND_MS = 20.0

#: How long a phase waits for its last reply before counting the
#: missing ones as failed.
REPLY_TIMEOUT_S = 30.0

PLAN_BUDGETS = 256
SCHEME = "vafs"
APP = "bt"
#: Per-module budget range (W) of reads, plans and budget updates.
CM_RANGE_W = (60.0, 110.0)
#: Jobs admitted before timing starts, and their size in modules;
#: writes cycle admit -> set-budget -> depart on top of them, admitting
#: jobs of ADMIT_MODULES (uniform, end exclusive).
RESIDENT_JOBS = 4
RESIDENT_MODULES = 10_000
ADMIT_MODULES = (2_000, 12_000)


def make_schedule(
    seed: int, rate_per_s: float, duration_s: float
) -> list[tuple[float, str]]:
    """(due offset in s, op class) pairs: Poisson arrivals at
    ``rate_per_s`` over ``duration_s``, classes drawn from :data:`MIX`.
    The same seed gives the same schedule."""
    rng = np.random.default_rng(
        [seed, int(rate_per_s * 1000), int(duration_s * 1000)]
    )
    n = int(rate_per_s * duration_s * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate_per_s, size=n))
    offsets = offsets[offsets < duration_s]
    names = [name for name, _p in MIX]
    kinds = rng.choice(len(names), size=offsets.size, p=[p for _n, p in MIX])
    return [(float(t), names[k]) for t, k in zip(offsets, kinds)]


class RequestMaker:
    """Turns op classes into typed requests, deterministically per seed.

    Writes form one global cycle (admit a new job, set the fleet budget,
    depart the job admitted two writes earlier), so the fleet always
    holds :data:`RESIDENT_JOBS` or one more jobs.
    """

    def __init__(self, seed: int, fleet_id: str, n_modules: int):
        from repro.service import api

        self._api = api
        self.fleet_id = fleet_id
        self.n_modules = n_modules
        self._rng = np.random.default_rng([seed, 7])
        self._writes = 0

    def resident(self) -> list[tuple[str, object]]:
        request = self._api.JobAdmitRequest
        return [
            ("admit", request(self.fleet_id, f"resident-{j}", RESIDENT_MODULES))
            for j in range(RESIDENT_JOBS)
        ]

    def make(self, kind: str) -> tuple[str, object]:
        api, rng, n = self._api, self._rng, self.n_modules
        if kind == "read":
            return "allocate", api.AllocationRequest.build(
                fleet_id=self.fleet_id,
                app=APP,
                scheme=SCHEME,
                budgets_w=[n * float(rng.uniform(*CM_RANGE_W))],
            )
        if kind == "plan":
            cm = np.sort(rng.uniform(*CM_RANGE_W, size=PLAN_BUDGETS))
            return "allocate", api.AllocationRequest.build(
                fleet_id=self.fleet_id, app=APP, scheme=SCHEME, budgets_w=n * cm
            )
        w = self._writes
        self._writes += 1
        step = w % 3
        if step == 0:
            size = int(rng.integers(*ADMIT_MODULES))
            return "admit", api.JobAdmitRequest(self.fleet_id, f"job-{w}", size)
        if step == 1:
            return "set-budget", api.BudgetUpdateRequest(
                fleet_id=self.fleet_id,
                budget_w=n * float(rng.uniform(*CM_RANGE_W)),
                app=APP,
                scheme=SCHEME,
            )
        return "depart", api.JobDepartRequest(self.fleet_id, f"job-{w - 2}")


@dataclass(repr=False)
class Sent:
    """One request of a phase and what became of it."""

    kind: str
    op: str
    payload: object
    conn: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    line: bytes = b""
    reply: object = None
    error: str = ""

    @property
    def latency_s(self) -> float:
        """Time from when the request was due to its reply's arrival."""
        return self.done - self.due

    @property
    def round_trip_s(self) -> float:
        return self.done - self.sent


@dataclass
class Phase:
    """A finished phase: its requests and when it started (monotonic)."""

    start: float
    requests: list[Sent]

    def of(self, kind: str) -> list[Sent]:
        return [r for r in self.requests if r.kind == kind]

    def lateness_ms(self, q: float) -> float:
        return percentile([(r.sent - r.due) * 1e3 for r in self.requests], q)


class Connections:
    """``n`` pipelined NDJSON connections to the daemon's unix socket."""

    def __init__(self, path: str, n: int):
        self.path = path
        self.n = n
        self.readers: list[asyncio.StreamReader] = []
        self.writers: list[asyncio.StreamWriter] = []

    async def open(self) -> None:
        for _ in range(self.n):
            r, w = await asyncio.open_unix_connection(self.path, limit=1 << 24)
            self.readers.append(r)
            self.writers.append(w)

    async def close(self) -> None:
        for w in self.writers:
            w.close()
        for w in self.writers:
            try:
                await w.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


async def run_phase(
    conns: Connections,
    schedule: list[tuple[float, str]],
    maker: RequestMaker,
) -> Phase:
    """Send ``schedule`` open-loop and collect every reply.

    Writes go to connection 0 so the daemon applies them in schedule
    order; reads and plans alternate over all connections.
    """
    from repro.service import api

    requests = []
    for i, (offset, kind) in enumerate(schedule):
        op, payload = maker.make(kind)
        conn = 0 if kind == "write" else i % conns.n
        requests.append(Sent(kind, op, payload, conn, due=offset))
    queues: list[deque[Sent]] = [deque() for _ in range(conns.n)]
    remaining = len(requests)
    all_done = asyncio.Event()
    if not requests:
        all_done.set()

    async def read_replies(c: int) -> None:
        nonlocal remaining
        reader = conns.readers[c]
        while True:
            line = await reader.readline()
            if not line:
                return
            req = queues[c].popleft()
            req.done = clock()
            req.line = line
            remaining -= 1
            if remaining == 0:
                all_done.set()

    readers = [asyncio.create_task(read_replies(c)) for c in range(conns.n)]
    start = clock() + 0.005
    for req in requests:
        req.due += start
    try:
        for req in requests:
            delay = req.due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            req.sent = clock()
            queues[req.conn].append(req)
            conns.writers[req.conn].write(api.encode_request(req.op, req.payload))
        for w in conns.writers:
            await w.drain()
        try:
            await asyncio.wait_for(all_done.wait(), REPLY_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
    for req in requests:
        if req.done == 0.0:
            req.error = "no reply"
            continue
        try:
            req.reply = api.decode_reply(req.line)
        except api.ServiceError as exc:
            req.error = f"{exc.code}: {exc}"
        req.line = b""
    return Phase(start, requests)
