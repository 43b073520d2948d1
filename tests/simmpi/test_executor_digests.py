"""Bit-level pins for the tiled BSP executor on every app.

The differential suites compare the executor against itself (tiled vs
whole-plane, batched vs one-row) and against the event-driven oracle to
1e-9; the golden pins hold experiment outputs to ``rel=1e-6``.  Neither
notices a change that moves every path by the same last ulp — a
reordered max, a different fast-forward iteration.  These pins do: for
each of the seven apps at 37, 4,096 and 100,000 ranks, the four
:class:`~repro.simmpi.tracing.RankTrace` arrays of a three-row
:func:`simulate_app_batched` plane are reduced to sha256 digests of
their little-endian float64 bytes, and the digests must be the same
whole-plane (``shard=None``), auto-tiled (``"auto"``) and on forced
narrow tiles.

The narrow width is one less than the torus's largest neighbour offset
(the axis-0 stride), so tile edges fall on every phase of the wrap rows
and no tile is as wide as the offset it gathers across; apps without a
neighbour table get three tiles.

The fast-forward pins hold the iteration at which each row retires: a
one-row run of row *c* records ``sim.ff_saved_iters`` = the iterations
it skipped (``0`` = ran to the end), and the batched run's
``sim.fast_forward`` counter and ``sim.ff_saved_iters`` histogram must
agree with those per-row values (rows that retire on the same
iteration share one observation).
"""

import hashlib

import numpy as np
import pytest

from repro import telemetry
from repro.apps.registry import APPS
from repro.cluster.topology import grid_dims
from repro.simmpi.fastpath import simulate_app_batched
from repro.simmpi.sharding import ShardSpec

FMAX = 2.7
ITERS = 30
SIZES = (37, 4096, 100_000)
FIELDS = ("total_s", "compute_s", "wait_s", "comm_s")


def plane(n: int) -> np.ndarray:
    """Three rows: uniform rates, a seeded uniform spread, and a flat
    fleet with 1 % slow modules (a delay wavefront to propagate)."""
    rng = np.random.default_rng(n)
    spread = rng.uniform(1.8, 2.7, n)
    slow = np.full(n, 2.7)
    slow[rng.choice(n, max(1, n // 100), replace=False)] = 2.0
    return np.stack([np.full(n, 2.4), spread, slow])


def narrow_width(app, n: int) -> int:
    if app.comm.kind != "neighbor":
        return n // 3 + 1
    dims = grid_dims(n, app.comm.ndim)
    return max(1, int(np.prod(dims[1:])) - 1)


def shard_arg(mode: str, app, n: int):
    if mode == "narrow":
        return ShardSpec(shard_ranks=narrow_width(app, n))
    return None if mode == "none" else mode


def digests(traces) -> tuple[str, ...]:
    out = []
    for f in FIELDS:
        h = hashlib.sha256()
        for t in traces:
            h.update(np.ascontiguousarray(getattr(t, f), dtype="<f8").tobytes())
        out.append(h.hexdigest()[:16])
    return tuple(out)


def traced(fn):
    """Run ``fn`` under a fresh collector; returns (result, ff count,
    ff_saved_iters (count, total))."""
    col = telemetry.enable()
    try:
        result = fn()
    finally:
        telemetry.disable()
    ff = col.metrics.counters.get("sim.fast_forward")
    hist = col.metrics.histograms.get("sim.ff_saved_iters")
    saved = (hist.count, hist.total) if hist is not None else (0, 0.0)
    return result, (ff.value if ff is not None else 0), saved


#: (app, n_ranks) -> digests of total_s, compute_s, wait_s, comm_s over
#: the three rows.
DIGESTS = {
    ("bt", 37): (
        "939ced7bbf58e159",
        "25a6af50f2f216b2",
        "65b0b5e6a18d177c",
        "fdf3c122d5a0d494",
    ),
    ("dgemm", 37): (
        "f1339e8c58021a23",
        "f1339e8c58021a23",
        "f0402756b4ecd3e4",
        "f0402756b4ecd3e4",
    ),
    ("ep", 37): (
        "92b810448dcc08b9",
        "9cdecf40ef42fc6e",
        "20d75ca506cddadd",
        "0f683c1c62a34d13",
    ),
    ("mhd", 37): (
        "f91c5b33828756d3",
        "144212c6c6705240",
        "5c4998935c0512e9",
        "103445d55ce363ed",
    ),
    ("mvmc", 37): (
        "d986d36e5c7d91d5",
        "0b23fbad65effd02",
        "baa959a6f1468577",
        "6a95a5a5f17545a5",
    ),
    ("sp", 37): (
        "a1cf17af2d45ffed",
        "2aecc64d245657df",
        "ea382a2a0b025847",
        "fdf3c122d5a0d494",
    ),
    ("stream", 37): (
        "d0d7d176c27cd311",
        "d0d7d176c27cd311",
        "f0402756b4ecd3e4",
        "f0402756b4ecd3e4",
    ),
    ("bt", 4096): (
        "67bda6615671b837",
        "834ea512551b6f57",
        "773dfc3f545b47ba",
        "8280a52c74a0ab9d",
    ),
    ("dgemm", 4096): (
        "71ccb8a2342b5403",
        "71ccb8a2342b5403",
        "3a3ed164e42500a1",
        "3a3ed164e42500a1",
    ),
    ("ep", 4096): (
        "722422f8ef12f8f3",
        "35a5992763b7de79",
        "fea7864288d19a92",
        "bccac803b5103fc9",
    ),
    ("mhd", 4096): (
        "9f4d8930442311ec",
        "ce0fcdc29b0349ae",
        "fd20e0cd4e710e74",
        "a721436cf7223944",
    ),
    ("mvmc", 4096): (
        "16a2faebb8b7d692",
        "4761cf9bea840a8c",
        "9e99a9c1058d73c1",
        "e0f2907d04447e65",
    ),
    ("sp", 4096): (
        "e1f7fb345681f3d2",
        "243091cc402c52e4",
        "4071138daa88d354",
        "8280a52c74a0ab9d",
    ),
    ("stream", 4096): (
        "ffb8e057e02b4b0a",
        "ffb8e057e02b4b0a",
        "3a3ed164e42500a1",
        "3a3ed164e42500a1",
    ),
    ("bt", 100000): (
        "3d5368f21c031d50",
        "1f98f79cdaa0a6d6",
        "2ca933818f51674f",
        "4206d3cc4f7ddb10",
    ),
    ("dgemm", 100000): (
        "7921e2325d087885",
        "7921e2325d087885",
        "2a638511358c57fd",
        "2a638511358c57fd",
    ),
    ("ep", 100000): (
        "033cd4fe6fdfaabe",
        "63d81d5ef0c01afc",
        "4e14fadeb4974d05",
        "8e23d9afed886fa2",
    ),
    ("mhd", 100000): (
        "30a7edbdecdc7ade",
        "f372d6a196396e0b",
        "cdd202c4d8857196",
        "2b263784215eb26a",
    ),
    ("mvmc", 100000): (
        "62145c266e80bbfd",
        "ee40e8b4177988fa",
        "6e09a8b88921dad3",
        "7afda270376b8d7d",
    ),
    ("sp", 100000): (
        "d2ce1f9e53de6dcf",
        "cbcb8d84cdcc44b9",
        "03d0eaad75dc9597",
        "4206d3cc4f7ddb10",
    ),
    ("stream", 100000): (
        "dd68c793d06825eb",
        "dd68c793d06825eb",
        "2a638511358c57fd",
        "2a638511358c57fd",
    ),
}

#: (app, n_ranks) -> per-row iterations skipped by fast-forwarding.
ROW_FF = {
    ("bt", 37): (27, 0, 10),
    ("dgemm", 37): (0, 0, 0),
    ("ep", 37): (0, 0, 0),
    ("mhd", 37): (27, 0, 10),
    ("mvmc", 37): (27, 27, 27),
    ("sp", 37): (27, 0, 10),
    ("stream", 37): (0, 0, 0),
    ("bt", 4096): (27, 0, 10),
    ("dgemm", 4096): (0, 0, 0),
    ("ep", 4096): (0, 0, 0),
    ("mhd", 4096): (27, 0, 20),
    ("mvmc", 4096): (27, 27, 27),
    ("sp", 4096): (27, 0, 10),
    ("stream", 4096): (0, 0, 0),
    ("bt", 100000): (27, 0, 7),
    ("dgemm", 100000): (0, 0, 0),
    ("ep", 100000): (0, 0, 0),
    ("mhd", 100000): (27, 0, 19),
    ("mvmc", 100000): (27, 27, 27),
    ("sp", 100000): (27, 0, 7),
    ("stream", 100000): (0, 0, 0),
}

CASES = [(app, n) for n in SIZES for app in sorted(APPS)]


def _id(case):
    return f"{case[0]}-{case[1]}"


@pytest.mark.parametrize("mode", ["none", "auto", "narrow"])
@pytest.mark.parametrize("case", CASES, ids=_id)
def test_executor_digests(case, mode):
    name, n = case
    app = APPS[name]
    traces, ff, saved = traced(
        lambda: simulate_app_batched(
            app, plane(n), FMAX, n_iters=ITERS, shard=shard_arg(mode, app, n)
        )
    )
    assert digests(traces) == DIGESTS[case]
    rows = [s for s in ROW_FF[case] if s]
    events = set(rows)
    assert ff == len(rows)
    assert saved == (len(events), float(sum(events)))


@pytest.mark.parametrize("case", CASES, ids=_id)
def test_row_fast_forward_iterations(case):
    name, n = case
    app = APPS[name]
    rates = plane(n)
    got = []
    for c in range(rates.shape[0]):
        _traces, ff, (count, total) = traced(
            lambda: simulate_app_batched(
                app, rates[c : c + 1], FMAX, n_iters=ITERS
            )
        )
        assert ff == count <= 1
        got.append(int(total))
    assert tuple(got) == ROW_FF[case]
