"""Differential proof: the shift-and-patch halo gather vs ``np.take``.

:class:`~repro.simmpi.machine.HaloPlan` gathers a torus column as one
contiguous shifted slice of the clock plane and patches the column's
exception (wrap) rows inside the tile; columns without a dominant
offset keep ``np.take``.  Both must select the very same clock value
for every element, so the gathered tiles — and the ready values built
from them — are compared bit for bit against the plain ``np.take``
reference on:

* random tables (the fallback path);
* 1-, 2- and 3-D torus tables, extents of 1 and 2 included (self and
  duplicate neighbours);
* tiles whose edges sit on exception rows;
* tiles narrower than the column's offset;
* ``n_ranks = 1``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.topology import ring_neighbors, torus_neighbors
from repro.errors import ConfigurationError, SimulationError
from repro.simmpi.fastpath import (
    BspProgram,
    VCompute,
    VLoop,
    VSendrecv,
    run_fast_batched,
)
from repro.simmpi.machine import BatchedBspMachine, HaloPlan
from repro.simmpi.sharding import ShardSpec


def bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


def assert_bit_identical(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


def clock_plane(n_configs: int, n_ranks: int, seed: int) -> np.ndarray:
    """Distinct-ish clocks with repeated values and zeros, so a
    wrong operand or a wrong max order cannot hide."""
    rng = np.random.default_rng(seed)
    clock = rng.uniform(0.0, 4.0, (n_configs, n_ranks))
    clock[:, ::5] = np.round(clock[:, ::5])
    clock[:, ::7] = 0.0
    return clock


def check_tile(nb: np.ndarray, clock: np.ndarray, a: int, b: int) -> None:
    """Every column and the full ready gather on ``[a, b)`` match the
    ``np.take`` reference bit for bit."""
    plan = HaloPlan.shifts(nb)
    n_configs = clock.shape[0]
    for j in range(nb.shape[1]):
        got = np.full((n_configs, b - a), np.nan)
        plan.gather(clock, j, a, b, got)
        assert_bit_identical(got, np.take(clock, nb[a:b, j], axis=1))
    m = BatchedBspMachine(np.ones_like(clock))
    m.clock_s[...] = clock
    scratch = tuple(np.full((n_configs, b - a), np.nan) for _ in range(2))
    got = np.empty((n_configs, b - a))
    m.gather_ready_cols(a, b, plan, got, scratch)
    want = np.empty((n_configs, b - a))
    m.gather_ready_cols(a, b, HaloPlan.take(nb), want, tuple(
        np.empty((n_configs, b - a)) for _ in range(2)
    ))
    assert_bit_identical(got, want)
    # Reference without any plan: the partner maxima by fancy indexing.
    ref = np.maximum(clock[:, a:b], clock[:, nb[a:b]].max(axis=2))
    assert_bit_identical(got, ref)


def tiles(n: int, data) -> tuple[int, int]:
    a = data.draw(st.integers(0, n - 1), label="a")
    b = data.draw(st.integers(a + 1, n), label="b")
    return a, b


shapes = st.lists(st.integers(1, 7), min_size=1, max_size=3).map(tuple)


@settings(max_examples=150, deadline=None)
@given(shape=shapes, n_configs=st.integers(1, 3), seed=st.integers(0, 2**16),
       data=st.data())
def test_torus_tables(shape, n_configs, seed, data):
    nb = torus_neighbors(shape)
    n = nb.shape[0]
    a, b = tiles(n, data)
    check_tile(nb, clock_plane(n_configs, n, seed), a, b)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 60), k=st.integers(1, 5), n_configs=st.integers(1, 3),
       seed=st.integers(0, 2**16), data=st.data())
def test_random_tables(n, k, n_configs, seed, data):
    nb = np.random.default_rng(seed).integers(0, n, (n, k))
    a, b = tiles(n, data)
    check_tile(nb, clock_plane(n_configs, n, seed + 1), a, b)


@settings(max_examples=100, deadline=None)
@given(shape=shapes, n_configs=st.integers(1, 3), seed=st.integers(0, 2**16),
       data=st.data())
def test_mixed_tables(shape, n_configs, seed, data):
    """A torus table with a few rows rewired at random: shift columns
    with extra exceptions anywhere, next to fallback columns."""
    nb = torus_neighbors(shape).copy()
    n = nb.shape[0]
    rng = np.random.default_rng(seed)
    hits = rng.integers(0, n, max(1, n // 10))
    nb[hits, rng.integers(0, nb.shape[1], hits.size)] = rng.integers(
        0, n, hits.size
    )
    a, b = tiles(n, data)
    check_tile(nb, clock_plane(n_configs, n, seed), a, b)


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(2, 6), min_size=2, max_size=3).map(tuple),
       seed=st.integers(0, 2**16), data=st.data())
def test_tiles_narrower_than_offset(shape, seed, data):
    """Axis 0's offset is the product of the inner extents; every tile
    here is narrower than that."""
    nb = torus_neighbors(shape)
    n = nb.shape[0]
    stride = int(np.prod(shape[1:]))
    a = data.draw(st.integers(0, n - 1), label="a")
    b = data.draw(st.integers(a + 1, min(n, a + stride - 1) if stride > 1
                              else a + 1), label="b")
    check_tile(nb, clock_plane(2, n, seed), a, b)


def test_tile_edges_on_exception_rows():
    for shape in [(5, 4), (3, 3, 3), (6, 1, 4), (11,)]:
        nb = torus_neighbors(shape)
        n = nb.shape[0]
        clock = clock_plane(2, n, n)
        plan = HaloPlan.shifts(nb)
        edges = {0, n}
        for _o, rows, _src in plan.cols:
            if rows is not None:
                for r in rows:
                    edges.update((int(r), int(r) + 1))
        edges = sorted(e for e in edges if 0 <= e <= n)
        for i, a in enumerate(edges):
            for b in edges[i + 1:]:
                check_tile(nb, clock, a, b)


def test_torus_columns_use_shifts():
    """Extents of 3 or more give shift columns; extent-2 columns (half
    the rows wrap) and random columns keep the plain gather."""
    plan = HaloPlan.shifts(torus_neighbors((400, 250)))
    assert [c[0] for c in plan.cols] == [-250, 250, -1, 1]
    assert all(c[1] is not None for c in plan.cols)
    assert [c[1].size for c in plan.cols] == [250, 250, 400, 400]
    plan = HaloPlan.shifts(torus_neighbors((2, 5)))
    assert [c[1] is None for c in plan.cols] == [True, True, False, False]
    nb = np.random.default_rng(0).integers(0, 1000, (1000, 3))
    assert all(c[1] is None for c in HaloPlan.shifts(nb).cols)


def test_single_rank():
    for nb in (ring_neighbors(1), torus_neighbors((1, 1, 1)),
               np.zeros((1, 1), dtype=np.int64)):
        plan = HaloPlan.shifts(nb)
        assert all(c[0] == 0 and c[1].size == 0 for c in plan.cols)
        check_tile(nb, clock_plane(3, 1, 0), 0, 1)


def test_no_partners_waits_for_nobody():
    clock = clock_plane(2, 6, 0)
    m = BatchedBspMachine(np.ones_like(clock))
    m.clock_s[...] = clock
    out = np.empty((2, 4))
    scratch = (np.empty((2, 4)), np.empty((2, 4)))
    m.gather_ready_cols(1, 5, HaloPlan.shifts(np.empty((6, 0), dtype=int)),
                        out, scratch)
    assert_bit_identical(out, clock[:, 1:5])


def test_plan_and_validation_happen_once_per_op(monkeypatch):
    """The executor reuses the op's plan and trusts the table its
    :class:`BspProgram` validated: no superstep re-plans or re-checks."""
    n = 60
    op = VSendrecv(torus_neighbors((5, 12)), 1024.0)
    assert isinstance(op.plan, HaloPlan)
    program = BspProgram(n, (VLoop((VCompute(np.linspace(1.0, 2.0, n)), op), 12),))
    calls = []
    monkeypatch.setattr(
        BatchedBspMachine, "check_neighbors",
        lambda self, nb: calls.append("check") or nb,
    )
    monkeypatch.setattr(
        HaloPlan, "shifts", classmethod(lambda cls, nb: calls.append("plan")),
    )
    rates = np.random.default_rng(0).uniform(1.0, 2.0, (2, n))
    run_fast_batched(program, rates)
    run_fast_batched(program, rates, shard=ShardSpec(shard_ranks=7))
    assert calls == []


def test_malformed_tables_rejected_by_program():
    for bad in (np.zeros(4, dtype=int), np.zeros((3, 2), dtype=int),
                np.full((4, 2), 4), np.full((4, 2), -1)):
        with pytest.raises(ConfigurationError):
            BspProgram(4, (VSendrecv(bad),))
    assert VSendrecv(np.zeros(4, dtype=int)).plan is None


def test_whole_width_sendrecv_keeps_typed_errors():
    m = BatchedBspMachine(np.ones((2, 4)))
    with pytest.raises(SimulationError):
        m.sendrecv(np.full((4, 2), 4))
    with pytest.raises(SimulationError):
        m.sendrecv(np.zeros((3, 2), dtype=int))
