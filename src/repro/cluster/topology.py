"""Rank neighbourhood topologies for the application communication models.

The simulated applications exchange halos with logical neighbours: MHD
uses a 3-D decomposition (the paper's code is a 3-D MLF solver), BT/SP
multizone codes sweep over a 2-D zone grid.  These helpers build the
``(n_ranks, k)`` neighbour-index arrays the vectorised BSP engine
consumes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ring_neighbors", "torus_neighbors", "grid_dims"]


def ring_neighbors(n_ranks: int) -> np.ndarray:
    """Left/right neighbours on a periodic 1-D ring, shape ``(n, 2)``."""
    if n_ranks <= 0:
        raise ConfigurationError("n_ranks must be positive")
    idx = np.arange(n_ranks)
    return np.stack([(idx - 1) % n_ranks, (idx + 1) % n_ranks], axis=1)


def grid_dims(n_ranks: int, ndim: int) -> tuple[int, ...]:
    """Factor ``n_ranks`` into ``ndim`` near-equal dimensions.

    Mirrors ``MPI_Dims_create``: dimensions are as close to each other
    as possible, largest first, and their product is exactly
    ``n_ranks``.
    """
    if n_ranks <= 0:
        raise ConfigurationError("n_ranks must be positive")
    if ndim <= 0:
        raise ConfigurationError("ndim must be positive")
    dims = [1] * ndim
    remaining = n_ranks
    # Greedily peel off prime factors onto the currently smallest dim.
    factors: list[int] = []
    d = 2
    while d * d <= remaining:
        while remaining % d == 0:
            factors.append(d)
            remaining //= d
        d += 1
    if remaining > 1:
        factors.append(remaining)
    for f in sorted(factors, reverse=True):
        dims[int(np.argmin(dims))] *= f
    return tuple(sorted(dims, reverse=True))


def torus_neighbors(shape: tuple[int, ...]) -> np.ndarray:
    """Neighbour indices on a periodic Cartesian torus.

    Returns an array of shape ``(prod(shape), 2 * len(shape))`` whose row
    *r* lists the ranks adjacent to *r* (−/+ along each axis).  Axes of
    extent 1 contribute the rank itself (self-neighbour), matching the
    degenerate behaviour of a periodic exchange on a flat axis.
    """
    if not shape or any(s <= 0 for s in shape):
        raise ConfigurationError("shape must be non-empty with positive extents")
    n = int(np.prod(shape))
    grid = np.arange(n).reshape(shape)
    neighbors = np.empty((n, 2 * len(shape)), dtype=int)
    for axis in range(len(shape)):
        for k, delta in enumerate((-1, +1)):
            # roll by -delta puts rank (c + delta) mod extent at coordinate c.
            neighbors[:, 2 * axis + k] = np.roll(grid, -delta, axis=axis).ravel()
    return neighbors
