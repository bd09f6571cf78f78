"""DBSCAN over the occupied cells of a grid, on the integer lattice.

Two cells are neighbours when their centres lie within eps, that is when
resolution^2 * (di^2 + dj^2) <= eps^2 for their index offset (di, dj). The
offsets that pass form a stencil, so neighbourhoods are looked up in a
padded index grid instead of measured: distances are exact integers, and
the result does not depend on where the grid lies in the world.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

NOISE = -1


@lru_cache(maxsize=8)
def _stencil(eps: float, resolution: float, width: int,
             height: int) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(pad_i, pad_j, offsets, backward offsets) of the eps stencil.

    Offsets are flat indices into the grid padded by (pad_i, pad_j) cells on
    each side. The reach is clipped to the window: no two cells of a
    width x height grid lie further apart than (width - 1, height - 1).
    Backward offsets point to cells earlier in row-major order.
    """
    reach = int(min(max(width, height), eps / resolution)) + 1
    pad_i, pad_j = min(reach, width - 1), min(reach, height - 1)
    di, dj = np.mgrid[-pad_i:pad_i + 1, -pad_j:pad_j + 1].reshape(2, -1)
    within = resolution * resolution * (di * di + dj * dj) <= eps * eps
    offsets = di[within] * (height + 2 * pad_j) + dj[within]
    offsets.setflags(write=False)
    backward = offsets[offsets < 0]
    backward.setflags(write=False)
    return pad_i, pad_j, offsets, backward


def dbscan(grid, eps: float, min_pts: int) -> np.ndarray:
    """Label each of grid.cells with its cluster id, or NOISE (-1).

    Standard semantics: a cell is a core cell when its eps-neighbourhood
    (itself included) holds at least min_pts occupied cells; clusters are
    the connected components of core cells, and a non-core cell within eps
    of a core cell is a border cell. Cluster ids follow each cluster's first
    core cell in row-major order; a border cell takes the lowest id among
    its neighbouring clusters.
    """
    if eps <= 0.0:
        raise ValueError("eps must be > 0")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    cells = grid.cells
    m = len(cells)
    labels = np.full(m, NOISE, dtype=np.intp)
    if m == 0:
        return labels
    spec = grid.spec
    pad_i, pad_j, offsets, backward = _stencil(eps, spec.resolution,
                                               spec.width, spec.height)
    # index of each occupied cell in a padded grid, -1 elsewhere
    lookup = np.full((spec.width + 2 * pad_i) * (spec.height + 2 * pad_j), -1,
                     dtype=np.intp)
    base = (cells[:, 0] + pad_i) * (spec.height + 2 * pad_j) + cells[:, 1] + pad_j
    lookup[base] = np.arange(m)
    neighbours = lookup[base[:, None] + offsets]               # (M, K)
    core = np.count_nonzero(neighbours >= 0, axis=1) >= min_pts

    # union-find over core-to-earlier-core edges; a root is always the
    # lowest index of its set, i.e. the set's first core cell. Tables
    # indexed by neighbours carry one extra entry, read through index -1.
    core_pad = np.zeros(m + 1, dtype=bool)
    core_pad[:m] = core
    earlier = lookup[base[:, None] + backward]
    linked = core_pad[earlier] & core[:, None]
    rows, cols = np.nonzero(linked)
    parent = list(range(m))
    for i, j in zip(rows.tolist(), earlier[rows, cols].tolist()):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        if i < j:
            parent[j] = i
        elif j < i:
            parent[i] = j
    # a parent has the lower index, so one ascending pass settles every root
    for i in range(m):
        parent[i] = parent[parent[i]]
    root = np.array(parent)

    first = core & (root == np.arange(m))
    ids = np.cumsum(first) - 1
    labels[core] = ids[root[core]]
    # border cells: lowest id among neighbouring core cells (m = none)
    core_ids = np.full(m + 1, m, dtype=np.intp)
    core_ids[:m][core] = labels[core]
    lowest = core_ids[neighbours].min(axis=1)
    border = ~core & (lowest < m)
    labels[border] = lowest[border]
    return labels
