"""The one breadth-first search that every walk in the package runs on."""

from __future__ import annotations

import numpy as np
from scipy.sparse import csgraph


def bfs(graph, source: int):
    """Queue BFS over the rows of a square CSR matrix from ``source``.

    Returns (order, pred, level): the reached vertices in the order a queue
    visits them, each row's neighbours in stored order; every vertex's
    parent in that walk (-9999 for the source and for unreached vertices);
    and every vertex's hop distance from the source, int64, -1 where it is
    not reached.  csgraph copies a matrix whose data is not float64, so
    callers pass float64 data.
    """
    order, pred = csgraph.breadth_first_order(graph, source, directed=True,
                                              return_predecessors=True)
    pos = np.empty(graph.shape[0], dtype=np.int64)
    pos[order] = np.arange(len(order))
    # Along a queue BFS the parents' positions never decrease, so level
    # j + 1 is the run of vertices whose parents lie in level j's run;
    # below[p] counts the vertices whose parents sit at positions <= p.
    below = np.cumsum(np.bincount(pos[pred[order[1:]]], minlength=len(order)))
    ends = [0, 1]   # level j is order[ends[j]:ends[j + 1]]
    while ends[-1] < len(order):
        ends.append(int(below[ends[-1] - 1]) + 1)
    level = np.full(graph.shape[0], -1, dtype=np.int64)
    level[order] = np.repeat(np.arange(len(ends) - 1), np.diff(ends))
    return order, pred, level
