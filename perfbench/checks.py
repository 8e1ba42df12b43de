"""Output checks that do not trust the program under test.

Each check recomputes its answer from coordinates with plain numpy and
returns ``None`` when the output is correct, or a one-line reason.  They are
separate from ``rggembed.embed.verify_embedding`` on purpose: a change that
broke both the embedding and the program's own validator still fails here.
"""

from __future__ import annotations

import numpy as np


def check_embedding(mapping, coords: np.ndarray, r: float, tail: np.ndarray,
                    head: np.ndarray) -> str | None:
    """A tree embedding must be total and injective, and every tree edge
    (tail[i], head[i]) must map to two points at distance at most r."""
    n = len(coords)
    if mapping is None:
        return "success without an embedding"
    mapping = np.asarray(mapping)
    if mapping.shape != (n,) or mapping.min() < 0 or mapping.max() >= n:
        return "map is not total onto the point ids"
    if len(np.unique(mapping)) != n:
        return "map is not injective"
    diff = coords[mapping[tail]] - coords[mapping[head]]
    long = np.flatnonzero(np.sum(diff * diff, axis=1) > r * r)
    if len(long):
        e = long[0]
        return f"tree edge ({tail[e]}, {head[e]}) is longer than r"
    return None


def check_csr_rows(indptr: np.ndarray, indices: np.ndarray, coords: np.ndarray,
                   r: float, rows) -> str | None:
    """Every sampled CSR row must list exactly the other points within
    distance r, found by brute force."""
    for v in rows:
        diff = coords - coords[v]
        want = np.flatnonzero(np.sum(diff * diff, axis=1) <= r * r)
        want = want[want != v]
        got = np.sort(indices[indptr[v] : indptr[v + 1]])
        if not np.array_equal(got, want):
            return f"CSR row {v} has {len(got)} neighbours, brute force finds {len(want)}"
    return None


def self_test() -> list[str]:
    """Feed the checks known-bad outputs; return the ones they missed."""
    missed = []
    n = 64
    coords = np.zeros((n, 2))
    coords[:, 0] = np.linspace(0.0, 1.0, n)
    r = 1.5 / (n - 1)
    tail = np.arange(n - 1)
    head = tail + 1
    good = np.arange(n)
    if check_embedding(good, coords, r, tail, head) is not None:
        missed.append("a valid path embedding was flagged")
    collide = good.copy()
    collide[3] = collide[2]
    if check_embedding(collide, coords, r, tail, head) is None:
        missed.append("two vertices on one point were not flagged")
    stretched = good.copy()
    stretched[[5, 60]] = stretched[[60, 5]]
    if check_embedding(stretched, coords, r, tail, head) is None:
        missed.append("an edge longer than r was not flagged")

    coords = np.random.default_rng(0).random((300, 2))
    r = 0.12
    diff = coords[:, None, :] - coords[None, :, :]
    near = np.sum(diff * diff, axis=-1) <= r * r
    np.fill_diagonal(near, False)
    rows, indices = np.nonzero(near)
    indptr = np.searchsorted(rows, np.arange(len(coords) + 1))
    every = np.arange(len(coords))
    if check_csr_rows(indptr, indices, coords, r, every) is not None:
        missed.append("a correct CSR was flagged")
    row = rows[0]
    indptr[row + 1 :] -= 1
    if check_csr_rows(indptr, np.delete(indices, 0), coords, r, every) is None:
        missed.append("a dropped CSR edge was not flagged")
    return missed
