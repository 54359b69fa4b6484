"""Seeded input generators for the benchmark.

Every function takes its random source as an argument, so one ``--seed``
fixes every input of a run.  The generators return plain data (labels,
packed rows, edge lists); the program under test only ever receives what
they produce.
"""

from __future__ import annotations

import random


def seeded_order(items, rng: random.Random) -> list:
    """A copy of ``items`` in a seeded order."""
    out = list(items)
    rng.shuffle(out)
    return out


def relabelled_copy(labels, rows, n_cols: int, rng: random.Random):
    """The same matroid under a random bijection of labels and a random
    change of row basis.

    Columns are permuted and renamed ``c1, c2, ...``; then random row
    additions and swaps, which keep the row space, are applied.  Returns
    ``(new labels, new rows, label map old -> new)``.
    """
    perm = list(range(n_cols))
    rng.shuffle(perm)                      # new column k holds old column perm[k]
    new_rows = []
    for row in rows:
        packed = 0
        for k, j in enumerate(perm):
            if (row >> j) & 1:
                packed |= 1 << k
        new_rows.append(packed)
    for _ in range(3 * len(new_rows)):
        if len(new_rows) < 2:
            break
        a, b = rng.sample(range(len(new_rows)), 2)
        if rng.random() < 0.75:
            new_rows[a] ^= new_rows[b]
        else:
            new_rows[a], new_rows[b] = new_rows[b], new_rows[a]
    new_labels = [f"c{k + 1}" for k in range(n_cols)]
    mapping = {labels[j]: new_labels[k] for k, j in enumerate(perm)}
    return tuple(new_labels), tuple(new_rows), mapping


def series_parallel_graph(rng: random.Random, n_edges: int, rank: int):
    """A 2-connected series-parallel graph grown from one edge.

    ``rank - 1`` series extensions (subdivide an edge) and
    ``n_edges - rank`` parallel extensions (double an edge) are applied in
    a seeded order to seeded edges, so the graph has ``rank + 1`` vertices
    and ``n_edges`` edges.  Returns ``(n_vertices, ((u, v, label), ...))``
    with the edges listed in a seeded order.
    """
    if not 1 <= rank < n_edges:
        raise ValueError("need 1 <= rank < n_edges")
    edges = [(1, 2)]
    n_vertices = 2
    steps = ["series"] * (rank - 1) + ["parallel"] * (n_edges - rank)
    rng.shuffle(steps)
    for step in steps:
        i = rng.randrange(len(edges))
        u, v = edges[i]
        if step == "series":
            n_vertices += 1
            edges[i] = (u, n_vertices)
            edges.append((n_vertices, v))
        else:
            edges.append((u, v))
    rng.shuffle(edges)
    return n_vertices, tuple((u, v, f"g{j + 1}") for j, (u, v) in enumerate(edges))
