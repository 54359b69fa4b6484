"""Brute-force reference implementations used to pin expected test values.

Everything here is deliberately naive and independent of the library's
algorithmic paths: circuits come from subset-rank enumeration, isomorphism
from permutation search over circuit sets, graph cycles from degree checks,
and connected components from union-find.
"""

from __future__ import annotations

from itertools import combinations, permutations

from matroidsplit.matroid import BinaryMatroid, Graph


def subsets(items):
    items = list(items)
    for size in range(len(items) + 1):
        yield from combinations(items, size)


def brute_circuits(m: BinaryMatroid) -> frozenset[frozenset[str]]:
    """Minimal dependent sets via subset-rank enumeration only."""
    dependent = [frozenset(s) for s in subsets(m.labels)
                 if s and m.subset_rank(s) < len(s)]
    return frozenset(c for c in dependent
                     if not any(d < c for d in dependent))


def brute_cocircuits(m: BinaryMatroid) -> frozenset[frozenset[str]]:
    """Complements of hyperplanes, from the rank oracle alone."""
    full = m.rank()
    ground = set(m.labels)
    cocircuits = set()
    for h in subsets(m.labels):
        hset = set(h)
        if m.subset_rank(h) != full - 1:
            continue
        if any(m.subset_rank(hset | {e}) == full - 1 for e in ground - hset):
            continue
        cocircuits.add(frozenset(ground - hset))
    return frozenset(cocircuits)


def brute_isomorphism(a: BinaryMatroid, b: BinaryMatroid):
    """Permutation search comparing brute-force circuit sets."""
    if a.n_elements() != b.n_elements():
        return None
    ca = brute_circuits(a)
    cb = brute_circuits(b)
    if len(ca) != len(cb):
        return None
    for perm in permutations(b.labels):
        phi = dict(zip(a.labels, perm))
        if {frozenset(phi[x] for x in c) for c in ca} == cb:
            return phi
    return None


def cycle_edge_sets(g: Graph) -> frozenset[frozenset[str]]:
    """Edge sets of simple closed walks: connected, every vertex degree 2."""
    cycles = set()
    for chosen in subsets(range(len(g.edges))):
        if not chosen:
            continue
        degree = {}
        for idx in chosen:
            u, v, _ = g.edges[idx]
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        if any(d != 2 for d in degree.values()):
            continue
        touched = sorted(degree)
        parent = {w: w for w in touched}

        def find(w):
            while parent[w] != w:
                parent[w] = parent[parent[w]]
                w = parent[w]
            return w

        for idx in chosen:
            u, v, _ = g.edges[idx]
            parent[find(u)] = find(v)
        if len({find(w) for w in touched}) == 1:
            cycles.add(frozenset(g.edges[idx][2] for idx in chosen))
    return frozenset(cycles)


def component_count(g: Graph) -> int:
    """Connected components including isolated vertices (union-find)."""
    parent = list(range(g.n_vertices + 1))

    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    for u, v, _ in g.edges:
        parent[find(u)] = find(v)
    return len({find(w) for w in range(1, g.n_vertices + 1)})


def matroid_invariant(m: BinaryMatroid):
    """Cheap iso invariant used to pre-bucket brute-force classification."""
    circuits = brute_circuits(m)
    return (m.n_elements(), m.rank(), len(m.loops()),
            tuple(sorted(len(c) for c in circuits)))


def classify_matroids(matroids):
    """Bucket matroids into isomorphism classes with the permutation oracle."""
    classes: list[list[BinaryMatroid]] = []
    invariants: list[tuple] = []
    for m in matroids:
        inv = matroid_invariant(m)
        placed = False
        for idx, known_inv in enumerate(invariants):
            if known_inv == inv and brute_isomorphism(classes[idx][0], m):
                classes[idx].append(m)
                placed = True
                break
        if not placed:
            classes.append([m])
            invariants.append(inv)
    return classes


def series_parallel_graph(rng, n_edges: int, rank: int) -> Graph:
    """A seeded 2-connected series-parallel graph with the given size and rank.

    Grown from one edge by ``rank - 1`` subdivisions and
    ``n_edges - rank`` edge doublings in a seeded order, so it has
    ``rank + 1`` vertices and no K4 minor by construction.
    """
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
    return Graph(n_vertices, tuple((u, v, f"s{j + 1}") for j, (u, v) in enumerate(edges)))
