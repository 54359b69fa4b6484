"""Brute-force reference implementations used to pin expected test values.

Everything here is deliberately naive and independent of the library's
algorithmic paths: circuits come from subset-rank enumeration, isomorphism
from permutation search over circuit sets, graph cycles from degree checks,
connected components from union-find, the profiles of minors and the
first minor occurrence from the rank function of the contraction,
canonical forms from every map of GL(r, 2), and the element-splitting
identities from one extension per mask.
"""

from __future__ import annotations

from functools import lru_cache
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


def standard_dual_rows(m: BinaryMatroid) -> tuple[int, ...]:
    """[P^T | I] from the rref [I | P]: for each non-pivot column q, in
    column order, q's bit plus the pivot bit of every rref row with a 1 in
    column q."""
    reduced = m._rref
    pivots = [(row & -row).bit_length() - 1 for row in reduced]
    return tuple((1 << q) | sum(1 << p for p, row in zip(pivots, reduced) if row >> q & 1)
                 for q in range(m.n_elements()) if q not in pivots)


def brute_isomorphisms(a: BinaryMatroid, b: BinaryMatroid, pins=None):
    """Every label bijection carrying a's circuits onto b's and each key of
    ``pins`` to its value, by permutation search comparing brute-force
    circuit sets, in the order of ``permutations(b.labels)``."""
    if a.n_elements() != b.n_elements():
        return
    ca = brute_circuits(a)
    cb = brute_circuits(b)
    if len(ca) != len(cb):
        return
    for perm in permutations(b.labels):
        phi = dict(zip(a.labels, perm))
        if (all(phi[x] == y for x, y in (pins or {}).items())
                and {frozenset(phi[x] for x in c) for c in ca} == cb):
            yield phi


def brute_isomorphism(a: BinaryMatroid, b: BinaryMatroid):
    """The first of :func:`brute_isomorphisms`, or None."""
    return next(brute_isomorphisms(a, b), None)


def delete_rows(rows, n_cols: int, dmask: int):
    """Keep the columns below ``n_cols`` outside ``dmask``, bit by bit."""
    keep = [j for j in range(n_cols) if not (dmask >> j) & 1]
    return tuple(sum(((row >> j) & 1) << i for i, j in enumerate(keep))
                 for row in rows)


def contract_rows(rows, n_cols: int, cmask: int):
    """Pivot out each column below ``n_cols`` in ``cmask``, in increasing
    order, on bit lists: the first row with a 1 there is added to every
    other such row and dropped.  Then delete the ``cmask`` columns."""
    work = [[(row >> j) & 1 for j in range(n_cols)] for row in rows]
    for c in range(n_cols):
        hits = [i for i, row in enumerate(work) if row[c]]
        if not (cmask >> c) & 1 or not hits:
            continue
        pivot = work[hits[0]]
        for i in hits[1:]:
            work[i] = [a ^ b for a, b in zip(work[i], pivot)]
        del work[hits[0]]
    packed = [sum(bit << j for j, bit in enumerate(row)) for row in work]
    return delete_rows(packed, n_cols, cmask)


def esplit_violations(rows, n_cols: int, masks):
    """(index, "delete" or "contract") for each element-splitting identity
    that fails on one of ``masks``, in order: each mask's extension
    ``rows`` + (mask | e,), e the new column ``n_cols``, deleted and
    contracted on its own by the bit-by-bit functions above."""
    rows = tuple(rows)
    e = 1 << n_cols
    out = []
    for i, mask in enumerate(masks):
        ext = rows + (mask | e,)
        if delete_rows(ext, n_cols + 1, e) != rows + (mask,):
            out.append((i, "delete"))
        if contract_rows(ext, n_cols + 1, e) != rows:
            out.append((i, "contract"))
    return tuple(out)


def _columns(rows, n_cols: int):
    """Packed columns of ``rows``; bits at or above ``n_cols`` are dropped."""
    return [sum(((row >> j) & 1) << i for i, row in enumerate(rows))
            for j in range(n_cols)]


def profile_minors(rows, n_cols: int, c_size: int, d_size: int, want):
    """Every (cmask, dmask) whose minor M/C \\ D has the profile ``want``,
    in ``find_minors`` candidate order: delete sets D, then independent
    contract sets C, each in lexicographic index order.

    The profile is (rank, loops, sorted parallel-class sizes), read off the
    rank function of the contraction, r(X | C) - r(C), which is computed by
    elimination on the columns (bits of ``rows`` at or above ``n_cols`` are
    not columns).  Each pair is tested on its own.
    """
    cols = _columns(rows, n_cols)

    def rank(idx):
        pivots = {}
        for j in idx:
            v = cols[j]
            while v and v.bit_length() in pivots:
                v ^= pivots[v.bit_length()]
            if v:
                pivots[v.bit_length()] = v
        return len(pivots)

    def mask(idx):
        return sum(1 << j for j in idx)

    out = []
    if c_size < 0 or d_size < 0:
        return out
    for d_idx in combinations(range(n_cols), d_size):
        rest = [j for j in range(n_cols) if j not in d_idx]
        for c_idx in combinations(rest, c_size):
            if rank(c_idx) < c_size:
                continue
            kept = [j for j in rest if j not in c_idx]
            loops = [j for j in kept if rank(c_idx + (j,)) == c_size]
            classes = []
            for j in kept:
                if j in loops:
                    continue
                for cls in classes:
                    if rank(c_idx + (cls[0], j)) == c_size + 1:
                        cls.append(j)
                        break
                else:
                    classes.append([j])
            got = (rank(c_idx + tuple(kept)) - c_size, len(loops),
                   tuple(sorted(len(cls) for cls in classes)))
            if got == want:
                out.append((mask(c_idx), mask(d_idx)))
    return out


@lru_cache(maxsize=64)
def _subset_ranks(cols: tuple[int, ...]) -> tuple[int, ...]:
    """GF(2) rank of every subset of ``cols``, indexed by subset mask."""
    ranks = []
    for subset in range(1 << len(cols)):
        pivots = {}
        for j, v in enumerate(cols):
            if not (subset >> j) & 1:
                continue
            while v and v.bit_length() in pivots:
                v ^= pivots[v.bit_length()]
            if v:
                pivots[v.bit_length()] = v
        ranks.append(len(pivots))
    return tuple(ranks)


def marked_images(host: BinaryMatroid, pattern: BinaryMatroid, marked):
    """Every set of host labels that the ``marked`` pattern labels occupy in
    some minor occurrence of ``pattern``.

    An occurrence is a pair (C, D) of disjoint host sets, any C, dependent
    ones included, and a bijection phi from the pattern's elements onto the
    rest with r_P(X) = r(phi(X) | C) - r(C) for every set X of pattern
    elements.  Every pair is listed; phi is grown one pattern element at a
    time, testing each X that contains the newest.  Ranks come from the
    subset-rank tables of both matrices, by elimination on the columns.
    """
    k, n = len(pattern.labels), len(host.labels)
    r_pattern = _subset_ranks(tuple(_columns(pattern.rep.rows, k)))
    r_host = _subset_ranks(tuple(_columns(host.rep.rows, n)))
    marked_mask = sum(1 << pattern.labels.index(lab) for lab in marked)
    images = set()

    def extend(image, rest, cmask):
        # image[x] is phi(X) | C for each set X of the first i pattern
        # elements, indexed by mask.
        if len(image) == 1 << k:
            chosen = image[marked_mask] & ~cmask
            images.add(frozenset(host.labels[h] for h in range(n) if (chosen >> h) & 1))
            return
        for h in rest:
            if (image[-1] >> h) & 1:
                continue
            new = [t | 1 << h for t in image]
            if all(r_pattern[len(image) + x] == r_host[t] - r_host[cmask]
                   for x, t in enumerate(new)):
                extend(image + new, rest, cmask)

    for rest in combinations(range(n), k):
        rest_mask = sum(1 << h for h in rest)
        for contract in subsets(h for h in range(n) if h not in rest):
            cmask = sum(1 << h for h in contract)
            if r_host[cmask | rest_mask] - r_host[cmask] == r_pattern[-1]:
                extend([cmask], rest, cmask)
    return images


def _circuits_from_ranks(ranks, ground: int, base: int):
    """Circuit masks of the contraction by ``base`` restricted to ``ground``:
    the minimal X within ``ground`` with r(X | base) - r(base) < |X|."""
    subsets_of = [x for x in range(ground + 1) if x & ground == x]
    dependent = [x for x in subsets_of
                 if x and ranks[x | base] - ranks[base] < x.bit_count()]
    return {x for x in dependent if not any(y != x and y & x == y for y in dependent)}


def first_minor(host: BinaryMatroid, pattern: BinaryMatroid, pins=None):
    """The first (deleted, contracted) label pair, in ``has_minor`` candidate
    order, whose minor host / C \\ D admits a circuit bijection from the
    pattern that sends each pinned pattern label to its host label; None
    when no candidate does.

    Candidates avoid the pinned host labels: delete sets D, then contract
    sets C independent and of size r(host) - r(pattern), each in
    lexicographic index order.  Circuits come from subset ranks alone, the
    bijection from a search over every permutation.
    """
    pins = pins or {}
    n, k = len(host.labels), len(pattern.labels)
    r_host = _subset_ranks(tuple(_columns(host.rep.rows, n)))
    r_pattern = _subset_ranks(tuple(_columns(pattern.rep.rows, k)))
    c_size = r_host[-1] - r_pattern[-1]
    d_size = n - k - c_size
    if c_size < 0 or d_size < 0:
        return None
    pattern_circuits = _circuits_from_ranks(r_pattern, (1 << k) - 1, 0)
    fixed = {pattern.labels.index(p): host.labels.index(h) for p, h in pins.items()}
    free = [h for h in range(n) if h not in fixed.values()]
    for d_idx in combinations(free, d_size):
        rest = [h for h in free if h not in d_idx]
        for c_idx in combinations(rest, c_size):
            cmask = sum(1 << h for h in c_idx)
            if r_host[cmask] < c_size:
                continue
            kept = [h for h in range(n) if h not in d_idx and h not in c_idx]
            circuits = _circuits_from_ranks(r_host, sum(1 << h for h in kept), cmask)
            if len(circuits) != len(pattern_circuits):
                continue
            for perm in permutations(kept):
                if any(perm[i] != h for i, h in fixed.items()):
                    continue
                mapped = {sum(1 << perm[i] for i in range(k) if (c >> i) & 1)
                          for c in pattern_circuits}
                if mapped == circuits:
                    return (frozenset(host.labels[h] for h in d_idx),
                            frozenset(host.labels[h] for h in c_idx))
    return None


@lru_cache(maxsize=None)
def _gl_tables(r: int) -> tuple[tuple[int, ...], ...]:
    """Every invertible linear map of GF(2)^r as a value table t[v]: the
    maps e_i -> images[i] whose 2^r values are all distinct."""
    tables = []
    for images in permutations(range(1, 1 << r), r):
        table = [0] * (1 << r)
        for v in range(1, 1 << r):
            low = v & -v
            table[v] = table[v ^ low] ^ images[low.bit_length() - 1]
        if len(set(table)) == 1 << r:
            tables.append(tuple(table))
    return tuple(tables)


def gl_least_image(cols, r: int) -> tuple[int, ...]:
    """Least sorted image of a column multiset over the whole of GL(r, 2)."""
    return min(tuple(sorted(t[c] for c in cols)) for t in _gl_tables(r))


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
