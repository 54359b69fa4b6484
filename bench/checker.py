"""Independent checks on binary matroids, written apart from ``matroidsplit``.

Nothing here imports the package under test.  A matroid is a tuple of
GF(2) column vectors, each an int whose bit i is the entry in row i, so the
checker does its own elimination, its own minors and its own structure
queries.  It gives the benchmark three oracles:

* ``is_series_parallel``: a binary matroid has no M(K4) minor, i.e. is a
  binary gammoid, iff deleting loops and parallel copies and contracting
  coloops and series copies empties it (Duffin 1965; Brylawski 1971);
* ``minor_profile`` and the witness checks built on it, which rebuild a
  minor from its deleted and contracted labels and read off its rank,
  loops and parallel classes;
* ``rank_table`` and what is derived from it (circuits, cocircuits, an
  isomorphism invariant and an exact isomorphism test), for matroids small
  enough to list every subset.
"""

from __future__ import annotations

from itertools import combinations


def columns_of_rows(rows, n_cols: int) -> tuple[int, ...]:
    """Transpose a row-packed matrix (bit j of a row = column j)."""
    cols = []
    for j in range(n_cols):
        c = 0
        for i, row in enumerate(rows):
            if (row >> j) & 1:
                c |= 1 << i
        cols.append(c)
    return tuple(cols)


def rank(cols) -> int:
    """GF(2) rank of a family of column vectors."""
    basis: dict[int, int] = {}
    for v in cols:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def _drop_bit(v: int, p: int) -> int:
    return (v & ((1 << p) - 1)) | ((v >> (p + 1)) << p)


def contract(cols, e: int) -> list[int]:
    """Contract column ``e``: pivot it out of its lowest row and drop it.
    A loop is simply deleted."""
    pivot_col = cols[e]
    rest = [c for j, c in enumerate(cols) if j != e]
    if not pivot_col:
        return rest
    p = (pivot_col & -pivot_col).bit_length() - 1
    return [_drop_bit(c ^ pivot_col if (c >> p) & 1 else c, p) for c in rest]


def split(cols, subset) -> list[int]:
    """Splitting on ``subset``: one new row with 1s exactly on ``subset``."""
    bit = 1 << (max((c.bit_length() for c in cols), default=0))
    return [c | bit if j in subset else c for j, c in enumerate(cols)]


def _basis_coordinates(cols):
    """Pick a basis greedily from left to right.

    Returns ``(is_basis, coords)``: ``coords[j]`` is the set of basis
    positions, as a mask, whose columns sum to column j.
    """
    reduced: dict[int, tuple[int, int]] = {}   # top bit -> (vector, combination)
    is_basis, coords = [], []
    for c in cols:
        v, combo = c, 0
        for top in sorted(reduced, reverse=True):
            if (v >> top) & 1:
                bv, bc = reduced[top]
                v ^= bv
                combo ^= bc
        if v:
            k = len(reduced)
            reduced[v.bit_length() - 1] = (v, combo ^ (1 << k))
            is_basis.append(True)
            coords.append(1 << k)
        else:
            is_basis.append(False)
            coords.append(combo)
    return is_basis, coords


def _dual_columns(cols):
    """Columns of a representation of the dual matroid, [I | P] -> [P^T | I].

    A basis element's dual column marks the fundamental circuits it lies
    in; a non-basis element gets its own unit vector.
    """
    is_basis, coords = _basis_coordinates(cols)
    basis_pos = {}
    nonbasis_pos = {}
    for j, b in enumerate(is_basis):
        if b:
            basis_pos[j] = len(basis_pos)
        else:
            nonbasis_pos[j] = len(nonbasis_pos)
    dual = []
    for j in range(len(cols)):
        if is_basis[j]:
            k = basis_pos[j]
            dual.append(sum(1 << q for i, q in nonbasis_pos.items()
                            if (coords[i] >> k) & 1))
        else:
            dual.append(1 << nonbasis_pos[j])
    return dual


def _first_repeat(vectors):
    """Index of the second occurrence of the first repeated nonzero vector."""
    seen = set()
    for j, v in enumerate(vectors):
        if v:
            if v in seen:
                return j
            seen.add(v)
    return None


def is_series_parallel(cols) -> bool:
    """True iff the series-parallel reduction empties the matroid.

    Loops and coloops are removed, one of every parallel pair is deleted
    and one of every series pair (a parallel pair of the dual) is
    contracted, until nothing applies.
    """
    cols = list(cols)
    while cols:
        if 0 in cols:
            cols.pop(cols.index(0))
            continue
        j = _first_repeat(cols)
        if j is not None:
            cols.pop(j)
            continue
        dual = _dual_columns(cols)
        if 0 in dual:                      # a coloop
            cols.pop(dual.index(0))
            continue
        j = _first_repeat(dual)
        if j is None:
            return False
        cols = contract(cols, j)
    return True


# -- minors and witness profiles ------------------------------------------------


def minor_profile(labels, cols, deleted, contracted):
    """Rebuild host \\ deleted / contracted and read off its structure.

    Returns ``(labels, rank, loops, parallel classes)`` of the minor, the
    classes as frozensets of labels.
    """
    labels, cols = list(labels), list(cols)
    if set(deleted) & set(contracted):
        raise ValueError("deleted and contracted sets overlap")
    for lab in contracted:
        j = labels.index(lab)
        cols = contract(cols, j)
        labels.pop(j)
    for lab in deleted:
        j = labels.index(lab)
        cols.pop(j)
        labels.pop(j)
    loops = frozenset(lab for lab, c in zip(labels, cols) if not c)
    groups: dict[int, set] = {}
    for lab, c in zip(labels, cols):
        if c:
            groups.setdefault(c, set()).add(lab)
    classes = tuple(frozenset(g) for g in groups.values())
    return tuple(labels), rank(cols), loops, classes


def is_k4_profile(profile) -> bool:
    """Simple, rank 3, six elements: the only such binary matroid is M(K4)."""
    labels, r, loops, classes = profile
    return (len(labels) == 6 and r == 3 and not loops
            and all(len(c) == 1 for c in classes))


def is_f_profile(profile) -> bool:
    """Loopless, rank 2, parallel classes of sizes {1, 2, 2}: M(F)."""
    labels, r, loops, classes = profile
    return (len(labels) == 5 and r == 2 and not loops
            and sorted(len(c) for c in classes) == [1, 2, 2])


def is_pinned_u13(profile, placed) -> bool:
    """Three mutually parallel non-loops that include the labels ``placed``."""
    labels, r, loops, classes = profile
    return (len(labels) == 3 and r == 1 and not loops and len(classes) == 1
            and set(placed) <= set(labels))


def find_f_profile_minor(cols) -> bool:
    """Whether some minor has the profile of M(F).

    Contract every independent set C of size rank - 2, then look for five
    surviving columns of rank 2, without zeros, in classes {1, 2, 2}.
    """
    n, r = len(cols), rank(cols)
    if n < 5 or r < 2:
        return False
    for c_idx in combinations(range(n), r - 2):
        if rank([cols[j] for j in c_idx]) != r - 2:
            continue
        rest = list(cols)
        for j in sorted(c_idx, reverse=True):
            rest = contract(rest, j)
        nonzero = [c for c in rest if c]
        for five in combinations(nonzero, 5):
            counts: dict[int, int] = {}
            for c in five:
                counts[c] = counts.get(c, 0) + 1
            if sorted(counts.values()) == [1, 2, 2] and rank(five) == 2:
                return True
    return False


# -- everything that follows from the rank of every subset ------------------------


def rank_table(cols) -> list[int]:
    """Rank of every subset, indexed by its mask (2^n entries)."""
    n = len(cols)
    table = [0] * (1 << n)
    spans: list[dict[int, int]] = [{}] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        prev = mask & (mask - 1)
        basis = spans[prev]
        v = cols[low]
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                break
            v ^= basis[top]
        if v:
            basis = dict(basis)
            basis[v.bit_length() - 1] = v
            table[mask] = table[prev] + 1
        else:
            table[mask] = table[prev]
        spans[mask] = basis
    return table


def circuits(table, n: int) -> frozenset[int]:
    """Minimal dependent sets, as masks."""
    out = set()
    for mask in range(1, 1 << n):
        size = bin(mask).count("1")
        if table[mask] != size - 1:
            continue
        if all(table[mask & ~(1 << j)] == size - 1
               for j in range(n) if (mask >> j) & 1):
            out.add(mask)
    return frozenset(out)


def cocircuits(table, n: int) -> frozenset[int]:
    """Complements of hyperplanes (closed sets of rank r - 1), as masks."""
    full = (1 << n) - 1
    r = table[full]
    out = set()
    for mask in range(full + 1):
        if table[mask] != r - 1:
            continue
        if all(table[mask | (1 << j)] == r
               for j in range(n) if not (mask >> j) & 1):
            out.add(full & ~mask)
    return frozenset(out)


def _element_signatures(circ, n: int):
    return [tuple(sorted(bin(c).count("1") for c in circ if (c >> j) & 1))
            for j in range(n)]


def invariant(table, n: int):
    """Isomorphism invariant: the counts of subsets by (size, rank) and the
    sorted per-element circuit-size signatures."""
    counts: dict[tuple[int, int], int] = {}
    for mask in range(1 << n):
        key = (bin(mask).count("1"), table[mask])
        counts[key] = counts.get(key, 0) + 1
    circ = circuits(table, n)
    return (n, tuple(sorted(counts.items())),
            tuple(sorted(_element_signatures(circ, n))))


def find_isomorphism(circ_a, circ_b, n: int):
    """A bijection of 0..n-1 carrying the circuits of a onto those of b, or
    None.  Elements are matched only to elements of equal signature, and a
    partial map is abandoned as soon as a fully mapped circuit of a has no
    counterpart in b."""
    if len(circ_a) != len(circ_b):
        return None
    sig_a = _element_signatures(circ_a, n)
    sig_b = _element_signatures(circ_b, n)
    if sorted(sig_a) != sorted(sig_b):
        return None
    at_a = [[c for c in circ_a if (c >> j) & 1] for j in range(n)]
    image = [-1] * n
    used = [False] * n

    def fits(i: int) -> bool:
        for c in at_a[i]:
            img, rest = 0, c
            while rest:
                low = rest & -rest
                k = low.bit_length() - 1
                if image[k] < 0:
                    break
                img |= 1 << image[k]
                rest ^= low
            else:
                if img not in circ_b:
                    return False
        return True

    def extend(i: int) -> bool:
        if i == n:
            return True
        for j in range(n):
            if used[j] or sig_b[j] != sig_a[i]:
                continue
            image[i], used[j] = j, True
            if fits(i) and extend(i + 1):
                return True
            image[i], used[j] = -1, False
        return False

    return list(image) if extend(0) else None


def maps_circuits(mapping: dict, labels_a, circ_a, labels_b, circ_b) -> bool:
    """Whether a label map from a to b carries circuits exactly onto circuits."""
    if sorted(mapping) != sorted(labels_a) or sorted(mapping.values()) != sorted(labels_b):
        return False
    pos_b = {lab: j for j, lab in enumerate(labels_b)}
    index = [pos_b[mapping[lab]] for lab in labels_a]
    carried = set()
    for c in circ_a:
        img = 0
        for j in range(len(labels_a)):
            if (c >> j) & 1:
                img |= 1 << index[j]
        carried.add(img)
    return carried == set(circ_b)
