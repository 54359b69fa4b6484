"""Pure-Python GF(2) kernel: bit-packed rows, minor search, canonical forms.

Reference implementation of the kernel API (``__all__``).  The hand-written
C extension ``_speed.c`` compiles the per-candidate subset: ``rank``,
``rank_masked``, ``cols_rank``, ``rref``, ``rref_pivots``,
``nullspace_basis``, ``space_min_supports``, ``delete_rows``,
``contract_rows``, ``profile_present``, ``split_profile_first``,
``find_minors``, ``canon_key_cols`` and ``is_canonical``, returning the
same values for ints in [0, 2^64).
The rest (``in_rowspace``, ``columns``, ``rows_from_columns``, ``profile``,
``profile_images``) is served from here alone; see ``_kernel.__init__``.

Canonical forms minimise over ordered bases of the columns, not over all
of GL(r, 2), and reach the same least image (``_images_below``).

Rank <= 2 patterns are read off the contractions M/C, one per flat of the
right rank (``_contractions``).  ``profile_present`` decides from them
whether a minor with a given profile exists, and is the one rank <= 2
decision: ``find_minors`` decides with it before it scans, for a profile
with no avoided columns and a contract size of rank - rho, and returns
``[]`` when no candidate can match.  Otherwise, and whenever a match
exists, the scan runs unchanged, so every witness and its order stay the
same.  ``profile_images`` reads the marked images of such a pattern from
the same contractions.  ``split_profile_first`` decides the same question
for the splitting on each of many Ys in one walk, one bit per Y.

Conventions:
  * a matrix is a sequence of ints, bit ``j`` of a row = entry in column ``j``
  * a column vector over rows 0..r-1 is an int with bit ``i`` = entry in row ``i``
  * masks address columns the same way rows do
"""

from __future__ import annotations

from itertools import combinations, permutations, product

__all__ = [
    "BACKEND", "KIND_SIMPLE_RANK3", "KIND_PROFILE", "KIND_CANONICAL",
    "rank", "rank_masked", "cols_rank", "rref", "rref_pivots", "in_rowspace",
    "nullspace_basis", "space_min_supports", "columns", "rows_from_columns",
    "delete_rows", "contract_rows", "profile", "profile_images",
    "profile_present", "split_profile_first", "find_minors", "canon_key_cols",
    "is_canonical",
]

BACKEND = "pure"

# Matches `kind` arguments of find_minors.
KIND_SIMPLE_RANK3 = 1
KIND_PROFILE = 2
KIND_CANONICAL = 3


def rank(rows) -> int:
    """GF(2) row rank by Gaussian elimination on packed rows."""
    basis = []
    for row in rows:
        for b in basis:
            low = b & -b
            if row & low:
                row ^= b
        if row:
            basis.append(row)
    return len(basis)


def rank_masked(rows, mask: int) -> int:
    """Rank of the submatrix keeping only columns in ``mask``."""
    return rank([row & mask for row in rows])


def rref(rows):
    """Reduced row-echelon form; zero rows dropped, rows ordered by pivot."""
    reduced, _ = rref_pivots(rows)
    return reduced


def rref_pivots(rows):
    """Return (rref rows, pivot column indices), both pivot-ordered."""
    work = []
    for row in rows:
        for b in work:
            low = b & -b
            if row & low:
                row ^= b
        if row:
            work.append(row)
            # Re-eliminate the new pivot from earlier rows.
            low = row & -row
            for i in range(len(work) - 1):
                if work[i] & low:
                    work[i] ^= row
    work.sort(key=lambda r: r & -r)
    pivots = tuple((r & -r).bit_length() - 1 for r in work)
    return tuple(work), pivots


def in_rowspace(rows, vec: int) -> bool:
    """True iff ``vec`` is an XOR combination of ``rows``."""
    for b in rref(rows):
        low = b & -b
        if vec & low:
            vec ^= b
    return vec == 0


def nullspace_basis(rows, n_cols: int):
    """Basis of the right null space, one vector per non-pivot column."""
    reduced, pivots = rref_pivots(rows)
    pivot_set = set(pivots)
    basis = []
    for j in range(n_cols):
        if j in pivot_set:
            continue
        vec = 1 << j
        for i, p in enumerate(pivots):
            if (reduced[i] >> j) & 1:
                vec |= 1 << p
        basis.append(vec)
    return tuple(basis)


def space_min_supports(basis):
    """Inclusion-minimal nonzero vectors of the span of ``basis``.

    Enumerates all 2^len(basis) combinations; callers bound the basis size.
    """
    basis = tuple(basis)
    if len(basis) > 24:
        raise ValueError("span enumeration limited to 24 basis vectors")
    vectors = [0]
    for b in basis:
        vectors.extend(v ^ b for v in list(vectors))
    nonzero = sorted((v for v in vectors if v), key=lambda v: (bin(v).count("1"), v))
    minimal = []
    for v in nonzero:
        if not any(u & v == u for u in minimal):
            minimal.append(v)
    minimal.sort()
    return tuple(minimal)


def columns(rows, n_cols: int):
    """Transpose packed rows into packed columns."""
    cols = [0] * n_cols
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    return tuple(cols)


def rows_from_columns(cols, n_rows: int):
    """Transpose packed columns back into packed rows."""
    rows = [0] * n_rows
    for j, col in enumerate(cols):
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= 1 << j
            col ^= low
    return tuple(rows)


def delete_rows(rows, n_cols: int, dmask: int):
    """Drop the columns in ``dmask`` and compact the survivors in order.

    Bits at or above ``n_cols`` are dropped too, whatever ``dmask`` says
    there.  Each run of consecutive kept columns moves with one mask and one
    shift.  Nothing is checked: callers pass kernel or validated rows.
    """
    runs = []
    keep = ((1 << n_cols) - 1) & ~dmask
    width = 0
    while keep:
        low = (keep & -keep).bit_length() - 1
        run = keep >> low
        length = (~run & (run + 1)).bit_length() - 1
        span = ((1 << length) - 1) << low
        runs.append((span, low - width))
        width += length
        keep ^= span
    out = []
    for row in rows:
        packed = 0
        for span, shift in runs:
            packed |= (row & span) >> shift
        out.append(packed)
    return tuple(out)


def _pivot_out(rows, n_cols: int, cmask: int):
    """Eliminate the columns in ``cmask`` by pivoting; no column compaction.

    For each nonzero column in ``cmask`` the pivot row is removed after
    clearing the column elsewhere; zero columns (loops) are left to the
    subsequent deletion.  Rows that become zero are retained.
    """
    work = list(rows)
    for c in range(n_cols):
        if not (cmask >> c) & 1:
            continue
        pivot = -1
        for i, row in enumerate(work):
            if (row >> c) & 1:
                pivot = i
                break
        if pivot < 0:
            continue
        pv = work[pivot]
        work = [row ^ pv if (row >> c) & 1 else row for row in work]
        del work[pivot]
    return tuple(work)


def contract_rows(rows, n_cols: int, cmask: int):
    """Contract the columns in ``cmask``: pivot, eliminate, drop row+column."""
    return delete_rows(_pivot_out(rows, n_cols, cmask), n_cols, cmask)


def minor_rows(rows, n_cols: int, cmask: int, dmask: int):
    """Representation of the minor: contract ``cmask`` then delete ``dmask``."""
    return delete_rows(_pivot_out(rows, n_cols, cmask), n_cols, cmask | dmask)


def profile(rows, n_cols: int):
    """Isomorphism profile (rank, loop count, sorted parallel-class sizes).

    Complete for matroids of rank <= 2; used as a fast matcher there.
    """
    cols = columns(rows, n_cols)
    loops = sum(1 for c in cols if c == 0)
    sizes = {}
    for c in cols:
        if c:
            sizes[c] = sizes.get(c, 0) + 1
    return (rank(rows), loops, tuple(sorted(sizes.values())))


# Nothing in the package calls cols_rank; it stays because bench/run.py wraps it.
def cols_rank(cols) -> int:
    """Rank of a set of packed column vectors."""
    return rank(cols)


def _match(mrows, m_cols: int, kind: int, want) -> bool:
    if kind == KIND_SIMPLE_RANK3:
        cols = columns(mrows, m_cols)
        if any(c == 0 for c in cols):
            return False
        if len(set(cols)) != m_cols:
            return False
        return rank(mrows) == 3
    if kind == KIND_PROFILE:
        return profile(mrows, m_cols) == want
    if kind == KIND_CANONICAL:
        reduced = rref(mrows)
        r = len(reduced)
        if r != want[0]:
            return False
        cols = columns(reduced, m_cols)
        return canon_key_cols(cols, r) == want[1]
    raise ValueError(f"unknown minor matcher kind {kind}")


def _contractions(rows, n: int, c_size: int):
    """Yield (flat, classes) once for each flat of rank ``c_size`` of the
    ``n`` columns: the flat's column mask and, for C any basis of it, the
    parallel classes of M/C, each a column mask under a key of its own.

    The flat is C plus the loops of M/C.  The classes map a column vector
    reduced modulo span(C) to the mask of the columns that reduce to it;
    two columns are parallel in M/C iff their sum lies in span(C), so the
    classes depend on the flat alone.  C runs over independent sets of
    distinct nonzero column vectors, and a flat already read is skipped.
    """
    points = {}
    for j, v in enumerate(columns(rows, n)):
        points[v] = points.get(v, 0) | 1 << j
    loops = points.pop(0, 0)
    points = tuple(points.items())
    seen = set()
    for chosen in combinations(points, c_size):
        # Echelon basis of span(C); a vector reduced by it is its coset's
        # unique representative.
        basis = []
        for v, _ in chosen:
            for low, b in basis:
                if v & low:
                    v ^= b
            if not v:
                break
            basis.append((v & -v, v))
        else:
            flat, classes = loops, {}
            for v, mask in points:
                for low, b in basis:
                    if v & low:
                        v ^= b
                if v:
                    classes[v] = classes.get(v, 0) | mask
                else:
                    flat |= mask
            if flat not in seen:
                seen.add(flat)
                yield flat, classes


def _profile_need(want, full: int, n_cols: int):
    """The class sizes of ``want`` sorted descending, or None when no minor
    of an ``n_cols``-column matroid of rank ``full`` has its shape:
    unsorted or nonpositive sizes, negative loops, a class count that does
    not fit rho, rho > ``full``, or more elements than M/C has.  Raises
    ValueError unless 0 <= rho <= 2."""
    rho, loops, sizes = want
    if not 0 <= rho <= 2:
        raise ValueError(f"profile decisions take wants of rank 0..2, not {rho}")
    if (rho <= full and loops >= 0 and min(sizes, default=1) >= 1
            and list(sizes) == sorted(sizes)
            and (len(sizes) == rho if rho < 2 else len(sizes) >= 2)
            and loops + sum(sizes) <= n_cols - full + rho):
        return sorted(sizes, reverse=True)
    return None


def _dominates(have, need) -> bool:
    """True iff the class sizes ``have`` dominate ``need`` entry by entry,
    both sorted descending."""
    return len(have) >= len(need) and all(h >= w for h, w in zip(have, need))


def profile_present(rows, n_cols: int, wants) -> tuple[bool, ...]:
    """For each profile ``(rho, loops, sizes)`` in ``wants``, 0 <= rho <= 2,
    whether some minor of the ``n_cols``-column matroid has that profile.

    Every minor of rank rho is M/C \\ D with C independent of size
    rank - rho, so M/C has rank rho.  ``_contractions`` reads the parallel
    classes of each M/C; its loops are the flat spanned by C, minus C.
    M/C \\ D keeps loops as loops and classes as classes, and any l loops
    plus any s_i elements from distinct classes give the wanted minor,
    since two distinct nonzero points span a rank-2 binary space.  So a
    minor exists iff some C leaves at least l loops and class sizes that,
    both sorted descending, dominate the wanted ones.  One pass over the
    contractions serves every want of the same rank, and it stops once
    they are all found.  A want whose shape no minor has
    (``_profile_need``) reads False without a pass.  Bits at or above
    ``n_cols`` are ignored.  Equal to ``bool(find_minors(...))`` for the
    profile with ``c_size = rank - rho`` and the matching ``d_size``,
    without the scan.
    """
    rows = [row & ((1 << n_cols) - 1) for row in rows]
    full = rank(rows)
    found = [False] * len(wants)
    # rho -> [(index, loops, sizes sorted descending)] still to find.
    open_wants = {}
    for i, want in enumerate(wants):
        need = _profile_need(want, full, n_cols)
        if need is not None:
            open_wants.setdefault(want[0], []).append((i, want[1], need))
    for rho, pending in open_wants.items():
        c_size = full - rho
        for flat, classes in _contractions(rows, n_cols, c_size):
            loops_here = flat.bit_count() - c_size
            have = sorted((m.bit_count() for m in classes.values()), reverse=True)
            for item in list(pending):
                i, loops, need = item
                if loops_here >= loops and _dominates(have, need):
                    found[i] = True
                    pending.remove(item)
            if not pending:
                break
    return tuple(found)


def split_profile_first(rows, n_cols: int, ymasks, want) -> int:
    """The index of the first y in ``ymasks`` for which ``rows + (y,)``
    (the splitting M_Y) has a minor with the rank <= 2 profile ``want``,
    or -1: ``profile_present(rows + (y,), n_cols, (want,))`` for every y,
    decided in one walk over the contract sets for all of them.

    Ys are bit-sliced (Biham, FSE 1997): P_i is the plane whose bit t is
    set iff column i lies in Y_t.  Write a column of M_Y as (v_i, y_i).  If
    y lies in the row space (Y is a cocycle, y even against every null
    vector), M_Y = M, and one ``profile_present(rows)`` decides every such
    Y.  Otherwise M_Y has rank r + 1 (Raghunathan, Shikare, Waphare,
    Discrete Math. 184, 1998), and a minor of rank rho contracts a set C of c = r + 1 - rho
    columns, independent in M_Y (see ``profile_present``).  A dependency
    of C in M_Y is one in M whose y-parity is even; so if C has two
    independent dependencies Z1, Z2 in M, one of Z1, Z2, Z1 + Z2 stays
    dependent in M_Y.  The walk therefore grows C in column order with an
    echelon basis and cuts it at the second dependency.

    * C independent in M.  Write v_j = red_j + sum of v_i over S_j in C,
      red_j the reduced vector; j lies in the span of C in M_Y iff
      red_j = 0 and its parity q_j = y_j + sum of y_i over S_j is 0, and j,
      k are parallel in M_Y / C iff red_j = red_k and q_j = q_k.  The plane
      of q_j is P_j XOR the planes of S_j, carried along with red_j.  So a
      column with red 0 is a loop where q_j is 0 and lies in the class "e"
      of the new row where it is 1; columns of one nonzero red split into
      two classes by q_j XOR the q of the coset's first column.  M/C has
      rank rho - 1 <= 1, so there are at most three classes.  Class sizes
      are saturating plane counters (bit t of ``ge[k]``: size >= k for
      Y_t), and the sizes, sorted, dominate the wanted ones iff for each k
      at least k classes reach the k-th largest wanted size.  Before any
      plane is read, a leaf is skipped when the counts of its two cosets
      cannot hold the loops and the wanted classes for any Y.
    * C with one dependency Z in M.  C is independent in M_Y iff |Y n Z|
      is odd, and then the span of C in M_Y holds (0, 1), so M_Y / C is
      M / C on E - C, whatever Y is.  Its decision is one scalar, and the
      plane XOR of P_i over Z marks the Ys it serves.

    After a hit only the Ys below the first one stay live, and the walk
    stops once none is.  Columns of M that are loops go last, so the C
    that a loop completes share one span and one decision, and a branch is
    cut when the rank left in the later columns cannot make C span c - 1.
    Bound: the walk reads column subsets, not the distinct points that
    ``profile_present`` reads, since parallel copies differ in Y; so
    parallel copies add contract sets: 32 doubled coloops give about
    32 * 2^31 sets of rank 31.  Raises ValueError unless 0 <= rho <= 2.
    Bits of rows and masks at or above ``n_cols`` are ignored.
    """
    word = (1 << n_cols) - 1
    rows = [row & word for row in rows]
    full = rank(rows)
    need = _profile_need(want, full + 1, n_cols)
    planes = columns([y & word for y in ymasks], n_cols)
    every = (1 << len(ymasks)) - 1
    odd = 0
    for z in nullspace_basis(rows, n_cols):
        parity = 0
        for j in range(n_cols):
            if (z >> j) & 1:
                parity ^= planes[j]
        odd |= parity
    hits = every & ~odd
    if hits and not profile_present(rows, n_cols, (want,))[0]:
        hits = 0
    live = odd & ((hits & -hits) - 1 if hits else every)
    if need is not None and live:
        hits |= _split_walk(columns(rows, n_cols), planes, every, live,
                            full + 1 - want[0], want[1], need)
    return (hits & -hits).bit_length() - 1


def _at_least(planes, top: int, every: int):
    """Saturating counters: bit t of ``ge[k]`` is set iff at least k of
    ``planes`` have bit t, for k = 0..top."""
    ge = [every] + [0] * top
    for x in planes:
        for k in range(top, 0, -1):
            ge[k] |= ge[k - 1] & x
    return ge


def _split_walk(cols, planes, every: int, live: int, c: int, loops: int, need):
    """The live Ys whose splitting has the profile through some contract
    set of ``c`` columns independent in M_Y; see ``split_profile_first``.
    Planes are ints with one bit per Y."""
    order = sorted(range(len(cols)), key=lambda j: not cols[j])
    cols = [cols[j] for j in order]
    planes = [planes[j] for j in order]
    n = len(cols)
    # tail[i]: rank of cols[i:].
    tail = [0] * (n + 1)
    basis = []
    for i in range(n - 1, -1, -1):
        v = cols[i]
        for low, b in basis:
            if v & low:
                v ^= b
        if v:
            basis.append((v & -v, v))
        tail[i] = len(basis)
    top = need[0] if need else 0
    # min_other[m0]: the fewest columns the nonzero coset of an independent
    # leaf needs when m0 columns reduce to 0.  Those m0 hold the loops and
    # at most one wanted class, e; the nonzero coset holds the other two.
    min_other = [n + 1] * (n + 1)
    for in_e, rest in [(0, need)] + [(w, need[:k] + need[k + 1:])
                                     for k, w in enumerate(need)]:
        if len(rest) <= 2:
            for m0 in range(loops + in_e, n + 1):
                min_other[m0] = min(min_other[m0], sum(rest))
    hits = 0

    def span_fits(counts, v):
        # M/(C + i) for a C + i of rank c - 1, from the counts of the columns
        # reduced modulo span(C): adding v to the span merges r with r ^ v.
        low = v & -v
        sizes = {}
        for r, m in counts.items():
            if r & low:
                r ^= v
            sizes[r] = sizes.get(r, 0) + m
        return (sizes.pop(0, 0) - c >= loops
                and _dominates(sorted(sizes.values(), reverse=True), need))

    def plane_fits(red, q, chosen, v, p):
        # The leaf C + i, i reducing to (v, p) modulo span(C).  M/(C + i)
        # has rank rho - 1 <= 1, so one nonzero coset at most.  Its columns
        # split by parity against its first column's; the zero coset's
        # split into loops (parity 0) and the class e.
        low = v & -v
        zero, other, ref = [], [], None
        for j, r in enumerate(red):
            if (chosen >> j) & 1:
                continue
            x = q[j]
            if r & low:
                r ^= v
                x ^= p
            if not r:
                zero.append(x)
            else:
                if ref is None:
                    ref = x
                other.append(x ^ ref)
        fit = _at_least([every & ~x for x in zero], loops, every)[loops] & live
        if not fit:
            return 0
        classes = (_at_least(zero, top, every),
                   _at_least([every & ~x for x in other], top, every),
                   _at_least(other, top, every))
        # Sorted sizes dominate ``need`` iff, for each k, at least k
        # classes have size >= need[k - 1].
        for k, w in enumerate(need, 1):
            fit &= _at_least([ge[w] for ge in classes], k, every)[k]
        return fit

    def hit(plane):
        nonlocal hits, live
        hits |= plane & live
        if hits:
            live &= (hits & -hits) - 1

    def walk(start, size, dep, chosen, red, q):
        # C is ``chosen`` (size columns); dep is the plane of its dependency
        # or None; red and q are every column reduced modulo span(C).
        # Leaves C + i are decided here, from the counts of red.
        rank_now = size - (dep is not None)
        counts = span_here = None
        for i in range(start, n - (c - size) + 1):
            if not (live if dep is None else dep & live) or rank_now + tail[i] < c - 1:
                return
            v, p = red[i], q[i]
            if not v and (dep is not None or not p & live):
                continue
            if size + 1 < c:
                if v:
                    low = v & -v
                    walk(i + 1, size + 1, dep, chosen | 1 << i,
                         [r ^ v if r & low else r for r in red],
                         [x ^ p if r & low else x for r, x in zip(red, q)])
                else:
                    walk(i + 1, size + 1, p, chosen | 1 << i, red, q)
                continue
            if counts is None:
                counts = {}
                for r in red:
                    counts[r] = counts.get(r, 0) + 1
            if dep is None and v:
                m0 = counts.get(0, 0) + counts[v] - c
                if n - c - m0 >= min_other[m0]:
                    hit(plane_fits(red, q, chosen | 1 << i, v, p))
            elif v:
                if span_fits(counts, v):
                    hit(dep)
            else:
                # Every dependent i leaves the span of C as it is.
                if span_here is None:
                    span_here = span_fits(counts, 0)
                if span_here:
                    hit(p)

    if c == 0:
        hit(plane_fits(cols, planes, 0, 0, 0))
    else:
        walk(0, 0, None, 0, cols, planes)
    return hits


def _subset_masks(mask: int, k: int):
    """Masks of the k-element subsets of the set bits of ``mask``."""
    bits = [1 << j for j in range(mask.bit_length()) if (mask >> j) & 1]
    return [sum(s) for s in combinations(bits, k)]


def profile_images(rows, n_cols: int, pattern_rows, pattern_n_cols: int,
                   marked_mask: int):
    """Host column masks that the ``marked_mask`` columns of a rank <= 2
    pattern occupy, over every minor occurrence and every isomorphism.

    A binary matroid of rank <= 2 is determined by its loops and parallel
    classes, and every bijection that keeps loops and classes is an
    isomorphism.  Let the pattern have rank rho, l loops (m_0 of them
    marked) and classes of sizes s_j (m_j marked).  For each flat F of rank
    rank - rho, read by ``_contractions``, and each basis C of F, M/C has
    the loops F - C and the classes P of that item.  If |F - C| >= l, then
    for each injection sigma of pattern classes into classes of M/C with
    |P_sigma(j)| >= s_j, every union of m_0 elements of F - C and m_j of
    P_sigma(j) is an image: deleting the rest of M/C leaves the pattern.
    An m_0-set X of F lies outside some basis C iff F - X has rank
    rank - rho.  Bits of either matrix at or above its column count are
    ignored.
    """
    pattern_rows = [row & ((1 << pattern_n_cols) - 1) for row in pattern_rows]
    rho = rank(pattern_rows)
    if rho > 2:
        raise ValueError(f"profile_images needs a pattern of rank <= 2, not {rho}")
    loops, marked_loops = 0, 0
    by_vector = {}
    for j, v in enumerate(columns(pattern_rows, pattern_n_cols)):
        marked = (marked_mask >> j) & 1
        if v:
            size, count = by_vector.get(v, (0, 0))
            by_vector[v] = (size + 1, count + marked)
        else:
            loops += 1
            marked_loops += marked
    # (s_j, m_j) for each pattern class j.
    shape = list(by_vector.values())
    rows = [row & ((1 << n_cols) - 1) for row in rows]
    c_size = rank(rows) - rho
    images = set()
    if c_size < 0:
        return images
    for flat, classes in _contractions(rows, n_cols, c_size):
        if flat.bit_count() - c_size < loops:
            continue
        loop_picks = [x for x in _subset_masks(flat, marked_loops)
                      if rank_masked(rows, flat & ~x) == c_size]
        parts = list(classes.values())
        for sigma in permutations(parts, len(shape)):
            if any(part.bit_count() < size
                   for part, (size, _) in zip(sigma, shape)):
                continue
            choices = [loop_picks] + [_subset_masks(part, count)
                                      for part, (_, count) in zip(sigma, shape)]
            images.update(sum(pick) for pick in product(*choices))
    return images


def find_minors(rows, n_cols: int, c_size: int, d_size: int, kind: int, want,
                limit: int = 1, avoid: int = 0):
    """Scan minors of the given contract/delete sizes for pattern matches.

    Candidates are generated in lexicographic (delete-set, contract-set)
    index order; contract sets are restricted to independent sets.  Columns
    in ``avoid`` are excluded from both sets.  Returns up to ``limit``
    (cmask, dmask) pairs (all matches when ``limit`` is 0).

    Decide first: for a profile of rank <= 2 with ``avoid`` 0 and
    ``c_size == rank - rho``, it returns ``[]`` when ``profile_present``
    finds no such minor; otherwise the scan runs as always, so the
    witnesses and their order do not change.
    """
    free = [j for j in range(n_cols) if not (avoid >> j) & 1]
    if c_size + d_size > len(free) or c_size < 0 or d_size < 0:
        return []
    if (kind == KIND_PROFILE and not avoid and 0 <= want[0] <= 2
            and c_size == rank_masked(rows, (1 << n_cols) - 1) - want[0]
            and not profile_present(rows, n_cols, (want,))[0]):
        return []
    out = []
    for d_idx in combinations(free, d_size):
        dmask = 0
        for j in d_idx:
            dmask |= 1 << j
        rest = [j for j in free if not (dmask >> j) & 1]
        for c_idx in combinations(rest, c_size):
            cmask = 0
            for j in c_idx:
                cmask |= 1 << j
            if rank_masked(rows, cmask) != c_size:
                continue
            mrows = minor_rows(rows, n_cols, cmask, dmask)
            if _match(mrows, n_cols - c_size - d_size, kind, want):
                out.append((cmask, dmask))
                if limit and len(out) >= limit:
                    return out
    return out


def _images_below(cols, bound):
    """Yield the images of ``cols`` that sort below ``bound``, each below
    the one before, over the maps sending an ordered basis of span(cols),
    chosen among the columns, to 1, 2, 4, ...; depth first.

    The least of them is the least image T* over GL(r, 2), since T* holds
    1, 2, ..., 2^(s-1) for s = rank(cols), and their preimages form such a
    basis.  Were that not so, let k <= s be least with 2^(k-1) not in T*,
    and w the least element of T* of bit length >= k (T* has rank s >= k);
    w > 2^(k-1).  A GL map fixing 1, ..., 2^(k-2) and sending w to 2^(k-1)
    fixes the elements of T* below w, all in the span of 1, ..., 2^(k-2),
    and sends no other element there.  Its sorted image keeps them and puts
    2^(k-1) < w next, so it sorts below T*: a contradiction.

    With i basis vectors chosen, the columns in their span have images
    below 2^i and all others at least 2^i.  A branch is cut when the
    former, sorted and followed by 2^i, sort above ``bound``.
    """
    points = sorted(set(cols) - {0})
    best = list(bound)

    def walk(coords):
        head = sorted([coords[c] for c in cols if c in coords])
        head.append(len(coords))
        if head > best[:len(head)]:
            return
        if len(head) > len(cols):
            best[:] = head[:-1]
            yield tuple(best)
        for p in points:
            if p not in coords:
                grown = dict(coords)
                grown.update((v ^ p, c | len(coords)) for v, c in coords.items())
                yield from walk(grown)

    yield from walk({0: 0})


def _checked_columns(cols, r: int):
    """``cols`` as a list; each must lie in GF(2)^r when r > 0."""
    cols = list(cols)
    if r < 0 or r and any(c >> r for c in cols):
        raise ValueError(f"canonical forms need r >= 0 and columns in GF(2)^r; "
                         f"r = {r}")
    return cols


def canon_key_cols(cols, r: int):
    """Lexicographically least sorted column multiset over all GL(r,2) maps:
    the last image that ``_images_below`` yields."""
    cols = _checked_columns(cols, r)
    best = sorted(cols)
    if r:
        for best in _images_below(cols, best):
            pass
    return tuple(best)


def is_canonical(cols_sorted, r: int) -> bool:
    """True iff the sorted multiset is the least member of its GL(r,2) orbit:
    the walk of ``_images_below`` stops at the first image below it."""
    if r == 0:
        return True
    cols = _checked_columns(cols_sorted, r)
    return next(_images_below(cols, cols), None) is None
