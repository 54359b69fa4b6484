"""Pure-Python GF(2) kernel: bit-packed rows, minor search, canonical forms.

Reference implementation of the kernel API (``__all__``).  The hand-written
C extension ``_speed.c`` compiles the per-candidate subset named in
``_kernel.__init__``, returning the same values for ints in [0, 2^64); the
rest is served from here alone.

Canonical forms minimise over ordered bases of the columns, not over all
of GL(r, 2), and reach the same least image (``_images_below``).

Rank <= 2 patterns are read off the contractions M/C, one per flat of the
right rank (``_contractions``).  ``profile_present`` decides from them
whether a minor with a given profile exists, and is the one rank <= 2
decision; ``find_minors`` only scans.  ``profile_images`` reads the marked
images of such a pattern from the same contractions.

Conventions:
  * a matrix is a sequence of ints, bit ``j`` of a row = entry in column ``j``
  * a column vector over rows 0..r-1 is an int with bit ``i`` = entry in row ``i``
  * masks address columns the same way rows do
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product

__all__ = [
    "BACKEND", "KIND_SIMPLE_RANK3", "KIND_PROFILE", "KIND_CANONICAL",
    "rank", "rank_masked", "cols_rank", "rref", "in_rowspace",
    "nullspace_basis", "space_min_supports", "columns", "delete_rows",
    "contract_rows", "profile", "profile_images", "profile_present",
    "find_minors", "canon_key_cols", "is_canonical",
]

BACKEND = "pure"

# Matches `kind` arguments of find_minors.
KIND_SIMPLE_RANK3 = 1
KIND_PROFILE = 2
KIND_CANONICAL = 3

_MAX_SPAN = 20  # space_min_supports' basis limit; SPAN_LIMIT in _speed.c


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
    reduced, _ = _rref_pivots(rows)
    return reduced


def _rref_pivots(rows):
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
    reduced, pivots = _rref_pivots(rows)
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

    Enumerates all 2^len(basis) combinations, so a basis of more than
    ``_MAX_SPAN`` vectors raises ValueError.
    """
    basis = tuple(basis)
    if len(basis) > _MAX_SPAN:
        raise ValueError(f"span enumeration limited to {_MAX_SPAN} basis vectors")
    vectors = [0]
    for b in basis:
        vectors.extend(v ^ b for v in list(vectors))
    # Taken in order of weight, every vector strictly inside v comes before
    # it, so v is minimal iff no minimal vector kept so far lies inside it.
    # The span is sorted in place, with no key tuples: 2^20 ints at the limit.
    vectors.sort(key=int.bit_count)
    minimal = []
    for v in vectors:
        if v and not any(u & v == u for u in minimal):
            minimal.append(v)
    minimal.sort()
    return tuple(minimal)


def columns(rows, n_cols: int):
    """Transpose packed rows into packed columns; given packed columns and
    the number of rows, it gives the rows back."""
    cols = [0] * n_cols
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    return tuple(cols)


@lru_cache(maxsize=4096)
def _column_runs(keep: int):
    """(span, shift) for each run of consecutive set bits of ``keep``, in
    order: the run moves down by ``shift`` to follow the runs before it."""
    runs = []
    width = 0
    while keep:
        low = (keep & -keep).bit_length() - 1
        run = keep >> low
        length = (~run & (run + 1)).bit_length() - 1
        span = ((1 << length) - 1) << low
        runs.append((span, low - width))
        width += length
        keep ^= span
    return tuple(runs)


def delete_rows(rows, n_cols: int, dmask: int):
    """Drop the columns in ``dmask`` and compact the survivors in order.

    Bits at or above ``n_cols`` are dropped too, whatever ``dmask`` says
    there.  Each run of consecutive kept columns moves with one mask and one
    shift; the runs of a kept-column mask are computed once and cached.
    Nothing is checked: callers pass kernel or validated rows.
    """
    runs = _column_runs(((1 << n_cols) - 1) & ~dmask)
    out = []
    for row in rows:
        packed = 0
        for span, shift in runs:
            packed |= (row & span) >> shift
        out.append(packed)
    return tuple(out)


def _pivot_out(rows, n_cols: int, cmask: int):
    """Eliminate the columns in ``cmask`` by pivoting; no column compaction.

    For each nonzero column in ``cmask`` below ``n_cols``, in increasing
    order, the pivot row is removed after clearing the column elsewhere;
    zero columns (loops) are left to the subsequent deletion.  Rows that
    become zero are retained.
    """
    work = list(rows)
    cmask &= (1 << n_cols) - 1
    while cmask:
        bit = cmask & -cmask
        cmask ^= bit
        pivot = next((i for i, row in enumerate(work) if row & bit), -1)
        if pivot < 0:
            continue
        pv = work.pop(pivot)
        work = [row ^ pv if row & bit else row for row in work]
    return tuple(work)


def contract_rows(rows, n_cols: int, cmask: int):
    """Contract the columns in ``cmask``: pivot, eliminate, drop row+column."""
    return delete_rows(_pivot_out(rows, n_cols, cmask), n_cols, cmask)


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
        # A flat with fewer classes than each open want needs dominates none.
        fewest = min(len(need) for _, _, need in pending)
        for flat, classes in _contractions(rows, n_cols, c_size):
            if len(classes) < fewest:
                continue
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
    """
    free = [j for j in range(n_cols) if not (avoid >> j) & 1]
    if c_size + d_size > len(free) or c_size < 0 or d_size < 0:
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
            mrows = delete_rows(_pivot_out(rows, n_cols, cmask), n_cols, cmask | dmask)
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
    the walk of ``_images_below`` stops at the first image below it.

    The walk reads only the columns, so r serves to validate them and
    nothing else: columns of rank s below 2^s get the same answer for
    every r >= s."""
    if r == 0:
        return True
    cols = _checked_columns(cols_sorted, r)
    return next(_images_below(cols, cols), None) is None
