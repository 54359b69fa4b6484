"""Pure-Python GF(2) kernel: bit-packed rows, minor search, canonical forms.

Reference implementation of the kernel API (``__all__``).  The hand-written
C extension ``_speed.c`` compiles the per-candidate subset named in
``_kernel.__init__``, returning the same values for ints in [0, 2^64); the
rest is served from here alone.

Canonical forms minimise over ordered bases of the columns, not over all
of GL(r, 2), and reach the same least image.  One walk over those bases,
``_gl_walk``, shaped like ``gl_dfs`` in ``_speed.c``, grows each branch's
sorted images incrementally and cuts the branch once they, followed by the
least image still to come, sort above its bound.  It gives three answers:
the least image (``canon_key_cols``), whether an image sorts below the
bound (``is_canonical`` stops at the first), and whether one equals it
(``find_minors`` for ``KIND_CANONICAL`` matches a candidate iff none is
below the wanted key and one equals it, so no candidate's key is built).

Rank <= 2 patterns are read off the contractions M/C, one per flat of the
right rank (``_contractions``).  ``profile_present`` decides from them
whether a minor with a given profile exists, and is the one rank <= 2
decision; ``find_minors`` only scans.  F's profile (2, 0, (1, 2, 2)), the
splitting question, is decided apart (``_f_present``): with loops and
coloops dropped, on M or on the dual M*, whichever walk has fewer candidate
sets, and on M* as a contraction to rank 3 with 5 distinct points.  The
compiled ``profile_present`` walks M alone.  ``profile_images`` reads the
marked images of such a pattern from the same contractions.
``splitting_counts``, pure-only and served on both backends, answers F's
question and M(K4)'s for every splitting M_w of one matroid at once, from
one walk over the contractions of its dual to rank 4 (proved there).

Conventions:
  * a matrix is a sequence of ints, bit ``j`` of a row = entry in column ``j``
  * a column vector over rows 0..r-1 is an int with bit ``i`` = entry in row ``i``
  * masks address columns the same way rows do
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations, permutations, product
from math import comb
from operator import or_

__all__ = [
    "BACKEND", "KIND_SIMPLE_RANK3", "KIND_PROFILE", "KIND_CANONICAL",
    "rank", "rank_masked", "cols_rank", "rref", "nullspace_basis",
    "space_min_supports", "columns", "delete_rows", "contract_rows",
    "profile", "profile_images", "profile_present", "splitting_counts", "find_minors",
    "canon_key_cols", "is_canonical",
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
    shift, one comprehension when there is a single run; the runs of a
    kept-column mask are computed once and cached.  Nothing is checked:
    callers pass kernel or validated rows.
    """
    runs = _column_runs(((1 << n_cols) - 1) & ~dmask)
    if len(runs) == 1:
        [(span, shift)] = runs
        return tuple([(row & span) >> shift for row in rows])
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
        for i, pv in enumerate(work):
            if pv & bit:
                del work[i]
                work = [row ^ pv if row & bit else row for row in work]
                break
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
        # The walk compares the images with a bound of their own length.
        reduced = rref(mrows)
        if len(reduced) != want[0] or len(want[1]) != m_cols:
            return False
        _, below, equal = _gl_walk(columns(reduced, m_cols), want[1], False)
        return equal and not below
    raise ValueError(f"unknown minor matcher kind {kind}")


def _contractions(cols, c_size: int):
    """Yield (flat, classes, basis) once for each flat of rank ``c_size``
    of the columns ``cols``: the flat's column mask; for C any basis of it,
    the parallel classes of M/C, each a column mask under a key of its own;
    and the echelon basis of span(C) that reduced the columns, as
    (lowest bit, vector) pairs.

    The flat is C plus the loops of M/C.  The classes map a column vector
    reduced modulo span(C) to the mask of the columns that reduce to it;
    two columns are parallel in M/C iff their sum lies in span(C), so the
    classes depend on the flat alone.  C runs over independent sets of
    distinct nonzero column vectors, and a flat already read is skipped.
    """
    points = {}
    for j, v in enumerate(cols):
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
                yield flat, classes, basis


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


def _is_f(want) -> bool:
    """Whether ``want`` is F's profile (2, 0, (1, 2, 2))."""
    rho, loops, sizes = want
    return rho == 2 and loops == 0 and list(sizes) == [1, 2, 2]


def _f_present(rows, n_cols: int) -> bool:
    """Whether the matroid M of ``rows`` (no bits at or above ``n_cols``)
    has a minor with F's profile (2, 0, (1, 2, 2)), walked on M or on M*,
    whichever has fewer candidate sets.

    Loops and coloops are dropped first: F has neither, and a loop or
    coloop of M is one in every minor that keeps it, so no F minor keeps
    one; deleting it gives the same matroid as contracting it.  On what is
    left, of rank r on n elements with p distinct nonzero points,
    ``_contractions`` chooses C of r - 2 points, and F is there iff some
    M/C has classes dominating (2, 2, 1).  By the lemma in
    ``profile_present`` it is equally there iff some M*/D, D of n - r - 3
    of the p* points of M*, has at least 5 distinct nonzero points.  M* is
    read only when it chooses fewer points, and walked only when
    C(p*, n - r - 3) < C(p, r - 2): fewer points chosen among more can
    still be the larger walk, as on 32 parallel pairs.
    """
    reduced, _ = _rref_pivots(rows)
    # A coloop's rref row is its pivot bit alone; a loop is in no row.
    coloops = sum(row for row in reduced if not row & (row - 1))
    strip = ((1 << n_cols) - 1) & ~reduce(or_, reduced, 0) | coloops
    if strip:
        reduced = delete_rows([row for row in reduced if row & (row - 1)], n_cols, strip)
        n_cols -= strip.bit_count()
    c_size, d_size = len(reduced) - 2, n_cols - len(reduced) - 3
    if c_size < 0 or d_size < 0:
        return False
    cols = columns(reduced, n_cols)
    if d_size < c_size:
        # The rref is [I | A] up to column order, and [A^T | I] represents
        # M*: a pivot column's vector in M* is its row without the pivot
        # columns, and the others are the unit vectors.  The walk reads
        # classes, not positions, so the order of the columns is free.
        pivots = reduce(or_, (row & -row for row in reduced))
        dual = delete_rows(reduced, n_cols, pivots) + tuple(
            1 << t for t in range(n_cols - len(reduced)))
        # With loops and coloops gone, no column of M or M* is zero.
        if comb(len(set(dual)), d_size) < comb(len(set(cols)), c_size):
            return any(len(classes) >= 5 for _, classes, _ in _contractions(dual, d_size))
    # Classes dominate (2, 2, 1) iff there are at least 3 of them and at
    # least 2 hold more than one column.
    return any(len(classes) >= 3 and sum(m & (m - 1) > 0 for m in classes.values()) >= 2
               for _, classes, _ in _contractions(cols, c_size))


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

    F's profile (2, 0, (1, 2, 2)), the splitting question, is decided
    apart, on M or on its dual M*, whichever walk is cheaper
    (``_f_present``), by this lemma: M has an F minor iff M* has an
    independent set D with |D| = n - r - 3 such that M*/D has at least 5
    distinct nonzero points.  When every want is F's, no rank is taken
    first: ``_f_present`` reads False wherever ``_profile_need`` would
    refuse F, rank below 2 or corank below 3, since dropping loops and
    coloops raises neither the rank nor the corank.
    Proof: F has rank 2 and corank 3, and its cocircuits, the complements
    of its parallel classes, have 3 or 4 elements, so F* is simple of
    rank 3 on 5 elements: 5 distinct nonzero points of PG(2, 2).  GL(3, 2)
    is 2-transitive on the 7 points, so it sends the 2 points that one
    such set leaves out onto those that any other leaves out: any 5
    distinct points of PG(2, 2) give F*.  They span GF(2)^3, since a plane
    holds only 3.  M has an F minor iff M* has an F* minor, M*/D \\ X with
    D independent in M* and |D| = r(M*) - 3 = n - r - 3, so that M*/D has
    rank 3; it keeps 5 elements on distinct nonzero points iff it has at
    least 5 such points.  ``_contractions`` on the columns of M* reads
    them as the classes of M*/D.  A corank below 3 leaves no F minor, as
    ``_profile_need`` says for every want.
    """
    rows = [row & ((1 << n_cols) - 1) for row in rows]
    if wants and all(map(_is_f, wants)):
        return (_f_present(rows, n_cols),) * len(wants)
    full = rank(rows)
    found = [False] * len(wants)
    # rho -> [(index, loops, sizes sorted descending)] still to find.
    open_wants = {}
    for i, want in enumerate(wants):
        need = _profile_need(want, full, n_cols)
        if need is None:
            continue
        if _is_f(want):
            found[i] = _f_present(rows, n_cols)
        else:
            open_wants.setdefault(want[0], []).append((i, want[1], need))
    for rho, pending in open_wants.items():
        c_size = full - rho
        # A flat with fewer classes than each open want needs dominates none.
        fewest = min(len(need) for _, _, need in pending)
        for flat, classes, _ in _contractions(columns(rows, n_cols), c_size):
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


def splitting_counts(rows, n_cols: int) -> dict:
    """For the matroid M of ``rows``, of corank c, each nonzero coset key w
    whose splitting M_w has an F minor, mapped to its count: the most
    distinct nonzero points of a rank-3 contraction of (M_w)*.  M_w has
    the rows plus the row w, and w is a vector with no pivot bit of
    rref(rows), the XOR of ``BinaryMatroid._label_cosets``.  M_w has an F
    minor iff w is a key, and an M(K4) minor, so is no binary gammoid, iff
    its count is at least 6.  Bits at or above ``n_cols`` are ignored.

    The points of M* are the cosets: rref(rows) is [I | A] up to column
    order, M* is [A^T | I], and column j of M* is bit j plus the rref row
    whose pivot it is, read on the non-pivot columns.  M_w is the element
    splitting on w, rows plus the row w with a new element e, with e
    deleted.  The cycles of that splitting are the cycles x of M with x.w
    at e, so its dual is M* with e added at the point w, and
    (M_w)* = M*/w: the points of M* taken modulo w (Oxley, *Matroid
    Theory*, 2nd ed., Ch. 2-3 and 6).  By the lemma in
    ``profile_present``, F* is any 5 distinct points of PG(2, 2).  M(K4)
    is self-dual and is any 6 distinct points of PG(2, 2), the plane less
    a point, since GL(3, 2) is transitive on points.  (M_w)* has rank
    c - 1, so it has an F* (M(K4)) minor iff some independent D of c - 4
    points of M*/w leaves at least 5 (6) distinct nonzero points in
    (M*/w)/D.  D is independent in M*/w iff its span V in M* misses w,
    and (M*/w)/D has the points of M* modulo V + w.  With R the distinct
    nonzero points modulo V (``_contractions``' classes) and w' the
    residue of w, that leaves

        |R| - [w' in R] - #{pairs of R that sum to w'}

    points: w' turns zero, and each pair {a, a + w'} becomes one.  The
    count depends on V and w' alone, so one walk over the flats V of rank
    c - 4 reads it for the 15 nonzero residues of the rank-4 quotient at
    once, and each w in w' + V takes the largest over V.  With c < 4,
    every M_w has corank below 3, the corank of F and of M(K4), and there
    is no key.
    """
    reduced, _ = _rref_pivots([row & ((1 << n_cols) - 1) for row in rows])
    corank = n_cols - len(reduced)
    counts = {}
    if corank < 4:
        return counts
    pivot_rows = {row & -row: row for row in reduced}
    points = [(1 << j) ^ pivot_rows.get(1 << j, 0) for j in range(n_cols)]
    for _, classes, basis in _contractions(points, corank - 4):
        if len(classes) < 5:
            continue
        span = [0]
        for _, b in basis:
            span += [v ^ b for v in span]
        pairs = {}
        for a, b in combinations(classes, 2):
            pairs[a ^ b] = pairs.get(a ^ b, 0) + 1
        # The classes span the quotient, since the points span M*.
        quotient = [0]
        for a in classes:
            if a not in quotient:
                quotient += [q ^ a for q in quotient]
        for residue in quotient[1:]:
            count = len(classes) - (residue in classes) - pairs.get(residue, 0)
            if count >= 5:
                for v in span:
                    if counts.get(residue ^ v, 0) < count:
                        counts[residue ^ v] = count
    return counts


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
    rank - rho; with no marked loop X is empty and F itself has that rank,
    so nothing is tested.  Two pattern classes with equal (s_j, m_j) give
    the same images when sigma swaps their classes, so each unordered
    choice of classes for them is read once, and each class's m_j-subsets
    are built once per flat.  Bits of either matrix at or above its column
    count are ignored.
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
    # (s_j, m_j) for each pattern class j, equal entries side by side; sigma
    # gives equal entries classes in increasing mask order, once each.
    shape = sorted(by_vector.values())
    ties = [j for j in range(1, len(shape)) if shape[j] == shape[j - 1]]
    rows = [row & ((1 << n_cols) - 1) for row in rows]
    c_size = rank(rows) - rho
    images = set()
    if c_size < 0:
        return images
    for flat, classes, _ in _contractions(columns(rows, n_cols), c_size):
        if flat.bit_count() - c_size < loops:
            continue
        loop_picks = ([x for x in _subset_masks(flat, marked_loops)
                       if rank_masked(rows, flat & ~x) == c_size]
                      if marked_loops else [0])
        picks = {}
        for sigma in permutations(classes.values(), len(shape)):
            if (any(sigma[j - 1] > sigma[j] for j in ties)
                    or any(part.bit_count() < size
                           for part, (size, _) in zip(sigma, shape))):
                continue
            choices = [loop_picks]
            for part, (_, count) in zip(sigma, shape):
                if (part, count) not in picks:
                    picks[part, count] = _subset_masks(part, count)
                choices.append(picks[part, count])
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


def _gl_walk(cols, bound, keep: bool):
    """Walk the sorted images of ``cols`` under the maps sending an ordered
    basis of span(cols), chosen among the columns, to 1, 2, 4, ..., depth
    first, against ``bound`` of the same length, as ``gl_dfs`` in
    ``_speed.c`` does.  Return (least, below, equal): the least image found,
    else ``bound``; whether one sorts below ``bound``, where the walk stops;
    and whether one equals it.  With ``keep`` it goes on instead, with each
    image below as its bound, and only ``least`` answers.

    The least of them is the least image T* over GL(r, 2), since T* holds
    1, 2, ..., 2^(s-1) for s = rank(cols), and their preimages form such a
    basis.  Were that not so, let k <= s be least with 2^(k-1) not in T*,
    and w the least element of T* of bit length >= k (T* has rank s >= k);
    w > 2^(k-1).  A GL map fixing 1, ..., 2^(k-2) and sending w to 2^(k-1)
    fixes the elements of T* below w, all in the span of 1, ..., 2^(k-2),
    and sends no other element there.  Its sorted image keeps them and puts
    2^(k-1) < w next, so it sorts below T*: a contradiction.

    A node with i basis vectors chosen carries its span as a map from its
    size = 2^i vectors to images below size, and the sorted columns still
    outside; the images of those inside, its head, are the first entries
    of ``best``.  Choosing p next sends c ^ p to span[c ^ p] | size, so a
    child's new images, read from the parent's map, lie in [size, 2 size)
    and follow the head sorted; every image below the child starts so,
    then an entry of at least 2 size.  New images above the next entries
    of ``best`` cut the child; below them, the walk stops, or lowers
    ``best`` to them followed by ``top``, above every image, and goes down;
    equal, the child equals ``best`` when full, and is cut when the next
    entry of ``best`` is below 2 size.
    """
    best = list(bound)
    top = 1 << len(cols)
    equal = False
    outside = sorted(c for c in cols if c)
    # Every image starts with the images of the zero columns, 0 each.
    zeros = [0] * (len(cols) - len(outside))
    if zeros != best[:len(zeros)] or not outside:
        return tuple(best), zeros < best[:len(zeros)], zeros == best

    def dfs(span, at, outside):
        # The head is best[:at].  True: an image sorts below best, and the
        # walk stops.
        nonlocal equal
        size = len(span)
        last = None
        get = span.get
        for p in outside:
            if p == last:
                continue
            last = p
            new, rest = [], []
            for c in outside:
                q = get(c ^ p)
                if q is None:
                    rest.append(c)
                else:
                    new.append(q | size)
            new.sort()
            end = at + len(new)
            part = best[at:end]
            if new > part:
                continue
            if new < part:
                if not keep:
                    return True
                best[at:] = new + [top] * len(rest)
            elif not rest:
                equal = True
            elif best[end] < 2 * size:
                continue
            if rest:
                grown = {v ^ p: q | size for v, q in span.items()}
                grown.update(span)
                if dfs(grown, end, rest):
                    return True
        return False

    below = dfs({0: 0}, len(zeros), outside)
    return tuple(best), below, equal


def _checked_columns(cols, r: int):
    """``cols`` as a list; each must lie in GF(2)^r when r > 0."""
    cols = list(cols)
    if r < 0 or r and any(c >> r for c in cols):
        raise ValueError(f"canonical forms need r >= 0 and columns in GF(2)^r; "
                         f"r = {r}")
    return cols


def canon_key_cols(cols, r: int):
    """Lexicographically least sorted column multiset over all GL(r,2) maps:
    the least image of a ``_gl_walk`` that keeps going."""
    cols = _checked_columns(cols, r)
    if not r:
        return tuple(sorted(cols))
    return _gl_walk(cols, sorted(cols), True)[0]


def is_canonical(cols_sorted, r: int) -> bool:
    """True iff the sorted multiset is the least member of its GL(r,2) orbit:
    ``_gl_walk`` stops at the first image below it.

    The walk reads only the columns, so r serves to validate them and
    nothing else: columns of rank s below 2^s get the same answer for
    every r >= s."""
    if r == 0:
        return True
    cols = _checked_columns(cols_sorted, r)
    return not _gl_walk(cols, cols, False)[1]
