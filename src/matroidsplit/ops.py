"""The splitting operation family on binary matroids.

``splitting`` appends one row with 1s exactly on the chosen element set T;
``element_splitting`` additionally adjoins a new element whose column is the
indicator of that row.  ``three_fold`` composes two splittings after
adjoining three loops p, q, r, and ``three_fold_ghafari`` builds the same
extension from two element splittings plus a closing column.
"""

from __future__ import annotations

from .gf2 import MAX_COLS
from .matroid import BinaryMatroid, _check_label

# Every construction here builds its result with BinaryMatroid._derived:
# inherited labels were validated with ``m``, each new label is checked
# below, and rows are ``m``'s rows plus label masks or new columns.


def _check_new_label(labels, label: str) -> None:
    _check_label(label)
    if label in labels:
        raise ValueError(f"new element label {label!r} already in the ground set")


def _check_room(n_cols: int) -> None:
    if n_cols >= MAX_COLS:
        raise ValueError("column limit exceeded")


def _inside_cocircuit(m: BinaryMatroid, subset) -> bool:
    """True iff ``subset`` is a proper subset of some cocircuit of ``m``."""
    if not set(subset) <= set(m.labels):
        return False
    mask = m._label_mask(subset)
    return any(mask & c == mask != c for c in m._cocircuit_masks)


def splitting(m: BinaryMatroid, t) -> BinaryMatroid:
    """Append a row with 1s exactly on the columns of ``t``.

    The ground set is unchanged; the rank grows by one unless the indicator
    of ``t`` already lies in the row space.
    """
    t = tuple(t)
    if not t:
        raise ValueError("splitting set must be nonempty")
    return BinaryMatroid._derived(m.labels, m.rep.rows + (m._label_mask(t),),
                                  m.rep.n_cols)


def element_splitting(m: BinaryMatroid, t, new_label: str) -> BinaryMatroid:
    """Splitting on ``t`` plus a new element carrying the new row's indicator."""
    _check_new_label(m.labels, new_label)
    t = tuple(t)
    if not t:
        raise ValueError("splitting set must be nonempty")
    mask = m._label_mask(t)
    n = m.rep.n_cols
    _check_room(n)
    return BinaryMatroid._derived(m.labels + (new_label,),
                                  m.rep.rows + (mask | 1 << n,), n + 1)


def add_loops(m: BinaryMatroid, new_labels) -> BinaryMatroid:
    """Extend the ground set by fresh loops (all-zero columns)."""
    labels = m.labels
    for lab in new_labels:
        _check_new_label(labels, lab)
        _check_room(len(labels))
        labels = labels + (lab,)
    return BinaryMatroid._derived(labels, m.rep.rows, len(labels))


def _check_fold_pair(m: BinaryMatroid, x: str, y: str) -> None:
    if x == y:
        raise ValueError("the two chosen elements must differ")
    m._label_mask((x, y))
    if not _inside_cocircuit(m, (x, y)):
        raise ValueError(f"{{{x},{y}}} not a proper subset of any cocircuit")


def three_fold_steps(m: BinaryMatroid, x: str, y: str,
                     new_labels=("p", "q", "r")):
    """The three intermediate matroids of the 3-fold construction.

    Returns (loops adjoined, first splitting, second splitting); the last
    entry is the 3-fold itself.  Requires {x, y} to be a proper subset of
    some cocircuit.
    """
    p, q, r = new_labels
    if len({p, q, r}) != 3:
        raise ValueError("the three new labels must be pairwise distinct")
    _check_fold_pair(m, x, y)
    extended = add_loops(m, (p, q, r))
    first = splitting(extended, (x, y, p, r))
    second = splitting(first, (x, q, r))
    return extended, first, second


def three_fold(m: BinaryMatroid, x: str, y: str,
               new_labels=("p", "q", "r")) -> BinaryMatroid:
    """Adjoin loops p, q, r, then split on {x, y, p, r} and on {x, q, r}."""
    return three_fold_steps(m, x, y, new_labels)[2]


def three_fold_ghafari(m: BinaryMatroid, t, t_prime,
                       new_labels=("p", "q", "r")) -> BinaryMatroid:
    """3-fold built from element splittings: add p on ``t``, q on ``t_prime``,
    then close with a column r equal to p + q, making {p, q, r} a circuit."""
    t = tuple(t)
    t_prime = tuple(t_prime)
    p, q, r = new_labels
    if len({p, q, r}) != 3:
        raise ValueError("the three new labels must be pairwise distinct")
    if not t_prime or not set(t_prime) < set(t):
        raise ValueError("second splitting set must be a nonempty proper subset "
                         "of the first")
    if not _inside_cocircuit(m, t):
        raise ValueError(f"{{{','.join(sorted(frozenset(t)))}}} not a proper "
                         "subset of any cocircuit")
    with_q = element_splitting(element_splitting(m, t, p), t_prime, q)
    _check_new_label(with_q.labels, r)
    n = with_q.rep.n_cols
    _check_room(n)
    # p and q are the last two columns, each a unit vector on one of the
    # last two rows, so r = p + q is 1 on exactly those rows.
    rows = with_q.rep.rows
    return BinaryMatroid._derived(
        with_q.labels + (r,),
        rows[:-2] + (rows[-2] | 1 << n, rows[-1] | 1 << n), n + 1)


def admissible_pairs(m: BinaryMatroid) -> frozenset[frozenset[str]]:
    """All 2-subsets of the ground set properly contained in a cocircuit."""
    pairs = set()
    for cocircuit in m.cocircuits():
        if len(cocircuit) < 3:
            continue
        members = sorted(cocircuit)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pairs.add(frozenset((members[i], members[j])))
    return frozenset(pairs)
