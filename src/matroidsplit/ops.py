"""The splitting operation family on binary matroids.

``splitting`` appends one row with 1s exactly on the chosen element set T;
``element_splitting`` additionally adjoins a new element whose column is the
indicator of that row.  ``three_fold`` composes two splittings after
adjoining three loops p, q, r, and ``three_fold_ghafari`` builds the same
extension from two element splittings plus a closing column.

Both 3-fold constructions share one row-level core, :func:`three_fold_rows`,
which takes the host's rows and two label masks and returns the extension's
rows.  The core checks the column limit; the public functions validate the
rest of their arguments and wrap the core's rows.  ``verify`` decides the
3-fold sweep without building a matroid: ``_kernel.law_decisions`` builds
the same rows in standard form from the host's rref and the masks'
row-space cosets.
"""

from __future__ import annotations

from itertools import combinations

from .gf2 import check_room
from .matroid import BinaryMatroid, _check_label

# Every construction here builds its result with BinaryMatroid._derived:
# inherited labels were validated with ``m``, each new label is checked
# below, and rows are ``m``'s rows plus label masks or new columns.


def _check_new_label(labels, label: str) -> None:
    _check_label(label)
    if label in labels:
        raise ValueError(f"new element label {label!r} already in the ground set")


def _inside_cocircuit(m: BinaryMatroid, subset) -> bool:
    """True iff ``subset`` is a proper subset of some cocircuit of ``m``."""
    mask = m._label_mask(subset)
    return any(mask & c == mask != c for c in m._cocircuit_masks)


def _split_mask(m: BinaryMatroid, t) -> int:
    """The mask of the splitting set ``t``, nonempty with no label repeated."""
    t = tuple(t)
    if not t:
        raise ValueError("splitting set must be nonempty")
    mask = m._label_mask(t)
    if mask.bit_count() != len(t):
        raise ValueError(f"splitting set repeats a label: {','.join(t)}")
    return mask


def splitting(m: BinaryMatroid, t) -> BinaryMatroid:
    """Append a row with 1s exactly on the columns of ``t``.

    The ground set is unchanged; the rank grows by one unless the indicator
    of ``t`` already lies in the row space.
    """
    return BinaryMatroid._derived(m.labels, m.rep.rows + (_split_mask(m, t),),
                                  m.rep.n_cols)


def element_splitting(m: BinaryMatroid, t, new_label: str) -> BinaryMatroid:
    """Splitting on ``t`` plus a new element carrying the new row's indicator."""
    _check_new_label(m.labels, new_label)
    mask = _split_mask(m, t)
    n = m.rep.n_cols
    check_room(n)
    return BinaryMatroid._derived(m.labels + (new_label,),
                                  m.rep.rows + (mask | 1 << n,), n + 1)


def add_loops(m: BinaryMatroid, new_labels) -> BinaryMatroid:
    """Extend the ground set by fresh loops (all-zero columns)."""
    labels = m.labels
    for lab in new_labels:
        _check_new_label(labels, lab)
        check_room(len(labels))
        labels = labels + (lab,)
    return BinaryMatroid._derived(labels, m.rep.rows, len(labels))


def three_fold_rows(rows, n_cols: int, xy: int, x: int) -> tuple[int, ...]:
    """The rows of the 3-fold of the matroid with ``rows`` on ``n_cols``
    columns, for the masks ``xy`` of {x, y} and ``x`` of {x}.

    Three zero columns p, q, r (bits ``n_cols`` to ``n_cols + 2``) are
    adjoined, then the splittings on {x, y, p, r} and on {x, q, r} append
    one row each.  Raises ValueError when the three new columns do not fit
    under ``MAX_COLS``; every 3-fold matroid that is built gets its rows
    here.
    """
    check_room(n_cols, 3)
    p, q, r = 1 << n_cols, 1 << n_cols + 1, 1 << n_cols + 2
    return tuple(rows) + (xy | p | r, x | q | r)


def _new_fold_labels(m: BinaryMatroid, new_labels) -> tuple[str, ...]:
    """``m``'s labels plus the three new ones, each checked."""
    if len(set(new_labels)) != 3:
        raise ValueError("the three new labels must be pairwise distinct")
    for lab in new_labels:
        _check_new_label(m.labels, lab)
    return m.labels + tuple(new_labels)


def _fold(m: BinaryMatroid, x: str, y: str, new_labels):
    """(labels, rows) of the 3-fold of ``m`` on {x, y}, validated."""
    labels = _new_fold_labels(m, new_labels)
    if x == y:
        raise ValueError("the two chosen elements must differ")
    xy = m._label_mask((x, y))
    if not _inside_cocircuit(m, (x, y)):
        raise ValueError(f"{{{x},{y}}} not a proper subset of any cocircuit")
    return labels, three_fold_rows(m.rep.rows, m.rep.n_cols, xy,
                                   m._label_mask((x,)))


def three_fold_steps(m: BinaryMatroid, x: str, y: str,
                     new_labels=("p", "q", "r")):
    """The three intermediate matroids of the 3-fold construction.

    Returns (loops adjoined, first splitting, second splitting); the last
    entry is the 3-fold itself.  Requires {x, y} to be a proper subset of
    some cocircuit.
    """
    labels, rows = _fold(m, x, y, new_labels)
    n = len(labels)
    return tuple(BinaryMatroid._derived(labels, rows[:len(rows) - drop], n)
                 for drop in (2, 1, 0))


def three_fold(m: BinaryMatroid, x: str, y: str,
               new_labels=("p", "q", "r")) -> BinaryMatroid:
    """Adjoin loops p, q, r, then split on {x, y, p, r} and on {x, q, r}."""
    labels, rows = _fold(m, x, y, new_labels)
    return BinaryMatroid._derived(labels, rows, len(labels))


def three_fold_ghafari(m: BinaryMatroid, t, t_prime,
                       new_labels=("p", "q", "r")) -> BinaryMatroid:
    """3-fold built from element splittings: add p on ``t``, q on ``t_prime``,
    then close with a column r equal to p + q, making {p, q, r} a circuit.

    The result is built by :func:`three_fold_rows` on the masks of ``t``
    and ``t_prime``.  The identity is algebra on the rows: the element
    splittings append the rows t|p and t'|q, so p and q are unit columns on
    those two rows, r = p + q is 1 on exactly them, and the rows are
    ``m``'s plus (t|p|r, t'|q|r), as the core builds them.  The tests pin
    it against the element splittings themselves.  Each set is read as
    the splittings read theirs (:func:`_split_mask`), so a repeated label
    raises.
    """
    t = tuple(t)
    labels = _new_fold_labels(m, new_labels)
    mask, mask_prime = _split_mask(m, t), _split_mask(m, t_prime)
    if mask_prime & ~mask or mask_prime == mask:
        raise ValueError("second splitting set must be a nonempty proper subset "
                         "of the first")
    if not _inside_cocircuit(m, t):
        raise ValueError(f"{{{','.join(sorted(t))}}} not a proper "
                         "subset of any cocircuit")
    rows = three_fold_rows(m.rep.rows, m.rep.n_cols, mask, mask_prime)
    return BinaryMatroid._derived(labels, rows, len(labels))


def admissible_column_pairs(m: BinaryMatroid) -> set[tuple[int, int]]:
    """Column pairs (i, j), i < j, properly contained in a cocircuit: the
    pairs of set bits of each cocircuit mask with at least 3 of them."""
    pairs = set()
    for mask in m._cocircuit_masks:
        if mask.bit_count() >= 3:
            pairs.update(combinations(
                [j for j in range(mask.bit_length()) if mask >> j & 1], 2))
    return pairs


def admissible_pairs(m: BinaryMatroid) -> frozenset[frozenset[str]]:
    """All 2-subsets of the ground set properly contained in a cocircuit."""
    labels = m.labels
    return frozenset(frozenset((labels[i], labels[j]))
                     for i, j in admissible_column_pairs(m))
