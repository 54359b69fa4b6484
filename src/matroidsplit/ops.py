"""The splitting operation family on binary matroids.

``splitting`` appends one row with 1s exactly on the chosen element set T;
``element_splitting`` additionally adjoins a new element whose column is the
indicator of that row.  ``three_fold`` composes two splittings after
adjoining three loops p, q, r, and ``three_fold_ghafari`` builds the same
extension from two element splittings plus a closing column.
"""

from __future__ import annotations

from .gf2 import Gf2Matrix
from .matroid import BinaryMatroid, _check_label


def splitting(m: BinaryMatroid, t) -> BinaryMatroid:
    """Append a row with 1s exactly on the columns of ``t``.

    The ground set is unchanged; the rank grows by one unless the indicator
    of ``t`` already lies in the row space.
    """
    t = tuple(t)
    if not t:
        raise ValueError("splitting set must be nonempty")
    return BinaryMatroid(m.labels, m.rep.append_row(m._label_mask(t)))


def element_splitting(m: BinaryMatroid, t, new_label: str) -> BinaryMatroid:
    """Splitting on ``t`` plus a new element carrying the new row's indicator."""
    _check_label(new_label)
    if new_label in m.labels:
        raise ValueError(f"new element label {new_label!r} already in the ground set")
    t = tuple(t)
    if not t:
        raise ValueError("splitting set must be nonempty")
    rep = m.rep.append_row(m._label_mask(t))
    rep = rep.append_column(1 << (rep.n_rows - 1))
    return BinaryMatroid(m.labels + (new_label,), rep)


def add_loops(m: BinaryMatroid, new_labels) -> BinaryMatroid:
    """Extend the ground set by fresh loops (all-zero columns)."""
    new_labels = tuple(new_labels)
    labels = m.labels
    rep = m.rep
    for lab in new_labels:
        _check_label(lab)
        if lab in labels:
            raise ValueError(f"new element label {lab!r} already in the ground set")
        labels = labels + (lab,)
        rep = rep.append_column(0)
    return BinaryMatroid(labels, rep)


def _check_fold_pair(m: BinaryMatroid, x: str, y: str) -> None:
    if x == y:
        raise ValueError("the two chosen elements must differ")
    m._label_mask((x, y))
    pair = frozenset((x, y))
    for cocircuit in m.cocircuits():
        if pair < cocircuit:
            return
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
    t_set = frozenset(t)
    if not any(t_set < c for c in m.cocircuits()):
        raise ValueError(f"{{{','.join(sorted(t_set))}}} not a proper subset "
                         "of any cocircuit")
    with_q = element_splitting(element_splitting(m, t, p), t_prime, q)
    p_col = with_q.rep.column(with_q.labels.index(p))
    q_col = with_q.rep.column(with_q.labels.index(q))
    if r in with_q.labels:
        raise ValueError(f"new element label {r!r} already in the ground set")
    _check_label(r)
    rep = with_q.rep.append_column(p_col ^ q_col)
    return BinaryMatroid(with_q.labels + (r,), rep)


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
