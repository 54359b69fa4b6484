"""Isomorph-free generation of all small binary matroids.

A rank-r binary matroid on k elements is a size-k multiset of vectors from
GF(2)^r (zero vectors encode loops) of full rank r.  One representative per
isomorphism class is kept: the multiset that is lexicographically least
when sorted within its GL(r,2) orbit (``is_canonical``).  Such a multiset
holds the unit vectors 1, 2, ..., 2^(r-1) and lies in their span, so its
rank is the bit length of its largest column.

The canonical multisets are generated orderly (R. C. Read, "Every one a
winner", Ann. Discrete Math. 2, 1978; B. D. McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998): each is reached once, as
a canonical parent plus one column, and only those one-column children are
tested (see ``enumerate_binary_matroids``).  Ranks are capped at 4 and
loops at multiplicity 3, which covers everything the verification harness
quantifies over.  The rank cap is the harness's bound, not the canonical
forms': the compiled kernel takes them up to rank 6, the pure one at any
rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import _kernel
from .gf2 import Gf2Matrix
from .matroid import BinaryMatroid, reduced_columns

MAX_ELEMENTS = 9
MAX_RANK = 4
MAX_LOOPS = 3


@dataclass(frozen=True)
class CanonicalKey:
    """Isomorphism-class key: rank plus the GL-minimized column multiset."""

    rank: int
    columns: tuple[int, ...]


def canonical_key(m: BinaryMatroid) -> CanonicalKey:
    """Key equality coincides with matroid isomorphism.  Keys are taken up
    to rank ``MAX_RANK``, the corpus bound."""
    r, cols = reduced_columns(m)
    if r > MAX_RANK:
        raise ValueError(f"rank {r} exceeds canonical-form limit {MAX_RANK}")
    return CanonicalKey(r, _kernel.canon_key_cols(cols, r))


def matroid_from_columns(rank: int, cols) -> BinaryMatroid:
    """Rebuild a matroid from rank-bit packed columns, labels e1, e2, ..."""
    rows = _kernel.rows_from_columns(tuple(cols), rank)
    labels = tuple(f"e{i + 1}" for i in range(len(cols)))
    return BinaryMatroid(labels, Gf2Matrix(rows, len(cols)))


@dataclass(frozen=True)
class Corpus:
    """One canonical representative per isomorphism class, with gammoid flags."""

    max_elements: int
    max_rank: int
    members: tuple[BinaryMatroid, ...]
    gammoid_flags: tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.members)

    def gammoids(self) -> tuple[BinaryMatroid, ...]:
        return tuple(m for m, g in zip(self.members, self.gammoid_flags) if g)

    def restrict(self, max_elements: int, max_rank: int | None = None) -> "Corpus":
        """Sub-corpus of members with at most ``max_elements`` elements and
        rank at most ``max_rank`` (default: the corpus's own rank bound)."""
        max_rank = self.max_rank if max_rank is None else max_rank
        if max_elements > self.max_elements or max_rank > self.max_rank:
            raise ValueError(
                f"cannot restrict a corpus of <= {self.max_elements} elements, "
                f"rank <= {self.max_rank} to <= {max_elements} elements, "
                f"rank <= {max_rank}")
        kept = [(m, g) for m, g in zip(self.members, self.gammoid_flags)
                if m.n_elements() <= max_elements and m.rank() <= max_rank]
        return Corpus(max_elements, max_rank,
                      tuple(m for m, _ in kept), tuple(g for _, g in kept))

    def save(self, path) -> None:
        Path(path).write_text(to_file_text(self))

    @classmethod
    def load(cls, path) -> "Corpus":
        return from_file_text(Path(path).read_text())


def enumerate_binary_matroids(max_elements: int, max_rank: int) -> Corpus:
    """All binary matroids with 1..max_elements elements and rank <= max_rank,
    one canonical representative per isomorphism class, ordered by rank,
    then size, then sorted columns.

    Level k holds the canonical sorted multisets of size k in
    GF(2)^max_rank, level 0 the empty one.  The children of a multiset S
    are S plus one column v >= max(S), a zero only while S has fewer than
    ``MAX_LOOPS`` zeros, and v < 2^(s+1), s the bit length of max(S) (0 if
    S is empty): a longer v makes a rank-(s+1) child whose largest column
    is longer than its rank, never canonical.  A child joins level k + 1
    iff ``is_canonical`` accepts it.  Each canonical multiset is reached
    exactly once:

    Lemma.  If T = S + {m} is canonical and m = max(T), S is canonical.
    Else some GL map g has sorted(g(S)) < sorted(S); let i be the first
    index where they differ.  Adding g(m) to g(S) lowers no order
    statistic, so the j-th least of g(T) is at most sorted(g(S))[j] =
    sorted(S)[j] for j < i, and the i-th is below sorted(S)[i].  As
    sorted(T) is sorted(S) followed by m, sorted(g(T)) < sorted(T): T is
    not canonical.

    So each canonical multiset has one parent, itself minus its largest
    column, and by induction on k every level holds exactly the canonical
    multisets of its size.  ``is_canonical`` uses r only to validate the
    columns, so a rank-s multiset with columns below 2^s is canonical in
    GF(2)^max_rank iff it is canonical in GF(2)^s, its own rank.
    """
    if not 1 <= max_elements <= MAX_ELEMENTS:
        raise ValueError(f"max_elements must be in 1..{MAX_ELEMENTS}")
    if not 0 <= max_rank <= MAX_RANK:
        raise ValueError(f"max_rank must be in 0..{MAX_RANK}")
    found = []
    level = [()]
    for _ in range(max_elements):
        children = []
        for parent in level:
            low = parent[-1] if parent else 0
            top = min(2 << low.bit_length(), 1 << max_rank)
            if low == 0 and parent.count(0) >= MAX_LOOPS:
                low = 1
            for v in range(low, top):
                child = parent + (v,)
                if _kernel.is_canonical(child, max_rank):
                    children.append(child)
        found.extend(children)
        level = children
    found.sort(key=lambda cols: (cols[-1].bit_length(), len(cols), cols))
    members = []
    flags = []
    for cols in found:
        m = matroid_from_columns(cols[-1].bit_length(), cols)
        members.append(m)
        flags.append(m.is_binary_gammoid())
    return Corpus(max_elements, max_rank, tuple(members), tuple(flags))


# -- line-oriented corpus files -------------------------------------------------


def member_to_line(m: BinaryMatroid, gammoid: bool) -> str:
    r, cols = reduced_columns(m)
    flag = "g" if gammoid else "-"
    return " ".join([str(r), flag] + [str(c) for c in cols])


def to_file_text(c: Corpus) -> str:
    lines = [f"# binary matroid corpus: max_elements={c.max_elements} "
             f"max_rank={c.max_rank}",
             "# line format: <rank> <g|-> <column values over the rref rows>"]
    lines.extend(member_to_line(m, g) for m, g in zip(c.members, c.gammoid_flags))
    return "\n".join(lines) + "\n"


def from_file_text(text: str) -> Corpus:
    """Parse a corpus file.  Every gammoid flag is checked, and so is every
    member against the header's bounds and ``MAX_LOOPS``; a file with no
    header takes its bounds from its members."""
    max_elements = max_rank = None
    members = []
    flags = []
    linenos = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if token.startswith("max_elements="):
                    max_elements = int(token.split("=", 1)[1])
                elif token.startswith("max_rank="):
                    max_rank = int(token.split("=", 1)[1])
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise ValueError(f"line {lineno}: expected '<rank> <g|-> <columns>'")
        try:
            r = int(tokens[0])
            cols = tuple(int(t) for t in tokens[2:])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed corpus entry") from None
        if tokens[1] not in ("g", "-"):
            raise ValueError(f"line {lineno}: gammoid flag must be 'g' or '-'")
        m, gammoid = matroid_from_columns(r, cols), tokens[1] == "g"
        if m.is_binary_gammoid() != gammoid:
            raise ValueError(f"line {lineno}: gammoid flag {tokens[1]!r} is wrong "
                             "for this matroid")
        members.append(m)
        flags.append(gammoid)
        linenos.append(lineno)
    if max_elements is None or max_rank is None:
        max_elements = max((m.n_elements() for m in members), default=1)
        max_rank = max((m.rank() for m in members), default=0)
    for lineno, m in zip(linenos, members):
        n, r, loops = m.n_elements(), m.rank(), len(m.loops())
        if n > max_elements or r > max_rank or loops > MAX_LOOPS:
            raise ValueError(
                f"line {lineno}: a member of {n} elements, rank {r} and {loops} "
                f"loops is outside max_elements={max_elements} "
                f"max_rank={max_rank} with at most {MAX_LOOPS} loops")
    return Corpus(max_elements, max_rank, tuple(members), tuple(flags))
