"""Isomorph-free generation of all small binary matroids.

A rank-r binary matroid on k elements is a size-k multiset of vectors from
GF(2)^r (zero vectors encode loops) of full rank r.  One representative per
isomorphism class is kept by accepting exactly the multisets that are
lexicographically least within their GL(r,2) orbit (``is_canonical``).
Such a multiset contains the unit vectors 1, 2, ..., 2^(r-1), so only
multisets that hold them are generated: the other k - r columns run over
multisets of GF(2)^r.  Ranks are capped at 4 and loops at multiplicity 3,
which covers everything the verification harness quantifies over.  The
rank cap is the harness's bound, not the canonical forms': the compiled
kernel takes them up to rank 6, the pure one at any rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
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

    def restrict(self, max_elements: int) -> "Corpus":
        """Sub-corpus of members with at most ``max_elements`` elements."""
        if max_elements > self.max_elements:
            raise ValueError("cannot restrict to a larger bound")
        kept = [(m, g) for m, g in zip(self.members, self.gammoid_flags)
                if m.n_elements() <= max_elements]
        return Corpus(max_elements, self.max_rank,
                      tuple(m for m, _ in kept), tuple(g for _, g in kept))

    def save(self, path) -> None:
        Path(path).write_text(to_file_text(self))

    @classmethod
    def load(cls, path) -> "Corpus":
        return from_file_text(Path(path).read_text())


def enumerate_binary_matroids(max_elements: int, max_rank: int) -> Corpus:
    """All binary matroids with 1..max_elements elements and rank <= max_rank,
    one canonical representative per isomorphism class, deterministic order.
    """
    if not 1 <= max_elements <= MAX_ELEMENTS:
        raise ValueError(f"max_elements must be in 1..{MAX_ELEMENTS}")
    if not 0 <= max_rank <= MAX_RANK:
        raise ValueError(f"max_rank must be in 0..{MAX_RANK}")
    members = []
    flags = []
    for r in range(max_rank + 1):
        units = tuple(1 << i for i in range(r))
        for k in range(max(r, 1), max_elements + 1):
            block = []
            for extras in combinations_with_replacement(range(1 << r), k - r):
                if extras.count(0) > MAX_LOOPS:
                    continue
                cols = tuple(sorted(units + extras))
                if _kernel.is_canonical(cols, r):
                    block.append(cols)
            for cols in sorted(block):
                m = matroid_from_columns(r, cols)
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
    max_elements = max_rank = None
    members = []
    flags = []
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
        members.append(matroid_from_columns(r, cols))
        flags.append(tokens[1] == "g")
    if max_elements is None or max_rank is None:
        max_elements = max((m.n_elements() for m in members), default=1)
        max_rank = max((m.rank() for m in members), default=0)
    return Corpus(max_elements, max_rank, tuple(members), tuple(flags))
