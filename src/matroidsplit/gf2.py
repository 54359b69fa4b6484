"""Dense GF(2) linear algebra on bit-packed rows.

A matrix is stored as one machine integer per row, bit ``j`` holding the
entry of column ``j``.  Column counts are capped at 64 so every row fits a
single word and row operations are single XORs.  The 0xN and Mx0 matrices
are valid.

Circuits are the minimal supports of the null space, found among all
2^(n - rank) of its vectors by ``_kernel.space_min_supports``.  That
function owns the span limit, so circuit enumeration is bounded by nullity,
not by column count, and raises ValueError past it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernel

MAX_COLS = 64


@dataclass(frozen=True)
class Gf2Matrix:
    """Immutable bit-row matrix over GF(2)."""

    rows: tuple[int, ...]
    n_cols: int

    def __post_init__(self):
        if not 0 <= self.n_cols <= MAX_COLS:
            raise ValueError(f"column count {self.n_cols} outside [0, {MAX_COLS}]")
        object.__setattr__(self, "rows", tuple(self.rows))
        limit = 1 << self.n_cols
        for i, row in enumerate(self.rows):
            if not 0 <= row < limit:
                raise ValueError(f"row {i} has bits outside {self.n_cols} columns")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @classmethod
    def from_bits(cls, bit_rows) -> "Gf2Matrix":
        """Build from an iterable of 0/1 strings or 0/1 sequences.

        A string entry must be exactly "0" or "1": ``int`` alone would also
        read other Unicode digits and surrounding whitespace.
        """
        packed = []
        width = None
        for bits in bit_rows:
            vals = [_entry(b) for b in bits]
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise ValueError("rows have unequal lengths")
            packed.append(sum(v << j for j, v in enumerate(vals)))
        if width is None:
            raise ValueError("cannot infer column count from zero rows; "
                             "construct Gf2Matrix((), n_cols) directly")
        return cls(tuple(packed), width)

    def row_string(self, i: int) -> str:
        """Row ``i`` as a 0/1 string, first column leftmost."""
        return "".join(str((self.rows[i] >> j) & 1) for j in range(self.n_cols))

    def row_strings(self) -> list[str]:
        return [self.row_string(i) for i in range(self.n_rows)]

    def append_column(self, col: int) -> "Gf2Matrix":
        """Append one column; bit ``i`` of ``col`` is the entry in row ``i``."""
        check_room(self.n_cols)
        rows = tuple(r | (((col >> i) & 1) << self.n_cols)
                     for i, r in enumerate(self.rows))
        return Gf2Matrix(rows, self.n_cols + 1)

    def column(self, j: int) -> int:
        if not 0 <= j < self.n_cols:
            raise IndexError(f"column {j} out of range")
        return sum(((r >> j) & 1) << i for i, r in enumerate(self.rows))

    def columns(self) -> tuple[int, ...]:
        return _kernel.columns(self.rows, self.n_cols)


def check_room(n_cols: int, added: int = 1) -> None:
    """Raise ValueError unless ``added`` more columns fit beside ``n_cols``."""
    if n_cols + added > MAX_COLS:
        raise ValueError("column limit exceeded")


def _entry(b) -> int:
    """One entry of :meth:`Gf2Matrix.from_bits`: 0, 1, "0" or "1"."""
    if isinstance(b, str) and b not in ("0", "1"):
        raise ValueError("matrix entries must be 0 or 1")
    v = int(b)
    if v not in (0, 1):
        raise ValueError("matrix entries must be 0 or 1")
    return v


def rank(m: Gf2Matrix) -> int:
    """GF(2) row rank."""
    return _kernel.rank(m.rows)


def rref(m: Gf2Matrix) -> Gf2Matrix:
    """Reduced row-echelon form; zero rows dropped, row space preserved."""
    return Gf2Matrix(_kernel.rref(m.rows), m.n_cols)


def row_space_contains(m: Gf2Matrix, v: int | str) -> bool:
    """True iff ``v`` (packed int or 0/1 string) is a combination of rows:
    appending it leaves the rank unchanged."""
    if isinstance(v, str):
        if len(v) != m.n_cols:
            raise ValueError(f"vector length {len(v)} != column count {m.n_cols}")
        if set(v) - {"0", "1"}:
            raise ValueError("vector entries must be 0 or 1")
        v = sum(int(ch) << j for j, ch in enumerate(v))
    if not 0 <= v < (1 << m.n_cols):
        raise ValueError("vector has bits outside the column range")
    return _kernel.rank(m.rows + (v,)) == _kernel.rank(m.rows)


def null_space_min_supports(m: Gf2Matrix) -> frozenset[frozenset[int]]:
    """Inclusion-minimal nonempty supports of null-space vectors.

    Supports are 0-based column index sets.  For a binary matroid these are
    exactly the circuits of the column matroid.
    """
    return frozenset(frozenset(j for j in range(m.n_cols) if v >> j & 1)
                     for v in circuit_masks(m.rows, m.n_cols))


def circuit_masks(rows, n_cols: int) -> tuple[int, ...]:
    """Column masks of the inclusion-minimal nonempty null-space supports of
    ``rows``, the circuits, within the kernel's span limit."""
    return _kernel.space_min_supports(_kernel.nullspace_basis(rows, n_cols))
