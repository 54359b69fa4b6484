"""Binary matroids as labeled column matroids of GF(2) matrices.

A ``BinaryMatroid`` pairs an ordered label tuple with a ``Gf2Matrix`` whose
columns are the elements.  Structure queries (circuits, cocircuits, loops,
parallel classes), deletion/contraction, duality, isomorphism and minor
search with self-verifying witnesses all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from . import _kernel
from .gf2 import Gf2Matrix, circuit_masks

Label = str


def _check_label(label: str) -> str:
    # str.split() and str.isspace() share one whitespace table, so a nonempty
    # whitespace-free label is exactly one that splits into itself.
    if not isinstance(label, str) or label.split() != [label]:
        raise ValueError(f"invalid element label {label!r}: need a nonempty "
                         "whitespace-free token")
    return label


def _mask_to_labels(mask: int, labels) -> frozenset[str]:
    return frozenset(labels[j] for j in range(len(labels)) if (mask >> j) & 1)


@dataclass(frozen=True)
class Graph:
    """Labeled multigraph; loops and parallel edges allowed.

    Vertices are 1-based indices; each edge is (u, v, label) with pairwise
    distinct labels.  Equal endpoints encode a loop.
    """

    n_vertices: int
    edges: tuple[tuple[int, int, str], ...]

    def __post_init__(self):
        if self.n_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        object.__setattr__(self, "edges", tuple((u, v, lab) for u, v, lab in self.edges))
        seen = set()
        for u, v, lab in self.edges:
            if not (1 <= u <= self.n_vertices and 1 <= v <= self.n_vertices):
                raise ValueError(f"edge {lab!r} endpoint outside 1..{self.n_vertices}")
            _check_label(lab)
            if lab in seen:
                raise ValueError(f"duplicate edge label {lab!r}")
            seen.add(lab)

    def edge_labels(self) -> tuple[str, ...]:
        return tuple(lab for _, _, lab in self.edges)


@dataclass(frozen=True)
class MinorWitness:
    """Certificate that a pattern occurs as a minor: host \\ deleted / contracted.

    ``mapping`` sends pattern labels to surviving host labels; the witness
    re-verifies itself via :meth:`verify`.
    """

    deleted: frozenset[str]
    contracted: frozenset[str]
    mapping: dict[str, str]

    def __post_init__(self):
        if self.deleted & self.contracted:
            raise ValueError("deleted and contracted sets overlap")
        removed = self.deleted | self.contracted
        if any(v in removed for v in self.mapping.values()):
            raise ValueError("mapping range meets the removed elements")

    def verify(self, host: "BinaryMatroid", pattern: "BinaryMatroid") -> bool:
        """Recompute the minor and confirm the circuit bijection."""
        minor = host.contract(self.contracted).delete(self.deleted)
        if set(self.mapping) != set(pattern.labels):
            return False
        if set(self.mapping.values()) != set(minor.labels):
            return False
        mapped = {frozenset(self.mapping[x] for x in c) for c in pattern.circuits()}
        return mapped == minor.circuits()


@dataclass(frozen=True, eq=False)
class BinaryMatroid:
    """Column matroid of a GF(2) matrix with ordered element labels."""

    labels: tuple[str, ...]
    rep: Gf2Matrix

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        for lab in self.labels:
            _check_label(lab)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate element labels")
        if len(self.labels) != self.rep.n_cols:
            raise ValueError(f"{len(self.labels)} labels vs {self.rep.n_cols} columns")

    # -- construction ------------------------------------------------------

    @classmethod
    def _derived(cls, labels: tuple[str, ...], rows: tuple[int, ...],
                 n_cols: int) -> "BinaryMatroid":
        """Build without any check, for matroids derived from a validated one.

        ``labels`` must be a tuple of distinct labels that passed
        :func:`_check_label`, taken from a validated matroid (with any new
        label checked by the caller), and ``rows`` a tuple of ints below
        ``1 << n_cols``, with ``len(labels) == n_cols <= MAX_COLS``: rows from
        a kernel function of validated rows (``delete_rows`` in
        :meth:`delete`, ``contract_rows`` in :meth:`contract`,
        ``nullspace_basis`` in :meth:`dual`), or validated rows plus a
        label mask.  That is what the public constructor would check, so
        skipping it changes nothing; every public entry point validates.
        """
        rep = object.__new__(Gf2Matrix)
        object.__setattr__(rep, "rows", rows)
        object.__setattr__(rep, "n_cols", n_cols)
        m = object.__new__(cls)
        object.__setattr__(m, "labels", labels)
        object.__setattr__(m, "rep", rep)
        return m

    @classmethod
    def from_matrix(cls, labels, m: Gf2Matrix) -> "BinaryMatroid":
        """Wrap labels and a representation; no normalization."""
        return cls(tuple(labels), m)

    @classmethod
    def from_graph(cls, g: Graph) -> "BinaryMatroid":
        """Cycle matroid via the GF(2) vertex-edge incidence matrix.

        A loop contributes a zero column; rank is n_vertices minus the
        number of connected components.
        """
        rows = []
        for w in range(1, g.n_vertices + 1):
            row = 0
            for j, (u, v, _) in enumerate(g.edges):
                if (u == w) != (v == w):
                    row |= 1 << j
            rows.append(row)
        return cls(g.edge_labels(), Gf2Matrix(tuple(rows), len(g.edges)))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Equal as represented: same labels and same row space."""
        if not isinstance(other, BinaryMatroid):
            return NotImplemented
        return self.labels == other.labels and self._rref == other._rref

    def __hash__(self) -> int:
        return hash((self.labels, self._rref))

    def same_matrix(self, other: "BinaryMatroid") -> bool:
        """Bit-exact comparison including row order and zero rows."""
        return self.labels == other.labels and self.rep.rows == other.rep.rows

    def __repr__(self) -> str:
        return (f"BinaryMatroid(labels={self.labels!r}, "
                f"rows={self.rep.row_strings()!r})")

    # -- cached internals ----------------------------------------------------

    @cached_property
    def _rref(self) -> tuple[int, ...]:
        return _kernel.rref(self.rep.rows)

    @cached_property
    def _columns(self) -> tuple[int, ...]:
        return self.rep.columns()

    @cached_property
    def _circuit_masks(self) -> tuple[int, ...]:
        return circuit_masks(self.rep.rows, self.rep.n_cols)

    @cached_property
    def _cocircuit_masks(self) -> tuple[int, ...]:
        return _kernel.space_min_supports(self._rref)

    @cached_property
    def _label_bits(self) -> dict[str, int]:
        return {lab: 1 << j for j, lab in enumerate(self.labels)}

    @cached_property
    def _label_cosets(self) -> dict[str, int]:
        """Each label's bit modulo the row space: the bit plus the rref row
        whose pivot (lowest bit) it is, if any, so no pivot bit is left.
        The XOR of the cosets of a set's labels is then the representative
        of its mask: the one vector with no pivot bit whose sum with the
        mask lies in the row space.

        Why a decision may be keyed by it: appending rows, each a part u
        on these columns plus bits in new columns that are 0 in the
        matroid's rows, gives the same row space when w in the row space is
        added to u, since that adds w to the appended row.  A binary
        matroid is fixed by the row space of its representation (Oxley,
        Matroid Theory, 2nd ed., Ch. 6), so the result is the same matroid
        with the same rref, and any decision on it depends only on the
        representatives of the parts u."""
        pivot_rows = {row & -row: row for row in self._rref}
        return {lab: bit ^ pivot_rows.get(bit, 0) for lab, bit in self._label_bits.items()}

    def _label_mask(self, subset) -> int:
        bits = self._label_bits
        mask = 0
        for lab in subset:
            try:
                mask |= bits[lab]
            except (KeyError, TypeError):  # TypeError: an unhashable label
                raise ValueError(f"unknown element label {lab!r}") from None
        return mask

    # -- structure queries ---------------------------------------------------

    def n_elements(self) -> int:
        return len(self.labels)

    def rank(self) -> int:
        return len(self._rref)

    def subset_rank(self, subset) -> int:
        """GF(2) rank of the columns indexed by ``subset``."""
        return _kernel.rank_masked(self.rep.rows, self._label_mask(subset))

    def circuits(self) -> frozenset[frozenset[str]]:
        """Minimal dependent sets: minimal supports of the null space."""
        return frozenset(_mask_to_labels(m, self.labels) for m in self._circuit_masks)

    def cocircuits(self) -> frozenset[frozenset[str]]:
        """Minimal supports of the row space."""
        return frozenset(_mask_to_labels(m, self.labels) for m in self._cocircuit_masks)

    def loops(self) -> frozenset[str]:
        return frozenset(lab for lab, c in zip(self.labels, self._columns) if c == 0)

    def coloops(self) -> frozenset[str]:
        """Elements lying in no circuit: those whose unit vector is in the
        row space, each a row of the rref.  A combination of rref rows holds
        the pivot bit of every row it uses, which no other row has, so a
        weight-one vector in the row space is a single rref row."""
        return _mask_to_labels(sum(row for row in self._rref if not row & (row - 1)),
                               self.labels)

    def parallel_classes(self) -> tuple[frozenset[str], ...]:
        """Partition of the non-loop elements by column equality."""
        groups: dict[int, list[str]] = {}
        for lab, c in zip(self.labels, self._columns):
            if c:
                groups.setdefault(c, []).append(lab)
        classes = [frozenset(v) for v in groups.values()]
        classes.sort(key=lambda cls: min(self.labels.index(x) for x in cls))
        return tuple(classes)

    # -- delete / contract / dual ---------------------------------------------

    def delete(self, subset) -> "BinaryMatroid":
        """Remove the columns of ``subset``; labels of survivors preserved."""
        mask = self._label_mask(subset)
        rows = _kernel.delete_rows(self.rep.rows, self.rep.n_cols, mask)
        labels = tuple(l for j, l in enumerate(self.labels) if not (mask >> j) & 1)
        return BinaryMatroid._derived(labels, rows, len(labels))

    def contract(self, subset) -> "BinaryMatroid":
        """Contract ``subset`` by pivoting; loops in the set are deleted."""
        mask = self._label_mask(subset)
        rows = _kernel.contract_rows(self.rep.rows, self.rep.n_cols, mask)
        labels = tuple(l for j, l in enumerate(self.labels) if not (mask >> j) & 1)
        return BinaryMatroid._derived(labels, rows, len(labels))

    def minor(self, deleted, contracted) -> "BinaryMatroid":
        return self.contract(contracted).delete(deleted)

    def dual(self) -> "BinaryMatroid":
        """Binary dual on the same labels, represented by the orthogonal
        complement of the row space (Oxley, *Matroid Theory*, 2nd ed.,
        Section 2.2): the kernel's null-space basis, one row per non-pivot
        column, so [I | P] becomes [P^T | I]."""
        n = self.rep.n_cols
        return BinaryMatroid._derived(self.labels,
                                      _kernel.nullspace_basis(self.rep.rows, n), n)

    # -- isomorphism -----------------------------------------------------------

    def is_isomorphic(self, other: "BinaryMatroid"):
        """A label bijection carrying circuits to circuits, or None.

        Candidates are pruned by (rank, element count, loop count,
        circuit-size multiset, per-element circuit-degree signature) before
        a backtracking search validates the full circuit sets.
        """
        for phi in _isomorphisms(self, other, pins=None):
            return phi
        return None

    # -- minors ------------------------------------------------------------------

    def has_minor(self, pattern: "BinaryMatroid", pins: dict[str, str] | None = None,
                  keep=()):
        """First minor occurrence of ``pattern``, as a MinorWitness, or None.

        Scans disjoint (contract, delete) pairs with the contract set
        independent and of size rank(self) - rank(pattern); candidates are
        ordered lexicographically by (delete set, contract set) in label
        order.  ``pins`` forces pattern labels onto distinct host labels;
        ``keep`` names host labels that must survive into the minor, i.e.
        lie in neither the contract nor the delete set.  Every search scans
        in the kernel's ``find_minors`` (see :meth:`_embeddings`).
        """
        pins = pins or {}
        pinned = set()
        for pat_lab, host_lab in pins.items():
            if pat_lab not in pattern.labels:
                raise ValueError(f"pin references unknown pattern label {pat_lab!r}")
            if host_lab not in self.labels:
                raise ValueError(f"pin references unknown element label {host_lab!r}")
            if host_lab in pinned:
                raise ValueError(f"pins repeat the element label {host_lab!r}")
            pinned.add(host_lab)
        avoid = self._label_mask(tuple(keep) + tuple(pins.values()))
        # A pinned isomorphism need not exist onto the first hit.
        for deleted, contracted, phi in self._embeddings(pattern, pins, avoid,
                                                         0 if pins else 1):
            return MinorWitness(deleted=deleted, contracted=contracted, mapping=phi)
        return None

    def minor_marked_images(self, pattern: "BinaryMatroid", marked) -> set[frozenset[str]]:
        """Images of ``marked`` pattern labels across all minor embeddings.

        The host-label sets that the marked elements can occupy, over every
        (contract, delete) occurrence of the pattern and every isomorphism
        onto it.  A pattern of rank <= 2 is read off the contractions M/C
        alone (``_kernel.profile_images``), since its isomorphisms are the
        bijections that keep loops and parallel classes; any other pattern
        goes through :meth:`_embeddings`.
        """
        marked_mask = pattern._label_mask(marked)
        if pattern.rank() <= 2:
            masks = _kernel.profile_images(self.rep.rows, self.rep.n_cols,
                                           pattern.rep.rows, pattern.rep.n_cols,
                                           marked_mask)
            return {_mask_to_labels(mask, self.labels) for mask in masks}
        return {frozenset(phi[lab] for lab in marked)
                for _, _, phi in self._embeddings(pattern, None, 0, 0)}

    def _embeddings(self, pattern, pins, avoid: int, limit: int):
        """Yield (deleted, contracted, mapping) for the minor occurrences of
        ``pattern`` that avoid the ``avoid`` mask, in candidate order, and
        for every isomorphism of the pattern onto each that keeps ``pins``.

        The kernel's ``find_minors`` scans the candidates with a complete
        matcher (:func:`_fast_pattern_kind`), so each hit is a minor
        isomorphic to the pattern; it stops after ``limit`` hits (0: no
        limit).  For a pattern of rank <= 2 with ``avoid`` 0 one
        ``profile_present`` call first decides, from each contraction M/C,
        whether any occurrence exists, and the scan runs only if one does;
        the occurrences and their order do not change.
        """
        n = len(self.labels)
        c_size = self.rank() - pattern.rank()
        d_size = n - len(pattern.labels) - c_size
        if c_size < 0 or d_size < 0:
            return
        kernel, kind, want = _fast_pattern_kind(pattern)
        if (kind == _kernel.KIND_PROFILE and not avoid and
                not _kernel.profile_present(self.rep.rows, n, (want,))[0]):
            return
        for cmask, dmask in kernel.find_minors(self.rep.rows, n, c_size, d_size,
                                               kind, want, limit=limit, avoid=avoid):
            deleted = _mask_to_labels(dmask, self.labels)
            contracted = _mask_to_labels(cmask, self.labels)
            minor = self.contract(contracted).delete(deleted)
            for phi in _isomorphisms(pattern, minor, pins=pins):
                yield deleted, contracted, phi

    # -- gammoid test ------------------------------------------------------------

    def is_binary_gammoid(self) -> bool:
        """True iff no M(K4) minor exists (``_kernel.series_parallel_reduces``
        on the reduced rows, proved there).  No witness is built:
        :meth:`k4_minor` keeps the exhaustive scan for that."""
        return _kernel.series_parallel_reduces(self._rref, self.rep.n_cols)

    def k4_minor(self):
        """MinorWitness of M(K4) when the matroid is not a binary gammoid."""
        return self.has_minor(k4_matroid())


def reduced_columns(m: BinaryMatroid) -> tuple[int, tuple[int, ...]]:
    """(rank, columns re-encoded over the rref rows) for canonical forms."""
    reduced = m._rref
    return len(reduced), _kernel.columns(reduced, m.rep.n_cols)


def _canon_kernel(rank: int):
    """Compiled canonical forms stop at rank 6 (``GL_MAX_RANK``); pure go on."""
    return _kernel if rank <= 6 else _kernel.pure


def canonical_key(m: BinaryMatroid) -> tuple[int, tuple[int, ...]]:
    """(rank, least GL(rank, 2) image of the columns over the rref rows):
    binary matroids share it exactly when they are isomorphic."""
    r, cols = reduced_columns(m)
    return r, _canon_kernel(r).canon_key_cols(cols, r)


def _fast_pattern_kind(pattern: BinaryMatroid):
    """(kernel, kind, want): a complete matcher for the pattern and the
    kernel whose ``find_minors`` runs it.

    Rank <= 2 binary matroids are determined by (rank, loops, parallel-class
    sizes), and a simple rank-3 matroid on 6 elements is M(K4).  Any other
    pattern is matched by its :func:`canonical_key`, scanned by the kernel
    that computes the key (:func:`_canon_kernel`).
    """
    prof = _kernel.profile(pattern.rep.rows, pattern.rep.n_cols)
    r, loops, sizes = prof
    n = pattern.rep.n_cols
    if r <= 2:
        return _kernel, _kernel.KIND_PROFILE, prof
    if r == 3 and loops == 0 and all(s == 1 for s in sizes) and n == 6:
        return _kernel, _kernel.KIND_SIMPLE_RANK3, None
    return _canon_kernel(r), _kernel.KIND_CANONICAL, canonical_key(pattern)


K4_GRAPH = Graph(4, ((1, 2, "e12"), (1, 3, "e13"), (1, 4, "e14"),
                      (2, 3, "e23"), (2, 4, "e24"), (3, 4, "e34")))


@cache
def k4_matroid() -> BinaryMatroid:
    """Cycle matroid of ``K4_GRAPH``, the complete graph on four vertices:
    one object per process, which the catalog's ``K4`` entry also holds."""
    return BinaryMatroid.from_graph(K4_GRAPH)


# -- circuit-based isomorphism search ------------------------------------------


def _element_signatures(circuit_masks, n):
    sigs = []
    for j in range(n):
        sizes = sorted(bin(m).count("1") for m in circuit_masks if (m >> j) & 1)
        sigs.append(tuple(sizes))
    return sigs


def _isomorphisms(a: BinaryMatroid, b: BinaryMatroid, pins):
    """Yield every circuit-preserving bijection from a's labels to b's.

    Only circuits of ``a`` are checked, each onto one of ``b``: with
    ``len(ca) == len(cb)``, checked first, an injective map doing that is a
    bijection of circuits, and a matroid is fixed by its circuits (Oxley,
    *Matroid Theory*, 2nd ed., Ch. 1).  So the leaves are the isomorphisms."""
    na, nb = len(a.labels), len(b.labels)
    if na != nb:
        return
    if a.rank() != b.rank():
        return
    ca, cb = a._circuit_masks, b._circuit_masks
    if len(ca) != len(cb):
        return
    size_multiset = sorted(bin(m).count("1") for m in ca)
    if size_multiset != sorted(bin(m).count("1") for m in cb):
        return
    sig_a = _element_signatures(ca, na)
    sig_b = _element_signatures(cb, nb)
    if sorted(sig_a) != sorted(sig_b):
        return

    cb_set = set(cb)
    circuits_at_a = [[m for m in ca if (m >> j) & 1] for j in range(na)]

    mapping = [-1] * na
    inverse = [-1] * nb
    assigned_mask = 0

    fixed = {}
    if pins:
        for pat_lab, host_lab in pins.items():
            fixed[a.labels.index(pat_lab)] = b.labels.index(host_lab)

    # Rare signatures first shrinks the branching factor.
    freq: dict[tuple, int] = {}
    for s in sig_a:
        freq[s] = freq.get(s, 0) + 1
    order = sorted(range(na), key=lambda j: (j not in fixed, freq[sig_a[j]], j))
    by_sig: dict[tuple, list[int]] = {}
    for j in range(nb):
        by_sig.setdefault(sig_b[j], []).append(j)

    def consistent(i, j):
        # Each circuit of a that i -> j completes must map onto one of b.
        for m in circuits_at_a[i]:
            if m & ~(assigned_mask | (1 << i)):
                continue
            img = 0
            mm = m & ~(1 << i)
            while mm:
                low = mm & -mm
                img |= 1 << mapping[low.bit_length() - 1]
                mm ^= low
            if img | (1 << j) not in cb_set:
                return False
        return True

    def backtrack(pos):
        nonlocal assigned_mask
        if pos == na:
            yield {a.labels[i]: b.labels[mapping[i]] for i in range(na)}
            return
        i = order[pos]
        candidates = [fixed[i]] if i in fixed else by_sig.get(sig_a[i], [])
        for j in candidates:
            if inverse[j] != -1 or sig_b[j] != sig_a[i]:
                continue
            if not consistent(i, j):
                continue
            mapping[i] = j
            inverse[j] = i
            assigned_mask |= 1 << i
            yield from backtrack(pos + 1)
            assigned_mask &= ~(1 << i)
            mapping[i] = -1
            inverse[j] = -1

    yield from backtrack(0)
