"""Named graphs and matroids used throughout the toolkit.

Every entry is a small labeled multigraph together with its cycle matroid
and an ordered tuple of distinguished ("marked") edge labels.  The entries
are built once per process, and ``get`` and ``list_entries`` serve them
only after ``validate_all`` has passed once (both under ``functools.cache``;
a failed validation raises on every call).

Entries:
  K4        complete graph on 4 vertices (``matroid.K4_GRAPH`` and
            ``matroid.k4_matroid()``, the same objects)
  G_4       two vertices joined by parallel edges x, y, z; marked (x, y)
  F         triangle with the left and right sides doubled (5 edges, rank 2)
  G_1..G_3  excluded minors for 3-element splittings of gammoids:
            F plus a loop at the apex / at a base vertex, and the triangle
            with all three sides doubled; marked (x, b, c)
  Q_1..Q_4  the quotient shapes of M(F): F itself, 4 parallels + 1 loop,
            3 parallels + 2 loops (together / split across the vertices)
  F_1..F_4  Q_1..Q_4 with marked triple (x, y, z)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache

from .matroid import K4_GRAPH, BinaryMatroid, Graph, k4_matroid
from .ops import splitting
from .verifyreport import VerificationReport, make_failure


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    graph: Graph
    matroid: BinaryMatroid
    marked: tuple[str, ...]


def _entry(name: str, n_vertices: int, edges, marked=()) -> CatalogEntry:
    g = Graph(n_vertices, tuple(edges))
    return CatalogEntry(name, g, BinaryMatroid.from_graph(g), tuple(marked))


@cache
def _entries() -> dict[str, CatalogEntry]:
    """The entries, built once per process."""
    entries = [
        CatalogEntry("K4", K4_GRAPH, k4_matroid(), ()),
        _entry("G_4", 2, ((1, 2, "x"), (1, 2, "y"), (1, 2, "z")), ("x", "y")),
        # Triangle on vertices 1 (apex), 2, 3 with both slanted sides doubled.
        _entry("F", 3, ((2, 3, "bottom"), (1, 2, "left1"), (1, 2, "left2"),
                        (1, 3, "right1"), (1, 3, "right2"))),
        _entry("G_1", 3, ((2, 3, "bottom"), (1, 2, "x"), (1, 2, "left2"),
                          (1, 3, "c"), (1, 3, "right2"), (1, 1, "b")),
               ("x", "b", "c")),
        _entry("G_2", 3, ((2, 3, "bottom"), (1, 2, "x"), (1, 2, "left2"),
                          (1, 3, "c"), (1, 3, "right2"), (3, 3, "b")),
               ("x", "b", "c")),
        _entry("G_3", 3, ((1, 2, "x"), (1, 2, "left2"), (1, 3, "b"),
                          (1, 3, "right2"), (2, 3, "c"), (2, 3, "bottom2")),
               ("x", "b", "c")),
        _entry("Q_1", 3, ((2, 3, "bottom"), (1, 2, "left1"), (1, 2, "left2"),
                          (1, 3, "right1"), (1, 3, "right2"))),
        _entry("Q_2", 2, ((1, 2, "p1"), (1, 2, "p2"), (1, 2, "p3"),
                          (1, 2, "p4"), (2, 2, "loop"))),
        _entry("Q_3", 2, ((1, 2, "p1"), (1, 2, "p2"), (1, 2, "p3"),
                          (2, 2, "loop1"), (2, 2, "loop2"))),
        _entry("Q_4", 2, ((1, 2, "p1"), (1, 2, "p2"), (1, 2, "p3"),
                          (1, 1, "loop1"), (2, 2, "loop2"))),
        _entry("F_1", 3, ((2, 3, "x"), (1, 2, "left1"), (1, 2, "left2"),
                          (1, 3, "y"), (1, 3, "z")), ("x", "y", "z")),
        _entry("F_2", 2, ((1, 2, "x"), (1, 2, "y"), (1, 2, "p3"),
                          (1, 2, "p4"), (2, 2, "z")), ("x", "y", "z")),
        _entry("F_3", 2, ((1, 2, "x"), (1, 2, "p2"), (1, 2, "p3"),
                          (2, 2, "y"), (2, 2, "z")), ("x", "y", "z")),
        _entry("F_4", 2, ((1, 1, "x"), (1, 2, "y"), (1, 2, "p2"),
                          (1, 2, "p3"), (2, 2, "z")), ("x", "y", "z")),
    ]
    return {e.name: e for e in entries}


def _checks(entries: dict[str, CatalogEntry]):
    """Yield (description, ok, observational) validation facts."""
    k4 = entries["K4"].matroid
    f = entries["F"].matroid

    yield "K4 has rank 3, 6 elements, no loops or parallels", (
        k4.rank() == 3 and k4.n_elements() == 6 and not k4.loops()
        and all(len(c) == 1 for c in k4.parallel_classes())), False
    yield "F has rank 2 and 5 elements", (f.rank() == 2 and f.n_elements() == 5), False
    yield "F parallel-class sizes are {1,2,2}", (
        sorted(len(c) for c in f.parallel_classes()) == [1, 2, 2]), False
    yield "G_4 cocircuits are exactly {{x,y,z}}", (
        entries["G_4"].matroid.cocircuits()
        == frozenset({frozenset({"x", "y", "z"})})), False
    yield "Q_2 has one loop and a parallel class of four", (
        len(entries["Q_2"].matroid.loops()) == 1
        and sorted(len(c) for c in entries["Q_2"].matroid.parallel_classes())
        == [4]), False
    yield "Q_3 has two loops and a parallel class of three", (
        len(entries["Q_3"].matroid.loops()) == 2
        and sorted(len(c) for c in entries["Q_3"].matroid.parallel_classes())
        == [3]), False

    for name in ("G_1", "G_2", "G_3"):
        e = entries[name]
        split = splitting(e.matroid, e.marked)
        yield (f"splitting {name} on its marked triple is isomorphic to K4",
               split.is_isomorphic(k4) is not None, False)
        yield (f"deleting the middle marked element of {name} leaves a copy of F",
               e.matroid.delete({e.marked[1]}).is_isomorphic(f) is not None, False)

    for name in ("F_1", "F_2", "F_3", "F_4"):
        e = entries[name]
        split = splitting(e.matroid, e.marked)
        yield (f"splitting {name} on its marked triple is isomorphic to F",
               split.is_isomorphic(f) is not None, False)

    yield ("F_1 marked triple is a vertex cut, so its splitting is trivial",
           splitting(entries["F_1"].matroid, entries["F_1"].marked)
           == entries["F_1"].matroid, False)

    # Decode observations: distinct figures that collapse to equal matroids.
    yield ("decode observation: G_1 and G_2 are isomorphic matroids",
           entries["G_1"].matroid.is_isomorphic(entries["G_2"].matroid)
           is not None, True)
    yield ("decode observation: Q_3 and Q_4 are isomorphic matroids",
           entries["Q_3"].matroid.is_isomorphic(entries["Q_4"].matroid)
           is not None, True)
    yield ("decode observation: F_3 and F_4 are isomorphic matroids",
           entries["F_3"].matroid.is_isomorphic(entries["F_4"].matroid)
           is not None, True)
    yield ("decode observation: F_1 and F are isomorphic matroids",
           entries["F_1"].matroid.is_isomorphic(entries["F"].matroid)
           is not None, True)


def validate_all() -> VerificationReport:
    """Re-run every decode validation fact and report pass/fail."""
    entries = _entries()
    start = time.perf_counter()
    failures = []
    observations = {}
    cases = 0
    for description, ok, observational in _checks(entries):
        cases += 1
        if observational:
            observations[description] = bool(ok)
        elif not ok:
            failures.append(make_failure("catalog", {"fact": description},
                                         expected=True, got=False))
    return VerificationReport.from_failures(
        "catalog", "all 14 catalog entries and their decode validation facts",
        cases, failures, start, observations)


@cache
def _validated() -> dict[str, CatalogEntry]:
    """The entries, once ``validate_all`` has passed in this process; a
    failed validation is not cached, so every call raises it again."""
    report = validate_all()
    if report.verdict != "pass":
        raise RuntimeError("catalog validation failed: "
                           + "; ".join(f.describe() for f in report.failures))
    return _entries()


_ALIASES = {"K_4": "K4"}


def get(name: str) -> CatalogEntry:
    """Look up a catalog entry by name (case-insensitive, K_4 == K4)."""
    entries = _validated()
    key = _ALIASES.get(name, name)
    if key not in entries:
        lowered = {n.lower(): n for n in entries}
        key = lowered.get(key.lower(), key)
    if key not in entries:
        raise KeyError(f"unknown catalog name {name!r}; "
                       f"known: {', '.join(names())}")
    return entries[key]


def names() -> tuple[str, ...]:
    return tuple(_entries())


def list_entries() -> tuple[CatalogEntry, ...]:
    entries = _validated()
    return tuple(entries.values())
