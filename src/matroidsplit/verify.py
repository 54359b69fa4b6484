"""Exhaustive desk-scale verification checks with structured reports.

Each check quantifies over a corpus of small binary matroids (usually the
gammoid sub-corpus) and asserts exactly the implications that are proved
constructively; converse and existential directions are gathered as
observations and never fail a report.  Failures serialize their inputs,
and :func:`rerun_case` replays one by running its report, the same sweep,
on the recorded matroid alone.

The paper's excluded-minor laws, ``split-gammoid`` (3-element splittings,
G_1..G_3) and ``main`` (3-folds, G_4), are ``_Law`` constants run by one
law sweep, :func:`_law_sweep`: one worker, one tally and one memoized row
decision, :func:`_law_outcome`.

:func:`run_checks` runs the evaluators of the reports it selects
(``_REPORTS``) in one pass, one call and one memo per member, pooled as one
map (:func:`_map_members`); the check functions then tally, or evaluate
serially when called alone.  A
report's ``wall_time`` is the seconds its evaluator spent on the members,
as timed where it ran, plus its own tally.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import combinations
from math import ceil, comb
from operator import xor

from . import _kernel, catalog
from .gf2 import Gf2Matrix, check_room
from .matroid import BinaryMatroid, MinorWitness, canonical_key, series_parallel_reduces
from .ops import admissible_pairs, splitting, three_fold, three_fold_rows
# bench/run.py's install_tracer wraps splitting, element_splitting,
# three_fold, three_fold_ghafari and admissible_pairs here and at ops, and
# requires each name to be the same function at both.
from .ops import element_splitting, three_fold_ghafari  # noqa: F401
from .corpus import MAX_LOOPS, Corpus
from .verifyreport import CaseFailure, VerificationReport, make_failure


def compact(m: BinaryMatroid) -> str:
    """One-token serialization 'labels;rows' used in failure records; a label
    holding ',' or ';' would not parse back, so it raises."""
    for lab in m.labels:
        if "," in lab or ";" in lab:
            raise ValueError(f"label {lab!r} holds ',' or ';' and cannot be compacted")
    return ",".join(m.labels) + ";" + ",".join(m.rep.row_strings())


def from_compact(token: str) -> BinaryMatroid:
    label_part, _, row_part = token.partition(";")
    labels = tuple(label_part.split(",")) if label_part else ()
    rows = [r for r in row_part.split(",") if r]
    rep = Gf2Matrix.from_bits(rows) if rows else Gf2Matrix((), len(labels))
    return BinaryMatroid(labels, rep)


# The pass of the running run_checks call: its corpus and _map_members's table.
_RUN: ContextVar[tuple] = ContextVar("_RUN", default=(None, {}))


def _member_outcomes(item, evaluators) -> tuple:
    """(outcome, seconds) of each of ``evaluators`` on one (member, gammoid
    flag), all sharing one memo for the member."""
    m, gammoid = item
    memo: dict = {}
    timed = []
    for evaluate in evaluators:
        start = time.perf_counter()
        timed.append((evaluate(m, gammoid, memo), time.perf_counter() - start))
    return tuple(timed)


def _map_members(names, c: Corpus, pool=None, jobs: int = 1) -> dict:
    """report name -> (its evaluator's outcome on each member of ``c`` in
    corpus order, the seconds it spent), from one :func:`_member_outcomes`
    call per member: on ``pool`` with ``jobs`` workers, or serially.

    Members go out largest first (stable by element count), so the last
    tasks to finish are small, in chunks of ceil(members / (4 * jobs)),
    ``multiprocessing.Pool.map``'s default: about four tasks per worker,
    cheap beside the work, and tasks are left for a worker that finishes
    early."""
    evaluators = tuple(_REPORTS[name][1] for name in names)
    items = tuple(zip(c.members, c.gammoid_flags))
    order = sorted(range(len(items)), key=lambda i: -items[i][0].n_elements())
    fn, sent = partial(_member_outcomes, evaluators=evaluators), [items[i] for i in order]
    got = (pool.map(fn, sent, chunksize=max(1, ceil(len(sent) / (4 * jobs))))
           if pool else map(fn, sent))
    results = [r for _, r in sorted(zip(order, got), key=lambda pair: pair[0])]
    return {name: ([r[i][0] for r in results], sum(r[i][1] for r in results))
            for i, name in enumerate(names)}


def _swept(c: Corpus, name: str) -> tuple:
    """Report ``name``'s outcome on each member of ``c`` in corpus order and
    its seconds outside the caller: the :func:`run_checks` pass's, or 0."""
    corpus, table = _RUN.get()
    if corpus is c and name in table:
        return table[name]
    return _map_members((name,), c)[name][0], 0.0


def _k_subsets(s: BinaryMatroid, k: int):
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > s.n_elements():
        raise ValueError(f"k={k} exceeds the ground set size {s.n_elements()}")
    return combinations(sorted(s.labels), k)


@cache
def _profile_want(name: str):
    """The profile of catalog pattern ``name``, which has rank <= 2."""
    rep = catalog.get(name).matroid.rep
    return _kernel.profile(rep.rows, rep.n_cols)


def splitting_minor_set(s: BinaryMatroid, k: int, memo: dict | None = None):
    """The first k-subset Y, in label order, whose splitting has an F minor
    anywhere, as a frozenset; None when there is none.

    Decided on rows, with nothing built: the splitting on Y appends the
    mask of Y as a row (:func:`ops.splitting`), so it depends only on that
    mask's coset, the XOR of the labels' ``s._label_cosets`` (see there),
    and F has rank 2.  Each coset met is decided once, by
    :func:`_f_decision`, and kept in ``memo``.
    """
    decided = {} if memo is None else memo
    cosets = s._label_cosets
    return next((frozenset(y) for y in _k_subsets(s, k)
                 if _f_decision(s, reduce(xor, map(cosets.get, y)), decided)),
                None)


def _f_decision(s: BinaryMatroid, key: int, decided: dict) -> bool:
    """Whether ``s`` with the row ``key`` appended has an F minor, a coset
    representative modulo the row space of ``s`` (0 asks about ``s``
    itself), decided by one ``_kernel.profile_present`` call on the rows;
    ``decided`` holds the decisions already made for ``s``, by key."""
    if key not in decided:
        decided[key] = _kernel.profile_present(
            s.rep.rows + (key,), s.rep.n_cols, (_profile_want("F"),))[0]
    return decided[key]


def pinned_splitting_minor(s: BinaryMatroid, y) -> MinorWitness | None:
    """An F minor of the splitting on ``y`` that keeps every element of ``y``.

    Deletion commutes with splitting, and so does contracting a set that
    misses ``y``.  Such a minor therefore exists iff ``s`` has a 5-element
    minor N containing ``y`` whose splitting on ``y`` is isomorphic to F:
    the pair (N, y) is a member of the splitting-minor collection, the
    same definition the catalog validates for F_1..F_4 on their marked
    triples.
    """
    return splitting(s, y).has_minor(catalog.get("F").matroid, keep=y)


def pinned_splitting_minor_set(s: BinaryMatroid, k: int):
    """The first k-subset Y, in label order, whose splitting has an F minor
    that keeps Y (see :func:`pinned_splitting_minor`), as a frozenset; None
    when there is none."""
    return next((frozenset(y) for y in _k_subsets(s, k)
                 if pinned_splitting_minor(s, y) is not None), None)


def _universe(c: Corpus, quantifier: str, gammoids_only: bool = True) -> str:
    scope = "binary gammoids" if gammoids_only else "binary matroids"
    return (f"{scope} with <= {c.max_elements} elements, rank <= {c.max_rank}, "
            f"at most {MAX_LOOPS} loops; {quantifier}")


# -- emptiness of the k-element splitting collections ---------------------------


def _split_minor_outcome(m: BinaryMatroid, k: int, search) -> str:
    """``search(m, k)`` returns the Y found, or None."""
    y = search(m, k) if k <= m.n_elements() else None
    return "absent" if y is None else f"witness Y={{{','.join(sorted(y))}}}"


def _gf_empty_member(m: BinaryMatroid, gammoid: bool, memo: dict, k: int) -> tuple:
    """The gf-empty-k{k} outcome of ``m`` and, for a gammoid with a witness,
    whether ``m`` itself has an F minor: coset 0 of its F decisions."""
    f = memo.setdefault("F", {})
    got = _split_minor_outcome(m, k, partial(splitting_minor_set, memo=f))
    return got, gammoid and got != "absent" and _f_decision(m, 0, f)


def _gf_collection_member(m: BinaryMatroid, gammoid: bool, memo: dict, k: int) -> tuple:
    """The gf-collection-k{k} outcome of ``m``, with no F decision."""
    return _split_minor_outcome(m, k, pinned_splitting_minor_set), None


def _split_minor_sweep(c: Corpus, name: str, k: int):
    """Sweep report ``name``, gf-empty or gf-collection at k:
    (gammoid, F decision) for the gammoids whose outcome is a witness,
    their failure records, the observations on the non-gammoids, and
    :func:`_swept`'s seconds."""
    outcomes, spent = _swept(c, name)
    found = [(m, gammoid, got, has_f) for m, gammoid, (got, has_f)
             in zip(c.members, c.gammoid_flags, outcomes) if got != "absent"]
    hosts = [(m, has_f) for m, gammoid, _, has_f in found if gammoid]
    failures = [make_failure(compact(m), {"k": k}, expected="absent", got=got)
                for m, gammoid, got, _ in found if gammoid]
    hits = [compact(m) for m, gammoid, _, _ in found if not gammoid]
    return hosts, failures, {
        "all_binary_reading_members": c.gammoid_flags.count(False),
        "all_binary_reading_witnesses": len(hits),
        "all_binary_reading_examples": hits[:5],
    }, spent


def check_split_minor_empty(c: Corpus, k: int) -> VerificationReport:
    """Unpinned reading at k = 1, 2: no gammoid has a Y with |Y| = k whose
    splitting has an F minor anywhere.

    This reading fails by mathematical fact, and the report records the
    witnesses as failures.  The catalog's G_1 (F plus a loop) refutes it:
    split on the loop, contract the loop, and F is left.  The minor found
    here may delete or contract elements of Y, so it says nothing about
    the splitting-minor collection, whose members (N, Y) keep Y inside a
    5-element minor N with N_Y isomorphic to F.  That collection is empty
    for k = 1, 2, which :func:`check_split_minor_collection_empty` checks.

    Observations: how many witness hosts already contain an F minor, how
    many are F-minor-free and the smallest F-minor-free one (fewest
    elements, first in corpus order); and the same sweep over the
    non-gammoids, since the claim is only made for gammoids.

    Each F question is decided on rows, one ``_kernel.profile_present``
    call per row-space coset (:func:`splitting_minor_set`); the counts read
    coset 0 of each witness host, the host itself.  No witness is built.
    """
    if k not in (1, 2):
        raise ValueError("emptiness is only asserted for k in {1, 2}")
    start = time.perf_counter()
    hosts, failures, observations, spent = _split_minor_sweep(c, f"gf-empty-k{k}", k)
    free = [m for m, has_f in hosts if not has_f]
    smallest = min(free, key=lambda m: m.n_elements(), default=None)
    return VerificationReport.from_failures(
        f"gf-empty-k{k}",
        _universe(c, f"for every member and every Y with |Y| = {k}"),
        len(c.gammoids()), failures, start - spent, {
            "witness_hosts_with_f_minor": len(hosts) - len(free),
            "witness_hosts_f_minor_free": len(free),
            "smallest_f_minor_free_host":
                compact(smallest) if smallest is not None else None,
            **observations})


def check_split_minor_collection_empty(c: Corpus, k: int) -> VerificationReport:
    """Assert that the splitting-minor collection is empty for k = 1, 2.

    For every gammoid M and every Y with |Y| = k, the splitting M_Y has no
    F minor M_Y \\ D / C with Y disjoint from C and D (the pinned reading,
    see :func:`pinned_splitting_minor`).  Equivalently, no 5-element minor
    N of M contains Y with N_Y isomorphic to F.  At k = 3 the same search
    finds exactly the images of the marked triples of F_1..F_4.

    Why k = 1, 2 are empty: at k = 1, N_Y either gains the coloop y or
    equals N with y already a coloop, and F has no coloop.  At k = 2, F
    has no 2-element cocycle, so N_Y differs from N; then N has rank 1 and
    the three elements outside Y share one parallel class, while F's
    classes have sizes {1, 2, 2}.

    The same sweep over the non-gammoids is reported as an observation.
    """
    if k not in (1, 2):
        raise ValueError("emptiness is only asserted for k in {1, 2}")
    start = time.perf_counter()
    _, failures, observations, spent = _split_minor_sweep(c, f"gf-collection-k{k}", k)
    return VerificationReport.from_failures(
        f"gf-collection-k{k}",
        _universe(c, f"for every member and every Y with |Y| = {k}, "
                     "F minors of the splitting that keep Y"),
        len(c.gammoids()), failures, start - spent, observations)


# -- k = 3: splitting-minor membership vs the F_i excluded minors ---------------


def _gf_member_worker(m: BinaryMatroid, gammoid: bool, memo: dict):
    """The gf-minors outcome of ``m``, (whether a 3-element splitting has an
    F minor, the F_i minors' names), None for a non-gammoid; the left side
    reads and adds to the member's F decisions in ``memo``."""
    if not gammoid:
        return None
    lhs = m.n_elements() >= 3 and splitting_minor_set(
        m, 3, memo.setdefault("F", {})) is not None
    present = _kernel.profile_present(m.rep.rows, m.rep.n_cols,
                                      tuple(map(_profile_want, _FI)))
    return lhs, tuple(name for name, hit in zip(_FI, present) if hit)


# The excluded minors of the characterization, all of rank <= 2.
_FI = ("F_1", "F_2", "F_3", "F_4")


def check_split_minor_characterization(c: Corpus) -> VerificationReport:
    """Assert: some 3-element splitting has an F minor iff some F_i minor exists.

    F and F_1..F_4 have rank <= 2, so both sides are decided on rows with
    ``_kernel.profile_present``, with no witness built: the left through
    :func:`splitting_minor_set`, one call per row-space coset of the Ys'
    masks, the right with one call holding all four wants, so F_2..F_4
    share one pass over the rank-1 contractions.
    """
    start = time.perf_counter()
    outcomes, spent = _swept(c, "gf-minors")
    read = [(m, *got) for m, got in zip(c.members, outcomes) if got]
    failures = [make_failure(compact(m), {"k": 3}, expected="agree=True",
                             got=f"splitting_minor={lhs} f_minors="
                                 f"{','.join(found) or 'none'} agree=False")
                for m, lhs, found in read if lhs != bool(found)]
    in_collection = sum(lhs for _, lhs, _ in read)
    return VerificationReport.from_failures(
        "gf-minors",
        _universe(c, "both directions of: exists Y, |Y| = 3, with an F "
                     "minor in the splitting <=> exists an F_i minor, i = 1..4"),
        len(c.gammoids()), failures, start - spent,
        {"members_with_splitting_minor": in_collection})


# -- quotients of M(F) -----------------------------------------------------------


def _quotient_bounds(q: BinaryMatroid) -> list[str]:
    """Bounds violated by a proper quotient: rank 1 on five elements, at
    most two loops, no 2-element cocircuit, parallel classes of size <= 4."""
    problems = []
    if q.rank() != 1 or q.n_elements() != 5:
        problems.append(f"rank {q.rank()} on {q.n_elements()}")
    if len(q.loops()) > 2:
        problems.append(f"{len(q.loops())} loops")
    if any(len(cc) == 2 for cc in q.cocircuits()):
        problems.append("has a 2-element cocircuit")
    sizes = [len(cls) for cls in q.parallel_classes()]
    if sizes and max(sizes) > 4:
        problems.append(f"parallel class of size {max(sizes)}")
    return problems


def _f_extensions():
    """Single-element extensions of F: rank-preserving columns over the
    reduced representation, plus every column of a rank-3 lift."""
    f = catalog.get("F").matroid
    reduced = _kernel.rref(f.rep.rows)
    base2 = BinaryMatroid(f.labels, Gf2Matrix(reduced, f.rep.n_cols))
    base3 = BinaryMatroid(f.labels, Gf2Matrix(reduced + (0,), f.rep.n_cols))
    cases = []
    for col in range(4):
        cases.append(("rank-preserving", col,
                      BinaryMatroid(base2.labels + ("a",),
                                    base2.rep.append_column(col))))
    for col in range(8):
        cases.append(("rank-3-lift", col,
                      BinaryMatroid(base3.labels + ("a",),
                                    base3.rep.append_column(col))))
    return cases


_Q_CLASSES = ("Q_1", "Q_2", "Q_3")


def check_quotients_of_f() -> VerificationReport:
    """Enumerate all single-element extensions Q of F and classify Q/a.

    Asserts the quotient classes are exactly {Q_1, Q_2, Q_3} (with
    Q_4 isomorphic to Q_3), that proper quotients have rank 1 on five
    elements, and that they satisfy the loop/cocircuit/parallel bounds.
    The class of Q/a is tested first; the bounds apply to proper quotients
    only (a neither a loop nor a coloop).
    """
    start = time.perf_counter()
    keys = {name: canonical_key(catalog.get(name).matroid)
            for name in _Q_CLASSES + ("Q_4",)}
    extensions = _f_extensions()
    failures = []
    class_counts: dict[str, int] = {}
    seen = set()
    for family, col, q in extensions:
        quotient = q.contract({"a"})
        key = canonical_key(quotient)
        seen.add(key)
        label = next((n for n in _Q_CLASSES if keys[n] == key), "unexpected")
        class_counts[label] = class_counts.get(label, 0) + 1
        case = {"family": family, "column": col}
        if label == "unexpected":
            failures.append(make_failure(
                compact(q), case, "quotient isomorphic to one of Q_1, Q_2, Q_3",
                f"key {key}"))
            continue
        proper = "a" not in q.loops() and "a" not in q.coloops()
        problems = _quotient_bounds(quotient) if proper else []
        if problems:
            failures.append(make_failure(
                compact(q), case, "proper quotient of rank 1 on 5 elements within "
                "the loop/cocircuit/parallel bounds", "; ".join(problems)))
    classes = "quotient classes exactly {Q_1, Q_2, Q_3}"
    if seen != {keys[n] for n in _Q_CLASSES}:
        failures.append(make_failure("F-extension-sweep", {"check": "class-set"},
                                     classes, f"{len(seen)} classes"))
    if keys["Q_4"] != keys["Q_3"]:
        failures.append(make_failure("catalog", {"check": "Q_4-vs-Q_3"},
                                     "Q_4 isomorphic to Q_3", "distinct keys"))
    return VerificationReport.from_failures(
        "quotients", "all single-element extensions of F (4 rank-preserving "
                     "columns and 8 rank-3-lift columns)",
        len(extensions) + 2, failures, start,
        {"quotient_class_counts": class_counts})


# -- excluded-minor laws: 3-element splittings and 3-folds ------------------------


_SPLIT_OK = "splitting is a binary gammoid"
_FOLD_OK = "3-fold is a binary gammoid"


@dataclass(frozen=True)
class _Law:
    """A gammoid with no excluded minor (catalog patterns with nonempty
    marks) stays a gammoid under the operation, read as ``ok``, on each
    case of ``cases(m)``: sorted label tuples, in sweep order.
    ``images(m, cases)`` gives the pinned reading, the label sets that the
    marks of some excluded minor occupy, as frozensets; every mark set is
    nonempty, so ``m`` has an excluded minor iff some image exists.  The
    operation appends rows to ``m``'s, each a label mask u plus bits in
    new columns; ``key(cosets, case)`` gives the row-space cosets of the
    masks u, each the XOR of its labels' ``m._label_cosets``, and
    ``rows(m, key)`` gives (rows in standard form, n_cols) of the result.
    A failure names its case under ``param``; ``some_bad_key`` counts the
    members with an excluded minor where some case goes non-gammoid.  The
    sweep reads the gammoids of at least ``min_elements`` elements."""

    name: str
    images: Callable
    cases: Callable
    key: Callable
    rows: Callable
    ok: str
    param: str
    some_bad_key: str
    min_elements: int


def _law_outcome(law: _Law, m: BinaryMatroid, case, memo: dict) -> str:
    """Whether the operation of ``law`` on ``case`` keeps ``m`` a binary
    gammoid: ``law.ok`` or "non-gammoid".

    Decided on rows, without building the result or reducing any rows:
    for a ``law.key`` not yet in ``memo``, the decisions already made for
    ``m``, ``law.rows`` builds the result's rows in standard form from
    ``m._rref`` and the key, and :func:`series_parallel_reduces` decides
    them.  The key is the coset representatives of the masks u
    (``BinaryMatroid._label_cosets`` proves it sound), so the outcome is
    exactly what the computation on the result would give.  ``m`` was
    validated and its labels make up ``case``, so nothing is left to check.
    """
    key = law.key(m._label_cosets, case)
    if key not in memo:
        memo[key] = series_parallel_reduces(*law.rows(m, key))
    return law.ok if memo[key] else "non-gammoid"


def _split_rows(m: BinaryMatroid, key: int) -> tuple:
    """The splitting on T appends the mask of T as a row (Raghunathan,
    Shikare, Waphare, "Splitting in a binary matroid", Discrete Math. 184,
    1998).  For ``key`` its coset, the splitting in standard form is
    ``m._rref`` plus the row ``key``: the key has no pivot bit of
    ``m._rref``, so each rref row keeps its pivot alone, and each row
    holding the key's lowest bit is XORed with the key, which leaves that
    bit to the key's row alone.  Key 0 leaves the rows of ``m``."""
    if not key:
        return m._rref, m.rep.n_cols
    low = key & -key
    return (tuple(row ^ key if row & low else row for row in m._rref) + (key,),
            m.rep.n_cols)


# (matroid, marked) of G_1..G_3, each read once: G_2 is G_1 with its loop b
# at another vertex, the same labels, rows and marks.
@cache
def _split_patterns() -> tuple:
    return tuple({(e.matroid.labels, e.matroid.rep, e.marked): (e.matroid, e.marked)
                  for e in map(catalog.get, ("G_1", "G_2", "G_3"))}.values())


def _split_images(m: BinaryMatroid, cases) -> set[frozenset[str]]:
    """The triples that the marks of G_1, G_2 or G_3 occupy in ``m``, read
    by ``minor_marked_images``; every triple is a case of the law."""
    return set().union(*(m.minor_marked_images(pattern, marked)
                         for pattern, marked in _split_patterns()))


# Workers look a law up here by name, so no lambda is pickled.
_LAWS = {law.name: law for law in (
    _Law(name="split-gammoid", images=_split_images,
         cases=lambda m: tuple(combinations(sorted(m.labels), 3)),
         key=lambda cos, t: cos[t[0]] ^ cos[t[1]] ^ cos[t[2]], rows=_split_rows,
         ok=_SPLIT_OK, param="T",
         some_bad_key="members_where_some_splitting_non_gammoid", min_elements=3),
    # The marks (x, y) of G_4 occupy exactly the admissible pairs, the cases
    # (see check_three_fold_excluded_minor), so no image is searched.
    _Law(name="main", images=lambda m, cases: set(map(frozenset, cases)),
         cases=lambda m: tuple(sorted(tuple(sorted(p)) for p in admissible_pairs(m))),
         key=lambda cos, p: (cos[p[0]] ^ cos[p[1]], cos[p[0]]),
         # For the cosets (v(xy), v(x)) the 3-fold's rows on m._rref are a
         # standard form: its new columns p and q are each 1 in one row alone.
         rows=lambda m, key: (three_fold_rows(m._rref, m.rep.n_cols, *key),
                              m.rep.n_cols + 3),
         ok=_FOLD_OK, param="pair",
         some_bad_key="members_where_some_fold_non_gammoid", min_elements=0),
)}


def _law_worker(m: BinaryMatroid, gammoid: bool, memo: dict, name: str):
    """(whether ``m`` has an excluded minor, its number of cases, the cases
    that go non-gammoid, the cases where the pinned reading agrees); None
    for a member that the sweep of law ``name`` does not read."""
    law = _LAWS[name]
    if not gammoid or m.n_elements() < law.min_elements:
        return None
    cases = law.cases(m)
    pinned = law.images(m, cases)
    decided = memo.setdefault(name, {})
    bad = tuple(case for case in cases
                if _law_outcome(law, m, case, decided) != law.ok)
    bad_set = set(bad)
    agree = sum((frozenset(case) in pinned) == (case in bad_set) for case in cases)
    return bool(pinned), len(cases), bad, agree


def _law_sweep(name: str, c: Corpus) -> tuple:
    """Sweep law ``name`` over the gammoids of ``c``: ((member, outcome)
    pairs, failures, observations, cases of the members without an
    excluded minor, :func:`_swept`'s seconds).  Those members carry the
    asserted direction: each case that goes non-gammoid is a failure.  The
    others record the converse under the unlabeled reading (some case goes
    non-gammoid) and the pinned reading (a case goes non-gammoid iff it is
    the image of a marked set)."""
    law = _LAWS[name]
    outcomes, spent = _swept(c, name)
    members = [(m, got) for m, got in zip(c.members, outcomes) if got]
    failures = []
    asserted = with_minor = with_minor_and_bad = pinned_checked = pinned_agree = 0
    for m, (has_excluded, n_cases, bad, agree) in members:
        if not has_excluded:
            asserted += n_cases
            failures += [make_failure(compact(m), {law.param: ",".join(case)},
                                      law.ok, "non-gammoid") for case in bad]
            continue
        with_minor += 1
        with_minor_and_bad += bool(bad)
        pinned_checked += n_cases
        pinned_agree += agree
    return members, failures, {
        "members_with_excluded_minor": with_minor,
        law.some_bad_key: with_minor_and_bad,
        "pinned_reading_pairs_checked": pinned_checked,
        "pinned_reading_agreements": pinned_agree,
    }, asserted, spent


def check_splitting_excluded_minors(c: Corpus) -> VerificationReport:
    """Excluded-minor law for 3-element splittings of gammoids.

    Asserted direction: a gammoid with no G_1/G_2/G_3 minor keeps the
    gammoid property under every splitting on three elements.  For members
    that do contain such a minor, the converse is recorded observationally
    under both the unlabeled reading (some splitting goes non-gammoid) and
    the pinned reading (the splitting set matches a marked-triple image).

    Each splitting M_T is decided on rows by :func:`_law_outcome`, once
    per row-space coset of T's mask.
    """
    start = time.perf_counter()
    members, failures, observations, _, spent = _law_sweep("split-gammoid", c)
    return VerificationReport.from_failures(
        "split-gammoid",
        _universe(c, "members without a G_1/G_2/G_3 minor: every splitting on "
                     "|T| = 3 stays a gammoid (asserted); members with such a "
                     "minor: converse recorded observationally"),
        len(members), failures, start - spent, observations)


def _g4_known_instance() -> dict:
    """The 3-fold of G_4 on its marked pair: case -> (expected, got).

    It is run from the reduced one-row representation so the output
    matrix is comparable bit for bit.
    """
    entry = catalog.get("G_4")
    g4 = entry.matroid
    reduced = BinaryMatroid(g4.labels, Gf2Matrix(_kernel.rref(g4.rep.rows),
                                                 g4.rep.n_cols))
    folded = three_fold(reduced, *entry.marked)
    iso = "3-fold of G_4 isomorphic to K4"
    not_gammoid = "3-fold of G_4 is not a gammoid"
    return {
        "known-instance-rows": ("111000/110101/100011",
                                "/".join(folded.rep.row_strings())),
        "known-instance-iso": (
            iso, iso if folded.is_isomorphic(catalog.get("K4").matroid)
            is not None else "not isomorphic"),
        "known-instance-gammoid": (
            not_gammoid,
            "gammoid" if folded.is_binary_gammoid() else not_gammoid),
    }


def check_three_fold_excluded_minor(c: Corpus) -> VerificationReport:
    """Excluded-minor law for the 3-fold extension of gammoids.

    Asserted: members without a G_4 minor keep the gammoid property under
    every admissible 3-fold, and the catalog G_4 instance itself produces
    the known 6-element non-gammoid isomorphic to K4 with its exact
    three-row representation.  Members containing a G_4 minor are recorded
    observationally under the unlabeled and pinned readings.

    The first assertion has no cases: G_4 is U_{1,3}, and a pair properly
    inside a cocircuit (of at least 3 elements) already gives a U_{1,3}
    minor, so every member with an admissible pair has a G_4 minor.  The
    observation ``direction_a_admissible_pairs`` is therefore 0, and a
    pass rests on the three known-instance cases.

    The pinned reading needs no search either: the images of G_4's marked
    pair (x, y) in M are exactly the admissible pairs.  Every automorphism
    of U_{1,3} is a permutation, so the images are the 2-subsets of the
    ground sets of U_{1,3} minors.  One direction is the construction in
    the proof below.  Conversely, let N = M \\ D / C be U_{1,3} on
    {x, y, z}.  Its one cocircuit is {x, y, z}, and the cocircuits of
    M \\ D / C are the minimal nonempty sets C* - D with C* a cocircuit
    of M and C* disjoint from C (Oxley, *Matroid Theory*, 2nd ed.,
    Ch. 2-3).  So some cocircuit C* of M holds x, y and z, and {x, y}
    lies properly inside it.

    More holds: for every binary matroid M and every admissible pair
    {x, y}, the 3-fold has an M(K4) minor, so it is never a gammoid.
    Proof sketch: {x, y} lies properly inside a cocircuit C*; pick
    z in C* - {x, y}.  H = E - C* is a hyperplane, so contracting a basis B
    of H leaves rank 1 with every element of C* a non-loop, and deleting
    H - B and C* - {x, y, z} leaves U_{1,3} = G_4 on {x, y, z}.  Splitting
    on a set commutes with deleting or contracting an element outside it
    (the new row is 0 there and survives the pivot), and so does adjoining
    loops; none of the removed elements is x, y or a new loop.  So the same
    deletions and contractions take the 3-fold of M to the 3-fold of G_4,
    which is M(K4) (the known instance).  This is the 3-fold of this
    module: three loops p, q, r adjoined, then splittings on {x, y, p, r}
    and on {x, q, r}.  PAPER.md holds only the paper's abstract, so the
    paper's 3-fold-3-point splitting may be defined otherwise.

    Each 3-fold is decided on rows by :func:`_law_outcome`, once per pair
    of row-space cosets (v(xy), v(x)) of the two splitting masks.

    ``ghafari_construction_identical`` is proved, not measured: it equals
    ``ghafari_construction_compared``, the number of admissible pairs.
    :func:`ops.three_fold_ghafari` (element splittings on {x, y} and on
    {x}, then the closing column r = p + q) gives the same labels and rows
    as :func:`ops.three_fold` on every pair, since both append
    (xy|p|r, x|q|r) to the host's rows; ``tests/test_ops.py`` pins this
    against the element splittings themselves on every admissible pair of
    the n <= 6 corpus.
    """
    start = time.perf_counter()
    members, failures, observations, asserted, spent = _law_sweep("main", c)
    for case, (expected, got) in _g4_known_instance().items():
        if got != expected:
            failures.append(make_failure(compact(catalog.get("G_4").matroid),
                                         {"case": case}, expected, got))
    pairs = asserted + observations["pinned_reading_pairs_checked"]
    observations.update(direction_a_admissible_pairs=asserted,
                        ghafari_construction_compared=pairs,
                        ghafari_construction_identical=pairs)
    return VerificationReport.from_failures(
        "main",
        _universe(c, "members without a G_4 minor: every admissible 3-fold "
                     "stays a gammoid (asserted); the G_4 instance itself "
                     "(asserted); members with a G_4 minor: converse "
                     "recorded observationally"),
        len(members) + 3, failures, start - spent, observations)


# -- element-splitting delete/contract identities ---------------------------------


def _esplit_violations(m: BinaryMatroid, t) -> list[str]:
    """The element-splitting identities on ``t`` that fail for ``m``.

    Checked on rows, as :func:`ops.element_splitting` builds them: the
    extension by a new last element e has ``m``'s rows plus the mask of
    ``t`` with e's bit set.  Deleting e must leave exactly the splitting's
    rows, ``m``'s plus the mask; contracting e must give back exactly
    ``m``'s rows, since e's only 1 is in the appended row, so the pivot on e
    removes that row and touches no other.  ``m`` was validated and its
    labels make up ``t``, so the mask is read off ``m._label_bits`` with no
    check, and e needs no label, so no matroid is built.  The worker checks
    once per member that e fits (``check_room``).
    """
    bits = m._label_bits
    mask = 0
    for lab in t:
        mask |= bits[lab]
    rows, n = m.rep.rows, m.rep.n_cols
    e = 1 << n
    ext = rows + (mask | e,)
    bad = []
    if _kernel.delete_rows(ext, n + 1, e) != rows + (mask,):
        bad.append("delete identity")
    if _kernel.contract_rows(ext, n + 1, e) != rows:
        bad.append("contract identity")
    return bad


# The sizes of T that the element-splitting identities are swept over.
_ESPLIT_SIZES = (1, 2, 3)


def _esplit_worker(m: BinaryMatroid, gammoid: bool, memo: dict) -> tuple:
    """The (T, identity) pairs that fail on ``m``, gammoid or not."""
    check_room(m.rep.n_cols)
    labels = sorted(m.labels)
    return tuple((t, which)
                 for size in _ESPLIT_SIZES
                 for t in combinations(labels, size)
                 for which in _esplit_violations(m, t))


def check_element_splitting_identities(c: Corpus) -> VerificationReport:
    """delete(esplit) equals the splitting exactly; contract(esplit) gives
    back the original matroid.  Swept over every member of ``c`` and every T
    with 1 <= |T| <= 3."""
    start = time.perf_counter()
    outcomes, spent = _swept(c, "esplit-identities")
    failures = [make_failure(compact(m), {"T": ",".join(t)},
                             expected=f"{which} holds", got="violated")
                for m, bad in zip(c.members, outcomes) for t, which in bad]
    cases = sum(comb(m.n_elements(), size)
                for m in c.members for size in _ESPLIT_SIZES)
    return VerificationReport.from_failures(
        "esplit-identities",
        _universe(c, "all T with |T| <= 3", gammoids_only=False),
        cases, failures, start - spent)


# -- dispatch ---------------------------------------------------------------------


def check_names(names) -> list[str]:
    """The checks that ``names`` selects ("all" selects every one).

    Raises ValueError on an unknown name, before any work is done.
    """
    wanted = list(CHECK_NAMES) if "all" in names else list(names)
    unknown = [n for n in wanted if n not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown check name(s): {', '.join(unknown)}; "
                         f"known: {', '.join(CHECK_NAMES)}, all")
    return wanted


def run_checks(names, c: Corpus | None, jobs: int | None = None
               ) -> list[VerificationReport]:
    """Run the named checks (or all of them) and return their reports.

    First the evaluators of the reports they select run in one pass over
    ``c``, one call and one memo per member (:func:`_map_members`), so
    gf-empty k = 1, 2, their witness hosts and gf-minors decide each F coset
    of a member once.  With ``jobs > 1`` it is the one map of a pool.
    """
    wanted = check_names(names)
    needs_corpus = set(wanted) - {"catalog", "quotients"}
    if needs_corpus and c is None:
        raise ValueError("these checks need a corpus: " + ", ".join(sorted(needs_corpus)))
    swept = tuple(dict.fromkeys(
        report for name in wanted for report, (check, evaluate, _) in _REPORTS.items()
        if check == name and evaluate))
    pooled = swept and jobs and jobs > 1
    with ProcessPoolExecutor(max_workers=jobs) if pooled else nullcontext() as pool:
        table = _map_members(swept, c, pool, jobs) if swept else {}
    token = _RUN.set((c, table))
    try:
        return [run(c) for name in wanted
                for check, _, run in _REPORTS.values() if check == name]
    finally:
        _RUN.reset(token)


# Each report by name: the run_checks name that selects it (None: none does;
# it runs alone or in a replay); its evaluator, (member, gammoid flag, the
# member's memo) -> the outcome it tallies (None: no member), sent to workers
# by reference, never as a lambda; and its run on a corpus.  The check
# functions are looked up when a report runs, as bench/run.py's tracer wraps
# them in this module; k stays positional, as the tracer names gf-empty spans
# by args[1].
_REPORTS = {
    "catalog": ("catalog", None, lambda c: catalog.validate_all()),
    "quotients": ("quotients", None, lambda c: check_quotients_of_f()),
    "gf-empty-k1": ("gf-empty", partial(_gf_empty_member, k=1),
                    lambda c: check_split_minor_empty(c, 1)),
    "gf-empty-k2": ("gf-empty", partial(_gf_empty_member, k=2),
                    lambda c: check_split_minor_empty(c, 2)),
    "gf-minors": ("gf-minors", _gf_member_worker,
                  lambda c: check_split_minor_characterization(c)),
    "split-gammoid": ("split-gammoid", partial(_law_worker, name="split-gammoid"),
                      lambda c: check_splitting_excluded_minors(c)),
    "main": ("main", partial(_law_worker, name="main"),
             lambda c: check_three_fold_excluded_minor(c)),
    "esplit-identities": ("esplit-identities", _esplit_worker,
                          lambda c: check_element_splitting_identities(c)),
    "gf-collection-k1": (None, partial(_gf_collection_member, k=1),
                         lambda c: check_split_minor_collection_empty(c, 1)),
    "gf-collection-k2": (None, partial(_gf_collection_member, k=2),
                         lambda c: check_split_minor_collection_empty(c, 2)),
}
CHECK_NAMES = tuple(dict.fromkeys(check for check, _, _ in _REPORTS.values() if check))


def rerun_case(report_name: str, failure: CaseFailure) -> bool:
    """Replay one failure record of report ``report_name``: run that report,
    the same sweep, on a corpus of the recorded matroid alone, its gammoid
    flag recomputed.

    Returns True when the report records an equal failure.  A case that the
    sweep never takes is never recorded, so it does not reproduce.
    """
    if report_name not in _REPORTS:
        raise ValueError(f"unknown report {report_name!r}; "
                         f"known: {', '.join(_REPORTS)}")
    m = from_compact(failure.matroid)
    alone = Corpus(m.n_elements(), m.rank(), (m,), (m.is_binary_gammoid(),))
    return failure in _REPORTS[report_name][2](alone).failures
