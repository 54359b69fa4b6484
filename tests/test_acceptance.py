"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Criterion 4 asserts the splitting-minor collections for k = 1 and k = 2 as
the catalog defines them: pairs (N, Y) with N a 5-element minor and N_Y
isomorphic to F, i.e. F minors of the splitting that keep Y.  The unpinned
reading (an F minor anywhere in the splitting) fails by mathematical fact;
the docstrings of ``verify.check_split_minor_empty`` and
``verify.check_split_minor_collection_empty`` give the analysis.
"""

import random
import time
from itertools import combinations

from matroidsplit import catalog, verify
from matroidsplit.corpus import canonical_key
from matroidsplit.gf2 import Gf2Matrix, row_space_contains
from matroidsplit.matroid import BinaryMatroid
from matroidsplit.ops import element_splitting, splitting, three_fold_steps

from oracles import brute_circuits


def report(criterion, ok, elapsed, budget, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion-{criterion}: {verdict} ({elapsed:.2f}s < {budget}s) {detail}")
    return ok


def test_criterion_1_golden_three_fold_pipeline():
    start = time.perf_counter()
    a = BinaryMatroid.from_matrix(("x", "y", "z"), Gf2Matrix.from_bits(["111"]))
    with_loops, first, second = three_fold_steps(a, "x", "y")
    ok = with_loops.rep.row_strings() == ["111000"]
    ok &= first.rep.row_strings() == ["111000", "110101"]
    ok &= second.rep.row_strings() == ["111000", "110101", "100011"]
    ok &= second.is_isomorphic(catalog.get("K4").matroid) is not None
    ok &= not second.is_binary_gammoid()
    elapsed = time.perf_counter() - start
    assert report(1, ok and elapsed < 1.0, elapsed, 1,
                  "three-step construction bit-exact, K4-isomorphic, non-gammoid")
    assert ok and elapsed < 1.0


def test_criterion_2_catalog_validation():
    start = time.perf_counter()
    rep = catalog.validate_all()
    f = catalog.get("F").matroid
    ok = rep.verdict == "pass" and f.rank() == 2 and f.n_elements() == 5
    elapsed = time.perf_counter() - start
    assert report(2, ok and elapsed < 5.0, elapsed, 5,
                  f"{rep.cases} validation facts")
    assert ok and elapsed < 5.0


def test_criterion_3_quotient_enumeration():
    start = time.perf_counter()
    rep = verify.check_quotients_of_f()
    ok = rep.verdict == "pass"
    elapsed = time.perf_counter() - start
    assert report(3, ok and elapsed < 10.0, elapsed, 10,
                  f"classes {rep.observations['quotient_class_counts']}")
    assert ok and elapsed < 10.0


def test_criterion_4_splitting_minor_collections_empty_for_k1_k2(corpus7):
    start = time.perf_counter()
    rep1 = verify.check_split_minor_collection_empty(corpus7, 1)
    rep2 = verify.check_split_minor_collection_empty(corpus7, 2)
    ok = rep1.verdict == "pass" and rep2.verdict == "pass"
    # Guard: at k = 3 the same pinned search must find exactly the images of
    # the marked triples of F_1..F_4, so the k = 1, 2 verdicts cannot pass
    # merely because the search never matches.
    entries = [catalog.get(name) for name in ("F_1", "F_2", "F_3", "F_4")]
    guard_hosts = 0
    guard_mismatches = []
    for m in corpus7.gammoids():
        if m.n_elements() < 5:
            continue
        pinned = {frozenset(y) for y in combinations(sorted(m.labels), 3)
                  if verify.pinned_splitting_minor(m, y) is not None}
        images = set().union(*(m.minor_marked_images(e.matroid, e.marked)
                               for e in entries))
        if pinned != images:
            guard_mismatches.append(verify.compact(m))
        guard_hosts += bool(images)
    guard_ok = not guard_mismatches and guard_hosts > 0
    elapsed = time.perf_counter() - start
    witnesses = len(rep1.failures) + len(rep2.failures)
    report(4, ok and guard_ok and elapsed < 300.0, elapsed, 300,
           f"{witnesses} pinned witnesses at k = 1, 2; k = 3 guard matched "
           f"the F_1..F_4 images on {guard_hosts} members")
    first = (rep1.failures + rep2.failures)[0] if witnesses else None
    assert ok, (
        f"the splitting-minor collection is not empty: {len(rep1.failures)} "
        f"pinned witnesses at k=1 and {len(rep2.failures)} at k=2, first "
        f"{first.describe() if first else ''}; see the docstring of "
        "verify.check_split_minor_collection_empty")
    assert guard_ok, (
        f"the pinned search at k = 3 disagrees with the F_1..F_4 marked "
        f"images on {guard_mismatches[:3]} ({guard_hosts} members with images)")
    assert elapsed < 300.0


def test_criterion_5_characterization_for_k3(corpus7):
    start = time.perf_counter()
    rep = verify.check_split_minor_characterization(corpus7)
    ok = rep.verdict == "pass"
    elapsed = time.perf_counter() - start
    assert report(5, ok and elapsed < 300.0, elapsed, 300,
                  f"{rep.cases} members, both directions")
    assert ok and elapsed < 300.0


def test_criterion_6_splitting_excluded_minors(corpus8):
    start = time.perf_counter()
    rep = verify.check_splitting_excluded_minors(corpus8)
    ok = rep.verdict == "pass"
    obs_present = {"members_with_excluded_minor",
                   "pinned_reading_pairs_checked",
                   "pinned_reading_agreements"} <= set(rep.observations)
    elapsed = time.perf_counter() - start
    agree = rep.observations.get("pinned_reading_agreements")
    total = rep.observations.get("pinned_reading_pairs_checked")
    assert report(6, ok and obs_present and elapsed < 300.0, elapsed, 300,
                  f"direction (a) clean; pinned agreement {agree}/{total}")
    assert ok and obs_present and elapsed < 300.0


def test_criterion_7_three_fold_excluded_minor(corpus6):
    start = time.perf_counter()
    rep = verify.check_three_fold_excluded_minor(corpus6)
    ok = rep.verdict == "pass"
    obs_present = {"members_with_excluded_minor",
                   "members_where_some_fold_non_gammoid",
                   "pinned_reading_agreements"} <= set(rep.observations)
    elapsed = time.perf_counter() - start
    assert report(7, ok and obs_present and elapsed < 300.0, elapsed, 300,
                  f"observations: {rep.observations['members_with_excluded_minor']} "
                  "members carry the excluded minor")
    assert ok and obs_present and elapsed < 300.0


def test_criterion_8_oracle_equivalences(corpus8, sample200):
    start = time.perf_counter()
    ok = True
    for entry in catalog.list_entries():
        ok &= entry.matroid.circuits() == brute_circuits(entry.matroid)
    for m in sample200:
        ok &= m.circuits() == brute_circuits(m)
    rng = random.Random(20260811)
    members = list(corpus8.members)
    pairs_checked = 0
    for _ in range(250):
        a, b = rng.sample(members, 2)
        ok &= (canonical_key(a) == canonical_key(b)) == \
            (a.is_isomorphic(b) is not None)
        pairs_checked += 1
    for _ in range(250):
        a = rng.choice(members)
        order = list(range(a.n_elements()))
        rng.shuffle(order)
        cols = [a.rep.column(j) for j in order]
        rows = tuple(sum(((cols[j] >> i) & 1) << j for j in range(len(cols)))
                     for i in range(a.rep.n_rows))
        b = BinaryMatroid(tuple(a.labels[j] for j in order),
                          Gf2Matrix(rows, a.n_elements()))
        ok &= canonical_key(a) == canonical_key(b)
        ok &= a.is_isomorphic(b) is not None
        pairs_checked += 1
    elapsed = time.perf_counter() - start
    assert report(8, ok and elapsed < 120.0, elapsed, 120,
                  f"circuit oracle on catalog + {len(sample200)} members; "
                  f"{pairs_checked} key/iso pairs")
    assert ok and elapsed < 120.0


def test_criterion_9_structural_properties(corpus8, sample200):
    start = time.perf_counter()
    pool = [e.matroid for e in catalog.list_entries()] + list(sample200)
    ok = True
    for m in pool:
        labels = list(m.labels)
        for size in range(0, len(labels) + 1):
            for s in combinations(labels, size):
                ok &= m.delete(s).dual() == m.dual().contract(s)
        for c in m.circuits():
            for cc in m.cocircuits():
                ok &= len(c & cc) % 2 == 0
        for size in (1, 2, 3):
            for t in combinations(sorted(labels), size):
                mask = 0
                for lab in t:
                    mask |= 1 << m.labels.index(lab)
                split = splitting(m, t)
                expected = m.rank() if row_space_contains(m.rep, mask) \
                    else m.rank() + 1
                ok &= split.rank() == expected
                ext = element_splitting(m, t, "acc*")
                ok &= ext.delete({"acc*"}).same_matrix(split)
                ok &= ext.contract({"acc*"}).same_matrix(m)
    for m in pool:
        if not m.is_binary_gammoid():
            continue
        for lab in m.labels:
            ok &= m.delete({lab}).is_binary_gammoid()
            ok &= m.contract({lab}).is_binary_gammoid()
    elapsed = time.perf_counter() - start
    assert report(9, ok and elapsed < 120.0, elapsed, 120,
                  f"duality, orthogonality, rank bounds, identities over "
                  f"{len(pool)} matroids")
    assert ok and elapsed < 120.0
