"""Verification harness: witnesses, reports, re-runs, and check outcomes."""

import json
import math
import multiprocessing
import pickle
import random
import shutil
import subprocess
import sys
import time
from functools import reduce
from itertools import combinations
from operator import or_
from pathlib import Path

import pytest

from matroidsplit import _kernel, catalog, matroid, verify
from matroidsplit.corpus import MAX_LOOPS, Corpus
from matroidsplit.gf2 import Gf2Matrix
from matroidsplit.matroid import BinaryMatroid, series_parallel_reduces
from matroidsplit.ops import admissible_pairs, splitting, three_fold
from matroidsplit.verifyreport import VerificationReport, make_failure

REPO = Path(__file__).resolve().parents[1]


def f_plus_loop():
    f = catalog.get("F").matroid
    from matroidsplit.ops import add_loops

    return add_loops(f, ("l",))


# -- splitting-minor witnesses -------------------------------------------------------


def test_marked_triple_witness_for_f1():
    entry = catalog.get("F_1")
    f = catalog.get("F").matroid
    y = verify.splitting_minor_set(entry.matroid, 3)
    assert y is not None
    split = splitting(entry.matroid, sorted(y))
    w = split.has_minor(f)
    assert w.verify(split, f)


def test_f_itself_has_no_single_element_witness():
    # Any splitting of F on one element raises the rank to 3, but an F minor
    # needs rank 2 on all five elements.
    assert verify.splitting_minor_set(catalog.get("F").matroid, 1) is None


def test_small_ground_sets_never_produce_witnesses():
    m = BinaryMatroid.from_matrix(("a", "b", "c"),
                                  Gf2Matrix.from_bits(["111"]))
    for k in (1, 2, 3):
        assert verify.splitting_minor_set(m, k) is None


def test_witness_bounds():
    m = catalog.get("F").matroid
    with pytest.raises(ValueError):
        verify.splitting_minor_set(m, 0)
    with pytest.raises(ValueError):
        verify.splitting_minor_set(m, 6)


def test_loop_splitting_produces_a_witness():
    # Splitting a loop turns it into a coloop; contracting it restores F.
    host = f_plus_loop()
    f = catalog.get("F").matroid
    assert verify.splitting_minor_set(host, 1) == {"l"}
    split = splitting(host, ["l"])
    w = split.has_minor(f)
    assert w.verify(split, f)


def test_splitting_minor_set_is_the_first_y_with_a_witness(corpus6):
    # The decision on rows finds the Y that a witness search over the built
    # splittings finds first, and the witness for that Y verifies.
    f = catalog.get("F").matroid
    found = 0
    for m in corpus6.members:
        for k in (1, 2, 3):
            if k > m.n_elements():
                continue
            first = next((frozenset(y) for y in verify._k_subsets(m, k)
                          if splitting(m, y).has_minor(f) is not None), None)
            assert verify.splitting_minor_set(m, k) == first, (m, k)
            if first is not None:
                split = splitting(m, sorted(first))
                w = split.has_minor(f)
                assert w.verify(split, f)
                found += 1
    assert found


def test_pinned_search_keeps_y_in_the_minor():
    # The unpinned witness on F plus a loop contracts its Y = {l}; an F minor
    # that keeps l does not exist, because l is a coloop of the splitting.
    host = f_plus_loop()
    f = catalog.get("F").matroid
    assert verify.splitting_minor_set(host, 1) == {"l"}
    unpinned = splitting(host, ["l"]).has_minor(f)
    assert {"l"} <= unpinned.contracted
    assert verify.pinned_splitting_minor_set(host, 1) is None
    # F_2 split on its marked triple is isomorphic to F: nothing is removed.
    entry = catalog.get("F_2")
    m = entry.matroid
    w = verify.pinned_splitting_minor(m, entry.marked)
    assert w is not None and not (w.deleted | w.contracted)
    assert w.verify(splitting(m, entry.marked), f)
    # The first triple in label order is an image of the marked triple under
    # an automorphism of F_2: two of the parallel elements and the loop.
    found = verify.pinned_splitting_minor_set(m, 3)
    assert found in m.minor_marked_images(m, entry.marked)
    split = splitting(m, sorted(found))
    w = verify.pinned_splitting_minor(m, sorted(found))
    assert w.verify(split, f)
    assert found <= set(w.mapping.values())
    with pytest.raises(ValueError):
        verify.pinned_splitting_minor_set(m, 6)


# -- emptiness checks (the unpinned reading fails; see the docstrings) ----------------


def test_split_minor_empty_records_counterexamples(corpus7):
    report = verify.check_split_minor_empty(corpus7, 1)
    assert report.verdict == "fail"
    assert len(report.failures) == 25
    for failure in report.failures:
        assert verify.rerun_case(report.name, failure)
    tokens = {f.matroid for f in report.failures}
    assert verify.compact(f_plus_loop()) not in tokens  # labels differ
    assert any(verify.from_compact(t).is_isomorphic(f_plus_loop()) is not None
               for t in tokens)
    assert report.observations["witness_hosts_with_f_minor"] == 25
    assert report.observations["witness_hosts_f_minor_free"] == 0
    assert report.observations["smallest_f_minor_free_host"] is None
    report2 = verify.check_split_minor_empty(corpus7, 2)
    assert report2.verdict == "fail"
    assert len(report2.failures) == 35
    assert report2.observations["witness_hosts_with_f_minor"] == 30
    assert report2.observations["witness_hosts_f_minor_free"] == 5
    smallest = verify.from_compact(
        report2.observations["smallest_f_minor_free_host"])
    assert smallest.rep.row_strings() == ["111000", "000111"]


def test_split_minor_empty_observes_all_binary_reading(corpus7):
    report = verify.check_split_minor_empty(corpus7, 1)
    assert report.observations["all_binary_reading_members"] == 7
    assert report.observations["all_binary_reading_witnesses"] >= 1


def test_split_minor_empty_rejects_large_k(corpus6):
    with pytest.raises(ValueError):
        verify.check_split_minor_empty(corpus6, 3)
    with pytest.raises(ValueError):
        verify.check_split_minor_collection_empty(corpus6, 3)


# -- the k = 3 characterization ---------------------------------------------------------


def test_characterization_holds_exhaustively(corpus7):
    report = verify.check_split_minor_characterization(corpus7)
    assert report.verdict == "pass"
    assert report.cases == len(corpus7.gammoids())
    assert report.observations["members_with_splitting_minor"] == 76


# -- quotient enumeration -----------------------------------------------------------------


def test_quotients_of_f():
    report = verify.check_quotients_of_f()
    assert report.verdict == "pass"
    assert report.observations["quotient_class_counts"] == {
        "Q_1": 6, "Q_2": 2, "Q_3": 4}


# -- splittings on three elements -----------------------------------------------------------


def test_splitting_excluded_minors(corpus7):
    report = verify.check_splitting_excluded_minors(corpus7)
    assert report.verdict == "pass"
    obs = report.observations
    assert obs["members_with_excluded_minor"] == 14
    assert obs["members_where_some_splitting_non_gammoid"] == 14
    assert obs["pinned_reading_agreements"] == obs["pinned_reading_pairs_checked"]


# -- 3-fold --------------------------------------------------------------------------------


def test_three_fold_check(corpus6):
    report = verify.check_three_fold_excluded_minor(corpus6)
    assert report.verdict == "pass"
    obs = report.observations
    assert obs["direction_a_admissible_pairs"] == 0
    assert obs["members_with_excluded_minor"] == 55
    assert obs["members_where_some_fold_non_gammoid"] == 55
    assert obs["ghafari_construction_identical"] == \
        obs["ghafari_construction_compared"]


def _random_host(rng):
    """A random binary matroid on up to 10 elements with up to two loops
    and up to two coloops, in shuffled column order."""
    r = rng.randrange(5)
    coloops = rng.randrange(3)
    cols = [rng.getrandbits(r) for _ in range(rng.randrange(7))]
    cols += [0] * rng.randrange(3) + [1 << (r + i) for i in range(coloops)]
    rng.shuffle(cols)
    rows = _kernel.columns(cols, r + coloops)
    return BinaryMatroid(tuple(f"e{j}" for j in range(len(cols))),
                         Gf2Matrix(rows, len(cols)))


def test_g4_images_are_the_admissible_pairs(corpus7):
    # main takes G_4's pinned images on (x, y) to be its own cases, the
    # admissible pairs, as check_three_fold_excluded_minor proves.  Here the
    # search confirms it on every member of the corpus, gammoid or not, and
    # on random hosts with loops and coloops.
    entry = catalog.get("G_4")
    rng = random.Random(29)
    hosts = list(corpus7.members) + [_random_host(rng) for _ in range(1000)]
    with_pairs = 0
    for m in hosts:
        pairs = {frozenset(p) for p in admissible_pairs(m)}
        assert m.minor_marked_images(entry.matroid, entry.marked) == pairs, \
            verify.compact(m)
        with_pairs += bool(pairs)
    assert 0 < with_pairs < len(hosts)


def test_main_reads_no_marked_images(corpus7, monkeypatch):
    # main's pinned reading comes from its admissible pairs, so its pass
    # makes no profile_images call; split-gammoid's still searches.
    calls = []
    images = _kernel.profile_images

    def spy(*args):
        calls.append(args)
        return images(*args)

    monkeypatch.setattr(_kernel, "profile_images", spy)
    [report] = verify.run_checks(["main"], corpus7)
    assert report.verdict == "pass"
    assert report.observations["pinned_reading_agreements"] > 0
    assert not calls
    verify.run_checks(["split-gammoid"], corpus7.restrict(5))
    assert calls


# -- one decision per row-space coset -------------------------------------------------------


def test_split_outcomes_shared_per_coset_match_the_splittings(corpus6):
    # One memo per member, as the sweep shares it: every triple's outcome is
    # the splitting's own gammoid test, and the memo holds one entry per
    # distinct splitting (row space), no more and no fewer.
    for m in corpus6.gammoids():
        memo, spans = {}, set()
        for t in combinations(sorted(m.labels), 3):
            split = splitting(m, t)
            got = verify._law_outcome(verify._LAWS["split-gammoid"], m, t, memo)
            assert (got == verify._SPLIT_OK) == split.is_binary_gammoid(), (m, t)
            spans.add(split._rref)
        assert len(memo) == len(spans), m


def test_fold_outcomes_shared_per_coset_match_the_3_folds(corpus6):
    # The same for every admissible pair and its 3-fold.
    for m in corpus6.gammoids():
        memo, spans = {}, set()
        for pair in sorted(admissible_pairs(m), key=sorted):
            x, y = sorted(pair)
            folded = three_fold(m, x, y)
            got = verify._law_outcome(verify._LAWS["main"], m, (x, y), memo)
            assert (got == verify._FOLD_OK) == folded.is_binary_gammoid(), (m, x, y)
            spans.add(folded._rref)
        assert len(memo) == len(spans), m


def test_fold_outcome_keeps_the_64_column_limit():
    # The 3-fold adds three columns, so the replay of a 62-column member is
    # refused, as ops.three_fold refuses it, on both kernels.
    labels = tuple(f"e{j}" for j in range(62))
    wide = BinaryMatroid(labels, Gf2Matrix(((1 << 62) - 1,), 62))
    failure = make_failure(verify.compact(wide), {"pair": "e0,e1"},
                           verify._FOLD_OK, "non-gammoid")
    with pytest.raises(ValueError, match="column limit"):
        verify.rerun_case("main", failure)


def _alone_on_some_column(rows) -> bool:
    """True iff each row has a column where it alone is 1: a standard form."""
    return all(row & ~reduce(or_, rows[:i] + rows[i + 1:], 0)
               for i, row in enumerate(rows))


def test_law_rows_are_standard_forms_of_the_built_results(corpus7):
    # Each case's rows come from the member's rref and the coset key, with
    # no elimination.  On every case of the n <= 7 corpus, gammoid or not,
    # they are a standard form with the row space of the splitting or
    # 3-fold that ops builds, and series_parallel_reduces reads them as it
    # reads the rref of the built rows, and as the built matroid's own test.
    built = {"split-gammoid": lambda m, t: splitting(m, t),
             "main": lambda m, pair: three_fold(m, *pair)}
    counts = dict.fromkeys(built, 0)
    for name, build in built.items():
        law = verify._LAWS[name]
        for m in corpus7.members:
            for case in law.cases(m):
                rows, n_cols = law.rows(m, law.key(m._label_cosets, case))
                result = build(m, case)
                assert n_cols == result.rep.n_cols
                assert _kernel.rref(rows) == result._rref, (m, case)
                assert _alone_on_some_column(rows), (m, case)
                assert series_parallel_reduces(rows, n_cols) == \
                    series_parallel_reduces(_kernel.rref(result.rep.rows), n_cols) == \
                    result.is_binary_gammoid(), (m, case)
                counts[name] += 1
    assert all(counts.values()), counts


def test_fold_rows_keep_the_64_column_limit():
    # The 3-fold's rows add three columns: 61 columns fit, 62 raise.
    for n, fits in ((61, True), (62, False)):
        wide = BinaryMatroid(tuple(f"e{j}" for j in range(n)),
                             Gf2Matrix(((1 << n) - 1,), n))
        key = (wide._label_cosets["e0"] ^ wide._label_cosets["e1"],
               wide._label_cosets["e0"])
        if fits:
            assert verify._LAWS["main"].rows(wide, key)[1] == 64
        else:
            with pytest.raises(ValueError, match="column limit"):
                verify._LAWS["main"].rows(wide, key)


def test_esplit_keeps_the_64_column_limit():
    # The extension adds one column, so a 64-column member is refused once,
    # before any T, by the sweep's worker and so by the replay.
    labels = tuple(f"e{j}" for j in range(64))
    wide = BinaryMatroid(labels, Gf2Matrix(((1 << 64) - 1,), 64))
    with pytest.raises(ValueError, match="column limit"):
        verify._esplit_worker(wide, False, {})
    record = make_failure(verify.compact(wide), {"T": "e0"},
                          "delete identity holds", "violated")
    with pytest.raises(ValueError, match="column limit"):
        verify.rerun_case("esplit-identities", record)
    narrow = make_failure(verify.compact(wide.delete({"e63"})), {"T": "e0"},
                          "delete identity holds", "violated")
    assert not verify.rerun_case("esplit-identities", narrow)


# Records of cases that no sweep takes, which once replayed as outcomes of
# their own: (report, host, params, expected, got).  main takes admissible
# pairs, split-gammoid 3-subsets of the ground set, esplit-identities 1 to 3
# distinct labels in sorted order, and each gf report its own k.
_NEVER_TAKEN = [
    *(("main", host, {"pair": pair}, verify._FOLD_OK, "non-gammoid")
      for host, pair in (("G_4", "x,x"), ("coloops", "e0,e1"), ("G_4", "x,w"))),
    *(("split-gammoid", "G_1", {"T": t}, verify._SPLIT_OK, "non-gammoid")
      for t in ("x,x,b", "x,b", "x,b,c,bottom", "x,b,w")),
    *(("esplit-identities", "K4", {"T": t}, "delete identity holds", "violated")
      for t in ("e12,e13,e14,e23", "e12,e12", "e23,e12", "e12,e99")),
    ("gf-empty-k1", "G_1", {"k": 2}, "absent", "witness Y={b,bottom}"),
    ("gf-empty-k2", "G_1", {"k": 1}, "absent", "witness Y={b}"),
    ("gf-collection-k1", "G_1", {"k": 2}, "absent", "witness Y={b,bottom}"),
    *(("gf-minors", "G_1", {"k": k}, "agree=True",
       "splitting_minor=True f_minors=none agree=False") for k in (1, 2, 4)),
]


@pytest.mark.parametrize(
    "report,host,params,expected,got", _NEVER_TAKEN,
    ids=[f"{r}-{h}-{next(iter(p.values()))}" for r, h, p, _, _ in _NEVER_TAKEN])
def test_replays_of_cases_no_sweep_takes_do_not_reproduce(report, host, params,
                                                          expected, got):
    # The replay runs the report's sweep on the recorded matroid alone, so a
    # record reproduces only if the sweep itself makes it.
    m = (BinaryMatroid(("e0", "e1", "e2"), Gf2Matrix((0b001, 0b010, 0b100), 3))
         if host == "coloops" else catalog.get(host).matroid)
    failure = make_failure(verify.compact(m), params, expected, got)
    assert verify.rerun_case(report, failure) is False


# -- element-splitting identities ----------------------------------------------------------


def test_esplit_identities(corpus6):
    report = verify.check_element_splitting_identities(corpus6)
    assert report.verdict == "pass"
    assert report.failures == ()


def test_esplit_identities_on_a_member_labelled_like_a_new_element():
    # The identities adjoin an unlabelled element, so a member may hold any
    # label; the check once named its new element "a*" and raised here.
    m = BinaryMatroid.from_matrix(("a*", "b", "c"),
                                  Gf2Matrix.from_bits(["110", "011"]))
    report = verify.check_element_splitting_identities(Corpus(3, 2, (m,), (True,)))
    assert report.verdict == "pass"
    assert report.cases == 7


# -- dispatch / reports / re-runs -------------------------------------------------------------


def test_run_checks_unknown_name(corpus6):
    with pytest.raises(ValueError, match="unknown check"):
        verify.run_checks(["nope"], corpus6)


def test_run_checks_corpusless_subset():
    reports = verify.run_checks(["catalog", "quotients"], None)
    assert [r.name for r in reports] == ["catalog", "quotients"]
    assert all(r.verdict == "pass" for r in reports)


def test_run_checks_requires_corpus_for_sweeps():
    with pytest.raises(ValueError, match="need a corpus"):
        verify.run_checks(["main"], None)


def test_reports_are_deterministic(corpus6):
    a = verify.check_three_fold_excluded_minor(corpus6).to_json_dict()
    b = verify.check_three_fold_excluded_minor(corpus6).to_json_dict()
    a.pop("wall_time")
    b.pop("wall_time")
    assert a == b


def test_report_invariants():
    with pytest.raises(ValueError):
        VerificationReport("x", "u", 1,
                           (make_failure("m", {}, "a", "b"),),
                           0.0, "pass")
    with pytest.raises(ValueError):
        VerificationReport("x", "u", 1, (), 0.0, "fail")
    with pytest.raises(ValueError, match="verdict must be"):
        VerificationReport("x", "u", 0, (), 0.0, "observational")


def test_case_failures_pickle_and_share_their_params():
    # Failures carry no __dict__, survive pickling equal, and equal params
    # are one tuple however many failures hold them.
    a = make_failure("e0;1", {"k": 1}, "absent", "witness Y={e0}")
    b = make_failure("e1;1", {"k": 1}, "absent", "witness Y={e1}")
    assert not hasattr(a, "__dict__")
    assert a.params is b.params == (("k", "1"),)
    back = pickle.loads(pickle.dumps(a))
    assert back == a and hash(back) == hash(a)
    assert back.describe() == a.describe()


def test_compact_round_trip(corpus6):
    for m in corpus6.members[:40]:
        token = verify.compact(m)
        back = verify.from_compact(token)
        assert back.same_matrix(m)


def test_compact_rejects_labels_holding_separators():
    # "a,b" once compacted to "a,b,c;11", which parses back as 3 labels.
    for bad in ("a,b", "a;b"):
        m = BinaryMatroid((bad, "c"), Gf2Matrix.from_bits(["11"]))
        with pytest.raises(ValueError, match=repr(bad)):
            verify.compact(m)


def test_rerun_reproduces_synthetic_failure():
    host = verify.compact(f_plus_loop())
    failure = make_failure(host, {"k": 1}, expected="absent", got="witness Y={l}")
    assert verify.rerun_case("gf-empty-k1", failure)
    wrong = make_failure(host, {"k": 1}, expected="absent", got="witness Y={left1}")
    assert not verify.rerun_case("gf-empty-k1", wrong)
    # The collection report replays with the pinned search, which finds no
    # Y here: the loop is a coloop of its splitting.
    assert not verify.rerun_case("gf-collection-k1", failure)
    # Each gf-empty report records the witness at its own k.
    g1 = verify.compact(catalog.get("G_1").matroid)
    for k, got in ((1, "witness Y={b}"), (2, "witness Y={b,bottom}")):
        record = make_failure(g1, {"k": k}, "absent", got)
        assert verify.rerun_case(f"gf-empty-k{k}", record)


def test_rerun_known_instance_cases(monkeypatch):
    # A known-instance record names G_4 itself, and it reproduces only while
    # the check fails on it, as with a 3-fold that returns its host.
    token = verify.compact(catalog.get("G_4").matroid)
    cases = {
        "known-instance-rows": ("111000/110101/100011", "111"),
        "known-instance-iso": ("3-fold of G_4 isomorphic to K4", "not isomorphic"),
        "known-instance-gammoid": ("3-fold of G_4 is not a gammoid", "gammoid"),
    }
    records = [make_failure(token, {"case": case}, expected, got)
               for case, (expected, got) in cases.items()]
    unknown = make_failure(token, {"case": "known-instance-nope"}, "111", "111")
    assert not any(verify.rerun_case("main", f) for f in records + [unknown])
    monkeypatch.setattr(verify, "three_fold", lambda m, x, y: m)
    assert all(verify.rerun_case("main", f) for f in records)
    assert not verify.rerun_case("main", unknown)


def test_every_forced_failure_replays(corpus6, monkeypatch):
    # Each patch makes a check record failures; replaying each record under
    # the same patch must reproduce its recorded outcome.
    small = corpus6.restrict(5)
    catalog.get("F")  # validate the catalog before any primitive is patched
    # The workers decide on rows: split-gammoid and main call the
    # series-parallel reduction imported into verify.  main also reaches it
    # through is_binary_gammoid, for the G_4 known instance, and only that
    # instance can fail there: the asserted direction over admissible pairs
    # has no cases (see check_three_fold_excluded_minor), so main's patch
    # covers both names.  The esplit identities compare the kernel's delete
    # and contract rows, and gf-minors and gf-empty decide with the kernel's
    # profile_present, gf-empty once per row-space coset of its Ys' masks.
    # A kernel patch that returns its input rows leaves the new element in
    # place; the profile_present patch reads a want as present when the last
    # row is odd, so the F test on the split rows and the F_i test on the
    # host's rows disagree on some members.
    odd_last_row = (_kernel, "profile_present",
                    lambda rows, n, wants: (bool(rows) and rows[-1] % 2 == 1,) * len(wants))
    patches = {
        "split-gammoid": [(verify, "series_parallel_reduces", lambda rows, n: False)],
        "main": [(verify, "series_parallel_reduces", lambda rows, n: True),
                 (matroid, "series_parallel_reduces", lambda rows, n: True)],
        "esplit-identities": [(_kernel, "delete_rows", lambda rows, n, mask: rows),
                              (_kernel, "contract_rows", lambda rows, n, mask: rows)],
        "gf-minors": [odd_last_row],
        "gf-empty": [odd_last_row],
        "quotients": [(verify, "canonical_key", lambda m: (len(m.labels), m.rep.rows))],
        # The catalog was validated above, so get() still serves it.
        "catalog": [(BinaryMatroid, "is_isomorphic", lambda self, other: None)],
    }
    for name, patch in patches.items():
        with monkeypatch.context() as mp:
            for owner, attr, value in patch:
                mp.setattr(owner, attr, value)
            # gf-empty gives two reports, k = 1 and 2; the others one.
            for report in verify.run_checks([name], small, jobs=1):
                assert report.verdict == "fail", report.name
                replayed = [verify.rerun_case(report.name, f) for f in report.failures]
                assert all(replayed), (report.name, replayed)
                if name == "esplit-identities":
                    assert {f.expected for f in report.failures} == {
                        "delete identity holds", "contract identity holds"}
                if name == "quotients":
                    assert len({(f.matroid, f.params) for f in report.failures}) \
                        == len(report.failures)
                    assert "class-set" in {dict(f.params).get("check")
                                           for f in report.failures}


def test_report_observations_are_json_native(corpus6):
    # to_json writes observations as they are, so each check must store
    # values that json writes and reads back unchanged.
    for report in verify.run_checks(["all"], corpus6, jobs=1):
        json.dumps(report.observations)
        assert json.loads(report.to_json())["observations"] == report.observations
    odd = VerificationReport.from_failures("odd", "none", 0, (), time.perf_counter(),
                                           {"members": {"a"}})
    with pytest.raises(TypeError):
        odd.to_json()


def test_every_forced_gf_collection_failure_replays(corpus6, monkeypatch):
    # gf-collection-k1 and -k2 are not run_checks names, so
    # test_every_forced_failure_replays never reaches them.  The patch reads a Y as pinned when it holds the
    # member's last label and the member's rows sum to an odd number, so
    # pinned_splitting_minor_set searches past the first Y, in the sweep and
    # in the replay alike.
    small = corpus6.restrict(5)
    monkeypatch.setattr(verify, "pinned_splitting_minor",
                        lambda s, y: s if sum(s.rep.rows) % 2 and max(s.labels) in y
                        else None)
    for k in (1, 2):
        report = verify.check_split_minor_collection_empty(small, k)
        assert report.name == f"gf-collection-k{k}"
        assert report.verdict == "fail"
        replayed = [verify.rerun_case(report.name, f) for f in report.failures]
        assert all(replayed), (report.name, replayed)


def test_rerun_case_covers_every_report(corpus6):
    # Every report replays by name, the two gf-collection reports too,
    # though no run_checks name selects them; a name of no report raises.
    assert verify.CHECK_NAMES == ("catalog", "quotients", "gf-empty", "gf-minors",
                                  "split-gammoid", "main", "esplit-identities")
    record = make_failure(verify.compact(corpus6.members[0]), {}, "expected", "got")
    for name in verify._REPORTS:
        assert verify.rerun_case(name, record) is False
    for name in ("mystery", "gf-empty", "gf-empty-k3", "gf-collection-k3"):
        with pytest.raises(ValueError, match=f"unknown report '{name}'; known: "):
            verify.rerun_case(name, record)


def test_every_corpus_universe_names_the_loop_cap(corpus6):
    # The generator and Corpus.load keep at most MAX_LOOPS loops, so a
    # universe that named only the element and rank bounds would claim more
    # than was checked.  The catalog and quotient reports read no corpus.
    bounds = f"with <= 6 elements, rank <= 4, at most {MAX_LOOPS} loops; "
    for name, (_, _, run) in verify._REPORTS.items():
        universe = run(corpus6).universe
        assert (bounds in universe) == (name not in ("catalog", "quotients")), name


def test_parallel_jobs_give_identical_reports(corpus6):
    serial = verify.check_split_minor_characterization(corpus6)
    [parallel] = verify.run_checks(["gf-minors"], corpus6, jobs=2)
    a, b = serial.to_json_dict(), parallel.to_json_dict()
    a.pop("wall_time")
    b.pop("wall_time")
    assert a == b


def test_run_checks_shares_one_pool(corpus6, monkeypatch):
    starts, maps = [], []

    class CountedPool(verify.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

        def map(self, fn, items, chunksize=1):
            maps.append(([m.n_elements() for m, _ in items], chunksize))
            return super().map(fn, items, chunksize=chunksize)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", CountedPool)
    names = ["catalog", "gf-empty", "gf-minors", "split-gammoid", "main",
             "esplit-identities"]
    for n, jobs, length in ((5, 2, 58), (5, 3, 58), (2, 2, 6)):
        small = corpus6.restrict(n)
        del maps[:]
        pooled = verify.run_checks(names, small, jobs=jobs)
        assert starts[-1] == jobs
        # Every sweep of the call in one map over all the members, largest
        # first.  n <= 5: more members than 4 * jobs; n <= 2: fewer.
        [(sizes, chunksize)] = maps
        assert len(sizes) == len(small.members) == length
        assert sizes == sorted((m.n_elements() for m in small.members), reverse=True)
        assert chunksize == max(1, math.ceil(length / (4 * jobs)))
        serial = verify.run_checks(names, small, jobs=1)
        for a, b in zip(serial, pooled, strict=True):
            a, b = a.to_json_dict(), b.to_json_dict()
            a.pop("wall_time")
            b.pop("wall_time")
            assert a == b
    # A check called on its own opens no pool.
    verify.check_split_minor_characterization(corpus6.restrict(5))
    verify.run_checks(["catalog", "quotients"], None, jobs=2)
    assert starts == [2, 3, 2]


def test_no_worker_outlives_run_checks(corpus6, monkeypatch):
    # The pool closes with its pass, also when a sweep raises in a worker.
    small = corpus6.restrict(5)
    verify.run_checks(["split-gammoid"], small, jobs=2)
    assert multiprocessing.active_children() == []

    def fails(rows, n_cols):
        raise RuntimeError("sweep failed")

    monkeypatch.setattr(verify, "series_parallel_reduces", fails)
    with pytest.raises(RuntimeError, match="sweep failed"):
        verify.run_checks(["split-gammoid"], small, jobs=2)
    assert multiprocessing.active_children() == []


def test_pooled_wall_time_counts_the_evaluator_seconds(corpus6, monkeypatch):
    # A report's wall_time is the seconds its evaluator spent on the
    # members, summed over the workers, plus its tally; with two workers
    # the clock sees about half of that pass.
    small = corpus6.restrict(4)
    violations = verify._esplit_violations

    def slow(m, t):
        time.sleep(0.001)
        return violations(m, t)

    monkeypatch.setattr(verify, "_esplit_violations", slow)
    [report] = verify.run_checks(["esplit-identities"], small, jobs=2)
    assert report.wall_time >= report.cases * 0.001


def test_gf_sweeps_of_one_run_decide_each_coset_once(corpus6, monkeypatch):
    # Every F decision of the gf sweeps is a profile_present call on a
    # member's rows plus one coset representative.  One run_checks call
    # decides each (member row space, coset) once, across k and sweeps.
    f_want = (verify._profile_want("F"),)
    decided = []
    present = _kernel.profile_present

    def counted(rows, n_cols, wants):
        if wants == f_want:
            decided.append((_kernel.rref(rows[:-1]), n_cols, rows[-1]))
        return present(rows, n_cols, wants)

    separate = [verify.check_split_minor_empty(corpus6, 1),
                verify.check_split_minor_empty(corpus6, 2),
                verify.check_split_minor_characterization(corpus6)]
    monkeypatch.setattr(_kernel, "profile_present", counted)
    together = verify.run_checks(["gf-empty", "gf-minors"], corpus6, jobs=1)
    assert decided and len(set(decided)) == len(decided)
    for a, b in zip(separate, together, strict=True):
        a, b = a.to_json_dict(), b.to_json_dict()
        a.pop("wall_time")
        b.pop("wall_time")
        assert a == b
    # Called on its own, a check starts with no decisions.
    del decided[:]
    verify.check_split_minor_empty(corpus6, 2)
    alone = len(decided)
    verify.check_split_minor_empty(corpus6, 2)
    assert len(decided) == 2 * alone


# -- the traced bench run ------------------------------------------------------------


def _traced_bench_run(tmp_path, workload):
    # bench/run.py wraps names at verify and ops and gates each pass on the
    # report fields; a short traced run in a copy of bench/ and src/ must
    # still find every name and pass every gate.
    for part in ("bench", "src"):
        shutil.copytree(REPO / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", "runs"))
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    # Every report's check function was looked up, and so traced, at run time.
    assert all(result["metrics"][f"verify.{r}.s"]["value"] > 0 for r in (
        "catalog", "quotients", "gf-empty-k1", "gf-empty-k2", "gf-minors",
        "split-gammoid", "main", "esplit-identities"))


def test_traced_bench_run_of_verify_n8_is_correct(tmp_path):
    _traced_bench_run(tmp_path, "verify-n8")


def test_traced_bench_run_of_verify_n7_jobs2_is_correct(tmp_path):
    # The pooled pass, under the tracer's pool wrapper and fork guard.
    _traced_bench_run(tmp_path, "verify-n7-jobs2")
