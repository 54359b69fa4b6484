"""Canonical keys and isomorph-free enumeration."""

import hashlib
import random
from itertools import combinations_with_replacement

import pytest

from matroidsplit import _kernel, catalog
from matroidsplit import corpus as corpus_mod
from matroidsplit._kernel import pure
from matroidsplit.corpus import Corpus, enumerate_binary_matroids, matroid_from_columns
from matroidsplit.gf2 import Gf2Matrix
from matroidsplit.matroid import BinaryMatroid, canonical_key, reduced_columns

from oracles import classify_matroids, gl_least_image


def shuffled_copy(m, rng):
    order = list(range(m.n_elements()))
    rng.shuffle(order)
    cols = [m.rep.column(j) for j in order]
    rows = tuple(sum(((cols[j] >> i) & 1) << j for j in range(len(cols)))
                 for i in range(m.rep.n_rows))
    return BinaryMatroid(tuple(f"s{i}" for i in range(len(cols))),
                         Gf2Matrix(rows, len(cols)))


# -- canonical keys ------------------------------------------------------------------


def test_equal_keys_for_isomorphic_quotient_shapes():
    assert canonical_key(catalog.get("Q_3").matroid) == \
        canonical_key(catalog.get("Q_4").matroid)


def test_distinct_keys_for_different_ranks():
    three_coloops = BinaryMatroid.from_matrix(
        ("a", "b", "c"), Gf2Matrix.from_bits(["100", "010", "001"]))
    assert canonical_key(catalog.get("G_4").matroid) != \
        canonical_key(three_coloops)


def test_key_invariant_under_column_shuffle():
    rng = random.Random(3)
    for entry in catalog.list_entries():
        assert canonical_key(shuffled_copy(entry.matroid, rng)) == \
            canonical_key(entry.matroid)


def _span_sample(rng, basis, k):
    """k random vectors of the span of ``basis``."""
    out = []
    for _ in range(k):
        v = 0
        for b in basis:
            if rng.random() < 0.5:
                v ^= b
        out.append(v)
    return out


def _seeded_multisets(rng):
    """(cols, r) for r <= 4 and k <= 10: empty; drawn from a span of rank
    up to r, so often rank-deficient, both as drawn (unsorted) and sorted;
    and the first units of GF(2)^r merged with such columns, sorted, as the
    corpus generates them."""
    for r in range(5):
        yield (), r
        for _ in range(10):
            s = rng.randint(0, r)
            basis = [rng.randrange(1, 1 << r) for _ in range(s)]
            cols = _span_sample(rng, basis, rng.randint(1, 10))
            yield tuple(cols), r
            yield tuple(sorted(cols)), r
            units = [1 << i for i in range(s)]
            extras = _span_sample(rng, units, rng.randint(0, 10 - s))
            yield tuple(sorted(units + extras)), r


def test_canonical_forms_match_the_gl_brute_force():
    rng = random.Random(4410)
    canonical = 0
    for cols, r in _seeded_multisets(rng):
        least = gl_least_image(cols, r)
        assert _kernel.canon_key_cols(cols, r) == least, (cols, r)
        assert _kernel.is_canonical(cols, r) == (cols == least), (cols, r)
        assert _kernel.is_canonical(least, r), (least, r)
        canonical += cols == least
    assert canonical >= 20


@pytest.mark.parametrize("r", [5, 6, 7])
def test_keys_past_the_corpus_rank(r):
    # canonical_key has no rank cap: on the compiled backend its canonical
    # forms are compiled up to rank 6 and pure above, and on either backend
    # the key is pure's, unmoved by column shuffles and row operations.
    rng = random.Random(r)
    for extra in (0, 2, 4):
        cols = [1 << i for i in range(r)] + [rng.randrange(1 << r) for _ in range(extra)]
        rng.shuffle(cols)
        m = matroid_from_columns(r, cols)
        key = canonical_key(m)
        assert key == (r, pure.canon_key_cols(reduced_columns(m)[1], r))
        assert canonical_key(shuffled_copy(m, rng)) == key
        rows = list(m.rep.rows)
        rows[0] ^= rows[-1]
        assert canonical_key(BinaryMatroid(m.labels, Gf2Matrix(tuple(rows), len(cols)))) == key


# -- enumeration ----------------------------------------------------------------------


def test_enumerate_one_element():
    c = enumerate_binary_matroids(1, 1)
    assert len(c) == 2
    assert [m.rep.rows for m in c.members] == [(), (1,)]


def test_enumerate_two_elements_matches_oracle():
    # Oracle-confirmed classes on <= 2 elements: loop; coloop; two loops;
    # loop + coloop; parallel pair; two coloops.
    c = enumerate_binary_matroids(2, 2)
    assert len(c) == 6


@pytest.mark.parametrize("bounds,expected", [
    ((1, 1), 2), ((2, 2), 6), ((3, 2), 13), ((3, 3), 14), ((4, 4), 29),
])
def test_enumeration_counts_match_naive_classification(bounds, expected):
    max_elements, max_rank = bounds
    cands = []
    for r in range(max_rank + 1):
        for k in range(max(r, 1), max_elements + 1):
            for cols in combinations_with_replacement(range(1 << r), k):
                if sum(1 for c in cols if c == 0) > 3:
                    continue
                m = matroid_from_columns(r, cols)
                if m.rank() != r:
                    continue
                cands.append(m)
    assert len(classify_matroids(cands)) == expected
    assert len(enumerate_binary_matroids(max_elements, max_rank)) == expected


def test_no_two_members_share_a_key(corpus6):
    keys = [canonical_key(m) for m in corpus6.members]
    assert len(keys) == len(set(keys))


def test_corpus_contains_every_small_catalog_entry(corpus8):
    keys = {canonical_key(m) for m in corpus8.members}
    for entry in catalog.list_entries():
        m = entry.matroid
        if m.n_elements() <= 8 and m.rank() <= 4:
            assert canonical_key(m) in keys, entry.name


def test_loop_multiplicity_capped_at_three(corpus8):
    assert all(len(m.loops()) <= 3 for m in corpus8.members)
    c = enumerate_binary_matroids(4, 0)
    assert len(c) == 3  # one, two, and three loops


# sha256 of the corpus text at n <= 8, rank <= 4 (432 classes).
CORPUS8_SHA256 = "e6a85ae773b5b3297a9a48d7ab1379049f562d919045a537fa2f71bb52eaa084"


# sha256 of the corpus text at n <= 9, rank <= 4 (825 classes).
CORPUS9_SHA256 = "99cf3aa256d70727ee9232ca792b4c0580ed450c1a7c722a0825e5c43852807a"


def test_corpus8_text_is_pinned(corpus8):
    text = corpus_mod.to_file_text(corpus8)
    assert len(corpus8) == 432
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS8_SHA256


def test_corpus9_text_is_pinned():
    c = enumerate_binary_matroids(9, 4)
    text = corpus_mod.to_file_text(c)
    assert len(c) == 825
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS9_SHA256


def test_dropping_the_largest_column_keeps_a_member_canonical(corpus8):
    # The lemma that makes orderly generation reach every class: each
    # member's parent, itself less its largest column, is canonical too.
    for m in corpus8.members:
        r, cols = reduced_columns(m)
        assert list(cols) == sorted(cols) and _kernel.is_canonical(cols, r)
        assert _kernel.is_canonical(cols[:-1], r), cols


def test_determinism_byte_for_byte():
    a = corpus_mod.to_file_text(enumerate_binary_matroids(5, 3))
    b = corpus_mod.to_file_text(enumerate_binary_matroids(5, 3))
    assert a == b


def test_restrict_equals_direct_enumeration(corpus8, corpus7):
    direct = enumerate_binary_matroids(7, 4)
    assert [m.rep.rows for m in corpus7.members] == \
        [m.rep.rows for m in direct.members]
    assert corpus7.gammoid_flags == direct.gammoid_flags


def test_restrict_by_rank_equals_direct_enumeration(corpus6):
    for max_elements, max_rank in ((6, 3), (5, 2), (6, 0)):
        small = corpus6.restrict(max_elements, max_rank)
        direct = enumerate_binary_matroids(max_elements, max_rank)
        assert (small.max_elements, small.max_rank) == (max_elements, max_rank)
        assert corpus_mod.to_file_text(small) == corpus_mod.to_file_text(direct)
    for max_elements, max_rank in ((7, 4), (6, 5)):
        with pytest.raises(ValueError, match="cannot restrict"):
            corpus6.restrict(max_elements, max_rank)


def test_bounds_are_enforced():
    with pytest.raises(ValueError):
        enumerate_binary_matroids(10, 4)
    with pytest.raises(ValueError):
        enumerate_binary_matroids(5, 5)
    with pytest.raises(ValueError):
        enumerate_binary_matroids(0, 2)


# -- gammoid sub-corpus ------------------------------------------------------------------


def test_gammoid_corpus_excludes_k4_includes_f(corpus8):
    g = corpus8.gammoids()
    keys = {canonical_key(m) for m in g}
    assert canonical_key(catalog.get("K4").matroid) not in keys
    assert canonical_key(catalog.get("F").matroid) in keys
    assert all(m.is_binary_gammoid() for m in g)


def test_gammoid_corpus_minor_closed(corpus6):
    # Single-element minors of gammoid members stay gammoids, and stay in
    # the corpus unless the contraction pushes them past the loop cap.
    g = corpus6.gammoids()
    keys = {canonical_key(m) for m in g}
    for m in g:
        for lab in m.labels:
            for smaller in (m.delete({lab}), m.contract({lab})):
                if smaller.n_elements() < 1:
                    continue
                assert smaller.is_binary_gammoid()
                if len(smaller.loops()) <= 3:
                    assert canonical_key(smaller) in keys


# -- keys vs isomorphism ---------------------------------------------------------------------


def test_key_equality_agrees_with_isomorphism_on_random_pairs(corpus7):
    rng = random.Random(99)
    members = list(corpus7.members)
    agreements = 0
    for _ in range(50):
        a, b = rng.sample(members, 2)
        same_key = canonical_key(a) == canonical_key(b)
        iso = a.is_isomorphic(b) is not None
        assert same_key == iso
        agreements += 1
    for _ in range(50):
        a = rng.choice(members)
        b = shuffled_copy(a, rng)
        assert canonical_key(a) == canonical_key(b)
        assert a.is_isomorphic(b) is not None
        agreements += 1
    assert agreements == 100


# -- corpus files ------------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path, corpus6):
    path = tmp_path / "corpus.txt"
    corpus6.save(path)
    loaded = Corpus.load(path)
    assert loaded.max_elements == corpus6.max_elements
    assert loaded.max_rank == corpus6.max_rank
    assert [m.rep.rows for m in loaded.members] == \
        [m.rep.rows for m in corpus6.members]
    assert loaded.gammoid_flags == corpus6.gammoid_flags
    assert corpus_mod.to_file_text(loaded) == corpus_mod.to_file_text(corpus6)


def test_load_checks_every_gammoid_flag(corpus6):
    # A wrong flag would make the sweeps read a member as what it is not.
    lines = corpus_mod.to_file_text(corpus6).splitlines()
    members = [i for i, line in enumerate(lines) if not line.startswith("#")]
    k4 = next(i for i in members if lines[i].split()[1] == "-")
    for i, flipped in ((k4, " g "), (members[0], " - "), (members[-1], " - ")):
        wrong = list(lines)
        wrong[i] = wrong[i].replace(" g " if flipped == " - " else " - ", flipped, 1)
        assert wrong[i] != lines[i]
        with pytest.raises(ValueError, match=f"line {i + 1}: gammoid flag"):
            corpus_mod.from_file_text("\n".join(wrong) + "\n")


@pytest.mark.parametrize("text,line", [
    # 4 elements of rank 3 under a header of 2 elements, rank 1.
    ("# binary matroid corpus: max_elements=2 max_rank=1\n3 g 1 2 4 0\n", 2),
    ("# max_elements=4 max_rank=2\n1 g 1\n3 g 1 2 4 0\n", 3),
    ("# max_elements=5 max_rank=4\n1 g 1\n1 g 0 0 0 0 1\n", 3),
    ("1 g 1\n0 g 0 0 0 0\n", 2),
])
def test_load_rejects_members_outside_the_header_bounds(text, line):
    with pytest.raises(ValueError, match=f"line {line}: a member of"):
        corpus_mod.from_file_text(text)


def test_malformed_corpus_lines():
    with pytest.raises(ValueError, match="line 1"):
        corpus_mod.from_file_text("2\n")
    with pytest.raises(ValueError, match="gammoid flag"):
        corpus_mod.from_file_text("2 x 1 2\n")
    with pytest.raises(ValueError, match="malformed"):
        corpus_mod.from_file_text("two g 1 2\n")
    with pytest.raises(ValueError, match="line 2: header bound 'max_rank=x' is not an integer"):
        corpus_mod.from_file_text("# binary matroid corpus\n# max_elements=4 max_rank=x\n1 g 1\n")
