"""Pure-Python and compiled kernels must agree function for function.

The compiled side is built from ``setup.py`` into a temporary directory once
per session and loaded from there by path, so nothing is written under
``src/``.  A failed build fails these tests; they skip only when the C
compiler that ``sysconfig`` names is not installed.
"""

import importlib.util
import json
from itertools import combinations
import os
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from matroidsplit import _kernel, corpus
from matroidsplit._kernel import pure

REPO = Path(__file__).resolve().parents[1]
SO_NAME = "_speed" + sysconfig.get_config_var("EXT_SUFFIX")
WORD = (1 << 64) - 1
TOP = 1 << 63
# A rank or loop count that no C int holds.  As a loop count it fits no
# minor, so the want reads as absent; as a rank it is outside 0..2, so the
# profile decisions raise ValueError and find_minors matches nothing.
HUGE = 1 << 40


@pytest.fixture(scope="session")
def build_lib(tmp_path_factory):
    """Directory holding the package with the extension built into it."""
    root = tmp_path_factory.mktemp("kernel-build")
    run = subprocess.run(
        [sys.executable, "setup.py", "-q", "egg_info", "--egg-base", str(root),
         "build", "--build-base", str(root / "b"), "--build-lib", str(root / "lib")],
        cwd=REPO, capture_output=True, text=True)
    lib = root / "lib"
    if not (lib / "matroidsplit" / "_kernel" / SO_NAME).exists():
        compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
        if shutil.which(compiler):
            pytest.fail("compiled kernel did not build: " + run.stderr[-2000:])
        pytest.skip(f"no C compiler {compiler!r} to build the compiled kernel")
    return lib


@pytest.fixture(scope="session")
def compiled(build_lib):
    so = build_lib / "matroidsplit" / "_kernel" / SO_NAME
    spec = importlib.util.spec_from_file_location("matroidsplit._kernel._speed", so)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_rows(rng, n_cols, n_rows):
    return tuple(rng.getrandbits(n_cols) if n_cols else 0
                 for _ in range(n_rows))


def outcome(fn, *args, **kwargs):
    """The value of a call, or the type of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        return type(exc)


def test_compiled_module_defines_exactly_the_hot_subset(compiled):
    names = {n for n in pure.__all__ if hasattr(compiled, n)}
    assert names == {"BACKEND", "rref", "nullspace_basis", "space_min_supports",
                     "delete_rows", "contract_rows", "profile_present",
                     "find_minors", "canon_key_cols", "is_canonical",
                     "series_parallel_reduces", "law_decisions", "esplit_violations"}
    assert compiled.BACKEND == "compiled"


def test_compiled_source_compiles_without_warnings():
    # The compiler that builds the extension, at -Wall -Wextra as errors,
    # less two groups that the C-API's method tables and structs trip;
    # syntax only, so nothing is written.
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if not shutil.which(compiler):
        pytest.skip(f"no C compiler {compiler!r} to check the compiled kernel")
    run = subprocess.run(
        [compiler, "-Wall", "-Wextra", "-Wno-unused-parameter",
         "-Wno-missing-field-initializers", "-Werror", "-fsyntax-only",
         "-I", sysconfig.get_paths()["include"],
         str(REPO / "src" / "matroidsplit" / "_kernel" / "_speed.c")],
        capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-2000:]


def test_elementwise_functions_agree(compiled):
    rng = random.Random(2024)
    for _ in range(1500):
        n_cols = rng.randint(0, 10)
        n_rows = rng.randint(0, 6)
        rows = random_rows(rng, n_cols, n_rows)
        cmask = rng.getrandbits(n_cols) if n_cols else 0
        dmask = (rng.getrandbits(n_cols) & ~cmask) if n_cols else 0
        assert pure.rref(rows) == compiled.rref(rows)
        assert pure.nullspace_basis(rows, n_cols) == \
            compiled.nullspace_basis(rows, n_cols)
        basis = pure.nullspace_basis(rows, n_cols)
        assert pure.space_min_supports(basis) == \
            compiled.space_min_supports(basis)
        assert pure.delete_rows(rows, n_cols, dmask) == \
            compiled.delete_rows(rows, n_cols, dmask)
        assert pure.contract_rows(rows, n_cols, cmask) == \
            compiled.contract_rows(rows, n_cols, cmask)


def test_space_min_supports_share_the_span_limit(compiled):
    # Both kernels enumerate a span of 20 basis vectors and refuse 21 with
    # the one message that names the limit.
    units = tuple(1 << j for j in range(21))
    assert pure.space_min_supports(units[:20]) == \
        compiled.space_min_supports(units[:20]) == units[:20]
    messages = set()
    for kernel in (pure, compiled):
        with pytest.raises(ValueError) as exc:
            kernel.space_min_supports(units)
        messages.add(str(exc.value))
    assert messages == {"span enumeration limited to 20 basis vectors"}


def test_contracting_an_appended_unit_column_gives_back_the_rows(compiled):
    # The contract identity of esplit-identities: a new last column whose
    # only 1 lies in an appended row pivots that row away and nothing else.
    rng = random.Random(1998)
    for _ in range(400):
        n_cols = rng.choice((0, 1, 5, 9, 63, rng.randint(0, 63)))
        rows = random_rows(rng, n_cols, rng.randint(0, 6))
        mask = rng.getrandbits(n_cols) if n_cols else 0
        ext = rows + (mask | 1 << n_cols,)
        for kernel in (pure, compiled):
            assert kernel.contract_rows(ext, n_cols + 1, 1 << n_cols) == rows


def test_canonical_forms_agree(compiled):
    rng = random.Random(77)
    for r in range(7):
        for _ in range(150):
            k = rng.randint(1, 8)
            cols = tuple(sorted(rng.randrange(1 << r) for _ in range(k)))
            assert pure.canon_key_cols(cols, r) == compiled.canon_key_cols(cols, r)
            assert pure.is_canonical(cols, r) == compiled.is_canonical(cols, r)


def test_is_canonical_agrees_on_every_child_the_generator_tests(compiled, monkeypatch):
    # Orderly generation asks is_canonical(child, max_rank) of children whose
    # own rank is often lower; neither kernel may read r beyond validation.
    # A child's new column is below 2^(s+1), s the bit length of its
    # parent's largest column, so 1,624 children are asked at (8, 4).
    calls = []

    def recorded(cols, r):
        calls.append((cols, r))
        return pure.is_canonical(cols, r)

    monkeypatch.setattr(_kernel, "is_canonical", recorded)
    corpus.enumerate_binary_matroids(8, 4)
    assert len(calls) == 1624
    for cols, r in calls:
        assert r == 4
        own = max(cols).bit_length()
        assert pure.is_canonical(cols, r) == compiled.is_canonical(cols, r) \
            == compiled.is_canonical(cols, own) == pure.is_canonical(cols, own), cols


def test_find_minors_agree_in_order_and_content(compiled):
    rng = random.Random(5150)
    # (kind, want, pattern size); the last four wants have their own size,
    # so that scans can match them.
    wants = ((pure.KIND_SIMPLE_RANK3, None, 6),
             (pure.KIND_PROFILE, (1, 1, (3,)), 5),
             (pure.KIND_PROFILE, (2, 0, (1, 2, 2)), 5),
             (pure.KIND_PROFILE, (1, 0, (3,)), 3),
             (pure.KIND_PROFILE, (2, 0, (2, 2, 2)), 6),
             (pure.KIND_PROFILE, (2, 0, (1, 1)), 2),
             (pure.KIND_PROFILE, (0, 2, ()), 2))
    for _ in range(400):
        n_cols = rng.randint(6, 9)
        rows = random_rows(rng, n_cols, rng.randint(2, 4))
        for kind, want, pat_n in wants:
            for c_size in range(0, 3):
                d_size = n_cols - pat_n - c_size
                if d_size < 0:
                    continue
                assert pure.find_minors(rows, n_cols, c_size, d_size, kind,
                                        want, limit=0) == \
                    compiled.find_minors(rows, n_cols, c_size, d_size, kind,
                                         want, limit=0)


def test_find_minors_canonical_kind_agrees(compiled):
    from matroidsplit import catalog
    from matroidsplit.matroid import reduced_columns

    k4 = catalog.get("K4").matroid
    r, cols = reduced_columns(k4)
    want = (r, pure.canon_key_cols(cols, r))
    rng = random.Random(31337)
    for _ in range(120):
        n_cols = rng.randint(6, 8)
        rows = random_rows(rng, n_cols, 3)
        c_size = 0
        d_size = n_cols - 6
        assert pure.find_minors(rows, n_cols, c_size, d_size,
                                pure.KIND_CANONICAL, want, limit=0) == \
            compiled.find_minors(rows, n_cols, c_size, d_size,
                                 pure.KIND_CANONICAL, want, limit=0)
    # Rank 4, 7 elements, with a parallel pair: no other matcher takes it.
    want = (4, pure.canon_key_cols((1, 2, 4, 8, 3, 3, 13), 4))
    rng = random.Random(4242)
    found = 0
    for _ in range(60):
        n_rows = rng.randint(4, 5)
        n_cols = rng.randint(7, 9)
        rows = random_rows(rng, n_cols, n_rows)
        for c_size in range(n_rows - 3):
            d_size = n_cols - 7 - c_size
            if d_size < 0:
                continue
            got = pure.find_minors(rows, n_cols, c_size, d_size,
                                   pure.KIND_CANONICAL, want, limit=0)
            assert got == compiled.find_minors(rows, n_cols, c_size, d_size,
                                               pure.KIND_CANONICAL, want, limit=0)
            found += bool(got)
    assert found
    # Circuits of 6 and 7 elements have symmetric keys, where many bases
    # keep their images level with the want.  (1, 2, 4, 8, 17, 30) is the
    # 6-circuit too, but not its least image, so neither kernel matches it.
    wants = [(5, (1, 2, 4, 8, 16, 31)), (6, (1, 2, 4, 8, 16, 32, 63)),
             (5, (1, 2, 4, 8, 17, 30))]
    assert [pure.is_canonical(key, r) for r, key in wants] == [True, True, False]
    rng = random.Random(2828)
    found = dict.fromkeys(range(len(wants)), 0)
    for _ in range(40):
        n_rows = rng.randint(5, 7)
        n_cols = rng.randint(7, 9)
        rows = random_rows(rng, n_cols, n_rows)
        for i, (r, key) in enumerate(wants):
            c_size = pure.rank(rows) - r
            d_size = n_cols - len(key) - c_size
            if c_size < 0 or d_size < 0:
                continue
            got = pure.find_minors(rows, n_cols, c_size, d_size,
                                   pure.KIND_CANONICAL, (r, key), limit=0)
            assert got == compiled.find_minors(rows, n_cols, c_size, d_size,
                                               pure.KIND_CANONICAL, (r, key),
                                               limit=0), (rows, n_cols, key)
            found[i] += len(got)
    assert found[0] and found[1] and not found[2], found
    # The compiled canonical forms stop at rank 6: a want above it raises
    # ValueError there, by design, also when no C int holds its rank.
    for r in (7, HUGE):
        with pytest.raises(ValueError):
            compiled.find_minors((1,), 3, 0, 0, pure.KIND_CANONICAL, (r, (1,)))


def test_pure_canonical_match_builds_no_candidate_key(monkeypatch):
    # A KIND_CANONICAL candidate is walked only up to the wanted key, as the
    # compiled match does: no candidate's own canonical key is computed.
    want = (4, pure.canon_key_cols((1, 2, 4, 8, 3, 3, 13), 4))
    rows = pure.columns((1, 2, 4, 8, 3, 3, 13, 5), 4)
    keys = []
    real = pure.canon_key_cols
    monkeypatch.setattr(pure, "canon_key_cols",
                        lambda *args: keys.append(args) or real(*args))
    got = pure.find_minors(rows, 8, 0, 1, pure.KIND_CANONICAL, want, limit=0)
    assert (0, 1 << 7) in got
    assert keys == []


@pytest.mark.parametrize("name", ["canon_key_cols", "is_canonical"])
def test_canonical_forms_raise_alike_on_bad_columns_and_ranks(compiled, name):
    # Columns at or above 2^r (r >= 1) and negative ranks raise ValueError
    # on both kernels; at r = 0 no column is checked.
    cases = [((1 << r,), r) for r in range(1, 7)]
    cases += [((0, 1, (1 << r) + 1), r) for r in range(1, 7)]
    cases += [(((1 << 63) | 1, 1), 3), ((1,), -1), ((), -1), ((5, 2), 0)]
    # Negative columns and columns of 2^64 or more, which no word holds.
    cases += [((-1, 1), 1), ((1 << 64,), 3), ((1, 2, -5), 6),
              ((1, (1 << 64) + 1), 2), ((1 << 70,), 1)]
    for cols, r in cases:
        got = outcome(getattr(pure, name), cols, r)
        assert got == outcome(getattr(compiled, name), cols, r), (cols, r)
        assert got is ValueError or r == 0, (cols, r)


# -- edge shapes: no rows, no columns, 64 columns, more than 64 rows ---------------

# (rows, columns): 0 rows; 0 columns; 64 columns with bit 63 set; 65-80 rows.
SHAPES = st.one_of(
    st.tuples(st.just(0), st.integers(0, 64)),
    st.tuples(st.integers(0, 80), st.just(0)),
    st.tuples(st.integers(1, 6), st.just(64)),
    st.tuples(st.integers(65, 80), st.integers(1, 9)),
    st.tuples(st.integers(65, 80), st.just(64)),
)


@st.composite
def edge_matrices(draw):
    n_rows, n_cols = draw(SHAPES)
    rows = draw(st.lists(st.integers(0, (1 << n_cols) - 1),
                         min_size=n_rows, max_size=n_rows))
    if n_cols == 64 and rows:
        rows[draw(st.integers(0, n_rows - 1))] |= TOP
    return tuple(rows), n_cols


TOP_MASKS = st.integers(0, WORD).map(lambda m: m | TOP)
# The draws are pinned (derandomize), so every run feeds the same examples
# and costs the same time.
EDGE = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@EDGE
@given(edge_matrices(), TOP_MASKS, TOP_MASKS)
def test_row_functions_agree_on_edge_shapes(compiled, matrix, mask, cmask):
    rows, n_cols = matrix
    dmask = mask & ~cmask | TOP
    for name, args in (("rref", (rows,)), ("nullspace_basis", (rows, n_cols)),
                       ("delete_rows", (rows, n_cols, dmask)),
                       ("contract_rows", (rows, n_cols, cmask))):
        assert outcome(getattr(pure, name), *args) == \
            outcome(getattr(compiled, name), *args), name
    for basis in (pure.rref(rows), pure.nullspace_basis(rows, n_cols)):
        # Spans of 13..20 vectors are legal but too slow for the pure side.
        if len(basis) <= 12 or len(basis) > 20:
            assert outcome(pure.space_min_supports, basis) == \
                outcome(compiled.space_min_supports, basis)


KINDS = st.sampled_from([
    (pure.KIND_SIMPLE_RANK3, None),
    (pure.KIND_PROFILE, (1, 1, (3,))),
    (pure.KIND_PROFILE, (2, 0, (1, 2, 2))),
    (pure.KIND_PROFILE, (0, 0, ())),
    (pure.KIND_CANONICAL, (0, ())),
    (pure.KIND_CANONICAL, (3, (1, 2, 3, 4, 5, 6))),
    (pure.KIND_PROFILE, (1, HUGE, (1,))),
    (pure.KIND_PROFILE, (HUGE, 0, (1,))),
    (pure.KIND_PROFILE, (-HUGE, 0, (1,))),
])


@EDGE
@given(edge_matrices(), KINDS, st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 2), st.data())
def test_find_minors_agrees_on_edge_shapes(compiled, matrix, kind_want, c_size,
                                           d_size, limit, data):
    rows, n_cols = matrix
    kind, want = kind_want
    # Every column outside ``free`` is avoided, bit 63 always, so wide hosts
    # keep few candidates.
    free = data.draw(st.sets(st.integers(0, max(0, min(n_cols, 63) - 1)), max_size=8))
    avoid = WORD & ~sum(1 << j for j in free)
    for c, d in ((c_size, d_size), (0, len(free) - 6), (len(free) - 4, 0)):
        assert pure.find_minors(rows, n_cols, c, d, kind, want, limit=limit, avoid=avoid) == \
            compiled.find_minors(rows, n_cols, c, d, kind, want, limit=limit, avoid=avoid)


PROFILE_WANT_LIST = [
    (1, 1, (3,)), (2, 0, (1, 2, 2)), (2, 1, (1, 2, 2)), (1, 0, (3,)),
    (2, 0, (2, 2, 2)), (2, 0, (1, 1)), (0, 2, ()), (0, 0, ()), (1, 2, (1,)),
    (2, 1, (3, 1)), (2, 0, (0, 2)), (2, -1, (1, 2)), (3, 0, (1, 1, 1)),
    # Negative class sizes fit no minor: both kernels read them as absent.
    (1, 0, (-1,)), (2, 0, (-1, 2)), (2, 1, (1, -2)),
]
PROFILE_WANTS = st.sampled_from(PROFILE_WANT_LIST + [(1, HUGE, (1,))])


@EDGE
@given(st.integers(0, 80), st.integers(0, 12), PROFILE_WANTS,
       st.integers(-1, 1), st.integers(0, 2), st.data())
def test_find_minors_agrees_on_the_decision_path(compiled, n_rows, n_cols, want,
                                                 c_shift, limit, data):
    # avoid = 0, and c_size = rank - rho unless shifted: the sizes of an
    # unpinned search, which both kernels scan in full, as they scan every
    # other.  Bits above n_cols must be ignored by both.  A want with HUGE
    # loops gives a d_size that no C int holds, and so do the HUGE and
    # -HUGE sizes after it: no minor has them, so both return [].
    rows = tuple(data.draw(st.lists(st.integers(0, (1 << (n_cols + 2)) - 1),
                                    min_size=n_rows, max_size=n_rows)))
    rho, loops, sizes = want
    c_size = pure.rank_masked(rows, (1 << n_cols) - 1) - rho + c_shift
    d_size = n_cols - loops - sum(sizes) - c_size + data.draw(st.sampled_from([0, 0, 1]))
    for c, d in ((c_size, d_size), (HUGE, d_size), (c_size, -HUGE), (HUGE, HUGE)):
        assert pure.find_minors(rows, n_cols, c, d, pure.KIND_PROFILE, want,
                                limit=limit) == \
            compiled.find_minors(rows, n_cols, c, d, pure.KIND_PROFILE, want,
                                 limit=limit)
    assert outcome(pure.profile_present, rows, n_cols, (want,)) == \
        outcome(compiled.profile_present, rows, n_cols, (want,))


@EDGE
@given(st.one_of(edge_matrices(), st.tuples(st.lists(st.integers(0, WORD), max_size=6)
                                            .map(tuple), st.integers(0, 64))))
@example(matrix=(tuple(1 << i for i in range(30)), 64))
@example(matrix=(tuple(1 << i | 1 << 19 for i in range(19)), 64))
@example(matrix=(tuple(1 << i | a << 5 for i, a in enumerate((1, 2, 3, 4, 5))) + (1 << 8,), 8))
@example(matrix=(tuple(1 << i | a << 5 for i, a in enumerate((1, 2, 3, 1, 4))), 8))
@example(matrix=(tuple(1 << i | (i % 7 + 1) << 61 for i in range(61)), 64))
def test_profile_present_agrees_on_edge_shapes(compiled, matrix):
    # 0 rows, exactly 64 columns and row bits at or above n_cols, with every
    # want of rank <= 2 in one call, and a want of rank 3, HUGE or -HUGE
    # in another.  The
    # examples, 30 coloops and a 20-element circuit among 64 columns, have
    # wants that no contraction holds: the contract sets must run over the
    # distinct nonzero columns, not over all 64.  The standard forms
    # [I | A], rank 5 on 8 columns (one with F and a row with bits above
    # n_cols only, one without F) and rank 61 on 64, have corank 3 and no
    # loops or coloops, so pure decides F's want on the dual, where D is
    # empty, and the compiled kernel on the matroid itself.
    rows, n_cols = matrix
    wants = [w for w in PROFILE_WANT_LIST if w[0] <= 2] + [
        (0, n_cols, ()), (1, 0, (n_cols,)), (2, 0, (1, 1, max(1, n_cols - 2))),
        (1, HUGE, (1,))]
    assert pure.profile_present(rows, n_cols, wants) == \
        compiled.profile_present(rows, n_cols, wants)
    for call in (pure.profile_present, compiled.profile_present):
        for bad in ((3, 0, (1, 1, 1)), (HUGE, 0, (1,)), (-HUGE, 0, (1,))):
            with pytest.raises(ValueError):
                call(rows, n_cols, wants[:1] + [bad])


@EDGE
@given(st.integers(0, 3), st.integers(0, 80), st.data())
def test_canonical_forms_agree_on_edge_shapes(compiled, r, k, data):
    cols = data.draw(st.lists(st.integers(0, (1 << r) - 1), min_size=k, max_size=k))
    sorted_cols = tuple(sorted(cols))
    assert pure.canon_key_cols(cols, r) == compiled.canon_key_cols(cols, r)
    assert pure.is_canonical(sorted_cols, r) == compiled.is_canonical(sorted_cols, r)
    assert pure.is_canonical(tuple(cols), r) == compiled.is_canonical(tuple(cols), r)


def test_canonical_forms_agree_on_wide_multisets(compiled):
    # Both walks cut a branch on the sorted prefix of its images, which the
    # compiled walk keeps in a buffer sized by the column count: 64 columns
    # fill a word, 65 and 80 pass it.  Each multiset has zeros and repeats.
    rng = random.Random(26)
    for r in (4, 5, 6):
        for k in (63, 64, 65, 80):
            cols = [0, 0] + [1 << r - 1] * 3 + [rng.randrange(1 << r) for _ in range(k - 5)]
            rng.shuffle(cols)
            key = pure.canon_key_cols(cols, r)
            assert compiled.canon_key_cols(cols, r) == key, (r, k)
            for asked in (tuple(sorted(cols)), tuple(cols), key):
                assert pure.is_canonical(asked, r) == compiled.is_canonical(asked, r), (r, k)
            assert compiled.is_canonical(key, r)


# -- the law loops: series-parallel reduction, law decisions, esplit identities --

# Column counts at the edges: 0, small, and the widest that a 3-fold (61),
# an element splitting (63) and a row (64) allow, each also one past.
LAW_COLS = st.one_of(st.integers(0, 12), st.sampled_from([61, 62, 63, 64]))


@st.composite
def reduced_forms(draw):
    """(rref, n_cols): rows in reduced echelon form, 0 rows included, with
    loops (zero columns) and coloops (unit rows) drawn in."""
    n_cols = draw(LAW_COLS)
    top = (1 << n_cols) - 1
    rows = draw(st.lists(st.integers(0, top), max_size=min(n_cols, 9)))
    loops = draw(st.integers(0, top))
    rows = [row & ~loops for row in rows]
    for j in draw(st.sets(st.integers(0, max(0, n_cols - 1)), max_size=3)) if n_cols else ():
        rows = [row & ~(1 << j) for row in rows] + [1 << j]
    if n_cols == 64 and rows and draw(st.booleans()):
        rows = [row | TOP for row in rows[1:]] + [TOP]
    return pure.rref(rows), n_cols


@EDGE
@given(reduced_forms(), st.lists(st.integers(0, WORD), max_size=6),
       st.lists(st.integers(0, WORD), max_size=3), st.lists(st.integers(0, WORD), max_size=2))
@example(form=((), 0), words=[], raw=[], stray=[])
@example(form=((), 64), words=[WORD], raw=[WORD], stray=[WORD])
@example(form=((0b101, 0b10), 3), words=[0b1], raw=[0b1010], stray=[0b1000])
@example(form=((0b1,), 63), words=[], raw=[TOP | 0b1], stray=[TOP | 0b10, TOP])
def test_law_loops_agree_on_edge_shapes(compiled, form, words, raw, stray):
    # The reduction on the rref, the splittings and 3-folds on coset keys
    # (vectors with no pivot bit, 0 among them) and on raw keys with pivot
    # and high bits, and the element-splitting identities on masks of any
    # bits, over the rref followed by stray rows of any bits: some hold the
    # new column n_cols, so that the contraction pivots on a row of the
    # member, or bits above it.
    rref, n_cols = form
    pivots = sum(row & -row for row in rref)
    cosets = [0] + [w & ~pivots & ((1 << n_cols) - 1) for w in words]
    for keys, fold in ((cosets + raw, False),
                       (list(zip(cosets, reversed(cosets))) + list(zip(raw, raw)), True)):
        assert outcome(pure.law_decisions, rref, n_cols, keys, fold) == \
            outcome(compiled.law_decisions, rref, n_cols, keys, fold), (keys, fold)
    assert outcome(pure.series_parallel_reduces, rref, n_cols) == \
        outcome(compiled.series_parallel_reduces, rref, n_cols)
    masks = cosets + raw
    for rows in (rref, rref + tuple(stray)):
        assert outcome(pure.esplit_violations, rows, n_cols, masks) == \
            outcome(compiled.esplit_violations, rows, n_cols, masks), rows


@EDGE
@given(edge_matrices())
def test_series_parallel_reduction_agrees_on_edge_matrices(compiled, matrix):
    # Rows that are no standard form: zero, repeated and dense rows, bits
    # at or above n_cols, and 65-80 rows, which both kernels refuse.
    rows, n_cols = matrix
    assert outcome(pure.series_parallel_reduces, rows, n_cols) == \
        outcome(compiled.series_parallel_reduces, rows, n_cols)


def test_law_loops_agree_on_the_corpus(compiled, corpus6):
    # Every member of the n <= 6 corpus: its reduction, every triple's
    # splitting key, every pair's 3-fold key, and the identities on every
    # T with |T| <= 3, as the sweeps ask them.
    gammoids = {True: 0, False: 0}
    for m in corpus6.members:
        cosets, n = m._label_cosets, m.rep.n_cols
        labels = sorted(m.labels)
        triples = [cosets[a] ^ cosets[b] ^ cosets[c] for a, b, c in combinations(labels, 3)]
        pairs = [(cosets[x] ^ cosets[y], cosets[x]) for x, y in combinations(labels, 2)]
        masks = [m._label_mask(t) for size in (1, 2, 3) for t in combinations(labels, size)]
        for kernel_args in ((m._rref, n, triples, False), (m._rref, n, pairs, True)):
            got = pure.law_decisions(*kernel_args)
            assert compiled.law_decisions(*kernel_args) == got
            for gammoid in got:
                gammoids[gammoid] += 1
        assert compiled.series_parallel_reduces(m._rref, n) == \
            pure.series_parallel_reduces(m._rref, n)
        assert compiled.esplit_violations(m.rep.rows, n, masks) == \
            pure.esplit_violations(m.rep.rows, n, masks) == ()
    assert all(gammoids.values()), gammoids


def test_ints_outside_64_bits_raise_and_never_wrap(compiled):
    for bad in (1 << 64, (1 << 64) + 1, 1 << 70, -1):
        calls = [
            lambda: compiled.rref((bad,)),
            lambda: compiled.nullspace_basis((bad,), 3),
            lambda: compiled.space_min_supports((1, bad)),
            lambda: compiled.delete_rows((1,), 3, bad),
            lambda: compiled.contract_rows((bad,), 3, 1),
            lambda: compiled.find_minors((1,), 3, 0, 1, pure.KIND_PROFILE,
                                         (1, 0, (1, 1)), avoid=bad),
            lambda: compiled.profile_present((1, bad), 3, [(1, 0, (1,))]),
            lambda: compiled.canon_key_cols((bad,), 0),
            lambda: compiled.is_canonical((bad,), 2),
            lambda: compiled.series_parallel_reduces((3, bad), 3),
            lambda: compiled.law_decisions((bad,), 3, [], False),
            lambda: compiled.law_decisions((1,), 3, [0, bad], False),
            lambda: compiled.law_decisions((1,), 3, [(2, bad)], True),
            lambda: compiled.esplit_violations((1, bad), 3, [1]),
            lambda: compiled.esplit_violations((1,), 3, [1, bad]),
        ]
        for call in calls:
            with pytest.raises((OverflowError, ValueError)):
                call()
    with pytest.raises(ValueError):
        compiled.nullspace_basis((1,), 65)
    with pytest.raises(ValueError):
        compiled.find_minors((1,), 65, 0, 0, pure.KIND_SIMPLE_RANK3, None)
    with pytest.raises(ValueError):
        compiled.profile_present((1,), 65, [(1, 0, (1,))])
    for call in (lambda: compiled.series_parallel_reduces((1,), 65),
                 lambda: compiled.law_decisions((1,), 65, [], False),
                 lambda: compiled.law_decisions((1,), 62, [], True),
                 lambda: compiled.esplit_violations((1,), 64, [])):
        with pytest.raises(ValueError):
            call()


def test_backend_name_reported():
    from matroidsplit import _kernel

    assert _kernel.BACKEND in ("pure", "compiled")


def test_env_var_forces_pure_backend():
    code = ("import matroidsplit._kernel as k; print(k.BACKEND)")
    env = dict(os.environ, MATROIDSPLIT_PURE="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "pure"


# More than 64 rows: the old compiled transpose kept only 64 of them.  The
# coloops and the dual's rows are read from the kernels' rref and null space.
_REPRO = (
    "from matroidsplit.formats import parse_matroid\n"
    "from matroidsplit.ops import splitting\n"
    "m = parse_matroid('elements a b c\\nrow 110\\n')\n"
    "for _ in range(70):\n"
    "    m = splitting(m, ('a', 'c'))\n"
    "assert m.rep.n_rows == 71\n"
    "w = m.k4_minor()\n"
    "repro = [sorted(sorted(c) for c in m.parallel_classes()), sorted(m.loops()),\n"
    "         None if w is None else sorted(w.deleted), sorted(m.coloops()),\n"
    "         list(m.dual().rep.rows)]\n"
)


# Minor searches for patterns of rank 5, 6 and 7 and a pinned G_4.  The
# compiled canonical forms stop at rank 6, so the rank-7 pattern U(7,8) is
# scanned by pure.find_minors on both backends.
_MINORS = (
    "from matroidsplit import catalog\n"
    "from matroidsplit.gf2 import Gf2Matrix\n"
    "from matroidsplit.matroid import BinaryMatroid\n"
    "def named(prefix, rep):\n"
    "    return BinaryMatroid([f'{prefix}{i}' for i in range(rep.n_cols)], rep)\n"
    "h = named('h', Gf2Matrix.from_bits(['1000000110', '0100000011', '0010000101',\n"
    "    '0001000111', '0000100100', '0000010010', '0000001001']))\n"
    "wide = named('h', Gf2Matrix(tuple(1 << i | 1 << 8 for i in range(8)), 9))\n"
    "searches = [(h, named('p', h.minor({'h9'}, {'h0', 'h3'}).rep), None),\n"
    "            (h, named('p', h.minor({'h7', 'h8'}, {'h1'}).rep), None),\n"
    "            (wide, named('p', Gf2Matrix(tuple(1 << i | 1 << 7 for i in range(7)), 8)),\n"
    "             None),\n"
    "            (h, catalog.get('G_4').matroid, {'x': 'h9', 'y': 'h2'})]\n"
    "minors = []\n"
    "for host, pattern, pins in searches:\n"
    "    w = host.has_minor(pattern, pins=pins)\n"
    "    minors.append([pattern.rank(), sorted(w.deleted), sorted(w.contracted),\n"
    "                   sorted(w.mapping.items())])\n"
)


def test_full_check_agrees_across_backends(build_lib):
    # Same corpus file, verdicts, >64-row structure and minor witnesses from
    # both kernels; the gf-empty reports name each witness Y, and both fail;
    # the law and element-splitting reports count their cases alike.
    code = (
        "import json\n"
        "from matroidsplit import _kernel, corpus, verify\n"
        + _REPRO + _MINORS +
        "c = corpus.enumerate_binary_matroids(6, 4)\n"
        "rs = [verify.check_split_minor_characterization(c),\n"
        "      verify.check_split_minor_empty(c, 1), verify.check_split_minor_empty(c, 2),\n"
        "      verify.check_splitting_excluded_minors(c),\n"
        "      verify.check_three_fold_excluded_minor(c),\n"
        "      verify.check_element_splitting_identities(c)]\n"
        "ds = [r.to_json_dict() for r in rs]\n"
        "for d in ds: d.pop('wall_time')\n"
        "print(json.dumps([_kernel.BACKEND, repro, minors, corpus.to_file_text(c), ds],"
        " sort_keys=True))\n"
    )
    outs = {}
    for backend, path in (("compiled", build_lib), ("pure", REPO / "src")):
        env = dict(os.environ, PYTHONPATH=str(path))
        env.pop("MATROIDSPLIT_PURE", None)
        if backend == "pure":
            env["MATROIDSPLIT_PURE"] = "1"
        run = subprocess.run([sys.executable, "-c", code], env=env, cwd=REPO,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        outs[backend] = json.loads(run.stdout)
        assert outs[backend][0] == backend
    assert outs["pure"][1] == [[["a"], ["b"], ["c"]], [], None, [], [7]]
    assert [rank for rank, *_ in outs["pure"][2]] == [5, 6, 7, 1]
    assert outs["pure"][2][2][1:3] == [[], ["h0"]]
    assert dict(outs["pure"][2][3][3])["x"] == "h9"
    assert [(d["check"], d["verdict"]) for d in outs["pure"][4]] == [
        ("gf-minors", "pass"), ("gf-empty-k1", "fail"), ("gf-empty-k2", "fail"),
        ("split-gammoid", "pass"), ("main", "pass"), ("esplit-identities", "pass")]
    assert outs["compiled"][1:] == outs["pure"][1:]
