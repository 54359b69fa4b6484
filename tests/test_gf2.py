"""GF(2) matrix layer: rank, rref, row-space membership, minimal supports."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from matroidsplit._kernel import pure
from matroidsplit.gf2 import (
    Gf2Matrix,
    null_space_min_supports,
    rank,
    row_space_contains,
    rref,
)


def bits(*rows):
    return Gf2Matrix.from_bits(rows)


def supports(m):
    return {frozenset(s) for s in null_space_min_supports(m)}


MATRIX_D = bits("111000", "110101", "100011")


def test_rank_zero_matrix():
    assert rank(Gf2Matrix((0, 0), 3)) == 0


def test_rank_identity():
    assert rank(bits("100", "010", "001")) == 3


def test_rank_three_row_construction_matrix():
    # Hand row-reduction: the three rows are independent.
    assert rank(MATRIX_D) == 3


def test_rref_collapses_duplicate_rows():
    assert rref(bits("110", "110")).rows == (0b011,)


def test_rref_fixes_identity():
    ident = bits("100", "010", "001")
    assert rref(ident).rows == ident.rows


def test_rref_fixes_single_row():
    assert rref(bits("111")).rows == (0b111,)


def test_rref_drops_zero_rows_but_matrix_keeps_them():
    m = Gf2Matrix((0b11, 0, 0b11), 2)
    assert m.n_rows == 3
    assert rref(m).rows == (0b11,)


def test_row_space_contains_zero_vector():
    assert row_space_contains(bits("111"), "000")


def test_row_space_contains_rejects_partial_vector():
    # Candidate combinations of [111] are only 000 and 111.
    assert not row_space_contains(bits("111"), "110")


def test_row_space_contains_length_mismatch():
    with pytest.raises(ValueError):
        row_space_contains(bits("111"), "11")


def test_row_space_contains_rejects_non_binary_characters():
    # int() reads "2" as the bit 1 << 1, so "20" answered for "01", and it
    # reads non-ASCII digits such as U+0661 as well.
    for vec in ("20", "0 ", "1\u0661"):
        with pytest.raises(ValueError, match="0 or 1"):
            row_space_contains(bits("01"), vec)


def test_row_space_contains_vertex_cut_of_f1():
    from matroidsplit import catalog

    entry = catalog.get("F_1")
    mask = 0
    for lab in entry.marked:
        mask |= 1 << entry.matroid.labels.index(lab)
    # The marked triple meets exactly the edges at one vertex, so its
    # indicator is a row of the incidence matrix.
    assert row_space_contains(entry.matroid.rep, mask)


def test_min_supports_of_all_ones_row():
    assert supports(bits("111")) == {frozenset({0, 1}), frozenset({0, 2}),
                                     frozenset({1, 2})}


def test_min_supports_identity_trivial():
    assert supports(bits("100", "010", "001")) == set()


def test_min_supports_zero_column_is_singleton():
    assert supports(bits("10")) == {frozenset({1})}


def test_min_supports_column_limit():
    with pytest.raises(ValueError):
        null_space_min_supports(Gf2Matrix((), 21))


def test_column_count_limit():
    with pytest.raises(ValueError):
        Gf2Matrix((), 65)
    with pytest.raises(ValueError):
        Gf2Matrix((1 << 3,), 3)


def test_from_bits_rejects_ragged_rows():
    with pytest.raises(ValueError):
        Gf2Matrix.from_bits(["110", "1101"])


def test_from_bits_rejects_non_binary_characters():
    for rows in (["\u0661\u0660"], ["1\u0660"], ["1 "], [[" 1", "0"]], ["12"]):
        with pytest.raises(ValueError, match="0 or 1"):
            Gf2Matrix.from_bits(rows)
    assert Gf2Matrix.from_bits(["10", [0, 1], (True, False)]).rows == (1, 2, 1)


def test_pure_delete_rows_matches_bit_by_bit_oracle():
    rng = random.Random(11)
    for n_cols in [0, 1, 2, 7, 20, 63, 64] * 300:
        # Bits up to 3 above n_cols, in rows and in dmask alike.
        rows = tuple(rng.getrandbits(n_cols + 3) for _ in range(rng.randrange(5)))
        dmask = rng.getrandbits(n_cols + 3) & rng.choice(
            (0, -1, rng.getrandbits(n_cols + 3)))
        assert pure.delete_rows(rows, n_cols, dmask) == \
            oracles.delete_rows(rows, n_cols, dmask), (rows, n_cols, dmask)


def test_zero_by_n_and_m_by_zero_are_valid():
    assert rank(Gf2Matrix((), 5)) == 0
    assert rank(Gf2Matrix((0, 0), 0)) == 0


@st.composite
def matrices(draw, max_cols=10, max_rows=6):
    n_cols = draw(st.integers(0, max_cols))
    n_rows = draw(st.integers(0, max_rows))
    rows = tuple(draw(st.integers(0, (1 << n_cols) - 1)) for _ in range(n_rows))
    return Gf2Matrix(rows, n_cols)


@given(matrices())
@settings(max_examples=150)
def test_rank_invariant_under_rref(m):
    assert rank(m) == rank(rref(m))
    assert rank(m) <= min(m.n_rows, m.n_cols)


@given(matrices(), st.integers(0, (1 << 10) - 1))
@settings(max_examples=150)
def test_appending_row_changes_rank_by_membership(m, v):
    v &= (1 << m.n_cols) - 1
    grown = rank(Gf2Matrix(m.rows + (v,), m.n_cols))
    if row_space_contains(m, v):
        assert grown == rank(m)
    else:
        assert grown == rank(m) + 1


@given(matrices(max_cols=8, max_rows=5))
@settings(max_examples=80, deadline=None)
def test_min_supports_agree_with_subset_rank_oracle(m):
    # Independent oracle: a support set is dependent iff the rank of its
    # columns is below its size; keep the inclusion-minimal ones.
    from itertools import combinations

    from matroidsplit._kernel import rank as column_rank

    cols = [m.column(j) for j in range(m.n_cols)]
    dependent = []
    for size in range(1, m.n_cols + 1):
        for idx in combinations(range(m.n_cols), size):
            if column_rank(tuple(cols[j] for j in idx)) < size:
                dependent.append(frozenset(idx))
    minimal = {c for c in dependent if not any(d < c for d in dependent)}
    assert supports(m) == minimal
