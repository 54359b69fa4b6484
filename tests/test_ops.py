"""Splitting, element splitting, 3-fold constructions, admissible pairs."""

from itertools import combinations

import pytest

from matroidsplit import catalog
from matroidsplit.gf2 import Gf2Matrix, row_space_contains
from matroidsplit.matroid import BinaryMatroid, k4_matroid
from matroidsplit.ops import (
    add_loops,
    admissible_pairs,
    element_splitting,
    splitting,
    three_fold,
    three_fold_ghafari,
    three_fold_rows,
    three_fold_steps,
)

from oracles import subsets


def g4():
    return BinaryMatroid.from_matrix(("x", "y", "z"), Gf2Matrix.from_bits(["111"]))


# -- splitting ---------------------------------------------------------------------


def test_splitting_appends_indicator_row():
    b = add_loops(g4(), ("p", "q", "r"))
    c = splitting(b, ("x", "y", "p", "r"))
    assert c.rep.row_strings() == ["111000", "110101"]
    d = splitting(c, ("x", "q", "r"))
    assert d.rep.row_strings() == ["111000", "110101", "100011"]


def test_splitting_ground_set_unchanged():
    m = splitting(g4(), ("x",))
    assert m.labels == g4().labels


def test_splitting_errors():
    with pytest.raises(ValueError, match="nonempty"):
        splitting(g4(), ())
    with pytest.raises(ValueError, match="unknown element label 'w'"):
        splitting(g4(), ("w",))
    with pytest.raises(ValueError, match="nonempty"):
        element_splitting(g4(), (), "s")
    with pytest.raises(ValueError, match="unknown element label 'w'"):
        element_splitting(g4(), ("x", "w"), "s")
    with pytest.raises(ValueError, match="unknown element label 'w'"):
        three_fold(g4(), "w", "x")


def test_splitting_on_vertex_cut_is_trivial():
    entry = catalog.get("F_1")
    split = splitting(entry.matroid, entry.marked)
    assert split == entry.matroid
    assert split.is_isomorphic(catalog.get("F").matroid) is not None


def test_splitting_rank_law_across_catalog():
    for entry in catalog.list_entries():
        m = entry.matroid
        for t in subsets(m.labels):
            if not t or len(t) > 3:
                continue
            mask = 0
            for lab in t:
                mask |= 1 << m.labels.index(lab)
            split = splitting(m, t)
            if row_space_contains(m.rep, mask):
                assert split.rank() == m.rank()
            else:
                assert split.rank() == m.rank() + 1


# -- element splitting ----------------------------------------------------------------


def test_element_splitting_identities_exact():
    for entry in catalog.list_entries():
        m = entry.matroid
        for t in subsets(m.labels):
            if not t or len(t) > 3:
                continue
            ext = element_splitting(m, t, "new")
            assert ext.delete({"new"}).same_matrix(splitting(m, t))
            assert ext.contract({"new"}).same_matrix(m)


def test_element_splitting_rank_and_size():
    ext = element_splitting(g4(), ("x", "y"), "a")
    assert ext.rank() == 2
    assert ext.n_elements() == 4


def test_element_splitting_label_collision():
    with pytest.raises(ValueError, match="already in the ground set"):
        element_splitting(g4(), ("x",), "y")


# -- loops extension --------------------------------------------------------------------


def test_add_loops_are_loops():
    b = add_loops(g4(), ("p", "q", "r"))
    assert {"p", "q", "r"} <= b.loops()
    assert b.labels == ("x", "y", "z", "p", "q", "r")


def test_add_loops_collision():
    with pytest.raises(ValueError):
        add_loops(g4(), ("x",))


# -- three-fold ---------------------------------------------------------------------------


def test_three_fold_reproduces_construction_matrix():
    ext, first, second = three_fold_steps(g4(), "x", "y")
    assert ext.rep.row_strings() == ["111000"]
    assert first.rep.row_strings() == ["111000", "110101"]
    assert second.rep.row_strings() == ["111000", "110101", "100011"]
    assert three_fold(g4(), "x", "y").same_matrix(second)


def test_three_fold_is_k4_and_not_gammoid():
    folded = three_fold(g4(), "x", "y")
    assert folded.is_isomorphic(k4_matroid()) is not None
    assert not folded.is_binary_gammoid()


def test_three_fold_ground_set_and_rank_bound():
    entry = catalog.get("F_1")
    pair = sorted(next(iter(admissible_pairs(entry.matroid))))
    folded = three_fold(entry.matroid, pair[0], pair[1])
    assert folded.n_elements() == entry.matroid.n_elements() + 3
    assert set(folded.labels) == set(entry.matroid.labels) | {"p", "q", "r"}
    assert folded.rank() <= entry.matroid.rank() + 2


def test_three_fold_rejects_pair_outside_cocircuits():
    coloops = BinaryMatroid.from_matrix(("a", "b"), Gf2Matrix.from_bits(["10", "01"]))
    with pytest.raises(ValueError,
                       match=r"\{a,b\} not a proper subset of any cocircuit"):
        three_fold(coloops, "a", "b")


def test_three_fold_validates_labels():
    with pytest.raises(ValueError):
        three_fold(g4(), "x", "x")
    with pytest.raises(ValueError):
        three_fold(g4(), "x", "w")
    with pytest.raises(ValueError):
        three_fold(g4(), "x", "y", new_labels=("p", "p", "r"))


# -- the element-splitting route to the 3-fold ----------------------------------------------


def test_ghafari_route_matches_three_fold_bit_for_bit():
    a = three_fold(g4(), "x", "y")
    b = three_fold_ghafari(g4(), ("x", "y"), ("x",))
    assert b.same_matrix(a)


def test_ghafari_new_triple_is_a_circuit():
    for entry in catalog.list_entries():
        m = entry.matroid
        for pair in sorted(admissible_pairs(m), key=sorted):
            x, y = sorted(pair)
            out = three_fold_ghafari(m, (x, y), (x,),
                                     new_labels=("p+", "q+", "r+"))
            assert out.n_elements() == m.n_elements() + 3
            assert frozenset({"p+", "q+", "r+"}) in out.circuits()


def test_ghafari_validations():
    with pytest.raises(ValueError, match="proper subset"):
        three_fold_ghafari(g4(), ("x", "y"), ("x", "y"))
    with pytest.raises(ValueError, match="not a proper subset of any cocircuit"):
        three_fold_ghafari(
            BinaryMatroid.from_matrix(("a", "b"), Gf2Matrix.from_bits(["10", "01"])),
            ("a", "b"), ("a",))
    # An unknown label is named, not read as lying outside every cocircuit.
    with pytest.raises(ValueError, match="unknown element label 'zz'"):
        three_fold_ghafari(g4(), ("zz", "x"), ("zz",))


def test_ghafari_rejects_a_repeated_label():
    # Each splitting set is read as splitting reads it: a repeated label is
    # refused, not folded into three_fold(G_4, "x", "y").
    for t, t_prime in ((("x", "x", "y"), ("x",)), (("x", "y"), ("x", "x"))):
        with pytest.raises(ValueError, match="repeats a label"):
            three_fold_ghafari(g4(), t, t_prime)
    with pytest.raises(ValueError, match="nonempty"):
        three_fold_ghafari(g4(), ("x", "y"), ())


# -- the row core -------------------------------------------------------------------------------


def test_row_core_equals_both_constructions_bit_for_bit(corpus6):
    # The core gives the rows of both public constructions and of the
    # elementary operations each stands for: three loops and two
    # splittings, or two element splittings and the closing column r = p + q.
    pairs = 0
    for m in corpus6.members:
        rows, n = m.rep.rows, m.rep.n_cols
        for pair in sorted(admissible_pairs(m), key=sorted):
            x, y = sorted(pair)
            core = three_fold_rows(rows, n, m._label_mask((x, y)), m._label_mask((x,)))
            steps = splitting(splitting(add_loops(m, ("p", "q", "r")),
                                        (x, y, "p", "r")), (x, "q", "r"))
            assert core == three_fold(m, x, y).rep.rows == steps.rep.rows
            with_q = element_splitting(element_splitting(m, (x, y), "p"), (x,), "q").rep
            closed = with_q.append_column(with_q.column(n) ^ with_q.column(n + 1))
            assert core == three_fold_ghafari(m, (x, y), (x,)).rep.rows == closed.rows
            pairs += 1
    assert pairs > 100


# -- admissible pairs -------------------------------------------------------------------------


def test_admissible_pairs_of_parallel_triple():
    assert admissible_pairs(g4()) == {
        frozenset({"x", "y"}), frozenset({"x", "z"}), frozenset({"y", "z"})}


def test_admissible_pairs_of_free_matroid_empty():
    m = BinaryMatroid.from_matrix(("a", "b", "c"),
                                  Gf2Matrix.from_bits(["100", "010", "001"]))
    assert admissible_pairs(m) == frozenset()


def test_admissible_pairs_of_k4():
    # Every pair sits inside a vertex star of size 3 or a 4-element cut.
    pairs = admissible_pairs(k4_matroid())
    assert len(pairs) == 15


def test_admissible_pairs_match_cocircuit_oracle():
    from oracles import brute_cocircuits

    for entry in catalog.list_entries():
        m = entry.matroid
        expected = set()
        for cc in brute_cocircuits(m):
            if len(cc) < 3:
                continue
            members = sorted(cc)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    expected.add(frozenset((members[i], members[j])))
        assert admissible_pairs(m) == expected


# -- derived matroids skip validation; public constructors keep it ------------------------------


def _derived_from(m):
    """Every matroid the object layer and ``ops`` derive from ``m`` without
    re-validating, for every T with |T| <= 3 and every admissible pair."""
    out = [m.dual(), add_loops(m, ("p*", "q*", "r*"))]
    for size in range(4):
        for t in combinations(m.labels, size):
            out += [m.delete(t), m.contract(t)]
            if t:
                out += [splitting(m, t), element_splitting(m, t, "e*")]
    for pair in sorted(admissible_pairs(m), key=sorted):
        x, y = sorted(pair)
        out += [three_fold(m, x, y), three_fold_ghafari(m, (x, y), (x,))]
    return out


def test_derived_matroids_equal_their_validated_rebuilds(corpus6):
    derived = 0
    for m in corpus6.members:
        for d in _derived_from(m):
            # The rebuild validates labels and rows, and converts neither.
            again = BinaryMatroid(d.labels, Gf2Matrix(d.rep.rows, d.rep.n_cols))
            assert again.labels == d.labels and again.same_matrix(d), (m, d)
            derived += 1
    assert derived > 10_000


def test_public_constructors_still_validate():
    for labels, rep in ((("a b",), Gf2Matrix((0,), 1)),
                        (("a", "a"), Gf2Matrix((0,), 2)),
                        (("a",), Gf2Matrix((0,), 2))):
        with pytest.raises(ValueError):
            BinaryMatroid(labels, rep)
        with pytest.raises(ValueError):
            BinaryMatroid.from_matrix(labels, rep)
    with pytest.raises(ValueError, match="outside 2 columns"):
        Gf2Matrix((4,), 2)
    with pytest.raises(ValueError, match="invalid element label"):
        element_splitting(g4(), ("x",), "new label")
    with pytest.raises(ValueError, match="invalid element label"):
        add_loops(g4(), ("",))


def test_added_columns_keep_the_64_column_limit():
    # One all-ones row: the whole ground set is a cocircuit, so {e0, e1} is
    # admissible and only the column limit can refuse.
    labels = tuple(f"e{j}" for j in range(64))
    full = BinaryMatroid(labels, Gf2Matrix(((1 << 64) - 1,), 64))
    with pytest.raises(ValueError, match="column limit"):
        element_splitting(full, ("e0",), "new")
    with pytest.raises(ValueError, match="column limit"):
        add_loops(full, ("new",))
    with pytest.raises(ValueError, match="column limit"):
        three_fold_ghafari(full, ("e0", "e1"), ("e0",))
    with pytest.raises(ValueError, match="column limit"):
        add_loops(full.delete({"e0"}), ("p", "q"))
    assert add_loops(full.delete({"e0"}), ("p",)).n_elements() == 64
