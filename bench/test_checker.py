"""Tests of the benchmark's independent checker and input generators against
hand-known matroids.  Run with ``python3 -m pytest bench``."""

import random
import sys
from itertools import permutations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import inputs  # noqa: E402


def graph_cols(edges):
    return [(1 << (u - 1)) ^ (1 << (v - 1)) if u != v else 0 for u, v in edges]


K4 = graph_cols([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
# Triangle on apex 1 and base 2-3 with both slanted sides doubled.
F = graph_cols([(2, 3), (1, 2), (1, 2), (1, 3), (1, 3)])
G1 = F + [0]                        # F plus a loop
U13_U13 = [1, 1, 1, 2, 2, 2]        # two disjoint triples of parallel elements
W4 = graph_cols([(1, 2), (1, 3), (1, 4), (1, 5),
                 (2, 3), (3, 4), (4, 5), (5, 2)])   # wheel with four spokes


def test_rank_and_contract():
    assert checker.rank(K4) == 3
    assert checker.rank(F) == 2
    assert checker.rank(U13_U13) == 2
    assert checker.rank([]) == 0
    # Contracting an edge of K4 leaves a triangle with two doubled sides.
    assert sorted(len(c) for c in checker.minor_profile(
        "abcdef", K4, "", "a")[3]) == [1, 2, 2]
    # A loop is deleted by contraction.
    assert checker.contract([0, 1, 1], 0) == [1, 1]


def test_series_parallel_reduction():
    assert not checker.is_series_parallel(K4)
    assert not checker.is_series_parallel(W4)
    assert not checker.is_series_parallel(K4 + [0, K4[0]])  # plus a loop and a parallel
    for cols in (F, G1, U13_U13, [], [0], [1], [1, 2, 3]):
        assert checker.is_series_parallel(cols)
    # A 4-cycle: every pair of edges is in series.
    assert checker.is_series_parallel(graph_cols([(1, 2), (2, 3), (3, 4), (4, 1)]))
    # K4 with one edge subdivided still has a K4 minor.
    assert not checker.is_series_parallel(
        graph_cols([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (5, 4)]))


def test_generated_graphs_are_series_parallel():
    rng = random.Random(5)
    for n_edges in (12, 13):
        for rank in range(4, 9):
            nv, edges = inputs.series_parallel_graph(rng, n_edges, rank)
            assert nv == rank + 1 and len(edges) == n_edges
            cols = graph_cols([(u, v) for u, v, _ in edges])
            assert checker.rank(cols) == rank
            assert checker.is_series_parallel(cols)


def test_witness_profiles():
    assert checker.is_k4_profile(checker.minor_profile("abcdef", K4, "", ""))
    # Deleting an element of K4 leaves five elements.
    assert not checker.is_k4_profile(checker.minor_profile("abcdef", K4, "a", ""))
    assert checker.is_f_profile(checker.minor_profile("abcde", F, "", ""))
    assert checker.is_f_profile(checker.minor_profile("abcdef", G1, "f", ""))
    assert not checker.is_f_profile(checker.minor_profile("abcdef", U13_U13, "a", ""))
    # U_{1,3} pinned at x, y: three parallel edges.
    g4 = graph_cols([(1, 2), (1, 2), (1, 2)])
    assert checker.is_pinned_u13(checker.minor_profile("xyz", g4, "", ""), "xy")
    assert not checker.is_pinned_u13(checker.minor_profile("xyz", g4, "", ""), "xw")
    assert checker.is_pinned_u13(
        checker.minor_profile("abcdef", U13_U13, "def", ""), "ab")


def test_f_profile_minor_search():
    assert checker.find_f_profile_minor(F)
    assert checker.find_f_profile_minor(G1)
    assert not checker.find_f_profile_minor(U13_U13)
    assert not checker.find_f_profile_minor(K4[:4])
    # G_1 split on its loop: contract the new coloop and F is left.
    assert checker.find_f_profile_minor(checker.split(G1, {5}))
    # U_{1,3} + U_{1,3} split on one element of each triple has an F minor.
    assert checker.find_f_profile_minor(checker.split(U13_U13, {0, 3}))
    # Contracting an edge of K4 leaves M(F).
    assert checker.find_f_profile_minor(K4)


def test_circuits_and_cocircuits():
    t = checker.rank_table(K4)
    circ = checker.circuits(t, 6)
    assert sorted(bin(c).count("1") for c in circ) == [3, 3, 3, 3, 4, 4, 4]
    cocirc = checker.cocircuits(t, 6)
    assert sorted(bin(c).count("1") for c in cocirc) == [3, 3, 3, 3, 4, 4, 4]
    g4 = graph_cols([(1, 2), (1, 2), (1, 2)])
    assert checker.cocircuits(checker.rank_table(g4), 3) == frozenset({0b111})
    # A loop is a circuit and lies in no cocircuit.
    tg = checker.rank_table(G1)
    assert 1 << 5 in checker.circuits(tg, 6)
    assert not any((c >> 5) & 1 for c in checker.cocircuits(tg, 6))


def test_isomorphism():
    n = 6
    circ_k4 = checker.circuits(checker.rank_table(K4), n)
    rng = random.Random(3)
    labels = tuple(f"e{j}" for j in range(n))
    rows = [sum(((c >> i) & 1) << j for j, c in enumerate(K4)) for i in range(3)]
    new_labels, new_rows, mapping = inputs.relabelled_copy(labels, rows, n, rng)
    copy_cols = checker.columns_of_rows(new_rows, n)
    circ_copy = checker.circuits(checker.rank_table(copy_cols), n)
    assert checker.maps_circuits(mapping, labels, circ_k4, new_labels, circ_copy)
    assert checker.find_isomorphism(circ_k4, circ_copy, n) is not None
    # Swapping the images of two opposite edges breaks every triangle.
    swapped = dict(mapping)
    a, b = labels[0], labels[5]
    swapped[a], swapped[b] = swapped[b], swapped[a]
    assert not checker.maps_circuits(swapped, labels, circ_k4, new_labels, circ_copy)
    # Same size and rank, not isomorphic.
    circ_g1 = checker.circuits(checker.rank_table(G1), 6)
    circ_u = checker.circuits(checker.rank_table(U13_U13), 6)
    assert checker.find_isomorphism(circ_g1, circ_u, 6) is None
    assert checker.invariant(checker.rank_table(G1), 6) != \
        checker.invariant(checker.rank_table(U13_U13), 6)


def test_isomorphism_matches_brute_force():
    rng = random.Random(11)
    for _ in range(30):
        a = [rng.randrange(8) for _ in range(5)]
        b = [rng.randrange(8) for _ in range(5)]
        ca = checker.circuits(checker.rank_table(a), 5)
        cb = checker.circuits(checker.rank_table(b), 5)
        brute = any(
            {sum(1 << p[j] for j in range(5) if (c >> j) & 1) for c in ca} == set(cb)
            for p in permutations(range(5)))
        assert (checker.find_isomorphism(ca, cb, 5) is not None) == brute


def test_columns_of_rows_and_split():
    assert checker.columns_of_rows([0b011, 0b110], 3) == (1, 3, 2)
    assert checker.split([1, 2, 0], {0, 2}) == [1 | 4, 2, 4]


def test_seeded_inputs_repeat():
    a = inputs.series_parallel_graph(random.Random(9), 13, 6)
    b = inputs.series_parallel_graph(random.Random(9), 13, 6)
    assert a == b
    assert inputs.seeded_order(range(10), random.Random(1)) == \
        inputs.seeded_order(range(10), random.Random(1))
