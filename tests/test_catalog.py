"""Catalog entries, their validation facts, and name lookup."""

import pytest

from matroidsplit import catalog
from matroidsplit.matroid import K4_GRAPH, k4_matroid
from matroidsplit.ops import splitting


def test_validate_all_passes():
    report = catalog.validate_all()
    assert report.verdict == "pass"
    assert report.failures == ()
    assert report.cases == 21


def test_names_cover_every_figure_instance():
    assert catalog.names() == ("K4", "G_4", "F", "G_1", "G_2", "G_3",
                               "Q_1", "Q_2", "Q_3", "Q_4",
                               "F_1", "F_2", "F_3", "F_4")


def test_lookup_is_forgiving():
    assert catalog.get("k4").name == "K4"
    assert catalog.get("K_4").name == "K4"
    assert catalog.get("g_1").name == "G_1"


def test_unknown_name_raises():
    with pytest.raises(KeyError, match="unknown catalog name"):
        catalog.get("G_9")


def test_marked_elements_belong_to_entries():
    for entry in catalog.list_entries():
        assert set(entry.marked) <= set(entry.matroid.labels)
        assert entry.matroid.labels == entry.graph.edge_labels()


def test_f_shape():
    f = catalog.get("F").matroid
    assert f.rank() == 2
    assert f.n_elements() == 5
    assert sorted(len(c) for c in f.parallel_classes()) == [1, 2, 2]
    assert not f.loops()


def test_k4_is_one_graph_and_one_matroid():
    entry = catalog.get("K4")
    assert entry.matroid is k4_matroid()
    assert entry.graph is K4_GRAPH


def test_g4_has_single_cocircuit():
    assert catalog.get("G_4").matroid.cocircuits() == {frozenset({"x", "y", "z"})}


def test_marked_splittings_hit_their_targets():
    k4 = catalog.get("K4").matroid
    f = catalog.get("F").matroid
    for name in ("G_1", "G_2", "G_3"):
        entry = catalog.get(name)
        assert splitting(entry.matroid, entry.marked).is_isomorphic(k4) is not None
    for name in ("F_1", "F_2", "F_3", "F_4"):
        entry = catalog.get(name)
        assert splitting(entry.matroid, entry.marked).is_isomorphic(f) is not None


def test_middle_marked_deletion_recovers_f():
    f = catalog.get("F").matroid
    for name in ("G_1", "G_2", "G_3"):
        entry = catalog.get(name)
        survivor = entry.matroid.delete({entry.marked[1]})
        assert survivor.is_isomorphic(f) is not None


def test_decode_observations_are_reported():
    report = catalog.validate_all()
    obs = report.observations
    assert obs["decode observation: G_1 and G_2 are isomorphic matroids"] is True
    assert obs["decode observation: Q_3 and Q_4 are isomorphic matroids"] is True
    assert obs["decode observation: F_3 and F_4 are isomorphic matroids"] is True
    assert obs["decode observation: F_1 and F are isomorphic matroids"] is True


def test_quotient_shape_profiles():
    q2 = catalog.get("Q_2").matroid
    q3 = catalog.get("Q_3").matroid
    q4 = catalog.get("Q_4").matroid
    assert (len(q2.loops()), sorted(len(c) for c in q2.parallel_classes())) == (1, [4])
    assert (len(q3.loops()), sorted(len(c) for c in q3.parallel_classes())) == (2, [3])
    assert q3.is_isomorphic(q4) is not None


def test_gammoid_flags_of_catalog():
    for entry in catalog.list_entries():
        expected = entry.name != "K4"
        assert entry.matroid.is_binary_gammoid() == expected
