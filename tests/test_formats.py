"""Matroid/graph file formats and result records."""

import pytest

from matroidsplit import catalog
from matroidsplit.formats import (
    FileFormatError,
    matroid_from_record,
    parse_graph,
    parse_matroid,
    result_record,
    write_graph,
    write_matroid,
)
from matroidsplit.gf2 import Gf2Matrix
from matroidsplit.matroid import BinaryMatroid


def test_matroid_round_trip():
    for entry in catalog.list_entries():
        text = write_matroid(entry.matroid)
        back = parse_matroid(text)
        assert back == entry.matroid
        assert back.same_matrix(entry.matroid)


def test_rank_zero_matroid_file():
    m = parse_matroid("elements a b\n")
    assert m.rank() == 0
    assert m.labels == ("a", "b")


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nelements x y\n# mid\nrow 11\n"
    assert parse_matroid(text).rep.rows == (0b11,)


def test_row_strings_put_first_label_leftmost():
    m = BinaryMatroid(("x", "y", "z"), Gf2Matrix.from_bits(["100"]))
    assert "row 100" in write_matroid(m)


def test_matroid_parse_errors_carry_line_numbers():
    # Duplicate labels are found after parsing, so no line is named there.
    for text, match in (
            ("elements x y\nrow 111\n", "line 2: row has 3 entries"),
            ("row 11\nelements x y\n", "line 1: row before elements"),
            ("# c\nelements x y\nrow ab\n", "line 3: row entries must be 0/1"),
            ("# nothing\n", "missing 'elements'"),
            ("elements x\nelements y\n", "line 2: duplicate elements header"),
            ("elements x\ncol 1\n", "line 2: unknown directive 'col'"),
            ("elements x\nrow\n", "line 2: expected 'row <bits>'"),
            ("elements x y x\n", "duplicate element labels")):
        with pytest.raises(FileFormatError, match=match):
            parse_matroid(text)


def test_graph_round_trip():
    for entry in catalog.list_entries():
        text = write_graph(entry.graph)
        back = parse_graph(text)
        assert back == entry.graph


def test_graph_parse_errors():
    for text, match in (
            ("vertices x\n", "line 1: expected 'vertices <n>'"),
            ("vertices 2\nedge 1 3 a\n", "line 2: endpoint outside 1..2"),
            ("vertices 2\nedge 1 two a\n", "line 2: endpoints must be integers"),
            ("# nothing\n", "missing 'vertices'"),
            ("vertices 2\narc 1 2 a\n", "line 2: unknown directive 'arc'"),
            ("vertices 2\nvertices 3\n", "line 2: duplicate vertices header"),
            ("edge 1 2 a\nvertices 2\n", "line 1: edge before vertices header"),
            ("vertices 2\nedge 1 2\n", "line 2: expected 'edge <u> <v> <label>'"),
            ("vertices 2\nedge 1 2 a\nedge 2 1 a\n", "duplicate edge label 'a'")):
        with pytest.raises(FileFormatError, match=match):
            parse_graph(text)


def test_load_any_detects_kind(tmp_path):
    from matroidsplit.formats import load_any

    mt = tmp_path / "m.matroid"
    mt.write_text(write_matroid(catalog.get("F").matroid))
    kind, m, g = load_any(mt)
    assert kind == "matroid" and g is None and m.rank() == 2

    gt = tmp_path / "g.graph"
    gt.write_text(write_graph(catalog.get("F").graph))
    kind, m, g = load_any(gt)
    assert kind == "graph" and g is not None and m.rank() == 2

    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense here\n")
    with pytest.raises(FileFormatError):
        load_any(bad)


def test_result_record_round_trips_matroid():
    m = catalog.get("Q_2").matroid
    record = result_record("demo", {}, {}, matroid=m)
    back = matroid_from_record(record)
    assert back == m
