"""End-to-end CLI tests via Click's runner."""

import json
import os
import random

import pytest
from click.testing import CliRunner

from matroidsplit import catalog, corpus as corpus_mod
from matroidsplit.cli import _worker_count, main
from matroidsplit.formats import parse_matroid, write_graph, write_matroid

from oracles import series_parallel_graph


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def g4_file(tmp_path):
    # The one-row representation of three parallel elements.
    path = tmp_path / "g4.matroid"
    path.write_text("elements x y z\nrow 111\n")
    return str(path)


def invoke(runner, *args):
    result = runner.invoke(main, list(args))
    return result


def record_of(result):
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def test_info_reports_structure(runner, g4_file):
    rec = record_of(invoke(runner, "info", g4_file))
    assert rec["structure"]["rank"] == 1
    assert rec["structure"]["cocircuits"] == [["x", "y", "z"]]
    assert rec["inputs"]["file"]["sha256"]


def test_info_on_catalog_f_export(runner, tmp_path):
    path = tmp_path / "f.matroid"
    record_of(invoke(runner, "catalog", "export", "F", str(path)))
    rec = record_of(invoke(runner, "info", str(path)))
    assert rec["structure"]["rank"] == 2
    assert rec["structure"]["n_elements"] == 5


def test_info_rejects_malformed_row_with_line_number(runner, tmp_path):
    path = tmp_path / "bad.matroid"
    path.write_text("elements x y\nrow 111\n")
    result = invoke(runner, "info", str(path))
    assert result.exit_code == 2
    assert "line 2" in result.output


def test_split_single_element(runner, g4_file):
    rec = record_of(invoke(runner, "split", g4_file, "--t", "x"))
    assert rec["matroid"] == ["elements x y z", "row 111", "row 100"]


def test_split_output_round_trips(runner, g4_file, tmp_path):
    out = tmp_path / "split.matroid"
    rec = record_of(invoke(runner, "split", g4_file, "--t", "x,y",
                           "--out", str(out)))
    reparsed = parse_matroid("\n".join(rec["matroid"]))
    on_disk = parse_matroid(out.read_text())
    assert reparsed == on_disk


def test_split_rejects_a_repeated_label(runner, g4_file):
    for args in (("split", g4_file, "--t", "x,x"),
                 ("esplit", g4_file, "--t", "y,x,y", "--new", "a")):
        result = invoke(runner, *args)
        assert result.exit_code == 2, result.output
        assert "splitting set repeats a label" in result.output


def test_threefold_golden_rows(runner, g4_file):
    rec = record_of(invoke(runner, "threefold", g4_file, "--x", "x", "--y", "y"))
    assert rec["matroid"] == [
        "elements x y z p q r",
        "row 111000",
        "row 110101",
        "row 100011",
    ]


def test_threefold_label_collision_suffixes_digits(runner, tmp_path):
    path = tmp_path / "taken.matroid"
    path.write_text("elements x y p q r\nrow 11111\n")
    rec = record_of(invoke(runner, "threefold", str(path), "--x", "x", "--y", "y"))
    assert rec["params"]["new_labels"] == ["p1", "q1", "r1"]


def test_threefold_takes_three_labels(runner, g4_file):
    rec = record_of(invoke(runner, "threefold", g4_file, "--x", "x", "--y", "y",
                           "--labels", "a,b,c"))
    assert rec["params"]["new_labels"] == ["a", "b", "c"]
    assert rec["matroid"][0] == "elements x y z a b c"
    result = invoke(runner, "threefold", g4_file, "--x", "x", "--y", "y",
                    "--labels", "a,b")
    assert result.exit_code == 2
    assert "--labels needs exactly three labels" in result.output


def test_threefold_precondition_message(runner, tmp_path):
    path = tmp_path / "free.matroid"
    path.write_text("elements a b\nrow 10\nrow 01\n")
    result = invoke(runner, "threefold", str(path), "--x", "a", "--y", "b")
    assert result.exit_code == 2
    assert "not a proper subset of any cocircuit" in result.output


def test_esplit_then_delete_matches_split(runner, g4_file, tmp_path):
    split_out = tmp_path / "split.matroid"
    esplit_out = tmp_path / "esplit.matroid"
    record_of(invoke(runner, "split", g4_file, "--t", "x,y",
                     "--out", str(split_out)))
    record_of(invoke(runner, "esplit", g4_file, "--t", "x,y", "--new", "a",
                     "--out", str(esplit_out)))
    via_esplit = parse_matroid(esplit_out.read_text()).delete({"a"})
    assert via_esplit.same_matrix(parse_matroid(split_out.read_text()))


def test_minor_of_threefold_is_k4(runner, g4_file, tmp_path):
    out = tmp_path / "fold.matroid"
    record_of(invoke(runner, "threefold", g4_file, "--x", "x", "--y", "y",
                     "--out", str(out)))
    rec = record_of(invoke(runner, "minor", str(out), "--pattern", "K4"))
    assert rec["verdict"] == "present"
    assert rec["witness"]["deleted"] == []
    assert rec["witness"]["contracted"] == []
    rec = record_of(invoke(runner, "gammoid", str(out)))
    assert rec["verdict"] is False
    assert rec["witness"] is not None


def test_minor_with_pattern_file_and_pins(runner, g4_file, tmp_path):
    fold = tmp_path / "fold.matroid"
    record_of(invoke(runner, "threefold", g4_file, "--x", "x", "--y", "y",
                     "--out", str(fold)))
    patt = tmp_path / "k4.matroid"
    patt.write_text(write_matroid(catalog.get("K4").matroid))
    rec = record_of(invoke(runner, "minor", str(fold), "--pattern", str(patt),
                           "--pin", "e12=x"))
    assert rec["verdict"] == "present"
    assert rec["witness"]["mapping"]["e12"] == "x"
    bad = invoke(runner, "minor", str(fold), "--pattern", str(patt),
                 "--pin", "zz=x")
    assert bad.exit_code == 2
    no_equals = invoke(runner, "minor", str(fold), "--pattern", str(patt),
                       "--pin", "x")
    assert no_equals.exit_code == 2
    assert "--pin expects PAT=HOST, got 'x'" in no_equals.output
    repeated = invoke(runner, "minor", str(fold), "--pattern", str(patt),
                      "--pin", "e12=x", "--pin", "e13=x")
    assert repeated.exit_code == 2
    assert "repeat the element label 'x'" in repeated.output
    twice = invoke(runner, "minor", str(fold), "--pattern", str(patt),
                   "--pin", "e12=x", "--pin", "e12=y")
    assert twice.exit_code == 2
    assert "--pin repeats the pattern label 'e12'" in twice.output


def test_minor_unknown_catalog_pattern(runner, g4_file):
    result = invoke(runner, "minor", g4_file, "--pattern", "NOPE")
    assert result.exit_code == 2
    assert "unknown catalog name" in result.output


def test_gammoid_true_for_parallel_triple(runner, g4_file):
    rec = record_of(invoke(runner, "gammoid", g4_file))
    assert rec["verdict"] is True
    assert rec["witness"] is None


def test_iso_of_quotient_shapes(runner, tmp_path):
    a = tmp_path / "q3.matroid"
    b = tmp_path / "q4.matroid"
    record_of(invoke(runner, "catalog", "export", "Q_3", str(a)))
    record_of(invoke(runner, "catalog", "export", "Q_4", str(b)))
    rec = record_of(invoke(runner, "iso", str(a), str(b)))
    assert rec["verdict"] == "isomorphic"
    assert set(rec["mapping"]) == set(catalog.get("Q_3").matroid.labels)


def test_info_answers_and_iso_exits_two_past_the_support_limit(runner, tmp_path):
    # The span limit counts basis vectors: 21 coloops (rank 21) have no
    # circuits but too many cocircuit vectors, so info answers everything
    # else and writes null for the cocircuits, and iso answers; a parallel
    # class of 22 (nullity 21) is refused by iso.  A refusal is a usage
    # error (exit 2, with the command's usage line); exit 1 is kept for a
    # failed verification check.
    free = tmp_path / "free21.matroid"
    free.write_text("elements " + " ".join(f"e{j}" for j in range(21)) + "\n"
                    + "".join("row " + "0" * j + "1" + "0" * (20 - j) + "\n"
                              for j in range(21)))
    parallel = tmp_path / "parallel22.matroid"
    parallel.write_text("elements " + " ".join(f"e{j}" for j in range(22))
                        + "\nrow " + "1" * 22 + "\n")
    result = invoke(runner, "info", str(free))
    assert result.exit_code == 0, result.output
    structure = record_of(result)["structure"]
    assert structure["rank"] == 21
    assert structure["coloops"] == sorted(f"e{j}" for j in range(21))
    assert structure["loops"] == []
    assert structure["parallel_classes"] == [[f"e{j}"] for j in range(21)]
    assert structure["circuits"] == []
    assert structure["cocircuits"] is None
    result = invoke(runner, "info", str(parallel))
    assert result.exit_code == 0, result.output
    assert record_of(result)["structure"]["circuits"] is None
    result = invoke(runner, "iso", str(parallel), str(parallel))
    assert result.exit_code == 2, result.output
    assert "span enumeration limited to 20 basis vectors" in result.output
    assert "iso [OPTIONS]" in result.output
    assert "Traceback" not in result.output
    assert record_of(invoke(runner, "iso", str(free), str(free)))["verdict"] \
        == "isomorphic"


def test_catalog_commands_refuse_unknown_names(runner, tmp_path):
    for args in (("catalog", "show", "NOPE"),
                 ("catalog", "export", "NOPE", str(tmp_path / "f"))):
        result = invoke(runner, *args)
        assert result.exit_code == 2, result.output
        assert "unknown catalog name 'NOPE'" in result.output
        assert "known: " + ", ".join(catalog.names()) in result.output
    assert not (tmp_path / "f").exists()


def test_catalog_list_and_show(runner):
    result = invoke(runner, "catalog", "list")
    assert result.exit_code == 0
    for name in ("K4", "G_1", "G_4", "F", "Q_2", "F_4"):
        assert name in result.output
    rec = record_of(invoke(runner, "catalog", "show", "F_1"))
    assert rec["marked"] == ["x", "y", "z"]
    assert any(line.startswith("vertices") for line in rec["graph"])


def test_catalog_export_graph_round_trip(runner, tmp_path):
    path = tmp_path / "f.graph"
    record_of(invoke(runner, "catalog", "export", "F", str(path), "--as", "graph"))
    rec = record_of(invoke(runner, "info", str(path)))
    assert rec["kind"] == "graph"
    assert rec["structure"]["rank"] == 2


def test_verify_quotients_exit_zero(runner, tmp_path):
    result = invoke(runner, "verify", "--check", "quotients",
                    "--report-dir", str(tmp_path / "reports"))
    assert result.exit_code == 0
    assert (tmp_path / "reports" / "quotients.txt").exists()
    assert (tmp_path / "reports" / "quotients.json").exists()
    data = json.loads((tmp_path / "reports" / "quotients.json").read_text())
    assert data["verdict"] == "pass"


def test_verify_runs_a_repeated_check_once(runner, tmp_path):
    result = invoke(runner, "verify", "--check", "quotients", "--check", "quotients",
                    "--report-dir", str(tmp_path / "reports"))
    assert result.exit_code == 0
    assert result.output.count("PASS quotients") == 1


def test_verify_gf_empty_exits_one(runner, tmp_path):
    # The emptiness sweep finds genuine witnesses, so the asserted check
    # fails and the exit status reflects it.
    result = invoke(runner, "verify", "--check", "gf-empty",
                    "--max-elements", "6",
                    "--report-dir", str(tmp_path / "reports"))
    assert result.exit_code == 1
    data = json.loads((tmp_path / "reports" / "gf-empty-k1.json").read_text())
    assert data["verdict"] == "fail"
    assert data["failures"]


def test_verify_main_with_corpus_file(runner, tmp_path, corpus6):
    corpus_path = tmp_path / "corpus.txt"
    corpus6.save(corpus_path)
    result = invoke(runner, "verify", "--check", "main",
                    "--max-elements", "6", "--corpus", str(corpus_path),
                    "--report-dir", str(tmp_path / "reports"))
    assert result.exit_code == 0
    assert "PASS main" in result.output


def test_verify_corpus_bound_mismatch(runner, tmp_path, corpus6):
    corpus_path = tmp_path / "corpus.txt"
    corpus6.save(corpus_path)
    result = invoke(runner, "verify", "--check", "main",
                    "--max-elements", "7", "--corpus", str(corpus_path))
    assert result.exit_code == 2


def test_verify_corpus_file_honours_max_rank(runner, tmp_path, corpus6):
    # The file's members above --max-rank are left out, as enumeration
    # leaves them out, and the reports state the asked-for bound.
    corpus_path = tmp_path / "corpus.txt"
    corpus6.save(corpus_path)
    reports = {}
    for source in ("file", "enumerated"):
        extra = ("--corpus", str(corpus_path)) if source == "file" else ()
        result = invoke(runner, "verify", "--check", "gf-minors",
                        "--max-elements", "6", "--max-rank", "3", *extra,
                        "--report-dir", str(tmp_path / source))
        assert result.exit_code == 0, result.output
        reports[source] = json.loads((tmp_path / source / "gf-minors.json").read_text())
        reports[source].pop("wall_time")
    assert reports["file"] == reports["enumerated"]
    assert "rank <= 3" in reports["file"]["universe"]
    # A file that covers a lower rank than asked for is a usage error.
    rank3_path = tmp_path / "rank3.txt"
    corpus6.restrict(6, 3).save(rank3_path)
    result = invoke(runner, "verify", "--check", "gf-minors", "--max-elements", "6",
                    "--max-rank", "4", "--corpus", str(rank3_path))
    assert result.exit_code == 2
    assert "rank <= 3" in result.output


def test_verify_corpus_file_with_a_wrong_gammoid_flag_exits_two(runner, tmp_path,
                                                                 corpus6):
    # At n <= 6 the one non-gammoid is K4; flagged as a gammoid, the sweeps
    # would read it as one.
    lines = corpus_mod.to_file_text(corpus6).splitlines()
    [i] = [i for i, line in enumerate(lines) if line.split()[1] == "-"]
    lines[i] = lines[i].replace(" - ", " g ", 1)
    corpus_path = tmp_path / "corpus.txt"
    corpus_path.write_text("\n".join(lines) + "\n")
    result = invoke(runner, "verify", "--check", "gf-minors", "--max-elements", "6",
                    "--corpus", str(corpus_path))
    assert result.exit_code == 2
    assert f"line {i + 1}: gammoid flag" in result.output


def test_verify_unknown_check(runner, monkeypatch):
    # The name is rejected before any corpus is built.
    def no_corpus(*args):
        raise AssertionError("corpus enumerated for an unknown check name")

    monkeypatch.setattr(corpus_mod, "enumerate_binary_matroids", no_corpus)
    result = invoke(runner, "verify", "--check", "bogus")
    assert result.exit_code == 2
    assert "unknown check name(s): bogus" in result.output


def test_gammoid_records_match_the_k4_witness(runner, g4_file, tmp_path):
    # The verdict comes from the reduction; the witness from the K4 scan.
    fold = tmp_path / "fold.matroid"
    record_of(invoke(runner, "threefold", g4_file, "--x", "x", "--y", "y",
                     "--out", str(fold)))
    paths = [str(fold)]
    for name in catalog.names():
        path = tmp_path / f"{name}.matroid"
        record_of(invoke(runner, "catalog", "export", name, str(path)))
        paths.append(str(path))
    records = {}
    for path in paths:
        witness = parse_matroid(open(path).read()).k4_minor()
        rec = records[path] = record_of(invoke(runner, "gammoid", path))
        assert rec["verdict"] is (witness is None)
        assert rec["witness"] == (None if witness is None else {
            "deleted": sorted(witness.deleted),
            "contracted": sorted(witness.contracted),
            "mapping": dict(sorted(witness.mapping.items())),
        })
    golden = {
        str(fold): {"e12": "x", "e13": "y", "e14": "z",
                    "e23": "q", "e24": "r", "e34": "p"},
        str(tmp_path / "K4.matroid"): {f"e{p}": f"e{p}" for p in
                                       ("12", "13", "14", "23", "24", "34")},
    }
    for path, mapping in golden.items():
        assert records[path]["witness"] == {"deleted": [], "contracted": [],
                                            "mapping": mapping}


def test_gammoid_true_for_large_series_parallel_graph(runner, tmp_path):
    g = series_parallel_graph(random.Random(14), 14, 8)
    path = tmp_path / "sp.graph"
    path.write_text(write_graph(g))
    rec = record_of(invoke(runner, "gammoid", str(path)))
    assert rec["verdict"] is True
    assert rec["witness"] is None


def test_verify_rejects_nonpositive_jobs(runner):
    for bad in ("0", "-3"):
        result = invoke(runner, "verify", "--check", "quotients", "--jobs", bad)
        assert result.exit_code == 2
        assert "positive" in result.output
    result = invoke(runner, "verify", "--check", "quotients", "--jobs", "two")
    assert result.exit_code == 2


def test_worker_count_is_clamped_to_cpu_count():
    cpus = os.cpu_count() or 1
    assert _worker_count(1) == 1
    assert _worker_count(cpus + 5) == cpus
    # --jobs is the one way to ask for workers, and its default shows.
    result = invoke(CliRunner(), "verify", "--help")
    assert "--jobs INTEGER" in result.output
    assert "[default: 1]" in result.output.split("--jobs", 1)[1].split("--", 1)[0]
