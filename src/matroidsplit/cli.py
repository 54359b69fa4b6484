"""Command-line surface: structure queries, splitting operations, minor and
gammoid tests, catalog access, and the verification harness.

Every command prints one machine-readable JSON record; commands producing a
matroid can also write it as a matroid file via --out.  Exit codes: 0 on
success, 1 when an asserted verification check fails, 2 on usage or parse
errors, which include every ``ValueError`` the library raises (``_Command``).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import click

from . import catalog as catalog_mod
from . import corpus as corpus_mod
from . import formats, verify
from ._kernel import BACKEND
from .matroid import BinaryMatroid
from .ops import element_splitting, splitting, three_fold


def _load(path: str):
    try:
        return formats.load_any(path)
    except (OSError, formats.FileFormatError) as exc:
        raise click.UsageError(str(exc))


def _input_digest(path: str) -> dict:
    return {"path": str(path), "sha256": formats.file_digest(path)}


def _emit(record: dict, out: str | None, matroid: BinaryMatroid | None) -> None:
    if out and matroid is not None:
        Path(out).write_text(formats.write_matroid(matroid))
    click.echo(formats.record_to_json(record))


def _supports(enumerate_supports):
    """The sorted supports, or None when their span passes the limit of
    ``space_min_supports``, the only ValueError of a validated matroid."""
    try:
        return sorted(sorted(s) for s in enumerate_supports())
    except ValueError:
        return None


def _structure(m: BinaryMatroid) -> dict:
    return {
        "elements": list(m.labels),
        "n_elements": m.n_elements(),
        "rank": m.rank(),
        "loops": sorted(m.loops()),
        "coloops": sorted(m.coloops()),
        "parallel_classes": [sorted(c) for c in m.parallel_classes()],
        "circuits": _supports(m.circuits),
        "cocircuits": _supports(m.cocircuits),
    }


def _split_labels(raw: str) -> tuple[str, ...]:
    labels = tuple(tok for tok in raw.split(",") if tok)
    if not labels:
        raise click.UsageError("expected a comma-separated list of labels")
    return labels


class _Command(click.Command):
    """The CLI's one error boundary: a ``ValueError`` raised while the
    command runs is a usage error (exit 2), shown with its usage line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx) from exc


class _Group(click.Group):
    command_class, group_class = _Command, type  # subgroups are _Group too


@click.group(cls=_Group)
@click.version_option(package_name="matroidsplit")
def main():
    """Binary matroid splitting operations and verification tools."""


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def info(file):
    """Print rank, loops, coloops, parallel classes, circuits, cocircuits
    (null past the span limit)."""
    kind, m, _ = _load(file)
    record = formats.result_record(
        "info", {"file": _input_digest(file)}, {}, matroid=m,
        kind=kind, structure=_structure(m))
    _emit(record, None, None)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--t", "t_raw", required=True, help="comma-separated element labels")
@click.option("--out", type=click.Path(dir_okay=False), help="write the result as a matroid file")
def split(file, t_raw, out):
    """Append a row with 1s exactly on the given elements."""
    _, m, _ = _load(file)
    result = splitting(m, _split_labels(t_raw))
    record = formats.result_record(
        "split", {"file": _input_digest(file)}, {"t": list(_split_labels(t_raw))},
        matroid=result)
    _emit(record, out, result)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--t", "t_raw", required=True, help="comma-separated element labels")
@click.option("--new", "new_label", required=True, help="label of the added element")
@click.option("--out", type=click.Path(dir_okay=False))
def esplit(file, t_raw, new_label, out):
    """Element splitting: the splitting row plus a new indicator element."""
    _, m, _ = _load(file)
    result = element_splitting(m, _split_labels(t_raw), new_label)
    record = formats.result_record(
        "esplit", {"file": _input_digest(file)},
        {"t": list(_split_labels(t_raw)), "new": new_label}, matroid=result)
    _emit(record, out, result)


def _fresh_fold_labels(m: BinaryMatroid, raw: str | None) -> tuple[str, str, str]:
    if raw:
        labels = _split_labels(raw)
        if len(labels) != 3:
            raise click.UsageError("--labels needs exactly three labels")
        return labels
    suffix = 0
    while True:
        tag = "" if suffix == 0 else str(suffix)
        cand = (f"p{tag}", f"q{tag}", f"r{tag}")
        if not set(cand) & set(m.labels):
            return cand
        suffix += 1


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--x", "x_label", required=True)
@click.option("--y", "y_label", required=True)
@click.option("--labels", "labels_raw", help="labels for the three new elements (default p,q,r)")
@click.option("--out", type=click.Path(dir_okay=False))
def threefold(file, x_label, y_label, labels_raw, out):
    """3-fold: adjoin loops p,q,r then split on {x,y,p,r} and {x,q,r}."""
    _, m, _ = _load(file)
    new_labels = _fresh_fold_labels(m, labels_raw)
    result = three_fold(m, x_label, y_label, new_labels=new_labels)
    record = formats.result_record(
        "threefold", {"file": _input_digest(file)},
        {"x": x_label, "y": y_label, "new_labels": list(new_labels)},
        matroid=result)
    _emit(record, out, result)


def _catalog_entry(name: str) -> catalog_mod.CatalogEntry:
    """The catalog entry ``name``; an unknown name is a usage error."""
    try:
        return catalog_mod.get(name)
    except KeyError as exc:
        raise click.UsageError(str(exc)) from exc


def _resolve_pattern(spec: str) -> tuple[BinaryMatroid, dict]:
    if os.path.exists(spec):
        _, pat, _ = _load(spec)
        return pat, {"pattern_file": _input_digest(spec)}
    entry = _catalog_entry(spec)
    return entry.matroid, {"pattern_catalog": entry.name}


def _witness_dict(w) -> dict:
    return {
        "deleted": sorted(w.deleted),
        "contracted": sorted(w.contracted),
        "mapping": dict(sorted(w.mapping.items())),
    }


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--pattern", required=True, help="catalog name or matroid/graph file")
@click.option("--pin", "pins", multiple=True, metavar="PAT=HOST",
              help="force a pattern label onto a host label (repeatable)")
def minor(file, pattern, pins):
    """Search for the pattern as a minor; print a witness or 'absent'."""
    _, m, _ = _load(file)
    pat, pattern_info = _resolve_pattern(pattern)
    pin_map = {}
    for raw in pins:
        if "=" not in raw:
            raise click.UsageError(f"--pin expects PAT=HOST, got {raw!r}")
        key, _, value = raw.partition("=")
        if key in pin_map:
            raise click.UsageError(f"--pin repeats the pattern label {key!r}")
        pin_map[key] = value
    witness = m.has_minor(pat, pins=pin_map or None)
    record = formats.result_record(
        "minor", {"file": _input_digest(file), **pattern_info},
        {"pins": pin_map},
        verdict="present" if witness else "absent",
        witness=_witness_dict(witness) if witness else None)
    _emit(record, None, None)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def gammoid(file):
    """Decide the binary-gammoid property; a K4 witness certifies 'false'."""
    _, m, _ = _load(file)
    verdict = m.is_binary_gammoid()
    witness = None if verdict else m.k4_minor()
    record = formats.result_record(
        "gammoid", {"file": _input_digest(file)}, {},
        verdict=verdict,
        witness=_witness_dict(witness) if witness else None)
    _emit(record, None, None)


@main.command()
@click.argument("file_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("file_b", type=click.Path(exists=True, dir_okay=False))
def iso(file_a, file_b):
    """Search for a circuit-preserving bijection between two matroids."""
    _, a, _ = _load(file_a)
    _, b, _ = _load(file_b)
    mapping = a.is_isomorphic(b)
    record = formats.result_record(
        "iso", {"file_a": _input_digest(file_a), "file_b": _input_digest(file_b)},
        {},
        verdict="isomorphic" if mapping else "not-isomorphic",
        mapping=dict(sorted(mapping.items())) if mapping else None)
    _emit(record, None, None)


def _worker_count(jobs: int) -> int:
    """Worker processes from --jobs: a value that is not positive is a
    usage error, and one above the CPU count is lowered to it."""
    if jobs <= 0:
        raise click.UsageError(f"worker count must be positive, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


@main.command(name="verify")
@click.option("--check", "checks", multiple=True, default=("all",),
              help="check name or 'all' (repeatable); names: "
                   + ", ".join(verify.CHECK_NAMES))
@click.option("--max-elements", default=7, show_default=True)
@click.option("--max-rank", default=4, show_default=True)
@click.option("--corpus", "corpus_file", type=click.Path(exists=True, dir_okay=False),
              help="reuse a saved corpus file instead of enumerating")
@click.option("--jobs", default=1, show_default=True, type=int,
              help="worker processes, at most the CPU count")
@click.option("--report-dir", default="reports", show_default=True,
              type=click.Path(file_okay=False))
def verify_cmd(checks, max_elements, max_rank, corpus_file, jobs, report_dir):
    """Run verification checks; nonzero exit iff an asserted check fails."""
    jobs = _worker_count(jobs)
    checks = verify.check_names(checks)
    if corpus_file:
        c = corpus_mod.Corpus.load(corpus_file).restrict(max_elements, max_rank)
    else:
        c = corpus_mod.enumerate_binary_matroids(max_elements, max_rank)
    reports = verify.run_checks(checks, c, jobs=jobs)
    out_dir = Path(report_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    any_failed = False
    for report in reports:
        (out_dir / f"{report.name}.txt").write_text(report.to_text())
        (out_dir / f"{report.name}.json").write_text(report.to_json() + "\n")
        status = report.verdict.upper()
        click.echo(f"{status:4s} {report.name}: {report.cases} cases, "
                   f"{len(report.failures)} failures, {report.wall_time:.2f}s")
        if report.verdict == "fail":
            any_failed = True
    click.echo(f"reports written to {out_dir} (backend: {BACKEND})")
    if any_failed:
        sys.exit(1)


@main.group()
def catalog():
    """Named graphs and matroids with their distinguished elements."""


@catalog.command(name="list")
def catalog_list():
    for name in catalog_mod.names():
        entry = catalog_mod.get(name)
        m = entry.matroid
        marked = ",".join(entry.marked) if entry.marked else "-"
        click.echo(f"{name:5s} rank={m.rank()} elements={m.n_elements()} "
                   f"marked={marked}")


@catalog.command(name="show")
@click.argument("name")
def catalog_show(name):
    entry = _catalog_entry(name)
    record = formats.result_record(
        "catalog-show", {}, {"name": entry.name},
        matroid=entry.matroid,
        graph=formats.write_graph(entry.graph).splitlines(),
        marked=list(entry.marked),
        structure=_structure(entry.matroid))
    _emit(record, None, None)


@catalog.command(name="export")
@click.argument("name")
@click.argument("file", type=click.Path(dir_okay=False))
@click.option("--as", "as_kind", type=click.Choice(["matroid", "graph"]),
              default="matroid", show_default=True)
def catalog_export(name, file, as_kind):
    entry = _catalog_entry(name)
    if as_kind == "graph":
        Path(file).write_text(formats.write_graph(entry.graph))
    else:
        Path(file).write_text(formats.write_matroid(entry.matroid))
    record = formats.result_record(
        "catalog-export", {}, {"name": entry.name, "as": as_kind, "file": file})
    _emit(record, None, None)


if __name__ == "__main__":
    main()
