"""Benchmark of matroidsplit: verify sweeps and point queries.

Run from the root of a source checkout:

    python3 bench/run.py --workload verify-n8 --seed 1 --seconds 20 --trace 0

Workloads: verify-n8, verify-n7-jobs2, queries-n7 (see README.md).  The
program is imported from ``src/`` of the checkout, on whichever kernel
backend ``import matroidsplit`` selects.  Set-up is timed from before that
import to the first timed operation; then operations run one at a time
until ``--seconds`` of timed work is done (whole rounds, at least one).
Every timing is scaled to a reference machine speed by the probe in
``speed.py``.  Every output is checked after the timed phase.  The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics, end-to-end ones with ``--trace 0`` and per-layer ones with
``--trace 1``.
A run record with the backend, Python version and corpus sha256 is printed
before it and written under ``bench/runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def percentile(sorted_values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    k = (len(sorted_values) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def tail_percentile(n: int) -> float:
    """The highest percentile of the ladder with at least ten samples beyond
    it; with fewer than forty samples there is no tail, only the median."""
    if n < 40:
        return 50.0
    return max(p for p in LADDER if n * (1 - p / 100.0) >= 10)


def timing_metrics(latencies, tail_p: float, completed: int) -> dict:
    lat = sorted(latencies)
    return {"p50_ms": {"value": 1e3 * percentile(lat, 50.0), "unit": "ms"},
            "tail_ms": {"value": 1e3 * percentile(lat, tail_p), "unit": "ms"},
            "ops_per_s": {"value": completed / sum(lat), "unit": "1/s"}}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import matroidsplit from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "matroidsplit" / "__init__.py").is_file():
        raise SystemExit(f"no matroidsplit sources under {src}")
    sys.path.insert(0, str(src))
    import matroidsplit
    # The submodules the workloads use, so that their import is set-up time.
    from matroidsplit import catalog, corpus, ops, verify  # noqa: F401
    if Path(matroidsplit.__file__).resolve().parent != (src / "matroidsplit").resolve():
        raise SystemExit(f"imported matroidsplit from {matroidsplit.__file__}")
    return matroidsplit


def install_tracer(tracer):
    """Wrap every layer boundary the per-layer metrics name."""
    from matroidsplit import _kernel, catalog, corpus, matroid, ops, verify
    from matroidsplit.verifyreport import VerificationReport

    t = tracer
    t.wrap([corpus], "enumerate_binary_matroids", "corpus.enumerate")
    for fn in ("is_canonical", "find_minors", "rank_masked"):
        t.wrap([_kernel], fn, f"kernel.{fn}")
    t.wrap([_kernel], "cols_rank", "kernel.cols_rank", counted_only=True)
    bm = matroid.BinaryMatroid
    t.wrap([bm], "__post_init__", "matroid.constructions", counted_only=True)
    for fn in ("delete", "contract"):
        t.wrap([bm], fn, f"matroid.{fn}", counted_only=True)
    for fn in ("is_binary_gammoid", "k4_minor", "is_isomorphic", "minor_marked_images"):
        t.wrap([bm], fn, f"matroid.{fn}")
    t.wrap([bm], "has_minor", lambda a, kw: "matroid.has_minor_pinned"
           if any(a[2:]) or kw.get("pins") or kw.get("keep")
           else "matroid.has_minor")
    for fn in ("splitting", "element_splitting", "three_fold_ghafari"):
        t.wrap([ops, verify] + ([catalog] if fn == "splitting" else []), fn,
               f"ops.{fn}", counted_only=True)
    t.wrap([ops, verify], "three_fold", "ops.three_fold")
    t.wrap([ops, verify], "admissible_pairs", "ops.admissible_pairs")
    t.wrap([catalog], "get", "catalog.get", counted_only=True)
    t.wrap([catalog], "validate_all", "verify.catalog")
    t.wrap([verify], "check_quotients_of_f", "verify.quotients")
    t.wrap([verify], "check_split_minor_empty",
           lambda a, kw: f"verify.gf-empty-k{a[1] if len(a) > 1 else kw['k']}")
    t.wrap([verify], "check_split_minor_characterization", "verify.gf-minors")
    t.wrap([verify], "check_splitting_excluded_minors", "verify.split-gammoid")
    t.wrap([verify], "check_three_fold_excluded_minor", "verify.main")
    t.wrap([verify], "check_element_splitting_identities", "verify.esplit-identities")
    t.wrap_pool(verify, "ProcessPoolExecutor", "verify.pool")
    for fn in ("to_text", "to_json"):
        t.wrap([VerificationReport], fn, "report.serialize")
    t.install_fork_guard()


# Per-layer metrics: metric -> (traced name, field of its summary).  Set-up
# layers are given per set-up, the others per timed operation.
SETUP_LAYERS = {
    "corpus.enumerate.s": ("corpus.enumerate", "s"),
    "kernel.is_canonical.calls": ("kernel.is_canonical", "calls"),
    "kernel.is_canonical.s": ("kernel.is_canonical", "s"),
    "kernel.cols_rank.calls": ("kernel.cols_rank", "calls"),
}
OP_LAYERS = {
    "kernel.find_minors.calls": ("kernel.find_minors", "calls"),
    "kernel.find_minors.s": ("kernel.find_minors", "s"),
    "kernel.rank_masked.calls": ("kernel.rank_masked", "calls"),
    "kernel.rank_masked.s": ("kernel.rank_masked", "s"),
    "matroid.constructions": ("matroid.constructions", "calls"),
    "matroid.delete.calls": ("matroid.delete", "calls"),
    "matroid.contract.calls": ("matroid.contract", "calls"),
    "matroid.is_binary_gammoid.calls": ("matroid.is_binary_gammoid", "calls"),
    "matroid.is_binary_gammoid.s": ("matroid.is_binary_gammoid", "s"),
    "matroid.has_minor.calls": ("matroid.has_minor", "calls"),
    "matroid.has_minor.s": ("matroid.has_minor", "s"),
    "matroid.has_minor_pinned.calls": ("matroid.has_minor_pinned", "calls"),
    "matroid.has_minor_pinned.s": ("matroid.has_minor_pinned", "s"),
    "matroid.k4_minor.calls": ("matroid.k4_minor", "calls"),
    "matroid.k4_minor.s": ("matroid.k4_minor", "s"),
    "matroid.is_isomorphic.calls": ("matroid.is_isomorphic", "calls"),
    "matroid.is_isomorphic.s": ("matroid.is_isomorphic", "s"),
    "matroid.minor_marked_images.calls": ("matroid.minor_marked_images", "calls"),
    "matroid.minor_marked_images.s": ("matroid.minor_marked_images", "s"),
    "ops.splitting.calls": ("ops.splitting", "calls"),
    "ops.element_splitting.calls": ("ops.element_splitting", "calls"),
    "ops.three_fold.calls": ("ops.three_fold", "calls"),
    "ops.three_fold.s": ("ops.three_fold", "s"),
    "ops.three_fold_ghafari.calls": ("ops.three_fold_ghafari", "calls"),
    "ops.admissible_pairs.s": ("ops.admissible_pairs", "s"),
    **{f"verify.{r}.s": (f"verify.{r}", "s") for r in (
        "catalog", "quotients", "gf-empty-k1", "gf-empty-k2", "gf-minors",
        "split-gammoid", "main", "esplit-identities")},
    "verify.pool.starts": ("verify.pool.starts", "calls"),
    "verify.pool.s": ("verify.pool", "s"),
    "report.serialize.s": ("report.serialize", "s"),
    "catalog.get.calls": ("catalog.get", "calls"),
}


def layer_metrics(tracer, n_setups: int, n_ops: int) -> dict:
    from tracing import SETUP, TIMED

    out = {}
    for phase, table, per in ((SETUP, SETUP_LAYERS, n_setups), (TIMED, OP_LAYERS, n_ops)):
        summary = tracer.summary(phase)
        what = "setup" if phase == SETUP else "op"
        for metric, (name, field) in table.items():
            value = summary.get(name, {}).get(field, 0)
            unit = ("count" if field == "calls" else "s") + "/" + what
            out[metric] = {"value": value / per, "unit": unit}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(BENCH))
    import speed
    import tracing

    with speed.SpeedProbe() as probe:
        return run(args, probe, tracing)


def run(args, probe, tracing) -> int:
    intervals = {}          # name -> [(start, stop, seconds less probe time)]

    def timed_call(name, fn, *call_args):
        start, spent = time.perf_counter(), probe.spent_s
        try:
            return fn(*call_args)
        finally:
            stop = time.perf_counter()
            intervals.setdefault(name, []).append(
                (start, stop, stop - start - (probe.spent_s - spent)))

    matroidsplit = timed_call("import", import_program)

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        install_tracer(tracer)
        tracer.phase = tracing.SETUP
        tracer.on = True

    for _ in range(wl.setup_repeats):
        timed_call("setup", wl.set_up, random.Random(args.seed))

    done = []
    attempted = failed = 0
    errors: list[str] = []
    timed = 0.0
    if tracer:
        tracer.on = False
        tracer.phase = tracing.TIMED
    for batch in wl.rounds():
        for op in batch:
            call_args = op.prepare()
            attempted += 1
            result = None
            if tracer:
                tracer.on = True
            try:
                result = timed_call("op", op.run, *call_args)
            except Exception:
                failed += 1
                errors.append(f"{op.kind} {op.key}: {traceback.format_exc(limit=3)}")
            if tracer:
                tracer.on = False
            done.append((op, result))
            timed += intervals["op"][-1][2]
        if timed >= args.seconds:
            break

    problems = wl.check(done)
    correct = not problems

    # Every timing at the machine's speed (measured) and scaled to the
    # reference speed of speed.py (end_to_end).
    scaled = {name: [s / probe.speed(a, b) for a, b, s in v] for name, v in intervals.items()}
    measured = {name: [s for _, _, s in v] for name, v in intervals.items()}
    tail_p = tail_percentile(len(done))
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    measured_e2e, end_to_end = (
        {"setup_s": {"value": t["import"][0] + statistics.median(t["setup"]), "unit": "s"},
         **timing_metrics(t["op"], tail_p, attempted - failed)}
        for t in (measured, scaled))
    end_to_end["peak_rss_mb"] = {"value": max(self_rss, child_rss), "unit": "MB"}
    by_label: dict[str, list[float]] = {}
    for (op, _), t in zip(done, scaled["op"]):
        by_label.setdefault(op.label or op.kind, []).append(t)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": matroidsplit.BACKEND,
        "package_version": matroidsplit.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "jobs": wl.jobs,
        "corpus": {"max_elements": wl.corpus.max_elements,
                   "max_rank": wl.corpus.max_rank,
                   "classes": len(wl.corpus),
                   "gammoids": sum(wl.corpus.gammoid_flags),
                   "sha256": hashlib.sha256(
                       workloads.corpus.to_file_text(wl.corpus).encode()).hexdigest()},
        "import_s": measured["import"][0],
        "setup_repeats_s": measured["setup"],
        "samples": len(done),
        "tail_percentile": tail_p,
        "timed_s": timed,
        "median_ms_by_kind": {k: {"n": len(v), "median_ms": 1e3 * statistics.median(v)}
                              for k, v in sorted(by_label.items())},
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "problems": problems[:20],
        "end_to_end": end_to_end,
        "measured_unscaled": {k: v["value"] for k, v in measured_e2e.items()},
        "probe": probe.record({
            "setup": (intervals["import"][0][0], intervals["setup"][-1][1]),
            "timed": (intervals["op"][0][0], intervals["op"][-1][1])}),
    }
    RUNS.mkdir(exist_ok=True)
    if tracer:
        metrics = layer_metrics(tracer, wl.setup_repeats, attempted)
        record["per_layer"] = metrics
        record["self_s_per_op"] = {k: v["self_s"] / attempted for k, v in
                                   tracer.summary(tracing.TIMED).items() if "self_s" in v}
        spans = RUNS / f"{args.workload}.spans"
        tracer.write(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
        record["spans"] = len(tracer.span_start)
        record["tracer_overhead_s_estimate"] = tracer.overhead_estimate()
        untraced = RUNS / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["end_to_end"]
            record["overhead_vs_untraced"] = {
                k: end_to_end[k]["value"] / base[k]["value"] - 1.0
                for k in ("setup_s", "p50_ms", "tail_ms", "ops_per_s")}
    else:
        metrics = end_to_end
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print("run " + json.dumps({k: record[k] for k in (
        "workload", "seed", "trace", "backend", "python", "nproc", "jobs",
        "corpus", "samples", "tail_percentile", "setup_repeats_s", "measured_unscaled",
        "probe", "problems")}))
    for e in errors[:3]:
        print("error " + e, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
