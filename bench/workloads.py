"""The benchmark's workloads: set-up, operations, and checks on the outputs.

Each workload is a closed loop with one client: ``rounds()`` yields lists
of operations, and the runner issues them one at a time.  An operation's
``prepare`` builds fresh program objects outside the timed region, so no
cached property of an earlier operation is reused; ``run`` is the timed
call.  ``check`` compares the outputs with the independent checker or with
properties the method must have, never with stored output of the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable

from matroidsplit import catalog, corpus, ops, verify
from matroidsplit.gf2 import Gf2Matrix
from matroidsplit.matroid import BinaryMatroid, Graph

import checker
import inputs

MAX_RANK = 4
FOLD_LABELS = ("p*", "q*", "r*")
ASSERTED = ("catalog", "quotients", "gf-minors", "split-gammoid", "main",
            "esplit-identities")
REPORTS = ("catalog", "quotients", "gf-empty-k1", "gf-empty-k2", "gf-minors",
           "split-gammoid", "main", "esplit-identities")
# Single-element extensions of F: 4 rank-preserving and 8 rank-3-lift
# columns, plus the class-set and Q_4-vs-Q_3 comparisons.
QUOTIENT_CASES = 4 + 8 + 2


@dataclass
class Op:
    kind: str
    key: tuple
    prepare: Callable[[], tuple]
    run: Callable[..., object]
    label: str = ""             # finer than kind, for per-label latency stats


def fresh(labels, rows, n_cols) -> BinaryMatroid:
    return BinaryMatroid(labels, Gf2Matrix(rows, n_cols))


def raw(m: BinaryMatroid):
    return m.labels, m.rep.rows, m.rep.n_cols


def cols_of(m_raw) -> tuple[int, ...]:
    _, rows, n = m_raw
    return checker.columns_of_rows(rows, n)


def own_fold(cols, i: int, j: int) -> list[int]:
    """The 3-fold on columns i, j: loops p, q, r, then the splittings on
    {i, j, p, r} and {i, q, r}."""
    n = len(cols)
    p, q, r = n, n + 1, n + 2
    ext = list(cols) + [0, 0, 0]
    return checker.split(checker.split(ext, {i, j, p, r}), {i, q, r})


class CorpusFacts:
    """What the checker derives from a corpus on its own."""

    def __init__(self, c):
        self.problems: list[str] = []
        self.cols = [cols_of(raw(m)) for m in c.members]
        self.gammoid = [checker.is_series_parallel(x) for x in self.cols]
        if self.gammoid != list(c.gammoid_flags):
            bad = sum(a != b for a, b in zip(self.gammoid, c.gammoid_flags))
            self.problems.append(f"{bad} gammoid flags differ from the "
                                 "series-parallel reduction")
        self.tables = [checker.rank_table(x) for x in self.cols]
        self._check_pairwise_non_isomorphic()

    def _check_pairwise_non_isomorphic(self) -> None:
        groups: dict[tuple, list[int]] = {}
        for k, (cols, table) in enumerate(zip(self.cols, self.tables)):
            groups.setdefault(checker.invariant(table, len(cols)), []).append(k)
        for members in groups.values():
            circ = {k: checker.circuits(self.tables[k], len(self.cols[k]))
                    for k in members}
            for a, b in combinations(members, 2):
                if checker.find_isomorphism(circ[a], circ[b], len(self.cols[a])) is not None:
                    self.problems.append(f"corpus members {a} and {b} are isomorphic")

    def admissible_pairs(self, k: int) -> list[tuple[int, int]]:
        """Column pairs properly inside a cocircuit (so one of size >= 3)."""
        n = len(self.cols[k])
        pairs = set()
        for cc in checker.cocircuits(self.tables[k], n):
            idx = [j for j in range(n) if (cc >> j) & 1]
            if len(idx) >= 3:
                pairs.update(combinations(idx, 2))
        return sorted(pairs)


# -- the verify sweeps ------------------------------------------------------------


def parse_compact(token: str):
    """'labels;rows' with 0/1 row strings, first column leftmost."""
    label_part, _, row_part = token.partition(";")
    labels = label_part.split(",") if label_part else []
    cols = [0] * len(labels)
    for i, bits in enumerate(r for r in row_part.split(",") if r):
        for j, b in enumerate(bits):
            if b == "1":
                cols[j] |= 1 << i
    return labels, cols


class VerifyWorkload:
    """One operation is one ``verify --check all`` pass over the corpus."""

    def __init__(self, max_elements: int, jobs: int, setup_repeats: int):
        self.max_elements = max_elements
        self.jobs = jobs
        self.setup_repeats = setup_repeats
        self.corpus = None

    def set_up(self, rng: random.Random) -> None:
        catalog.get("F")
        self.corpus = corpus.enumerate_binary_matroids(self.max_elements, MAX_RANK)

    def _fresh_corpus(self):
        c = self.corpus
        members = tuple(fresh(*raw(m)) for m in c.members)
        return (corpus.Corpus(c.max_elements, c.max_rank, members, c.gammoid_flags),)

    def _pass(self, c):
        reports = verify.run_checks(["all"], c, jobs=self.jobs)
        dumps = [(r.to_text(), r.to_json()) for r in reports]
        return reports, dumps

    def rounds(self):
        k = 0
        while True:
            yield [Op("verify-pass", (k,), self._fresh_corpus, self._pass)]
            k += 1

    def check(self, done) -> list[str]:
        facts = CorpusFacts(self.corpus)
        problems = list(facts.problems)
        gammoids = [k for k, g in enumerate(facts.gammoid) if g]
        n_of = [len(c) for c in facts.cols]
        pairs = {k: facts.admissible_pairs(k) for k in gammoids}
        fold_bad = sum(
            any(not checker.is_series_parallel(own_fold(facts.cols[k], i, j))
                for i, j in pairs[k])
            for k in gammoids)
        expected_cases = {
            "quotients": QUOTIENT_CASES,
            "gf-empty-k1": len(gammoids),
            "gf-empty-k2": len(gammoids),
            "gf-minors": len(gammoids),
            "split-gammoid": sum(n_of[k] >= 3 for k in gammoids),
            "main": len(gammoids) + 3,
            "esplit-identities": sum(comb(n, i) for n in n_of
                                     for i in range(1, min(3, n) + 1)),
        }
        n_pairs = sum(len(p) for p in pairs.values())
        confirmed: dict[tuple[str, str], bool] = {}
        first = None
        for op, result in done:
            if result is None:
                continue
            reports, dumps = result
            by_name = {r.name: r for r in reports}
            if tuple(r.name for r in reports) != REPORTS:
                problems.append(f"reports {[r.name for r in reports]}")
                continue
            for name in ASSERTED:
                if by_name[name].verdict != "pass":
                    problems.append(f"{name}: verdict {by_name[name].verdict}")
            for name, cases in expected_cases.items():
                if by_name[name].cases != cases:
                    problems.append(f"{name}: {by_name[name].cases} cases, "
                                    f"derived {cases}")
            obs = by_name["main"].observations
            if not (obs["ghafari_construction_identical"]
                    == obs["ghafari_construction_compared"] == n_pairs):
                problems.append("main: Ghafari comparison counts "
                                f"{obs['ghafari_construction_identical']}/"
                                f"{obs['ghafari_construction_compared']}, "
                                f"checker pairs {n_pairs}")
            if obs["members_where_some_fold_non_gammoid"] != fold_bad:
                problems.append("main: members_where_some_fold_non_gammoid "
                                f"{obs['members_where_some_fold_non_gammoid']}, "
                                f"checker {fold_bad}")
            # G_4 is U_{1,3}, and a pair properly inside a cocircuit already
            # gives a U_{1,3} minor, so no admissible member lacks G_4.
            if obs["direction_a_admissible_pairs"] != 0:
                problems.append("main: admissible pairs on members without G_4")
            for k in (1, 2):
                problems += self._check_gf_empty(by_name[f"gf-empty-k{k}"], confirmed)
            canon = []
            for _, text in dumps:
                d = json.loads(text)
                d.pop("wall_time")
                canon.append(d)
            if first is None:
                first = canon
            elif canon != first:
                problems.append(f"pass {op.key[0]} differs from the first pass")
        return problems

    @staticmethod
    def _check_gf_empty(report, confirmed) -> list[str]:
        """G_1 refutes the unpinned reading, so the report fails; every
        witness Y must give a splitting with an F-profile minor."""
        if report.verdict != "fail" or not report.failures:
            return [f"{report.name}: expected a failing report with witnesses"]
        problems = []
        for f in report.failures:
            key = (f.matroid, f.got)
            if key not in confirmed:
                labels, cols = parse_compact(f.matroid)
                if not (f.got.startswith("witness Y={") and f.got.endswith("}")):
                    confirmed[key] = False
                else:
                    y = f.got[len("witness Y={"):-1].split(",")
                    idx = {labels.index(lab) for lab in y if lab in labels}
                    confirmed[key] = (len(idx) == len(y) and
                                      checker.find_f_profile_minor(checker.split(cols, idx)))
            if not confirmed[key]:
                problems.append(f"{report.name}: unconfirmed witness {f.matroid} {f.got}")
        return problems


# -- point queries ------------------------------------------------------------------


# One series-parallel host of each (edges, rank) per round, with a
# thirteenth of each small pool: 628 queries, so 6.3 per round lie beyond
# p99.  On the pure kernel the hosts with 13 edges and rank 5-8 and the one
# with 12 edges and rank 6 scan longest (5 per round); p99 then falls inside
# the next three, (12, 5), (12, 7) and (13, 4), whose scans cost about the
# same, well inside the series-parallel population and not at its edge.
SP_ROUND = tuple((n_edges, rank) for n_edges in (12, 13) for rank in range(4, 9))
SP_ROUNDS_BUILT = 10
SMALL_POOL_SHARE = 13


class QueryWorkload:
    """One operation is one point query, issued in a seeded order."""

    jobs = 1

    def __init__(self, max_elements: int, setup_repeats: int):
        self.max_elements = max_elements
        self.setup_repeats = setup_repeats
        self.corpus = None

    def set_up(self, rng: random.Random) -> None:
        self.g4 = catalog.get("G_4").matroid
        self.corpus = corpus.enumerate_binary_matroids(self.max_elements, MAX_RANK)
        gammoids = self.corpus.gammoids()
        self.gammoids = [raw(m) for m in gammoids]
        pools = {"k4-fold": [], "g4-pinned": [], "split-gammoid": [], "iso": []}
        self.copies = []
        for k, m in enumerate(gammoids):
            for x, y in sorted(tuple(sorted(p)) for p in ops.admissible_pairs(m)):
                pools["k4-fold"].append((k, x, y))
                pools["g4-pinned"].append((k, x, y))
            for t in combinations(sorted(m.labels), 3):
                pools["split-gammoid"].append((k, t))
            self.copies.append(inputs.relabelled_copy(*raw(m), rng)[:2])
            pools["iso"].append((k,))
        self.order = {kind: inputs.seeded_order(p, rng) for kind, p in pools.items()}
        self.sp_hosts = []
        for _ in range(SP_ROUNDS_BUILT):
            batch = []
            for n_edges, rank in SP_ROUND:
                nv, edges = inputs.series_parallel_graph(rng, n_edges, rank)
                batch.append((nv, edges, raw(BinaryMatroid.from_graph(Graph(nv, edges)))))
            self.sp_hosts.append(batch)
        self.rng = rng

    # Each query kind: (prepare, run) over the query key.

    def _op(self, kind: str, key: tuple) -> Op:
        if kind == "k4-fold":
            k, x, y = key
            return Op(kind, key, lambda: (fresh(*self.gammoids[k]),),
                      lambda m: ops.three_fold(m, x, y, new_labels=FOLD_LABELS).k4_minor())
        if kind == "g4-pinned":
            k, x, y = key
            return Op(kind, key, lambda: (fresh(*self.gammoids[k]),),
                      lambda m: m.has_minor(self.g4, pins={"x": x, "y": y}))
        if kind == "split-gammoid":
            k, t = key
            return Op(kind, key, lambda: (fresh(*self.gammoids[k]),),
                      lambda m: ops.splitting(m, t).k4_minor())
        if kind == "iso":
            (k,) = key
            labels, rows = self.copies[k]
            return Op(kind, key,
                      lambda: (fresh(*self.gammoids[k]),
                               fresh(labels, rows, len(labels))),
                      lambda a, b: a.is_isomorphic(b))
        if kind == "sp-graph":
            r, i = key
            n_edges, rank = SP_ROUND[i]
            return Op(kind, key, lambda: (fresh(*self.sp_hosts[r][i][2]),),
                      lambda m: m.k4_minor(), f"sp-graph-{n_edges}e-r{rank}")
        raise ValueError(kind)

    def rounds(self):
        r = 0
        while True:
            batch = []
            for kind, order in self.order.items():
                size = -(-len(order) // SMALL_POOL_SHARE)
                batch += [self._op(kind, order[(r * size + i) % len(order)])
                          for i in range(size)]
            sp = r % SP_ROUNDS_BUILT
            batch += [self._op("sp-graph", (sp, i)) for i in range(len(SP_ROUND))]
            self.rng.shuffle(batch)
            yield batch
            r += 1

    def check(self, done) -> list[str]:
        problems: list[str] = []
        gcols = [cols_of(g) for g in self.gammoids]
        for k, cols in enumerate(gcols):
            if not checker.is_series_parallel(cols):
                problems.append(f"gammoid {k} fails the series-parallel reduction")
        verdicts: dict[tuple, str | None] = {}
        for op, result in done:
            if result is None:
                continue
            key = (op.kind, op.key, _witness_key(result))
            if key not in verdicts:
                verdicts[key] = self._check_query(op, result, gcols)
            if verdicts[key]:
                problems.append(f"{op.kind} {op.key}: {verdicts[key]}")
        return problems

    def _check_query(self, op: Op, w, gcols) -> str | None:
        """None when the output is confirmed, else what is wrong."""
        if op.kind in ("k4-fold", "split-gammoid", "sp-graph"):
            if op.kind == "k4-fold":
                k, x, y = op.key
                labels = list(self.gammoids[k][0]) + list(FOLD_LABELS)
                cols = own_fold(gcols[k], labels.index(x), labels.index(y))
            elif op.kind == "split-gammoid":
                k, t = op.key
                labels = list(self.gammoids[k][0])
                cols = checker.split(gcols[k], {labels.index(e) for e in t})
            else:
                r, i = op.key
                nv, edges, _ = self.sp_hosts[r][i]
                labels = [lab for _, _, lab in edges]
                cols = [(1 << (u - 1)) ^ (1 << (v - 1)) if u != v else 0
                        for u, v, _ in edges]
            gammoid = checker.is_series_parallel(cols)
            if op.kind == "sp-graph" and not gammoid:
                return "generated graph is not series-parallel"
            if gammoid != (w is None):
                return f"verdict {'gammoid' if w is None else 'K4 minor'}, " \
                       f"reduction says {'gammoid' if gammoid else 'not'}"
            if w is not None:
                prof = checker.minor_profile(labels, cols, w.deleted, w.contracted)
                if not checker.is_k4_profile(prof) or set(w.mapping.values()) != set(prof[0]):
                    return "K4 witness does not rebuild to M(K4)"
            return None
        if op.kind == "g4-pinned":
            k, x, y = op.key
            labels = list(self.gammoids[k][0])
            ix, iy = labels.index(x), labels.index(y)
            table = checker.rank_table(gcols[k])
            if not any((cc >> ix) & 1 and (cc >> iy) & 1 and bin(cc).count("1") >= 3
                       for cc in checker.cocircuits(table, len(labels))):
                return "pair lies in no cocircuit of size >= 3"
            if w is None:
                return "no pinned G_4 minor, though the pair lies in a large cocircuit"
            prof = checker.minor_profile(labels, gcols[k], w.deleted, w.contracted)
            if not checker.is_pinned_u13(prof, (x, y)):
                return "pinned witness does not rebuild to U_{1,3} at the pins"
            if w.mapping.get("x") != x or w.mapping.get("y") != y:
                return "pinned witness ignores the pins"
            return None
        if op.kind == "iso":
            (k,) = op.key
            if w is None:
                return "relabelled copy answered not isomorphic"
            labels, rows = self.copies[k]
            a_labels = self.gammoids[k][0]
            n = len(a_labels)
            circ_a = checker.circuits(checker.rank_table(gcols[k]), n)
            circ_b = checker.circuits(
                checker.rank_table(checker.columns_of_rows(rows, n)), n)
            if not checker.maps_circuits(w, a_labels, circ_a, labels, circ_b):
                return "mapping does not carry circuits onto circuits"
            return None
        return f"unknown query kind {op.kind}"


def _witness_key(w):
    if w is None:
        return None
    if isinstance(w, dict):
        return tuple(sorted(w.items()))
    return (tuple(sorted(w.deleted)), tuple(sorted(w.contracted)),
            tuple(sorted(w.mapping.items())))


WORKLOADS = {
    "verify-n8": lambda: VerifyWorkload(8, jobs=1, setup_repeats=1),
    "verify-n7-jobs2": lambda: VerifyWorkload(7, jobs=2, setup_repeats=2),
    "queries-n7": lambda: QueryWorkload(7, setup_repeats=2),
}
