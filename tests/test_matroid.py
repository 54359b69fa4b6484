"""Matroid structure queries, delete/contract/dual, isomorphism, minors."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from matroidsplit import _kernel, catalog, matroid, verify
from matroidsplit._kernel import pure
from matroidsplit.formats import parse_matroid
from matroidsplit.gf2 import Gf2Matrix
from matroidsplit.matroid import BinaryMatroid, Graph, MinorWitness, k4_matroid
from matroidsplit.ops import admissible_pairs, splitting, three_fold

from oracles import (
    brute_circuits,
    brute_cocircuits,
    brute_isomorphism,
    brute_isomorphisms,
    component_count,
    cycle_edge_sets,
    first_minor,
    marked_images,
    profile_minors,
    series_parallel_graph,
    standard_dual_rows,
    subsets,
)


def g4():
    return BinaryMatroid.from_matrix(("x", "y", "z"), Gf2Matrix.from_bits(["111"]))


def labels_of(sets):
    return {frozenset(s) for s in sets}


# -- construction -----------------------------------------------------------------


def test_from_matrix_wraps_without_normalizing():
    m = g4()
    assert m.labels == ("x", "y", "z")
    assert m.rep.rows == (0b111,)


def test_from_matrix_empty():
    m = BinaryMatroid.from_matrix((), Gf2Matrix((), 0))
    assert m.rank() == 0 and m.n_elements() == 0


def test_from_matrix_single_loop():
    m = BinaryMatroid.from_matrix(("e",), Gf2Matrix((0,), 1))
    assert m.loops() == {"e"}


def test_from_matrix_rejects_duplicates_and_mismatch():
    with pytest.raises(ValueError):
        BinaryMatroid.from_matrix(("a", "a"), Gf2Matrix((0,), 2))
    with pytest.raises(ValueError):
        BinaryMatroid.from_matrix(("a",), Gf2Matrix((0,), 2))
    with pytest.raises(ValueError):
        BinaryMatroid.from_matrix(("a b",), Gf2Matrix((0,), 1))


def _old_label_predicate(label) -> bool:
    return isinstance(label, str) and bool(label) and \
        not any(ch.isspace() for ch in label)


@settings(max_examples=500)
@given(st.one_of(st.text(), st.text(alphabet=st.characters(
    whitelist_categories=("Zs", "Zl", "Zp", "Cc", "Ll")), max_size=4)))
def test_check_label_accepts_what_the_isspace_scan_accepts(label):
    try:
        matroid._check_label(label)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == _old_label_predicate(label)


def test_from_graph_parallel_edges_match_all_ones_row():
    g = Graph(2, ((1, 2, "x"), (1, 2, "y"), (1, 2, "z")))
    m = BinaryMatroid.from_graph(g)
    assert m == BinaryMatroid(("x", "y", "z"),
                              Gf2Matrix((0b111, 0b111), 3))
    assert m.rank() == 1


def test_from_graph_loop_gives_zero_column():
    g = Graph(1, ((1, 1, "l"),))
    assert BinaryMatroid.from_graph(g).rep.column(0) == 0


def test_from_graph_triangle():
    g = Graph(3, ((1, 2, "a"), (2, 3, "b"), (1, 3, "c")))
    m = BinaryMatroid.from_graph(g)
    assert m.rank() == 2
    assert m.circuits() == {frozenset({"a", "b", "c"})}


def test_from_graph_rank_is_vertices_minus_components():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 6)
        edges = tuple((rng.randint(1, n), rng.randint(1, n), f"e{i}")
                      for i in range(rng.randint(0, 8)))
        g = Graph(n, edges)
        m = BinaryMatroid.from_graph(g)
        assert m.rank() == n - component_count(g)


def test_from_graph_circuits_are_cycle_edge_sets():
    for entry in catalog.list_entries():
        assert entry.matroid.circuits() == cycle_edge_sets(entry.graph)


# -- rank and subset rank -----------------------------------------------------------


def test_subset_rank_examples():
    m = g4()
    assert m.subset_rank({"x"}) == 1
    assert m.subset_rank({"x", "y", "z"}) == 1
    assert m.subset_rank(()) == 0


def test_subset_rank_unknown_label():
    # A label of another type, hashable or not, is unknown too.
    for subset in ({"w"}, ("x", 1), [["x"]]):
        with pytest.raises(ValueError, match="unknown element label"):
            g4().subset_rank(subset)


def test_subset_rank_monotone_and_submodular_on_catalog():
    for entry in catalog.list_entries():
        m = entry.matroid
        ground = list(m.labels)
        rank_of = {s: m.subset_rank(s) for s in subsets(ground)}
        for s in subsets(ground):
            sset = set(s)
            for t in subsets(ground):
                tset = set(t)
                rs, rt = rank_of[s], rank_of[t]
                ru = m.subset_rank(sset | tset)
                ri = m.subset_rank(sset & tset)
                if sset <= tset:
                    assert rs <= rt
                assert ru + ri <= rs + rt


# -- circuits / cocircuits / loops / parallels ---------------------------------------


def test_circuits_of_three_parallel_elements():
    assert g4().circuits() == labels_of([("x", "y"), ("x", "z"), ("y", "z")])


def test_cocircuits_of_three_parallel_elements():
    assert g4().cocircuits() == labels_of([("x", "y", "z")])


def test_k4_has_four_triangles_and_three_quads():
    sizes = sorted(len(c) for c in k4_matroid().circuits())
    assert sizes == [3, 3, 3, 3, 4, 4, 4]


def test_circuits_match_brute_force_on_catalog():
    for entry in catalog.list_entries():
        assert entry.matroid.circuits() == brute_circuits(entry.matroid)
        assert entry.matroid.cocircuits() == brute_cocircuits(entry.matroid)


def test_loops_and_parallel_classes_on_quotient_shapes():
    q2 = catalog.get("Q_2").matroid
    assert len(q2.loops()) == 1
    assert sorted(len(c) for c in q2.parallel_classes()) == [4]
    q3 = catalog.get("Q_3").matroid
    assert len(q3.loops()) == 2
    assert sorted(len(c) for c in q3.parallel_classes()) == [3]


def test_identity_matroid_is_all_coloops():
    m = BinaryMatroid.from_matrix(("a", "b", "c"),
                                  Gf2Matrix.from_bits(["100", "010", "001"]))
    assert m.coloops() == {"a", "b", "c"}
    assert m.loops() == frozenset()


def test_loops_sit_in_singleton_circuits():
    m = BinaryMatroid.from_matrix(("a", "b"), Gf2Matrix.from_bits(["10"]))
    assert frozenset({"b"}) in m.circuits()
    assert m.coloops() == {"a"}


def free_matroid(n: int) -> BinaryMatroid:
    """``n`` coloops: the identity matrix, rank ``n`` and nullity 0."""
    return BinaryMatroid(tuple(f"e{j}" for j in range(n)),
                         Gf2Matrix(tuple(1 << j for j in range(n)), n))


def test_coloops_answer_past_the_support_limit():
    # Coloops are read off the rref, so they answer on 21 coloops, whose
    # cocircuits the span limit refuses, and at 30, where deleting each
    # element is the oracle: an element is a coloop iff deleting it lowers
    # the rank.
    free = free_matroid(21)
    assert free.coloops() == set(free.labels)
    assert free.circuits() == frozenset()
    # Over 16 rows: 3 loops, 7 coloops (rows 0-5 and 15), parallel
    # classes, a triangle through a parallel class and a 4-circuit.
    cols = ([0] * 3 + [1 << i for i in range(6)] + [1 << 15] + [1 << 6] * 2
            + [1 << 7 | 1 << 8] * 3 + [1 << 7, 1 << 8]
            + [1 << 9, 1 << 10, 1 << 11, 7 << 9] + [1 << 12] * 3
            + [1 << 13] * 2 + [1 << 14] * 2 + [1 << 12 | 1 << 13] * 2)
    assert len(cols) == 30
    m = BinaryMatroid(tuple(f"e{j}" for j in range(30)),
                      Gf2Matrix(_kernel.columns(tuple(cols), 16), 30))
    want = {lab for lab in m.labels if m.delete({lab}).rank() < m.rank()}
    assert want == {f"e{j}" for j in range(3, 10)}
    assert m.coloops() == want
    assert len(m.loops()) == 3


def test_span_limit_counts_basis_vectors():
    # Circuits span the null space and cocircuits the row space, so the
    # kernel's limit of 20 basis vectors bounds nullity and rank, not width.
    free = free_matroid(21)
    relabelled = BinaryMatroid(tuple(f"f{j}" for j in range(21)), free.rep)
    phi = free.is_isomorphic(relabelled)
    assert phi is not None and sorted(phi.values()) == sorted(relabelled.labels)
    with_loop = BinaryMatroid(free.labels, Gf2Matrix(free.rep.rows[:20], 21))
    assert free.is_isomorphic(with_loop) is None
    with pytest.raises(ValueError, match="span enumeration limited to 20 basis vectors"):
        free.cocircuits()
    parallel = BinaryMatroid(tuple(f"e{j}" for j in range(22)),
                             Gf2Matrix(((1 << 22) - 1,), 22))
    assert len(parallel.cocircuits()) == 1
    with pytest.raises(ValueError, match="span enumeration limited to 20 basis vectors"):
        parallel.circuits()


def test_coloops_are_the_elements_no_circuit_covers(corpus8):
    for m in corpus8.members:
        covered = set().union(*m.circuits())
        assert m.coloops() == set(m.labels) - covered, m


# -- delete / contract / dual ----------------------------------------------------------


def test_delete_removes_columns():
    m = g4().delete({"z"})
    assert m.labels == ("x", "y")
    assert m.parallel_classes() == (frozenset({"x", "y"}),)


def test_contract_single_element_of_parallel_class():
    m = g4().contract({"x"})
    assert m.labels == ("y", "z")
    assert m.loops() == {"y", "z"}


def test_contract_empty_set_is_identity():
    assert g4().contract(()).same_matrix(g4())


def test_contract_rank_law():
    for entry in catalog.list_entries():
        m = entry.matroid
        for s in subsets(m.labels):
            assert m.contract(s).rank() == m.rank() - m.subset_rank(s)


def test_contract_dependent_set_allowed():
    m = g4().contract({"x", "y"})
    assert m.labels == ("z",)
    assert m.loops() == {"z"}


def test_dual_rows_are_the_standard_form(corpus8):
    # dual() returns the kernel's null-space basis; it must be [P^T | I]
    # built from the rref, bit for bit and in order.
    for m in corpus8.members:
        assert m.dual().rep.rows == standard_dual_rows(m), m
        assert m.dual().labels == m.labels


def test_dual_is_involution():
    m = g4()
    assert m.dual().dual() == m


def test_dual_of_three_parallel_elements():
    d = g4().dual()
    assert d.rank() == 2
    assert d.circuits() == {frozenset({"x", "y", "z"})}


def test_dual_circuits_are_cocircuits():
    k4 = k4_matroid()
    assert k4.dual().circuits() == k4.cocircuits()
    for entry in catalog.list_entries():
        assert entry.matroid.dual().circuits() == entry.matroid.cocircuits()


def test_duality_exchange_on_catalog():
    for entry in catalog.list_entries():
        m = entry.matroid
        for s in subsets(m.labels):
            assert m.delete(s).dual() == m.dual().contract(s)


def test_circuit_cocircuit_intersections_even():
    for entry in catalog.list_entries():
        for c in entry.matroid.circuits():
            for cc in entry.matroid.cocircuits():
                assert len(c & cc) % 2 == 0


# -- isomorphism -------------------------------------------------------------------------


def test_isomorphic_quotient_shapes():
    q3 = catalog.get("Q_3").matroid
    q4 = catalog.get("Q_4").matroid
    phi = q3.is_isomorphic(q4)
    assert phi is not None
    assert {frozenset(phi[x] for x in c) for c in q3.circuits()} == q4.circuits()


def test_not_isomorphic_different_sizes():
    assert g4().is_isomorphic(k4_matroid()) is None


def test_isomorphic_under_column_shuffle():
    rng = random.Random(11)
    for entry in catalog.list_entries():
        m = entry.matroid
        order = list(range(m.n_elements()))
        rng.shuffle(order)
        cols = [m.rep.column(j) for j in order]
        rows = tuple(sum(((cols[j] >> i) & 1) << j for j in range(len(cols)))
                     for i in range(m.rep.n_rows))
        shuffled = BinaryMatroid(tuple(m.labels[j] for j in order),
                                 Gf2Matrix(rows, m.n_elements()))
        phi = m.is_isomorphic(shuffled)
        assert phi is not None


def test_isomorphism_invariant_under_row_operations():
    m = catalog.get("F").matroid
    rows = list(m.rep.rows)
    rows[0] ^= rows[1]
    altered = BinaryMatroid(m.labels, Gf2Matrix(tuple(rows), m.rep.n_cols))
    assert altered == m
    assert m.is_isomorphic(altered) is not None


def test_isomorphism_reflexive_symmetric_on_catalog():
    entries = catalog.list_entries()
    for e in entries:
        assert e.matroid.is_isomorphic(e.matroid) is not None
    for a in entries:
        for b in entries:
            forward = a.matroid.is_isomorphic(b.matroid)
            backward = b.matroid.is_isomorphic(a.matroid)
            assert (forward is None) == (backward is None)


def test_isomorphism_agrees_with_permutation_oracle():
    entries = [e.matroid for e in catalog.list_entries()
               if e.matroid.n_elements() <= 6]
    for a in entries:
        for b in entries:
            assert (a.is_isomorphic(b) is None) == (brute_isomorphism(a, b) is None)


def test_isomorphisms_are_exactly_the_permutation_oracles_maps():
    # _isomorphisms checks only that each circuit of a lands on one of b;
    # every bijection of the oracle must come out of it, once.  No two
    # non-isomorphic binary matroids on <= 9 elements of rank <= 4 share
    # the invariants the search prunes on (rank, circuit count and sizes,
    # each element's circuit sizes), so pins make such pairs: pins between
    # elements with equal circuit sizes that no isomorphism keeps, as two
    # disjoint edges of K4 pinned to two adjacent ones.
    def random_matroid(prefix, n):
        rows = tuple(rng.getrandbits(n) for _ in range(rng.randint(0, 4)))
        return BinaryMatroid([f"{prefix}{i}" for i in range(n)], Gf2Matrix(rows, n))

    def shuffled(m):
        order = rng.sample(range(m.n_elements()), m.n_elements())
        rows = [sum((row >> j & 1) << i for i, j in enumerate(order)) for row in m.rep.rows]
        if len(rows) > 1:
            rows[0] ^= rows[1]
        return BinaryMatroid([f"b{i}" for i in order], Gf2Matrix(tuple(rows), len(order)))

    def sizes_at(m):
        circuits = brute_circuits(m)
        return {e: sorted(len(c) for c in circuits if e in c) for e in m.labels}

    def listed(maps):
        return sorted(tuple(sorted(phi.items())) for phi in maps)

    rng = random.Random(30)
    seen = {"isomorphic": 0, "pinned_away": 0, "not_isomorphic": 0}
    for a in [k4_matroid()] + [random_matroid("a", rng.randint(1, 6)) for _ in range(40)]:
        n = a.n_elements()
        for b in (shuffled(a), random_matroid("c", n)):
            at_a, at_b = sizes_at(a), sizes_at(b)
            pins = [None]
            for count in (1, 2, 3):
                xs = rng.sample(a.labels, min(count, n))
                ys = [rng.choice([y for y in b.labels if at_b[y] == at_a[x]] or [None])
                      for x in xs]
                if None not in ys and len(set(ys)) == len(ys):
                    pins.append(dict(zip(xs, ys)))
            free = listed(brute_isomorphisms(a, b))
            for pin in pins:
                want = listed(brute_isomorphisms(a, b, pin))
                assert listed(matroid._isomorphisms(a, b, pin)) == want, (a, b, pin)
                if pin is None:
                    seen["isomorphic" if want else "not_isomorphic"] += 1
                else:
                    seen["pinned_away"] += bool(free) and not want
    assert all(seen.values()), seen


# -- minors ---------------------------------------------------------------------------------


def test_identity_minor_witness():
    k4 = k4_matroid()
    w = k4.has_minor(k4)
    assert w is not None
    assert w.deleted == frozenset() and w.contracted == frozenset()
    assert w.verify(k4, k4)


def test_minor_absent_when_pattern_larger():
    assert g4().has_minor(k4_matroid()) is None


def test_three_fold_of_parallel_triple_has_k4_minor():
    folded = three_fold(g4(), "x", "y")
    w = folded.has_minor(k4_matroid())
    assert w is not None
    assert w.verify(folded, k4_matroid())


def test_minor_witnesses_self_verify_across_catalog():
    f = catalog.get("F").matroid
    for entry in catalog.list_entries():
        w = entry.matroid.has_minor(f)
        if w is not None:
            assert w.verify(entry.matroid, f)


def test_minor_with_pins():
    folded = three_fold(g4(), "x", "y")
    k4 = k4_matroid()
    free = folded.has_minor(k4)
    pat_label = next(iter(free.mapping))
    host_label = free.mapping[pat_label]
    pinned = folded.has_minor(k4, pins={pat_label: host_label})
    assert pinned is not None
    assert pinned.mapping[pat_label] == host_label
    assert pinned.verify(folded, k4)


def test_minor_pins_unknown_labels_error():
    with pytest.raises(ValueError, match="unknown"):
        k4_matroid().has_minor(k4_matroid(), pins={"nope": "e12"})
    with pytest.raises(ValueError, match="unknown"):
        k4_matroid().has_minor(k4_matroid(), pins={"e12": "nope"})
    with pytest.raises(ValueError, match="unknown"):
        k4_matroid().has_minor(k4_matroid(), keep={"nope"})


def test_minor_pins_repeating_a_host_label_error():
    # Two pattern labels cannot share one host label; this once read absent.
    with pytest.raises(ValueError, match="repeat the element label 'e12'"):
        k4_matroid().has_minor(g4(), pins={"x": "e12", "y": "e12"})


def test_unpinned_rank_2_search_decides_before_it_scans(monkeypatch):
    # An unpinned search for a pattern of rank <= 2 asks profile_present
    # once and scans only when it says yes.  Pins and keep avoid columns,
    # so those searches skip the decision and scan.
    calls = []

    def spy(name):
        real = getattr(_kernel, name)

        def called(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(_kernel, name, called)

    spy("profile_present")
    spy("find_minors")
    f = catalog.get("F").matroid
    # Two points, one of them five parallel copies: no F minor.
    two_points = BinaryMatroid.from_matrix(
        tuple("abcdef"), Gf2Matrix.from_bits(["100000", "011111"]))
    for host, search, expected, scans in (
            (two_points, {}, None, ["profile_present"]),
            (two_points, {"keep": {"a"}}, None, ["find_minors"]),
            (two_points, {"pins": {"bottom": "b"}}, None, ["find_minors"]),
            (k4_matroid(), {}, first_minor(k4_matroid(), f, None),
             ["profile_present", "find_minors"])):
        del calls[:]
        w = host.has_minor(f, **search)
        assert _deleted_contracted(w) == expected, search
        assert calls == scans, search


def test_minor_witness_invariants():
    with pytest.raises(ValueError):
        MinorWitness(deleted=frozenset({"a"}), contracted=frozenset({"a"}),
                     mapping={})
    with pytest.raises(ValueError):
        MinorWitness(deleted=frozenset({"a"}), contracted=frozenset(),
                     mapping={"p": "a"})


def test_minor_search_matches_brute_force(corpus6):
    # Every matcher kind, unpinned and pinned, must find the first candidate
    # that the brute force finds, with a mapping that verifies and keeps the
    # pins; marked images of patterns above rank 2 come from the same scan.
    rng = random.Random(10)
    hosts = list(corpus6.members) + [splitting(m, m.labels[:3])
                                     for m in corpus6.members if len(m.labels) >= 3]
    canonical = [m for m in corpus6.members
                 if (m.rank(), len(m.labels)) in ((3, 5), (4, 5), (3, 4))]
    patterns = [catalog.get("F").matroid, catalog.get("G_4").matroid, k4_matroid()]
    patterns += rng.sample(canonical, 4)
    found = {"plain": 0, "pinned": 0, "images": 0}
    for host in hosts:
        for pattern in patterns:
            pin_sets = [None]
            if len(host.labels) >= 2:
                pin_sets.append(dict(zip(rng.sample(pattern.labels, 2),
                                         rng.sample(host.labels, 2))))
            w = host.has_minor(pattern)
            if w is not None:
                pin_sets.append({p: w.mapping[p] for p in rng.sample(pattern.labels, 2)})
            for pins in pin_sets:
                w = host.has_minor(pattern, pins=pins)
                expected = first_minor(host, pattern, pins)
                assert _deleted_contracted(w) == expected, (host, pattern, pins)
                if w is not None:
                    assert w.verify(host, pattern)
                    assert all(w.mapping[p] == h for p, h in (pins or {}).items())
                    found["pinned" if pins else "plain"] += 1
            if pattern.rank() > 2:
                marks = pattern.labels[:2]
                images = host.minor_marked_images(pattern, marks)
                assert images == marked_images(host, pattern, marks), (host, pattern)
                found["images"] += bool(images)
    assert all(found.values()), found


def test_rank_seven_pattern_finds_the_brute_force_minor():
    # Patterns above rank 6 take pure.find_minors on both backends
    # (_fast_pattern_kind), matched by the pure canonical walk: a 4-circuit
    # and four coloops, against hosts of rank 7 and 8 on 9 and 10 elements
    # and random ones of rank 7 or less on 9.
    def named(prefix, cols, r):
        return BinaryMatroid([f"{prefix}{i}" for i in range(len(cols))],
                             Gf2Matrix(pure.columns(cols, r), len(cols)))

    pattern = named("p", (1, 2, 4, 8, 16, 32, 64, 7), 7)
    assert matroid._fast_pattern_kind(pattern)[0] is pure
    rng = random.Random(77)
    hosts = [named("h", (1, 2, 4, 8, 16, 32, 64, 7, 99), 7),
             named("h", (1, 2, 4, 8, 16, 32, 64, 128, 7, 129), 8)]
    hosts += [named("h", tuple(rng.randrange(1, 1 << 7) for _ in range(9)), 7)
              for _ in range(6)]
    found = 0
    for host in hosts:
        w = host.has_minor(pattern)
        assert _deleted_contracted(w) == first_minor(host, pattern), host
        if w is not None:
            assert w.verify(host, pattern)
            found += 1
    assert 2 <= found < len(hosts), found


def _deleted_contracted(w):
    return None if w is None else (w.deleted, w.contracted)


# Every catalog profile (K4's has rank 3), all-loop and two-point wants, and
# wants no minor has: unsorted or zero class sizes, two classes at rank 1.
PROFILE_WANTS = sorted({pure.profile(e.matroid.rep.rows, e.matroid.rep.n_cols)
                        for e in catalog.list_entries()}) + [
    (0, 0, ()), (0, 2, ()), (0, 3, ()), (2, 0, (1, 1)), (2, 1, (1, 1, 1)),
    (2, 1, (3, 1)), (2, 0, (0, 2, 2)), (1, 0, (1, 2)), (1, 0, (0,)),
    (2, -1, (1, 2)), (3, 0, (1, 1, 1)),
]


def _assert_profile_minors_match_oracle(rows, n_cols, rng):
    full = pure.rank_masked(rows, (1 << n_cols) - 1)
    present = []
    for want in PROFILE_WANTS:
        rho, loops, sizes = want
        c0 = full - rho
        # c_size = rank - rho is the case profile_present decides; every
        # size scans, and a limit only cuts the scan short.
        for c_size, limits in ((c0, (0, 1, 2)), (c0 - 1, (0,)), (c0 + 1, (0,))):
            d_size = n_cols - loops - sum(sizes) - c_size
            expected = profile_minors(rows, n_cols, c_size, d_size, want)
            if c_size == c0 and rho <= 2:
                present.append(bool(expected))
                assert pure.profile_present(rows, n_cols, (want,)) == \
                    (bool(expected),), (rows, n_cols, want)
            avoid = 1 << rng.randrange(n_cols) if n_cols else 0
            avoided = [p for p in expected if not (p[0] | p[1]) & avoid]
            for limit in limits:
                for mask, hits in ((0, expected), (avoid, avoided)):
                    got = pure.find_minors(rows, n_cols, c_size, d_size,
                                           pure.KIND_PROFILE, want,
                                           limit=limit, avoid=mask)
                    assert got == (hits[:limit] if limit else hits), \
                        (rows, n_cols, c_size, d_size, want, limit, mask)
    # One call decides every want; a want above rank 2 is refused.
    wants = [w for w in PROFILE_WANTS if w[0] <= 2]
    assert pure.profile_present(rows, n_cols, wants) == tuple(present)
    with pytest.raises(ValueError):
        pure.profile_present(rows, n_cols, wants + [(3, 0, (1, 1, 1))])


def test_profile_minors_match_brute_force_on_corpus(corpus6):
    rng = random.Random(6)
    for m in corpus6.members:
        hosts = [m] + [splitting(m, m.labels[:k]) for k in (1, 3) if k <= len(m.labels)]
        for h in hosts:
            _assert_profile_minors_match_oracle(h.rep.rows, h.rep.n_cols, rng)


def test_profile_minors_match_brute_force_on_random_matrices():
    rng = random.Random(2026)
    # Few of the widest: a 10-column host costs the oracle seconds.
    for n_cols in [n for n in range(11) for _ in range(4 if n < 9 else 1)]:
        # Bits above n_cols are not columns and must be ignored.
        rows = tuple(rng.getrandbits(n_cols + 2) for _ in range(rng.randint(0, 5)))
        _assert_profile_minors_match_oracle(rows, n_cols, rng)


F_WANT = (2, 0, (1, 2, 2))


def _walk_sizes(monkeypatch):
    """The sizes of the sets that pure ``_contractions`` chooses, call by
    call: r - 2 on M, n - r - 3 on M*."""
    sizes = []
    contractions = pure._contractions

    def spy(cols, size):
        sizes.append(size)
        return contractions(cols, size)

    monkeypatch.setattr(pure, "_contractions", spy)
    return sizes


def _standard_rows(rng, n_cols, r):
    """Random rows [I | A] of rank r, columns shuffled, with no loop (a
    zero column of A) and no coloop (a zero row of A), and bits above
    ``n_cols``."""
    while True:
        a = [rng.getrandbits(n_cols - r) for _ in range(r)]
        if all(a) and all(any(row >> t & 1 for row in a) for t in range(n_cols - r)):
            break
    order = rng.sample(range(n_cols), n_cols)
    cols = [1 << i for i in range(r)] + [
        sum((row >> t & 1) << i for i, row in enumerate(a)) for t in range(n_cols - r)]
    rows = pure.columns([cols[j] for j in order], r)
    return tuple(row | rng.getrandbits(2) << n_cols for row in rows)


@pytest.mark.parametrize("n_cols,r,side", [
    (8, 5, "dual"),     # D of n - r - 3 = 0 points against C of 3
    (9, 5, "dual"),     # D of 1 of at most 9 points against C of 3 of 5 or more
    (10, 6, "dual"),    # D of 1 of at most 10 points against C of 4 of 6 or more
    (8, 3, "primal"),   # D of 2 points against C of 1
    (7, 2, "primal"),   # D of 2 points against C of 0
    (6, 4, "none"),     # corank 2: no F minor, and no walk at all
])
def test_f_profile_on_either_side_matches_brute_force(monkeypatch, n_cols, r, side):
    # Pure profile_present decides F's profile on the dual M* when that
    # walk is cheaper.  Random standard forms of rank r with no loops or
    # coloops, against the brute-force oracle: each row of the table must
    # see both answers where F fits, and walk on the side it names.
    sizes = _walk_sizes(monkeypatch)
    rng = random.Random(n_cols * 10 + r)
    answers = set()
    for _ in range(40):
        rows = _standard_rows(rng, n_cols, r)
        got = pure.profile_present(rows, n_cols, (F_WANT,))[0]
        assert got == bool(profile_minors(rows, n_cols, r - 2, n_cols - r - 3, F_WANT)), rows
        answers.add(got)
    walked = {"dual": n_cols - r - 3, "primal": r - 2}
    assert set(sizes) == ({walked[side]} if side in walked else set())
    assert answers == ({False} if side == "none" else {False, True})


def test_f_profile_drops_loops_and_coloops_and_takes_the_cheaper_walk(monkeypatch):
    sizes = _walk_sizes(monkeypatch)

    def matroid(classes, coloops=0, loops=0):
        """Rows of parallel classes of the given sizes, then coloops and
        loops, and the column count."""
        cols = [1 << i for i, size in enumerate(classes) for _ in range(size)]
        cols += [1 << i for i in range(len(classes), len(classes) + coloops)] + [0] * loops
        return pure.columns(cols, len(classes) + coloops), len(cols)

    # 32 parallel pairs: D would take 29 of 32 points of M*, C takes 30
    # of 32: fewer points chosen, but C(32, 29) > C(32, 30) sets.
    assert pure.profile_present(*matroid([2] * 32), (F_WANT,)) == (False,)
    assert sizes == [30]
    # 15 triples, a pair and 17 coloops, 64 columns: rank 33, corank 31.
    # With the coloops kept, M* would take D of 28 among 46 points (a
    # triple's dual is a triangle); without them C takes 14 of 16.
    sizes.clear()
    assert pure.profile_present(*matroid([3] * 15 + [2], coloops=17), (F_WANT,)) == (False,)
    assert sizes == [14]
    # F, with its coloops and loops dropped, is read on M: C is empty.
    f_rows = pure.columns([1, 2, 2, 3, 3], 2)
    for coloops, loops in ((0, 0), (3, 0), (0, 4), (59, 0), (20, 30)):
        rows = f_rows + tuple(1 << (5 + i) for i in range(coloops))
        sizes.clear()
        assert pure.profile_present(rows, 5 + coloops + loops, (F_WANT,)) == (True,)
        assert sizes == [0]
    # [I | A] of rank 5 on 8 columns is read on M*, where D is empty; with
    # 4 loops kept, D would take 4 points against C of 3.
    rows = tuple(1 << i | a << 5 for i, a in enumerate((1, 2, 3, 4, 5)))
    for loops in (0, 4):
        sizes.clear()
        assert pure.profile_present(rows, 8 + loops, (F_WANT,)) == (True,)
        assert sizes == [0]


def _coset_keys(rows, n_cols):
    """Every nonzero vector with no pivot bit of the rref of ``rows``, bits
    at or above ``n_cols`` dropped: the coset keys of the splittings."""
    kept = [row & ((1 << n_cols) - 1) for row in rows]
    pivots = sum(row & -row for row in pure.rref(kept))
    free = [1 << j for j in range(n_cols) if not pivots >> j & 1]
    return [sum(bit for i, bit in enumerate(free) if pick >> i & 1)
            for pick in range(1, 1 << len(free))]


def _assert_splitting_counts_match_oracle(rows, n_cols, present=None):
    """``splitting_counts`` against each nonzero coset key's splitting: an F
    minor (``present``, per key) iff the key counts at least 5, an M(K4)
    minor (no series-parallel reduction) iff at least 6.  Returns each
    key's count, 0 for a key left out."""
    present = present or _kernel.profile_present
    counts = _kernel.splitting_counts(rows, n_cols)
    keys = _coset_keys(rows, n_cols)
    assert set(counts) <= set(keys)
    for key in keys:
        split = tuple(rows) + (key,)
        has_f = present(split, n_cols, (F_WANT,))[0]
        gammoid = matroid.series_parallel_reduces(
            _kernel.rref([row & ((1 << n_cols) - 1) for row in split]), n_cols)
        got = counts.get(key, 0)
        assert (got >= 5, got >= 6) == (has_f, not gammoid), (rows, n_cols, key, got)
    return [counts.get(key, 0) for key in keys]


def test_splitting_counts_match_each_splitting_on_corpus(corpus7):
    # Every nonzero coset of every member, gammoid or not.  Both thresholds
    # occur: splittings with an F minor that stay gammoids (count 5), and
    # splittings with an M(K4) minor.
    seen = [count for m in corpus7.members
            for count in _assert_splitting_counts_match_oracle(m.rep.rows, m.rep.n_cols)]
    assert len(seen) == 2594
    assert 5 in seen and max(seen) >= 6


def test_splitting_counts_match_each_splitting_on_random_hosts():
    # Random rows, then coloops (a new row each), loops (zero columns) and
    # bits above the column count, which every side must ignore.
    rng = random.Random(3232)
    seen = []
    for _ in range(80):
        n, coloops, loops = rng.randint(0, 8), rng.randint(0, 2), rng.randint(0, 2)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(0, 5))]
        rows += [1 << (n + i) for i in range(coloops)]
        n_cols = n + coloops + loops
        rows = tuple(row | rng.getrandbits(2) << n_cols for row in rows)
        seen += _assert_splitting_counts_match_oracle(rows, n_cols)
    assert 5 in seen and max(seen) >= 6


def test_splitting_counts_on_edge_shapes():
    # No rows: every column a loop, every splitting of rank 1.
    assert _kernel.splitting_counts((), 6) == {}
    assert _assert_splitting_counts_match_oracle((), 6) == [0] * 63
    # All coloops: corank 0, so there is no nonzero key and no walk.
    assert _kernel.splitting_counts(tuple(1 << j for j in range(7)), 7) == {}
    assert _coset_keys(tuple(1 << j for j in range(7)), 7) == []
    # 64 columns: 56 coloops beside a random rank-3 core on 8 columns, and a
    # bit at 64.  Pure profile_present drops the coloops before its walk.
    rng = random.Random(64)
    core = pure.columns([rng.randrange(1, 8) for _ in range(8)], 3)
    rows = core + tuple(1 << (8 + i) for i in range(56))
    rows = (rows[0] | 1 << 64,) + rows[1:]
    assert len(_assert_splitting_counts_match_oracle(rows, 64, pure.profile_present)) == \
        2 ** (8 - pure.rank(core)) - 1


def _label_masks(m, k):
    """(Y, mask of Y) for every k-subset Y of ``m``, in label order."""
    return [(frozenset(y), sum(1 << m.labels.index(lab) for lab in y))
            for y in combinations(sorted(m.labels), k)]


# F's profile, then wants of rank 0, 1 and 2, with and without loops, that
# stand in for it, so that first hits fall on many Ys.
SPLIT_WANTS = [(2, 0, (1, 2, 2)), (0, 0, ()), (0, 2, ()), (1, 0, (1,)), (1, 1, (2,)),
               (1, 2, (1,)), (2, 0, (1, 1)), (2, 1, (1, 2)), (2, 0, (1, 1, 1)),
               (2, 1, (2, 2))]


def _assert_splitting_minor_set_matches_oracle(m, monkeypatch):
    # The first Y whose splitting rows + (mask,) has a minor with the
    # wanted profile, found by the brute-force oracle on each Y in turn.
    rows, n_cols = m.rep.rows, m.rep.n_cols
    for want in SPLIT_WANTS:
        rho, loops, sizes = want
        with monkeypatch.context() as mp:
            mp.setattr(verify, "_profile_want", lambda name: want)
            for k in range(1, min(3, n_cols) + 1):
                first = None
                for y, mask in _label_masks(m, k):
                    split = rows + (mask,)
                    c_size = pure.rank(split) - rho
                    d_size = n_cols - loops - sum(sizes) - c_size
                    if profile_minors(split, n_cols, c_size, d_size, want):
                        first = y
                        break
                assert verify.splitting_minor_set(m, k) == first, (m, k, want)


def test_splitting_minor_set_matches_brute_force_on_corpus(corpus6, monkeypatch):
    # Members and their splittings, so that hosts hold loops and coloops.
    assert verify._profile_want("F") == SPLIT_WANTS[0]
    for m in corpus6.restrict(5).members:
        for h in (m, splitting(m, m.labels[:2])):
            _assert_splitting_minor_set_matches_oracle(h, monkeypatch)


def test_splitting_minor_set_matches_brute_force_on_random_matrices(monkeypatch):
    # Labels in shuffled order, so label order and column order differ.
    rng = random.Random(1997)
    for n_cols in [n for n in range(9) for _ in range(6 if n < 7 else 2)]:
        rows = tuple(rng.getrandbits(n_cols + 2) & ((1 << n_cols) - 1)
                     for _ in range(rng.randint(0, 4)))
        labels = rng.sample("abcdefghij", n_cols)
        _assert_splitting_minor_set_matches_oracle(
            BinaryMatroid(labels, Gf2Matrix(rows, n_cols)), monkeypatch)


def test_splitting_decided_per_coset_matches_each_y(corpus6, monkeypatch):
    # The decision made once for a row-space coset is the one profile_present
    # gives on the splitting rows of every Y in it.
    for want in SPLIT_WANTS:
        monkeypatch.setattr(verify, "_profile_want", lambda name: want)
        for m in corpus6.members:
            rows, n_cols = m.rep.rows, m.rep.n_cols
            for k in range(1, min(3, n_cols) + 1):
                first = None
                for y, mask in _label_masks(m, k):
                    hit = _kernel.profile_present(rows + (mask,), n_cols, (want,))[0]
                    key = 0
                    for lab in y:
                        key ^= m._label_cosets[lab]
                    assert _kernel.profile_present(rows + (key,), n_cols, (want,)) == (hit,)
                    if hit and first is None:
                        first = y
                assert verify.splitting_minor_set(m, k) == first, (m, k, want)


# Every catalog pattern of rank <= 2 (G_1 has a marked loop, F_3 and F_4
# two loops, G_3 three classes of one size), each with its marks, one mark,
# no marks and all labels.
MARKED_PATTERNS = [(e.matroid, marks) for e in catalog.list_entries()
                   if e.matroid.rank() <= 2
                   for marks in sorted({e.marked, e.marked[:1], (), e.matroid.labels})]


def _assert_marked_images_match_oracle(host, raw_rows=None):
    for pattern, marks in MARKED_PATTERNS:
        expected = marked_images(host, pattern, marks)
        assert host.minor_marked_images(pattern, marks) == expected, \
            (host, pattern, marks)
        if raw_rows is not None:
            got = pure.profile_images(raw_rows, host.rep.n_cols, pattern.rep.rows,
                                      pattern.rep.n_cols, pattern._label_mask(marks))
            assert got == {host._label_mask(image) for image in expected}


def test_marked_images_match_brute_force_on_corpus(corpus6):
    for m in corpus6.members:
        _assert_marked_images_match_oracle(m)
        for k in (1, 3):
            if k <= len(m.labels):
                _assert_marked_images_match_oracle(splitting(m, m.labels[:k]))


def test_marked_images_match_brute_force_on_random_matrices():
    rng = random.Random(2027)
    for n_cols in [n for n in range(10) for _ in range(3 if n < 8 else 1)]:
        # Clearing a column makes a loop.  The kernel is also handed rows
        # with bits above n_cols, which are not columns and must be ignored.
        loop = ~(1 << rng.randrange(n_cols)) if n_cols and rng.random() < 0.5 else -1
        raw_rows = tuple(rng.getrandbits(n_cols + 2) & loop
                         for _ in range(rng.randint(0, 4)))
        rows = tuple(row & ((1 << n_cols) - 1) for row in raw_rows)
        host = BinaryMatroid.from_matrix([f"e{j}" for j in range(n_cols)],
                                         Gf2Matrix(rows, n_cols))
        _assert_marked_images_match_oracle(host, raw_rows)


def test_minor_marked_images_cover_found_witness():
    entry = catalog.get("G_1")
    host = entry.matroid
    images = host.minor_marked_images(entry.matroid, entry.marked)
    assert frozenset(entry.marked) in images


# -- gammoid test ----------------------------------------------------------------------------


def test_gammoid_examples():
    assert g4().is_binary_gammoid()
    assert not k4_matroid().is_binary_gammoid()
    assert not three_fold(g4(), "x", "y").is_binary_gammoid()


def test_k4_witness_agrees_with_boolean(corpus6):
    for m in list(corpus6.members) + [e.matroid for e in catalog.list_entries()]:
        assert m.is_binary_gammoid() == (m.k4_minor() is None)


def test_reduction_agrees_with_k4_scan_on_splittings_and_folds(corpus6):
    # The exhaustive witness scan is the oracle for the reduction.
    for m in corpus6.gammoids():
        hosts = [splitting(m, t) for t in combinations(m.labels, 3)]
        hosts += [three_fold(m, *sorted(pair)) for pair in admissible_pairs(m)]
        for h in hosts:
            assert h.is_binary_gammoid() == (h.k4_minor() is None)


def test_reduction_agrees_with_k4_scan_on_series_parallel_graphs():
    rng = random.Random(20261018)
    for _ in range(30):
        g = series_parallel_graph(rng, rng.randint(8, 10), rng.randint(4, 7))
        m = BinaryMatroid.from_graph(g)
        assert m.is_binary_gammoid()
        assert m.k4_minor() is None


@st.composite
def small_matroids(draw, max_rows=6, max_cols=9):
    # Distinct columns over at least three rows make about a third of the
    # draws non-gammoids; parallel copies are appended afterwards.
    n_rows = draw(st.integers(3, max_rows))
    cols = draw(st.lists(st.integers(0, (1 << n_rows) - 1), max_size=max_cols,
                         unique=True))
    if cols:
        cols += draw(st.lists(st.sampled_from(cols), max_size=max_cols - len(cols)))
    rep = Gf2Matrix((0,) * n_rows, 0)
    for col in cols:
        rep = rep.append_column(col)
    return BinaryMatroid(tuple(f"e{j}" for j in range(len(cols))), rep)


@given(small_matroids())
@settings(max_examples=150, deadline=None)
def test_reduction_agrees_with_k4_scan_on_random_matrices(m):
    assert m.is_binary_gammoid() == (m.k4_minor() is None)


def test_reduction_on_degenerate_shapes():
    assert BinaryMatroid((), Gf2Matrix((), 0)).is_binary_gammoid()
    assert BinaryMatroid(("a", "b", "c"), Gf2Matrix((0, 0), 3)).is_binary_gammoid()
    free = BinaryMatroid(tuple(f"e{j}" for j in range(8)),
                         Gf2Matrix(tuple(1 << j for j in range(8)), 8))
    assert free.coloops() == set(free.labels)
    assert free.is_binary_gammoid()


def test_reduction_reads_more_than_64_rows():
    m = parse_matroid("elements a b c\nrow 110\n")
    for _ in range(70):
        m = splitting(m, ("a", "c"))
    assert m.rep.n_rows == 71
    assert m.is_binary_gammoid()


def test_reduction_decides_64_element_hosts():
    # Far beyond what the exhaustive scan can finish.
    sp = BinaryMatroid.from_graph(series_parallel_graph(random.Random(64), 64, 40))
    assert sp.n_elements() == 64 and sp.rank() == 40
    assert sp.is_binary_gammoid()
    k4_edges = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    edges = [(u, v, f"k{j}") for j, (u, v) in enumerate(k4_edges)]
    edges += [(*k4_edges[j % 6], f"c{j}") for j in range(58)]
    thick = BinaryMatroid.from_graph(Graph(4, tuple(edges)))
    assert thick.n_elements() == 64
    assert not thick.is_binary_gammoid()


def test_gammoid_closed_under_minors(corpus6):
    for m in corpus6.gammoids():
        for lab in m.labels:
            assert m.delete({lab}).is_binary_gammoid()
            assert m.contract({lab}).is_binary_gammoid()


def test_represented_equality_is_rowspace_equality():
    a = BinaryMatroid(("x", "y"), Gf2Matrix.from_bits(["11"]))
    b = BinaryMatroid(("x", "y"), Gf2Matrix.from_bits(["11", "11", "00"]))
    assert a == b
    assert not a.same_matrix(b)
    c = BinaryMatroid(("x", "w"), Gf2Matrix.from_bits(["11"]))
    assert a != c
