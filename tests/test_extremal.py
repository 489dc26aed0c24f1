"""Class enumeration, orientation scans, bounds, and the minimality search."""

import hashlib
import json
import random
from collections import Counter
from math import comb, factorial

import numpy as np
import pytest

from skewenergy.charpoly import (
    QuasiOrder,
    SkewCharPoly,
    _int64_recursion_safe,
    _newton,
    _trace_batch,
    charpoly,
    quasi_compare,
)
from skewenergy import extremal
from skewenergy.cli import main
from skewenergy.extremal import (
    _canonical_batch,
    _check_complete,
    _class_graphs,
    _connected_classes,
    _decide,
    _edge_sides,
    crossover_table,
    enumerate_connected_underlying,
    labelled_connected_count,
    orientation_coefficient_census,
    predicted_family,
    verify_quadrangle_bound,
    verify_quadrangle_bound_max_degree,
    verify_theorem_1,
)
from skewenergy.graphs import (
    UndirectedGraph,
    build,
    construct_b_plus,
    construct_o_plus,
    oriented_cycle,
    skew_adjacency,
    underlying,
)
from skewenergy.subgraphs import CycleParity, _two_matching_count, count_quadrangles, cycle_parity

import _oracles
from _oracles import (
    augment_every_non_edge,
    brute_matchings,
    brute_quadrangle_edge_sets,
    canonical_scalar,
    census_certificate,
    deletion_filter_survivors,
    enumerate_orientations,
    nx_automorphism_count,
    nx_connected_class_count,
    nx_graph,
)

THEOREM_PAIRS = [(5, 5), (6, 6), (6, 7), (7, 7), (7, 8), (7, 9)]
WINDOWS_TO_8 = [(n, m) for n in range(5, 9) for m in range(n, 2 * (n - 2))]


def _batch(graphs):
    """_canonical_batch of graphs on one n, as (key, |Aut|) pairs."""
    keys, auts = _canonical_batch(
        np.array([g.adjacency_masks() for g in graphs], dtype=np.int64)
    )
    return list(zip(map(tuple, keys.tolist()), auts.tolist()))


def _relabeled(ug, rng):
    perm = list(range(ug.n))
    rng.shuffle(perm)
    return UndirectedGraph(ug.n, tuple((perm[u], perm[v]) for u, v in ug.edges))


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return UndirectedGraph(10, tuple(outer + inner + [(i, i + 5) for i in range(5)]))


def _star(n):
    return UndirectedGraph(n, tuple((0, i) for i in range(1, n)))


def _complete_bipartite(a, b):
    return UndirectedGraph(a + b, tuple((i, j) for i in range(a) for j in range(a, a + b)))


def _complete(n):
    return UndirectedGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def _cycle(n):
    return UndirectedGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


SYMMETRIC = [  # (name, graph, |Aut|); 21! and 62! pass int64, and stay exact
    ("star6", _star(6), 120),
    ("star62", _star(62), factorial(61)),
    ("K3,4", _complete_bipartite(3, 4), 144),
    ("K4,4", _complete_bipartite(4, 4), 1152),
    ("K2,9", _complete_bipartite(2, 9), 2 * factorial(9)),
    ("K6", _complete(6), 720),
    ("K21", _complete(21), factorial(21)),
    ("K62", _complete(62), factorial(62)),
    ("C4", _cycle(4), 8),
    ("C7", _cycle(7), 14),
    ("C12", _cycle(12), 24),
    ("petersen", _petersen(), 120),  # vertex-transitive, no twins
]


class TestCanonical:
    def test_canonical_labels_are_fixed_points(self):
        # each class and a random relabelling of it get the same key and
        # |Aut| as the scalar search gives the relabelled graph, and the key
        # decodes to the class itself
        rng = random.Random(5001)
        for n in range(1, 8):
            for m in range(n - 1, comb(n, 2) + 1):
                keys, _ = _connected_classes(n, m)
                classes = _class_graphs(keys)
                shuffled = [_relabeled(ug, rng) for ug in classes]
                got = _batch(classes + shuffled)
                for want, g, (key, aut), again in zip(keys.tolist(), shuffled, got, got[len(classes):]):
                    assert again == (key, aut) == canonical_scalar(g.adjacency_masks())
                    assert key == tuple(want)

    def test_relabeling_gives_same_key(self):
        # random graphs with n <= 10 and a random relabelling of each get
        # the scalar search's key and |Aut|; mid densities only, since
        # near-empty and near-complete graphs at n = 10 hold up to 10!
        # scalar frontier entries (K_n and stars are cases below)
        rng = random.Random(5002)
        for n in range(2, 11):
            pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
            graphs = [
                UndirectedGraph(n, tuple(rng.sample(pool, rng.randint(
                    max(1, len(pool) // 4), max(1, 3 * len(pool) // 4)
                ))))
                for _ in range(40)
            ]
            want = [canonical_scalar(g.adjacency_masks()) for g in graphs]
            assert _batch(graphs + [_relabeled(g, rng) for g in graphs]) == want + want

    @pytest.mark.parametrize("name,ug,aut", SYMMETRIC, ids=[c[0] for c in SYMMETRIC])
    def test_twin_heavy_and_symmetric_graphs(self, name, ug, aut):
        rng = random.Random(5004)
        (key, got), (key2, got2) = _batch([ug, _relabeled(ug, rng)])
        assert got == got2 == aut and key == key2
        assert _batch(_class_graphs(np.array([key], dtype=np.int64))) == [(key, aut)]
        if aut <= 5040:
            assert (key, got) == canonical_scalar(ug.adjacency_masks())

    def test_more_than_62_vertices_is_refused(self):
        with pytest.raises(ValueError, match="n <= 62"):
            _canonical_batch(np.zeros((1, 63), dtype=np.int64))

    def test_frontier_size_is_automorphism_count(self):
        # final frontier x prod |twin class|! against VF2, every class n <= 7
        for n in range(2, 8):
            for m in range(n - 1, comb(n, 2) + 1):
                classes = enumerate_connected_underlying(n, m)
                assert [aut for _, aut in _batch(classes)] == [
                    nx_automorphism_count(ug) for ug in classes
                ], (n, m)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_boundaries_leave_the_classes_unchanged(self, monkeypatch, chunk):
        # canonical batches of 1 or 7 children and filter steps of 7
        # parents give the same keys, and the same stats carried from
        # each class's parent
        want = {m: _connected_classes(7, m) for m in range(6, 22)}
        _connected_classes.cache_clear()
        monkeypatch.setattr(extremal, "_CANON_CHUNK", chunk)
        monkeypatch.setattr(extremal, "_CUBE_CHUNK", 7)
        try:
            for m in range(6, 22):
                keys, stats = _connected_classes(7, m)
                assert np.array_equal(keys, want[m][0]), m
                assert np.array_equal(stats, want[m][1]), m
        finally:
            _connected_classes.cache_clear()


class TestClassEnumeration:
    def test_tree_counts(self):
        trees = [len(_connected_classes(n, n - 1)[0]) for n in range(1, 9)]
        assert trees == [1, 1, 1, 2, 3, 6, 11, 23]

    def test_repeated_calls_share_the_cached_classes(self):
        # one cached key array; each call decodes equal, fresh graphs
        assert _connected_classes(6, 7) is _connected_classes(6, 7)
        first = enumerate_connected_underlying(6, 7)
        second = enumerate_connected_underlying(6, 7)
        assert first is not second and first == second
        assert [g.edges for g in first] == [g.edges for g in _class_graphs(_connected_classes(6, 7)[0])]

    def test_cached_keys_are_read_only(self):
        keys, stats = _connected_classes(6, 7)
        assert keys.dtype == np.int64 and keys.shape == (19, 6)
        assert stats.dtype == np.int32 and stats.shape == (2, 19)
        for array in (keys, stats):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1
        assert keys.tolist() == sorted(keys.tolist())

    def test_class_list_golden(self):
        # md5 of every class list for n <= 8, every m, fixed before the
        # enumeration moved to key arrays
        digest = hashlib.md5()
        for n in range(2, 9):
            for m in range(n - 1, comb(n, 2) + 1):
                edges = [g.edges for g in enumerate_connected_underlying(n, m)]
                digest.update(json.dumps(edges).encode())
        assert digest.hexdigest() == "7015e710442c3062cfa6833e374ffedb"

    def test_small_examples(self):
        assert len(enumerate_connected_underlying(4, 3)) == 2  # path and star
        assert len(enumerate_connected_underlying(3, 3)) == 1  # triangle
        five_five = enumerate_connected_underlying(5, 5)
        assert sum(1 for g in five_five if g.max_degree() <= 3) == 4

    @pytest.mark.parametrize("n,m", [(4, 3), (4, 4), (4, 5), (5, 4), (5, 5), (5, 6), (5, 7), (6, 6), (6, 7), (6, 9)])
    def test_against_subset_scan(self, n, m):
        ours = len(enumerate_connected_underlying(n, m))
        assert ours == nx_connected_class_count(n, m)

    @pytest.mark.parametrize("n,m", [(6, 6), (6, 7), (7, 7), (7, 8), (7, 9), (8, 8)])
    def test_labelled_count_identity(self, n, m):
        # sum over classes of n!/|Aut| must count all labelled connected graphs
        total = 0
        for ug in enumerate_connected_underlying(n, m):
            total += factorial(n) // nx_automorphism_count(ug)
        assert total == labelled_connected_count(n, m)

    @pytest.mark.parametrize("n,top", [(n, comb(n, 2)) for n in range(1, 8)] + [(8, 11), (9, 10)])
    def test_filter_matches_unfiltered_augmentation(self, n, top):
        for m in range(n - 1, top + 1):
            ours = tuple(g.edges for g in _class_graphs(_connected_classes(n, m)[0]))
            assert ours == augment_every_non_edge(n, m), (n, m)

    def test_edge_sides_match_networkx_bridges(self):
        # a side holds the far end exactly off the bridges; a bridge's side
        # is the near end's component once the bridge is gone
        import networkx as nx

        rng = random.Random(5003)
        for _ in range(300):
            n = rng.randint(2, 10)
            pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
            ug = UndirectedGraph(n, tuple(sorted(rng.sample(pool, rng.randint(1, len(pool))))))
            g = nx_graph(ug)
            bridges = {tuple(sorted(e)) for e in nx.bridges(g)}
            adj = np.array([ug.adjacency_masks()], dtype=np.int64)
            edges = np.array([ug.edges], dtype=np.int64)
            for x, y in ((edges[..., 0], edges[..., 1]), (edges[..., 1], edges[..., 0])):
                sides = _edge_sides(adj, x, y)[0].tolist()
                for a, b, side in zip(x[0].tolist(), y[0].tolist(), sides):
                    assert (side >> b & 1) == ((min(a, b), max(a, b)) not in bridges)
                    h = g.copy()
                    h.remove_edge(a, b)
                    assert side == sum(1 << w for w in nx.node_connected_component(h, a))

    def test_filter_skips_most_canonical_forms(self, monkeypatch):
        # unfiltered, the (8, 8..11) window takes 15,637 canonical forms
        rows = 0
        real = extremal._canonical_batch

        def counted(adj):
            nonlocal rows
            rows += len(adj)
            return real(adj)

        monkeypatch.setattr(extremal, "_canonical_batch", counted)
        _connected_classes.cache_clear()
        try:
            for m in range(8, 12):
                _connected_classes(8, m)
        finally:
            _connected_classes.cache_clear()
        assert 0 < rows < 4000

    @pytest.mark.parametrize("n,top", [(6, 15), (7, 21), (8, 10)])
    def test_filter_passes_exactly_the_children_it_defines(self, monkeypatch, n, top):
        # the sorted prefix and the derived child invariants must pass the
        # same children as recomputing every invariant on each child
        rows = 0
        real = extremal._canonical_batch

        def counted(adj):
            nonlocal rows
            rows += len(adj)
            return real(adj)

        _connected_classes.cache_clear()
        try:
            _connected_classes(n, n - 1)
            monkeypatch.setattr(extremal, "_canonical_batch", counted)
            for m in range(n, top + 1):
                before = rows
                _connected_classes(n, m)
                want = deletion_filter_survivors(n, augment_every_non_edge(n, m - 1))
                assert rows - before == want, m
        finally:
            _connected_classes.cache_clear()

    def test_completeness_check_trips_on_a_dropped_or_duplicated_class(self):
        auts = [aut for _, aut in _batch(enumerate_connected_underlying(6, 7))]
        _check_complete(6, 7, auts)
        for i in range(len(auts)):
            with pytest.raises(RuntimeError, match="class enumeration"):
                _check_complete(6, 7, auts[:i] + auts[i + 1:])
            with pytest.raises(RuntimeError, match="class enumeration"):
                _check_complete(6, 7, auts + auts[i:i + 1])

    @pytest.mark.parametrize("bad", [(5, 4), (5, 5)])  # the trees, then the unicyclic classes
    def test_incomplete_enumeration_exits_5(self, monkeypatch, capsys, bad):
        real = extremal.labelled_connected_count
        monkeypatch.setattr(
            extremal, "labelled_connected_count", lambda n, m: real(n, m) + ((n, m) == bad)
        )
        _connected_classes.cache_clear()
        try:
            assert main(["verify", "--n", "5", "--m", "5"]) == 5
        finally:
            _connected_classes.cache_clear()
        assert "class enumeration" in capsys.readouterr().err

    def test_results_are_connected_with_right_size(self):
        for n, m in THEOREM_PAIRS:
            for ug in enumerate_connected_underlying(n, m):
                assert ug.n == n and ug.m == m and ug.is_connected()

    def test_guards(self):
        with pytest.raises(ValueError, match="capped at n = 9"):
            enumerate_connected_underlying(10, 10)
        with pytest.raises(ValueError, match="C\\(n,2\\)"):
            enumerate_connected_underlying(4, 7)
        with pytest.raises(ValueError, match="C\\(n,2\\)"):
            enumerate_connected_underlying(4, 0)
        # n = 9 sits under the default cap, which is adjustable
        assert len(enumerate_connected_underlying(9, 8)) == 47
        with pytest.raises(ValueError, match="capped at n = 8"):
            enumerate_connected_underlying(9, 8, max_n=8)


class TestOrientations:
    def test_single_edge(self):
        ug = UndirectedGraph(2, ((0, 1),))
        assert len(list(enumerate_orientations(ug))) == 2

    def test_c4_parity_split(self):
        ug = UndirectedGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        seen = Counter()
        for g in enumerate_orientations(ug):
            seen[cycle_parity(g, [0, 1, 2, 3])] += 1
        assert seen[CycleParity.EVENLY_ORIENTED] == 8
        assert seen[CycleParity.ODDLY_ORIENTED] == 8

    def test_p3_tree_invariance(self):
        ug = UndirectedGraph(3, ((0, 1), (1, 2)))
        polys = {charpoly(g).coeffs for g in enumerate_orientations(ug)}
        assert polys == {(1, 2)}

    def test_census_matches_scalar_loop(self):
        rng = random.Random(5002)
        for trial in range(7):
            n = 7 if trial == 0 else rng.randint(2, 6)
            pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = tuple(sorted(rng.sample(pool, rng.randint(1, min(9, len(pool))))))
            ug = UndirectedGraph(n, edges)
            census = orientation_coefficient_census(ug)
            ref = Counter(charpoly(g).coeffs for g in enumerate_orientations(ug))
            assert census == ref

    def test_guard(self):
        edges = tuple((0, v) for v in range(1, 32))
        with pytest.raises(ValueError, match="refusing"):
            orientation_coefficient_census(UndirectedGraph(32, edges))


def _full_census(ug):
    mats = np.stack([skew_adjacency(g) for g in enumerate_orientations(ug)])
    h = ug.n // 2
    return Counter(_newton(tuple(row), h) for row in _trace_batch(mats).tolist())


class TestSwitchingMultiplier:
    """The census scans one orientation per switching class and weights it
    by 2^(n - c), c the number of components; each case is checked against
    the full 2^m stream."""

    def test_forest_has_no_free_edges(self):
        ug = UndirectedGraph(7, ((0, 1), (0, 2), (2, 3), (4, 5)))
        census = orientation_coefficient_census(ug)
        assert census == _full_census(ug)
        assert list(census.values()) == [2**4]

    def test_disconnected_with_isolated_vertex(self):
        # isolated vertex 0, a triangle and a 4-cycle with a chord: c = 3
        edges = ((1, 2), (1, 3), (2, 3), (4, 5), (4, 7), (5, 6), (5, 7), (6, 7))
        ug = UndirectedGraph(8, edges)
        census = orientation_coefficient_census(ug)
        assert census == _full_census(ug)
        assert all(count % 2 ** (8 - 3) == 0 for count in census.values())
        assert sum(census.values()) == 2**8

    def test_object_dtype_scan_in_small_chunks(self, monkeypatch):
        # 9 arcs leave int64 first at n = 38; 2^3 forest-fixed orientations
        # in chunks of 3.  Isolated vertices only append zero coefficients,
        # so the census equals that of the same arcs on 8 vertices, padded
        assert _int64_recursion_safe(37, 9) and not _int64_recursion_safe(38, 9)
        core = ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 3))
        ug = UndirectedGraph(38, core + ((9, 37),))
        small = _full_census(UndirectedGraph(8, core + ((6, 7),)))
        padded = Counter({vec + (0,) * 15: count for vec, count in small.items()})
        monkeypatch.setattr(extremal, "_CENSUS_CHUNK", 3)
        assert orientation_coefficient_census(ug) == padded

    def test_every_class_of_7_9(self):
        for ug in enumerate_connected_underlying(7, 9):
            assert orientation_coefficient_census(ug) == _full_census(ug), ug.edges

    def test_k7_converts_each_distinct_trace_row_once(self, monkeypatch):
        # the 2^15 forest-fixed orientations of K_7 give 11 trace rows
        newton, rows = extremal._newton, []

        def counted(traces, h):
            rows.append(traces)
            return newton(traces, h)

        monkeypatch.setattr(extremal, "_newton", counted)
        k7 = UndirectedGraph(7, tuple((u, v) for u in range(7) for v in range(u + 1, 7)))
        census = orientation_coefficient_census(k7)
        assert len(rows) == len(set(rows)) == 11
        assert census == K7_CENSUS
        assert sum(census.values()) == 2**21


# the census of K_7 as the kernel gave it when it ran Newton's identities
# on every row
K7_CENSUS = {
    (1, 21, 35, 7): 46080, (1, 21, 67, 39): 107520, (1, 21, 83, 23): 322560,
    (1, 21, 99, 7): 107520, (1, 21, 99, 71): 322560, (1, 21, 99, 135): 35840,
    (1, 21, 115, 55): 64512, (1, 21, 115, 119): 645120, (1, 21, 115, 183): 107520,
    (1, 21, 131, 231): 322560, (1, 21, 147, 343): 15360,
}


class TestPredictedFamily:
    def test_trichotomy(self):
        assert predicted_family(6, 6) == "O_plus"
        assert predicted_family(6, 7) == "B_plus"
        assert predicted_family(7, 8) == "Both"
        assert predicted_family(5, 5) == "Both"

    def test_window_rejections(self):
        with pytest.raises(ValueError, match="n >= 5"):
            predicted_family(4, 4)
        with pytest.raises(ValueError, match="open boundary"):
            predicted_family(6, 8)
        with pytest.raises(ValueError, match="outside"):
            predicted_family(6, 5)
        with pytest.raises(ValueError, match="outside"):
            predicted_family(7, 11)


class TestVerify:
    @pytest.mark.parametrize("n,m", [(5, 5), (6, 6), (6, 7)])
    def test_small_pairs_pass(self, n, m):
        cert = verify_theorem_1(n, m)
        assert cert.verdict == "pass"
        assert cert.orientations_scanned == cert.graphs_scanned * 2**m
        a4_o = (m - n + 1) * (2 * n - m - 3)
        a4_b = (m - n + 2) * (2 * n - m - 4)
        want_a4 = min(a4_o, a4_b)
        want = (1, m, want_a4) + (0,) * (n // 2 - 2)
        assert cert.min_coeffs == want

    def test_certificate_round_trip(self, capsys):
        assert main(["verify", "--n", "5", "--m", "5"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["predicted"] == "Both"
        assert d["min_coeffs"] == [1, 5, 2]
        assert d["verdict"] == "pass"

    def test_minimizers_share_the_minimum_vector(self):
        cert = verify_theorem_1(6, 7)
        target = SkewCharPoly(6, cert.min_coeffs)
        for ug in enumerate_connected_underlying(6, 7):
            for vec, count in orientation_coefficient_census(ug).items():
                rel = quasi_compare(target, SkewCharPoly(6, vec))
                assert rel in (QuasiOrder.STRICTLY_LESS, QuasiOrder.EQUIVALENT)


class TestDecide:
    """Synthetic n = 4 censuses, where E = 2 sqrt(a_2 + 2 sqrt(a_4));
    the target (1, 3, 2) has E = 2 + 2 sqrt(2)."""

    TARGET = (1, 3, 2)

    @pytest.mark.parametrize(
        "rival,want",
        [
            ((1, 4, 2), ("pass", TARGET)),  # dominated: E = 2 sqrt(4 + 2 sqrt 2)
            ((1, 3, 1), ("fail", (1, 3, 1))),  # dominating: E = 2 sqrt 5
            ((1, 6, 0), ("pass", TARGET)),  # incomparable, E = 2 sqrt 6 higher
            ((1, 5, 0), ("fail", (1, 5, 0))),  # incomparable, E = 2 sqrt 5 lower
        ],
    )
    def test_rival(self, rival, want):
        census = Counter({self.TARGET: 3, rival: 5})
        assert _decide(4, census, self.TARGET) == want

    def test_exact_tie_fails(self):
        # both have E = 2 sqrt 8; a tie is not a strict minimum
        census = Counter({(1, 4, 4): 1, (1, 6, 1): 1})
        verdict, min_coeffs = _decide(4, census, (1, 4, 4))
        assert verdict == "fail"
        assert min_coeffs in census

    def test_absent_target_raises(self):
        with pytest.raises(RuntimeError, match="never appeared"):
            _decide(4, Counter({(1, 4, 2): 1}), self.TARGET)

    def test_wrong_prediction_exits_1(self, monkeypatch, capsys):
        # o-plus loses to b-plus above the crossover, so (7, 9) must fail
        monkeypatch.setattr(extremal, "predicted_family", lambda n, m: "O_plus")
        assert main(["verify", "--n", "7", "--m", "9"]) == 1
        cert = json.loads(capsys.readouterr().out)
        assert cert["verdict"] == "fail"
        assert cert["min_coeffs"] == [1, 9, 4, 0]

    def test_pass_needs_no_float_energy(self, monkeypatch):
        def refuse(coeffs, *args):
            raise AssertionError(f"energy evaluated for {coeffs}")

        monkeypatch.setattr(extremal, "energy_from_even_coeffs", refuse)
        monkeypatch.setattr(extremal, "energy_from_even_coeffs_precise", refuse)
        assert verify_theorem_1(6, 7).verdict == "pass"


class TestWalshCensus:
    """verify_theorem_1 censuses only the classes whose bound
    M(G,2) - 2q(G) on a_4 is at most the target's a_4, and keeps only the
    vectors whose a_4 is too; the full census is its reference.  (The
    class keeps the name it had when a_4 came from a Walsh transform.)"""

    def test_every_census_vector_meets_its_class_bound(self):
        tight = 0
        for n in range(4, 8):  # a_4 needs four vertices
            for m in range(n - 1, comb(n, 2) + 1):
                keys, (two, quads) = _connected_classes(n, m)
                for ug, low in zip(_class_graphs(keys), (two - 2 * quads).tolist()):
                    least = min(vec[2] for vec in orientation_coefficient_census(ug))
                    assert least >= low, (n, m, ug.edges)
                    tight += least == low
        assert tight > 0

    def test_high_target_censuses_many_classes(self, monkeypatch):
        # a two-hub target (every arc at vertex 0 or 1, so rank S <= 4) with
        # a_4 = 20 at (7, 9): 105 of the 107 classes have a bound of at most
        # 20, and each is censused through the module's public name
        hub = build(7, [(2, 0), (3, 0), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4), (1, 5)])
        assert charpoly(hub).coeffs == (1, 9, 20, 0)
        censused = []
        real = extremal.orientation_coefficient_census

        def counted(ug):
            censused.append(ug)
            return real(ug)

        monkeypatch.setattr(extremal, "orientation_coefficient_census", counted)
        monkeypatch.setattr(extremal, "predicted_family", lambda n, m: "O_plus")
        monkeypatch.setattr(extremal, "construct_o_plus", lambda n, m: hub)
        monkeypatch.setattr(_oracles, "construct_o_plus", lambda n, m: hub)
        cert = verify_theorem_1(7, 9)
        assert len(censused) == 105
        assert cert.verdict == "fail"
        assert cert == census_certificate(7, 9, "O_plus")

    @pytest.mark.parametrize("n,m", WINDOWS_TO_8)
    def test_matches_full_census(self, n, m):
        want = census_certificate(n, m, predicted_family(n, m))
        assert verify_theorem_1(n, m) == want

    @pytest.mark.parametrize(
        "forced,n,m,verdict",
        [
            ("O_plus", 7, 9, "fail"),
            ("B_plus", 8, 8, "fail"),
            ("B_plus", 8, 9, "fail"),
            ("B_plus", 8, 10, "pass"),  # the prediction itself
            ("O_plus", 8, 10, "fail"),
        ],
    )
    def test_forced_prediction_matches_full_census(self, monkeypatch, forced, n, m, verdict):
        monkeypatch.setattr(extremal, "predicted_family", lambda n, m: forced)
        cert = verify_theorem_1(n, m)
        assert cert.verdict == verdict
        assert cert == census_certificate(n, m, forced)

    def test_target_tail_exits_5(self, monkeypatch, capsys):
        # an oddly oriented 6-cycle has a_6 = 4, so a_4 could not decide
        bad = oriented_cycle(6, "odd")
        assert any(charpoly(bad).coeffs[3:])
        monkeypatch.setattr(extremal, "construct_o_plus", lambda n, m: bad)
        assert main(["verify", "--n", "6", "--m", "6"]) == 5
        assert "past a_4" in capsys.readouterr().err

    def test_census_below_class_bound_exits_5(self, monkeypatch, capsys):
        real = extremal.orientation_coefficient_census

        def lowered(ug):
            census = real(ug)
            vec = min(census)
            census[(vec[0], vec[1], vec[2] - 100) + vec[3:]] = census.pop(vec)
            return census

        monkeypatch.setattr(extremal, "orientation_coefficient_census", lowered)
        assert main(["verify", "--n", "6", "--m", "7"]) == 5
        assert "M(G,2) - 2q(G)" in capsys.readouterr().err


class TestDominanceSplitByMaxDegree:
    """Orientations of dominating-vertex classes never beat the full hub
    construction; the rest never beat the apex-detached one."""

    @pytest.mark.parametrize("n,m", THEOREM_PAIRS)
    def test_split_dominance(self, n, m):
        o_poly = charpoly(construct_o_plus(n, m))
        b_poly = charpoly(construct_b_plus(n, m))
        for ug in enumerate_connected_underlying(n, m):
            reference = o_poly if ug.max_degree() == n - 1 else b_poly
            for vec in orientation_coefficient_census(ug):
                rel = quasi_compare(reference, SkewCharPoly(n, vec))
                assert rel in (QuasiOrder.STRICTLY_LESS, QuasiOrder.EQUIVALENT), (
                    ug.edges,
                    vec,
                )


class TestQuadrangleBounds:
    @pytest.mark.parametrize("n,m", THEOREM_PAIRS)
    def test_connected_bound(self, n, m):
        report = verify_quadrangle_bound(n, m)
        assert report.passed
        assert report.bound == comb(m - n + 2, 2)
        assert report.witnesses_checked == len(enumerate_connected_underlying(n, m))

    @pytest.mark.parametrize("n,m", THEOREM_PAIRS)
    def test_dominating_vertex_bound(self, n, m):
        report = verify_quadrangle_bound_max_degree(n, m)
        assert report.passed
        assert report.bound == comb(m - n + 1, 2)

    def test_class_counts_match_single_graph_counts(self):
        # M(G,2) and q(G) as enumeration carries them from each class's
        # parent, against the single-graph routes for n <= 8 and the subset
        # scans for n <= 6; canonical vertex 0 has the max degree
        for n in range(1, 9):
            for m in range(n - 1, comb(n, 2) + 1):
                keys, stats = _connected_classes(n, m)
                assert stats.shape == (2, len(keys)), (n, m)
                for ug, (two, quads) in zip(_class_graphs(keys), stats.T.tolist()):
                    assert ug.degrees()[0] == ug.max_degree()
                    assert two == _two_matching_count(ug.m, ug.degrees())
                    assert quads == count_quadrangles(ug)
                    if n <= 6:
                        assert two == brute_matchings(ug, 2)
                        assert quads == len(brute_quadrangle_edge_sets(ug))

    def test_bound_values(self):
        assert verify_quadrangle_bound(5, 5).bound == 1
        assert verify_quadrangle_bound(6, 7).bound == 3
        assert verify_quadrangle_bound(6, 6).bound == 1
        assert verify_quadrangle_bound_max_degree(6, 7).bound == 1
        assert verify_quadrangle_bound_max_degree(5, 5).bound == 0

    def test_bounds_at_the_scale_cap(self):
        # largest window value at the n = 8 cap
        assert verify_quadrangle_bound(8, 11).passed
        assert verify_quadrangle_bound_max_degree(8, 11).passed

    def test_window_checked(self):
        with pytest.raises(ValueError):
            verify_quadrangle_bound(6, 8)


class TestCrossover:
    def test_n7(self):
        rows = {r.m: r for r in crossover_table(7)}
        assert (rows[7].a4_o_plus, rows[7].a4_b_plus, rows[7].winner) == (4, 6, "O_plus")
        assert (rows[8].a4_o_plus, rows[8].a4_b_plus, rows[8].winner) == (6, 6, "Both")
        assert (rows[9].a4_o_plus, rows[9].a4_b_plus, rows[9].winner) == (6, 4, "B_plus")

    def test_n5_and_n6(self):
        rows5 = crossover_table(5)
        assert len(rows5) == 1
        assert (rows5[0].a4_o_plus, rows5[0].a4_b_plus, rows5[0].winner) == (2, 2, "Both")
        rows6 = {r.m: r for r in crossover_table(6)}
        assert (rows6[6].a4_o_plus, rows6[6].a4_b_plus, rows6[6].winner) == (3, 4, "O_plus")
        assert (rows6[7].a4_o_plus, rows6[7].a4_b_plus, rows6[7].winner) == (4, 3, "B_plus")

    def test_matches_charpoly(self):
        for n in (5, 6, 7, 8):
            for row in crossover_table(n):
                assert charpoly(construct_o_plus(n, row.m)).coefficient(4) == row.a4_o_plus
                assert charpoly(construct_b_plus(n, row.m)).coefficient(4) == row.a4_b_plus

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            crossover_table(4)


class TestFigFGraph:
    """The n=7 exceptional shape: hub star plus an apex tied into a
    triangle; none of its 512 orientations reaches the hub construction's
    quartic coefficient."""

    def setup_method(self):
        edges = [(0, j) for j in range(1, 7)] + [(1, 2), (1, 3), (2, 3)]
        self.f = UndirectedGraph(7, tuple(edges))

    def test_shape(self):
        assert self.f.m == 9
        from skewenergy.subgraphs import count_quadrangles

        assert count_quadrangles(self.f) == 3

    def test_every_orientation_exceeds_o_plus_quartic(self):
        a4_o = charpoly(construct_o_plus(7, 9)).coefficient(4)
        census = orientation_coefficient_census(self.f)
        assert sum(census.values()) == 2**9
        assert min(vec[2] for vec in census) > a4_o
