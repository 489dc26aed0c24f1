"""Class enumeration, orientation scans, bounds, and the minimality search."""

import json
import random
from collections import Counter
from math import comb, factorial

import numpy as np
import pytest

from skewenergy.charpoly import (
    QuasiOrder,
    SkewCharPoly,
    _even_coeffs_batch,
    charpoly,
    quasi_compare,
)
from skewenergy import extremal
from skewenergy.cli import main
from skewenergy.extremal import (
    _canonical,
    _check_complete,
    _class_graph,
    _connected_classes,
    _decide,
    _on_cycle,
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
    skew_adjacency,
    underlying,
)
from skewenergy.subgraphs import CycleParity, cycle_parity

from _oracles import (
    augment_every_non_edge,
    enumerate_orientations,
    nx_automorphism_count,
    nx_connected_class_count,
    nx_graph,
)

THEOREM_PAIRS = [(5, 5), (6, 6), (6, 7), (7, 7), (7, 8), (7, 9)]


class TestCanonical:
    def test_relabeling_gives_same_key(self):
        rng = random.Random(5001)
        for _ in range(40):
            n = rng.randint(2, 7)
            pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = tuple(rng.sample(pool, rng.randint(1, len(pool))))
            key, aut = _canonical(UndirectedGraph(n, edges).adjacency_masks())
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = tuple(
                tuple(sorted((perm[u], perm[v]))) for u, v in edges
            )
            key2, aut2 = _canonical(UndirectedGraph(n, shuffled).adjacency_masks())
            assert key == key2 and aut == aut2
            assert _class_graph(n, key).m == len(edges)

    def test_canonical_labels_are_fixed_points(self):
        # every class with n <= 7: its key decodes to the class itself,
        # and the decoded graph re-canonicalizes to the same key and |Aut|
        for n in range(1, 8):
            for m in range(n - 1, comb(n, 2) + 1):
                for ug in _connected_classes(n, m):
                    key, aut = _canonical(ug.adjacency_masks())
                    again = _class_graph(n, key)
                    assert again.edges == ug.edges
                    assert _canonical(again.adjacency_masks()) == (key, aut)

    def test_frontier_size_is_automorphism_count(self):
        for n in range(2, 7):
            for m in range(n - 1, comb(n, 2) + 1):
                for ug in enumerate_connected_underlying(n, m):
                    aut = _canonical(ug.adjacency_masks())[1]
                    assert aut == nx_automorphism_count(ug), ug.edges


class TestClassEnumeration:
    def test_tree_counts(self):
        trees = [len(_connected_classes(n, n - 1)) for n in range(1, 9)]
        assert trees == [1, 1, 1, 2, 3, 6, 11, 23]

    def test_repeated_calls_share_the_cached_classes(self):
        first = enumerate_connected_underlying(6, 7)
        second = enumerate_connected_underlying(6, 7)
        assert first is not second and len(first) == len(second)
        assert all(a is b for a, b in zip(first, second))

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

    @pytest.mark.parametrize("n,top", [(n, comb(n, 2)) for n in range(1, 8)] + [(8, 11)])
    def test_filter_matches_unfiltered_augmentation(self, n, top):
        for m in range(n - 1, top + 1):
            ours = tuple(g.edges for g in _connected_classes(n, m))
            assert ours == augment_every_non_edge(n, m), (n, m)

    def test_on_cycle_matches_networkx_bridges(self):
        import networkx as nx

        rng = random.Random(5003)
        for _ in range(300):
            n = rng.randint(2, 10)
            pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
            ug = UndirectedGraph(n, tuple(sorted(rng.sample(pool, rng.randint(1, len(pool))))))
            bridges = {tuple(sorted(e)) for e in nx.bridges(nx_graph(ug))}
            adj = ug.adjacency_masks()
            for x, y in ug.edges:
                assert _on_cycle(adj, x, y) == _on_cycle(adj, y, x) == ((x, y) not in bridges)

    def test_filter_skips_most_canonical_forms(self, monkeypatch):
        # unfiltered, the (8, 8..11) window takes 15,637 canonical forms
        calls = 0
        real = extremal._canonical

        def counted(adj):
            nonlocal calls
            calls += 1
            return real(adj)

        monkeypatch.setattr(extremal, "_canonical", counted)
        _connected_classes.cache_clear()
        try:
            for m in range(8, 12):
                _connected_classes(8, m)
        finally:
            _connected_classes.cache_clear()
        assert 0 < calls < 4000

    def test_completeness_check_trips_on_a_dropped_or_duplicated_class(self):
        auts = [_canonical(ug.adjacency_masks())[1] for ug in enumerate_connected_underlying(6, 7)]
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
        with pytest.raises(ValueError, match="capped"):
            enumerate_connected_underlying(9, 10)
        with pytest.raises(ValueError, match="C\\(n,2\\)"):
            enumerate_connected_underlying(4, 7)
        with pytest.raises(ValueError, match="C\\(n,2\\)"):
            enumerate_connected_underlying(4, 0)
        # the cap is adjustable
        assert len(enumerate_connected_underlying(9, 8, max_n=9)) == 47


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
    return Counter(map(tuple, _even_coeffs_batch(mats).tolist()))


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

    def test_object_dtype_scan_in_small_chunks(self):
        # n = 16 is past the int64 bound; 2^3 forest-fixed orientations in chunks of 3
        edges = ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 3), (9, 15))
        ug = UndirectedGraph(16, edges)
        assert orientation_coefficient_census(ug, chunk=3) == _full_census(ug)

    def test_every_class_of_7_9(self):
        for ug in enumerate_connected_underlying(7, 9):
            assert orientation_coefficient_census(ug) == _full_census(ug), ug.edges


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

    def test_certificate_round_trip(self):
        cert = verify_theorem_1(5, 5)
        d = cert.to_dict()
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
