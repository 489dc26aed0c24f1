"""Graph construction, validation, constructions, and the text format."""

import random

import numpy as np
import pytest

from skewenergy.charpoly import charpoly_delete_arc, pendant_coefficients
from skewenergy.graphs import (
    GraphError,
    OrientedGraph,
    ParseError,
    UndirectedGraph,
    build,
    construct_b_plus,
    construct_o_plus,
    delete_arc,
    delete_vertices,
    oriented_cycle,
    oriented_path,
    oriented_star,
    parse_graph,
    serialize_graph,
    skew_adjacency,
    underlying,
)
from skewenergy.subgraphs import arc_on_even_cycle, cycle_parity

from _oracles import nx_graph, random_connected_oriented, random_oriented


class TestBuild:
    def test_oriented_k2(self):
        g = build(2, [(0, 1)])
        assert g.n == 2 and g.m == 1

    def test_oddly_oriented_c4(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert g.m == 4

    def test_digon_rejected(self):
        with pytest.raises(GraphError, match=r"\(1,0\)"):
            build(3, [(0, 1), (1, 0)])

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match="loop"):
            build(3, [(2, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            build(3, [(0, 3)])

    def test_duplicate_arc_rejected(self):
        with pytest.raises(GraphError, match="repeats"):
            build(3, [(0, 1), (0, 1)])

    def test_arc_order_preserved(self):
        arcs = ((2, 0), (0, 1), (1, 2))
        assert build(3, arcs).arcs == arcs

    def test_equality_ignores_arc_order(self):
        a = build(3, [(0, 1), (1, 2)])
        b = build(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != build(3, [(0, 1), (2, 1)])


def _parsed(n, pairs):
    return parse_graph(f"{n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs))


class TestVertexRule:
    """One rule, one message per violation, for both graph types and the
    parser, which prefixes the line of the offending arc."""

    @pytest.mark.parametrize(
        "make,prefix",
        [(build, ""), (UndirectedGraph, ""), (_parsed, "line 3: ")],
        ids=["build", "UndirectedGraph", "parse_graph"],
    )
    @pytest.mark.parametrize(
        "pairs,message",
        [
            ([(0, 1), (2, 2)], "loop (2,2) is not allowed"),
            ([(0, 1), (0, 3)], "index 3 out of range for n=3"),
            ([(0, 1), (1, 0)], "(1,0) repeats the unordered pair (0, 1)"),
        ],
        ids=["loop", "range", "repeat"],
    )
    def test_shared_message(self, make, prefix, pairs, message):
        with pytest.raises(GraphError) as exc:
            make(3, pairs)
        assert str(exc.value) == prefix + message

    @pytest.mark.parametrize(
        "call",
        [
            lambda: build(3, [(0, 2.7)]),
            lambda: build(3, [("1", 2)]),
            lambda: build(3, [(True, 2)]),
            lambda: UndirectedGraph(3, [(0, 1.9)]),
            lambda: delete_arc(oriented_cycle(4, "odd"), (0.5, 1)),
            lambda: delete_vertices(oriented_cycle(4, "odd"), [1.7]),
            lambda: arc_on_even_cycle(oriented_cycle(4, "odd"), (0.9, 1)),
            lambda: charpoly_delete_arc(oriented_path(4), (0.2, 1)),
            lambda: pendant_coefficients(oriented_path(4), 2.0, 3),
            lambda: cycle_parity(oriented_cycle(4, "odd"), [0, 1, 2.0, 3]),
        ],
        ids=[
            "build-float", "build-str", "build-bool", "undirected-float",
            "delete_arc", "delete_vertices", "arc_on_even_cycle",
            "charpoly_delete_arc", "pendant_coefficients", "cycle_parity",
        ],
    )
    def test_non_integer_index_rejected(self, call):
        with pytest.raises(GraphError, match="is not an integer"):
            call()

    @pytest.mark.parametrize(
        "make,prefix",
        [(build, ""), (UndirectedGraph, ""), (_parsed, "line 1: ")],
        ids=["build", "UndirectedGraph", "parse_graph"],
    )
    def test_vertex_count_rejected(self, make, prefix):
        with pytest.raises(GraphError) as exc:
            make(0, [])
        assert str(exc.value) == prefix + "vertex count must be a positive integer, got 0"

    def test_numpy_integers_become_python_ints(self):
        g = build(np.int64(3), [(np.int64(0), np.int64(2))])
        assert g == build(3, [(0, 2)])
        assert type(g.n) is int
        assert all(type(v) is int for arc in g.arcs for v in arc)


class TestArcRule:
    """One rule for what an arc is: the pair rule of both graph types, and
    for a function that takes an arc, one presence test with one message."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda pair: build(3, [(0, 1), pair]),
            lambda pair: OrientedGraph(3, ((0, 1), pair)),
            lambda pair: UndirectedGraph(3, [(0, 1), pair]),
            lambda pair: delete_arc(oriented_cycle(4, "odd"), pair),
            lambda pair: arc_on_even_cycle(oriented_cycle(4, "odd"), pair),
            lambda pair: charpoly_delete_arc(oriented_cycle(4, "odd"), pair),
        ],
        ids=[
            "build", "OrientedGraph", "UndirectedGraph",
            "delete_arc", "arc_on_even_cycle", "charpoly_delete_arc",
        ],
    )
    @pytest.mark.parametrize(
        "pair,message",
        [
            ((0, 1, 2), "(0, 1, 2) is not a pair"),
            ((2,), "(2,) is not a pair"),
            ([], "[] is not a pair"),
            (5, "5 is not a pair"),
            ((2, 2), "loop (2,2) is not allowed"),
        ],
        ids=["three", "one", "empty", "int", "loop"],
    )
    def test_not_a_pair(self, make, pair, message):
        with pytest.raises(GraphError) as exc:
            make(pair)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "call", [delete_arc, arc_on_even_cycle, charpoly_delete_arc],
        ids=["delete_arc", "arc_on_even_cycle", "charpoly_delete_arc"],
    )
    @pytest.mark.parametrize(
        "arc,message",
        [
            ((1, 0), "arc (1,0) is not present (the reversed arc (0,1) is)"),
            ((0, 2), "arc (0,2) is not present"),
            ((np.int64(3), np.int64(0)), "arc (3,0) is not present (the reversed arc (0,3) is)"),
        ],
        ids=["reversed", "absent", "numpy"],
    )
    def test_absent_arc_shared_message(self, call, arc, message):
        with pytest.raises(ValueError) as exc:
            call(oriented_cycle(4, "odd"), arc)
        assert type(exc.value) is ValueError
        assert str(exc.value) == message

    def test_charpoly_delete_arc_tests_presence_once(self, monkeypatch):
        reads = []
        arc_set = OrientedGraph.arc_set

        def counted(g):
            reads.append(g)
            return arc_set.fget(g)

        monkeypatch.setattr(OrientedGraph, "arc_set", property(counted))
        g = oriented_path(4)
        assert charpoly_delete_arc(g, [1, 2]).coeffs == (1, 3, 1)
        assert reads == [g]
        assert delete_arc(g, (1, 2)) == build(4, [(0, 1), (2, 3)])
        assert reads == [g, g]


class TestSkewAdjacency:
    def test_k2(self):
        s = skew_adjacency(build(2, [(0, 1)]))
        assert s.tolist() == [[0, 1], [-1, 0]]

    def test_empty_graph(self):
        s = skew_adjacency(build(3, []))
        assert not s.any()

    def test_out_star(self):
        s = skew_adjacency(build(3, [(0, 1), (0, 2)]))
        assert s[0].tolist() == [0, 1, 1]
        assert s[1, 0] == -1 and s[2, 0] == -1

    def test_antisymmetric_random(self):
        rng = random.Random(1001)
        for _ in range(25):
            g = random_oriented(rng, rng.randint(1, 9))
            s = skew_adjacency(g)
            assert not (s + s.T).any()
            assert np.count_nonzero(s) == 2 * g.m

    def test_write_locked(self):
        s = skew_adjacency(build(2, [(0, 1)]))
        with pytest.raises(ValueError):
            s[0, 1] = 5


class TestConstructions:
    def test_o_plus_6_7_layout(self):
        g = construct_o_plus(6, 7)
        assert set(g.arcs) == {(0, j) for j in range(1, 6)} | {(2, 1), (3, 1)}

    def test_o_plus_5_5_single_triangle(self):
        g = construct_o_plus(5, 5)
        assert set(g.arcs) == {(0, 1), (0, 2), (0, 3), (0, 4), (2, 1)}

    def test_o_plus_triangle_count(self):
        for n, m in [(5, 5), (6, 7), (7, 9), (8, 13)]:
            ug = underlying(construct_o_plus(n, m))
            adj = ug.adjacency_masks()
            assert (adj[0] & adj[1]).bit_count() == m - n + 1

    def test_o_plus_6_6_underlying(self):
        ug = underlying(construct_o_plus(6, 6))
        assert ug.degree_sequence() == (5, 2, 2, 1, 1, 1)
        assert (1, 2) in ug.edges  # the one triangle through the hub

    def test_o_plus_window(self):
        for n, m in [(4, 4), (5, 4), (5, 8), (6, 10)]:
            with pytest.raises(ValueError, match="2n-3"):
                construct_o_plus(n, m)

    def test_b_plus_degree_sequences(self):
        assert underlying(construct_b_plus(6, 7)).degree_sequence() == (4, 3, 2, 2, 2, 1)
        assert underlying(construct_b_plus(5, 5)).degree_sequence() == (3, 2, 2, 2, 1)

    def test_b_plus_hub_apex_not_adjacent(self):
        g = construct_b_plus(5, 5)
        assert g.m == 5
        assert (0, 1) not in underlying(g).edges

    def test_b_plus_window(self):
        with pytest.raises(ValueError, match="2n-4"):
            construct_b_plus(6, 9)

    def test_constructions_connected_with_m_arcs(self):
        for n in range(5, 9):
            for m in range(n, 2 * n - 3):
                g = construct_o_plus(n, m)
                assert g.m == m and underlying(g).is_connected()
            for m in range(n, 2 * n - 3):
                if m <= 2 * n - 4:
                    g = construct_b_plus(n, m)
                    assert g.m == m and underlying(g).is_connected()

    def test_b_plus_is_o_plus_minus_hub_apex_edge(self):
        for n, m in [(5, 5), (6, 7), (7, 9), (8, 11)]:
            wide = underlying(construct_o_plus(n, m + 1))
            slim = underlying(construct_b_plus(n, m))
            assert set(wide.edges) - set(slim.edges) == {(0, 1)}

    def test_underlying_o_plus_6_7(self):
        assert underlying(construct_o_plus(6, 7)).degree_sequence() == (5, 3, 2, 2, 1, 1)

    def test_star_path_cycle(self):
        assert underlying(oriented_star(5)).degree_sequence() == (4, 1, 1, 1, 1)
        assert underlying(oriented_path(4)).degree_sequence() == (2, 2, 1, 1)
        assert oriented_cycle(4, "even").arcs == ((0, 1), (1, 2), (2, 3), (3, 0))
        assert oriented_cycle(4, "odd").arcs == ((0, 1), (1, 2), (2, 3), (0, 3))
        with pytest.raises(ValueError):
            oriented_cycle(5, "odd")

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: oriented_star(0), "star needs n >= 1, got 0"),
            (lambda: oriented_path(0), "path needs n >= 1, got 0"),
            (lambda: oriented_cycle(4, "diagonal"), "parity must be 'odd' or 'even', got 'diagonal'"),
        ],
        ids=["star", "path", "cycle"],
    )
    def test_construction_arguments_rejected(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


class TestTextFormat:
    def test_parse_k2(self):
        assert parse_graph("2 1\n0 1\n") == build(2, [(0, 1)])

    def test_serialize_oddly_oriented_c4(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert serialize_graph(g) == "4 4\n0 1\n1 2\n2 3\n0 3\n"

    def test_out_of_range_index_positioned(self):
        with pytest.raises(ParseError, match="line 2: index 3 out of range"):
            parse_graph("3 1\n0 3\n")

    def test_comments_and_blanks_ignored(self):
        text = "# a graph\n\n2 1\n# the arc\n0 1\n\n"
        assert parse_graph(text) == build(2, [(0, 1)])

    def test_count_mismatch(self):
        with pytest.raises(ParseError, match="declared 2 arcs but found 1"):
            parse_graph("3 2\n0 1\n")
        with pytest.raises(ParseError, match="more than the declared"):
            parse_graph("3 1\n0 1\n1 2\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("3 -1\n", "line 1: arc count must be nonnegative, got -1"),
            ("3 1\n0 1 2\n", "line 2: expected two whitespace-separated integers, got '0 1 2'"),
        ],
        ids=["negative-count", "three-tokens"],
    )
    def test_malformed_line_positioned(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert str(exc.value) == message

    def test_bad_tokens(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_graph("two one\n")
        with pytest.raises(ParseError, match="missing header"):
            parse_graph("# nothing\n")

    def test_duplicate_pair_positioned(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("3 2\n0 1\n1 0\n")

    def test_round_trip_random(self):
        rng = random.Random(1002)
        for _ in range(60):
            g = random_oriented(rng, rng.randint(1, 10))
            assert parse_graph(serialize_graph(g)) == g


class TestVertexDeletion:
    def test_relabeling(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        h = delete_vertices(g, [1])
        # survivors 0,2,3 become 0,1,2
        assert h == build(3, [(1, 2), (0, 2)])

    def test_cannot_empty(self):
        with pytest.raises(ValueError):
            delete_vertices(build(2, [(0, 1)]), [0, 1])


def test_connectivity_helpers():
    rng = random.Random(1003)
    for _ in range(20):
        g = random_connected_oriented(rng, rng.randint(2, 8))
        assert underlying(g).is_connected()
    assert not underlying(build(3, [(0, 1)])).is_connected()
    assert underlying(oriented_path(5)).is_tree()
    assert not underlying(oriented_cycle(4, "odd")).is_tree()


def test_is_connected_matches_networkx():
    import networkx as nx

    rng = random.Random(1004)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 9)
        ug = underlying(random_oriented(rng, n, rng.randint(0, min(n * (n - 1) // 2, 2 * n))))
        want = nx.is_connected(nx_graph(ug))
        assert ug.is_connected() == want
        seen[want] += 1
    assert min(seen.values()) > 50
    assert underlying(build(1, [])).is_connected()
    # every edge inside one component, vertex 4 isolated
    assert not underlying(build(5, [(0, 1), (1, 2), (2, 3), (3, 0)])).is_connected()
