"""Matchings, quadrangles, cycle parity, and the coefficient expansion."""

import random
from collections import Counter
from itertools import combinations, permutations
from math import comb

import pytest

from skewenergy.charpoly import charpoly
from skewenergy.extremal import enumerate_connected_underlying, orientation_coefficient_census
from skewenergy.graphs import (
    UndirectedGraph,
    build,
    construct_o_plus,
    oriented_cycle,
    oriented_star,
    underlying,
)
from skewenergy.subgraphs import (
    CycleParity,
    _even_cycles_at,
    a4_bound_check,
    arc_on_even_cycle,
    coefficient_by_expansion,
    count_matchings,
    count_quadrangles,
    cycle_parity,
    matching_counts,
    quadrangles,
)

from _oracles import (
    ArcComponent,
    brute_matchings,
    brute_quadrangle_edge_sets,
    enumerate_basic_subgraphs,
    enumerate_orientations,
    nx_arc_on_even_cycle,
    random_oriented,
    random_tree_edges,
)


def fig_f_graph():
    """Hub adjacent to everything, apex tied to two mid vertices that are
    also tied to each other; n=7, m=9."""
    edges = [(0, j) for j in range(1, 7)] + [(1, 2), (1, 3), (2, 3)]
    return build(7, edges)


class TestMatchings:
    def test_zero_matching(self):
        rng = random.Random(2001)
        for _ in range(10):
            g = random_oriented(rng, rng.randint(1, 8))
            assert count_matchings(underlying(g), 0) == 1

    def test_c4_two_matchings(self):
        assert count_matchings(underlying(oriented_cycle(4, "odd")), 2) == 2

    def test_o_plus_two_matchings(self):
        for n, m in [(6, 7), (5, 5), (7, 9), (8, 11)]:
            ug = underlying(construct_o_plus(n, m))
            assert count_matchings(ug, 2) == (m - n + 1) * (n - 3)

    def test_vs_brute_force(self):
        rng = random.Random(2002)
        for _ in range(30):
            ug = underlying(random_oriented(rng, rng.randint(2, 8)))
            counts = matching_counts(ug)
            for r in range(len(counts)):
                assert counts[r] == brute_matchings(ug, r)

    def test_two_matching_degree_identity(self):
        # M(G,2) = C(m,2) - sum_v C(d(v),2)
        rng = random.Random(2003)
        for _ in range(40):
            ug = underlying(random_oriented(rng, rng.randint(2, 9)))
            expected = comb(ug.m, 2) - sum(comb(d, 2) for d in ug.degrees())
            assert count_matchings(ug, 2) == expected

    def test_forest_coefficients_are_matching_counts(self):
        # on a forest a_2k = M(G, k): both callers of _basic_sum, one identity
        rng = random.Random(2004)
        for _ in range(60):
            n = rng.randint(1, 12)
            edges = [e for e in random_tree_edges(rng, n) if rng.random() < 0.8]
            g = build(n, [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges])
            assert matching_counts(underlying(g)) == charpoly(g).coeffs

    def test_oversized_matching_is_zero(self):
        assert count_matchings(underlying(oriented_star(4)), 2) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            count_matchings(underlying(oriented_star(3)), -1)


class TestQuadrangles:
    def test_c4(self):
        assert count_quadrangles(underlying(oriented_cycle(4, "odd"))) == 1

    def test_o_plus_family(self):
        for n, m in [(6, 7), (7, 9), (8, 11), (5, 5)]:
            ug = underlying(construct_o_plus(n, m))
            assert count_quadrangles(ug) == comb(m - n + 1, 2)

    def test_fig_f_has_three(self):
        assert count_quadrangles(underlying(fig_f_graph())) == 3

    def test_k4_counts_cycle_copies(self):
        k4 = build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert count_quadrangles(underlying(k4)) == 3

    def test_complete_graphs(self):
        # any 4 vertices of K_n span 3 distinct 4-cycles: 14,535 in K_20
        for n in range(4, 21):
            kn = UndirectedGraph(n, tuple(combinations(range(n), 2)))
            assert count_quadrangles(kn) == 3 * comb(n, 4) == len(quadrangles(kn)), n

    def test_none_on_c5_or_a_tree(self):
        assert count_quadrangles(UndirectedGraph(5, tuple((i, (i + 1) % 5) for i in range(5)))) == 0
        rng = random.Random(2011)
        assert count_quadrangles(UndirectedGraph(12, tuple(random_tree_edges(rng, 12)))) == 0

    def test_vs_brute_force(self):
        rng = random.Random(2004)
        for _ in range(30):
            ug = underlying(random_oriented(rng, rng.randint(4, 12)))
            assert count_quadrangles(ug) == len(brute_quadrangle_edge_sets(ug))

    def test_each_cycle_listed_once(self):
        # the brute-force subsets are distinct, so equal multisets mean
        # every 4-cycle is listed, and listed exactly once
        rng = random.Random(2010)
        for _ in range(30):
            ug = underlying(random_oriented(rng, rng.randint(4, 12)))
            listed = Counter(
                frozenset(tuple(sorted((seq[i], seq[i - 1]))) for i in range(4))
                for seq in quadrangles(ug)
            )
            assert listed == Counter(brute_quadrangle_edge_sets(ug))


class TestCycleParity:
    def test_spec_orientations(self):
        odd = build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        even = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert cycle_parity(odd, [0, 1, 2, 3]) is CycleParity.ODDLY_ORIENTED
        assert cycle_parity(even, [0, 1, 2, 3]) is CycleParity.EVENLY_ORIENTED

    def test_odd_length_rejected(self):
        tri = build(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError, match="odd cycle length"):
            cycle_parity(tri, [0, 1, 2])

    def test_not_a_cycle_rejected(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(ValueError, match="not adjacent"):
            cycle_parity(g, [0, 1, 3, 2])
        with pytest.raises(ValueError, match="not a simple cycle"):
            cycle_parity(g, [0, 1, 0, 1])

    def test_rotation_and_reversal_invariance(self):
        rng = random.Random(2005)
        for _ in range(40):
            k = rng.choice([4, 6, 8])
            base = list(range(k))
            arcs = [
                (i, (i + 1) % k) if rng.random() < 0.5 else ((i + 1) % k, i)
                for i in range(k)
            ]
            g = build(k, arcs)
            ref = cycle_parity(g, base)
            shift = rng.randrange(k)
            rotated = base[shift:] + base[:shift]
            assert cycle_parity(g, rotated) is ref
            assert cycle_parity(g, list(reversed(rotated))) is ref


class TestArcOnEvenCycle:
    def test_cases(self):
        c4 = oriented_cycle(4, "odd")
        assert arc_on_even_cycle(c4, (0, 1))
        tri = build(3, [(0, 1), (1, 2), (2, 0)])
        assert not arc_on_even_cycle(tri, (0, 1))
        c5 = build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert not arc_on_even_cycle(c5, (0, 1))
        c6 = oriented_cycle(6, "even")
        assert arc_on_even_cycle(c6, (0, 1))
        pendant = build(3, [(0, 1), (1, 2)])
        assert not arc_on_even_cycle(pendant, (1, 2))
        # the triangle at 2 gives 0 and 1 an odd walk 0-2-4-5-2-1, but
        # every path from 0 to 1 without the arc has length 2
        trap = build(
            6, [(0, 1), (0, 2), (2, 1), (1, 3), (3, 0), (2, 4), (4, 5), (5, 2)]
        )
        assert not arc_on_even_cycle(trap, (0, 1))

    def test_absent_arc_rejected(self):
        with pytest.raises(ValueError, match="not present"):
            arc_on_even_cycle(build(2, [(0, 1)]), (1, 0))

    def test_bridges_of_dense_graphs(self):
        # a bridge lies on no cycle, even or odd, however many paths
        # leave its tail
        k11 = list(combinations(range(11), 2))
        for arc in [(0, 11), (11, 0)]:
            g = build(12, k11 + [arc])
            assert not arc_on_even_cycle(g, arc)
            assert arc_on_even_cycle(g, (0, 1))
        k6 = list(combinations(range(6), 2))
        for arc in [(5, 6), (6, 5)]:
            g = build(12, k6 + [(a + 6, b + 6) for a, b in k6] + [arc])
            assert not arc_on_even_cycle(g, arc)

    def test_complete_bipartite_plus_inside_edges(self):
        # K_{a,b} minus the inside arc (0, 1) is bipartite with 0 and 1 on
        # one side, so every 0-1 path is even; a second inside edge (2, 3)
        # makes the odd path 0, a, 2, 3, a + 1, 1
        for a in range(2, 9):
            for b in range(1, 9):
                kab = [(i, a + j) for i in range(a) for j in range(b)]
                assert not arc_on_even_cycle(build(a + b, kab + [(0, 1)]), (0, 1))
                if a >= 4 and b >= 2:
                    g = build(a + b, kab + [(0, 1), (2, 3)])
                    assert arc_on_even_cycle(g, (0, 1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_every_arc_of_every_small_class(self, n):
        seen = Counter()
        for m in range(n - 1, comb(n, 2) + 1):
            for ug in enumerate_connected_underlying(n, m, max_n=n):
                g = build(n, ug.edges)
                for arc in g.arcs:
                    want = nx_arc_on_even_cycle(g, arc)
                    assert arc_on_even_cycle(g, arc) == want, (g, arc)
                    seen[want] += 1
        assert seen[False] and (seen[True] or n < 4)

    def test_vs_path_listing(self):
        rng = random.Random(2005)
        seen = Counter()
        for _ in range(150):
            n = rng.randint(2, 8)
            g = random_oriented(rng, n, rng.randint(1, min(comb(n, 2), 2 * n)))
            for arc in g.arcs:
                want = nx_arc_on_even_cycle(g, arc)
                assert arc_on_even_cycle(g, arc) == want
                seen[want] += 1
        assert min(seen[True], seen[False]) > 100


class TestBasicSubgraphs:
    def test_k2(self):
        out = enumerate_basic_subgraphs(build(2, [(0, 1)]), 2)
        assert len(out) == 1
        assert out[0].components == (ArcComponent(0, 1),)

    def test_empty_cover(self):
        g = oriented_star(4)
        out = enumerate_basic_subgraphs(g, 0)
        assert len(out) == 1 and out[0].components == ()
        assert out[0].weight() == 1

    def test_c4_cover(self):
        out = enumerate_basic_subgraphs(oriented_cycle(4, "odd"), 4)
        kinds = sorted(h.cycle_count for h in out)
        assert kinds == [0, 0, 1]  # two 2-matchings and the cycle itself

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError, match="even"):
            enumerate_basic_subgraphs(oriented_star(4), 3)

    def test_components_disjoint_and_unique(self):
        rng = random.Random(2006)
        for _ in range(20):
            g = random_oriented(rng, rng.randint(2, 7))
            for i in range(0, g.n + 1, 2):
                out = enumerate_basic_subgraphs(g, i)
                seen = set()
                for h in out:
                    assert h.vertex_count == i
                    verts = [v for c in h.components for v in c.vertices]
                    assert len(verts) == len(set(verts))
                    key = frozenset(
                        frozenset(c.vertices)
                        if isinstance(c, ArcComponent)
                        else (tuple(c.vertices), c.parity)
                        for c in h.components
                    )
                    assert key not in seen
                    seen.add(key)

    def test_chorded_cycles_included(self):
        # K4 contains three quadrangles; each appears as a cycle component
        k4 = build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        cycles = [
            h for h in enumerate_basic_subgraphs(k4, 4) if h.cycle_count == 1
        ]
        assert len(cycles) == 3


class TestCoefficientExpansion:
    def test_arc_count_at_index_two(self):
        rng = random.Random(2007)
        for _ in range(25):
            g = random_oriented(rng, rng.randint(2, 8))
            assert coefficient_by_expansion(g, 2) == g.m

    def test_c4_quartic(self):
        assert coefficient_by_expansion(oriented_cycle(4, "odd"), 4) == 4
        assert coefficient_by_expansion(oriented_cycle(4, "even"), 4) == 0

    def test_matches_charpoly_small(self):
        rng = random.Random(2008)
        for _ in range(40):
            g = random_oriented(rng, rng.randint(1, 7))
            p = charpoly(g)
            for i in range(0, g.n + 1, 2):
                assert coefficient_by_expansion(g, i) == p.coefficient(i)

    def test_matches_listing_and_charpoly(self):
        rng = random.Random(2011)
        for _ in range(60):
            g = random_oriented(rng, rng.randint(1, 9))
            p = charpoly(g)
            for i in range(0, g.n + 1, 2):
                listed = sum(h.weight() for h in enumerate_basic_subgraphs(g, i))
                assert coefficient_by_expansion(g, i) == listed == p.coefficient(i), (g, i)

    def test_dense_graphs(self):
        rng = random.Random(2012)
        k8 = random_oriented(rng, 8, 28)
        dense12 = random_oriented(rng, 12, 60)
        cases = [(k8, i) for i in range(0, 9, 2)] + [(dense12, 4)]
        for g, i in cases:
            listed = sum(h.weight() for h in enumerate_basic_subgraphs(g, i))
            assert coefficient_by_expansion(g, i) == listed == charpoly(g).coefficient(i)

    def test_invalid_index_rejected(self):
        g = oriented_star(4)
        with pytest.raises(ValueError, match="even"):
            coefficient_by_expansion(g, 3)
        for i in (-2, g.n + 2):
            with pytest.raises(ValueError, match="must lie in"):
                coefficient_by_expansion(g, i)


def _even_cycles_by_parity(g, v, avail, max_len):
    """(mask, length, weight) of every even cycle through v inside avail|{v},
    one traversal direction each, by brute force over vertex orders and
    weighted by cycle_parity."""
    adj = underlying(g).adjacency_masks()
    others = [w for w in range(g.n) if avail >> w & 1]
    found = Counter()
    for length in range(4, max_len + 1, 2):
        for rest in permutations(others, length - 1):
            seq = (v, *rest)
            if rest[0] < rest[-1] and all(adj[a] >> b & 1 for a, b in zip(seq, rest + (v,))):
                odd = cycle_parity(g, seq) is CycleParity.ODDLY_ORIENTED
                found[sum(1 << x for x in seq), length, 2 if odd else -2] += 1
    return found


class TestEvenCyclesAt:
    def test_weights_match_cycle_parity(self):
        # random orientations of K_6 and K_7, and the dense n = 8 case of
        # test_dense_graphs (a K_8); every v with the vertices above it,
        # as the expansion calls it, and v = 0 with a shorter length cap
        rng = random.Random(2013)
        graphs = [random_oriented(rng, n, comb(n, 2)) for n in (6, 7)]
        graphs.append(random_oriented(random.Random(2012), 8, 28))
        for g in graphs:
            adj = underlying(g).adjacency_masks()
            out = [0] * g.n
            for t, h in g.arcs:
                out[t] |= 1 << h
            full = (1 << g.n) - 1
            calls = [(v, full & (-2 << v), g.n) for v in range(g.n)] + [(0, full - 1, 4)]
            for v, avail, max_len in calls:
                cycles = _even_cycles_at(adj, out, v, avail, max_len)
                assert Counter(cycles) == _even_cycles_by_parity(g, v, avail, max_len), (g, v)


class TestA4Bound:
    def test_spec_examples(self):
        b = a4_bound_check(oriented_cycle(4, "even"))
        assert (b.lower_bound, b.a4, b.tight) == (0, 0, True)
        b = a4_bound_check(oriented_cycle(4, "odd"))
        assert (b.lower_bound, b.a4, b.tight) == (0, 4, False)
        b = a4_bound_check(construct_o_plus(6, 7))
        assert (b.lower_bound, b.a4, b.tight) == (4, 4, True)

    def test_small_graph_rejected(self):
        with pytest.raises(ValueError):
            a4_bound_check(build(3, [(0, 1)]))

    def test_a4_matches_charpoly(self):
        # a4 off the quadrangle parities against charpoly's trace route,
        # and for n <= 8 against the subgraph expansion
        rng = random.Random(2009)
        for n in range(4, 21):
            for _ in range(6):
                g = random_oriented(rng, n)
                a4 = a4_bound_check(g).a4
                assert a4 == charpoly(g).coefficient(4), g
                if n <= 8:
                    assert a4 == coefficient_by_expansion(g, 4), g

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_every_orientation_of_every_small_class(self, n):
        # tight exactly when cycle_parity finds every quadrangle evenly
        # oriented, and the a4 values over all 2^m orientations of a class
        # are those of its coefficient census
        for m in range(n - 1, comb(n, 2) + 1):
            for ug in enumerate_connected_underlying(n, m, max_n=n):
                quads = quadrangles(ug)
                a4s = Counter()
                for g in enumerate_orientations(ug):
                    b = a4_bound_check(g)
                    even = all(cycle_parity(g, q) is CycleParity.EVENLY_ORIENTED for q in quads)
                    assert b.tight == even == (b.a4 == b.lower_bound), g
                    a4s[b.a4] += 1
                census = Counter()
                for vec, count in orientation_coefficient_census(ug).items():
                    census[vec[2]] += count
                assert a4s == census, ug

    def test_lower_bound_from_matchings_and_quadrangles(self):
        # pins the closed form for M(G,2) against the matching recursion
        rng = random.Random(2013)
        for n in range(4, 15):
            top = comb(n, 2)
            for m in (n - 1, rng.randint(n, min(2 * n, top)), rng.randint(top // 2, top)):
                if m == n - 1:
                    g = build(n, random_tree_edges(rng, n))
                else:
                    g = random_oriented(rng, n, m)
                ug = underlying(g)
                want = count_matchings(ug, 2) - 2 * len(quadrangles(ug))
                assert a4_bound_check(g).lower_bound == want, g


def test_quadrangle_sequences_are_cycles():
    ug = underlying(fig_f_graph())
    adj = ug.adjacency_masks()
    for seq in quadrangles(ug):
        assert len(set(seq)) == 4
        for i in range(4):
            assert adj[seq[i]] >> seq[(i + 1) % 4] & 1
