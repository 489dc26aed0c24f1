"""Matchings, quadrangles, cycle parity, and the coefficient expansion."""

import random
from collections import Counter
from math import comb

import pytest

from skewenergy.charpoly import charpoly
from skewenergy.graphs import (
    build,
    construct_o_plus,
    oriented_cycle,
    oriented_star,
    underlying,
)
from skewenergy.subgraphs import (
    ArcComponent,
    CycleComponent,
    CycleParity,
    a4_bound_check,
    arc_on_even_cycle,
    coefficient_by_expansion,
    count_matchings,
    count_quadrangles,
    cycle_parity,
    enumerate_basic_subgraphs,
    matching_counts,
    quadrangles,
)

from _oracles import brute_matchings, brute_quadrangle_edge_sets, random_oriented


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

    def test_absent_arc_rejected(self):
        with pytest.raises(ValueError, match="not present"):
            arc_on_even_cycle(build(2, [(0, 1)]), (1, 0))


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

    def test_bound_never_exceeded(self):
        rng = random.Random(2009)
        for _ in range(40):
            g = random_oriented(rng, rng.randint(4, 8))
            b = a4_bound_check(g)
            assert b.a4 >= b.lower_bound


def test_quadrangle_sequences_are_cycles():
    ug = underlying(fig_f_graph())
    for seq in quadrangles(ug):
        assert len(set(seq)) == 4
        for i in range(4):
            assert ug.has_edge(seq[i], seq[(i + 1) % 4])
