"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete.  Every tolerance is pinned here; coefficient checks are
exact integer comparisons with zero tolerance.
"""

import itertools
import math
import random
import statistics
import time
from math import comb

import pytest

from skewenergy.charpoly import (
    QuasiOrder,
    charpoly,
    charpoly_delete_arc,
    pendant_coefficients,
    quasi_compare,
)
from skewenergy.energy import (
    adjacency_energy_tree,
    energy_from_even_coeffs,
    energy_report,
    skew_energy_integral,
    skew_energy_spectral,
)
from skewenergy.extremal import (
    enumerate_connected_underlying,
    orientation_coefficient_census,
    verify_quadrangle_bound,
    verify_quadrangle_bound_max_degree,
    verify_theorem_1,
)
from skewenergy.graphs import (
    OrientedGraph,
    UndirectedGraph,
    build,
    construct_b_plus,
    construct_o_plus,
    oriented_cycle,
    skew_adjacency,
    underlying,
)
from skewenergy.subgraphs import (
    CycleParity,
    arc_on_even_cycle,
    coefficient_by_expansion,
    count_matchings,
    count_quadrangles,
    cycle_parity,
    quadrangles,
)

from _oracles import (
    enumerate_orientations,
    random_connected_oriented,
    random_oriented,
    random_tree_edges,
)

THEOREM_PAIRS = [(5, 5), (6, 6), (6, 7), (7, 7), (7, 8), (7, 9)]


@pytest.fixture(scope="module")
def corpus500():
    """500 random connected oriented graphs with n <= 8 (criteria 2 and 9)."""
    rng = random.Random(84629)
    graphs = []
    for _ in range(500):
        n = rng.randint(2, 8)
        graphs.append(random_connected_oriented(rng, n))
    return graphs


def test_criterion_1_theorem_reproduction():
    start = time.time()
    for n, m in THEOREM_PAIRS:
        cert = verify_theorem_1(n, m)
        o_vec = charpoly(construct_o_plus(n, m)).coeffs
        b_vec = charpoly(construct_b_plus(n, m)).coeffs
        assert cert.verdict == "pass", (n, m, cert)
        if 2 * m < 3 * n - 5:
            assert cert.predicted == "O_plus" and cert.min_coeffs == o_vec
        elif 2 * m == 3 * n - 5:
            assert cert.predicted == "Both"
            assert o_vec == b_vec and cert.min_coeffs == o_vec
        else:
            assert cert.predicted == "B_plus" and cert.min_coeffs == b_vec
        assert cert.orientations_scanned == cert.graphs_scanned * 2**m
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(
        f"criterion 1 (minimal-energy reproduction at {THEOREM_PAIRS}): "
        f"PASS in {elapsed:.1f}s"
    )


def test_criterion_2_oracle_equivalence(corpus500):
    checked = 0
    for g in corpus500:
        p = charpoly(g)
        for i in range(0, g.n + 1, 2):
            assert p.coefficient(i) == coefficient_by_expansion(g, i), (g, i)
            checked += 1
    exhaustive = 0
    for n in range(1, 6):
        pool = list(itertools.combinations(range(n), 2))
        for r in range(len(pool) + 1):
            for edge_set in itertools.combinations(pool, r):
                for code in range(1 << r):
                    arcs = tuple(
                        (u, v) if not (code >> k) & 1 else (v, u)
                        for k, (u, v) in enumerate(edge_set)
                    )
                    g = OrientedGraph(n, arcs)
                    p = charpoly(g)
                    for i in range(0, n + 1, 2):
                        assert p.coefficient(i) == coefficient_by_expansion(g, i)
                    exhaustive += 1
    print(
        "criterion 2 (coefficient oracle equivalence): PASS on "
        f"{len(corpus500)} random graphs ({checked} coefficients) and all "
        f"{exhaustive} oriented graphs with n <= 5, zero tolerance"
    )


def test_criterion_3_integral_vs_spectral():
    rng = random.Random(55117)
    node_counts = []
    worst = 0.0
    for _ in range(200):
        g = random_oriented(rng, rng.randint(1, 10))
        rep = energy_report(g, tol=1e-9)
        assert rep.tolerance_met
        worst = max(worst, rep.discrepancy)
        assert rep.discrepancy <= 1e-6, g
        node_counts.append(rep.quadrature_nodes)
    median_nodes = statistics.median(node_counts)
    print(
        "criterion 3 (integral vs spectral on 200 random graphs, tol 1e-9): "
        f"PASS, worst discrepancy {worst:.2e}, median quadrature nodes {median_nodes:.0f}"
    )


def test_criterion_4_closed_forms():
    cases = [
        ("o-plus(6,7)", construct_o_plus(6, 7), 2 * math.sqrt(11)),
        ("b-plus(6,7)", construct_b_plus(6, 7), 2 * math.sqrt(7 + 2 * math.sqrt(3))),
        ("oddly oriented C4", oriented_cycle(4, "odd"), 4 * math.sqrt(2)),
        ("evenly oriented C4", oriented_cycle(4, "even"), 4.0),
    ]
    import numpy as np

    for label, g, want in cases:
        got = skew_energy_spectral(g)
        assert abs(got - want) <= 1e-8, label
        # independent dense eigenvalue oracle on the skew matrix itself
        dense = float(np.abs(np.linalg.eigvals(skew_adjacency(g).astype(float))).sum())
        assert abs(dense - want) <= 1e-8, label
        assert abs(skew_energy_integral(charpoly(g), tol=1e-10).value - want) <= 1e-7
    print("criterion 4 (closed-form energies, 1e-8): PASS on " + ", ".join(c[0] for c in cases))


def test_criterion_5_tree_invariance():
    rng = random.Random(90210)
    for trial in range(50):
        n = rng.randint(2, 9)
        ug = UndirectedGraph(n, tuple(random_tree_edges(rng, n)))
        census = orientation_coefficient_census(ug)
        assert len(census) == 1, ug
        assert sum(census.values()) == 2 ** (n - 1)
        (coeffs,) = census
        reference = adjacency_energy_tree(ug)
        assert abs(energy_from_even_coeffs(coeffs) - reference) <= 1e-8
        sample = next(enumerate_orientations(ug))
        assert charpoly(sample).coeffs == coeffs
        assert abs(skew_energy_spectral(sample) - reference) <= 1e-8
    print(
        "criterion 5 (tree orientation invariance, 50 trees, all orientations): "
        "PASS, energies match adjacency energy within 1e-8"
    )


def test_criterion_6_quartic_tightness():
    scanned = 0
    for base in (oriented_cycle(4, "odd"), construct_o_plus(6, 7)):
        ug = underlying(base)
        m2 = count_matchings(ug, 2)
        quads = quadrangles(ug)
        bound = m2 - 2 * len(quads)
        for g in enumerate_orientations(ug):
            a4 = charpoly(g).coefficient(4)
            all_even = all(
                cycle_parity(g, seq) is CycleParity.EVENLY_ORIENTED for seq in quads
            )
            assert a4 >= bound
            assert (a4 == bound) == all_even, g
            scanned += 1
    print(
        f"criterion 6 (quartic lower bound tightness): PASS over {scanned} "
        "orientations of C4 and the (6,7) hub graph, zero tolerance"
    )


def test_criterion_7_quadrangle_bounds_and_base_case():
    checked = 0
    for n, m in THEOREM_PAIRS:
        rep = verify_quadrangle_bound(n, m)
        assert rep.passed, (n, m, rep)
        rep_dom = verify_quadrangle_bound_max_degree(n, m)
        assert rep_dom.passed, (n, m, rep_dom)
        checked += rep.witnesses_checked + rep_dom.witnesses_checked
    base = [g for g in enumerate_connected_underlying(5, 5) if g.max_degree() <= 3]
    assert len(base) == 4
    print(
        "criterion 7 (quadrangle bounds over full enumeration): PASS, "
        f"{checked} witnesses, and exactly 4 connected (5,5) classes with max degree <= 3"
    )


def test_criterion_8_recurrence_identities():
    rng = random.Random(31415)
    deletions = 0
    attempts = 0
    while deletions < 200:
        attempts += 1
        assert attempts < 20000
        g = random_connected_oriented(rng, rng.randint(3, 9))
        usable = [a for a in g.arcs if not arc_on_even_cycle(g, a)]
        if not usable:
            continue
        arc = rng.choice(usable)
        assert charpoly_delete_arc(g, arc).coeffs == charpoly(g).coeffs
        deletions += 1
    pendants = 0
    attempts = 0
    while pendants < 200:
        attempts += 1
        assert attempts < 20000
        g = random_connected_oriented(rng, rng.randint(2, 9))
        degs = underlying(g).degrees()
        leaves = [v for v, d in enumerate(degs) if d == 1]
        if not leaves:
            continue
        v = rng.choice(leaves)
        u = underlying(g).adjacency_masks()[v].bit_length() - 1
        assert pendant_coefficients(g, u, v).coeffs == charpoly(g).coeffs
        pendants += 1
    print(
        "criterion 8 (recurrence identities): PASS on 200 arc-deletion and "
        "200 pendant instances, exact equality"
    )


def test_criterion_9_monotonicity(corpus500):
    polys = [charpoly(g) for g in corpus500]
    energies = [skew_energy_spectral(g) for g in corpus500]
    by_n: dict[int, list[int]] = {}
    for idx, g in enumerate(corpus500):
        by_n.setdefault(g.n, []).append(idx)
    strict = equivalent = 0
    for indices in by_n.values():
        for i, j in itertools.combinations(indices, 2):
            rel = quasi_compare(polys[i], polys[j])
            if rel is QuasiOrder.INCOMPARABLE:
                continue
            if rel is QuasiOrder.EQUIVALENT:
                equivalent += 1
                assert abs(energies[i] - energies[j]) <= 1e-8
            elif rel is QuasiOrder.STRICTLY_LESS:
                strict += 1
                assert energies[i] < energies[j] - 1e-10
            else:
                strict += 1
                assert energies[j] < energies[i] - 1e-10
    assert strict > 0 and equivalent > 0
    print(
        "criterion 9 (quasi-order monotonicity on criterion 2's corpus): PASS, "
        f"{strict} strict and {equivalent} equivalent comparable pairs"
    )
