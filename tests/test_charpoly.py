"""Exact characteristic polynomials, recurrences, and the quasi-order."""

import random
import sys
from math import comb

import numpy as np
import pytest

from skewenergy.charpoly import (
    QuasiOrder,
    SkewCharPoly,
    _int64_recursion_safe,
    _newton,
    _trace_batch,
    charpoly,
    charpoly_delete_arc,
    pendant_coefficients,
    quasi_compare,
)
from skewenergy.graphs import (
    build,
    construct_b_plus,
    construct_o_plus,
    oriented_cycle,
    oriented_path,
    oriented_star,
    skew_adjacency,
    underlying,
)
from skewenergy.subgraphs import arc_on_even_cycle

from _oracles import (
    charpoly_interpolated,
    faddeev_leverrier,
    random_connected_oriented,
    random_oriented,
    random_permuted,
)


class TestCharpoly:
    def test_oriented_k2(self):
        assert charpoly(build(2, [(0, 1)])).coeffs == (1, 1)

    def test_c4_both_parities(self):
        assert charpoly(oriented_cycle(4, "odd")).coeffs == (1, 4, 4)
        assert charpoly(oriented_cycle(4, "even")).coeffs == (1, 4, 0)

    def test_hub_construction_formulas(self):
        # quartic coefficients (m-n+1)(2n-m-3) and (m-n+2)(2n-m-4)
        for n in range(5, 9):
            for m in range(n, 2 * n - 2):
                want = [1, m, (m - n + 1) * (2 * n - m - 3)] + [0] * (n // 2 - 2)
                assert charpoly(construct_o_plus(n, m)).coeffs == tuple(want)
                if m <= 2 * n - 4:
                    want[2] = (m - n + 2) * (2 * n - m - 4)
                    assert charpoly(construct_b_plus(n, m)).coeffs == tuple(want)

    def test_named_small_cases(self):
        assert charpoly(construct_o_plus(6, 7)).coeffs == (1, 7, 4, 0)
        assert charpoly(construct_b_plus(6, 7)).coeffs == (1, 7, 3, 0)
        assert charpoly(oriented_path(3)).coeffs == (1, 2)
        assert charpoly(oriented_star(5)).coeffs == (1, 4, 0)

    def test_single_vertex_and_empty(self):
        assert charpoly(build(1, [])).coeffs == (1,)
        assert charpoly(build(3, [])).coeffs == (1, 0)

    def test_against_interpolation_oracle(self):
        rng = random.Random(3001)
        for _ in range(80):
            g = random_oriented(rng, rng.randint(1, 8))
            full = charpoly_interpolated(skew_adjacency(g).tolist())
            for k in range(1, g.n + 1, 2):
                assert full[k] == 0
            p = charpoly(g)
            assert p.coeffs == tuple(full[k] for k in range(0, g.n + 1, 2))

    def test_structure_invariants(self):
        rng = random.Random(3002)
        for _ in range(60):
            g = random_oriented(rng, rng.randint(1, 9))
            p = charpoly(g)
            assert p.coeffs[0] == 1
            assert all(c >= 0 for c in p.coeffs)
            if g.n >= 2:
                assert p.coeffs[1] == g.m

    def test_relabeling_invariance(self):
        rng = random.Random(3003)
        for _ in range(40):
            g = random_oriented(rng, rng.randint(2, 9))
            assert charpoly(random_permuted(rng, g)).coeffs == charpoly(g).coeffs

    def test_larger_than_int64_window_still_exact(self):
        # (18, 71) is one arc past the int64 bound at n = 18, so charpoly
        # takes the object-dtype path; (18, 40) stays in int64.  Both are
        # checked against the interpolation oracle, not just structurally
        assert _int64_recursion_safe(8, 28) and not _int64_recursion_safe(20, 48)
        rng = random.Random(3004)
        for m, safe in [(71, False), (40, True)]:
            g = random_connected_oriented(rng, 18, m)
            assert _int64_recursion_safe(g.n, g.m) is safe
            p = charpoly(g)
            full = charpoly_interpolated(skew_adjacency(g).tolist())
            assert p.coeffs == tuple(full[k] for k in range(0, g.n + 1, 2))


# non-skew members that each trip one check of the kernel
CORRUPT_MEMBERS = [
    ([[1, 0], [0, 0]], "odd trace"),
    ([[1, 0], [1, 1]], "e_2 is nonzero"),
    ([[1, -1], [0, -1]], "negative"),
    (
        [[-1, 0, 1, -1, 0], [1, -1, 1, -1, 0], [0, 1, -1, 0, -1],
         [1, -1, 0, 0, -1], [0, 1, 1, -1, -1]],
        "non-exact division",
    ),
]


def _coeff_rows(mats):
    """_newton on every row of _trace_batch over a stack of skew matrices."""
    h = mats.shape[1] // 2
    return [_newton(tuple(row), h) for row in _trace_batch(mats).tolist()]


class TestBatchedRecursion:
    def test_matches_scalar(self):
        rng = random.Random(3005)
        for _ in range(10):
            n = rng.randint(2, 7)
            graphs = [random_oriented(rng, n) for _ in range(8)]
            mats = np.stack([skew_adjacency(g) for g in graphs])
            for g, row in zip(graphs, _coeff_rows(mats)):
                assert row == charpoly(g).coeffs

    @pytest.mark.parametrize("n", range(1, 12))
    def test_matches_faddeev_leverrier_and_interpolation(self, n):
        rng = random.Random(3008 + n)
        mats = np.stack([skew_adjacency(random_oriented(rng, n)) for _ in range(6)])
        for s, row in zip(mats, _coeff_rows(mats)):
            full = faddeev_leverrier(s)
            assert full == charpoly_interpolated(s.tolist())
            assert all(c == 0 for c in full[1::2])
            assert list(row) == full[::2]

    # the largest arc count that runs in int64 on n vertices; at n = 15 it
    # is every pair, C(15, 2) = 105
    LARGEST_INT64_M = {15: 105, 16: 113, 18: 70, 20: 47}

    @pytest.mark.parametrize("n", [15, 16, 18, 20])
    def test_int64_object_boundary(self, n):
        # random graphs at the largest int64 arc count and one arc past it
        top = self.LARGEST_INT64_M[n]
        assert _int64_recursion_safe(n, top)
        rng = random.Random(3009 + n)
        for m in range(top, min(top + 2, comb(n, 2) + 1)):
            safe = m == top
            assert _int64_recursion_safe(n, m) is safe
            s = skew_adjacency(random_oriented(rng, n, m))
            assert _trace_batch(s[None]).dtype == (np.int64 if safe else object)
            assert list(_coeff_rows(s[None])[0]) == charpoly_interpolated(s.tolist())[::2]

    def test_mixed_batch_takes_object_path(self):
        # one sparse and one dense n = 16 matrix: the dense one decides
        # the dtype for the whole batch, and neither row changes
        rng = random.Random(3010)
        sparse, dense = random_oriented(rng, 16, 20), random_oriented(rng, 16, 114)
        assert _int64_recursion_safe(16, sparse.m) and not _int64_recursion_safe(16, dense.m)
        mats = np.stack([skew_adjacency(sparse), skew_adjacency(dense)])
        assert _trace_batch(mats).dtype == object
        assert _coeff_rows(mats) == [charpoly(sparse).coeffs, charpoly(dense).coeffs]

    @pytest.mark.parametrize("corrupt,match", CORRUPT_MEMBERS)
    def test_non_skew_member_trips_a_check(self, corrupt, match):
        bad = np.array(corrupt, dtype=np.int64)
        good = skew_adjacency(oriented_path(len(bad)))
        with pytest.raises(RuntimeError, match=match):
            _coeff_rows(np.stack([good, bad]))

    @pytest.mark.parametrize("corrupt,match", CORRUPT_MEMBERS)
    @pytest.mark.parametrize("place", ["first", "repeated"])
    def test_corrupt_row_first_or_repeated(self, corrupt, match, place):
        # a corrupt row trips its check wherever it sits, and also when
        # it repeats
        bad = np.array(corrupt, dtype=np.int64)
        good = skew_adjacency(oriented_path(len(bad)))
        rows = [bad, good] if place == "first" else [good, bad, good, bad, bad]
        with pytest.raises(RuntimeError, match=match):
            _coeff_rows(np.stack(rows))


class TestDeleteArcIdentity:
    def test_oriented_k2(self):
        g = build(2, [(0, 1)])
        assert charpoly_delete_arc(g, (0, 1)).coeffs == (1, 1)

    def test_path3_pendant_arc(self):
        g = oriented_path(3)
        assert charpoly_delete_arc(g, (1, 2)).coeffs == (1, 2)

    def test_triangle_any_arc(self):
        tri = build(3, [(0, 1), (1, 2), (2, 0)])
        for arc in tri.arcs:
            assert charpoly_delete_arc(tri, arc).coeffs == charpoly(tri).coeffs

    def test_absent_arc_rejected(self):
        with pytest.raises(ValueError, match="not present"):
            charpoly_delete_arc(build(2, [(0, 1)]), (1, 0))

    def test_even_cycle_arc_rejected(self):
        with pytest.raises(ValueError, match="even cycle"):
            charpoly_delete_arc(oriented_cycle(4, "odd"), (0, 1))

    def test_complete_bipartite_plus_inside_arc(self):
        # (0, 1) lies on triangles but on no even cycle; a second inside
        # arc (2, 3) puts it on the 6-cycle 0, 6, 2, 3, 7, 1
        k66 = [(i, 6 + j) for i in range(6) for j in range(6)]
        g = build(12, k66 + [(0, 1)])
        assert charpoly_delete_arc(g, (0, 1)).coeffs == charpoly(g).coeffs
        with pytest.raises(ValueError, match="even cycle"):
            charpoly_delete_arc(build(12, k66 + [(0, 1), (2, 3)]), (0, 1))

    def test_random_applicable_arcs(self):
        rng = random.Random(3006)
        done = 0
        while done < 40:
            g = random_connected_oriented(rng, rng.randint(3, 8))
            usable = [a for a in g.arcs if not arc_on_even_cycle(g, a)]
            if not usable:
                continue
            arc = rng.choice(usable)
            assert charpoly_delete_arc(g, arc).coeffs == charpoly(g).coeffs
            done += 1


class TestPendantRecurrence:
    def test_star4_leaf(self):
        g = oriented_star(4)
        p = pendant_coefficients(g, 0, 3)
        assert p.coeffs == charpoly(g).coeffs == (1, 3, 0)

    def test_oriented_k2(self):
        assert pendant_coefficients(build(2, [(0, 1)]), 0, 1).coeffs == (1, 1)

    def test_b_plus_5_5_leaf(self):
        g = construct_b_plus(5, 5)
        leaf = underlying(g).degrees().index(1)
        anchor = underlying(g).adjacency_masks()[leaf].bit_length() - 1
        assert pendant_coefficients(g, anchor, leaf).coeffs == charpoly(g).coeffs

    def test_not_pendant_rejected(self):
        g = oriented_cycle(4, "odd")
        with pytest.raises(ValueError, match="pendant"):
            pendant_coefficients(g, 0, 1)
        with pytest.raises(ValueError, match="pendant"):
            pendant_coefficients(oriented_star(4), 1, 0)

    def test_random_pendants(self, monkeypatch):
        # a pendant arc lies on no cycle, so no even-cycle search may run
        def no_search(g, u, v):
            raise AssertionError("pendant_coefficients searched for an even cycle")

        monkeypatch.setattr(sys.modules["skewenergy.charpoly"], "_on_even_cycle", no_search)
        rng = random.Random(3007)
        done = 0
        while done < 40:
            g = random_connected_oriented(rng, rng.randint(2, 8))
            degs = underlying(g).degrees()
            leaves = [v for v, d in enumerate(degs) if d == 1]
            if not leaves:
                continue
            v = rng.choice(leaves)
            u = underlying(g).adjacency_masks()[v].bit_length() - 1
            assert pendant_coefficients(g, u, v).coeffs == charpoly(g).coeffs
            done += 1


class TestQuasiOrder:
    def test_spec_examples(self):
        p = SkewCharPoly(6, (1, 7, 3, 0))
        q = SkewCharPoly(6, (1, 7, 4, 0))
        assert quasi_compare(p, q) is QuasiOrder.STRICTLY_LESS
        assert quasi_compare(q, p) is QuasiOrder.STRICTLY_GREATER
        assert quasi_compare(p, p) is QuasiOrder.EQUIVALENT
        a = SkewCharPoly(5, (1, 5, 2))
        b = SkewCharPoly(5, (1, 6, 1))
        assert quasi_compare(a, b) is QuasiOrder.INCOMPARABLE

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal degree"):
            quasi_compare(SkewCharPoly(4, (1, 0, 0)), SkewCharPoly(5, (1, 0, 0)))


class TestSkewCharPolyType:
    def test_line_round_trip(self):
        p = SkewCharPoly(6, (1, 7, 4, 0))
        assert p.line() == "6: 1 7 4 0"
        assert SkewCharPoly.from_line(p.line()) == p

    def test_validation(self):
        with pytest.raises(ValueError, match="leading"):
            SkewCharPoly(4, (2, 0, 0))
        with pytest.raises(ValueError, match="negative"):
            SkewCharPoly(4, (1, -1, 0))
        with pytest.raises(ValueError, match="expected"):
            SkewCharPoly(4, (1, 0))
        with pytest.raises(ValueError, match="malformed"):
            SkewCharPoly.from_line("nope")

    def test_coefficient_access(self):
        p = SkewCharPoly(5, (1, 4, 2))
        assert [p.coefficient(i) for i in range(6)] == [1, 0, 4, 0, 2, 0]
        with pytest.raises(IndexError):
            p.coefficient(6)
