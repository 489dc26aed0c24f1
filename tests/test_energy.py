"""Spectral vs integral energy, tree invariance, and monotonicity."""

import math
import random
import statistics

import mpmath as mp
import numpy as np
import pytest

from skewenergy.charpoly import QuasiOrder, SkewCharPoly, charpoly, quasi_compare
from skewenergy.energy import (
    _truncation,
    adjacency_energy_tree,
    energy_from_even_coeffs,
    energy_from_even_coeffs_precise,
    energy_report,
    log_psi_over_x2,
    skew_energy_integral,
    skew_energy_spectral,
)
from skewenergy.extremal import orientation_coefficient_census
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

from _oracles import random_oriented, random_tree_edges


class TestSpectral:
    def test_closed_forms(self):
        assert skew_energy_spectral(build(2, [(0, 1)])) == pytest.approx(2.0, abs=1e-12)
        for n in (3, 5, 8):
            assert skew_energy_spectral(oriented_star(n)) == pytest.approx(
                2 * math.sqrt(n - 1), abs=1e-10
            )
        assert skew_energy_spectral(construct_o_plus(6, 7)) == pytest.approx(
            2 * math.sqrt(11), abs=1e-10
        )
        assert skew_energy_spectral(oriented_cycle(4, "even")) == pytest.approx(4.0, abs=1e-10)
        assert skew_energy_spectral(oriented_cycle(4, "odd")) == pytest.approx(
            4 * math.sqrt(2), abs=1e-10
        )

    def test_matches_complex_eigenvalues(self):
        rng = random.Random(4001)
        for _ in range(25):
            g = random_oriented(rng, rng.randint(1, 10))
            direct = float(np.abs(np.linalg.eigvals(skew_adjacency(g).astype(float))).sum())
            assert skew_energy_spectral(g) == pytest.approx(direct, abs=1e-9)


class TestIntegral:
    def test_k2(self):
        res = skew_energy_integral(SkewCharPoly(2, (1, 1)), tol=1e-9)
        assert res.tolerance_met
        assert res.value == pytest.approx(2.0, abs=1e-9)

    def test_oddly_oriented_c4(self):
        res = skew_energy_integral(SkewCharPoly(4, (1, 4, 4)), tol=1e-9)
        assert res.value == pytest.approx(4 * math.sqrt(2), abs=1e-9)

    def test_trivial_psi_gives_zero(self):
        assert skew_energy_integral(SkewCharPoly(1, (1,))).value == 0.0
        assert skew_energy_integral(SkewCharPoly(3, (1, 0))).value == 0.0

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            skew_energy_integral(SkewCharPoly(2, (1, 1)), tol=0.0)

    def test_node_cap_reported(self):
        res = skew_energy_integral(SkewCharPoly(4, (1, 4, 4)), tol=1e-12, node_cap=200)
        assert not res.tolerance_met
        assert res.nodes <= 200 + 44  # one refinement round may finish

    def test_against_scipy_quad(self):
        from scipy.integrate import quad

        for coeffs in [(1, 1), (1, 4, 4), (1, 7, 4, 0), (1, 9, 4, 0, 0)]:
            n = 2 * (len(coeffs) - 1)
            p = SkewCharPoly(n, coeffs)

            def f(x):
                return log_psi_over_x2(coeffs, np.array([x]))[0]

            ref, err = quad(f, 0.0, np.inf, limit=400)
            ref *= 2.0 / math.pi
            got = skew_energy_integral(p, tol=1e-10).value
            assert got == pytest.approx(ref, abs=max(1e-8, 10 * err))

    def test_route_agreement_random(self):
        rng = random.Random(4002)
        for _ in range(40):
            g = random_oriented(rng, rng.randint(1, 10))
            rep = energy_report(g, tol=1e-9)
            assert rep.discrepancy <= 1e-6
            assert rep.tolerance_met

    def test_random_routes_agree_closely_from_few_nodes(self):
        rng = random.Random(4002)
        reports = [energy_report(random_oriented(rng, rng.randint(1, 10))) for _ in range(40)]
        assert statistics.median(rep.quadrature_nodes for rep in reports) < 800
        assert max(rep.discrepancy for rep in reports) <= 1e-11

    @pytest.mark.parametrize(
        "coeffs,exact,bound",
        [
            ((1, 1), lambda: mp.mpf(2), 1e-13),
            ((1, 2, 1), lambda: mp.mpf(4), 1e-13),
            ((1, 4, 4), lambda: 4 * mp.sqrt(2), 1e-13),
            ((1, 6, 1), lambda: 2 * mp.sqrt(8), 1e-13),
            ((1, 6, 12, 8), lambda: 6 * mp.sqrt(2), 1e-13),
            ((1, 7, 4, 0), lambda: 2 * mp.sqrt(11), 1e-13),
            (
                (1, 10, 7, 0, 0, 0),
                lambda: energy_from_even_coeffs_precise((1, 10, 7, 0, 0, 0)),
                1e-12,
            ),
        ],
    )
    def test_exact_values_within_the_estimate(self, coeffs, exact, bound):
        res = skew_energy_integral(SkewCharPoly(2 * (len(coeffs) - 1), coeffs))
        assert res.tolerance_met
        with mp.workdps(40):
            error = abs(mp.mpf(res.value) - exact())
            assert error <= bound
            assert res.est_error >= error

    @pytest.mark.parametrize("coeffs", [(1, 4, 4), (1, 7, 4, 0)])
    @pytest.mark.parametrize("node_cap", [50, 200, 1000])
    def test_node_cap_is_never_exceeded(self, coeffs, node_cap):
        p = SkewCharPoly(2 * (len(coeffs) - 1), coeffs)
        res = skew_energy_integral(p, tol=1e-14, node_cap=node_cap)
        assert res.nodes <= node_cap
        assert res.tolerance_met == (res.est_error <= 1e-14)

    @pytest.mark.parametrize(
        "coeffs", [(1, 1), (1, 10, 7, 0, 0, 0), (1, 19, 121, 313, 310, 88, 0, 0)]
    )
    @pytest.mark.parametrize("eps", [1e-3, 1e-15])
    def test_tail_bounds_cover_the_tails(self, coeffs, eps):
        lo, hi, left, right = _truncation(list(coeffs), eps)
        assert lo <= 0 <= hi
        assert left <= eps and right <= eps
        tail = list(coeffs)[:0:-1]  # a_2h, ..., a_2

        def f(t):
            x = mp.exp(t)
            y = x * x
            return mp.log1p(y * mp.polyval(tail, y)) / x

        # for psi = 1 + x^2 the left bound is tight to 1e-31, below the
        # rounding of the float that carries it
        slack = 1 + 2.0**-50
        with mp.workdps(30):
            assert mp.quad(f, [-mp.inf, lo]) <= left * slack
            assert mp.quad(f, [hi, mp.inf]) <= right * slack

    @pytest.mark.parametrize("coeffs", [(1, 1), (1, 6, 12, 8), (1, 19, 121, 313, 310, 88, 0, 0)])
    def test_integrand_within_the_rounding_allowance(self, coeffs):
        """Each node value x * ln(psi(x)) / x^2 at x = e^t is within 4 * 2^-52
        of its exact value, the share of the estimate's rounding allowance
        that the integrand takes."""
        t = np.arange(-40.0, 45.0, 0.25)
        x = np.exp(t)
        values = x * log_psi_over_x2(coeffs, x)
        tail = list(coeffs)[:0:-1]
        with mp.workdps(40):
            for ti, got in zip(t, values):
                xe = mp.exp(ti)
                y = xe * xe
                exact = mp.log1p(y * mp.polyval(tail, y)) / xe
                assert abs(got - exact) <= 4 * 2.0**-52 * exact


class TestDerivativeFormSpotCheck:
    """The log-derivative integrand n - x phi'(x)/phi(x), integrated over
    the line, reproduces the energy; checked at small order with a
    numerically differentiated phi."""

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize(
        "g",
        [
            build(2, [(0, 1)]),
            oriented_path(3),
            build(3, [(0, 1), (1, 2), (2, 0)]),
            oriented_cycle(4, "odd"),
        ],
        ids=["k2", "p3", "triangle", "c4odd"],
    )
    def test_matches_energy(self, g):
        from scipy.integrate import quad

        p = charpoly(g)
        n = g.n
        dense = [p.coefficient(i) for i in range(n + 1)]  # a_i of x^(n-i)

        def phi(x):
            return sum(a * x ** (n - i) for i, a in enumerate(dense))

        h = 1e-6

        def integrand(x):
            if abs(x) < 1e-9:
                x = 1e-9
            dphi = (phi(x + h) - phi(x - h)) / (2 * h)
            return n - x * dphi / phi(x)

        val = (2.0 / math.pi) * quad(integrand, 0, np.inf, limit=300)[0]
        assert val == pytest.approx(skew_energy_spectral(g), abs=1e-4)


class TestTreeInvariance:
    def test_all_orientations_share_one_polynomial(self):
        rng = random.Random(4003)
        for _ in range(12):
            n = rng.randint(2, 9)
            ug = underlying(build(n, random_tree_edges(rng, n)))
            census = orientation_coefficient_census(ug)
            assert len(census) == 1
            assert sum(census.values()) == 2 ** (n - 1)
            (coeffs,) = census
            tree_energy = adjacency_energy_tree(ug)
            assert energy_from_even_coeffs(coeffs) == pytest.approx(tree_energy, abs=1e-8)

    def test_p4_energy(self):
        g = oriented_path(4)
        assert adjacency_energy_tree(underlying(g)) == pytest.approx(
            skew_energy_spectral(g), abs=1e-8
        )
        assert skew_energy_spectral(g) == pytest.approx(2 * math.sqrt(5), abs=1e-10)

    def test_adjacency_energy_examples(self):
        assert adjacency_energy_tree(underlying(oriented_path(2))) == pytest.approx(2.0)
        assert adjacency_energy_tree(underlying(oriented_star(5))) == pytest.approx(4.0)

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError, match="not a tree"):
            adjacency_energy_tree(underlying(oriented_cycle(4, "odd")))


class TestMonotonicity:
    def test_strict_dominance_means_smaller_energy(self):
        rng = random.Random(4004)
        polys = []
        for _ in range(60):
            g = random_oriented(rng, 6)
            polys.append((charpoly(g), skew_energy_spectral(g)))
        comparable = strict = 0
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                p, ep = polys[i]
                q, eq = polys[j]
                rel = quasi_compare(p, q)
                if rel is QuasiOrder.INCOMPARABLE:
                    continue
                comparable += 1
                if rel is QuasiOrder.EQUIVALENT:
                    assert abs(ep - eq) <= 1e-8
                elif rel is QuasiOrder.STRICTLY_LESS:
                    strict += 1
                    assert ep < eq - 1e-10
                else:
                    strict += 1
                    assert eq < ep - 1e-10
        assert comparable > 0 and strict > 0


class TestCoefficientEnergy:
    def test_matches_spectral(self):
        rng = random.Random(4005)
        for _ in range(40):
            g = random_oriented(rng, rng.randint(1, 9))
            assert energy_from_even_coeffs(charpoly(g).coeffs) == pytest.approx(
                skew_energy_spectral(g), abs=1e-8
            )

    def test_closed_forms(self):
        assert energy_from_even_coeffs((1, 7, 4, 0)) == pytest.approx(2 * math.sqrt(11))
        assert energy_from_even_coeffs((1, 7, 3, 0)) == pytest.approx(
            2 * math.sqrt(7 + 2 * math.sqrt(3))
        )
        assert energy_from_even_coeffs((1,)) == 0.0


class TestPreciseEnergy:
    """The 60-digit route returns for repeated and zero roots, where a
    root finder does not converge."""

    @pytest.mark.parametrize(
        "coeffs,closed_form",
        [
            ((1, 4, 4), lambda: 2 * mp.sqrt(8)),
            ((1, 6, 1), lambda: 2 * mp.sqrt(8)),
            ((1, 2, 1), lambda: mp.mpf(4)),
            ((1, 6, 12, 8), lambda: 6 * mp.sqrt(2)),
            ((1, 7, 4, 0), lambda: 2 * mp.sqrt(11)),
            ((1,), lambda: mp.mpf(0)),
        ],
    )
    def test_closed_forms(self, coeffs, closed_form):
        with mp.workdps(60):
            error = energy_from_even_coeffs_precise(coeffs) - closed_form()
            assert abs(error) < mp.mpf("1e-40")

    def test_three_zero_roots_match_float_route(self):
        coeffs = (1, 10, 7, 0, 0, 0)
        precise = energy_from_even_coeffs_precise(coeffs)
        assert abs(float(precise) - energy_from_even_coeffs(coeffs)) < 1e-9


def test_psi_positivity_on_grid():
    rng = random.Random(4006)
    for _ in range(20):
        g = random_oriented(rng, rng.randint(1, 8))
        coeffs = charpoly(g).coeffs
        xs = np.concatenate([np.linspace(-50, 50, 401), [1e-12, -1e-12, 1e9, -1e9]])
        vals = log_psi_over_x2(coeffs, xs)
        assert np.all(vals >= 0.0)
        if g.n >= 2:
            assert log_psi_over_x2(coeffs, np.array([0.0]))[0] == pytest.approx(g.m)


def test_report_discrepancy_fields():
    rep = energy_report(construct_b_plus(6, 7), tol=1e-9)
    want = 2 * math.sqrt(7 + 2 * math.sqrt(3))
    assert rep.spectral == pytest.approx(want, abs=1e-8)
    assert rep.integral == pytest.approx(want, abs=1e-8)
    assert rep.discrepancy == abs(rep.spectral - rep.integral)
    assert rep.quadrature_nodes > 0
