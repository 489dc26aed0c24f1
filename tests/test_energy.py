"""Spectral vs integral energy, tree invariance, and monotonicity."""

import math
import random
import statistics

import mpmath as mp
import numpy as np
import pytest

from skewenergy.charpoly import QuasiOrder, SkewCharPoly, charpoly, quasi_compare
from skewenergy import energy
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

from _oracles import random_oriented, random_tree_edges, trapezoid_by_halving


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
        # below 2^-48 no graph with an arc can meet tol; a tol of 1e-200
        # would put the top grid nodes where x^2 overflows
        for tol in (0.0, -1.0, math.inf, math.nan, 1e-320, 1e-200, 2.0**-49):
            with pytest.raises(ValueError, match=r"finite and at least 2\^-48"):
                skew_energy_integral(SkewCharPoly(2, (1, 1)), tol=tol)

    def test_least_tolerance_accepted(self):
        res = skew_energy_integral(SkewCharPoly(2, (1, 1)), tol=2.0**-48)
        assert res.value == pytest.approx(2.0, abs=1e-14)

    def test_stops_once_rounding_alone_exceeds_tol(self):
        # E = 2 sqrt(11) puts the rounding allowance at 1.18e-14 > tol: the
        # rule stops as soon as a halving moves the value by no more than
        # it, where halving on to the node cap (827,393 nodes) changes neither
        # the value nor the error estimate
        res = skew_energy_integral(charpoly(construct_o_plus(6, 7)), tol=1e-14)
        assert not res.tolerance_met
        assert res.nodes <= 1000
        assert res.value == pytest.approx(2 * math.sqrt(11), rel=1e-15)
        assert res.est_error == pytest.approx(1.1783025495855851e-14, rel=1e-9)

    def test_node_cap_reported(self, monkeypatch):
        monkeypatch.setattr(energy, "_NODE_CAP", 200)
        res = skew_energy_integral(SkewCharPoly(4, (1, 4, 4)), tol=1e-12)
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
    def test_node_cap_is_never_exceeded(self, monkeypatch, coeffs, node_cap):
        monkeypatch.setattr(energy, "_NODE_CAP", node_cap)
        p = SkewCharPoly(2 * (len(coeffs) - 1), coeffs)
        res = skew_energy_integral(p, tol=1e-14)
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


def _seeded_polys() -> list[SkewCharPoly]:
    rng = random.Random(4010)
    polys = [charpoly(random_oriented(rng, rng.randint(2, 20))) for _ in range(12)]
    fixed = [(1, 1), (1, 0), (1, 12, 54, 108, 81)]
    return polys + [SkewCharPoly(2 * (len(c) - 1), c) for c in fixed]


SWEEP_TOLS = (1e-6, 1e-9, 1e-12, 1e-14)
SWEEP_CAPS = (50, 100, 200, 1000, 2**20)


class TestSweep:
    """skew_energy_integral evaluates F in one sweep over the grid of step
    2^-_SWEEP_LEVELS and reads every coarser level off it."""

    @pytest.mark.parametrize("node_cap", SWEEP_CAPS)
    @pytest.mark.parametrize("tol", SWEEP_TOLS)
    def test_equals_halving_field_for_field(self, monkeypatch, tol, node_cap):
        monkeypatch.setattr(energy, "_NODE_CAP", node_cap)
        for p in _seeded_polys():
            assert skew_energy_integral(p, tol) == trapezoid_by_halving(
                p, tol, node_cap
            ), p

    def test_evaluations_stay_within_the_cap(self, monkeypatch):
        inner, sizes = energy.log_psi_over_x2, []

        def counted(coeffs, x):
            sizes.append(len(x))
            return inner(coeffs, x)

        monkeypatch.setattr(energy, "log_psi_over_x2", counted)
        # a one-level sweep, so that the grid also reaches the levels past it
        levels = 1
        monkeypatch.setattr(energy, "_SWEEP_LEVELS", levels)
        past_sweep = 0
        for p in _seeded_polys():
            for tol in SWEEP_TOLS:
                for node_cap in SWEEP_CAPS:
                    monkeypatch.setattr(energy, "_NODE_CAP", node_cap)
                    sizes.clear()
                    res = skew_energy_integral(p, tol)
                    assert sum(sizes) <= node_cap
                    if res.nodes == 0:
                        assert sizes == []
                        continue
                    lo, hi, _, _ = _truncation(list(p.coeffs), energy._TAIL_SHARE * tol)
                    level = ((res.nodes - 1) // (hi - lo)).bit_length() - 1
                    assert res.nodes == ((hi - lo) << level) + 1
                    if level <= levels:
                        assert len(sizes) == 1
                    else:
                        past_sweep += 1
                        assert len(sizes) == 1 + level - levels
        assert past_sweep > 0


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
        # repeated spectra: the oriented 3-cube, +-i sqrt(3) four times
        # each, and the oriented 4-cube, +-2i eight times each
        assert energy_from_even_coeffs((1, 12, 54, 108, 81)) == pytest.approx(
            8 * math.sqrt(3), abs=1e-12
        )
        four_cube = tuple(math.comb(8, k) * 4**k for k in range(9))
        assert energy_from_even_coeffs(four_cube) == pytest.approx(32.0, abs=1e-12)


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
