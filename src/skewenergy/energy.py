"""Skew energy by two independent routes.

The spectral route sums the singular values of the skew-adjacency
matrix, from LAPACK's real SVD.  The integral route evaluates

    (1/pi) * integral over R of  ln(psi(x)) / x^2  dx

where psi(x) = sum_i a_{2i} x^{2i} is built from the exact even
characteristic-polynomial coefficients.  Since every a_{2i} >= 0 and
a_0 = 1, psi >= 1 everywhere, the integrand is nonnegative, and the
x=0 singularity is removable with limit a_2.  It alone turns a bare
coefficient vector into an energy (energy_from_even_coeffs, and to 60
digits for tie-breaking, energy_from_even_coeffs_precise).

Quadrature: the even integrand is folded to [0, inf) and substituted
with x = e^t, which gives E = (2/pi) * integral over R of F(t) dt with
F(t) = ln(psi(e^t)) * e^(-t).  psi(x) = prod_j (1 + lambda_j^2 x^2)
vanishes only where x^2 = -1/lambda_j^2, that is at Im t = +-pi/2, so F
is analytic in the strip |Im t| < pi/2 and decays exponentially at both
ends.  The trapezoidal rule with step h then converges like
exp(-pi^2/h) (Trefethen and Weideman, "The exponentially convergent
trapezoidal rule", SIAM Review 56, 2014): each halving of h about
squares the error, so |T_h - T_2h| overestimates the error of T_h.
The line is cut at integers lo <= 0 <= hi, with rigorous bounds on the
parts left out.  ln(1 + u) <= u and psi(x) - 1 <= (psi(1) - 1) x^2 for
x <= 1 give

    integral of F over (-inf, lo)  <=  (psi(1) - 1) * e^lo,

and psi(x) <= psi(1) x^(2K) for x >= 1, K the top nonzero index, gives

    integral of F over (hi, inf)  <=  (ln psi(1) + 2K (hi + 1)) * e^(-hi),

where psi(1) = sum_i a_{2i} is an exact integer.  F is evaluated in
one sweep over the grid of step 2^-3, where the default tolerance stops
on most graphs, or over the finest grid that node_cap allows.  The
nodes lo + j*h are exact floats, so each coarser level's nodes are a
strided slice of that sweep; past step 2^-3 each halving evaluates its
new midpoints afresh.  Each level's new node values are summed with
math.fsum, which is correctly rounded, so the result does not depend on
how the nodes were evaluated and is run-to-run identical.

Across machines the floats are not bit-stable: numpy's vectorized exp,
log and log1p may differ from the correctly rounded value by an ulp.
The node count and tolerance_met are the same everywhere, and so are the
digits the CLI prints (see cli._cmd_energy); the full floats of
IntegralEnergy and EnergyReport are only stable from run to run on one
machine.

An equivalent log-derivative form exists, integrating
n - x * phi'(x)/phi(x) over the line with phi the characteristic
polynomial; it is numerically less convenient (no removable-singularity
rewrite, slower decay handling) and is exercised only as a spot check
in the test suite, not offered as a production route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charpoly import SkewCharPoly, charpoly
from .graphs import OrientedGraph, UndirectedGraph, skew_adjacency

__all__ = [
    "IntegralEnergy",
    "EnergyReport",
    "skew_energy_spectral",
    "skew_energy_integral",
    "energy_report",
    "adjacency_energy_tree",
    "energy_from_even_coeffs",
    "energy_from_even_coeffs_precise",
    "log_psi_over_x2",
]

# Each tail bound is kept below this share of tol, so the truncation
# hardly shows in the value; each decade costs about 2.3/h nodes a side.
_TAIL_SHARE = 1e-6
# Relative allowance for rounding in est_error: each F value is within
# 4 * 2^-52 of its exact value (the tests check this against mpmath), and
# the sums and the scaling add a few units more.
_ROUNDING = 2.0**-49
# skew_energy_integral's one sweep covers the grid of step 2^-_SWEEP_LEVELS:
# at the default tol the rule stops there on most graphs and one level
# earlier on the rest.
_SWEEP_LEVELS = 3
# Working digits of energy_from_even_coeffs_precise.
_PRECISE_DPS = 60


@dataclass(frozen=True)
class IntegralEnergy:
    """Quadrature result with its diagnostics."""

    value: float
    nodes: int
    est_error: float
    tolerance_met: bool


@dataclass(frozen=True)
class EnergyReport:
    """Both energy routes side by side; the discrepancy is never hidden."""

    spectral: float
    integral: float
    discrepancy: float
    quadrature_nodes: int
    tolerance_met: bool


def skew_energy_spectral(g: OrientedGraph) -> float:
    """Sum of singular values of the skew-adjacency matrix."""
    s = skew_adjacency(g).astype(np.float64)
    try:
        return float(np.linalg.svd(s, compute_uv=False).sum())
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"SVD failed on the skew-adjacency matrix\n{s}") from exc


def log_psi_over_x2(coeffs, x: np.ndarray) -> np.ndarray:
    """ln(psi(x)) / x^2 evaluated stably for any x, with value a_2 at x=0.

    For |x| <= 1 the value is h(x^2) * log1p(t)/t with t = x^2 h(x^2)
    and h the tail polynomial a_2 + a_4 s + ...; for |x| > 1 psi is
    rescaled by its top power so nothing overflows.
    """
    coeffs = [int(c) for c in coeffs]
    top = 0
    for idx in range(len(coeffs) - 1, -1, -1):
        if coeffs[idx]:
            top = idx
            break
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    if top == 0:
        return out
    tail = coeffs[1 : top + 1]  # a_2 .. a_{2*top}

    low = np.abs(x) <= 1.0
    if np.any(low):
        s = x[low] ** 2
        h = np.zeros_like(s)
        for c in reversed(tail):
            h = h * s + c
        t = s * h
        ratio = np.ones_like(t)
        big = t > 0
        ratio[big] = np.log1p(t[big]) / t[big]
        out[low] = h * ratio
    high = ~low
    if np.any(high):
        x2 = x[high] ** 2
        s = 1.0 / x2
        # rho(s) = a_0 s^top + a_2 s^(top-1) + ... + a_{2*top}, so that
        # psi(x) = x^(2*top) * rho(1/x^2)
        rho = np.zeros_like(s)
        for c in coeffs[: top + 1]:
            rho = rho * s + c
        out[high] = (top * np.log(x2) + np.log(rho)) / x2
    return out


def _truncation(coeffs: list[int], eps: float) -> tuple[int, int, float, float]:
    """Grid limits lo <= 0 <= hi and the bounds on the integral of F below lo
    and above hi (see the module docstring), each at most eps."""
    psi1 = sum(coeffs)
    top = max(i for i, c in enumerate(coeffs) if c)
    lo = min(0, math.floor(math.log(eps) - math.log(psi1 - 1)))

    def right(hi: int) -> float:
        return (math.log(psi1) + 2 * top * (hi + 1)) * math.exp(-hi)

    # the first hi with (ln psi(1) + 2K) e^-hi <= eps; the loop absorbs 2K hi
    hi = max(0, math.ceil(math.log((math.log(psi1) + 2 * top) / eps)))
    while right(hi) > eps:
        hi += 1
    return lo, hi, (psi1 - 1) * math.exp(lo), right(hi)


def skew_energy_integral(
    p: SkewCharPoly, tol: float = 1e-9, node_cap: int = 2**20
) -> IntegralEnergy:
    """Trapezoidal rule for the coefficient-based energy integral in t = ln x.

    The step starts at 1 and halves, each halving adding only the new
    midpoints, until |T_h - T_2h| plus both tail bounds and a rounding
    allowance is at most tol, until the rounding allowance alone reaches
    tol and the last halving moved the value by no more than it, or
    until the next halving would take the node count past node_cap.
    The first _SWEEP_LEVELS halvings read F from one sweep, and F is
    never evaluated at more than node_cap nodes in all.  Returns the
    estimate together with the node count, that error estimate, and
    whether it reached tol.  If even the step-1 grid exceeds node_cap,
    no node is evaluated: the value is 0 and the error estimate
    infinite.  tol must be finite and
    at least 2^-48: est_error includes _ROUNDING * value, and every graph
    with an arc has energy at least 2, so no smaller tol can be met.
    """
    if not (math.isfinite(tol) and tol >= 2 * _ROUNDING):
        raise ValueError(f"tolerance must be finite and at least 2^-48, got {tol}")
    coeffs = [int(c) for c in p.coeffs]
    if not any(coeffs[1:]):
        return IntegralEnergy(value=0.0, nodes=0, est_error=0.0, tolerance_met=True)
    lo, hi, left, right = _truncation(coeffs, _TAIL_SHARE * tol)
    nodes = hi - lo + 1
    if nodes > node_cap:
        return IntegralEnergy(value=0.0, nodes=0, est_error=math.inf, tolerance_met=False)

    def f(t: np.ndarray) -> np.ndarray:
        x = np.exp(t)
        return x * log_psi_over_x2(coeffs, x)

    # one sweep over the finest grid that fits node_cap, up to step
    # 2^-_SWEEP_LEVELS; level k's new nodes are the odd multiples of
    # 2^(levels-k) among its indices
    levels = _SWEEP_LEVELS
    while ((nodes - 1) << levels) + 1 > node_cap:
        levels -= 1
    sweep = f(lo + 2.0**-levels * np.arange(((nodes - 1) << levels) + 1)).tolist()
    scale = 2.0 / math.pi
    h = 1.0
    total = math.fsum(sweep[:: 1 << levels])
    value, est_error = scale * total, math.inf
    level = 0
    while est_error > tol and 2 * nodes - 1 <= node_cap:
        h /= 2
        level += 1
        if level <= levels:
            stride = 1 << (levels - level)
            total += math.fsum(sweep[stride :: 2 * stride])
        else:
            total += math.fsum(f(lo + h * np.arange(1, 2 * nodes - 1, 2)))
        nodes = 2 * nodes - 1
        prev, value = value, scale * h * total
        est_error = abs(value - prev) + scale * (left + right) + _ROUNDING * value
        if abs(value - prev) <= _ROUNDING * value and _ROUNDING * value >= tol:
            break  # the rounding allowance alone is past tol; halving cannot help
    return IntegralEnergy(
        value=value,
        nodes=nodes,
        est_error=est_error,
        tolerance_met=est_error <= tol,
    )


def energy_report(g: OrientedGraph, tol: float = 1e-9) -> EnergyReport:
    """Run both routes on one graph and report their discrepancy."""
    spectral = skew_energy_spectral(g)
    integral = skew_energy_integral(charpoly(g), tol=tol)
    return EnergyReport(
        spectral=spectral,
        integral=integral.value,
        discrepancy=abs(spectral - integral.value),
        quadrature_nodes=integral.nodes,
        tolerance_met=integral.tolerance_met,
    )


def adjacency_energy_tree(ug: UndirectedGraph) -> float:
    """Energy of the symmetric adjacency matrix of a tree."""
    if not ug.is_tree():
        raise ValueError(f"graph with n={ug.n}, m={ug.m} is not a tree")
    a = np.zeros((ug.n, ug.n), dtype=np.float64)
    for u, v in ug.edges:
        a[u, v] = a[v, u] = 1.0
    try:
        lam = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed on adjacency matrix\n{a}") from exc
    return float(np.abs(lam).sum())


def energy_from_even_coeffs(coeffs) -> float:
    """Energy determined by an even coefficient vector alone: the value of
    skew_energy_integral at its default tolerance.

    The vector (a_0, a_2, ..., a_2K) fixes the whole spectrum, so it
    fixes the energy; the minimality scan uses this only to name the
    minimizer of a failed scan.
    """
    return skew_energy_integral(SkewCharPoly(2 * (len(coeffs) - 1), coeffs)).value


def energy_from_even_coeffs_precise(coeffs):
    """The energy integral of an even coefficient vector to _PRECISE_DPS
    digits, for tie-breaking.

    (2/pi) * integral over [0, inf) of log1p(y * h(y)) / y, y = x^2, with
    h the tail polynomial a_2 + a_4 y + ..., by mpmath's tanh-sinh
    quadrature split at x = 1.  It needs no distinct or nonzero roots, so
    it returns for every vector.
    """
    import mpmath as mp

    tail = [int(c) for c in coeffs][:0:-1]  # a_2h, ..., a_2

    def integrand(x):
        y = x * x
        return mp.log1p(y * mp.polyval(tail, y)) / y

    with mp.workdps(_PRECISE_DPS):
        return 2 * mp.quad(integrand, [0, 1, mp.inf]) / mp.pi
