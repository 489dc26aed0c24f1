"""Skew energy by two independent routes.

The spectral route sums the singular values of the skew-adjacency
matrix, computed through the symmetric eigenproblem of S^T S so only
real arithmetic is involved.  The integral route evaluates

    (1/pi) * integral over R of  ln(psi(x)) / x^2  dx

where psi(x) = sum_i a_{2i} x^{2i} is built from the exact even
characteristic-polynomial coefficients.  Since every a_{2i} >= 0 and
a_0 = 1, psi >= 1 everywhere, the integrand is nonnegative, and the
x=0 singularity is removable with limit a_2.

Quadrature: the even integrand is folded to [0, inf), substituted with
x = tan(theta), and integrated over [0, pi/2) by adaptive
Gauss-Legendre bisection using a 15-vs-7 point rule difference as the
local error estimate.  The nodes and weights are literal, correctly
rounded constants.  Interval contributions are summed with math.fsum,
which is correctly rounded and so independent of their order; results
are run-to-run identical.

Across machines the floats are not bit-stable: numpy's vectorized tan,
log and log1p may differ from the correctly rounded value by an ulp, and
the quadrature sums over many nodes.  The node count and tolerance_met
are the same everywhere, and so are the digits the CLI prints (see
cli._cmd_energy); the full floats of IntegralEnergy and EnergyReport
are only stable from run to run on one machine.

An equivalent log-derivative form exists, integrating
n - x * phi'(x)/phi(x) over the line with phi the characteristic
polynomial; it is numerically less convenient (no removable-singularity
rewrite, slower decay handling) and is exercised only as a spot check
in the test suite, not offered as a production route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

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

# Gauss-Legendre nodes and weights on [-1, 1], each the double nearest to
# its exact value (checked against Newton-polished mpmath roots in the
# tests).  Literal, so the rule is the same on every machine; an
# eigensolver-built table moves in its last bits with the LAPACK build.
_GL7 = (
    np.array(
        [
            -0.9491079123427585,
            -0.7415311855993945,
            -0.4058451513773972,
            0.0,
            0.4058451513773972,
            0.7415311855993945,
            0.9491079123427585,
        ]
    ),
    np.array(
        [
            0.1294849661688697,
            0.27970539148927664,
            0.3818300505051189,
            0.4179591836734694,
            0.3818300505051189,
            0.27970539148927664,
            0.1294849661688697,
        ]
    ),
)
_GL15 = (
    np.array(
        [
            -0.9879925180204854,
            -0.937273392400706,
            -0.8482065834104272,
            -0.7244177313601701,
            -0.5709721726085388,
            -0.3941513470775634,
            -0.20119409399743451,
            0.0,
            0.20119409399743451,
            0.3941513470775634,
            0.5709721726085388,
            0.7244177313601701,
            0.8482065834104272,
            0.937273392400706,
            0.9879925180204854,
        ]
    ),
    np.array(
        [
            0.03075324199611727,
            0.07036604748810812,
            0.10715922046717194,
            0.13957067792615432,
            0.16626920581699392,
            0.1861610000155622,
            0.19843148532711158,
            0.2025782419255613,
            0.19843148532711158,
            0.1861610000155622,
            0.16626920581699392,
            0.13957067792615432,
            0.10715922046717194,
            0.07036604748810812,
            0.03075324199611727,
        ]
    ),
)
_MIN_WIDTH = 1e-14


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
        mu = np.linalg.eigvalsh(s.T @ s)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed on S^T S for matrix\n{s}") from exc
    # zero eigenvalues come back as O(eps*norm) noise whose square root
    # would pollute the sum; the true nonzero ones are far above this
    floor = g.n * np.finfo(np.float64).eps * max(float(mu[-1]), 1.0)
    mu = np.where(mu > floor, mu, 0.0)
    return float(np.sqrt(mu).sum())


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


def _interval_rules(f, a: float, b: float) -> tuple[float, float, int]:
    """(15-point value, |15-point - 7-point|, evaluations) on [a, b]."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x15, w15 = _GL15
    x7, w7 = _GL7
    v15 = half * float(np.dot(w15, f(mid + half * x15)))
    v7 = half * float(np.dot(w7, f(mid + half * x7)))
    return v15, abs(v15 - v7), len(x15) + len(x7)


def skew_energy_integral(
    p: SkewCharPoly, tol: float = 1e-9, node_cap: int = 2**20
) -> IntegralEnergy:
    """Adaptive quadrature of the coefficient-based energy integral.

    Returns the estimate together with the node count, the summed local
    error estimate, and whether it reached tol before the node cap.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    coeffs = p.coeffs

    def f(theta: np.ndarray) -> np.ndarray:
        lam = np.tan(theta)
        return log_psi_over_x2(coeffs, lam) / np.cos(theta) ** 2

    # factor 2/pi: even integrand folded to [0, inf), mapped to [0, pi/2)
    scale = 2.0 / math.pi
    cuts = [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]
    nodes = 0
    heap: list[tuple[float, float, float, float]] = []  # (-err, a, b, val)
    done: list[tuple[float, float]] = []  # (val, err)
    total_err = 0.0
    for a, b in zip(cuts, cuts[1:]):
        val, err, used = _interval_rules(f, a, b)
        nodes += used
        total_err += err
        heappush(heap, (-err, a, b, val))

    while heap and total_err * scale > tol and nodes < node_cap:
        neg_err, a, b, val = heappop(heap)
        err = -neg_err
        if b - a < _MIN_WIDTH:
            done.append((val, err))
            continue
        total_err -= err
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            v, e, used = _interval_rules(f, lo, hi)
            nodes += used
            total_err += e
            heappush(heap, (-e, lo, hi, v))

    segments = [(val, -neg_err) for neg_err, _, _, val in heap] + done
    value = scale * math.fsum(val for val, _ in segments)
    est_error = scale * math.fsum(err for _, err in segments)
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
    """Energy determined by an even coefficient vector alone.

    The vector factors det(xI - S) as x^(n-2K) * zeta(x^2) with zeta
    monic of degree K; the eigenvalue magnitudes are the square roots
    of the negated zeta roots.  The minimality scan uses it only to name
    the minimizer of a failed scan (the vector fixes the whole spectrum).
    """
    cs = [int(c) for c in coeffs]
    if len(cs) <= 1:
        return 0.0
    roots = np.roots(np.array(cs, dtype=np.float64))
    return float(2.0 * np.sqrt(np.clip(-roots.real, 0.0, None)).sum())


def energy_from_even_coeffs_precise(coeffs, dps: int = 60):
    """The energy integral of an even coefficient vector to dps digits, for tie-breaking.

    (2/pi) * integral over [0, inf) of log1p(y * h(y)) / y, y = x^2, with
    h the tail polynomial a_2 + a_4 y + ..., by mpmath's tanh-sinh
    quadrature split at x = 1.  Unlike a root finder it needs no distinct
    or nonzero roots, so it returns for every vector.
    """
    import mpmath as mp

    tail = [int(c) for c in coeffs][:0:-1]  # a_2h, ..., a_2

    def integrand(x):
        y = x * x
        return mp.log1p(y * mp.polyval(tail, y)) / y

    with mp.workdps(dps):
        return 2 * mp.quad(integrand, [0, 1, mp.inf]) / mp.pi
