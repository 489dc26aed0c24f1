"""Exhaustive desk-scale search for minimum-skew-energy oriented graphs.

Pipeline, one serial pass class by class: enumerate connected
underlying graphs up to isomorphism, census the orientations of every
class (one per switching class, weighted by the class size), compute
exact coefficient vectors in bulk, and compare the energy minimizers
against the two hub constructions.  Floating-point energy is only a
pre-filter; every decision that matters is settled by exact integer
coefficient vectors (with a high-precision root fallback for the
pathological case of incomparable vectors inside the float margin).

Canonical labeling: the minimum adjacency bit-string over all vertex
orders that list degrees in non-increasing sequence.  That restriction
is label-independent, so the minimum is a complete isomorphism
invariant, and it prunes the search to degree classes.  Exhaustive by
construction, hence the default cap at n = 8.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .charpoly import QuasiOrder, SkewCharPoly, _even_coeffs_batch, charpoly, quasi_compare
from .energy import energy_from_even_coeffs, energy_from_even_coeffs_precise
from .graphs import OrientedGraph, UndirectedGraph, construct_b_plus, construct_o_plus
from .subgraphs import count_quadrangles

__all__ = [
    "enumerate_connected_underlying",
    "orientation_coefficient_census",
    "MinimalityCertificate",
    "verify_theorem_1",
    "predicted_family",
    "BoundReport",
    "verify_quadrangle_bound",
    "verify_quadrangle_bound_max_degree",
    "CrossoverRow",
    "crossover_table",
]

DEFAULT_MAX_N = 8
_ORIENTATION_GUARD = 30  # a census stands for 2^m orientations
_CENSUS_CHUNK = 4096
_ENERGY_PREFILTER_MARGIN = 1e-6


# ---------------------------------------------------------------------------
# canonical labeling and isomorphism-free enumeration
# ---------------------------------------------------------------------------

def _canonical(n: int, edges: tuple[tuple[int, int], ...]):
    """(key, relabeled edges) under the degree-sorted minimum bit-string order.

    Works breadth-first over partial vertex orders: at each depth keep
    every placement that attains the minimal next adjacency row, so all
    survivors share one row prefix and any completed order realizes the
    canonical key.
    """
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    deg = [a.bit_count() for a in adj]
    degseq = sorted(deg, reverse=True)

    frontier: list[tuple[tuple[int, ...], int]] = [((), 0)]
    rows: list[int] = []
    for depth in range(n):
        want = degseq[depth]
        best_row = None
        extensions: list[tuple[tuple[int, ...], int]] = []
        for placed, used in frontier:
            for v in range(n):
                if used >> v & 1 or deg[v] != want:
                    continue
                row = 0
                for p in placed:
                    row = (row << 1) | (adj[v] >> p & 1)
                if best_row is None or row < best_row:
                    best_row = row
                    extensions = [(placed + (v,), used | 1 << v)]
                elif row == best_row:
                    extensions.append((placed + (v,), used | 1 << v))
        rows.append(best_row)
        frontier = extensions
    order = frontier[0][0]
    position = {v: i for i, v in enumerate(order)}
    relabeled = tuple(
        sorted(tuple(sorted((position[u], position[v]))) for u, v in edges)
    )
    return tuple(rows), relabeled


@lru_cache(maxsize=None)
def _tree_classes(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All trees on n vertices up to isomorphism, canonically labeled."""
    if n == 1:
        return ((),)
    found: dict[tuple, tuple] = {}
    for edges in _tree_classes(n - 1):
        for v in range(n - 1):
            key, canon = _canonical(n, edges + ((v, n - 1),))
            found.setdefault(key, canon)
    return tuple(found[k] for k in sorted(found))


@lru_cache(maxsize=None)
def _connected_classes(n: int, m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Connected classes with m edges, grown edge-by-edge from the trees.

    Every connected graph with m >= n edges contains a connected
    spanning subgraph with one edge fewer (delete any non-bridge), so
    augmenting each (n, m-1) class by one edge reaches every class.
    """
    if m < n - 1 or m > comb(n, 2):
        return ()
    if m == n - 1:
        return _tree_classes(n)
    found: dict[tuple, tuple] = {}
    for edges in _connected_classes(n, m - 1):
        present = set(edges)
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) in present:
                    continue
                key, canon = _canonical(n, edges + ((u, v),))
                found.setdefault(key, canon)
    return tuple(found[k] for k in sorted(found))


def enumerate_connected_underlying(
    n: int, m: int, max_n: int = DEFAULT_MAX_N
) -> list[UndirectedGraph]:
    """All connected simple graphs with n vertices and m edges, one per class."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > max_n:
        raise ValueError(
            f"exhaustive enumeration is capped at n = {max_n} (got n = {n}); "
            "pass max_n explicitly to override"
        )
    if not (1 <= m <= comb(n, 2)):
        raise ValueError(f"need 1 <= m <= C(n,2) = {comb(n, 2)}, got m = {m}")
    return [UndirectedGraph(n, edges) for edges in _connected_classes(n, m)]


# ---------------------------------------------------------------------------
# orientation census
# ---------------------------------------------------------------------------

def _spanning_forest(ug: UndirectedGraph):
    """(forest edges, other edges) of a spanning forest grown in edge order."""
    root = list(range(ug.n))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    forest, rest = [], []
    for u, v in ug.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            rest.append((u, v))
        else:
            root[ru] = rv
            forest.append((u, v))
    return forest, rest


def orientation_coefficient_census(
    ug: UndirectedGraph, chunk: int = _CENSUS_CHUNK
) -> Counter:
    """Exact coefficient vector multiset over all 2^m orientations.

    Reversing every arc at a vertex maps S to DSD with D diagonal +-1,
    a similarity, so the coefficients depend only on the switching
    class.  Switchings act freely in orbits of 2^|F| orientations for a
    spanning forest F, and each orbit holds exactly one orientation with
    the forest edges directed as listed.  So only those are scanned,
    varying the other m - |F| edges in chunks through the batched
    kernel, and each count is multiplied by 2^|F|.  The result maps
    coefficient tuples to the number of orientations attaining them.
    """
    if ug.m > _ORIENTATION_GUARD:
        raise ValueError(
            f"refusing to scan 2^{ug.m} orientations (guard is 2^{_ORIENTATION_GUARD})"
        )
    n = ug.n
    forest, rest = _spanning_forest(ug)
    fixed = np.zeros((n, n), dtype=np.int64)
    for u, v in forest:
        fixed[u, v] = 1
        fixed[v, u] = -1
    tails, heads = np.array(rest, dtype=np.intp).reshape(-1, 2).T
    shifts = np.arange(len(rest), dtype=np.int64)
    counts: Counter = Counter()
    total = 1 << len(rest)
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        signs = 1 - 2 * ((codes[:, None] >> shifts) & 1)
        s = np.repeat(fixed[None], len(codes), axis=0)
        s[:, tails, heads] = signs
        s[:, heads, tails] = -signs
        block = _even_coeffs_batch(s)
        if n >= 2 and not (block[:, 1] == ug.m).all():
            raise RuntimeError("a_2 disagrees with the arc count; this is a bug")
        counts.update(map(tuple, block.tolist()))
    weight = 1 << len(forest)
    return Counter({vec: count * weight for vec, count in counts.items()})


# ---------------------------------------------------------------------------
# the minimality scan
# ---------------------------------------------------------------------------

def _check_window(n: int, m: int) -> None:
    if n < 5:
        raise ValueError(f"the minimality statement needs n >= 5, got n = {n}")
    if m == 2 * (n - 2):
        raise ValueError(
            f"m = 2(n-2) = {m} sits on the open boundary of the verified window "
            "n <= m < 2(n-2) and is excluded"
        )
    if not (n <= m < 2 * (n - 2)):
        raise ValueError(
            f"parameters outside the verified window n <= m < 2(n-2): n = {n}, m = {m}"
        )


def predicted_family(n: int, m: int) -> str:
    """Which construction should minimize, by the crossover at m = (3n-5)/2."""
    _check_window(n, m)
    if 2 * m < 3 * n - 5:
        return "O_plus"
    if 2 * m == 3 * n - 5:
        return "Both"
    return "B_plus"


@dataclass(frozen=True)
class MinimalityCertificate:
    """Outcome of one exhaustive minimum-energy scan."""

    n: int
    m: int
    predicted: str
    min_coeffs: tuple[int, ...]
    minimizer_count: int
    verdict: str
    graphs_scanned: int
    orientations_scanned: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "predicted": self.predicted,
            "min_coeffs": list(self.min_coeffs),
            "minimizer_count": self.minimizer_count,
            "verdict": self.verdict,
            "graphs_scanned": self.graphs_scanned,
            "orientations_scanned": self.orientations_scanned,
        }


def verify_theorem_1(n: int, m: int, max_n: int = DEFAULT_MAX_N) -> MinimalityCertificate:
    """Scan every orientation of every connected (n, m) class for the minimum.

    The minimum is located by float energy with a 1e-6 margin and then
    confirmed exactly: every in-margin competitor must be strictly
    dominated componentwise by the predicted vector (which implies a
    strictly larger energy).  Incomparable in-margin competitors, which
    the expected outcome never produces, are settled by 60-digit roots.

    The scan is serial.  A class's census is only 2^(m-n+1) <= 2^(n-4)
    matrices, so shipping the class to a worker process costs more than
    scanning it.
    """
    _check_window(n, m)
    classes = enumerate_connected_underlying(n, m, max_n=max_n)
    predicted = predicted_family(n, m)
    o_vec = charpoly(construct_o_plus(n, m)).coeffs
    b_vec = charpoly(construct_b_plus(n, m)).coeffs
    if predicted == "O_plus":
        target = o_vec
    elif predicted == "B_plus":
        target = b_vec
    else:
        if o_vec != b_vec:
            raise RuntimeError(
                "the two constructions disagree at the crossover; this is a bug"
            )
        target = o_vec

    census: Counter = Counter()
    for ug in classes:
        census.update(orientation_coefficient_census(ug))

    orientations = sum(census.values())
    if orientations != len(classes) * (1 << m):
        raise RuntimeError("orientation count does not add up; this is a bug")
    if target not in census:
        raise RuntimeError(
            "the predicted construction never appeared in the scan; this is a bug"
        )

    energies = {vec: energy_from_even_coeffs(vec) for vec in census}
    float_min = min(energies.values())
    in_margin = [
        vec for vec, e in energies.items() if e <= float_min + _ENERGY_PREFILTER_MARGIN
    ]

    verdict = "pass"
    min_coeffs = target
    if energies[target] > float_min + _ENERGY_PREFILTER_MARGIN:
        verdict = "fail"
        min_coeffs = min(in_margin, key=lambda vec: energies[vec])
    else:
        target_poly = SkewCharPoly(n, target)
        for vec in in_margin:
            if vec == target:
                continue
            rel = quasi_compare(target_poly, SkewCharPoly(n, vec))
            if rel is QuasiOrder.STRICTLY_LESS:
                continue
            if rel is QuasiOrder.STRICTLY_GREATER:
                verdict = "fail"
                min_coeffs = vec
                break
            # incomparable inside the margin: settle with high precision
            et = energy_from_even_coeffs_precise(target)
            ev = energy_from_even_coeffs_precise(vec)
            if et < ev - 1e-30:
                continue
            verdict = "fail"
            if ev < et:
                min_coeffs = vec
            break

    return MinimalityCertificate(
        n=n,
        m=m,
        predicted=predicted,
        min_coeffs=min_coeffs,
        minimizer_count=census[min_coeffs],
        verdict=verdict,
        graphs_scanned=len(classes),
        orientations_scanned=orientations,
    )


# ---------------------------------------------------------------------------
# quadrangle bounds and the crossover table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Result of checking a quadrangle-count bound over enumerated classes."""

    n: int
    m: int
    bound: int
    witnesses_checked: int
    violations: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "bound": self.bound,
            "witnesses_checked": self.witnesses_checked,
            "violations": [list(map(list, edges)) for edges in self.violations],
            "passed": self.passed,
        }


def _quadrangle_bound(n: int, m: int, max_n: int, dominating_only: bool) -> BoundReport:
    """The bound over every class, or only those with a dominating vertex.

    A dominating vertex lowers the bound from C(m-n+2, 2) to C(m-n+1, 2).
    """
    _check_window(n, m)
    bound = comb(m - n + (1 if dominating_only else 2), 2)
    violations = []
    checked = 0
    for ug in enumerate_connected_underlying(n, m, max_n=max_n):
        if dominating_only and ug.max_degree() != n - 1:
            continue
        checked += 1
        if count_quadrangles(ug) > bound:
            violations.append(ug.edges)
    return BoundReport(n, m, bound, checked, tuple(violations))


def verify_quadrangle_bound(n: int, m: int, max_n: int = DEFAULT_MAX_N) -> BoundReport:
    """q(G) <= C(m-n+2, 2) over every connected class in the window."""
    return _quadrangle_bound(n, m, max_n, dominating_only=False)


def verify_quadrangle_bound_max_degree(
    n: int, m: int, max_n: int = DEFAULT_MAX_N
) -> BoundReport:
    """q(G) <= C(m-n+1, 2) over the classes with a dominating vertex."""
    return _quadrangle_bound(n, m, max_n, dominating_only=True)


@dataclass(frozen=True)
class CrossoverRow:
    m: int
    a4_o_plus: int
    a4_b_plus: int
    winner: str


def crossover_table(n: int) -> list[CrossoverRow]:
    """Quartic coefficients of both constructions for every m in the window."""
    if n < 5:
        raise ValueError(f"need n >= 5, got {n}")
    rows = []
    for m in range(n, 2 * (n - 2)):
        a4_o = (m - n + 1) * (2 * n - m - 3)
        a4_b = (m - n + 2) * (2 * n - m - 4)
        rows.append(CrossoverRow(m, a4_o, a4_b, predicted_family(n, m)))
    return rows
