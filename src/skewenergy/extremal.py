"""Exhaustive desk-scale search for minimum-skew-energy oriented graphs.

Pipeline, one serial pass class by class: enumerate connected
underlying graphs up to isomorphism, census the orientations of every
class (one per switching class, weighted by the class size), compute
exact coefficient vectors in bulk, and compare the energy minimizers
against the two hub constructions.  Energy increases in every
coefficient, so the quasi-order on exact coefficient vectors decides the
verdict, with the 60-digit energy integral for incomparable vectors;
floats only name the minimizer of a failed scan.

Canonical labeling: the minimum adjacency bit-string over all vertex
orders that list degrees in non-increasing sequence.  That restriction
is label-independent, so the minimum is a complete isomorphism
invariant, and it prunes the search to degree classes.  The final
frontier of that search has one order per automorphism, so it also
yields |Aut(G)|.

Class enumeration is one memoized recursion.  Trees grow from the trees
on one vertex fewer by a pendant vertex.  Every other (n, m) class grows
from the (n, m-1) classes by one edge, and a child is canonicalized only
when its new edge has the largest invariant (max degree, min degree,
common neighbours) among the child's cycle edges: the canonical-deletion
filter of McKay's canonical augmentation ("Isomorph-free exhaustive
generation", J. Algorithms 26, 1998), which loses no class because
deleting such an edge from any class leaves a connected (n, m-1) class.
Completeness is checked at run time: over the classes, sum n!/|Aut| must
equal the labelled connected count, or enumeration raises RuntimeError.
Exhaustive by construction, hence the default cap at n = 8.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .charpoly import QuasiOrder, SkewCharPoly, _even_coeffs_batch, charpoly, quasi_compare
from .energy import energy_from_even_coeffs, energy_from_even_coeffs_precise
from .graphs import UndirectedGraph, construct_b_plus, construct_o_plus
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


# ---------------------------------------------------------------------------
# canonical labeling and isomorphism-free enumeration
# ---------------------------------------------------------------------------

def _canonical(adj: list[int]) -> tuple[tuple[int, ...], int]:
    """(key, |Aut|) of the graph with adjacency masks adj, under the
    degree-sorted minimum bit-string order.

    Works breadth-first over partial vertex orders: at each depth keep
    every placement that attains the minimal next adjacency row, so all
    survivors share one row prefix and any completed order realizes the
    canonical key.  The final frontier holds every order that does, one
    per automorphism, so its size is |Aut(G)|.  Row d of the key has bit
    d-1-i set exactly when the vertices placed at i and d are adjacent,
    so the key is the canonically labeled graph itself (_class_graph).
    """
    n = len(adj)
    deg = [a.bit_count() for a in adj]
    frontier: list[tuple[tuple[int, ...], int]] = [((), 0)]
    rows: list[int] = []
    for want in sorted(deg, reverse=True):
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
    return tuple(rows), len(frontier)


def _class_graph(n: int, key: tuple[int, ...]) -> UndirectedGraph:
    """The canonically labeled graph a _canonical key describes."""
    edges = tuple(
        (i, d) for d, row in enumerate(key) for i in range(d) if row >> (d - 1 - i) & 1
    )
    return UndirectedGraph(n, edges)


@lru_cache(maxsize=None)
def labelled_graph_count(n: int, m: int) -> int:
    """Labelled simple graphs with n vertices and m edges."""
    if n < 0 or m < 0:
        return 0
    return comb(comb(n, 2), m)


@lru_cache(maxsize=None)
def labelled_connected_count(n: int, m: int) -> int:
    """Labelled connected graphs with n vertices, m edges, by the
    component-of-vertex-1 recurrence."""
    if n == 0:
        return 1 if m == 0 else 0
    total = labelled_graph_count(n, m)
    for k in range(1, n):
        ways = comb(n - 1, k - 1)
        for j in range(m + 1):
            total -= ways * labelled_connected_count(k, j) * labelled_graph_count(n - k, m - j)
    return total


def _check_complete(n: int, m: int, automorphisms) -> None:
    """Raise unless the classes count each labelled connected graph once.

    A class with automorphism group Aut has n!/|Aut| labellings, so a
    complete, duplicate-free list of the connected (n, m) classes has
    sum n!/|Aut| equal to the labelled connected count.
    """
    labelled = sum(factorial(n) // aut for aut in automorphisms)
    want = labelled_connected_count(n, m)
    if labelled != want:
        raise RuntimeError(
            f"class enumeration at (n, m) = ({n}, {m}) covers {labelled} labelled "
            f"graphs, not {want}; this is a bug"
        )


def _on_cycle(adj: list[int], x: int, y: int) -> bool:
    """Whether the edge xy lies on a cycle: y is reachable from x without it."""
    seen = 1 << x
    frontier = adj[x] & ~(1 << y)
    while frontier:
        if frontier >> y & 1:
            return True
        seen |= frontier
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
    return False


def _edge_invariant(adj: list[int], x: int, y: int) -> tuple[int, int, int]:
    """(max degree, min degree, common neighbours) of the edge xy."""
    dx, dy = adj[x].bit_count(), adj[y].bit_count()
    return max(dx, dy), min(dx, dy), (adj[x] & adj[y]).bit_count()


@lru_cache(maxsize=None)
def _connected_classes(n: int, m: int) -> tuple[UndirectedGraph, ...]:
    """Connected classes with n vertices and m edges, canonically labeled.

    Trees (m = n-1) grow from the trees on n-1 vertices by a pendant
    vertex, since a tree less a leaf is a tree.  Every connected graph C
    with m >= n edges has a cycle, and among its cycle edges one, e*, of
    largest invariant (max degree, min degree, common neighbours).
    C - e* is connected, so it is one of the (n, m-1) classes; that
    class's representative plus the image of e* is isomorphic to C, and
    the new edge has the largest invariant among the child's cycle
    edges, since the invariant ignores labels.  So a child P + uv is
    canonicalized only when no cycle edge of it beats uv's invariant:
    the cheap first step of McKay's canonical augmentation
    ("Isomorph-free exhaustive generation", J. Algorithms 26, 1998),
    which drops most children before their canonical form is built.

    Children are deduplicated by canonical key, and only then is each
    key decoded into its graph (_class_graph), in key order, so the
    output does not depend on which child reached a class first.  Before
    returning, the classes must satisfy sum n!/|Aut| = labelled
    connected count.  The cache holds each class's graph once, and
    enumerate_connected_underlying hands out those same objects.
    """
    if m < n - 1 or m > comb(n, 2):
        return ()
    if n == 1:
        return (UndirectedGraph(1, ()),)
    found: dict[tuple[int, ...], int] = {}
    if m == n - 1:
        leaf = n - 1
        for tree in _connected_classes(n - 1, m - 1):
            adj = tree.adjacency_masks() + [0]
            for v in range(leaf):
                adj[v] |= 1 << leaf
                adj[leaf] = 1 << v
                key, aut = _canonical(adj)
                found.setdefault(key, aut)
                adj[v] ^= 1 << leaf
    else:
        for parent in _connected_classes(n, m - 1):
            adj = parent.adjacency_masks()
            for u in range(n):
                for v in range(u + 1, n):
                    if adj[u] >> v & 1:
                        continue
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                    mine = _edge_invariant(adj, u, v)
                    if not any(
                        _edge_invariant(adj, x, y) > mine and _on_cycle(adj, x, y)
                        for x, y in parent.edges
                    ):
                        key, aut = _canonical(adj)
                        found.setdefault(key, aut)
                    adj[u] ^= 1 << v
                    adj[v] ^= 1 << u
    _check_complete(n, m, found.values())
    return tuple(_class_graph(n, key) for key in sorted(found))


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
    return list(_connected_classes(n, m))


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


def _decide(n: int, census, target: tuple[int, ...]) -> tuple[str, tuple[int, ...]]:
    """(verdict, min_coeffs) of the census vectors against the target vector.

    Energy, (1/pi) * integral of ln(sum a_2i x^2i) / x^2, increases in
    every coefficient, so the verdict is pass when each vector is >= the
    target componentwise, or incomparable with a larger 60-digit energy.
    On fail, min_coeffs is the vector of least float energy.
    """
    if target not in census:
        raise RuntimeError(
            "the predicted construction never appeared in the scan; this is a bug"
        )
    target_poly = SkewCharPoly(n, target)
    target_energy = None
    for vec in census:
        rel = quasi_compare(target_poly, SkewCharPoly(n, vec))
        if rel in (QuasiOrder.STRICTLY_LESS, QuasiOrder.EQUIVALENT):
            continue
        if rel is QuasiOrder.INCOMPARABLE:
            if target_energy is None:
                target_energy = energy_from_even_coeffs_precise(target)
            # a difference, so mpmath's 53-bit default rounds only a tiny number
            if energy_from_even_coeffs_precise(vec) - target_energy > 1e-30:
                continue
        return "fail", min(census, key=lambda v: (energy_from_even_coeffs(v), v))
    return "pass", target


def verify_theorem_1(n: int, m: int, max_n: int = DEFAULT_MAX_N) -> MinimalityCertificate:
    """Scan every orientation of every connected (n, m) class for the minimum.

    The verdict is exact (see _decide): integer comparisons with the
    predicted construction's vector, unless some vector is incomparable.

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
    verdict, min_coeffs = _decide(n, census, target)

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
