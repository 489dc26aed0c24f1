"""Independent reference implementations used only by the tests.

Nothing here shares code with the production paths: determinants go
through Bareiss elimination and Lagrange interpolation or the
Faddeev-LeVerrier recursion, orientation censuses through the full
2^m stream, matchings and quadrangles through raw subset scans,
isomorphism through networkx's VF2, even cycles through an arc by
networkx's simple-path listing, and the subgraph expansion through
a list of every basic subgraph, and canonical forms through a scalar
search over vertex orders.  Two exceptions share production code: the
full-census certificate shares the per-class census and the verdict with
the class-bound scan it checks, and the trapezoid rule by halving shares
the integrand and the truncation with the one-sweep rule it checks.
Slow and simple on purpose.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Union

import numpy as np

from skewenergy.charpoly import SkewCharPoly, charpoly
from skewenergy.energy import (
    _ROUNDING,
    _TAIL_SHARE,
    IntegralEnergy,
    _truncation,
    log_psi_over_x2,
)
from skewenergy.extremal import (
    MinimalityCertificate,
    _decide,
    enumerate_connected_underlying,
    orientation_coefficient_census,
)
from skewenergy.graphs import (
    OrientedGraph,
    UndirectedGraph,
    build,
    construct_b_plus,
    construct_o_plus,
    underlying,
)
from skewenergy.subgraphs import CycleParity


def bareiss_det(rows) -> int:
    """Exact integer determinant by fraction-free elimination."""
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def charpoly_interpolated(s) -> list[int]:
    """All coefficients [c_0, ..., c_n] of det(xI - S) by interpolation.

    Evaluates the determinant at x = 0..n with Bareiss and interpolates
    with exact rationals; asserts integrality of the result.
    """
    n = len(s)
    if n == 0:
        return [1]
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        mat = [[(x if i == j else 0) - int(s[i][j]) for j in range(n)] for i in range(n)]
        ys.append(bareiss_det(mat))
    # accumulate Lagrange basis polynomials, ascending powers
    acc = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k] += c * (-xj)
                nxt[k + 1] += c
            basis = nxt
            denom *= xi - xj
        scale = Fraction(ys[i]) / denom
        for k, c in enumerate(basis):
            acc[k] += scale * c
    coeffs = []
    for i in range(n + 1):
        c = acc[n - i]
        assert c.denominator == 1, "interpolation produced a non-integer"
        coeffs.append(int(c))
    return coeffs


def faddeev_leverrier(s) -> list[int]:
    """All coefficients [c_0, ..., c_n] of det(xI - S) by the trace recursion.

    A_1 = S, c_k = -tr(A_k) / k, A_(k+1) = S (A_k + c_k I), over Python
    integers; asserts every division is exact and that the
    Cayley-Hamilton residual A_n + c_n I vanishes.
    """
    s = np.array(s, dtype=object)
    n = len(s)
    coeffs = [1]
    ident = np.eye(n, dtype=object)
    am = s
    residual = ident
    for k in range(1, n + 1):
        c, r = divmod(-int(np.trace(am)), k)
        assert r == 0, f"non-exact division at recursion step {k}"
        coeffs.append(c)
        residual = am + c * ident
        am = s.dot(residual)
    assert (residual == 0).all(), "Cayley-Hamilton residual is nonzero"
    return coeffs


def enumerate_orientations(ug: UndirectedGraph):
    """All 2^m orientations of a graph, bit k of the code reversing edge k."""
    for code in range(1 << ug.m):
        yield OrientedGraph(
            ug.n,
            tuple((v, u) if code >> k & 1 else (u, v) for k, (u, v) in enumerate(ug.edges)),
        )


def brute_matchings(ug: UndirectedGraph, r: int) -> int:
    """Count r-matchings by scanning all r-subsets of the edge set."""
    count = 0
    for combo in itertools.combinations(ug.edges, r):
        used = set()
        ok = True
        for u, v in combo:
            if u in used or v in used:
                ok = False
                break
            used.update((u, v))
        count += ok
    return count


def brute_quadrangle_edge_sets(ug: UndirectedGraph) -> list[frozenset]:
    """Every 4-cycle once, as the 4-edge subset it consists of.

    A 4-edge subset is a 4-cycle exactly when it covers 4 vertices, each
    twice: the only 2-regular simple graph on 4 vertices is C4.
    """
    found = []
    for combo in itertools.combinations(ug.edges, 4):
        deg: dict[int, int] = {}
        for u, v in combo:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        if len(deg) == 4 and all(d == 2 for d in deg.values()):
            found.append(frozenset(combo))
    return found


def random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [(rng.randrange(v), v) for v in range(1, n)]


def random_connected_oriented(rng: random.Random, n: int, m: int | None = None) -> OrientedGraph:
    """Random connected oriented graph: random spanning tree plus extras."""
    max_m = n * (n - 1) // 2
    if m is None:
        m = rng.randint(n - 1, max_m)
    if not (n - 1 <= m <= max_m):
        raise ValueError(f"m={m} out of range for connected n={n}")
    edges = set(tuple(sorted(e)) for e in random_tree_edges(rng, n))
    pool = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in edges
    ]
    edges.update(rng.sample(pool, m - len(edges)))
    arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in sorted(edges)]
    rng.shuffle(arcs)
    return build(n, arcs)


def random_oriented(rng: random.Random, n: int, m: int | None = None) -> OrientedGraph:
    """Random oriented graph, connectivity not required."""
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if m is None:
        m = rng.randint(0, len(pool))
    chosen = rng.sample(pool, m)
    arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in chosen]
    return build(n, arcs)


def random_permuted(rng: random.Random, g: OrientedGraph) -> OrientedGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build(g.n, [(perm[t], perm[h]) for t, h in g.arcs])


def nx_graph(ug: UndirectedGraph):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(ug.n))
    g.add_edges_from(ug.edges)
    return g


def nx_arc_on_even_cycle(g: OrientedGraph, arc: tuple[int, int]) -> bool:
    """Whether the arc lies on an even cycle: some simple path of odd
    length joins its endpoints in the underlying graph without it, found
    by listing every such path with networkx."""
    import networkx as nx

    u, v = arc
    h = nx_graph(underlying(g))
    h.remove_edge(u, v)
    return any(len(path) % 2 == 0 for path in nx.all_simple_paths(h, u, v))


def nx_connected_class_count(n: int, m: int) -> int:
    """Connected isomorphism classes by raw subset scan plus VF2 checks."""
    import networkx as nx

    pool = list(itertools.combinations(range(n), 2))
    buckets: dict[tuple, list] = {}
    count = 0
    for combo in itertools.combinations(pool, m):
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(combo)
        if not nx.is_connected(g):
            continue
        key = (
            tuple(sorted(d for _, d in g.degree())),
            sum(nx.triangles(g).values()),
        )
        bucket = buckets.setdefault(key, [])
        if not any(nx.is_isomorphic(g, h) for h in bucket):
            bucket.append(g)
            count += 1
    return count


def nx_automorphism_count(ug: UndirectedGraph) -> int:
    import networkx as nx

    g = nx_graph(ug)
    matcher = nx.algorithms.isomorphism.GraphMatcher(g, g)
    return sum(1 for _ in matcher.isomorphisms_iter())


def canonical_scalar(adj: list[int]) -> tuple[tuple[int, ...], int]:
    """(key, |Aut|) of the graph with adjacency masks adj, under the
    degree-sorted minimum bit-string order, one graph at a time.

    Works breadth-first over partial vertex orders: at each depth keep
    every placement that attains the minimal next adjacency row, so all
    survivors share one row prefix and any completed order realizes the
    canonical key.  The final frontier holds every order that does, one
    per automorphism, so its size is |Aut(G)|.  Row d of the key has bit
    d-1-i set exactly when the vertices placed at i and d are adjacent.
    The reference for ``extremal._canonical_batch``, which prunes twins.
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


def key_edges(key: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The sorted edges (i, d) of the graph a canonical key describes."""
    return tuple(sorted(
        (i, d) for d, row in enumerate(key) for i in range(d) if row >> (d - 1 - i) & 1
    ))


@lru_cache(maxsize=None)
def augment_every_non_edge(n: int, m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Connected (n, m) classes from every one-edge augmentation, unfiltered.

    The reference for the canonical-deletion filter in
    ``extremal._connected_classes``: the same canonical form, from the
    scalar search, and the same order of the result, but every non-edge
    of every (n, m-1) class, and every pendant vertex of every tree on
    n-1 vertices, is added and canonicalized.
    """
    if m < n - 1 or m > comb(n, 2):
        return ()
    if n == 1:
        return ((),)
    if m == n - 1:
        children = [
            edges + ((v, n - 1),)
            for edges in augment_every_non_edge(n - 1, m - 1)
            for v in range(n - 1)
        ]
    else:
        children = [
            edges + ((u, v),)
            for edges in augment_every_non_edge(n, m - 1)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in edges
        ]
    keys = {canonical_scalar(UndirectedGraph(n, edges).adjacency_masks())[0] for edges in children}
    return tuple(key_edges(key) for key in sorted(keys))


def deletion_filter_survivors(n: int, parents) -> int:
    """How many one-edge children P + uv of the given (n, m-1) edge lists
    have no cycle edge whose invariant (max degree, min degree, common
    neighbours) beats uv's: the children the canonical-deletion filter in
    ``extremal._connected_classes`` must canonicalize.  Every invariant is
    recomputed on the child, and cycle edges are the non-bridges.
    """
    import networkx as nx

    survivors = 0
    for edges in parents:
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) in edges:
                    continue
                g = nx_graph(UndirectedGraph(n, edges + ((u, v),)))
                bridges = {frozenset(e) for e in nx.bridges(g)}

                def invariant(x, y):
                    dx, dy = g.degree(x), g.degree(y)
                    return max(dx, dy), min(dx, dy), len(set(g[x]) & set(g[y]))

                mine = invariant(u, v)
                survivors += not any(
                    invariant(x, y) > mine
                    for x, y in g.edges
                    if frozenset((x, y)) not in bridges
                )
    return survivors


def census_certificate(n: int, m: int, predicted: str) -> MinimalityCertificate:
    """The certificate from the full census: every orientation of every
    class through the exact kernel, then the verdict.

    The reference for ``verify_theorem_1``, which censuses only the
    classes whose bound M(G,2) - 2q(G) on a_4 could reach the target's.
    """
    classes = enumerate_connected_underlying(n, m, max_n=n)
    o_vec = charpoly(construct_o_plus(n, m)).coeffs
    b_vec = charpoly(construct_b_plus(n, m)).coeffs
    if predicted == "Both":
        assert o_vec == b_vec
    target = b_vec if predicted == "B_plus" else o_vec
    census: Counter = Counter()
    for ug in classes:
        census.update(orientation_coefficient_census(ug))
    assert sum(census.values()) == len(classes) << m
    verdict, min_coeffs = _decide(n, census, target)
    return MinimalityCertificate(
        n=n,
        m=m,
        predicted=predicted,
        min_coeffs=min_coeffs,
        minimizer_count=census[min_coeffs],
        verdict=verdict,
        graphs_scanned=len(classes),
        orientations_scanned=sum(census.values()),
    )


# ---------------------------------------------------------------------------
# basic subgraphs, listed one by one
# ---------------------------------------------------------------------------

def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _arcs_along(g: OrientedGraph, seq) -> int:
    arcs = g.arc_set
    k = len(seq)
    return sum((seq[i], seq[(i + 1) % k]) in arcs for i in range(k))


@dataclass(frozen=True)
class ArcComponent:
    """A single arc used as a 2-vertex component."""

    tail: int
    head: int

    @property
    def vertices(self) -> tuple[int, int]:
        return (self.tail, self.head)


@dataclass(frozen=True)
class CycleComponent:
    """An even cycle component, written from its smallest vertex."""

    vertices: tuple[int, ...]
    parity: CycleParity


Component = Union[ArcComponent, CycleComponent]


@dataclass(frozen=True)
class BasicSubgraph:
    """Vertex-disjoint union of arcs and even cycles."""

    components: tuple[Component, ...]

    @property
    def vertex_count(self) -> int:
        return sum(len(c.vertices) for c in self.components)

    @property
    def cycle_count(self) -> int:
        return sum(isinstance(c, CycleComponent) for c in self.components)

    @property
    def evenly_oriented_count(self) -> int:
        return sum(
            isinstance(c, CycleComponent) and c.parity is CycleParity.EVENLY_ORIENTED
            for c in self.components
        )

    def weight(self) -> int:
        """Signed cycle weight: (-1)^(evenly oriented cycles) * 2^(cycles)."""
        w = 1
        for c in self.components:
            if isinstance(c, CycleComponent):
                w *= -2 if c.parity is CycleParity.EVENLY_ORIENTED else 2
        return w


def enumerate_basic_subgraphs(g: OrientedGraph, i: int) -> list[BasicSubgraph]:
    """All basic subgraphs of g covering exactly i vertices, each once.

    Components are anchored at their smallest vertex and generated in
    increasing anchor order, which rules out duplicates.  Cycles need
    only exist as subgraphs; chords in g do not disqualify them.
    """
    if i % 2:
        raise ValueError(f"basic subgraphs have even order, got i={i}")
    if not (0 <= i <= g.n):
        raise ValueError(f"i must lie in [0, {g.n}], got {i}")
    adj = underlying(g).adjacency_masks()
    arcs = g.arc_set
    out: list[BasicSubgraph] = []

    def oriented_arc(a: int, b: int) -> ArcComponent:
        return ArcComponent(a, b) if (a, b) in arcs else ArcComponent(b, a)

    def cycles_at(v: int, avail: int, max_len: int) -> list[tuple[int, ...]]:
        # simple cycles through v inside avail|{v}, even length >= 4,
        # second vertex < last vertex to fix the traversal direction
        found: list[tuple[int, ...]] = []
        path = [v]

        def dfs(used: int) -> None:
            cur = path[-1]
            if len(path) >= 4 and len(path) % 2 == 0 and adj[cur] >> v & 1:
                if path[1] < path[-1]:
                    found.append(tuple(path))
            if len(path) == max_len:
                return
            for w in _iter_bits(adj[cur] & avail & ~used):
                path.append(w)
                dfs(used | (1 << w))
                path.pop()

        dfs(0)
        return found

    def extend(avail: int, need: int, acc: list[Component]) -> None:
        if need == 0:
            out.append(BasicSubgraph(tuple(acc)))
            return
        if avail == 0 or avail.bit_count() < need:
            return
        v = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << v)
        extend(rest, need, acc)  # leave v uncovered
        for w in _iter_bits(adj[v] & rest):
            acc.append(oriented_arc(v, w))
            extend(rest & ~(1 << w), need - 2, acc)
            acc.pop()
        if need >= 4:
            for seq in cycles_at(v, rest, need):
                along = _arcs_along(g, seq)
                parity = (
                    CycleParity.ODDLY_ORIENTED
                    if along % 2
                    else CycleParity.EVENLY_ORIENTED
                )
                acc.append(CycleComponent(seq, parity))
                used = 0
                for x in seq:
                    used |= 1 << x
                extend(avail & ~used, need - len(seq), acc)
                acc.pop()

    extend((1 << g.n) - 1, i, [])
    return out


def trapezoid_by_halving(p: SkewCharPoly, tol: float, node_cap: int) -> IntegralEnergy:
    """skew_energy_integral's rule evaluated level by level: each halving
    of the step evaluates F afresh at its new midpoints."""
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

    scale = 2.0 / math.pi
    h = 1.0
    total = math.fsum(f(np.arange(lo, hi + 1.0)))
    value, est_error = scale * total, math.inf
    while est_error > tol and 2 * nodes - 1 <= node_cap:
        h /= 2
        total += math.fsum(f(lo + h * np.arange(1, 2 * nodes - 1, 2)))
        nodes = 2 * nodes - 1
        prev, value = value, scale * h * total
        est_error = abs(value - prev) + scale * (left + right) + _ROUNDING * value
        if abs(value - prev) <= _ROUNDING * value and _ROUNDING * value >= tol:
            break  # the rounding allowance alone is past tol; halving cannot help
    return IntegralEnergy(
        value=value, nodes=nodes, est_error=est_error, tolerance_met=est_error <= tol
    )
