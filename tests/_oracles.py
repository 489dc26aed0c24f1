"""Independent reference implementations used only by the tests.

Nothing here shares code with the production paths: determinants go
through Bareiss elimination and Lagrange interpolation or the
Faddeev-LeVerrier recursion, orientation censuses through the full
2^m stream, matchings and quadrangles through raw subset scans, and
isomorphism through networkx's VF2.  The one exception is the
unfiltered class augmentation, which shares the canonical form with the
enumerator it checks.  Slow and simple on purpose.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from skewenergy.extremal import _canonical, _class_graph
from skewenergy.graphs import OrientedGraph, UndirectedGraph, build


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


@lru_cache(maxsize=None)
def augment_every_non_edge(n: int, m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Connected (n, m) classes from every one-edge augmentation, unfiltered.

    The reference for the canonical-deletion filter in
    ``extremal._connected_classes``: the same canonical form and the same
    order of the result, but every non-edge of every (n, m-1) class, and
    every pendant vertex of every tree on n-1 vertices, is added and
    canonicalized.
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
    keys = {_canonical(UndirectedGraph(n, edges).adjacency_masks())[0] for edges in children}
    return tuple(_class_graph(n, key).edges for key in sorted(keys))
