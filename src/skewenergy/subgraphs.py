"""Combinatorial ground truth for skew-spectral computations.

Matching counts, quadrangle (4-cycle) counts, even-cycle orientation
parity, a polynomial test of whether an arc lies on an even cycle, the
quartic coefficient from the quadrangle parities, and the expansion of
characteristic-polynomial coefficients over packings of arcs and even
cycles.  Everything here is exact integer arithmetic.  The expansion
sums its terms' weights through one memoized recursion over vertex
subsets instead of listing the terms; matchings, the basic subgraphs
without cycles, are counted by the same recursion.  None of it shares
code with the linear-algebra route it cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial, reduce
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .graphs import OrientedGraph, UndirectedGraph, _arc, _vertices

__all__ = [
    "CycleParity",
    "count_matchings",
    "matching_counts",
    "count_quadrangles",
    "quadrangles",
    "cycle_parity",
    "arc_on_even_cycle",
    "coefficient_by_expansion",
    "A4Bound",
    "a4_bound_check",
]


class CycleParity(Enum):
    """Orientation parity of an even cycle.

    A cycle is oddly oriented when an odd number of its arcs follow a
    fixed traversal direction.  For even cycle length this is
    independent of the traversal direction and starting vertex; odd
    cycles have no well-defined parity and are rejected wherever parity
    is asked for.
    """

    ODDLY_ORIENTED = "oddly-oriented"
    EVENLY_ORIENTED = "evenly-oriented"


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def matching_counts(ug: UndirectedGraph) -> tuple[int, ...]:
    """Exact number of r-matchings for every r in 0..n//2."""
    return tuple(count_matchings(ug, r) for r in range(ug.n // 2 + 1))


def count_matchings(ug: UndirectedGraph, r: int) -> int:
    """Number of r-matchings; 1 for r=0, 0 once 2r exceeds n.

    An r-matching is a basic subgraph on 2r vertices with no cycle
    component, each weighing 1, so it is _basic_sum with a cycle
    enumerator that finds none.
    """
    if r < 0:
        raise ValueError(f"matching size must be nonnegative, got {r}")
    return _basic_sum(ug.adjacency_masks(), lambda v, avail, max_len: (), 2 * r)


def _quadrangles(adj: list[int]) -> Iterator[tuple[int, int, int, int]]:
    """Every 4-cycle of the graph with adjacency masks adj, each once.

    Written from its smallest vertex a, a 4-cycle (a, b, c, d) has c
    opposite a and b < d, the two of their common neighbours it uses.
    So each pair b < d of common neighbours above a of a pair a < c
    gives one cycle, and no cycle comes twice.  Chords in the ambient
    graph are irrelevant.
    """
    n = len(adj)
    for a in range(n):
        above = -2 << a
        for c in range(a + 1, n):
            common = adj[a] & adj[c] & above
            if common & (common - 1):  # two or more
                for b, d in combinations(_iter_bits(common), 2):
                    yield a, b, c, d


def quadrangles(ug: UndirectedGraph) -> list[tuple[int, int, int, int]]:
    """All 4-cycles, as vertex sequences in cyclic order, each once."""
    return list(_quadrangles(ug.adjacency_masks()))


def count_quadrangles(ug: UndirectedGraph) -> int:
    """Number of 4-cycles: half the sum of C(|N(a) & N(c)|, 2) over pairs
    a < c, since each pair of common neighbours of a and c closes one
    4-cycle with diagonal ac, and each 4-cycle has two diagonals."""
    adj = ug.adjacency_masks()
    return sum(
        comb((adj[a] & adj[c]).bit_count(), 2) for a, c in combinations(range(ug.n), 2)
    ) // 2


def _two_matching_count(m: int, degrees: Iterable[int]) -> int:
    """M(G,2) in closed form from the edge count and degrees: C(m,2) - sum_v C(d_v,2).

    Of all pairs of edges, exactly those sharing a vertex are not
    2-matchings, and each such pair shares one vertex.
    """
    return comb(m, 2) - sum(comb(d, 2) for d in degrees)


def _arc_masks(g: OrientedGraph) -> tuple[list[int], list[int]]:
    """Adjacency and out-neighbour bitmasks, built in one pass over the arcs.

    out[t] masks the heads of the arcs at tail t.
    """
    adj = [0] * g.n
    out = [0] * g.n
    for t, h in g.arcs:
        out[t] |= 1 << h
        adj[t] |= 1 << h
        adj[h] |= 1 << t
    return adj, out


def cycle_parity(g: OrientedGraph, cycle: Sequence[int]) -> CycleParity:
    """Classify an even cycle, given as a vertex sequence in cyclic order."""
    seq = list(_vertices(g.n, cycle))
    k = len(seq)
    if k < 3 or len(set(seq)) != k:
        raise ValueError(f"{cycle!r} is not a simple cycle")
    if k % 2:
        raise ValueError(f"orientation parity is undefined for odd cycle length {k}")
    adj, out = _arc_masks(g)
    along = 0
    for u, v in zip(seq, seq[1:] + seq[:1]):
        if not adj[u] >> v & 1:
            raise ValueError(f"{cycle!r} is not a cycle: {u} and {v} are not adjacent")
        along += out[u] >> v & 1
    return CycleParity.ODDLY_ORIENTED if along % 2 else CycleParity.EVENLY_ORIENTED


def arc_on_even_cycle(g: OrientedGraph, arc: tuple[int, int]) -> bool:
    """Whether the arc uv lies on an even cycle: G - uv has an odd u-v path.

    Its vertices on u-v paths form H, the chain of blocks from u to v;
    w is in H when no vertex c != w cuts it off from {u, v} - {c}
    (Menger), one reach per c.  The answer is whether a parity-layered
    reach from u inside H meets v at odd length.  If H is bipartite,
    every u-v path has the parity of the colours; if not, a 2-connected
    non-bipartite block of the chain joins its entry and exit by paths
    of both parities, via two disjoint paths to an odd cycle.  An odd
    u-v path has 3 or more edges, so it closes an even cycle with uv,
    and from a bridge no walk reaches v.  Outside H, an odd cycle at a
    cut vertex gives odd walks but no odd path.  The arc must be present
    (graphs._arc).
    """
    return _on_even_cycle(g, *_arc(g, arc))


def _on_even_cycle(g: OrientedGraph, u: int, v: int) -> bool:
    """arc_on_even_cycle for an arc (u, v) that g has; unchecked."""
    n = g.n
    adj = _arc_masks(g)[0]
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u
    cover = [a << n for a in adj] + adj  # bit w: even length, bit n + w: odd

    def reach(seen: int, within: int) -> int:
        frontier = seen
        while frontier:
            frontier = reduce(int.__or__, (cover[w] for w in _iter_bits(frontier)))
            frontier &= within & ~seen
            seen |= frontier
        return seen

    h = (1 << n) - 1
    for c in range(n):
        seen = reach((1 << u | 1 << v) & ~(1 << c), ~(1 << c | 1 << n + c))
        h &= seen | seen >> n | 1 << c
    return bool(reach(1 << u, h | h << n) >> n + v & 1)


def _even_cycles_at(
    adj: list[int], out: list[int], v: int, avail: int, max_len: int
) -> list[tuple[int, int, int]]:
    """Simple cycles through v inside avail|{v}, of even length 4..max_len.

    Each cycle comes once, as (vertex mask, length, weight): the search
    walks only the vertex sequences from v whose second vertex is below
    their last, and carries along the path how many arcs run forward
    (out[u] masks the heads of the arcs at tail u).  Adding the arcs
    into and out of the closing vertex gives the cycle's parity, so the
    weight is 2 when the cycle is oddly oriented and -2 when evenly.
    Chords in the ambient graph are ignored.
    """
    found: list[tuple[int, int, int]] = []
    back = adj[v]

    def dfs(cur: int, used: int, k: int, above: int, along: int) -> None:
        # k vertices on the path v .. cur; above masks the vertices above
        # the second one; along arcs of the path run forward
        step = adj[cur] & avail & ~used
        fwd = out[cur]
        if k >= 3 and k % 2:
            ends = step & back & above
            while ends:
                low = ends & -ends
                ends ^= low
                w = low.bit_length() - 1
                odd = (along + (fwd >> w & 1) + (out[w] >> v & 1)) % 2
                found.append((used | low, k + 1, 2 if odd else -2))
        if k + 2 <= max_len:  # the shortest cycle past w has k + 2 vertices
            while step:
                low = step & -step
                step ^= low
                w = low.bit_length() - 1
                dfs(w, used | low, k + 1, above if k > 1 else -2 << w, along + (fwd >> w & 1))

    dfs(v, 1 << v, 1, 0, 0)
    return found


def _basic_sum(
    adj: list[int],
    cycles_at: Callable[[int, int, int], Iterable[tuple[int, int, int]]],
    i: int,
) -> int:
    """Weighted sum over the basic subgraphs on i vertices.

    adj holds the adjacency masks, and cycles_at(v, avail, max_len)
    yields the cycle components through v inside avail|{v} with at most
    max_len vertices, as (vertex mask, length, weight); arcs weigh 1.
    Cycles are even, so they are asked for only while 4 or more vertices
    remain to cover.

    total(avail, need) is the weighted sum over the basic subgraphs on
    need vertices inside the vertex set avail.  At the lowest vertex v
    of avail it splits by v's component: none (total(avail - v, need)),
    an arc vw (total(avail - v - w, need - 2)) or a cycle C through v,
    which adds its weight times total(avail - C, need - |C|).  Weights
    multiply over components and the sub-sum depends on nothing but
    (avail, need), so the recursion memoizes on that pair, per call.
    """
    memo: dict[tuple[int, int], int] = {}

    def total(avail: int, need: int) -> int:
        if need == 0:
            return 1
        if avail.bit_count() < need:
            return 0
        key = (avail, need)
        cached = memo.get(key)
        if cached is not None:
            return cached
        low = avail & -avail
        v = low.bit_length() - 1
        rest = avail ^ low
        s = total(rest, need)
        nbrs = adj[v] & rest
        while nbrs:
            bit = nbrs & -nbrs
            nbrs ^= bit
            s += total(rest ^ bit, need - 2)
        if need >= 4:
            for used, length, weight in cycles_at(v, rest, need):
                s += weight * total(avail & ~used, need - length)
        memo[key] = s
        return s

    return total((1 << len(adj)) - 1, i)


def coefficient_by_expansion(g: OrientedGraph, i: int) -> int:
    """Characteristic-polynomial coefficient a_i from the subgraph expansion.

    a_i is the sum, over the basic subgraphs of g on i vertices
    (vertex-disjoint unions of arcs and even cycles, chords allowed), of
    the product of their cycle weights: 2 for an oddly oriented cycle,
    -2 for an evenly oriented one, 1 for an arc.  Serves as the
    independent oracle for the exact linear-algebra route.

    No subgraph is built: _basic_sum splits at the lowest vertex by its
    component, an arc or an even cycle, and memoizes on the vertex set
    left and the vertex count still to cover.  The adjacency and
    out-neighbour masks are built once per call, in one pass over the
    arcs, and _even_cycles_at hands each cycle over with its weight
    already read off its search path.
    """
    if i % 2:
        raise ValueError(f"basic subgraphs have even order, got i={i}")
    if not (0 <= i <= g.n):
        raise ValueError(f"i must lie in [0, {g.n}], got {i}")
    adj, out = _arc_masks(g)
    return _basic_sum(adj, partial(_even_cycles_at, adj, out), i)


@dataclass(frozen=True)
class A4Bound:
    """Result of the quartic-coefficient lower bound check."""

    lower_bound: int
    a4: int
    tight: bool


def a4_bound_check(g: OrientedGraph) -> A4Bound:
    """The quartic coefficient a4 and its bound a4 >= M(G,2) - 2 q(G).

    Every basic subgraph on 4 vertices is a 2-matching, weighing 1, or
    a 4-cycle, weighing 2 when oddly oriented and -2 when evenly, so
    a4 = M(G,2) - 2 q_even + 2 q_odd (Hou and Lei, Electron. J. Combin.
    18, 2011).  Hence lower_bound = M(G,2) - 2 q, a4 = lower_bound +
    4 q_odd, and the bound is tight exactly when every quadrangle is
    evenly oriented.  One pass over the arcs builds the adjacency and
    out-neighbour masks; M(G,2) comes from their popcounts and each
    quadrangle's parity from four mask bits.  This a4 is checked against
    charpoly's trace route by verify-oracle and by the tests.
    """
    if g.n < 4:
        raise ValueError(f"needs at least 4 vertices, got n={g.n}")
    adj, out = _arc_masks(g)
    quads = odd = 0
    for a, b, c, d in _quadrangles(adj):
        quads += 1
        odd += (out[a] >> b ^ out[b] >> c ^ out[c] >> d ^ out[d] >> a) & 1
    bound = _two_matching_count(g.m, (mask.bit_count() for mask in adj)) - 2 * quads
    return A4Bound(lower_bound=bound, a4=bound + 4 * odd, tight=odd == 0)
