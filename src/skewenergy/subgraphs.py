"""Combinatorial ground truth for skew-spectral computations.

Matching counts, quadrangle (4-cycle) counts, even-cycle orientation
parity, and the expansion of characteristic-polynomial coefficients over
packings of arcs and even cycles.  Everything here is exact integer
arithmetic and exhaustive enumeration; it exists to cross-check the
linear-algebra route, so correctness beats speed throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterator, Sequence, Union

from .graphs import OrientedGraph, UndirectedGraph, underlying

__all__ = [
    "CycleParity",
    "ArcComponent",
    "CycleComponent",
    "BasicSubgraph",
    "count_matchings",
    "matching_counts",
    "count_quadrangles",
    "quadrangles",
    "cycle_parity",
    "arc_on_even_cycle",
    "enumerate_basic_subgraphs",
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
    """Exact number of r-matchings for every r in 0..n//2.

    Recursion on the lowest-index remaining vertex (either unmatched or
    matched to one of its remaining neighbors), memoized on the induced
    vertex bitmask.  The memo table is per-call.
    """
    adj = ug.adjacency_masks()
    memo: dict[int, tuple[int, ...]] = {}

    def rec(mask: int) -> tuple[int, ...]:
        if mask == 0:
            return (1,)
        cached = memo.get(mask)
        if cached is not None:
            return cached
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        counts = list(rec(rest))
        for w in _iter_bits(adj[v] & rest):
            sub = rec(rest & ~(1 << w))
            if len(counts) < len(sub) + 1:
                counts.extend([0] * (len(sub) + 1 - len(counts)))
            for r, c in enumerate(sub):
                counts[r + 1] += c
        result = tuple(counts)
        memo[mask] = result
        return result

    full = rec((1 << ug.n) - 1)
    padded = full + (0,) * (ug.n // 2 + 1 - len(full))
    return padded


def count_matchings(ug: UndirectedGraph, r: int) -> int:
    """Number of r-matchings; 1 for r=0, 0 once 2r exceeds n."""
    if r < 0:
        raise ValueError(f"matching size must be nonnegative, got {r}")
    counts = matching_counts(ug)
    return counts[r] if r < len(counts) else 0


def quadrangles(ug: UndirectedGraph) -> list[tuple[int, int, int, int]]:
    """All 4-cycles, as vertex sequences in cyclic order, each once.

    Written from its smallest vertex a, a 4-cycle (a, b, c, d) has c
    opposite a and b < d, the two of their common neighbours it uses.
    So each pair b < d of common neighbours above a of a pair a < c
    gives one cycle, and no cycle comes twice.  Chords in the ambient
    graph are irrelevant.
    """
    adj = ug.adjacency_masks()
    found = []
    for a in range(ug.n):
        above = -1 << (a + 1)
        for c in range(a + 1, ug.n):
            common = _iter_bits(adj[a] & adj[c] & above)
            found.extend((a, b, c, d) for b, d in combinations(common, 2))
    return found


def count_quadrangles(ug: UndirectedGraph) -> int:
    return len(quadrangles(ug))


def _arcs_along(g: OrientedGraph, seq: Sequence[int]) -> int:
    arcs = g.arc_set
    k = len(seq)
    return sum((seq[i], seq[(i + 1) % k]) in arcs for i in range(k))


def cycle_parity(g: OrientedGraph, cycle: Sequence[int]) -> CycleParity:
    """Classify an even cycle, given as a vertex sequence in cyclic order."""
    seq = [int(v) for v in cycle]
    k = len(seq)
    if k < 3 or len(set(seq)) != k:
        raise ValueError(f"{cycle!r} is not a simple cycle")
    if k % 2:
        raise ValueError(f"orientation parity is undefined for odd cycle length {k}")
    adj = underlying(g).adjacency_masks()
    for u, v in zip(seq, seq[1:] + seq[:1]):
        if not (0 <= u < g.n and 0 <= v < g.n and adj[u] >> v & 1):
            raise ValueError(f"{cycle!r} is not a cycle: {u} and {v} are not adjacent")
    along = _arcs_along(g, seq)
    return CycleParity.ODDLY_ORIENTED if along % 2 else CycleParity.EVENLY_ORIENTED


def arc_on_even_cycle(g: OrientedGraph, arc: tuple[int, int]) -> bool:
    """Whether the arc lies on some even cycle of the underlying graph.

    Equivalent to the existence of an odd-length simple path between
    the arc's endpoints that avoids the arc itself.
    """
    u, v = int(arc[0]), int(arc[1])
    if (u, v) not in g.arc_set:
        raise ValueError(f"arc ({u},{v}) is not present")
    adj = underlying(g).adjacency_masks()

    found = False

    def dfs(cur: int, visited: int, length: int) -> None:
        nonlocal found
        if found:
            return
        for w in _iter_bits(adj[cur] & ~visited):
            if w == v:
                # reaching v with an odd path of >= 3 edges closes an even
                # cycle through the arc; length+1 == 1 is the arc itself
                if length + 1 >= 3 and (length + 1) % 2 == 1:
                    found = True
                    return
                continue
            dfs(w, visited | (1 << w), length + 1)
            if found:
                return

    dfs(u, 1 << u, 0)
    return found


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


def coefficient_by_expansion(g: OrientedGraph, i: int) -> int:
    """Characteristic-polynomial coefficient a_i from the subgraph expansion.

    Sums the signed cycle weight over every basic subgraph on i
    vertices.  Serves as the independent oracle for the exact
    linear-algebra route.
    """
    return sum(h.weight() for h in enumerate_basic_subgraphs(g, i))


@dataclass(frozen=True)
class A4Bound:
    """Result of the quartic-coefficient lower bound check."""

    lower_bound: int
    a4: int
    tight: bool


def a4_bound_check(g: OrientedGraph) -> A4Bound:
    """Check a4 >= M(G,2) - 2 q(G), tight iff all quadrangles are evenly oriented.

    The tightness flag is cross-validated against a direct parity scan
    of every quadrangle; a disagreement would be an implementation bug.
    """
    if g.n < 4:
        raise ValueError(f"needs at least 4 vertices, got n={g.n}")
    ug = underlying(g)
    m2 = count_matchings(ug, 2)
    quads = quadrangles(ug)
    bound = m2 - 2 * len(quads)
    a4 = coefficient_by_expansion(g, 4)
    tight = a4 == bound
    all_even = all(cycle_parity(g, seq) is CycleParity.EVENLY_ORIENTED for seq in quads)
    if tight != all_even:
        raise RuntimeError(
            "tightness disagrees with the quadrangle parity scan; "
            f"bound={bound}, a4={a4}, all_evenly_oriented={all_even}"
        )
    return A4Bound(lower_bound=bound, a4=a4, tight=tight)
