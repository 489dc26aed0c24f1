"""Oriented graphs, their skew-adjacency matrices, and named constructions.

An oriented graph is a simple undirected graph together with a chosen
direction for each edge.  Vertices are the integers 0..n-1 throughout;
the hub and apex vertices of the built-in extremal constructions sit at
indices 0 and 1.  All types here are immutable, so one instance can be
shared by every caller, as the class enumeration's cache does.

Text interchange format ("oriented edge list"): the first significant
line is "n m", followed by exactly m lines "t h" giving the tail and
head of each arc.  Blank lines and lines starting with '#' are ignored.
Serialization emits arcs in their stored order, so parse(serialize(G))
reproduces G exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "GraphError",
    "ParseError",
    "OrientedGraph",
    "UndirectedGraph",
    "build",
    "skew_adjacency",
    "underlying",
    "construct_o_plus",
    "construct_b_plus",
    "oriented_star",
    "oriented_path",
    "oriented_cycle",
    "parse_graph",
    "serialize_graph",
    "delete_arc",
    "delete_vertices",
]


class GraphError(ValueError):
    """An arc or edge list violates the simple-graph invariants."""


class ParseError(GraphError):
    """Malformed graph text; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, eq=False)
class OrientedGraph:
    """Simple graph with every edge given a direction.

    Arcs are (tail, head) pairs of 0-based vertex indices.  Loops and
    repeated unordered pairs (including opposite arc pairs) are
    rejected, so each adjacent pair carries exactly one arc and the
    skew-adjacency entries are well defined.  Arc order is preserved
    and drives serialization; equality ignores it.
    """

    n: int
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise GraphError(f"vertex count must be a positive integer, got {self.n!r}")
        arcs = tuple((int(t), int(h)) for t, h in self.arcs)
        object.__setattr__(self, "arcs", arcs)
        seen: set[tuple[int, int]] = set()
        for t, h in arcs:
            if t == h:
                raise GraphError(f"loop arc ({t},{h}) is not allowed")
            if not (0 <= t < self.n and 0 <= h < self.n):
                raise GraphError(f"arc ({t},{h}) has an index out of range for n={self.n}")
            pair = (t, h) if t < h else (h, t)
            if pair in seen:
                raise GraphError(f"arc ({t},{h}) repeats the unordered pair {pair}")
            seen.add(pair)

    @property
    def m(self) -> int:
        return len(self.arcs)

    @property
    def arc_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.arcs)

    def underlying(self) -> "UndirectedGraph":
        return underlying(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrientedGraph):
            return NotImplemented
        return self.n == other.n and frozenset(self.arcs) == frozenset(other.arcs)

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.arcs)))

    def __repr__(self) -> str:
        return f"OrientedGraph(n={self.n}, arcs={list(self.arcs)})"


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph on vertices 0..n-1.

    Edges are normalized to sorted pairs in sorted order, so structural
    equality and hashing come straight from the dataclass machinery.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise GraphError(f"vertex count must be a positive integer, got {self.n!r}")
        norm = []
        seen: set[tuple[int, int]] = set()
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise GraphError(f"loop edge ({u},{v}) is not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u},{v}) has an index out of range for n={self.n}")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise GraphError(f"edge {pair} repeated")
            seen.add(pair)
            norm.append(pair)
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        d = [0] * self.n
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return tuple(d)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(self.degrees(), reverse=True))

    def max_degree(self) -> int:
        return max(self.degrees()) if self.n else 0

    def adjacency_sets(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def adjacency_masks(self) -> list[int]:
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj

    def has_edge(self, u: int, v: int) -> bool:
        pair = (u, v) if u < v else (v, u)
        return pair in self.edges

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        adj = self.adjacency_masks()
        seen = 1
        stack = [0]
        while stack:
            v = stack.pop()
            fresh = adj[v] & ~seen
            seen |= fresh
            while fresh:
                low = fresh & -fresh
                stack.append(low.bit_length() - 1)
                fresh ^= low
        return seen == (1 << self.n) - 1

    def is_tree(self) -> bool:
        return self.m == self.n - 1 and self.is_connected()


def build(n: int, arcs: Iterable[tuple[int, int]]) -> OrientedGraph:
    """Validate and freeze an arc list into an OrientedGraph."""
    return OrientedGraph(n, tuple(arcs))


def skew_adjacency(g: OrientedGraph) -> np.ndarray:
    """Antisymmetric {-1,0,+1} matrix with +1 at (tail, head) of each arc.

    The returned array is write-locked; callers that need to mutate must
    copy.
    """
    s = np.zeros((g.n, g.n), dtype=np.int64)
    for t, h in g.arcs:
        s[t, h] = 1
        s[h, t] = -1
    s.flags.writeable = False
    return s


def underlying(g: OrientedGraph) -> UndirectedGraph:
    """Forget arc directions."""
    return UndirectedGraph(g.n, tuple((min(t, h), max(t, h)) for t, h in g.arcs))


def construct_o_plus(n: int, m: int) -> OrientedGraph:
    """Out-directed star at vertex 0 plus m-n+1 arcs from distinct leaves into vertex 1.

    Every added arc closes a triangle through vertices 0 and 1.  Valid
    for n >= 5 and n <= m <= 2n-3, which keeps the added arcs on
    distinct third endpoints.
    """
    if n < 5 or not (n <= m <= 2 * n - 3):
        raise ValueError(
            f"construction requires n >= 5 and n <= m <= 2n-3; got n={n}, m={m}"
        )
    arcs = [(0, j) for j in range(1, n)]
    arcs += [(j, 1) for j in range(2, m - n + 3)]
    return OrientedGraph(n, tuple(arcs))


def construct_b_plus(n: int, m: int) -> OrientedGraph:
    """The m+1-arc hub construction with the hub-to-apex arc (0,1) removed.

    Valid for n >= 5 and n <= m <= 2n-4.  Underlying degree sequence is
    (n-2, m-n+2, 2, ..., 2, 1, ..., 1) with m-n+2 twos and 2n-m-4 ones.
    """
    if n < 5 or not (n <= m <= 2 * n - 4):
        raise ValueError(
            f"construction requires n >= 5 and n <= m <= 2n-4; got n={n}, m={m}"
        )
    wider = construct_o_plus(n, m + 1)
    return OrientedGraph(n, tuple(a for a in wider.arcs if a != (0, 1)))


def oriented_star(n: int) -> OrientedGraph:
    """Star with all arcs pointing away from the center vertex 0."""
    if n < 1:
        raise ValueError(f"star needs n >= 1, got {n}")
    return OrientedGraph(n, tuple((0, j) for j in range(1, n)))


def oriented_path(n: int) -> OrientedGraph:
    """Path 0 -> 1 -> ... -> n-1."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return OrientedGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def oriented_cycle(n: int, parity: str) -> OrientedGraph:
    """Even cycle on n vertices with the requested orientation parity.

    parity="even": all arcs follow the traversal 0,1,...,n-1 (n arcs
    along, an even count).  parity="odd": the closing arc is reversed,
    leaving n-1 arcs along the traversal.  Parity is only defined for
    even cycle length, so odd n is rejected.
    """
    if n < 4 or n % 2:
        raise ValueError(f"orientation parity needs an even cycle length >= 4, got n={n}")
    arcs = [(i, i + 1) for i in range(n - 1)]
    if parity == "even":
        arcs.append((n - 1, 0))
    elif parity == "odd":
        arcs.append((0, n - 1))
    else:
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    return OrientedGraph(n, tuple(arcs))


def parse_graph(text: str) -> OrientedGraph:
    """Parse the oriented edge list format, with positioned diagnostics."""
    header: tuple[int, int] | None = None
    arcs: list[tuple[int, int]] = []
    seen_pairs: set[tuple[int, int]] = set()
    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(line_no, f"expected two whitespace-separated integers, got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(line_no, f"expected two integers, got {line!r}") from None
        if header is None:
            if a < 1:
                raise ParseError(line_no, f"vertex count must be positive, got {a}")
            if b < 0:
                raise ParseError(line_no, f"arc count must be nonnegative, got {b}")
            header = (a, b)
            continue
        n, m = header
        if len(arcs) == m:
            raise ParseError(line_no, f"more than the declared {m} arcs")
        for idx in (a, b):
            if not (0 <= idx < n):
                raise ParseError(line_no, f"index {idx} out of range for n={n}")
        if a == b:
            raise ParseError(line_no, f"loop arc ({a},{b})")
        pair = (a, b) if a < b else (b, a)
        if pair in seen_pairs:
            raise ParseError(line_no, f"arc ({a},{b}) repeats the unordered pair {pair}")
        seen_pairs.add(pair)
        arcs.append((a, b))
    if header is None:
        raise ParseError(max(last_line, 1), "missing header line 'n m'")
    n, m = header
    if len(arcs) != m:
        raise ParseError(max(last_line, 1), f"declared {m} arcs but found {len(arcs)}")
    return OrientedGraph(n, tuple(arcs))


def serialize_graph(g: OrientedGraph) -> str:
    """Emit the oriented edge list format; arc order is preserved."""
    lines = [f"{g.n} {g.m}"]
    lines += [f"{t} {h}" for t, h in g.arcs]
    return "\n".join(lines) + "\n"


def delete_arc(g: OrientedGraph, arc: tuple[int, int]) -> OrientedGraph:
    """Remove one arc, keeping all vertices and the remaining arc order."""
    arc = (int(arc[0]), int(arc[1]))
    if arc not in g.arc_set:
        hint = ""
        if (arc[1], arc[0]) in g.arc_set:
            hint = f" (the reversed arc ({arc[1]},{arc[0]}) is)"
        raise ValueError(f"arc {arc} is not present{hint}")
    return OrientedGraph(g.n, tuple(a for a in g.arcs if a != arc))


def delete_vertices(g: OrientedGraph, dead: Iterable[int]) -> OrientedGraph:
    """Remove vertices and their arcs; survivors are relabeled in order."""
    gone = set(int(v) for v in dead)
    for v in gone:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    keep = [v for v in range(g.n) if v not in gone]
    if not keep:
        raise ValueError("cannot delete every vertex")
    remap = {old: new for new, old in enumerate(keep)}
    arcs = tuple(
        (remap[t], remap[h]) for t, h in g.arcs if t not in gone and h not in gone
    )
    return OrientedGraph(len(keep), arcs)
